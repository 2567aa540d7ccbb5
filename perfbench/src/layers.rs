//! The traced run's view of the pipeline: the same work the service
//! and the batch reproduction do, replayed one layer call at a time
//! through each crate's public functions, with a span around every
//! call and the work counted from return values.

use crate::report::Report;
use crate::spans::Spans;
use databp_harness::WorkloadResults;
use databp_machine::{Machine, NoHooks, PageSize};
use databp_sessions::{enumerate_sessions, SessionSet};
use databp_sim::simulate_sizes;
use databp_trace::{write_columnar, Trace, TraceStore};
use databp_workloads::{compile_plain, run_traced, Prepared, Workload};

/// The default page-size ladder (4K and 8K).
pub const DEFAULT_LADDER: &[PageSize] = &[PageSize::K4, PageSize::K8];

/// Work counted per layer, summed over calls; the time of each call is
/// its span.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub compiles: u64,
    pub instructions: u64,
    pub events: u64,
    pub encoded_bytes: u64,
    pub encoded_events: u64,
    pub decoded_events: u64,
    pub saves: u64,
    pub saved_bytes: u64,
    pub candidates: u64,
    pub replayed_events: u64,
    pub replayed_event_sessions: u64,
    pub query_writes: u64,
    pub blocks_scanned: u64,
    pub blocks_skipped: u64,
    pub parses: u64,
    pub renders: u64,
    pub serializes: u64,
}

/// Phase 1 and phase 2 for one workload, one layer call at a time:
/// compile, an untraced run (the tracer's baseline), the traced run,
/// columnar encode, an optional store save, session enumeration, and
/// the fused replay at `ladder`.
pub fn build(
    sp: &Spans,
    req: u64,
    w: &Workload,
    store: Option<&TraceStore>,
    ladder: &[PageSize],
    t: &mut Tally,
) -> WorkloadResults {
    let plain = sp.time("tinyc.compile", req, || compile_plain(w));
    t.compiles += 1;
    let instructions = sp.time("machine.run", req, || {
        let mut m = Machine::new();
        m.load(&plain.program);
        m.set_args(w.args.clone());
        m.run(&mut NoHooks, w.max_steps).expect("plain run");
        m.cost().instructions
    });
    t.instructions += instructions;
    let (mut prepared, trace) = sp.time("trace.run_traced", req, || {
        run_traced(w, plain, Trace::new()).expect("traced run")
    });
    t.events += trace.len() as u64;
    let bytes = sp.time("trace.encode", req, || {
        let mut buf = Vec::new();
        write_columnar(&trace, &[], &mut buf).expect("in-memory encode");
        buf.len() as u64
    });
    t.encoded_bytes += bytes;
    t.encoded_events += trace.len() as u64;
    if let Some(store) = store {
        let written = sp.time("trace.store_save", req, || {
            store
                .save(w.workload_hash(), &trace, &prepared.output)
                .expect("store save")
        });
        t.saves += 1;
        t.saved_bytes += written;
    }
    prepared.trace = trace;
    replay(sp, req, prepared, ladder, t)
}

/// The warm-start path for one stored trace: load and decode it,
/// recompile the plain build, and replay. `base` carries the base-run
/// fields a store entry written by [`build`] does not hold.
pub fn load(
    sp: &Spans,
    req: u64,
    w: &Workload,
    store: &TraceStore,
    base: (f64, u64),
    ladder: &[PageSize],
    t: &mut Tally,
) -> WorkloadResults {
    let (trace, output) = sp.time("trace.decode", req, || {
        store
            .load(w.workload_hash())
            .expect("store load")
            .expect("stored entry")
    });
    t.decoded_events += trace.len() as u64;
    let plain = sp.time("tinyc.compile", req, || compile_plain(w));
    t.compiles += 1;
    let prepared = Prepared::from_parts(w.clone(), plain, trace, base.0, base.1, output);
    replay(sp, req, prepared, ladder, t)
}

/// Phase 2: session enumeration and the fused replay, then the same
/// zero-hit filtering the harness applies.
fn replay(
    sp: &Spans,
    req: u64,
    prepared: Prepared,
    ladder: &[PageSize],
    t: &mut Tally,
) -> WorkloadResults {
    let debug = &prepared.plain.debug;
    let trace = &prepared.trace;
    let (all, set) = sp.time("sessions.enumerate", req, || {
        let all = enumerate_sessions(debug, trace);
        let set = SessionSet::new(all.clone(), debug, trace);
        (all, set)
    });
    t.candidates += all.len() as u64;
    let per_size = sp.time("sim.replay", req, || simulate_sizes(trace, &set, ladder));
    t.replayed_events += trace.len() as u64;
    t.replayed_event_sessions += trace.len() as u64 * all.len() as u64;
    drop(set);
    let keep: Vec<usize> = (0..all.len()).filter(|&i| per_size[0][i].hit > 0).collect();
    let ladder_counts: Vec<Vec<_>> = per_size
        .iter()
        .map(|row| keep.iter().map(|&i| row[i]).collect())
        .collect();
    let at = |ps: PageSize| {
        ladder
            .iter()
            .position(|&p| p == ps)
            .expect("4K and 8K in ladder")
    };
    WorkloadResults {
        sessions: keep.iter().map(|&i| all[i]).collect(),
        counts4: ladder_counts[at(PageSize::K4)].clone(),
        counts8: ladder_counts[at(PageSize::K8)].clone(),
        ladder: ladder.to_vec(),
        ladder_counts,
        candidates: all.len(),
        prepared,
    }
}

/// The per-layer metrics: work from the tally, time from the spans'
/// self times.
pub fn metrics(t: &Tally, sp: &Spans, r: &mut Report) {
    let totals = sp.totals();
    let ns = |name: &str| totals.get(name).map_or(0, |s| s.self_ns);
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    r.put("tinyc.compiles", t.compiles as f64);
    r.put(
        "tinyc.compile_ms",
        per(ns("tinyc.compile"), t.compiles) / 1e6,
    );
    r.put("machine.instructions", t.instructions as f64);
    r.put(
        "machine.ns_per_instr",
        per(ns("machine.run"), t.instructions),
    );
    r.put("trace.events", t.events as f64);
    r.put(
        "trace.bytes_per_event",
        per(t.encoded_bytes, t.encoded_events),
    );
    r.put(
        "trace.tracer_ns_per_event",
        per(
            ns("trace.run_traced").saturating_sub(ns("machine.run")),
            t.events,
        ),
    );
    r.put(
        "trace.encode_ns_per_event",
        per(ns("trace.encode"), t.encoded_events),
    );
    r.put(
        "trace.decode_ns_per_event",
        per(ns("trace.decode"), t.decoded_events),
    );
    r.put(
        "trace.store_save_ms",
        per(ns("trace.store_save"), t.saves) / 1e6,
    );
    r.put("trace.store_bytes_written", t.saved_bytes as f64);
    r.put("sessions.candidates", t.candidates as f64);
    r.put(
        "sessions.enumerate_ms",
        ns("sessions.enumerate") as f64 / 1e6,
    );
    r.put("sim.events_replayed", t.replayed_events as f64);
    r.put(
        "sim.replay_ns_per_event",
        per(ns("sim.replay"), t.replayed_events),
    );
    r.put(
        "sim.replay_ns_per_event_session",
        per(ns("sim.replay"), t.replayed_event_sessions),
    );
    r.put(
        "sim.query_ns_per_event",
        per(ns("sim.query"), t.query_writes),
    );
    r.put("sim.query_blocks_scanned", t.blocks_scanned as f64);
    r.put("sim.query_blocks_skipped", t.blocks_skipped as f64);
    r.put(
        "sim.query_skip_frac",
        per(t.blocks_skipped, t.blocks_scanned + t.blocks_skipped),
    );
    r.put("models.overheads_ms", ns("models.overheads") as f64 / 1e6);
    r.put("server.parse_us", per(ns("server.parse"), t.parses) / 1e3);
    // `body_for` computes the overhead models and `query_body_for` runs
    // the scan again inside the render span; their own spans measured
    // that inner work just before, so it comes off the render time.
    let render = ns("server.render").saturating_sub(ns("sim.query") + ns("models.overheads"));
    r.put("server.render_us", per(render, t.renders) / 1e3);
    r.put(
        "server.serialize_us",
        per(ns("server.serialize"), t.serializes) / 1e3,
    );
}
