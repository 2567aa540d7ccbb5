//! `perfbench`: the end-to-end and per-layer benchmark of databp.
//!
//! ```text
//! perfbench --workload <paper|serve-warm|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin      # recompute pins.txt from the current program
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress and
//! diagnostics go to standard error. See README.md.

mod layers;
mod paper;
mod report;
mod script;
mod serve;
mod spans;

use databp_harness::{analyze_all_jobs, Scale};
use databp_models::Approach;
use databp_server::{CacheStatus, Request, RequestLine, Server, ServerConfig, ServerStats};
use databp_trace::TraceStore;
use databp_workloads::Workload;
use layers::Tally;
use report::{median, quantile, Pins, Report};
use script::{cold_epoch_len, cold_script, keys, warm_script, Kind};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, every workload, `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p90_ms", "ms"),
    ("slo_met_frac", "frac"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, every workload, `--trace 1` (zero where the
/// workload does not reach the layer).
const PER_LAYER: [(&str, &str); 47] = [
    ("tinyc.compile_ms", "ms"),
    ("tinyc.compiles", "count"),
    ("machine.instructions", "count"),
    ("machine.ns_per_instr", "ns"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "B"),
    ("trace.tracer_ns_per_event", "ns"),
    ("trace.encode_ns_per_event", "ns"),
    ("trace.decode_ns_per_event", "ns"),
    ("trace.store_save_ms", "ms"),
    ("trace.store_bytes_written", "count"),
    ("sessions.candidates", "count"),
    ("sessions.enumerate_ms", "ms"),
    ("sim.events_replayed", "count"),
    ("sim.replay_ns_per_event", "ns"),
    ("sim.replay_ns_per_event_session", "ns"),
    ("sim.query_ns_per_event", "ns"),
    ("sim.query_blocks_scanned", "count"),
    ("sim.query_blocks_skipped", "count"),
    ("sim.query_skip_frac", "frac"),
    ("sim.soundness_ms", "ms"),
    ("core.cp_stores_checked", "count"),
    ("core.cp_stores_elided", "count"),
    ("core.cp_stores_hoisted", "count"),
    ("harness.staticopt_ms", "ms"),
    ("harness.loopopt_ms", "ms"),
    ("harness.dyncp_ms", "ms"),
    ("harness.verify_ms", "ms"),
    ("harness.tables_ms", "ms"),
    ("models.overheads_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.render_us", "us"),
    ("server.serialize_us", "us"),
    ("server.cache_hit_rate", "frac"),
    ("server.cache_misses", "count"),
    ("server.cache_evictions", "count"),
    ("server.rewalks", "count"),
    ("server.rejected", "count"),
    ("server.unattributed_ms", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.query_p50_ms", "ms"),
    ("client.report_p50_ms", "ms"),
    ("client.miss_p50_ms", "ms"),
    ("client.requests", "count"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.remainder_frac", "frac"),
];

/// Times each set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Latency limits behind `slo_met_frac`, ms (also in BENCHMARK.json).
const PAPER_SLO_MS: f64 = 30_000.0;
const WARM_SLO_MS: f64 = 2_000.0;
const COLD_SLO_MS: f64 = 10_000.0;

/// Work per run is fixed by `--seconds` alone, so both sides of a
/// comparison do the same work: one unit per this many nominal seconds.
const PAPER_PASS_S: f64 = 2.5;
const WARM_ROUND_S: f64 = 1.0;
const COLD_EPOCH_S: f64 = 1.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where runs keep trace stores and span files: `out/` next to this
/// package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn units(seconds: f64, per: f64, min: usize) -> usize {
    ((seconds / per).round() as usize).max(min)
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pin"] {
        return Ok(None);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper", "serve-warm", "serve-cold"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper, serve-warm or serve-cold, not {:?}",
            args.workload
        ));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return pin(),
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <paper|serve-warm|serve-cold> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    if args.trace {
        // A layer the workload bypasses reads 0.
        for (name, _) in PER_LAYER {
            r.put(name, 0.0);
        }
    }
    match args.workload.as_str() {
        "paper" => run_paper(&args, &mut r),
        "serve-warm" => run_warm(&args, &mut r),
        _ => run_cold(&args, &mut r),
    }
    r.put("peak_rss_mb", report::peak_rss_mb());
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", r.json(names));
    ExitCode::SUCCESS
}

/// Records the latency-derived end-to-end metrics of one timed phase.
fn put_latencies(r: &mut Report, lat_ms: &[f64], oks: &[bool], wall_s: f64, slo_ms: f64) {
    let ok = oks.iter().filter(|&&o| o).count();
    let in_slo = lat_ms
        .iter()
        .zip(oks)
        .filter(|&(&l, &o)| o && l <= slo_ms)
        .count();
    let n = lat_ms.len().max(1) as f64;
    r.put("wall_s", wall_s);
    r.put("throughput_rps", ok as f64 / wall_s);
    r.put("client.latency_p50_ms", median(lat_ms));
    r.put("latency_p90_ms", quantile(lat_ms, 0.9));
    r.put("slo_met_frac", in_slo as f64 / n);
}

/// Self time summed over every span of a layer (anything not opened by
/// the benchmark's own `bench.*` / `client.*` roots).
fn layer_self_ns(sp: &Spans) -> u64 {
    sp.totals()
        .iter()
        .filter(|(n, _)| !n.starts_with("bench.") && !n.starts_with("client."))
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// Summed self time of the spans with these names, ms.
fn span_ms(sp: &Spans, names: &[&str]) -> f64 {
    let totals = sp.totals();
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.self_ns as f64 / 1e6)
        .sum()
}

/// Runs `f` with the program's own telemetry enabled from zero, and
/// returns its snapshot.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, databp_telemetry::Snapshot) {
    databp_telemetry::set_enabled(true);
    databp_telemetry::global().reset();
    let v = f();
    let snap = databp_telemetry::global().snapshot();
    databp_telemetry::set_enabled(false);
    (v, snap)
}

fn write_spans(sp: &Spans, args: &Args, part: &str) {
    let path = out_dir().join(format!(
        "spans-{}-{}-{part}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = sp.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run_paper(args: &Args, r: &mut Report) {
    let pins = Pins::committed();
    let threads = cores();
    let mut setups = Vec::new();
    let mut results = Vec::new();
    for _ in 0..SETUP_REPS {
        results.clear();
        let t = Instant::now();
        results = analyze_all_jobs(Scale::Full, threads);
        setups.push(t.elapsed().as_secs_f64());
    }
    r.put("setup_s", median(&setups));
    let passes = units(args.seconds, PAPER_PASS_S, 1);
    let list: Vec<paper::Job> = (0..passes)
        .flat_map(|_| paper::jobs(results.len()))
        .collect();
    eprintln!(
        "perfbench: paper: {passes} pass(es), {} jobs on {threads} threads",
        list.len()
    );

    let timed = |sp: &Spans| {
        let t = Instant::now();
        let done = paper::run_jobs(&list, &results, threads, &pins, sp);
        (done, t.elapsed().as_secs_f64())
    };
    let (done, wall) = timed(&Spans::new(false));
    let lat: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let oks: Vec<bool> = done.iter().map(|d| d.failures == 0).collect();
    put_latencies(r, &lat, &oks, wall, PAPER_SLO_MS);
    r.attempted = done.iter().map(|d| d.operations).sum();
    r.failed = done.iter().map(|d| d.failures).sum();
    let checks = passes * (paper::CHECKS + paper::PINNED_ARTIFACTS);
    if r.attempted != checks as u64 {
        r.problem(format!(
            "expected {checks} artifacts and checks, ran {}",
            r.attempted
        ));
    }
    r.put("ok_frac", 1.0 - r.failed as f64 / r.attempted.max(1) as f64);
    if !args.trace {
        return;
    }

    // Traced pass: the same jobs, with spans and the program's telemetry.
    let sp_b = Spans::new(true);
    let ((done_b, wall_b), snap) = with_telemetry(|| timed(&sp_b));
    if done_b.iter().map(|d| d.failures).sum::<u64>() != 0 {
        r.problem("traced pass produced different outputs");
    }
    write_spans(&sp_b, args, "traced");
    r.put("telemetry.overhead_frac", wall_b / wall - 1.0);
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    r.put("core.cp_stores_checked", counter("cp.stores_checked"));
    r.put("core.cp_stores_elided", counter("cp.stores_elided"));
    r.put("core.cp_stores_hoisted", counter("cp.stores_hoisted"));
    r.put(
        "sim.soundness_ms",
        snap.span("sim.soundness")
            .map_or(0.0, |s| s.total_ns as f64 / 1e6),
    );

    // Layer replay: set-up one layer call at a time, the overhead
    // models, then the jobs with a span each.
    drop(results);
    let sp = Spans::new(true);
    let mut tally = Tally::default();
    let t = Instant::now();
    let layered: Vec<_> = Workload::all()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            sp.time("bench.setup", i as u64, || {
                layers::build(&sp, i as u64, w, None, layers::DEFAULT_LADDER, &mut tally)
            })
        })
        .collect();
    let serial_s = t.elapsed().as_secs_f64();
    sp.time("bench.models", 0, || {
        for res in &layered {
            for a in Approach::ALL {
                sp.time("models.overheads", 0, || {
                    std::hint::black_box(databp_harness::overheads_for(res, a))
                });
            }
        }
    });
    let t = Instant::now();
    let done_c = paper::run_jobs(&paper::jobs(layered.len()), &layered, threads, &pins, &sp);
    let parallel_s = t.elapsed().as_secs_f64();
    if done_c.iter().map(|d| d.failures).sum::<u64>() != 0 {
        r.problem("layer replay of the set-up produced different outputs");
    }
    write_spans(&sp, args, "layers");
    layers::metrics(&tally, &sp, r);
    for span in [
        "harness.staticopt",
        "harness.loopopt",
        "harness.dyncp",
        "harness.verify",
        "harness.tables",
    ] {
        r.put(&format!("{span}_ms"), span_ms(&sp, &[span]));
    }
    let thread_s = serial_s + parallel_s * threads as f64;
    r.put(
        "telemetry.remainder_frac",
        1.0 - layer_self_ns(&sp) as f64 / 1e9 / thread_s,
    );
}

/// Counter growth between two stats probes.
fn grown(a: &ServerStats, b: &ServerStats) -> [u64; 6] {
    [
        b.requests - a.requests,
        b.cache_hits - a.cache_hits,
        b.cache_misses - a.cache_misses,
        b.cache_rewalks - a.cache_rewalks,
        b.rejected - a.rejected,
        b.errors - a.errors,
    ]
}

/// Records a timed service phase's end-to-end metrics and tallies.
fn put_service(r: &mut Report, out: &[serve::Outcome], wall: f64, slo_ms: f64) {
    let lat: Vec<f64> = out.iter().map(|o| o.ms).collect();
    let oks: Vec<bool> = out.iter().map(|o| o.ok).collect();
    put_latencies(r, &lat, &oks, wall, slo_ms);
    r.attempted += out.len() as u64;
    r.failed += oks.iter().filter(|&&o| !o).count() as u64;
    r.put("ok_frac", 1.0 - r.failed as f64 / r.attempted.max(1) as f64);
    let p50 = |f: &dyn Fn(&serve::Outcome) -> bool| {
        median(
            &out.iter()
                .filter(|o| f(o))
                .map(|o| o.ms)
                .collect::<Vec<_>>(),
        )
    };
    r.put("client.requests", out.len() as f64);
    r.put(
        "client.latency_p99_ms",
        if out.len() >= 1000 {
            quantile(&lat, 0.99)
        } else {
            0.0
        },
    );
    r.put(
        "client.query_p50_ms",
        p50(&|o| matches!(o.kind, Kind::Query(_))),
    );
    r.put(
        "client.report_p50_ms",
        p50(&|o| matches!(o.kind, Kind::Report(..))),
    );
    r.put(
        "client.miss_p50_ms",
        p50(&|o| o.cache == Some(CacheStatus::Miss)),
    );
}

fn put_cache(r: &mut Report, g: &[u64; 6], evictions: u64) {
    r.put("server.cache_hit_rate", g[1] as f64 / g[0].max(1) as f64);
    r.put("server.cache_misses", g[2] as f64);
    r.put("server.cache_evictions", evictions as f64);
    r.put("server.rewalks", g[3] as f64);
    r.put("server.rejected", g[4] as f64);
}

/// Mean of the `server.submit_wait` spans, ms.
fn mean_submit_wait_ms(sp: &Spans) -> f64 {
    sp.totals()
        .get("server.submit_wait")
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e6)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_warm(args: &Args, r: &mut Report) {
    let pins = Pins::committed();
    let dir = fresh_dir("warm-store");
    serve::fill_store(&dir);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        server = Some(serve::warm_start(&dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("started");
    r.put("setup_s", median(&setups));
    let script = warm_script(args.seed, units(args.seconds, WARM_ROUND_S, 1));
    let threads = serve::clients(cores(), server.config().queue_depth);
    eprintln!(
        "perfbench: serve-warm: {} requests, {threads} clients",
        script.len()
    );

    let s0 = server.stats();
    let (out, wall) = serve::closed_loop(&server, &script, threads, &pins, &Spans::new(false));
    let s1 = server.stats();
    let g = grown(&s0, &s1);
    if g[2] != 0 || g[3] != 0 || g[4] != 0 {
        r.problem(format!(
            "timed phase had {} misses, {} rewalks, {} rejections",
            g[2], g[3], g[4]
        ));
    }
    put_service(r, &out, wall, WARM_SLO_MS);
    if !args.trace {
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    let sp_b = Spans::new(true);
    let ((_, wall_b), snap) =
        with_telemetry(|| serve::closed_loop(&server, &script, threads, &pins, &sp_b));
    let g_b = grown(&s1, &server.stats());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if g_b != g {
        r.problem(format!(
            "service counters differ between passes: {g:?} vs {g_b:?}"
        ));
    }
    write_spans(&sp_b, args, "traced");
    r.put("telemetry.overhead_frac", wall_b / wall - 1.0);
    put_cache(r, &g, snap.counter("server.cache.evictions").unwrap_or(0));

    // Layer replay: warm start and the first round, one call at a time.
    let dir = fresh_dir("warm-layers");
    let store = TraceStore::open(&dir).expect("trace store opens");
    let mut scratch = Tally::default();
    let off = Spans::new(false);
    let base: Vec<(f64, u64)> = keys()
        .iter()
        .map(|k| {
            let res = layers::build(
                &off,
                0,
                &k.workload(),
                Some(&store),
                layers::DEFAULT_LADDER,
                &mut scratch,
            );
            (res.prepared.base_us, res.prepared.instructions)
        })
        .collect();
    let sp = Spans::new(true);
    let mut tally = Tally::default();
    let t = Instant::now();
    let cached: Vec<_> = keys()
        .iter()
        .zip(&base)
        .enumerate()
        .map(|(i, (k, &b))| {
            sp.time("bench.setup", i as u64, || {
                let res = layers::load(
                    &sp,
                    i as u64,
                    &k.workload(),
                    &store,
                    b,
                    serve::WIDE_LADDER,
                    &mut tally,
                );
                if k.full {
                    let n = sp.time("trace.encode", i as u64, || {
                        res.prepared.columnar_bytes().len()
                    });
                    tally.encoded_bytes += n as u64;
                    tally.encoded_events += res.prepared.trace.len() as u64;
                }
                (*k, res)
            })
        })
        .collect();
    let round = &script[..script.len().min(script::warm_round_len())];
    let mut bad = 0;
    for item in round {
        let res = &cached
            .iter()
            .find(|(k, _)| *k == item.key)
            .expect("cached key")
            .1;
        if !sp.time("bench.request", item.seq as u64, || {
            serve::replay_request(&sp, item, res, &pins, &mut tally)
        }) {
            bad += 1;
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    drop(cached);
    let _ = std::fs::remove_dir_all(&dir);
    if bad != 0 {
        r.problem(format!(
            "{bad} layer-replayed requests did not match their pins"
        ));
    }
    write_spans(&sp, args, "layers");
    layers::metrics(&tally, &sp, r);
    // The server's worker runs `query_body_for` or `body_for`, which
    // hold the scan or the models: the render spans cover all of it.
    let per_request_ms = span_ms(&sp, &["server.render"]) / round.len().max(1) as f64;
    r.put(
        "server.unattributed_ms",
        mean_submit_wait_ms(&sp_b) - per_request_ms,
    );
    r.put(
        "telemetry.remainder_frac",
        1.0 - layer_self_ns(&sp) as f64 / 1e9 / replay_s,
    );
}

fn run_cold(args: &Args, r: &mut Report) {
    let pins = Pins::committed();
    let script = cold_script(args.seed, units(args.seconds, COLD_EPOCH_S, 2));
    eprintln!("perfbench: serve-cold: {} requests, 1 client", script.len());
    // Set-up: the script prefix that first fills the cache — its first
    // request, the largest trace, which alone exceeds the budget.
    let start = |dir: &PathBuf| {
        let server = serve::cold_start(dir);
        let t = Instant::now();
        let (out, _) = serve::closed_loop(&server, &script[..1], 1, &pins, &Spans::new(false));
        (server, t.elapsed().as_secs_f64(), out)
    };
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((s, d)) = live.take() {
            Server::shutdown(s);
            let _ = std::fs::remove_dir_all(&d);
        }
        let dir = fresh_dir(&format!("cold-store-{rep}"));
        let (server, secs, out) = start(&dir);
        setups.push(secs);
        if !out[0].ok {
            r.problem("set-up request failed");
        }
        live = Some((server, dir));
    }
    let (server, dir) = live.expect("started");
    r.put("setup_s", median(&setups));

    let s0 = server.stats();
    let (out, wall) = serve::closed_loop(&server, &script[1..], 1, &pins, &Spans::new(false));
    let g = grown(&s0, &server.stats());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if g[3] != 0 || g[4] != 0 {
        r.problem(format!(
            "timed phase had {} rewalks, {} rejections",
            g[3], g[4]
        ));
    }
    put_service(r, &out, wall, COLD_SLO_MS);
    if !args.trace {
        return;
    }

    let dir = fresh_dir("cold-traced");
    let (server, _, _) = start(&dir);
    let s0 = server.stats();
    let sp_b = Spans::new(true);
    let ((_, wall_b), snap) =
        with_telemetry(|| serve::closed_loop(&server, &script[1..], 1, &pins, &sp_b));
    let g_b = grown(&s0, &server.stats());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if g_b != g {
        r.problem(format!(
            "service counters differ between passes: {g:?} vs {g_b:?}"
        ));
    }
    let evictions = snap.counter("server.cache.evictions").unwrap_or(0);
    write_spans(&sp_b, args, "traced");
    r.put("telemetry.overhead_frac", wall_b / wall - 1.0);
    put_cache(r, &g, evictions);

    // Layer replay of the first epoch: misses rebuild through every
    // layer and save to a store, hits render from the current burst's
    // results (a burst never interleaves keys).
    let dir = fresh_dir("cold-layers");
    let store = TraceStore::open(&dir).expect("trace store opens");
    let sp = Spans::new(true);
    let mut tally = Tally::default();
    let epoch = &script[..cold_epoch_len().min(script.len())];
    let t = Instant::now();
    let mut current: Option<(script::Key, databp_harness::WorkloadResults)> = None;
    let mut bad = 0;
    for (i, item) in epoch.iter().enumerate() {
        let missed = i == 0 || out[i - 1].cache == Some(CacheStatus::Miss);
        let ok = sp.time("bench.request", item.seq as u64, || {
            if missed || current.as_ref().map(|c| c.0) != Some(item.key) {
                drop(current.take());
                let res = layers::build(
                    &sp,
                    item.seq as u64,
                    &item.key.workload(),
                    Some(&store),
                    layers::DEFAULT_LADDER,
                    &mut tally,
                );
                current = Some((item.key, res));
            }
            let res = &current.as_ref().expect("built").1;
            serve::replay_request(&sp, item, res, &pins, &mut tally)
        });
        if !ok {
            bad += 1;
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    drop(current);
    let _ = std::fs::remove_dir_all(&dir);
    if bad != 0 {
        r.problem(format!(
            "{bad} layer-replayed requests did not match their pins"
        ));
    }
    write_spans(&sp, args, "layers");
    layers::metrics(&tally, &sp, r);
    // The server's miss path runs neither the untraced baseline run nor
    // a separate encode (its store save encodes); its render holds the
    // overhead models.
    let per_request_ms = span_ms(
        &sp,
        &[
            "tinyc.compile",
            "trace.run_traced",
            "trace.store_save",
            "sessions.enumerate",
            "sim.replay",
            "server.render",
        ],
    ) / epoch.len().max(1) as f64;
    r.put(
        "server.unattributed_ms",
        mean_submit_wait_ms(&sp_b) - per_request_ms,
    );
    r.put(
        "telemetry.remainder_frac",
        1.0 - layer_self_ns(&sp) as f64 / 1e9 / replay_s,
    );
}

/// Recomputes `pins.txt`: every deterministic `paper` artifact and the
/// body of every request in the service catalogue.
fn pin() -> ExitCode {
    let mut lines = vec![
        "# Output pins of the perfbench workloads: `<name> <fnv1a-64 of the output>`.".to_string(),
        "# Regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --pin`."
            .to_string(),
    ];
    let results = analyze_all_jobs(Scale::Full, cores());
    let mut list = paper::jobs(results.len());
    list.sort_by_key(|j| format!("{j:?}"));
    for job in list {
        for (name, csv) in paper::run_job(job, &results).artifacts {
            if !name.starts_with("host/") {
                lines.push(report::pin_line(&name, csv.as_bytes()));
            }
        }
    }
    drop(results);
    let server = Server::start(ServerConfig {
        cache_bytes: usize::MAX,
        ..ServerConfig::default()
    });
    let catalogue = script::catalogue();
    for chunk in catalogue.chunks(32) {
        let reqs = chunk
            .iter()
            .map(|item| match Request::parse_line(&item.line()) {
                Ok(RequestLine::Query(r)) => r,
                other => panic!("bad catalogue line: {other:?}"),
            })
            .collect();
        for (item, resp) in chunk.iter().zip(server.submit_batch(reqs)) {
            let body = resp.body.expect("catalogue request answered").to_json();
            lines.push(report::pin_line(&item.canonical(), body.as_bytes()));
        }
    }
    server.shutdown();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("pins.txt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write pins");
    eprintln!(
        "perfbench: wrote {} pins to {}",
        lines.len() - 2,
        path.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_metrics_this_program_prints() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (list, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let section = text.split(&format!("\"{key}\"")).nth(1).expect("section");
            let section = section.split(']').next().unwrap();
            let names = section.matches("\"name\"").count();
            assert_eq!(names, list.len(), "{key}");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key}: {name} ({unit})");
            }
        }
    }
}
