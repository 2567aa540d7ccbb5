//! The service workloads: a closed-loop in-process client of
//! [`Server`] through its public API (`Request::parse_line` →
//! `Server::submit` → `Ticket::wait` → `Response::to_json_line`), plus
//! the set-ups of `serve-warm` and `serve-cold`.

use crate::layers::Tally;
use crate::report::Pins;
use crate::script::{keys, Key, Kind, Scripted, QUERIES};
use crate::spans::Spans;
use databp_core::WriterMap;
use databp_harness::{overheads_for, WorkloadResults};
use databp_machine::PageSize;
use databp_server::{
    body_for, query_body_for, CacheStatus, Request, RequestLine, Response, Server, ServerConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trace-cache budget of `serve-cold`: well below the 507 MiB the 18
/// traces charge, and below the largest single trace (192 MiB).
pub const COLD_CACHE_BYTES: usize = 128 << 20;

/// Client threads for a closed loop: one per core, never more than
/// the server admits without rejecting.
pub fn clients(cores: usize, queue_depth: usize) -> usize {
    cores.clamp(1, queue_depth.max(1))
}

/// One answered request as the client saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Submit to serialized response line, ms.
    pub ms: f64,
    /// What was asked.
    pub kind: Kind,
    /// Answered `ok` with the pinned body.
    pub ok: bool,
    /// Cache outcome, when answered.
    pub cache: Option<CacheStatus>,
}

/// Drives `script` through `server` with `threads` clients, each
/// keeping one request outstanding. Returns outcomes in script order
/// and the wall time, seconds.
pub fn closed_loop(
    server: &Server,
    script: &[Scripted],
    threads: usize,
    pins: &Pins,
    sp: &Spans,
) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = script.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = script.get(i) else { break };
                let line = item.line();
                let t = Instant::now();
                let req_id = item.seq as u64;
                let _root = sp.open("client.request", req_id);
                let parsed = sp.time("server.parse", req_id, || Request::parse_line(&line));
                let resp = match parsed {
                    Ok(RequestLine::Query(req)) => {
                        sp.time("server.submit_wait", req_id, || match server.submit(req) {
                            Ok(ticket) => ticket.wait(),
                            Err(req) => Response::failure(&req.id, "rejected: queue full"),
                        })
                    }
                    Ok(RequestLine::Stats) => Response::failure("", "unexpected stats line"),
                    Err(e) => Response::failure("", e),
                };
                let wire = sp.time("server.serialize", req_id, || resp.to_json_line());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let body = resp.body.as_ref().map(|b| b.to_json());
                let ok = resp.ok
                    && resp.id == item.seq.to_string()
                    && wire.contains("\"ok\":true")
                    && body
                        .as_ref()
                        .is_some_and(|b| pins.matches(&item.canonical(), b.as_bytes()));
                if !ok {
                    eprintln!(
                        "perfbench: request {} ({}) failed: {}",
                        item.seq,
                        item.canonical(),
                        resp.error
                            .as_deref()
                            .unwrap_or("body does not match its pin")
                    );
                }
                *slots[i].lock().unwrap() = Some(Outcome {
                    ms,
                    kind: item.kind,
                    ok,
                    cache: resp.cache,
                });
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let outcomes = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every request answered"))
        .collect();
    (outcomes, wall)
}

/// One simple request per key through a store-backed server with room
/// for everything: afterwards `dir` holds all 18 traces.
pub fn fill_store(dir: &Path) {
    let server = Server::start(ServerConfig {
        cache_bytes: usize::MAX,
        store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    });
    for key in keys() {
        let req = Request::simple(
            &format!("{}/{}", key.workload, key.scale()),
            key.workload,
            scale(key),
        );
        let resp = server.submit(req).ok().expect("admitted").wait();
        assert!(
            resp.ok,
            "store fill failed for {}: {:?}",
            key.workload, resp.error
        );
    }
    server.shutdown();
}

fn scale(key: Key) -> databp_harness::Scale {
    if key.full {
        databp_harness::Scale::Full
    } else {
        databp_harness::Scale::Small
    }
}

/// Requests that leave a warm-started cache with everything the
/// `serve-warm` script touches already built: one query per full-scale
/// trace (its lazy columnar encode) and one widest-ladder report per
/// key (its 16K rewalk).
pub fn warm_up_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, key) in keys().into_iter().enumerate() {
        if key.full {
            lines.push(
                Scripted {
                    seq: 2 * i,
                    key,
                    kind: Kind::Query(0),
                }
                .line(),
            );
        }
        lines.push(
            Scripted {
                seq: 2 * i + 1,
                key,
                kind: Kind::Report(0, 1, false),
            }
            .line(),
        );
    }
    lines
}

/// Starts a warm server over `dir` and warms it up.
pub fn warm_start(dir: &Path) -> Server {
    let server = Server::start(ServerConfig {
        store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    });
    let reqs = warm_up_lines()
        .iter()
        .map(|l| match Request::parse_line(l) {
            Ok(RequestLine::Query(r)) => r,
            other => panic!("bad warm-up line {l}: {other:?}"),
        })
        .collect();
    for resp in server.submit_batch(reqs) {
        assert!(resp.ok, "warm-up request failed: {:?}", resp.error);
    }
    server
}

/// A store-backed server for `serve-cold` over an empty `dir`.
pub fn cold_start(dir: &Path) -> Server {
    Server::start(ServerConfig {
        cache_bytes: COLD_CACHE_BYTES,
        store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
}

/// The default ladder widened to 16K, which the warm-up gives every
/// cached entry.
pub const WIDE_LADDER: &[PageSize] = &[PageSize::K4, PageSize::K8, PageSize::K16];

/// Answers one scripted request one layer call at a time, each inside
/// its own span: parse, then the scan (queries) or the overhead models
/// (reports), rendering, and serialization. Returns whether the body
/// matches its pin.
pub fn replay_request(
    sp: &Spans,
    item: &Scripted,
    results: &WorkloadResults,
    pins: &Pins,
    t: &mut Tally,
) -> bool {
    let req_id = item.seq as u64;
    let line = item.line();
    t.parses += 1;
    let req = match sp.time("server.parse", req_id, || Request::parse_line(&line)) {
        Ok(RequestLine::Query(r)) => r,
        _ => return false,
    };
    let body = match item.kind {
        Kind::Query(q) => {
            let debug = &results.prepared.plain.debug;
            let writers = WriterMap::new(
                debug
                    .functions
                    .iter()
                    .enumerate()
                    .map(|(id, f)| (f.entry_pc, id as u16)),
            );
            let bytes = results.prepared.columnar_bytes();
            let (_, stats) = sp.time("sim.query", req_id, || {
                databp_sim::scan_query(bytes, QUERIES[q], |n| debug.func_id(n), &writers, 1)
                    .expect("query runs")
            });
            t.query_writes += stats.writes;
            t.blocks_scanned += stats.blocks_scanned;
            t.blocks_skipped += stats.blocks_skipped;
            sp.time("server.render", req_id, || {
                query_body_for(&req, results, 1).expect("query renders")
            })
        }
        Kind::Report(..) => {
            sp.time("models.overheads", req_id, || {
                for a in req.effective_strategies() {
                    std::hint::black_box(overheads_for(results, a));
                }
            });
            sp.time("server.render", req_id, || body_for(&req, results))
        }
    };
    t.renders += 1;
    let resp = Response::success(&req.id, CacheStatus::Hit, body);
    let wire = sp.time("server.serialize", req_id, || resp.to_json_line());
    t.serializes += 1;
    let body = resp.body.as_ref().map(|b| b.to_json()).unwrap_or_default();
    !wire.is_empty() && pins.matches(&item.canonical(), body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Pins;
    use crate::script::cold_script;

    #[test]
    fn clients_never_exceed_cores_or_queue_depth() {
        for cores in 1..=128 {
            for depth in [1, 2, 8, 64] {
                let n = clients(cores, depth);
                assert!(n >= 1 && n <= cores && n <= depth);
            }
        }
        assert_eq!(clients(2, 64), 2);
    }

    #[test]
    fn closed_loop_keeps_at_most_one_request_per_client_in_flight() {
        // A server with one slot of queue depth and one worker rejects
        // anything beyond one queued plus one running request: a
        // closed loop within that bound is never rejected.
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            cache_bytes: 64 << 20,
            ..ServerConfig::default()
        });
        let script: Vec<Scripted> = cold_script(9, 1)
            .into_iter()
            .filter(|r| !r.key.full)
            .take(12)
            .collect();
        let pins = Pins::committed();
        let (out, _) = closed_loop(&server, &script, clients(8, 1), &pins, &Spans::new(false));
        assert_eq!(server.stats().rejected, 0);
        assert!(out.iter().all(|o| o.ok));
        server.shutdown();
    }

    #[test]
    fn cold_budget_evicts_and_hits_some_but_not_all() {
        let dir = crate::out_dir().join(format!("test-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = cold_start(&dir);
        let script = cold_script(4, 2);
        let (out, _) = closed_loop(&server, &script, 1, &Pins::committed(), &Spans::new(false));
        let stats = server.stats();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.iter().all(|o| o.ok));
        let evictions = stats.cache_misses - stats.cache_entries;
        assert!(evictions > 0);
        let hit_rate = stats.cache_hits as f64 / stats.requests as f64;
        assert!(hit_rate > 0.0 && hit_rate < 1.0, "{hit_rate}");
        // Every visit misses once and hits for the rest of its burst.
        assert_eq!(stats.cache_misses, 2 * keys().len() as u64);
        assert_eq!(stats.cache_rewalks, 0);
    }
}
