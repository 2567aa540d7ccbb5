//! The `paper` workload: the batch reproduction (`repro all` plus
//! `repro verify`) in-process, at full scale.
//!
//! Set-up is phase 1 and phase 2 for the five Table 1 workloads
//! (`analyze_all`). The timed phase computes every table, figure and
//! ablation plus the fidelity checks from those results, as a list of
//! jobs run by at most `nproc` threads. An ablation job renders its
//! table for one workload, which holds exactly that workload's rows of
//! the full table.

use crate::report::Pins;
use crate::spans::Spans;
use databp_harness::figures::{figure, Figure};
use databp_harness::{
    breakdown, dyncp, expansion, loopopt, nhcoverage, staticopt, tables, verify, WorkloadResults,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fidelity checks `verify` runs over the five workloads.
pub const CHECKS: usize = 46;

/// Pinned artifacts per pass: three ablation tables per workload plus
/// nine tables and figures (table 2 is host-measured and not pinned).
pub const PINNED_ARTIFACTS: usize = 3 * 5 + 9;

/// One unit of the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Static write-safety elision table for workload `i`.
    StaticOpt(usize),
    /// Section 9 loop-optimization table for workload `i`.
    LoopOpt(usize),
    /// Section 3.3 dynamic-patching table for workload `i`.
    DynCp(usize),
    /// Tables 1–4, figures 7–9, breakdown, expansion, coverage.
    Tables,
    /// The fidelity checklist.
    Verify,
}

impl Job {
    /// The span the traced run puts around this job.
    pub fn span(self) -> &'static str {
        match self {
            Job::StaticOpt(_) => "harness.staticopt",
            Job::LoopOpt(_) => "harness.loopopt",
            Job::DynCp(_) => "harness.dyncp",
            Job::Tables => "harness.tables",
            Job::Verify => "harness.verify",
        }
    }
}

/// Every job of one pass, longest first: the staticopt, loopopt and
/// dyncp ablations in Table 1 order, then tables and checks. Cheap jobs
/// last keep the threads busy to the end of a pass. The order is fixed:
/// the paper's inputs are, and a seeded order changed which jobs ran
/// side by side, which moved `wall_s` by 15% between seeds.
pub fn jobs(workloads: usize) -> Vec<Job> {
    let mut out: Vec<Job> = (0..workloads).map(Job::StaticOpt).collect();
    out.extend((0..workloads).map(Job::LoopOpt));
    out.extend((0..workloads).map(Job::DynCp));
    out.extend([Job::Tables, Job::Verify]);
    out
}

/// What one job produced.
#[derive(Debug, Default)]
pub struct JobOut {
    /// `(artifact name, CSV text)`; names prefixed `host/` hold
    /// host-measured values and are not pinned.
    pub artifacts: Vec<(String, String)>,
    /// Fidelity checks run and failed.
    pub checks: usize,
    /// Fidelity checks that failed.
    pub checks_failed: usize,
}

/// Runs one job.
pub fn run_job(job: Job, results: &[WorkloadResults]) -> JobOut {
    let one = |i: usize| &results[i..=i];
    let name = |what: &str, i: usize| format!("paper/{what}/{}", results[i].prepared.workload.name);
    let mut out = JobOut::default();
    match job {
        Job::StaticOpt(i) => out.artifacts.push((
            name("staticopt", i),
            staticopt::staticopt_report(one(i)).render_csv(),
        )),
        Job::LoopOpt(i) => out.artifacts.push((
            name("loopopt", i),
            loopopt::loopopt_table(one(i), 3).render_csv(),
        )),
        Job::DynCp(i) => out
            .artifacts
            .push((name("dyncp", i), dyncp::dyncp_table(one(i)).render_csv())),
        Job::Tables => {
            let mut put = |n: &str, csv: String| out.artifacts.push((n.to_string(), csv));
            put("paper/table1", tables::table1(results).render_csv());
            put("host/table2", tables::table2().render_csv());
            put("paper/table3", tables::table3(results).render_csv());
            put("paper/table4", tables::table4(results).render_csv());
            put("paper/fig7", figure(results, Figure::Max).render_csv());
            put("paper/fig8", figure(results, Figure::P90).render_csv());
            put("paper/fig9", figure(results, Figure::TMean).render_csv());
            put(
                "paper/breakdown",
                breakdown::breakdown_table(results).render_csv(),
            );
            put(
                "paper/expansion",
                expansion::expansion_table(results).render_csv(),
            );
            put(
                "paper/nhcoverage",
                nhcoverage::coverage_table(results).render_csv(),
            );
        }
        Job::Verify => {
            let checks = verify::verify(results);
            out.checks = checks.len();
            out.checks_failed = checks.iter().filter(|c| !c.passed).count();
            for c in checks.iter().filter(|c| !c.passed) {
                eprintln!(
                    "perfbench: fidelity check failed: {} ({})",
                    c.name, c.detail
                );
            }
        }
    }
    out
}

/// One finished job of the timed phase.
#[derive(Debug)]
pub struct Done {
    /// Wall time of the job, ms.
    pub ms: f64,
    /// Artifacts produced (pinned ones checked) and checks run.
    pub operations: u64,
    /// Artifacts not matching their pin plus failed checks.
    pub failures: u64,
}

/// Runs `list` on `threads` threads, each job inside span
/// `job.span()` of request id = its position.
pub fn run_jobs(
    list: &[Job],
    results: &[WorkloadResults],
    threads: usize,
    pins: &Pins,
    sp: &Spans,
) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, list.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = list.get(i) else { break };
                let t = Instant::now();
                let out = sp.time(job.span(), i as u64, || run_job(job, results));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let pinned: Vec<_> = out
                    .artifacts
                    .iter()
                    .filter(|(n, _)| !n.starts_with("host/"))
                    .collect();
                let mismatched = pinned
                    .iter()
                    .filter(|(n, csv)| {
                        let ok = pins.matches(n, csv.as_bytes());
                        if !ok {
                            eprintln!("perfbench: artifact {n} does not match its pin");
                        }
                        !ok
                    })
                    .count();
                done.lock().unwrap().push(Done {
                    ms,
                    operations: (pinned.len() + out.checks) as u64,
                    failures: (mismatched + out.checks_failed) as u64,
                });
            });
        }
    });
    done.into_inner().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_runs_once_cheap_ones_last() {
        let a = jobs(5);
        assert_eq!(a.len(), 17);
        assert_eq!(a[15..], [Job::Tables, Job::Verify]);
        for i in 0..5 {
            for j in [Job::StaticOpt(i), Job::LoopOpt(i), Job::DynCp(i)] {
                assert_eq!(a.iter().filter(|&&x| x == j).count(), 1);
            }
        }
    }
}
