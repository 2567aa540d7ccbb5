//! Seeded request scripts for the service workloads.
//!
//! A script is a pure function of the seed: the benchmark generates
//! wire lines here and the service only ever sees those lines. Every
//! request is drawn from a finite catalogue (query templates, strategy
//! subsets, ladders), so every distinct response body can be pinned.

use databp_workloads::Workload;

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Trace-query templates. Together they cover the pushdown scan's
/// cases: answered from zone counts alone (`count`), block-refutable
/// predicates (large constants), unrefutable ones (`old == 0`,
/// `value == old + 1`), and `first`/`last` short-circuits.
pub const QUERIES: [&str; 12] = [
    "count",
    "count if value == 0",
    "count if value > 1000000000",
    "count if value == old + 1",
    "first",
    "first if value > 1000000000",
    "last if value != old",
    "last if old > 100000 && value < 10",
    "hist if old == 0",
    "hist if value % 2 == 1",
    "watch if value == old + 1",
    "watch if hits % 1000 == 0",
];

/// Strategy subsets of report requests (empty = every strategy).
pub const SUBSETS: [&[&str]; 4] = [&["cp"], &["nh", "cp"], &["vm4k", "vm8k"], &[]];

/// Extra page sizes of report requests (empty = the default 4K/8K).
pub const LADDERS: [&[&str]; 2] = [&[], &["16K"]];

/// One (workload, scale) trace-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Workload name.
    pub workload: &'static str,
    /// Full scale (`true`) or scaled down.
    pub full: bool,
}

impl Key {
    /// The scale as the wire protocol spells it.
    pub fn scale(self) -> &'static str {
        if self.full {
            "full"
        } else {
            "small"
        }
    }

    /// The workload at this key's scale.
    pub fn workload(self) -> Workload {
        let w = Workload::by_name(self.workload).expect("bundled workload");
        if self.full {
            w
        } else {
            w.scaled_down()
        }
    }
}

/// The 18 keys of the bundled corpus: the Table 1 workloads and the
/// benchmarks, each at full and small scale, in a fixed order.
pub fn keys() -> Vec<Key> {
    Workload::all()
        .into_iter()
        .chain(Workload::bench())
        .flat_map(|w| {
            [true, false].map(|full| Key {
                workload: w.name,
                full,
            })
        })
        .collect()
}

/// The key with the largest trace: `bitwise` at full scale.
pub const LARGEST: Key = Key {
    workload: "bitwise",
    full: true,
};

/// What a scripted request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A trace query (`QUERIES[i]`).
    Query(usize),
    /// A strategy report (`SUBSETS[s]`, `LADDERS[l]`, overheads flag).
    Report(usize, usize, bool),
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scripted {
    /// Position in the script.
    pub seq: usize,
    /// Which trace it needs.
    pub key: Key,
    /// What it asks.
    pub kind: Kind,
}

impl Scripted {
    /// The request's identity without its id: equal requests have equal
    /// canonical forms, which is what response pins are keyed by.
    pub fn canonical(&self) -> String {
        let mut s = format!("{}/{}", self.key.workload, self.key.scale());
        match self.kind {
            Kind::Query(q) => s += &format!(" query={}", QUERIES[q]),
            Kind::Report(sub, lad, ov) => {
                s += &format!(
                    " strategies={} ladder={} overheads={ov}",
                    SUBSETS[sub].join(","),
                    LADDERS[lad].join(",")
                )
            }
        }
        s
    }

    /// The wire line the service receives.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{{\"id\":\"{}\",\"workload\":\"{}\",\"scale\":\"{}\"",
            self.seq,
            self.key.workload,
            self.key.scale()
        );
        let quoted = |xs: &[&str]| {
            xs.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self.kind {
            Kind::Query(q) => s += &format!(",\"query\":\"{}\"", QUERIES[q]),
            Kind::Report(sub, lad, ov) => {
                if !SUBSETS[sub].is_empty() {
                    s += &format!(",\"strategies\":[{}]", quoted(SUBSETS[sub]));
                }
                if !LADDERS[lad].is_empty() {
                    s += &format!(",\"page_sizes\":[{}]", quoted(LADDERS[lad]));
                }
                if ov {
                    s += ",\"overheads\":true";
                }
            }
        }
        s.push('}');
        s
    }
}

/// Every distinct request either service script can issue.
pub fn catalogue() -> Vec<Scripted> {
    let mut out = Vec::new();
    for key in keys() {
        if key.full {
            for q in 0..QUERIES.len() {
                out.push((key, Kind::Query(q)));
            }
        }
        for sub in 0..SUBSETS.len() {
            for lad in 0..LADDERS.len() {
                for ov in [false, true] {
                    out.push((key, Kind::Report(sub, lad, ov)));
                }
            }
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(seq, (key, kind))| Scripted { seq, key, kind })
        .collect()
}

/// Reports per `serve-warm` round, next to one query of every template
/// on every full-scale trace (108): a 70/30 query/report mix.
pub const WARM_REPORTS_PER_ROUND: usize = 46;

/// Requests per `serve-warm` round.
pub fn warm_round_len() -> usize {
    keys().iter().filter(|k| k.full).count() * QUERIES.len() + WARM_REPORTS_PER_ROUND
}

/// The `serve-warm` script: `rounds` rounds, each holding every
/// (template, full-scale trace) query exactly once plus the next
/// [`WARM_REPORTS_PER_ROUND`] reports of the report catalogue (every
/// key × strategy subset × ladder × overheads flag, taken in turn), in
/// seeded order. Only the order is seeded, so every seed asks for the
/// same multiset of requests and a run's work does not depend on it
/// (seeded reports spread `latency_p50_ms` by 38% across five seeds).
pub fn warm_script(seed: u64, rounds: usize) -> Vec<Scripted> {
    let mut rng = Rng::new(seed, 1);
    let cat = catalogue();
    let queries: Vec<(Key, Kind)> = cat
        .iter()
        .filter(|r| matches!(r.kind, Kind::Query(_)))
        .map(|r| (r.key, r.kind))
        .collect();
    let reports: Vec<(Key, Kind)> = cat
        .iter()
        .filter(|r| matches!(r.kind, Kind::Report(..)))
        .map(|r| (r.key, r.kind))
        .collect();
    let mut out = Vec::new();
    for r in 0..rounds {
        let mut round = queries.clone();
        round.extend(
            (0..WARM_REPORTS_PER_ROUND)
                .map(|k| reports[(r * WARM_REPORTS_PER_ROUND + k) % reports.len()]),
        );
        rng.shuffle(&mut round);
        out.extend(round);
    }
    number(out)
}

/// Burst length of the key at popularity rank `r` (0-based) in
/// `serve-cold`: Zipf-like, `ceil(12 / (r + 1))`.
pub fn burst(rank: usize) -> usize {
    12usize.div_ceil(rank + 1)
}

/// The `serve-cold` script: `epochs` epochs. Each epoch visits all 18
/// keys once, opening with [`LARGEST`] and then the other 17 in seeded
/// order; a visit is a burst of [`burst`]`(rank)` consecutive report
/// requests. Only the order of the visits is seeded: a key's rank is
/// its position in [`keys`], and the strategies and overheads flag of a
/// request rotate with its key, epoch and place in the burst. Seeding
/// either would change the run's work from seed to seed (a seeded rank
/// map spread `latency_p50_ms` by 268% across five seeds). The
/// largest trace alone exceeds the cold cache budget, so opening each
/// epoch with it flushes the cache: the first request of every visit
/// misses and the rest of its burst hits, whatever the seed.
pub fn cold_script(seed: u64, epochs: usize) -> Vec<Scripted> {
    let mut rng = Rng::new(seed, 2);
    let all = keys();
    let mut out = Vec::new();
    for e in 0..epochs {
        let mut order: Vec<usize> = (0..all.len()).filter(|&i| all[i] != LARGEST).collect();
        rng.shuffle(&mut order);
        order.insert(
            0,
            all.iter().position(|&k| k == LARGEST).expect("largest key"),
        );
        for i in order {
            for j in 0..burst(i) {
                let turn = i + j + e;
                let kind = Kind::Report(turn % SUBSETS.len(), 0, turn % 2 == 1);
                out.push((all[i], kind));
            }
        }
    }
    number(out)
}

/// Requests per `serve-cold` epoch (the burst lengths summed).
pub fn cold_epoch_len() -> usize {
    (0..keys().len()).map(burst).sum()
}

fn number(items: Vec<(Key, Kind)>) -> Vec<Scripted> {
    items
        .into_iter()
        .enumerate()
        .map(|(seq, (key, kind))| Scripted { seq, key, kind })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seed_deterministic() {
        assert_eq!(warm_script(7, 2), warm_script(7, 2));
        assert_eq!(cold_script(7, 2), cold_script(7, 2));
        assert_ne!(warm_script(7, 2), warm_script(8, 2));
        assert_ne!(cold_script(7, 2), cold_script(8, 2));
    }

    #[test]
    fn warm_rounds_hold_the_same_work_for_every_seed() {
        for seed in [1, 2, 3] {
            let s = warm_script(seed, 3);
            assert_eq!(s.len(), 3 * warm_round_len());
            let queries = s
                .iter()
                .filter(|r| matches!(r.kind, Kind::Query(_)))
                .count();
            assert_eq!(queries, 3 * 108);
        }
    }

    #[test]
    fn cold_epochs_open_with_the_largest_trace() {
        let s = cold_script(5, 3);
        assert_eq!(s.len(), 3 * cold_epoch_len());
        for e in 0..3 {
            assert_eq!(s[e * cold_epoch_len()].key, LARGEST);
        }
        assert!(s.iter().all(|r| matches!(r.kind, Kind::Report(_, 0, _))));
    }

    #[test]
    fn every_scripted_request_is_in_the_catalogue_and_parses() {
        let cat: std::collections::HashSet<String> =
            catalogue().iter().map(Scripted::canonical).collect();
        for r in warm_script(3, 2).iter().chain(&cold_script(3, 2)) {
            assert!(cat.contains(&r.canonical()), "{}", r.canonical());
            let parsed = databp_server::Request::parse_line(&r.line()).expect("parses");
            assert!(matches!(parsed, databp_server::RequestLine::Query(_)));
        }
    }
}
