//! The result line, order statistics, memory, and output pins.

use std::collections::HashMap;

/// Metrics of one run plus its correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, rejected, or with a wrong output.
    pub failed: u64,
    /// Problems that make the whole run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric (the last value under a name wins).
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: {what}");
        self.problems.push(what);
    }

    /// The run is correct: nothing failed and no problem was found.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The one-line JSON result, metrics restricted to `names` in
    /// that order (a missing one is a problem, reported as such).
    pub fn json(&mut self, names: &[(&str, &str)]) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in names {
            let v = self.get(name);
            if v.is_none() {
                self.problem(format!("metric {name} was not measured"));
            }
            let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            parts.push(format!(
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(",")
        )
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pinned output digests: `name digest` per line, `#` comments.
pub struct Pins(HashMap<String, u64>);

/// The pins committed next to the benchmark.
pub const PINS: &str = include_str!("../pins.txt");

impl Pins {
    /// Parses pin text.
    pub fn parse(text: &str) -> Pins {
        Pins(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (name, hex) = l.rsplit_once(' ')?;
                    Some((name.to_string(), u64::from_str_radix(hex, 16).ok()?))
                })
                .collect(),
        )
    }

    /// The committed pins.
    pub fn committed() -> Pins {
        Pins::parse(PINS)
    }

    /// Whether `output` matches the pin for `name` (an unpinned name
    /// never matches).
    pub fn matches(&self, name: &str, output: &[u8]) -> bool {
        self.0.get(name) == Some(&fnv64(output))
    }
}

/// One pin line.
pub fn pin_line(name: &str, output: &[u8]) -> String {
    format!("{name} {:016x}", fnv64(output))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn pins_round_trip() {
        let text = format!("# c\n{}\n", pin_line("cc/full query=count", b"{}"));
        let pins = Pins::parse(&text);
        assert!(pins.matches("cc/full query=count", b"{}"));
        assert!(!pins.matches("cc/full query=count", b"{ }"));
        assert!(!pins.matches("other", b"{}"));
    }

    #[test]
    fn committed_pins_cover_the_catalogue() {
        let pins = Pins::committed();
        for r in crate::script::catalogue() {
            assert!(pins.0.contains_key(&r.canonical()), "{}", r.canonical());
        }
        assert!(pins.0.keys().any(|k| k.starts_with("paper/")));
    }
}
