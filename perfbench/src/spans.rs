//! The benchmark's own span recorder.
//!
//! Spans are kept in memory — name, start, end, parent, and the id of
//! the request they belong to — and written out once the run ends. A
//! span's *self* time is its duration minus its children's, so layer
//! times add up to wall time instead of overlapping. Parents are
//! tracked per thread: a span opened while another is open on the same
//! thread is its child.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// The request (or job) the span belongs to.
    pub req: u64,
    /// Layer-qualified name, e.g. `tinyc.compile`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span recorder; a disabled one records nothing.
pub struct Spans {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    open: Option<(u64, u64, u64, &'static str, u64)>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, req, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = self.spans.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans.done.lock().unwrap().push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    }
}

impl Spans {
    /// A recorder; `on == false` makes every span a no-op.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req`; it closes when the guard drops.
    pub fn open(&self, name: &'static str, req: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                spans: self,
                open: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Guard {
            spans: self,
            open: Some((id, parent, req, name, self.now_ns())),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.open(name, req);
        f()
    }

    /// Every closed span, in closing order.
    pub fn records(&self) -> Vec<Span> {
        self.done.lock().unwrap().clone()
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let recs = self.records();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &recs {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &recs {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.records() {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let sp = Spans::new(true);
        sp.time("outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            sp.time("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
        });
        let t = sp.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!(outer.total_ns - inner.total_ns, outer.self_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let recs = sp.records();
        let o = recs.iter().find(|s| s.name == "outer").unwrap();
        let i = recs.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(i.parent, o.id);
        assert_eq!(o.parent, 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let sp = Spans::new(false);
        sp.time("x", 0, || ());
        assert!(sp.records().is_empty());
    }
}
