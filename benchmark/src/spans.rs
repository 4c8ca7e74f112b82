//! Spans recorded by the benchmark's own code around each call into a
//! layer (the program's internals are not instrumented here; they are
//! read through its public telemetry instead).
//!
//! A span is a name, a start, an end, the span that caused it and a
//! request id. Spans are kept in a buffer sized before the run starts and
//! written out once at exit; a full buffer drops (and counts) rather than
//! grows, so recording never allocates inside a timed phase. End-to-end
//! metrics are measured with the recorder off.

use crate::json::Obj;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this id (0 = not part of a request).
    pub req: u64,
}

/// The span buffer.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Spans that did not fit.
    pub dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans; `on = false` makes
    /// every call a no-op.
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds on the recorder's clock.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The recorder's clock reading for an `Instant`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent
    /// ([`ROOT`] when off or full).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        (self.spans.len() - 1) as u32
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let start = self.now();
        // Reserve the slot first so children recorded by `f` can name it.
        let id = self.push(name, start, start, parent, 0);
        let out = f(self);
        let end = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
        out
    }

    /// Index of the span a `scope` call is about to create.
    pub fn next_id(&self) -> u32 {
        if self.on && self.spans.len() < self.spans.capacity() {
            self.spans.len() as u32
        } else {
            ROOT
        }
    }

    /// Everything recorded.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since recorder start\",\"dropped\":{},\"spans\":[\n",
            self.dropped
        ));
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let mut o = Obj::new();
            o.num("id", i as f64);
            o.str("name", s.name);
            o.num("start_ns", s.start_ns as f64);
            o.num("end_ns", s.end_ns as f64);
            if s.parent == ROOT {
                o.raw("parent", "null");
            } else {
                o.num("parent", s.parent as f64);
            }
            o.num("req", s.req as f64);
            o.num("self_ns", *self_ns as f64);
            out.push_str(&o.finish());
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name: "s", start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]; grandchildren do not
        // count against the root.
        let spans = [sp(0, 100, ROOT), sp(10, 60, 0), sp(20, 30, 1)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        // Children [10,50] and [30,70] overlap (union 60); [90,120]
        // overhangs the parent's end (clipped to 10); [200,210] lies
        // outside and covers nothing.
        let spans =
            [sp(0, 100, ROOT), sp(10, 50, 0), sp(30, 70, 0), sp(90, 120, 0), sp(200, 210, 0)];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn submit_plus_await_self_times_equal_the_request() {
        let spans = [sp(1000, 1800, ROOT), sp(1000, 1040, 0), sp(1040, 1800, 0)];
        let st = self_times(&spans);
        assert_eq!(st[0], 0);
        assert_eq!(st[1] + st[2], 800);
    }

    #[test]
    fn recorder_off_records_nothing_and_full_recorder_counts_drops() {
        let mut off = Recorder::new(false, 8);
        assert_eq!(off.push("x", 0, 1, ROOT, 0), ROOT);
        assert!(off.spans().is_empty());
        let mut r = Recorder::new(true, 2);
        let outer = r.next_id();
        r.scope("outer", ROOT, |r| {
            r.push("inner", 1, 2, outer, 7);
        });
        assert_eq!(r.push("late", 3, 4, ROOT, 0), ROOT);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.spans()[1].parent, 0);
        assert!(r.spans()[0].end_ns >= r.spans()[0].start_ns);
    }
}
