//! Host-time spans recorded by the benchmark's own code around each call
//! into a layer's public functions. Nothing inside the simulator is
//! instrumented.
//!
//! Spans are kept in memory and written out as JSON lines when the
//! benchmark ends. Every span of one traced run carries the same run id.

use crate::metric::median;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span within its run.
    pub id: usize,
    /// The span that made the call, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name of the timed call.
    pub name: String,
    /// Host nanoseconds since the run started.
    pub start_ns: u64,
    /// Host nanoseconds since the run started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in host seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Starts recording the run `run`.
    pub fn new(run: String) -> Tracer {
        Tracer {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as a span named `name`, a child of the innermost open
    /// span. Spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        let end = self.ns(Instant::now());
        self.open.pop();
        self.spans[id].end_ns = end;
        out
    }

    /// Records a span measured elsewhere (for example on a worker thread)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: String, start: Instant, end: Instant) {
        let span = Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median host seconds of the spans named `name` (0 if none).
    pub fn median_secs(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect();
        if secs.is_empty() {
            0.0
        } else {
            median(&secs)
        }
    }

    /// Host seconds of `span` not covered by any of its children
    /// (overlapping children, as in a parallel fan-out, count once).
    pub fn self_secs(&self, span: &Span) -> f64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e9
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new("r".into());
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let [outer, inner] = t.spans() else {
            panic!("two spans")
        };
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.self_secs(outer) < outer.secs());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::new("r".into());
        t.span("fan", |t| {
            let a = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(4));
            let b = Instant::now();
            t.record("x".into(), a, b);
            t.record("y".into(), a, b);
        });
        let fan = t.spans()[0].clone();
        let covered = fan.secs() - t.self_secs(&fan);
        assert!(covered <= t.spans()[1].secs() + 1e-9);
    }
}
