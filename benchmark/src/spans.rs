//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer, kept in memory
//! and written out once when the run ends; the untraced run never touches
//! this module.

use crate::json::Json;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<module>[.<what>]` of the layer the span covers.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Records the spans of one benchmark run; every span shares `run_id`.
#[derive(Debug)]
pub struct Recorder {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Starts an empty recording.
    pub fn new(run_id: u64) -> Recorder {
        Recorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`, and returns its
    /// duration in seconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        let now = self.offset(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = now;
        self.spans[idx].duration_ns() as f64 / 1e9
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Adds a span measured elsewhere (set-up stages are timed with plain
    /// `Instant`s so the untraced run shares the code) under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Total seconds of every span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Total seconds of the direct children of span `idx`.
    pub fn children_seconds(&self, idx: usize) -> f64 {
        (self.spans[idx].duration_ns() - self_ns(&self.spans, idx)) as f64 / 1e9
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        assert!(self.open.is_empty(), "unclosed spans at the end of the run");
        Json::Arr(
            (0..self.spans.len())
                .map(|i| {
                    let s = &self.spans[i];
                    Json::obj([
                        ("run_id", Json::Int(self.run_id)),
                        ("id", Json::Int(i as u64)),
                        ("name", s.name.into()),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("self_ns", Json::Int(self_ns(&self.spans, i))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            // Grandchild: covered by span 2, must not be subtracted twice.
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 160, Some(0)), // overlaps the previous by 10
            span(120, 130, Some(0)), // nested inside the first
            span(190, 250, Some(0)), // overhangs the parent's end by 50
            span(0, 50, Some(0)),    // entirely outside
        ];
        // Cover: [110,160) + [190,200) = 60.
        assert_eq!(self_ns(&spans, 0), 40);
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut rec = Recorder::new(7);
        let outer = rec.enter("outer");
        let x = rec.time("inner", || 41 + 1);
        rec.time("inner", || ());
        let t0 = Instant::now();
        rec.record("external", t0, Instant::now());
        let outer_secs = rec.exit(outer);
        assert_eq!(x, 42);
        assert_eq!(rec.spans.len(), 4);
        assert!(rec.spans[1..].iter().all(|s| s.parent == Some(outer)));
        assert!(rec.children_seconds(outer) <= outer_secs);
        assert!(rec.seconds("inner") <= rec.children_seconds(outer));
        let json = rec.to_json();
        let first = &json.as_arr().unwrap()[0];
        assert_eq!(first.get("run_id"), Some(&Json::Int(7)));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}
