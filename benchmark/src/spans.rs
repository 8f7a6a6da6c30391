//! In-memory spans recorded by the benchmark's own frame loop.
//!
//! The driver brackets each public call into the system with
//! [`Tracer::enter`]/[`Tracer::exit`]. The untraced run uses [`NoTrace`],
//! whose calls compile to nothing; the traced run uses [`SpanLog`], keeps
//! every span in memory and writes them out when the run ends. Spans inside
//! the program are a later change.

use std::time::Instant;

use crate::json::{obj, Json};

/// What the frame loop reports to.
pub trait Tracer {
    /// Open a span named `name` for frame `frame`; its parent is the
    /// innermost span still open.
    fn enter(&mut self, name: &'static str, frame: u64);
    /// Close the innermost open span.
    fn exit(&mut self);
}

/// Tracing off.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _frame: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The frame index: every span of one frame shares it.
    pub id: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Tracing on: every span, in the order it was opened.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for SpanLog {
    fn enter(&mut self, name: &'static str, frame: u64) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id: frame,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }
}

/// Each span's self time: its duration minus the durations of its *direct*
/// children. A grandchild is already inside its parent's duration, so it is
/// subtracted once, from its parent only — which is what makes the self
/// times of a tree add up to the root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The trace file: one object per span, parents by index into `spans`.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("time_unit", Json::from("ns since the traced loop started")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", Json::from(s.name)),
                            ("id", Json::from(s.id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                            ("start", Json::from(s.start_ns)),
                            ("end", Json::from(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_each_direct_child_once() {
        let spans = [
            span("frame", None, 0, 100),
            span("detect", Some(0), 5, 15),
            span("initial", Some(0), 20, 60),
            span("final", Some(0), 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 40, 25]);
    }

    #[test]
    fn nested_spans_are_not_subtracted_from_their_grandparent_twice() {
        let spans = [
            span("frame", None, 0, 100),
            span("initial", Some(0), 10, 70),
            span("wave", Some(1), 20, 50),
            span("txn", Some(2), 25, 45),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![40, 30, 10, 20]);
        // The tree's self times add up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn the_log_links_children_to_the_innermost_open_span() {
        let mut log = SpanLog::with_capacity(4);
        log.enter("frame", 7);
        log.enter("initial", 7);
        log.enter("txn", 7);
        log.exit();
        log.exit();
        log.enter("final", 7);
        log.exit();
        log.exit();
        let parents: Vec<Option<usize>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(log
            .spans()
            .iter()
            .all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        let own = self_times(log.spans());
        assert_eq!(own.iter().sum::<u64>(), log.spans()[0].duration_ns());
    }

    #[test]
    fn trace_file_names_every_span_field() {
        let spans = [span("frame", None, 0, 9), span("detect", Some(0), 2, 5)];
        let json = trace_json("edge-cpu", 42, &spans);
        let parsed = Json::parse(&json.render()).expect("the trace file is JSON");
        let first = &parsed.get("spans").and_then(Json::as_arr).expect("spans")[1];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("detect"));
        assert_eq!(first.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(first.get("end").and_then(Json::as_f64), Some(5.0));
    }
}
