//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every traced call happens on the benchmark's own main thread, from
//! outside the program, so a span stack is enough: a span's parent is
//! whatever span was open when it started. Spans are kept in memory and
//! written once, when the traced run ends.

use crate::json;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    /// `<layer>.<call>` optionally followed by `:<detail>`, e.g.
    /// `core.experiment:fig6.17`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Trace {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(workload: &str) -> Trace {
        Trace {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (result, self.spans[index].seconds())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_seconds(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::seconds)
            .sum();
        self.spans[index].seconds() - children
    }

    /// Total seconds of the spans whose name is `name` or starts with
    /// `name:`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
            })
            .map(Span::seconds)
            .sum()
    }

    /// The share of span `index` that its direct children account for —
    /// how much of a workload the trace names rather than leaves as the
    /// root's self time.
    pub fn coverage(&self, index: usize) -> f64 {
        let total = self.spans[index].seconds();
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.self_seconds(index) / total
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, s)| {
                json::object(&[
                    ("id", json::number(index as f64)),
                    ("name", json::string(&s.name)),
                    ("workload", json::string(&self.workload)),
                    ("start_ns", json::number(s.start_ns as f64)),
                    ("end_ns", json::number(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or_else(|| "null".to_string(), |p| json::number(p as f64)),
                    ),
                    (
                        "self_ns",
                        json::number((self.self_seconds(index) * 1e9).round()),
                    ),
                ])
            })
            .collect();
        format!(
            "{{\"schema\": \"hsipc-benchmark-trace/v1\", \"workload\": {}, \"spans\": {}}}\n",
            json::string(&self.workload),
            json::array_lines(&spans, 0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace with hand-set times: root [0, 100], children [10, 40] and
    /// [50, 90], grandchild [20, 30] under the first child.
    fn fixture() -> Trace {
        let mut t = Trace::new("w");
        t.span("root", |t| {
            t.span("layer.call:a", |t| {
                t.span("inner", |_| ());
            });
            t.span("layer.call:b", |_| ());
        });
        for (span, (start, end)) in t
            .spans
            .iter_mut()
            .zip([(0, 100), (10, 40), (20, 30), (50, 90)])
        {
            span.start_ns = start;
            span.end_ns = end;
        }
        t
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let t = fixture();
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        assert!((t.self_seconds(0) - 30e-9).abs() < 1e-15);
        assert!((t.self_seconds(1) - 20e-9).abs() < 1e-15);
        assert!((t.self_seconds(2) - 10e-9).abs() < 1e-15);
        assert!((t.coverage(0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn totals_match_whole_names_and_details() {
        let t = fixture();
        assert!((t.total_seconds("layer.call") - 70e-9).abs() < 1e-15);
        assert!((t.total_seconds("layer.call:b") - 40e-9).abs() < 1e-15);
        assert_eq!(t.total_seconds("layer.cal"), 0.0);
    }

    #[test]
    fn span_reports_its_result_and_a_real_duration() {
        let mut t = Trace::new("w");
        let (value, seconds) = t.span("sleep", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(seconds >= 0.002, "{seconds}");
        assert_eq!(t.spans()[0].seconds(), seconds);
    }

    #[test]
    fn json_lists_every_span_once() {
        let json = fixture().to_json();
        assert!(json.starts_with("{\"schema\": \"hsipc-benchmark-trace/v1\", \"workload\": \"w\""));
        assert_eq!(json.matches("\"name\"").count(), 4);
        assert!(json.contains(
            "{\"id\": 2, \"name\": \"inner\", \"workload\": \"w\", \"start_ns\": 20, \
             \"end_ns\": 30, \"parent\": 1, \"self_ns\": 10}"
        ));
        assert!(json.contains("\"parent\": null"));
    }
}
