//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Records stay in memory for the whole run and are written once, at
//! exit, as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//! Spans *inside* the program are a later issue; the only program-made
//! numbers here are the daemon's `?trace=1` stage timings, which are
//! turned into child spans marked `source = "program"`.

use crate::json::{self, Value};
use std::sync::Mutex;
use std::time::Instant;

/// Who measured a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call or a round trip.
    Bench,
    /// Reported by the program (`?trace=1`) and placed by the benchmark.
    Program,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub source: Source,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log shared by the load threads of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Books a finished span and returns its index (a parent handle).
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
        source: Source,
    ) -> usize {
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            source,
        });
        spans.len() - 1
    }

    /// Opens a benchmark-made span; children may name it as their parent
    /// before [`Recorder::end`] closes it.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, request, Source::Bench)
    }

    pub fn end(&self, span: usize) -> u64 {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans[span].end_ns = now;
        spans[span].duration_ns()
    }

    /// Times `f` as one benchmark-made span; returns its nanoseconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let span = self.begin(name, parent, request);
        let out = f();
        (out, self.end(span))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Chrome trace-event JSON of every span, with self time attached.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let spans = self.snapshot();
        let selfs = self_times_ns(&spans);
        let events = spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                json::obj(vec![
                    ("name", json::str(s.name)),
                    ("cat", json::str(workload)),
                    ("ph", json::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(s.request as f64)),
                    (
                        "args",
                        json::obj(vec![
                            ("request", Value::Num(s.request as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("self_us", Value::Num(self_ns as f64 / 1e3)),
                            (
                                "source",
                                json::str(match s.source {
                                    Source::Bench => "bench",
                                    Source::Program => "program",
                                }),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        json::obj(vec![
            ("displayTimeUnit", json::str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
        .render()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 1,
            source: Source::Bench,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 30, Some(0)), // child
            span(50, 90, Some(0)), // child
            span(55, 60, Some(2)), // grandchild: charged to its parent only
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 170, Some(0)), // overlaps the first by 10
            span(190, 260, Some(0)), // hangs 60 past the parent
        ];
        // covered = [110,170) + [190,200) = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_writes_loadable_chrome_trace() {
        let rec = Recorder::new();
        let root = rec.record("request", 0, 2_000, None, 7, Source::Bench);
        rec.record("solve", 500, 1_500, Some(root), 7, Source::Program);
        let doc = json::parse(&rec.to_chrome_trace("unit")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.0));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("self_us").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("source")
                .unwrap()
                .as_str(),
            Some("program")
        );
    }
}
