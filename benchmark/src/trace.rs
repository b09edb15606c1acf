//! In-memory spans recorded around the calls into each layer, and the
//! self-time arithmetic the per-layer metrics come from.

use crate::cpu::process_ns;
use crate::stats::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The name of the span enclosing one whole request.
pub const REQUEST: &str = "request";

/// One timed interval; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Collects the spans of one run. Times are the process's CPU time, so a
/// span covers the work of every thread that ran inside it.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: u64,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: process_ns(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        process_ns() - self.epoch
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        req: u32,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, req: u32, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(req, name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let req = self.spans[parent].req;
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(req, name, Some(parent), start, end);
        out
    }

    /// One JSON object per span, for `--trace-out`.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"req":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.req, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    pub self_ns: u64,
    pub calls: u64,
    /// Per-call durations, for the per-call median.
    pub durations: Vec<u64>,
}

/// Self time, call count and durations per span name, plus the total
/// duration of the request spans (the time the layers divide).
pub fn layer_table(spans: &[Span]) -> (BTreeMap<&'static str, LayerStat>, u64) {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    let mut request_ns = 0;
    for (s, own) in spans.iter().zip(selfs) {
        if s.name == REQUEST {
            request_ns += s.end - s.start;
        }
        let e = table.entry(s.name).or_default();
        e.self_ns += own;
        e.calls += 1;
        e.durations.push(s.end - s.start);
    }
    (table, request_ns)
}

/// Share of the request time attributed to some layer other than the
/// request span itself.
pub fn coverage(table: &BTreeMap<&'static str, LayerStat>, request_ns: u64) -> f64 {
    let unattributed = table.get(REQUEST).map_or(0, |s| s.self_ns);
    ratio(
        request_ns.saturating_sub(unattributed) as f64,
        request_ns as f64,
    )
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The human-readable per-layer table.
pub fn render_table(table: &BTreeMap<&'static str, LayerStat>, request_ns: u64) -> String {
    let mut out = format!(
        "{:<26} {:>11} {:>7} {:>8} {:>13}\n",
        "layer", "self ms", "share", "calls", "p50/call ms"
    );
    for (name, s) in table {
        let mut d: Vec<f64> = s.durations.iter().map(|&n| n as f64 / 1e6).collect();
        d.sort_by(f64::total_cmp);
        let p50 = percentile(&d, 0.5).map_or(0.0, |p| p.value);
        let _ = writeln!(
            out,
            "{:<26} {:>11.3} {:>7.4} {:>8} {:>13.4}",
            name,
            s.self_ns as f64 / 1e6,
            ratio(s.self_ns as f64, request_ns as f64),
            s.calls,
            p50
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Rng;

    /// Random nesting used by the tests: a request with non-overlapping and
    /// overlapping children.
    fn random_tree(rng: &mut Rng) -> Vec<Span> {
        let mut spans = vec![Span {
            req: 0,
            name: REQUEST,
            parent: None,
            start: 0,
            end: 1000,
        }];
        for _ in 0..rng.below(6) {
            let a = rng.below(1000) as u64;
            let b = a + rng.below(1000 - a as usize + 1) as u64;
            spans.push(Span {
                req: 0,
                name: "child",
                parent: Some(0),
                start: a,
                end: b,
            });
        }
        spans
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            req: 0,
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // request [0,100) ⊃ parse [10,20) , eval [30,90) ⊃ plan [40,50)
        let spans = vec![
            span(REQUEST, None, 0, 100),
            span("parse", Some(0), 10, 20),
            span("eval", Some(0), 30, 90),
            span("plan", Some(2), 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 50, 10]);
        let (table, request_ns) = layer_table(&spans);
        assert_eq!(request_ns, 100);
        assert_eq!(table["eval"].self_ns, 50);
        assert!((coverage(&table, request_ns) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let spans = vec![
            span(REQUEST, None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            span("c", Some(0), 90, 120), // runs past its parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
        let mut rng = Rng::new(11);
        for _ in 0..200 {
            let t = random_tree(&mut rng);
            let own = self_times(&t)[0];
            assert!(own <= 1000);
            // Brute force: count uncovered nanoseconds of the request.
            let uncovered = (0..1000u64)
                .filter(|&x| !t[1..].iter().any(|s| s.start <= x && x < s.end))
                .count() as u64;
            assert_eq!(own, uncovered);
        }
    }
}
