#![warn(missing_docs)]

//! # parra-obs — zero-dependency observability
//!
//! Metrics, spans, traces, and the flight-recorder event log for the
//! verification engines, built on `std` alone (the build environment is
//! offline). The central type is [`Recorder`]: a cheap, cloneable handle
//! that is either *enabled* (backed by a shared registry + span store)
//! or *disabled* (`Recorder::disabled()`, the default), in which case
//! every operation is a branch-on-`None` no-op.
//!
//! | need | API |
//! |---|---|
//! | count events on a hot path | [`Recorder::counter`] → [`Counter::incr`] |
//! | track a level + its peak | [`Recorder::gauge`] → [`Gauge::set`] |
//! | distribution of a quantity | [`Recorder::histogram`] → [`Histogram::record`] |
//! | time a phase, build the tree | [`Recorder::span`] (RAII guard) |
//! | round-by-round event log | [`Recorder::event`] / [`Recorder::event_with`] |
//! | `chrome://tracing` file | [`Recorder::chrome_trace`] |
//!
//! Every output has a consumer: the span tree backs the CLI's `--stats`,
//! the Chrome trace `--trace-out`, the event log `--events-out` and
//! `parra report`, and the metric registry the per-run `RunReport`. The
//! CLI enables a recorder exactly when one of those flags is given.
//!
//! # Example
//!
//! ```
//! use parra_obs::{Level, Recorder};
//!
//! let rec = Recorder::enabled(Level::Summary);
//! let states = rec.counter("engine/states");
//! {
//!     let _span = rec.span("engine:search");
//!     states.incr();
//!     states.incr();
//! }
//! assert_eq!(rec.snapshot().counters["engine/states"], 2);
//! assert!(rec.render_tree().contains("engine:search"));
//!
//! // Disabled: same calls, no work, no output.
//! let off = Recorder::disabled();
//! off.counter("engine/states").incr();
//! assert!(off.snapshot().counters.is_empty());
//! ```

pub mod events;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod span;
pub mod trace;

pub use events::{Event, EventValue, SCHEMA_VERSION};
pub use metrics::{Counter, Gauge, GaugeSnapshot, HistSnapshot, Histogram, MetricsSnapshot};
pub use phase::{Phase, PhaseGuard, PhaseTimer};
pub use span::{ArgValue, SpanRecord};

use metrics::Registry;
use span::SpanStore;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Observability verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Everything off (the recorder is disabled).
    #[default]
    Off,
    /// Metrics, spans, and events.
    Summary,
}

/// State shared by a recorder and all its scoped views.
#[derive(Debug)]
struct Shared {
    epoch: Instant,
    metrics: Registry,
    spans: SpanStore,
    events: Mutex<Vec<Event>>,
}

#[derive(Debug)]
struct Inner {
    prefix: String,
    shared: Arc<Shared>,
}

/// The observability handle. Cloning is cheap (an `Arc`); clones share
/// the same registry, span store, and event log.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A disabled recorder: every operation is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder at `level` (`Level::Off` yields a disabled one).
    pub fn enabled(level: Level) -> Recorder {
        if level == Level::Off {
            return Recorder::disabled();
        }
        Recorder {
            inner: Some(Arc::new(Inner {
                prefix: String::new(),
                shared: Arc::new(Shared {
                    epoch: Instant::now(),
                    metrics: Registry::default(),
                    spans: SpanStore::new(),
                    events: Mutex::new(Vec::new()),
                }),
            })),
        }
    }

    /// Whether the recorder records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A view of the same recorder whose metric names gain `prefix` —
    /// used to give each engine run its own namespace while sharing one
    /// span store and trace.
    pub fn scoped(&self, prefix: &str) -> Recorder {
        match &self.inner {
            None => Recorder::disabled(),
            Some(inner) => Recorder {
                inner: Some(Arc::new(Inner {
                    prefix: format!("{}{}", inner.prefix, prefix),
                    shared: Arc::clone(&inner.shared),
                })),
            },
        }
    }

    /// A counter named `name` (under this recorder's scope prefix).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::default(),
            Some(i) => i.shared.metrics.counter(&format!("{}{}", i.prefix, name)),
        }
    }

    /// A gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::default(),
            Some(i) => i.shared.metrics.gauge(&format!("{}{}", i.prefix, name)),
        }
    }

    /// A histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::default(),
            Some(i) => i.shared.metrics.histogram(&format!("{}{}", i.prefix, name)),
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { opened: None },
            Some(i) => {
                let idx = i.shared.spans.open(name, i.shared.epoch);
                SpanGuard {
                    opened: Some((Arc::clone(&i.shared), idx)),
                }
            }
        }
    }

    /// Appends a flight-recorder event with deterministic `fields` only.
    ///
    /// Call this **only from sequential merge/commit points** (never from
    /// worker threads) with fields that are identical at every thread
    /// count — that is the event-log determinism contract (see
    /// [`events`]).
    pub fn event(&self, kind: &str, fields: &[(&str, EventValue)]) {
        self.event_with(kind, fields, &[]);
    }

    /// Appends a flight-recorder event with deterministic `fields` plus
    /// `volatile` measurements (durations, headroom, heap) that are
    /// exempt from the determinism contract.
    pub fn event_with(&self, kind: &str, fields: &[(&str, EventValue)], volatile: &[(&str, u64)]) {
        let Some(i) = &self.inner else { return };
        let t_us = i.shared.epoch.elapsed().as_micros() as u64;
        let mut log = i.shared.events.lock().unwrap();
        let seq = log.len() as u64;
        log.push(Event {
            seq,
            t_us,
            scope: i.prefix.clone(),
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            volatile: volatile.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// All recorded flight-recorder events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.shared.events.lock().unwrap().clone(),
        }
    }

    /// The event log rendered as schema-versioned JSONL; `extra`
    /// key/value pairs (e.g. `("file", path)`) are added to every line.
    pub fn render_events_jsonl(&self, extra: &[(&str, &str)]) -> String {
        events::render_jsonl(&self.events(), extra)
    }

    /// Writes the event log as JSONL to `path`.
    pub fn write_events(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render_events_jsonl(&[]))
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(i) => i.shared.metrics.snapshot(),
        }
    }

    /// All finished (and still-open) spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.shared.spans.records(),
        }
    }

    /// The indented span tree (empty string when disabled).
    pub fn render_tree(&self) -> String {
        match &self.inner {
            None => String::new(),
            Some(i) => i.shared.spans.render_tree(),
        }
    }

    /// The full Chrome-trace JSON document.
    pub fn chrome_trace(&self) -> String {
        trace::render_chrome_trace(&self.spans())
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }
}

/// RAII guard for an open span; the span closes when this drops.
#[derive(Debug)]
pub struct SpanGuard {
    opened: Option<(Arc<Shared>, usize)>,
}

impl SpanGuard {
    /// Attaches an integer argument to the span.
    pub fn arg_u64(&self, key: &str, val: u64) {
        if let Some((inner, idx)) = &self.opened {
            inner.spans.add_arg(*idx, key, ArgValue::U64(val));
        }
    }

    /// Attaches a string argument to the span.
    pub fn arg_str(&self, key: &str, val: &str) {
        if let Some((inner, idx)) = &self.opened {
            inner
                .spans
                .add_arg(*idx, key, ArgValue::Str(val.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.opened.take() {
            inner.spans.close(idx, inner.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter("c").add(3);
        rec.gauge("g").set(3);
        rec.histogram("h").record(3);
        let _g = rec.span("s");
        rec.event("e", &[("k", 1u64.into())]);
        assert!(rec.events().is_empty());
        assert_eq!(rec.render_events_jsonl(&[]), "");
        assert!(rec.snapshot().counters.is_empty());
        assert!(rec.spans().is_empty());
        assert_eq!(rec.render_tree(), "");
    }

    #[test]
    fn level_off_means_disabled() {
        assert!(!Recorder::enabled(Level::Off).is_enabled());
        assert!(Recorder::enabled(Level::Summary).is_enabled());
    }

    #[test]
    fn span_tree_via_recorder() {
        let rec = Recorder::enabled(Level::Summary);
        {
            let verify = rec.span("verify");
            verify.arg_str("file", "x.ra");
            {
                let _classify = rec.span("classify");
            }
            {
                let engine = rec.span("engine:simplified-reach");
                engine.arg_u64("states", 12);
            }
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let tree = rec.render_tree();
        assert!(tree.contains("verify"));
        assert!(tree.contains("  classify"));
        assert!(tree.contains("states: 12"));
        // And the chrome trace is one valid JSON document.
        assert!(json::parse(&rec.chrome_trace()).is_ok());
    }

    #[test]
    fn events_carry_scope_and_dense_sequence_numbers() {
        let rec = Recorder::enabled(Level::Summary);
        let engine = rec.scoped("reach/");
        rec.event("run_start", &[]);
        engine.event_with(
            "wave",
            &[("wave", 0u64.into()), ("worlds", 3u64.into())],
            &[("heap_bytes", 512)],
        );
        engine.event("run_end", &[("verdict", "safe".into())]);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[1].scope, "reach/");
        assert_eq!(events[1].volatile, vec![("heap_bytes".to_string(), 512)]);
        // JSONL lines all pass the schema check.
        let text = rec.render_events_jsonl(&[("file", "x.ra")]);
        for line in text.lines() {
            events::check_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn scoped_views_share_the_registry_under_a_prefix() {
        let rec = Recorder::enabled(Level::Summary);
        let scoped = rec.scoped("engine/");
        scoped.counter("states").add(2);
        scoped.scoped("sub/").counter("x").incr();
        // Visible from the root recorder, under the full prefix.
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("engine/states"), Some(&2));
        assert_eq!(snap.counters.get("engine/sub/x"), Some(&1));
        // Spans from scoped views land in the same store.
        {
            let _s = scoped.span("from-scope");
        }
        assert_eq!(rec.spans().len(), 1);
        // Counter deltas isolate a prefix.
        let before = MetricsSnapshot::default();
        let deltas = snap.counter_deltas(&before, "engine/");
        assert!(deltas.contains(&("states".to_string(), 2)));
    }
}
