#![warn(missing_docs)]

//! # parra-obs — zero-dependency observability
//!
//! Metrics, phase timing, and the flight-recorder event log for the
//! verification engines, built on `std` alone (the build environment is
//! offline). The central type is [`Recorder`]: a cheap, cloneable handle
//! that is either *enabled* (backed by a shared metric registry, phase
//! intervals and event log) or *disabled* (`Recorder::disabled()`, the
//! default), in which case every operation is a branch-on-`None` no-op.
//!
//! | need | API |
//! |---|---|
//! | count events on a hot path | [`Recorder::counter`] → [`Counter::incr`] |
//! | track a level + its peak | [`Recorder::gauge`] → [`Gauge::set`] |
//! | distribution of a quantity | [`Recorder::histogram`] → [`Histogram::record`] |
//! | time a region | [`PhaseTimer::start`] (RAII guard) |
//! | round-by-round event log | [`Recorder::event`] / [`Recorder::event_with`] |
//! | `chrome://tracing` file | [`Recorder::chrome_trace`] |
//!
//! Every output has a consumer: the metric registry (phase counters
//! included) backs the CLI's `--stats` and each engine run's report, the
//! phase intervals plus the events the Chrome trace `--trace-out`, and
//! the event log `--events-out` and `parra report`. The CLI enables a
//! recorder exactly when one of those flags is given.
//!
//! # Example
//!
//! ```
//! use parra_obs::{Level, Phase, PhaseTimer, Recorder};
//!
//! let rec = Recorder::enabled(Level::Summary);
//! let states = rec.counter("engine/states");
//! let phases = PhaseTimer::new(&rec);
//! {
//!     let _search = phases.start(Phase::Search);
//!     states.incr();
//!     states.incr();
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["engine/states"], 2);
//! assert!(snap.counters.contains_key("phase/search_us"));
//! assert!(rec.chrome_trace().contains("phase:search"));
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
pub mod trace;

pub use events::{Event, EventValue, SCHEMA_VERSION};
pub use metrics::{Counter, Gauge, GaugeSnapshot, HistSnapshot, Histogram, MetricsSnapshot};
pub use phase::{Phase, PhaseGuard, PhaseInterval, PhaseTimer};

use metrics::Registry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Observability verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Everything off (the recorder is disabled).
    #[default]
    Off,
    /// Metrics, phases, and events.
    Summary,
}

/// State shared by a recorder and all its scoped views.
#[derive(Debug)]
struct Shared {
    epoch: Instant,
    metrics: Registry,
    phases: Mutex<Vec<PhaseInterval>>,
    events: Mutex<Vec<Event>>,
}

#[derive(Debug)]
struct Inner {
    prefix: String,
    shared: Arc<Shared>,
}

/// The observability handle. Cloning is cheap (an `Arc`); clones share
/// the same registry, phase intervals, and event log.
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
                    phases: Mutex::new(Vec::new()),
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
    /// event log and trace.
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

    /// Appends the interval a [`PhaseGuard`] measured.
    fn record_phase(&self, phase: Phase, start: Instant, dur_us: u64) {
        let Some(i) = &self.inner else { return };
        let interval = PhaseInterval {
            scope: i.prefix.clone(),
            phase,
            tid: phase::current_thread_id(),
            start_us: start.duration_since(i.shared.epoch).as_micros() as u64,
            dur_us,
        };
        i.shared.phases.lock().unwrap().push(interval);
    }

    /// Every timed phase region, in the order the regions ended.
    pub fn phase_intervals(&self) -> Vec<PhaseInterval> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.shared.phases.lock().unwrap().clone(),
        }
    }

    /// Appends a flight-recorder event with deterministic `fields` only.
    ///
    /// Call this with fields that are identical from run to run — that is
    /// the event-log determinism contract (see [`events`]).
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

    /// The full Chrome-trace JSON document: the phase intervals and the
    /// flight-recorder events (see [`trace`]).
    pub fn chrome_trace(&self) -> String {
        trace::render_chrome_trace(&self.phase_intervals(), &self.events())
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
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
        drop(PhaseTimer::new(&rec).start(Phase::Search));
        rec.event("e", &[("k", 1u64.into())]);
        assert!(rec.events().is_empty());
        assert_eq!(rec.render_events_jsonl(&[]), "");
        assert!(rec.snapshot().counters.is_empty());
        assert!(rec.phase_intervals().is_empty());
    }

    #[test]
    fn level_off_means_disabled() {
        assert!(!Recorder::enabled(Level::Off).is_enabled());
        assert!(Recorder::enabled(Level::Summary).is_enabled());
    }

    #[test]
    fn chrome_trace_renders_phases_and_events() {
        let rec = Recorder::enabled(Level::Summary);
        let engine = rec.scoped("simplified-reach/");
        engine.event("run_start", &[]);
        drop(PhaseTimer::new(&engine).start(Phase::Search));
        engine.event("run_end", &[("verdict", "UNSAFE".into())]);
        let trace = json::parse(&rec.chrome_trace()).expect("one JSON document");
        let records: Vec<(&str, &str)> = trace
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| {
                let field = |k| r.get(k).and_then(json::Value::as_str).unwrap();
                (field("ph"), field("name"))
            })
            .collect();
        assert_eq!(
            records,
            [
                ("M", "process_name"),
                ("X", "phase:search"),
                ("i", "simplified-reach/run_start"),
                ("i", "simplified-reach/run_end"),
            ]
        );
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
        // Phases timed through scoped views land in the same store.
        drop(PhaseTimer::new(&scoped).start(Phase::Prepare));
        assert_eq!(rec.phase_intervals().len(), 1);
        // Counter deltas isolate a prefix.
        let before = MetricsSnapshot::default();
        let deltas = snap.counter_deltas(&before, "engine/");
        assert!(deltas.contains(&("states".to_string(), 2)));
    }
}
