//! Phase attribution: where does a run's time go?
//!
//! A [`PhaseTimer`] splits a verification run into the six buckets of
//! [`Phase`] and accumulates elapsed microseconds into `phase/{name}_us`
//! counters on the recorder it was built from. Because phases are plain
//! counters they flow — with zero extra plumbing — into metric
//! snapshots, per-run counter deltas (and thus `RunReport` / `--json`),
//! and `parra report` aggregation. Each [`PhaseGuard`] additionally
//! opens a `phase:{name}` span so phases show up as blocks in the Chrome
//! trace.
//!
//! Phase counters are *CPU-time-like sums*: when several fleet workers
//! run fixpoints concurrently their phase times add, so a run's phase
//! total can exceed its wall-clock duration.

use crate::{Counter, Recorder, SpanGuard};
use std::time::Instant;

/// The phase taxonomy — every run decomposes into these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Reading and parsing the input system.
    Parse,
    /// Planning: classification, transformation, guess enumeration,
    /// Datalog program construction.
    Plan,
    /// Building or catching up join indices.
    IndexBuild,
    /// Semi-naive / naive Datalog fixpoint rounds.
    Fixpoint,
    /// State-space search (waves, BFS rounds, concrete exploration).
    Search,
    /// Re-deriving and checking a witness after an unsafe verdict.
    WitnessReplay,
}

impl Phase {
    /// Every phase, in canonical order.
    pub const ALL: [Phase; 6] = [
        Phase::Parse,
        Phase::Plan,
        Phase::IndexBuild,
        Phase::Fixpoint,
        Phase::Search,
        Phase::WitnessReplay,
    ];

    /// The snake_case name used in metric names and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::IndexBuild => "index_build",
            Phase::Fixpoint => "fixpoint",
            Phase::Search => "search",
            Phase::WitnessReplay => "witness_replay",
        }
    }

    /// The counter name (`phase/{name}_us`) under which this phase's
    /// accumulated microseconds are registered.
    pub fn counter_name(self) -> String {
        format!("phase/{}_us", self.as_str())
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Plan => 1,
            Phase::IndexBuild => 2,
            Phase::Fixpoint => 3,
            Phase::Search => 4,
            Phase::WitnessReplay => 5,
        }
    }
}

/// Accumulates per-phase elapsed time into `phase/{name}_us` counters.
///
/// Cheap to construct from a disabled recorder (all handles are no-ops)
/// and cheap to clone-free share by reference; the counters are atomic.
#[derive(Debug)]
pub struct PhaseTimer {
    enabled: bool,
    counters: [Counter; 6],
    rec: Recorder,
}

impl PhaseTimer {
    /// A timer whose counters live under `rec`'s scope.
    pub fn new(rec: &Recorder) -> PhaseTimer {
        PhaseTimer {
            enabled: rec.is_enabled(),
            counters: Phase::ALL.map(|p| rec.counter(&p.counter_name())),
            rec: rec.clone(),
        }
    }

    /// Whether the underlying recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing `phase`; time accrues when the guard drops. Opens a
    /// `phase:{name}` span so the phase shows in the trace.
    pub fn start(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            timer: self,
            phase,
            start: self.enabled.then(Instant::now),
            _span: self.rec.span(&format!("phase:{}", phase.as_str())),
        }
    }

    /// Directly adds `us` microseconds to `phase` (for call sites that
    /// measure themselves, e.g. accumulation inside a tight loop).
    pub fn add_us(&self, phase: Phase, us: u64) {
        self.counters[phase.index()].add(us);
    }

    /// The microseconds accumulated so far for `phase`.
    pub fn get_us(&self, phase: Phase) -> u64 {
        self.counters[phase.index()].get()
    }
}

/// RAII guard: accumulates the elapsed time into its phase on drop.
#[derive(Debug)]
pub struct PhaseGuard<'t> {
    timer: &'t PhaseTimer,
    phase: Phase,
    start: Option<Instant>,
    _span: SpanGuard,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.timer
                .add_us(self.phase, start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    #[test]
    fn phases_accumulate_into_counters() {
        let rec = Recorder::enabled(Level::Summary).scoped("engine/");
        let timer = PhaseTimer::new(&rec);
        {
            let _g = timer.start(Phase::Search);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        timer.add_us(Phase::IndexBuild, 123);
        assert!(timer.get_us(Phase::Search) >= 1_000);
        assert_eq!(timer.get_us(Phase::IndexBuild), 123);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["engine/phase/index_build_us"], 123);
        assert!(snap.counters["engine/phase/search_us"] >= 1_000);
        // The phase shows up as a span for the Chrome trace.
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "phase:search" && s.dur_us.is_some()));
    }

    #[test]
    fn disabled_timer_is_inert() {
        let timer = PhaseTimer::new(&Recorder::disabled());
        assert!(!timer.is_enabled());
        {
            let _g = timer.start(Phase::Fixpoint);
        }
        assert_eq!(timer.get_us(Phase::Fixpoint), 0);
    }

    #[test]
    fn canonical_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "plan",
                "index_build",
                "fixpoint",
                "search",
                "witness_replay"
            ]
        );
        assert_eq!(
            Phase::WitnessReplay.counter_name(),
            "phase/witness_replay_us"
        );
    }
}
