//! Phase attribution: where does a run's time go?
//!
//! A [`PhaseTimer`] splits a verification run into the buckets of
//! [`Phase`]. A [`PhaseGuard`] is the one timer of a region: on drop it
//! reads its `Instant` once and feeds the same microseconds to both
//! outputs —
//!
//! - the `phase/{name}_us` counter on the recorder the timer was built
//!   from, which flows with no extra plumbing into metric snapshots,
//!   per-run counter deltas (and thus `RunReport` / `--json`), `--stats`
//!   and `parra report` aggregation;
//! - one flat [`PhaseInterval`] in the recorder, which `--trace-out`
//!   renders as a `"ph":"X"` block.
//!
//! Phase counters are *CPU-time-like sums*: when `--race` runs several
//! engines concurrently their phase times add, so a raced run's phase
//! total can exceed its wall-clock duration.

use crate::{Counter, Recorder};
use std::time::Instant;

/// The phase taxonomy — every run decomposes into these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Reading and parsing the input system.
    Parse,
    /// Preparation: classification, `dis` unrolling and the goal
    /// transformation.
    Prepare,
    /// The makeP template build and guess enumeration (§4.1, Lemma 4.3).
    Guess,
    /// Join planning: every `PlanCache` call of the guess fleet, of the
    /// union program and of the witness replay.
    JoinPlan,
    /// Building or catching up join indices.
    IndexBuild,
    /// Semi-naive / naive Datalog fixpoint rounds.
    Fixpoint,
    /// State-space search (pre-closure worlds, BFS rounds, concrete exploration).
    Search,
    /// Re-deriving and checking a witness after an unsafe verdict.
    WitnessReplay,
}

impl Phase {
    /// Every phase, in canonical order.
    pub const ALL: [Phase; 8] = [
        Phase::Parse,
        Phase::Prepare,
        Phase::Guess,
        Phase::JoinPlan,
        Phase::IndexBuild,
        Phase::Fixpoint,
        Phase::Search,
        Phase::WitnessReplay,
    ];

    /// The snake_case name used in metric names and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Prepare => "prepare",
            Phase::Guess => "guess",
            Phase::JoinPlan => "join_plan",
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
}

/// One timed phase region, as a [`PhaseGuard`] recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseInterval {
    /// The scope prefix of the timer's recorder (e.g. `cache-datalog/`).
    pub scope: String,
    /// The phase.
    pub phase: Phase,
    /// A dense per-process id of the thread that timed the region.
    pub tid: u64,
    /// Start, µs since the recorder's epoch.
    pub start_us: u64,
    /// Duration in µs — exactly what the guard added to its counter.
    pub dur_us: u64,
}

/// Accumulates per-phase elapsed time into `phase/{name}_us` counters.
///
/// Cheap to construct from a disabled recorder (all handles are no-ops)
/// and cheap to clone-free share by reference; the counters are atomic.
#[derive(Debug)]
pub struct PhaseTimer {
    counters: [Counter; Phase::ALL.len()],
    rec: Recorder,
}

impl PhaseTimer {
    /// A timer whose counters live under `rec`'s scope.
    pub fn new(rec: &Recorder) -> PhaseTimer {
        // A disabled timer skips even the counter-name allocations: one
        // is built per Datalog evaluation.
        let counter = |p: Phase| {
            if rec.is_enabled() {
                rec.counter(&p.counter_name())
            } else {
                Counter::default()
            }
        };
        PhaseTimer {
            counters: Phase::ALL.map(counter),
            rec: rec.clone(),
        }
    }

    /// Whether the underlying recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Starts timing `phase`; time accrues when the guard drops.
    pub fn start(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            timer: self,
            phase,
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Directly adds `us` microseconds to `phase`'s counter, for call
    /// sites that measure themselves inside a tight loop. Such time has
    /// no interval, so it shows in the counters but not in the trace.
    pub fn add_us(&self, phase: Phase, us: u64) {
        self.counters[phase as usize].add(us);
    }
}

/// RAII guard: accumulates the elapsed time into its phase on drop.
#[derive(Debug)]
pub struct PhaseGuard<'t> {
    timer: &'t PhaseTimer,
    phase: Phase,
    start: Option<Instant>,
}

impl PhaseGuard<'_> {
    /// Ends the phase now and returns the µs it accrued (0 when the
    /// recorder is disabled).
    pub fn finish(mut self) -> u64 {
        self.stop()
    }

    fn stop(&mut self) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        let dur_us = start.elapsed().as_micros() as u64;
        self.timer.add_us(self.phase, dur_us);
        self.timer.rec.record_phase(self.phase, start, dur_us);
        dur_us
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A dense per-process id for the current OS thread.
pub(crate) fn current_thread_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;
    use std::collections::BTreeMap;

    #[test]
    fn phases_accumulate_into_counters() {
        let rec = Recorder::enabled(Level::Summary).scoped("engine/");
        let timer = PhaseTimer::new(&rec);
        {
            let _g = timer.start(Phase::Search);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        timer.add_us(Phase::IndexBuild, 123);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["engine/phase/index_build_us"], 123);
        let search_us = snap.counters["engine/phase/search_us"];
        assert!(search_us >= 1_000);
        // The guarded phase is one interval for the Chrome trace; the
        // self-measured one is not.
        let intervals = rec.phase_intervals();
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].phase, Phase::Search);
        assert_eq!(intervals[0].scope, "engine/");
        assert_eq!(intervals[0].dur_us, search_us);
    }

    /// The one measurement feeds both outputs: per (scope, phase), the
    /// intervals' durations sum to the counter exactly — across scopes
    /// and threads sharing one recorder.
    #[test]
    fn intervals_sum_to_their_counters() {
        let rec = Recorder::enabled(Level::Summary);
        let scopes = [rec.scoped("a/"), rec.scoped("b/")];
        let phases = [Phase::Parse, Phase::Guess, Phase::Search];
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for scope in &scopes {
                        let timer = PhaseTimer::new(scope);
                        for phase in phases {
                            for _ in 0..3 {
                                let _g = timer.start(phase);
                                std::hint::black_box((0..2_000u64).sum::<u64>());
                            }
                        }
                        // `finish` returns what it recorded.
                        let us = timer.start(Phase::Prepare).finish();
                        assert!(rec
                            .phase_intervals()
                            .iter()
                            .any(|i| i.phase == Phase::Prepare && i.dur_us == us));
                    }
                });
            }
        });
        let intervals = rec.phase_intervals();
        assert_eq!(intervals.len(), 2 * 2 * (3 * 3 + 1));
        let tids: std::collections::BTreeSet<u64> = intervals.iter().map(|i| i.tid).collect();
        assert_eq!(tids.len(), 2, "one tid per timing thread");
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        for i in &intervals {
            *sums
                .entry(format!("{}{}", i.scope, i.phase.counter_name()))
                .or_default() += i.dur_us;
        }
        let counters: BTreeMap<String, u64> = rec
            .snapshot()
            .counters
            .into_iter()
            .filter(|(n, _)| n.contains("phase/"))
            .collect();
        assert_eq!(sums.len(), 2 * 4);
        for (name, sum) in &sums {
            assert_eq!(counters.get(name), Some(sum), "{name}");
        }
    }

    #[test]
    fn disabled_timer_is_inert() {
        let rec = Recorder::disabled();
        let timer = PhaseTimer::new(&rec);
        assert!(!timer.is_enabled());
        {
            let _g = timer.start(Phase::Fixpoint);
        }
        assert_eq!(timer.start(Phase::Guess).finish(), 0);
        assert!(rec.snapshot().counters.is_empty());
        assert!(rec.phase_intervals().is_empty());
    }

    #[test]
    fn canonical_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "prepare",
                "guess",
                "join_plan",
                "index_build",
                "fixpoint",
                "search",
                "witness_replay"
            ]
        );
        // `Phase as usize` indexes the timer's counters.
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        assert_eq!(
            Phase::WitnessReplay.counter_name(),
            "phase/witness_replay_us"
        );
    }
}
