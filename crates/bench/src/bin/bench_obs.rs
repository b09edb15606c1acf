//! Flight-recorder overhead benchmark and regression gate.
//!
//! Runs a litmus subset through the simplified-reach and cache-datalog
//! engines twice — once with the recorder disabled, once with a fresh
//! summary-level recorder per repetition (so the event log and metric
//! registry grow exactly as they would in one `--events-out` run) — and
//! records best-of-N wall-clock for both. The delta is the cost of the
//! per-world/per-round events, the phase timers, and the metric counters.
//!
//! ```text
//! bench_obs [--out FILE]        # measure and write FILE (default BENCH_obs.json)
//! bench_obs --check BASELINE    # measure and fail (exit 1) on regression
//! ```
//!
//! `--check` enforces three rules:
//!
//! 1. **Overhead** (self-relative, immune to machine speed, checked here):
//!    the recorded run must not exceed the unrecorded run past
//!    [`gate::RECORDER_OVERHEAD`] — 5% *and* an absolute 2 ms floor.
//! 2. **Wall-clock** (vs the committed baseline, by [`parra_bench::gate`]):
//!    the recorded wall-clock must not regress past [`gate::WALL_CLOCK`].
//! 3. **Exact** (vs the baseline): the verdict and the number of events
//!    one recorded run logs are deterministic and must not change.

use parra_bench::gate::{self, Row, RECORDER_OVERHEAD};
use parra_core::verify::{EngineId, Verifier, VerifierOptions};
use parra_obs::{Level, Recorder};
use std::process::ExitCode;

/// The litmus subset: benchmarks with enough worlds/rounds for per-event
/// cost to show up if it were expensive.
const BENCHES: &[&str] = &[
    "producer-consumer",
    "peterson-ra",
    "dekker",
    "lamport-2-ra",
    "sb",
    "iriw",
];

const ENGINES: [EngineId; 2] = [EngineId::SimplifiedReach, EngineId::CacheDatalog];

/// Timed repetitions per entry; the best is recorded.
const REPS: usize = 3;

fn measure() -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    for name in BENCHES {
        let bench = parra_litmus::by_name(name)
            .unwrap_or_else(|| panic!("unknown litmus benchmark `{name}`"));
        let options = VerifierOptions::default();
        let off_verifier =
            Verifier::new(&bench.system, options.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
        for engine in ENGINES {
            let mut verdict = String::new();
            let mut off_us = u64::MAX;
            for _ in 0..REPS {
                let r = off_verifier.run(engine);
                verdict = r.verdict.to_string();
                off_us = off_us.min(r.stats.duration.as_micros() as u64);
            }
            // A fresh recorder per rep: event sequence numbers, phase
            // intervals and counters start from zero exactly as in a
            // real run.
            let mut on_us = u64::MAX;
            let mut events = 0u64;
            for _ in 0..REPS {
                let rec = Recorder::enabled(Level::Summary);
                let v = Verifier::new_with_recorder(&bench.system, options.clone(), rec.clone())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let r = v.run(engine);
                assert_eq!(
                    verdict,
                    r.verdict.to_string(),
                    "{name}/{engine}: recording changed the verdict"
                );
                on_us = on_us.min(r.stats.duration.as_micros() as u64);
                events = rec.events().len() as u64;
            }
            if RECORDER_OVERHEAD.regressed(off_us, on_us) {
                failures.push(format!(
                    "{name} / {engine}: recorder overhead {off_us} µs → {on_us} µs \
                     (>{}% and >{} ms floor)",
                    RECORDER_OVERHEAD.threshold_pct,
                    RECORDER_OVERHEAD.floor_us / 1000
                ));
            }
            // Recorded/unrecorded wall-clock ratio in permille (1000 = parity).
            let overhead_permille = on_us
                .saturating_mul(1000)
                .checked_div(off_us)
                .unwrap_or(1000);
            rows.push(
                Row::new()
                    .info("bench", *name)
                    .info("engine", engine.to_string())
                    .exact("verdict", verdict)
                    .info("off_us", off_us)
                    .wall("on_us", on_us)
                    .exact("events", events)
                    .info("overhead_permille", overhead_permille),
            );
        }
    }
    (rows, failures)
}

fn main() -> ExitCode {
    gate::main("bench_obs", "BENCH_obs.json", measure)
}
