//! Datalog-engine benchmark and regression gate.
//!
//! Runs the Datalog engine (`cache-datalog`) on a fixed litmus subset,
//! each repetition on a fresh verifier, and records, per (benchmark,
//! engine): best-of-N wall-clock, the evaluator's deterministic work
//! counters (join attempts, index builds at an index's first probe,
//! index hits), the planner's (join orders planned, one per body
//! signature and delta position some evaluation first needed) and the
//! encoder's (rules `MakeP` encodes for the run's programs: the `dis`
//! and goal rules of a single guess, or of `U` and of the winner's
//! replay).
//!
//! ```text
//! bench_datalog [--out FILE]        # measure and write FILE (default BENCH_datalog.json)
//! bench_datalog --check BASELINE    # measure and fail (exit 1) on regression
//! ```
//!
//! The check ([`parra_bench::gate`]) fails when an entry's wall-clock
//! regresses past [`gate::WALL_CLOCK`], or when its verdict or any of
//! the five counters differs from the baseline at all: the Datalog route
//! runs on one thread, so the counters are deterministic and any drift is
//! a plan change.

use parra_bench::gate::{self, Row};
use parra_core::verify::{EngineId, VerificationResult, Verifier, VerifierOptions};
use parra_obs::{Level, Recorder};
use std::process::ExitCode;

/// The litmus subset: every benchmark where the Datalog engines do real
/// work (unsafe ones walk the guess fleet to a winner and extract the
/// witness; the safe ones evaluate their whole fleet). `barrier`, `lb`
/// and `spinlock-cas` are SAFE multi-guess fleets: their summed counters
/// cover every guess evaluated, so the gate pins the SAFE path exactly.
const BENCHES: &[&str] = &[
    "producer-consumer",
    "peterson-ra",
    "peterson-ra-bratosz",
    "dekker",
    "lamport-2-ra",
    "mp",
    "sb",
    "iriw",
    "corr-parameterized",
    "barrier",
    "lb",
    "spinlock-cas",
];

const ENGINES: [EngineId; 1] = [EngineId::CacheDatalog];

/// Timed repetitions per entry; the best is recorded.
const REPS: usize = 3;

fn counter(result: &VerificationResult, name: &str) -> u64 {
    result
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn measure() -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    for name in BENCHES {
        let bench = parra_litmus::by_name(name)
            .unwrap_or_else(|| panic!("unknown litmus benchmark `{name}`"));
        for engine in ENGINES {
            let mut best: Option<(u64, Row)> = None;
            for _ in 0..REPS {
                // A fresh verifier per rep: a verifier keeps its fleet's
                // plans, so a second run would plan nothing.
                let rec = Recorder::enabled(Level::Summary);
                let verifier =
                    Verifier::new_with_recorder(&bench.system, VerifierOptions::default(), rec)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                let r = verifier.run(engine);
                let wall_us = r.stats.duration.as_micros() as u64;
                if best.as_ref().is_none_or(|(b, _)| wall_us < *b) {
                    let row = Row::new()
                        .info("bench", *name)
                        .info("engine", engine.to_string())
                        .exact("verdict", r.verdict.to_string())
                        .wall("wall_us", wall_us)
                        .exact("join_attempts", counter(&r, "join_attempts"))
                        .exact("index_builds", counter(&r, "index_builds"))
                        .exact("index_hits", counter(&r, "index_hits"))
                        .exact("rules_planned", counter(&r, "rules_planned"))
                        .exact("rules_encoded", counter(&r, "rules_encoded"));
                    best = Some((wall_us, row));
                }
            }
            rows.push(best.expect("REPS >= 1").1);
        }
    }
    (rows, Vec::new())
}

fn main() -> ExitCode {
    gate::main("bench_datalog", "BENCH_datalog.json", measure)
}
