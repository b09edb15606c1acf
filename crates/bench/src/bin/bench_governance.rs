//! Resource-governance overhead benchmark and regression gate (A7).
//!
//! Runs a litmus subset through the simplified-reach and cache-datalog
//! engines twice — once ungoverned, once under generous limits (a 1-hour
//! deadline plus an effectively unlimited memory budget) — and records
//! best-of-N wall-clock for both. The delta is the cost of the
//! round-granularity `ResourceBudget::check()` calls; it should stay in
//! the noise floor because the checks are O(1) and run once per
//! world, BFS round or semi-naive round, not per state.
//!
//! ```text
//! bench_governance [--out FILE]        # measure and write FILE (default BENCH_governance.json)
//! bench_governance --check BASELINE    # measure and fail (exit 1) on regression
//! ```
//!
//! The check ([`parra_bench::gate`]) fails when a governed entry's
//! wall-clock regresses past [`gate::WALL_CLOCK`] or its verdict differs
//! from the baseline. The governed/ungoverned ratio is recorded per entry
//! (permille) but is informational only — on CI timers it is too noisy
//! to gate on.

use parra_bench::gate::{self, Row};
use parra_core::verify::{EngineId, Verifier, VerifierOptions};
use std::process::ExitCode;
use std::time::Duration;

/// The litmus subset: benchmarks where the engines do enough rounds for
/// a per-round check to show up if it were expensive.
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

fn best_wall_us(verifier: &Verifier, engine: EngineId, verdict: &mut String) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..REPS {
        let r = verifier.run(engine);
        *verdict = r.verdict.to_string();
        best = best.min(r.stats.duration.as_micros() as u64);
    }
    best
}

fn measure() -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    for name in BENCHES {
        let bench = parra_litmus::by_name(name)
            .unwrap_or_else(|| panic!("unknown litmus benchmark `{name}`"));
        let plain = VerifierOptions::default();
        let governed = VerifierOptions {
            timeout: Some(Duration::from_secs(3600)),
            memory_budget: Some(usize::MAX),
            ..Default::default()
        };
        let ungoverned_verifier =
            Verifier::new(&bench.system, plain).unwrap_or_else(|e| panic!("{name}: {e}"));
        let governed_verifier =
            Verifier::new(&bench.system, governed).unwrap_or_else(|e| panic!("{name}: {e}"));
        for engine in ENGINES {
            let mut verdict = String::new();
            let ungoverned_us = best_wall_us(&ungoverned_verifier, engine, &mut verdict);
            let mut governed_verdict = String::new();
            let governed_us = best_wall_us(&governed_verifier, engine, &mut governed_verdict);
            assert_eq!(
                verdict, governed_verdict,
                "{name}/{engine}: generous limits changed the verdict"
            );
            // Governed/ungoverned wall-clock ratio in permille (1000 = parity).
            let overhead_permille = governed_us
                .saturating_mul(1000)
                .checked_div(ungoverned_us)
                .unwrap_or(1000);
            rows.push(
                Row::new()
                    .info("bench", *name)
                    .info("engine", engine.to_string())
                    .exact("verdict", verdict)
                    .info("ungoverned_us", ungoverned_us)
                    .wall("governed_us", governed_us)
                    .info("overhead_permille", overhead_permille),
            );
        }
    }
    (rows, Vec::new())
}

fn main() -> ExitCode {
    gate::main("bench_governance", "BENCH_governance.json", measure)
}
