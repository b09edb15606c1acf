//! Portfolio-race benchmark and regression gate.
//!
//! Races the full engine portfolio ([`Verifier::race`]) on a litmus
//! subset and records best-of-N wall-clock per benchmark, next to the
//! sequential `--all-engines` sum over the same engines. The race's win
//! comes from cancelling the losers as soon as one engine answers
//! decisively — on a single-core runner there is no parallel speedup to
//! measure, only the cancellation saving — so the gate compares raced
//! wall-clock against this file's own committed baseline rather than
//! against the sequential sum (which is recorded as an informational
//! ratio).
//!
//! ```text
//! bench_race [--out FILE]        # measure and write FILE (default BENCH_race.json)
//! bench_race --check BASELINE    # measure and fail (exit 1) on regression
//! ```
//!
//! The check ([`parra_bench::gate`]) fails when a raced entry's
//! wall-clock regresses past [`gate::WALL_CLOCK`] or its verdict differs
//! from the baseline; the winner depends on wall-clock and is
//! informational. Every measurement also asserts the race invariant: the
//! raced verdict equals the sequential aggregate over the same engines.

use parra_bench::gate::{self, Row};
use parra_core::verify::{aggregate_verdicts, EngineId, Verdict, Verifier, VerifierOptions};
use std::process::ExitCode;
use std::time::Duration;

/// The litmus subset: a mix of safe and unsafe benchmarks, so both "a
/// decisive Safe cancels the fleet" and "a decisive Unsafe cancels the
/// fleet" paths are timed.
const BENCHES: &[&str] = &[
    "producer-consumer",
    "peterson-ra",
    "dekker",
    "lamport-2-ra",
    "sb",
    "iriw",
];

/// Timed repetitions per entry; the best is recorded.
const REPS: usize = 3;

fn measure() -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    for name in BENCHES {
        let bench = parra_litmus::by_name(name)
            .unwrap_or_else(|| panic!("unknown litmus benchmark `{name}`"));
        let options = VerifierOptions {
            // A generous race-wide deadline: the gate should fail on a
            // slow race, not hang on a broken one.
            timeout: Some(Duration::from_secs(3600)),
            ..Default::default()
        };
        let verifier =
            Verifier::new(&bench.system, options).unwrap_or_else(|e| panic!("{name}: {e}"));

        let mut sequential_us = u64::MAX;
        let mut sequential_verdict = Verdict::Unknown;
        for _ in 0..REPS {
            let start = std::time::Instant::now();
            let verdicts: Vec<(EngineId, Verdict)> = EngineId::ALL
                .iter()
                .map(|&e| (e, verifier.run_isolated(e).verdict))
                .collect();
            sequential_us = sequential_us.min(start.elapsed().as_micros() as u64);
            sequential_verdict = aggregate_verdicts(&verdicts)
                .unwrap_or_else(|e| panic!("{name}: sequential disagreement: {e}"));
        }

        let mut raced_us = u64::MAX;
        // The winner of the *last* repetition (wall-clock-bound).
        let mut winner = String::from("(none)");
        let mut verdict = Verdict::Unknown;
        for _ in 0..REPS {
            let race = verifier
                .race(&EngineId::ALL)
                .unwrap_or_else(|e| panic!("{name}: race disagreement: {e}"));
            assert_eq!(
                race.verdict, sequential_verdict,
                "{name}: raced verdict diverged from the sequential aggregate"
            );
            raced_us = raced_us.min(race.duration.as_micros() as u64);
            verdict = race.verdict;
            if let Some(w) = race.winner_engine() {
                winner = w.to_string();
            }
        }
        // Raced/sequential wall-clock ratio in permille (1000 = parity;
        // lower is better). Single-core runners only see the
        // cancellation saving.
        let speedup_permille = raced_us
            .saturating_mul(1000)
            .checked_div(sequential_us)
            .unwrap_or(1000);
        rows.push(
            Row::new()
                .info("bench", *name)
                .exact("verdict", verdict.to_string())
                .info("winner", winner)
                .wall("raced_us", raced_us)
                .info("sequential_us", sequential_us)
                .info("speedup_permille", speedup_permille),
        );
    }
    (rows, Vec::new())
}

fn main() -> ExitCode {
    gate::main("bench_race", "BENCH_race.json", measure)
}
