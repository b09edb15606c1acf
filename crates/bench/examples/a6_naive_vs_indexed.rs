//! Experiment A6: indexed/interned evaluator vs the naive reference.
//!
//! For each litmus benchmark, builds the exact makeP guess fleet the
//! Datalog engines run, then evaluates it twice — once with the indexed
//! [`Evaluator`] and once with the [`NaiveEvaluator`] reference — walking
//! guesses in order and stopping at the first one that derives the goal
//! (the same early-exit the sequential engine takes). Prints the measured
//! wall-clock for both and the speedup; the numbers land in
//! EXPERIMENTS.md §A6.
//!
//! ```text
//! cargo run --release -p parra-bench --example a6_naive_vs_indexed
//! ```

use parra_core::makep::{DatalogTarget, MakeP, MakePLimits};
use parra_datalog::{Evaluator, NaiveEvaluator, PlanCache};
use parra_program::transform;
use parra_simplified::state::Budget;
use std::time::{Duration, Instant};

const BENCHES: &[&str] = &[
    "mp",
    "dekker",
    "peterson-ra",
    "peterson-ra-bratosz",
    "sb",
    "lb",
    "iriw",
    "wrc",
    "2+2w",
    "corr-parameterized",
    "producer-consumer",
    "spinlock-cas",
];

const REPS: usize = 3;

fn fmt_us(d: Duration) -> String {
    format!("{:>10} µs", d.as_micros())
}

fn main() {
    println!(
        "{:<22} {:>13} {:>13} {:>9}",
        "benchmark", "indexed", "naive", "speedup"
    );
    for name in BENCHES {
        let bench = parra_litmus::by_name(name).expect("known litmus benchmark");
        let goal = transform::assert_to_goal(&bench.system);
        let budget = Budget::exact(&goal.system).expect("litmus dis are loop-free");
        let mk = MakeP::new(&goal.system, budget, MakePLimits::default())
            .unwrap_or_else(|e| panic!("{name}: makeP not applicable: {e}"));
        let guesses = mk.guesses().unwrap_or_else(|e| panic!("{name}: {e}"));
        let target = DatalogTarget::MessageGenerated(goal.goal_var, goal.goal_val);

        // Build all programs once so both evaluators time pure evaluation.
        let programs: Vec<_> = guesses.iter().map(|g| mk.program(g, target)).collect();

        let indexed = best_of(REPS, || {
            // One plan cache per fleet walk, exactly as the engine runs it:
            // the first guess plans the shared template, the rest plan
            // only their own rules.
            let mut cache = PlanCache::new();
            for (prog, g) in &programs {
                let plan = cache.plan(prog);
                if Evaluator::with_plan(prog, plan)
                    .run_until(Some(g))
                    .contains(g)
                {
                    return true;
                }
            }
            false
        });
        let naive = best_of(REPS, || {
            for (prog, g) in &programs {
                if NaiveEvaluator::new(prog).run_until(Some(g)).contains(g) {
                    return true;
                }
            }
            false
        });
        assert_eq!(
            indexed.1, naive.1,
            "{name}: evaluators disagree on the verdict"
        );

        let speedup = naive.0.as_secs_f64() / indexed.0.as_secs_f64();
        println!(
            "{:<22} {} {} {:>8.1}x",
            name,
            fmt_us(indexed.0),
            fmt_us(naive.0),
            speedup
        );
    }
}

fn best_of<F: FnMut() -> bool>(reps: usize, mut f: F) -> (Duration, bool) {
    let mut best = Duration::MAX;
    let mut verdict = false;
    for _ in 0..reps {
        let t = Instant::now();
        verdict = f();
        best = best.min(t.elapsed());
    }
    (best, verdict)
}
