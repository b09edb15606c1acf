//! The full Theorem 4.1 pipeline on a tiny system: safety verification →
//! `makeP` Cache-Datalog program → EDB specialization (bodies ≤ 2) →
//! Lemma 4.2 cache-to-linear translation → *linear* Datalog query — with
//! the verdict preserved at every stage.
//!
//! The translation blows up combinatorially (it is a complexity
//! construction), so the system here is minimal: one env store and the
//! query for the stored message.
//!
//! Also: `U` and every guess of a fleet, evaluated as deltas in place on
//! the fleet's base fixpoint, derive exactly their whole programs'
//! from-scratch models.

use parra_core::makep::{DatalogTarget, MakeP, MakePLimits};
use parra_core::verify::{Verifier, VerifierOptions};
use parra_datalog::cache::{cache_schedule, prove_with_cache, verify_schedule};
use parra_datalog::eval::Evaluator;
use parra_datalog::linear::{is_linear, LinearEvaluator};
use parra_datalog::specialize::specialize_edb;
use parra_datalog::translate::cache_to_linear;
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_fuzz::oracle::check_fleet_deltas;
use parra_program::builder::SystemBuilder;
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use parra_simplified::state::Budget;

/// env: x := 1 — a single env store, no dis threads (T = 0).
fn tiny_system() -> (ParamSystem, parra_program::ident::VarId) {
    let mut b = SystemBuilder::new(2);
    let x = b.var("x");
    let mut env = b.program("env");
    env.store(x, 1);
    let env = env.finish();
    (b.build(env, vec![]), x)
}

/// env: r <- x; assume r == 1 — the goal value is never stored.
fn tiny_safe_system() -> (ParamSystem, parra_program::ident::VarId) {
    let mut b = SystemBuilder::new(2);
    let x = b.var("x");
    let mut env = b.program("env");
    let r = env.reg("r");
    env.load(r, x).assume_eq(r, 1);
    let env = env.finish();
    (b.build(env, vec![]), x)
}

fn pipeline(sys: &ParamSystem, x: parra_program::ident::VarId, expect: bool) {
    let budget = Budget::exact(sys).unwrap();
    let mk = MakeP::new(sys, budget, MakePLimits::default()).unwrap();
    let guesses = mk.guesses().unwrap();
    assert_eq!(guesses.len(), 1, "env-only system has a single guess");
    let (prog, goal) = mk.program(&guesses[0], DatalogTarget::MessageGenerated(x, Val(1)));

    // Stage 1: ordinary evaluation of the makeP program.
    assert_eq!(Evaluator::new(&prog).query(&goal), expect);

    // Stage 2: specialize the timestamp side-conditions away; bodies
    // shrink to at most two (thread + message) atoms.
    let edb = MakeP::edb_predicates(&prog);
    let specialized = specialize_edb(&prog, &edb);
    assert!(specialized.rules().iter().all(|r| r.body.len() <= 2));
    assert_eq!(Evaluator::new(&specialized).query(&goal), expect);

    if expect {
        // Stage 3: Lemma 4.6 — a cache schedule from the derivation.
        let schedule = cache_schedule(&specialized, &goal).expect("derivable");
        assert!(verify_schedule(
            &specialized,
            &goal,
            &schedule,
            schedule.peak
        ));

        // Stage 4: exact Cache-Datalog provability at the schedule's peak.
        assert!(prove_with_cache(&specialized, &goal, schedule.peak));

        // Stage 5: Lemma 4.2 — the cache-bounded query as linear Datalog.
        let t = cache_to_linear(&specialized, &goal, schedule.peak).unwrap();
        assert!(is_linear(&t.program));
        assert!(LinearEvaluator::new(&t.program).query(&t.goal));
    } else {
        // The whole pipeline must remain negative.
        let k = 4;
        assert!(!prove_with_cache(&specialized, &goal, k));
        let t = cache_to_linear(&specialized, &goal, k).unwrap();
        assert!(is_linear(&t.program));
        assert!(!LinearEvaluator::new(&t.program).query(&t.goal));
    }
}

#[test]
fn unsafe_system_through_the_whole_pipeline() {
    let (sys, x) = tiny_system();
    pipeline(&sys, x, true);
}

#[test]
fn safe_system_through_the_whole_pipeline() {
    let (sys, x) = tiny_safe_system();
    pipeline(&sys, x, false);
}

/// Wide seeds whose fleets have 8 to 64 guesses (the `fleet-saturate`
/// band) that the resumption battery takes, in seed order.
const BAND_FLEETS: usize = 100;

/// Evaluates `U` and every guess of `sys`'s fleet as deltas on the
/// fleet's base fixpoint, to closure, and compares each with its whole
/// program's from-scratch model by printed atom; the base must be
/// unchanged after every rollback (`check_fleet_deltas`). Returns the
/// fleet's size, or `None` when makeP does not apply.
fn resume_fleet(name: &str, sys: &ParamSystem, band: bool) -> Option<usize> {
    let v = Verifier::new(sys, VerifierOptions::default()).ok()?;
    let goal_sys = v.goal_system();
    let mk = MakeP::new(goal_sys, v.budget().clone(), MakePLimits::default()).ok()?;
    let guesses = mk.guesses().ok()?;
    if band && !(8..=64).contains(&guesses.len()) {
        return None;
    }
    let goal_var = goal_sys.vars.lookup(GOAL_VAR_NAME)?;
    let target = DatalogTarget::MessageGenerated(parra_program::ident::VarId(goal_var), Val(1));
    let fleet = mk.fleet(&guesses, target);
    if let Err(msg) = check_fleet_deltas(&mk, &guesses, &fleet, target, guesses.len()) {
        panic!("{name}: {msg}");
    }
    Some(guesses.len())
}

/// On the litmus suite and the first wide seeds in the `fleet-saturate`
/// band, every guess and the union program, resumed to closure from the
/// base fixpoint, derive exactly their from-scratch models.
#[test]
fn resumed_fleet_programs_equal_their_scratch_models() {
    let mut guesses = 0;
    for bench in parra_litmus::all() {
        guesses += resume_fleet(bench.name, &bench.system, false).unwrap_or(0);
    }
    let gen = SystemGen::new(GenConfig::wide());
    let (mut fleets, mut seed) = (0, 0);
    while fleets < BAND_FLEETS {
        if let Some(n) = resume_fleet(&format!("wide seed {seed}"), &gen.case(seed).sys, true) {
            fleets += 1;
            guesses += n;
        }
        seed += 1;
    }
    assert!(guesses > 2500, "the battery shrank to {guesses} guesses");
}
