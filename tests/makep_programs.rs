//! The `makeP` encoder's programs, pinned by content.
//!
//! One digest covers every program the encoder emits for the litmus
//! suite and `GenConfig::wide()` seeds `0..2000` (each prepared through
//! `Verifier::new`, at most 64 guesses per system, both
//! `DatalogTarget`s): predicate names and arities, constant names and the
//! `{:?}` of every rule, in order. Plans, join counters, flight-recorder
//! events and witnesses are all functions of these programs, so an
//! encoder change that keeps this digest cannot move any of them.

use parra_core::cache::content_hash;
use parra_core::makep::{DatalogTarget, MakeP, MakePLimits};
use parra_core::verify::{Verifier, VerifierOptions};
use parra_datalog::ast::{Const, Program};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;

/// The digest of the encoder's output over the corpus below.
const PROGRAMS_DIGEST: &str = "9c561010f9a76bcac0511b950b0bea35";
/// How many programs the digest covers.
const PROGRAMS: usize = 76_356;

const SEEDS: u64 = 2000;
const MAX_GUESSES: usize = 64;

/// Every name, arity and rule of `prog`, in registry and rule order.
fn program_text(prog: &Program) -> String {
    let mut s = String::new();
    for p in prog.predicates() {
        s.push_str(&format!("{}/{};", prog.pred_name(p), prog.pred_arity(p)));
    }
    s.push('|');
    for c in 0..prog.n_constants() {
        s.push_str(prog.const_name(Const(c as u32)).unwrap_or("?"));
        s.push(';');
    }
    s.push('|');
    for r in prog.rules() {
        s.push_str(&format!("{r:?};"));
    }
    s
}

/// The digest of every program of `sys` and how many there are.
fn system_digest(sys: &ParamSystem) -> (String, usize) {
    let mut digest = String::new();
    let Ok(v) = Verifier::new(sys, VerifierOptions::default()) else {
        return (digest, 0);
    };
    let goal_sys = v.goal_system();
    let Ok(mk) = MakeP::new(goal_sys, v.budget().clone(), MakePLimits::default()) else {
        return (digest, 0);
    };
    let Ok(guesses) = mk.guesses() else {
        return (digest, 0);
    };
    let goal_var = goal_sys
        .vars
        .lookup(GOAL_VAR_NAME)
        .map(parra_program::ident::VarId)
        .expect("prepared systems declare the goal variable");
    let targets = [
        DatalogTarget::AssertViolation,
        DatalogTarget::MessageGenerated(goal_var, Val(1)),
    ];
    let mut n = 0;
    for g in guesses.iter().take(MAX_GUESSES) {
        for target in targets {
            let (prog, goal) = mk.program(g, target);
            digest = content_hash(&[&digest, &program_text(&prog), &format!("{goal:?}")]);
            n += 1;
        }
    }
    (digest, n)
}

#[test]
fn makep_programs_match_the_pinned_digest() {
    let gen = SystemGen::new(GenConfig::wide());
    let systems: Vec<ParamSystem> = parra_litmus::all()
        .into_iter()
        .map(|b| b.system)
        .chain((0..SEEDS).map(|seed| gen.case(seed).sys))
        .collect();
    // Systems are independent: digest them on a few threads, fold in order.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let chunk = systems.len().div_ceil(workers);
    let per_system: Vec<(String, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = systems
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(system_digest).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("digest worker panicked"))
            .collect()
    });
    let mut digest = String::new();
    let mut n = 0;
    for (d, k) in &per_system {
        digest = content_hash(&[&digest, d]);
        n += k;
    }
    assert_eq!((digest.as_str(), n), (PROGRAMS_DIGEST, PROGRAMS));
}
