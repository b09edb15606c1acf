//! Fleet plans are exact.
//!
//! A guess fleet plans through one `PlanCache`, as the engine plans it:
//! guess 0's whole program, then the base program, then `U`'s delta
//! after the base's plan, under which every later guess evaluates too.
//! Plans make their join orders on demand; here every (rule, delta
//! position) is planned. Over the litmus suite and `GenConfig::wide()`
//! seeds `0..2000` (each prepared through `Verifier::new`, at most 64
//! guesses per system, both `DatalogTarget`s), each join order is the one
//! `Plan::new` of the matching whole program gives: guess 0's and the
//! base's their own programs', `U`'s rules its whole program's, and each
//! guess's rules under `U`'s plan the guess's whole program's (the facts
//! they read, and so their statistics, are the same). Compared are, per
//! rule and delta position, the join order, the bound columns and
//! `fully_bound`, and the body predicates; and for whole plans the `uses`
//! and `max_vars`. Predicates match by name.
//!
//! A prepared verifier keeps the plans of its own fleet: on every litmus
//! program, its second `cache-datalog` run and a run of a `rescoped`
//! clone plan nothing and report what the first run reported.

use parra_core::makep::{DatalogTarget, Fleet, Guess, MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_datalog::ast::{PredId, Program, Rule, Term};
use parra_datalog::plan::{Plan, PlanCache};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_fuzz::oracle::{check_fleet_plans, plan_difference};
use parra_obs::{EventValue, Level, Recorder};
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

const SEEDS: u64 = 2000;
const MAX_GUESSES: usize = 64;

/// Each fleet of `sys` (one per target), with its makeP encoder.
fn with_fleets(sys: &ParamSystem, mut f: impl FnMut(&MakeP, &[Guess], DatalogTarget, &Fleet)) {
    let Ok(v) = Verifier::new(sys, VerifierOptions::default()) else {
        return;
    };
    let goal_sys = v.goal_system();
    let Ok(mk) = MakeP::new(goal_sys, v.budget().clone(), MakePLimits::default()) else {
        return;
    };
    let Ok(guesses) = mk.guesses() else {
        return;
    };
    let guesses = &guesses[..guesses.len().min(MAX_GUESSES)];
    let goal_var = goal_sys
        .vars
        .lookup(GOAL_VAR_NAME)
        .map(parra_program::ident::VarId)
        .expect("prepared systems declare the goal variable");
    for target in [
        DatalogTarget::AssertViolation,
        DatalogTarget::MessageGenerated(goal_var, Val(1)),
    ] {
        f(&mk, guesses, target, &mk.fleet(guesses, target));
    }
}

/// Runs `check` on every fleet of the corpus, on a few threads; returns
/// how many plans it saw (guess 0, the base, `U` and each later guess).
fn for_each_fleet(
    seeds: u64,
    check: impl Fn(&str, &MakeP, &[Guess], DatalogTarget, &Fleet) + Sync,
) -> usize {
    let gen = SystemGen::new(GenConfig::wide());
    let systems: Vec<(String, ParamSystem)> = parra_litmus::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.system))
        .chain((0..seeds).map(|seed| (format!("wide seed {seed}"), gen.case(seed).sys)))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let chunk = systems.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = systems
            .chunks(chunk)
            .map(|part| {
                let check = &check;
                s.spawn(move || {
                    let mut n = 0;
                    for (name, sys) in part {
                        with_fleets(sys, |mk, guesses, target, fleet| {
                            check(name, mk, guesses, target, fleet);
                            n += guesses.len() + 2;
                        });
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn segment_plans_decide_exactly_what_fresh_plans_decide() {
    let n = for_each_fleet(SEEDS, |name, mk, guesses, target, fleet| {
        let mut cache = PlanCache::new();
        let (first, _) = mk.program(&guesses[0], target);
        let got = cache.plan(&first);
        let all = (0..got.n_rules()).map(|k| (k, k));
        if let Some(diff) = plan_difference((&got, &first), (&Plan::new(&first), &first), all, true)
        {
            panic!("{name}, guess 0: {diff}");
        }
        if let Err(diff) = check_fleet_plans(mk, guesses, fleet, target, &mut cache) {
            panic!("{name}: {diff}");
        }
    });
    assert!(n > 70_000, "the corpus shrank to {n} plans");
}

/// What the planner reads of `preds`' statistics: the fact count and the
/// distinct constants per column, rounded up to powers of two, or its
/// defaults (256 tuples, 8 values per column) without facts.
fn stats_key<'r>(
    prog: &Program,
    rules: impl Iterator<Item = &'r Rule>,
    preds: &BTreeSet<PredId>,
) -> Vec<u64> {
    let quantize = |n: usize| n.max(1).next_power_of_two() as u64;
    let mut facts: HashMap<PredId, (usize, Vec<HashSet<Term>>)> = HashMap::new();
    for rule in rules.filter(|r| r.is_fact()) {
        let (count, cols) = facts
            .entry(rule.head.pred)
            .or_insert_with(|| (0, vec![HashSet::new(); rule.head.terms.len()]));
        *count += 1;
        for (col, t) in cols.iter_mut().zip(&rule.head.terms) {
            col.insert(*t);
        }
    }
    let mut key = Vec::new();
    for p in preds {
        match facts.get(p) {
            Some((count, cols)) => {
                key.push(quantize(*count));
                key.extend(cols.iter().map(|c| quantize(c.len())));
            }
            None => {
                key.push(256);
                key.extend((0..prog.pred_arity(*p)).map(|_| 8));
            }
        }
    }
    key
}

/// Plans every join order of `plan`'s rules numbered `rules`.
fn plan_all(plan: &Plan, rules: std::ops::Range<usize>) {
    for k in rules {
        for bi in 0..plan.rule(k).body.len() {
            plan.join_order(k, bi);
        }
    }
}

#[test]
fn the_template_segment_is_planned_once_per_fleet_and_statistics_key() {
    let n = for_each_fleet(SEEDS / 10, |name, mk, guesses, target, fleet| {
        let (first, _) = mk.program(&guesses[0], target);
        // Segment C's rules: the base's rules with a body, which open
        // guess 0's program too, the same allocations.
        let (program, base_len) = (&fleet.program, fleet.base_len);
        let with_body = |rules: &[Arc<Rule>]| -> Vec<Arc<Rule>> {
            rules.iter().filter(|r| !r.is_fact()).cloned().collect()
        };
        let segment = with_body(&program.rules()[..base_len]);
        let first_rules = with_body(first.rules());
        assert!(segment
            .iter()
            .zip(&first_rules)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let reads: BTreeSet<PredId> = segment
            .iter()
            .flat_map(|r| r.body.iter().map(|a| a.pred))
            .collect();
        let positions = |rules: &[Arc<Rule>]| -> usize { rules.iter().map(|r| r.body.len()).sum() };
        let mut cache = PlanCache::new();
        // A clone of the cache shares its pool, and so its count.
        let pool = cache.clone();
        let planned = |plan: &Plan, rules: std::ops::Range<usize>| {
            let before = pool.rules_planned();
            plan_all(plan, rules);
            pool.rules_planned() - before
        };
        // Guess 0 plans the segment's join orders under its statistics
        // key, and at most one per delta position of its rules.
        let guess0 = cache.plan(&first);
        let all = 0..guess0.n_rules();
        let guess0_planned = planned(&guess0, all);
        assert!(guess0_planned <= positions(&first_rules), "{name}, guess 0");
        // The base plans the segment again only under another key.
        let prefix = &program.rules()[..base_len];
        let new_key = stats_key(&first, first.rules().iter().map(|r| &**r), &reads)
            != stats_key(program, prefix.iter().map(|r| &**r), &reads);
        let base = cache.plan_prefix(program, base_len);
        let base_planned = planned(&base, 0..base.n_rules());
        assert!(
            if new_key {
                base_planned <= positions(&segment)
            } else {
                base_planned == 0
            },
            "{name}, the base: {base_planned} join orders planned"
        );
        // `U` plans at most its own rules, never the segment; every later
        // guess fits `U`'s plan and plans nothing.
        let union = cache.plan_delta(program, &base, base_len, &fleet.union);
        let n_base = base.n_rules();
        let union_rules = with_body(&program.rules()[base_len..]);
        let union_planned = planned(&union, n_base..union.n_rules());
        assert!(union_planned <= positions(&union_rules), "{name}, U");
        assert_eq!(planned(&base, 0..n_base), 0, "{name}, U's base rules");
        for (i, delta) in fleet.guesses.iter().enumerate() {
            assert!(union.fits(program, delta), "{name}, guess {i}");
        }
    });
    assert!(n > 5_000, "the corpus shrank to {n} plans");
}

/// The deterministic part of one `cache-datalog` run (verdict, notes,
/// witness lines, the §4.3 bound and the `fleet` events' fields), and
/// the rules it planned and whether it timed a `join_plan` phase.
type DatalogRun = (
    (
        Verdict,
        Vec<String>,
        Vec<String>,
        Option<u64>,
        Vec<Vec<(String, EventValue)>>,
    ),
    (u64, bool),
);

fn datalog_run(v: &Verifier, rec: &Recorder) -> DatalogRun {
    let before = rec.events().len();
    let r = v.run(EngineId::CacheDatalog);
    let fleet = rec.events()[before..]
        .iter()
        .filter(|e| e.kind == "fleet")
        .map(|e| e.fields.clone())
        .collect();
    let planned = r.counters.iter().find(|(n, _)| n == "rules_planned");
    let join_plan = r.phases.iter().any(|(n, _)| n == "join_plan");
    (
        (
            r.verdict,
            r.notes,
            r.witness_lines,
            r.env_thread_bound,
            fleet,
        ),
        (planned.map_or(0, |(_, n)| *n), join_plan),
    )
}

/// A prepared verifier keeps its fleet's plans: its second run and a run
/// of a `rescoped` clone plan nothing and report what the first run did.
#[test]
fn a_verifier_keeps_its_fleet_plans_across_runs_and_clones() {
    for bench in parra_litmus::all() {
        let name = bench.name;
        let rec = Recorder::enabled(Level::Summary);
        let options = VerifierOptions::default();
        let Ok(v) = Verifier::new_with_recorder(&bench.system, options, rec.clone()) else {
            continue;
        };
        let (first, _) = datalog_run(&v, &rec);
        let second = datalog_run(&v, &rec);
        let clone_rec = Recorder::enabled(Level::Summary);
        let clone = v.rescoped(VerifierOptions::default(), clone_rec.clone());
        let rescoped = datalog_run(&clone, &clone_rec);
        for (run, (report, planning)) in [("second run", second), ("rescoped clone", rescoped)] {
            assert_eq!(report, first, "{name}, {run}");
            assert_eq!(
                planning,
                (0, false),
                "{name}, {run}: (rules planned, join_plan)"
            );
        }
    }
}
