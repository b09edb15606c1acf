//! Segment plans are exact.
//!
//! A guess fleet shares one `PlanCache`: the rules every program shares
//! with the `makeP` template (its recorded segment) are planned once per
//! statistics key, and each program plans only its own rules. Over the
//! litmus suite and `GenConfig::wide()` seeds `0..2000` (each prepared
//! through `Verifier::new`, at most 64 guesses per system, both
//! `DatalogTarget`s), every guess program and the union `U` get, from
//! their fleet's cache, a plan that decides exactly what `Plan::new`
//! decides: per rule and delta position the join order, the bound
//! columns, `fully_bound` and the probed (predicate, columns); and the
//! same `uses` and `max_vars`. Slot numbers may differ.
//!
//! A prepared verifier keeps the plans of its own fleet: on every litmus
//! program, its second `cache-datalog` run and a run of a `rescoped`
//! clone plan nothing and report what the first run reported.

use parra_core::makep::{DatalogTarget, MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_datalog::ast::{PredId, Program, Term};
use parra_datalog::plan::{IndexSpec, Plan, PlanCache, NO_SLOT};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_obs::{EventValue, Level, Recorder};
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

const SEEDS: u64 = 2000;
const MAX_GUESSES: usize = 64;

/// The first difference between what two plans of `prog` decide.
fn first_difference(got: &Plan, want: &Plan, prog: &Program) -> Option<String> {
    if got.max_vars() != want.max_vars() {
        return Some(format!(
            "max_vars {} != {}",
            got.max_vars(),
            want.max_vars()
        ));
    }
    for p in prog.predicates() {
        if got.uses(p) != want.uses(p) {
            return Some(format!("uses of {}", prog.pred_name(p)));
        }
    }
    let (got_specs, want_specs): (Vec<&IndexSpec>, Vec<&IndexSpec>) =
        (got.indices().collect(), want.indices().collect());
    let probe = |specs: &[&IndexSpec], slot: u32| {
        (slot != NO_SLOT).then(|| (specs[slot as usize].pred, specs[slot as usize].cols.clone()))
    };
    for ri in 0..prog.rules().len() {
        let (g, w) = (got.rule(ri), want.rule(ri));
        if (g.n_vars, &g.body_preds) != (w.n_vars, &w.body_preds) {
            return Some(format!("rule {ri}: n_vars or body predicates"));
        }
        let (Some(gb), Some(wb)) = (g.body.as_deref(), w.body.as_deref()) else {
            if g.body.is_some() != w.body.is_some() {
                return Some(format!("rule {ri}: a plan on one side only"));
            }
            continue;
        };
        if gb.per_delta.len() != wb.per_delta.len() {
            return Some(format!("rule {ri}: delta positions"));
        }
        for (bi, (gd, wd)) in gb.per_delta.iter().zip(&wb.per_delta).enumerate() {
            if gd.steps != wd.steps {
                return Some(format!("rule {ri} delta {bi}: join order"));
            }
            for si in 0..gd.steps.len() {
                let gp = probe(&got_specs, g.slots[gb.slot_offset(bi) + si]);
                let wp = probe(&want_specs, w.slots[wb.slot_offset(bi) + si]);
                if gp != wp {
                    return Some(format!(
                        "rule {ri} delta {bi} step {si}: probe {gp:?} != {wp:?}"
                    ));
                }
            }
        }
    }
    None
}

/// Each fleet of `sys` (one per target): its guess programs, then `U`
/// when there are two or more.
fn fleets(sys: &ParamSystem) -> Vec<Vec<Program>> {
    let Ok(v) = Verifier::new(sys, VerifierOptions::default()) else {
        return Vec::new();
    };
    let goal_sys = v.goal_system();
    let Ok(mk) = MakeP::new(goal_sys, v.budget().clone(), MakePLimits::default()) else {
        return Vec::new();
    };
    let Ok(guesses) = mk.guesses() else {
        return Vec::new();
    };
    let guesses = &guesses[..guesses.len().min(MAX_GUESSES)];
    let goal_var = goal_sys
        .vars
        .lookup(GOAL_VAR_NAME)
        .map(parra_program::ident::VarId)
        .expect("prepared systems declare the goal variable");
    [
        DatalogTarget::AssertViolation,
        DatalogTarget::MessageGenerated(goal_var, Val(1)),
    ]
    .into_iter()
    .map(|target| {
        let union = (guesses.len() >= 2).then(|| mk.union_program(guesses, target).0);
        guesses
            .iter()
            .map(|g| mk.program(g, target).0)
            .chain(union)
            .collect()
    })
    .collect()
}

/// Runs `check` on every fleet of the corpus, on a few threads; returns
/// how many programs it saw.
fn for_each_fleet(seeds: u64, check: impl Fn(&str, &[Program]) + Sync) -> usize {
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
                        for fleet in fleets(sys) {
                            check(name, &fleet);
                            n += fleet.len();
                        }
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
    let n = for_each_fleet(SEEDS, |name, fleet| {
        let mut cache = PlanCache::new();
        for (i, prog) in fleet.iter().enumerate() {
            assert!(prog.segment().is_some(), "{name} #{i}: no template segment");
            let got = cache.plan(prog);
            if let Some(diff) = first_difference(&got, &Plan::new(prog), prog) {
                panic!("{name}, program {i} of its fleet: {diff}");
            }
        }
    });
    assert!(n > 70_000, "the corpus shrank to {n} programs");
}

/// What the planner reads of `preds`' statistics: the fact count and the
/// distinct constants per column, rounded up to powers of two, or its
/// defaults (256 tuples, 8 values per column) without facts.
fn stats_key(prog: &Program, preds: &BTreeSet<PredId>) -> Vec<u64> {
    let quantize = |n: usize| n.max(1).next_power_of_two() as u64;
    let mut facts: HashMap<PredId, (usize, Vec<HashSet<Term>>)> = HashMap::new();
    for rule in prog.rules().iter().filter(|r| r.is_fact()) {
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

#[test]
fn the_template_segment_is_planned_once_per_fleet_and_statistics_key() {
    let n = for_each_fleet(SEEDS / 10, |name, fleet| {
        let (_, segment) = fleet[0].segment().expect("a template segment");
        let reads: BTreeSet<PredId> = segment
            .iter()
            .flat_map(|r| r.body.iter().map(|a| a.pred))
            .collect();
        let template_rules = segment.iter().filter(|r| !r.is_fact()).count();
        let mut cache = PlanCache::new();
        let mut keys = HashSet::new();
        for (i, prog) in fleet.iter().enumerate() {
            assert!(
                Arc::ptr_eq(prog.segment().unwrap().1, segment),
                "{name} #{i}"
            );
            let own = prog.rules().iter().filter(|r| !r.is_fact()).count() - template_rules;
            let new_key = keys.insert(stats_key(prog, &reads));
            let (before, rules_before) = (cache.len(), cache.rules_planned());
            cache.plan(prog);
            let planned = cache.rules_planned() - rules_before;
            // The template is planned exactly under a statistics key the
            // program is the first to meet. The program's own rules are
            // planned unless an earlier program had the same own rules,
            // statistics and template plan; that is never so under a new
            // key.
            let template = usize::from(new_key);
            let program = cache.len() - before - template;
            assert!(program == 1 || (program == 0 && !new_key), "{name} #{i}");
            let want = program * (own + template * template_rules);
            assert_eq!(planned, want, "{name}, program {i}: rules planned");
        }
    });
    assert!(n > 5_000, "the corpus shrank to {n} programs");
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
