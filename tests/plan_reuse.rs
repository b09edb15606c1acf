//! Fleet plans are exact.
//!
//! A guess fleet plans through one `PlanCache`, as the engine plans it:
//! guess 0's whole program, then the base program with the template
//! segment, then `U` and every later guess as a delta that plans only its
//! own rules after the base's plan. Over the litmus suite and
//! `GenConfig::wide()` seeds `0..2000` (each prepared through
//! `Verifier::new`, at most 64 guesses per system, both
//! `DatalogTarget`s), each plan decides exactly what `Plan::new` of the
//! matching whole program decides: guess 0's and the base's their own
//! programs', a delta's rules its whole program's (the facts, and so the
//! statistics, are the same), and the segment under a delta the base's.
//! Compared are, per rule and delta position, the join order, the bound
//! columns, `fully_bound` and the probed (predicate, columns); and the
//! `uses` and `max_vars`. Predicates match by name, slot numbers may
//! differ.
//!
//! A prepared verifier keeps the plans of its own fleet: on every litmus
//! program, its second `cache-datalog` run and a run of a `rescoped`
//! clone plan nothing and report what the first run reported.

use parra_core::makep::{DatalogTarget, Fleet, Guess, MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_datalog::ast::{PredId, Program, Rule, Term};
use parra_datalog::plan::{IndexSpec, Plan, PlanCache, NO_SLOT};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_obs::{EventValue, Level, Recorder};
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;

const SEEDS: u64 = 2000;
const MAX_GUESSES: usize = 64;

/// The first difference between what `got`, a plan of `gp`'s rules, and
/// `want`, one of `wp`'s, decide for the rules with a body numbered
/// `rules`, and, with `whole`, for `uses` and `max_vars`.
fn first_difference(
    (got, gp): (&Plan, &Program),
    (want, wp): (&Plan, &Program),
    rules: Range<usize>,
    whole: bool,
) -> Option<String> {
    if whole {
        if (got.n_rules(), got.max_vars()) != (want.n_rules(), want.max_vars()) {
            return Some("rule count or max_vars".into());
        }
        for p in gp.predicates() {
            let theirs = wp.lookup_pred(gp.pred_name(p));
            let want_uses: Vec<_> = theirs.map_or(Vec::new(), |w| want.uses(w).collect());
            if got.uses(p).collect::<Vec<_>>() != want_uses {
                return Some(format!("uses of {}", gp.pred_name(p)));
            }
        }
    }
    let (got_specs, want_specs): (Vec<&IndexSpec>, Vec<&IndexSpec>) =
        (got.indices().collect(), want.indices().collect());
    let probe = |prog: &Program, specs: &[&IndexSpec], slot: u32| {
        (slot != NO_SLOT).then(|| {
            let spec = specs[slot as usize];
            (prog.pred_name(spec.pred).to_string(), spec.cols)
        })
    };
    for k in rules {
        let (g, w) = (got.rule(k), want.rule(k));
        let names = |prog: &Program, preds: &[PredId]| -> BTreeSet<String> {
            preds
                .iter()
                .map(|&p| prog.pred_name(p).to_string())
                .collect()
        };
        if g.n_vars != w.n_vars || names(gp, g.body_preds) != names(wp, w.body_preds) {
            return Some(format!("rule {k}: n_vars or body predicates"));
        }
        let (gb, wb) = (g.body, w.body);
        if gb.per_delta.len() != wb.per_delta.len() {
            return Some(format!("rule {k}: delta positions"));
        }
        for (bi, (gd, wd)) in gb.per_delta.iter().zip(&wb.per_delta).enumerate() {
            if gd.steps != wd.steps {
                return Some(format!("rule {k} delta {bi}: join order"));
            }
            for si in 0..gd.steps.len() {
                let gp_ = probe(gp, &got_specs, g.slots[gb.slot_offset(bi) + si]);
                let wp_ = probe(wp, &want_specs, w.slots[wb.slot_offset(bi) + si]);
                if gp_ != wp_ {
                    return Some(format!(
                        "rule {k} delta {bi} step {si}: probe {gp_:?} != {wp_:?}"
                    ));
                }
            }
        }
    }
    None
}

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

/// The base program of `fleet` on its own.
fn base_program(fleet: &Fleet) -> Program {
    let mut base = fleet.program.clone();
    base.split_rules_off(fleet.base_len);
    base
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
        assert!(first.segment().is_some(), "{name}: no template segment");
        let got = cache.plan(&first);
        let whole = 0..got.n_rules();
        if let Some(diff) =
            first_difference((&got, &first), (&Plan::new(&first), &first), whole, true)
        {
            panic!("{name}, guess 0: {diff}");
        }
        let (program, base_len) = (&fleet.program, fleet.base_len);
        let base = cache.plan_prefix(program, base_len);
        let base_prog = base_program(fleet);
        let base_fresh = Plan::new(&base_prog);
        let segment = 0..base.n_rules();
        if let Some(diff) = first_difference(
            (&base, program),
            (&base_fresh, &base_prog),
            segment.clone(),
            false,
        ) {
            panic!("{name}, the base: {diff}");
        }
        let union = (&fleet.union, None);
        let deltas = fleet.guesses.iter().zip(guesses).map(|(d, g)| (d, Some(g)));
        for (i, (delta, guess)) in std::iter::once(union).chain(deltas).enumerate() {
            let got = cache.plan_delta(program, &base, base_len, delta);
            let whole_prog = guess.map_or_else(|| program.clone(), |g| mk.program(g, target).0);
            let want = Plan::new(&whole_prog);
            let own = base.n_rules()..got.n_rules();
            let diff =
                first_difference((&got, program), (&want, &whole_prog), own, true).or_else(|| {
                    let base_side = (&base_fresh, &base_prog);
                    first_difference((&got, program), base_side, segment.clone(), false)
                });
            if let Some(diff) = diff {
                panic!("{name}, delta {i} of its fleet (0 is U): {diff}");
            }
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

#[test]
fn the_template_segment_is_planned_once_per_fleet_and_statistics_key() {
    let n = for_each_fleet(SEEDS / 10, |name, mk, guesses, target, fleet| {
        let (first, _) = mk.program(&guesses[0], target);
        let (_, segment) = first.segment().expect("a template segment");
        let reads: BTreeSet<PredId> = segment
            .iter()
            .flat_map(|r| r.body.iter().map(|a| a.pred))
            .collect();
        let template_rules = segment.iter().filter(|r| !r.is_fact()).count();
        let with_body = |prog: &Program| prog.rules().iter().filter(|r| !r.is_fact()).count();
        let mut cache = PlanCache::new();
        let mut planned = |plan: &mut dyn FnMut(&mut PlanCache)| {
            let before = cache.rules_planned();
            plan(&mut cache);
            cache.rules_planned() - before
        };
        // Guess 0 plans all of its rules, the segment under its
        // statistics key.
        assert_eq!(
            planned(&mut |c| drop(c.plan(&first))),
            with_body(&first),
            "{name}, guess 0"
        );
        // The base plans the segment again only under another key.
        let (program, base_len) = (&fleet.program, fleet.base_len);
        assert!(std::sync::Arc::ptr_eq(
            program.segment().unwrap().1,
            segment
        ));
        let prefix = &program.rules()[..base_len];
        let new_key = stats_key(&first, first.rules().iter().map(|r| &**r), &reads)
            != stats_key(program, prefix.iter().map(|r| &**r), &reads);
        let mut base = None;
        assert_eq!(
            planned(&mut |c| base = Some(c.plan_prefix(program, base_len))),
            usize::from(new_key) * template_rules,
            "{name}, the base"
        );
        let base = base.expect("planned");
        // `U` plans its own rules, never the segment; each later guess
        // takes its rules' plans from `U`'s and plans nothing.
        let union_rules = fleet
            .union
            .iter()
            .filter(|&&ri| !program.rules()[ri as usize].is_fact());
        assert_eq!(
            planned(&mut |c| drop(c.plan_delta(program, &base, base_len, &fleet.union))),
            union_rules.count(),
            "{name}, U"
        );
        for (i, delta) in fleet.guesses.iter().enumerate() {
            assert_eq!(
                planned(&mut |c| drop(c.plan_delta(program, &base, base_len, delta))),
                0,
                "{name}, guess {i}"
            );
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
