//! Cache Datalog: inference with a bounded working set (Section 4).
//!
//! The Cache is a set of ground atoms controlling inference:
//!
//! * **Add** — an instantiated rule may fire only when all its body atoms
//!   are in the Cache; the head is added to the Cache;
//! * **Drop** — atoms may be dropped non-deterministically.
//!
//! `Prog ⊢ₖ g` means `g` is inferable with `|Cache| ≤ k` throughout.
//! Standard Datalog is the special case "never drop, unbounded cache". The
//! paper bounds the cache for its `makeP` programs by `O(Q₀²)`
//! (Lemma 4.4), via an inference strategy read off the dependency graph
//! (Lemma 4.6).
//!
//! Two tools live here:
//!
//! * [`prove_with_cache`] — exact (exponential) search deciding
//!   `Prog ⊢ₖ g`, for small instances and tests;
//! * [`cache_schedule`] — the constructive Lemma 4.6: from a semi-naive
//!   derivation, compute an Add/Drop schedule and its peak cache size
//!   (atoms are dropped at their last use).

use crate::ast::{GroundAtom, Program, Rule, Term};
use crate::eval::{derivation_cone, Database, Evaluator};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// One step of a cache schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleStep {
    /// Infer and cache the atom (via the recorded rule).
    Add(GroundAtom),
    /// Drop the atom from the cache.
    Drop(GroundAtom),
}

/// An Add/Drop schedule proving a goal with a bounded cache.
#[derive(Debug, Clone)]
pub struct CacheSchedule {
    /// The steps in order.
    pub steps: Vec<ScheduleStep>,
    /// The maximal cache size reached.
    pub peak: usize,
    /// Running cache size after each step — `occupancy[i]` is the number
    /// of cached atoms after `steps[i]`. A time series for tracing the
    /// register-allocation profile of the schedule.
    pub occupancy: Vec<usize>,
}

/// Computes a cache schedule for `goal` from the program's least model:
/// derives exactly the atoms in the goal's derivation cone in derivation
/// order and drops each atom after its last use (keeping the goal).
///
/// Returns `None` if the goal is not derivable.
pub fn cache_schedule(program: &Program, goal: &GroundAtom) -> Option<CacheSchedule> {
    let db = Evaluator::new(program)
        .with_provenance(true)
        .run_until(Some(goal));
    schedule_from_database(&db, goal)
}

/// As [`cache_schedule`], from a pre-computed database.
///
/// The schedule derives the goal's derivation cone depth-first (each atom's
/// dependencies just before the atom itself) and drops every atom at its
/// last use — the register-allocation view of the paper's dependency-graph
/// strategy.
///
/// Returns `None` if the goal was not derived or the database was computed
/// without provenance (see
/// [`Evaluator::with_provenance`](crate::eval::Evaluator::with_provenance)).
pub fn schedule_from_database(db: &Database, goal: &GroundAtom) -> Option<CacheSchedule> {
    let cone = derivation_cone(db, goal)?;
    let goal_idx = db.index_of(goal)?;

    // Remaining-use counts over the cone.
    let mut uses: HashMap<usize, usize> = HashMap::new();
    for &i in &cone {
        let (_, body) = db.derivation(i);
        for &b in body {
            *uses.entry(b).or_insert(0) += 1;
        }
    }

    let mut steps = Vec::new();
    let mut occupancy = Vec::new();
    let mut in_cache: HashSet<usize> = HashSet::new();
    let mut emitted: HashSet<usize> = HashSet::new();
    let mut peak = 0usize;

    // Iterative DFS post-order from the goal.
    enum Frame {
        Visit(usize),
        Emit(usize),
    }
    let mut stack = vec![Frame::Visit(goal_idx)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(i) => {
                if emitted.contains(&i) {
                    continue;
                }
                stack.push(Frame::Emit(i));
                // Push in reverse so body atoms are *emitted* in body
                // order: recursive dependencies are resolved first, and
                // short-lived side atoms arrive just before their use.
                let (_, body) = db.derivation(i);
                for &b in body.iter().rev() {
                    stack.push(Frame::Visit(b));
                }
            }
            Frame::Emit(i) => {
                if !emitted.insert(i) {
                    continue;
                }
                steps.push(ScheduleStep::Add(db.ground(i)));
                in_cache.insert(i);
                occupancy.push(in_cache.len());
                peak = peak.max(in_cache.len());
                // Consume this derivation's body uses; drop exhausted atoms.
                let (_, body) = db.derivation(i);
                for &b in body.to_vec().iter() {
                    let u = uses.get_mut(&b).expect("counted above");
                    *u -= 1;
                    if *u == 0 && b != goal_idx && in_cache.remove(&b) {
                        steps.push(ScheduleStep::Drop(db.ground(b)));
                        occupancy.push(in_cache.len());
                    }
                }
            }
        }
    }
    Some(CacheSchedule {
        steps,
        peak,
        occupancy,
    })
}

/// Replays a schedule under the Cache semantics, checking that every Add
/// is justified by a rule whose body is in the cache, and that the cache
/// never exceeds `k`. Returns whether the goal ends up derived.
///
/// This is the checker of the evaluator's work, so it shares none of its
/// code: it keeps the cache bucketed by predicate, tries only the rules
/// whose head predicate is the added atom's, and matches against one
/// reused substitution, undoing bindings from a trail.
pub fn verify_schedule(
    program: &Program,
    goal: &GroundAtom,
    schedule: &CacheSchedule,
    k: usize,
) -> bool {
    let n_preds = program.predicates().count();
    let mut by_head: Vec<Vec<&Rule>> = vec![Vec::new(); n_preds];
    for rule in program.rules() {
        by_head[rule.head.pred.0 as usize].push(rule);
    }
    let n_vars = program.rules().iter().map(|r| crate::plan::rule_n_vars(r));
    let mut m = Matcher {
        cache: vec![Vec::new(); n_preds],
        subst: vec![None; n_vars.max().unwrap_or(0)],
        trail: Vec::new(),
    };
    let mut size = 0usize;
    let mut derived_goal = false;
    for step in &schedule.steps {
        match step {
            ScheduleStep::Add(g) => {
                let Some(rules) = by_head.get(g.pred.0 as usize) else {
                    return false;
                };
                if !rules.iter().any(|rule| m.yields(rule, g)) {
                    return false;
                }
                let bucket = &mut m.cache[g.pred.0 as usize];
                if !bucket.contains(&g) {
                    bucket.push(g);
                    size += 1;
                }
                if size > k {
                    return false;
                }
                derived_goal |= g == goal;
            }
            ScheduleStep::Drop(g) => {
                let bucket = m.cache.get_mut(g.pred.0 as usize);
                let Some((bucket, at)) =
                    bucket.and_then(|b| b.iter().position(|a| *a == g).map(|at| (b, at)))
                else {
                    return false;
                };
                bucket.swap_remove(at);
                size -= 1;
            }
        }
    }
    derived_goal
}

/// The cache of [`verify_schedule`], bucketed by predicate, and the
/// substitution its rule matching binds, by variable id.
struct Matcher<'s> {
    cache: Vec<Vec<&'s GroundAtom>>,
    subst: Vec<Option<crate::ast::Const>>,
    trail: Vec<u32>,
}

impl Matcher<'_> {
    /// Whether some instantiation of `rule` with body in the cache has
    /// head `g`.
    fn yields(&mut self, rule: &Rule, g: &GroundAtom) -> bool {
        let found = self.bind(&rule.head.terms, &g.args) && self.satisfy(rule, 0);
        self.unwind(0);
        found
    }

    /// Satisfies `rule`'s body atoms from `i` on from the cache,
    /// backtracking.
    fn satisfy(&mut self, rule: &Rule, i: usize) -> bool {
        let Some(pattern) = rule.body.get(i) else {
            return true;
        };
        for at in 0..self.cache[pattern.pred.0 as usize].len() {
            let atom = self.cache[pattern.pred.0 as usize][at];
            let mark = self.trail.len();
            if self.bind(&pattern.terms, &atom.args) && self.satisfy(rule, i + 1) {
                return true;
            }
            self.unwind(mark);
        }
        false
    }

    /// Matches `terms` against `args`, binding unbound variables; false
    /// on a mismatch, with the bindings made so far left on the trail.
    fn bind(&mut self, terms: &[Term], args: &[crate::ast::Const]) -> bool {
        terms.len() == args.len()
            && terms.iter().zip(args).all(|(t, c)| match t {
                Term::Const(k) => k == c,
                Term::Var(v) => match self.subst[*v as usize] {
                    Some(bound) => bound == *c,
                    None => {
                        self.subst[*v as usize] = Some(*c);
                        self.trail.push(*v);
                        true
                    }
                },
            })
    }

    /// Unbinds the variables bound since the trail held `mark`.
    fn unwind(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.subst[v as usize] = None;
        }
    }
}

/// Exact decision of `Prog ⊢ₖ g`: breadth-first search over cache
/// configurations. Exponential in general — intended for small programs
/// and for validating [`cache_schedule`] and the Lemma 4.2 translation.
pub fn prove_with_cache(program: &Program, goal: &GroundAtom, k: usize) -> bool {
    let mut seen: HashSet<BTreeSet<GroundAtom>> = HashSet::new();
    let mut queue: VecDeque<BTreeSet<GroundAtom>> = VecDeque::new();
    let empty = BTreeSet::new();
    seen.insert(empty.clone());
    queue.push_back(empty);

    while let Some(cache) = queue.pop_front() {
        if cache.contains(goal) {
            return true;
        }
        // Adds: every derivable atom not already present.
        for add in derivable_from(program, &cache) {
            if cache.contains(&add) || cache.len() + 1 > k {
                continue;
            }
            let mut next = cache.clone();
            next.insert(add);
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
        // Drops.
        for atom in &cache {
            let mut next = cache.clone();
            next.remove(atom);
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    false
}

/// All atoms addable in one step from `cache`.
fn derivable_from(program: &Program, cache: &BTreeSet<GroundAtom>) -> Vec<GroundAtom> {
    let mut out = Vec::new();
    for rule in program.rules() {
        enumerate_instances(rule, 0, &mut HashMap::new(), cache, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn enumerate_instances(
    rule: &Rule,
    i: usize,
    subst: &mut HashMap<u32, crate::ast::Const>,
    cache: &BTreeSet<GroundAtom>,
    out: &mut Vec<GroundAtom>,
) {
    if i == rule.body.len() {
        out.push(GroundAtom {
            pred: rule.head.pred,
            args: rule
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => *subst.get(v).expect("safe rule"),
                })
                .collect(),
        });
        return;
    }
    let pattern = &rule.body[i];
    for atom in cache {
        if atom.pred != pattern.pred {
            continue;
        }
        let saved: Vec<(u32, Option<crate::ast::Const>)> = pattern
            .variables()
            .into_iter()
            .map(|v| (v, subst.get(&v).copied()))
            .collect();
        let mut ok = true;
        for (t, c) in pattern.terms.iter().zip(&atom.args) {
            match t {
                Term::Const(k) => {
                    if k != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match subst.get(v) {
                    Some(bound) if bound != c => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        subst.insert(*v, *c);
                    }
                },
            }
        }
        if ok {
            enumerate_instances(rule, i + 1, subst, cache, out);
        }
        for (v, old) in saved {
            match old {
                Some(c) => {
                    subst.insert(v, c);
                }
                None => {
                    subst.remove(&v);
                }
            }
        }
    }
}

/// The smallest `k` with `Prog ⊢ₖ g`, searching `1..=max_k`; `None` if not
/// provable within `max_k`.
pub fn smallest_cache(program: &Program, goal: &GroundAtom, max_k: usize) -> Option<usize> {
    (1..=max_k).find(|&k| prove_with_cache(program, goal, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Const, PredId, Program};

    /// Chain: base(v0); step(vᵢ) :- step(vᵢ₋₁)-ish via next facts.
    fn chain(n: u32) -> (Program, GroundAtom) {
        let mut p = Program::new();
        let next = p.predicate("next", 2);
        let reach = p.predicate("reach", 1);
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("v{i}"))).collect();
        for w in consts.windows(2) {
            p.fact(next, vec![w[0], w[1]]).unwrap();
        }
        p.fact(reach, vec![consts[0]]).unwrap();
        p.rule(
            Atom::new(reach, vec![Term::Var(1)]),
            vec![
                Atom::new(reach, vec![Term::Var(0)]),
                Atom::new(next, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let goal = GroundAtom::new(reach, vec![*consts.last().unwrap()]);
        (p, goal)
    }

    #[test]
    fn schedule_proves_goal_with_small_cache() {
        let (p, goal) = chain(6);
        let sched = cache_schedule(&p, &goal).expect("derivable");
        // Along a chain, two reach atoms + one next fact suffice at a time;
        // the schedule should stay well below the full model size.
        assert!(sched.peak <= 4, "peak = {}", sched.peak);
        assert!(verify_schedule(&p, &goal, &sched, sched.peak));
        assert!(!verify_schedule(&p, &goal, &sched, sched.peak - 1));
    }

    #[test]
    fn occupancy_tracks_schedule() {
        let (p, goal) = chain(6);
        let sched = cache_schedule(&p, &goal).expect("derivable");
        assert_eq!(sched.steps.len(), sched.occupancy.len());
        assert_eq!(
            sched.occupancy.iter().copied().max().unwrap_or(0),
            sched.peak
        );
        // Replay: Add bumps the running size, Drop decrements it.
        let mut n = 0usize;
        for (step, &occ) in sched.steps.iter().zip(&sched.occupancy) {
            match step {
                ScheduleStep::Add(_) => n += 1,
                ScheduleStep::Drop(_) => n -= 1,
            }
            assert_eq!(n, occ);
        }
    }

    #[test]
    fn schedule_none_for_underivable() {
        let (p, _) = chain(3);
        let bogus = GroundAtom::new(PredId(1), vec![Const(999)]);
        assert!(cache_schedule(&p, &bogus).is_none());
    }

    #[test]
    fn exact_cache_search_small() {
        let (p, goal) = chain(3);
        // Needs at least: reach(v0), next fact, derived reach — the exact
        // threshold is found by search and the schedule peak bounds it.
        let sched = cache_schedule(&p, &goal).unwrap();
        let k_min = smallest_cache(&p, &goal, sched.peak + 1).expect("provable");
        assert!(k_min <= sched.peak);
        assert!(!prove_with_cache(&p, &goal, k_min - 1));
        assert!(prove_with_cache(&p, &goal, k_min));
    }

    #[test]
    fn cache_one_proves_single_fact() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        let goal = GroundAtom::new(q, vec![a]);
        assert!(prove_with_cache(&p, &goal, 1));
    }

    #[test]
    fn drops_are_needed_when_cache_tight() {
        // Two independent facts feed the goal rule: g :- f1, f2 requires
        // all three atoms at once at the final step, but the chain of
        // intermediate a → b does not persist: with k = 3 the search must
        // drop intermediates.
        let mut p = Program::new();
        let f1 = p.predicate("f1", 0);
        let f2 = p.predicate("f2", 0);
        let mid = p.predicate("mid", 0);
        let g = p.predicate("g", 0);
        p.fact(f1, vec![]).unwrap();
        p.rule(Atom::new(mid, vec![]), vec![Atom::new(f1, vec![])])
            .unwrap();
        p.rule(Atom::new(f2, vec![]), vec![Atom::new(mid, vec![])])
            .unwrap();
        p.rule(
            Atom::new(g, vec![]),
            vec![Atom::new(f1, vec![]), Atom::new(f2, vec![])],
        )
        .unwrap();
        let goal = GroundAtom::new(g, vec![]);
        // Full model holds 4 atoms, but k = 3 suffices by dropping mid.
        assert!(prove_with_cache(&p, &goal, 3));
        assert!(!prove_with_cache(&p, &goal, 2));
    }

    use crate::ast::Term;
}
