//! The reference evaluator: unindexed semi-naive evaluation.
//!
//! This is the pre-rewrite evaluation engine, kept verbatim as a simple,
//! obviously-correct oracle. The optimized [`Evaluator`](crate::eval::Evaluator)
//! is pinned against it by the `eval-agree` fuzz oracle and the before/after
//! benchmarks: joins scan the whole per-predicate bucket, every derived
//! atom is cloned into a `HashMap`, and provenance is always recorded.
//! It should never be used on a hot path.

use crate::ast::{Atom, Const, GroundAtom, PredId, Program, Rule, Term};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Counter, Recorder};
use std::collections::{HashMap, VecDeque};

/// The set of derived ground atoms, with one recorded derivation each.
#[derive(Debug, Clone, Default)]
pub struct NaiveDatabase {
    /// Atom → its index in `atoms`.
    index: HashMap<GroundAtom, usize>,
    /// All derived atoms in derivation order.
    atoms: Vec<GroundAtom>,
    /// For each atom: the rule index and the database indices of the body
    /// atoms used to derive it first.
    derivations: Vec<(usize, Vec<usize>)>,
    /// Per-predicate index into `atoms`.
    by_pred: HashMap<PredId, Vec<usize>>,
    /// Set when the governor stopped evaluation before the fixpoint.
    interrupted: Option<InterruptReason>,
}

impl NaiveDatabase {
    /// Whether `g` was derived.
    pub fn contains(&self, g: &GroundAtom) -> bool {
        self.index.contains_key(g)
    }

    /// Number of derived atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether nothing was derived.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The derived atoms in derivation order.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }

    /// Why the governor stopped evaluation early, if it did. A `Some`
    /// database may be missing derivable atoms.
    pub fn interrupted(&self) -> Option<InterruptReason> {
        self.interrupted
    }

    /// The recorded derivation of the atom at `idx`.
    pub fn derivation(&self, idx: usize) -> (usize, &[usize]) {
        let (r, ref body) = self.derivations[idx];
        (r, body)
    }

    fn insert(&mut self, g: GroundAtom, rule: usize, body: Vec<usize>) -> Option<usize> {
        if self.index.contains_key(&g) {
            return None;
        }
        let idx = self.atoms.len();
        self.index.insert(g.clone(), idx);
        self.by_pred.entry(g.pred).or_default().push(idx);
        self.atoms.push(g);
        self.derivations.push((rule, body));
        Some(idx)
    }
}

/// How many delta-queue pops the naive evaluator processes between
/// governor checks (it is unindexed, so even one pop can be slow — this
/// keeps check overhead negligible while still bounding the lag).
pub const GOV_CHECK_EVERY: u32 = 256;

/// A variable substitution during rule matching.
type Subst = HashMap<u32, Const>;

fn match_atom(pattern: &Atom, ground: &GroundAtom, subst: &mut Subst) -> bool {
    if pattern.pred != ground.pred || pattern.terms.len() != ground.args.len() {
        return false;
    }
    let mut added: Vec<u32> = Vec::new();
    for (t, c) in pattern.terms.iter().zip(&ground.args) {
        let ok = match t {
            Term::Const(k) => k == c,
            Term::Var(v) => match subst.get(v) {
                Some(bound) => bound == c,
                None => {
                    subst.insert(*v, *c);
                    added.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in added {
                subst.remove(&v);
            }
            return false;
        }
    }
    true
}

fn instantiate(head: &Atom, subst: &Subst) -> GroundAtom {
    GroundAtom {
        pred: head.pred,
        args: head
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => *subst.get(v).expect("safe rule: head var bound"),
            })
            .collect(),
    }
}

/// The reference bottom-up evaluator.
///
/// # Example
///
/// ```
/// use parra_datalog::naive::NaiveEvaluator;
/// use parra_datalog::parser::{parse_ground_atom, parse_program};
///
/// let mut prog = parse_program(
///     "edge(a, b). edge(b, c).
///      path(X, Y) :- edge(X, Y).
///      path(X, Z) :- path(X, Y), edge(Y, Z).",
/// )?;
/// let goal = parse_ground_atom(&mut prog, "path(a, c)")?;
/// assert!(NaiveEvaluator::new(&prog).query(&goal));
/// # Ok::<(), parra_datalog::parser::ParseError>(())
/// ```
#[derive(Debug)]
pub struct NaiveEvaluator<'p> {
    program: &'p Program,
    rec: Recorder,
    gov: ResourceBudget,
}

impl<'p> NaiveEvaluator<'p> {
    /// Creates a reference evaluator for `program`.
    pub fn new(program: &'p Program) -> NaiveEvaluator<'p> {
        NaiveEvaluator {
            program,
            rec: Recorder::disabled(),
            gov: ResourceBudget::unlimited(),
        }
    }

    /// The same evaluator reporting metrics through `rec`, under the same
    /// names as the optimized [`Evaluator`](crate::eval::Evaluator) —
    /// `rules_fired`, `join_attempts`, `atoms/{pred}` and
    /// `eval_interrupted_{reason}` — so both engines line up in reports.
    /// (The optimized engine additionally reports index counters this
    /// engine has no analogue for: `index_builds`, `index_hits`,
    /// `arena_atoms`, `arena_bytes`.)
    pub fn with_recorder(mut self, rec: Recorder) -> NaiveEvaluator<'p> {
        self.rec = rec;
        self
    }

    /// The same evaluator governed by `gov`, checked every
    /// [`GOV_CHECK_EVERY`] delta atoms (this engine has no natural round
    /// boundary). An exhausted budget marks the returned database
    /// [`NaiveDatabase::interrupted`].
    pub fn with_governor(mut self, gov: ResourceBudget) -> NaiveEvaluator<'p> {
        self.gov = gov;
        self
    }

    /// Computes the least model, stopping early if `stop_at` is derived.
    pub fn run_until(&self, stop_at: Option<&GroundAtom>) -> NaiveDatabase {
        let db = self.run_until_inner(stop_at);
        if self.rec.is_enabled() {
            for p in self.program.predicates() {
                let n = db.by_pred.get(&p).map_or(0, Vec::len) as u64;
                if n > 0 {
                    self.rec
                        .counter(&format!("atoms/{}", self.program.pred_name(p)))
                        .add(n);
                }
            }
        }
        db
    }

    fn run_until_inner(&self, stop_at: Option<&GroundAtom>) -> NaiveDatabase {
        let fired = self.rec.counter("rules_fired");
        let joins = self.rec.counter("join_attempts");
        let mut db = NaiveDatabase::default();
        let mut queue: VecDeque<usize> = VecDeque::new();

        // Facts.
        for (ri, rule) in self.program.rules().iter().enumerate() {
            if rule.is_fact() {
                let g = rule.head.to_ground();
                if let Some(idx) = db.insert(g, ri, Vec::new()) {
                    fired.incr();
                    queue.push_back(idx);
                }
            }
        }
        if let Some(goal) = stop_at {
            if db.contains(goal) {
                return db;
            }
        }

        // Index rules by the predicates occurring in their bodies.
        let mut by_body_pred: HashMap<PredId, Vec<(usize, usize)>> = HashMap::new();
        for (ri, rule) in self.program.rules().iter().enumerate() {
            for (bi, atom) in rule.body.iter().enumerate() {
                by_body_pred.entry(atom.pred).or_default().push((ri, bi));
            }
        }

        // Semi-naive: each new atom is matched as the "delta" occurrence.
        // The governor is checked up-front (so an already-exhausted budget
        // interrupts even the smallest program) and then periodically.
        if let Err(reason) = self.gov.check() {
            self.note_interrupt(reason);
            db.interrupted = Some(reason);
            return db;
        }
        let mut pops: u32 = 0;
        while let Some(new_idx) = queue.pop_front() {
            pops = pops.wrapping_add(1);
            if pops.is_multiple_of(GOV_CHECK_EVERY) {
                if let Err(reason) = self.gov.check() {
                    self.note_interrupt(reason);
                    db.interrupted = Some(reason);
                    return db;
                }
                // This engine is sequential, so pop order — and hence this
                // event stream — is deterministic by construction.
                if self.rec.is_enabled() {
                    self.rec.event_with(
                        "round",
                        &[
                            ("round", u64::from(pops / GOV_CHECK_EVERY - 1).into()),
                            ("delta", queue.len().into()),
                            ("atoms", db.len().into()),
                        ],
                        &self.gov.headroom().volatile_fields(),
                    );
                }
            }
            let new_atom = db.atoms[new_idx].clone();
            let Some(uses) = by_body_pred.get(&new_atom.pred) else {
                continue;
            };
            for &(ri, bi) in uses.clone().iter() {
                let rule = &self.program.rules()[ri];
                let mut subst = Subst::new();
                joins.incr();
                if !match_atom(&rule.body[bi], &new_atom, &mut subst) {
                    continue;
                }
                let mut used = vec![0usize; rule.body.len()];
                used[bi] = new_idx;
                if self.join_rest(
                    rule, ri, bi, 0, &mut subst, &mut used, &mut db, &mut queue, &fired,
                ) && stop_at.map(|g| db.contains(g)).unwrap_or(false)
                {
                    return db;
                }
            }
            if let Some(goal) = stop_at {
                if db.contains(goal) {
                    return db;
                }
            }
        }
        db
    }

    /// Computes the full least model.
    pub fn run(&self) -> NaiveDatabase {
        self.run_until(None)
    }

    /// `Prog ⊢ g`: query evaluation with early exit.
    pub fn query(&self, goal: &GroundAtom) -> bool {
        self.run_until(Some(goal)).contains(goal)
    }

    fn note_interrupt(&self, reason: InterruptReason) {
        self.rec
            .counter(&format!("eval_interrupted_{}", reason.as_str()))
            .incr();
    }

    /// Joins the remaining body atoms (all but `skip`) against the
    /// database; returns true if anything was inserted.
    #[allow(clippy::too_many_arguments)]
    fn join_rest(
        &self,
        rule: &Rule,
        ri: usize,
        skip: usize,
        from: usize,
        subst: &mut Subst,
        used: &mut Vec<usize>,
        db: &mut NaiveDatabase,
        queue: &mut VecDeque<usize>,
        fired: &Counter,
    ) -> bool {
        let mut next = from;
        if next == skip {
            next += 1;
        }
        if next >= rule.body.len() {
            let g = instantiate(&rule.head, subst);
            if let Some(idx) = db.insert(g, ri, used.clone()) {
                fired.incr();
                queue.push_back(idx);
                return true;
            }
            return false;
        }
        let pattern = &rule.body[next];
        // Snapshot of the per-predicate candidates: atoms added during
        // this join are matched later via their own delta turn.
        let candidates: Vec<usize> = db.by_pred.get(&pattern.pred).cloned().unwrap_or_default();
        let mut inserted = false;
        for idx in candidates {
            let ground = db.atoms[idx].clone();
            let before: Vec<(u32, Option<Const>)> = pattern
                .variables()
                .into_iter()
                .map(|v| (v, subst.get(&v).copied()))
                .collect();
            if match_atom(pattern, &ground, subst) {
                used[next] = idx;
                if self.join_rest(rule, ri, skip, next + 1, subst, used, db, queue, fired) {
                    inserted = true;
                }
            }
            // Restore bindings introduced by this match.
            for (v, old) in before {
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
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_program() -> (Program, PredId, Vec<Const>) {
        let mut p = Program::new();
        let edge = p.predicate("edge", 2);
        let path = p.predicate("path", 2);
        let names = ["a", "b", "c", "d"];
        let consts: Vec<Const> = names.iter().map(|n| p.constant(n)).collect();
        for w in consts.windows(2) {
            p.fact(edge, vec![w[0], w[1]]).unwrap();
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(edge, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(edge, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        (p, path, consts)
    }

    #[test]
    fn transitive_closure() {
        let (p, path, c) = tc_program();
        let db = NaiveEvaluator::new(&p).run();
        let n_paths = db.atoms().iter().filter(|a| a.pred == path).count();
        assert_eq!(n_paths, 6);
        assert!(db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
        assert!(!db.contains(&GroundAtom::new(path, vec![c[3], c[0]])));
    }

    #[test]
    fn query_early_exit() {
        let (p, path, c) = tc_program();
        let goal = GroundAtom::new(path, vec![c[0], c[1]]);
        assert!(NaiveEvaluator::new(&p).query(&goal));
        let bad = GroundAtom::new(path, vec![c[1], c[0]]);
        assert!(!NaiveEvaluator::new(&p).query(&bad));
    }

    #[test]
    fn exhausted_deadline_interrupts_before_fixpoint() {
        let (p, path, c) = tc_program();
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let db = NaiveEvaluator::new(&p).with_governor(gov).run();
        assert_eq!(db.interrupted(), Some(InterruptReason::Deadline));
        // The transitive closure was not reached: no non-fact paths.
        assert!(!db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
    }

    #[test]
    fn generous_budget_reaches_same_fixpoint() {
        let (p, path, c) = tc_program();
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
        let base = NaiveEvaluator::new(&p).run();
        let governed = NaiveEvaluator::new(&p).with_governor(gov).run();
        assert_eq!(governed.interrupted(), None);
        assert_eq!(governed.len(), base.len());
        assert!(governed.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
    }

    #[test]
    fn metric_names_match_the_optimized_evaluator() {
        use crate::eval::Evaluator;
        use parra_obs::Level;

        let (p, _path, _c) = tc_program();
        let naive_rec = Recorder::enabled(Level::Summary);
        let eval_rec = Recorder::enabled(Level::Summary);
        NaiveEvaluator::new(&p)
            .with_recorder(naive_rec.clone())
            .run();
        Evaluator::new(&p).with_recorder(eval_rec.clone()).run();

        let ns = naive_rec.snapshot();
        let es = eval_rec.snapshot();
        // Every counter the naive engine reports exists under the same
        // name in the optimized engine's snapshot.
        for name in ns.counters.keys() {
            assert!(es.counters.contains_key(name), "eval missing {name}");
        }
        // The optimized engine's extras are exactly its index/arena
        // machinery, which the naive engine has no analogue for.
        // (`phase/*` counters are the PhaseTimer's — reports pull them
        // out as phase attributions, not evaluation metrics.)
        let extras: Vec<&str> = es
            .counters
            .keys()
            .filter(|n| !ns.counters.contains_key(*n) && !n.starts_with("phase/"))
            .map(String::as_str)
            .collect();
        assert_eq!(extras, vec!["index_builds", "index_hits"]);
        // Both engines define "fired" as a successful insert, so the
        // values agree exactly — as do the per-predicate atom counts,
        // since both reach the same fixpoint.
        assert_eq!(ns.counters["rules_fired"], es.counters["rules_fired"]);
        assert_eq!(ns.counters["atoms/path"], es.counters["atoms/path"]);
        assert_eq!(ns.counters["atoms/edge"], es.counters["atoms/edge"]);
        assert!(ns.counters["join_attempts"] > 0);
        assert!(es.counters["join_attempts"] > 0);
    }

    #[test]
    fn interrupt_reason_counter_matches_eval_naming() {
        let (p, _path, _c) = tc_program();
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        NaiveEvaluator::new(&p)
            .with_recorder(rec.clone())
            .with_governor(gov)
            .run();
        assert_eq!(rec.snapshot().counters["eval_interrupted_deadline"], 1);
    }

    #[test]
    fn derivations_always_recorded() {
        let (p, path, c) = tc_program();
        let db = NaiveEvaluator::new(&p).run();
        let goal = GroundAtom::new(path, vec![c[0], c[3]]);
        let idx = db.atoms().iter().position(|a| *a == goal).expect("derived");
        let (_rule, body) = db.derivation(idx);
        assert!(!body.is_empty());
        let (_, fact_body) = db.derivation(0);
        assert!(fact_body.is_empty());
    }
}
