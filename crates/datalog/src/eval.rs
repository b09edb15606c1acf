//! Indexed semi-naive bottom-up evaluation over an interned tuple arena.
//!
//! Computes the least model of a positive Datalog program. The evaluation
//! substrate is built for speed:
//!
//! * **Tuple arena** ([`arena::TupleStore`](crate::arena::TupleStore)) —
//!   every derived ground tuple is interned once and handled by a `Copy`
//!   [`AtomId`]; no `GroundAtom` is cloned on the insert path.
//! * **Column-keyed join indices** — each rule body is solved following a
//!   static [`Plan`]; partially bound probes go through
//!   a hash index keyed on the bound columns, built lazily per
//!   (predicate, bound-column-set) and caught up incrementally from the
//!   semi-naive deltas at the start of every round.
//! * **Optional provenance** — derivation recording is a mode flag
//!   ([`Evaluator::with_provenance`]); witness extraction
//!   ([`cache::schedule_from_database`](crate::cache::schedule_from_database))
//!   needs it, plain queries do not pay for it.
//! * **Parallel delta batches** — each round's delta is expanded by
//!   `parra-search`'s [`ordered_map`](parra_search::ordered_map) and merged sequentially in delta
//!   order, so the resulting database (and every statistic derived from
//!   it) is byte-identical for every thread count
//!   ([`Evaluator::with_threads`]).
//!
//! The pre-rewrite engine survives as [`naive`](crate::naive) and pins
//! this one differentially (the `eval-agree` fuzz oracle).

use crate::arena::{hash_key, AtomId, TupleStore};
use crate::ast::{Const, GroundAtom, PredId, Program, Rule, Term};
use crate::plan::{DeltaPlan, Plan, NO_SLOT};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Counter, Phase, PhaseTimer, Recorder};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Hasher for keys that are already well-mixed 64-bit hashes (the FNV
/// digests produced by [`hash_key`]): a single multiply-xor finisher
/// instead of SipHash. Probes are the evaluator's innermost loop.
#[derive(Default)]
pub struct PrehashedU64(u64);

impl Hasher for PrehashedU64 {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedU64 only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // splitmix64-style finisher: cheap, and spreads FNV's
        // low-entropy high bits into the low bits HashMap uses.
        let mut z = n.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        self.0 = z;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PrehashedU64>>;

/// A hash index over one predicate keyed by a set of bound columns.
/// Indices exist one per plan *slot* (see [`Plan::indices`]) and are
/// addressed by slot id — no hash lookup decides which index a probe
/// uses.
#[derive(Debug, Clone)]
struct ColumnIndex {
    /// The indexed predicate.
    pred: PredId,
    /// The key columns, ascending.
    cols: Vec<u8>,
    /// Key hash → matching tuples, in insertion order. Hash collisions are
    /// harmless: every candidate is re-verified against the pattern.
    map: PrehashedMap<Vec<AtomId>>,
    /// How many tuples of the predicate have been indexed (prefix of the
    /// per-predicate list); the catch-up cursor.
    upto: usize,
}

/// The set of derived ground atoms: an interned arena, per-predicate
/// lists, lazily built join indices, and (optionally) one recorded
/// derivation per atom.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The tuple arena. [`AtomId`]s double as derivation-order indices.
    store: TupleStore,
    /// Tuples of each predicate in derivation order.
    per_pred: Vec<Vec<AtomId>>,
    /// For each atom, the rule index and the database indices of the body
    /// atoms used to derive it first. `None` when evaluation ran without
    /// provenance.
    derivations: Option<Vec<(usize, Vec<usize>)>>,
    /// Join indices in plan-slot order (see [`Plan::indices`]).
    indices: Vec<ColumnIndex>,
    /// Set when the resource governor stopped evaluation before the least
    /// model (or the goal) was reached; the database is a sound but
    /// possibly incomplete under-approximation.
    interrupted: Option<InterruptReason>,
}

impl Database {
    fn new(n_preds: usize, provenance: bool, plan: &Plan) -> Database {
        Database {
            store: TupleStore::new(),
            per_pred: vec![Vec::new(); n_preds],
            derivations: provenance.then(Vec::new),
            indices: plan
                .indices()
                .iter()
                .map(|spec| ColumnIndex {
                    pred: spec.pred,
                    cols: spec.cols.clone(),
                    map: PrehashedMap::default(),
                    upto: 0,
                })
                .collect(),
            interrupted: None,
        }
    }

    /// Why the governor stopped evaluation early, if it did. A `Some`
    /// database may be missing derivable atoms: "goal not derived" is then
    /// inconclusive, not a refutation.
    pub fn interrupted(&self) -> Option<InterruptReason> {
        self.interrupted
    }

    /// Whether `g` was derived.
    pub fn contains(&self, g: &GroundAtom) -> bool {
        self.store.lookup(g.pred, &g.args).is_some()
    }

    /// Number of derived atoms.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing was derived.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The database index of `g`, if derived. Indices are derivation
    /// order: index `i` is the `i`-th derived atom.
    pub fn index_of(&self, g: &GroundAtom) -> Option<usize> {
        self.store.lookup(g.pred, &g.args).map(AtomId::index)
    }

    /// Materializes the atom at `idx` (cold paths: witnesses, display).
    pub fn ground(&self, idx: usize) -> GroundAtom {
        self.store.ground(AtomId(idx as u32))
    }

    /// The predicate of the atom at `idx`.
    pub fn pred_of(&self, idx: usize) -> PredId {
        self.store.pred(AtomId(idx as u32))
    }

    /// All derived atoms in derivation order, materialized.
    pub fn iter(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        (0..self.len()).map(|i| self.ground(i))
    }

    /// The atoms of a predicate, in derivation order.
    pub fn of_pred(&self, p: PredId) -> impl Iterator<Item = AtomId> + '_ {
        self.per_pred
            .get(p.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Whether derivations were recorded (see
    /// [`Evaluator::with_provenance`]).
    pub fn has_provenance(&self) -> bool {
        self.derivations.is_some()
    }

    /// The recorded derivation of the atom at `idx`: the rule index and
    /// the database indices of the body atoms used.
    ///
    /// # Panics
    ///
    /// Panics if evaluation ran without provenance.
    pub fn derivation(&self, idx: usize) -> (usize, &[usize]) {
        let derivations = self
            .derivations
            .as_ref()
            .expect("derivations requested from a provenance-free evaluation");
        let (r, ref body) = derivations[idx];
        (r, body)
    }

    /// The underlying tuple arena.
    pub fn arena(&self) -> &TupleStore {
        &self.store
    }

    fn insert(
        &mut self,
        pred: PredId,
        args: &[Const],
        rule: usize,
        body: Vec<usize>,
    ) -> Option<AtomId> {
        let (id, fresh) = self.store.intern(pred, args);
        if !fresh {
            return None;
        }
        self.per_pred[pred.0 as usize].push(id);
        if let Some(d) = self.derivations.as_mut() {
            d.push((rule, body));
        }
        Some(id)
    }

    /// Catches every index up with its predicate's tuple list; returns the
    /// number of indices materialized for the first time (they saw their
    /// first tuples).
    fn catch_up_indices(&mut self) -> u64 {
        let store = &self.store;
        let mut built = 0u64;
        let mut key: Vec<Const> = Vec::new();
        for ix in &mut self.indices {
            let list = &self.per_pred[ix.pred.0 as usize];
            if ix.upto == list.len() {
                continue;
            }
            if ix.upto == 0 {
                built += 1;
            }
            for &id in &list[ix.upto..] {
                key.clear();
                let args = store.args(id);
                for &c in &ix.cols {
                    key.push(args[c as usize]);
                }
                ix.map.entry(hash_key(&key)).or_default().push(id);
            }
            ix.upto = list.len();
        }
        built
    }

    /// The candidates of an index probe (empty if the key has no tuples).
    #[inline]
    fn probe(&self, slot: u32, key_hash: u64) -> &[AtomId] {
        self.indices[slot as usize]
            .map
            .get(&key_hash)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// A head tuple produced by a worker, merged sequentially.
struct Derived {
    rule: usize,
    pred: PredId,
    args: Vec<Const>,
    /// Body atom indices in body order (empty when provenance is off).
    body: Vec<usize>,
}

/// The evaluator's hot-loop counters (near-no-ops when the recorder is
/// disabled).
struct Counters {
    fired: Counter,
    joins: Counter,
    index_builds: Counter,
    index_hits: Counter,
}

/// Per-worker scratch for one delta item's rule firings. Kept in a
/// thread-local so the `makeP` fleet (thousands of delta items across
/// many small programs) allocates it once per worker thread, not once
/// per delta item.
#[derive(Default)]
struct JoinScratch {
    /// Variable bindings, indexed by variable id.
    subst: Vec<Option<Const>>,
    /// Bound-variable trail for backtracking.
    trail: Vec<u32>,
    /// The body atom (database index) matched at each body position.
    used: Vec<usize>,
    /// Instantiation buffer for keys, membership tests, and heads.
    buf: Vec<Const>,
}

thread_local! {
    /// The trail fully unwinds after every use, so `subst` is all-`None`
    /// between delta items and the scratch can be shared across programs
    /// (growing `subst` as larger plans come along).
    static SCRATCH: std::cell::RefCell<JoinScratch> =
        std::cell::RefCell::new(JoinScratch::default());
}

/// Bottom-up evaluator.
///
/// # Example
///
/// ```
/// use parra_datalog::eval::Evaluator;
/// use parra_datalog::parser::{parse_ground_atom, parse_program};
///
/// let mut prog = parse_program(
///     "edge(a, b). edge(b, c).
///      path(X, Y) :- edge(X, Y).
///      path(X, Z) :- path(X, Y), edge(Y, Z).",
/// )?;
/// let goal = parse_ground_atom(&mut prog, "path(a, c)")?;
/// assert!(Evaluator::new(&prog).query(&goal));
/// # Ok::<(), parra_datalog::parser::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p Program,
    plan: Arc<Plan>,
    rec: Recorder,
    events: bool,
    provenance: bool,
    threads: usize,
    gov: ResourceBudget,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator for `program`. The join plan is computed here,
    /// once; provenance is off and evaluation is sequential by default.
    pub fn new(program: &'p Program) -> Evaluator<'p> {
        Evaluator::with_plan(program, Arc::new(Plan::new(program)))
    }

    /// Creates an evaluator reusing a precomputed plan — typically from a
    /// [`PlanCache`](crate::plan::PlanCache), which shares one plan across
    /// a whole guess fleet.
    ///
    /// `plan` must have been computed for a program with an identical rule
    /// list (the cache guarantees this); plans reference rules by index
    /// and body positions, so a mismatched plan derives wrong models.
    pub fn with_plan(program: &'p Program, plan: Arc<Plan>) -> Evaluator<'p> {
        Evaluator {
            program,
            plan,
            rec: Recorder::disabled(),
            events: false,
            provenance: false,
            threads: 1,
            gov: ResourceBudget::unlimited(),
        }
    }

    /// The same evaluator reporting metrics through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Evaluator<'p> {
        self.rec = rec;
        self
    }

    /// Turns per-round flight-recorder events on (off by default).
    ///
    /// Callers must only enable this for evaluations whose schedule is
    /// deterministic across thread counts — e.g. a single-guess run, or
    /// the sequential reference evaluator. A multi-guess fleet races its
    /// workers, so the set of evaluated guesses (and hence their rounds)
    /// is thread-count-dependent and would break the event-log contract.
    pub fn with_events(mut self, on: bool) -> Evaluator<'p> {
        self.events = on;
        self
    }

    /// Turns derivation recording on or off (off by default). Witness and
    /// cache-schedule extraction need it; queries run faster without.
    pub fn with_provenance(mut self, on: bool) -> Evaluator<'p> {
        self.provenance = on;
        self
    }

    /// Expands each semi-naive round's delta with `threads` workers. The
    /// database is identical for every value: workers only produce
    /// candidate tuples, and a sequential merge walking the delta in order
    /// makes every insertion decision. `1` (the default) never spawns.
    pub fn with_threads(mut self, threads: usize) -> Evaluator<'p> {
        self.threads = threads.max(1);
        self
    }

    /// The same evaluator governed by `gov`, checked once per semi-naive
    /// round. An exhausted budget stops evaluation at the round boundary
    /// and marks the returned database [`Database::interrupted`]; a run
    /// that completes is identical to an ungoverned run.
    pub fn with_governor(mut self, gov: ResourceBudget) -> Evaluator<'p> {
        self.gov = gov;
        self
    }

    /// Computes the least model, stopping early if `stop_at` is derived.
    pub fn run_until(&self, stop_at: Option<&GroundAtom>) -> Database {
        let db = self.run_until_inner(stop_at);
        if self.rec.is_enabled() {
            // Per-predicate atom counts, keyed by predicate name so traces
            // across guesses aggregate.
            for p in self.program.predicates() {
                let n = db.of_pred(p).count() as u64;
                if n > 0 {
                    self.rec
                        .counter(&format!("atoms/{}", self.program.pred_name(p)))
                        .add(n);
                }
            }
            self.rec.gauge("arena_atoms").set(db.store.len() as u64);
            self.rec
                .gauge("arena_bytes")
                .set(db.store.heap_bytes() as u64);
        }
        db
    }

    fn run_until_inner(&self, stop_at: Option<&GroundAtom>) -> Database {
        let counters = Counters {
            fired: self.rec.counter("rules_fired"),
            joins: self.rec.counter("join_attempts"),
            index_builds: self.rec.counter("index_builds"),
            index_hits: self.rec.counter("index_hits"),
        };
        let n_preds = self.program.predicates().count();
        let mut db = Database::new(n_preds, self.provenance, &self.plan);

        // Facts are the first delta.
        let mut delta: Vec<AtomId> = Vec::new();
        for (ri, rule) in self.program.rules().iter().enumerate() {
            if rule.is_fact() {
                let g = rule.head.to_ground();
                if let Some(id) = db.insert(g.pred, &g.args, ri, Vec::new()) {
                    counters.fired.incr();
                    delta.push(id);
                }
            }
        }
        if let Some(goal) = stop_at {
            if db.contains(goal) {
                return db;
            }
        }

        // Round-based semi-naive: expand the delta (in parallel), merge the
        // candidate tuples sequentially in delta order. Indices catch up
        // with the previous round's insertions first, so the workers only
        // ever read them. The (body predicate → rule occurrence) table
        // driving the expansion lives in the plan ([`Plan::uses`]).
        let phases = PhaseTimer::new(&self.rec);
        let mut round: u64 = 0;
        while !delta.is_empty() {
            if let Err(reason) = self.gov.check() {
                self.rec
                    .counter(&format!("eval_interrupted_{}", reason.as_str()))
                    .incr();
                db.interrupted = Some(reason);
                return db;
            }
            let t0 = phases.is_enabled().then(Instant::now);
            counters.index_builds.add(db.catch_up_indices());
            if let Some(t0) = t0 {
                phases.add_us(Phase::IndexBuild, t0.elapsed().as_micros() as u64);
            }
            let t0 = phases.is_enabled().then(Instant::now);
            let batches: Vec<Vec<Derived>> =
                parra_search::ordered_map(self.threads.min(delta.len()), &delta, |_w, _i, &d| {
                    self.derive_from(&db, d, &counters)
                });
            let mut next_delta = Vec::new();
            let mut goal_hit = false;
            for derived in batches.into_iter().flatten() {
                let hit = stop_at
                    .map(|g| g.pred == derived.pred && g.args[..] == derived.args[..])
                    .unwrap_or(false);
                if let Some(id) = db.insert(derived.pred, &derived.args, derived.rule, derived.body)
                {
                    counters.fired.incr();
                    next_delta.push(id);
                    if hit {
                        goal_hit = true;
                        break;
                    }
                }
            }
            if let Some(t0) = t0 {
                phases.add_us(Phase::Fixpoint, t0.elapsed().as_micros() as u64);
            }
            if self.events && self.rec.is_enabled() {
                self.rec.event_with(
                    "round",
                    &[
                        ("round", round.into()),
                        ("delta", delta.len().into()),
                        ("derived", next_delta.len().into()),
                        ("atoms", db.store.len().into()),
                    ],
                    &self.gov.headroom().volatile_fields(),
                );
            }
            if goal_hit {
                return db;
            }
            round += 1;
            delta = next_delta;
        }
        db
    }

    /// Computes the full least model.
    pub fn run(&self) -> Database {
        self.run_until(None)
    }

    /// `Prog ⊢ g`: query evaluation with early exit.
    pub fn query(&self, goal: &GroundAtom) -> bool {
        self.run_until(Some(goal)).contains(goal)
    }

    /// All rule firings in which the delta atom `d` participates (at every
    /// body position of its predicate). Read-only over `db`.
    fn derive_from(&self, db: &Database, d: AtomId, counters: &Counters) -> Vec<Derived> {
        let pred = db.store.pred(d);
        let uses = self.plan.uses(pred);
        let mut out = Vec::new();
        if uses.is_empty() {
            return out;
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // The trail fully unwinds between uses, so `subst` only ever
            // needs growing, never clearing.
            if scratch.subst.len() < self.plan.max_vars() {
                scratch.subst.resize(self.plan.max_vars(), None);
            }
            'uses: for &(ri, bi) in uses {
                let (ri, bi) = (ri as usize, bi as usize);
                let rule = &self.program.rules()[ri];
                let plans = self.plan.rule(ri);
                // A rule with an empty body relation cannot fire: skip it
                // before any matching work.
                for p in &plans.body_preds {
                    if db.per_pred[p.0 as usize].is_empty() {
                        continue 'uses;
                    }
                }
                scratch.used.clear();
                scratch.used.resize(rule.body.len(), 0);
                counters.joins.incr();
                if self.match_pattern(db, &rule.body[bi], d, scratch) {
                    scratch.used[bi] = d.index();
                    let body = self.plan.body_plan(plans.body_plan);
                    let dp = &body.per_delta[bi];
                    let slots = &plans.slots[body.slot_offset(bi)..][..dp.steps.len()];
                    self.join_steps(db, rule, ri, dp, slots, 0, scratch, &mut out, counters);
                }
                unwind(scratch, 0);
            }
        });
        out
    }

    /// Matches `pattern` against the stored tuple `id`, extending the
    /// substitution (bindings land on the trail).
    fn match_pattern(
        &self,
        db: &Database,
        pattern: &crate::ast::Atom,
        id: AtomId,
        scratch: &mut JoinScratch,
    ) -> bool {
        if db.store.pred(id) != pattern.pred {
            return false;
        }
        let args = db.store.args(id);
        let mark = scratch.trail.len();
        for (t, c) in pattern.terms.iter().zip(args) {
            let ok = match t {
                Term::Const(k) => k == c,
                Term::Var(v) => match scratch.subst[*v as usize] {
                    Some(bound) => bound == *c,
                    None => {
                        scratch.subst[*v as usize] = Some(*c);
                        scratch.trail.push(*v);
                        true
                    }
                },
            };
            if !ok {
                unwind(scratch, mark);
                return false;
            }
        }
        true
    }

    /// Solves plan steps `si..`, emitting a head tuple per full match.
    #[allow(clippy::too_many_arguments)]
    fn join_steps(
        &self,
        db: &Database,
        rule: &Rule,
        ri: usize,
        dp: &DeltaPlan,
        slots: &[u32],
        si: usize,
        scratch: &mut JoinScratch,
        out: &mut Vec<Derived>,
        counters: &Counters,
    ) {
        if si == dp.steps.len() {
            scratch.buf.clear();
            for t in &rule.head.terms {
                scratch.buf.push(match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => scratch.subst[*v as usize].expect("safe rule: head var bound"),
                });
            }
            out.push(Derived {
                rule: ri,
                pred: rule.head.pred,
                args: scratch.buf.clone(),
                body: if self.provenance {
                    scratch.used.clone()
                } else {
                    Vec::new()
                },
            });
            return;
        }
        let step = &dp.steps[si];
        let pattern = &rule.body[step.pos];
        if step.fully_bound {
            // Membership test on the arena.
            scratch.buf.clear();
            for t in &pattern.terms {
                scratch.buf.push(match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => scratch.subst[*v as usize].expect("planner: bound"),
                });
            }
            counters.joins.incr();
            if let Some(id) = db.store.lookup(pattern.pred, &scratch.buf) {
                scratch.used[step.pos] = id.index();
                self.join_steps(db, rule, ri, dp, slots, si + 1, scratch, out, counters);
            }
            return;
        }
        // Candidate enumeration: an index probe on the bound columns when
        // possible, otherwise the full per-predicate list.
        let slot = slots[si];
        let candidates: &[AtomId] = if slot != NO_SLOT {
            scratch.buf.clear();
            for &c in &step.cols {
                scratch.buf.push(match &pattern.terms[c as usize] {
                    Term::Const(k) => *k,
                    Term::Var(v) => scratch.subst[*v as usize].expect("planner: bound col"),
                });
            }
            counters.index_hits.incr();
            db.probe(slot, hash_key(&scratch.buf))
        } else {
            &db.per_pred[pattern.pred.0 as usize]
        };
        for &id in candidates {
            counters.joins.incr();
            let mark = scratch.trail.len();
            if self.match_pattern(db, pattern, id, scratch) {
                scratch.used[step.pos] = id.index();
                self.join_steps(db, rule, ri, dp, slots, si + 1, scratch, out, counters);
                unwind(scratch, mark);
            }
        }
    }
}

/// Pops trail entries down to `mark`, unbinding their variables.
fn unwind(scratch: &mut JoinScratch, mark: usize) {
    while scratch.trail.len() > mark {
        let v = scratch.trail.pop().expect("trail len checked");
        scratch.subst[v as usize] = None;
    }
}

/// The set of ground atoms needed for `goal`'s recorded derivation — the
/// derivation DAG unwound from the goal. `None` if the goal was not
/// derived or the database has no provenance.
pub fn derivation_cone(db: &Database, goal: &GroundAtom) -> Option<HashSet<usize>> {
    if !db.has_provenance() {
        return None;
    }
    let root = db.index_of(goal)?;
    let mut cone = HashSet::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if cone.insert(i) {
            let (_, body) = db.derivation(i);
            stack.extend(body.iter().copied());
        }
    }
    Some(cone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term};
    use crate::naive::NaiveEvaluator;

    /// Transitive closure over a path a → b → c → d.
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
        let db = Evaluator::new(&p).run();
        // paths: all i < j pairs: 6.
        assert_eq!(db.of_pred(path).count(), 6);
        assert!(db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
        assert!(!db.contains(&GroundAtom::new(path, vec![c[3], c[0]])));
    }

    #[test]
    fn query_early_exit() {
        let (p, path, c) = tc_program();
        let goal = GroundAtom::new(path, vec![c[0], c[1]]);
        assert!(Evaluator::new(&p).query(&goal));
        let bad = GroundAtom::new(path, vec![c[1], c[0]]);
        assert!(!Evaluator::new(&p).query(&bad));
    }

    #[test]
    fn exhausted_deadline_interrupts_before_fixpoint() {
        let (p, path, c) = tc_program();
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let db = Evaluator::new(&p).with_governor(gov).run();
        assert_eq!(db.interrupted(), Some(InterruptReason::Deadline));
        // Only facts made it in before the first (checked) round.
        assert!(!db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
    }

    #[test]
    fn generous_budget_reaches_same_fixpoint() {
        let (p, path, c) = tc_program();
        let base = Evaluator::new(&p).run();
        for threads in [1, 4] {
            let gov =
                ResourceBudget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
            let governed = Evaluator::new(&p)
                .with_threads(threads)
                .with_governor(gov)
                .run();
            assert_eq!(governed.interrupted(), None, "threads {threads}");
            assert_eq!(governed.len(), base.len(), "threads {threads}");
            assert!(governed.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
        }
    }

    #[test]
    fn derivations_recorded_when_provenance_on() {
        let (p, path, c) = tc_program();
        let db = Evaluator::new(&p).with_provenance(true).run();
        assert!(db.has_provenance());
        let goal = GroundAtom::new(path, vec![c[0], c[3]]);
        let idx = db.index_of(&goal).unwrap();
        let (_rule, body) = db.derivation(idx);
        assert!(!body.is_empty());
        let cone = derivation_cone(&db, &goal).unwrap();
        assert!(cone.len() >= 4);
        // Facts have empty derivations.
        let (_, fact_body) = db.derivation(0);
        assert!(fact_body.is_empty());
    }

    #[test]
    fn provenance_off_by_default() {
        let (p, path, c) = tc_program();
        let db = Evaluator::new(&p).run();
        assert!(!db.has_provenance());
        assert!(derivation_cone(&db, &GroundAtom::new(path, vec![c[0], c[3]])).is_none());
    }

    /// Rule bodies with repeated variables filter correctly.
    #[test]
    fn repeated_variables_in_body() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let loopy = p.predicate("loopy", 1);
        let a = p.constant("a");
        let b = p.constant("b");
        p.fact(e, vec![a, a]).unwrap();
        p.fact(e, vec![a, b]).unwrap();
        p.rule(
            Atom::new(loopy, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(0)])],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert!(db.contains(&GroundAtom::new(loopy, vec![a])));
        assert!(!db.contains(&GroundAtom::new(loopy, vec![b])));
    }

    /// Three-atom bodies join correctly.
    #[test]
    fn triple_join() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let tri = p.predicate("tri", 3);
        let a = p.constant("a");
        let b = p.constant("b");
        let c = p.constant("c");
        p.fact(e, vec![a, b]).unwrap();
        p.fact(e, vec![b, c]).unwrap();
        p.fact(e, vec![c, a]).unwrap();
        p.rule(
            Atom::new(tri, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                Atom::new(e, vec![Term::Var(2), Term::Var(0)]),
            ],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert_eq!(db.of_pred(tri).count(), 3); // three rotations
    }

    /// Constants in rule bodies restrict matches.
    #[test]
    fn constants_in_body() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let from_a = p.predicate("from_a", 1);
        let a = p.constant("a");
        let b = p.constant("b");
        let c = p.constant("c");
        p.fact(e, vec![a, b]).unwrap();
        p.fact(e, vec![b, c]).unwrap();
        p.rule(
            Atom::new(from_a, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Const(a), Term::Var(0)])],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert!(db.contains(&GroundAtom::new(from_a, vec![b])));
        assert!(!db.contains(&GroundAtom::new(from_a, vec![c])));
    }

    /// The database is byte-identical for every thread count.
    #[test]
    fn threads_do_not_change_the_database() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let path = p.predicate("path", 2);
        let n = 12u32;
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("v{i}"))).collect();
        for i in 0..n as usize {
            for j in 0..n as usize {
                if (i + 2 * j) % 3 == 0 && i != j {
                    p.fact(e, vec![consts[i], consts[j]]).unwrap();
                }
            }
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        let base = Evaluator::new(&p).with_provenance(true).run();
        let base_atoms: Vec<GroundAtom> = base.iter().collect();
        for threads in [2, 4, 7] {
            let db = Evaluator::new(&p)
                .with_provenance(true)
                .with_threads(threads)
                .run();
            assert_eq!(db.len(), base.len(), "threads={threads}");
            let atoms: Vec<GroundAtom> = db.iter().collect();
            assert_eq!(atoms, base_atoms, "threads={threads}");
            for i in 0..db.len() {
                assert_eq!(db.derivation(i), base.derivation(i), "threads={threads}");
            }
        }
    }

    /// The optimized engine agrees with the naive reference on a model
    /// large enough to exercise indices and multiple rounds.
    #[test]
    fn agrees_with_naive_reference() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let path = p.predicate("path", 2);
        let meet = p.predicate("meet", 2);
        let n = 9u32;
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("u{i}"))).collect();
        for i in 0..n as usize {
            let j = (i * 5 + 1) % n as usize;
            if i != j {
                p.fact(e, vec![consts[i], consts[j]]).unwrap();
            }
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        p.rule(
            Atom::new(meet, vec![Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            ],
        )
        .unwrap();
        let fast = Evaluator::new(&p).run();
        let slow = NaiveEvaluator::new(&p).run();
        assert_eq!(fast.len(), slow.len());
        for g in slow.atoms() {
            assert!(fast.contains(g), "missing {g:?}");
        }
    }

    /// Index metrics are emitted when a recorder is attached.
    #[test]
    fn index_counters_recorded() {
        let (p, path, c) = tc_program();
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let db = Evaluator::new(&p)
            .with_recorder(rec.clone())
            .run_until(Some(&GroundAtom::new(path, vec![c[0], c[3]])));
        assert!(!db.is_empty());
        let snap = rec.snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert!(get("rules_fired") > 0);
        assert!(get("join_attempts") > 0);
        assert!(
            get("index_builds") > 0,
            "recursive rule must build an index"
        );
        assert!(get("index_hits") > 0);
        assert!(snap.gauges.contains_key("arena_atoms"));
    }
}
