//! Indexed semi-naive bottom-up evaluation over an interned tuple arena.
//!
//! Computes the least model of a positive Datalog program. The evaluation
//! substrate is built for speed:
//!
//! * **Tuple arena** ([`arena::TupleStore`](crate::arena::TupleStore)) —
//!   every derived ground tuple is interned once and handled by a `Copy`
//!   [`AtomId`]; no `GroundAtom` is cloned on the insert path.
//! * **Column-keyed join indices** — each rule body is solved following a
//!   [`Plan`], whose join orders are planned before the round that first
//!   needs them; partially bound probes go through a hash index keyed on
//!   the bound columns, built per (predicate, bound-column-set) when a
//!   join step first probes it and caught up incrementally from the
//!   semi-naive deltas at the start of every round.
//! * **Optional provenance** — derivation recording is a mode flag
//!   ([`Evaluator::with_provenance`]); witness extraction
//!   ([`cache::schedule_from_database`](crate::cache::schedule_from_database))
//!   needs it, plain queries do not pay for it.
//! * **Whole-round deltas** — each round derives every candidate tuple
//!   from the previous round's delta against the database as it stood,
//!   and only then merges them in delta order.
//! * **Deltas** — an evaluator can cover a program's first rules (its
//!   *base*) plus a chosen *delta* of its later rules
//!   ([`Evaluator::with_delta`]). [`Evaluator::resume_until`] extends the
//!   base's complete database in place to the model with the delta, and
//!   [`Database::rollback`] returns it to its [`Mark`], so a `makeP`
//!   guess fleet evaluates its shared base fixpoint once and each guess
//!   is only its own rules. One delta plan serves every delta whose rules
//!   it holds; the evaluator masks out the others.
//!
//! The pre-rewrite engine survives as [`naive`](crate::naive) and pins
//! this one differentially (the `eval-agree` fuzz oracle).

use crate::arena::{hash_key, AtomId, TupleStore};
use crate::ast::{Const, GroundAtom, PredId, Program, Rule, Term};
use crate::plan::{DeltaPlan, Plan, Uses};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Counter, Gauge, Phase, PhaseTimer, Recorder};
use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone)]
struct ColumnIndex {
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
    /// Per predicate, its join indices: the key columns, as a bitmask,
    /// and the index. A round's plans register the indices they can probe
    /// before it starts; an index is built when a join step first probes
    /// it, and then kept, through a rollback too.
    indices: Vec<Vec<(u64, OnceCell<ColumnIndex>)>>,
    /// Set when the resource governor stopped evaluation before the least
    /// model (or the goal) was reached; the database is a sound but
    /// possibly incomplete under-approximation.
    interrupted: Option<InterruptReason>,
    /// Whether evaluation reached the least model: neither the governor
    /// nor the goal stopped it. Only such a database can be resumed
    /// ([`Evaluator::resume_until`]).
    complete: bool,
}

/// Where a [`Database`] stood before a resumed evaluation, for
/// [`Database::rollback`].
#[derive(Debug, Clone)]
pub struct Mark {
    atoms: usize,
    preds: usize,
    interrupted: Option<InterruptReason>,
    complete: bool,
}

impl ColumnIndex {
    /// Adds the tuples of `list` (a predicate's tuples in `store`) after
    /// the ones it holds, keyed on `cols`.
    fn catch_up(&mut self, store: &TupleStore, list: &[AtomId], cols: u64) {
        let mut key = Vec::new();
        for &id in &list[self.upto..] {
            let h = key_hash(store.args(id), cols, &mut key);
            self.map.entry(h).or_default().push(id);
        }
        self.upto = list.len();
    }
}

/// The key hash of the tuple `args` on `cols` (`key` is scratch).
fn key_hash(args: &[Const], cols: u64, key: &mut Vec<Const>) -> u64 {
    key.clear();
    key.extend(columns(cols).map(|c| args[c]));
    hash_key(key)
}

impl Database {
    fn new(n_preds: usize, provenance: bool) -> Database {
        Database {
            store: TupleStore::new(),
            per_pred: vec![Vec::new(); n_preds],
            derivations: provenance.then(Vec::new),
            indices: vec![Vec::new(); n_preds],
            interrupted: None,
            complete: false,
        }
    }

    /// Where the database stands now; [`Database::rollback`] returns to
    /// it.
    pub fn mark(&self) -> Mark {
        Mark {
            atoms: self.store.len(),
            preds: self.per_pred.len(),
            interrupted: self.interrupted,
            complete: self.complete,
        }
    }

    /// Deletes everything added since `mark` was taken: the atoms, their
    /// entries in the per-predicate lists and in the join indices, and
    /// the predicates added since. The database then holds exactly what
    /// it held at the mark; the join indices built since stay built,
    /// holding its tuples.
    ///
    /// # Panics
    ///
    /// Panics if `mark` was not taken on this database, or if the
    /// database was rolled back past it since.
    pub fn rollback(&mut self, mark: Mark) {
        assert!(
            mark.atoms <= self.store.len() && mark.preds <= self.per_pred.len(),
            "a mark of this database, taken before its current state"
        );
        let mut touched: Vec<PredId> = (mark.atoms..self.store.len())
            .map(|idx| self.store.pred(AtomId(idx as u32)))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut key = Vec::new();
        for p in touched {
            let list = &mut self.per_pred[p.0 as usize];
            let keep = list.partition_point(|id| id.index() < mark.atoms);
            for (cols, ix) in &mut self.indices[p.0 as usize] {
                let Some(ix) = ix.get_mut().filter(|ix| ix.upto > keep) else {
                    continue;
                };
                // Newest first: each tuple is the last entry under its key.
                for &id in list[keep..ix.upto].iter().rev() {
                    let h = key_hash(self.store.args(id), *cols, &mut key);
                    let ids = ix.map.get_mut(&h).expect("an indexed tuple has its key");
                    debug_assert_eq!(ids.last(), Some(&id));
                    ids.pop();
                    if ids.is_empty() {
                        ix.map.remove(&h);
                    }
                }
                ix.upto = keep;
            }
            list.truncate(keep);
        }
        self.per_pred.truncate(mark.preds);
        self.indices.truncate(mark.preds);
        self.store.truncate(mark.atoms);
        if let Some(d) = self.derivations.as_mut() {
            d.truncate(mark.atoms);
        }
        self.interrupted = mark.interrupted;
        self.complete = mark.complete;
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

    /// Catches the built join indices of `p` up with its tuple list.
    fn catch_up(&mut self, p: PredId) {
        let list = &self.per_pred[p.0 as usize];
        for (cols, ix) in &mut self.indices[p.0 as usize] {
            if let Some(ix) = ix.get_mut() {
                ix.catch_up(&self.store, list, *cols);
            }
        }
    }

    /// Registers the join index of `p` on `cols`, unbuilt, unless it is
    /// registered already.
    fn register(&mut self, p: PredId, cols: u64) {
        let indices = &mut self.indices[p.0 as usize];
        if !indices.iter().any(|(c, _)| *c == cols) {
            indices.push((cols, OnceCell::new()));
        }
    }
}

/// A head tuple produced by a worker, merged sequentially.
struct Derived {
    /// The deriving rule, in plan order.
    rule: usize,
    pred: PredId,
    args: Vec<Const>,
    /// Body atom indices in body order (empty when provenance is off).
    body: Vec<usize>,
}

/// An evaluator's metric handles (near-no-ops when the recorder is
/// disabled): its hot-loop counters, its phase timer and the per-predicate
/// `atoms/{name}` counters of a registry, each resolved once.
///
/// [`Evaluator::with_metrics`] shares one set between every evaluator of
/// a `makeP` guess fleet whose programs share a registry; an evaluator
/// without one resolves its own per run.
#[derive(Debug)]
pub struct EvalMetrics {
    rec: Recorder,
    fired: Counter,
    joins: Counter,
    planned: Counter,
    index_builds: Counter,
    index_hits: Counter,
    arena_atoms: Gauge,
    arena_bytes: Gauge,
    phases: PhaseTimer,
    /// Per predicate id, its `atoms/{name}` counter, resolved on first
    /// use.
    atoms: RefCell<Vec<Option<Counter>>>,
}

impl EvalMetrics {
    /// The handles of `rec`.
    pub fn new(rec: &Recorder) -> EvalMetrics {
        EvalMetrics {
            phases: PhaseTimer::new(rec),
            ..EvalMetrics::untimed(rec)
        }
    }

    /// The handles of `rec`, with no phase timer: for an evaluation that
    /// runs inside a phase its caller times.
    pub fn untimed(rec: &Recorder) -> EvalMetrics {
        EvalMetrics {
            rec: rec.clone(),
            fired: rec.counter("rules_fired"),
            joins: rec.counter("join_attempts"),
            planned: rec.counter("rules_planned"),
            index_builds: rec.counter("index_builds"),
            index_hits: rec.counter("index_hits"),
            arena_atoms: rec.gauge("arena_atoms"),
            arena_bytes: rec.gauge("arena_bytes"),
            phases: PhaseTimer::new(&Recorder::disabled()),
            atoms: RefCell::default(),
        }
    }

    /// Adds `n` to the `atoms/{name}` counter of `program`'s predicate
    /// `p`.
    fn add_atoms(&self, program: &Program, p: PredId, n: u64) {
        let mut atoms = self.atoms.borrow_mut();
        let i = p.0 as usize;
        if atoms.len() <= i {
            atoms.resize(i + 1, None);
        }
        atoms[i]
            .get_or_insert_with(|| self.rec.counter(&format!("atoms/{}", program.pred_name(p))))
            .add(n);
    }
}

/// Scratch for one delta item's rule firings, allocated once per run and
/// reused by every delta item. The trail fully unwinds after every use,
/// so `subst` is all-`None` between delta items.
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
    /// Time spent planning join orders in the current round.
    plan_time: Duration,
    /// Time spent catching up and building join indices in the current
    /// round.
    index_time: Duration,
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
    /// The program's first `base_len` rules form the base program.
    base_len: usize,
    /// The indices of the delta's rules, after the base's.
    delta: &'p [u32],
    /// How many of the plan's rules are the base's: a resumed first round
    /// fires only the rules after them in full.
    n_base: usize,
    /// When the plan holds more rules after the base's than the delta's:
    /// the delta's rules with a body, by their numbers in the plan and in
    /// delta order, and their uses. The plan's other rules stay out.
    masked: Option<(Vec<u32>, Uses)>,
    plan: Arc<Plan>,
    rec: Recorder,
    metrics: Option<&'p EvalMetrics>,
    events: bool,
    provenance: bool,
    gov: ResourceBudget,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator for `program`. The join plan is computed here,
    /// once; provenance is off by default.
    pub fn new(program: &'p Program) -> Evaluator<'p> {
        Evaluator::with_plan(program, Arc::new(Plan::new(program)))
    }

    /// Creates an evaluator reusing a precomputed plan — typically from a
    /// [`PlanCache`](crate::plan::PlanCache), whose plans share the join
    /// orders they plan.
    ///
    /// `plan` must have been computed for a program with an identical rule
    /// list (the cache guarantees this); plans reference rules by index
    /// and body positions, so a mismatched plan would derive wrong models.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers another number of rules, and in debug
    /// builds also if any of its rules differs from the program's.
    pub fn with_plan(program: &'p Program, plan: Arc<Plan>) -> Evaluator<'p> {
        Evaluator::with_delta(program, program.rules().len(), &[], plan)
    }

    /// Creates an evaluator for the program of `program`'s first
    /// `base_len` rules (the *base*) and its rules at `delta`, under
    /// `plan`: a delta plan
    /// ([`PlanCache::plan_delta`](crate::plan::PlanCache::plan_delta))
    /// whose rules after the base's include the delta's, the others
    /// masked out, or a plan of exactly the base's and the delta's rules.
    /// Nothing is copied: the rules stay `program`'s, and so do the
    /// predicate and constant ids. [`Evaluator::resume_until`] evaluates
    /// the delta in place on the base's database.
    ///
    /// # Panics
    ///
    /// As [`Evaluator::with_plan`], if a rule of `delta` with a body is
    /// not among a delta plan's, and if an index in `delta` is out of
    /// range.
    pub fn with_delta(
        program: &'p Program,
        base_len: usize,
        delta: &'p [u32],
        plan: Arc<Plan>,
    ) -> Evaluator<'p> {
        let rules = program.rules();
        let with_body = |ri: &&u32| !rules[**ri as usize].is_fact();
        let delta_rules = delta.iter().filter(with_body);
        let (n_base, masked) = match plan.base() {
            Some(base) => {
                let ks: Vec<u32> = delta_rules
                    .map(|&ri| {
                        plan.own_rule(ri)
                            .expect("join plan built for another rule list")
                            as u32
                    })
                    .collect();
                let masked = (ks.len() < plan.n_own()).then(|| {
                    let numbered = ks.iter().map(|&k| (k as usize, plan.rule(k as usize)));
                    let uses = Uses::new(program, numbered);
                    (ks, uses)
                });
                (base.n_rules(), masked)
            }
            None => {
                let n_base = (0..base_len as u32).filter(|ri| with_body(&ri)).count();
                assert_eq!(
                    plan.n_rules(),
                    n_base + delta_rules.count(),
                    "join plan built for another rule list"
                );
                (n_base, None)
            }
        };
        #[cfg(debug_assertions)]
        for k in 0..plan.n_rules() {
            let (ri, rule) = (plan.id(k), plan.rule(k));
            let theirs = &*rules[ri as usize];
            assert!(
                std::ptr::eq(rule, theirs) || *rule == *theirs,
                "join plan of rule {ri} built for another rule"
            );
        }
        Evaluator {
            program,
            base_len,
            delta,
            n_base,
            masked,
            plan,
            rec: Recorder::disabled(),
            metrics: None,
            events: false,
            provenance: false,
            gov: ResourceBudget::unlimited(),
        }
    }

    /// The same evaluator reporting metrics through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Evaluator<'p> {
        self.rec = rec;
        self.metrics = None;
        self
    }

    /// The same evaluator reporting metrics through `metrics`' handles
    /// (and its recorder), which must serve programs of this program's
    /// registry.
    pub fn with_metrics(mut self, metrics: &'p EvalMetrics) -> Evaluator<'p> {
        self.rec = metrics.rec.clone();
        self.metrics = Some(metrics);
        self
    }

    /// Turns per-round flight-recorder events on (off by default).
    ///
    /// The Datalog route enables this only for a single-guess run, so a
    /// fleet's event log does not grow with the number of guesses it
    /// evaluates.
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

    /// The same evaluator governed by `gov`, checked once per semi-naive
    /// round. An exhausted budget stops evaluation at the round boundary
    /// and marks the returned database [`Database::interrupted`]; a run
    /// that completes is identical to an ungoverned run.
    pub fn with_governor(mut self, gov: ResourceBudget) -> Evaluator<'p> {
        self.gov = gov;
        self
    }

    /// Runs `f` with this evaluator's metric handles.
    fn metered<T>(&self, f: impl FnOnce(&EvalMetrics) -> T) -> T {
        match self.metrics {
            Some(m) => f(m),
            None => f(&EvalMetrics::new(&self.rec)),
        }
    }

    /// Computes the least model, stopping early if `stop_at` is derived.
    pub fn run_until(&self, stop_at: Option<&GroundAtom>) -> Database {
        self.metered(|m| {
            let t0 = m.phases.is_enabled().then(Instant::now);
            let n_preds = self.program.predicates().count();
            let mut db = Database::new(n_preds, self.provenance);
            let other = self.evaluate(m, &mut db, stop_at, false);
            self.record_sizes(m, &db);
            if let Some(t0) = t0 {
                let spent = t0.elapsed().saturating_sub(other);
                m.phases.add_elapsed(Phase::Fixpoint, spent);
            }
            db
        })
    }

    /// Evaluates the delta *in place* on `base`, the complete database of
    /// the base program under its plan, and returns the mark to
    /// [`Database::rollback`] to afterwards. The result is the whole
    /// program's least model (or a database holding `stop_at`), as
    /// [`run_until`](Evaluator::run_until) would derive it.
    ///
    /// Positive Datalog is monotone, so `base` lies inside the whole
    /// program's least model and only needs extending: the delta's facts
    /// `base` lacks are the first delta, and in that first round the
    /// delta's rules, which never saw `base`, also fire from every atom of
    /// one body relation. After that, evaluation is ordinary semi-naive.
    ///
    /// Returns `None`, leaving `base` untouched, unless `base` is
    /// complete (neither the governor nor a goal stopped it) and has no
    /// more predicates than this program, and unless both sides run
    /// without provenance.
    pub fn resume_until(&self, base: &mut Database, stop_at: Option<&GroundAtom>) -> Option<Mark> {
        let n_preds = self.program.predicates().count();
        let resumable = base.complete
            && !self.provenance
            && !base.has_provenance()
            && base.per_pred.len() <= n_preds;
        if !resumable {
            return None;
        }
        Some(self.metered(|m| {
            let t0 = m.phases.is_enabled().then(Instant::now);
            let mark = base.mark();
            base.complete = false;
            base.per_pred.resize(n_preds, Vec::new());
            base.indices.resize(n_preds, Vec::new());
            let other = self.evaluate(m, base, stop_at, true);
            self.record_sizes(m, base);
            if let Some(t0) = t0 {
                let spent = t0.elapsed().saturating_sub(other);
                m.phases.add_elapsed(Phase::Fixpoint, spent);
            }
            mark
        }))
    }

    /// Per-predicate atom counts, keyed by predicate name so traces
    /// across guesses aggregate, and the arena's size.
    fn record_sizes(&self, m: &EvalMetrics, db: &Database) {
        if !self.rec.is_enabled() {
            return;
        }
        for (p, atoms) in db.per_pred.iter().enumerate() {
            if !atoms.is_empty() {
                m.add_atoms(self.program, PredId(p as u32), atoms.len() as u64);
            }
        }
        m.arena_atoms.set(db.store.len() as u64);
        m.arena_bytes.set(db.store.heap_bytes() as u64);
    }

    /// Extends `db` with the program's facts (the delta's only, when
    /// `db` is a resumed base), then runs semi-naive rounds until nothing
    /// new is derived, `stop_at` is, or the governor stops them.
    /// `resumed` says that `db` is the base's complete database (see
    /// [`resume_until`](Evaluator::resume_until)). Returns the time it
    /// added to `index_build` and `join_plan`; the caller times the rest
    /// of the evaluation as `fixpoint`.
    fn evaluate(
        &self,
        m: &EvalMetrics,
        db: &mut Database,
        stop_at: Option<&GroundAtom>,
        resumed: bool,
    ) -> Duration {
        let rules = self.program.rules();
        let mut scratch = JoinScratch {
            subst: vec![None; self.plan.max_vars()],
            ..JoinScratch::default()
        };

        // Facts are the first delta; a resumed base already holds the
        // base's.
        let base = if resumed { 0..0 } else { 0..self.base_len };
        let facts = base.chain(self.delta.iter().map(|&ri| ri as usize));
        let mut delta: Vec<AtomId> = Vec::new();
        for ri in facts.filter(|&ri| rules[ri].is_fact()) {
            let head = &rules[ri].head;
            scratch.buf.clear();
            scratch.buf.extend(head.terms.iter().map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(_) => unreachable!("a fact is ground"),
            }));
            if let Some(id) = db.insert(head.pred, &scratch.buf, ri, Vec::new()) {
                m.fired.incr();
                delta.push(id);
            }
        }
        if let Some(goal) = stop_at {
            if db.contains(goal) {
                return Duration::ZERO;
            }
        }
        // In a resumed first round, the base's rules have already joined
        // every combination of base atoms: only the new facts fire them.
        // The delta's rules fire in full.
        let n_rules = self.plan.n_rules();
        let fresh_from = if resumed { self.n_base } else { n_rules };
        let in_full: Vec<usize> = match &self.masked {
            Some((ks, _)) if resumed => ks.iter().map(|&k| k as usize).collect(),
            _ => (fresh_from..n_rules).collect(),
        };

        // Round-based semi-naive: expand the whole delta against the
        // database as it stood, then merge the candidate tuples in delta
        // order. Each round first catches the indices up with the
        // previous round's insertions and plans what it can reach, so
        // the expansion only reads the database and the plan. The (body
        // predicate → rule occurrence) table driving the expansion lives
        // in the plan ([`Plan::uses`]).
        let phases = &m.phases;
        let mut other = Duration::ZERO;
        let mut preds = Vec::new();
        let mut seen = vec![false; db.per_pred.len()];
        let mut round: u64 = 0;
        while !delta.is_empty() || (round == 0 && !in_full.is_empty()) {
            if let Err(reason) = self.gov.check() {
                self.rec
                    .counter(&format!("eval_interrupted_{}", reason.as_str()))
                    .incr();
                db.interrupted = Some(reason);
                return other;
            }
            let t0 = phases.is_enabled().then(Instant::now);
            preds.clear();
            for &d in &delta {
                let p = db.store.pred(d);
                if !std::mem::replace(&mut seen[p.0 as usize], true) {
                    preds.push(p);
                }
            }
            for &p in &preds {
                seen[p.0 as usize] = false;
                db.catch_up(p);
            }
            if let Some(t0) = t0 {
                scratch.index_time += t0.elapsed();
            }
            let below = if round == 0 { fresh_from } else { n_rules };
            for &p in &preds {
                self.plan_uses(db, p, below, m, &mut scratch);
            }
            if round == 0 {
                for &k in &in_full {
                    if let Some(bi) = self.smallest_relation(db, k) {
                        self.plan_join(db, k, bi, m, &mut scratch);
                    }
                }
            }
            let mut candidates = Vec::new();
            for &d in &delta {
                self.derive_from(db, d, below, m, &mut scratch, &mut candidates);
            }
            if round == 0 {
                for &k in &in_full {
                    self.fire_in_full(db, k, m, &mut scratch, &mut candidates);
                }
            }
            let mut next_delta = Vec::new();
            let mut goal_hit = false;
            for derived in candidates {
                let hit = stop_at
                    .map(|g| g.pred == derived.pred && g.args[..] == derived.args[..])
                    .unwrap_or(false);
                let rule = self.plan.id(derived.rule) as usize;
                if let Some(id) = db.insert(derived.pred, &derived.args, rule, derived.body) {
                    m.fired.incr();
                    next_delta.push(id);
                    if hit {
                        goal_hit = true;
                        break;
                    }
                }
            }
            if phases.is_enabled() {
                // The round caught its indices up, planned the join orders
                // it first needed, and its joins built the indices they
                // first probed.
                let planned = std::mem::take(&mut scratch.plan_time);
                let built = std::mem::take(&mut scratch.index_time);
                phases.add_elapsed(Phase::JoinPlan, planned);
                phases.add_elapsed(Phase::IndexBuild, built);
                other += planned + built;
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
                return other;
            }
            round += 1;
            delta = next_delta;
        }
        db.complete = true;
        other
    }

    /// Computes the full least model.
    pub fn run(&self) -> Database {
        self.run_until(None)
    }

    /// `Prog ⊢ g`: query evaluation with early exit.
    pub fn query(&self, goal: &GroundAtom) -> bool {
        self.run_until(Some(goal)).contains(goal)
    }

    /// Every (rule, body position) of the evaluation where predicate `p`
    /// occurs, as two runs: the base's rules', then the delta's.
    #[inline]
    fn uses(&self, p: PredId) -> [&[(u32, u32)]; 2] {
        let [base, own] = self.plan.uses_by_layer(p);
        match &self.masked {
            Some((_, uses)) => [base, uses.of(p)],
            None => [base, own],
        }
    }

    /// Whether some body relation of rule `k` is empty, so that the rule
    /// cannot fire this round.
    #[inline]
    fn starved(&self, db: &Database, k: usize) -> bool {
        let body = &self.plan.rule(k).body;
        body.iter()
            .any(|a| db.per_pred[a.pred.0 as usize].is_empty())
    }

    /// The body position of rule `k`'s smallest relation (the first of
    /// several), if the rule can fire this round.
    fn smallest_relation(&self, db: &Database, k: usize) -> Option<usize> {
        let body = &self.plan.rule(k).body;
        let relation = |bi: usize| db.per_pred[body[bi].pred.0 as usize].len();
        (0..body.len())
            .min_by_key(|&bi| relation(bi))
            .filter(|&bi| relation(bi) > 0)
    }

    /// Plans the uses of predicate `p` that a delta atom of it fires this
    /// round ([`Evaluator::derive_from`]).
    fn plan_uses(
        &self,
        db: &mut Database,
        p: PredId,
        below: usize,
        m: &EvalMetrics,
        scratch: &mut JoinScratch,
    ) {
        for uses in self.uses(p) {
            for &(k, bi) in uses {
                let k = k as usize;
                if k >= below {
                    return;
                }
                if !self.starved(db, k) {
                    self.plan_join(db, k, bi as usize, m, scratch);
                }
            }
        }
    }

    /// Makes the join order of rule `k` with delta position `bi` before a
    /// round that fires it: plans it (timed as `join_plan`) unless a run
    /// did before, and registers the indices its steps probe.
    fn plan_join(
        &self,
        db: &mut Database,
        k: usize,
        bi: usize,
        m: &EvalMetrics,
        scratch: &mut JoinScratch,
    ) {
        let order = match self.plan.planned(k, bi) {
            Some(order) => order,
            None => {
                let t0 = m.phases.is_enabled().then(Instant::now);
                let (order, planned) = self.plan.fill(k, bi);
                if planned {
                    m.planned.incr();
                }
                if let Some(t0) = t0 {
                    scratch.plan_time += t0.elapsed();
                }
                order
            }
        };
        let body = &self.plan.rule(k).body;
        for step in order.steps.iter().filter(|s| s.probes()) {
            db.register(body[step.pos].pred, step.cols);
        }
    }

    /// Appends to `out` all firings of the rules below `below` (in plan
    /// order) in which the delta atom `d` participates (at every body
    /// position of its predicate). Read-only over `db`.
    fn derive_from(
        &self,
        db: &Database,
        d: AtomId,
        below: usize,
        m: &EvalMetrics,
        scratch: &mut JoinScratch,
        out: &mut Vec<Derived>,
    ) {
        let pred = db.store.pred(d);
        for uses in self.uses(pred) {
            for &(k, bi) in uses {
                if k as usize >= below {
                    return;
                }
                self.fire(db, d, k as usize, bi as usize, m, scratch, out);
            }
        }
    }

    /// Appends to `out` every firing of rule `k` (in plan order) over
    /// `db`: the atoms of its smallest body relation each stand as the
    /// delta at that body position, and the plan joins the rest.
    fn fire_in_full(
        &self,
        db: &Database,
        k: usize,
        m: &EvalMetrics,
        scratch: &mut JoinScratch,
        out: &mut Vec<Derived>,
    ) {
        let Some(bi) = self.smallest_relation(db, k) else {
            return;
        };
        let body = &self.plan.rule(k).body;
        for &d in &db.per_pred[body[bi].pred.0 as usize] {
            self.fire(db, d, k, bi, m, scratch, out);
        }
    }

    /// Appends to `out` the firings of rule `k` (in plan order) with the
    /// atom `d` at body position `bi`. Inlined into the round loop's two
    /// callers: out of line, it slowed every evaluation by a few percent.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn fire(
        &self,
        db: &Database,
        d: AtomId,
        k: usize,
        bi: usize,
        m: &EvalMetrics,
        scratch: &mut JoinScratch,
        out: &mut Vec<Derived>,
    ) {
        // A rule with an empty body relation cannot fire: skip it
        // before any matching work.
        if self.starved(db, k) {
            return;
        }
        let rule = self.plan.rule(k);
        scratch.used.clear();
        scratch.used.resize(rule.body.len(), 0);
        m.joins.incr();
        if self.match_pattern(db, &rule.body[bi], d, scratch) {
            scratch.used[bi] = d.index();
            let order = self.plan.planned(k, bi).expect("planned before the round");
            self.join_steps(db, rule, k, order, 0, scratch, out, m);
        }
        unwind(scratch, 0);
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

    /// Solves plan steps `si..` of rule `k` (in plan order), emitting a
    /// head tuple per full match.
    #[allow(clippy::too_many_arguments)]
    fn join_steps(
        &self,
        db: &Database,
        rule: &Rule,
        k: usize,
        dp: &DeltaPlan,
        si: usize,
        scratch: &mut JoinScratch,
        out: &mut Vec<Derived>,
        m: &EvalMetrics,
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
                rule: k,
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
            m.joins.incr();
            if let Some(id) = db.store.lookup(pattern.pred, &scratch.buf) {
                scratch.used[step.pos] = id.index();
                self.join_steps(db, rule, k, dp, si + 1, scratch, out, m);
            }
            return;
        }
        // Candidate enumeration: an index probe on the bound columns when
        // possible, otherwise the full per-predicate list.
        let list = &db.per_pred[pattern.pred.0 as usize];
        let candidates: &[AtomId] = if step.cols != 0 {
            scratch.buf.clear();
            let mut cols = step.cols;
            while cols != 0 {
                let c = cols.trailing_zeros() as usize;
                cols &= cols - 1;
                scratch.buf.push(match &pattern.terms[c] {
                    Term::Const(k) => *k,
                    Term::Var(v) => scratch.subst[*v as usize].expect("planner: bound col"),
                });
            }
            m.index_hits.incr();
            let (_, index) = db.indices[pattern.pred.0 as usize]
                .iter()
                .find(|(cols, _)| *cols == step.cols)
                .expect("registered before the round");
            let index = index.get().unwrap_or_else(|| {
                // The first probe builds the index.
                let t0 = m.phases.is_enabled().then(Instant::now);
                let mut ix = ColumnIndex {
                    map: PrehashedMap::default(),
                    upto: 0,
                };
                ix.catch_up(&db.store, list, step.cols);
                m.index_builds.incr();
                if let Some(t0) = t0 {
                    scratch.index_time += t0.elapsed();
                }
                index.get_or_init(|| ix)
            });
            let h = hash_key(&scratch.buf);
            index.map.get(&h).map_or(&[], Vec::as_slice)
        } else {
            list
        };
        for &id in candidates {
            m.joins.incr();
            let mark = scratch.trail.len();
            if self.match_pattern(db, pattern, id, scratch) {
                scratch.used[step.pos] = id.index();
                self.join_steps(db, rule, k, dp, si + 1, scratch, out, m);
                unwind(scratch, mark);
            }
        }
    }
}

/// The columns of the bitmask `cols`, ascending.
fn columns(mut cols: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (cols != 0).then(|| {
            let c = cols.trailing_zeros() as usize;
            cols &= cols - 1;
            c
        })
    })
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
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
        let governed = Evaluator::new(&p).with_governor(gov).run();
        assert_eq!(governed.interrupted(), None);
        assert_eq!(governed.len(), base.len());
        assert!(governed.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
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

    /// A program whose first rules are a base: edges `i → 3i+1 (mod 9)`
    /// and the transitive-closure rules. After the base come the delta's
    /// rules: edges `i → i+2` for odd `i`, a `flag` fact and a `meet`
    /// rule. Returns the program, the base's length, the
    /// delta and `meet`.
    fn layered() -> (Program, usize, Vec<u32>, PredId) {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let path = p.predicate("path", 2);
        let meet = p.predicate("meet", 2);
        let u: Vec<Const> = (0..9).map(|i| p.constant(&format!("u{i}"))).collect();
        for i in 0..9 {
            p.fact(e, vec![u[i], u[(3 * i + 1) % 9]]).unwrap();
        }
        let (x, y, z) = (Term::Var(0), Term::Var(1), Term::Var(2));
        let mut tc = Program::new();
        let (te, tpath) = (tc.predicate("e", 2), tc.predicate("path", 2));
        tc.rule(
            Atom::new(tpath, vec![x, y]),
            vec![Atom::new(te, vec![x, y])],
        )
        .unwrap();
        tc.rule(
            Atom::new(tpath, vec![x, z]),
            vec![Atom::new(tpath, vec![x, y]), Atom::new(te, vec![y, z])],
        )
        .unwrap();
        p.extend_validated(&tc.split_rules_off(0));
        let base_len = p.rules().len();
        for i in (1..9).step_by(2) {
            p.fact(e, vec![u[i], u[(i + 2) % 9]]).unwrap();
        }
        let flag = p.predicate("flag", 1);
        p.fact(flag, vec![u[0]]).unwrap();
        // `e` by its second column: an index no base rule probes.
        p.rule(
            Atom::new(meet, vec![y, z]),
            vec![
                Atom::new(flag, vec![x]),
                Atom::new(path, vec![x, y]),
                Atom::new(e, vec![z, y]),
            ],
        )
        .unwrap();
        let delta = (base_len as u32..p.rules().len() as u32).collect();
        (p, base_len, delta, meet)
    }

    /// The base's evaluator and the delta's, planned through one cache.
    fn base_and_delta<'p>(
        p: &'p Program,
        base_len: usize,
        delta: &'p [u32],
    ) -> (Evaluator<'p>, Evaluator<'p>) {
        let mut cache = crate::plan::PlanCache::new();
        let base_plan = cache.plan_prefix(p, base_len);
        let delta_plan = cache.plan_delta(p, &base_plan, base_len, delta);
        (
            Evaluator::with_delta(p, base_len, &[], base_plan),
            Evaluator::with_delta(p, base_len, delta, delta_plan),
        )
    }

    /// The join indices `db` has built, as (predicate, columns).
    fn built(db: &Database) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for (p, indices) in db.indices.iter().enumerate() {
            let built = indices.iter().filter(|(_, ix)| ix.get().is_some());
            out.extend(built.map(|(cols, _)| (p, *cols)));
        }
        out.sort_unstable();
        out
    }

    /// Everything a rollback must restore, in comparable form, after
    /// checking that every built join index holds exactly its
    /// predicate's tuples.
    #[allow(clippy::type_complexity)]
    fn snapshot(
        db: &Database,
    ) -> (
        Vec<GroundAtom>,
        Vec<Vec<AtomId>>,
        (usize, Option<InterruptReason>, bool),
    ) {
        for (i, g) in db.iter().enumerate() {
            assert_eq!(db.index_of(&g), Some(i), "{g:?} is not found by lookup");
        }
        let sorted = |ix: &ColumnIndex| {
            let mut map: Vec<_> = ix.map.iter().map(|(h, ids)| (*h, ids.clone())).collect();
            map.sort();
            (map, ix.upto)
        };
        for (p, indices) in db.indices.iter().enumerate() {
            for (cols, ix) in indices {
                let Some(ix) = ix.get() else { continue };
                let mut fresh = ColumnIndex {
                    map: PrehashedMap::default(),
                    upto: 0,
                };
                fresh.catch_up(&db.store, &db.per_pred[p], *cols);
                assert_eq!(sorted(ix), sorted(&fresh), "index ({p}, {cols:b})");
            }
        }
        (
            db.iter().collect(),
            db.per_pred.clone(),
            (db.store.args_len(), db.interrupted, db.complete),
        )
    }

    fn model(db: &Database) -> HashSet<GroundAtom> {
        db.iter().collect()
    }

    #[test]
    fn a_resumed_evaluation_derives_the_scratch_model_and_rolls_back_exactly() {
        let (p, base_len, delta, meet) = layered();
        let (base_ev, ev) = base_and_delta(&p, base_len, &delta);
        let mut base = base_ev.run();
        let before = snapshot(&base);
        let scratch = Evaluator::new(&p).run();
        assert!(scratch.of_pred(meet).count() > 0);
        // The delta's evaluator from scratch derives the whole model too.
        assert_eq!(model(&ev.run()), model(&scratch));
        let built_before = built(&base);
        let mark = ev.resume_until(&mut base, None).expect("resumable");
        assert_eq!(model(&base), model(&scratch));
        assert!(base.complete && built(&base).len() > built_before.len());
        let built_by_delta = built(&base);
        base.rollback(mark);
        assert_eq!(snapshot(&base), before);
        // The indices the delta built stay built, with the base's tuples.
        assert_eq!(built(&base), built_by_delta);
        // Resuming again after the rollback, to the goal this time.
        let goal = scratch.ground(scratch.len() - 1);
        let mark = ev.resume_until(&mut base, Some(&goal)).expect("resumable");
        assert!(base.contains(&goal) && !base.complete);
        base.rollback(mark);
        assert_eq!(snapshot(&base), before);
        // The base resumes from itself and derives nothing more.
        let mark = base_ev.resume_until(&mut base, None);
        assert_eq!(base.len(), before.0.len());
        base.rollback(mark.expect("resumable"));
        assert_eq!(snapshot(&base), before);
    }

    #[test]
    fn an_index_that_is_never_probed_is_never_built() {
        // q(Y) :- a(X), b(X), e(X, Y): with `a` as the delta, `b(X)` is a
        // membership test that fails, so the probe of `e` is never
        // reached. r(Y) :- z(X), e(X, Y) never fires: `z` is empty.
        let mut p = Program::new();
        let (a, b, z) = (
            p.predicate("a", 1),
            p.predicate("b", 1),
            p.predicate("z", 1),
        );
        let (e, q, r) = (
            p.predicate("e", 2),
            p.predicate("q", 1),
            p.predicate("r", 1),
        );
        let c: Vec<Const> = (0..3).map(|i| p.constant(&format!("c{i}"))).collect();
        p.fact(a, vec![c[0]]).unwrap();
        p.fact(b, vec![c[1]]).unwrap();
        p.fact(e, vec![c[0], c[2]]).unwrap();
        p.fact(e, vec![c[1], c[2]]).unwrap();
        let (x, y) = (Term::Var(0), Term::Var(1));
        let body = |first: PredId| vec![Atom::new(first, vec![x]), Atom::new(e, vec![x, y])];
        let mut q_body = body(a);
        q_body.insert(1, Atom::new(b, vec![x]));
        p.rule(Atom::new(q, vec![y]), q_body).unwrap();
        p.rule(Atom::new(r, vec![y]), body(z)).unwrap();
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let db = Evaluator::new(&p).with_recorder(rec.clone()).run();
        assert_eq!(db.len(), 4);
        assert!(built(&db).is_empty());
        assert_eq!(
            rec.snapshot().counters.get("index_builds").copied(),
            Some(0)
        );
        // With `b(c0)`, the probe is reached and its index built.
        p.fact(b, vec![c[0]]).unwrap();
        let db = Evaluator::new(&p).run();
        assert!(db.contains(&GroundAtom::new(q, vec![c[2]])));
        assert_eq!(built(&db), [(e.0 as usize, 1)]);
    }

    #[test]
    fn an_index_first_built_during_a_delta_survives_rollback_with_the_bases_tuples() {
        let (p, base_len, delta, _) = layered();
        let (base_ev, ev) = base_and_delta(&p, base_len, &delta);
        let mut base = base_ev.run();
        let e = p.lookup_pred("e").unwrap().0 as usize;
        // `meet` probes `e` by its second column; no base rule does.
        assert!(!built(&base).contains(&(e, 0b10)));
        let n_e = base.per_pred[e].len();
        let mark = ev.resume_until(&mut base, None).expect("resumable");
        assert!(base.per_pred[e].len() > n_e);
        base.rollback(mark);
        let (_, ix) = base.indices[e]
            .iter()
            .find(|(cols, _)| *cols == 0b10)
            .unwrap();
        let ix = ix.get().expect("kept through the rollback");
        assert_eq!(ix.upto, n_e);
        assert_eq!(ix.map.values().map(Vec::len).sum::<usize>(), n_e);
        // `snapshot` checks its entries against the base's tuples.
        snapshot(&base);
    }

    #[test]
    fn a_delta_plan_evaluates_the_deltas_whose_rules_it_holds() {
        // `layered`, with one more rule after the base: `lo(X) :- path(X,
        // X)`. Under the plan of the whole delta, each part of it derives
        // the model of the base and that part alone.
        let (mut p, base_len, mut delta, _) = layered();
        let (path, lo) = (p.lookup_pred("path").unwrap(), p.predicate("lo", 1));
        let x = Term::Var(0);
        p.rule(Atom::new(lo, vec![x]), vec![Atom::new(path, vec![x, x])])
            .unwrap();
        delta.push(p.rules().len() as u32 - 1);
        let (base_ev, _) = base_and_delta(&p, base_len, &delta);
        let mut cache = crate::plan::PlanCache::new();
        let base_plan = cache.plan_prefix(&p, base_len);
        let plan = cache.plan_delta(&p, &base_plan, base_len, &delta);
        let mut base = base_ev.run();
        let before = snapshot(&base);
        let (facts, rules): (Vec<u32>, Vec<u32>) = delta
            .iter()
            .partition(|&&ri| p.rules()[ri as usize].is_fact());
        let parts = [
            facts.clone(),
            rules.clone(),
            [&facts[..1], &rules[1..]].concat(),
        ];
        // The delta's `e` facts feed `meet`, so the parts do not fit the
        // plan's statistics; their models are the same all the same.
        assert!(!plan.fits(&p, &facts));
        for part in &parts {
            let mut whole = p.clone();
            let tail = whole.split_rules_off(base_len);
            whole.extend_validated(part.iter().map(|&ri| &tail[ri as usize - base_len]));
            let ev = Evaluator::with_delta(&p, base_len, part, Arc::clone(&plan));
            let mark = ev.resume_until(&mut base, None).expect("resumable");
            assert_eq!(
                model(&base),
                model(&Evaluator::new(&whole).run()),
                "{part:?}"
            );
            base.rollback(mark);
            assert_eq!(snapshot(&base), before);
            assert_eq!(model(&ev.run()), model(&Evaluator::new(&whole).run()));
        }
    }

    #[test]
    #[should_panic(expected = "join plan built for another rule list")]
    fn a_delta_plan_refuses_a_rule_it_does_not_hold() {
        let (p, base_len, delta, _) = layered();
        let mut cache = crate::plan::PlanCache::new();
        let base_plan = cache.plan_prefix(&p, base_len);
        let facts: Vec<u32> = delta[..delta.len() - 1].to_vec();
        let plan = cache.plan_delta(&p, &base_plan, base_len, &facts);
        let _ = Evaluator::with_delta(&p, base_len, &delta, plan);
    }

    #[test]
    fn an_interrupted_resume_rolls_back_exactly() {
        let (p, base_len, delta, _) = layered();
        let (base_ev, ev) = base_and_delta(&p, base_len, &delta);
        let mut base = base_ev.run();
        let before = snapshot(&base);
        let spent = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let mark = ev.with_governor(spent).resume_until(&mut base, None);
        assert_eq!(base.interrupted(), Some(InterruptReason::Deadline));
        base.rollback(mark.expect("resumable"));
        assert_eq!(snapshot(&base), before);
    }

    #[test]
    fn only_a_complete_provenance_free_base_resumes() {
        let (p, base_len, delta, _) = layered();
        let (base_ev, ev) = base_and_delta(&p, base_len, &delta);
        let untouched = |mut base: Database, ev: &Evaluator| {
            let before = snapshot(&base);
            assert!(ev.resume_until(&mut base, None).is_none());
            assert_eq!(snapshot(&base), before);
        };
        // Stopped by the governor, or at a goal: not closed.
        let spent = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let (stopped, _) = base_and_delta(&p, base_len, &delta);
        untouched(stopped.with_governor(spent).run(), &ev);
        let full = base_ev.run();
        let goal = full.ground(full.len() - 1);
        untouched(base_ev.run_until(Some(&goal)), &ev);
        // Provenance on either side.
        let (traced, with_provenance) = base_and_delta(&p, base_len, &delta);
        untouched(traced.with_provenance(true).run(), &ev);
        untouched(base_ev.run(), &with_provenance.with_provenance(true));
    }

    #[test]
    #[should_panic(expected = "join plan built for another rule list")]
    fn a_plan_for_another_rule_count_is_refused() {
        let (p, path, _) = tc_program();
        let mut longer = p.clone();
        let x = Term::Var(0);
        longer
            .rule(
                Atom::new(path, vec![x, x]),
                vec![Atom::new(path, vec![x, x])],
            )
            .unwrap();
        let _ = Evaluator::with_plan(&longer, Arc::new(Plan::new(&p)));
    }

    /// Same rule count, another last body: caught in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "join plan of rule 4 built for another rule")]
    fn a_plan_for_another_rule_is_refused_in_debug_builds() {
        let (p, path, _) = tc_program();
        let mut other = p.clone();
        other.split_rules_off(p.rules().len() - 1);
        let (x, y) = (Term::Var(0), Term::Var(1));
        other
            .rule(
                Atom::new(path, vec![x, y]),
                vec![Atom::new(path, vec![x, y])],
            )
            .unwrap();
        let _ = Evaluator::with_plan(&other, Arc::new(Plan::new(&p)));
    }
}
