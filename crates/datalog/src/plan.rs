//! Join planner: orders rule bodies most-bound-first, on demand.
//!
//! For a rule and a choice of *delta position* (the body atom matched
//! against a newly derived tuple in semi-naive evaluation), the planner
//! fixes the order in which the remaining body atoms are joined and which
//! argument columns are bound when each of them is probed. The evaluator
//! turns each step into either a membership test (all columns bound) or a
//! probe of the predicate's join index keyed on the bound columns.
//!
//! The cost model is greedy most-bound-first with statistics quantized to
//! powers of two for predicates defined by facts (the `makeP` EDB
//! relations) and flat defaults for intensional ones. Fully bound atoms
//! are always hoisted; otherwise the estimated candidate count decides.
//!
//! Plans cover the rules with a body only, numbered in program order:
//! a fact has nothing to plan.
//!
//! Planning is on the critical path of every guess in the `makeP` fleet,
//! and only a small part of a `makeP` program ever fires. So a [`Plan`]
//! holds its rules and the statistics they are planned under, and plans
//! a (rule, delta position) the first time the evaluator needs it
//! ([`Plan::join_order`]): the plan fills in, and every later run under
//! it reads what the first one planned. The plans of a [`PlanCache`]
//! share one pool that plans each *body signature* (canonicalized term
//! structure plus statistics) once per delta position (`BodyPlan`), so
//! a join order depends on its rule's signature alone and is the one an
//! eager planner gives. A guess evaluated on its fleet's base program as
//! a *delta* ([`PlanCache::plan_delta`]) adds only the delta's rules to
//! the base's plan, and one delta plan serves every delta whose rules it
//! holds ([`Plan::fits`]).

use crate::ast::{PredId, Program, Rule, Term};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cheap word-mixing hasher for the planner's maps (and the `makeP`
/// encoder's): SipHash on multi-word keys showed up as the planner's
/// single largest cost on the fleet.
#[derive(Default)]
pub struct FxWords(u64);

impl Hasher for FxWords {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map under [`FxWords`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxWords>>;

/// One join step: probe body atom `pos` with `cols` bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// The body position being solved at this step.
    pub pos: usize,
    /// The argument columns whose values are known when the probe
    /// happens (constants plus already-bound variables), as a bitmask;
    /// 0 when one of them lies beyond the 64th, so that no index can
    /// serve the probe.
    pub cols: u64,
    /// Whether *every* argument is known — the probe degenerates to a
    /// membership test on the tuple arena.
    pub fully_bound: bool,
}

impl JoinStep {
    /// Whether the step probes a join index: some columns, all among the
    /// first 64, are known, but not all.
    pub(crate) fn probes(&self) -> bool {
        !self.fully_bound && self.cols != 0
    }
}

/// The join order for one (rule, delta-position) pair.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlan {
    /// The remaining body atoms in join order (the delta atom itself is
    /// excluded — it is matched first, against the new tuple).
    pub steps: Vec<JoinStep>,
}

/// The join orders of one *body shape*, shared by every rule whose body
/// has the same canonical term structure and statistics: `per_delta[bi]`
/// is the plan when body atom `bi` is the delta, made when first needed.
#[derive(Debug)]
struct BodyPlan {
    per_delta: Box<[OnceLock<DeltaPlan>]>,
}

/// Default estimated relation size for intensional predicates.
const DEFAULT_SIZE: f64 = 256.0;
/// Default estimated distinct values per column.
const DEFAULT_DISTINCT: f64 = 8.0;

/// Per-predicate statistics driving the cost model, quantized to powers
/// of two: the greedy planner only needs order-of-magnitude selectivity,
/// and coarse stats let same-shaped rules share one memoized plan.
/// Predicate `p`'s values, `vals[at[p]..at[p + 1]]`, are its estimated
/// size, then per column the reciprocal of its distinct values.
#[derive(Debug)]
struct Stats {
    at: Vec<u32>,
    vals: Vec<f64>,
}

impl Stats {
    /// The size, then the reciprocal distinct count per column, of `p`.
    fn of(&self, p: PredId) -> &[f64] {
        &self.vals[self.at[p.0 as usize] as usize..self.at[p.0 as usize + 1] as usize]
    }
}

/// Memo of [`BodyPlan`]s keyed by body signature, with the signature
/// scratch.
#[derive(Debug, Default)]
struct BodyPool {
    entries: FxMap<Vec<u64>, Arc<BodyPlan>>,
    sig: Vec<u64>,
    canon: Vec<u32>,
}

impl BodyPool {
    /// The body plan of `rule` under `stats`: the pooled one of its
    /// signature, or a new one with nothing planned yet.
    fn body(&mut self, rule: &Rule, stats: &Stats) -> Arc<BodyPlan> {
        let n_vars = rule_n_vars(rule);
        if self.canon.len() < n_vars {
            self.canon.resize(n_vars, u32::MAX);
        }
        body_signature(rule, stats, &mut self.sig, &mut self.canon);
        if let Some(body) = self.entries.get(self.sig.as_slice()) {
            return Arc::clone(body);
        }
        let per_delta = rule.body.iter().map(|_| OnceLock::new()).collect();
        let body = Arc::new(BodyPlan { per_delta });
        self.entries.insert(self.sig.clone(), Arc::clone(&body));
        body
    }
}

/// The body plans a cache's plans share, and the join orders planned
/// into them so far. Runs under shared plans fill it concurrently.
#[derive(Debug, Default)]
struct Pool {
    memo: Mutex<BodyPool>,
    planned: AtomicUsize,
}

impl Pool {
    /// The pooled body plan of `rule` under `stats`. A panic while the
    /// memo was locked may have left its scratch half-written: the memo
    /// then starts over empty and the poison is cleared, so that it
    /// outlives no more than the run that caused it.
    fn body(&self, rule: &Rule, stats: &Stats) -> Arc<BodyPlan> {
        let mut memo = self.memo.lock().unwrap_or_else(|poisoned| {
            let mut memo = poisoned.into_inner();
            *memo = BodyPool::default();
            self.memo.clear_poison();
            memo
        });
        memo.body(rule, stats)
    }
}

/// The plan of a program's rules with bodies, numbered in program order
/// with facts skipped: the plan of the base program it extends, if any,
/// then its own rules, each with the body plan of its signature, bound
/// when one of its join orders is first needed.
#[derive(Debug)]
pub struct Plan {
    /// The plan of the base program this one extends (a delta plan):
    /// its rules come first.
    base: Option<Arc<Plan>>,
    /// The number of the base plan's rules (0 without one): the own
    /// rules' numbers start there.
    first: usize,
    /// The own rules, and the program index of each.
    rules: Box<[Arc<Rule>]>,
    ids: Box<[u32]>,
    /// Whether `ids` ascend.
    ids_sorted: bool,
    bodies: Box<[OnceLock<Arc<BodyPlan>>]>,
    stats: Stats,
    pool: Arc<Pool>,
    /// The uses of the own rules' body predicates.
    uses: Uses,
    max_vars: usize,
    /// Whether a fact of the delta defines a predicate one of the own
    /// rules reads (delta plans only).
    reads_own_facts: bool,
}

impl Plan {
    /// The plan for `program`, with nothing planned yet.
    pub fn new(program: &Program) -> Plan {
        let rules = program.rules();
        Plan::build(
            &Arc::default(),
            program,
            None,
            0..rules.len() as u32,
            rules.iter(),
        )
    }

    /// The plan of `program`'s rules at `own` (after `base`'s) under the
    /// statistics of the facts among `facts`.
    fn build<'r>(
        pool: &Arc<Pool>,
        program: &Program,
        base: Option<Arc<Plan>>,
        own: impl Iterator<Item = u32>,
        facts: impl Iterator<Item = &'r Arc<Rule>>,
    ) -> Plan {
        let all = program.rules();
        let (ids, rules): (Vec<u32>, Vec<Arc<Rule>>) = own
            .map(|ri| (ri, Arc::clone(&all[ri as usize])))
            .filter(|(_, r)| !r.is_fact())
            .unzip();
        let first = base.as_ref().map_or(0, |b| b.n_rules());
        let numbered = rules.iter().enumerate().map(|(k, r)| (first + k, &**r));
        let uses = Uses::new(program, numbered);
        let own_vars = rules.iter().map(|r| rule_n_vars(r)).max().unwrap_or(0);
        Plan {
            max_vars: base.as_ref().map_or(0, |b| b.max_vars).max(own_vars),
            base,
            first,
            bodies: rules.iter().map(|_| OnceLock::new()).collect(),
            rules: rules.into(),
            ids_sorted: ids.windows(2).all(|w| w[0] < w[1]),
            ids: ids.into(),
            stats: collect_stats(program, facts.map(|r| &**r)),
            pool: Arc::clone(pool),
            uses,
            reads_own_facts: false,
        }
    }

    /// The number of rules with a body the plan covers.
    pub fn n_rules(&self) -> usize {
        self.first + self.rules.len()
    }

    /// The base plan this one extends, if it is a delta plan.
    pub(crate) fn base(&self) -> Option<&Arc<Plan>> {
        self.base.as_ref()
    }

    /// The number of the own rule at program index `ri`, if it is one.
    pub fn own_rule(&self, ri: u32) -> Option<usize> {
        let at = match self.ids.binary_search(&ri) {
            Ok(at) if self.ids_sorted => Some(at),
            _ if self.ids_sorted => None,
            _ => self.ids.iter().position(|&id| id == ri),
        };
        at.map(|at| self.first + at)
    }

    /// The number of own rules.
    pub(crate) fn n_own(&self) -> usize {
        self.rules.len()
    }

    /// The `k`-th rule with a body.
    #[inline]
    pub fn rule(&self, k: usize) -> &Rule {
        match &self.base {
            Some(base) if k < self.first => base.rule(k),
            _ => &self.rules[k - self.first],
        }
    }

    /// The program index of the `k`-th rule with a body.
    #[inline]
    pub(crate) fn id(&self, k: usize) -> u32 {
        match &self.base {
            Some(base) if k < self.first => base.id(k),
            _ => self.ids[k - self.first],
        }
    }

    /// The join order of rule `k` with body atom `bi` as the delta, if it
    /// was planned already.
    #[inline]
    pub(crate) fn planned(&self, k: usize, bi: usize) -> Option<&DeltaPlan> {
        match &self.base {
            Some(base) if k < self.first => base.planned(k, bi),
            _ => self.bodies[k - self.first].get()?.per_delta[bi].get(),
        }
    }

    /// The join order of rule `k` with body atom `bi` as the delta,
    /// planned now if no run planned it before.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `bi` is out of range.
    pub fn join_order(&self, k: usize, bi: usize) -> &DeltaPlan {
        self.fill(k, bi).0
    }

    /// [`Plan::join_order`], and whether this call planned it.
    pub(crate) fn fill(&self, k: usize, bi: usize) -> (&DeltaPlan, bool) {
        if let Some(base) = self.base.as_ref().filter(|_| k < self.first) {
            return base.fill(k, bi);
        }
        let own = k - self.first;
        let rule = &*self.rules[own];
        let body = self.bodies[own].get_or_init(|| self.pool.body(rule, &self.stats));
        let mut planned = false;
        let order = body.per_delta[bi].get_or_init(|| {
            planned = true;
            plan_delta(rule, bi, &self.stats)
        });
        if planned {
            self.pool.planned.fetch_add(1, Ordering::Relaxed);
        }
        (order, planned)
    }

    /// Every (rule, body position) in which predicate `p` occurs — where
    /// a delta atom of `p` can fire — in rule order.
    pub fn uses(&self, p: PredId) -> impl Iterator<Item = &(u32, u32)> {
        self.uses_by_layer(p).into_iter().flatten()
    }

    /// [`Plan::uses`] as two runs: the base plan's, then this plan's.
    #[inline]
    pub(crate) fn uses_by_layer(&self, p: PredId) -> [&[(u32, u32)]; 2] {
        let base = self.base.as_ref().map_or(&[][..], |b| b.own_uses(p));
        [base, self.own_uses(p)]
    }

    fn own_uses(&self, p: PredId) -> &[(u32, u32)] {
        self.uses.of(p)
    }

    /// The largest `n_vars` over all rules (shared substitution buffer
    /// size).
    pub fn max_vars(&self) -> usize {
        self.max_vars
    }

    /// Whether `program`'s rules at `delta`, whose rules with a body are
    /// among this delta plan's own, evaluate under this plan with the
    /// join orders a plan of their own would give: no fact of this plan's
    /// delta or of `delta` defines a predicate one of its own rules reads,
    /// so they were planned under the statistics `delta`'s plan would
    /// use. The rules of a `makeP` guess and of its fleet's `U` read no
    /// predicate their facts define.
    pub fn fits(&self, program: &Program, delta: &[u32]) -> bool {
        !self.reads_own_facts && !self.reads_facts_of(program, delta)
    }

    /// Whether a fact of `program`'s rules at `delta` defines a predicate
    /// one of the own rules reads.
    fn reads_facts_of(&self, program: &Program, delta: &[u32]) -> bool {
        let facts = delta.iter().map(|&ri| &program.rules()[ri as usize]);
        let mut facts = facts.filter(|r| r.is_fact());
        facts.any(|r| !self.own_uses(r.head.pred).is_empty())
    }
}

/// For each predicate, every (rule, body position) of a run of rules
/// where it occurs — the semi-naive "uses" of a delta atom:
/// `list[at[p]..at[p + 1]]`.
#[derive(Debug)]
pub(crate) struct Uses {
    at: Vec<u32>,
    list: Vec<(u32, u32)>,
}

impl Uses {
    /// The uses of `rules`, each with its number, over `program`'s
    /// predicates.
    pub(crate) fn new<'r>(
        program: &Program,
        rules: impl Iterator<Item = (usize, &'r Rule)> + Clone,
    ) -> Uses {
        let n_preds = program.predicates().count();
        let mut at = vec![0u32; n_preds + 1];
        for atom in rules.clone().flat_map(|(_, r)| &r.body) {
            at[atom.pred.0 as usize + 1] += 1;
        }
        for p in 0..n_preds {
            at[p + 1] += at[p];
        }
        let mut list = vec![(0, 0); at[n_preds] as usize];
        let mut next = at.clone();
        for (k, rule) in rules {
            for (bi, atom) in rule.body.iter().enumerate() {
                let at = &mut next[atom.pred.0 as usize];
                list[*at as usize] = (k as u32, bi as u32);
                *at += 1;
            }
        }
        Uses { at, list }
    }

    /// The uses of `p`, in rule order.
    pub(crate) fn of(&self, p: PredId) -> &[(u32, u32)] {
        let p = p.0 as usize;
        match (self.at.get(p), self.at.get(p + 1)) {
            (Some(&lo), Some(&hi)) => &self.list[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Plans the programs of a `makeP` guess fleet from one pool of body
/// plans.
///
/// Every plan starts with nothing planned and fills in as runs need its
/// join orders ([`Plan::join_order`]). A join order depends on its
/// rule's body signature alone, so the pool plans each signature and
/// delta position once, whichever plan of the cache needs it first; a
/// clone of the cache shares its pool. A base program's plan
/// ([`PlanCache::plan_prefix`]) serves every delta on it
/// ([`PlanCache::plan_delta`]), which adds only the delta's own rules.
/// Every plan decides what [`Plan::new`] of its whole program decides,
/// except that a delta's base rules keep the base's plan.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    pool: Arc<Pool>,
    computed: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of plans made so far through this cache: program, base and
    /// delta plans.
    pub fn len(&self) -> usize {
        self.computed
    }

    /// Whether no plan has been made yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Join orders planned so far into the pool, by any run under any of
    /// its plans: one per body signature and delta position.
    pub fn rules_planned(&self) -> usize {
        self.pool.planned.load(Ordering::Relaxed)
    }

    /// The plan for `program`.
    pub fn plan(&mut self, program: &Program) -> Arc<Plan> {
        self.plan_prefix(program, program.rules().len())
    }

    /// The plan for the program of `program`'s first `len` rules: the
    /// base of [`PlanCache::plan_delta`].
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the number of rules.
    pub fn plan_prefix(&mut self, program: &Program, len: usize) -> Arc<Plan> {
        let prefix = &program.rules()[..len];
        self.computed += 1;
        let plan = Plan::build(&self.pool, program, None, 0..len as u32, prefix.iter());
        Arc::new(plan)
    }

    /// The plan for `program`'s rules at `delta` evaluated on top of its
    /// first `base_len` rules, whose plan is `base`
    /// ([`PlanCache::plan_prefix`]): the delta's rules with a body,
    /// numbered after the base's and planned under the statistics of the
    /// base's facts and the delta's; the base's rules keep `base`'s
    /// plans.
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself a delta's plan, or an index is out of
    /// range.
    pub fn plan_delta(
        &mut self,
        program: &Program,
        base: &Arc<Plan>,
        base_len: usize,
        delta: &[u32],
    ) -> Arc<Plan> {
        assert!(
            base.base.is_none(),
            "a delta plan extends a base program's plan"
        );
        let all = program.rules();
        let facts = all[..base_len]
            .iter()
            .chain(delta.iter().map(|&ri| &all[ri as usize]));
        let own = delta.iter().copied();
        let mut plan = Plan::build(&self.pool, program, Some(Arc::clone(base)), own, facts);
        plan.reads_own_facts = plan.reads_facts_of(program, delta);
        self.computed += 1;
        Arc::new(plan)
    }
}

/// One more than the largest variable id in `rule`.
pub(crate) fn rule_n_vars(rule: &Rule) -> usize {
    let atoms = std::iter::once(&rule.head).chain(&rule.body);
    let vars = atoms.flat_map(|a| &a.terms).filter_map(|t| match t {
        Term::Var(v) => Some(*v as usize + 1),
        Term::Const(_) => None,
    });
    vars.max().unwrap_or(0)
}

/// Everything [`plan_delta`] reads from a rule body, flattened to words:
/// per atom, its statistics (as raw f64 bits) and its term structure,
/// *canonicalized* — constants collapse to one token and variables are
/// renumbered by first occurrence — so the large rule families `makeP`
/// emits collapse to a handful of signatures with byte-identical join
/// orders. `canon` is scratch mapping var id → canonical id,
/// `u32::MAX`-filled throughout.
fn body_signature(rule: &Rule, stats: &Stats, sig: &mut Vec<u64>, canon: &mut [u32]) {
    sig.clear();
    let mut next = 0u32;
    for atom in &rule.body {
        sig.extend(stats.of(atom.pred).iter().map(|v| v.to_bits()));
        sig.push(0xa707); // atom separator
        for t in &atom.terms {
            sig.push(match t {
                Term::Var(v) => {
                    let c = &mut canon[*v as usize];
                    if *c == u32::MAX {
                        *c = next;
                        next += 1;
                    }
                    (1u64 << 32) | *c as u64
                }
                Term::Const(_) => 2u64 << 32,
            });
        }
    }
    for t in rule.body.iter().flat_map(|a| &a.terms) {
        if let Term::Var(v) = t {
            canon[*v as usize] = u32::MAX;
        }
    }
}

/// Rounds a count up to a power of two (the quantization grid).
fn quantize(n: f64) -> f64 {
    (n.max(1.0) as u64).next_power_of_two() as f64
}

/// Statistics over `program`'s predicates: for those defined by the
/// facts among `rules`, quantized from them; defaults otherwise.
fn collect_stats<'r>(program: &Program, rules: impl Iterator<Item = &'r Rule>) -> Stats {
    let mut at = vec![0u32];
    for p in program.predicates() {
        at.push(at[p.0 as usize] + 1 + program.pred_arity(p) as u32);
    }
    let mut vals = vec![1.0 / quantize(DEFAULT_DISTINCT); *at.last().unwrap_or(&0) as usize];
    let mut counts = vec![0usize; at.len() - 1];
    // One bit per (column value index, constant): a column's distinct
    // constants are its set bits.
    let words = program.n_constants().div_ceil(64).max(1);
    let mut seen = vec![0u64; vals.len() * words];
    for rule in rules.filter(|r| r.is_fact()) {
        let p = rule.head.pred.0 as usize;
        counts[p] += 1;
        for (col, t) in rule.head.terms.iter().enumerate() {
            if let Term::Const(c) = t {
                let (i, c) = (at[p] as usize + 1 + col, c.0 as usize);
                seen[i * words + c / 64] |= 1 << (c % 64);
            }
        }
    }
    for (p, &count) in counts.iter().enumerate() {
        let (lo, hi) = (at[p] as usize, at[p + 1] as usize);
        let size = if count == 0 {
            DEFAULT_SIZE
        } else {
            count as f64
        };
        vals[lo] = quantize(size);
        for i in (lo + 1..hi).filter(|_| count > 0) {
            let bits = &seen[i * words..][..words];
            vals[i] = 1.0 / quantize(bits.iter().map(|w| w.count_ones()).sum::<u32>() as f64);
        }
    }
    Stats { at, vals }
}

/// Greedy most-bound-first order for one (rule, delta-position) pair.
fn plan_delta(rule: &Rule, delta_pos: usize, stats: &Stats) -> DeltaPlan {
    let mut bound = vec![false; rule_n_vars(rule)];
    let bind = |bound: &mut [bool], pos: usize| {
        for t in &rule.body[pos].terms {
            if let Term::Var(v) = *t {
                bound[v as usize] = true;
            }
        }
    };
    bind(&mut bound, delta_pos);
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&b| b != delta_pos).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Pick the cheapest next atom; ties resolve to the lowest body
        // position so plans are deterministic.
        let mut choice = 0usize;
        let mut best = f64::INFINITY;
        for (i, &pos) in remaining.iter().enumerate() {
            let c = cost(rule, pos, &bound, stats);
            if c < best {
                best = c;
                choice = i;
            }
        }
        let pos = remaining.remove(choice);
        let atom = &rule.body[pos];
        let (mut cols, mut known_cols) = (0u64, 0usize);
        for (col, _) in atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| known(t, &bound))
        {
            cols |= 1u64.checked_shl(col as u32).unwrap_or(0);
            known_cols += 1;
        }
        if known_cols != cols.count_ones() as usize {
            cols = 0;
        }
        steps.push(JoinStep {
            pos,
            cols,
            fully_bound: known_cols == atom.terms.len(),
        });
        bind(&mut bound, pos);
    }
    DeltaPlan { steps }
}

/// Whether the value of `t` is known: a constant, or a bound variable.
fn known(t: &Term, bound: &[bool]) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) => bound[*v as usize],
    }
}

/// Estimated candidates to scan when probing body atom `pos` given the
/// currently bound variables.
fn cost(rule: &Rule, pos: usize, bound: &[bool], stats: &Stats) -> f64 {
    let atom = &rule.body[pos];
    let st = stats.of(atom.pred);
    let mut est = st[0];
    let mut fully = true;
    for (t, inv_distinct) in atom.terms.iter().zip(&st[1..]) {
        if known(t, bound) {
            est *= inv_distinct;
        } else {
            fully = false;
        }
    }
    if fully {
        // A membership test beats any enumeration.
        return 0.5;
    }
    est.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Program, Term};
    use std::collections::BTreeSet;

    /// The steps of rule `k`'s join order at delta position `bi`, with
    /// the (predicate, columns) each probe keys on.
    fn steps_of(plan: &Plan, k: usize, bi: usize) -> Vec<(JoinStep, Option<(PredId, u64)>)> {
        let rule = plan.rule(k);
        let order = plan.join_order(k, bi);
        let probe = |s: &JoinStep| s.probes().then(|| (rule.body[s.pos].pred, s.cols));
        order.steps.iter().map(|s| (s.clone(), probe(s))).collect()
    }

    #[test]
    fn fully_bound_atoms_are_hoisted() {
        // r(X) :- p(X), q(X), edge(X, Y) with delta = edge: p and q become
        // fully bound checks and must precede nothing unbound — any order
        // of the two is fine but both are fully_bound.
        let mut prog = Program::new();
        let p = prog.predicate("p", 1);
        let q = prog.predicate("q", 1);
        let edge = prog.predicate("edge", 2);
        let r = prog.predicate("r", 1);
        let a = prog.constant("a");
        let b = prog.constant("b");
        prog.fact(edge, vec![a, b]).unwrap();
        prog.rule(
            Atom::new(r, vec![Term::Var(0)]),
            vec![
                Atom::new(p, vec![Term::Var(0)]),
                Atom::new(q, vec![Term::Var(0)]),
                Atom::new(edge, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let steps = steps_of(&plan, 0, 2); // the fact has no plan; delta = edge
        assert_eq!(steps.len(), 2);
        assert!(steps
            .iter()
            .all(|(s, probe)| s.fully_bound && probe.is_none()));
        assert_eq!((plan.n_rules(), plan.id(0), plan.max_vars()), (1, 1, 2));
        // Delta uses: edge occurs at (rule 0, position 2).
        assert!(plan.uses(edge).eq(&[(0, 2)]));
        assert!(plan.uses(r).next().is_none());
    }

    #[test]
    fn selective_edb_atom_ordered_after_binding_atom() {
        // goal(Y) :- big(X), link(X, Y) with delta = big: link must be
        // probed with column 0 bound.
        let mut prog = Program::new();
        let big = prog.predicate("big", 1);
        let link = prog.predicate("link", 2);
        let goal = prog.predicate("goal", 1);
        let consts: Vec<_> = (0..10).map(|i| prog.constant(&format!("c{i}"))).collect();
        for w in consts.windows(2) {
            prog.fact(link, vec![w[0], w[1]]).unwrap();
        }
        prog.rule(
            Atom::new(goal, vec![Term::Var(1)]),
            vec![
                Atom::new(big, vec![Term::Var(0)]),
                Atom::new(link, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let steps = steps_of(&plan, 0, 0);
        assert_eq!(steps.len(), 1);
        let (step, probe) = &steps[0];
        assert_eq!((step.pos, step.cols, step.fully_bound), (1, 1, false));
        assert_eq!(*probe, Some((link, 1)));
    }

    #[test]
    fn constants_count_as_bound_columns() {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let out = prog.predicate("out", 1);
        let a = prog.constant("a");
        let trigger = prog.predicate("t", 0);
        prog.rule(
            Atom::new(out, vec![Term::Var(0)]),
            vec![
                Atom::new(trigger, vec![]),
                Atom::new(e, vec![Term::Const(a), Term::Var(0)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let steps = steps_of(&plan, 0, 0);
        assert_eq!((steps[0].0.pos, steps[0].0.cols), (1, 1));
    }

    /// `tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).`
    fn triangle() -> (Program, PredId) {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let tri = prog.predicate("tri", 3);
        prog.rule(
            Atom::new(tri, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                Atom::new(e, vec![Term::Var(2), Term::Var(0)]),
            ],
        )
        .unwrap();
        (prog, e)
    }

    #[test]
    fn every_delta_position_gets_a_plan() {
        let (prog, e) = triangle();
        let plan = Plan::new(&prog);
        assert!(plan.uses(e).eq(&[(0, 0), (0, 1), (0, 2)]));
        let mut probed = BTreeSet::new();
        for bi in 0..3 {
            let steps = steps_of(&plan, 0, bi);
            assert_eq!(steps.len(), 2);
            // Each remaining atom shares a variable with what is already
            // bound, so every probe has at least one bound column.
            for (s, probe) in steps {
                assert_ne!(s.pos, bi);
                assert_ne!(s.cols, 0);
                probed.extend(probe);
            }
        }
        // `e` is probed on column 0 and on column 1.
        assert_eq!(probed.len(), 2);
        assert_eq!(plan.max_vars(), 3);
    }

    #[test]
    fn join_orders_are_planned_on_demand_and_once() {
        let (prog, _) = triangle();
        let mut cache = PlanCache::new();
        let plan = cache.plan(&prog);
        assert_eq!((cache.len(), cache.rules_planned()), (1, 0));
        assert!((0..3).all(|bi| plan.planned(0, bi).is_none()));
        let (_, planned) = plan.fill(0, 1);
        assert!(planned);
        assert!(plan.planned(0, 1).is_some() && plan.planned(0, 0).is_none());
        assert_eq!(cache.rules_planned(), 1);
        // A second plan of the program reads the pooled join order.
        let again = cache.plan(&prog);
        assert!(!again.fill(0, 1).1);
        assert!(std::ptr::eq(again.join_order(0, 1), plan.join_order(0, 1)));
        assert_eq!((cache.len(), cache.rules_planned()), (2, 1));
    }

    #[test]
    fn structurally_identical_rules_share_their_join_orders() {
        // Two transitive-closure-style rules over different predicates but
        // identical term shapes and statistics: one join order per delta
        // position, each rule probing its own predicate.
        let mut prog = Program::new();
        let e1 = prog.predicate("e1", 2);
        let e2 = prog.predicate("e2", 2);
        let a1 = prog.predicate("a1", 1);
        let a2 = prog.predicate("a2", 1);
        for (a, e) in [(a1, e1), (a2, e2)] {
            prog.rule(
                Atom::new(a, vec![Term::Var(1)]),
                vec![
                    Atom::new(a, vec![Term::Var(0)]),
                    Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                ],
            )
            .unwrap();
        }
        let plan = Plan::new(&prog);
        assert!(std::ptr::eq(plan.join_order(0, 0), plan.join_order(1, 0)));
        assert_eq!(steps_of(&plan, 0, 0)[0].1, Some((e1, 1)));
        assert_eq!(steps_of(&plan, 1, 0)[0].1, Some((e2, 1)));
    }

    /// Everything a plan decides, with every join order planned and each
    /// probe resolved to the (predicate, columns) it keys on: two plans of
    /// `prog` with equal flattenings join identically.
    fn decisions(plan: &Plan, prog: &Program) -> Vec<String> {
        let mut out = vec![format!("max_vars {}", plan.max_vars())];
        for k in 0..plan.n_rules() {
            out.push(format!("rule {k}: {}", plan.id(k)));
            for bi in 0..plan.rule(k).body.len() {
                out.push(format!("{bi}: {:?}", steps_of(plan, k, bi)));
            }
        }
        for p in prog.predicates() {
            out.push(format!(
                "uses {p:?}: {:?}",
                plan.uses(p).collect::<Vec<_>>()
            ));
        }
        out
    }

    /// A program of `n_facts` facts `e(c_i, c_i+1)`, then
    /// `path(X, Y) :- e(X, Y).  path(X, Z) :- path(X, Y), e(Y, Z).`, then
    /// one more rule `out(X) :- path(k, X)`.
    fn around(n_facts: usize, k: &str) -> Program {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let path = prog.predicate("path", 2);
        let out = prog.predicate("out", 1);
        let k = prog.constant(k);
        for i in 0..n_facts {
            let a = prog.constant(&format!("c{i}"));
            let b = prog.constant(&format!("c{}", i + 1));
            prog.fact(e, vec![a, b]).unwrap();
        }
        let (x, y, z) = (Term::Var(0), Term::Var(1), Term::Var(2));
        prog.rule(Atom::new(path, vec![x, y]), vec![Atom::new(e, vec![x, y])])
            .unwrap();
        prog.rule(
            Atom::new(path, vec![x, z]),
            vec![Atom::new(path, vec![x, y]), Atom::new(e, vec![y, z])],
        )
        .unwrap();
        prog.rule(
            Atom::new(out, vec![x]),
            vec![Atom::new(path, vec![Term::Const(k), x])],
        )
        .unwrap();
        prog
    }

    #[test]
    fn body_shapes_are_planned_once_per_statistics_key() {
        let mut cache = PlanCache::new();
        // The join orders a program's plan computes, all of them forced.
        let mut planned = |prog: &Program| {
            let before = cache.rules_planned();
            let plan = cache.plan(prog);
            let decided = decisions(&plan, prog);
            assert_eq!(decided, decisions(&Plan::new(prog), prog));
            cache.rules_planned() - before
        };
        // Three and four facts both quantize to four: the second program
        // plans nothing, though its body constant differs.
        assert_eq!(planned(&around(3, "c0")), 4);
        assert_eq!(planned(&around(4, "c2")), 0);
        // The statistics of `e` changed magnitude: the rules reading it
        // are planned again, `out` is not.
        assert_eq!(planned(&around(40, "c0")), 3);
    }

    #[test]
    fn a_delta_plan_serves_the_deltas_whose_rules_it_holds() {
        // The base: facts `e` and the path rules. After it: `out(X) :-
        // path(c0, X)`, `back(X) :- e(X, c1)`, and a `flag` fact that no
        // rule reads.
        let mut prog = around(3, "c0");
        prog.split_rules_off(prog.rules().len() - 1);
        let base_len = prog.rules().len();
        let (e, path) = (
            prog.lookup_pred("e").unwrap(),
            prog.lookup_pred("path").unwrap(),
        );
        let (out, back, flag) = (
            prog.predicate("out", 1),
            prog.predicate("back", 1),
            prog.predicate("flag", 1),
        );
        let (c0, c1) = (prog.constant("c0"), prog.constant("c1"));
        let x = Term::Var(0);
        prog.rule(
            Atom::new(out, vec![x]),
            vec![Atom::new(path, vec![Term::Const(c0), x])],
        )
        .unwrap();
        prog.rule(
            Atom::new(back, vec![x]),
            vec![Atom::new(e, vec![x, Term::Const(c1)])],
        )
        .unwrap();
        prog.fact(flag, vec![c0]).unwrap();
        let at = |i: usize| (base_len + i) as u32;
        let mut cache = PlanCache::new();
        let base = cache.plan_prefix(&prog, base_len);
        let union = cache.plan_delta(&prog, &base, base_len, &[at(0), at(1), at(2)]);
        assert_eq!(
            (union.n_rules(), union.id(2), union.id(3)),
            (4, at(0), at(1))
        );
        assert!(union.fits(&prog, &[at(0)]) && union.fits(&prog, &[at(1), at(2)]));
        // A fact of `e`, which `back` reads, would change the statistics
        // `back` was planned under.
        let mut fed = prog.clone();
        fed.fact(e, vec![c1, c1]).unwrap();
        assert!(!union.fits(&fed, &[at(1), at(3)]));
        let fed_union = cache.plan_delta(&fed, &base, base_len, &[at(0), at(1), at(3)]);
        assert!(!fed_union.fits(&fed, &[at(0)]));
        // The base's rules keep the base's plans.
        assert!(std::ptr::eq(union.join_order(1, 0), base.join_order(1, 0)));
    }

    #[test]
    fn a_poisoned_pool_is_reset_and_cleared() {
        let (prog, _) = triangle();
        let plan = Arc::new(Plan::new(&prog));
        let poisoner = Arc::clone(&plan);
        let joined = std::thread::spawn(move || {
            let _memo = poisoner.pool.memo.lock().unwrap();
            panic!("poison the pool");
        })
        .join();
        assert!(joined.is_err() && plan.pool.memo.is_poisoned());
        assert_eq!(plan.join_order(0, 0).steps.len(), 2);
        assert!(!plan.pool.memo.is_poisoned());
    }
}
