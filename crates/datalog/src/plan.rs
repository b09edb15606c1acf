//! Static join planner: orders rule bodies most-bound-first.
//!
//! For every rule and every choice of *delta position* (the body atom
//! matched against a newly derived tuple in semi-naive evaluation), the
//! planner fixes — once, at program load — the order in which the
//! remaining body atoms are joined and which argument columns are bound
//! when each of them is probed. The evaluator turns each step into either
//! a membership test (all columns bound) or a probe of a column-keyed
//! index (some columns bound), so the plan fully determines which indices
//! an evaluation can ever need: they are enumerated here and addressed by
//! dense *slot* ids, sparing the evaluator a hash lookup per probe.
//!
//! The cost model is greedy most-bound-first with statistics quantized to
//! powers of two for predicates defined by facts (the `makeP` EDB
//! relations) and flat defaults for intensional ones. Fully bound atoms
//! are always hoisted; otherwise the estimated candidate count decides.
//!
//! Planning is on the critical path of every guess in the `makeP` fleet.
//! A [`PlanCache`] plans each *body signature* (canonicalized term
//! structure plus statistics) once ([`BodyPlan`]), every rule keeping
//! only its own index-slot table ([`RulePlans::slots`]); and it plans the
//! rules a program shares with its template ([`Program::segment`]) once
//! per statistics key, so each guess plans only its own rules.

use crate::ast::{PredId, Program, Rule, Segment, Term};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cheap word-mixing hasher for the planner's maps: SipHash on multi-word
/// keys showed up as the planner's single largest cost on the fleet.
#[derive(Default)]
struct FxWords(u64);

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

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxWords>>;

/// The slot value meaning "this step probes no index" (fully bound, or a
/// column set that cannot be bitmask-keyed).
pub const NO_SLOT: u32 = u32::MAX;

/// One join step: probe body atom `pos` with `cols` bound. The index slot
/// probed, if any, lives in the owning rule's [`RulePlans::slots`] (steps
/// are shared between rules, slots are not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// The body position being solved at this step.
    pub pos: usize,
    /// The argument columns (ascending) whose values are known when the
    /// probe happens: constants plus already-bound variables.
    pub cols: Vec<u8>,
    /// Whether *every* argument is known — the probe degenerates to a
    /// membership test on the tuple arena.
    pub fully_bound: bool,
}

/// The join order for one (rule, delta-position) pair.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlan {
    /// The remaining body atoms in join order (the delta atom itself is
    /// excluded — it is matched first, against the new tuple).
    pub steps: Vec<JoinStep>,
}

/// The join orders of one *body shape*, shared by every rule whose body
/// has the same canonical term structure and statistics.
#[derive(Debug, Clone, Default)]
pub struct BodyPlan {
    /// `per_delta[bi]` is the plan when body atom `bi` is the delta.
    pub per_delta: Vec<DeltaPlan>,
    /// Flat step offset of each delta position into a rule's
    /// [`RulePlans::slots`] table.
    offsets: Vec<usize>,
}

impl BodyPlan {
    /// The slot table range of delta position `bi`.
    #[inline]
    pub fn slot_offset(&self, bi: usize) -> usize {
        self.offsets[bi]
    }
}

/// All plans of one rule: a shared [`BodyPlan`] plus the rule's own
/// index-slot table.
#[derive(Debug, Clone, Default)]
pub struct RulePlans {
    /// The join orders, shared by every rule with the same body
    /// signature; `None` for facts.
    pub body: Option<Arc<BodyPlan>>,
    /// Dense index-slot per step, flattened over delta positions:
    /// `slots[body.slot_offset(bi) + si]` pairs with
    /// `body.per_delta[bi].steps[si]`.
    pub slots: Vec<u32>,
    /// One more than the rule's largest variable id.
    pub n_vars: usize,
    /// The distinct predicates of the rule's body: if one has an empty
    /// relation, the rule cannot fire this round.
    pub body_preds: Vec<PredId>,
}

/// A join index required by some plan step: a predicate and the bound
/// columns (ascending) the probes key on.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// The indexed predicate.
    pub pred: PredId,
    /// The key columns, ascending.
    pub cols: Vec<u8>,
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

/// The plans of a run of rules, and the index slots they add.
#[derive(Debug, Clone, Default)]
struct Rules {
    plans: Vec<RulePlans>,
    /// The specs of the slots these rules probe first, in slot order;
    /// their ids follow those of the run planned before (the template
    /// segment's, for a program's own rules).
    indices: Vec<IndexSpec>,
    slot_ids: FxMap<(u64, u64), u32>,
}

/// The static plan for a whole program: its template segment's shared
/// plan, if it has one, plus the plans of its own rules.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The template segment's plans and the index of its first rule.
    template: Option<(usize, Arc<Rules>)>,
    /// Every other rule, in program order.
    own: Rules,
    /// For each predicate, every (rule, body position) where it occurs —
    /// the semi-naive "uses" of a delta atom.
    uses: Vec<Vec<(u32, u32)>>,
    max_vars: usize,
}

/// The bitmask of a sorted column set (all columns < 64).
fn colmask(cols: &[u8]) -> u64 {
    cols.iter().fold(0u64, |m, &c| m | (1u64 << c))
}

/// Whether a column set can be served by a bitmask-keyed index.
fn indexable(cols: &[u8]) -> bool {
    !cols.is_empty() && cols.iter().all(|&c| c < 64)
}

/// Memo of [`BodyPlan`]s keyed by body signature: every body shape is
/// planned once per pool lifetime.
#[derive(Default)]
struct BodyPool {
    entries: FxMap<Vec<u64>, Arc<BodyPlan>>,
    sig: Vec<u64>,
    canon: Vec<u32>,
    bound: Vec<bool>,
    bound_list: Vec<u32>,
}

impl BodyPool {
    /// The body plan of each rule (`None` for facts), planning only the
    /// signatures never seen before.
    fn bodies<'r>(
        &mut self,
        rules: impl Iterator<Item = &'r Arc<Rule>>,
        stats: &Stats,
    ) -> Vec<Option<Arc<BodyPlan>>> {
        rules
            .map(|rule| (!rule.is_fact()).then(|| self.body(rule, stats)))
            .collect()
    }

    fn body(&mut self, rule: &Rule, stats: &Stats) -> Arc<BodyPlan> {
        let n_vars = rule_n_vars(rule);
        if self.canon.len() < n_vars {
            self.canon.resize(n_vars, u32::MAX);
            self.bound.resize(n_vars, false);
        }
        body_signature(rule, stats, &mut self.sig, &mut self.canon);
        if let Some(body) = self.entries.get(self.sig.as_slice()) {
            return Arc::clone(body);
        }
        let mut offsets = Vec::with_capacity(rule.body.len());
        let mut flat = 0usize;
        let per_delta: Vec<DeltaPlan> = (0..rule.body.len())
            .map(|bi| {
                let dp = plan_delta(rule, bi, stats, &mut self.bound, &mut self.bound_list);
                for v in self.bound_list.drain(..) {
                    self.bound[v as usize] = false;
                }
                offsets.push(flat);
                flat += dp.steps.len();
                dp
            })
            .collect();
        let body = Arc::new(BodyPlan { per_delta, offsets });
        self.entries.insert(self.sig.clone(), Arc::clone(&body));
        body
    }
}

impl Rules {
    /// Plans `rules` from their body plans, numbering new index slots
    /// after `base`'s and reusing `base`'s slot for a probe it shares.
    fn build<'r>(
        rules: impl Iterator<Item = &'r Arc<Rule>>,
        bodies: Vec<Option<Arc<BodyPlan>>>,
        base: Option<&Rules>,
    ) -> Rules {
        let first = base.map_or(0, |b| b.indices.len());
        let mut out = Rules::default();
        // Per body plan, the (predicate, slot) each step last resolved to:
        // rules sharing a body plan mostly probe the same predicates, so
        // most steps resolve with one comparison instead of a lookup.
        let mut memos: FxMap<u64, Vec<(PredId, u32)>> = FxMap::default();
        for (rule, body) in rules.zip(bodies) {
            let Some(body) = body else {
                out.plans.push(RulePlans::default());
                continue;
            };
            let n_vars = rule_n_vars(rule);
            let mut body_preds: Vec<PredId> = rule.body.iter().map(|a| a.pred).collect();
            body_preds.sort_unstable_by_key(|p| p.0);
            body_preds.dedup();
            let steps = body.per_delta.iter().flat_map(|dp| &dp.steps);
            let memo = memos
                .entry(Arc::as_ptr(&body) as u64)
                .or_insert_with(|| vec![(PredId(u32::MAX), NO_SLOT); steps.clone().count()]);
            let mut slots = Vec::with_capacity(memo.len());
            for (step, memo) in steps.zip(memo.iter_mut()) {
                let pred = rule.body[step.pos].pred;
                if step.fully_bound || !indexable(&step.cols) {
                    slots.push(NO_SLOT);
                } else if memo.0 == pred {
                    slots.push(memo.1);
                } else {
                    let key = (pred.0 as u64, colmask(&step.cols));
                    let shared = base.and_then(|b| b.slot_ids.get(&key).copied());
                    let slot = shared.unwrap_or_else(|| {
                        *out.slot_ids.entry(key).or_insert_with(|| {
                            out.indices.push(IndexSpec {
                                pred,
                                cols: step.cols.clone(),
                            });
                            (first + out.indices.len() - 1) as u32
                        })
                    });
                    *memo = (pred, slot);
                    slots.push(slot);
                }
            }
            out.plans.push(RulePlans {
                body: Some(body),
                slots,
                n_vars,
                body_preds,
            });
        }
        out
    }
}

impl Plan {
    /// Computes the plan for `program` (once per load; evaluation only
    /// reads it). Every rule is planned, a shared segment included.
    pub fn new(program: &Program) -> Plan {
        let stats = collect_stats(program);
        let bodies = BodyPool::default().bodies(program.rules().iter(), &stats);
        Plan::assemble(program, None, bodies)
    }

    /// The plan of `program` from its template plan (with the segment's
    /// start) and its own rules' body plans: the own rules' slot tables,
    /// and the `uses` table over every rule.
    fn assemble(
        program: &Program,
        template: Option<(usize, Arc<Rules>)>,
        bodies: Vec<Option<Arc<BodyPlan>>>,
    ) -> Plan {
        let rules = program.rules();
        let base = template.as_ref().map(|(_, t)| &**t);
        let at = template.as_ref().map_or(rules.len(), |(at, _)| *at);
        let end = at + base.map_or(0, |t| t.plans.len());
        let own = Rules::build(rules[..at].iter().chain(&rules[end..]), bodies, base);
        let mut uses = vec![Vec::new(); program.predicates().count()];
        for (ri, rule) in rules.iter().enumerate() {
            for (bi, atom) in rule.body.iter().enumerate() {
                uses[atom.pred.0 as usize].push((ri as u32, bi as u32));
            }
        }
        let all = own.plans.iter().chain(base.iter().flat_map(|t| &t.plans));
        let max_vars = all.map(|p| p.n_vars).max().unwrap_or(0);
        Plan {
            template,
            own,
            uses,
            max_vars,
        }
    }

    /// The number of rules the plan covers.
    pub fn n_rules(&self) -> usize {
        self.own.plans.len() + self.template.as_ref().map_or(0, |(_, t)| t.plans.len())
    }

    /// The plans of rule `ri`.
    #[inline]
    pub fn rule(&self, ri: usize) -> &RulePlans {
        match &self.template {
            Some((at, tpl)) if ri >= *at => match tpl.plans.get(ri - at) {
                Some(plans) => plans,
                None => &self.own.plans[ri - tpl.plans.len()],
            },
            _ => &self.own.plans[ri],
        }
    }

    /// Every join index any plan step can probe, in slot order.
    pub fn indices(&self) -> impl Iterator<Item = &IndexSpec> {
        let tpl = self.template.iter().flat_map(|(_, t)| &t.indices);
        tpl.chain(&self.own.indices)
    }

    /// Every (rule, body position) in which predicate `p` occurs — where
    /// a delta atom of `p` can fire.
    #[inline]
    pub fn uses(&self, p: PredId) -> &[(u32, u32)] {
        self.uses.get(p.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The largest `n_vars` over all rules (shared substitution buffer
    /// size).
    pub fn max_vars(&self) -> usize {
        self.max_vars
    }
}

/// Shares join plans between the programs of a `makeP` guess fleet.
///
/// A program's template segment ([`Program::segment`]) is planned once
/// per *statistics key* (the quantized statistics of the predicates its
/// bodies read); each program then plans only its own rules, unless an
/// earlier one had the same template plan and the same own rules and
/// statistics, whose plan it shares. Reuse is exact: a segment matches
/// by address, and its entry holds the [`Segment`], so no address is
/// reused while its plans are cached. Every plan decides what
/// [`Plan::new`] decides, up to slot numbering.
#[derive(Default)]
pub struct PlanCache {
    /// Per segment address: the segment, and the predicates its bodies
    /// read.
    reads: FxMap<u64, (Segment, BTreeSet<PredId>)>,
    /// Template plans by segment address and the statistics of `reads`.
    templates: FxMap<Vec<u64>, Arc<Rules>>,
    /// Program plans by [`own_key`].
    plans: FxMap<Vec<u64>, Arc<Plan>>,
    pool: BodyPool,
    computed: usize,
    planned: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of plans computed so far: template plans, one per segment
    /// and statistics key, and program plans, one per distinct key.
    pub fn len(&self) -> usize {
        self.computed
    }

    /// Whether no plan has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rules planned so far: each computed plan's non-fact rules.
    pub fn rules_planned(&self) -> usize {
        self.planned
    }

    /// The plan for `program`.
    pub fn plan(&mut self, program: &Program) -> Arc<Plan> {
        let stats = collect_stats(program);
        let rules = program.rules();
        let (at, template) = match program.segment() {
            None => (rules.len(), None),
            Some((at, segment)) => (at, Some((at, self.template(segment, &stats)))),
        };
        let end = at + template.as_ref().map_or(0, |(_, t)| t.plans.len());
        let own = || rules[..at].iter().chain(&rules[end..]);
        let tpl = template.as_ref().map_or(0, |(_, t)| Arc::as_ptr(t) as u64);
        let key = own_key(own(), [tpl, at as u64], &stats);
        if let Some(plan) = self.plans.get(&key) {
            return Arc::clone(plan);
        }
        let bodies = self.pool.bodies(own(), &stats);
        self.planned += bodies.iter().flatten().count();
        let plan = Arc::new(Plan::assemble(program, template, bodies));
        self.plans.insert(key, Arc::clone(&plan));
        self.computed += 1;
        plan
    }

    /// The plan of `segment` under `stats`.
    fn template(&mut self, segment: &Segment, stats: &Stats) -> Arc<Rules> {
        let at = Arc::as_ptr(segment) as *const () as u64;
        let (_, reads) = self.reads.entry(at).or_insert_with(|| {
            let reads = segment.iter().flat_map(|r| &r.body).map(|a| a.pred);
            (Arc::clone(segment), reads.collect())
        });
        // Two programs with equal keys plan the segment identically.
        let words = reads.iter().flat_map(|p| stats.of(*p)).map(|v| v.to_bits());
        let key: Vec<_> = std::iter::once(at).chain(words).collect();
        if let Some(tpl) = self.templates.get(&key) {
            return Arc::clone(tpl);
        }
        let bodies = self.pool.bodies(segment.iter(), stats);
        self.planned += bodies.iter().flatten().count();
        let tpl = Arc::new(Rules::build(segment.iter(), bodies, None));
        self.templates.insert(key, Arc::clone(&tpl));
        self.computed += 1;
        tpl
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

/// Everything `plan_delta` reads from a rule body, flattened to words:
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

/// Everything a program's plan depends on beside its template plan
/// (`first`: that plan's address and the segment's start): per own rule,
/// its body length, then its atoms' predicates, arities and terms
/// (constants collapsed), with each body predicate's statistics.
fn own_key<'r>(
    rules: impl Iterator<Item = &'r Arc<Rule>>,
    first: [u64; 2],
    stats: &Stats,
) -> Vec<u64> {
    let mut key = first.to_vec();
    for rule in rules {
        key.push(rule.body.len() as u64);
        for (i, atom) in std::iter::once(&rule.head).chain(&rule.body).enumerate() {
            if rule.is_fact() {
                break;
            }
            key.push((atom.pred.0 as u64) << 32 | atom.terms.len() as u64);
            if i > 0 {
                key.extend(stats.of(atom.pred).iter().map(|v| v.to_bits()));
            }
            key.extend(atom.terms.iter().map(|t| match t {
                Term::Var(v) => (1u64 << 32) | *v as u64,
                Term::Const(_) => 2u64 << 32,
            }));
        }
    }
    key
}

/// Rounds a count up to a power of two (the quantization grid).
fn quantize(n: f64) -> f64 {
    (n.max(1.0) as u64).next_power_of_two() as f64
}

/// Statistics for predicates defined by facts (quantized), defaults
/// otherwise.
fn collect_stats(program: &Program) -> Stats {
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
    for rule in program.rules().iter().filter(|r| r.is_fact()) {
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
/// `bound` is caller-provided scratch (all false on entry); every variable
/// set true is pushed onto `bound_list` so the caller can clear it.
fn plan_delta(
    rule: &Rule,
    delta_pos: usize,
    stats: &Stats,
    bound: &mut [bool],
    bound_list: &mut Vec<u32>,
) -> DeltaPlan {
    let mut bind = |bound: &mut [bool], pos: usize| {
        for t in &rule.body[pos].terms {
            if let Term::Var(v) = *t {
                if !bound[v as usize] {
                    bound[v as usize] = true;
                    bound_list.push(v);
                }
            }
        }
    };
    bind(bound, delta_pos);
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&b| b != delta_pos).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Pick the cheapest next atom; ties resolve to the lowest body
        // position so plans are deterministic.
        let mut choice = 0usize;
        let mut best = f64::INFINITY;
        for (i, &pos) in remaining.iter().enumerate() {
            let c = cost(rule, pos, bound, stats);
            if c < best {
                best = c;
                choice = i;
            }
        }
        let pos = remaining.remove(choice);
        let atom = &rule.body[pos];
        let cols: Vec<u8> = (0..atom.terms.len() as u8)
            .filter(|&col| known(&atom.terms[col as usize], bound))
            .collect();
        let fully_bound = cols.len() == atom.terms.len();
        steps.push(JoinStep {
            pos,
            cols,
            fully_bound,
        });
        bind(bound, pos);
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

    /// The (step, slot) pairs of one delta position.
    fn steps_of(plan: &Plan, ri: usize, bi: usize) -> Vec<(&JoinStep, u32)> {
        let rp = plan.rule(ri);
        let bp = rp.body.as_deref().expect("a rule, not a fact");
        let off = bp.slot_offset(bi);
        bp.per_delta[bi]
            .steps
            .iter()
            .enumerate()
            .map(|(si, s)| (s, rp.slots[off + si]))
            .collect()
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
        let steps = steps_of(&plan, 1, 2); // rule 0 is the fact; delta = edge
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|(s, _)| s.fully_bound));
        assert!(steps.iter().all(|(_, slot)| *slot == NO_SLOT));
        assert_eq!(plan.rule(1).n_vars, 2);
        assert_eq!(plan.rule(1).body_preds, vec![p, q, edge]);
        // Delta uses: edge occurs at (rule 1, position 2).
        assert_eq!(plan.uses(edge), &[(1, 2)]);
        assert!(plan.uses(r).is_empty());
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
        let ri = prog.rules().len() - 1;
        let steps = steps_of(&plan, ri, 0);
        assert_eq!(steps.len(), 1);
        let (step, slot) = steps[0];
        assert_eq!(step.pos, 1);
        assert_eq!(step.cols, vec![0]);
        assert!(!step.fully_bound);
        // The probe got a dense slot, and the plan exposes its spec.
        assert_ne!(slot, NO_SLOT);
        let spec = plan.indices().nth(slot as usize).unwrap();
        assert_eq!(spec.pred, link);
        assert_eq!(spec.cols, vec![0]);
    }

    #[test]
    fn constants_count_as_bound_columns() {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let out = prog.predicate("out", 1);
        let a = prog.constant("a");
        let trigger = prog.predicate("t", 0);
        let _ = a;
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
        assert_eq!(steps[0].0.pos, 1);
        assert_eq!(steps[0].0.cols, vec![0]);
    }

    #[test]
    fn every_delta_position_gets_a_plan() {
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
        let plan = Plan::new(&prog);
        let rp = plan.rule(0);
        let bp = rp.body.as_deref().unwrap();
        assert_eq!(bp.per_delta.len(), 3);
        assert_eq!(rp.body_preds, vec![e]);
        assert_eq!(plan.uses(e), &[(0, 0), (0, 1), (0, 2)]);
        for (bi, dp) in bp.per_delta.iter().enumerate() {
            assert_eq!(dp.steps.len(), 2);
            // Each remaining atom shares a variable with what is already
            // bound, so every probe has at least one bound column.
            for s in &dp.steps {
                assert_ne!(s.pos, bi);
                assert!(!s.cols.is_empty());
            }
        }
        // Both probe column sets of `e` ({0} and {1}) get distinct slots.
        assert_eq!(plan.indices().count(), 2);
        assert_eq!(plan.max_vars(), 3);
    }

    #[test]
    fn structurally_identical_rules_share_a_body_plan() {
        // Two transitive-closure-style rules over different predicates but
        // identical term shapes and statistics: one BodyPlan, two slot
        // tables (the probed predicates differ).
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
        let (b0, b1) = (plan.rule(0).body.as_ref(), plan.rule(1).body.as_ref());
        assert!(Arc::ptr_eq(b0.unwrap(), b1.unwrap()));
        // Same shape, but each rule probes its own predicate's index.
        let s0 = steps_of(&plan, 0, 0)[0].1;
        let s1 = steps_of(&plan, 1, 0)[0].1;
        assert_ne!(s0, NO_SLOT);
        assert_ne!(s1, NO_SLOT);
        assert_ne!(s0, s1, "distinct predicates need distinct indices");
        assert_eq!(plan.indices().count(), 2);
    }

    #[test]
    fn shared_slots_deduplicate_identical_probes() {
        // Two rules probing the same predicate on the same column set must
        // share one index slot (even though their body plans differ).
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let a = prog.predicate("a", 1);
        let c = prog.predicate("c", 1);
        let b = prog.predicate("b", 2);
        prog.rule(
            Atom::new(a, vec![Term::Var(1)]),
            vec![
                Atom::new(a, vec![Term::Var(0)]),
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        prog.rule(
            Atom::new(b, vec![Term::Var(0), Term::Var(1)]),
            vec![
                Atom::new(c, vec![Term::Var(0)]),
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let slots0: Vec<u32> = plan.rule(0).slots.clone();
        let slots1: Vec<u32> = plan.rule(1).slots.clone();
        let used0: Vec<u32> = slots0.into_iter().filter(|&s| s != NO_SLOT).collect();
        let used1: Vec<u32> = slots1.into_iter().filter(|&s| s != NO_SLOT).collect();
        assert!(used0.iter().any(|s| used1.contains(s)));
    }

    /// Everything a plan decides, flattened with slots resolved to the
    /// (predicate, columns) they probe: two plans of `prog` with equal
    /// flattenings join identically.
    fn decisions(plan: &Plan, prog: &Program) -> Vec<String> {
        let specs: Vec<&IndexSpec> = plan.indices().collect();
        let mut out = vec![format!("max_vars {}", plan.max_vars())];
        for ri in 0..prog.rules().len() {
            let rp = plan.rule(ri);
            out.push(format!("rule {ri}: {} {:?}", rp.n_vars, rp.body_preds));
            let Some(bp) = rp.body.as_deref() else {
                continue;
            };
            for (bi, dp) in bp.per_delta.iter().enumerate() {
                for (si, st) in dp.steps.iter().enumerate() {
                    let slot = rp.slots[bp.slot_offset(bi) + si];
                    let probe = (slot != NO_SLOT).then(|| {
                        let spec = specs[slot as usize];
                        (spec.pred, spec.cols.clone())
                    });
                    out.push(format!("{bi}.{si}: {st:?} {probe:?}"));
                }
            }
        }
        for p in prog.predicates() {
            out.push(format!("uses {p:?}: {:?}", plan.uses(p)));
        }
        out
    }

    /// A program of `n_facts` facts `e(c_i, c_i+1)`, then `segment`, then
    /// one own rule `out(X) :- e(k, X)`.
    fn around(segment: &Segment, n_facts: usize, k: &str) -> Program {
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
        prog.extend_segment(segment).unwrap();
        prog.rule(
            Atom::new(out, vec![Term::Var(0)]),
            vec![Atom::new(path, vec![Term::Const(k), Term::Var(0)])],
        )
        .unwrap();
        prog
    }

    /// `path(X, Y) :- e(X, Y).  path(X, Z) :- path(X, Y), e(Y, Z).`
    fn path_segment() -> Segment {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let path = prog.predicate("path", 2);
        let (x, y, z) = (Term::Var(0), Term::Var(1), Term::Var(2));
        prog.rule(Atom::new(path, vec![x, y]), vec![Atom::new(e, vec![x, y])])
            .unwrap();
        prog.rule(
            Atom::new(path, vec![x, z]),
            vec![Atom::new(path, vec![x, y]), Atom::new(e, vec![y, z])],
        )
        .unwrap();
        prog.split_rules_off(0).into()
    }

    #[test]
    fn template_segment_is_planned_once_per_statistics_key() {
        let seg = path_segment();
        let mut cache = PlanCache::new();
        // The plan, the plans computed so far and the rules this call
        // planned.
        let mut plan = |prog: &Program| {
            let before = cache.rules_planned();
            let plan = cache.plan(prog);
            (plan, cache.len(), cache.rules_planned() - before)
        };
        // Different facts, same quantized statistics (3 and 4 tuples both
        // round to 4) and different body constants: one segment plan,
        // and each program plans its own rule.
        let p1 = around(&seg, 3, "c0");
        let p2 = around(&seg, 4, "c2");
        let (plan1, len, planned) = plan(&p1);
        assert_eq!((len, planned), (2, 3), "template plan + program plan");
        let (plan2, len, planned) = plan(&p2);
        assert_eq!((len, planned), (3, 1));
        // The segment sits after the facts: its rules shift, its plan does
        // not.
        assert!(Arc::ptr_eq(
            plan1.rule(3).body.as_ref().unwrap(),
            plan2.rule(4).body.as_ref().unwrap()
        ));
        // Same own rules and statistics, other constants: the same plan.
        let (again, len, planned) = plan(&around(&seg, 3, "c1"));
        assert!(Arc::ptr_eq(&again, &plan1));
        assert_eq!((len, planned), (3, 0));
        // Statistics the segment reads changed magnitude: planned again.
        let p3 = around(&seg, 40, "c0");
        let (plan3, len, planned) = plan(&p3);
        assert_eq!((len, planned), (5, 3));
        // An equal segment that is another allocation is another key.
        let p4 = around(&path_segment(), 3, "c0");
        let (plan4, len, planned) = plan(&p4);
        assert_eq!((len, planned), (7, 3));
        // Every assembled plan decides exactly what a from-scratch one
        // does.
        for (prog, plan) in [(&p1, &plan1), (&p2, &plan2), (&p3, &plan3), (&p4, &plan4)] {
            assert_eq!(decisions(plan, prog), decisions(&Plan::new(prog), prog));
        }
    }

    #[test]
    fn cached_plans_decide_what_fresh_plans_decide() {
        let seg = path_segment();
        let prog = around(&seg, 3, "c0");
        let plan = PlanCache::new().plan(&prog);
        assert_eq!(decisions(&plan, &prog), decisions(&Plan::new(&prog), &prog));
    }

    #[test]
    fn pooled_body_plans_are_shared_between_cached_plans() {
        // Two programs with different rule counts still share the pooled
        // body plan of their common rule shape.
        let chain = |n: usize| {
            let mut prog = Program::new();
            let e = prog.predicate("e", 2);
            let path = prog.predicate("path", 2);
            let extra = prog.predicate("extra", 1);
            prog.rule(
                Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
                vec![
                    Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                    Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                ],
            )
            .unwrap();
            if n > 1 {
                prog.rule(
                    Atom::new(extra, vec![Term::Var(0)]),
                    vec![Atom::new(path, vec![Term::Var(0), Term::Var(0)])],
                )
                .unwrap();
            }
            prog
        };
        let p1 = chain(1);
        let p2 = chain(2);
        let mut cache = PlanCache::new();
        let plan1 = cache.plan(&p1);
        let plan2 = cache.plan(&p2);
        assert_eq!(cache.len(), 2, "programs without a segment are keyed whole");
        // The recursive rule's body plan object is pooled: same Arc.
        let (b1, b2) = (plan1.rule(0).body.as_ref(), plan2.rule(0).body.as_ref());
        assert!(
            Arc::ptr_eq(b1.unwrap(), b2.unwrap()),
            "pooled body plans are shared"
        );
    }
}
