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
//! Plans cover the rules with a body only, numbered in program order:
//! a fact has nothing to plan.
//!
//! Planning is on the critical path of every guess in the `makeP` fleet.
//! A [`PlanCache`] plans each *body signature* (canonicalized term
//! structure plus statistics) once ([`BodyPlan`]), every rule keeping
//! only its own index-slot table ([`RulePlans::slots`]). It plans the
//! rules a program shares with its template ([`Program::segment`]) once
//! per statistics key, and a guess evaluated on its fleet's base program
//! as a *delta* ([`PlanCache::plan_delta`]) plans only the delta's rules,
//! after the base's plan.

use crate::ast::{PredId, Program, Rule, Segment, Term};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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
    /// The argument columns whose values are known when the probe
    /// happens (constants plus already-bound variables), as a bitmask;
    /// 0 when one of them lies beyond the 64th, so that no index can
    /// serve the probe.
    pub cols: u64,
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
    /// [`RulePlans::slots`] table, then the number of steps.
    offsets: Vec<usize>,
    /// The flat steps that probe an index, with their delta position and
    /// step.
    probes: Vec<(usize, usize, usize)>,
}

impl BodyPlan {
    /// The slot table range of delta position `bi`.
    #[inline]
    pub fn slot_offset(&self, bi: usize) -> usize {
        self.offsets[bi]
    }

    /// The number of steps over all delta positions.
    fn n_steps(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }
}

/// All plans of one rule with a body ([`Plan::rule`]): a shared
/// [`BodyPlan`] plus the rule's own index-slot table. Facts have none.
#[derive(Debug, Clone, Copy)]
pub struct RulePlans<'p> {
    /// The join orders, shared by every rule with the same body
    /// signature.
    pub body: &'p BodyPlan,
    /// Dense index-slot per step, flattened over delta positions:
    /// `slots[body.slot_offset(bi) + si]` pairs with
    /// `body.per_delta[bi].steps[si]`.
    pub slots: &'p [u32],
    /// One more than the rule's largest variable id.
    pub n_vars: usize,
    /// The distinct predicates of the rule's body: if one has an empty
    /// relation, the rule cannot fire this round.
    pub body_preds: &'p [PredId],
}

/// The plans of one rule, as [`RulePlans`] shows them.
#[derive(Debug, Clone)]
struct RuleAt {
    body: Arc<BodyPlan>,
    n_vars: u32,
    slots: Box<[u32]>,
    /// Shared with the rule's plans in other runs.
    preds: Arc<[PredId]>,
}

/// A join index required by some plan step: a predicate and the bound
/// columns the probes key on.
#[derive(Debug, Clone, Copy)]
pub struct IndexSpec {
    /// The indexed predicate.
    pub pred: PredId,
    /// The key columns, as a bitmask.
    pub cols: u64,
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

/// The plans of a run of rules with bodies, and the index slots they
/// add.
#[derive(Debug, Clone, Default)]
struct Rules {
    rules: Vec<RuleAt>,
    /// The specs of the slots these rules probe first, in slot order;
    /// their ids follow those of the runs planned before.
    indices: Vec<IndexSpec>,
    slot_ids: FxMap<(u64, u64), u32>,
}

/// What a plan's own rules follow.
#[derive(Debug, Clone)]
enum Lead {
    /// Nothing: the plan covers every rule itself.
    None,
    /// The template segment's shared plans, after this many own rules.
    Template(usize, Arc<Rules>),
    /// The plan of the base program this one extends (a delta plan):
    /// its rules come first and its index slots lead.
    Base(Arc<Plan>),
}

/// The static plan for a program's rules with bodies, numbered in
/// program order with facts skipped: its template segment's shared plan
/// or the plan of the base program it extends, if any, plus the plans of
/// its own rules.
#[derive(Debug, Clone)]
pub struct Plan {
    lead: Lead,
    /// The number of the base plan's rules (0 without one): the own
    /// rules' numbers start there.
    first: usize,
    own: Rules,
    /// For each predicate, every (rule, body position) of this plan's
    /// template and own rules where it occurs — the semi-naive "uses" of
    /// a delta atom: `uses[uses_at[p]..uses_at[p + 1]]`.
    uses_at: Vec<u32>,
    uses: Vec<(u32, u32)>,
    max_vars: usize,
}

/// Whether a step probes an index: some columns, all among the first
/// 64, are known, but not all.
fn is_probe(step: &JoinStep) -> bool {
    !step.fully_bound && step.cols != 0
}

/// The rules of `rules` with a body.
fn with_body(rules: &[Arc<Rule>]) -> impl Iterator<Item = &Rule> + Clone {
    rules.iter().map(|r| &**r).filter(|r| !r.is_fact())
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
    remaining: Vec<usize>,
}

impl BodyPool {
    /// The body plan of each rule, planning only the signatures never
    /// seen before.
    fn bodies<'r>(
        &mut self,
        rules: impl Iterator<Item = &'r Rule>,
        stats: &Stats,
    ) -> Vec<Arc<BodyPlan>> {
        rules.map(|rule| self.body(rule, stats)).collect()
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
        let mut probes = Vec::new();
        let mut flat = 0usize;
        let per_delta: Vec<DeltaPlan> = (0..rule.body.len())
            .map(|bi| {
                let scratch = (
                    &mut self.bound[..],
                    &mut self.bound_list,
                    &mut self.remaining,
                );
                let dp = plan_delta(rule, bi, stats, scratch);
                for v in self.bound_list.drain(..) {
                    self.bound[v as usize] = false;
                }
                offsets.push(flat);
                for (si, step) in dp.steps.iter().enumerate() {
                    if is_probe(step) {
                        probes.push((flat + si, bi, si));
                    }
                }
                flat += dp.steps.len();
                dp
            })
            .collect();
        offsets.push(flat);
        let body = Arc::new(BodyPlan {
            per_delta,
            offsets,
            probes,
        });
        self.entries.insert(self.sig.clone(), Arc::clone(&body));
        body
    }
}

impl Rules {
    /// The plans of the run's `i`-th rule.
    #[inline]
    fn plans(&self, i: usize) -> RulePlans<'_> {
        let at = &self.rules[i];
        RulePlans {
            body: &at.body,
            slots: &at.slots,
            n_vars: at.n_vars as usize,
            body_preds: &at.preds,
        }
    }

    /// The number of rules in the run.
    fn len(&self) -> usize {
        self.rules.len()
    }

    /// Plans `rules` from their body plans, numbering new index slots
    /// from `first` and reusing the slot of a probe some `prior` run
    /// shares.
    fn build<'r>(
        rules: impl Iterator<Item = &'r Rule>,
        bodies: Vec<Arc<BodyPlan>>,
        prior: &[&Rules],
        first: usize,
    ) -> Rules {
        let mut out = Rules::default();
        // Per body plan, the (predicate, slot) each probe last resolved to:
        // rules sharing a body plan mostly probe the same predicates, so
        // most probes resolve with one comparison instead of a lookup.
        let mut memos: FxMap<u64, Vec<(PredId, u32)>> = FxMap::default();
        let (mut body_preds, mut slots) = (Vec::new(), Vec::new());
        for (rule, body) in rules.zip(bodies) {
            body_preds.clear();
            body_preds.extend(rule.body.iter().map(|a| a.pred));
            body_preds.sort_unstable_by_key(|p| p.0);
            body_preds.dedup();
            let memo = memos
                .entry(Arc::as_ptr(&body) as u64)
                .or_insert_with(|| vec![(PredId(u32::MAX), NO_SLOT); body.probes.len()]);
            slots.clear();
            slots.resize(body.n_steps(), NO_SLOT);
            for (&(flat, bi, si), memo) in body.probes.iter().zip(memo.iter_mut()) {
                let step = &body.per_delta[bi].steps[si];
                let pred = rule.body[step.pos].pred;
                if memo.0 != pred {
                    let key = (pred.0 as u64, step.cols);
                    let shared = prior.iter().find_map(|r| r.slot_ids.get(&key).copied());
                    let slot = shared.unwrap_or_else(|| {
                        *out.slot_ids.entry(key).or_insert_with(|| {
                            out.indices.push(IndexSpec {
                                pred,
                                cols: step.cols,
                            });
                            (first + out.indices.len() - 1) as u32
                        })
                    });
                    *memo = (pred, slot);
                }
                slots[flat] = memo.1;
            }
            out.rules.push(RuleAt {
                body,
                n_vars: rule_n_vars(rule) as u32,
                slots: slots.as_slice().into(),
                preds: body_preds.as_slice().into(),
            });
        }
        out
    }
}

impl Plan {
    /// Computes the plan for `program` (once per load; evaluation only
    /// reads it). Every rule is planned, a shared segment included.
    pub fn new(program: &Program) -> Plan {
        let stats = collect_stats(program, program.rules().iter().map(|r| &**r));
        let rules: Vec<&Rule> = with_body(program.rules()).collect();
        let bodies = BodyPool::default().bodies(rules.iter().copied(), &stats);
        Plan::assemble(program, &rules, Lead::None, bodies)
    }

    /// The plan of `rules`, a program's rules with bodies in order (the
    /// lead's template segment among them), from the lead and the body
    /// plans of the own rules.
    fn assemble(
        program: &Program,
        rules: &[&Rule],
        lead: Lead,
        bodies: Vec<Arc<BodyPlan>>,
    ) -> Plan {
        let (prior, own_rules): (Vec<&Rules>, _) = match &lead {
            Lead::None => (Vec::new(), [rules, &[]]),
            Lead::Template(at, tpl) => {
                let own = [&rules[..*at], &rules[at + tpl.len()..]];
                (vec![&**tpl], own)
            }
            Lead::Base(base) => (base.runs().collect(), [rules, &[]]),
        };
        let first_slot = prior.iter().map(|r| r.indices.len()).sum();
        let own_rules = own_rules.into_iter().flatten().copied();
        let own = Rules::build(own_rules, bodies, &prior, first_slot);
        Plan::with_own(program, rules, lead, own)
    }

    /// The plan of `rules` whose own rules are planned in `own`: with
    /// the `uses` table over `rules`.
    fn with_own(program: &Program, rules: &[&Rule], lead: Lead, own: Rules) -> Plan {
        let first = match &lead {
            Lead::Base(base) => base.n_rules(),
            _ => 0,
        };
        let n_preds = program.predicates().count();
        let mut uses_at = vec![0u32; n_preds + 1];
        for atom in rules.iter().flat_map(|r| &r.body) {
            uses_at[atom.pred.0 as usize + 1] += 1;
        }
        for p in 0..n_preds {
            uses_at[p + 1] += uses_at[p];
        }
        let mut uses = vec![(0, 0); uses_at[n_preds] as usize];
        let mut next = uses_at.clone();
        for (k, rule) in rules.iter().enumerate() {
            for (bi, atom) in rule.body.iter().enumerate() {
                let at = &mut next[atom.pred.0 as usize];
                uses[*at as usize] = ((first + k) as u32, bi as u32);
                *at += 1;
            }
        }
        let lead_vars = match &lead {
            Lead::None => 0,
            Lead::Template(_, tpl) => tpl
                .rules
                .iter()
                .map(|r| r.n_vars as usize)
                .max()
                .unwrap_or(0),
            Lead::Base(base) => base.max_vars,
        };
        let own_vars = own
            .rules
            .iter()
            .map(|r| r.n_vars as usize)
            .max()
            .unwrap_or(0);
        Plan {
            lead,
            first,
            own,
            uses_at,
            uses,
            max_vars: lead_vars.max(own_vars),
        }
    }

    /// Adds a slot after this plan's own for each of `specs` that no run
    /// of it has yet.
    fn reserve(&mut self, specs: Vec<IndexSpec>) {
        let tpl = match &self.lead {
            Lead::Template(_, tpl) => Some(&**tpl),
            _ => None,
        };
        let first = tpl.map_or(0, |t| t.indices.len());
        let own = &mut self.own;
        for spec in specs {
            let key = (spec.pred.0 as u64, spec.cols);
            if tpl.is_some_and(|t| t.slot_ids.contains_key(&key)) {
                continue;
            }
            own.slot_ids.entry(key).or_insert_with(|| {
                own.indices.push(spec);
                (first + own.indices.len() - 1) as u32
            });
        }
    }

    /// This plan's template and own runs of rule plans, in slot order: a
    /// delta plan's base runs are its base's.
    fn runs(&self) -> impl Iterator<Item = &Rules> {
        let tpl = match &self.lead {
            Lead::Template(_, tpl) => Some(&**tpl),
            _ => None,
        };
        tpl.into_iter().chain([&self.own])
    }

    /// The number of rules with a body the plan covers.
    pub fn n_rules(&self) -> usize {
        let tpl = match &self.lead {
            Lead::Template(_, tpl) => tpl.len(),
            _ => 0,
        };
        self.first + tpl + self.own.len()
    }

    /// The plans of the `k`-th rule with a body.
    #[inline]
    pub fn rule(&self, k: usize) -> RulePlans<'_> {
        match &self.lead {
            Lead::Base(base) if k < self.first => base.rule(k),
            Lead::Template(at, tpl) if k >= *at && k - at < tpl.len() => tpl.plans(k - at),
            Lead::Template(_, tpl) if k >= tpl.len() => self.own.plans(k - tpl.len()),
            _ => self.own.plans(k - self.first),
        }
    }

    /// Every join index any plan step can probe, in slot order.
    pub fn indices(&self) -> impl Iterator<Item = &IndexSpec> {
        let base = match &self.lead {
            Lead::Base(base) => Some(base.runs()),
            _ => None,
        };
        base.into_iter()
            .flatten()
            .chain(self.runs())
            .flat_map(|r| &r.indices)
    }

    /// Every (rule, body position) in which predicate `p` occurs — where
    /// a delta atom of `p` can fire — in rule order.
    pub fn uses(&self, p: PredId) -> impl Iterator<Item = &(u32, u32)> {
        self.uses_by_layer(p).into_iter().flatten()
    }

    /// [`Plan::uses`] as two runs: the base plan's, then this plan's.
    #[inline]
    pub(crate) fn uses_by_layer(&self, p: PredId) -> [&[(u32, u32)]; 2] {
        let base = match &self.lead {
            Lead::Base(base) => base.own_uses(p),
            _ => &[],
        };
        [base, self.own_uses(p)]
    }

    fn own_uses(&self, p: PredId) -> &[(u32, u32)] {
        let p = p.0 as usize;
        match (self.uses_at.get(p), self.uses_at.get(p + 1)) {
            (Some(&lo), Some(&hi)) => &self.uses[lo as usize..hi as usize],
            _ => &[],
        }
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
/// bodies read); each program then plans only its own rules. A delta
/// ([`PlanCache::plan_delta`]) plans only its own rules, after its base
/// program's plan, and the first delta planned on a base is kept as the
/// base's *table*: a later delta on that base takes the plan of each of
/// its rules the table holds, rather than planning it again, when no
/// fact of either delta defines a predicate the rule reads (the
/// statistics it was planned under are then its own). A fleet plans `U`
/// first, which holds every rule of its guesses.
///
/// Reuse is exact: a segment or base plan matches by address, and the
/// cache holds it (and a table its rules), so no address is reused while
/// its plans are cached. Every plan decides what [`Plan::new`] of the
/// whole program decides, up to slot numbering, except that a delta's
/// base rules keep the base's plan. All plans come from one pool of body
/// plans.
#[derive(Default)]
pub struct PlanCache {
    /// Per segment address: the segment, and the predicates its bodies
    /// read.
    reads: FxMap<u64, (Segment, BTreeSet<PredId>)>,
    /// Template plans by segment address and the statistics of `reads`.
    templates: FxMap<Vec<u64>, Arc<Rules>>,
    /// The table of the last base a delta was planned on.
    table: Option<Table>,
    pool: BodyPool,
    computed: usize,
    planned: usize,
}

/// The first delta plan on a base, whose rule plans later deltas on the
/// base take.
struct Table {
    base: Arc<Plan>,
    plan: Arc<Plan>,
    /// Per rule with a body, by address: the rule, kept so that no
    /// address is reused, and its place among `plan`'s own rules.
    at: FxMap<u64, (Arc<Rule>, u32)>,
    /// Whether the delta's facts define each predicate.
    facts: Vec<bool>,
}

impl Table {
    /// The plan of `rules` (the program's rules at a delta on the
    /// table's base, with `facts` their facts' predicates) from the
    /// table's rule plans, with the table's new index slots each probe
    /// uses renumbered after the base's; `None` unless the table holds
    /// every rule with a body and no fact of either delta defines a
    /// predicate one of them reads.
    fn select(&self, program: &Program, rules: &[&Arc<Rule>], facts: &[PredId]) -> Option<Plan> {
        let own = &self.plan.own;
        let defined = |p: &PredId| self.facts.get(p.0 as usize) == Some(&true) || facts.contains(p);
        let mut picked = Vec::with_capacity(rules.len());
        for rule in rules.iter().filter(|r| !r.is_fact()) {
            let &(_, k) = self.at.get(&(Arc::as_ptr(rule) as u64))?;
            if own.plans(k as usize).body_preds.iter().any(defined) {
                return None;
            }
            picked.push(k as usize);
        }
        let first_slot = self.base.indices().count();
        let mut renumbered = vec![NO_SLOT; own.indices.len()];
        let mut out = Rules::default();
        for k in picked {
            let at = &own.rules[k];
            let slots = at.slots.iter().map(|&slot| {
                let Some(i) = (slot as usize)
                    .checked_sub(first_slot)
                    .filter(|_| slot != NO_SLOT)
                else {
                    return slot;
                };
                if renumbered[i] == NO_SLOT {
                    renumbered[i] = (first_slot + out.indices.len()) as u32;
                    out.indices.push(own.indices[i]);
                }
                renumbered[i]
            });
            out.rules.push(RuleAt {
                body: Arc::clone(&at.body),
                n_vars: at.n_vars,
                slots: slots.collect(),
                preds: Arc::clone(&at.preds),
            });
        }
        let rules: Vec<&Rule> = rules
            .iter()
            .map(|r| &***r)
            .filter(|r| !r.is_fact())
            .collect();
        Some(Plan::with_own(
            program,
            &rules,
            Lead::Base(Arc::clone(&self.base)),
            out,
        ))
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of plans computed so far: template plans, one per segment
    /// and statistics key, and program and delta plans.
    pub fn len(&self) -> usize {
        self.computed
    }

    /// Whether no plan has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rules planned so far: the rules with a body of each computed plan,
    /// rules taken from a table aside.
    pub fn rules_planned(&self) -> usize {
        self.planned
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
        let stats = collect_stats(program, prefix.iter().map(|r| &**r));
        let rules: Vec<&Rule> = with_body(prefix).collect();
        let lead = match program.segment() {
            Some((at, segment)) if at + segment.len() <= len => {
                let before = with_body(&prefix[..at]).count();
                Lead::Template(before, self.template(segment, &stats))
            }
            _ => Lead::None,
        };
        let own = match &lead {
            Lead::Template(at, tpl) => [&rules[..*at], &rules[at + tpl.len()..]].concat(),
            _ => rules.clone(),
        };
        let mut plan = self.layer(program, &rules, &own, lead, &stats);
        if len < program.rules().len() {
            let reserved = self.reserved(program, len);
            Arc::get_mut(&mut plan)
                .expect("a plan just computed")
                .reserve(reserved);
        }
        plan
    }

    /// The index specs the rules after `program`'s first `len` probe on
    /// predicates that no rule after them defines, planned as a delta
    /// holding all of them (a fleet's `U`) plans them. A base plan
    /// reserves their slots: the base builds them once and keeps them
    /// whole through every delta on it, which would each rebuild them.
    fn reserved(&mut self, program: &Program, len: usize) -> Vec<IndexSpec> {
        let later = &program.rules()[len..];
        let mut defined = vec![false; program.predicates().count()];
        for rule in later {
            defined[rule.head.pred.0 as usize] = true;
        }
        let stats = collect_stats(program, program.rules().iter().map(|r| &**r));
        let rules: Vec<&Rule> = with_body(later).collect();
        let bodies = self.pool.bodies(rules.iter().copied(), &stats);
        let mut out = Vec::new();
        for (rule, body) in rules.iter().zip(&bodies) {
            for &(_, bi, si) in &body.probes {
                let step = &body.per_delta[bi].steps[si];
                let pred = rule.body[step.pos].pred;
                if !defined[pred.0 as usize] {
                    out.push(IndexSpec {
                        pred,
                        cols: step.cols,
                    });
                }
            }
        }
        out
    }

    /// The plan for `program`'s rules at `delta` evaluated on top of its
    /// first `base_len` rules, whose plan is `base`
    /// ([`PlanCache::plan_prefix`]): the delta's rules with a body,
    /// numbered after the base's, planned under the statistics of the
    /// base's facts and the delta's or taken from the base's table; the
    /// base's rules keep `base`'s plans and its index slots lead.
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
            !matches!(base.lead, Lead::Base(_)),
            "a delta plan extends a base program's plan"
        );
        let all = program.rules();
        let picked: Vec<&Arc<Rule>> = delta.iter().map(|&ri| &all[ri as usize]).collect();
        let mut facts: Vec<PredId> = picked
            .iter()
            .filter(|r| r.is_fact())
            .map(|r| r.head.pred)
            .collect();
        facts.sort_unstable();
        facts.dedup();
        let table = self.table.as_ref().filter(|t| Arc::ptr_eq(&t.base, base));
        let tabled = table.is_some();
        if let Some(plan) = table.and_then(|t| t.select(program, &picked, &facts)) {
            self.computed += 1;
            return Arc::new(plan);
        }
        let prefix = all[..base_len].iter().map(|r| &**r);
        let stats = collect_stats(program, prefix.chain(picked.iter().map(|r| &***r)));
        let rules: Vec<&Rule> = picked
            .iter()
            .map(|r| &***r)
            .filter(|r| !r.is_fact())
            .collect();
        let plan = self.layer(
            program,
            &rules,
            &rules,
            Lead::Base(Arc::clone(base)),
            &stats,
        );
        if !tabled {
            let mut defined = vec![false; program.predicates().count()];
            for p in facts {
                defined[p.0 as usize] = true;
            }
            let with_body = picked.into_iter().filter(|r| !r.is_fact());
            self.table = Some(Table {
                base: Arc::clone(base),
                plan: Arc::clone(&plan),
                at: with_body
                    .enumerate()
                    .map(|(k, r)| (Arc::as_ptr(r) as u64, (Arc::clone(r), k as u32)))
                    .collect(),
                facts: defined,
            });
        }
        plan
    }

    /// The plan of `rules` after `lead`, planning `own`, those not in the
    /// lead's template.
    fn layer(
        &mut self,
        program: &Program,
        rules: &[&Rule],
        own: &[&Rule],
        lead: Lead,
        stats: &Stats,
    ) -> Arc<Plan> {
        let bodies = self.pool.bodies(own.iter().copied(), stats);
        self.planned += bodies.len();
        self.computed += 1;
        Arc::new(Plan::assemble(program, rules, lead, bodies))
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
        let bodies = self.pool.bodies(with_body(segment), stats);
        self.planned += bodies.len();
        let tpl = Arc::new(Rules::build(with_body(segment), bodies, &[], 0));
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
/// `bound` is caller-provided scratch (all false on entry); every variable
/// set true is pushed onto `bound_list` so the caller can clear it;
/// `remaining` is scratch too.
fn plan_delta(
    rule: &Rule,
    delta_pos: usize,
    stats: &Stats,
    (bound, bound_list, remaining): (&mut [bool], &mut Vec<u32>, &mut Vec<usize>),
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
    remaining.clear();
    remaining.extend((0..rule.body.len()).filter(|&b| b != delta_pos));
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
        let (mut cols, mut known_cols) = (0u64, 0usize);
        for (col, _) in atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| known(t, bound))
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
        let bp = rp.body;
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
        let steps = steps_of(&plan, 0, 2); // the fact has no plan; delta = edge
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|(s, _)| s.fully_bound));
        assert!(steps.iter().all(|(_, slot)| *slot == NO_SLOT));
        assert_eq!(plan.n_rules(), 1);
        assert_eq!(plan.rule(0).n_vars, 2);
        assert_eq!(plan.rule(0).body_preds, [p, q, edge]);
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
        let (step, slot) = steps[0];
        assert_eq!(step.pos, 1);
        assert_eq!(step.cols, 1);
        assert!(!step.fully_bound);
        // The probe got a dense slot, and the plan exposes its spec.
        assert_ne!(slot, NO_SLOT);
        let spec = plan.indices().nth(slot as usize).unwrap();
        assert_eq!(spec.pred, link);
        assert_eq!(spec.cols, 1);
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
        assert_eq!(steps[0].0.cols, 1);
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
        let bp = rp.body;
        assert_eq!(bp.per_delta.len(), 3);
        assert_eq!(rp.body_preds, [e]);
        assert!(plan.uses(e).eq(&[(0, 0), (0, 1), (0, 2)]));
        for (bi, dp) in bp.per_delta.iter().enumerate() {
            assert_eq!(dp.steps.len(), 2);
            // Each remaining atom shares a variable with what is already
            // bound, so every probe has at least one bound column.
            for s in &dp.steps {
                assert_ne!(s.pos, bi);
                assert_ne!(s.cols, 0);
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
        assert!(std::ptr::eq(plan.rule(0).body, plan.rule(1).body));
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
        let slots0: Vec<u32> = plan.rule(0).slots.to_vec();
        let slots1: Vec<u32> = plan.rule(1).slots.to_vec();
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
        for k in 0..plan.n_rules() {
            let rp = plan.rule(k);
            out.push(format!("rule {k}: {} {:?}", rp.n_vars, rp.body_preds));
            let bp = rp.body;
            for (bi, dp) in bp.per_delta.iter().enumerate() {
                for (si, st) in dp.steps.iter().enumerate() {
                    let slot = rp.slots[bp.slot_offset(bi) + si];
                    let probe = (slot != NO_SLOT).then(|| {
                        let spec = specs[slot as usize];
                        (spec.pred, spec.cols)
                    });
                    out.push(format!("{bi}.{si}: {st:?} {probe:?}"));
                }
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
        prog.extend_segment(segment);
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
        // Plans skip facts: the segment's rules come first in both.
        assert!(std::ptr::eq(plan1.rule(0).body, plan2.rule(0).body));
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
    fn deltas_take_their_rules_plans_from_the_first_delta_on_a_base() {
        // The base: facts `e` and the path segment. After it: `out(X) :-
        // path(c0, X)`, `back(X) :- e(X, c1)` and one more `e` fact.
        let seg = path_segment();
        let mut prog = around(&seg, 3, "c0");
        let base_len = prog.rules().len() - 1;
        let (e, back) = (prog.lookup_pred("e").unwrap(), prog.predicate("back", 1));
        let (c1, c9) = (prog.constant("c1"), prog.constant("c9"));
        prog.rule(
            Atom::new(back, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Const(c1)])],
        )
        .unwrap();
        prog.fact(e, vec![c9, c1]).unwrap();
        let (out_rule, back_rule, fact) =
            (base_len as u32, base_len as u32 + 1, base_len as u32 + 2);
        // The program of the base and `delta`, on its own.
        let whole = |delta: &[u32]| {
            let mut whole = prog.clone();
            let tail = whole.split_rules_off(base_len);
            let picked = delta.iter().map(|&ri| &tail[ri as usize - base_len]);
            whole.extend_validated(picked);
            whole
        };
        let mut cache = PlanCache::new();
        let base = cache.plan_prefix(&prog, base_len);
        // The first delta plans its rules; a later one takes the plan of
        // `out`, which reads nothing a delta's fact defines, and plans
        // `back`, which reads `e`.
        for (delta, planned) in [
            (vec![out_rule, back_rule, fact], 2),
            (vec![out_rule], 0),
            (vec![back_rule], 1),
        ] {
            let before = cache.rules_planned();
            let plan = cache.plan_delta(&prog, &base, base_len, &delta);
            assert_eq!(cache.rules_planned() - before, planned, "{delta:?}");
            let whole = whole(&delta);
            assert_eq!(
                decisions(&plan, &whole),
                decisions(&Plan::new(&whole), &whole)
            );
            // The base's index slots lead.
            assert!(base
                .indices()
                .zip(plan.indices())
                .all(|(a, b)| (a.pred, a.cols) == (b.pred, b.cols)));
        }
    }

    #[test]
    fn a_base_reserves_the_slots_later_rules_probe_on_predicates_it_completes() {
        // The base: facts `e` and `g(c0)`, and `r(X) :- e(X, Y)`. After
        // it: one more `g` fact and `q(Y) :- g(X), e(X, Y), r(Y)`, which
        // probes `e` (no later rule defines it) and `g` (a later fact
        // does).
        let mut prog = Program::new();
        let (e, g) = (prog.predicate("e", 2), prog.predicate("g", 1));
        let (r, q) = (prog.predicate("r", 1), prog.predicate("q", 1));
        let c: Vec<_> = (0..3).map(|i| prog.constant(&format!("c{i}"))).collect();
        prog.fact(e, vec![c[0], c[1]]).unwrap();
        prog.fact(e, vec![c[1], c[2]]).unwrap();
        prog.fact(g, vec![c[0]]).unwrap();
        let (x, y) = (Term::Var(0), Term::Var(1));
        prog.rule(Atom::new(r, vec![x]), vec![Atom::new(e, vec![x, y])])
            .unwrap();
        let base_len = prog.rules().len();
        prog.fact(g, vec![c[1]]).unwrap();
        let body = vec![
            Atom::new(g, vec![x]),
            Atom::new(e, vec![x, y]),
            Atom::new(r, vec![y]),
        ];
        prog.rule(Atom::new(q, vec![y]), body).unwrap();
        let mut cache = PlanCache::new();
        let base = cache.plan_prefix(&prog, base_len);
        let specs = |plan: &Plan| -> Vec<(PredId, u64)> {
            plan.indices().map(|s| (s.pred, s.cols)).collect()
        };
        let mut base_prog = prog.clone();
        base_prog.split_rules_off(base_len);
        let reserved = specs(&base);
        assert!(specs(&Plan::new(&base_prog)).is_empty());
        assert!(reserved.iter().all(|&(p, _)| p == e) && !reserved.is_empty());
        // The delta probes `e` through the base's slots only.
        let delta = [base_len as u32, base_len as u32 + 1];
        let plan = cache.plan_delta(&prog, &base, base_len, &delta);
        let whole = specs(&Plan::new(&prog));
        let got = specs(&plan);
        assert_eq!(got[..reserved.len()], reserved[..]);
        assert!(got[reserved.len()..].iter().all(|&(p, _)| p != e));
        let sorted = |mut v: Vec<(PredId, u64)>| {
            v.sort_unstable_by_key(|&(p, cols)| (p.0, cols));
            v
        };
        assert_eq!(sorted(got), sorted(whole));
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
        assert!(
            std::ptr::eq(plan1.rule(0).body, plan2.rule(0).body),
            "pooled body plans are shared"
        );
    }
}
