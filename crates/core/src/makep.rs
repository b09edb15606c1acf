//! The `makeP` encoding (Section 4.1): safety verification → Datalog
//! query evaluation.
//!
//! `makeP` is a *non-deterministic* polynomial-time procedure: each of its
//! executions guesses the `dis` threads' part of the computation and emits
//! one Datalog query instance `(Prog, g)`; the verification instance is
//! unsafe iff some execution's instance satisfies `Prog ⊢ g` (Lemma 4.3).
//! This module enumerates the guesses explicitly.
//!
//! **A guess** ([`Guess`]) fixes, per distinguished thread, a run skeleton
//! ([`DisGuess`]): a path through its loop-free CFA, the value loaded at
//! each load/CAS on the path, a per-variable-injective integer slot for
//! each store/CAS, and whether each CAS reads an integer-timestamped
//! message (init/`dis`) or an `env` message. Guessing the skeleton keeps
//! the `dis` part of the Datalog program *deterministic* — crucial because
//! Datalog's monotone semantics would otherwise conflate mutually
//! exclusive `dis` executions (two values stored "at the same slot").
//!
//! **The program** uses the paper's predicates, spread over the abstract
//! timeline `{0, 0⁺, …, T, T⁺}` (Section 3.4):
//!
//! * `etp_s(v̄)` — an `env` thread is at control state `s` (location ×
//!   register valuation, grounded) with view `v̄` (one argument per shared
//!   variable);
//! * `emp_x_d(v̄)` / `dmp_x_d(v̄)` — an `env`/`dis` (or initial) message on
//!   `x` with value `d` and view `v̄`;
//! * `dtpᵢ_k(v̄)` — `dis` thread `i` has executed `k` steps of its guessed
//!   skeleton with view `v̄`;
//! * `goal()` — the query atom.
//!
//! Timestamp arithmetic is factored into small extensional relations
//! (`tle`, `tlt`, `tmax`, `gapjoin`, `gapstore_x`), keeping the rule set
//! polynomial in the system size — the shape behind Theorem 4.1. Rules
//! have at most two *intensional* body atoms (a thread predicate and a
//! message predicate), the property the cache bound of Lemma 4.4 exploits.

use parra_datalog::ast::{Atom, Const, GroundAtom, PredId, Program, Rule, Term};
use parra_obs::{Counter, Recorder};
use parra_program::cfg::{Cfa, Instr, Loc};
use parra_program::expr::RegVal;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::Val;
use parra_simplified::state::Budget;
use parra_simplified::timestamp::ATime;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// How a guessed CAS obtains its loaded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasRead {
    /// Reads an integer-timestamped message (initial or `dis`) at slot
    /// `store_slot - 1`; the gap in between is closed for `env` stores.
    IntSlot,
    /// Reads (a clone of) an `env` message at the top of gap
    /// `store_slot - 1`.
    EnvMessage,
}

/// One step of a guessed `dis` run skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisStepGuess {
    /// The CFA edge taken.
    pub edge: usize,
    /// For loads and CAS: the value assumed to be loaded.
    pub loaded: Option<Val>,
    /// For stores and CAS: the integer slot of the written message.
    pub slot: Option<u32>,
    /// For CAS: where the loaded message comes from.
    pub cas_read: Option<CasRead>,
}

/// A guessed run skeleton for one `dis` thread: a path through its
/// loop-free CFA with resolved loads and slots. Register valuations along
/// the path are determined by the skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisGuess {
    /// The steps in order (a path from the CFA entry).
    pub steps: Vec<DisStepGuess>,
}

/// A full `makeP` guess: one skeleton per `dis` thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guess {
    /// Per-thread skeletons.
    pub dis: Vec<DisGuess>,
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub struct MakePLimits {
    /// Maximum number of guesses to enumerate.
    pub max_guesses: usize,
    /// Maximum number of grounded `env` control states (`loc × rv`).
    pub max_env_states: usize,
}

impl Default for MakePLimits {
    fn default() -> Self {
        MakePLimits {
            max_guesses: 200_000,
            max_env_states: 50_000,
        }
    }
}

/// Why the encoding is not applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MakePError {
    /// The `env` program uses CAS (undecidable class, Theorem 1.1).
    EnvHasCas,
    /// Some `dis` program has loops; unroll first (`transform::unroll_dis`).
    DisHasLoops {
        /// Index of the looping thread.
        thread: usize,
    },
    /// The grounded `env` state space exceeds the limit.
    TooManyEnvStates {
        /// The number of `loc × rv` combinations.
        states: usize,
    },
    /// Guess enumeration exceeded the limit; verdicts would be incomplete.
    TooManyGuesses,
}

impl fmt::Display for MakePError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MakePError::EnvHasCas => write!(f, "env program uses CAS"),
            MakePError::DisHasLoops { thread } => {
                write!(f, "dis thread {thread} has loops; unroll first")
            }
            MakePError::TooManyEnvStates { states } => {
                write!(f, "grounded env state space too large ({states} states)")
            }
            MakePError::TooManyGuesses => write!(f, "guess enumeration limit exceeded"),
        }
    }
}

impl std::error::Error for MakePError {}

/// What the emitted `goal()` atom captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatalogTarget {
    /// Some thread can execute `assert false`.
    AssertViolation,
    /// The goal message `(x, d, _)` is generated (Message Generation).
    MessageGenerated(VarId, Val),
}

/// The `makeP` encoder.
///
/// [`MakeP::new`] encodes the guess-independent part of every program
/// once, into a template; [`MakeP::program`] then adds only what one
/// guess changes.
#[derive(Debug)]
pub struct MakeP<'s> {
    sys: &'s ParamSystem,
    budget: Budget,
    limits: MakePLimits,
    tpl: Template,
    rec: Recorder,
}

impl<'s> MakeP<'s> {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// Rejects systems outside the supported class (env CAS, dis loops) and
    /// blown limits.
    pub fn new(
        sys: &'s ParamSystem,
        budget: Budget,
        limits: MakePLimits,
    ) -> Result<MakeP<'s>, MakePError> {
        if !sys.env.cfa().is_cas_free() {
            return Err(MakePError::EnvHasCas);
        }
        for (i, d) in sys.dis.iter().enumerate() {
            if !d.cfa().is_acyclic() {
                return Err(MakePError::DisHasLoops { thread: i });
            }
        }
        let env_states =
            sys.env.cfa().n_locs() as usize * (sys.dom.size() as usize).pow(sys.env.n_regs());
        if env_states > limits.max_env_states {
            return Err(MakePError::TooManyEnvStates { states: env_states });
        }
        let t = budget.max_slots();
        let mut timeline = Vec::with_capacity(2 * t as usize + 2);
        for i in 0..=t {
            timeline.push(ATime::Int(i));
            timeline.push(ATime::Plus(i));
        }
        let tpl = Template::build(sys, &budget, &timeline);
        Ok(MakeP {
            sys,
            budget,
            limits,
            tpl,
            rec: Recorder::disabled(),
        })
    }

    /// The same encoder reporting metrics through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> MakeP<'s> {
        self.rec = rec;
        self
    }

    /// Enumerates all guesses (dis run skeletons with slots).
    ///
    /// # Errors
    ///
    /// Fails with [`MakePError::TooManyGuesses`] beyond the limit.
    pub fn guesses(&self) -> Result<Vec<Guess>, MakePError> {
        // Per-thread skeleton candidates (paths with loaded values).
        let mut per_thread: Vec<Vec<DisGuess>> = Vec::new();
        for d in &self.sys.dis {
            per_thread.push(self.thread_skeletons(d.cfa()));
        }
        self.rec
            .counter("skeletons")
            .add(per_thread.iter().map(|v| v.len() as u64).sum());
        // Product over threads, then assign slots (injective per variable).
        let mut out: Vec<Guess> = Vec::new();
        let mut partial = Vec::new();
        self.product(&per_thread, 0, &mut partial, &mut out)?;
        self.rec.counter("guesses_enumerated").add(out.len() as u64);
        Ok(out)
    }

    fn product(
        &self,
        per_thread: &[Vec<DisGuess>],
        i: usize,
        partial: &mut Vec<DisGuess>,
        out: &mut Vec<Guess>,
    ) -> Result<(), MakePError> {
        if i == per_thread.len() {
            // Assign slots for all store-ish steps, injective per variable.
            return self.assign_slots(partial, out);
        }
        for skel in &per_thread[i] {
            partial.push(skel.clone());
            self.product(per_thread, i + 1, partial, out)?;
            partial.pop();
        }
        Ok(())
    }

    /// All (maximal) path skeletons of one `dis` thread: DFS over the
    /// acyclic CFA, branching on loaded values. Slots are left `None` here.
    fn thread_skeletons(&self, cfa: &Cfa) -> Vec<DisGuess> {
        let dom = self.sys.dom;
        let mut out = Vec::new();
        // DFS state: (loc, rv, steps so far).
        let mut stack: Vec<(Loc, RegVal, Vec<DisStepGuess>)> =
            vec![(cfa.entry(), RegVal::new(cfa.n_regs() as usize), Vec::new())];
        while let Some((loc, rv, steps)) = stack.pop() {
            let mut extended = false;
            for (ei, edge) in cfa.edges().iter().enumerate() {
                if edge.from != loc {
                    continue;
                }
                let mut push = |loaded: Option<Val>, rv2: RegVal| {
                    let mut s2 = steps.clone();
                    s2.push(DisStepGuess {
                        edge: ei,
                        loaded,
                        slot: None,
                        cas_read: None,
                    });
                    stack.push((edge.to, rv2, s2));
                };
                match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => {
                        push(None, rv.clone());
                        extended = true;
                    }
                    Instr::Assume(e) => {
                        if e.eval(&rv, dom).as_bool() {
                            push(None, rv.clone());
                            extended = true;
                        }
                    }
                    Instr::Assign(r, e) => {
                        let mut rv2 = rv.clone();
                        rv2.set(*r, e.eval(&rv, dom));
                        push(None, rv2);
                        extended = true;
                    }
                    Instr::Load(r, _) => {
                        for d in dom.iter() {
                            let mut rv2 = rv.clone();
                            rv2.set(*r, d);
                            push(Some(d), rv2);
                        }
                        extended = true;
                    }
                    Instr::Store(..) => {
                        push(None, rv.clone());
                        extended = true;
                    }
                    Instr::Cas(_, e1, _) => {
                        // The loaded value must equal e1's value.
                        let want = e1.eval(&rv, dom);
                        push(Some(want), rv.clone());
                        extended = true;
                    }
                }
            }
            if !extended {
                out.push(DisGuess { steps });
            }
        }
        // Deduplicate (diamond CFAs can reconverge).
        out.dedup();
        out
    }

    /// Extends skeletons with slot assignments (injective per variable)
    /// and CAS read kinds.
    fn assign_slots(&self, skeletons: &[DisGuess], out: &mut Vec<Guess>) -> Result<(), MakePError> {
        // Collect store-ish steps: (thread, step index, var, is_cas).
        let mut sites: Vec<(usize, usize, VarId, bool)> = Vec::new();
        for (ti, skel) in skeletons.iter().enumerate() {
            let cfa = self.sys.dis[ti].cfa();
            for (si, step) in skel.steps.iter().enumerate() {
                match &cfa.edges()[step.edge].instr {
                    Instr::Store(x, _) => sites.push((ti, si, *x, false)),
                    Instr::Cas(x, ..) => sites.push((ti, si, *x, true)),
                    _ => {}
                }
            }
        }
        let budget = &self.budget;
        let pruned = self.rec.counter("slot_assignments_pruned");
        // Backtracking assignment.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            sites: &[(usize, usize, VarId, bool)],
            i: usize,
            budget: &Budget,
            used: &mut HashMap<VarId, BTreeSet<u32>>,
            choice: &mut Vec<(u32, Option<CasRead>)>,
            skeletons: &[DisGuess],
            out: &mut Vec<Guess>,
            max: usize,
            pruned: &Counter,
        ) -> Result<(), MakePError> {
            if i == sites.len() {
                // Materialize the guess.
                let mut dis: Vec<DisGuess> = skeletons.to_vec();
                for (k, &(ti, si, _x, is_cas)) in sites.iter().enumerate() {
                    let (slot, cas_read) = choice[k];
                    dis[ti].steps[si].slot = Some(slot);
                    if is_cas {
                        dis[ti].steps[si].cas_read = cas_read;
                    }
                }
                out.push(Guess { dis });
                if out.len() > max {
                    return Err(MakePError::TooManyGuesses);
                }
                return Ok(());
            }
            let (_, _, x, is_cas) = sites[i];
            for slot in 1..=budget.slots(x) {
                if used.get(&x).map(|s| s.contains(&slot)).unwrap_or(false) {
                    pruned.incr();
                    continue;
                }
                used.entry(x).or_default().insert(slot);
                if is_cas {
                    for read in [CasRead::IntSlot, CasRead::EnvMessage] {
                        choice.push((slot, Some(read)));
                        rec(
                            sites,
                            i + 1,
                            budget,
                            used,
                            choice,
                            skeletons,
                            out,
                            max,
                            pruned,
                        )?;
                        choice.pop();
                    }
                } else {
                    choice.push((slot, None));
                    rec(
                        sites,
                        i + 1,
                        budget,
                        used,
                        choice,
                        skeletons,
                        out,
                        max,
                        pruned,
                    )?;
                    choice.pop();
                }
                used.get_mut(&x).unwrap().remove(&slot);
            }
            Ok(())
        }
        rec(
            &sites,
            0,
            budget,
            &mut HashMap::new(),
            &mut Vec::new(),
            skeletons,
            out,
            self.limits.max_guesses,
            &pruned,
        )
    }

    /// Emits the Datalog query instance `(Prog, goal)` for one guess:
    /// the template's registry and segment A, this guess's segment B,
    /// the shared segment C, and segment D encoded for the guess.
    ///
    /// # Panics
    ///
    /// Panics unless `guess` has one skeleton per `dis` thread, as every
    /// guess from [`MakeP::guesses`] does.
    pub fn program(&self, guess: &Guess, target: DatalogTarget) -> (Program, GroundAtom) {
        assert_eq!(
            guess.dis.len(),
            self.sys.dis.len(),
            "a guess has one skeleton per dis thread"
        );
        let tpl = &self.tpl;
        let mut enc = Encoder {
            sys: self.sys,
            syms: &tpl.syms,
            base: Some(&tpl.preds),
            preds: PredMaps::default(),
            prog: tpl.head.clone(),
        };
        // Segment B: every candidate gap minus those this guess closes.
        let closed = closed_gaps(self.sys, guess);
        for (facts, closed_x) in tpl.gapstore.iter().zip(&closed) {
            let open = facts
                .iter()
                .filter(|(g, _)| !closed_x.contains(g))
                .map(|(_, fact)| fact);
            enc.prog
                .extend_shared(open)
                .expect("gapstore facts fit the registry");
        }
        enc.prog
            .extend_shared(&tpl.env)
            .expect("env rules fit the registry");
        enc.emit_dis_rules(guess);
        enc.emit_goal_rules(guess, target, &tpl.env_asserts);
        (enc.prog, GroundAtom::new(tpl.syms.goal, Vec::new()))
    }

    /// The extensional (side-condition) predicates of a generated program —
    /// excluded from cache-size accounting and specializable away.
    pub fn edb_predicates(prog: &Program) -> HashSet<PredId> {
        let mut out = HashSet::new();
        for p in prog.predicates() {
            let name = prog.pred_name(p);
            if name.starts_with("tle")
                || name.starts_with("tlt")
                || name.starts_with("tmax")
                || name.starts_with("gapjoin")
                || name.starts_with("gapstore")
            {
                out.insert(p);
            }
        }
        out
    }
}

/// The guess-independent part of every program of one encoder.
///
/// A program is laid out in four segments:
///
/// * **A** — the timeline facts (`tle`, `tlt`, `tmax`, `gapjoin`);
/// * **B** — the `gapstore_x` facts, minus the gaps the guess's
///   integer-read CAS steps close;
/// * **C** — the initial facts and the grounded `env` rules;
/// * **D** — the `dis` rules along the guessed skeletons, then the goal
///   rules.
///
/// Only B and D depend on the guess, and neither creates a constant or a
/// predicate before C's are all declared. So `head` carries the registry
/// in the order a from-scratch encoding creates it, and every program
/// gets the same ids, rules and rule order as one. B's candidates and C
/// are shared by [`Arc`] rather than copied per guess.
#[derive(Debug)]
struct Template {
    /// The registry after segment C, holding segment A's rules.
    head: Program,
    /// Segment B's candidates per variable: `(gap, fact)` in emission
    /// order.
    gapstore: Vec<Vec<(u32, Arc<Rule>)>>,
    /// Segment C.
    env: Vec<Arc<Rule>>,
    syms: Symbols,
    /// The predicates segment C created.
    preds: PredMaps,
    /// `etp` predicates at `env` locations with an outgoing assert edge,
    /// in creation order.
    env_asserts: Vec<PredId>,
}

impl Template {
    fn build(sys: &ParamSystem, budget: &Budget, timeline: &[ATime]) -> Template {
        let mut prog = Program::new();
        let syms = Symbols::declare(&mut prog, sys.n_vars() as usize, timeline);
        let mut enc = Encoder {
            sys,
            syms: &syms,
            base: None,
            preds: PredMaps::default(),
            prog,
        };
        enc.emit_timeline_facts(timeline);
        let a_len = enc.prog.rules().len();
        enc.emit_initial_facts();
        enc.emit_env_rules();
        let Encoder {
            mut prog, preds, ..
        } = enc;
        let env = prog.split_rules_off(a_len);
        let t = |a: ATime| Term::Const(syms.tc[&a]);
        let gapstore = (0..syms.n_vars)
            .map(|x| {
                let mut facts = Vec::new();
                for &a in timeline {
                    for g in a.floor()..=budget.slots(VarId(x as u32)) {
                        let head = Atom::new(syms.gapstore[x], vec![t(a), t(ATime::Plus(g))]);
                        let body = Vec::new();
                        facts.push((g, Arc::new(Rule { head, body })));
                    }
                }
                facts
            })
            .collect();
        let assert_locs: BTreeSet<Loc> = sys
            .env
            .cfa()
            .edges()
            .iter()
            .filter(|e| matches!(e.instr, Instr::AssertFalse))
            .map(|e| e.from)
            .collect();
        let mut env_asserts: Vec<PredId> = preds
            .etp
            .iter()
            .filter(|((l, _), _)| assert_locs.contains(l))
            .map(|(_, &p)| p)
            .collect();
        env_asserts.sort_unstable();
        Template {
            head: prog,
            gapstore,
            env,
            syms,
            preds,
            env_asserts,
        }
    }
}

/// The timestamp constants and fixed predicates, declared first.
#[derive(Debug)]
struct Symbols {
    n_vars: usize,
    /// Constant per abstract timestamp.
    tc: HashMap<ATime, Const>,
    tle: PredId,
    tlt: PredId,
    tmax: PredId,
    gapjoin: PredId,
    gapstore: Vec<PredId>,
    goal: PredId,
}

impl Symbols {
    fn declare(prog: &mut Program, n_vars: usize, timeline: &[ATime]) -> Symbols {
        let tle = prog.predicate("tle", 2);
        let tlt = prog.predicate("tlt", 2);
        let tmax = prog.predicate("tmax", 3);
        let gapjoin = prog.predicate("gapjoin", 3);
        let gapstore = (0..n_vars)
            .map(|x| prog.predicate(&format!("gapstore_{x}"), 2))
            .collect();
        let goal = prog.predicate("goal", 0);
        let tc = timeline
            .iter()
            .map(|&a| (a, prog.constant(&format!("{a}"))))
            .collect();
        Symbols {
            n_vars,
            tc,
            tle,
            tlt,
            tmax,
            gapjoin,
            gapstore,
            goal,
        }
    }
}

/// Message and thread predicates by what they stand for.
#[derive(Debug, Default)]
struct PredMaps {
    emp: HashMap<(VarId, Val), PredId>,
    dmp: HashMap<(VarId, Val), PredId>,
    /// env control-state predicates: (loc, rv) → pred.
    etp: HashMap<(Loc, RegVal), PredId>,
    /// dis position predicates: (thread, position) → pred.
    dtp: HashMap<(usize, usize), PredId>,
}

/// The predicate for `key`: the template's if it has one, else this
/// encoder's, declared on first use.
fn pred_for<K: Hash + Eq>(
    prog: &mut Program,
    base: Option<&HashMap<K, PredId>>,
    own: &mut HashMap<K, PredId>,
    key: K,
    arity: usize,
    name: impl FnOnce() -> String,
) -> PredId {
    if let Some(&p) = base.and_then(|m| m.get(&key)) {
        return p;
    }
    *own.entry(key)
        .or_insert_with(|| prog.predicate(&name(), arity))
}

/// Per variable, the gaps closed by the guess's integer-read CAS steps.
fn closed_gaps(sys: &ParamSystem, guess: &Guess) -> Vec<Vec<u32>> {
    let mut closed = vec![Vec::new(); sys.n_vars() as usize];
    for (ti, skel) in guess.dis.iter().enumerate() {
        let cfa = sys.dis[ti].cfa();
        for step in &skel.steps {
            if let Instr::Cas(x, ..) = &cfa.edges()[step.edge].instr {
                if step.cas_read == Some(CasRead::IntSlot) {
                    let slot = step.slot.expect("cas step has a slot");
                    closed[x.index()].push(slot - 1);
                }
            }
        }
    }
    closed
}

/// Emits rules into one program: the template's segments A and C, or one
/// guess's segment D on top of the template.
struct Encoder<'a> {
    sys: &'a ParamSystem,
    syms: &'a Symbols,
    /// The template's predicates, when encoding a guess.
    base: Option<&'a PredMaps>,
    /// The predicates this encoder declared.
    preds: PredMaps,
    prog: Program,
}

impl Encoder<'_> {
    fn t(&self, a: ATime) -> Const {
        self.syms.tc[&a]
    }

    fn emp_pred(&mut self, x: VarId, d: Val) -> PredId {
        pred_for(
            &mut self.prog,
            self.base.map(|b| &b.emp),
            &mut self.preds.emp,
            (x, d),
            self.syms.n_vars,
            || format!("emp_{}_{}", x.0, d.0),
        )
    }

    fn dmp_pred(&mut self, x: VarId, d: Val) -> PredId {
        pred_for(
            &mut self.prog,
            self.base.map(|b| &b.dmp),
            &mut self.preds.dmp,
            (x, d),
            self.syms.n_vars,
            || format!("dmp_{}_{}", x.0, d.0),
        )
    }

    fn etp_pred(&mut self, loc: Loc, rv: &RegVal) -> PredId {
        let name = || {
            let vals: Vec<String> = rv.iter().map(|v| v.0.to_string()).collect();
            format!("etp_{}_{}", loc.0, vals.join("_"))
        };
        pred_for(
            &mut self.prog,
            self.base.map(|b| &b.etp),
            &mut self.preds.etp,
            (loc, rv.clone()),
            self.syms.n_vars,
            name,
        )
    }

    fn dtp_pred(&mut self, thread: usize, pos: usize) -> PredId {
        pred_for(
            &mut self.prog,
            self.base.map(|b| &b.dtp),
            &mut self.preds.dtp,
            (thread, pos),
            self.syms.n_vars,
            || format!("dtp{thread}_{pos}"),
        )
    }

    /// View variable vector `base..base+n`.
    fn vvec(&self, base: u32) -> Vec<Term> {
        (0..self.syms.n_vars as u32)
            .map(|i| Term::Var(base + i))
            .collect()
    }

    /// Segment A: tle/tlt/tmax/gapjoin over the timeline.
    fn emit_timeline_facts(&mut self, timeline: &[ATime]) {
        let s = self.syms;
        for &a in timeline {
            for &b in timeline {
                let (ca, cb) = (self.t(a), self.t(b));
                if a <= b {
                    self.prog.fact(s.tle, vec![ca, cb]).unwrap();
                }
                if a < b {
                    self.prog.fact(s.tlt, vec![ca, cb]).unwrap();
                }
                let cmax = self.t(a.max(b));
                self.prog.fact(s.tmax, vec![ca, cb, cmax]).unwrap();
                let cgj = self.t(ATime::Plus(a.floor().max(b.floor())));
                self.prog.fact(s.gapjoin, vec![ca, cb, cgj]).unwrap();
            }
        }
    }

    fn emit_initial_facts(&mut self) {
        let zero: Vec<Const> = (0..self.syms.n_vars).map(|_| self.t(ATime::ZERO)).collect();
        // Initial messages.
        for x in 0..self.syms.n_vars {
            let p = self.dmp_pred(VarId(x as u32), Val::INIT);
            self.prog.fact(p, zero.clone()).unwrap();
        }
        // Initial env thread.
        let entry = self.sys.env.cfa().entry();
        let rv0 = RegVal::new(self.sys.env.n_regs() as usize);
        let p = self.etp_pred(entry, &rv0);
        self.prog.fact(p, zero.clone()).unwrap();
        // Initial dis threads at position 0.
        for ti in 0..self.sys.dis.len() {
            let p = self.dtp_pred(ti, 0);
            self.prog.fact(p, zero.clone()).unwrap();
        }
    }

    /// Env transition rules, grounded over register valuations.
    fn emit_env_rules(&mut self) {
        let sys = self.sys;
        let cfa = sys.env.cfa_arc();
        let dom = sys.dom;
        let rvs = enumerate_rvs(sys.env.n_regs() as usize, dom);
        for rv in &rvs {
            for edge in cfa.edges() {
                let src = self.etp_pred(edge.from, rv);
                match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => {
                        let dst = self.etp_pred(edge.to, rv);
                        let v = self.vvec(0);
                        self.prog
                            .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                            .unwrap();
                    }
                    Instr::Assume(e) => {
                        if e.eval(rv, dom).as_bool() {
                            let dst = self.etp_pred(edge.to, rv);
                            let v = self.vvec(0);
                            self.prog
                                .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                                .unwrap();
                        }
                    }
                    Instr::Assign(r, e) => {
                        let rv2 = rv.with(*r, e.eval(rv, dom));
                        let dst = self.etp_pred(edge.to, &rv2);
                        let v = self.vvec(0);
                        self.prog
                            .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                            .unwrap();
                    }
                    Instr::Load(r, x) => {
                        for d in dom.iter() {
                            let rv2 = rv.with(*r, d);
                            let dst = self.etp_pred(edge.to, &rv2);
                            self.emit_load_rules(Atom::new(src, self.vvec(0)), dst, *x, d);
                        }
                    }
                    Instr::Store(x, e) => {
                        let d = e.eval(rv, dom);
                        let dst = self.etp_pred(edge.to, rv);
                        self.emit_env_store_rules(Atom::new(src, self.vvec(0)), dst, *x, d);
                    }
                    Instr::Cas(..) => unreachable!("env is CAS-free"),
                }
            }
        }
    }

    /// Load rules shared by env and dis threads: one rule reading a
    /// `dmp` message (with timestamp check) and one reading an `emp`
    /// message (check-free, gap join).
    ///
    /// Variable layout: `0..n` = V̄ (thread view), `n..2n` = W̄ (message
    /// view), `2n..3n` = V̄' (joined view).
    fn emit_load_rules(&mut self, src_atom: Atom, dst: PredId, x: VarId, d: Val) {
        let n = self.syms.n_vars as u32;
        let v = self.vvec(0);
        let w = self.vvec(n);
        let vp = self.vvec(2 * n);
        let xi = x.index();

        // From a dis/init message: tle(Vx, Wx) and pointwise tmax.
        {
            let dmp = self.dmp_pred(x, d);
            let mut body = vec![src_atom.clone(), Atom::new(dmp, w.clone())];
            body.push(Atom::new(self.syms.tle, vec![v[xi], w[xi]]));
            for i in 0..self.syms.n_vars {
                body.push(Atom::new(self.syms.tmax, vec![v[i], w[i], vp[i]]));
            }
            self.prog.rule(Atom::new(dst, vp.clone()), body).unwrap();
        }
        // From an env message: no check; gapjoin on x, tmax elsewhere.
        {
            let emp = self.emp_pred(x, d);
            let mut body = vec![src_atom, Atom::new(emp, w.clone())];
            body.push(Atom::new(self.syms.gapjoin, vec![v[xi], w[xi], vp[xi]]));
            for i in 0..self.syms.n_vars {
                if i != xi {
                    body.push(Atom::new(self.syms.tmax, vec![v[i], w[i], vp[i]]));
                }
            }
            self.prog.rule(Atom::new(dst, vp), body).unwrap();
        }
    }

    /// Env store: choose a gap via `gapstore_x(Vx, G)`; emit the message
    /// and the moved thread, both with `x ↦ G`.
    fn emit_env_store_rules(&mut self, src_atom: Atom, dst: PredId, x: VarId, d: Val) {
        let n = self.syms.n_vars as u32;
        let v = self.vvec(0);
        let g = Term::Var(n); // the chosen gap
        let xi = x.index();
        let mut head_view = v.clone();
        head_view[xi] = g;
        let body = vec![src_atom, Atom::new(self.syms.gapstore[xi], vec![v[xi], g])];
        let emp = self.emp_pred(x, d);
        self.prog
            .rule(Atom::new(emp, head_view.clone()), body.clone())
            .unwrap();
        self.prog.rule(Atom::new(dst, head_view), body).unwrap();
    }

    /// Dis rules along the guessed skeletons.
    fn emit_dis_rules(&mut self, guess: &Guess) {
        let sys = self.sys;
        let dom = sys.dom;
        for (ti, skel) in guess.dis.iter().enumerate() {
            let cfa = sys.dis[ti].cfa_arc();
            let mut rv = RegVal::new(sys.dis[ti].n_regs() as usize);
            for (pos, step) in skel.steps.iter().enumerate() {
                let src = self.dtp_pred(ti, pos);
                let dst = self.dtp_pred(ti, pos + 1);
                let src_atom = Atom::new(src, self.vvec(0));
                let edge = &cfa.edges()[step.edge];
                match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => {
                        let v = self.vvec(0);
                        self.prog
                            .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                            .unwrap();
                    }
                    Instr::Assume(e) => {
                        debug_assert!(e.eval(&rv, dom).as_bool());
                        let v = self.vvec(0);
                        self.prog
                            .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                            .unwrap();
                    }
                    Instr::Assign(r, e) => {
                        rv.set(*r, e.eval(&rv, dom));
                        let v = self.vvec(0);
                        self.prog
                            .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                            .unwrap();
                    }
                    Instr::Load(r, x) => {
                        let d = step.loaded.expect("load step carries a value");
                        self.emit_load_rules(src_atom, dst, *x, d);
                        rv.set(*r, d);
                    }
                    Instr::Store(x, e) => {
                        let d = e.eval(&rv, dom);
                        let slot = step.slot.expect("store step carries a slot");
                        self.emit_dis_store_rules(src_atom, dst, *x, d, slot);
                    }
                    Instr::Cas(x, e1, e2) => {
                        let d1 = e1.eval(&rv, dom);
                        debug_assert_eq!(step.loaded, Some(d1));
                        let d2 = e2.eval(&rv, dom);
                        let slot = step.slot.expect("cas step carries a slot");
                        let read = step.cas_read.expect("cas step carries a read kind");
                        self.emit_dis_cas_rules(src_atom, dst, *x, d1, d2, slot, read);
                    }
                }
            }
        }
    }

    /// Dis store at the guessed slot: requires `Vx < slot`; emits the
    /// message and the moved thread with `x ↦ slot`.
    fn emit_dis_store_rules(&mut self, src_atom: Atom, dst: PredId, x: VarId, d: Val, slot: u32) {
        let v = self.vvec(0);
        let xi = x.index();
        let slot_c = Term::Const(self.t(ATime::Int(slot)));
        let mut head_view = v.clone();
        head_view[xi] = slot_c;
        let body = vec![src_atom, Atom::new(self.syms.tlt, vec![v[xi], slot_c])];
        let dmp = self.dmp_pred(x, d);
        self.prog
            .rule(Atom::new(dmp, head_view.clone()), body.clone())
            .unwrap();
        self.prog.rule(Atom::new(dst, head_view), body).unwrap();
    }

    /// Dis CAS at guessed store slot `s₁`: reads slot `s₁-1` (integer
    /// read) or an env message from a gap `≤ (s₁-1)⁺` (env read); the
    /// stored message and the moved thread carry the joined view with
    /// `x ↦ s₁`.
    #[allow(clippy::too_many_arguments)]
    fn emit_dis_cas_rules(
        &mut self,
        src_atom: Atom,
        dst: PredId,
        x: VarId,
        d1: Val,
        d2: Val,
        slot: u32,
        read: CasRead,
    ) {
        let n = self.syms.n_vars as u32;
        let v = self.vvec(0);
        let w = self.vvec(n);
        let vp = self.vvec(2 * n);
        let xi = x.index();
        let slot_c = Term::Const(self.t(ATime::Int(slot)));
        let load_ts = ATime::Int(slot - 1);
        let gap_ts = ATime::Plus(slot - 1);

        let mut body = vec![src_atom];
        match read {
            CasRead::IntSlot => {
                // The loaded message sits exactly at slot-1.
                let dmp = self.dmp_pred(x, d1);
                let mut w_pinned = w.clone();
                w_pinned[xi] = Term::Const(self.t(load_ts));
                body.push(Atom::new(dmp, w_pinned));
                body.push(Atom::new(
                    self.syms.tle,
                    vec![v[xi], Term::Const(self.t(load_ts))],
                ));
            }
            CasRead::EnvMessage => {
                // A clone of the env message at the top of gap slot-1.
                let emp = self.emp_pred(x, d1);
                body.push(Atom::new(emp, w.clone()));
                body.push(Atom::new(
                    self.syms.tle,
                    vec![w[xi], Term::Const(self.t(gap_ts))],
                ));
                body.push(Atom::new(
                    self.syms.tle,
                    vec![v[xi], Term::Const(self.t(gap_ts))],
                ));
            }
        }
        for i in 0..self.syms.n_vars {
            if i != xi {
                body.push(Atom::new(self.syms.tmax, vec![v[i], w[i], vp[i]]));
            }
        }
        let mut head_view = vp.clone();
        head_view[xi] = slot_c;
        let dmp2 = self.dmp_pred(x, d2);
        self.prog
            .rule(Atom::new(dmp2, head_view.clone()), body.clone())
            .unwrap();
        self.prog.rule(Atom::new(dst, head_view), body).unwrap();
    }

    /// Goal rules per target.
    fn emit_goal_rules(&mut self, guess: &Guess, target: DatalogTarget, env_asserts: &[PredId]) {
        let goal = self.syms.goal;
        match target {
            DatalogTarget::MessageGenerated(x, d) => {
                let v = self.vvec(0);
                let emp = self.emp_pred(x, d);
                self.prog
                    .rule(Atom::new(goal, vec![]), vec![Atom::new(emp, v.clone())])
                    .unwrap();
                let dmp = self.dmp_pred(x, d);
                self.prog
                    .rule(Atom::new(goal, vec![]), vec![Atom::new(dmp, v)])
                    .unwrap();
                if d == Val::INIT {
                    // Initial messages already carry d_init.
                    self.prog.fact(goal, vec![]).unwrap();
                }
            }
            DatalogTarget::AssertViolation => {
                // env asserts: any etp state at a location with an
                // outgoing assert edge.
                for &p in env_asserts {
                    self.prog
                        .rule(Atom::new(goal, vec![]), vec![Atom::new(p, self.vvec(0))])
                        .unwrap();
                }
                // dis asserts: positions whose next edge is an assert.
                for (ti, skel) in guess.dis.iter().enumerate() {
                    let cfa = self.sys.dis[ti].cfa_arc();
                    for (pos, step) in skel.steps.iter().enumerate() {
                        if matches!(cfa.edges()[step.edge].instr, Instr::AssertFalse) {
                            let p = self.dtp_pred(ti, pos);
                            let v = self.vvec(0);
                            self.prog
                                .rule(Atom::new(goal, vec![]), vec![Atom::new(p, v)])
                                .unwrap();
                        }
                    }
                }
            }
        }
    }
}

/// All register valuations over `n_regs` registers.
fn enumerate_rvs(n_regs: usize, dom: parra_program::value::Dom) -> Vec<RegVal> {
    let mut out = vec![RegVal::new(n_regs)];
    for r in 0..n_regs {
        let mut next = Vec::new();
        for rv in &out {
            for d in dom.iter() {
                next.push(rv.with(parra_program::ident::RegId(r as u32), d));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_datalog::eval::Evaluator;
    use parra_program::builder::SystemBuilder;

    fn handshake() -> (ParamSystem, VarId) {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let goal = b.var("goal");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.store(y, 1).load(s, x).assume_eq(s, 1).store(goal, 1);
        let d = d.finish();
        (b.build(env, vec![d]), goal)
    }

    #[test]
    fn guesses_enumerate_skeletons_and_slots() {
        let (sys, _) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        // dis: store y (slot among 2 free on y) × paths over loaded x value
        // {0, 1}; the loaded-0 path blocks at the assume, so skeletons are
        // prefixes... maximal paths: load 0 (stuck after assume) and
        // load 1 → store goal. Plus slot choices.
        assert!(!guesses.is_empty());
        for g in &guesses {
            assert_eq!(g.dis.len(), 1);
        }
    }

    #[test]
    fn unsafe_system_has_a_proving_guess() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
        let proved = mk.guesses().unwrap().iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(proved);
    }

    #[test]
    fn safe_system_has_no_proving_guess() {
        // Same shape but the env thread requires y == 1 twice...
        // make it genuinely safe: env needs y == 1 but dis never stores y.
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let goal = b.var("goal");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.load(s, x).assume_eq(s, 1).store(goal, 1);
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let target = DatalogTarget::MessageGenerated(goal, Val(1));
        let proved = mk.guesses().unwrap().iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(!proved);
    }

    #[test]
    fn env_cas_rejected() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.cas(x, 0, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let err =
            MakeP::new(&sys, Budget::uniform_for(&sys, 1), MakePLimits::default()).unwrap_err();
        assert_eq!(err, MakePError::EnvHasCas);
    }

    #[test]
    fn looping_dis_rejected() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let env = {
            let mut p = b.program("env");
            p.skip();
            p.finish()
        };
        let mut d = b.program("d");
        d.star(|p| {
            p.store(x, 1);
        });
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let err =
            MakeP::new(&sys, Budget::uniform_for(&sys, 1), MakePLimits::default()).unwrap_err();
        assert_eq!(err, MakePError::DisHasLoops { thread: 0 });
    }

    #[test]
    fn env_only_system_single_guess() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        assert_eq!(guesses.len(), 1);
        let (prog, goal) = mk.program(&guesses[0], DatalogTarget::MessageGenerated(x, Val(1)));
        assert!(Evaluator::new(&prog).query(&goal));
    }

    #[test]
    fn guess_programs_share_the_env_rules() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        assert!(guesses.len() >= 2);
        let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
        let (p0, _) = mk.program(&guesses[0], target);
        let (p1, _) = mk.program(&guesses[1], target);
        // The env's `etp_* :- etp_*, …` rules come from the template:
        // the same allocation in both programs, not an equal copy.
        let is_env = |p: &Program, r: &Rule| p.pred_name(r.head.pred).starts_with("etp_");
        let env0: Vec<&Arc<Rule>> = p0.rules().iter().filter(|r| is_env(&p0, r)).collect();
        let env1: Vec<&Arc<Rule>> = p1.rules().iter().filter(|r| is_env(&p1, r)).collect();
        assert!(env0.iter().any(|r| !r.is_fact()));
        assert_eq!(env0.len(), env1.len());
        for (a, b) in env0.iter().zip(&env1) {
            assert!(Arc::ptr_eq(a, b), "env rule copied, not shared: {a:?}");
        }
    }

    #[test]
    fn env_assert_goal_rules_come_in_creation_order() {
        // An env assert reachable under several register valuations: one
        // goal rule per `etp` state there, in predicate-id order, however
        // the encoder's maps happen to iterate.
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, x).assert_false();
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let budget = Budget::exact(&sys).unwrap();
        let programs: Vec<Program> = (0..4)
            .map(|_| {
                let mk = MakeP::new(&sys, budget.clone(), MakePLimits::default()).unwrap();
                let guesses = mk.guesses().unwrap();
                mk.program(&guesses[0], DatalogTarget::AssertViolation).0
            })
            .collect();
        let goal = programs[0].lookup_pred("goal").unwrap();
        let bodies: Vec<PredId> = programs[0]
            .rules()
            .iter()
            .filter(|r| r.head.pred == goal)
            .map(|r| r.body[0].pred)
            .collect();
        assert_eq!(bodies.len(), 3, "one goal rule per register value");
        assert!(bodies.windows(2).all(|w| w[0] < w[1]));
        for p in &programs[1..] {
            assert_eq!(p.rules(), programs[0].rules());
        }
    }

    #[test]
    #[should_panic(expected = "one skeleton per dis thread")]
    fn program_rejects_a_guess_with_missing_threads() {
        let (sys, goal_var) = handshake();
        let mk = MakeP::new(&sys, Budget::exact(&sys).unwrap(), MakePLimits::default()).unwrap();
        mk.program(
            &Guess::default(),
            DatalogTarget::MessageGenerated(goal_var, Val(1)),
        );
    }

    #[test]
    fn edb_predicates_detected() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        let (prog, _) = mk.program(
            &guesses[0],
            DatalogTarget::MessageGenerated(goal_var, Val(1)),
        );
        let edb = MakeP::edb_predicates(&prog);
        assert!(edb.len() >= 4);
        for p in &edb {
            let name = prog.pred_name(*p);
            assert!(
                name.starts_with('t') || name.starts_with("gap"),
                "unexpected EDB predicate {name}"
            );
        }
    }
}
