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
//! (a path through its loop-free CFA and the value loaded at each
//! load/CAS on the path), a per-variable-injective integer slot for each
//! store/CAS, and whether each CAS reads an integer-timestamped message
//! (init/`dis`) or an `env` message. The template enumerates each
//! thread's skeletons once; a guess holds their indices and its slots.
//! Guessing the skeleton keeps the `dis` part of the Datalog program
//! *deterministic* — crucial because Datalog's monotone semantics would
//! otherwise conflate mutually exclusive `dis` executions (two values
//! stored "at the same slot").
//!
//! **The program** uses the paper's predicates, spread over the abstract
//! timeline `{0, 0⁺, …, T, T⁺}` (Section 3.4):
//!
//! * `etp_s(v̄)` — an `env` thread is at control state `s` (location ×
//!   register valuation, grounded over the states reachable from the
//!   entry) with view `v̄` (one argument per shared variable);
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
use parra_datalog::plan::FxMap;
use parra_obs::{Counter, Recorder};
use parra_program::cfg::{Cfa, Instr, Loc};
use parra_program::expr::RegVal;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::{Dom, Val};
use parra_simplified::state::Budget;
use parra_simplified::timestamp::ATime;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

/// How a guessed CAS obtains its loaded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CasRead {
    /// Reads an integer-timestamped message (initial or `dis`) at slot
    /// `store_slot - 1`; the gap in between is closed for `env` stores.
    IntSlot,
    /// Reads (a clone of) an `env` message at the top of gap
    /// `store_slot - 1`.
    EnvMessage,
}

/// One step of a guessed `dis` run skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DisStepGuess {
    /// The CFA edge taken.
    edge: usize,
    /// For loads and CAS: the value assumed to be loaded.
    loaded: Option<Val>,
    /// For stores and CAS: the integer slot of the written message, once
    /// a guess has assigned it.
    slot: Option<u32>,
    /// For CAS: where the loaded message comes from, once a guess has
    /// chosen it.
    cas_read: Option<CasRead>,
}

/// A full `makeP` guess: per `dis` thread, one of its run skeletons, and
/// for each store or CAS on them an integer slot (injective per
/// variable) and, for a CAS, whether it reads an integer-timestamped or
/// an `env` message.
///
/// A guess names each skeleton by its index among its thread's, which
/// every encoder of the same system enumerates alike
/// ([`MakeP::guesses`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guess {
    /// Per `dis` thread, the index of its skeleton.
    skeletons: Box<[u32]>,
    /// Per store or CAS step of the skeletons, in thread then step
    /// order: its slot and, for a CAS, its read kind.
    sites: Box<[(u32, Option<CasRead>)]>,
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MakePLimits {
    /// Maximum number of guesses to enumerate.
    pub max_guesses: usize,
    /// Maximum number of `env` control states (`loc × rv`), reachable or
    /// not.
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
    tpl: Arc<Template>,
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
        let tpl = Arc::new(Template::build(sys, &budget, &timeline));
        Ok(MakeP::with_template(sys, budget, limits, tpl))
    }

    /// The encoder of `sys` over a template that [`MakeP::new`] built for
    /// the same system, budget and limits ([`MakeP::template`]).
    pub(crate) fn with_template(
        sys: &'s ParamSystem,
        budget: Budget,
        limits: MakePLimits,
        tpl: Arc<Template>,
    ) -> MakeP<'s> {
        MakeP {
            sys,
            budget,
            limits,
            tpl,
            rec: Recorder::disabled(),
        }
    }

    /// The guess-independent template, to rebuild this encoder with
    /// [`MakeP::with_template`].
    pub(crate) fn template(&self) -> Arc<Template> {
        Arc::clone(&self.tpl)
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
        let per_thread = &self.tpl.skeletons;
        self.rec
            .counter("skeletons")
            .add(per_thread.iter().map(|v| v.len() as u64).sum());
        // Product over threads, then assign slots (injective per variable).
        let mut out: Vec<Guess> = Vec::new();
        let mut partial = Vec::new();
        self.product(0, &mut partial, &mut out)?;
        self.rec.counter("guesses_enumerated").add(out.len() as u64);
        Ok(out)
    }

    /// Extends `partial`, a skeleton index per thread before `i`, by each
    /// skeleton of thread `i` in turn, down to the last thread.
    fn product(
        &self,
        i: usize,
        partial: &mut Vec<u32>,
        out: &mut Vec<Guess>,
    ) -> Result<(), MakePError> {
        let per_thread = &self.tpl.skeletons;
        if i == per_thread.len() {
            // Assign slots for all store-ish steps, injective per variable.
            return self.assign_slots(partial, out);
        }
        for k in 0..per_thread[i].len() as u32 {
            partial.push(k);
            self.product(i + 1, partial, out)?;
            partial.pop();
        }
        Ok(())
    }

    /// All (maximal) path skeletons of one `dis` thread: DFS over the
    /// acyclic CFA, branching on loaded values. Slots are left `None` here.
    fn thread_skeletons(cfa: &Cfa, dom: Dom) -> Vec<Vec<DisStepGuess>> {
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
                out.push(steps);
            }
        }
        // Deduplicate (diamond CFAs can reconverge).
        out.dedup();
        out
    }

    /// Extends a combination of skeletons, one index per thread, with
    /// slot assignments (injective per variable) and CAS read kinds.
    fn assign_slots(&self, skeletons: &[u32], out: &mut Vec<Guess>) -> Result<(), MakePError> {
        // The store-ish steps' variables, in thread then step order, and
        // whether each is a CAS.
        let mut sites: Vec<(VarId, bool)> = Vec::new();
        for (ti, &k) in skeletons.iter().enumerate() {
            let edges = self.sys.dis[ti].cfa().edges();
            for step in &self.tpl.skeletons[ti][k as usize] {
                match &edges[step.edge].instr {
                    Instr::Store(x, _) => sites.push((*x, false)),
                    Instr::Cas(x, ..) => sites.push((*x, true)),
                    _ => {}
                }
            }
        }
        let pruned = self.rec.counter("slot_assignments_pruned");
        let mut choice = Vec::with_capacity(sites.len());
        self.assign(
            &sites,
            skeletons,
            &mut HashMap::new(),
            &mut choice,
            out,
            &pruned,
        )
    }

    /// Backtracking assignment of the store-ish `sites` left after
    /// `choice`, the slots (`used`, per variable) and read kinds chosen
    /// so far; pushes each complete guess of `skeletons` to `out`.
    fn assign(
        &self,
        sites: &[(VarId, bool)],
        skeletons: &[u32],
        used: &mut HashMap<VarId, BTreeSet<u32>>,
        choice: &mut Vec<(u32, Option<CasRead>)>,
        out: &mut Vec<Guess>,
        pruned: &Counter,
    ) -> Result<(), MakePError> {
        let Some((&(x, is_cas), rest)) = sites.split_first() else {
            out.push(Guess {
                skeletons: skeletons.into(),
                sites: choice.as_slice().into(),
            });
            if out.len() > self.limits.max_guesses {
                return Err(MakePError::TooManyGuesses);
            }
            return Ok(());
        };
        let reads: &[Option<CasRead>] = if is_cas {
            &[Some(CasRead::IntSlot), Some(CasRead::EnvMessage)]
        } else {
            &[None]
        };
        for slot in 1..=self.budget.slots(x) {
            if used.get(&x).is_some_and(|s| s.contains(&slot)) {
                pruned.incr();
                continue;
            }
            used.entry(x).or_default().insert(slot);
            for &read in reads {
                choice.push((slot, read));
                self.assign(rest, skeletons, used, choice, out, pruned)?;
                choice.pop();
            }
            used.get_mut(&x).unwrap().remove(&slot);
        }
        Ok(())
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
        let tpl = &self.tpl;
        let mut enc = self.encoder();
        // Segment B: every candidate gap minus those this guess closes.
        let closed = self.closed_gaps(guess);
        self.extend_b_and_c(&mut enc.prog, |x, g| closed[x].contains(&g));
        let shared = enc.prog.rules().len();
        self.walk(guess, |ti, pos, step, rv| {
            enc.emit_dis_step(ti, pos, &step, rv)
        });
        enc.emit_goal_rules(target, &tpl.env_asserts, self.assert_positions(guess));
        self.rec
            .counter("rules_encoded")
            .add((enc.prog.rules().len() - shared) as u64);
        (enc.prog, GroundAtom::new(tpl.syms.goal, Vec::new()))
    }

    /// The fleet of `guesses` in delta form: the union program `U`, whose
    /// first rules are the fleet's base program, and `U` and every guess
    /// as a delta of it ([`Fleet`]).
    ///
    /// `U` is the union of the guesses' programs, matched up by
    /// predicate key: every program of the fleet embeds rule for rule
    /// into it, and positive Datalog is monotone, so `U ⊬ goal` proves
    /// that no guess derives the goal (Lemma 4.3: the fleet is safe).
    /// `U ⊢ goal` proves nothing: `U` conflates mutually exclusive `dis`
    /// executions.
    ///
    /// A step's rules depend only on its thread, position, guessed step
    /// and the register valuation before it, so `U` encodes each distinct
    /// step once, and a guess's delta lists the rules of its steps.
    ///
    /// # Panics
    ///
    /// As [`MakeP::program`], for every guess.
    pub fn fleet(&self, guesses: &[Guess], target: DatalogTarget) -> Fleet {
        let tpl = &self.tpl;
        let closed: Vec<Vec<Vec<u32>>> = guesses.iter().map(|g| self.closed_gaps(g)).collect();
        let closed_by_some = |x: usize, g: u32| closed.iter().any(|c| c[x].contains(&g));
        let mut enc = self.encoder();
        self.extend_b_and_c(&mut enc.prog, closed_by_some);
        let base_len = enc.prog.rules().len();
        // The B facts some guess closes: (variable, gap, rule index).
        let mut gaps = Vec::new();
        for (x, facts) in tpl.gapstore.iter().enumerate() {
            for (g, fact) in facts.iter().filter(|(g, _)| closed_by_some(x, *g)) {
                gaps.push((x, *g, enc.prog.rules().len() as u32));
                enc.prog.extend_validated([fact]);
            }
        }
        let encoded_from = enc.prog.rules().len();
        // Per (thread, position, step), the rules of each register
        // valuation it is taken under.
        let mut steps: FxMap<_, Vec<(RegVal, Range<u32>)>> = FxMap::default();
        let mut asserts = BTreeSet::new();
        let mut deltas: Vec<Vec<u32>> = Vec::with_capacity(guesses.len());
        for (guess, closed) in guesses.iter().zip(&closed) {
            let open = gaps.iter().filter(|(x, g, _)| !closed[*x].contains(g));
            let mut delta: Vec<u32> = open.map(|&(_, _, ri)| ri).collect();
            self.walk(guess, |ti, pos, step, rv| {
                let taken = steps.entry((ti, pos, step)).or_default();
                let rules = match taken.iter().find(|(r, _)| r == rv) {
                    Some((_, rules)) => rules.clone(),
                    None => {
                        let start = enc.prog.rules().len() as u32;
                        enc.emit_dis_step(ti, pos, &step, rv);
                        let rules = start..enc.prog.rules().len() as u32;
                        taken.push((rv.clone(), rules.clone()));
                        rules
                    }
                };
                delta.extend(rules);
            });
            asserts.extend(self.assert_positions(guess));
            deltas.push(delta);
        }
        // The goal rules: those of every program, then, for an assert
        // target, one per `dis` assert.
        let goals_at = enc.prog.rules().len() as u32;
        let asserts: Vec<(usize, usize)> = asserts.into_iter().collect();
        enc.emit_goal_rules(target, &tpl.env_asserts, asserts.iter().copied());
        let end = enc.prog.rules().len() as u32;
        let dis_asserts = match target {
            DatalogTarget::AssertViolation => asserts.len() as u32,
            DatalogTarget::MessageGenerated(..) => 0,
        };
        let shared = goals_at..end - dis_asserts;
        for (delta, guess) in deltas.iter_mut().zip(guesses) {
            delta.extend(shared.clone());
            if dis_asserts > 0 {
                delta.extend(self.assert_positions(guess).map(|at| {
                    shared.end + asserts.binary_search(&at).expect("an assert of U") as u32
                }));
            }
        }
        self.rec
            .counter("rules_encoded")
            .add((enc.prog.rules().len() - encoded_from) as u64);
        Fleet {
            program: enc.prog,
            goal: GroundAtom::new(tpl.syms.goal, Vec::new()),
            base_len,
            union: (base_len as u32..end).collect(),
            guesses: deltas,
        }
    }

    /// Appends to `prog` segment B, minus the gaps `g` of each variable
    /// `x` that `closed(x, g)` names, then segment C. The template
    /// validated both against its registry, which `prog`'s extends.
    fn extend_b_and_c(&self, prog: &mut Program, closed: impl Fn(usize, u32) -> bool) {
        for (x, facts) in self.tpl.gapstore.iter().enumerate() {
            let open = facts.iter().filter(|(g, _)| !closed(x, *g));
            prog.extend_validated(open.map(|(_, fact)| fact));
        }
        prog.extend_validated(self.tpl.env.iter());
    }

    /// Calls `f(ti, pos, step, rv)` along each thread `ti`'s skeleton of
    /// `guess`, with the step's slot and read kind filled in, where `rv`
    /// is the register valuation before the step.
    fn walk(&self, guess: &Guess, mut f: impl FnMut(usize, usize, DisStepGuess, &RegVal)) {
        assert_eq!(
            guess.skeletons.len(),
            self.sys.dis.len(),
            "a guess has one skeleton per dis thread"
        );
        let mut sites = guess.sites.iter();
        for (ti, &k) in guess.skeletons.iter().enumerate() {
            let dis = &self.sys.dis[ti];
            let edges = dis.cfa().edges();
            let mut rv = RegVal::new(dis.n_regs() as usize);
            let skeleton = &self.tpl.skeletons[ti][k as usize];
            for (pos, mut step) in skeleton.iter().copied().enumerate() {
                let instr = &edges[step.edge].instr;
                if matches!(instr, Instr::Store(..) | Instr::Cas(..)) {
                    let &(slot, read) = sites.next().expect("a slot per store-ish step");
                    step.slot = Some(slot);
                    step.cas_read = read;
                }
                f(ti, pos, step, &rv);
                match instr {
                    Instr::Assign(r, e) => rv.set(*r, e.eval(&rv, self.sys.dom)),
                    Instr::Load(r, _) => rv.set(*r, step.loaded.expect("a load carries a value")),
                    _ => {}
                }
            }
        }
    }

    /// Per variable, the gaps closed by the guess's integer-read CAS steps.
    fn closed_gaps(&self, guess: &Guess) -> Vec<Vec<u32>> {
        let mut closed = vec![Vec::new(); self.sys.n_vars() as usize];
        self.walk(guess, |ti, _, step, _| {
            let instr = &self.sys.dis[ti].cfa().edges()[step.edge].instr;
            if let (Instr::Cas(x, ..), Some(CasRead::IntSlot)) = (instr, step.cas_read) {
                closed[x.index()].push(step.slot.expect("cas step has a slot") - 1);
            }
        });
        closed
    }

    /// The `(thread, position)` of each `assert false` step of `guess`, in
    /// order.
    fn assert_positions<'g>(
        &'g self,
        guess: &'g Guess,
    ) -> impl Iterator<Item = (usize, usize)> + 'g {
        guess
            .skeletons
            .iter()
            .enumerate()
            .flat_map(move |(ti, &k)| {
                let edges = self.sys.dis[ti].cfa().edges();
                self.tpl.skeletons[ti][k as usize]
                    .iter()
                    .enumerate()
                    .filter(move |(_, step)| matches!(edges[step.edge].instr, Instr::AssertFalse))
                    .map(move |(pos, _)| (ti, pos))
            })
    }

    /// An encoder on top of the template: its registry and segment A.
    fn encoder(&self) -> Encoder<'_> {
        Encoder {
            sys: self.sys,
            syms: &self.tpl.syms,
            base: Some(&self.tpl.preds),
            preds: PredMaps::default(),
            prog: self.tpl.head.clone(),
        }
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

/// A guess fleet in delta form ([`MakeP::fleet`]): one program, `U`,
/// whose first rules are the fleet's base program, with `U` and every
/// guess as a *delta* of it — the indices of the rules it adds to the
/// base ([`Evaluator::with_delta`](parra_datalog::eval::Evaluator::with_delta)).
///
/// The base program is segment A, the segment-B facts no guess closes,
/// and segment C. After it, `U` holds the other B facts, the rules of
/// each distinct `dis` step and the goal rules. A guess's delta is the
/// B facts it leaves open that the base lacks, the rules of its steps in
/// order, and its goal rules: the base program plus the delta is the
/// guess's program ([`MakeP::program`]) with its rules in the same
/// order, facts aside, and its predicates renumbered as in `U`.
#[derive(Debug)]
pub struct Fleet {
    /// The union program `U`.
    pub program: Program,
    /// The goal atom.
    pub goal: GroundAtom,
    /// The number of `program`'s rules that form the base program.
    pub base_len: usize,
    /// `U`'s delta: every rule after the base.
    pub union: Vec<u32>,
    /// Each guess's delta, in guess order.
    pub guesses: Vec<Vec<u32>>,
}

/// The guess-independent part of every program of one encoder.
///
/// A program is laid out in four segments:
///
/// * **A** — the timeline facts (`tle`, `tlt`, `tmax`, `gapjoin`);
/// * **B** — the `gapstore_x` facts, minus the gaps the guess's
///   integer-read CAS steps close;
/// * **C** — the initial facts and the `env` rules, grounded over the
///   reachable `env` control states;
/// * **D** — the `dis` rules along the guessed skeletons, then the goal
///   rules.
///
/// Only B and D depend on the guess, and neither creates a constant or a
/// predicate before C's are all declared. So `head` carries the registry
/// in the order a from-scratch encoding creates it, and every program
/// gets the same ids, rules and rule order as one. B's candidates and C
/// are validated once, against `head`'s registry, which every program's
/// extends; they are shared by [`Arc`] rather than copied per guess. The
/// guesses after the first are deltas on a fleet's base program
/// ([`Fleet`]), which ends with C.
#[derive(Debug)]
pub(crate) struct Template {
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
    /// Per `dis` thread, its run skeletons, which guesses index.
    /// Each skeleton is a path from the CFA entry with resolved loads
    /// (register valuations along it follow), its steps without slots.
    skeletons: Vec<Vec<Vec<DisStepGuess>>>,
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
        // Segment B's candidates, validated here once, as segment C is.
        let mut gaps = Vec::new();
        for x in 0..syms.n_vars {
            for &a in timeline {
                for g in a.floor()..=budget.slots(VarId(x as u32)) {
                    let args = vec![syms.tc[&a], syms.tc[&ATime::Plus(g)]];
                    prog.fact(syms.gapstore[x], args)
                        .expect("gapstore facts fit the registry");
                    gaps.push((x, g));
                }
            }
        }
        let mut gapstore = vec![Vec::new(); syms.n_vars];
        for ((x, g), fact) in gaps.into_iter().zip(prog.split_rules_off(a_len)) {
            gapstore[x].push((g, fact));
        }
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
        let skeletons = sys
            .dis
            .iter()
            .map(|d| MakeP::thread_skeletons(d.cfa(), sys.dom))
            .collect();
        Template {
            head: prog,
            gapstore,
            env,
            syms,
            preds,
            env_asserts,
            skeletons,
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

/// Emits rules into one program: the template's segments A and C, or
/// segment D on top of the template.
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

    /// Env transition rules from the reachable env control states
    /// ([`reachable_env_states`]), in register-valuation order, then edge
    /// order: the full grounding over `dom^n_regs` restricted to them.
    fn emit_env_rules(&mut self) {
        let sys = self.sys;
        let cfa = sys.env.cfa_arc();
        for (rv, from) in &reachable_env_states(sys) {
            for edge in cfa.edges().iter().filter(|e| from[e.from.index()]) {
                let src = self.etp_pred(edge.from, rv);
                for (rv2, loaded) in env_steps(&edge.instr, rv, sys.dom) {
                    let dst = self.etp_pred(edge.to, &rv2);
                    let src_atom = Atom::new(src, self.vvec(0));
                    match &edge.instr {
                        Instr::Load(_, x) => {
                            let d = loaded.expect("a load step reads a value");
                            self.emit_load_rules(src_atom, dst, *x, d);
                        }
                        Instr::Store(x, e) => {
                            let d = e.eval(rv, sys.dom);
                            self.emit_env_store_rules(src_atom, dst, *x, d);
                        }
                        _ => self
                            .prog
                            .rule(Atom::new(dst, self.vvec(0)), vec![src_atom])
                            .unwrap(),
                    }
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

    /// The rules of thread `ti`'s step from position `pos`, taken under
    /// register valuation `rv`.
    fn emit_dis_step(&mut self, ti: usize, pos: usize, step: &DisStepGuess, rv: &RegVal) {
        let sys = self.sys;
        let dom = sys.dom;
        let src = self.dtp_pred(ti, pos);
        let dst = self.dtp_pred(ti, pos + 1);
        let src_atom = Atom::new(src, self.vvec(0));
        match &sys.dis[ti].cfa().edges()[step.edge].instr {
            Instr::Skip | Instr::AssertFalse | Instr::Assign(..) => {
                let v = self.vvec(0);
                self.prog
                    .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                    .unwrap();
            }
            Instr::Assume(e) => {
                debug_assert!(e.eval(rv, dom).as_bool());
                let v = self.vvec(0);
                self.prog
                    .rule(Atom::new(dst, v.clone()), vec![Atom::new(src, v)])
                    .unwrap();
            }
            Instr::Load(_, x) => {
                let d = step.loaded.expect("load step carries a value");
                self.emit_load_rules(src_atom, dst, *x, d);
            }
            Instr::Store(x, e) => {
                let d = e.eval(rv, dom);
                let slot = step.slot.expect("store step carries a slot");
                self.emit_dis_store_rules(src_atom, dst, *x, d, slot);
            }
            Instr::Cas(x, e1, e2) => {
                let d1 = e1.eval(rv, dom);
                debug_assert_eq!(step.loaded, Some(d1));
                let d2 = e2.eval(rv, dom);
                let slot = step.slot.expect("cas step carries a slot");
                let read = step.cas_read.expect("cas step carries a read kind");
                self.emit_dis_cas_rules(src_atom, dst, *x, d1, d2, slot, read);
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

    /// Goal rules per target; `dis_asserts` are the `(thread, position)`
    /// of the `dis` assert steps.
    fn emit_goal_rules(
        &mut self,
        target: DatalogTarget,
        env_asserts: &[PredId],
        dis_asserts: impl IntoIterator<Item = (usize, usize)>,
    ) {
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
                for (ti, pos) in dis_asserts {
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

/// The `env` steps along `instr` from register valuation `rv`: each
/// step's valuation after it, and the value it loads. Segment C's rules
/// and [`reachable_env_states`] take exactly these.
fn env_steps(instr: &Instr, rv: &RegVal, dom: Dom) -> Vec<(RegVal, Option<Val>)> {
    match instr {
        Instr::Skip | Instr::AssertFalse | Instr::Store(..) => vec![(rv.clone(), None)],
        Instr::Assume(e) if e.eval(rv, dom).as_bool() => vec![(rv.clone(), None)],
        Instr::Assume(_) => Vec::new(),
        Instr::Assign(r, e) => vec![(rv.with(*r, e.eval(rv, dom)), None)],
        Instr::Load(r, _) => dom.iter().map(|d| (rv.with(*r, d), Some(d))).collect(),
        Instr::Cas(..) => unreachable!("env is CAS-free"),
    }
}

/// The `env` control states reachable from `(entry, 0̄)` in the CFA
/// with every load yielding any domain value, as a location set per
/// register valuation, in valuation order (DESIGN §4, decision 12).
///
/// An `etp` atom is derived only from the initial fact or by an env rule
/// from another `etp` atom, and those rules take exactly these steps
/// ([`env_steps`]): no env rule from another state can fire.
fn reachable_env_states(sys: &ParamSystem) -> BTreeMap<RegVal, Vec<bool>> {
    let cfa = sys.env.cfa();
    let n_locs = cfa.n_locs() as usize;
    let mut seen: BTreeMap<RegVal, Vec<bool>> = BTreeMap::new();
    let mut work = vec![(RegVal::new(sys.env.n_regs() as usize), cfa.entry())];
    while let Some((rv, loc)) = work.pop() {
        let locs = seen
            .entry(rv.clone())
            .or_insert_with(|| vec![false; n_locs]);
        if std::mem::replace(&mut locs[loc.index()], true) {
            continue;
        }
        for edge in cfa.outgoing(loc) {
            let steps = env_steps(&edge.instr, &rv, sys.dom);
            work.extend(steps.into_iter().map(|(rv2, _)| (rv2, edge.to)));
        }
    }
    seen
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
            assert_eq!(g.skeletons.len(), 1);
        }
    }

    #[test]
    fn unsafe_system_has_a_proving_guess() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
        let guesses = mk.guesses().unwrap();
        let proved = guesses.iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(proved);
        // The union over-approximates the fleet, so it derives the goal too.
        let fleet = mk.fleet(&guesses, target);
        assert!(Evaluator::new(&fleet.program).query(&fleet.goal));
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
        let guesses = mk.guesses().unwrap();
        assert!(guesses.len() >= 2);
        let proved = guesses.iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(!proved);
        // `dtp` predicates key on the position alone, so the union joins
        // the load-0 guess's first step to the load-1 guess's rest and
        // derives the goal: `U ⊢ goal` proves nothing.
        let fleet = mk.fleet(&guesses, target);
        assert!(Evaluator::new(&fleet.program).query(&fleet.goal));
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
        // And so does the union.
        let u = mk.fleet(&guesses, target).program;
        let env_u: Vec<&Arc<Rule>> = u.rules().iter().filter(|r| is_env(&u, r)).collect();
        assert!(env0.iter().zip(&env_u).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn a_guess_on_the_base_is_its_program() {
        let (sys, goal_var) = handshake();
        let mk = MakeP::new(&sys, Budget::exact(&sys).unwrap(), MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        assert!(guesses.len() >= 2);
        // A rule with names for ids, so that registries can differ.
        let render = |p: &Program, r: &Rule| {
            let atom = |a: &Atom| {
                let terms: Vec<String> = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => format!("X{v}"),
                        Term::Const(c) => p.const_name(*c).unwrap().to_string(),
                    })
                    .collect();
                format!("{}({})", p.pred_name(a.pred), terms.join(","))
            };
            let body: Vec<String> = r.body.iter().map(atom).collect();
            format!("{} :- {}", atom(&r.head), body.join(", "))
        };
        // Its facts as a set, its other rules in order.
        let split = |p: &Program, rules: &mut dyn Iterator<Item = &Arc<Rule>>| {
            let (facts, rules): (Vec<_>, Vec<_>) = rules.partition(|r| r.is_fact());
            let facts: BTreeSet<String> = facts.iter().map(|r| render(p, r)).collect();
            (
                facts,
                rules.iter().map(|r| render(p, r)).collect::<Vec<_>>(),
            )
        };
        let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
        let fleet = mk.fleet(&guesses, target);
        let rules = fleet.program.rules();
        let delta_of = |delta: &[u32]| -> Vec<&Arc<Rule>> {
            let picked = delta.iter().map(|&ri| &rules[ri as usize]);
            rules[..fleet.base_len].iter().chain(picked).collect()
        };
        for (guess, delta) in guesses.iter().zip(&fleet.guesses) {
            let (whole, _) = mk.program(guess, target);
            assert_eq!(
                split(&fleet.program, &mut delta_of(delta).into_iter()),
                split(&whole, &mut whole.rules().iter())
            );
        }
        // `U`'s delta is every rule after the base.
        assert_eq!(delta_of(&fleet.union).len(), rules.len());
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
    fn no_env_rule_leaves_a_dead_location() {
        use crate::verify::{EngineId, Verdict, Verifier, VerifierOptions};
        use parra_program::expr::Expr;
        // env: either `assume false; r <- x; assert false`, whose load
        // sits behind an assume no valuation passes, or
        // `x := 1; r <- x; assume r == 1; assert false`.
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.choice(
            |p| {
                p.assume(Expr::val(0)).load(r, x).assert_false();
            },
            |p| {
                p.store(x, 1).load(r, x).assume_eq(r, 1).assert_false();
            },
        );
        let sys = b.build(env.finish(), vec![]);
        let edges = sys.env.cfa().edges();
        let dead = edges
            .iter()
            .find(|e| matches!(&e.instr, Instr::Assume(c) if *c == Expr::val(0)))
            .expect("the dead branch's assume")
            .to;
        assert!(edges
            .iter()
            .any(|e| e.from == dead && matches!(e.instr, Instr::Load(..))));
        let mk = MakeP::new(&sys, Budget::exact(&sys).unwrap(), MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        let (prog, _) = mk.program(&guesses[0], DatalogTarget::AssertViolation);
        let at_dead = format!("etp_{}_", dead.0);
        for rule in prog.rules() {
            for atom in std::iter::once(&rule.head).chain(&rule.body) {
                assert!(
                    !prog.pred_name(atom.pred).starts_with(&at_dead),
                    "a rule at the dead location: {rule:?}"
                );
            }
        }
        // The live branch loads too, and both engines find its assert.
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let datalog = v.run(EngineId::CacheDatalog).verdict;
        assert_eq!(datalog, Verdict::Unsafe);
        assert_eq!(v.run(EngineId::SimplifiedReach).verdict, datalog);
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
