//! Reachability in the simplified semantics — the direct decision
//! procedure for `env(nocas) ‖ dis₁(acyc) ‖ … ‖ disₙ(acyc)`.
//!
//! The engine interleaves the two halves of the abstraction:
//!
//! * **saturation** of the monotone `env` part between `dis` steps
//!   ([`SimpState::saturate`]) — the fixpoint the paper's Datalog rules
//!   compute;
//! * **search** over the finite `dis` state space (memoized on saturated
//!   states);
//! * **worlds**: the lazily-discovered pre-closure guesses for CAS gaps
//!   (see [`DisSuccessors`](crate::state::DisSuccessors)) — the engine's
//!   rendering of `makeP`'s nondeterministic guess of the `dis` run.
//!
//! For systems in the decidable class with the exact budget, an
//! exhaustive, un-truncated search is a *decision*: `Unsafe` comes with a
//! witness, `Safe` means no instance of any size reaches the target
//! (Theorem 3.4 + Theorem 4.1).
//!
//! # Schedule
//!
//! The search runs on the calling thread. Pre-closure worlds are
//! searched one at a time in FIFO pop order; within a world, the BFS
//! expands one frontier state at a time (successor generation +
//! saturation) and merges its successors into the [`SearchGraph`] in
//! generation order — dedup, target checks, capacity accounting, and id
//! assignment. The first world that finds a witness ends the run.

use crate::state::{Budget, DisStep, SimpState};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Counter, Gauge, Phase, PhaseTimer, Recorder};
use parra_program::classify::SystemClass;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::Val;
use parra_search::SearchGraph;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Search limits (safety nets; the abstract domain is finite).
#[derive(Debug, Clone, Copy)]
pub struct ReachLimits {
    /// Cap on saturated `dis`-states per world.
    pub max_states: usize,
    /// Cap on `env_threads.len() + env_msgs.len()` during saturation.
    pub max_env_size: usize,
    /// Cap on the number of pre-closure worlds explored.
    pub max_worlds: usize,
}

impl Default for ReachLimits {
    fn default() -> Self {
        ReachLimits {
            max_states: 100_000,
            max_env_size: 200_000,
            max_worlds: 256,
        }
    }
}

/// What to search for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimpTarget {
    /// An enabled `assert false`.
    AssertViolation,
    /// A generated message `(x, d, _)` — Message Generation (Section 4.1).
    MessageGenerated(VarId, Val),
}

/// The verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachOutcome {
    /// The target is reachable (witness attached).
    Unsafe,
    /// Exhaustive search found no violation. For the decidable class with
    /// the exact budget this is a proof of safety for *all* instances.
    Safe,
    /// A limit was hit; "no violation found" is not a proof.
    Truncated,
    /// The resource governor stopped the search; partial statistics only.
    /// Like [`Truncated`](ReachOutcome::Truncated), never a proof of
    /// safety.
    Interrupted(InterruptReason),
}

/// A witness for an `Unsafe` verdict.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The gaps guessed closed up-front in the successful world.
    pub preclosed: Vec<(VarId, u32)>,
    /// The `dis` steps, in order, between saturations.
    pub dis_path: Vec<DisStep>,
    /// The saturated state in which the target holds.
    pub final_state: SimpState,
}

/// The report of a reachability run.
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// The verdict.
    pub outcome: ReachOutcome,
    /// Saturated states visited (across all worlds).
    pub states: usize,
    /// Worlds (pre-closure guesses) explored.
    pub worlds: usize,
    /// Largest `env` configuration set observed.
    pub peak_env_configs: usize,
    /// Largest `env` message set observed.
    pub peak_env_msgs: usize,
    /// Witness for `Unsafe`.
    pub witness: Option<Witness>,
}

/// Why a system is outside the engine's supported class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsupportedSystem {
    /// The `env` program contains CAS — parameterized verification is then
    /// undecidable (Theorem 1.1) and the simplified semantics does not
    /// apply.
    EnvHasCas,
}

impl fmt::Display for UnsupportedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedSystem::EnvHasCas => {
                write!(
                    f,
                    "env program uses CAS: outside the simplified semantics \
                     (undecidable, Theorem 1.1)"
                )
            }
        }
    }
}

impl std::error::Error for UnsupportedSystem {}

/// The reachability engine.
///
/// # Example
///
/// ```
/// use parra_program::builder::SystemBuilder;
/// use parra_program::value::Val;
/// use parra_simplified::reach::{ReachLimits, ReachOutcome, Reachability, SimpTarget};
/// use parra_simplified::state::Budget;
///
/// // env: x := 1 — some env thread can always generate (x, 1).
/// let mut b = SystemBuilder::new(2);
/// let x = b.var("x");
/// let mut env = b.program("env");
/// env.store(x, 1);
/// let env = env.finish();
/// let sys = b.build(env, vec![]);
///
/// let budget = Budget::exact(&sys).expect("dis threads are loop-free");
/// let engine = Reachability::new(sys, budget, ReachLimits::default())?;
/// let report = engine.run(SimpTarget::MessageGenerated(x, Val(1)));
/// assert_eq!(report.outcome, ReachOutcome::Unsafe);
/// # Ok::<(), parra_simplified::reach::UnsupportedSystem>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    sys: ParamSystem,
    budget: Budget,
    limits: ReachLimits,
    rec: Recorder,
    gov: ResourceBudget,
}

impl Reachability {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// Rejects systems whose `env` program uses CAS.
    pub fn new(
        sys: ParamSystem,
        budget: Budget,
        limits: ReachLimits,
    ) -> Result<Reachability, UnsupportedSystem> {
        if !SystemClass::of(&sys).env.nocas {
            return Err(UnsupportedSystem::EnvHasCas);
        }
        Ok(Reachability {
            sys,
            budget,
            limits,
            rec: Recorder::disabled(),
            gov: ResourceBudget::unlimited(),
        })
    }

    /// The same engine reporting metrics and phases through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Reachability {
        self.rec = rec;
        self
    }

    /// The same engine. `_n` is ignored: the search runs on the calling
    /// thread. Kept for callers that still pass a thread count.
    pub fn with_threads(self, _n: usize) -> Reachability {
        self
    }

    /// The same engine governed by `gov`, checked once per search round.
    /// A run that completes under the budget is identical to an
    /// ungoverned run; an exhausted budget yields
    /// [`ReachOutcome::Interrupted`] with partial statistics.
    pub fn with_governor(mut self, gov: ResourceBudget) -> Reachability {
        self.gov = gov;
        self
    }

    /// The system under verification.
    pub fn system(&self) -> &ParamSystem {
        &self.sys
    }

    /// The budget in use.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Runs the search.
    pub fn run(&self, target: SimpTarget) -> ReachReport {
        let phases = PhaseTimer::new(&self.rec);
        let _search = phases.start(Phase::Search);
        self.run_inner(target)
    }

    fn run_inner(&self, target: SimpTarget) -> ReachReport {
        let limits = self.limits;

        let metrics = ReachMetrics {
            c_states: self.rec.counter("states"),
            c_sat_rounds: self.rec.counter("saturation_rounds"),
            c_sat_cfg: self.rec.counter("saturation_new_configs"),
            c_sat_msg: self.rec.counter("saturation_new_msgs"),
            c_rounds: self.rec.counter("rounds"),
            g_msgs: self.rec.gauge("env_msgs"),
            g_cfgs: self.rec.gauge("env_configs"),
            g_frontier: self.rec.gauge("frontier_size"),
        };
        let c_worlds = self.rec.counter("worlds_explored");

        let mut worlds_seen: BTreeSet<BTreeSet<(VarId, u32)>> = BTreeSet::new();
        let mut worlds_queue: VecDeque<BTreeSet<(VarId, u32)>> = VecDeque::new();
        worlds_seen.insert(BTreeSet::new());
        worlds_queue.push_back(BTreeSet::new());

        let mut total_states = 0usize;
        let mut worlds = 0usize;
        let mut peak_cfg = 0usize;
        let mut peak_msg = 0usize;
        let mut truncated = false;
        let mut interrupted: Option<InterruptReason> = None;

        while let Some(world) = worlds_queue.pop_front() {
            if let Err(reason) = self.gov.check() {
                interrupted = Some(reason);
                break;
            }
            if worlds >= limits.max_worlds {
                truncated = true;
                break;
            }
            let res = self.search_world(&world, target, &metrics);
            worlds += 1;
            c_worlds.incr();
            total_states += res.states;
            peak_cfg = peak_cfg.max(res.peak_cfg);
            peak_msg = peak_msg.max(res.peak_msg);
            truncated |= res.truncated;
            interrupted = interrupted.or(res.interrupted);
            // Flight-recorder event: every field follows the pop-order
            // schedule; only the governor's headroom is volatile.
            if self.rec.is_enabled() {
                self.rec.event_with(
                    "world",
                    &[
                        ("world", (worlds as u64 - 1).into()),
                        ("states", res.states.into()),
                        ("total_states", total_states.into()),
                        ("peak_env_msgs", res.peak_msg.into()),
                        ("peak_env_cfgs", res.peak_cfg.into()),
                        ("spawned", res.spawned.len().into()),
                        ("witness", u64::from(res.witness.is_some()).into()),
                    ],
                    &self.gov.headroom().volatile_fields(),
                );
            }
            if res.witness.is_some() {
                return ReachReport {
                    outcome: ReachOutcome::Unsafe,
                    states: total_states,
                    worlds,
                    peak_env_configs: peak_cfg,
                    peak_env_msgs: peak_msg,
                    witness: res.witness,
                };
            }
            if interrupted.is_some() {
                break;
            }
            for gap in res.spawned {
                let mut w2 = world.clone();
                w2.insert(gap);
                if worlds_seen.insert(w2.clone()) {
                    worlds_queue.push_back(w2);
                }
            }
        }

        ReachReport {
            // An interrupted search trumps mere truncation: the caller
            // must learn the run was cut short by the governor (and
            // neither is ever reported as Safe).
            outcome: if let Some(reason) = interrupted {
                ReachOutcome::Interrupted(reason)
            } else if truncated {
                ReachOutcome::Truncated
            } else {
                ReachOutcome::Safe
            },
            states: total_states,
            worlds,
            peak_env_configs: peak_cfg,
            peak_env_msgs: peak_msg,
            witness: None,
        }
    }

    /// Searches one pre-closure world. Everything it learns comes back in
    /// the [`WorldResult`], which the caller adds to the run totals.
    fn search_world(
        &self,
        world: &BTreeSet<(VarId, u32)>,
        target: SimpTarget,
        m: &ReachMetrics,
    ) -> WorldResult {
        let sys = &self.sys;
        let budget = &self.budget;
        let limits = self.limits;

        let target_holds = |st: &SimpState| match target {
            SimpTarget::AssertViolation => st.assert_enabled(sys),
            SimpTarget::MessageGenerated(x, d) => st.has_message(x, d),
        };

        let mut result = WorldResult {
            states: 0,
            truncated: false,
            interrupted: None,
            peak_cfg: 0,
            peak_msg: 0,
            spawned: Vec::new(),
            witness: None,
        };

        let mut init = SimpState::initial(sys);
        for &(x, g) in world {
            init.preclose(x, g);
        }
        let (dc, dm) = init.saturate(sys, budget, limits.max_env_size);
        m.c_sat_rounds.incr();
        m.c_sat_cfg.add(dc as u64);
        m.c_sat_msg.add(dm as u64);
        if init.env_threads.len() + init.env_msgs.len() > limits.max_env_size {
            result.truncated = true;
        }
        result.peak_cfg = init.env_threads.len();
        result.peak_msg = init.env_msgs.len();
        m.g_cfgs.record_peak(init.env_threads.len() as u64);
        m.g_msgs.record_peak(init.env_msgs.len() as u64);

        let hit_init = target_holds(&init);
        let mut graph: SearchGraph<SimpState, DisStep> = SearchGraph::new();
        graph.insert(init, None);
        result.states = 1;
        m.c_states.incr();
        if hit_init {
            result.witness = Some(Witness {
                preclosed: world.iter().copied().collect(),
                dis_path: Vec::new(),
                final_state: graph.state(0).clone(),
            });
            return result;
        }

        // One expansion = everything derivable from a frontier state
        // without touching the graph: `dis` successors plus the (hot) env
        // saturation of each one, all computed before the merge.
        let expand = |state: &SimpState| -> Expansion {
            let succs = state.dis_successors(sys, budget);
            let blocked: Vec<(VarId, u32)> = succs
                .blocked_gaps
                .into_iter()
                .filter(|g| !world.contains(g))
                .collect();
            let mut steps = Vec::with_capacity(succs.steps.len());
            for (step, mut next) in succs.steps {
                let (dc, dm) = next.saturate(sys, budget, limits.max_env_size);
                m.c_sat_rounds.incr();
                m.c_sat_cfg.add(dc as u64);
                m.c_sat_msg.add(dm as u64);
                let env_ok = next.env_threads.len() + next.env_msgs.len() <= limits.max_env_size;
                steps.push((step, next, env_ok));
            }
            Expansion { blocked, steps }
        };

        let mut spawned_here: BTreeSet<(VarId, u32)> = BTreeSet::new();
        let mut frontier: Vec<u32> = vec![0];
        while !frontier.is_empty() {
            if let Err(reason) = self.gov.check() {
                result.interrupted = Some(reason);
                return result;
            }
            m.c_rounds.incr();
            m.g_frontier.set(frontier.len() as u64);

            let current = std::mem::take(&mut frontier);
            for si in current {
                let exp = expand(graph.state(si));
                // Blocked CAS gaps propose new pre-closure worlds; the
                // outer loop dedups against globally-seen worlds when it
                // commits this result.
                for gap in exp.blocked {
                    if spawned_here.insert(gap) {
                        result.spawned.push(gap);
                    }
                }
                for (step, next, env_ok) in exp.steps {
                    if !env_ok {
                        result.truncated = true;
                        continue;
                    }
                    result.peak_cfg = result.peak_cfg.max(next.env_threads.len());
                    result.peak_msg = result.peak_msg.max(next.env_msgs.len());
                    m.g_cfgs.record_peak(next.env_threads.len() as u64);
                    m.g_msgs.record_peak(next.env_msgs.len() as u64);
                    if graph.contains(&next) {
                        continue;
                    }
                    // Evaluate the target *before* the capacity check: a
                    // truncated search must never drop the successor that
                    // witnesses unsafety (it may be stored one past
                    // `max_states`).
                    let hit = target_holds(&next);
                    if !hit && graph.len() >= limits.max_states {
                        result.truncated = true;
                        continue;
                    }
                    let ni = graph.insert(next, Some((si, step)));
                    result.states += 1;
                    m.c_states.incr();
                    if hit {
                        result.witness = Some(Witness {
                            preclosed: world.iter().copied().collect(),
                            dis_path: graph.unwind(ni),
                            final_state: graph.state(ni).clone(),
                        });
                        return result;
                    }
                    frontier.push(ni);
                }
            }
        }
        result
    }
}

/// Metric handles of one run, shared by its per-world searches.
struct ReachMetrics {
    c_states: Counter,
    c_sat_rounds: Counter,
    c_sat_cfg: Counter,
    c_sat_msg: Counter,
    c_rounds: Counter,
    g_msgs: Gauge,
    g_cfgs: Gauge,
    g_frontier: Gauge,
}

/// Everything one world's search produces, added to the run totals in
/// world pop order.
struct WorldResult {
    states: usize,
    truncated: bool,
    /// Set when the governor stopped this world's search mid-way.
    interrupted: Option<InterruptReason>,
    peak_cfg: usize,
    peak_msg: usize,
    /// Blocked CAS gaps, in first-discovery order, each proposing the
    /// world extended by that gap.
    spawned: Vec<(VarId, u32)>,
    witness: Option<Witness>,
}

/// The output of expanding one frontier state, computed before its merge.
struct Expansion {
    blocked: Vec<(VarId, u32)>,
    steps: Vec<(DisStep, SimpState, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_program::builder::SystemBuilder;

    fn limits() -> ReachLimits {
        ReachLimits::default()
    }

    /// env: r <- y; assume r == 1; x := 1
    /// dis: y := 1; s <- x; assume s == 1; assert false
    fn handshake() -> ParamSystem {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.store(y, 1).load(s, x).assume_eq(s, 1).assert_false();
        let d = d.finish();
        b.build(env, vec![d])
    }

    #[test]
    fn handshake_is_unsafe() {
        let sys = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
        let w = report.witness.unwrap();
        assert!(!w.dis_path.is_empty());
        assert!(w.preclosed.is_empty());
    }

    /// Safe variant: env never stores, so the dis assume s == 1 blocks.
    #[test]
    fn silent_env_is_safe() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.skip();
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.load(s, x).assume_eq(s, 1).assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(report.outcome, ReachOutcome::Safe);
        assert!(report.witness.is_none());
    }

    /// The RA coherence guarantee: after seeing x = 1 (stored after
    /// y = 1 by the same thread), y = 0 is unreadable.
    #[test]
    fn no_overwritten_reads_across_env_and_dis() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("writer");
        env.store(y, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("reader");
        let rx = d.reg("rx");
        let ry = d.reg("ry");
        d.load(rx, x)
            .assume_eq(rx, 1)
            .load(ry, y)
            .assume_eq(ry, 0)
            .assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(report.outcome, ReachOutcome::Safe);
    }

    /// A system whose violation needs a pre-closed CAS gap, i.e. more
    /// than one world: env writes x := 2, dis CAS-es x 0→1 and must still
    /// read the env message.
    fn cas_world_system() -> (ParamSystem, VarId) {
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let f = b.var("f");
        let mut env = b.program("env");
        // env writes x := 2 — anywhere, including the CAS gap.
        env.store(x, 2);
        let env = env.finish();
        let mut d = b.program("d");
        let r = d.reg("r");
        // dis CAS x from 0 to 1, then must still see an env message x = 2.
        d.cas(x, 0, 1).load(r, x).assume_eq(r, 2).store(f, 1);
        let d = d.finish();
        let mut d2 = b.program("d2");
        let s = d2.reg("s");
        d2.load(s, f).assume_eq(s, 1).assert_false();
        let d2 = d2.finish();
        (b.build(env, vec![d, d2]), x)
    }

    /// CAS blocked by env messages in the base world succeeds in the
    /// pre-closed world: dis needs the CAS *and* an env message.
    #[test]
    fn world_restart_enables_cas() {
        let (sys, x) = cas_world_system();
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
        // The witness world should have pre-closed gap 0 of x... unless the
        // base world already worked (env can choose gap 1 or 2 and leave
        // gap 0 free — but saturation puts messages in *all* gaps, so the
        // pre-closure is required).
        let w = report.witness.unwrap();
        assert!(w.preclosed.contains(&(x, 0)));
        assert!(report.worlds > 1);
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
            Reachability::new(sys.clone(), Budget::uniform_for(&sys, 1), limits()).unwrap_err();
        assert_eq!(err, UnsupportedSystem::EnvHasCas);
    }

    /// Unbounded env loops are handled exactly (no depth bound needed):
    /// env: loop { r <- x; x := r + 1 } over a small modular domain.
    #[test]
    fn env_loops_saturate() {
        let mut b = SystemBuilder::new(4);
        let x = b.var("x");
        let goal = b.var("goal");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.star(|p| {
            p.load(r, x);
            p.store(
                x,
                parra_program::expr::Expr::reg(r).add(parra_program::expr::Expr::val(1)),
            );
        });
        env.load(r, x).assume_eq(r, 3).store(goal, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let budget = Budget::exact(&sys).unwrap(); // no dis stores: T = 0
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::MessageGenerated(goal, Val(1)));
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
    }

    /// A state-churning system (no reachable violation) for truncation
    /// tests: dis writes and reads x while env also writes it.
    fn churn_system() -> (ParamSystem, VarId) {
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let r = d.reg("r");
        d.store(x, 2).load(r, x).store(x, 1);
        let d = d.finish();
        (b.build(env, vec![d]), x)
    }

    /// Exhausting the state cap yields Truncated, never a silent Safe.
    #[test]
    fn tight_limits_truncate() {
        let (sys, x) = churn_system();
        let budget = Budget::exact(&sys).unwrap();
        let tight = ReachLimits {
            max_states: 2,
            max_env_size: 200_000,
            max_worlds: 256,
        };
        let engine = Reachability::new(sys, budget, tight).unwrap();
        // The never-generated value forces exploring everything; the cap
        // cuts it off.
        let report = engine.run(SimpTarget::MessageGenerated(x, Val(7)));
        assert_eq!(report.outcome, ReachOutcome::Truncated);
    }

    /// The initial value d_init = 0 is trivially generated.
    #[test]
    fn init_value_always_generated() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let env = {
            let mut p = b.program("env");
            p.skip();
            p.finish()
        };
        let sys = b.build(env, vec![]);
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, ReachLimits::default()).unwrap();
        let report = engine.run(SimpTarget::MessageGenerated(x, Val(0)));
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
        assert!(report.witness.unwrap().dis_path.is_empty());
    }

    /// Figure 3's point: the consumer can loop more times than there are
    /// producers — z > l is feasible because env messages are re-readable
    /// (clones). Here dis reads x = 1 twice though each env thread writes
    /// it once.
    #[test]
    fn dis_rereads_env_messages() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("producer");
        env.store(x, 1);
        let env = env.finish();
        let mut d = b.program("consumer");
        let r = d.reg("r");
        d.load(r, x)
            .assume_eq(r, 1)
            .load(r, x)
            .assume_eq(r, 1)
            .assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits()).unwrap();
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
    }

    /// Regression: the capacity check must not mask an `Unsafe` verdict.
    ///
    /// The goal state is the last insertion of an unbounded run, so with
    /// `max_states = states - 1` it arrives exactly at the capacity
    /// boundary. The old engine dropped it there (`continue` before the
    /// target check) and kept searching, reporting `Truncated`; the fixed
    /// engine evaluates the target first and returns `Unsafe`.
    #[test]
    fn target_at_state_capacity_boundary_is_unsafe() {
        let sys = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let full = Reachability::new(sys.clone(), budget.clone(), limits())
            .unwrap()
            .run(SimpTarget::AssertViolation);
        assert_eq!(full.outcome, ReachOutcome::Unsafe);
        assert!(full.states >= 2, "need a non-initial goal state");
        let tight = ReachLimits {
            max_states: full.states - 1,
            ..limits()
        };
        let report = Reachability::new(sys, budget, tight)
            .unwrap()
            .run(SimpTarget::AssertViolation);
        assert_eq!(
            report.outcome,
            ReachOutcome::Unsafe,
            "goal at the capacity boundary must stay Unsafe"
        );
        assert_eq!(report.states, full.states);
        assert!(report.witness.is_some());
    }

    /// Same regression in a multi-world search: the violating world of
    /// [`cas_world_system`] is not the first, so the boundary hits after
    /// earlier worlds already contributed states.
    #[test]
    fn world_search_capacity_boundary_is_unsafe() {
        let (sys, _) = cas_world_system();
        let budget = Budget::exact(&sys).unwrap();
        let full = Reachability::new(sys.clone(), budget.clone(), limits())
            .unwrap()
            .run(SimpTarget::AssertViolation);
        assert_eq!(full.outcome, ReachOutcome::Unsafe);
        assert!(full.worlds > 1);
        // States contributed by the worlds explored *before* the
        // violating one: cap the world count just below it — the FIFO
        // prefix is identical, so the difference is the violating world's
        // own state count, whose last insertion is the goal.
        let prefix = Reachability::new(
            sys.clone(),
            budget.clone(),
            ReachLimits {
                max_worlds: full.worlds - 1,
                ..limits()
            },
        )
        .unwrap()
        .run(SimpTarget::AssertViolation);
        assert_eq!(prefix.outcome, ReachOutcome::Truncated);
        let goal_world_states = full.states - prefix.states;
        assert!(
            goal_world_states >= 2,
            "goal world needs a non-initial goal"
        );
        let tight = ReachLimits {
            max_states: goal_world_states - 1,
            ..limits()
        };
        let report = Reachability::new(sys, budget, tight)
            .unwrap()
            .run(SimpTarget::AssertViolation);
        assert_eq!(
            report.outcome,
            ReachOutcome::Unsafe,
            "goal at the per-world capacity boundary must stay Unsafe"
        );
    }

    /// A budget that is already exhausted interrupts before any world is
    /// searched; partial statistics are preserved (here: none yet).
    #[test]
    fn exhausted_deadline_interrupts_with_partial_stats() {
        let sys = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let engine = Reachability::new(sys, budget, limits())
            .unwrap()
            .with_governor(ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(
            report.outcome,
            ReachOutcome::Interrupted(InterruptReason::Deadline)
        );
        assert!(report.witness.is_none());
    }

    /// A pre-cancelled token interrupts with `Cancelled`.
    #[test]
    fn cancelled_token_interrupts() {
        let sys = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let token = parra_limits::CancelToken::new();
        token.cancel();
        let engine = Reachability::new(sys, budget, limits())
            .unwrap()
            .with_governor(ResourceBudget::unlimited().with_cancel(token));
        let report = engine.run(SimpTarget::AssertViolation);
        assert_eq!(
            report.outcome,
            ReachOutcome::Interrupted(InterruptReason::Cancelled)
        );
    }

    /// A completed run under a generous budget is identical to an
    /// ungoverned run — governance checks have no side effects. The cases
    /// cover one world, several worlds, an exhausted search and a
    /// truncated one; the comparison covers verdict, state/world counts,
    /// peaks, and the witness.
    #[test]
    fn generous_budget_matches_unlimited_run() {
        let cases: Vec<(ParamSystem, SimpTarget, ReachLimits)> = vec![
            (handshake(), SimpTarget::AssertViolation, limits()),
            (cas_world_system().0, SimpTarget::AssertViolation, limits()),
            (
                churn_system().0,
                SimpTarget::MessageGenerated(churn_system().1, Val(7)),
                limits(),
            ),
            // A truncated search.
            (
                churn_system().0,
                SimpTarget::MessageGenerated(churn_system().1, Val(7)),
                ReachLimits {
                    max_states: 2,
                    ..limits()
                },
            ),
        ];
        for (case, (sys, target, lim)) in cases.into_iter().enumerate() {
            let budget = Budget::exact(&sys).unwrap();
            let base = Reachability::new(sys.clone(), budget.clone(), lim)
                .unwrap()
                .run(target);
            let r = Reachability::new(sys, budget, lim)
                .unwrap()
                .with_governor(
                    ResourceBudget::unlimited()
                        .with_deadline(std::time::Duration::from_secs(3600))
                        .with_memory_limit(usize::MAX),
                )
                .run(target);
            assert_eq!(r.outcome, base.outcome, "case {case}");
            assert_eq!(r.states, base.states, "case {case}");
            assert_eq!(r.worlds, base.worlds, "case {case}");
            assert_eq!(r.peak_env_configs, base.peak_env_configs, "case {case}");
            assert_eq!(r.peak_env_msgs, base.peak_env_msgs, "case {case}");
            assert_eq!(
                format!("{:?}", r.witness),
                format!("{:?}", base.witness),
                "case {case}"
            );
        }
    }
}
