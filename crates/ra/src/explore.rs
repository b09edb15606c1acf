//! Bounded explicit-state model checking of system instances.
//!
//! Timestamps in RA matter only up to (a) the per-variable order of
//! messages and (b) CAS adjacency. The explorer therefore works on a
//! *canonical* representation: each variable's messages form a sequence in
//! modification order, views hold positions into these sequences, and a CAS
//! *glues* its store to the loaded message so nothing can ever be inserted
//! between them (with natural-number timestamps, `ts` and `ts+1` are
//! consecutive forever). A store may insert its message at any non-glued
//! position above the storing thread's view — this captures the full
//! generality of timestamp choice that the monotone generator in
//! [`step`](crate::step) deliberately forgoes.
//!
//! Identical `env` threads are canonicalized by sorting their local states
//! (thread identities never appear in messages), which prunes the
//! factorial-size symmetric part of the state space.
//!
//! The search runs in **batched rounds over a sharded frontier**
//! (`parra-search`): each round, the frontier is expanded in parallel by
//! [`Explorer::with_threads`] workers — successor generation and
//! canonicalization, the clone-heavy hot path, run off-thread — and the
//! results are merged sequentially *in frontier order*, so state ids,
//! counts, truncation, and witnesses are identical to the sequential run
//! whatever the worker count. `threads == 1` never spawns a thread and
//! streams states one at a time (the legacy code path).
//!
//! The explorer is the paper's baseline: exact for a fixed instance and
//! bounded depth, and the reference point for validating the simplified
//! semantics (Theorem 3.4) and for the §4.3 thread-count experiments.

use crate::config::{Instance, ThreadId};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Phase, PhaseTimer, Recorder};
use parra_program::cfg::{Instr, Loc};
use parra_program::expr::RegVal;
use parra_program::ident::VarId;
use parra_program::pretty::{instr_to_string, Names};
use parra_program::value::Val;
use parra_search::{ordered_map, SearchGraph, Threads};

/// Search limits.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Maximum transitions along any path (depth bound).
    pub max_depth: usize,
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_depth: 64,
            max_states: 200_000,
        }
    }
}

/// What the explorer searches for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// An enabled `assert false` instruction.
    AssertViolation,
    /// A generated message `(x, d, _)` — the Message Generation problem of
    /// Section 4.1.
    MessageGenerated(VarId, Val),
}

/// The verdict of a bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// The target is reachable; a witness is attached to the report.
    Unsafe,
    /// The full (finite) state space was exhausted without reaching the
    /// target: the instance is definitively safe.
    SafeExhausted,
    /// The bounds cut the search; no violation within them.
    SafeWithinBounds,
    /// The resource governor stopped the search; partial statistics only.
    /// Never evidence of safety.
    Interrupted(InterruptReason),
}

/// One step of a witness: the acting thread and the instruction text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// The acting thread.
    pub thread: ThreadId,
    /// Whether it is an `env` thread or which `dis` thread.
    pub description: String,
}

/// The result of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The verdict.
    pub outcome: ExploreOutcome,
    /// Number of distinct canonical states visited.
    pub states: usize,
    /// Number of transitions taken (edges of the search graph).
    pub transitions: usize,
    /// For [`ExploreOutcome::Unsafe`], a shortest witness run (threads are
    /// canonical representatives of their symmetry class).
    pub witness: Option<Vec<WitnessStep>>,
}

/// A canonical message: value, view (positions per variable), glue mark.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct CMsg {
    val: Val,
    view: Vec<u32>,
    /// Glued to its predecessor in modification order (CAS adjacency).
    glued: bool,
}

/// A canonical thread state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct CThread {
    loc: Loc,
    regs: RegVal,
    view: Vec<u32>,
}

/// A canonical global state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CState {
    /// `mem[x]` is variable `x`'s message sequence in modification order;
    /// index 0 is the initial message.
    mem: Vec<Vec<CMsg>>,
    threads: Vec<CThread>,
}

impl CState {
    fn initial(instance: &Instance) -> CState {
        let n_vars = instance.n_vars();
        let init_msg = CMsg {
            val: Val::INIT,
            view: vec![0; n_vars],
            glued: false,
        };
        CState {
            mem: vec![vec![init_msg]; n_vars],
            threads: instance
                .threads()
                .map(|tid| {
                    let p = instance.program(tid);
                    CThread {
                        loc: p.cfa().entry(),
                        regs: RegVal::new(p.n_regs() as usize),
                        view: vec![0; n_vars],
                    }
                })
                .collect(),
        }
    }

    /// Sorts the `env` block (identical programs, interchangeable
    /// identities) into a canonical order.
    fn canonicalize(&mut self, n_env: usize) {
        self.threads[..n_env].sort();
    }

    /// Shifts every stored position on variable `x` that is `>= at` up by
    /// one, making room for an insertion at `at`.
    fn shift_positions(&mut self, x: VarId, at: u32) {
        let xi = x.index();
        for var_msgs in &mut self.mem {
            for m in var_msgs.iter_mut() {
                if m.view[xi] >= at {
                    m.view[xi] += 1;
                }
            }
        }
        for th in &mut self.threads {
            if th.view[xi] >= at {
                th.view[xi] += 1;
            }
        }
    }

    fn has_message(&self, x: VarId, d: Val) -> bool {
        self.mem[x.index()].iter().any(|m| m.val == d)
    }
}

fn join_views(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().zip(b).map(|(&p, &q)| p.max(q)).collect()
}

/// A compact parent-edge label: the acting thread and the index of the
/// taken edge in its program's CFA. Formatted into a [`WitnessStep`] only
/// during unwinding — never on the hot path.
type StepLabel = (ThreadId, u32);

/// One output item of expanding a single state (produced by workers,
/// consumed by the sequential merge, in generation order).
enum ExpandEvent {
    /// An enabled `assert false` edge (only emitted when the target is
    /// [`Target::AssertViolation`]); the sequential search stops here.
    AssertHit(ThreadId, u32),
    /// A canonicalized successor reached by `thread` taking `edge`.
    Succ {
        thread: ThreadId,
        edge: u32,
        state: CState,
    },
}

/// The bounded model checker.
#[derive(Debug, Clone)]
pub struct Explorer {
    instance: Instance,
    limits: ExploreLimits,
    rec: Recorder,
    threads: Threads,
    gov: ResourceBudget,
}

impl Explorer {
    /// Creates an explorer over an instance (sequential; see
    /// [`Explorer::with_threads`]).
    pub fn new(instance: Instance, limits: ExploreLimits) -> Explorer {
        Explorer {
            instance,
            limits,
            rec: Recorder::disabled(),
            threads: Threads::exact(1),
            gov: ResourceBudget::unlimited(),
        }
    }

    /// The same explorer reporting metrics/spans through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Explorer {
        self.rec = rec;
        self
    }

    /// The same explorer expanding each frontier with `n` worker threads
    /// (clamped to at least 1). Results are bit-identical for every `n`;
    /// `1` is the sequential legacy path.
    pub fn with_threads(mut self, n: usize) -> Explorer {
        self.threads = Threads::exact(n);
        self
    }

    /// The same explorer governed by `gov`, checked once per BFS round. A
    /// run that completes under the budget is identical to an ungoverned
    /// run; exhaustion yields [`ExploreOutcome::Interrupted`] with the
    /// partial state/transition counts.
    pub fn with_governor(mut self, gov: ResourceBudget) -> Explorer {
        self.gov = gov;
        self
    }

    /// Runs the search for `target`.
    pub fn run(&self, target: Target) -> ExploreReport {
        let span = self.rec.span("explore.run");
        let phases = PhaseTimer::new(&self.rec);
        let _search = phases.start(Phase::Search);
        let report = self.run_inner(target);
        span.arg_u64("states", report.states as u64);
        span.arg_u64("transitions", report.transitions as u64);
        span.arg_str("outcome", &format!("{:?}", report.outcome));
        report
    }

    fn run_inner(&self, target: Target) -> ExploreReport {
        let instance = &self.instance;
        let n_env = instance.n_env();
        let n_workers = self.threads.get();

        let mut init = CState::initial(instance);
        init.canonicalize(n_env);

        // Immediate check on the initial state.
        if let Target::MessageGenerated(x, d) = target {
            if init.has_message(x, d) {
                return ExploreReport {
                    outcome: ExploreOutcome::Unsafe,
                    states: 1,
                    transitions: 0,
                    witness: Some(Vec::new()),
                };
            }
        }

        let c_states = self.rec.counter("states");
        let c_transitions = self.rec.counter("transitions");
        let c_dedup = self.rec.counter("dedup_hits");
        let c_rounds = self.rec.counter("rounds");
        let g_queue = self.rec.gauge("queue_len");
        let g_frontier = self.rec.gauge("frontier_size");
        let h_depth = self.rec.histogram("state_depth");
        let worker_expanded: Vec<_> = (0..n_workers)
            .map(|w| self.rec.counter(&format!("worker{w}_expanded")))
            .collect();

        // The search graph assigns ids in merge order — identical for
        // every worker count; `depths[id]` tracks the BFS level.
        let mut graph: SearchGraph<CState, StepLabel> = SearchGraph::new(n_workers);
        let mut depths: Vec<u32> = Vec::new();
        graph.insert(init, None);
        depths.push(0);
        c_states.incr();
        h_depth.record(0);

        let mut frontier: Vec<u32> = vec![0];
        let mut transitions = 0usize;
        let mut truncated = false;
        let mut round = 0u64;

        while !frontier.is_empty() {
            if let Err(reason) = self.gov.check() {
                return ExploreReport {
                    outcome: ExploreOutcome::Interrupted(reason),
                    states: graph.len(),
                    transitions,
                    witness: None,
                };
            }
            g_frontier.set(frontier.len() as u64);
            round += 1;
            c_rounds.incr();

            // The depth bound cuts states off before expansion.
            let expandable: Vec<u32> = frontier
                .iter()
                .copied()
                .filter(|&si| {
                    if depths[si as usize] as usize >= self.limits.max_depth {
                        truncated = true;
                        false
                    } else {
                        true
                    }
                })
                .collect();
            frontier.clear();

            // Expansion phase: successor generation + canonicalization
            // (the clone-heavy part) fans out across the workers in
            // frontier-order chunks; the graph is frozen (shared borrow)
            // while a chunk runs, so the buffered successors stay
            // O(chunk × branching) however large the frontier is.
            // Sequential mode streams one state at a time instead.
            for chunk in expandable.chunks(parra_search::round_chunk(n_workers)) {
                let mut expanded: Vec<Vec<ExpandEvent>> = if n_workers > 1 && chunk.len() > 1 {
                    let states = graph.states();
                    ordered_map(n_workers, chunk, |w, _, &si| {
                        worker_expanded[w].incr();
                        self.expand_state(&states[si as usize], target)
                    })
                } else {
                    Vec::new()
                };

                // Merge phase: sequential, in frontier order — id assignment,
                // dedup, limits, and target checks happen here and only here.
                for (pos, &si) in chunk.iter().enumerate() {
                    let events = if expanded.is_empty() {
                        worker_expanded[0].incr();
                        self.expand_state(graph.state(si), target)
                    } else {
                        std::mem::take(&mut expanded[pos])
                    };
                    for event in events {
                        match event {
                            ExpandEvent::AssertHit(tid, edge) => {
                                let mut w = self.witness(&graph, si);
                                w.push(self.describe(tid, edge));
                                return ExploreReport {
                                    outcome: ExploreOutcome::Unsafe,
                                    states: graph.len(),
                                    transitions,
                                    witness: Some(w),
                                };
                            }
                            ExpandEvent::Succ {
                                thread,
                                edge,
                                state,
                            } => {
                                transitions += 1;
                                c_transitions.incr();
                                if graph.contains(&state) {
                                    c_dedup.incr();
                                    continue;
                                }
                                // Goal message check on the new state —
                                // evaluated BEFORE the capacity drop, so a
                                // full state table can never mask an Unsafe
                                // verdict as SafeWithinBounds.
                                let reached = match target {
                                    Target::MessageGenerated(x, d) => state.has_message(x, d),
                                    Target::AssertViolation => false,
                                };
                                if !reached && graph.len() >= self.limits.max_states {
                                    truncated = true;
                                    continue;
                                }
                                let ni = graph.insert(state, Some((si, (thread, edge))));
                                depths.push(depths[si as usize] + 1);
                                c_states.incr();
                                h_depth.record(depths[ni as usize] as u64);
                                g_queue.record_peak(frontier.len() as u64 + 1);
                                if reached {
                                    return ExploreReport {
                                        outcome: ExploreOutcome::Unsafe,
                                        states: graph.len(),
                                        transitions,
                                        witness: Some(self.witness(&graph, ni)),
                                    };
                                }
                                frontier.push(ni);
                            }
                        }
                    }
                }
            }
            // Flight-recorder event at the end of the sequential merge:
            // the BFS levels replay identically at every worker count, so
            // every field is deterministic; shard layout and headroom are
            // environment-dependent and stay volatile.
            if self.rec.is_enabled() {
                let mut vol = self.gov.headroom().volatile_fields();
                vol.push(("shard_imbalance_permille", graph.shard_imbalance_permille()));
                self.rec.event_with(
                    "round",
                    &[
                        ("round", (round - 1).into()),
                        ("frontier", frontier.len().into()),
                        ("states", graph.len().into()),
                        ("transitions", transitions.into()),
                    ],
                    &vol,
                );
            }
        }

        ExploreReport {
            outcome: if truncated {
                ExploreOutcome::SafeWithinBounds
            } else {
                ExploreOutcome::SafeExhausted
            },
            states: graph.len(),
            transitions,
            witness: None,
        }
    }

    /// All expansion events of one state, in the deterministic order the
    /// sequential search would produce them (thread id, then edge order,
    /// then successor order). Pure with respect to the search state — safe
    /// to run on any worker.
    fn expand_state(&self, state: &CState, target: Target) -> Vec<ExpandEvent> {
        let instance = &self.instance;
        let n_env = instance.n_env();
        let dom = instance.system().dom;
        let mut events = Vec::new();
        for tid in instance.threads() {
            let cfa = instance.program(tid).cfa();
            let th = &state.threads[tid.0];
            for (ei, edge) in cfa.outgoing_indexed(th.loc) {
                // Target check: an enabled assert is a violation; the
                // merge stops at this event, so nothing after it matters.
                if matches!(edge.instr, Instr::AssertFalse) && target == Target::AssertViolation {
                    events.push(ExpandEvent::AssertHit(tid, ei));
                    return events;
                }
                for mut next in successor_states(state, tid, &edge.instr, dom) {
                    next.threads[tid.0].loc = edge.to;
                    next.canonicalize(n_env);
                    events.push(ExpandEvent::Succ {
                        thread: tid,
                        edge: ei,
                        state: next,
                    });
                }
            }
        }
        events
    }

    /// Renders the witness path to `at` — the parents store only compact
    /// `(thread, edge)` labels, so the description strings are formatted
    /// here, once per witness, instead of once per stored state.
    fn witness(&self, graph: &SearchGraph<CState, StepLabel>, at: u32) -> Vec<WitnessStep> {
        graph
            .unwind(at)
            .into_iter()
            .map(|(tid, edge)| self.describe(tid, edge))
            .collect()
    }

    fn describe(&self, tid: ThreadId, edge: u32) -> WitnessStep {
        let program = self.instance.program(tid);
        let names = Names::for_program(&self.instance.system().vars, program);
        let instr = &program.cfa().edges()[edge as usize].instr;
        WitnessStep {
            thread: tid,
            description: format!(
                "{} ({}): {}",
                tid,
                self.instance.kind(tid),
                instr_to_string(instr, names)
            ),
        }
    }
}

/// All successor states of `state` when thread `tid` executes `instr`.
fn successor_states(
    state: &CState,
    tid: ThreadId,
    instr: &Instr,
    dom: parra_program::value::Dom,
) -> Vec<CState> {
    let th = &state.threads[tid.0];
    let mut out = Vec::new();
    match instr {
        Instr::Skip | Instr::AssertFalse => {
            out.push(state.clone());
        }
        Instr::Assume(e) => {
            if e.eval(&th.regs, dom).as_bool() {
                out.push(state.clone());
            }
        }
        Instr::Assign(r, e) => {
            let mut next = state.clone();
            let v = e.eval(&th.regs, dom);
            next.threads[tid.0].regs.set(*r, v);
            out.push(next);
        }
        Instr::Load(r, x) => {
            let xi = x.index();
            let from = th.view[xi] as usize;
            for (pos, msg) in state.mem[xi].iter().enumerate().skip(from) {
                let mut next = state.clone();
                {
                    let t = &mut next.threads[tid.0];
                    t.regs.set(*r, msg.val);
                    t.view = join_views(&t.view, &msg.view);
                    // The message's own coordinate is its position.
                    t.view[xi] = t.view[xi].max(pos as u32);
                }
                out.push(next);
            }
        }
        Instr::Store(x, e) => {
            let xi = x.index();
            let val = e.eval(&th.regs, dom);
            let len = state.mem[xi].len() as u32;
            for ins in (th.view[xi] + 1)..=len {
                // Cannot split a glued pair: inserting at `ins` places the
                // new message between ins-1 and ins.
                if (ins as usize) < state.mem[xi].len() && state.mem[xi][ins as usize].glued {
                    continue;
                }
                let mut next = state.clone();
                next.shift_positions(*x, ins);
                let mut view = next.threads[tid.0].view.clone();
                view[xi] = ins;
                let msg = CMsg {
                    val,
                    view: view.clone(),
                    glued: false,
                };
                next.mem[xi].insert(ins as usize, msg);
                next.threads[tid.0].view = view;
                out.push(next);
            }
        }
        Instr::Cas(x, e1, e2) => {
            let xi = x.index();
            let want = e1.eval(&th.regs, dom);
            let new_val = e2.eval(&th.regs, dom);
            let from = th.view[xi] as usize;
            let len = state.mem[xi].len();
            for pos in from..len {
                if state.mem[xi][pos].val != want {
                    continue;
                }
                let ins = pos as u32 + 1;
                // The slot after `pos` must not already be glued to it.
                if (ins as usize) < len && state.mem[xi][ins as usize].glued {
                    continue;
                }
                let loaded_view = state.mem[xi][pos].view.clone();
                let mut next = state.clone();
                next.shift_positions(*x, ins);
                let mut view = join_views(
                    &next.threads[tid.0].view,
                    &loaded_view_shifted(&loaded_view, xi, ins),
                );
                view[xi] = ins;
                let msg = CMsg {
                    val: new_val,
                    view: view.clone(),
                    glued: true,
                };
                next.mem[xi].insert(ins as usize, msg);
                next.threads[tid.0].view = view;
                out.push(next);
            }
        }
    }
    out
}

/// The loaded message's view after the shift for the insertion at `ins` on
/// variable index `xi` (its own coordinate is `ins - 1 < ins`, so only
/// coordinates `>= ins` move — but the loaded message's coordinate on `xi`
/// is `ins - 1`, unaffected; other variables are not shifted at all).
fn loaded_view_shifted(view: &[u32], xi: usize, ins: u32) -> Vec<u32> {
    let mut v = view.to_vec();
    if v[xi] >= ins {
        v[xi] += 1;
    }
    v
}

impl Explorer {
    /// The instance under exploration.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The limits in effect.
    pub fn limits(&self) -> ExploreLimits {
        self.limits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_program::builder::SystemBuilder;
    use parra_program::expr::Expr;
    use parra_program::system::ParamSystem;

    fn limits() -> ExploreLimits {
        ExploreLimits {
            max_depth: 32,
            max_states: 100_000,
        }
    }

    /// env: r <- y; assume r == 1; x := 1  ‖  dis: y := 1; s <- x;
    /// assume s == 1; assert false
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
    fn handshake_unsafe_with_one_env_thread() {
        let report =
            Explorer::new(Instance::new(handshake(), 1), limits()).run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::Unsafe);
        let w = report.witness.unwrap();
        assert!(!w.is_empty());
        assert!(w.last().unwrap().description.contains("assert false"));
    }

    #[test]
    fn handshake_safe_with_zero_env_threads() {
        let report =
            Explorer::new(Instance::new(handshake(), 0), limits()).run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::SafeExhausted);
    }

    #[test]
    fn message_generation_target() {
        let sys = handshake();
        let x = parra_program::ident::VarId(0);
        let report =
            Explorer::new(Instance::new(sys, 1), limits()).run(Target::MessageGenerated(x, Val(1)));
        assert_eq!(report.outcome, ExploreOutcome::Unsafe);
    }

    /// Never-read-overwritten (the paper's slogan): y:=1; x:=1 in one
    /// thread; a reader that sees x=1 must not read y=0.
    #[test]
    fn ra_coherence_no_overwritten_reads() {
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
        let report = Explorer::new(Instance::new(sys, 1), limits()).run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::SafeExhausted);
    }

    /// Reading x=1 then y=0 is fine when the writes are unordered (two
    /// different env threads).
    #[test]
    fn unordered_writes_allow_stale_read() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("writer");
        let which = env.reg("which");
        env.load(which, x); // dummy read to diversify; then choose a write
        let mut envb = b.program("writer");
        let _ = env;
        // Simpler: env writes x only; dis writes y after reading x.
        envb.store(x, 1);
        let envb = envb.finish();
        let mut d = b.program("reader");
        let rx = d.reg("rx");
        let ry = d.reg("ry");
        d.load(rx, x)
            .assume_eq(rx, 1)
            .load(ry, y)
            .assume_eq(ry, 0)
            .assert_false();
        let d = d.finish();
        let sys = b.build(envb, vec![d]);
        let report = Explorer::new(Instance::new(sys, 1), limits()).run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::Unsafe);
    }

    /// Two dis threads CAS a lock from 0 to 1: only one can win.
    #[test]
    fn cas_mutual_exclusion() {
        let mut b = SystemBuilder::new(3);
        let lock = b.var("lock");
        let crit = b.var("crit");
        let env = {
            let mut p = b.program("noop");
            p.skip();
            p.finish()
        };
        let mk_locker = |b: &SystemBuilder, name: &str| {
            let mut p = b.program(name);
            let r = p.reg("r");
            p.cas(lock, 0, 1);
            p.load(r, crit);
            p.assume_eq(r, 1);
            p.assert_false();
            p.finish()
        };
        // dis1 takes the lock and sets crit := 1... but the assertion needs
        // BOTH lockers to pass the CAS, which adjacency forbids. Model:
        // dis1: cas; crit := 1.  dis2: cas; r <- crit; assume r == 1; assert.
        let mut d1 = b.program("locker1");
        d1.cas(lock, 0, 1).store(crit, 1);
        let d1 = d1.finish();
        let d2 = mk_locker(&b, "locker2");
        let sys = b.build(env, vec![d1, d2]);
        let report = Explorer::new(Instance::new(sys, 0), limits()).run(Target::AssertViolation);
        // Both CAS from 0: only one succeeds (timestamp adjacency on the
        // initial message), so dis2 can never both win the CAS and see
        // crit = 1 — dis1 must have won to set crit.
        assert_eq!(report.outcome, ExploreOutcome::SafeExhausted);
    }

    /// CAS glue: a store cannot be inserted between a CAS pair.
    #[test]
    fn cas_adjacency_blocks_insertion() {
        // dis1: cas(x,0,1). dis2: x := 2 (must not land between).
        // reader: sees 0 then 1 in modification order with nothing between:
        // if it reads 2 after reading the CAS'd 1... order alone can't be
        // asserted; instead check state count: with the glue, the store
        // x:=2 has exactly 2 insertion slots (before the pair or after),
        // not 3.
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let env = {
            let mut p = b.program("noop");
            p.skip();
            p.finish()
        };
        let mut d1 = b.program("casser");
        d1.cas(x, 0, 1);
        let d1 = d1.finish();
        let mut d2 = b.program("storer");
        d2.store(x, 2);
        let d2 = d2.finish();
        let sys = b.build(env, vec![d1, d2]);

        // Run CAS first, then count store placements by exploring.
        let report = Explorer::new(Instance::new(sys, 0), limits()).run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::SafeExhausted);
        // Exactly 4 canonical states: init; after-CAS; after-store (only
        // the slot above the initial message, i.e. one placement from
        // init); and the merged final state — the store cannot land inside
        // the glued pair, and both interleavings converge to the same
        // memory [0, 1(glued), 2].
        assert_eq!(report.states, 4);
    }

    #[test]
    fn depth_bound_reported() {
        // env: loop { x := 1; } — infinite runs, must truncate.
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("looper");
        env.star(|p| {
            p.store(x, 1);
        });
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let report = Explorer::new(
            Instance::new(sys, 1),
            ExploreLimits {
                max_depth: 4,
                max_states: 10_000,
            },
        )
        .run(Target::AssertViolation);
        assert_eq!(report.outcome, ExploreOutcome::SafeWithinBounds);
    }

    /// Regression (soundness of reporting): a successor that exhibits the
    /// target and lands exactly at the `max_states` boundary must still
    /// yield `Unsafe` — the pre-fix code `continue`d on the capacity check
    /// before evaluating the target, silently dropping the bug-exhibiting
    /// state and reporting `SafeWithinBounds`.
    #[test]
    fn target_at_state_capacity_boundary_is_unsafe() {
        let sys = handshake();
        let x = parra_program::ident::VarId(0);
        // Unbounded run: the search stops at the goal state, so it is the
        // last insertion — discovered when exactly `states - 1` states
        // were already stored.
        let full = Explorer::new(Instance::new(sys.clone(), 1), limits())
            .run(Target::MessageGenerated(x, Val(1)));
        assert_eq!(full.outcome, ExploreOutcome::Unsafe);
        assert!(full.states >= 2);
        let tight = ExploreLimits {
            max_depth: 32,
            max_states: full.states - 1,
        };
        for n_threads in [1, 4] {
            let report = Explorer::new(Instance::new(sys.clone(), 1), tight)
                .with_threads(n_threads)
                .run(Target::MessageGenerated(x, Val(1)));
            assert_eq!(
                report.outcome,
                ExploreOutcome::Unsafe,
                "max_states boundary masked the violation ({n_threads} threads)"
            );
            assert!(report.witness.is_some());
            assert_eq!(report.states, full.states);
        }
    }

    /// The deterministic-parallelism invariant: every worker count yields
    /// the same outcome, state count, transition count, and witness.
    #[test]
    fn worker_count_does_not_change_reports() {
        let sys = handshake();
        let x = parra_program::ident::VarId(0);
        for target in [
            Target::AssertViolation,
            Target::MessageGenerated(x, Val(1)),
            Target::MessageGenerated(x, Val(7)), // unreachable: exhausts
        ] {
            let base = Explorer::new(Instance::new(sys.clone(), 1), limits()).run(target);
            for n in [2, 3, 8] {
                let par = Explorer::new(Instance::new(sys.clone(), 1), limits())
                    .with_threads(n)
                    .run(target);
                assert_eq!(par.outcome, base.outcome, "{target:?} with {n} threads");
                assert_eq!(par.states, base.states, "{target:?} with {n} threads");
                assert_eq!(
                    par.transitions, base.transitions,
                    "{target:?} with {n} threads"
                );
                assert_eq!(par.witness, base.witness, "{target:?} with {n} threads");
            }
        }
    }

    /// Depth truncation is reported identically under parallel expansion.
    #[test]
    fn depth_bound_parallel_matches_sequential() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("looper");
        env.star(|p| {
            p.store(x, 1);
        });
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let lim = ExploreLimits {
            max_depth: 4,
            max_states: 10_000,
        };
        let seq = Explorer::new(Instance::new(sys.clone(), 2), lim).run(Target::AssertViolation);
        let par = Explorer::new(Instance::new(sys, 2), lim)
            .with_threads(4)
            .run(Target::AssertViolation);
        assert_eq!(seq.outcome, ExploreOutcome::SafeWithinBounds);
        assert_eq!(par.outcome, seq.outcome);
        assert_eq!(par.states, seq.states);
        assert_eq!(par.transitions, seq.transitions);
    }

    /// An exhausted budget interrupts with partial statistics (the
    /// initial state is already counted), never a Safe verdict.
    #[test]
    fn exhausted_deadline_interrupts() {
        let report = Explorer::new(Instance::new(handshake(), 1), limits())
            .with_governor(ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO))
            .run(Target::AssertViolation);
        assert_eq!(
            report.outcome,
            ExploreOutcome::Interrupted(InterruptReason::Deadline)
        );
        assert_eq!(report.states, 1);
        assert!(report.witness.is_none());
    }

    /// A generous budget changes nothing: the governed report equals the
    /// ungoverned one at every worker count.
    #[test]
    fn generous_budget_matches_unlimited_run() {
        let base =
            Explorer::new(Instance::new(handshake(), 1), limits()).run(Target::AssertViolation);
        for n in [1, 4] {
            let governed = Explorer::new(Instance::new(handshake(), 1), limits())
                .with_threads(n)
                .with_governor(
                    ResourceBudget::unlimited()
                        .with_deadline(std::time::Duration::from_secs(3600))
                        .with_memory_limit(usize::MAX),
                )
                .run(Target::AssertViolation);
            assert_eq!(governed.outcome, base.outcome, "threads {n}");
            assert_eq!(governed.states, base.states, "threads {n}");
            assert_eq!(governed.transitions, base.transitions, "threads {n}");
            assert_eq!(governed.witness, base.witness, "threads {n}");
        }
    }

    #[test]
    fn symmetry_reduction_collapses_env_permutations() {
        // Two identical env threads: exploring one store each must not
        // double-count permuted states.
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("w");
        env.store(x, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let r2 =
            Explorer::new(Instance::new(sys.clone(), 2), limits()).run(Target::AssertViolation);
        assert_eq!(r2.outcome, ExploreOutcome::SafeExhausted);
        // With symmetry, thread identity of the first storer is quotiented:
        // states: init; one-stored (x2 placements? no: both placements
        // exist but are symmetric per thread) ... sanity: strictly fewer
        // states than the unreduced bound 1 + 2 + 4.
        assert!(r2.states <= 7);
        let _ = Expr::val(0);
    }
}
