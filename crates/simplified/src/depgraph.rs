//! Dependency graphs of computations (Definition 1) and their compaction
//! (Lemma 4.5).
//!
//! For a computation ending in memory `m^de`, the dependency graph has the
//! messages as vertices and an edge `(msg₁, msg₂)` whenever
//! `msg₁ ∈ depend(msg₂)` — the set of messages that `genthread(msg₂)` (the
//! *first* thread to add `msg₂`) read before generating it. The
//! *read-count* `rc(msg, msg')` counts how often the generating thread read
//! `msg'` — the multiplicity that drives the §4.3 cost function.
//!
//! [`DepGraph::build`] reconstructs the graph from a reachability
//! [`Witness`] by re-running the saturation with
//! provenance tracking along the witness's `dis` path.
//! [`DepGraph::compact`] applies the two reductions behind Lemma 4.5
//! (fan-in merging and duplicate-pair truncation on `env` nodes).

use crate::message::{AMessage, Origin};
use crate::reach::Witness;
use crate::state::{ALocal, Budget, DisStep, SimpState};
use parra_program::cfg::Instr;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::Val;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Index of a message node in a [`DepGraph`].
pub type MsgRef = usize;

/// Who generated a node's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenThread {
    /// The initial memory.
    Init,
    /// Some `env` thread.
    Env,
    /// The `i`-th distinguished thread.
    Dis(usize),
}

impl fmt::Display for GenThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenThread::Init => write!(f, "init"),
            GenThread::Env => write!(f, "env"),
            GenThread::Dis(i) => write!(f, "dis{}", i + 1),
        }
    }
}

/// A vertex of the dependency graph.
#[derive(Debug, Clone)]
pub struct MsgNode {
    /// The message.
    pub msg: AMessage,
    /// Its generating thread (`genthread` in the paper).
    pub genthread: GenThread,
    /// `depend(msg)` with read-counts: `(msg', rc(msg, msg'))`.
    pub depends: Vec<(MsgRef, usize)>,
}

/// The dependency graph of a witness computation.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Nodes; indices `0..n_vars` are the initial messages.
    pub nodes: Vec<MsgNode>,
    /// Number of shared variables (and initial nodes).
    pub n_vars: usize,
}

impl DepGraph {
    /// Reconstructs the dependency graph from a witness: re-runs the
    /// pre-closures, saturation, and `dis` path with provenance tracking.
    ///
    /// # Panics
    ///
    /// Panics if the witness does not replay over `sys` (it always does
    /// when produced by [`Reachability::run`](crate::reach::Reachability)
    /// on the same system and budget).
    pub fn build(sys: &ParamSystem, budget: &Budget, witness: &Witness) -> DepGraph {
        Builder::new(sys, budget, &[]).run(witness)
    }

    /// As [`DepGraph::build`], but the provenance re-execution skips the
    /// given `env` CFA edges.
    ///
    /// Computations need not saturate the `env` part — threads may simply
    /// stop. Blocking edges reconstructs the dependency graph of such a
    /// computation, e.g. to realize the *other* `genthread` choice of the
    /// paper's Figure 4 (a message first generated by a thread that read
    /// someone else's store, because the original storer stopped early).
    pub fn build_with_blocked_env_edges(
        sys: &ParamSystem,
        budget: &Budget,
        witness: &Witness,
        blocked_env_edges: &[usize],
    ) -> DepGraph {
        Builder::new(sys, budget, blocked_env_edges).run(witness)
    }

    /// The node holding the first message on `x` with value `d`, if any.
    pub fn find_message(&self, x: VarId, d: Val) -> Option<MsgRef> {
        self.nodes
            .iter()
            .position(|n| n.msg.var == x && n.msg.val == d)
    }

    /// The height of a node: the length of the longest dependency path
    /// from a source to it.
    pub fn height_of(&self, node: MsgRef) -> usize {
        let mut memo = vec![None; self.nodes.len()];
        self.height_rec(node, &mut memo)
    }

    fn height_rec(&self, node: MsgRef, memo: &mut Vec<Option<usize>>) -> usize {
        if let Some(h) = memo[node] {
            return h;
        }
        let h = self.nodes[node]
            .depends
            .iter()
            .map(|&(d, _)| 1 + self.height_rec(d, memo))
            .max()
            .unwrap_or(0);
        memo[node] = Some(h);
        h
    }

    /// `height(G)`: the maximal node height.
    pub fn height(&self) -> usize {
        let mut memo = vec![None; self.nodes.len()];
        (0..self.nodes.len())
            .map(|i| self.height_rec(i, &mut memo))
            .max()
            .unwrap_or(0)
    }

    /// The maximal fan-in `|depend(v)|` over all nodes.
    pub fn max_fan_in(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.depends.len())
            .max()
            .unwrap_or(0)
    }

    /// Lemma 4.5's two reductions, applied to `env` nodes until fixpoint:
    ///
    /// 1. **fan-in merging** — if a node depends on two messages with the
    ///    same `(variable, value)` pair of which the later-read one is an
    ///    `env` message, the later read can instead re-read the earlier
    ///    message (check-free `env` loads make any same-pair message
    ///    interchangeable), merging the read-counts;
    /// 2. **duplicate-pair truncation** — if an `env` node and one of its
    ///    (transitive) `env` dependencies carry the same `(variable,
    ///    value)` pair, dependents can read the earlier message directly,
    ///    cutting the segment in between.
    ///
    /// Returns the number of rewrites applied.
    pub fn compact(&mut self) -> usize {
        let mut rewrites = 0;
        loop {
            let mut changed = false;
            // (1) fan-in merging.
            for i in 0..self.nodes.len() {
                let mut seen: HashMap<(VarId, Val), usize> = HashMap::new();
                let mut merged: Vec<(MsgRef, usize)> = Vec::new();
                for &(d, rc) in &self.nodes[i].depends {
                    let key = (self.nodes[d].msg.var, self.nodes[d].msg.val);
                    let mergeable = self.nodes[d].msg.origin == Origin::Env;
                    match seen.get(&key) {
                        Some(&slot) if mergeable => {
                            merged[slot].1 += rc;
                            changed = true;
                            rewrites += 1;
                        }
                        _ => {
                            seen.insert(key, merged.len());
                            merged.push((d, rc));
                        }
                    }
                }
                self.nodes[i].depends = merged;
            }
            // (2) duplicate-pair truncation along env chains: if env node v
            // depends (directly) on env node u with the same (var, val),
            // redirect v's dependents to u.
            'outer: for v in self.n_vars..self.nodes.len() {
                if self.nodes[v].msg.origin != Origin::Env {
                    continue;
                }
                let key = (self.nodes[v].msg.var, self.nodes[v].msg.val);
                for &(u, _) in &self.nodes[v].depends.clone() {
                    if self.nodes[u].msg.origin == Origin::Env
                        && (self.nodes[u].msg.var, self.nodes[u].msg.val) == key
                    {
                        // Redirect all dependents of v to u.
                        let mut any = false;
                        for w in 0..self.nodes.len() {
                            if w == v {
                                continue;
                            }
                            for dep in &mut self.nodes[w].depends {
                                if dep.0 == v {
                                    dep.0 = u;
                                    any = true;
                                }
                            }
                        }
                        if any {
                            changed = true;
                            rewrites += 1;
                            continue 'outer;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        rewrites
    }

    /// Renders the graph in Graphviz dot format (for the Figure 4/5
    /// experiments).
    pub fn to_dot(&self, sys: &ParamSystem) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph deps {\n  rankdir=BT;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let var = sys.vars.get(n.msg.var.0).unwrap_or("?").to_owned();
            let _ = writeln!(
                s,
                "  n{i} [label=\"({var},{}) @{} by {}\"];",
                n.msg.val,
                n.msg.timestamp(),
                n.genthread
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for &(d, rc) in &n.depends {
                let _ = writeln!(s, "  n{d} -> n{i} [label=\"rc={rc}\"];");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Provenance-tracking re-execution of a witness.
struct Builder<'a> {
    sys: &'a ParamSystem,
    budget: &'a Budget,
    /// env CFA edges the provenance re-execution must not take.
    blocked_env_edges: Vec<usize>,
    n_vars: usize,
    /// Graph under construction; nodes 0..n_vars are init messages.
    nodes: Vec<MsgNode>,
    /// Message identity → node (env keyed by full message; dis keyed by
    /// (var, slot)).
    env_index: HashMap<AMessage, MsgRef>,
    dis_index: HashMap<(VarId, u32), MsgRef>,
    /// Per dis thread: reads so far (node, count).
    dis_reads: Vec<BTreeMap<MsgRef, usize>>,
}

/// An env configuration with provenance: the reads performed along the
/// generating chain.
#[derive(Clone)]
struct PConfig {
    local: ALocal,
    /// Accumulated reads (node → count) along the chain from the initial
    /// configuration.
    reads: BTreeMap<MsgRef, usize>,
}

impl<'a> Builder<'a> {
    fn new(sys: &'a ParamSystem, budget: &'a Budget, blocked_env_edges: &[usize]) -> Builder<'a> {
        let n_vars = sys.n_vars() as usize;
        let nodes = (0..n_vars)
            .map(|i| MsgNode {
                msg: AMessage::initial(VarId(i as u32), n_vars),
                genthread: GenThread::Init,
                depends: Vec::new(),
            })
            .collect();
        Builder {
            sys,
            budget,
            blocked_env_edges: blocked_env_edges.to_vec(),
            n_vars,
            nodes,
            env_index: HashMap::new(),
            dis_index: HashMap::new(),
            dis_reads: vec![BTreeMap::new(); sys.dis.len()],
        }
    }

    fn node_of(&self, msg: &AMessage) -> MsgRef {
        match msg.origin {
            Origin::Init => msg.var.index(),
            Origin::Dis => self.dis_index[&(msg.var, msg.timestamp().floor())],
            Origin::Env => self.env_index[msg],
        }
    }

    fn run(mut self, witness: &Witness) -> DepGraph {
        let mut state = SimpState::initial(self.sys);
        for &(x, g) in &witness.preclosed {
            state.preclose(x, g);
        }
        self.saturate_with_provenance(&mut state);
        for step in &witness.dis_path {
            self.apply_dis_step(&mut state, step);
            self.saturate_with_provenance(&mut state);
        }
        DepGraph {
            nodes: self.nodes,
            n_vars: self.n_vars,
        }
    }

    fn apply_dis_step(&mut self, state: &mut SimpState, step: &DisStep) {
        let ti = step.thread;
        let cfa = self.sys.dis[ti].cfa();
        let edge = &cfa.edges()[step.edge];
        let dom = self.sys.dom;
        assert_eq!(
            state.dis[ti].loc, edge.from,
            "witness dis step does not replay"
        );
        // Record the read.
        if let Some(read) = &step.read {
            let node = self.node_of(read);
            *self.dis_reads[ti].entry(node).or_insert(0) += 1;
        }
        // Record the write as a graph node.
        if let Some(wrote) = &step.wrote {
            let node = MsgNode {
                msg: wrote.clone(),
                genthread: GenThread::Dis(ti),
                depends: self.dis_reads[ti].iter().map(|(&n, &c)| (n, c)).collect(),
            };
            let id = self.nodes.len();
            self.nodes.push(node);
            self.dis_index
                .insert((wrote.var, wrote.timestamp().floor()), id);
        }
        // Apply the state update.
        match &edge.instr {
            Instr::Skip | Instr::AssertFalse => {}
            Instr::Assume(e) => {
                assert!(e.eval(&state.dis[ti].regs, dom).as_bool());
            }
            Instr::Assign(r, e) => {
                let v = e.eval(&state.dis[ti].regs, dom);
                state.dis[ti].regs.set(*r, v);
            }
            Instr::Load(r, _) => {
                let read = step.read.as_ref().expect("load step carries a message");
                state.dis[ti].regs.set(*r, read.val);
                state.dis[ti].view = SimpState::load_view(&state.dis[ti].view, read);
            }
            Instr::Store(x, _) => {
                let wrote = step.wrote.as_ref().expect("store step carries a message");
                state.dis_msgs[x.index()].insert(wrote.timestamp().floor(), wrote.clone());
                state.dis[ti].view = wrote.view.clone();
            }
            Instr::Cas(x, ..) => {
                let wrote = step.wrote.as_ref().expect("cas step carries a message");
                let s1 = wrote.timestamp().floor();
                state.dis_msgs[x.index()].insert(s1, wrote.clone());
                state.closed[x.index()].insert(s1 - 1);
                state.dis[ti].view = wrote.view.clone();
            }
        }
        state.dis[ti].loc = edge.to;
    }

    /// Saturation with provenance: mirrors [`SimpState::saturate`] but
    /// tracks, for every newly generated `env` message, the reads of the
    /// configuration chain that generated it.
    fn saturate_with_provenance(&mut self, state: &mut SimpState) {
        let cfa = self.sys.env.cfa_arc();
        let dom = self.sys.dom;
        let n_vars = self.n_vars;

        // For every discovered configuration we record the *first-found*
        // read chain — the provenance `genthread(msg)`'s store inherits.
        let mut chains: HashMap<ALocal, BTreeMap<MsgRef, usize>> = HashMap::new();
        let mut queue: VecDeque<PConfig> = VecDeque::new();
        let init_local = ALocal::initial(cfa.entry(), self.sys.env.n_regs() as usize, n_vars);
        chains.insert(init_local.clone(), BTreeMap::new());
        queue.push_back(PConfig {
            local: init_local,
            reads: BTreeMap::new(),
        });

        // Iterate to fixpoint: because new messages can enable old
        // configurations, loop saturation rounds until nothing changes.
        loop {
            let mut changed = false;
            while let Some(pc) = queue.pop_front() {
                let edges: Vec<usize> = cfa
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(i, e)| e.from == pc.local.loc && !self.blocked_env_edges.contains(i))
                    .map(|(i, _)| i)
                    .collect();
                for ei in edges {
                    let edge = &cfa.edges()[ei];
                    match &edge.instr {
                        Instr::Skip | Instr::AssertFalse => {
                            let mut nc = pc.clone();
                            nc.local.loc = edge.to;
                            changed |= self.push_config(state, nc, &mut chains, &mut queue);
                        }
                        Instr::Assume(e) => {
                            if e.eval(&pc.local.regs, dom).as_bool() {
                                let mut nc = pc.clone();
                                nc.local.loc = edge.to;
                                changed |= self.push_config(state, nc, &mut chains, &mut queue);
                            }
                        }
                        Instr::Assign(r, e) => {
                            let mut nc = pc.clone();
                            let v = e.eval(&pc.local.regs, dom);
                            nc.local.regs.set(*r, v);
                            nc.local.loc = edge.to;
                            changed |= self.push_config(state, nc, &mut chains, &mut queue);
                        }
                        Instr::Load(r, x) => {
                            let candidates: Vec<AMessage> =
                                state.loadable(*x, &pc.local.view, n_vars).collect();
                            for m in candidates {
                                let mut nc = pc.clone();
                                nc.local.regs.set(*r, m.val);
                                nc.local.view = SimpState::load_view(&pc.local.view, &m);
                                nc.local.loc = edge.to;
                                let node = self.node_of(&m);
                                *nc.reads.entry(node).or_insert(0) += 1;
                                changed |= self.push_config(state, nc, &mut chains, &mut queue);
                            }
                        }
                        Instr::Store(x, e) => {
                            let val = e.eval(&pc.local.regs, dom);
                            let lo = pc.local.view.get(*x).floor();
                            for g in lo..=self.budget.slots(*x) {
                                if state.closed[x.index()].contains(&g) {
                                    continue;
                                }
                                let view = pc.local.view.with(*x, crate::timestamp::ATime::Plus(g));
                                let msg = AMessage::new(*x, val, view.clone(), Origin::Env);
                                // Record the node on first generation.
                                if !self.env_index.contains_key(&msg) {
                                    let id = self.nodes.len();
                                    self.nodes.push(MsgNode {
                                        msg: msg.clone(),
                                        genthread: GenThread::Env,
                                        depends: pc.reads.iter().map(|(&n, &c)| (n, c)).collect(),
                                    });
                                    self.env_index.insert(msg.clone(), id);
                                    state.env_msgs.insert(msg.clone());
                                    changed = true;
                                }
                                let mut nc = pc.clone();
                                nc.local.view = view;
                                nc.local.loc = edge.to;
                                changed |= self.push_config(state, nc, &mut chains, &mut queue);
                            }
                        }
                        Instr::Cas(..) => unreachable!("env is CAS-free"),
                    }
                }
            }
            if !changed {
                break;
            }
            // Re-enqueue all known configurations with their recorded
            // chains: new messages may enable new loads from old
            // configurations.
            for (local, reads) in &chains {
                queue.push_back(PConfig {
                    local: local.clone(),
                    reads: reads.clone(),
                });
            }
        }
    }

    fn push_config(
        &mut self,
        state: &mut SimpState,
        pc: PConfig,
        chains: &mut HashMap<ALocal, BTreeMap<MsgRef, usize>>,
        queue: &mut VecDeque<PConfig>,
    ) -> bool {
        if chains.contains_key(&pc.local) {
            return false;
        }
        chains.insert(pc.local.clone(), pc.reads.clone());
        state.env_threads.insert(pc.local.clone());
        queue.push_back(pc);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{ReachLimits, ReachOutcome, Reachability, SimpTarget};
    use parra_program::builder::SystemBuilder;

    /// The producer-consumer shape of Figure 1/5: producers (env) read the
    /// consumer's y and write x; the consumer (dis) writes y then reads x
    /// repeatedly.
    fn producer_consumer(z: usize) -> (ParamSystem, VarId, VarId) {
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("producer");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("consumer");
        let s = d.reg("s");
        d.store(y, 1);
        for _ in 0..z {
            d.load(s, x).assume_eq(s, 1);
        }
        d.store(y, 2);
        let d = d.finish();
        (b.build(env, vec![d]), x, y)
    }

    fn witness_for(z: usize) -> (ParamSystem, Budget, crate::reach::Witness, VarId) {
        let (sys, _x, y) = producer_consumer(z);
        let budget = Budget::exact(&sys).unwrap();
        let engine =
            Reachability::new(sys.clone(), budget.clone(), ReachLimits::default()).unwrap();
        let report = engine.run(SimpTarget::MessageGenerated(y, Val(2)));
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
        (sys, budget, report.witness.unwrap(), y)
    }

    #[test]
    fn graph_has_init_dis_env_nodes() {
        let (sys, budget, witness, y) = witness_for(2);
        let g = DepGraph::build(&sys, &budget, &witness);
        assert_eq!(g.n_vars, 2);
        assert!(g.nodes.iter().any(|n| n.genthread == GenThread::Env));
        assert!(g
            .nodes
            .iter()
            .any(|n| matches!(n.genthread, GenThread::Dis(0))));
        let goal = g.find_message(y, Val(2)).expect("goal node");
        assert!(matches!(g.nodes[goal].genthread, GenThread::Dis(0)));
    }

    #[test]
    fn consumer_goal_depends_on_producer_messages() {
        let (sys, budget, witness, y) = witness_for(3);
        let g = DepGraph::build(&sys, &budget, &witness);
        let goal = g.find_message(y, Val(2)).unwrap();
        // The consumer read env messages (x, 1) before writing (y, 2):
        // total read-count of env dependencies ≥ z = 3.
        let env_reads: usize = g.nodes[goal]
            .depends
            .iter()
            .filter(|&&(d, _)| g.nodes[d].msg.origin == Origin::Env)
            .map(|&(_, rc)| rc)
            .sum();
        assert!(env_reads >= 3, "env_reads = {env_reads}");
    }

    #[test]
    fn producer_messages_depend_on_consumer_y() {
        let (sys, budget, witness, _y) = witness_for(1);
        let g = DepGraph::build(&sys, &budget, &witness);
        // Every env node (x, 1) depends on the dis message (y, 1).
        for n in &g.nodes {
            if n.genthread == GenThread::Env {
                assert!(n
                    .depends
                    .iter()
                    .any(|&(d, _)| matches!(g.nodes[d].genthread, GenThread::Dis(0))));
            }
        }
    }

    #[test]
    fn heights_are_finite_and_graph_acyclic() {
        let (sys, budget, witness, _) = witness_for(2);
        let g = DepGraph::build(&sys, &budget, &witness);
        // height_of terminates (acyclicity) and init nodes are sources.
        assert!(g.height() >= 1);
        for i in 0..g.n_vars {
            assert_eq!(g.height_of(i), 0);
        }
        assert!(g.max_fan_in() >= 1);
    }

    #[test]
    fn dot_output_mentions_nodes() {
        let (sys, budget, witness, _) = witness_for(1);
        let g = DepGraph::build(&sys, &budget, &witness);
        let dot = g.to_dot(&sys);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("rc="));
        assert!(dot.contains("env"));
    }

    #[test]
    fn compact_reduces_duplicate_env_reads() {
        // A dis thread that reads the same-valued env message from two
        // different gaps: compaction merges the reads.
        let (sys, budget, witness, y) = witness_for(4);
        let mut g = DepGraph::build(&sys, &budget, &witness);
        let goal = g.find_message(y, Val(2)).unwrap();
        let before: usize = g.nodes[goal].depends.len();
        g.compact();
        let after = g.nodes[goal].depends.len();
        assert!(after <= before);
        // After merging, at most one env dependency per (var, val) pair.
        let mut pairs = std::collections::HashSet::new();
        for &(d, _) in &g.nodes[goal].depends {
            if g.nodes[d].msg.origin == Origin::Env {
                assert!(pairs.insert((g.nodes[d].msg.var, g.nodes[d].msg.val)));
            }
        }
    }
}
