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
//! [`DepGraph::build`] records the graph by observing the search's own
//! rules: it replays a reachability [`Witness`] through
//! [`SimpState::dis_successors`] and [`SimpState::saturate`], with a
//! [`SatObserver`] that keeps the *first-found* read chain of every `env`
//! configuration. First-found means first insertion in `saturate`'s
//! semi-naive order, so the graph's messages are exactly those of the
//! witness's final state. [`DepGraph::compact`] applies the two
//! reductions behind Lemma 4.5 (fan-in merging and duplicate-pair
//! truncation on `env` nodes).

use crate::message::{AMessage, Origin};
use crate::reach::Witness;
use crate::state::{ALocal, Budget, SatObserver, Seed, SimpState};
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::Val;
use std::collections::{BTreeMap, HashMap};
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
    /// Reconstructs the dependency graph from a witness by replaying it
    /// through the search's own rules: the pre-closures, then each `dis`
    /// step taken from [`SimpState::dis_successors`], each followed by
    /// [`SimpState::saturate`] with a provenance observer.
    ///
    /// # Panics
    ///
    /// Panics if the witness does not replay over `sys` to its
    /// `final_state` (it always does when produced by
    /// [`Reachability::run`](crate::reach::Reachability) on the same system
    /// and budget).
    pub fn build(sys: &ParamSystem, budget: &Budget, witness: &Witness) -> DepGraph {
        let n_vars = sys.n_vars() as usize;
        // The search's cap, as far as this witness can tell: the env part
        // only grows along a path, so every fully saturated state on it
        // fits, and a world root that the search cut short at the cap
        // (then the path is just that root) stops at the same point.
        let final_env = &witness.final_state;
        let cap = final_env.env_threads.len() + final_env.env_msgs.len() - 1;
        // Every saturation here is a full one: first-found read chains
        // follow the full semi-naive order, whatever seed the search used
        // (both reach the same sets).
        let mut state = SimpState::initial(sys);
        for &(x, g) in &witness.preclosed {
            state.preclose(x, g);
        }
        let mut rec = Provenance {
            nodes: Vec::new(),
            env_index: HashMap::new(),
            dis_index: HashMap::new(),
            chains: state
                .env_threads
                .iter()
                .map(|c| (c.clone(), BTreeMap::new()))
                .collect(),
        };
        for i in 0..n_vars {
            let x = VarId(i as u32);
            rec.push(
                &AMessage::initial(x, n_vars),
                GenThread::Init,
                &BTreeMap::new(),
            );
        }
        state.saturate(sys, budget, cap, Seed::Everything, &mut rec);
        // Per dis thread: reads so far (node → count).
        let mut dis_reads = vec![BTreeMap::new(); sys.dis.len()];
        for step in &witness.dis_path {
            let next = state
                .dis_successors(sys, budget)
                .steps
                .into_iter()
                .find_map(|(s, next)| (s == *step).then_some(next))
                .expect("witness dis step does not replay");
            let reads = &mut dis_reads[step.thread];
            if let Some(read) = &step.read {
                *reads.entry(rec.node_of(read)).or_insert(0) += 1;
            }
            if let Some(wrote) = &step.wrote {
                rec.push(wrote, GenThread::Dis(step.thread), reads);
            }
            state = next;
            state.saturate(sys, budget, cap, Seed::Everything, &mut rec);
        }
        assert!(
            state == witness.final_state,
            "witness replay does not end at the witness's final state"
        );
        DepGraph {
            nodes: rec.nodes,
            n_vars,
        }
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

/// Records `genthread`, `depend` and `rc` while [`SimpState::saturate`]
/// runs: the first-found read chain of every `env` configuration, and a
/// node for every message on its first insertion.
struct Provenance {
    /// Graph under construction; nodes `0..n_vars` are initial messages.
    nodes: Vec<MsgNode>,
    /// `env` messages by identity; `dis` messages by `(var, slot)`.
    env_index: HashMap<AMessage, MsgRef>,
    dis_index: HashMap<(VarId, u32), MsgRef>,
    /// Per `env` configuration: the reads (node → count) along the chain
    /// that first reached it from the initial configuration.
    chains: HashMap<ALocal, BTreeMap<MsgRef, usize>>,
}

impl Provenance {
    fn node_of(&self, msg: &AMessage) -> MsgRef {
        match msg.origin {
            Origin::Init => msg.var.index(),
            Origin::Dis => self.dis_index[&(msg.var, msg.timestamp().floor())],
            Origin::Env => self.env_index[msg],
        }
    }

    fn push(&mut self, msg: &AMessage, genthread: GenThread, reads: &BTreeMap<MsgRef, usize>) {
        let id = self.nodes.len();
        self.nodes.push(MsgNode {
            msg: msg.clone(),
            genthread,
            depends: reads.iter().map(|(&n, &c)| (n, c)).collect(),
        });
        match genthread {
            GenThread::Init => {}
            GenThread::Env => {
                self.env_index.insert(msg.clone(), id);
            }
            GenThread::Dis(_) => {
                self.dis_index
                    .insert((msg.var, msg.timestamp().floor()), id);
            }
        }
    }
}

impl SatObserver for Provenance {
    fn fired(&mut self, parent: &ALocal, read: Option<&AMessage>, child: &ALocal) {
        if self.chains.contains_key(child) {
            return;
        }
        let mut chain = self.chains[parent].clone();
        if let Some(m) = read {
            *chain.entry(self.node_of(m)).or_insert(0) += 1;
        }
        self.chains.insert(child.clone(), chain);
    }

    fn stored(&mut self, storer: &ALocal, msg: &AMessage) {
        if !self.env_index.contains_key(msg) {
            let reads = self.chains[storer].clone();
            self.push(msg, GenThread::Env, &reads);
        }
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

    /// A world root cut short by `max_env_size` can itself be the
    /// witness; the replay stops where the search did.
    #[test]
    fn witness_at_a_capped_root_replays() {
        let sys = parra_program::parser::parse_system(
            "system { dom 3; vars goal, x, y; env e { regs r; goal := 1; x := 1; \
             y := 1; x := 2; y := 2; r <- x; y := r; } dis d { y := 1; } }",
        )
        .unwrap();
        let goal = VarId(0);
        let budget = Budget::exact(&sys).unwrap();
        let limits = ReachLimits {
            max_env_size: 4,
            ..ReachLimits::default()
        };
        let engine = Reachability::new(sys.clone(), budget.clone(), limits).unwrap();
        let report = engine.run(SimpTarget::MessageGenerated(goal, Val(1)));
        assert_eq!(report.outcome, ReachOutcome::Unsafe);
        let witness = report.witness.unwrap();
        assert!(witness.dis_path.is_empty());
        let g = DepGraph::build(&sys, &budget, &witness);
        assert_eq!(g.nodes.len() - g.n_vars, witness.final_state.env_msgs.len());
        assert!(g.find_message(goal, Val(1)).is_some());
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
