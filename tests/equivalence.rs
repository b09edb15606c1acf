//! Theorem 3.4 (Soundness and Completeness), empirically: a goal message is
//! generable in some instance under concrete RA iff it is generable in the
//! simplified semantics.
//!
//! * **Completeness** — if the bounded concrete explorer finds the goal in
//!   *any* tested instance, the simplified engine must report `Unsafe`.
//! * **Soundness** — if the simplified engine reports `Unsafe`, some
//!   concrete instance must exhibit the goal; the §4.3 cost bound from the
//!   witness's dependency graph tells us how many `env` threads suffice.
//!
//! Both directions are exercised on hand-picked corner systems and on a
//! pseudo-random family of small programs.

use parra_program::builder::SystemBuilder;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::transform;
use parra_program::value::Val;
use parra_ra::explore::{ExploreLimits, ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::message::{AMessage, Origin};
use parra_simplified::reach::{ReachLimits, ReachOutcome, Reachability, SimpTarget};
use parra_simplified::state::{Budget, Seed, SimpState};
use std::collections::{BTreeSet, HashSet, VecDeque};

const GOAL_VAL: Val = Val(1);

/// The verdicts of the two engines for the goal message `(goal_var, 1)`.
struct Verdicts {
    simplified: ReachOutcome,
    /// Smallest tested `n_env` whose bounded concrete exploration reaches
    /// the goal, if any.
    concrete_hit: Option<usize>,
    /// Whether every tested concrete instance was exhausted (verdicts are
    /// exact, not bound-limited).
    concrete_exact: bool,
    cost_bound: Option<u64>,
}

fn run_both(sys: &ParamSystem, goal: VarId, max_env: usize) -> Verdicts {
    let budget = Budget::exact(sys).expect("test systems have loop-free dis");
    let engine = Reachability::new(sys.clone(), budget.clone(), ReachLimits::default())
        .expect("env is CAS-free");
    let report = engine.run(SimpTarget::MessageGenerated(goal, GOAL_VAL));
    assert_ne!(
        report.outcome,
        ReachOutcome::Truncated,
        "simplified search must be exhaustive on test systems"
    );
    let cost_bound = report.witness.as_ref().map(|w| {
        let g = DepGraph::build(sys, &budget, w);
        let node = g
            .find_message(goal, GOAL_VAL)
            .expect("goal node in witness graph");
        cost_of_graph(&g, node)
    });

    let mut concrete_hit = None;
    let mut concrete_exact = true;
    for n_env in 0..=max_env {
        let limits = ExploreLimits {
            max_depth: 40,
            max_states: 400_000,
        };
        let rep = Explorer::new(Instance::new(sys.clone(), n_env), limits)
            .run(Target::MessageGenerated(goal, GOAL_VAL));
        match rep.outcome {
            ExploreOutcome::Unsafe => {
                concrete_hit = Some(n_env);
                break;
            }
            ExploreOutcome::SafeExhausted => {}
            ExploreOutcome::SafeWithinBounds => concrete_exact = false,
            // These runs are ungoverned; an interruption would be a bug.
            ExploreOutcome::Interrupted(r) => panic!("ungoverned explorer interrupted: {r}"),
        }
    }
    Verdicts {
        simplified: report.outcome,
        concrete_hit,
        concrete_exact,
        cost_bound,
    }
}

fn check_agreement(sys: &ParamSystem, goal: VarId, max_env: usize, label: &str) {
    let v = run_both(sys, goal, max_env);
    match (v.simplified, v.concrete_hit) {
        (ReachOutcome::Unsafe, Some(_)) => {}
        (ReachOutcome::Safe, None) => {}
        (ReachOutcome::Safe, Some(n)) => panic!(
            "{label}: COMPLETENESS violation — concrete instance with {n} env \
             threads generates the goal but the simplified semantics says Safe\n\
             system:\n{}",
            parra_program::pretty::system_to_string(sys)
        ),
        (ReachOutcome::Unsafe, None) => {
            // Soundness: the goal should be concretely generable. Our
            // concrete search is bounded, so only report a hard failure
            // when all tested instances were fully exhausted and the cost
            // bound says the tested instance sizes suffice.
            let enough_threads = v.cost_bound.map(|c| c <= max_env as u64).unwrap_or(false);
            if v.concrete_exact && enough_threads {
                panic!(
                    "{label}: SOUNDNESS violation — simplified semantics says \
                     Unsafe (cost bound {:?}) but no concrete instance up to \
                     {max_env} env threads generates the goal\nsystem:\n{}",
                    v.cost_bound,
                    parra_program::pretty::system_to_string(sys)
                );
            }
        }
        (ReachOutcome::Truncated, _) => unreachable!(),
        (ReachOutcome::Interrupted(r), _) => {
            panic!("{label}: ungoverned simplified search interrupted: {r}")
        }
    }
}

// ---------------------------------------------------------------------
// Hand-picked corner systems
// ---------------------------------------------------------------------

/// env handshake: dis y:=1 → env reads it and writes x:=1 → dis reads x
/// and writes the goal.
#[test]
fn handshake_agrees() {
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
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "handshake");
}

/// Coherence: after dis sees x=1 (written after y=1 by one env thread),
/// y=0 is unreadable — goal must be unreachable in both semantics.
#[test]
fn coherence_agrees() {
    let mut b = SystemBuilder::new(2);
    let x = b.var("x");
    let y = b.var("y");
    let goal = b.var("goal");
    let mut env = b.program("env");
    env.store(y, 1).store(x, 1);
    let env = env.finish();
    let mut d = b.program("d");
    let rx = d.reg("rx");
    let ry = d.reg("ry");
    d.load(rx, x)
        .assume_eq(rx, 1)
        .load(ry, y)
        .assume_eq(ry, 0)
        .store(goal, 1);
    let d = d.finish();
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "coherence");
}

/// The same shape but with the two writes in *different* env threads:
/// now the stale read is allowed.
#[test]
fn unordered_writes_agree() {
    let mut b = SystemBuilder::new(2);
    let x = b.var("x");
    let y = b.var("y");
    let goal = b.var("goal");
    let mut env = b.program("env");
    let which = env.reg("w");
    env.choice(
        |p| {
            p.store(y, 1);
        },
        |p| {
            p.store(x, 1);
        },
    );
    let _ = which;
    let env = env.finish();
    let mut d = b.program("d");
    let rx = d.reg("rx");
    let ry = d.reg("ry");
    d.load(rx, x)
        .assume_eq(rx, 1)
        .load(ry, y)
        .assume_eq(ry, 0)
        .store(goal, 1);
    let d = d.finish();
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "unordered-writes");
}

/// CAS interplay: dis CAS on the initial message plus an env message the
/// dis thread must still observe afterwards.
#[test]
fn cas_with_env_messages_agrees() {
    let mut b = SystemBuilder::new(3);
    let x = b.var("x");
    let goal = b.var("goal");
    let mut env = b.program("env");
    env.store(x, 2);
    let env = env.finish();
    let mut d = b.program("d");
    let r = d.reg("r");
    d.cas(x, 0, 1).load(r, x).assume_eq(r, 2).store(goal, 1);
    let d = d.finish();
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "cas-env");
}

/// Two dis threads CAS the same initial message: only one can win.
#[test]
fn cas_mutual_exclusion_agrees() {
    let mut b = SystemBuilder::new(3);
    let lock = b.var("lock");
    let flag = b.var("flag");
    let goal = b.var("goal");
    let env = {
        let mut p = b.program("env");
        p.skip();
        p.finish()
    };
    let mut d1 = b.program("d1");
    d1.cas(lock, 0, 1).store(flag, 1);
    let d1 = d1.finish();
    let mut d2 = b.program("d2");
    let r = d2.reg("r");
    d2.cas(lock, 0, 2)
        .load(r, flag)
        .assume_eq(r, 1)
        .store(goal, 1);
    let d2 = d2.finish();
    let sys = b.build(env, vec![d1, d2]);
    // d2's CAS and d1's CAS both target slot 1 from the init message: only
    // one succeeds, so (goal, 1) is unreachable.
    check_agreement(&sys, goal, 2, "cas-mutex");
}

/// env messages are re-readable (Infinite Supply): dis reads x = 1 more
/// often than a single env thread stores it.
#[test]
fn rereads_agree() {
    let mut b = SystemBuilder::new(2);
    let x = b.var("x");
    let goal = b.var("goal");
    let mut env = b.program("env");
    env.store(x, 1);
    let env = env.finish();
    let mut d = b.program("d");
    let r = d.reg("r");
    for _ in 0..3 {
        d.load(r, x).assume_eq(r, 1);
    }
    d.store(goal, 1);
    let d = d.finish();
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "rereads");
}

/// env-to-env communication chains.
#[test]
fn env_chain_agrees() {
    let mut b = SystemBuilder::new(2);
    let a = b.var("a");
    let c = b.var("c");
    let goal = b.var("goal");
    let mut env = b.program("env");
    let r = env.reg("r");
    env.choice(
        |p| {
            p.store(a, 1);
        },
        |p| {
            p.load(r, a);
            p.assume_eq(r, 1);
            p.store(c, 1);
        },
    );
    let env = env.finish();
    let mut d = b.program("d");
    let s = d.reg("s");
    d.load(s, c).assume_eq(s, 1).store(goal, 1);
    let d = d.finish();
    let sys = b.build(env, vec![d]);
    check_agreement(&sys, goal, 3, "env-chain");
}

// ---------------------------------------------------------------------
// Pseudo-random small systems (thin driver over parra-fuzz)
// ---------------------------------------------------------------------

use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_fuzz::oracle::{Equivalence, Oracle, OracleOutcome};

/// Runs the Theorem 3.4 oracle over `n` seeds of the family `cfg`. The
/// oracle's preconditions (loop-free dis, CAS-free env, non-truncated
/// search) hold for every family used here, so a `Skip` is a test bug and
/// fails loudly.
fn sweep(cfg: GenConfig, n: u64, label: &str) {
    let gen = SystemGen::new(cfg);
    let oracle = Equivalence;
    for seed in 0..n {
        let case = gen.case(seed);
        match oracle.check(&case.sys) {
            OracleOutcome::Pass => {}
            OracleOutcome::Skip(why) => {
                panic!("{label}-{seed}: oracle skipped ({why}) — family out of spec")
            }
            OracleOutcome::Fail(msg) => panic!(
                "{label}-{seed}: {msg}\nsystem:\n{}",
                parra_program::pretty::system_to_string(&case.sys)
            ),
        }
    }
}

#[test]
fn random_cas_free_systems_agree() {
    sweep(
        GenConfig {
            dis_cas: false,
            ..GenConfig::equivalence()
        },
        60,
        "random-nocas",
    );
}

#[test]
fn random_cas_systems_agree() {
    sweep(GenConfig::equivalence(), 60, "random-cas");
}

/// Two dis threads over the boolean domain.
#[test]
fn random_two_dis_systems_agree() {
    sweep(
        GenConfig {
            dom: 2,
            n_dis: 2,
            dis_len: 2,
            ..GenConfig::equivalence()
        },
        40,
        "random-2dis",
    );
}

// ---------------------------------------------------------------------
// Dependency graphs recorded from the search's own rules
// ---------------------------------------------------------------------

/// The §4.3 dependency graph is recorded while the witness is replayed
/// through the search's own saturation, so its nodes are exactly the
/// messages of the witness's final state: one `env` node per
/// `final_state.env_msgs` entry and one `dis` node per slot message.
/// Checked on every UNSAFE witness of the litmus suite and
/// `GenConfig::wide()` seeds `0..1200`. Seed 1094 is a run in which a CAS
/// closes a gap that env threads had already stored into; the env
/// configurations that stored there stay reachable and generate more.
#[test]
fn dependency_graph_nodes_are_the_final_state_messages() {
    let gen = SystemGen::new(GenConfig::wide());
    let systems = parra_litmus::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.system))
        .chain((0..1200).map(|seed| (format!("wide-{seed}"), gen.case(seed).sys)));
    let mut witnesses = 0;
    for (label, sys) in systems {
        let has_assert = sys.env.com().has_assert() || sys.dis.iter().any(|p| p.com().has_assert());
        if sys.dom.size() < 2 || !has_assert {
            continue;
        }
        let goal = transform::assert_to_goal(&sys);
        let Some(budget) = Budget::exact(&goal.system) else {
            continue;
        };
        let Ok(engine) =
            Reachability::new(goal.system.clone(), budget.clone(), ReachLimits::default())
        else {
            continue;
        };
        let report = engine.run(SimpTarget::MessageGenerated(goal.goal_var, goal.goal_val));
        let Some(w) = report.witness else {
            continue;
        };
        witnesses += 1;
        let g = DepGraph::build(&goal.system, &budget, &w);
        let nodes = |o: Origin| -> Vec<&AMessage> {
            g.nodes
                .iter()
                .filter(|n| n.msg.origin == o)
                .map(|n| &n.msg)
                .collect()
        };
        let env: Vec<&AMessage> = w.final_state.env_msgs.iter().collect();
        let mut dis: Vec<&AMessage> = w
            .final_state
            .dis_msgs
            .iter()
            .flat_map(|m| m.values())
            .collect();
        let mut env_nodes = nodes(Origin::Env);
        let mut dis_nodes = nodes(Origin::Dis);
        env_nodes.sort();
        dis_nodes.sort();
        dis.sort();
        assert_eq!(env_nodes, env, "{label}: env nodes");
        assert_eq!(dis_nodes, dis, "{label}: dis nodes");
    }
    assert_eq!(witnesses, 581, "UNSAFE witnesses checked");
}

// ---------------------------------------------------------------------
// Seeded saturation ≡ full saturation
// ---------------------------------------------------------------------

/// Counts of one [`replay_search_checking_seeds`] run.
#[derive(Debug, Default)]
struct SeededReplay {
    states: usize,
    worlds: usize,
    /// `dis` successors saturated both ways.
    successors: usize,
}

/// Replays `Reachability::run`'s schedule on `sys` with default limits:
/// pre-closure worlds in FIFO order, a BFS inside each, and a stop at the
/// first state that generates `(goal, val)`. Every `dis` successor the
/// search saturates is saturated twice here, from the seed the search
/// uses and from everything, and the two must add the same
/// configurations and messages.
fn replay_search_checking_seeds(
    sys: &ParamSystem,
    budget: &Budget,
    goal: VarId,
    val: Val,
    label: &str,
) -> SeededReplay {
    let limits = ReachLimits::default();
    let cap = limits.max_env_size;
    let env_size = |s: &SimpState| s.env_threads.len() + s.env_msgs.len();
    let mut out = SeededReplay::default();
    let mut worlds_seen: BTreeSet<BTreeSet<(VarId, u32)>> = BTreeSet::from([BTreeSet::new()]);
    let mut worlds: VecDeque<BTreeSet<(VarId, u32)>> = VecDeque::from([BTreeSet::new()]);
    while let Some(world) = worlds.pop_front() {
        if out.worlds >= limits.max_worlds {
            break;
        }
        out.worlds += 1;
        let mut root = SimpState::initial(sys);
        for &(x, g) in &world {
            root.preclose(x, g);
        }
        root.saturate(sys, budget, cap, Seed::Everything, &mut ());
        out.states += 1;
        if root.has_message(goal, val) {
            return out;
        }
        let mut states = vec![root];
        let mut seen: HashSet<SimpState> = states.iter().cloned().collect();
        let mut spawned: Vec<(VarId, u32)> = Vec::new();
        let mut frontier = vec![0];
        while !frontier.is_empty() {
            for si in std::mem::take(&mut frontier) {
                let parent = &states[si];
                let closed = env_size(parent) <= cap;
                let succs = parent.dis_successors(sys, budget);
                for gap in succs.blocked_gaps {
                    if !world.contains(&gap) && !spawned.contains(&gap) {
                        spawned.push(gap);
                    }
                }
                let mut children = Vec::new();
                for (step, child) in succs.steps {
                    let seed = if closed {
                        Seed::Added(step.wrote.as_ref())
                    } else {
                        Seed::Everything
                    };
                    let mut seeded = child.clone();
                    let mut full = child;
                    let seeded_added = seeded.saturate(sys, budget, cap, seed, &mut ());
                    let full_added = full.saturate(sys, budget, cap, Seed::Everything, &mut ());
                    out.successors += 1;
                    assert_eq!(
                        seeded.env_threads, full.env_threads,
                        "{label}: env configurations after {step:?}"
                    );
                    assert_eq!(
                        seeded.env_msgs, full.env_msgs,
                        "{label}: env messages after {step:?}"
                    );
                    assert_eq!(seeded_added, full_added, "{label}: added after {step:?}");
                    children.push(seeded);
                }
                for child in children {
                    if env_size(&child) > cap || seen.contains(&child) {
                        continue;
                    }
                    let hit = child.has_message(goal, val);
                    if !hit && states.len() >= limits.max_states {
                        continue;
                    }
                    out.states += 1;
                    if hit {
                        return out;
                    }
                    seen.insert(child.clone());
                    frontier.push(states.len());
                    states.push(child);
                }
            }
        }
        for gap in spawned {
            let mut next = world.clone();
            next.insert(gap);
            if worlds_seen.insert(next.clone()) {
                worlds.push_back(next);
            }
        }
    }
    out
}

/// Seeding a `dis` successor's saturation from the message its step
/// added reaches the same env part, and counts the same additions, as
/// saturating it from everything. Checked at every successor the search
/// saturates on the litmus suite and `GenConfig::wide()` seeds `0..3000`;
/// the replay's state and world counts equal the engine's report, so it
/// makes the search's own expansions.
#[test]
fn seeded_saturation_equals_full_saturation() {
    let gen = SystemGen::new(GenConfig::wide());
    let systems = parra_litmus::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.system))
        .chain((0..3000).map(|seed| (format!("wide-{seed}"), gen.case(seed).sys)));
    let mut checked = 0;
    let mut successors = 0;
    for (label, sys) in systems {
        if sys.dom.size() < 2 {
            continue;
        }
        let goal = transform::assert_to_goal(&sys);
        let Some(budget) = Budget::exact(&goal.system) else {
            continue;
        };
        let Ok(engine) =
            Reachability::new(goal.system.clone(), budget.clone(), ReachLimits::default())
        else {
            continue;
        };
        let report = engine.run(SimpTarget::MessageGenerated(goal.goal_var, goal.goal_val));
        let replay = replay_search_checking_seeds(
            &goal.system,
            &budget,
            goal.goal_var,
            goal.goal_val,
            &label,
        );
        assert_eq!(
            (replay.states, replay.worlds),
            (report.states, report.worlds),
            "{label}: the replay left the search's schedule"
        );
        checked += 1;
        successors += replay.successors;
    }
    assert_eq!(
        (checked, successors),
        (3026, 85894),
        "systems and successors checked"
    );
}
