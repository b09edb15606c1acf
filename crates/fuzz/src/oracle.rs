//! Differential oracles: executable statements of the repo's correctness
//! criteria, each checkable on an arbitrary [`ParamSystem`].
//!
//! | oracle | checks | theorem |
//! |---|---|---|
//! | [`EnginesAgree`] | simplified-reach ≡ cache-datalog verdicts, concrete only strengthens | Thm 4.1 / Lemma 4.3 |
//! | [`Equivalence`] | simplified ≡ bounded concrete RA on small instances; the witness's dependency graph holds exactly its final state's messages | Thm 3.4, Def. 1 |
//! | [`RoundTrip`] | `pretty → parse_system` reproduces the system | parser/printer drift |
//! | [`Monotonicity`] | verdicts persist under larger `max_states` / deeper unrolling | search soundness |
//! | [`EvalAgree`] | indexed Datalog evaluator ≡ naive reference on `makeP` outputs | evaluator substrate |
//! | [`ServeRoundTrip`] | every serve frame — mangled or not — gets one structured response; served verdicts match direct runs | §7i protocol totality |
//! | [`UnionOverapprox`] | the union program over-approximates every guess: `U ⊬ goal` ⇒ no guess derives it; guess models ⊆ `U`'s | Lemma 4.3, monotonicity |
//! | [`PlanReuse`] | a fleet's shared `PlanCache` plans, every join order planned, decide what fresh `Plan::new`s of their whole programs decide, and evaluate guess 0, and `U` and every guess as deltas on the base, to the same models | planner substrate |
//!
//! An oracle returns [`OracleOutcome::Skip`] when the system is outside
//! its preconditions (undecidable class, truncated search, no target) —
//! a skip is not a pass, and the fuzz summary counts them separately.

use crate::gen::GenConfig;
use parra_core::makep::{DatalogTarget, Fleet, Guess, MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierError, VerifierOptions};
use parra_datalog::ast::{GroundAtom, Program};
use parra_datalog::eval::Database;
use parra_datalog::plan::{Plan, PlanCache};
use parra_datalog::{Evaluator, NaiveEvaluator};
use parra_program::parser::parse_system;
use parra_program::pretty;
use parra_program::system::ParamSystem;
use parra_program::transform;
use parra_program::value::Val;
use parra_ra::explore::{ExploreLimits, ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::message::{AMessage, Origin};
use parra_simplified::reach::{ReachLimits, ReachOutcome, Reachability, SimpTarget};
use parra_simplified::state::{Budget, SimpState};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The result of one oracle check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The property holds on this system.
    Pass,
    /// The property is violated — a bug in an engine, the printer, or the
    /// parser. The string describes the disagreement.
    Fail(String),
    /// The system is outside the oracle's preconditions; nothing was
    /// checked. The string names the precondition.
    Skip(String),
}

impl OracleOutcome {
    /// Whether this outcome is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self, OracleOutcome::Fail(_))
    }
}

/// A differential-fuzzing oracle: a correctness property checkable on any
/// system, plus the generator family that exercises it best.
pub trait Oracle: Sync {
    /// Stable kebab-case name (the CLI's `--oracle` values).
    fn name(&self) -> &'static str;
    /// The generator family tailored to this oracle.
    fn gen_config(&self) -> GenConfig;
    /// Deterministic case budget per second of `--seconds` (calibrated
    /// conservatively; see `FuzzConfig`'s docs for why the budget is a
    /// case count, not a wall clock).
    fn cases_per_second(&self) -> u64;
    /// Checks the property on `sys`.
    fn check(&self, sys: &ParamSystem) -> OracleOutcome;
}

/// Every built-in oracle, in CLI order.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(EnginesAgree),
        Box::new(Equivalence),
        Box::new(RoundTrip),
        Box::new(Monotonicity),
        Box::new(EvalAgree),
        Box::new(ServeRoundTrip),
        Box::new(UnionOverapprox),
        Box::new(PlanReuse),
    ]
}

/// Looks an oracle up by its CLI name.
pub fn oracle_by_name(name: &str) -> Option<Box<dyn Oracle>> {
    all_oracles().into_iter().find(|o| o.name() == name)
}

fn verifier_for(sys: &ParamSystem, options: VerifierOptions) -> Result<Verifier, OracleOutcome> {
    match Verifier::new(sys, options.clone()) {
        Ok(v) => Ok(v),
        Err(VerifierError::NeedsUnrolling) => Verifier::new(
            sys,
            VerifierOptions {
                unroll_dis: Some(2),
                ..options
            },
        )
        .map_err(|e| OracleOutcome::Skip(format!("verifier rejected system: {e}"))),
        Err(e) => Err(OracleOutcome::Skip(format!(
            "verifier rejected system: {e}"
        ))),
    }
}

// ---------------------------------------------------------------------
// 1. Cross-engine verdict agreement
// ---------------------------------------------------------------------

/// The direct simplified-semantics search and the `makeP` Datalog encoding
/// are two implementations of one decision procedure (Theorem 4.1 / Lemma
/// 4.3): their verdicts must agree, and the bounded concrete baseline may
/// only strengthen `Unsafe`.
pub struct EnginesAgree;

impl Oracle for EnginesAgree {
    fn name(&self) -> &'static str {
        "engines-agree"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::agreement()
    }

    fn cases_per_second(&self) -> u64 {
        25
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        let v = match verifier_for(sys, VerifierOptions::default()) {
            Ok(v) => v,
            Err(skip) => return skip,
        };
        let r1 = v.run(EngineId::SimplifiedReach);
        let r2 = v.run(EngineId::CacheDatalog);
        if r1.verdict == Verdict::Unknown || r2.verdict == Verdict::Unknown {
            return OracleOutcome::Skip("an exact engine hit its search limits".into());
        }
        if r1.verdict != r2.verdict {
            return OracleOutcome::Fail(format!(
                "simplified-reach={} but cache-datalog={}",
                r1.verdict, r2.verdict
            ));
        }
        let r3 = v.run(EngineId::BoundedConcrete);
        if r3.verdict == Verdict::Unsafe && r1.verdict != Verdict::Unsafe {
            return OracleOutcome::Fail(format!(
                "bounded-concrete found a violation but the exact engines say {}",
                r1.verdict
            ));
        }
        OracleOutcome::Pass
    }
}

// ---------------------------------------------------------------------
// 2. Simplified ≡ concrete (Theorem 3.4)
// ---------------------------------------------------------------------

/// Whether `g` holds one node per message of `st`: its `env` nodes are
/// `st.env_msgs` and its `dis` nodes are `st`'s slot messages.
fn same_messages(g: &DepGraph, st: &SimpState) -> bool {
    let nodes = |o: Origin| -> BTreeSet<&AMessage> {
        g.nodes
            .iter()
            .filter(|n| n.msg.origin == o)
            .map(|n| &n.msg)
            .collect()
    };
    let dis: BTreeSet<&AMessage> = st.dis_msgs.iter().flat_map(|m| m.values()).collect();
    g.nodes.len() == g.n_vars + st.env_msgs.len() + dis.len()
        && nodes(Origin::Env) == st.env_msgs.iter().collect()
        && nodes(Origin::Dis) == dis
}

/// Theorem 3.4 on small instances: a goal message is generable under the
/// simplified semantics iff some concrete-RA instance generates it.
/// Completeness is checked exactly (a concrete hit forces `Unsafe`);
/// soundness is checked when the tested instances were exhausted and the
/// §4.3 cost bound says they suffice. The witness's dependency graph must
/// hold exactly the messages of its final state.
pub struct Equivalence;

/// Instances tested by the concrete side of [`Equivalence`].
const EQUIV_MAX_ENV: usize = 3;

impl Oracle for Equivalence {
    fn name(&self) -> &'static str {
        "equivalence"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::equivalence()
    }

    fn cases_per_second(&self) -> u64 {
        10
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        if sys.dom.size() < 2 {
            return OracleOutcome::Skip("goal transformation needs |Dom| >= 2".into());
        }
        // Resolve the goal message: prefer the assert-based reduction;
        // fall back to a variable literally named `goal` (the generator's
        // Message Generation families).
        let (sys, goal, goal_val) =
            if sys.env.com().has_assert() || sys.dis.iter().any(|p| p.com().has_assert()) {
                let g = transform::assert_to_goal(sys);
                (g.system, g.goal_var, g.goal_val)
            } else if let Some(i) = sys.vars.lookup("goal") {
                (sys.clone(), parra_program::ident::VarId(i), Val(1))
            } else {
                return OracleOutcome::Skip("no assert and no `goal` variable to target".into());
            };
        let budget = match Budget::exact(&sys) {
            Some(b) => b,
            None => return OracleOutcome::Skip("dis threads have loops (no exact budget)".into()),
        };
        let engine = match Reachability::new(sys.clone(), budget.clone(), ReachLimits::default()) {
            Ok(e) => e,
            Err(e) => return OracleOutcome::Skip(format!("simplified engine rejected: {e}")),
        };
        let report = engine.run(SimpTarget::MessageGenerated(goal, goal_val));
        if report.outcome == ReachOutcome::Truncated {
            return OracleOutcome::Skip("simplified search truncated".into());
        }
        let cost_bound = match &report.witness {
            Some(w) => {
                let g = DepGraph::build(&sys, &budget, w);
                if !same_messages(&g, &w.final_state) {
                    return OracleOutcome::Fail(
                        "the dependency graph's messages differ from the witness's \
                         final state: the graph was not recorded from the search's rules"
                            .into(),
                    );
                }
                g.find_message(goal, goal_val).map(|n| cost_of_graph(&g, n))
            }
            None => None,
        };

        let mut concrete_hit = None;
        let mut concrete_exact = true;
        for n_env in 0..=EQUIV_MAX_ENV {
            let limits = ExploreLimits {
                max_depth: 40,
                max_states: 400_000,
            };
            let rep = Explorer::new(Instance::new(sys.clone(), n_env), limits)
                .run(Target::MessageGenerated(goal, goal_val));
            match rep.outcome {
                ExploreOutcome::Unsafe => {
                    concrete_hit = Some(n_env);
                    break;
                }
                ExploreOutcome::SafeExhausted => {}
                ExploreOutcome::SafeWithinBounds => concrete_exact = false,
                // Oracles run ungoverned; an interruption can only mean an
                // unexpected external budget, so the instance is inconclusive.
                ExploreOutcome::Interrupted(_) => concrete_exact = false,
            }
        }
        match (report.outcome, concrete_hit) {
            (ReachOutcome::Unsafe, Some(_)) | (ReachOutcome::Safe, None) => OracleOutcome::Pass,
            (ReachOutcome::Safe, Some(n)) => OracleOutcome::Fail(format!(
                "completeness violation: concrete instance with {n} env threads \
                 generates the goal but the simplified semantics says Safe"
            )),
            (ReachOutcome::Unsafe, None) => {
                let enough = cost_bound
                    .map(|c| c <= EQUIV_MAX_ENV as u64)
                    .unwrap_or(false);
                if concrete_exact && enough {
                    OracleOutcome::Fail(format!(
                        "soundness violation: simplified says Unsafe (cost bound \
                         {cost_bound:?}) but no concrete instance up to \
                         {EQUIV_MAX_ENV} env threads generates the goal"
                    ))
                } else {
                    // The concrete search is bounded; nothing refutable.
                    OracleOutcome::Pass
                }
            }
            (ReachOutcome::Truncated, _) => unreachable!("handled above"),
            (ReachOutcome::Interrupted(_), _) => {
                OracleOutcome::Skip("simplified search interrupted".into())
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Pretty-printer / parser round-trip
// ---------------------------------------------------------------------

/// `parse_system(pretty(sys))` must reproduce `sys` exactly — same symbol
/// tables, same statement trees, same compiled CFAs — and printing the
/// reparsed system must reproduce the text (idempotence). Catches silent
/// printer/parser drift.
pub struct RoundTrip;

impl Oracle for RoundTrip {
    fn name(&self) -> &'static str {
        "round-trip"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig {
            env_loops: true,
            ..GenConfig::wide()
        }
    }

    fn cases_per_second(&self) -> u64 {
        400
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        let printed = pretty::system_to_string(sys);
        let reparsed = match parse_system(&printed) {
            Ok(s) => s,
            Err(e) => {
                return OracleOutcome::Fail(format!(
                    "pretty-printed system does not parse: {e}\n{printed}"
                ))
            }
        };
        if &reparsed != sys {
            return OracleOutcome::Fail(format!(
                "parse(pretty(sys)) differs from sys\nprinted:\n{printed}"
            ));
        }
        let reprinted = pretty::system_to_string(&reparsed);
        if reprinted != printed {
            return OracleOutcome::Fail(format!(
                "pretty-printing is not idempotent\nfirst:\n{printed}\nsecond:\n{reprinted}"
            ));
        }
        OracleOutcome::Pass
    }
}

// ---------------------------------------------------------------------
// 4. Verdict monotonicity
// ---------------------------------------------------------------------

/// Growing a search budget can only refine a verdict, never flip it:
///
/// * once `SimplifiedReach` decides (Safe/Unsafe) under a `max_states`
///   cap, every larger cap must yield the same verdict;
/// * `Unsafe` under `unroll_dis = k` must persist for every deeper
///   unrolling (deeper unrolling only adds behaviours).
pub struct Monotonicity;

impl Oracle for Monotonicity {
    fn name(&self) -> &'static str {
        "monotonicity"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::looping_dis()
    }

    fn cases_per_second(&self) -> u64 {
        10
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        // (a) max_states ladder.
        let ladder = [200usize, 2_000, ReachLimits::default().max_states];
        let mut decided: Option<(usize, Verdict)> = None;
        for cap in ladder {
            let opts = VerifierOptions {
                reach_limits: ReachLimits {
                    max_states: cap,
                    ..ReachLimits::default()
                },
                ..Default::default()
            };
            let v = match verifier_for(sys, opts) {
                Ok(v) => v,
                Err(skip) => return skip,
            };
            let r = v.run(EngineId::SimplifiedReach);
            if let Some((prev_cap, prev)) = decided {
                if r.verdict != Verdict::Unknown && r.verdict != prev {
                    return OracleOutcome::Fail(format!(
                        "simplified-reach verdict flipped from {prev} (max_states \
                         {prev_cap}) to {} (max_states {cap})",
                        r.verdict
                    ));
                }
                if r.verdict == Verdict::Unknown {
                    return OracleOutcome::Fail(format!(
                        "simplified-reach regressed from {prev} (max_states \
                         {prev_cap}) to Unknown at the larger cap {cap}"
                    ));
                }
            } else if r.verdict != Verdict::Unknown {
                decided = Some((cap, r.verdict));
            }
        }

        // (b) unrolling-depth ladder, for systems with dis loops.
        if sys.dis.iter().any(|p| p.com().has_star()) {
            let mut unsafe_at: Option<usize> = None;
            for depth in 1..=3usize {
                let opts = VerifierOptions {
                    unroll_dis: Some(depth),
                    ..Default::default()
                };
                let v = match Verifier::new(sys, opts) {
                    Ok(v) => v,
                    Err(e) => return OracleOutcome::Skip(format!("verifier rejected system: {e}")),
                };
                let r = v.run(EngineId::SimplifiedReach);
                match (unsafe_at, r.verdict) {
                    (Some(k), verdict) if verdict != Verdict::Unsafe => {
                        return OracleOutcome::Fail(format!(
                            "Unsafe under unroll depth {k} became {verdict} at \
                             depth {depth}: unrolling deeper only adds behaviours"
                        ));
                    }
                    (None, Verdict::Unsafe) => unsafe_at = Some(depth),
                    _ => {}
                }
            }
        }
        OracleOutcome::Pass
    }
}

// ---------------------------------------------------------------------
// 5. Indexed evaluator ≡ naive reference
// ---------------------------------------------------------------------

/// The indexed, interned Datalog evaluator and the unindexed naive
/// reference are two implementations of the same least-model semantics:
/// on every `makeP` query they must compute *identical* atom sets and
/// agree on the goal. This is the differential pin for the evaluation
/// substrate (tuple arena, join indices, join planner, parallel delta
/// batches) — an index bug shows up here as a concrete missing or extra
/// atom long before it skews a verdict.
pub struct EvalAgree;

/// Guesses checked per system (full-database comparison is quadratic in
/// fleet size, so a prefix keeps the oracle's case rate useful).
const EVAL_AGREE_MAX_GUESSES: usize = 4;

impl Oracle for EvalAgree {
    fn name(&self) -> &'static str {
        "eval-agree"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::agreement()
    }

    fn cases_per_second(&self) -> u64 {
        20
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        with_makep_fleet(sys, |mk, guesses, target| {
            for (gi, guess) in guesses.iter().take(EVAL_AGREE_MAX_GUESSES).enumerate() {
                let (prog, goal) = mk.program(guess, target);
                // Full least models (no early exit), so the comparison covers
                // every derivation path, not just the goal cone.
                let fast = Evaluator::new(&prog).run();
                let slow = NaiveEvaluator::new(&prog).run();
                let fast_set: std::collections::HashSet<_> = fast.iter().collect();
                let slow_set: std::collections::HashSet<_> = slow.atoms().iter().cloned().collect();
                if fast_set != slow_set {
                    let missing = slow_set.difference(&fast_set).next();
                    let extra = fast_set.difference(&slow_set).next();
                    return OracleOutcome::Fail(format!(
                        "guess {gi}: indexed evaluator derived {} atoms, naive reference \
                         {}; first missing: {}; first extra: {}",
                        fast_set.len(),
                        slow_set.len(),
                        missing.map_or("none".into(), |a| prog.display_ground(a)),
                        extra.map_or("none".into(), |a| prog.display_ground(a)),
                    ));
                }
                if fast.contains(&goal) != slow.contains(&goal) {
                    return OracleOutcome::Fail(format!(
                        "guess {gi}: evaluators disagree on the goal {}",
                        prog.display_ground(&goal)
                    ));
                }
            }
            OracleOutcome::Pass
        })
    }
}

/// Runs `f` on the `makeP` encoder, guess fleet and goal of `sys`, with
/// the goal message resolved exactly as `Equivalence` does.
fn with_makep_fleet(
    sys: &ParamSystem,
    f: impl FnOnce(&MakeP, &[Guess], DatalogTarget) -> OracleOutcome,
) -> OracleOutcome {
    if sys.dom.size() < 2 {
        return OracleOutcome::Skip("goal transformation needs |Dom| >= 2".into());
    }
    let (sys, goal_var, goal_val) =
        if sys.env.com().has_assert() || sys.dis.iter().any(|p| p.com().has_assert()) {
            let g = transform::assert_to_goal(sys);
            (g.system, g.goal_var, g.goal_val)
        } else if let Some(i) = sys.vars.lookup("goal") {
            (sys.clone(), parra_program::ident::VarId(i), Val(1))
        } else {
            return OracleOutcome::Skip("no assert and no `goal` variable to target".into());
        };
    let budget = match Budget::exact(&sys) {
        Some(b) => b,
        None => return OracleOutcome::Skip("dis threads have loops (no exact budget)".into()),
    };
    let mk = match MakeP::new(&sys, budget, MakePLimits::default()) {
        Ok(mk) => mk,
        Err(e) => return OracleOutcome::Skip(format!("makeP not applicable: {e}")),
    };
    let guesses = match mk.guesses() {
        Ok(g) => g,
        Err(e) => return OracleOutcome::Skip(format!("guess enumeration failed: {e}")),
    };
    f(
        &mk,
        &guesses,
        DatalogTarget::MessageGenerated(goal_var, goal_val),
    )
}

// ---------------------------------------------------------------------
// 6. Serve protocol totality and parity
// ---------------------------------------------------------------------

/// The serve protocol is *total*: every frame thrown at a daemon —
/// well-formed, truncated, version-skewed, type-mangled, oversized, or
/// plain garbage — must yield exactly one parseable structured response
/// with a stable error code, never a hang, a crash, or a poisoned
/// daemon; and after the whole barrage, a well-formed verify of the
/// generated system must return the same verdict as a direct
/// [`Verifier`] run.
pub struct ServeRoundTrip;

impl Oracle for ServeRoundTrip {
    fn name(&self) -> &'static str {
        "serve-roundtrip"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::agreement()
    }

    fn cases_per_second(&self) -> u64 {
        5
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        use parra_obs::json::{self, Value};
        use parra_serve::proto::MAX_FRAME_BYTES;
        use parra_serve::{ServeConfig, Server};

        let options = VerifierOptions::default();
        let server = Server::new(ServeConfig {
            options: options.clone(),
            ..Default::default()
        });

        // The well-formed frame: the pretty-printed system as an inline
        // `program` request (with the same unrolling fallback as every
        // other oracle's `verifier_for`).
        let printed = pretty::system_to_string(sys);
        let needs_unroll = matches!(
            Verifier::new(sys, options.clone()),
            Err(VerifierError::NeedsUnrolling)
        );
        let mut request = String::from(r#"{"proto":1,"id":"rt","type":"verify","program":"#);
        json::write_escaped(&mut request, &printed);
        if needs_unroll {
            request.push_str(r#","unroll":2"#);
        }
        request.push('}');

        // Mangled frames derived from the request. Each must produce one
        // parseable error response carrying the expected stable code.
        let mangled: Vec<(String, &str)> = vec![
            // Truncated JSON: a proper prefix of an object never balances.
            (request[..request.len() / 2].to_string(), "malformed"),
            // A protocol version this daemon does not speak.
            (
                request.replacen(r#""proto":1"#, r#""proto":99"#, 1),
                "unsupported-version",
            ),
            // An unknown request type.
            (
                request.replacen(r#""type":"verify""#, r#""type":"verify-fast""#, 1),
                "unknown-type",
            ),
            // A verify with no source at all.
            (
                r#"{"proto":1,"id":"rt","type":"verify"}"#.to_string(),
                "bad-field",
            ),
            // The raw program text is not JSON.
            (printed.clone(), "malformed"),
            // A frame past the size cap is rejected before parsing.
            (
                format!(
                    r#"{{"proto":1,"type":"verify","litmus":"{}"}}"#,
                    "x".repeat(MAX_FRAME_BYTES)
                ),
                "oversized",
            ),
        ];
        for (frame, want) in &mangled {
            let resp = match server.process_line(frame) {
                Some(r) => r,
                None => return OracleOutcome::Fail(format!("no response to a `{want}` frame")),
            };
            let v = match json::parse(&resp) {
                Ok(v) => v,
                Err(e) => {
                    return OracleOutcome::Fail(format!(
                        "`{want}` response is not valid JSON ({e}): {resp}"
                    ))
                }
            };
            if v.get("type").and_then(Value::as_str) != Some("error")
                || v.get("code").and_then(Value::as_str) != Some(want)
            {
                return OracleOutcome::Fail(format!("expected an `{want}` error, got: {resp}"));
            }
        }

        // The daemon must still answer the well-formed frame — and agree
        // with a direct run of the same system.
        let resp = match server.process_line(&request) {
            Some(r) => r,
            None => return OracleOutcome::Fail("no response to the well-formed frame".into()),
        };
        let v = match json::parse(&resp) {
            Ok(v) => v,
            Err(e) => {
                return OracleOutcome::Fail(format!(
                    "serve response is not valid JSON ({e}): {resp}"
                ))
            }
        };
        let direct = match verifier_for(sys, options) {
            Ok(d) => d,
            Err(skip) => {
                // Outside the verifier's preconditions: serve must reject
                // it with a structured error, never a hang or a verdict.
                return if v.get("type").and_then(Value::as_str) == Some("error") {
                    skip
                } else {
                    OracleOutcome::Fail(format!(
                        "direct verifier rejects the system but serve answered: {resp}"
                    ))
                };
            }
        };
        let want = direct.run(EngineId::SimplifiedReach).verdict.to_string();
        match v.get("verdict").and_then(Value::as_str) {
            Some(got) if got == want => OracleOutcome::Pass,
            Some(got) => OracleOutcome::Fail(format!(
                "served verdict {got} but the direct run says {want}"
            )),
            None => OracleOutcome::Fail(format!("no verdict in serve response: {resp}")),
        }
    }
}

// ---------------------------------------------------------------------
// 7. The union program over-approximates every guess
// ---------------------------------------------------------------------

/// The cache-datalog fleet settles as safe when the union program `U`
/// ([`MakeP::fleet`]) does not derive the goal. That is sound only if
/// every guess program's least model sits inside `U`'s: this oracle
/// checks both halves on generated systems.
///
/// * *Soundness:* when `U ⊬ goal`, no guess program derives the goal
///   (the whole fleet is evaluated, none skipped).
/// * *Containment:* the full least models of the first few guesses,
///   compared by printed atom, are subsets of `U`'s.
/// * *Deltas:* `U` and those guesses, each evaluated as a delta in place
///   on the fleet's base fixpoint as the engine evaluates them, derive
///   exactly their whole programs' from-scratch models
///   ([`check_fleet_deltas`]).
pub struct UnionOverapprox;

/// Guesses whose full models are compared against `U`'s, and evaluated
/// as deltas on the base.
const UNION_CONTAINMENT_GUESSES: usize = 4;

impl Oracle for UnionOverapprox {
    fn name(&self) -> &'static str {
        "union-overapprox"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::agreement()
    }

    fn cases_per_second(&self) -> u64 {
        100
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        with_makep_fleet(sys, |mk, guesses, target| {
            let fleet = mk.fleet(guesses, target);
            if let Err(msg) =
                check_fleet_deltas(mk, guesses, &fleet, target, UNION_CONTAINMENT_GUESSES)
            {
                return OracleOutcome::Fail(msg);
            }
            let union = &fleet.program;
            let union_db = Evaluator::new(union).run();
            let union_atoms: HashSet<String> =
                union_db.iter().map(|a| union.display_ground(&a)).collect();
            let settled = !union_db.contains(&fleet.goal);
            for (gi, guess) in guesses.iter().enumerate() {
                let contain = gi < UNION_CONTAINMENT_GUESSES;
                if !settled && !contain {
                    break;
                }
                let (prog, goal) = mk.program(guess, target);
                let db = Evaluator::new(&prog).run();
                if settled && db.contains(&goal) {
                    return OracleOutcome::Fail(format!(
                        "the union of {} guesses does not derive the goal, \
                         but guess {gi} does",
                        guesses.len()
                    ));
                }
                if contain {
                    if let Some(a) = db
                        .iter()
                        .map(|a| prog.display_ground(&a))
                        .find(|a| !union_atoms.contains(a))
                    {
                        return OracleOutcome::Fail(format!(
                            "guess {gi} derives {a}, which the union program does not"
                        ));
                    }
                }
            }
            OracleOutcome::Pass
        })
    }
}

/// Evaluates `U` and the first `n` guesses of `fleet` (the delta form of
/// `guesses`) as the engine does: the base program planned and evaluated
/// to closure once, `U`'s delta planned after it through the same
/// [`PlanCache`], and `U` and each guess evaluated under `U`'s plan to
/// closure in place on that database.
/// Each must derive exactly the from-scratch model of its whole program
/// (`U`, or [`MakeP::program`] of the guess) under a fresh `Plan::new`,
/// compared by printed atom, and rolling it back must leave the base as
/// it was. Evaluated to the goal, each guess under `U`'s plan must also
/// derive the same atoms in the same order as under a delta plan of its
/// own (the engine's fallback), so that where a run stops does not
/// depend on the plan.
///
/// # Errors
///
/// Names the first program that fails, and how.
pub fn check_fleet_deltas(
    mk: &MakeP,
    guesses: &[Guess],
    fleet: &Fleet,
    target: DatalogTarget,
    n: usize,
) -> Result<(), String> {
    let (program, base_len) = (&fleet.program, fleet.base_len);
    let mut cache = PlanCache::new();
    let base_plan = cache.plan_prefix(program, base_len);
    let mut base = Evaluator::with_delta(program, base_len, &[], Arc::clone(&base_plan)).run();
    let union = cache.plan_delta(program, &base_plan, base_len, &fleet.union);
    let before: Vec<GroundAtom> = base.iter().collect();
    let printed = |prog: &Program, db: &Database| -> HashSet<String> {
        db.iter().map(|a| prog.display_ground(&a)).collect()
    };
    let guess_deltas = guesses.iter().zip(&fleet.guesses).take(n).map(Some);
    for (i, entry) in std::iter::once(None).chain(guess_deltas).enumerate() {
        let (which, delta) = match entry {
            None => ("the union program".to_string(), &fleet.union),
            Some((_, delta)) => (format!("guess {}", i - 1), delta),
        };
        let plan = Arc::clone(&union);
        let mark = Evaluator::with_delta(program, base_len, delta, plan)
            .resume_until(&mut base, None)
            .ok_or_else(|| format!("{which} did not resume from the base"))?;
        let resumed = printed(program, &base);
        base.rollback(mark);
        let scratch = match entry {
            None => printed(program, &Evaluator::new(program).run()),
            Some((guess, _)) => {
                let (whole, _) = mk.program(guess, target);
                printed(&whole, &Evaluator::new(&whole).run())
            }
        };
        if resumed != scratch {
            let diff = resumed.symmetric_difference(&scratch).next();
            return Err(format!(
                "{which} as a delta on the base derives {} atoms, its whole program \
                 from scratch {}; first difference: {}",
                resumed.len(),
                scratch.len(),
                diff.map_or("none", String::as_str)
            ));
        }
        if !base.iter().eq(before.iter().cloned()) {
            return Err(format!("rolling {which} back changed the base"));
        }
        if entry.is_some() {
            let own = cache.plan_delta(program, &base_plan, base_len, delta);
            let mut to_goal = |plan: &Arc<Plan>| {
                let ev = Evaluator::with_delta(program, base_len, delta, Arc::clone(plan));
                let mark = ev.resume_until(&mut base, Some(&fleet.goal));
                let atoms: Vec<GroundAtom> = base.iter().collect();
                base.rollback(mark.expect("a complete base resumes"));
                atoms
            };
            if to_goal(&union) != to_goal(&own) {
                return Err(format!(
                    "{which} under U's plan derives other atoms, or in another order, \
                     than under its own plan"
                ));
            }
        }
    }
    Ok(())
}

/// A fleet plans through one [`PlanCache`]: guess 0's whole program,
/// the base program, and `U`'s delta after the base's plan, under which
/// every later guess evaluates too. Each plan must decide exactly what a
/// fresh `Plan::new` of its whole program decides, every join order
/// planned (the base's rules under a delta keep the base's), and reusing
/// those plans must never change a model: guess 0 under the cache's plan
/// must derive exactly the atoms a fresh `Plan::new` derives, and `U`
/// and every guess as deltas on the base exactly their whole programs'
/// from-scratch models ([`check_fleet_deltas`]).
pub struct PlanReuse;

impl Oracle for PlanReuse {
    fn name(&self) -> &'static str {
        "plan-reuse"
    }

    fn gen_config(&self) -> GenConfig {
        GenConfig::wide()
    }

    fn cases_per_second(&self) -> u64 {
        20
    }

    fn check(&self, sys: &ParamSystem) -> OracleOutcome {
        with_makep_fleet(sys, |mk, guesses, target| {
            let Some(first) = guesses.first() else {
                return OracleOutcome::Pass;
            };
            let (prog, _) = mk.program(first, target);
            let mut cache = PlanCache::new();
            let shared = cache.plan(&prog);
            let fresh = Plan::new(&prog);
            let all = (0..fresh.n_rules()).map(|k| (k, k));
            if let Some(diff) = plan_difference((&shared, &prog), (&fresh, &prog), all, true) {
                return OracleOutcome::Fail(format!("guess 0's plan: {diff}"));
            }
            let reused = Evaluator::with_plan(&prog, shared).run();
            let fresh = Evaluator::new(&prog).run();
            let reused: HashSet<_> = reused.iter().collect();
            let fresh: HashSet<_> = fresh.iter().collect();
            if reused != fresh {
                let diff = reused.symmetric_difference(&fresh).next();
                return OracleOutcome::Fail(format!(
                    "guess 0: the shared plan derived {} atoms, a fresh plan {}; \
                     first difference: {}",
                    reused.len(),
                    fresh.len(),
                    diff.map_or("none".into(), |a| prog.display_ground(a)),
                ));
            }
            let fleet = mk.fleet(guesses, target);
            if let Err(msg) = check_fleet_plans(mk, guesses, &fleet, target, &mut cache) {
                return OracleOutcome::Fail(msg);
            }
            match check_fleet_deltas(mk, guesses, &fleet, target, guesses.len()) {
                Ok(()) => OracleOutcome::Pass,
                Err(msg) => OracleOutcome::Fail(msg),
            }
        })
    }
}

/// The first difference between the join orders that `got`, a plan of
/// `gp`'s rules, and `want`, one of `wp`'s, give the rules each pair in
/// `pairs` numbers in them, at every delta position (both plans plan
/// them all now); with `whole`, also between the plans' rule counts,
/// `max_vars` and the uses of every predicate. Predicates match by name.
pub fn plan_difference(
    (got, gp): (&Plan, &Program),
    (want, wp): (&Plan, &Program),
    pairs: impl IntoIterator<Item = (usize, usize)>,
    whole: bool,
) -> Option<String> {
    if whole {
        if (got.n_rules(), got.max_vars()) != (want.n_rules(), want.max_vars()) {
            return Some("rule count or max_vars".into());
        }
        for p in gp.predicates() {
            let theirs = wp.lookup_pred(gp.pred_name(p));
            let want_uses: Vec<_> = theirs.map_or(Vec::new(), |w| want.uses(w).collect());
            if got.uses(p).collect::<Vec<_>>() != want_uses {
                return Some(format!("uses of {}", gp.pred_name(p)));
            }
        }
    }
    for (kg, kw) in pairs {
        let names = |plan: &Plan, prog: &Program, k: usize| -> Vec<String> {
            let body = &plan.rule(k).body;
            body.iter()
                .map(|a| prog.pred_name(a.pred).to_string())
                .collect()
        };
        if names(got, gp, kg) != names(want, wp, kw) {
            return Some(format!("rule {kg}: body predicates"));
        }
        for bi in 0..got.rule(kg).body.len() {
            if got.join_order(kg, bi).steps != want.join_order(kw, bi).steps {
                return Some(format!("rule {kg} delta {bi}: join order"));
            }
        }
    }
    None
}

/// Plans `fleet` through `cache` as the engine does (the base program,
/// then `U`'s delta after it) and compares every join order with fresh
/// `Plan::new`s: the base's with its program's, `U`'s with its whole
/// program's, and each guess's rules under `U`'s plan with those of the
/// guess's whole program ([`MakeP::program`]), whose base rules come
/// first and whose own follow in delta order. Every guess must fit
/// `U`'s plan ([`Plan::fits`]).
///
/// # Errors
///
/// Names the first plan that differs, and where.
pub fn check_fleet_plans(
    mk: &MakeP,
    guesses: &[Guess],
    fleet: &Fleet,
    target: DatalogTarget,
    cache: &mut PlanCache,
) -> Result<(), String> {
    let (program, base_len) = (&fleet.program, fleet.base_len);
    let base = cache.plan_prefix(program, base_len);
    let mut base_prog = program.clone();
    base_prog.split_rules_off(base_len);
    let n_base = base.n_rules();
    let all = (0..n_base).map(|k| (k, k));
    let fresh = (&Plan::new(&base_prog), &base_prog);
    if let Some(diff) = plan_difference((&base, program), fresh, all, true) {
        return Err(format!("the base's plan: {diff}"));
    }
    let union = cache.plan_delta(program, &base, base_len, &fleet.union);
    let own = (n_base..union.n_rules()).map(|k| (k, k));
    if let Some(diff) =
        plan_difference((&union, program), (&Plan::new(program), program), own, true)
    {
        return Err(format!("U's plan: {diff}"));
    }
    for (i, (guess, delta)) in guesses.iter().zip(&fleet.guesses).enumerate() {
        if !union.fits(program, delta) {
            return Err(format!("guess {i} does not fit U's plan"));
        }
        let (whole, _) = mk.program(guess, target);
        let rules = delta
            .iter()
            .filter(|&&ri| !program.rules()[ri as usize].is_fact());
        let mut pairs = Vec::new();
        for (j, &ri) in rules.enumerate() {
            let k = union
                .own_rule(ri)
                .ok_or(format!("guess {i}: U lacks rule {ri}"))?;
            pairs.push((k, n_base + j));
        }
        if let Some(diff) = plan_difference(
            (&union, program),
            (&Plan::new(&whole), &whole),
            pairs,
            false,
        ) {
            return Err(format!("guess {i} under U's plan: {diff}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SystemGen;
    use parra_program::builder::SystemBuilder;
    use parra_program::expr::Expr;

    fn handshake(unsafe_variant: bool) -> ParamSystem {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, Expr::val(1));
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        if unsafe_variant {
            d.store(y, Expr::val(1));
        }
        d.load(s, x).assume_eq(s, 1).assert_false();
        let d = d.finish();
        b.build(env, vec![d])
    }

    #[test]
    fn oracle_registry_is_complete_and_named() {
        let names: Vec<_> = all_oracles().iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "engines-agree",
                "equivalence",
                "round-trip",
                "monotonicity",
                "eval-agree",
                "serve-roundtrip",
                "union-overapprox",
                "plan-reuse"
            ]
        );
        for n in names {
            assert!(oracle_by_name(n).is_some());
        }
        assert!(oracle_by_name("nope").is_none());
    }

    #[test]
    fn all_oracles_pass_on_the_handshake() {
        for unsafe_variant in [false, true] {
            let sys = handshake(unsafe_variant);
            for o in all_oracles() {
                assert_eq!(
                    o.check(&sys),
                    OracleOutcome::Pass,
                    "oracle {} on handshake(unsafe={unsafe_variant})",
                    o.name()
                );
            }
        }
    }

    #[test]
    fn oracles_pass_on_their_own_families() {
        for o in all_oracles() {
            let gen = SystemGen::new(o.gen_config());
            let mut checked = 0;
            for seed in 0..8u64 {
                match o.check(&gen.case(seed).sys) {
                    OracleOutcome::Pass => checked += 1,
                    OracleOutcome::Skip(_) => {}
                    OracleOutcome::Fail(msg) => {
                        panic!("oracle {} failed on seed {seed}: {msg}", o.name())
                    }
                }
            }
            assert!(checked > 0, "oracle {} skipped every seed", o.name());
        }
    }

    #[test]
    fn union_overapprox_passes_on_seeded_fleets_the_union_settles() {
        let gen = SystemGen::new(UnionOverapprox.gen_config());
        let mut settled = 0;
        for seed in 0..64u64 {
            let sys = gen.case(seed).sys;
            if let OracleOutcome::Fail(msg) = UnionOverapprox.check(&sys) {
                panic!("union-overapprox failed on seed {seed}: {msg}");
            }
            // Count the multi-guess fleets whose union leaves the goal
            // underived: those exercise the soundness half.
            with_makep_fleet(&sys, |mk, guesses, target| {
                let fleet = mk.fleet(guesses, target);
                if guesses.len() >= 2 && !Evaluator::new(&fleet.program).query(&fleet.goal) {
                    settled += 1;
                }
                OracleOutcome::Pass
            });
        }
        assert!(settled > 0, "no seed has a fleet the union settles");
    }

    #[test]
    fn undecidable_systems_are_skipped_not_failed() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.cas(x, 0, 1).assert_false();
        let env = env.finish();
        let sys = b.build(env, vec![]);
        for o in all_oracles() {
            if o.name() == "round-trip" {
                continue; // round-trip has no decidability precondition
            }
            assert!(
                matches!(o.check(&sys), OracleOutcome::Skip(_)),
                "oracle {} should skip an undecidable system",
                o.name()
            );
        }
    }
}
