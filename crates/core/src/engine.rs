//! The engine bodies and the portfolio race.
//!
//! The three decision procedures — the §3 simplified-semantics search,
//! the §4 `makeP` Datalog route, and the bounded concrete-RA baseline —
//! are the `run_*` methods here. Each runs under an explicit resource
//! budget, polls an explicit cancel token, and records into an explicit
//! recorder; `Verifier::run_engine` dispatches on [`EngineId`] and wraps
//! the body in the shared instrumentation, and [`Verifier::run`],
//! [`Verifier::run_isolated`], and [`Verifier::race`] all go through it.
//!
//! Every engine runs on the calling thread: the two state-space searches
//! expand one state at a time, and the Datalog route evaluates its
//! guesses one after another, as the paper's procedure tries them (§4,
//! Theorem 4.1).
//!
//! [`Verifier::race`] builds on it: the selected engines run
//! concurrently, each on its own OS thread, and the first *decisive* verdict —
//! [`Safe`](Verdict::Safe) or [`Unsafe`](Verdict::Unsafe) — cancels the
//! rest through a race-scoped child
//! [`CancelToken`](parra_limits::CancelToken). Losers finish as
//! `Interrupted(cancelled)` and are kept as portfolio metadata; they are
//! never aggregated as if an engine had genuinely answered `Unknown`
//! *and* they never trip the caller's token (child tokens do not
//! propagate upward). The raced verdict therefore equals the sequential
//! `--all-engines` aggregate: a decisive verdict dominates aggregation,
//! and with no decisive verdict every engine runs to completion exactly
//! as it would sequentially. [`Verifier::run_selection`] runs either
//! shape, and every front end reads its [`SelectionOutcome`].

use crate::makep::{DatalogTarget, Fleet, Guess, MakeP, MakePLimits, Template};
use crate::verify::{
    aggregate_verdicts, EngineId, Stats, Verdict, VerificationResult, Verifier, VerifierOptions,
};
use crate::witness;
use parra_datalog::ast::{GroundAtom, Program};
use parra_datalog::eval::{Database, EvalMetrics, Evaluator};
use parra_datalog::plan::{Plan, PlanCache};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Phase, PhaseTimer, Recorder};
use parra_program::parser::parse_system;
use parra_ra::explore::{ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::reach::{ReachOutcome, Reachability, SimpTarget};
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A prepared verifier's makeP work, kept across its runs and clones:
/// its fleet, or why makeP does not apply.
#[derive(Debug)]
pub(crate) struct CachedMakeP {
    limits: MakePLimits,
    built: Result<Prepared, String>,
}

/// The template, the guesses, and the fleet's join plans.
type Prepared = (Arc<Template>, Arc<[Guess]>, Arc<FleetPlans>);

/// A fleet's join plans, each made by the first run that needs it. Their
/// join orders fill in as runs need them, from one pool.
#[derive(Debug, Default)]
struct FleetPlans {
    /// A whole program's: the single guess's, or the winning guess's for
    /// the witness replay of a fleet of two or more.
    whole: OnceLock<Arc<Plan>>,
    /// `U`'s delta's, which every guess evaluates under.
    union: OnceLock<Arc<Plan>>,
    /// The base program's.
    base: OnceLock<Arc<Plan>>,
    /// The pool the plans share.
    cache: PlanCache,
}

/// The plan in `slot`, planned by `plan` (timed as `join_plan`) when the
/// slot is empty.
fn planned(
    slot: &OnceLock<Arc<Plan>>,
    phases: &PhaseTimer,
    plan: impl FnOnce() -> Arc<Plan>,
) -> Arc<Plan> {
    Arc::clone(slot.get_or_init(|| {
        let _join_plan = phases.start(Phase::JoinPlan);
        plan()
    }))
}

/// Runs `f`, adding its time to `phase` when `phases` records: for the
/// short regions of a fleet's per-program loop.
fn timed<T>(phases: &PhaseTimer, phase: Phase, f: impl FnOnce() -> T) -> T {
    let t0 = phases.is_enabled().then(Instant::now);
    let out = f();
    if let Some(t0) = t0 {
        phases.add_elapsed(phase, t0.elapsed());
    }
    out
}

impl Verifier {
    /// Races `engines` concurrently; the first decisive verdict (Safe or
    /// Unsafe) cancels the rest via a race-scoped child of
    /// [`VerifierOptions::cancel`](crate::verify::VerifierOptions::cancel)
    /// — the caller's token is never tripped by the race.
    ///
    /// Unlike sequential `--all-engines` (where each engine gets the
    /// full timeout), the wall-clock deadline spans the race as a whole:
    /// `--timeout 10` means the answer arrives within ten seconds.
    /// Panicking racers degrade to `Unknown` exactly as
    /// [`Verifier::run_isolated`] does.
    ///
    /// # Errors
    ///
    /// Decisive racers that disagree (a `Safe` next to an `Unsafe`)
    /// indicate an engine bug and surface as an error, as in sequential
    /// aggregation.
    pub fn race(&self, engines: &[EngineId]) -> Result<SelectionOutcome, String> {
        let start = Instant::now();
        let race_cancel = self.options.cancel.child();
        let budget = self.base_budget();
        let jobs: Vec<Box<dyn FnOnce() -> VerificationResult + Send + '_>> = engines
            .iter()
            .map(|&id| {
                let cancel = race_cancel.clone();
                let budget = budget.clone();
                Box::new(move || self.run_engine(id, &budget, &cancel, &self.rec))
                    as Box<dyn FnOnce() -> VerificationResult + Send + '_>
            })
            .collect();
        let outcome = parra_search::race(
            jobs,
            |r: &VerificationResult| r.verdict.is_decided(),
            || race_cancel.cancel(),
        );
        // The race contains each job's panic; a panicked racer degrades
        // exactly as a panicking `run_isolated` does.
        let mut results: Vec<VerificationResult> = outcome
            .results
            .into_iter()
            .zip(engines)
            .map(|(r, &id)| r.unwrap_or_else(|msg| self.panicked(id, &msg)))
            .collect();
        let duration = start.elapsed();

        // Losers the winner cancelled are portfolio metadata: note why
        // they were interrupted so nobody reads them as engine verdicts.
        if let Some(w) = outcome.winner {
            let (weng, wverdict) = (engines[w], results[w].verdict);
            for (i, r) in results.iter_mut().enumerate() {
                if i != w && r.verdict == Verdict::Interrupted(InterruptReason::Cancelled) {
                    r.notes.push(format!(
                        "cancelled by portfolio race: {weng} answered {wverdict} first"
                    ));
                }
            }
        }
        // A cancellation of the caller's token that interrupted the race
        // is consumed, exactly as in sequential runs.
        if self.options.cancel.is_cancelled()
            && results
                .iter()
                .any(|r| r.verdict == Verdict::Interrupted(InterruptReason::Cancelled))
        {
            self.options.cancel.acknowledge();
        }

        let sel = SelectionOutcome::new(results, outcome.winner, duration)?;

        if self.rec.is_enabled() {
            // The engine list and aggregate verdict are deterministic;
            // which racer won (and how long it took) is wall-clock-bound
            // and goes in `volatile`.
            let names = engines
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut vol: Vec<(&str, u64)> = vec![("duration_us", duration.as_micros() as u64)];
            if let Some(w) = sel.winner {
                vol.push(("winner", w as u64));
            }
            self.rec.scoped("race/").event_with(
                "race",
                &[
                    ("n_engines", engines.len().into()),
                    ("engines", names.as_str().into()),
                    ("verdict", sel.verdict.to_string().into()),
                ],
                &vol,
            );
        }

        Ok(sel)
    }

    /// Runs an engine *selection* — the portfolio shape every front end
    /// exposes: either each engine in turn (isolated, each with the full
    /// budget) or all of them raced ([`Verifier::race`]). The aggregate
    /// verdict is identical either way; only the scheduling differs.
    ///
    /// # Errors
    ///
    /// Decisive engines that disagree surface as an error (an engine
    /// bug), as in [`Verifier::race`] and [`aggregate_verdicts`].
    pub fn run_selection(
        &self,
        engines: &[EngineId],
        race: bool,
    ) -> Result<SelectionOutcome, String> {
        if race {
            return self.race(engines);
        }
        let start = Instant::now();
        let results = engines.iter().map(|&e| self.run_isolated(e)).collect();
        SelectionOutcome::new(results, None, start.elapsed())
    }
}

/// The outcome of an engine selection ([`Verifier::run_selection`],
/// [`Verifier::race`]).
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The aggregate verdict over the selection — for a race, identical
    /// to what the sequential `--all-engines` aggregation over the same
    /// engines reports.
    pub verdict: Verdict,
    /// The first interruption reason any engine run reported, decided
    /// aggregate or not. `batch --strict` audits budget health from it;
    /// reports show [`SelectionOutcome::reported_interruption`].
    pub interrupted: Option<InterruptReason>,
    /// One result per engine, in selection order. Race losers cancelled
    /// by the winner carry `Interrupted(cancelled)` and a race note —
    /// they are metadata about the race, not engine answers.
    pub results: Vec<VerificationResult>,
    /// Index (into `results`) of the racer whose decisive verdict won a
    /// race, if any; always `None` for a sequential selection. Which
    /// engine wins is wall-clock-dependent; the aggregate `verdict` is
    /// not.
    pub winner: Option<usize>,
    /// Wall-clock time of the whole selection.
    pub duration: Duration,
}

impl SelectionOutcome {
    /// Aggregates `results` (in selection order).
    fn new(
        results: Vec<VerificationResult>,
        winner: Option<usize>,
        duration: Duration,
    ) -> Result<SelectionOutcome, String> {
        let verdicts: Vec<(EngineId, Verdict)> =
            results.iter().map(|r| (r.engine, r.verdict)).collect();
        Ok(SelectionOutcome {
            verdict: aggregate_verdicts(&verdicts)?,
            interrupted: results.iter().find_map(|r| r.verdict.interrupt_reason()),
            results,
            winner,
            duration,
        })
    }

    /// The winning engine, when some racer answered decisively.
    pub fn winner_engine(&self) -> Option<EngineId> {
        self.winner_result().map(|r| r.engine)
    }

    /// The winning result, when some racer answered decisively.
    pub fn winner_result(&self) -> Option<&VerificationResult> {
        self.winner.map(|i| &self.results[i])
    }

    /// The interruption reason a batch line, serve response or campaign
    /// record shows: aggregation folds `Interrupted` into `Unknown`, so
    /// the reason is kept only while the aggregate is undecided (a
    /// decided selection may still have lost an engine to a budget).
    pub fn reported_interruption(&self) -> Option<InterruptReason> {
        self.interrupted.filter(|_| !self.verdict.is_decided())
    }
}

/// Verifies one program text under an engine selection: parse and
/// prepare a verifier ([`Verifier::parse_and_prepare`]) and
/// [`Verifier::run_selection`], all inside one panic boundary. This is
/// the single "run a selection" path behind `parra batch` lines and
/// campaign records; each front end only renders the outcome.
///
/// `name` identifies the input (its path) for the fault-injection
/// hooks, which fire when the variable's value is a substring of it:
///
/// * `PARRA_INJECT_PANIC` panics before parsing;
/// * `PARRA_INJECT_DEADLINE` re-runs the selection's last engine under
///   an already-spent deadline (sequential selections only) — the shape
///   `batch --strict` exists for: a *decided* input whose portfolio
///   still lost an engine to a budget.
///
/// # Errors
///
/// Parse failures, rejected systems, and engine disagreement, as their
/// messages; a panic as `panicked: {message}`.
pub fn verify_text(
    name: &str,
    text: &str,
    engines: &[EngineId],
    race: bool,
    options: &VerifierOptions,
    rec: &Recorder,
) -> Result<SelectionOutcome, String> {
    parra_search::catch_panic(|| {
        if let Some(needle) = injected("PARRA_INJECT_PANIC", name) {
            panic!("injected panic (PARRA_INJECT_PANIC={needle})");
        }
        let verifier = Verifier::parse_and_prepare(
            || parse_system(text).map_err(|e| e.to_string()),
            options.clone(),
            rec.clone(),
        )?;
        match engines.split_last() {
            Some((&last, head)) if !race && injected("PARRA_INJECT_DEADLINE", name).is_some() => {
                let start = Instant::now();
                let mut results: Vec<_> = head.iter().map(|&e| verifier.run_isolated(e)).collect();
                let spent = VerifierOptions {
                    deadline_at: Some(Instant::now()),
                    ..options.clone()
                };
                results.push(verifier.rescoped(spent, rec.clone()).run_isolated(last));
                SelectionOutcome::new(results, None, start.elapsed())
            }
            _ => verifier.run_selection(engines, race),
        }
    })
    .unwrap_or_else(|msg| Err(format!("panicked: {msg}")))
}

/// The value of the fault-injection variable `var` when it is non-empty
/// and a substring of `name` (an input path or serve request name).
pub fn injected(var: &str, name: &str) -> Option<String> {
    std::env::var(var)
        .ok()
        .filter(|needle| !needle.is_empty() && name.contains(needle.as_str()))
}

/// Aggregate outcome of the Datalog guess fleet.
#[derive(Default)]
struct FleetOutcome {
    /// Max rule count over the evaluated programs, the union included.
    rules: usize,
    /// Max derived-atom count over the evaluated databases, the union
    /// included.
    atoms: usize,
    /// The first guess whose query derived the goal.
    winner: Option<usize>,
    /// The union program reached its fixpoint without the goal, which
    /// settles the fleet as safe.
    union_settled: bool,
    /// Set when the governor stopped the fleet or a guess's evaluation
    /// before every guess completed; "no winner" is then inconclusive.
    interrupted: Option<InterruptReason>,
    /// The atoms of the fleet's base fixpoint, when it was evaluated.
    base_atoms: usize,
    /// The programs evaluated in place on the base fixpoint.
    resumed: usize,
    /// The single guess's program, goal and provenance-recording
    /// database, when it won: its witness is read off them.
    won: Option<(Program, GroundAtom, Database)>,
}

/// What the fleet reads of one program's evaluation.
struct Evaluated {
    won: bool,
    interrupted: Option<InterruptReason>,
    atoms: usize,
}

impl Evaluated {
    fn of(db: &Database, goal: &GroundAtom) -> Evaluated {
        Evaluated {
            won: db.contains(goal),
            interrupted: db.interrupted(),
            atoms: db.len(),
        }
    }
}

impl Verifier {
    pub(crate) fn run_simplified(
        &self,
        rec: &Recorder,
        gov: &ResourceBudget,
    ) -> VerificationResult {
        if let Some(r) = self.trivially_safe(EngineId::SimplifiedReach) {
            return r;
        }
        let sys = &self.goal.system;
        let phases = PhaseTimer::new(rec);
        let engine = Reachability::new(sys.clone(), self.budget.clone(), self.options.reach_limits)
            .expect("env CAS-freedom checked in Verifier::new")
            .with_recorder(rec.clone())
            .with_governor(gov.clone());
        let target = SimpTarget::MessageGenerated(self.goal.goal_var, self.goal.goal_val);
        let report = engine.run_timed(target, &phases);
        let mut notes = Vec::new();
        let verdict = match report.outcome {
            ReachOutcome::Unsafe => Verdict::Unsafe,
            ReachOutcome::Safe => Verdict::Safe,
            ReachOutcome::Truncated => {
                notes.push("search limits hit; Safe could not be concluded".into());
                Verdict::Unknown
            }
            ReachOutcome::Interrupted(reason) => {
                notes.push(format!(
                    "interrupted ({reason}): the {reason} budget was exhausted; \
                     partial statistics only, Safe could not be concluded"
                ));
                Verdict::Interrupted(reason)
            }
        };
        let (env_thread_bound, witness_lines) = match &report.witness {
            Some(w) => {
                // The §4.3 dependency graph is built from the witness's
                // replay, so its time is the run's `witness_replay`.
                let _replay = phases.start(Phase::WitnessReplay);
                let graph = DepGraph::build(sys, &self.budget, w);
                let bound = graph
                    .find_message(self.goal.goal_var, self.goal.goal_val)
                    .map(|n| cost_of_graph(&graph, n));
                let lines = w
                    .dis_path
                    .iter()
                    .map(|s| {
                        let p = &sys.dis[s.thread];
                        let names = parra_program::pretty::Names::for_program(&sys.vars, p);
                        let instr = parra_program::pretty::instr_to_string(
                            &p.cfa().edges()[s.edge].instr,
                            names,
                        );
                        format!("dis{}: {}", s.thread + 1, instr)
                    })
                    .collect();
                (bound, lines)
            }
            None => (None, Vec::new()),
        };
        VerificationResult {
            stats: Stats {
                states: report.states,
                worlds: report.worlds,
                peak_env_msgs: report.peak_env_msgs,
                ..Stats::default()
            },
            env_thread_bound,
            witness_lines,
            notes,
            ..VerificationResult::new(EngineId::SimplifiedReach, verdict)
        }
    }

    /// Evaluates the guesses' Datalog queries one after another on the
    /// calling thread, stopping at the first guess that derives the goal.
    /// Returns the max program/database sizes seen and that winning guess
    /// (`None` means every query completed without the goal: `Safe`).
    ///
    /// A single guess is evaluated as a whole program ([`MakeP::program`])
    /// under the whole-program plan in `plans`, with provenance on: when it
    /// wins, its program and database come back, and its witness is read
    /// off them.
    ///
    /// A fleet of two or more guesses is built in delta form
    /// ([`MakeP::fleet`]) and its base program evaluated to closure once,
    /// with provenance off; an interrupted base interrupts the fleet. Every
    /// guess and the union program `U` are then deltas, each evaluated in
    /// place on that database and rolled back, in the order guess 0, `U`,
    /// guess 1, guess 2, …. If `U` completes without the goal, no guess
    /// derives it, so the fleet stops and is safe. Otherwise the fleet
    /// runs on; `U` never makes a winner.
    ///
    /// The whole program, the base and `U` evaluate under their plans in
    /// `plans`, made through `cache` by the first run that needs them.
    /// Every guess of a fleet evaluates under `U`'s plan, its own rules
    /// masked in: `U` holds them all, and their facts define no predicate
    /// they read, so `U`'s plan orders their joins as a plan of their own
    /// would.
    #[allow(clippy::too_many_arguments)]
    fn datalog_fleet(
        &self,
        rec: &Recorder,
        phases: &PhaseTimer,
        mk: &MakeP,
        guesses: &[Guess],
        plans: &FleetPlans,
        cache: &mut PlanCache,
        target: DatalogTarget,
        gov: &ResourceBudget,
    ) -> FleetOutcome {
        let n_guesses = guesses.len();
        let with_union = n_guesses >= 2;
        // The evaluators of one registry share their metric handles,
        // resolved by the first.
        let metrics = OnceCell::new();
        let metrics = || metrics.get_or_init(|| EvalMetrics::new(rec));
        let mut out = FleetOutcome::default();
        // The fleet in delta form, with its base's plan and database.
        let mut fleet: Option<(Fleet, Arc<Plan>, Database)> = None;
        // Guess indices in evaluation order; `None` is the union.
        let mut order = (0..n_guesses.min(1))
            .map(Some)
            .chain(with_union.then_some(None))
            .chain((1..n_guesses).map(Some));
        loop {
            // Round granularity for the fleet is one program, checked
            // before each and once after the last; the evaluator below
            // also checks per semi-naive round.
            if let Err(reason) = gov.check() {
                out.interrupted = Some(reason);
                break;
            }
            let Some(guess) = order.next() else { break };
            let (run, rules) = if !with_union {
                let (prog, goal) = {
                    let _construct = phases.start(Phase::Construct);
                    mk.program(&guesses[0], target)
                };
                let plan = planned(&plans.whole, phases, || cache.plan(&prog));
                // Round events only for a single-guess run, so that a
                // fleet's event log does not grow with its guesses.
                let db = timed(phases, Phase::Fixpoint, || {
                    Evaluator::with_plan(&prog, plan)
                        .with_metrics(metrics())
                        .with_events(true)
                        .with_provenance(true)
                        .with_governor(gov.clone())
                })
                .run_until(Some(&goal));
                let run = (Evaluated::of(&db, &goal), prog.rules().len());
                if run.0.won {
                    out.won = Some((prog, goal, db));
                }
                run
            } else {
                // The fleet and its base are built before its first
                // program.
                if fleet.is_none() {
                    let built = {
                        let _construct = phases.start(Phase::Construct);
                        mk.fleet(guesses, target)
                    };
                    let (program, base_len) = (&built.program, built.base_len);
                    let plan =
                        planned(&plans.base, phases, || cache.plan_prefix(program, base_len));
                    let ev = timed(phases, Phase::Fixpoint, || {
                        Evaluator::with_delta(program, base_len, &[], Arc::clone(&plan))
                            .with_metrics(metrics())
                            .with_governor(gov.clone())
                    });
                    let db = ev.run();
                    out.base_atoms = db.len();
                    if let Some(reason) = db.interrupted() {
                        out.interrupted = Some(reason);
                        break;
                    }
                    fleet = Some((built, plan, db));
                }
                let (built, base_plan, base) = fleet.as_mut().expect("built above");
                let (program, base_len) = (&built.program, built.base_len);
                let union = planned(&plans.union, phases, || {
                    cache.plan_delta(program, base_plan, base_len, &built.union)
                });
                let delta = guess.map_or(&built.union, |i| &built.guesses[i]);
                let fits = guess.is_none()
                    || timed(phases, Phase::Fixpoint, || union.fits(program, delta));
                debug_assert!(fits, "a guess's facts define no predicate its rules read");
                let plan = if fits {
                    union
                } else {
                    let _join_plan = phases.start(Phase::JoinPlan);
                    cache.plan_delta(program, base_plan, base_len, delta)
                };
                let ev = timed(phases, Phase::Fixpoint, || {
                    Evaluator::with_delta(program, base_len, delta, plan)
                        .with_metrics(metrics())
                        .with_governor(gov.clone())
                });
                let mark = ev
                    .resume_until(base, Some(&built.goal))
                    .expect("a complete base resumes");
                let run = timed(phases, Phase::Fixpoint, || {
                    let run = Evaluated::of(base, &built.goal);
                    base.rollback(mark);
                    run
                });
                out.resumed += 1;
                (run, base_len + delta.len())
            };
            match (guess, run.interrupted) {
                // A partial union database proves nothing; the guesses
                // after it check the governor themselves.
                (None, Some(_)) => continue,
                // The partial database is a sound under-approximation:
                // "goal not derived" proves nothing for this guess.
                (Some(_), Some(reason)) => {
                    out.interrupted = Some(reason);
                    if !run.won {
                        break;
                    }
                }
                (_, None) => {}
            }
            out.rules = out.rules.max(rules);
            out.atoms = out.atoms.max(run.atoms);
            match guess {
                Some(i) if run.won => {
                    out.winner = Some(i);
                    break;
                }
                None if !run.won => {
                    out.union_settled = true;
                    break;
                }
                _ => {}
            }
        }
        // Freeing the base's database ends the fleet's evaluation.
        timed(phases, Phase::Fixpoint, || drop(fleet));
        if rec.is_enabled() {
            let mut fields = vec![
                ("n_guesses", n_guesses.into()),
                ("rules_max", out.rules.into()),
                ("atoms_max", out.atoms.into()),
            ];
            if with_union {
                fields.push(("union_settled", u64::from(out.union_settled).into()));
                fields.push(("base_atoms", out.base_atoms.into()));
                fields.push(("resumed", out.resumed.into()));
            }
            if let Some(w) = out.winner {
                fields.push(("winner", w.into()));
            }
            rec.event("fleet", &fields);
        }
        out
    }

    /// The makeP encoder and guesses of this verifier's system. The first
    /// run builds the template and enumerates the guesses (§4.1, Lemma
    /// 4.3), timed as the `guess` phase; later runs and clones reuse them,
    /// and the fleet's plans, unless the limits changed.
    ///
    /// A panic while the lock was held poisons it; the cache is then
    /// reset to empty and the poison cleared, so every later run of this
    /// verifier and its clones rebuilds it rather than reading a
    /// half-written entry.
    fn makep(&self, phases: &PhaseTimer, rec: &Recorder) -> Result<(MakeP<'_>, Prepared), String> {
        let limits = self.options.makep_limits;
        let mut cached = self.makep.lock().unwrap_or_else(|poisoned| {
            let mut cached = poisoned.into_inner();
            *cached = None;
            self.makep.clear_poison();
            cached
        });
        if cached.as_ref().is_none_or(|c| c.limits != limits) {
            let _guess = phases.start(Phase::Guess);
            let built = MakeP::new(&self.goal.system, self.budget.clone(), limits)
                .map_err(|e| format!("makeP not applicable: {e}"))
                .and_then(|mk| {
                    let mk = mk.with_recorder(rec.clone());
                    let guesses = mk
                        .guesses()
                        .map_err(|e| format!("guess enumeration failed: {e}"))?;
                    let plans = Arc::new(FleetPlans::default());
                    Ok((mk.template(), guesses.into(), plans))
                });
            *cached = Some(CachedMakeP { limits, built });
        }
        let fleet = cached.as_ref().expect("just built").built.clone()?;
        let tpl = Arc::clone(&fleet.0);
        let mk = MakeP::with_template(&self.goal.system, self.budget.clone(), limits, tpl);
        Ok((mk.with_recorder(rec.clone()), fleet))
    }

    pub(crate) fn run_datalog(&self, rec: &Recorder, gov: &ResourceBudget) -> VerificationResult {
        let engine = EngineId::CacheDatalog;
        if let Some(r) = self.trivially_safe(engine) {
            return r;
        }
        let phases = PhaseTimer::new(rec);
        let (mk, (_, guesses, plans)) = match self.makep(&phases, rec) {
            Ok(built) => built,
            Err(note) => {
                return VerificationResult {
                    notes: vec![note],
                    ..VerificationResult::new(engine, Verdict::Unknown)
                }
            }
        };
        let target = DatalogTarget::MessageGenerated(self.goal.goal_var, self.goal.goal_val);
        let mut cache = plans.cache.clone();
        let fleet =
            self.datalog_fleet(rec, &phases, &mk, &guesses, &plans, &mut cache, target, gov);
        let mut result = VerificationResult {
            stats: Stats {
                guesses: guesses.len(),
                datalog_rules: fleet.rules,
                datalog_atoms: fleet.atoms,
                ..Stats::default()
            },
            ..VerificationResult::new(engine, Verdict::Safe)
        };
        let notes = &mut result.notes;
        // A winning guess is a sound Unsafe witness even if other guesses
        // were cut short; without one, an interrupted fleet is
        // inconclusive, never Safe.
        result.verdict = match fleet.interrupted {
            Some(reason) if fleet.winner.is_none() => {
                notes.push(format!(
                    "interrupted ({reason}): not every guess was evaluated; \
                     partial statistics only, Safe could not be concluded"
                ));
                Verdict::Interrupted(reason)
            }
            _ => Verdict::Safe,
        };
        if let Some(wi) = fleet.winner {
            result.verdict = Verdict::Unsafe;
            // Lemma 4.6: read a bounded-cache schedule off the winning
            // guess's derivation, counting intensional atoms only; the
            // schedule is certified under ⊢ₖ and cross-checked through the
            // Lemma 4.2 cache→linear translation. A single guess's
            // derivation is in its own evaluation's database. A fleet's
            // winner is re-run alone with provenance on, as a whole program
            // under a whole-program plan, planned once and kept.
            let (prog, goal, db) = match fleet.won {
                Some((prog, goal, db)) => (prog, goal, Some(db)),
                None => {
                    let _construct = phases.start(Phase::Construct);
                    let (prog, goal) = mk.program(&guesses[wi], target);
                    (prog, goal, None)
                }
            };
            let plan = db
                .is_none()
                .then(|| planned(&plans.whole, &phases, || cache.plan(&prog)));
            let _replay = phases.start(Phase::WitnessReplay);
            let w = match &db {
                Some(db) => witness::from_database(&prog, &goal, db, gov),
                None => witness::extract_within(&prog, &goal, rec, plan, gov),
            };
            match &w {
                Some(w) => {
                    result.stats.cache_peak = w.peak_intensional;
                    result.stats.datalog_atoms = result.stats.datalog_atoms.max(w.atoms);
                    result.cache_occupancy = w.occupancy.iter().map(|&c| c as u64).collect();
                    if w.certified {
                        notes.push(format!(
                            "Lemma 4.6 schedule ({} steps) certified under ⊢ₖ with \
                             k = {} (intensional peak {})",
                            w.schedule.steps.len(),
                            w.schedule.peak,
                            w.peak_intensional,
                        ));
                    } else {
                        notes.push(
                            "certificate replay FAILED: the schedule does not re-derive \
                             the goal under the Cache semantics (engine bug)"
                                .into(),
                        );
                    }
                    notes.push(w.linear_check.note().into());
                    result.witness_lines = witness::render_lines(&prog, w, 64);
                }
                None => notes.push(
                    "witness extraction failed: winning guess did not replay (engine bug)".into(),
                ),
            }
            // Freeing the evaluation the witness was read off ends the
            // replay's phase.
            drop((w, db, prog));
        }
        result
    }

    pub(crate) fn run_concrete(&self, rec: &Recorder, gov: &ResourceBudget) -> VerificationResult {
        if let Some(r) = self.trivially_safe(EngineId::BoundedConcrete) {
            return r;
        }
        let sys = &self.goal.system;
        let mut stats = Stats::default();
        let mut exhausted_all = true;
        for n_env in 0..=self.options.concrete_max_env {
            let explorer = Explorer::new(
                Instance::new(sys.clone(), n_env),
                self.options.concrete_limits,
            )
            .with_recorder(rec.clone())
            .with_governor(gov.clone());
            let report = explorer.run(Target::MessageGenerated(
                self.goal.goal_var,
                self.goal.goal_val,
            ));
            stats.states += report.states;
            match report.outcome {
                ExploreOutcome::Unsafe => {
                    return VerificationResult {
                        stats,
                        env_thread_bound: Some(n_env as u64),
                        witness_lines: report
                            .witness
                            .unwrap_or_default()
                            .into_iter()
                            .map(|s| s.description)
                            .collect(),
                        notes: vec![format!("violation found with {n_env} env threads")],
                        ..VerificationResult::new(EngineId::BoundedConcrete, Verdict::Unsafe)
                    }
                }
                ExploreOutcome::SafeExhausted => {}
                ExploreOutcome::SafeWithinBounds => exhausted_all = false,
                ExploreOutcome::Interrupted(reason) => {
                    // The budget covers the whole engine run, so the
                    // remaining instances would be interrupted too.
                    return VerificationResult {
                        stats,
                        notes: vec![format!(
                            "interrupted ({reason}) while exploring the instance with \
                             {n_env} env threads; partial statistics only"
                        )],
                        ..VerificationResult::new(
                            EngineId::BoundedConcrete,
                            Verdict::Interrupted(reason),
                        )
                    };
                }
            }
        }
        VerificationResult {
            stats,
            notes: vec![format!(
                "no violation up to {} env threads ({}); the engine cannot prove \
                 parameterized safety",
                self.options.concrete_max_env,
                if exhausted_all {
                    "each instance exhausted"
                } else {
                    "bounds hit"
                }
            )],
            ..VerificationResult::new(EngineId::BoundedConcrete, Verdict::Unknown)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::VerifierOptions;
    use parra_program::builder::SystemBuilder;
    use parra_program::system::ParamSystem;

    fn handshake(safe: bool) -> ParamSystem {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        if !safe {
            d.store(y, 1);
        }
        d.load(s, x).assume_eq(s, 1).assert_false();
        let d = d.finish();
        b.build(env, vec![d])
    }

    fn sequential_aggregate(v: &Verifier, engines: &[EngineId]) -> Verdict {
        let verdicts: Vec<(EngineId, Verdict)> = engines
            .iter()
            .map(|&e| (e, v.run_isolated(e).verdict))
            .collect();
        aggregate_verdicts(&verdicts).expect("sequential engines agree")
    }

    #[test]
    fn race_matches_sequential_aggregate() {
        for safe in [false, true] {
            let sys = handshake(safe);
            let seq = {
                let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
                sequential_aggregate(&v, &EngineId::ALL)
            };
            let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
            let race = v.race(&EngineId::ALL).expect("no disagreement");
            assert_eq!(race.verdict, seq, "safe={safe}");
            let raced: Vec<EngineId> = race.results.iter().map(|r| r.engine).collect();
            assert_eq!(raced, EngineId::ALL.to_vec());
            assert_eq!(race.results.len(), 3);
            if let Some(w) = race.winner {
                assert!(race.results[w].verdict.is_decided());
                assert_eq!(race.winner_engine(), Some(race.results[w].engine));
            }
        }
    }

    #[test]
    fn race_losers_carry_the_race_note_and_never_aggregate_as_answers() {
        let v = Verifier::new(&handshake(false), VerifierOptions::default()).unwrap();
        let race = v.race(&EngineId::ALL).expect("no disagreement");
        assert_eq!(race.verdict, Verdict::Unsafe);
        for (i, r) in race.results.iter().enumerate() {
            if r.verdict == Verdict::Interrupted(InterruptReason::Cancelled) {
                assert_ne!(Some(i), race.winner);
                assert!(
                    r.notes
                        .iter()
                        .any(|n| n.contains("cancelled by portfolio race")),
                    "loser {i} missing race note: {:?}",
                    r.notes
                );
            }
        }
    }

    #[test]
    fn race_never_trips_the_callers_token() {
        let cancel = parra_limits::CancelToken::new();
        let opts = VerifierOptions {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), opts).unwrap();
        let race = v.race(&EngineId::ALL).expect("no disagreement");
        assert_eq!(race.verdict, Verdict::Unsafe);
        assert!(
            !cancel.is_cancelled(),
            "the race's internal cancellation leaked into the caller's token"
        );
        // And a follow-up sequential run on the same verifier still decides.
        assert_eq!(v.run(EngineId::SimplifiedReach).verdict, Verdict::Unsafe);
    }

    #[test]
    fn precancelled_race_interrupts_everyone_and_rearms() {
        let cancel = parra_limits::CancelToken::new();
        let opts = VerifierOptions {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), opts).unwrap();
        cancel.cancel();
        let race = v.race(&EngineId::ALL).expect("no disagreement");
        assert!(
            race.results
                .iter()
                .all(|r| r.verdict == Verdict::Interrupted(InterruptReason::Cancelled)),
            "pre-cancelled race should interrupt every racer: {:?}",
            race.results.iter().map(|r| r.verdict).collect::<Vec<_>>()
        );
        assert_eq!(race.winner, None);
        // The race consumed the caller's request; the next race decides.
        let race2 = v.race(&EngineId::ALL).expect("no disagreement");
        assert_eq!(race2.verdict, Verdict::Unsafe);
    }

    #[test]
    fn race_contains_a_panicking_engine() {
        let opts = VerifierOptions {
            fail_point_panic: Some(EngineId::SimplifiedReach),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), opts).unwrap();
        let race = v.race(&EngineId::ALL).expect("no disagreement");
        // The panicked racer degrades to Unknown; the others still decide.
        assert_eq!(race.verdict, Verdict::Unsafe);
        let panicked = &race.results[0];
        assert_eq!(panicked.engine, EngineId::SimplifiedReach);
        assert!(matches!(
            panicked.verdict,
            Verdict::Unknown | Verdict::Interrupted(InterruptReason::Cancelled)
        ));
    }

    #[test]
    fn a_poisoned_makep_lock_is_reset_and_cleared() {
        for (name, expected) in [("sb", Verdict::Unsafe), ("mp", Verdict::Safe)] {
            let bench = parra_litmus::by_name(name).expect("litmus benchmark");
            let v = Verifier::new(&bench.system, VerifierOptions::default()).unwrap();
            assert_eq!(v.run(EngineId::CacheDatalog).verdict, expected, "{name}");
            let makep = Arc::clone(&v.makep);
            let joined = std::thread::spawn(move || {
                let _guard = makep.lock().unwrap();
                panic!("poison the makeP lock");
            })
            .join();
            assert!(joined.is_err() && v.makep.is_poisoned());
            let warm = v.rescoped(VerifierOptions::default(), Recorder::disabled());
            assert_eq!(warm.run(EngineId::CacheDatalog).verdict, expected, "{name}");
            assert!(!v.makep.is_poisoned(), "{name}");
        }
    }

    #[test]
    fn race_emits_one_deterministic_race_event() {
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let v =
            Verifier::new_with_recorder(&handshake(false), VerifierOptions::default(), rec.clone())
                .unwrap();
        let race = v.race(&EngineId::ALL).expect("no disagreement");
        let events = rec.events();
        let race_events: Vec<_> = events
            .iter()
            .filter(|e| e.scope == "race/" && e.kind == "race")
            .collect();
        assert_eq!(race_events.len(), 1);
        let e = race_events[0];
        assert!(e
            .fields
            .contains(&("n_engines".into(), parra_obs::EventValue::U64(3))));
        assert!(e.fields.contains(&(
            "engines".into(),
            parra_obs::EventValue::Str("simplified-reach,cache-datalog,bounded-concrete".into())
        )));
        assert!(e.fields.contains(&(
            "verdict".into(),
            parra_obs::EventValue::Str("UNSAFE".into())
        )));
        // Winner attribution is wall-clock-bound: volatile only.
        assert!(!e.fields.iter().any(|(k, _)| k == "winner"));
        if let Some(w) = race.winner {
            assert!(e.volatile.contains(&("winner".into(), w as u64)));
        }
    }
}
