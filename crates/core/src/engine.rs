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
//! as it would sequentially.

use crate::makep::{DatalogTarget, Guess, MakeP, MakePLimits, Template};
use crate::verify::{
    aggregate_verdicts, EngineId, RunReport, SharedPlanCache, Stats, Verdict, VerificationResult,
    Verifier, VerifierOptions,
};
use crate::witness::{self, LinearCheck};
use parra_datalog::eval::Evaluator;
use parra_datalog::plan::Plan;
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Phase, PhaseTimer, Recorder};
use parra_program::parser::parse_system;
use parra_ra::explore::{ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::reach::{ReachOutcome, Reachability, SimpTarget};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// A prepared verifier's makeP work, kept across its runs and clones:
/// the template (whose segment keys the plan cache, so warm runs keep
/// their template plans) and the guesses, or why makeP does not apply.
#[derive(Debug)]
pub(crate) struct CachedMakeP {
    limits: MakePLimits,
    built: Result<(Arc<Template>, Arc<[Guess]>), String>,
}

/// The outcome of one portfolio race ([`Verifier::race`]).
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The racers, in the order they were passed.
    pub engines: Vec<EngineId>,
    /// One result per racer, in `engines` order. Losers cancelled by the
    /// winner carry `Interrupted(cancelled)` and a race note — they are
    /// metadata about the race, not engine answers.
    pub results: Vec<VerificationResult>,
    /// Index (into `engines`) of the racer whose decisive verdict won,
    /// if any. Which engine wins is wall-clock-dependent; the aggregate
    /// `verdict` is not.
    pub winner: Option<usize>,
    /// The aggregate verdict — identical to what the sequential
    /// `--all-engines` aggregation over the same engines reports.
    pub verdict: Verdict,
    /// Wall-clock time of the whole race.
    pub duration: Duration,
}

impl RaceReport {
    /// The winning engine, when some racer answered decisively.
    pub fn winner_engine(&self) -> Option<EngineId> {
        self.winner.map(|i| self.engines[i])
    }

    /// The winning result, when some racer answered decisively.
    pub fn winner_result(&self) -> Option<&VerificationResult> {
        self.winner.map(|i| &self.results[i])
    }
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
    pub fn race(&self, engines: &[EngineId]) -> Result<RaceReport, String> {
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
                    let note =
                        format!("cancelled by portfolio race: {weng} answered {wverdict} first");
                    r.notes.push(note.clone());
                    r.report.notes.push(note);
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

        let verdicts: Vec<(EngineId, Verdict)> = engines
            .iter()
            .copied()
            .zip(results.iter().map(|r| r.verdict))
            .collect();
        let verdict = aggregate_verdicts(&verdicts)?;

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
            if let Some(w) = outcome.winner {
                vol.push(("winner", w as u64));
            }
            self.rec.scoped("race/").event_with(
                "race",
                &[
                    ("n_engines", engines.len().into()),
                    ("engines", names.as_str().into()),
                    ("verdict", verdict.to_string().into()),
                ],
                &vol,
            );
        }

        Ok(RaceReport {
            engines: engines.to_vec(),
            results,
            winner: outcome.winner,
            verdict,
            duration,
        })
    }

    /// Runs an engine *selection* — the portfolio shape both `parra
    /// batch` and `parra campaign` expose: either each engine in turn
    /// (isolated, each with the full budget) or all of them raced. The
    /// aggregate verdict is identical either way; only the scheduling
    /// differs.
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
            let outcome = self.race(engines)?;
            let interrupted = outcome
                .results
                .iter()
                .find_map(|r| r.verdict.interrupt_reason());
            return Ok(SelectionOutcome {
                verdict: outcome.verdict,
                interrupted,
                results: outcome.results,
            });
        }
        let mut results = Vec::new();
        let mut verdicts = Vec::new();
        let mut interrupted = None;
        for &engine in engines {
            let result = self.run_isolated(engine);
            interrupted = interrupted.or(result.verdict.interrupt_reason());
            verdicts.push((result.engine, result.verdict));
            results.push(result);
        }
        let verdict = aggregate_verdicts(&verdicts)?;
        Ok(SelectionOutcome {
            verdict,
            interrupted,
            results,
        })
    }
}

/// The outcome of [`Verifier::run_selection`].
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The aggregate verdict over the selection.
    pub verdict: Verdict,
    /// The first interruption reason any engine run reported, decided
    /// aggregate or not. Callers that mirror `parra batch` lines null
    /// this out once `verdict.is_decided()`; callers that audit budget
    /// health (`batch --strict`) read it raw.
    pub interrupted: Option<InterruptReason>,
    /// One result per engine, in selection order.
    pub results: Vec<VerificationResult>,
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
                let mut sel = verifier.run_selection(head, false)?;
                let spent = VerifierOptions {
                    deadline_at: Some(Instant::now()),
                    ..options.clone()
                };
                let result = verifier.rescoped(spent, rec.clone()).run_isolated(last);
                sel.interrupted = sel.interrupted.or(result.verdict.interrupt_reason());
                sel.results.push(result);
                let verdicts: Vec<(EngineId, Verdict)> =
                    sel.results.iter().map(|r| (r.engine, r.verdict)).collect();
                sel.verdict = aggregate_verdicts(&verdicts)?;
                Ok(sel)
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
struct FleetOutcome {
    /// Max rule count over the evaluated programs, the union included.
    rules: usize,
    /// Max derived-atom count over the evaluated databases, the union
    /// included.
    atoms: usize,
    /// The first guess whose query derived the goal, with the plan it ran
    /// under (the witness replay reuses it).
    winner: Option<(usize, Arc<Plan>)>,
    /// The union program reached its fixpoint without the goal, which
    /// settles the fleet as safe.
    union_settled: bool,
    /// Set when the governor stopped the fleet or a guess's evaluation
    /// before every guess completed; "no winner" is then inconclusive.
    interrupted: Option<InterruptReason>,
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
        let engine = Reachability::new(sys.clone(), self.budget.clone(), self.options.reach_limits)
            .expect("env CAS-freedom checked in Verifier::new")
            .with_recorder(rec.clone())
            .with_governor(gov.clone());
        let target = SimpTarget::MessageGenerated(self.goal.goal_var, self.goal.goal_val);
        let report = engine.run(target);
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
            verdict,
            engine: EngineId::SimplifiedReach,
            stats: Stats {
                states: report.states,
                worlds: report.worlds,
                peak_env_msgs: report.peak_env_msgs,
                ..Stats::default()
            },
            env_thread_bound,
            witness_lines,
            notes,
            report: RunReport::empty(EngineId::SimplifiedReach),
        }
    }

    /// Evaluates the guesses' Datalog queries with provenance *off*, one
    /// after another on the calling thread, stopping at the first guess
    /// that derives the goal. Returns the max program/database sizes seen
    /// and that winning guess (`None` means every query completed without
    /// the goal: `Safe`).
    ///
    /// A fleet of two or more guesses also evaluates the union program
    /// `U` ([`MakeP::union_program`]) right after guess 0: guess 0, `U`,
    /// guess 1, guess 2, …. If `U` completes without the goal, no guess
    /// derives it, so the fleet stops and is safe. Otherwise the fleet
    /// runs on; `U` never makes a winner.
    fn datalog_fleet(
        &self,
        rec: &Recorder,
        mk: &MakeP,
        guesses: &[Guess],
        target: DatalogTarget,
        cache: &SharedPlanCache,
        gov: &ResourceBudget,
    ) -> FleetOutcome {
        let n_guesses = guesses.len();
        let with_union = n_guesses >= 2;
        let phases = PhaseTimer::new(rec);
        let planned = rec.counter("rules_planned");
        let mut out = FleetOutcome {
            rules: 0,
            atoms: 0,
            winner: None,
            union_settled: false,
            interrupted: None,
        };
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
            let (prog, goal) = match guess {
                Some(i) => mk.program(&guesses[i], target),
                None => mk.union_program(guesses, target),
            };
            // Guess programs share the template segment; the cache plans
            // it once per fleet, and shares whole plans between guesses
            // whose own rules match.
            let join_plan = phases.start(Phase::JoinPlan);
            let (plan, n_planned) = cache.plan(&prog);
            drop(join_plan);
            planned.add(n_planned as u64);
            // Round events only for a single-guess run, so that a fleet's
            // event log does not grow with the guesses it evaluates.
            let db = Evaluator::with_plan(&prog, Arc::clone(&plan))
                .with_recorder(rec.clone())
                .with_events(n_guesses == 1)
                .with_governor(gov.clone())
                .run_until(Some(&goal));
            let won = db.contains(&goal);
            match (guess, db.interrupted()) {
                // A partial union database proves nothing; the guesses
                // after it check the governor themselves.
                (None, Some(_)) => continue,
                // The partial database is a sound under-approximation:
                // "goal not derived" proves nothing for this guess.
                (Some(_), Some(reason)) => {
                    out.interrupted = Some(reason);
                    if !won {
                        break;
                    }
                }
                (_, None) => {}
            }
            out.rules = out.rules.max(prog.rules().len());
            out.atoms = out.atoms.max(db.len());
            match guess {
                Some(i) if won => {
                    out.winner = Some((i, plan));
                    break;
                }
                None if !won => {
                    out.union_settled = true;
                    break;
                }
                _ => {}
            }
        }
        if rec.is_enabled() {
            let mut fields = vec![
                ("n_guesses", n_guesses.into()),
                ("rules_max", out.rules.into()),
                ("atoms_max", out.atoms.into()),
            ];
            if with_union {
                fields.push(("union_settled", u64::from(out.union_settled).into()));
            }
            if let Some((w, _)) = &out.winner {
                fields.push(("winner", (*w).into()));
            }
            rec.event("fleet", &fields);
        }
        out
    }

    /// The makeP encoder and guesses of this verifier's system. The first
    /// run builds the template and enumerates the guesses (§4.1, Lemma
    /// 4.3), timed as the `guess` phase; later runs and clones reuse them
    /// unless the limits changed.
    fn makep(
        &self,
        phases: &PhaseTimer,
        rec: &Recorder,
    ) -> Result<(MakeP<'_>, Arc<[Guess]>), String> {
        let limits = self.options.makep_limits;
        let mut cached = self.makep.lock().unwrap_or_else(PoisonError::into_inner);
        if cached.as_ref().is_none_or(|c| c.limits != limits) {
            let _guess = phases.start(Phase::Guess);
            let built = MakeP::new(&self.goal.system, self.budget.clone(), limits)
                .map_err(|e| format!("makeP not applicable: {e}"))
                .and_then(|mk| {
                    let mk = mk.with_recorder(rec.clone());
                    let guesses = mk
                        .guesses()
                        .map_err(|e| format!("guess enumeration failed: {e}"))?;
                    Ok((mk.template(), guesses.into()))
                });
            *cached = Some(CachedMakeP { limits, built });
        }
        let (tpl, guesses) = cached.as_ref().expect("just built").built.clone()?;
        let mk = MakeP::with_template(&self.goal.system, self.budget.clone(), limits, tpl);
        Ok((mk.with_recorder(rec.clone()), guesses))
    }

    pub(crate) fn run_datalog(&self, rec: &Recorder, gov: &ResourceBudget) -> VerificationResult {
        let engine = EngineId::CacheDatalog;
        if let Some(r) = self.trivially_safe(engine) {
            return r;
        }
        let unknown = |note: String| VerificationResult {
            verdict: Verdict::Unknown,
            engine,
            stats: Stats::default(),
            env_thread_bound: None,
            witness_lines: vec![],
            notes: vec![note],
            report: RunReport::empty(engine),
        };
        let phases = PhaseTimer::new(rec);
        let (mk, guesses) = match self.makep(&phases, rec) {
            Ok(built) => built,
            Err(note) => return unknown(note),
        };
        let target = DatalogTarget::MessageGenerated(self.goal.goal_var, self.goal.goal_val);
        // A host-provided shared cache (warm serve requests) takes the
        // place of a run-local one; plans are deterministic, so the only
        // difference is who pays for planning.
        let plan_cache = self.options.plan_cache.clone().unwrap_or_default();
        let fleet = self.datalog_fleet(rec, &mk, &guesses, target, &plan_cache, gov);
        let mut stats = Stats {
            guesses: guesses.len(),
            datalog_rules: fleet.rules,
            datalog_atoms: fleet.atoms,
            ..Stats::default()
        };
        let mut report = RunReport::empty(engine);
        let mut notes = Vec::new();
        let mut witness_lines = Vec::new();
        // A winning guess is a sound Unsafe witness even if other guesses
        // were cut short; without one, an interrupted fleet is
        // inconclusive, never Safe.
        let mut verdict = match fleet.interrupted {
            Some(reason) if fleet.winner.is_none() => {
                notes.push(format!(
                    "interrupted ({reason}): not every guess was evaluated; \
                     partial statistics only, Safe could not be concluded"
                ));
                Verdict::Interrupted(reason)
            }
            _ => Verdict::Safe,
        };
        if let Some((wi, plan)) = fleet.winner {
            verdict = Verdict::Unsafe;
            // Lemma 4.6: re-run only the winning guess with provenance on
            // and read a bounded-cache schedule off its derivation,
            // counting intensional atoms only; the schedule is certified
            // under ⊢ₖ and cross-checked through the Lemma 4.2
            // cache→linear translation. The program is rebuilt exactly as
            // the fleet built it, so the fleet's plan serves the replay.
            let (prog, goal) = mk.program(&guesses[wi], target);
            let _replay = phases.start(Phase::WitnessReplay);
            match witness::extract(&prog, &goal, rec, 1, Some(plan)) {
                Some(w) => {
                    stats.cache_peak = w.peak_intensional;
                    stats.datalog_atoms = stats.datalog_atoms.max(w.atoms);
                    report.cache_occupancy = w.occupancy.iter().map(|&c| c as u64).collect();
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
                    match w.linear_check {
                        LinearCheck::Agrees => notes
                            .push("Lemma 4.2 cache→linear translation re-derives the goal".into()),
                        LinearCheck::Disagrees => notes.push(
                            "Lemma 4.2 cross-check FAILED: the translated linear program \
                             does not derive the goal (engine bug)"
                                .into(),
                        ),
                        LinearCheck::OutsideFragment => notes.push(
                            "Lemma 4.2 cross-check skipped: program outside the \
                             ≤2-atom-body fragment"
                                .into(),
                        ),
                    }
                    witness_lines = witness::render_lines(&prog, &w, 64);
                }
                None => notes.push(
                    "witness extraction failed: winning guess did not replay (engine bug)".into(),
                ),
            }
        }
        VerificationResult {
            verdict,
            engine,
            stats,
            env_thread_bound: None,
            witness_lines,
            notes,
            report,
        }
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
                        verdict: Verdict::Unsafe,
                        engine: EngineId::BoundedConcrete,
                        stats,
                        env_thread_bound: Some(n_env as u64),
                        witness_lines: report
                            .witness
                            .unwrap_or_default()
                            .into_iter()
                            .map(|s| s.description)
                            .collect(),
                        notes: vec![format!("violation found with {n_env} env threads")],
                        report: RunReport::empty(EngineId::BoundedConcrete),
                    }
                }
                ExploreOutcome::SafeExhausted => {}
                ExploreOutcome::SafeWithinBounds => exhausted_all = false,
                ExploreOutcome::Interrupted(reason) => {
                    // The budget covers the whole engine run, so the
                    // remaining instances would be interrupted too.
                    return VerificationResult {
                        verdict: Verdict::Interrupted(reason),
                        engine: EngineId::BoundedConcrete,
                        stats,
                        env_thread_bound: None,
                        witness_lines: vec![],
                        notes: vec![format!(
                            "interrupted ({reason}) while exploring the instance with \
                             {n_env} env threads; partial statistics only"
                        )],
                        report: RunReport::empty(EngineId::BoundedConcrete),
                    };
                }
            }
        }
        VerificationResult {
            verdict: Verdict::Unknown,
            engine: EngineId::BoundedConcrete,
            stats,
            env_thread_bound: None,
            witness_lines: vec![],
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
            report: RunReport::empty(EngineId::BoundedConcrete),
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
            assert_eq!(race.engines, EngineId::ALL.to_vec());
            assert_eq!(race.results.len(), 3);
            if let Some(w) = race.winner {
                assert!(race.results[w].verdict.is_decided());
                assert_eq!(race.winner_engine(), Some(race.engines[w]));
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
