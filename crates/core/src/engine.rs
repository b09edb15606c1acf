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
//! [`Verifier::race`] builds on it: the selected engines run
//! concurrently, each on its own OS thread (engines keep their own
//! internal worker fleets), and the first *decisive* verdict —
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

use crate::makep::{DatalogTarget, Guess, MakeP};
use crate::verify::{
    aggregate_verdicts, EngineId, RunReport, SharedPlanCache, Stats, Verdict, VerificationResult,
    Verifier, VerifierOptions,
};
use crate::witness::{self, LinearCheck};
use parra_datalog::eval::Evaluator;
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Phase, PhaseTimer, Recorder};
use parra_program::parser::parse_system;
use parra_ra::explore::{ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::reach::{ReachOutcome, Reachability, SimpTarget};
use std::time::{Duration, Instant};

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
    /// Max rule count over the evaluated guess programs.
    rules: usize,
    /// Max derived-atom count over the evaluated guess databases.
    atoms: usize,
    /// Lowest-index guess whose query derived the goal.
    winner: Option<usize>,
    /// Set when the governor stopped any worker or evaluation before
    /// every guess completed; "no winner" is then inconclusive.
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
            .with_threads(self.options.threads)
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

    /// Evaluates every guess's Datalog query with provenance *off*,
    /// racing the fleet and stopping as soon as one derives the goal.
    /// Returns the max program/database sizes seen and the lowest-index
    /// winning guess (`None` means every query completed without the
    /// goal: `Safe`).
    fn datalog_fleet(
        &self,
        rec: &Recorder,
        mk: &MakeP,
        guesses: &[Guess],
        target: DatalogTarget,
        cache: &SharedPlanCache,
        gov: &ResourceBudget,
    ) -> FleetOutcome {
        let n_workers = self.options.threads.max(1);
        // With a single guess there is no fleet to parallelize; hand the
        // thread budget to the evaluator's delta batches instead.
        let eval_threads = if guesses.len() <= 1 { n_workers } else { 1 };
        let found = std::sync::atomic::AtomicBool::new(false);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let n_guesses = guesses.len();
        let interrupted: std::sync::Mutex<Option<InterruptReason>> = std::sync::Mutex::new(None);
        // Per-guess records: (guess index, rules, atoms, derived goal).
        let records: Vec<(usize, usize, usize, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    let found = &found;
                    let next = &next;
                    let interrupted = &interrupted;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            if found.load(std::sync::atomic::Ordering::Relaxed) {
                                break;
                            }
                            // Round granularity for the fleet is one guess;
                            // the evaluator below also checks per
                            // semi-naive round within a guess.
                            if let Err(reason) = gov.check() {
                                let mut slot = interrupted.lock().expect("interrupt slot poisoned");
                                slot.get_or_insert(reason);
                                break;
                            }
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= guesses.len() {
                                break;
                            }
                            let (prog, goal) = mk.program(&guesses[i], target);
                            // Guess programs share rule lists; the cache
                            // hands every worker the same plan after the
                            // first computes it.
                            let plan = cache.plan(&prog);
                            // Round events stay deterministic only when a
                            // single guess runs (the fleet races workers,
                            // so multi-guess schedules are timing-bound).
                            let db = Evaluator::with_plan(&prog, plan)
                                .with_recorder(rec.clone())
                                .with_events(n_guesses == 1)
                                .with_threads(eval_threads)
                                .with_governor(gov.clone())
                                .run_until(Some(&goal));
                            let won = db.contains(&goal);
                            if let Some(reason) = db.interrupted() {
                                // The partial database is a sound under-
                                // approximation: "goal not derived" proves
                                // nothing for this guess.
                                let mut slot = interrupted.lock().expect("interrupt slot poisoned");
                                slot.get_or_insert(reason);
                                if !won {
                                    break;
                                }
                            }
                            local.push((i, prog.rules().len(), db.len(), won));
                            if won {
                                found.store(true, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("guess worker panicked"))
                .collect()
        });
        let mut out = FleetOutcome {
            rules: 0,
            atoms: 0,
            winner: None,
            interrupted: interrupted.into_inner().expect("interrupt slot poisoned"),
        };
        for &(i, rules, atoms, won) in &records {
            out.rules = out.rules.max(rules);
            out.atoms = out.atoms.max(atoms);
            if won {
                out.winner = Some(out.winner.map_or(i, |w: usize| w.min(i)));
            }
        }
        if rec.is_enabled() {
            // Which guesses got evaluated (and so the maxima, and even the
            // winning index when several guesses win) depends on worker
            // timing — everything but the guess count is volatile.
            let mut vol: Vec<(&str, u64)> = vec![
                ("rules_max", out.rules as u64),
                ("atoms_max", out.atoms as u64),
            ];
            if let Some(w) = out.winner {
                vol.push(("winner", w as u64));
            }
            rec.event_with("fleet", &[("n_guesses", n_guesses.into())], &vol);
        }
        out
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
        // The makeP template build and the guess enumeration (§4.1,
        // Lemma 4.3) are the `guess` phase.
        let phases = PhaseTimer::new(rec);
        let guess_phase = phases.start(Phase::Guess);
        let mk = match MakeP::new(
            &self.goal.system,
            self.budget.clone(),
            self.options.makep_limits,
        ) {
            Ok(mk) => mk.with_recorder(rec.clone()),
            Err(e) => return unknown(format!("makeP not applicable: {e}")),
        };
        let guesses = match mk.guesses() {
            Ok(g) => g,
            Err(e) => return unknown(format!("guess enumeration failed: {e}")),
        };
        drop(guess_phase);
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
        if let Some(wi) = fleet.winner {
            verdict = Verdict::Unsafe;
            // Lemma 4.6: re-run only the winning guess with provenance on
            // and read a bounded-cache schedule off its derivation,
            // counting intensional atoms only; the schedule is certified
            // under ⊢ₖ and cross-checked through the Lemma 4.2
            // cache→linear translation.
            let (prog, goal) = mk.program(&guesses[wi], target);
            let plan = plan_cache.plan(&prog);
            let _replay = phases.start(Phase::WitnessReplay);
            match witness::extract(&prog, &goal, rec, self.options.threads, Some(plan)) {
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
            .with_threads(self.options.threads)
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
