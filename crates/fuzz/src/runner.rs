//! The fuzz loop: deterministic case generation, oracle checking,
//! shrinking of failures, corpus persistence, and a summary.
//!
//! Determinism contract: the set of cases a run executes is a pure
//! function of `(oracle, seed, budget)`. A `--seconds` budget is
//! converted to a case count via the oracle's calibrated
//! [`cases_per_second`](crate::oracle::Oracle::cases_per_second) rate
//! rather than a wall clock, so repeating a run replays exactly the same
//! cases and prints exactly the same summary — wall-clock time appears
//! only in the JSON report's `duration_us`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::json::ObjWriter;
use parra_obs::Recorder;
use parra_program::pretty;
use parra_program::system::ParamSystem;

use crate::corpus;
use crate::gen::SystemGen;
use crate::oracle::{Oracle, OracleOutcome};
use crate::shrink::{system_size, ShrinkResult, Shrinker};

/// How much fuzzing to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzBudget {
    /// Exactly this many cases.
    Cases(u64),
    /// A deterministic case target of `seconds ×` the oracle's calibrated
    /// cases/second rate.
    Seconds(u64),
}

impl FuzzBudget {
    /// The concrete case count for `oracle`.
    pub fn cases(self, oracle: &dyn Oracle) -> u64 {
        match self {
            FuzzBudget::Cases(n) => n,
            FuzzBudget::Seconds(s) => s.saturating_mul(oracle.cases_per_second()),
        }
    }
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; per-case seeds are derived from it.
    pub seed: u64,
    /// How many cases to run.
    pub budget: FuzzBudget,
    /// Save minimized failures into this directory as `.ra` files.
    pub corpus_dir: Option<PathBuf>,
    /// Wall-clock budget for one [`run`], anchored when the run is
    /// *admitted* (enters [`run`]), not when this config is built. A
    /// config may be constructed long before — and reused across —
    /// multiple oracle runs (the CLI loops one config over every
    /// `--oracle`; a daemon holds one for its lifetime), so an
    /// `Instant`-anchored deadline here would silently shrink the window
    /// of every run after the first.
    pub deadline: Option<Duration>,
    /// Resource governor checked between cases (cancellation, memory —
    /// and any deadline the *caller* anchored itself). An exhausted
    /// budget stops the run early with [`FuzzSummary::interrupted`] set;
    /// the cases that did complete are still a deterministic prefix of
    /// the full run.
    pub governor: ResourceBudget,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            budget: FuzzBudget::Seconds(1),
            corpus_dir: None,
            deadline: None,
            governor: ResourceBudget::unlimited(),
        }
    }
}

/// One oracle failure, minimized.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The per-case seed that produced the failing system.
    pub seed: u64,
    /// The oracle's description of the violation (on the *original*
    /// system).
    pub message: String,
    /// The minimized system.
    pub minimized: ParamSystem,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
    /// Size metric of the minimized system (see
    /// [`system_size`]).
    pub minimized_size: usize,
    /// Where the minimized system was saved, when a corpus directory was
    /// configured and the write succeeded.
    pub saved_to: Option<PathBuf>,
}

/// The result of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// The oracle that ran.
    pub oracle: String,
    /// The master seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Cases where the oracle passed.
    pub passed: u64,
    /// Cases outside the oracle's preconditions.
    pub skipped: u64,
    /// Minimized failures (empty on a healthy build).
    pub failures: Vec<Failure>,
    /// Total accepted shrink steps across all failures.
    pub shrink_steps: u64,
    /// Wall-clock duration (non-deterministic; excluded from
    /// [`FuzzSummary::render`]).
    pub duration_us: u64,
    /// Set when the run stopped early because the configured
    /// [`ResourceBudget`] was exhausted. Like `duration_us` this is
    /// wall-clock-dependent and excluded from [`FuzzSummary::render`].
    pub interrupted: Option<InterruptReason>,
}

impl FuzzSummary {
    /// The deterministic one-line summary (no wall-clock fields): two runs
    /// with the same oracle, seed, and budget render identically.
    pub fn render(&self) -> String {
        format!(
            "fuzz oracle={} seed={} cases={} passed={} skipped={} failures={} shrink_steps={}",
            self.oracle,
            self.seed,
            self.cases,
            self.passed,
            self.skipped,
            self.failures.len(),
            self.shrink_steps
        )
    }

    /// The full JSON report (includes `duration_us` and per-failure
    /// details).
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str_field("oracle", &self.oracle);
        w.num_field("seed", self.seed);
        w.num_field("cases", self.cases);
        w.num_field("passed", self.passed);
        w.num_field("skipped", self.skipped);
        w.num_field("failures", self.failures.len() as u64);
        w.num_field("shrink_steps", self.shrink_steps);
        w.num_field("duration_us", self.duration_us);
        match self.interrupted {
            Some(r) => w.str_field("interrupted", r.as_str()),
            None => w.raw_field("interrupted", "null"),
        }
        let details: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                let mut d = ObjWriter::new();
                d.num_field("seed", f.seed);
                d.str_field("message", &f.message);
                d.num_field("shrink_steps", f.shrink_steps as u64);
                d.num_field("minimized_size", f.minimized_size as u64);
                match &f.saved_to {
                    Some(p) => d.str_field("saved_to", &p.display().to_string()),
                    None => d.raw_field("saved_to", "null"),
                }
                d.str_field("minimized", &pretty::system_to_string(&f.minimized));
                d.finish()
            })
            .collect();
        w.raw_field("failure_details", &format!("[{}]", details.join(",")));
        w.finish()
    }
}

/// Runs `oracle` over its generator family. Counters land under
/// `fuzz/…` on `rec`; pass [`Recorder::disabled`] to opt out.
pub fn run(oracle: &dyn Oracle, cfg: &FuzzConfig, rec: &Recorder) -> FuzzSummary {
    let start = Instant::now();
    // The run's wall-clock window opens now, at admission — not when the
    // config was built (see [`FuzzConfig::deadline`]).
    let governor = match cfg.deadline {
        Some(d) => cfg.governor.clone().with_deadline_at(start + d),
        None => cfg.governor.clone(),
    };
    let target = cfg.budget.cases(oracle);
    let gen = SystemGen::new(oracle.gen_config());
    let cases_ctr = rec.counter("fuzz/cases");
    let skipped_ctr = rec.counter("fuzz/skipped");
    let failures_ctr = rec.counter("fuzz/failures");
    let shrink_ctr = rec.counter("fuzz/shrink_steps");

    let mut summary = FuzzSummary {
        oracle: oracle.name().to_string(),
        seed: cfg.seed,
        cases: 0,
        passed: 0,
        skipped: 0,
        failures: Vec::new(),
        shrink_steps: 0,
        duration_us: 0,
        interrupted: None,
    };
    // Per-case seeds are sequential from the master seed (splitmix64 in
    // the generator already decorrelates them), so a failure on case seed
    // `s` replays exactly with `--seed s --cases 1`.
    for i in 0..target {
        if let Err(reason) = governor.check() {
            summary.interrupted = Some(reason);
            rec.counter(&format!("fuzz/interrupted_{reason}")).incr();
            break;
        }
        let case_seed = cfg.seed.wrapping_add(i);
        let case = gen.case(case_seed);
        summary.cases += 1;
        cases_ctr.incr();
        match oracle.check(&case.sys) {
            OracleOutcome::Pass => summary.passed += 1,
            OracleOutcome::Skip(_) => {
                summary.skipped += 1;
                skipped_ctr.incr();
            }
            OracleOutcome::Fail(message) => {
                failures_ctr.incr();
                let shrunk = Shrinker::for_oracle(oracle).shrink(&case.sys);
                summary.shrink_steps += shrunk.steps as u64;
                shrink_ctr.add(shrunk.steps as u64);
                // One flight-recorder event per failing case (passing
                // cases stay silent to bound log volume). Cases run
                // sequentially from a seeded generator, so this stream is
                // deterministic for a given (oracle, seed, budget).
                if rec.is_enabled() {
                    rec.event(
                        "fuzz_fail",
                        &[
                            ("oracle", oracle.name().into()),
                            ("seed", case_seed.into()),
                            ("case", i.into()),
                            ("shrink_steps", shrunk.steps.into()),
                            ("minimized_size", system_size(&shrunk.sys).into()),
                        ],
                    );
                }
                let saved_to = cfg.corpus_dir.as_ref().and_then(|dir| {
                    corpus::save(dir, oracle.name(), case_seed, &message, &shrunk.sys).ok()
                });
                summary.failures.push(Failure {
                    seed: case_seed,
                    message,
                    minimized_size: system_size(&shrunk.sys),
                    minimized: shrunk.sys,
                    shrink_steps: shrunk.steps,
                    saved_to,
                });
            }
        }
    }
    summary.duration_us = start.elapsed().as_micros() as u64;
    if rec.is_enabled() {
        rec.event_with(
            "fuzz_summary",
            &[
                ("oracle", summary.oracle.as_str().into()),
                ("seed", summary.seed.into()),
                ("cases", summary.cases.into()),
                ("passed", summary.passed.into()),
                ("skipped", summary.skipped.into()),
                ("failures", summary.failures.len().into()),
                ("shrink_steps", summary.shrink_steps.into()),
            ],
            &[("duration_us", summary.duration_us)],
        );
    }
    summary
}

/// The outcome of `parra fuzz --minimize FILE`.
#[derive(Debug, Clone)]
pub enum MinimizeOutcome {
    /// The oracle passes (or skips) on the input; nothing to minimize.
    NotFailing(OracleOutcome),
    /// The input fails the oracle; here is the minimized reproduction.
    Minimized {
        /// The oracle's message on the original input.
        message: String,
        /// The shrink result.
        result: Box<ShrinkResult>,
    },
}

/// Minimizes one externally supplied system against `oracle`.
pub fn minimize(oracle: &dyn Oracle, sys: &ParamSystem) -> MinimizeOutcome {
    match oracle.check(sys) {
        OracleOutcome::Fail(message) => MinimizeOutcome::Minimized {
            message,
            result: Box::new(Shrinker::for_oracle(oracle).shrink(sys)),
        },
        other => MinimizeOutcome::NotFailing(other),
    }
}

/// Replays every corpus entry in `dir` against all oracles whose name
/// prefixes the file name (falling back to all oracles for files without
/// a recognized prefix). Returns the failures as `(path, oracle,
/// message)` triples; an empty vector means the corpus is clean.
///
/// # Errors
///
/// Propagates corpus-loading errors from [`corpus::load_dir`].
pub fn replay_corpus(
    dir: &std::path::Path,
) -> std::io::Result<Vec<(PathBuf, &'static str, String)>> {
    let entries = corpus::load_dir(dir)?;
    let oracles = crate::oracle::all_oracles();
    let mut failures = Vec::new();
    for entry in entries {
        let stem = entry
            .path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("");
        let matching: Vec<&Box<dyn Oracle>> = oracles
            .iter()
            .filter(|o| stem.starts_with(o.name()))
            .collect();
        let targets: Vec<&Box<dyn Oracle>> = if matching.is_empty() {
            oracles.iter().collect()
        } else {
            matching
        };
        for o in targets {
            if let OracleOutcome::Fail(message) = o.check(&entry.sys) {
                failures.push((entry.path.clone(), o.name(), message));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;
    use crate::oracle::RoundTrip;

    /// An oracle that fails whenever the first dis thread contains a CAS —
    /// frequent enough in the agreement family to exercise the failure
    /// path deterministically.
    struct FailsOnCas;

    impl Oracle for FailsOnCas {
        fn name(&self) -> &'static str {
            "fails-on-cas"
        }
        fn gen_config(&self) -> GenConfig {
            GenConfig::agreement()
        }
        fn cases_per_second(&self) -> u64 {
            1000
        }
        fn check(&self, sys: &ParamSystem) -> OracleOutcome {
            if sys.dis.iter().any(|p| p.com().has_cas()) {
                OracleOutcome::Fail("dis uses cas".into())
            } else {
                OracleOutcome::Pass
            }
        }
    }

    #[test]
    fn same_seed_same_summary() {
        let cfg = FuzzConfig {
            seed: 7,
            budget: FuzzBudget::Cases(40),
            ..Default::default()
        };
        let a = run(&RoundTrip, &cfg, &Recorder::disabled());
        let b = run(&RoundTrip, &cfg, &Recorder::disabled());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.cases, 40);
        assert_eq!(a.failures.len(), 0, "round-trip failures: {:?}", a.failures);
    }

    #[test]
    fn seconds_budget_is_a_deterministic_case_target() {
        let o = FailsOnCas;
        assert_eq!(FuzzBudget::Seconds(3).cases(&o), 3000);
        assert_eq!(FuzzBudget::Cases(17).cases(&o), 17);
    }

    #[test]
    fn failures_are_shrunk_and_counted() {
        let cfg = FuzzConfig {
            seed: 1,
            budget: FuzzBudget::Cases(30),
            ..Default::default()
        };
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let summary = run(&FailsOnCas, &cfg, &rec);
        assert!(!summary.failures.is_empty(), "no CAS case in 30 seeds");
        assert_eq!(
            summary.cases,
            summary.passed + summary.skipped + summary.failures.len() as u64
        );
        for f in &summary.failures {
            // The minimal system still failing `FailsOnCas` is a single
            // dis thread holding one `cas`; dom 2; empty env.
            assert!(f.minimized.dis.iter().any(|p| p.com().has_cas()));
            assert!(
                f.minimized_size <= 3,
                "under-shrunk failure ({}): {}",
                f.minimized_size,
                pretty::system_to_string(&f.minimized)
            );
        }
        let json = summary.to_json();
        assert!(json.contains("\"failures\":"), "{json}");
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("fuzz/cases").copied(), Some(30));
    }

    #[test]
    fn exhausted_deadline_stops_the_run_early() {
        let cfg = FuzzConfig {
            seed: 0,
            budget: FuzzBudget::Cases(1000),
            governor: ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        let summary = run(&RoundTrip, &cfg, &Recorder::disabled());
        assert_eq!(summary.interrupted, Some(InterruptReason::Deadline));
        assert_eq!(
            summary.cases, 0,
            "no case should start under a spent budget"
        );
        assert!(summary.to_json().contains("\"interrupted\":\"deadline\""));
    }

    #[test]
    fn deadline_anchors_at_run_admission_not_config_build() {
        // Regression: `--timeout` used to be baked into an
        // `Instant`-anchored governor at flag-parse time and shared
        // across every oracle run, so time spent *before* a run — other
        // oracles, or a daemon idling — ate its budget. A config built
        // long before the run must still grant the full window.
        let cfg = FuzzConfig {
            seed: 7,
            budget: FuzzBudget::Cases(5),
            deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        };
        // Simulate the gap between config construction and admission
        // outliving the deadline itself.
        std::thread::sleep(Duration::from_millis(90));
        let summary = run(&RoundTrip, &cfg, &Recorder::disabled());
        assert_eq!(
            summary.interrupted, None,
            "deadline must anchor at admission, not config build"
        );
        assert_eq!(summary.cases, 5);
    }

    #[test]
    fn spent_admission_deadline_still_interrupts() {
        let cfg = FuzzConfig {
            seed: 0,
            budget: FuzzBudget::Cases(1000),
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let summary = run(&RoundTrip, &cfg, &Recorder::disabled());
        assert_eq!(summary.interrupted, Some(InterruptReason::Deadline));
        assert_eq!(summary.cases, 0);
    }

    #[test]
    fn minimize_reports_not_failing_for_healthy_input() {
        let gen = SystemGen::new(GenConfig::agreement());
        let sys = gen.case(3).sys;
        match minimize(&RoundTrip, &sys) {
            MinimizeOutcome::NotFailing(OracleOutcome::Pass) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
