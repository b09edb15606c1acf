//! The verifier facade: classification, goal transformation, engine
//! orchestration, statistics, and the §4.3 thread-count bound.
//!
//! The engine-specific decision procedures live in [`crate::engine`];
//! this module owns the shared plumbing every run goes through —
//! dispatch on [`EngineId`], recorder scoping, resource governance,
//! run-scoped cancellation, panic containment, and the per-run
//! [`VerificationResult`].

use crate::engine::CachedMakeP;
use crate::makep::{MakePError, MakePLimits};
use parra_limits::{CancelToken, InterruptReason, ResourceBudget};
use parra_obs::json::ObjWriter;
use parra_obs::{GaugeSnapshot, HistSnapshot, Phase, PhaseTimer, Recorder};
use parra_program::classify::{Complexity, SystemClass};
use parra_program::system::ParamSystem;
use parra_program::transform;
use parra_ra::explore::{ExploreLimits, ExploreOutcome, Explorer, Target};
use parra_ra::Instance;
use parra_simplified::reach::ReachLimits;
use parra_simplified::state::Budget;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which decision procedure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineId {
    /// The direct search on the simplified semantics (Section 3) —
    /// the default: exact for the decidable class.
    SimplifiedReach,
    /// The `makeP` Datalog encoding (Section 4): enumerate guesses and
    /// evaluate each guess's query. Exact for the decidable class. On
    /// `Unsafe` the winning guess's derivation becomes a Lemma 4.6 cache
    /// schedule, replayed under the `⊢ₖ` Cache semantics and (inside the
    /// ≤2-atom-body fragment) cross-checked through the Lemma 4.2
    /// cache→linear translation; the result carries the certification
    /// notes, the cache-schedule peak, and an inference-step witness.
    CacheDatalog,
    /// Bounded concrete-RA exploration of instances — an
    /// under-approximation: can prove `Unsafe`, never `Safe`.
    BoundedConcrete,
}

impl EngineId {
    /// Every engine, in the canonical portfolio order (exact engines
    /// first). This is the `--all-engines` selection and the default
    /// `--race` field.
    pub const ALL: [EngineId; 3] = [
        EngineId::SimplifiedReach,
        EngineId::CacheDatalog,
        EngineId::BoundedConcrete,
    ];

    /// Resolves one engine name: the wire name (`cache-datalog`), the
    /// CLI short name (`datalog`), or a legacy name.
    pub fn from_name(name: &str) -> Option<EngineId> {
        match name {
            "simplified-reach" | "simplified" => Some(EngineId::SimplifiedReach),
            "cache-datalog" | "datalog" => Some(EngineId::CacheDatalog),
            // The former certificate-route engine, folded into
            // cache-datalog (which reports the same notes and witness).
            // Campaign stores hash this label into their keys and v1
            // serve clients may still send it.
            "linear-datalog" | "linear" => Some(EngineId::CacheDatalog),
            "bounded-concrete" | "concrete" => Some(EngineId::BoundedConcrete),
            _ => None,
        }
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineId::SimplifiedReach => "simplified-reach",
            EngineId::CacheDatalog => "cache-datalog",
            EngineId::BoundedConcrete => "bounded-concrete",
        };
        f.write_str(s)
    }
}

/// The engine-selection label stored in campaign manifests and keys and
/// used as a serve request's `engine`: one engine's name, `all-engines`,
/// or `race`. Inverted by [`selection_from_label`].
pub fn selection_label(engines: &[EngineId], race: bool) -> String {
    match engines {
        _ if race => "race".to_string(),
        [one] => one.to_string(),
        _ => "all-engines".to_string(),
    }
}

/// Parses an engine-selection label into the engines to run and whether
/// to race them — the one parser behind the CLI, campaign resume, and
/// serve requests.
///
/// # Errors
///
/// An unknown label.
pub fn selection_from_label(label: &str) -> Result<(Vec<EngineId>, bool), String> {
    match label {
        "race" => Ok((EngineId::ALL.to_vec(), true)),
        "all-engines" => Ok((EngineId::ALL.to_vec(), false)),
        name => EngineId::from_name(name)
            .map(|e| (vec![e], false))
            .ok_or_else(|| {
                format!(
                    "unknown engine label `{name}` (expected an engine name, all-engines, or race)"
                )
            }),
    }
}

/// The verdict of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No instance of any size reaches an assertion violation.
    Safe,
    /// Some instance reaches a violation.
    Unsafe,
    /// The engine could not decide (bounds hit, or an inherently
    /// incomplete engine found nothing).
    Unknown,
    /// The resource governor stopped the run (deadline, memory budget, or
    /// cancellation) before a verdict. Semantically a flavor of
    /// [`Unknown`](Verdict::Unknown) — it aggregates identically and maps
    /// to the same exit code — but it carries the reason and signals that
    /// the partial statistics describe an unfinished search.
    Interrupted(InterruptReason),
}

impl Verdict {
    /// Whether this verdict decides the system (`Safe` or `Unsafe`).
    pub fn is_decided(self) -> bool {
        matches!(self, Verdict::Safe | Verdict::Unsafe)
    }

    /// The interruption reason, when the run was cut short.
    pub fn interrupt_reason(self) -> Option<InterruptReason> {
        match self {
            Verdict::Interrupted(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => f.write_str("SAFE"),
            Verdict::Unsafe => f.write_str("UNSAFE"),
            Verdict::Unknown => f.write_str("UNKNOWN"),
            Verdict::Interrupted(r) => write!(f, "INTERRUPTED({r})"),
        }
    }
}

/// Statistics of a run (fields are engine-dependent; unused ones are 0).
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Saturated abstract states (SimplifiedReach) or canonical concrete
    /// states (BoundedConcrete).
    pub states: usize,
    /// Pre-closure worlds explored (SimplifiedReach).
    pub worlds: usize,
    /// Peak env-message set size (SimplifiedReach).
    pub peak_env_msgs: usize,
    /// makeP guesses evaluated (CacheDatalog).
    pub guesses: usize,
    /// Ground atoms derived in the successful (or largest) Datalog run.
    pub datalog_atoms: usize,
    /// Rules in the emitted Datalog program (CacheDatalog).
    pub datalog_rules: usize,
    /// Cache-schedule peak over intensional atoms (CacheDatalog, unsafe
    /// runs) — the empirical Lemma 4.4 number.
    pub cache_peak: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// The result of one engine run: the verdict, the flat [`Stats`], every
/// metric the engine emitted through its [`Recorder`] scope, a
/// cache-occupancy time series (CacheDatalog), and the witness and notes.
/// Renders to JSON with [`VerificationResult::to_json`] (the CLI's
/// `--json`, and each entry of a batch line's or serve response's
/// `reports`).
#[derive(Debug, Clone)]
pub struct VerificationResult {
    /// The verdict.
    pub verdict: Verdict,
    /// The engine that produced it.
    pub engine: EngineId,
    /// Run statistics.
    pub stats: Stats,
    /// For `Unsafe` via [`EngineId::SimplifiedReach`]: the §4.3 bound on the
    /// number of `env` threads sufficient to exhibit the bug.
    pub env_thread_bound: Option<u64>,
    /// For `Unsafe`: a human-readable witness — the dis steps between
    /// saturations ([`EngineId::SimplifiedReach`]), up to 64 `infer …`
    /// steps of the certified cache schedule ([`EngineId::CacheDatalog`]),
    /// or the concrete interleaving ([`EngineId::BoundedConcrete`]).
    pub witness_lines: Vec<String>,
    /// Notes (approximations applied, limits hit).
    pub notes: Vec<String>,
    /// Counter deltas attributed to this run (name without the engine
    /// prefix, value). `phase/…_us` counters are split out into
    /// [`phases`](VerificationResult::phases).
    pub counters: Vec<(String, u64)>,
    /// Phase-attributed time, `(phase name, µs)` — from the engines'
    /// [`PhaseTimer`]s. The first run of a verifier also carries its
    /// `parse` and `prepare` phases, which fall before the run's
    /// duration starts.
    pub phases: Vec<(String, u64)>,
    /// Gauges under this engine's scope (name, snapshot).
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histograms under this engine's scope (name, snapshot).
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Running intensional-cache occupancy after each schedule step of the
    /// successful guess (CacheDatalog, unsafe runs) — the Lemma 4.6 series.
    pub cache_occupancy: Vec<u64>,
    /// The concrete-RA interleaving reproducing an `Unsafe` verdict, when
    /// concretization was requested and succeeded.
    pub concrete: Option<ConcreteWitness>,
}

impl VerificationResult {
    /// A result of `engine` with `verdict` and nothing else recorded yet.
    pub(crate) fn new(engine: EngineId, verdict: Verdict) -> VerificationResult {
        VerificationResult {
            verdict,
            engine,
            stats: Stats::default(),
            env_thread_bound: None,
            witness_lines: Vec::new(),
            notes: Vec::new(),
            counters: Vec::new(),
            phases: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            cache_occupancy: Vec::new(),
            concrete: None,
        }
    }

    /// Renders the result as a single JSON object. The `interrupted`
    /// field repeats the reason of an [`Verdict::Interrupted`] verdict
    /// for JSON consumers.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str_field("engine", &self.engine.to_string());
        w.str_field("verdict", &self.verdict.to_string());
        w.num_field("duration_us", self.stats.duration.as_micros() as u64);
        let mut stats = ObjWriter::new();
        stats.num_field("states", self.stats.states as u64);
        stats.num_field("worlds", self.stats.worlds as u64);
        stats.num_field("peak_env_msgs", self.stats.peak_env_msgs as u64);
        stats.num_field("guesses", self.stats.guesses as u64);
        stats.num_field("datalog_atoms", self.stats.datalog_atoms as u64);
        stats.num_field("datalog_rules", self.stats.datalog_rules as u64);
        stats.num_field("cache_peak", self.stats.cache_peak as u64);
        stats.num_field("duration_us", self.stats.duration.as_micros() as u64);
        w.raw_field("stats", &stats.finish());
        let mut counters = ObjWriter::new();
        for (name, v) in &self.counters {
            counters.num_field(name, *v);
        }
        w.raw_field("counters", &counters.finish());
        let mut phases = ObjWriter::new();
        for (name, v) in &self.phases {
            phases.num_field(name, *v);
        }
        w.raw_field("phases", &phases.finish());
        let mut gauges = ObjWriter::new();
        for (name, g) in &self.gauges {
            let mut one = ObjWriter::new();
            one.num_field("value", g.value);
            one.num_field("peak", g.peak);
            gauges.raw_field(name, &one.finish());
        }
        w.raw_field("gauges", &gauges.finish());
        let mut hists = ObjWriter::new();
        for (name, h) in &self.histograms {
            let mut one = ObjWriter::new();
            one.num_field("count", h.count);
            one.num_field("sum", h.sum);
            one.num_field("max", h.max);
            one.raw_field("mean", &format!("{:.3}", h.mean()));
            one.num_field("p50", h.p50());
            one.num_field("p90", h.p90());
            one.num_field("p99", h.p99());
            hists.raw_field(name, &one.finish());
        }
        w.raw_field("histograms", &hists.finish());
        w.num_arr_field("cache_occupancy", &self.cache_occupancy);
        match self.env_thread_bound {
            Some(b) => w.num_field("env_thread_bound", b),
            None => w.raw_field("env_thread_bound", "null"),
        }
        w.str_arr_field("witness", &self.witness_lines);
        w.str_arr_field("notes", &self.notes);
        match self.verdict.interrupt_reason() {
            Some(r) => w.str_field("interrupted", r.as_str()),
            None => w.raw_field("interrupted", "null"),
        }
        match &self.concrete {
            Some(c) => {
                let mut one = ObjWriter::new();
                one.num_field("n_env", c.n_env as u64);
                one.str_arr_field("steps", &c.steps);
                w.raw_field("concrete_witness", &one.finish());
            }
            None => w.raw_field("concrete_witness", "null"),
        }
        w.finish()
    }
}

/// Options controlling verification.
#[derive(Debug, Clone)]
pub struct VerifierOptions {
    /// Unroll `dis` loops to this depth before verification (the
    /// bounded-model-checking usage of Section 4); `None` requires `dis`
    /// to be loop-free already.
    pub unroll_dis: Option<usize>,
    /// Limits for the simplified-semantics search.
    pub reach_limits: ReachLimits,
    /// Limits for makeP.
    pub makep_limits: MakePLimits,
    /// Max `env` threads and exploration limits for the concrete baseline.
    pub concrete_max_env: usize,
    /// Concrete exploration limits.
    pub concrete_limits: ExploreLimits,
    /// Ignored: every engine runs on the calling thread. Kept for callers
    /// that still set a thread count.
    pub threads: usize,
    /// Wall-clock budget per engine run (each engine under `--all-engines`
    /// gets the full timeout); `None` is unlimited. An exhausted budget
    /// yields [`Verdict::Interrupted`] with partial statistics.
    pub timeout: Option<Duration>,
    /// Absolute wall-clock deadline, taking precedence over
    /// [`timeout`](VerifierOptions::timeout) when set. Long-lived hosts
    /// (`parra serve`) anchor a per-request timeout at *admission* —
    /// `Instant::now() + timeout` when the request is accepted — so the
    /// budget window cannot silently shrink between admission and the
    /// engine actually starting, and every engine of an `--all-engines`
    /// request shares one request-level envelope.
    pub deadline_at: Option<Instant>,
    /// Approximate live-heap budget in bytes per engine run; `None` is
    /// unlimited. Enforced only when the process installed
    /// `parra_limits::TrackingAlloc` as its global allocator (the `parra`
    /// binary does).
    pub memory_budget: Option<usize>,
    /// Cooperative cancellation shared by every engine run of this
    /// verifier.
    pub cancel: CancelToken,
    /// Test hook: panic inside the named engine's run, to exercise
    /// [`Verifier::run_isolated`]'s panic containment without an
    /// artificially broken system.
    pub fail_point_panic: Option<EngineId>,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            unroll_dis: None,
            reach_limits: ReachLimits::default(),
            makep_limits: MakePLimits::default(),
            concrete_max_env: 4,
            concrete_limits: ExploreLimits::default(),
            threads: 1,
            timeout: None,
            deadline_at: None,
            memory_budget: None,
            cancel: CancelToken::new(),
            fail_point_panic: None,
        }
    }
}

impl VerifierOptions {
    /// A stable fingerprint of the *verdict-relevant* options — the part
    /// of this struct that can change what a completed run answers, as
    /// opposed to whether it completes:
    ///
    /// * included: unroll depth and every engine search limit (a larger
    ///   limit can turn `Unknown` into `Safe`/`Unsafe`, so records taken
    ///   under different limits are different experiments);
    /// * excluded: the ignored `threads`, `timeout`/`deadline_at`/
    ///   `memory_budget` (exhaustion degrades to `Interrupted`, which
    ///   campaign resumes re-run anyway), and the `cancel`/
    ///   `fail_point_panic` plumbing.
    ///
    /// The campaign layer keys its experiment store on this string; its
    /// format is stable within one store version.
    pub fn fingerprint(&self) -> String {
        format!(
            "unroll={:?};reach={},{},{};makep={},{};concrete={},{},{}",
            self.unroll_dis,
            self.reach_limits.max_states,
            self.reach_limits.max_env_size,
            self.reach_limits.max_worlds,
            self.makep_limits.max_guesses,
            self.makep_limits.max_env_states,
            self.concrete_max_env,
            self.concrete_limits.max_depth,
            self.concrete_limits.max_states,
        )
    }
}

/// Errors preparing a verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierError {
    /// The system is outside every supported class (env uses CAS).
    Undecidable(Complexity),
    /// `dis` threads have loops and no unroll bound was given.
    NeedsUnrolling,
    /// makeP rejected the system.
    MakeP(MakePError),
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::Undecidable(c) => write!(
                f,
                "system class is {c}: parameterized safety verification is not \
                 supported (Theorem 1.1)"
            ),
            VerifierError::NeedsUnrolling => write!(
                f,
                "dis threads have loops; pass VerifierOptions::unroll_dis for \
                 bounded model checking"
            ),
            VerifierError::MakeP(e) => write!(f, "makeP: {e}"),
        }
    }
}

impl std::error::Error for VerifierError {}

/// A system read by [`Verifier::parse_timed`], with the time that took.
#[derive(Debug, Clone)]
pub struct ParsedSystem {
    /// The system.
    pub system: ParamSystem,
    /// µs spent parsing it, claimed as the `parse` phase by the first
    /// report of the verifier prepared from it.
    pub parse_us: u64,
}

/// The verifier: owns the (goal-transformed) system and dispatches engines.
#[derive(Debug, Clone)]
pub struct Verifier {
    original_class: SystemClass,
    pub(crate) goal: transform::GoalSystem,
    pub(crate) budget: Budget,
    pub(crate) options: VerifierOptions,
    notes: Vec<String>,
    pub(crate) rec: Recorder,
    /// Time spent parsing the input ([`Verifier::parse_timed`]; zero
    /// when the caller parsed) and preparing it
    /// (classify/unroll/goal-transform). Both are shared by every engine
    /// run of this verifier, so they are attributed as the `parse` and
    /// `prepare` phases exactly once — to the first report — rather than
    /// re-counted per run.
    parse_us: u64,
    prepare_us: u64,
    /// Whether some run already claimed the preparation phases. Shared
    /// across clones: a cloned verifier reuses the same preparation work.
    prep_claimed: Arc<AtomicBool>,
    /// The makeP template, guesses and fleet join plans, built by the
    /// first `cache-datalog` run and shared by every later run and clone.
    pub(crate) makep: Arc<Mutex<Option<CachedMakeP>>>,
}

impl Verifier {
    /// Prepares a verifier: classifies the system, unrolls `dis` loops if
    /// requested, and applies the `assert false ↦ x# := d#` goal
    /// transformation (Section 4.1).
    ///
    /// # Errors
    ///
    /// See [`VerifierError`].
    pub fn new(sys: &ParamSystem, options: VerifierOptions) -> Result<Verifier, VerifierError> {
        Verifier::new_with_recorder(sys, options, Recorder::disabled())
    }

    /// [`Verifier::new`] with an observability recorder: preparation is
    /// timed as the `prepare` phase, and every engine run records its
    /// metrics under a `{engine}/` scope.
    pub fn new_with_recorder(
        sys: &ParamSystem,
        options: VerifierOptions,
        rec: Recorder,
    ) -> Result<Verifier, VerifierError> {
        let phase_timer = PhaseTimer::new(&rec);
        let prepare_guard = phase_timer.start(Phase::Prepare);
        let original_class = SystemClass::of(sys);
        if !original_class.env.nocas {
            return Err(VerifierError::Undecidable(original_class.complexity()));
        }
        let mut notes = Vec::new();
        let sys = if original_class.dis.iter().all(|d| d.acyc) {
            sys.clone()
        } else {
            match options.unroll_dis {
                Some(bound) => {
                    notes.push(format!(
                        "dis loops unrolled to depth {bound}: Safe verdicts are \
                         relative to the unrolling (bounded model checking)"
                    ));
                    transform::unroll_dis(sys, bound)
                }
                None => return Err(VerifierError::NeedsUnrolling),
            }
        };
        let goal = transform::assert_to_goal(&sys);
        let budget = Budget::exact(&goal.system).expect("dis is loop-free after unrolling");
        let prepare_us = prepare_guard.finish();
        Ok(Verifier {
            original_class,
            goal,
            budget,
            options,
            notes,
            rec,
            parse_us: 0,
            prepare_us,
            prep_claimed: Arc::new(AtomicBool::new(false)),
            makep: Arc::default(),
        })
    }

    /// Parses the input with `parse`, timed as the `parse` phase under
    /// `rec` (zero when `rec` is disabled). A host that looks the system
    /// up in a cache before preparing it parses here, and hands the
    /// result to [`Verifier::prepare_parsed`] on a miss.
    ///
    /// # Errors
    ///
    /// `parse`'s error.
    pub fn parse_timed<E>(
        parse: impl FnOnce() -> Result<ParamSystem, E>,
        rec: &Recorder,
    ) -> Result<ParsedSystem, E> {
        let phase_timer = PhaseTimer::new(rec);
        let parse_guard = phase_timer.start(Phase::Parse);
        let system = parse()?;
        Ok(ParsedSystem {
            system,
            parse_us: parse_guard.finish(),
        })
    }

    /// Prepares a verifier ([`Verifier::new_with_recorder`]) from a
    /// system [`Verifier::parse_timed`] read; its first report claims
    /// both the `parse` and the `prepare` phase.
    ///
    /// # Errors
    ///
    /// See [`VerifierError`].
    pub fn prepare_parsed(
        parsed: &ParsedSystem,
        options: VerifierOptions,
        rec: Recorder,
    ) -> Result<Verifier, VerifierError> {
        let mut verifier = Verifier::new_with_recorder(&parsed.system, options, rec)?;
        verifier.parse_us = parsed.parse_us;
        Ok(verifier)
    }

    /// [`Verifier::parse_timed`] then [`Verifier::prepare_parsed`]. This
    /// is the one path by which a front end that reads its own input
    /// gets that input's parse time into a report.
    ///
    /// # Errors
    ///
    /// `parse`'s error, or the [`VerifierError`] as a message.
    pub fn parse_and_prepare(
        parse: impl FnOnce() -> Result<ParamSystem, String>,
        options: VerifierOptions,
        rec: Recorder,
    ) -> Result<Verifier, String> {
        let parsed = Verifier::parse_timed(parse, &rec)?;
        Verifier::prepare_parsed(&parsed, options, rec).map_err(|e| e.to_string())
    }

    /// Replaces the recorder (builder style).
    pub fn with_recorder(mut self, rec: Recorder) -> Verifier {
        self.rec = rec;
        self
    }

    /// A request-scoped clone of this verifier: the prepared system (the
    /// classify/unroll/goal-transform work) is reused, while the options
    /// and recorder are replaced with the new request's. This is the warm
    /// path of a long-lived host: a cache hit skips preparation entirely,
    /// so the clone carries *no* `parse` or `prepare` phase — the shared
    /// `prep_claimed` flag keeps both claimed exactly once across all
    /// clones.
    pub fn rescoped(&self, options: VerifierOptions, rec: Recorder) -> Verifier {
        let mut v = self.clone();
        v.options = options;
        v.rec = rec;
        v
    }

    /// The class of the original system.
    pub fn class(&self) -> &SystemClass {
        &self.original_class
    }

    /// The goal-transformed system the engines run on.
    pub fn goal_system(&self) -> &ParamSystem {
        &self.goal.system
    }

    /// The timestamp budget in use.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The deadline/memory half of a run's resource budget — without a
    /// cancellation token; callers attach a run- or race-scoped child of
    /// [`VerifierOptions::cancel`]. Built fresh per sequential run so
    /// the wall-clock deadline starts when the engine does (under
    /// `--all-engines`, each engine gets the full timeout); built once
    /// per race so `--timeout` bounds the race as a whole.
    pub(crate) fn base_budget(&self) -> ResourceBudget {
        let mut gov = ResourceBudget::unlimited();
        if let Some(at) = self.options.deadline_at {
            // An admission-anchored absolute deadline wins over the
            // relative timeout: the host already fixed the window.
            gov = gov.with_deadline_at(at);
        } else if let Some(t) = self.options.timeout {
            gov = gov.with_deadline(t);
        }
        if let Some(m) = self.options.memory_budget {
            gov = gov.with_memory_limit(m);
        }
        gov
    }

    /// Runs the selected engine.
    ///
    /// Cancellation is scoped to this run: the engine polls a fresh
    /// child of [`VerifierOptions::cancel`], and a cancellation that
    /// interrupted this run is acknowledged (consumed) on the parent
    /// before returning — so the *next* run under the same options
    /// starts armed but not stillborn, instead of every subsequent
    /// engine reporting `Interrupted(cancelled)` forever.
    pub fn run(&self, engine: EngineId) -> VerificationResult {
        let run_cancel = self.options.cancel.child();
        let result = self.run_engine(engine, &self.base_budget(), &run_cancel, &self.rec);
        if result.verdict == Verdict::Interrupted(InterruptReason::Cancelled) {
            self.options.cancel.acknowledge();
        }
        result
    }

    /// Runs `engine`'s body under `budget`, polling `cancel` (callers
    /// pass a child token so cancelling this run never leaks into sibling
    /// runs) and recording into `rec`. The shared instrumentation wraps
    /// every body alike: it scopes the recorder to `{engine}/`, attaches
    /// the cancel token to the budget, emits `run_start`/`run_end`
    /// events, and attributes counter deltas and phase times to the
    /// run's result.
    pub(crate) fn run_engine(
        &self,
        engine: EngineId,
        budget: &ResourceBudget,
        cancel: &CancelToken,
        rec: &Recorder,
    ) -> VerificationResult {
        let start = Instant::now();
        // Metrics for this run land under `{engine}/`; the before/after
        // snapshot delta attributes counters to this run even when the
        // same Verifier runs the same engine repeatedly.
        let scope = rec.scoped(&format!("{engine}/"));
        let before = rec.snapshot();
        scope.event("run_start", &[]);
        let gov = budget.clone().with_cancel(cancel.clone());
        if self.options.fail_point_panic == Some(engine) {
            panic!("fail point: injected panic in {engine}");
        }
        let mut result = match engine {
            EngineId::SimplifiedReach => self.run_simplified(&scope, &gov),
            EngineId::CacheDatalog => self.run_datalog(&scope, &gov),
            EngineId::BoundedConcrete => self.run_concrete(&scope, &gov),
        };
        if let Verdict::Interrupted(reason) = result.verdict {
            scope.counter(&format!("interrupted_{reason}")).incr();
        }
        result.stats.duration = start.elapsed();
        result.notes.extend(self.notes.iter().cloned());

        let after = rec.snapshot();
        let prefix = format!("{engine}/");
        let (phase_counters, counters): (Vec<_>, Vec<_>) = after
            .counter_deltas(&before, &prefix)
            .into_iter()
            .partition(|(n, _)| n.starts_with("phase/"));
        result.counters = counters;
        result.phases = phase_counters
            .into_iter()
            .map(|(n, v)| {
                let name = n
                    .strip_prefix("phase/")
                    .and_then(|r| r.strip_suffix("_us"))
                    .unwrap_or(&n)
                    .to_string();
                (name, v)
            })
            .collect();
        // Preparation is shared by every run of this verifier, so the
        // `parse` and `prepare` phases are claimed by the first run only —
        // re-counting them per engine would inflate aggregate phase
        // breakdowns.
        if !self.prep_claimed.swap(true, Ordering::Relaxed) {
            for (phase, us) in [
                (Phase::Parse, self.parse_us),
                (Phase::Prepare, self.prepare_us),
            ] {
                if us > 0 {
                    result.phases.push((phase.as_str().to_string(), us));
                }
            }
            result.phases.sort();
        }
        result.gauges = after
            .gauges
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(&prefix).map(|n| (n.to_string(), *v)))
            .collect();
        result.histograms = after
            .hists
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(&prefix).map(|n| (n.to_string(), v.clone())))
            .collect();
        if rec.is_enabled() {
            // The run_end event carries the deterministic verdict in
            // `fields`; durations, phase times, and the stats go in
            // `volatile`.
            let stats = &result.stats;
            let mut vol: Vec<(String, u64)> = vec![
                ("duration_us".to_string(), stats.duration.as_micros() as u64),
                ("states".to_string(), stats.states as u64),
                ("worlds".to_string(), stats.worlds as u64),
                ("guesses".to_string(), stats.guesses as u64),
            ];
            for (name, v) in &result.phases {
                vol.push((format!("phase/{name}_us"), *v));
            }
            let vol: Vec<(&str, u64)> = vol.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            scope.event_with(
                "run_end",
                &[("verdict", result.verdict.to_string().into())],
                &vol,
            );
        }
        result
    }

    /// [`Verifier::run`] with panic containment: a panicking engine (a
    /// bug, or the [`VerifierOptions::fail_point_panic`] hook) becomes an
    /// `Unknown` result carrying the panic message as a note, instead of
    /// unwinding through `--all-engines` or `parra batch` and killing the
    /// other runs.
    pub fn run_isolated(&self, engine: EngineId) -> VerificationResult {
        let run_cancel = self.options.cancel.child();
        let result = parra_search::catch_panic(|| {
            self.run_engine(engine, &self.base_budget(), &run_cancel, &self.rec)
        })
        .unwrap_or_else(|msg| self.panicked(engine, &msg));
        if result.verdict == Verdict::Interrupted(InterruptReason::Cancelled) {
            self.options.cancel.acknowledge();
        }
        result
    }

    /// The result of an engine run that panicked with `msg` — shared by
    /// [`Verifier::run_isolated`] and the race: `Unknown` with a
    /// diagnostic note, plus a degraded `run_end` event closing the
    /// `run_start` the panic orphaned, so `parra report` run pairing and
    /// `--check-schema` stay sound even for a crashed engine.
    pub(crate) fn panicked(&self, engine: EngineId, msg: &str) -> VerificationResult {
        let note = format!("engine panicked: {msg}; verdict degraded to UNKNOWN");
        if self.rec.is_enabled() {
            // The panic message may carry addresses or other
            // nondeterminism, so only the fixed marker goes in the
            // deterministic fields; the note has the text.
            self.rec.scoped(&format!("{engine}/")).event_with(
                "run_end",
                &[
                    ("verdict", Verdict::Unknown.to_string().into()),
                    ("panic", 1u64.into()),
                ],
                &[],
            );
        }
        VerificationResult {
            notes: vec![note],
            ..VerificationResult::new(engine, Verdict::Unknown)
        }
    }

    pub(crate) fn trivially_safe(&self, engine: EngineId) -> Option<VerificationResult> {
        if self.goal.had_assert {
            return None;
        }
        Some(VerificationResult {
            notes: vec!["program contains no assertions".into()],
            ..VerificationResult::new(engine, Verdict::Safe)
        })
    }

    /// Concretizes an `Unsafe` verdict: searches concrete-RA instances —
    /// up to the §4.3 thread bound of `result` (capped at `max_env`) —
    /// for an actual interleaving reaching the goal.
    ///
    /// This is the executable half of Theorem 3.4's soundness direction:
    /// an abstract bug replayed as a plain RA execution a user can read.
    /// Returns `None` if the verdict was not `Unsafe`, or if the bounded
    /// search cannot reproduce it within `max_env` threads and the default
    /// exploration limits (a larger instance or deeper search is needed).
    pub fn concretize(
        &self,
        result: &VerificationResult,
        max_env: usize,
    ) -> Option<ConcreteWitness> {
        if result.verdict != Verdict::Unsafe {
            return None;
        }
        let cap = result
            .env_thread_bound
            .map(|b| (b as usize).min(max_env))
            .unwrap_or(max_env);
        let sys = &self.goal.system;
        for n_env in 0..=cap {
            let explorer = Explorer::new(
                Instance::new(sys.clone(), n_env),
                self.options.concrete_limits,
            );
            let report = explorer.run(Target::MessageGenerated(
                self.goal.goal_var,
                self.goal.goal_val,
            ));
            if report.outcome == ExploreOutcome::Unsafe {
                return Some(ConcreteWitness {
                    n_env,
                    steps: report
                        .witness
                        .unwrap_or_default()
                        .into_iter()
                        .map(|s| s.description)
                        .collect(),
                });
            }
        }
        None
    }

    /// [`Verifier::concretize`] with the env-thread cap chosen from the
    /// result itself: the §4.3 bound when the run derived one (clamped to
    /// [`MAX_CONCRETIZE_ENV`] — the bound is sufficient but can be
    /// astronomically large), else [`DEFAULT_CONCRETIZE_ENV`]. The outcome
    /// records which cap was searched so callers can say so.
    pub fn concretize_auto(&self, result: &VerificationResult) -> ConcretizeOutcome {
        let (cap, from_bound) = match result.env_thread_bound {
            Some(b) => ((b as usize).min(MAX_CONCRETIZE_ENV), true),
            None => (DEFAULT_CONCRETIZE_ENV, false),
        };
        ConcretizeOutcome {
            witness: self.concretize(result, cap),
            max_env_searched: cap,
            from_bound,
        }
    }
}

/// Default env-thread cap for concretization when no §4.3 bound is
/// available (e.g. a Datalog-engine verdict).
pub const DEFAULT_CONCRETIZE_ENV: usize = 6;

/// Hard cap on the concretization search even when the §4.3 bound is
/// larger: each extra env thread multiplies the concrete state space.
pub const MAX_CONCRETIZE_ENV: usize = 12;

/// The outcome of [`Verifier::concretize_auto`].
#[derive(Debug, Clone)]
pub struct ConcretizeOutcome {
    /// The concrete interleaving, when one was found.
    pub witness: Option<ConcreteWitness>,
    /// The env-thread cap that was searched (inclusive).
    pub max_env_searched: usize,
    /// Whether the cap came from the result's §4.3 `env_thread_bound`
    /// (clamped) rather than the default.
    pub from_bound: bool,
}

/// A concrete-RA interleaving reproducing an abstract `Unsafe` verdict.
#[derive(Debug, Clone)]
pub struct ConcreteWitness {
    /// The number of `env` threads in the exhibiting instance.
    pub n_env: usize,
    /// The interleaving, one rendered instruction per step.
    pub steps: Vec<String>,
}

/// Combines per-engine verdicts (`--all-engines`) into one.
///
/// An `Unsafe` from any engine is a sound witness and wins; `Safe` (only
/// the exact engines claim it) beats `Unknown`; all-`Unknown` stays
/// `Unknown` — a bounded or truncated run is never promoted to `Safe`.
/// `Interrupted` runs aggregate exactly like `Unknown`: an interrupted
/// engine neither contradicts a completed `Safe` nor weakens an `Unsafe`
/// witness, and a run consisting only of interrupted/unknown engines is
/// `Unknown`.
///
/// # Errors
///
/// A `Safe` next to an `Unsafe` is a contradiction — one of the exact
/// engines is wrong — and surfaces as an error naming the disagreeing
/// engines, never as a silent last-run-wins.
pub fn aggregate_verdicts(verdicts: &[(EngineId, Verdict)]) -> Result<Verdict, String> {
    let any_unsafe = verdicts.iter().any(|(_, v)| *v == Verdict::Unsafe);
    let any_safe = verdicts.iter().any(|(_, v)| *v == Verdict::Safe);
    if any_unsafe && any_safe {
        let list = verdicts
            .iter()
            .map(|(e, v)| format!("{e}={v}"))
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!(
            "engines disagree ({list}); this indicates a bug in an exact engine"
        ));
    }
    Ok(if any_unsafe {
        Verdict::Unsafe
    } else if any_safe {
        Verdict::Safe
    } else {
        Verdict::Unknown
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_program::builder::SystemBuilder;

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

    #[test]
    fn all_engines_on_unsafe_handshake() {
        let sys = handshake(false);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let r1 = v.run(EngineId::SimplifiedReach);
        assert_eq!(r1.verdict, Verdict::Unsafe);
        assert!(!r1.witness_lines.is_empty());
        assert!(r1.env_thread_bound.unwrap() >= 1);
        let r2 = v.run(EngineId::CacheDatalog);
        assert_eq!(r2.verdict, Verdict::Unsafe);
        assert!(r2.stats.guesses >= 1);
        assert!(r2.stats.cache_peak >= 1);
        assert!(
            r2.notes.iter().any(|n| n.contains("certified under")),
            "missing certification note: {:?}",
            r2.notes
        );
        assert!(!r2.witness_lines.is_empty());
        assert!(r2.witness_lines[0].starts_with("infer "));
        let r3 = v.run(EngineId::BoundedConcrete);
        assert_eq!(r3.verdict, Verdict::Unsafe);
    }

    #[test]
    fn all_engines_on_safe_handshake() {
        let sys = handshake(true);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        assert_eq!(v.run(EngineId::SimplifiedReach).verdict, Verdict::Safe);
        let datalog = v.run(EngineId::CacheDatalog);
        assert_eq!(datalog.verdict, Verdict::Safe);
        assert!(datalog.witness_lines.is_empty());
        // The concrete engine can never prove parameterized safety.
        assert_eq!(v.run(EngineId::BoundedConcrete).verdict, Verdict::Unknown);
    }

    #[test]
    fn selection_labels_parse_including_legacy_names() {
        use EngineId::*;
        for legacy in ["linear-datalog", "linear"] {
            assert_eq!(
                selection_from_label(legacy),
                Ok((vec![CacheDatalog], false))
            );
        }
        assert_eq!(
            selection_from_label("all-engines"),
            Ok((vec![SimplifiedReach, CacheDatalog, BoundedConcrete], false))
        );
        assert_eq!(
            selection_from_label("race"),
            Ok((vec![SimplifiedReach, CacheDatalog, BoundedConcrete], true))
        );
        assert!(selection_from_label("nope").is_err());
        for (engines, race) in [
            (vec![SimplifiedReach], false),
            (vec![CacheDatalog], false),
            (vec![BoundedConcrete], false),
            (EngineId::ALL.to_vec(), false),
            (EngineId::ALL.to_vec(), true),
        ] {
            let label = selection_label(&engines, race);
            assert_eq!(selection_from_label(&label), Ok((engines, race)), "{label}");
        }
    }

    #[test]
    fn admission_deadline_overrides_relative_timeout() {
        // A host anchored the window at admission; an already-spent
        // absolute deadline must interrupt even under a generous
        // relative timeout.
        let sys = handshake(false);
        let opts = VerifierOptions {
            timeout: Some(Duration::from_secs(3600)),
            deadline_at: Some(Instant::now()),
            ..Default::default()
        };
        let v = Verifier::new(&sys, opts).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Interrupted(InterruptReason::Deadline));
    }

    #[test]
    fn rescoped_clone_shares_preparation_but_not_options() {
        let sys = handshake(false);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let first = v.run(EngineId::SimplifiedReach);
        assert_eq!(first.verdict, Verdict::Unsafe);
        // The warm clone gets fresh options; its runs must not re-claim
        // the prepare phase the first run already took.
        let warm = v.rescoped(VerifierOptions::default(), Recorder::disabled());
        let again = warm.run(EngineId::SimplifiedReach);
        assert_eq!(again.verdict, Verdict::Unsafe);
        assert!(
            !again.phases.iter().any(|(n, _)| n == "prepare"),
            "rescoped run re-claimed the prepare phase: {:?}",
            again.phases
        );
    }

    #[test]
    fn assert_free_system_trivially_safe() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Safe);
        assert!(r.notes.iter().any(|n| n.contains("no assertions")));
    }

    #[test]
    fn env_cas_rejected() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.cas(x, 0, 1).assert_false();
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let err = Verifier::new(&sys, VerifierOptions::default()).unwrap_err();
        assert!(matches!(err, VerifierError::Undecidable(_)));
    }

    #[test]
    fn looping_dis_needs_unrolling() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let env = {
            let mut p = b.program("env");
            p.skip();
            p.finish()
        };
        let mut d = b.program("d");
        let r = d.reg("r");
        d.star(|p| {
            p.load(r, x);
        });
        d.assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let err = Verifier::new(&sys, VerifierOptions::default()).unwrap_err();
        assert_eq!(err, VerifierError::NeedsUnrolling);
        // With unrolling it becomes checkable (and trivially unsafe: the
        // assert is reachable by exiting the loop immediately).
        let opts = VerifierOptions {
            unroll_dis: Some(2),
            ..Default::default()
        };
        let v = Verifier::new(&sys, opts).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Unsafe);
        assert!(r.notes.iter().any(|n| n.contains("unrolled")));
    }

    #[test]
    fn concretize_reproduces_abstract_bugs() {
        let sys = handshake(false);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let abstract_result = v.run(EngineId::SimplifiedReach);
        assert_eq!(abstract_result.verdict, Verdict::Unsafe);
        let concrete = v
            .concretize(&abstract_result, 4)
            .expect("the bug concretizes");
        assert!(concrete.n_env >= 1);
        assert!(concrete.steps.iter().any(|s| s.contains("$goal := 1")));
        // Safe results do not concretize.
        let safe_sys = handshake(true);
        let vs = Verifier::new(&safe_sys, VerifierOptions::default()).unwrap();
        let safe = vs.run(EngineId::SimplifiedReach);
        assert!(vs.concretize(&safe, 4).is_none());
    }

    #[test]
    fn run_records_metrics() {
        let sys = handshake(false);
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let v = Verifier::new_with_recorder(&sys, VerifierOptions::default(), rec.clone()).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert!(
            r.counters
                .iter()
                .any(|(n, v)| n == "worlds_explored" && *v > 0),
            "simplified-reach counters missing: {:?}",
            r.counters
        );
        assert!(r.gauges.iter().any(|(n, _)| n == "env_msgs"));
        // The datalog engine attaches the Lemma 4.6 occupancy series.
        let r2 = v.run(EngineId::CacheDatalog);
        assert_eq!(r2.verdict, Verdict::Unsafe);
        assert!(!r2.cache_occupancy.is_empty());
        assert_eq!(
            r2.cache_occupancy.iter().copied().max().unwrap(),
            r2.stats.cache_peak as u64
        );
        assert!(r2
            .counters
            .iter()
            .any(|(n, v)| n == "guesses_enumerated" && *v >= 1));
        // The trace intervals include the prep phase and both engine
        // runs' own phases.
        let timed: Vec<(String, Phase)> = rec
            .phase_intervals()
            .into_iter()
            .map(|i| (i.scope, i.phase))
            .collect();
        for want in [
            ("", Phase::Prepare),
            ("simplified-reach/", Phase::Search),
            ("cache-datalog/", Phase::Guess),
            ("cache-datalog/", Phase::JoinPlan),
            ("cache-datalog/", Phase::WitnessReplay),
        ] {
            assert!(
                timed.contains(&(want.0.to_string(), want.1)),
                "{want:?} missing from {timed:?}"
            );
        }
    }

    #[test]
    fn result_json_roundtrips() {
        let sys = handshake(false);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let r = v.run(EngineId::CacheDatalog);
        let json = parra_obs::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(json.get("engine").unwrap().as_str(), Some("cache-datalog"));
        assert_eq!(json.get("verdict").unwrap().as_str(), Some("UNSAFE"));
        let stats = json.get("stats").unwrap();
        assert_eq!(
            stats.get("guesses").unwrap().as_u64(),
            Some(r.stats.guesses as u64)
        );
        assert_eq!(
            stats.get("cache_peak").unwrap().as_u64(),
            Some(r.stats.cache_peak as u64)
        );
        let occ = json.get("cache_occupancy").unwrap().as_arr().unwrap();
        assert_eq!(occ.len(), r.cache_occupancy.len());
        // With a disabled recorder the metric maps are empty but present.
        assert_eq!(
            json.get("counters").unwrap(),
            &parra_obs::json::Value::Obj(Default::default())
        );
    }

    /// EngineId agreement on a CAS-heavy example.
    #[test]
    fn engines_agree_on_cas_example() {
        let mut b = SystemBuilder::new(3);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 2);
        let env = env.finish();
        let mut d = b.program("d");
        let r = d.reg("r");
        d.cas(x, 0, 1).load(r, x).assume_eq(r, 2).assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let r1 = v.run(EngineId::SimplifiedReach);
        let r2 = v.run(EngineId::CacheDatalog);
        assert_eq!(r1.verdict, Verdict::Unsafe);
        assert_eq!(r2.verdict, Verdict::Unsafe);
    }

    /// Soundness of reporting: a bounded/truncated run maps to `Unknown`,
    /// never `Safe` — in the verdict and the notes.
    #[test]
    fn truncated_runs_report_unknown_not_safe() {
        let sys = handshake(true); // genuinely safe: any Safe claim would be a lie under bounds
        let tight = VerifierOptions {
            reach_limits: ReachLimits {
                max_states: 1,
                max_env_size: 200_000,
                max_worlds: 256,
            },
            ..Default::default()
        };
        let v = Verifier::new(&sys, tight).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(r.notes.iter().any(|n| n.contains("limits hit")));

        // The concrete engine under a depth bound that is hit: bounded
        // safety is `Unknown`, with a bounds-hit note.
        let shallow = VerifierOptions {
            concrete_limits: ExploreLimits {
                max_depth: 1,
                max_states: 200_000,
            },
            ..Default::default()
        };
        let v = Verifier::new(&sys, shallow).unwrap();
        let r = v.run(EngineId::BoundedConcrete);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(r.notes.iter().any(|n| n.contains("bounds hit")));
    }

    #[test]
    fn aggregation_unsafe_wins_and_unknown_never_promotes() {
        use EngineId::*;
        use Verdict::*;
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, Unsafe), (BoundedConcrete, Unknown)]),
            Ok(Unsafe)
        );
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, Safe), (BoundedConcrete, Unknown)]),
            Ok(Safe)
        );
        // Bounded-safe results (Unknown) never aggregate to Safe.
        assert_eq!(
            aggregate_verdicts(&[(BoundedConcrete, Unknown), (CacheDatalog, Unknown)]),
            Ok(Unknown)
        );
        assert_eq!(aggregate_verdicts(&[]), Ok(Unknown));
        let err =
            aggregate_verdicts(&[(SimplifiedReach, Safe), (CacheDatalog, Unsafe)]).unwrap_err();
        assert!(err.contains("disagree"));
        assert!(err.contains("simplified-reach=SAFE"));
        assert!(err.contains("cache-datalog=UNSAFE"));
    }

    /// A spent deadline degrades every engine to `Interrupted(Deadline)`
    /// — never `Safe` — with the reason in the JSON report and notes.
    #[test]
    fn zero_timeout_interrupts_every_engine() {
        let sys = handshake(true); // genuinely safe: Safe here would be a lie
        let opts = VerifierOptions {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let v = Verifier::new_with_recorder(&sys, opts, rec.clone()).unwrap();
        for engine in EngineId::ALL {
            let r = v.run(engine);
            assert_eq!(
                r.verdict,
                Verdict::Interrupted(InterruptReason::Deadline),
                "{engine}"
            );
            assert!(!r.verdict.is_decided());
            assert!(
                r.notes.iter().any(|n| n.contains("interrupted (deadline)")),
                "{engine} notes: {:?}",
                r.notes
            );
            let json = r.to_json();
            assert!(json.contains("\"interrupted\":\"deadline\""), "{json}");
        }
        let snap = rec.snapshot();
        let hits: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.ends_with("/interrupted_deadline"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(hits, 3, "counters: {:?}", snap.counters);
    }

    /// Regression: a cancellation that interrupts engine A must not leak
    /// into engine B's run. The token used to be a single shared flag
    /// that was never re-armed, so after one cancelled run every
    /// subsequent engine under `--all-engines` (or the next file in
    /// `parra batch`) was instantly `Interrupted(cancelled)`.
    #[test]
    fn cancelling_engine_a_does_not_starve_engine_b() {
        let cancel = CancelToken::new();
        let opts = VerifierOptions {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), opts).unwrap();
        cancel.cancel();
        let a = v.run(EngineId::SimplifiedReach);
        assert_eq!(a.verdict, Verdict::Interrupted(InterruptReason::Cancelled));
        // The run consumed the request: engine B gets a clean slate.
        let b = v.run(EngineId::CacheDatalog);
        assert_eq!(
            b.verdict,
            Verdict::Unsafe,
            "engine B was starved: {:?}",
            b.notes
        );
        // And the same holds through the isolated path.
        cancel.cancel();
        let c = v.run_isolated(EngineId::SimplifiedReach);
        assert_eq!(c.verdict, Verdict::Interrupted(InterruptReason::Cancelled));
        let d = v.run_isolated(EngineId::CacheDatalog);
        assert_eq!(d.verdict, Verdict::Unsafe);
    }

    /// Regression: shared preparation time (`prepare`) used to be pushed
    /// into every report's phases, so aggregate phase breakdowns counted
    /// it once per engine; it belongs to exactly one report, as does the
    /// `parse` time of [`Verifier::parse_and_prepare`].
    #[test]
    fn plan_time_is_attributed_to_one_report_only() {
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        // A parse that takes measurable time, so its phase is non-zero.
        let parse = || {
            std::thread::sleep(Duration::from_millis(1));
            Ok(handshake(false))
        };
        let v = Verifier::parse_and_prepare(parse, VerifierOptions::default(), rec).unwrap();
        let has_prep =
            |r: &VerificationResult| r.phases.iter().any(|(n, _)| n == "prepare" || n == "parse");
        let first = v.run(EngineId::SimplifiedReach);
        for phase in ["parse", "prepare"] {
            assert!(
                first.phases.iter().any(|(n, _)| n == phase),
                "first report should carry the {phase} phase: {:?}",
                first.phases
            );
        }
        for engine in [
            EngineId::CacheDatalog,
            EngineId::BoundedConcrete,
            EngineId::SimplifiedReach,
        ] {
            let later = v.run(engine);
            assert!(
                !has_prep(&later),
                "{engine} re-counted the shared preparation time: {:?}",
                later.phases
            );
        }
    }

    /// Regression: a panicking engine used to leave an orphan
    /// `run_start` in the flight-recorder log; the degraded result must
    /// close it with a `run_end` (verdict UNKNOWN, panic marker) so
    /// `parra report` pairing and `--check-schema` stay sound.
    #[test]
    fn panicking_engine_still_emits_run_end_event() {
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let opts = VerifierOptions {
            fail_point_panic: Some(EngineId::SimplifiedReach),
            ..Default::default()
        };
        let v = Verifier::new_with_recorder(&handshake(false), opts, rec.clone()).unwrap();
        let r = v.run_isolated(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Unknown);
        let events = rec.events();
        let in_scope = |kind: &str| {
            events
                .iter()
                .filter(|e| e.scope == "simplified-reach/" && e.kind == kind)
                .count()
        };
        assert_eq!(in_scope("run_start"), 1);
        assert_eq!(in_scope("run_end"), 1, "panic orphaned the run_start");
        let end = events
            .iter()
            .find(|e| e.scope == "simplified-reach/" && e.kind == "run_end")
            .unwrap();
        assert!(
            end.fields
                .iter()
                .any(|(k, v)| k == "verdict" && *v == parra_obs::EventValue::Str("UNKNOWN".into())),
            "degraded run_end fields: {:?}",
            end.fields
        );
        assert!(
            end.fields.iter().any(|(k, _)| k == "panic"),
            "degraded run_end should carry the panic marker: {:?}",
            end.fields
        );
    }

    /// A pre-cancelled token interrupts with `Cancelled`, and a witness
    /// found before the budget trips still wins (interruption never
    /// weakens a sound `Unsafe`).
    #[test]
    fn cancelled_token_interrupts_and_unsafe_still_decides_without_budget() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts = VerifierOptions {
            cancel,
            ..Default::default()
        };
        let v = Verifier::new(&handshake(true), opts).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Interrupted(InterruptReason::Cancelled));

        // Generous limits never change a decided verdict.
        let generous = VerifierOptions {
            timeout: Some(Duration::from_secs(3600)),
            memory_budget: Some(usize::MAX),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), generous).unwrap();
        assert_eq!(v.run(EngineId::SimplifiedReach).verdict, Verdict::Unsafe);
    }

    /// A completed run under generous limits is byte-identical (modulo
    /// wall-clock durations) to an unlimited run.
    #[test]
    fn generous_budget_reports_match_unlimited_byte_for_byte() {
        fn canonical_json(mut result: VerificationResult) -> String {
            result.stats.duration = Duration::ZERO;
            result.to_json()
        }
        for safe in [false, true] {
            let sys = handshake(safe);
            let unlimited = Verifier::new(&sys, VerifierOptions::default()).unwrap();
            let governed = Verifier::new(
                &sys,
                VerifierOptions {
                    timeout: Some(Duration::from_secs(3600)),
                    memory_budget: Some(usize::MAX),
                    ..Default::default()
                },
            )
            .unwrap();
            for engine in [
                EngineId::SimplifiedReach,
                EngineId::BoundedConcrete,
                EngineId::CacheDatalog,
            ] {
                assert_eq!(
                    canonical_json(unlimited.run(engine)),
                    canonical_json(governed.run(engine)),
                    "{engine}, safe={safe}"
                );
            }
        }
    }

    /// `run_isolated` turns an engine panic into `Unknown` with a
    /// diagnostic note instead of tearing the process down.
    #[test]
    fn engine_panic_degrades_to_unknown() {
        let opts = VerifierOptions {
            fail_point_panic: Some(EngineId::SimplifiedReach),
            ..Default::default()
        };
        let v = Verifier::new(&handshake(false), opts).unwrap();
        let r = v.run_isolated(EngineId::SimplifiedReach);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(
            r.notes.iter().any(|n| n.contains("engine panicked")),
            "notes: {:?}",
            r.notes
        );
        // Other engines are unaffected by the fail point.
        assert_eq!(
            v.run_isolated(EngineId::CacheDatalog).verdict,
            Verdict::Unsafe
        );
    }

    /// Interrupted aggregates exactly like Unknown: Unsafe wins, Safe is
    /// reported when some engine decided it, and interrupted-only runs
    /// stay undecided.
    #[test]
    fn aggregation_interrupted_never_promotes_to_safe() {
        use EngineId::*;
        use Verdict::*;
        let deadline = Interrupted(InterruptReason::Deadline);
        let memory = Interrupted(InterruptReason::Memory);
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, deadline), (CacheDatalog, Unsafe)]),
            Ok(Unsafe)
        );
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, Safe), (BoundedConcrete, deadline)]),
            Ok(Safe)
        );
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, deadline), (CacheDatalog, memory)]),
            Ok(Unknown)
        );
        assert_eq!(
            aggregate_verdicts(&[(SimplifiedReach, deadline), (BoundedConcrete, Unknown)]),
            Ok(Unknown)
        );
    }

    /// `concretize_auto` seeds its env-thread cap from the §4.3 bound
    /// when the result carries one, and falls back to the default cap.
    #[test]
    fn concretize_auto_seeds_cap_from_cost_bound() {
        let sys = handshake(false);
        let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        let r = v.run(EngineId::SimplifiedReach);
        let bound = r.env_thread_bound.expect("unsafe run carries the bound") as usize;
        let out = v.concretize_auto(&r);
        assert!(out.from_bound);
        assert_eq!(out.max_env_searched, bound.min(MAX_CONCRETIZE_ENV));
        let w = out.witness.expect("the bug concretizes");
        assert!(w.n_env <= out.max_env_searched);

        // A CAS closes a gap that env threads had already stored into;
        // the bound comes from replaying the search's own saturation.
        let reopen =
            parra_program::parser::parse_system(include_str!("../../../corpus/cas-env-reopen.ra"))
                .unwrap();
        let v2 = Verifier::new(&reopen, VerifierOptions::default()).unwrap();
        let r3 = v2.run(EngineId::SimplifiedReach);
        assert_eq!(r3.verdict, Verdict::Unsafe, "{:?}", r3.notes);
        let b = r3.env_thread_bound.expect("unsafe run carries the bound") as usize;
        let w = v2
            .concretize_auto(&r3)
            .witness
            .expect("the bug concretizes");
        assert!(w.n_env <= b);

        // Without a bound (datalog verdicts carry none) the default cap
        // applies.
        let r2 = v.run(EngineId::CacheDatalog);
        assert_eq!(r2.verdict, Verdict::Unsafe);
        if r2.env_thread_bound.is_none() {
            let out2 = v.concretize_auto(&r2);
            assert!(!out2.from_bound);
            assert_eq!(out2.max_env_searched, DEFAULT_CONCRETIZE_ENV);
        }
    }
}
