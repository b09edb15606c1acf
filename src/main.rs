//! The `parra` command-line verifier.
//!
//! ```text
//! parra classify <file.ra>
//! parra verify   <file.ra> [--engine simplified|datalog|concrete]
//!                          [--unroll N] [--all-engines] [--race] [--concretize]
//!                          [--timeout SECS] [--memory-budget SIZE]
//!                          [--stats] [--json]
//!                          [--trace-out FILE] [--events-out FILE]
//! parra batch    <dir|file.ra ...> [--engine E] [--all-engines] [--race]
//!                          [--unroll N] [--timeout SECS]
//!                          [--memory-budget SIZE]
//!                          [--events-out FILE] [--strict]
//! parra print    <file.ra>
//! parra fuzz     [--oracle NAME] [--seconds N | --cases N | --timeout SECS]
//!                [--seed N] [--corpus DIR] [--minimize FILE] [--json]
//!                [--events-out FILE]
//! parra report   <file|dir ...> | --diff A B | --check-schema <file ...>
//! parra serve    (--socket PATH | --stdio) [--max-queue N]
//!                [--memory-watermark SIZE] [--events-out FILE]
//! parra serve    --send REQUEST|- --socket PATH
//! ```
//!
//! Input files use the `system { … }` syntax (see the README or
//! `examples/`). Exit code 0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN or
//! INTERRUPTED, 64+ = usage/input errors (including exact-engine
//! disagreement under `--all-engines`). Each subcommand checks its
//! command line against its own flag table before reading any input: an
//! unknown flag, or a value flag without a value, exits 64.
//!
//! `verify`, `batch`, `campaign` and `serve` all run an engine selection
//! through [`Verifier::run_selection`](parra::core::verify::Verifier::run_selection)
//! and render its [`SelectionOutcome`](parra::core::SelectionOutcome).
//!
//! `--race` races the whole portfolio concurrently: the first decisive
//! verdict (SAFE or UNSAFE) cancels the remaining engines, whose
//! `INTERRUPTED(cancelled)` results are reported as portfolio metadata.
//! The raced verdict is identical to the sequential `--all-engines`
//! aggregate; unlike `--all-engines` (per-engine timeout), `--timeout`
//! bounds the race as a whole. `--race` conflicts with `--engine` and
//! `--all-engines`.
//!
//! Resource governance: `--timeout SECS` (fractional seconds) and
//! `--memory-budget SIZE` (`512m`, `2g`, plain bytes) bound each engine
//! run; an exhausted budget degrades the verdict to
//! `INTERRUPTED(deadline|memory)` — never to `SAFE` — with partial
//! statistics preserved. Engine panics are caught per run and degrade to
//! `UNKNOWN`. `parra batch` applies the limits per file and prints one
//! JSON line per input, so one pathological system cannot starve or
//! crash the rest of the batch.
//!
//! Observability: `--stats` prints the metric totals, phase times
//! (`{scope}phase/*_us`) included, to stderr after the run;
//! `--trace-out FILE` writes a Chrome-trace JSON of the timed phases and
//! the flight-recorder events (load it in `chrome://tracing` or
//! Perfetto); `--json` prints each engine run's
//! [`VerificationResult`](parra::core::verify::VerificationResult) as
//! one JSON object per line on stdout instead of the human-readable
//! report; `--events-out FILE` writes the schema-versioned
//! flight-recorder event log as JSONL (`verify`, `batch`, and `fuzz`).
//! The recorder is on exactly when one of `--stats`, `--trace-out`, or
//! `--events-out` is given. `parra report` ingests any mix of those
//! outputs (plus `--json` run reports, batch lines, and fuzz summaries)
//! into a text dashboard, and `parra report --diff A B` compares two
//! report sets for verdict flips and phase-time regressions.

use parra::core::verify::{selection_from_label, selection_label};
use parra::limits::{parse_byte_size, TrackingAlloc};
use parra::obs::{Level, Recorder};
use parra::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

/// Counting allocator so `--memory-budget` can observe heap usage.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("parra: {msg}");
            ExitCode::from(64)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    match cmd.as_str() {
        "classify" => classify(rest),
        "verify" => verify(rest),
        "batch" => batch(rest),
        "print" => print_system(rest),
        "fuzz" => fuzz(rest),
        "report" => report(rest),
        "campaign" => campaign(rest),
        "serve" => serve(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  parra classify <file.ra>\n  parra verify <file.ra> \
     [--engine simplified|datalog|concrete] [--unroll N] [--all-engines] \
     [--race] [--concretize] [--timeout SECS] [--memory-budget SIZE] \
     [--stats] [--json] [--trace-out FILE] [--events-out FILE]\n  \
     parra batch <dir|file.ra ...> [--engine E] [--all-engines] [--race] \
     [--unroll N] [--timeout SECS] [--memory-budget SIZE] \
     [--events-out FILE] [--strict]\n  \
     parra campaign run <dir|file.ra ...> --store DIR [--engine E] \
     [--all-engines] [--race] [--unroll N] [--timeout SECS] \
     [--memory-budget SIZE] [--shard K/N] [--events-out FILE]\n  \
     parra campaign resume --store DIR [--events-out FILE]\n  \
     parra campaign status <store ...> [--merge-out DIR]\n  \
     parra campaign diff <baseline-store> <new-store> [--threshold PCT]\n  \
     parra serve (--socket PATH | --stdio) [--engine E] [--all-engines] \
     [--race] [--unroll N] [--timeout SECS] [--memory-budget SIZE] \
     [--max-queue N] [--memory-watermark SIZE] \
     [--events-out FILE]\n  \
     parra serve --send REQUEST|- --socket PATH\n  \
     parra print <file.ra>\n  parra fuzz [--oracle NAME] [--seconds N | \
     --cases N | --timeout SECS] [--seed N] [--corpus DIR] [--minimize FILE] \
     [--json] [--events-out FILE]\n  \
     parra report <file|dir ...> [--threshold PCT]\n  \
     parra report --diff A B [--threshold PCT]\n  \
     parra report --check-schema <file ...>\n\n\
     --timeout takes fractional seconds; --memory-budget takes \
     bytes with an optional k/m/g suffix (e.g. 512m). Exhausted budgets \
     degrade the verdict to INTERRUPTED (exit code 2), never to SAFE.\n\n\
     --race races every engine concurrently; the first decisive verdict \
     cancels the rest (reported as INTERRUPTED(cancelled) portfolio \
     metadata) and --timeout bounds the race as a whole. The raced \
     verdict equals the sequential --all-engines aggregate. --race \
     conflicts with --engine and --all-engines.\n\n\
     batch verifies each input under per-file limits and prints one JSON \
     line per file; a panic or exhausted budget on one file does not \
     stop the rest. --strict additionally exits 2 when any *decided* \
     file lost an engine run to a deadline or memory budget (a silently \
     degraded portfolio).\n\ncampaign runs batch sweeps against a \
     persistent store (manifest.json + append-only results.jsonl), \
     checkpointed per input: re-runs skip inputs whose content key — \
     hash of (canonical system text, engine selection, verdict-relevant \
     options) — is already settled; `resume` re-runs interrupted/errored \
     inputs after a crash or kill; --shard K/N deterministically \
     partitions the key set across N workers and `status --merge-out` \
     folds shard stores back into one; `campaign diff` compares two \
     stores (verdict flips always fail; duration regressions past \
     --threshold PCT with a 50ms floor; added/removed inputs listed, \
     never fatal) and exits 1 when dirty.\n\nfuzz oracles: engines-agree, \
     equivalence, round-trip, monotonicity, eval-agree, \
     serve-roundtrip, union-overapprox, plan-reuse (default: all). A \
     --seconds budget is a deterministic case target (seconds x the \
     oracle's calibrated cases/sec), so repeated runs are identical; \
     --timeout is a wall-clock bound instead (the completed cases are \
     still a deterministic prefix); failures are minimized and, with \
     --corpus DIR, saved as .ra files.\n\nreport ingests flight-recorder \
     event logs (--events-out), --json run reports, batch lines, and \
     fuzz summaries — files or directories (scanned for *.json/*.jsonl) \
     — and prints a dashboard with per-engine phase breakdowns and \
     duration percentiles. --diff A B compares two report sets and exits \
     1 on verdict flips or phase-time regressions beyond --threshold PCT \
     (default 25). --check-schema strictly validates event logs.\n\n\
     serve runs a long-lived daemon speaking line-delimited JSON \
     (protocol v1; one response line per request line) over a Unix \
     socket or --stdio, with request types verify, batch, status, and \
     shutdown. Prepared verifiers and Datalog query plans are cached \
     across requests (warm requests skip the prepare phase); per-request \
     budgets anchor at admission; --max-queue bounds in-flight work and \
     --memory-watermark refuses new work under heap pressure — both \
     reject with a structured `overloaded` error that never touches \
     admitted requests. --send REQUEST (or `-` to stream stdin) is the \
     client mode: it prints the daemon's response lines."
        .to_owned()
}

/// One subcommand's flag table: `switches` stand alone, `values` take
/// the next argument. Any other `--word` is a usage error, so a typo or
/// a removed flag is never silently ignored.
struct Flags {
    switches: &'static [&'static str],
    values: &'static [&'static str],
}

const NO_FLAGS: Flags = Flags {
    switches: &[],
    values: &[],
};
const VERIFY_FLAGS: Flags = Flags {
    switches: &[
        "--all-engines",
        "--race",
        "--concretize",
        "--stats",
        "--json",
    ],
    values: &[
        "--engine",
        "--unroll",
        "--timeout",
        "--memory-budget",
        "--trace-out",
        "--events-out",
    ],
};
const BATCH_FLAGS: Flags = Flags {
    switches: &["--all-engines", "--race", "--strict"],
    values: &[
        "--engine",
        "--unroll",
        "--timeout",
        "--memory-budget",
        "--events-out",
    ],
};
const FUZZ_FLAGS: Flags = Flags {
    switches: &["--json"],
    values: &[
        "--oracle",
        "--seconds",
        "--cases",
        "--timeout",
        "--seed",
        "--corpus",
        "--minimize",
        "--events-out",
    ],
};
const REPORT_FLAGS: Flags = Flags {
    switches: &["--diff", "--check-schema"],
    values: &["--threshold"],
};
const SERVE_FLAGS: Flags = Flags {
    switches: &["--stdio", "--all-engines", "--race"],
    values: &[
        "--socket",
        "--send",
        "--engine",
        "--unroll",
        "--timeout",
        "--memory-budget",
        "--max-queue",
        "--memory-watermark",
        "--events-out",
    ],
};
const CAMPAIGN_RUN_FLAGS: Flags = Flags {
    switches: &["--all-engines", "--race"],
    values: &[
        "--store",
        "--engine",
        "--unroll",
        "--timeout",
        "--memory-budget",
        "--shard",
        "--events-out",
    ],
};
const CAMPAIGN_RESUME_FLAGS: Flags = Flags {
    switches: &[],
    values: &["--store", "--events-out"],
};
const CAMPAIGN_STATUS_FLAGS: Flags = Flags {
    switches: &[],
    values: &["--merge-out"],
};
const CAMPAIGN_DIFF_FLAGS: Flags = Flags {
    switches: &[],
    values: &["--threshold"],
};

/// A command line checked against its subcommand's [`Flags`] table.
struct Args {
    cmd: &'static str,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args` into switches, flag values, and positional inputs.
    /// An unknown `--flag`, or a value flag whose value is missing or
    /// itself starts with `--`, is an error naming the flag.
    fn parse(cmd: &'static str, flags: &Flags, args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            cmd,
            switches: Vec::new(),
            values: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            if !a.starts_with("--") {
                out.positional.push(a.clone());
            } else if let Some(&flag) = flags.switches.iter().find(|f| **f == a) {
                out.switches.push(flag);
            } else if let Some(&flag) = flags.values.iter().find(|f| **f == a) {
                match iter.next() {
                    Some(v) if !v.starts_with("--") => out.values.push((flag, v.clone())),
                    _ => return Err(format!("{cmd}: {flag} needs a value")),
                }
            } else {
                return Err(format!("{cmd}: unknown flag `{a}`"));
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of the first `flag` occurrence.
    fn value(&self, flag: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.clone())
    }

    /// Parses `flag`'s value with `FromStr`, naming the flag on error.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)
            .map(|v| v.parse::<T>().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// The single positional input of `classify`, `print`, and `verify`.
    fn input(&self) -> Result<&str, String> {
        match self.positional.as_slice() {
            [path] => Ok(path),
            [] => Err(format!("{}: missing input file", self.cmd)),
            [_, extra, ..] => Err(format!("{}: unexpected argument `{extra}`", self.cmd)),
        }
    }

    /// Rejects positional arguments (for subcommands that take none).
    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            None => Ok(()),
            Some(extra) => Err(format!("{}: unexpected argument `{extra}`", self.cmd)),
        }
    }
}

fn load(path: &str) -> Result<ParamSystem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_system(&text).map_err(|e| format!("{path}: {e}"))
}

/// Expands positional inputs: a directory becomes its `.ra` files in
/// sorted order (so output order is deterministic), a file stays as is.
fn expand_inputs(args: &Args) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    for a in &args.positional {
        let path = std::path::PathBuf::from(a);
        if path.is_dir() {
            let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("cannot read directory `{a}`: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "ra"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    Ok(files)
}

/// The `VerifierOptions` of `verify`, `batch`, `campaign run`, and
/// `serve`, from their shared `--unroll`/`--timeout`/`--memory-budget`
/// flags.
fn run_options(args: &Args) -> Result<VerifierOptions, String> {
    let (timeout, memory_budget) = parse_limit_flags(args)?;
    Ok(VerifierOptions {
        unroll_dis: args.parsed("--unroll")?,
        timeout,
        memory_budget,
        ..Default::default()
    })
}

/// Parses `--timeout` (fractional seconds) and `--memory-budget`
/// (bytes with an optional k/m/g suffix).
fn parse_limit_flags(args: &Args) -> Result<(Option<Duration>, Option<usize>), String> {
    let timeout = args
        .value("--timeout")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(Duration::from_secs_f64)
                .ok_or_else(|| format!("--timeout: `{v}` is not a non-negative number of seconds"))
        })
        .transpose()?;
    let memory_budget = args
        .value("--memory-budget")
        .map(|v| {
            parse_byte_size(&v)
                .ok_or_else(|| format!("--memory-budget: `{v}` is not a byte size (try 512m, 2g)"))
        })
        .transpose()?;
    Ok((timeout, memory_budget))
}

/// Maps an aggregated verdict to the process exit code.
fn exit_code_for(verdict: Verdict) -> ExitCode {
    match verdict {
        Verdict::Safe => ExitCode::SUCCESS,
        Verdict::Unsafe => ExitCode::from(1),
        Verdict::Unknown | Verdict::Interrupted(_) => ExitCode::from(2),
    }
}

fn classify(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse("classify", &NO_FLAGS, args)?;
    let sys = load(args.input()?)?;
    let class = SystemClass::of(&sys);
    println!("class      : {class}");
    println!("complexity : {}", class.complexity());
    println!(
        "supported  : {}",
        if class.is_decidable_fragment() {
            "yes (decided exactly)"
        } else if class.env.nocas {
            "with --unroll N (bounded model checking of dis loops)"
        } else {
            "no (undecidable, Theorem 1.1)"
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let args = &Args::parse("verify", &VERIFY_FLAGS, args)?;
    let input = args.input()?;
    let json = args.has("--json");
    let stats_flag = args.has("--stats");
    let trace_out = args.value("--trace-out");
    let events_out = args.value("--events-out");
    let options = run_options(args)?;
    let engines = engine_selection(args)?;

    // The recorder is on exactly when an output that reads it is asked
    // for.
    let rec = if stats_flag || trace_out.is_some() || events_out.is_some() {
        Recorder::enabled(Level::Summary)
    } else {
        Recorder::disabled()
    };

    // The recorder exists before the input does, so loading gets its own
    // phase attribution.
    let verifier = Verifier::parse_and_prepare(|| load(input), options, rec.clone())?;

    let concretize = args.has("--concretize");
    let race = args.has("--race");
    let mut sel = verifier.run_selection(&engines, race)?;
    for result in &mut sel.results {
        let engine = result.engine;
        // Concretization runs regardless of the output format, so the
        // witness lands in the JSON report too.
        let concrete = if concretize && result.verdict == Verdict::Unsafe {
            let outcome = verifier.concretize_auto(result);
            result.concrete = outcome.witness.clone();
            Some(outcome)
        } else {
            None
        };
        if json {
            println!("{}", result.to_json());
        } else {
            println!(
                "[{engine}] {} ({:.2?}, {} states)",
                result.verdict, result.stats.duration, result.stats.states
            );
            if let Some(bound) = result.env_thread_bound {
                println!("  env threads sufficient for the violation: {bound}");
            }
            for line in &result.witness_lines {
                println!("  witness: {line}");
            }
            for note in &result.notes {
                println!("  note: {note}");
            }
            if let Some(outcome) = &concrete {
                match &outcome.witness {
                    Some(w) => {
                        println!("  concrete interleaving ({} env threads):", w.n_env);
                        for step in &w.steps {
                            println!("    {step}");
                        }
                    }
                    None => println!(
                        "  (no concrete interleaving found within {} env threads \
                         [{}] and default depth)",
                        outcome.max_env_searched,
                        if outcome.from_bound {
                            "from the \u{a7}4.3 cost bound"
                        } else {
                            "default cap"
                        }
                    ),
                }
            }
        }
    }
    if race && !json {
        let (verdict, duration, n) = (sel.verdict, sel.duration, sel.results.len());
        match sel.winner_engine() {
            Some(engine) => println!(
                "[race] {verdict} in {duration:.2?} — first decisive answer: {engine} \
                 ({n} engines raced)"
            ),
            None => println!(
                "[race] {verdict} in {duration:.2?} — no decisive answer \
                 ({n} engines raced to completion)"
            ),
        }
    }

    if stats_flag {
        // The `{scope}phase/*_us` counters are the phase table.
        let snap = rec.snapshot();
        for (name, v) in &snap.counters {
            eprintln!("  {name} = {v}");
        }
        for (name, g) in &snap.gauges {
            eprintln!("  {name} = {} (peak {})", g.value, g.peak);
        }
    }
    if let Some(path) = trace_out {
        rec.write_chrome_trace(std::path::Path::new(&path))
            .map_err(|e| format!("--trace-out `{path}`: {e}"))?;
        eprintln!("trace written to {path}");
    }
    if let Some(path) = events_out {
        rec.write_events(std::path::Path::new(&path))
            .map_err(|e| format!("--events-out `{path}`: {e}"))?;
        eprintln!("events written to {path}");
    }
    Ok(exit_code_for(sel.verdict))
}

/// Resolves `--engine`/`--all-engines`/`--race` into the engine list to
/// run. The three flags are mutually exclusive: `--engine` picks one
/// engine, `--all-engines` runs the portfolio sequentially, `--race`
/// races it. Conflicting combinations are rejected rather than silently
/// resolved (an ignored `--engine` used to mask typos).
fn engine_selection(args: &Args) -> Result<Vec<EngineId>, String> {
    let race = args.has("--race");
    let all = args.has("--all-engines");
    let single = args.value("--engine");
    if all && single.is_some() {
        return Err(
            "--engine and --all-engines conflict: pass one engine or the whole portfolio, \
             not both"
                .into(),
        );
    }
    if race && single.is_some() {
        return Err(
            "--engine and --race conflict: --race races the whole portfolio; \
             drop --engine (or drop --race to run one engine)"
                .into(),
        );
    }
    if race && all {
        return Err(
            "--all-engines and --race conflict: --all-engines runs the portfolio \
             sequentially (per-engine timeout), --race races it (one race-wide timeout)"
                .into(),
        );
    }
    if all || race {
        return Ok(EngineId::ALL.to_vec());
    }
    match single.as_deref() {
        None => Ok(vec![EngineId::SimplifiedReach]),
        Some(name) => EngineId::from_name(name)
            .map(|e| vec![e])
            .ok_or_else(|| format!("unknown engine `{name}`")),
    }
}

fn batch(args: &[String]) -> Result<ExitCode, String> {
    let args = &Args::parse("batch", &BATCH_FLAGS, args)?;
    let options = run_options(args)?;
    let engines = engine_selection(args)?;
    let race = args.has("--race");
    let events_out = args.value("--events-out");
    let strict = args.has("--strict");

    let files = expand_inputs(args)?;
    if files.is_empty() {
        return Err("batch: no input files (pass .ra files or directories)".into());
    }
    let mut any_unsafe = false;
    let mut any_undecided = false;
    // `--strict` health audit: decided files whose portfolio still lost
    // an engine run to a deadline or memory budget. Race cancellations
    // don't count — a raced loser is cancelled *because* the portfolio
    // answered, which is healthy, not degraded.
    let mut any_degraded = false;
    let mut event_log = String::new();
    for file in &files {
        // One recorder per file: events carry a `file` attribution and
        // each file's event sequence starts at 0, so batch logs are
        // deterministic however the batch is split or re-ordered.
        let rec = if events_out.is_some() {
            Recorder::enabled(Level::Summary)
        } else {
            Recorder::disabled()
        };
        let start = std::time::Instant::now();
        // Read failures, parse failures, rejected systems and engine
        // disagreement become the line's `error` field. A panicked engine
        // run is an `UNKNOWN` report with a note; `error` stays `null`.
        let name = file.display().to_string();
        let outcome = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| {
                parra::core::verify_text(&name, &text, &engines, race, &options, &rec)
            });
        let duration_us = start.elapsed().as_micros() as u64;
        if events_out.is_some() {
            event_log.push_str(&rec.render_events_jsonl(&[("file", &name)]));
        }

        let mut w = parra::obs::json::ObjWriter::new();
        w.str_field("file", &name);
        match outcome {
            Ok(sel) => {
                any_unsafe |= sel.verdict == Verdict::Unsafe;
                any_undecided |= !sel.verdict.is_decided();
                any_degraded |= matches!(
                    sel.interrupted,
                    Some(InterruptReason::Deadline | InterruptReason::Memory)
                );
                w.str_field("verdict", &sel.verdict.to_string());
                match sel.reported_interruption() {
                    Some(r) => w.str_field("interrupted", r.as_str()),
                    None => w.raw_field("interrupted", "null"),
                }
                w.raw_field("error", "null");
                w.num_field("duration_us", duration_us);
                let reports: Vec<String> = sel.results.iter().map(|r| r.to_json()).collect();
                w.raw_field("reports", &format!("[{}]", reports.join(",")));
            }
            Err(error) => {
                any_undecided = true;
                w.raw_field("verdict", "null");
                w.raw_field("interrupted", "null");
                w.str_field("error", &error);
                w.num_field("duration_us", duration_us);
                w.raw_field("reports", "[]");
            }
        }
        println!("{}", w.finish());
    }
    if let Some(path) = events_out {
        std::fs::write(&path, event_log).map_err(|e| format!("--events-out `{path}`: {e}"))?;
        eprintln!("events written to {path}");
    }
    Ok(if any_unsafe {
        ExitCode::from(1)
    } else if any_undecided || (strict && any_degraded) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn print_system(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse("print", &NO_FLAGS, args)?;
    let sys = load(args.input()?)?;
    print!("{}", parra::program::pretty::system_to_string(&sys));
    Ok(ExitCode::SUCCESS)
}

/// The `parra serve` daemon (and its `--send` client mode). The request
/// execution itself lives in `parra::serve`; this function only does
/// flag parsing and transport (Unix socket or stdio).
fn serve(args: &[String]) -> Result<ExitCode, String> {
    use parra::serve::{ServeConfig, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::Arc;

    let args = &Args::parse("serve", &SERVE_FLAGS, args)?;
    args.no_positional()?;
    // Client mode: write request lines, print response lines.
    if let Some(request) = args.value("--send") {
        let path = args
            .value("--socket")
            .ok_or("serve --send: --socket PATH is required")?;
        let stream =
            UnixStream::connect(&path).map_err(|e| format!("cannot connect to `{path}`: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream);
        let requests: Vec<String> = if request == "-" {
            std::io::stdin()
                .lines()
                .collect::<Result<_, _>>()
                .map_err(|e| format!("stdin: {e}"))?
        } else {
            vec![request]
        };
        let sent = requests.len();
        for line in &requests {
            writeln!(writer, "{line}").map_err(|e| format!("send: {e}"))?;
        }
        writer.flush().map_err(|e| format!("send: {e}"))?;
        let mut responses = reader.lines();
        for _ in 0..sent {
            let line = responses
                .next()
                .ok_or("daemon closed the connection before answering")?
                .map_err(|e| format!("receive: {e}"))?;
            println!("{line}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Daemon mode.
    let options = run_options(args)?;
    let engines = engine_selection(args)?;
    let race = args.has("--race");
    let max_queue = args.parsed("--max-queue")?.unwrap_or(64);
    let watermark = args
        .value("--memory-watermark")
        .map(|v| {
            parse_byte_size(&v).ok_or_else(|| format!("--memory-watermark: invalid size `{v}`"))
        })
        .transpose()?;
    let cfg = ServeConfig {
        options,
        engine: selection_label(&engines, race),
        max_in_flight: max_queue,
        memory_watermark: watermark,
    };
    let mut server = Server::new(cfg);
    if let Some(path) = args.value("--events-out") {
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("--events-out: cannot create `{path}`: {e}"))?;
        server = server.with_events_sink(Box::new(file));
    }
    let server = Arc::new(server);

    if args.has("--stdio") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server
            .handle_stream(stdin.lock(), stdout.lock())
            .map_err(|e| format!("stdio: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }

    let path = args
        .value("--socket")
        .ok_or("serve: pass --socket PATH or --stdio")?;
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).map_err(|e| format!("cannot bind `{path}`: {e}"))?;
    // Non-blocking accept so a `shutdown` request received on any
    // connection stops the daemon promptly.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    eprintln!("parra serve: listening on {path}");
    loop {
        if server.is_shutdown() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("connection: {e}"))?;
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(s) => BufReader::new(s),
                        Err(_) => return,
                    };
                    // A vanished peer only ends this connection.
                    let _ = server.handle_stream(reader, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                return Err(format!("accept: {e}"));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(ExitCode::SUCCESS)
}

fn fuzz(args: &[String]) -> Result<ExitCode, String> {
    use parra::fuzz::oracle::{all_oracles, oracle_by_name, Oracle, OracleOutcome};
    use parra::fuzz::runner::{self, FuzzBudget, FuzzConfig, MinimizeOutcome};

    let args = &Args::parse("fuzz", &FUZZ_FLAGS, args)?;
    args.no_positional()?;
    let json = args.has("--json");
    let seed = args.parsed("--seed")?.unwrap_or(0);
    let cases = args.parsed("--cases")?;
    let seconds = args.parsed("--seconds")?;
    let (timeout, _) = parse_limit_flags(args)?;
    // A wall-clock --timeout on its own means "as many cases as fit":
    // the case target becomes unbounded and the deadline stops the run.
    let budget = match (cases, seconds, timeout) {
        (Some(n), _, _) => FuzzBudget::Cases(n),
        (None, Some(s), _) => FuzzBudget::Seconds(s),
        (None, None, Some(_)) => FuzzBudget::Cases(u64::MAX),
        (None, None, None) => FuzzBudget::Seconds(1),
    };
    let corpus_dir = args.value("--corpus").map(std::path::PathBuf::from);
    let events_out = args.value("--events-out");
    let oracles: Vec<Box<dyn Oracle>> = match args.value("--oracle").as_deref() {
        None | Some("all") => all_oracles(),
        Some(name) => vec![oracle_by_name(name).ok_or_else(|| {
            format!(
                "unknown oracle `{name}` (expected one of: {}, or all)",
                all_oracles()
                    .iter()
                    .map(|o| o.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?],
    };

    if let Some(path) = args.value("--minimize") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let sys = parse_system(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut any_failure = false;
        for oracle in &oracles {
            match runner::minimize(oracle.as_ref(), &sys) {
                MinimizeOutcome::NotFailing(OracleOutcome::Pass) => {
                    println!("[{}] passes; nothing to minimize", oracle.name());
                }
                MinimizeOutcome::NotFailing(OracleOutcome::Skip(why)) => {
                    println!("[{}] skipped: {why}", oracle.name());
                }
                MinimizeOutcome::NotFailing(OracleOutcome::Fail(_)) => unreachable!(),
                MinimizeOutcome::Minimized { message, result } => {
                    any_failure = true;
                    println!("[{}] FAIL: {message}", oracle.name());
                    println!(
                        "minimized in {} steps ({} candidates tried):",
                        result.steps, result.candidates_tried
                    );
                    print!("{}", parra::program::pretty::system_to_string(&result.sys));
                    if let Some(dir) = &corpus_dir {
                        let saved = parra::fuzz::corpus::save(
                            dir,
                            oracle.name(),
                            seed,
                            &message,
                            &result.sys,
                        )
                        .map_err(|e| format!("--corpus: {e}"))?;
                        println!("saved to {}", saved.display());
                    }
                }
            }
        }
        return Ok(if any_failure {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }

    let rec = if events_out.is_some() {
        Recorder::enabled(Level::Summary)
    } else {
        Recorder::disabled()
    };
    // The deadline is handed to the runner unanchored: `runner::run`
    // anchors it when the run is admitted, not at flag-parse time, so a
    // long-lived caller looping over oracles gives each run the full
    // window (each oracle below gets its own `--timeout`).
    let cfg = FuzzConfig {
        seed,
        budget,
        corpus_dir,
        deadline: timeout,
        governor: ResourceBudget::unlimited(),
    };
    let mut any_failure = false;
    for oracle in &oracles {
        let summary = runner::run(oracle.as_ref(), &cfg, &rec);
        any_failure |= !summary.failures.is_empty();
        if json {
            println!("{}", summary.to_json());
        } else {
            println!("{}", summary.render());
            if let Some(reason) = summary.interrupted {
                println!("  note: stopped early ({reason} budget exhausted)");
            }
            for f in &summary.failures {
                println!("  seed {}: {}", f.seed, f.message);
                println!(
                    "  minimized ({} shrink steps, size {}):",
                    f.shrink_steps, f.minimized_size
                );
                for line in parra::program::pretty::system_to_string(&f.minimized).lines() {
                    println!("    {line}");
                }
                if let Some(path) = &f.saved_to {
                    println!("  saved to {}", path.display());
                }
            }
        }
    }
    if let Some(path) = events_out {
        rec.write_events(std::path::Path::new(&path))
            .map_err(|e| format!("--events-out `{path}`: {e}"))?;
        eprintln!("events written to {path}");
    }
    Ok(if any_failure {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `parra report`: ingest run reports / batch lines / event logs / fuzz
/// summaries into a dashboard, diff two report sets, or strictly validate
/// event-log schemas.
fn report(args: &[String]) -> Result<ExitCode, String> {
    use parra::obs::report as rpt;
    use std::path::PathBuf;

    let args = &Args::parse("report", &REPORT_FLAGS, args)?;
    let mut opts = rpt::DiffOptions::default();
    if let Some(t) = args.parsed("--threshold")? {
        opts.threshold_pct = t;
    }
    let paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();

    if args.has("--check-schema") {
        if paths.is_empty() {
            return Err("report --check-schema: no event-log files given".into());
        }
        let mut total = 0;
        for p in &paths {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read `{}`: {e}", p.display()))?;
            total += rpt::check_schema(&text)
                .map_err(|m| format!("{}:{}: {}", p.display(), m.line, m.message))?;
        }
        println!(
            "schema OK: {total} event line{} across {} file{}",
            if total == 1 { "" } else { "s" },
            paths.len(),
            if paths.len() == 1 { "" } else { "s" },
        );
        return Ok(ExitCode::SUCCESS);
    }

    if args.has("--diff") {
        if paths.len() != 2 {
            return Err("report --diff: pass exactly two files/directories (baseline new)".into());
        }
        let (a, ma) = rpt::load(&paths[..1]).map_err(|e| e.to_string())?;
        let (b, mb) = rpt::load(&paths[1..]).map_err(|e| e.to_string())?;
        for m in ma.iter().chain(&mb) {
            eprintln!("warning: {}:{}: {}", m.path, m.line, m.message);
        }
        let d = rpt::diff(&a, &b, opts);
        print!("{}", rpt::render_diff(&d));
        return Ok(if d.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    if paths.is_empty() {
        return Err("report: no input files (pass report/event files or directories)".into());
    }
    let (set, malformed) = rpt::load(&paths).map_err(|e| e.to_string())?;
    for m in &malformed {
        eprintln!("warning: {}:{}: {}", m.path, m.line, m.message);
    }
    if set.is_empty() {
        return Err("report: nothing ingestible in the given files".into());
    }
    print!("{}", rpt::render_dashboard(&set));
    Ok(ExitCode::SUCCESS)
}

/// `parra campaign`: checkpointed, sharded, resumable, diffable sweeps
/// against a persistent experiment store (see `crates/campaign`).
fn campaign(args: &[String]) -> Result<ExitCode, String> {
    let (sub, rest) = args
        .split_first()
        .ok_or("campaign: expected run, resume, status, or diff")?;
    match sub.as_str() {
        "run" => campaign_run(rest),
        "resume" => campaign_resume(rest),
        "status" => campaign_status(rest),
        "diff" => campaign_diff(rest),
        other => Err(format!(
            "campaign: unknown subcommand `{other}` (expected run, resume, status, or diff)"
        )),
    }
}

fn campaign_run(args: &[String]) -> Result<ExitCode, String> {
    use parra::campaign::{CampaignOptions, Manifest, Shard, Store};

    let args = &Args::parse("campaign run", &CAMPAIGN_RUN_FLAGS, args)?;
    let store_dir = args
        .value("--store")
        .ok_or("campaign run: --store DIR is required")?;
    let options = run_options(args)?;
    let engines = engine_selection(args)?;
    let race = args.has("--race");
    let shard = args
        .value("--shard")
        .map(|s| Shard::parse(&s))
        .transpose()?;
    let inputs: Vec<String> = expand_inputs(args)?
        .iter()
        .map(|p| p.display().to_string())
        .collect();
    if inputs.is_empty() {
        return Err("campaign run: no input files (pass .ra files or directories)".into());
    }
    let copts = CampaignOptions {
        engine_label: selection_label(&engines, race),
        engines,
        race,
        options,
        shard,
    };
    let manifest = Manifest {
        engine: copts.engine_label.clone(),
        options_fp: copts.options_fp(),
        unroll: copts.options.unroll_dis.map(|n| n as u64),
        timeout_us: copts.options.timeout.map(|d| d.as_micros() as u64),
        memory_budget: copts.options.memory_budget.map(|n| n as u64),
        shard: shard.map(|s| (s.k, s.n)),
        inputs,
    };
    let store = Store::open_or_create(std::path::Path::new(&store_dir), &manifest)?;
    campaign_execute(&store, &manifest, &copts, args)
}

fn campaign_resume(args: &[String]) -> Result<ExitCode, String> {
    use parra::campaign::{CampaignOptions, Shard, Store};

    let args = &Args::parse("campaign resume", &CAMPAIGN_RESUME_FLAGS, args)?;
    args.no_positional()?;
    let store_dir = args
        .value("--store")
        .ok_or("campaign resume: --store DIR is required")?;
    let (store, manifest) = Store::open(std::path::Path::new(&store_dir))?;
    let (engines, race) = selection_from_label(&manifest.engine)?;
    let options = VerifierOptions {
        unroll_dis: manifest.unroll.map(|n| n as usize),
        timeout: manifest.timeout_us.map(Duration::from_micros),
        memory_budget: manifest.memory_budget.map(|n| n as usize),
        ..Default::default()
    };
    let copts = CampaignOptions {
        engine_label: manifest.engine.clone(),
        engines,
        race,
        options,
        shard: manifest.shard.map(|(k, n)| Shard { k, n }),
    };
    if copts.options_fp() != manifest.options_fp {
        return Err(format!(
            "store `{store_dir}`: manifest options (fingerprint `{}`) no longer reproduce \
             fingerprint `{}` — the store predates an options-format change; re-run the campaign",
            manifest.options_fp,
            copts.options_fp()
        ));
    }
    campaign_execute(&store, &manifest, &copts, args)
}

/// Shared `run`/`resume` execution: plan, verify, stream one JSON line
/// per owned input plus a final summary line, write the event log, and
/// map the owned inputs' verdict tallies to the exit code.
fn campaign_execute(
    store: &parra::campaign::Store,
    manifest: &parra::campaign::Manifest,
    copts: &parra::campaign::CampaignOptions,
    args: &Args,
) -> Result<ExitCode, String> {
    let events_out = args.value("--events-out");
    let rec = if events_out.is_some() {
        Recorder::enabled(Level::Summary)
    } else {
        Recorder::disabled()
    };
    let entries = parra::campaign::plan(&manifest.inputs, store, copts)?;
    let mut input_events = String::new();
    let summary =
        parra::campaign::run_campaign(store, &entries, copts, &rec, |entry, record, irec| {
            let mut w = parra::obs::json::ObjWriter::new();
            w.str_field("input", &entry.input);
            w.str_field("key", &entry.key);
            match &record.verdict {
                Some(v) => w.str_field("verdict", v),
                None => w.raw_field("verdict", "null"),
            }
            match &record.interrupted {
                Some(r) => w.str_field("interrupted", r),
                None => w.raw_field("interrupted", "null"),
            }
            match &record.error {
                Some(e) => w.str_field("error", e),
                None => w.raw_field("error", "null"),
            }
            w.raw_field("cached", if entry.cached { "true" } else { "false" });
            w.num_field("duration_us", record.duration_us);
            println!("{}", w.finish());
            if irec.is_enabled() {
                input_events.push_str(&irec.render_events_jsonl(&[("file", &entry.input)]));
            }
        })?;
    let mut w = parra::obs::json::ObjWriter::new();
    w.num_field("planned", summary.planned);
    w.num_field("assigned", summary.assigned);
    w.num_field("cached", summary.cached);
    w.num_field("verified", summary.verified);
    w.num_field("safe", summary.safe);
    w.num_field("unsafe", summary.unsafe_);
    w.num_field("unknown", summary.unknown);
    w.num_field("interrupted", summary.interrupted);
    w.num_field("errors", summary.errors);
    println!("{}", w.finish());
    if let Some(path) = events_out {
        // Campaign-scope events first, then each input's engine events
        // with `file` attribution — the same shape `parra report` ingests
        // from `batch --events-out`.
        let log = rec.render_events_jsonl(&[]) + &input_events;
        std::fs::write(&path, log).map_err(|e| format!("--events-out `{path}`: {e}"))?;
        eprintln!("events written to {path}");
    }
    Ok(if summary.unsafe_ > 0 {
        ExitCode::from(1)
    } else if summary.unknown + summary.interrupted + summary.errors > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn campaign_status(args: &[String]) -> Result<ExitCode, String> {
    use parra::campaign::{Manifest, Record, Store};
    use std::collections::BTreeMap;

    let args = &Args::parse("campaign status", &CAMPAIGN_STATUS_FLAGS, args)?;
    let stores = &args.positional;
    if stores.is_empty() {
        return Err("campaign status: pass one or more store directories".into());
    }
    let mut merged: BTreeMap<String, Record> = BTreeMap::new();
    let mut all_inputs: Vec<String> = Vec::new();
    let mut first_manifest: Option<Manifest> = None;
    for dir in stores {
        let (store, manifest) = Store::open(std::path::Path::new(dir))?;
        if let Some(first) = &first_manifest {
            if manifest.engine != first.engine || manifest.options_fp != first.options_fp {
                return Err(format!(
                    "campaign status: store `{dir}` (engine `{}`, options `{}`) does not \
                     belong to the same campaign as `{}` (engine `{}`, options `{}`)",
                    manifest.engine, manifest.options_fp, stores[0], first.engine, first.options_fp
                ));
            }
        }
        let records = store.records()?;
        let settled = store.merged()?.values().filter(|r| r.is_settled()).count();
        let shard = manifest
            .shard
            .map(|(k, n)| format!("shard {k}/{n}"))
            .unwrap_or_else(|| "unsharded".to_string());
        println!(
            "{dir}: {} ({}), {} inputs listed, {} records, {} settled keys",
            manifest.engine,
            shard,
            manifest.inputs.len(),
            records.len(),
            settled,
        );
        for input in &manifest.inputs {
            if !all_inputs.contains(input) {
                all_inputs.push(input.clone());
            }
        }
        // Chronological within each store; across stores, later
        // command-line position wins — status is a fold, not a race.
        for r in records {
            merged.insert(r.key.clone(), r);
        }
        first_manifest.get_or_insert(manifest);
    }
    let (mut safe, mut unsafe_, mut unknown, mut interrupted, mut errors) = (0, 0, 0, 0, 0);
    for r in merged.values() {
        if r.error.is_some() {
            errors += 1;
        } else if r.interrupted.is_some() {
            interrupted += 1;
        } else {
            match r.verdict.as_deref() {
                Some("SAFE") => safe += 1,
                Some("UNSAFE") => unsafe_ += 1,
                _ => unknown += 1,
            }
        }
    }
    println!(
        "merged: {} keys — {safe} safe, {unsafe_} unsafe, {unknown} unknown, \
         {interrupted} interrupted, {errors} errors",
        merged.len()
    );
    if let Some(out) = args.value("--merge-out") {
        let manifest = Manifest {
            shard: None,
            inputs: all_inputs,
            ..first_manifest.expect("stores is non-empty")
        };
        Store::write_merged(std::path::Path::new(&out), &manifest, &merged)?;
        println!("merged store written to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn campaign_diff(args: &[String]) -> Result<ExitCode, String> {
    let args = &Args::parse("campaign diff", &CAMPAIGN_DIFF_FLAGS, args)?;
    let dirs = &args.positional;
    if dirs.len() != 2 {
        return Err("campaign diff: pass exactly two store directories (baseline new)".into());
    }
    let threshold = args.parsed("--threshold")?;
    let (a, b) = (
        std::path::Path::new(&dirs[0]),
        std::path::Path::new(&dirs[1]),
    );
    let d = parra::campaign::diff_stores(a, b, threshold)?;
    print!("{}", parra::campaign::render_diff(a, b, &d));
    Ok(if d.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
