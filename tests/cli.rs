//! End-to-end tests of the `parra` binary: flag/path parsing, the
//! observability surface (`--json`, `--stats`, `--trace-out`), and
//! `--all-engines` verdict aggregation.

use parra::obs::json;
use parra::prelude::*;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn example(name: &str) -> String {
    format!("{}/examples/systems/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn json_output_parses_and_matches_legacy_stats() {
    let input = example("handshake.ra");
    let out = Command::new(BIN)
        .args(["verify", "--engine", "simplified", "--json", &input])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "handshake is unsafe; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = json::parse(stdout.trim()).expect("stdout is one JSON object");
    assert_eq!(v.get("engine").unwrap().as_str(), Some("simplified-reach"));
    assert_eq!(v.get("verdict").unwrap().as_str(), Some("UNSAFE"));

    // The report must agree with an in-process run of the same engine on
    // the same input (the engine is deterministic).
    let sys = parse_system(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let r = Verifier::new(&sys, VerifierOptions::default())
        .unwrap()
        .run(EngineId::SimplifiedReach);
    let stats = v.get("stats").unwrap();
    assert_eq!(
        stats.get("states").unwrap().as_u64(),
        Some(r.stats.states as u64)
    );
    assert_eq!(
        stats.get("worlds").unwrap().as_u64(),
        Some(r.stats.worlds as u64)
    );
    assert_eq!(
        stats.get("peak_env_msgs").unwrap().as_u64(),
        Some(r.stats.peak_env_msgs as u64)
    );
    assert_eq!(
        v.get("env_thread_bound").unwrap().as_u64(),
        r.env_thread_bound
    );
    assert_eq!(
        v.get("witness").unwrap().as_arr().unwrap().len(),
        r.witness_lines.len()
    );
}

#[test]
fn json_emits_one_object_per_engine() {
    let out = Command::new(BIN)
        .args([
            "verify",
            "--all-engines",
            "--json",
            &example("handshake.ra"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let engines: Vec<String> = stdout
        .lines()
        .map(|l| {
            json::parse(l)
                .expect("each line is a JSON object")
                .get("engine")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        engines,
        ["simplified-reach", "cache-datalog", "bounded-concrete"]
    );
}

/// Regression test: `load()` used to scan for the first bare argument
/// when locating the input path, so a flag value like `--engine datalog`
/// or a `--trace-out` file name could be mistaken for the input file.
#[test]
fn flag_values_are_not_mistaken_for_the_input_path() {
    let out = Command::new(BIN)
        .args(["verify", "--engine", "datalog", &example("handshake.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = std::env::temp_dir().join("parra_cli_trace_test.json");
    let out = Command::new(BIN)
        .args([
            "verify",
            "--trace-out",
            trace.to_str().unwrap(),
            &example("handshake.ra"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let events = json::parse(&text).expect("chrome trace is valid JSON");
    let names: Vec<&str> = events
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in [
        "phase:search",
        "simplified-reach/run_start",
        "simplified-reach/run_end",
    ] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }
    std::fs::remove_file(&trace).ok();

    // A missing input still errors out cleanly.
    let out = Command::new(BIN)
        .args(["verify", "--engine", "datalog"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing input file"));
}

/// Regression test: `--all-engines` used to report the verdict of the
/// *last* engine, so a Safe system ended Unknown because the (inherently
/// incomplete) concrete engine runs last. Decisive verdicts must win.
#[test]
fn all_engines_aggregation_prefers_decisive_verdicts() {
    let out = Command::new(BIN)
        .args(["verify", "--all-engines", &example("barrier.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "barrier is safe and exact engines prove it; stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(BIN)
        .args(["verify", "--all-engines", &example("handshake.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "handshake is unsafe");
}

/// `parra fuzz` with a fixed seed and case budget is bit-for-bit
/// deterministic: two invocations print the same summary, and `--json`
/// reports the same case/failure counts (wall-clock duration aside).
#[test]
fn fuzz_subcommand_is_deterministic_across_invocations() {
    let run = || {
        Command::new(BIN)
            .args([
                "fuzz",
                "--oracle",
                "engines-agree",
                "--cases",
                "25",
                "--seed",
                "7",
            ])
            .output()
            .expect("binary runs")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "fuzz summary must be reproducible");
    let line = String::from_utf8(a.stdout).unwrap();
    assert!(
        line.contains("oracle=engines-agree")
            && line.contains("seed=7")
            && line.contains("cases=25")
            && line.contains("failures=0"),
        "unexpected summary: {line}"
    );

    let out = Command::new(BIN)
        .args([
            "fuzz",
            "--oracle",
            "round-trip",
            "--cases",
            "10",
            "--seed",
            "3",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let v = json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("stdout is one JSON object");
    assert_eq!(v.get("oracle").unwrap().as_str(), Some("round-trip"));
    assert_eq!(v.get("cases").unwrap().as_u64(), Some(10));
    assert_eq!(v.get("failures").unwrap().as_u64(), Some(0));
}

/// `parra fuzz --minimize` on a passing corpus entry reports "nothing to
/// minimize" per oracle and exits 0; an unknown oracle is a usage error.
#[test]
fn fuzz_minimize_and_oracle_flag_validation() {
    let corpus_file = format!(
        "{}/corpus/engines-agree-cas-mutex.ra",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(BIN)
        .args([
            "fuzz",
            "--oracle",
            "engines-agree",
            "--minimize",
            &corpus_file,
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("passes; nothing to minimize"),
        "stdout: {stdout}"
    );

    let out = Command::new(BIN)
        .args(["fuzz", "--oracle", "no-such-oracle", "--cases", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(64));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown oracle"), "stderr: {err}");
    assert!(err.contains("engines-agree"), "stderr: {err}");
}

/// Regression test: `--concretize` used to be silently ignored under
/// `--json`. The witness must now land in the report either way, and the
/// human fallback message must name the §4.3-seeded cap.
#[test]
fn concretize_works_under_json_and_names_its_bound() {
    let input = example("handshake.ra");
    let out = Command::new(BIN)
        .args(["verify", "--json", "--concretize", &input])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON report");
    let w = v.get("concrete_witness").expect("field present");
    let n_env = w.get("n_env").and_then(|n| n.as_u64()).expect("n_env");
    assert!(n_env >= 1);
    let steps = w.get("steps").and_then(|s| s.as_arr()).expect("steps");
    assert!(!steps.is_empty());

    // Without --concretize the field is null.
    let out = Command::new(BIN)
        .args(["verify", "--json", &input])
        .output()
        .expect("binary runs");
    let v = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON report");
    assert!(v.get("concrete_witness").unwrap().is_null());

    // Human output still prints the interleaving.
    let out = Command::new(BIN)
        .args(["verify", "--concretize", &input])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("concrete interleaving"), "stdout: {stdout}");
}

/// `--timeout 0` degrades to INTERRUPTED (exit 2) with the deadline
/// reason in the notes and JSON; `--memory-budget` parses suffixes and
/// rejects garbage.
#[test]
fn timeout_zero_interrupts_with_exit_code_2() {
    let input = example("barrier.ra");
    let out = Command::new(BIN)
        .args(["verify", "--timeout", "0", "--json", &input])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON report");
    assert_eq!(v.get("interrupted").unwrap().as_str(), Some("deadline"));
    assert_eq!(
        v.get("verdict").unwrap().as_str(),
        Some("INTERRUPTED(deadline)")
    );

    let out = Command::new(BIN)
        .args(["verify", "--timeout", "0", &input])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("interrupted (deadline)"),
        "stdout: {stdout}"
    );

    // A generous memory budget parses and does not disturb the verdict.
    let out = Command::new(BIN)
        .args(["verify", "--memory-budget", "4g", &example("handshake.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));

    let out = Command::new(BIN)
        .args(["verify", "--memory-budget", "lots", &input])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--memory-budget"));
}

/// `parra batch` over the examples directory emits one JSON line per
/// `.ra` file in sorted order, and the exit code reflects the worst
/// verdict (handshake is unsafe → 1).
#[test]
fn batch_emits_one_json_line_per_file() {
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(BIN)
        .args(["batch", &dir])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<_> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "stdout: {stdout}");
    let mut verdicts = Vec::new();
    for line in &lines {
        let v = json::parse(line).expect("each line is a JSON object");
        let file = v.get("file").unwrap().as_str().unwrap().to_string();
        assert!(file.ends_with(".ra"), "{file}");
        assert!(v.get("error").unwrap().is_null(), "{line}");
        verdicts.push((
            file,
            v.get("verdict").unwrap().as_str().unwrap().to_string(),
        ));
    }
    assert!(
        verdicts
            .iter()
            .any(|(f, v)| f.ends_with("handshake.ra") && v == "UNSAFE"),
        "{verdicts:?}"
    );
    // Sorted order: barrier first, spinlock last.
    assert!(verdicts[0].0.ends_with("barrier.ra"));
    assert!(verdicts[4].0.ends_with("spinlock.ra"));
}

/// One panicking input must not take down the rest of the batch: the
/// poisoned file gets an `error` line, every other file still verifies.
#[test]
fn batch_survives_an_injected_panic() {
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(BIN)
        .args(["batch", &dir])
        .env("PARRA_INJECT_PANIC", "rcu")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "handshake is still unsafe; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<_> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "stdout: {stdout}");
    let mut saw_panic = false;
    for line in &lines {
        let v = json::parse(line).expect("JSON line");
        let file = v.get("file").unwrap().as_str().unwrap().to_string();
        if file.ends_with("rcu.ra") {
            saw_panic = true;
            assert!(v.get("verdict").unwrap().is_null(), "{line}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains("panicked"), "{err}");
        } else {
            assert!(v.get("error").unwrap().is_null(), "{line}");
        }
    }
    assert!(saw_panic, "stdout: {stdout}");
}

/// Per-file limits in batch mode: a zero timeout interrupts every file
/// (exit 2, no UNSAFE was reached) but still prints one line per input.
#[test]
fn batch_with_zero_timeout_interrupts_every_file() {
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(BIN)
        .args(["batch", "--timeout", "0", &dir])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<_> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "stdout: {stdout}");
    for line in &lines {
        let v = json::parse(line).expect("JSON line");
        assert_eq!(v.get("interrupted").unwrap().as_str(), Some("deadline"));
    }
}

/// `parra fuzz --timeout` bounds the run by wall clock: a zero timeout
/// completes immediately with an interruption note instead of hanging on
/// the unbounded case target.
#[test]
fn fuzz_timeout_stops_the_run() {
    let out = Command::new(BIN)
        .args(["fuzz", "--oracle", "round-trip", "--timeout", "0", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON summary");
    assert_eq!(v.get("interrupted").unwrap().as_str(), Some("deadline"));
    assert_eq!(v.get("cases").unwrap().as_u64(), Some(0));
}

#[test]
fn stats_flag_prints_phase_table_and_metrics() {
    let out = Command::new(BIN)
        .args(["verify", "--stats", &example("handshake.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    for phase in [
        "  phase/parse_us = ",
        "  phase/prepare_us = ",
        "  simplified-reach/phase/search_us = ",
    ] {
        assert!(err.contains(phase), "stderr: {err}");
    }
    assert!(
        err.contains("simplified-reach/worlds_explored"),
        "stderr: {err}"
    );
}

/// Each subcommand checks its command line against its own flag table
/// before it reads an input or writes a file: a mistyped flag, a value
/// flag whose value is missing (or is the next flag), and the removed
/// `--metrics-out` all exit 64, name the flag, and leave nothing behind.
#[test]
fn bad_flags_exit_64_before_any_output() {
    let input = example("handshake.ra");
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let fuzz = ["fuzz", "--oracle", "round-trip", "--cases", "1"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["verify", "--stat", &input], "--stat"),
        (
            vec!["verify", "--trace-out", "--stats", &input],
            "--trace-out",
        ),
        (vec!["verify", &input, "--events-out"], "--events-out"),
        (
            vec!["verify", &input, "--metrics-out", "m.prom"],
            "--metrics-out",
        ),
        // No subcommand takes `--threads`.
        (vec!["verify", "--threads", "2", &input], "--threads"),
        (vec!["batch", "--threads", "2", &dir], "--threads"),
        (vec!["batch", "--strcit", &dir], "--strcit"),
        (
            vec!["batch", "--events-out", "--strict", &dir],
            "--events-out",
        ),
        (
            vec!["batch", &dir, "--metrics-out", "m.prom"],
            "--metrics-out",
        ),
        ([&fuzz[..], &["--case", "1"]].concat(), "--case"),
        (
            [&fuzz[..], &["--events-out", "--json"]].concat(),
            "--events-out",
        ),
        (
            [&fuzz[..], &["--metrics-out", "m.prom"]].concat(),
            "--metrics-out",
        ),
    ];
    for (i, (args, flag)) in cases.iter().enumerate() {
        let cwd =
            std::env::temp_dir().join(format!("parra_cli_bad_flags_{}_{i}", std::process::id()));
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(BIN)
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{args:?}: stderr: {err}");
        assert!(
            err.contains(flag),
            "{args:?}: stderr does not name {flag}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
        let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(left.is_empty(), "{args:?}: wrote {left:?}");
        std::fs::remove_dir(&cwd).ok();
    }
}

/// A `--json` report with its timing zeroed: `duration_us` at any depth
/// and every phase time. The `parse` and `prepare` phases are dropped,
/// since a phase shorter than a microsecond is not recorded at all.
fn without_durations(v: &json::Value) -> json::Value {
    match v {
        json::Value::Obj(m) => json::Value::Obj(
            m.iter()
                .map(|(k, val)| {
                    let val = match (k.as_str(), val) {
                        ("duration_us", _) => json::Value::Num(0.0),
                        ("phases", json::Value::Obj(p)) => json::Value::Obj(
                            p.keys()
                                .filter(|n| !matches!(n.as_str(), "parse" | "prepare"))
                                .map(|n| (n.clone(), json::Value::Num(0.0)))
                                .collect(),
                        ),
                        _ => without_durations(val),
                    };
                    (k.clone(), val)
                })
                .collect(),
        ),
        json::Value::Arr(items) => json::Value::Arr(items.iter().map(without_durations).collect()),
        other => other.clone(),
    }
}

/// `verify` and `batch` run a selection through the same path: on every
/// example system, `verify --all-engines --json` prints exactly the
/// per-engine reports of the file's `batch --all-engines` line (metrics
/// recorded on both sides, durations zeroed), and under `--race` both
/// give the same aggregate verdict and exit code.
#[test]
fn verify_and_batch_report_the_same_selection() {
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let events = format!("{}/one-selection-path.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let run = |args: &[&str]| {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };
    for selection in ["--all-engines", "--race"] {
        let (_, batch) = run(&["batch", &dir, selection, "--events-out", &events]);
        let lines: Vec<json::Value> = batch
            .lines()
            .map(|l| json::parse(l).expect("batch line is JSON"))
            .collect();
        assert_eq!(lines.len(), 5, "{batch}");
        for line in &lines {
            let file = line.get("file").unwrap().as_str().unwrap();
            let verdict = line.get("verdict").unwrap().as_str().unwrap();
            let (batch_code, _) = run(&["batch", file, selection]);
            let (code, stdout) =
                run(&["verify", file, selection, "--json", "--events-out", &events]);
            assert_eq!(code, batch_code, "{file} {selection}: exit codes differ");
            let expected_code = match verdict {
                "SAFE" => 0,
                "UNSAFE" => 1,
                _ => 2,
            };
            assert_eq!(code, Some(expected_code), "{file} {selection}: {verdict}");
            if selection == "--race" {
                // Which racer wins is wall-clock-bound; the aggregate is not.
                let (_, text) = run(&["verify", file, selection]);
                assert!(
                    text.contains(&format!("[race] {verdict} in ")),
                    "{file}: batch says {verdict}, verify says {text}"
                );
                continue;
            }
            let reports: Vec<json::Value> = stdout
                .lines()
                .map(|l| without_durations(&json::parse(l).expect("report is JSON")))
                .collect();
            let batch_reports: Vec<json::Value> = line
                .get("reports")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(without_durations)
                .collect();
            assert_eq!(reports.len(), 3, "{file}: {stdout}");
            assert_eq!(
                reports, batch_reports,
                "{file}: verify and batch reports differ"
            );
        }
    }
}
