//! End-to-end tests of the flight recorder: `--events-out` determinism
//! from run to run, `--trace-out` Chrome-trace validity, and the
//! `parra report` dashboard / schema-check / diff surface.

use parra::obs::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn example(name: &str) -> String {
    format!("{}/examples/systems/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Serializes this file's tests: each spawns `parra` processes, and one
/// test's processes competing with another's for the CPUs show up as
/// genuine wall-clock regressions in `report --diff`.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], also after a sibling test panicked holding it.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_ok(args: &[&str], allow: &[i32]) -> std::process::Output {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    let code = out.status.code().expect("no signal");
    assert!(
        allow.contains(&code),
        "parra {args:?} exited {code}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The deterministic projection of one event line: everything except
/// `t_us` and the `volatile` section.
fn deterministic_key(line: &str) -> (u64, String, String, Value) {
    let v = json::parse(line).expect("event line is valid JSON");
    (
        v.get("seq").unwrap().as_u64().unwrap(),
        v.get("scope").unwrap().as_str().unwrap().to_string(),
        v.get("kind").unwrap().as_str().unwrap().to_string(),
        v.get("fields").unwrap().clone(),
    )
}

/// Two runs of the same command log the same deterministic events.
#[test]
fn event_log_is_deterministic_across_thread_counts() {
    let _serial = serial();
    let input = example("peterson.ra");
    let mut logs = Vec::new();
    for run in ["a", "b"] {
        let path = tmp(&format!("events_{run}.jsonl"));
        run_ok(
            &[
                "verify",
                "--all-engines",
                "--events-out",
                path.to_str().unwrap(),
                &input,
            ],
            &[0, 1],
        );
        let text = std::fs::read_to_string(&path).expect("event log written");
        assert!(!text.is_empty(), "event log of run {run} is empty");
        logs.push(text.lines().map(deterministic_key).collect::<Vec<_>>());
    }
    assert_eq!(
        logs[0].len(),
        logs[1].len(),
        "event counts differ between two runs"
    );
    for (i, (a, b)) in logs[0].iter().zip(&logs[1]).enumerate() {
        assert_eq!(a, b, "event {i} differs between two runs");
    }
}

#[test]
fn event_log_passes_its_own_schema_check() {
    let _serial = serial();
    let input = example("handshake.ra");
    let path = tmp("events_schema.jsonl");
    run_ok(
        &[
            "verify",
            "--all-engines",
            "--events-out",
            path.to_str().unwrap(),
            &input,
        ],
        &[0, 1],
    );
    let out = run_ok(&["report", "--check-schema", path.to_str().unwrap()], &[0]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("schema OK"),
        "unexpected check-schema output: {stdout}"
    );
}

#[test]
fn union_settled_fleet_is_reported_at_every_thread_count() {
    let _serial = serial();
    // `barrier.ra` is SAFE with two guesses, and their union program
    // does not derive the goal.
    let input = example("barrier.ra");
    let mut seen = Vec::new();
    for run in ["a", "b"] {
        let path = tmp(&format!("events_union_{run}.jsonl"));
        run_ok(
            &[
                "verify",
                "--engine",
                "datalog",
                "--events-out",
                path.to_str().unwrap(),
                &input,
            ],
            &[0],
        );
        let text = std::fs::read_to_string(&path).expect("event log written");
        let fleet: Vec<_> = text
            .lines()
            .map(deterministic_key)
            .filter(|(_, _, kind, _)| kind == "fleet")
            .collect();
        assert_eq!(fleet.len(), 1, "one fleet event in run {run}");
        let fields = &fleet[0].3;
        assert_eq!(fields.get("n_guesses").and_then(Value::as_u64), Some(2));
        assert_eq!(
            fields.get("union_settled").and_then(Value::as_u64),
            Some(1),
            "in run {run}"
        );
        // The fleet runs on one thread, so its maxima, (absent) winner
        // and base fixpoint are deterministic fields.
        let moved: Vec<_> = ["rules_max", "atoms_max", "winner", "base_atoms", "resumed"]
            .iter()
            .map(|k| fields.get(k).and_then(Value::as_u64))
            .collect();
        assert!(moved[0].is_some_and(|n| n > 0), "rules_max in run {run}");
        assert!(moved[1].is_some_and(|n| n > 0), "atoms_max in run {run}");
        assert_eq!(moved[2], None, "a settled fleet has no winner");
        // Guess 0 and `U` resume from the base fixpoint, which holds
        // fewer atoms than `U`'s model.
        assert!(
            moved[3].is_some_and(|n| n > 0 && n < moved[1].unwrap()),
            "base_atoms in run {run}"
        );
        assert_eq!(moved[4], Some(2), "resumed in run {run}");
        seen.push(moved);
        run_ok(&["report", "--check-schema", path.to_str().unwrap()], &[0]);
    }
    assert_eq!(seen[0], seen[1], "fleet fields differ between two runs");
}

#[test]
fn check_schema_rejects_malformed_lines_with_location() {
    let _serial = serial();
    let path = tmp("events_bad.jsonl");
    std::fs::write(
        &path,
        "{\"v\":1,\"seq\":0,\"t_us\":0,\"scope\":\"x/\",\"kind\":\"run_end\",\
         \"fields\":{},\"volatile\":{}}\nnot json at all\n",
    )
    .unwrap();
    let out = run_ok(&["report", "--check-schema", path.to_str().unwrap()], &[64]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(":2:"), "error should name line 2: {stderr}");
}

/// Runs `verify --trace-out` and returns the `(ph, name)` of every
/// record, after checking each record's shape: `X` phase blocks carry a
/// duration, a thread and their scope; `i` event instants are
/// process-scoped.
fn trace_records(engine: &str, input: &str) -> Vec<(String, String)> {
    let path = tmp(&format!("trace_{engine}.json"));
    run_ok(
        &[
            "verify",
            "--engine",
            engine,
            "--trace-out",
            path.to_str().unwrap(),
            &example(input),
        ],
        &[0, 1],
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    let v = json::parse(text.trim()).expect("trace file is one JSON array");
    let records = v.as_arr().expect("top level is an array");
    let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
    records
        .iter()
        .map(|e| {
            let ph = field(e, "ph").expect("ph field");
            let name = field(e, "name").expect("name field");
            let num = |k: &str| e.get(k).and_then(Value::as_u64);
            match ph.as_str() {
                "M" => {}
                "X" => {
                    assert!(name.starts_with("phase:"), "X record `{name}`");
                    assert!(num("ts").is_some() && num("dur").is_some(), "{name}");
                    assert!(num("tid").is_some(), "{name} has no tid");
                    let scope = e.get("args").and_then(|a| a.get("scope"));
                    assert!(scope.and_then(Value::as_str).is_some(), "{name}");
                }
                "i" => {
                    assert!(num("ts").is_some(), "{name} has no ts");
                    assert_eq!(field(e, "s").as_deref(), Some("p"), "{name}");
                }
                other => panic!("unexpected record kind `{other}` ({name})"),
            }
            (ph, name)
        })
        .collect()
}

#[test]
fn trace_out_is_a_valid_chrome_trace() {
    let _serial = serial();
    let datalog = trace_records("cache-datalog", "handshake.ra");
    for (ph, name) in [
        ("X", "phase:parse"),
        ("X", "phase:prepare"),
        ("X", "phase:guess"),
        ("X", "phase:join_plan"),
        ("X", "phase:witness_replay"),
        ("i", "cache-datalog/run_start"),
        ("i", "cache-datalog/run_end"),
    ] {
        assert!(
            datalog.iter().any(|r| r.0 == ph && r.1 == name),
            "cache-datalog trace has no {ph} `{name}`: {datalog:?}"
        );
    }
    let reach = trace_records("simplified", "barrier.ra");
    assert!(
        reach.iter().any(|r| r.0 == "X" && r.1 == "phase:search"),
        "simplified-reach trace has no search phase: {reach:?}"
    );
}

#[test]
fn batch_event_logs_diff_clean_against_themselves() {
    let _serial = serial();
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for rep in ["a", "b"] {
        let path = tmp(&format!("batch_events_{rep}.jsonl"));
        // Each file twice: the diff compares an input's fastest runs.
        run_ok(
            &[
                "batch",
                "--engine",
                "simplified",
                "--timeout",
                "30",
                "--events-out",
                path.to_str().unwrap(),
                &dir,
                &dir,
            ],
            &[0, 1, 2],
        );
        paths.push(path);
    }

    // Both logs pass the schema check and render a dashboard.
    run_ok(
        &[
            "report",
            "--check-schema",
            paths[0].to_str().unwrap(),
            paths[1].to_str().unwrap(),
        ],
        &[0],
    );
    let out = run_ok(&["report", paths[0].to_str().unwrap()], &[0]);
    let dash = String::from_utf8(out.stdout).unwrap();
    assert!(
        dash.contains("simplified-reach"),
        "dashboard missing the engine: {dash}"
    );

    // Two identical batch runs must report zero verdict flips. Phases
    // compare each input's fastest of its two runs, so one stalled run
    // flags nothing, and a wide --threshold keeps wall-clock wobble on
    // sub-millisecond phases from flagging spurious regressions; flips
    // are timing-independent.
    let out = run_ok(
        &[
            "report",
            "--diff",
            paths[0].to_str().unwrap(),
            paths[1].to_str().unwrap(),
            "--threshold",
            "400",
        ],
        &[0],
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("0 verdict flips"),
        "diff of identical runs found flips: {text}"
    );
    assert!(
        text.contains("clean: no flips, no regressions"),
        "diff of identical runs not clean: {text}"
    );
}

#[test]
fn json_report_carries_phases_and_percentiles() {
    let _serial = serial();
    let input = example("peterson.ra");
    let out = run_ok(
        &["verify", "--engine", "datalog", "--json", "--stats", &input],
        &[0, 1],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = json::parse(stdout.trim()).expect("one JSON report");
    let phases = v
        .get("phases")
        .and_then(Value::as_obj)
        .expect("report has a phases object");
    for phase in ["parse", "prepare", "guess", "fixpoint"] {
        assert!(
            phases.iter().any(|(k, _)| k == phase),
            "phases missing `{phase}`: {phases:?}"
        );
    }
    // Every histogram in the report exposes quantile estimates.
    let hists = v.get("histograms").and_then(Value::as_obj);
    if let Some(hists) = hists {
        for (name, h) in hists {
            for q in ["p50", "p90", "p99"] {
                assert!(
                    h.get(q).and_then(Value::as_u64).is_some(),
                    "histogram `{name}` missing `{q}`"
                );
            }
        }
    }
}

/// An engine's phases account for its runs' wall-clock: summed over the
/// litmus suite, they cover at least 95% of the summed `duration` (the
/// first run's `parse` and `prepare` fall before it and are left out). A
/// preemption inside an untimed stretch can cost a short run its whole
/// margin, so the suite gets three tries.
fn assert_phases_cover_the_litmus_runs(engine: parra::core::verify::EngineId) {
    use parra::core::verify::{Verifier, VerifierOptions};
    use parra::obs::{Level, Recorder};
    let _serial = serial();
    let coverage = || {
        let (mut phased, mut total) = (0u64, 0u64);
        for bench in parra::litmus::all() {
            let rec = Recorder::enabled(Level::Summary);
            let options = VerifierOptions::default();
            let Ok(v) = Verifier::new_with_recorder(&bench.system, options, rec) else {
                continue;
            };
            let r = v.run(engine);
            let timed = r
                .phases
                .iter()
                .filter(|(n, _)| n != "parse" && n != "prepare");
            phased += timed.map(|(_, us)| us).sum::<u64>();
            total += r.stats.duration.as_micros() as u64;
        }
        phased as f64 / total as f64
    };
    let mut tries = Vec::new();
    for _ in 0..3 {
        tries.push(coverage());
        if tries.last().is_some_and(|&c| c >= 0.95) {
            return;
        }
    }
    panic!("{engine} phases cover {tries:?} of the summed duration, below 0.95");
}

#[test]
fn datalog_phases_cover_the_litmus_runs() {
    assert_phases_cover_the_litmus_runs(parra::core::verify::EngineId::CacheDatalog);
}

/// The search is `search`; the §4.3 dependency graph an UNSAFE run
/// builds from its witness is `witness_replay`.
#[test]
fn simplified_phases_cover_the_litmus_runs() {
    assert_phases_cover_the_litmus_runs(parra::core::verify::EngineId::SimplifiedReach);
}
