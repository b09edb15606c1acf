//! End-to-end tests of the flight recorder: `--events-out` determinism
//! across thread counts, `--trace-out` Chrome-trace validity, and the
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

#[test]
fn event_log_is_deterministic_across_thread_counts() {
    let _serial = serial();
    let input = example("peterson.ra");
    let mut logs = Vec::new();
    for threads in ["1", "4"] {
        let path = tmp(&format!("events_t{threads}.jsonl"));
        run_ok(
            &[
                "verify",
                "--all-engines",
                "--threads",
                threads,
                "--events-out",
                path.to_str().unwrap(),
                &input,
            ],
            &[0, 1],
        );
        let text = std::fs::read_to_string(&path).expect("event log written");
        assert!(!text.is_empty(), "event log is empty at {threads} threads");
        logs.push(text.lines().map(deterministic_key).collect::<Vec<_>>());
    }
    assert_eq!(
        logs[0].len(),
        logs[1].len(),
        "event counts differ between 1 and 4 threads"
    );
    for (i, (a, b)) in logs[0].iter().zip(&logs[1]).enumerate() {
        assert_eq!(a, b, "event {i} differs between 1 and 4 threads");
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

#[test]
fn trace_out_is_a_valid_chrome_trace() {
    let _serial = serial();
    let input = example("barrier.ra");
    let path = tmp("trace.json");
    run_ok(
        &[
            "verify",
            "--engine",
            "simplified",
            "--trace-out",
            path.to_str().unwrap(),
            &input,
        ],
        &[0, 1],
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    let v = json::parse(text.trim()).expect("trace file is one JSON array");
    let events = v.as_arr().expect("top level is an array");
    assert!(!events.is_empty());

    // Every B must close with an E on the same tid, stack-ordered, with
    // non-decreasing timestamps; the file must contain at least the
    // verify span.
    use std::collections::HashMap;
    let mut stacks: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    let mut names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        if ph != "B" && ph != "E" {
            continue; // metadata (M) and counter (C) events
        }
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid field");
        let ts = e.get("ts").and_then(Value::as_u64).expect("ts field");
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .expect("name field")
            .to_string();
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            names.push(name.clone());
            stack.push((name, ts));
        } else {
            let (open, start) = stack
                .pop()
                .unwrap_or_else(|| panic!("E for `{name}` on tid {tid} without a matching B"));
            assert_eq!(open, name, "E closes a different span than the open B");
            assert!(start <= ts, "span `{name}` ends before it starts");
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} has unclosed spans: {stack:?}");
    }
    assert!(
        names.iter().any(|n| n == "engine:simplified-reach"),
        "trace has no engine span: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("phase:")),
        "trace has no phase spans: {names:?}"
    );
}

#[test]
fn batch_event_logs_diff_clean_against_themselves() {
    let _serial = serial();
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for rep in ["a", "b"] {
        let path = tmp(&format!("batch_events_{rep}.jsonl"));
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

    // Two identical batch runs must report zero verdict flips. A wide
    // --threshold keeps wall-clock wobble on sub-millisecond phases from
    // flagging spurious regressions; flips are timing-independent.
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
    assert!(
        phases.iter().any(|(k, _)| k == "plan"),
        "phases missing `plan`: {phases:?}"
    );
    assert!(
        phases.iter().any(|(k, _)| k == "fixpoint"),
        "phases missing `fixpoint`: {phases:?}"
    );
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
