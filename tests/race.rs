//! The engine portfolio race, end-to-end: the raced verdict must equal
//! the sequential `--all-engines` aggregate on every litmus benchmark,
//! the winning engine must be reported, and the CLI
//! must reject contradictory engine-selection flags instead of silently
//! ignoring one of them.

use parra::obs::json;
use parra::prelude::*;
use parra_litmus::{all, Expected};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn example(name: &str) -> String {
    format!("{}/examples/systems/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Races the full portfolio on every benchmark in the suite and checks
/// the race verdict against the sequential aggregate over the same
/// engines. Which engine wins is wall-clock-bound; *that some decisive
/// engine wins*, and the verdict itself, are not.
#[test]
fn raced_verdict_equals_sequential_aggregate_on_the_whole_suite() {
    for bench in all() {
        let options = VerifierOptions::default();
        let sequential = {
            let v = Verifier::new(&bench.system, options.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let verdicts: Vec<(EngineId, Verdict)> = EngineId::ALL
                .iter()
                .map(|&e| (e, v.run_isolated(e).verdict))
                .collect();
            aggregate_verdicts(&verdicts)
                .unwrap_or_else(|e| panic!("{}: sequential disagreement: {e}", bench.name))
        };
        let v = Verifier::new(&bench.system, options).unwrap();
        let race = v
            .race(&EngineId::ALL)
            .unwrap_or_else(|e| panic!("{}: race disagreement: {e}", bench.name));
        assert_eq!(
            race.verdict, sequential,
            "{}: raced verdict diverged from the sequential aggregate",
            bench.name
        );
        let expected = match bench.expected {
            Expected::Safe => Verdict::Safe,
            Expected::Unsafe => Verdict::Unsafe,
        };
        assert_eq!(race.verdict, expected, "{}", bench.name);
        // Every benchmark is decided by at least one exact engine, so
        // some racer must have claimed the decisive win — and the
        // report must attribute it.
        let winner = race
            .winner_engine()
            .unwrap_or_else(|| panic!("{}: decisive race without a winner", bench.name));
        let wr = race.winner_result().unwrap();
        assert_eq!(wr.engine, winner, "{}", bench.name);
        assert!(
            wr.verdict.is_decided(),
            "{}: winner's verdict {} is not decisive",
            bench.name,
            wr.verdict
        );
    }
}

/// Regression test: `--engine X --all-engines` used to silently ignore
/// `--engine` (running the whole portfolio as if the flag had not been
/// passed), masking typos. All contradictory engine-selection combos are
/// usage errors now.
#[test]
fn contradictory_engine_selection_flags_are_rejected() {
    let input = example("handshake.ra");
    let cases: &[(&[&str], &str)] = &[
        (
            &["--engine", "datalog", "--all-engines"],
            "--engine and --all-engines conflict",
        ),
        (
            &["--race", "--engine", "datalog"],
            "--engine and --race conflict",
        ),
        (
            &["--all-engines", "--race"],
            "--all-engines and --race conflict",
        ),
    ];
    for (flags, needle) in cases {
        for subcommand in ["verify", "batch"] {
            let out = Command::new(BIN)
                .arg(subcommand)
                .args(*flags)
                .arg(&input)
                .output()
                .expect("binary runs");
            assert_eq!(
                out.status.code(),
                Some(64),
                "{subcommand} {flags:?} should be a usage error; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(needle), "{subcommand} {flags:?}: {err}");
        }
    }
}

/// `verify --race` end-to-end: the exit code comes from the aggregate
/// verdict, the human output reports each racer plus a `[race]` summary
/// naming the first decisive engine, and losers are marked as portfolio
/// metadata rather than engine answers.
#[test]
fn race_flag_smoke_human_output() {
    let out = Command::new(BIN)
        .args(["verify", "--race", &example("handshake.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "handshake is unsafe; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for engine in [
        "[simplified-reach]",
        "[cache-datalog]",
        "[bounded-concrete]",
    ] {
        assert!(stdout.contains(engine), "missing {engine}: {stdout}");
    }
    assert!(
        stdout.contains("[race] UNSAFE") && stdout.contains("first decisive answer:"),
        "missing race summary: {stdout}"
    );

    let out = Command::new(BIN)
        .args(["verify", "--race", &example("barrier.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "barrier is safe; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("[race] SAFE"));
}

/// `verify --race --json` still emits one report object per engine (in
/// portfolio order), cancelled losers carrying the race note; the race
/// event lands in `--events-out` and `parra report` renders the winner.
#[test]
fn race_flag_json_and_events_pipeline() {
    let events = std::env::temp_dir().join("parra_race_events_test.jsonl");
    let out = Command::new(BIN)
        .args([
            "verify",
            "--race",
            "--json",
            "--events-out",
            events.to_str().unwrap(),
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
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<_> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON report per racer: {stdout}");
    let mut decisive = 0;
    for (line, expected_engine) in
        lines
            .iter()
            .zip(["simplified-reach", "cache-datalog", "bounded-concrete"])
    {
        let v = json::parse(line).expect("JSON report line");
        assert_eq!(v.get("engine").unwrap().as_str(), Some(expected_engine));
        let verdict = v.get("verdict").unwrap().as_str().unwrap().to_string();
        if verdict == "INTERRUPTED(cancelled)" {
            let notes = v.get("notes").unwrap().as_arr().unwrap();
            assert!(
                notes.iter().any(|n| n
                    .as_str()
                    .is_some_and(|s| s.contains("cancelled by portfolio race"))),
                "loser without a race note: {line}"
            );
        } else {
            decisive += 1;
        }
    }
    assert!(decisive >= 1, "someone must have decided: {stdout}");

    // The race event is schema-valid and the dashboard attributes the win.
    let text = std::fs::read_to_string(&events).expect("events written");
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"race\"")),
        "{text}"
    );
    let check = Command::new(BIN)
        .args(["report", "--check-schema", events.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let report = Command::new(BIN)
        .args(["report", events.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let dash = String::from_utf8_lossy(&report.stdout);
    assert!(dash.contains("portfolio races: 1"), "{dash}");
    assert!(dash.contains("first decisive :"), "{dash}");
    assert!(dash.contains("UNSAFE ×1"), "{dash}");
    std::fs::remove_file(&events).ok();
}

/// A race-wide `--timeout 0` interrupts every racer (exit 2): the race
/// shares one deadline instead of granting each engine its own.
#[test]
fn race_timeout_bounds_the_whole_race() {
    let out = Command::new(BIN)
        .args(["verify", "--race", "--timeout", "0", &example("barrier.ra")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("interrupted (deadline)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("no decisive answer"), "stdout: {stdout}");
}

/// `batch --race` races the portfolio per file: one line per input, the
/// aggregate verdicts unchanged from sequential batch mode.
#[test]
fn batch_race_keeps_verdicts_and_line_shape() {
    let dir = format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"));
    let run = |extra: &[&str]| {
        let out = Command::new(BIN)
            .arg("batch")
            .args(extra)
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "handshake is unsafe; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(|l| {
                let v = json::parse(l).expect("JSON line");
                (
                    v.get("file").unwrap().as_str().unwrap().to_string(),
                    v.get("verdict").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect::<Vec<_>>()
    };
    let raced = run(&["--race"]);
    let sequential = run(&["--all-engines"]);
    assert_eq!(raced.len(), 5);
    assert_eq!(
        raced, sequential,
        "raced batch verdicts diverged from sequential --all-engines"
    );
}
