//! Serve/CLI parity: a verdict must not depend on *how* the verifier is
//! invoked. Every litmus benchmark goes through a spawned `parra serve
//! --stdio` daemon and through the `Verifier` API directly; the
//! canonical response projections (verdicts, notes,
//! witnesses, thread bounds — everything except timing) must be
//! byte-identical, the raced aggregate must match a direct race, and the
//! daemon's `--events-out` stream must carry exactly the deterministic
//! event fields a direct recorded run produces.

use parra::obs::json::{self, ObjWriter, Value};
use parra::obs::{Level, Recorder};
use parra::prelude::*;
use parra::serve::canonical_response;
use parra_litmus::all;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn tmp(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

/// A `parra serve --stdio` daemon as a child process: one request line
/// in, one response line out.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg("--stdio")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn parra serve --stdio");
        let stdin = child.stdin.take().expect("daemon stdin");
        let stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).expect("read response");
        assert!(!resp.trim().is_empty(), "daemon closed mid-conversation");
        resp.trim_end().to_string()
    }

    fn shutdown(mut self) {
        let _ = writeln!(self.stdin, r#"{{"proto":1,"type":"shutdown"}}"#);
        let mut ack = String::new();
        let _ = self.stdout.read_line(&mut ack);
        drop(self.stdin);
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exited {status}");
    }
}

/// Renders a direct `run_selection` outcome in the serve response shape,
/// so `canonical_response` projects both sides onto the same bytes.
fn direct_response(name: &str, engine_label: &str, sel: &parra::core::SelectionOutcome) -> String {
    let mut w = ObjWriter::new();
    w.num_field("proto", parra::serve::PROTO_VERSION);
    w.str_field("id", name);
    w.str_field("type", "result");
    w.str_field("file", name);
    w.str_field("engine", engine_label);
    w.str_field("verdict", &sel.verdict.to_string());
    match sel.interrupted {
        Some(r) if !sel.verdict.is_decided() => w.str_field("interrupted", r.as_str()),
        _ => w.raw_field("interrupted", "null"),
    }
    w.raw_field("error", "null");
    let reports: Vec<String> = sel.results.iter().map(|r| r.report.to_json()).collect();
    w.raw_field("reports", &format!("[{}]", reports.join(",")));
    w.raw_field("volatile", "{}");
    w.finish()
}

/// The whole litmus suite through the daemon and through the API:
/// canonical responses must be byte-identical. Each
/// benchmark is also requested twice so the warm (verifier-cache hit)
/// response is checked against the same direct run — the warm-cache
/// contract says a cache can never change a deterministic field.
#[test]
fn served_responses_match_direct_runs_on_the_whole_suite() {
    let mut daemon = Daemon::spawn(&[]);
    for bench in all() {
        let direct = {
            let v = Verifier::new(&bench.system, VerifierOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            v.run_selection(&[EngineId::SimplifiedReach], false)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
        };
        let expected =
            canonical_response(&direct_response(bench.name, "simplified-reach", &direct))
                .expect("direct response canonicalizes");
        let req = format!(
            r#"{{"proto":1,"id":"{0}","type":"verify","litmus":"{0}"}}"#,
            bench.name
        );
        for pass in ["cold", "warm"] {
            let served = daemon.request(&req);
            let got = canonical_response(&served).unwrap_or_else(|e| {
                panic!("{} ({pass}): response does not parse: {e}", bench.name)
            });
            assert_eq!(
                got, expected,
                "{} ({pass}): served response diverged from the direct run",
                bench.name
            );
        }
    }
    daemon.shutdown();
}

/// Raced requests: which engine wins is wall-clock-bound, so losers'
/// race notes and interruption metadata are volatile — but the aggregate
/// verdict is not, and must equal a direct race over the same portfolio.
#[test]
fn raced_serve_verdicts_match_the_direct_race_aggregate() {
    let mut daemon = Daemon::spawn(&["--race"]);
    for bench in all() {
        let direct = {
            let v = Verifier::new(&bench.system, VerifierOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            v.run_selection(&EngineId::ALL, true)
                .unwrap_or_else(|e| panic!("{}: race disagreement: {e}", bench.name))
        };
        let served = daemon.request(&format!(
            r#"{{"proto":1,"id":"{0}","type":"verify","litmus":"{0}"}}"#,
            bench.name
        ));
        let v = json::parse(&served).expect("response parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("result"));
        assert_eq!(v.get("engine").and_then(Value::as_str), Some("race"));
        assert_eq!(
            v.get("verdict").and_then(Value::as_str),
            Some(direct.verdict.to_string().as_str()),
            "{}: raced serve verdict diverged from the direct race",
            bench.name
        );
        let reports = v.get("reports").and_then(Value::as_arr).expect("reports");
        assert_eq!(reports.len(), EngineId::ALL.len(), "{}", bench.name);
    }
    daemon.shutdown();
}

/// The daemon's `--events-out` stream must carry, per request, exactly
/// the deterministic event fields (`seq`, `scope`, `kind`, `fields`,
/// and the `file` attribution) that a direct recorded run of the same
/// benchmark renders — the flight-recorder contract, unchanged by the
/// serve transport.
#[test]
fn served_event_stream_matches_a_direct_recorded_run() {
    let picks = ["mp", "sb", "rcu"];
    let path = tmp("serve_parity_events.jsonl");
    let mut daemon = Daemon::spawn(&["--events-out", &path]);
    for name in picks {
        daemon.request(&format!(
            r#"{{"proto":1,"id":"{name}","type":"verify","litmus":"{name}"}}"#
        ));
    }
    daemon.shutdown();

    let served = std::fs::read_to_string(&path).expect("event log written");
    assert!(!served.is_empty(), "daemon wrote no events");
    let mut served_lines = served.lines();

    for name in picks {
        let bench = parra_litmus::by_name(name).expect("benchmark exists");
        let rec = Recorder::enabled(Level::Summary);
        let options = VerifierOptions::default();
        let v =
            parra::core::verify::Verifier::new_with_recorder(&bench.system, options, rec.clone())
                .expect("direct verifier");
        v.run_selection(&[EngineId::SimplifiedReach], false)
            .expect("direct run");
        let direct = rec.render_events_jsonl(&[("file", name)]);
        for (i, expect) in direct.lines().enumerate() {
            let got = served_lines
                .next()
                .unwrap_or_else(|| panic!("{name}: event stream ended at event {i}"));
            assert_eq!(
                deterministic_key(got),
                deterministic_key(expect),
                "{name}: event {i} diverged between serve and direct"
            );
        }
    }
    assert_eq!(
        served_lines.next(),
        None,
        "daemon emitted more events than the direct runs"
    );

    // And the stream is a valid flight-recorder log end to end.
    let out = Command::new(BIN)
        .args(["report", "--check-schema", &path])
        .output()
        .expect("report runs");
    assert!(
        out.status.success(),
        "check-schema failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The deterministic projection of one event line: everything except
/// the wall-clock timestamp and the `volatile` section.
fn deterministic_key(line: &str) -> (u64, String, String, Value, String) {
    let v = json::parse(line).expect("event line is valid JSON");
    (
        v.get("seq").unwrap().as_u64().unwrap(),
        v.get("scope").unwrap().as_str().unwrap().to_string(),
        v.get("kind").unwrap().as_str().unwrap().to_string(),
        v.get("fields").unwrap().clone(),
        v.get("file")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
    )
}
