//! Serve robustness: overload must degrade to structured rejections
//! without touching admitted work, and injected faults (an engine panic,
//! an already-spent deadline) must degrade to per-request error/unknown
//! responses while the daemon keeps serving.

use parra::obs::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn sock_path(name: &str) -> String {
    format!("{}/{name}.sock", env!("CARGO_TARGET_TMPDIR"))
}

/// A spawned daemon that is force-killed on drop, so a failing assertion
/// in a test never leaks a live daemon (which would also hold the test
/// harness's output pipes open).
struct Daemon {
    child: Option<Child>,
    sock: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_daemon(sock: &str, args: &[&str], env: &[(&str, &str)]) -> Daemon {
    let _ = std::fs::remove_file(sock);
    let mut cmd = Command::new(BIN);
    cmd.args(["serve", "--socket", sock])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("spawn parra serve");
    let daemon = Daemon {
        child: Some(child),
        sock: sock.to_string(),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if UnixStream::connect(sock).is_ok() {
            return daemon;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not open {sock} within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown_daemon(mut daemon: Daemon) {
    let stream = UnixStream::connect(&daemon.sock).expect("connect for shutdown");
    let mut w = stream.try_clone().unwrap();
    writeln!(w, r#"{{"proto":1,"type":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    let status = daemon
        .child
        .take()
        .expect("daemon still running")
        .wait()
        .expect("daemon exits");
    assert!(status.success(), "daemon exited {status}");
}

/// One request over a fresh connection.
fn request(sock: &str, line: &str) -> Value {
    let stream = UnixStream::connect(sock).expect("client connects");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("receive");
    json::parse(resp.trim()).expect("response parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Fill the admission queue past capacity: the burst gets structured
/// `overloaded` rejections, the admitted (stalled) request still returns
/// its correct verdict, and the daemon serves normally afterwards.
#[test]
fn overload_rejects_the_burst_without_touching_admitted_work() {
    let sock = sock_path("serve_overload");
    // `--max-queue 1` plus a stall injection matched against the request
    // *name*: the admitted request holds the only permit for ~400ms,
    // which is the window the burst lands in.
    let daemon = spawn_daemon(
        &sock,
        &["--max-queue", "1"],
        &[("PARRA_SERVE_INJECT_STALL", "hold-the-slot")],
    );

    // The stalled request runs on its own connection thread.
    let stalled = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            request(
                &sock,
                r#"{"proto":1,"id":"slow","type":"verify","litmus":"mp","name":"hold-the-slot"}"#,
            )
        })
    };
    // Give it time to be admitted, then burst while it holds the permit.
    std::thread::sleep(Duration::from_millis(120));
    for i in 0..3 {
        let resp = request(
            &sock,
            &format!(r#"{{"proto":1,"id":"burst-{i}","type":"verify","litmus":"sb"}}"#),
        );
        assert_eq!(
            field(&resp, "code"),
            "overloaded",
            "burst request {i} was not rejected: {resp:?}"
        );
        assert_eq!(field(&resp, "type"), "error");
    }

    // The admitted request is unaffected by the rejected burst.
    let slow = stalled.join().expect("stalled client");
    assert_eq!(field(&slow, "verdict"), "SAFE", "stalled verdict: {slow:?}");

    // And once the permit is back, the daemon serves normally.
    let after = request(
        &sock,
        r#"{"proto":1,"id":"after","type":"verify","litmus":"sb"}"#,
    );
    assert_eq!(
        field(&after, "verdict"),
        "UNSAFE",
        "post-overload: {after:?}"
    );

    let status = request(&sock, r#"{"proto":1,"id":"s","type":"status"}"#);
    let rejected = status
        .get("volatile")
        .and_then(|v| v.get("rejected"))
        .and_then(Value::as_u64)
        .expect("status carries rejection count");
    assert!(rejected >= 3, "status under-counts rejections: {status:?}");

    shutdown_daemon(daemon);
}

/// An injected engine panic degrades that request to an UNKNOWN verdict
/// with an explanatory note — and the daemon answers the next request
/// normally on the same and on fresh connections.
#[test]
fn injected_panic_degrades_one_request_and_spares_the_daemon() {
    let sock = sock_path("serve_panic");
    let daemon = spawn_daemon(&sock, &[], &[("PARRA_INJECT_PANIC", "mp")]);

    let poisoned = request(
        &sock,
        r#"{"proto":1,"id":"p","type":"verify","litmus":"mp"}"#,
    );
    assert_eq!(field(&poisoned, "type"), "result");
    assert_eq!(field(&poisoned, "verdict"), "UNKNOWN", "{poisoned:?}");
    let notes: Vec<String> = poisoned
        .get("reports")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .flat_map(|r| {
            r.get("notes")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .to_vec()
        })
        .filter_map(|n| n.as_str().map(str::to_string))
        .collect();
    assert!(
        notes.iter().any(|n| n.contains("engine panicked")),
        "no degradation note: {notes:?}"
    );

    // `sb` does not match the needle: served normally, right after.
    let healthy = request(
        &sock,
        r#"{"proto":1,"id":"h","type":"verify","litmus":"sb"}"#,
    );
    assert_eq!(field(&healthy, "verdict"), "UNSAFE", "{healthy:?}");
    shutdown_daemon(daemon);
}

/// An injected spent deadline yields a structured interrupted response
/// (never a hang, never a wrong verdict) and leaves the daemon healthy.
#[test]
fn injected_deadline_interrupts_one_request_and_spares_the_daemon() {
    let sock = sock_path("serve_deadline");
    // The needle matches the explicit request *name*, so the later plain
    // `rcu` request is untouched.
    let daemon = spawn_daemon(&sock, &[], &[("PARRA_INJECT_DEADLINE", "cut-me")]);

    let cut = request(
        &sock,
        r#"{"proto":1,"id":"d","type":"verify","litmus":"rcu","name":"cut-me"}"#,
    );
    // The aggregate degrades to UNKNOWN (mirroring `parra batch`), with
    // the interruption reason surfaced both at top level and in the
    // engine report.
    assert_eq!(field(&cut, "type"), "result");
    assert_eq!(field(&cut, "verdict"), "UNKNOWN", "{cut:?}");
    assert_eq!(field(&cut, "interrupted"), "deadline", "{cut:?}");
    let report_verdict = cut
        .get("reports")
        .and_then(Value::as_arr)
        .and_then(|rs| rs.first())
        .map(|r| field(r, "verdict").to_string());
    assert_eq!(
        report_verdict.as_deref(),
        Some("INTERRUPTED(deadline)"),
        "{cut:?}"
    );

    let healthy = request(
        &sock,
        r#"{"proto":1,"id":"h","type":"verify","litmus":"rcu"}"#,
    );
    assert_eq!(field(&healthy, "verdict"), "SAFE", "{healthy:?}");
    shutdown_daemon(daemon);
}

/// A verify request as large as a frame may be — a program padded with
/// whitespace to just under `MAX_FRAME_BYTES` — gets its one structured
/// response promptly, the first time and again as a hit by its text.
/// The request line is parsed before admission counts it, so a parser
/// slower than linear in a string's length would stall the connection
/// outside every bound the daemon enforces.
#[test]
fn a_program_just_under_the_frame_bound_is_answered_promptly() {
    let sock = sock_path("serve_frame");
    let daemon = spawn_daemon(&sock, &[], &[]);
    let program = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/systems/handshake.ra"
    ))
    .expect("example exists");
    let line = |padding: usize| {
        let mut w = parra::obs::json::ObjWriter::new();
        w.num_field("proto", 1);
        w.str_field("id", "big");
        w.str_field("type", "verify");
        w.str_field("program", &format!("{program}{}", " ".repeat(padding)));
        w.finish()
    };
    let frame = parra::serve::proto::MAX_FRAME_BYTES;
    let big = line(frame - 1 - line(0).len());
    assert_eq!(big.len(), frame - 1);
    for cached in [0, 1] {
        let start = Instant::now();
        let resp = request(&sock, &big);
        let took = start.elapsed();
        assert_eq!(field(&resp, "type"), "result", "{resp:?}");
        assert_eq!(field(&resp, "verdict"), "UNSAFE", "{resp:?}");
        let flag = resp
            .get("volatile")
            .and_then(|v| v.get("cached"))
            .and_then(Value::as_u64);
        assert_eq!(flag, Some(cached));
        assert!(took < Duration::from_secs(10), "answered in {took:?}");
    }
    shutdown_daemon(daemon);
}
