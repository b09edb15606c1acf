//! Concurrent-client determinism: N clients hammering one daemon over a
//! Unix socket, with a deterministically shuffled litmus workload, must
//! get responses whose canonical projections are byte-identical to a
//! sequential single-client run of the same requests against a fresh
//! daemon. Interleaving, connection assignment, and cache temperature
//! are not allowed to leak into any deterministic response field.
//!
//! (Raced selections are excluded by construction: race-loser notes name
//! the wall-clock winner, so they are volatile. The campaign layer makes
//! the same exclusion for its canonical result comparison.)

use parra::obs::json::{self, Value};
use parra::serve::canonical_response;
use parra_litmus::all;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn sock_path(name: &str) -> String {
    format!("{}/{name}.sock", env!("CARGO_TARGET_TMPDIR"))
}

/// A spawned daemon killed on drop, so an assertion failure anywhere in
/// the test never leaks a live server holding the harness's pipes open.
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

/// Spawns a socket daemon and waits until it accepts connections.
fn spawn_daemon(sock: &str, args: &[&str]) -> Daemon {
    let _ = std::fs::remove_file(sock);
    let child = Command::new(BIN)
        .args(["serve", "--socket", sock])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parra serve");
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
    let mut child = daemon.child.take().expect("daemon still running");
    let stream = UnixStream::connect(&daemon.sock).expect("connect for shutdown");
    let mut w = stream.try_clone().unwrap();
    writeln!(w, r#"{{"proto":1,"type":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited {status}");
}

/// Sends requests over one connection and returns `id -> response`.
fn run_client(sock: &str, requests: &[(String, String)]) -> BTreeMap<String, String> {
    let stream = UnixStream::connect(sock).expect("client connects");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut responses = BTreeMap::new();
    for (id, line) in requests {
        writeln!(writer, "{line}").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("receive");
        assert!(!resp.trim().is_empty(), "daemon closed on request {id}");
        let v = json::parse(resp.trim()).expect("response parses");
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(id.as_str()),
            "response answers a different request"
        );
        responses.insert(id.clone(), resp.trim_end().to_string());
    }
    responses
}

/// The workload: every litmus benchmark twice (so both cache-cold and
/// cache-warm requests occur under contention), shuffled by an FNV-based
/// sort key so the order is arbitrary-looking but build-stable.
fn workload() -> Vec<(String, String)> {
    let mut keyed: Vec<(u64, String, String)> = Vec::new();
    for rep in 0..2u64 {
        for bench in all() {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in bench.name.bytes().chain([rep as u8]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let id = format!("{}#{rep}", bench.name);
            let line = format!(
                r#"{{"proto":1,"id":"{id}","type":"verify","litmus":"{}"}}"#,
                bench.name
            );
            keyed.push((h, id, line));
        }
    }
    keyed.sort();
    keyed.into_iter().map(|(_, id, line)| (id, line)).collect()
}

#[test]
fn concurrent_clients_get_the_sequential_responses() {
    let work = workload();

    // Sequential baseline: one client, one fresh daemon, program order.
    let seq_sock = sock_path("serve_seq");
    let daemon = spawn_daemon(&seq_sock, &[]);
    let sequential = run_client(&seq_sock, &work);
    shutdown_daemon(daemon);
    assert_eq!(sequential.len(), work.len());

    // Concurrent run: the same workload striped across 4 clients, each
    // on its own connection, submitting simultaneously.
    let conc_sock = sock_path("serve_conc");
    let daemon = spawn_daemon(&conc_sock, &[]);
    let chunks: Vec<Vec<(String, String)>> = (0..4)
        .map(|c| work.iter().skip(c).step_by(4).cloned().collect::<Vec<_>>())
        .collect();
    let concurrent: BTreeMap<String, String> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let sock = conc_sock.clone();
                s.spawn(move || run_client(&sock, chunk))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    shutdown_daemon(daemon);
    assert_eq!(concurrent.len(), work.len());

    // Modulo the volatile section (timing, cache temperature, in-flight
    // depth), every response must be byte-identical across the runs.
    for (id, seq_resp) in &sequential {
        let conc_resp = &concurrent[id];
        assert_eq!(
            canonical_response(conc_resp).expect("concurrent response canonicalizes"),
            canonical_response(seq_resp).expect("sequential response canonicalizes"),
            "{id}: concurrent response diverged from the sequential run"
        );
    }
}
