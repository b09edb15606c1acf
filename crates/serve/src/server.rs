//! The serve engine: request execution over a shared warm cache, behind
//! an admission gate, with per-request isolation.
//!
//! [`Server`] is transport-agnostic — [`Server::process_line`] maps one
//! request line to one response line, and [`Server::handle_stream`] runs
//! that loop over any `BufRead`/`Write` pair. The `parra serve` binary
//! wires it to a Unix socket and `--stdio`; the tests, the
//! `serve-roundtrip` fuzz oracle, and `bench_serve` drive it in-process.
//!
//! ## Execution contract
//!
//! * **Warm cache.** All requests share one [`VerifierCache`] of
//!   prepared verifiers, keyed on canonical program text + options
//!   fingerprint; each verifier keeps its makeP template, guesses and
//!   Datalog join plans. A warm request skips classify/unroll/
//!   goal-transform: its reports carry no `parse` or `prepare` phase,
//!   and its `cache-datalog` run neither guesses nor plans again once an
//!   earlier request's run did. A `program` text that reached an entry
//!   before is an alias of it, so sending the same text again skips the
//!   parse and the canonical print as well; only a new text is parsed,
//!   timed as the cold report's `parse` phase. The cache cannot change a
//!   verdict, a note, or a deterministic event field — that is the
//!   serve/CLI parity contract `tests/serve_parity.rs` enforces.
//! * **Admission.** Each request takes an [`AdmissionGate`] permit
//!   before touching a verifier; at capacity (queue depth, or the live
//!   heap watermark when the binary's tracking allocator is installed)
//!   the request is rejected with a structured `overloaded` error and
//!   zero effect on admitted work.
//! * **Budgets anchor at admission.** A request's `timeout_ms` (or the
//!   daemon default timeout) becomes an absolute deadline at the moment
//!   the permit is granted — never at daemon start or config parse.
//! * **One selection path.** A request's engines run through
//!   `Verifier::run_selection`, the path `parra verify`, `batch` and
//!   `campaign` take; the response renders its `SelectionOutcome` — the
//!   verdict, `reported_interruption()` and one report per engine — as a
//!   batch line does.
//! * **Isolation.** Engines run through the portfolio's panic-contained
//!   paths (`run_isolated` / race-job containment) under a per-request
//!   [`CancelToken`]; anything that still unwinds is caught here and
//!   degraded to an `error` response. The daemon answers the next
//!   request normally either way.
//!
//! ## Test hooks
//!
//! The daemon honors the workspace's standard fault-injection variables,
//! matched against the request *name* (the `file` attribution field):
//! `PARRA_INJECT_PANIC` panics inside the first selected engine,
//! `PARRA_INJECT_DEADLINE` admits the request with an already-spent
//! deadline, and `PARRA_SERVE_INJECT_STALL` holds the admission permit
//! for a beat before running — how the overload tests fill the queue
//! deterministically.

use crate::proto::{self, ErrorCode, ProtoError, Request, Source, VerifyRequest, PROTO_VERSION};
use parra_core::engine::injected;
use parra_core::verify::{selection_from_label, EngineId, VerifierOptions};
use parra_core::{ParsedSystem, Verifier, VerifierCache};
use parra_limits::{AdmissionGate, CancelToken};
use parra_obs::json::ObjWriter;
use parra_obs::{Level, Recorder};
use parra_program::parser::parse_system;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long [`Server::handle_stream`] lets a `PARRA_SERVE_INJECT_STALL`
/// request hold its permit before running (long enough for a test's
/// overload burst to arrive, short enough not to slow the suite).
const INJECT_STALL: Duration = Duration::from_millis(400);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Default verifier options for requests that do not override them.
    /// `timeout` here is the per-request default window (anchored at
    /// each request's admission, despite being a plain duration).
    pub options: VerifierOptions,
    /// Default engine selection label (`simplified-reach`, …,
    /// `all-engines`, `race`).
    pub engine: String,
    /// Max admitted-but-unfinished requests (the admission queue depth).
    pub max_in_flight: usize,
    /// Reject new work once live heap reaches this many bytes (enforced
    /// only under the binary's tracking allocator).
    pub memory_watermark: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            options: VerifierOptions::default(),
            engine: EngineId::SimplifiedReach.to_string(),
            max_in_flight: 64,
            memory_watermark: None,
        }
    }
}

/// The long-lived verification service. See the module docs for the
/// execution contract.
pub struct Server {
    cfg: ServeConfig,
    gate: AdmissionGate,
    verifiers: VerifierCache,
    served: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    shutdown: AtomicBool,
    events: Option<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.cfg)
            .field("verifiers", &self.verifiers)
            .field("served", &self.served.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// A fresh server with empty caches.
    pub fn new(cfg: ServeConfig) -> Server {
        let gate = AdmissionGate::new(cfg.max_in_flight, cfg.memory_watermark);
        Server {
            cfg,
            gate,
            verifiers: VerifierCache::new(),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            events: None,
        }
    }

    /// Attaches an event sink: every request is then recorded and its
    /// flight-recorder events (with a `file` attribution extra carrying
    /// the request name) are appended to the sink — the stream `parra
    /// report` ingests.
    pub fn with_events_sink(mut self, sink: Box<dyn Write + Send>) -> Server {
        self.events = Some(Mutex::new(sink));
        self
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests answered with a `result`/`batch` response so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The admission gate (shared with every connection handler clone).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// The prepared-verifier cache counters, `(hits, misses)`.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.verifiers.hits(), self.verifiers.misses())
    }

    /// Maps one request line to one response line. Blank lines map to
    /// `None`; everything else — including unparseable garbage — gets
    /// exactly one structured response, and this function never panics.
    pub fn process_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let request = match proto::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Some(proto::error_response(&e));
            }
        };
        let response = match request {
            Request::Status { id } => self.status_response(&id),
            Request::Shutdown { id } => {
                self.shutdown.store(true, Ordering::Release);
                let mut w = ObjWriter::new();
                w.num_field("proto", PROTO_VERSION);
                w.str_field("id", &id);
                w.str_field("type", "ok");
                w.finish()
            }
            Request::Verify(req) => self.contained(&req.id, || {
                let mut w = ObjWriter::new();
                w.num_field("proto", PROTO_VERSION);
                w.str_field("id", &req.id);
                match self.admit_and_run(&req) {
                    Ok(render) => {
                        w.str_field("type", "result");
                        render(&mut w);
                        self.served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        w.str_field("type", "error");
                        w.str_field("code", e.code.as_str());
                        w.str_field("error", &e.message);
                        w.str_field("file", &req.name);
                    }
                }
                w.finish()
            }),
            Request::Batch { id, items } => self.contained(&id, || {
                let mut w = ObjWriter::new();
                w.num_field("proto", PROTO_VERSION);
                w.str_field("id", &id);
                w.str_field("type", "batch");
                let results: Vec<String> = items
                    .iter()
                    .map(|item| {
                        let mut one = ObjWriter::new();
                        match self.admit_and_run(item) {
                            Ok(render) => {
                                render(&mut one);
                                self.served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                self.errors.fetch_add(1, Ordering::Relaxed);
                                one.str_field("code", e.code.as_str());
                                one.str_field("error", &e.message);
                                one.str_field("file", &item.name);
                            }
                        }
                        one.finish()
                    })
                    .collect();
                w.raw_field("results", &format!("[{}]", results.join(",")));
                w.finish()
            }),
        };
        Some(response)
    }

    /// Runs the request/response loop over a stream until EOF or
    /// shutdown: one response line per request line, flushed eagerly.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors (a vanished peer); protocol
    /// problems are answered in-band, never surfaced here.
    pub fn handle_stream<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            if let Some(response) = self.process_line(&line) {
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            if self.is_shutdown() {
                break;
            }
        }
        Ok(())
    }

    /// Last-resort panic containment around a whole request: the
    /// engine-level paths already degrade panics to `Unknown` verdicts,
    /// so anything reaching this catch is a daemon bug — answered as a
    /// structured `internal` error (never blamed on the client's
    /// program) so the daemon (and the connection) live on.
    fn contained(&self, id: &str, f: impl FnOnce() -> String) -> String {
        parra_core::catch_panic(f).unwrap_or_else(|msg| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            self.errors.fetch_add(1, Ordering::Relaxed);
            proto::error_response(&ProtoError {
                code: ErrorCode::Internal,
                message: format!("request processing panicked ({msg}); verdict unavailable"),
                id: Some(id.to_string()),
            })
        })
    }

    fn status_response(&self, id: &str) -> String {
        let mut w = ObjWriter::new();
        w.num_field("proto", PROTO_VERSION);
        w.str_field("id", id);
        w.str_field("type", "status");
        w.num_field("capacity", self.gate.capacity() as u64);
        let (hits, misses) = self.cache_counters();
        let mut vol = ObjWriter::new();
        vol.num_field("served", self.served.load(Ordering::Relaxed));
        vol.num_field("errors", self.errors.load(Ordering::Relaxed));
        vol.num_field("panics", self.panics.load(Ordering::Relaxed));
        vol.num_field("admitted", self.gate.admitted());
        vol.num_field("rejected", self.gate.rejected());
        vol.num_field("in_flight", self.gate.in_flight() as u64);
        vol.num_field("cache_hits", hits);
        vol.num_field("cache_misses", misses);
        vol.num_field("cache_entries", self.verifiers.len() as u64);
        vol.num_field("cache_aliases", self.verifiers.aliases() as u64);
        w.raw_field("volatile", &vol.finish());
        w.finish()
    }

    /// Reads the request's system through the timed `parse` path, so a
    /// cold request's first report carries `parse` as `parra verify`'s
    /// does.
    fn resolve_system(
        &self,
        req: &VerifyRequest,
        rec: &Recorder,
    ) -> Result<ParsedSystem, ProtoError> {
        Verifier::parse_timed(
            || match &req.source {
                Source::Litmus(name) => {
                    parra_litmus::by_name(name)
                        .map(|b| b.system)
                        .ok_or_else(|| ProtoError {
                            code: ErrorCode::BadField,
                            message: format!("unknown litmus benchmark `{name}`"),
                            id: Some(req.id.clone()),
                        })
                }
                Source::Program(text) => parse_system(text).map_err(|e| ProtoError {
                    code: ErrorCode::BadProgram,
                    message: e.to_string(),
                    id: Some(req.id.clone()),
                }),
            },
            rec,
        )
    }

    /// The options one request runs under: the daemon's, with the
    /// request's overrides applied. The request window (explicit or the
    /// daemon default) is left in `timeout` until [`anchor_window`]
    /// turns it into a deadline at admission.
    fn request_options(&self, req: &VerifyRequest, first_engine: EngineId) -> VerifierOptions {
        let mut options = self.cfg.options.clone();
        if let Some(u) = req.unroll {
            options.unroll_dis = Some(u);
        }
        if let Some(m) = req.memory {
            options.memory_budget = Some(m);
        }
        if let Some(ms) = req.timeout_ms {
            options.timeout = Some(Duration::from_millis(ms));
        }
        if injected("PARRA_INJECT_PANIC", &req.name).is_some() {
            options.fail_point_panic = Some(first_engine);
        }
        options.cancel = CancelToken::new();
        options
    }

    /// Admits and executes one verify request. Returns a closure that
    /// writes the result fields (everything after `type`) so the caller
    /// can embed them in a top-level response or a batch item alike.
    ///
    /// A program text that reached a cache entry before is not parsed
    /// again: its alias finds the prepared verifier. Any other request
    /// is parsed before admission, so a bad program is reported as
    /// `bad-program` even when the daemon is full.
    #[allow(clippy::type_complexity)]
    fn admit_and_run(
        &self,
        req: &VerifyRequest,
    ) -> Result<Box<dyn FnOnce(&mut ObjWriter)>, ProtoError> {
        let label = req
            .engine
            .clone()
            .unwrap_or_else(|| self.cfg.engine.clone());
        let (engines, race) = selection_from_label(&label).map_err(|message| ProtoError {
            code: ErrorCode::BadField,
            message,
            id: Some(req.id.clone()),
        })?;
        let mut options = self.request_options(req, engines[0]);
        let rec = if self.events.is_some() {
            Recorder::enabled(Level::Summary)
        } else {
            Recorder::disabled()
        };
        let text_key = match &req.source {
            Source::Program(text) => Some(VerifierCache::text_key(text, &options)),
            Source::Litmus(_) => None,
        };
        let known = text_key
            .as_deref()
            .is_some_and(|key| self.verifiers.knows_text(key));
        let parsed = if known {
            None
        } else {
            Some(self.resolve_system(req, &rec)?)
        };

        // Admission: the permit is held (and the deadline window opens)
        // from here until the response is assembled.
        let _permit = self.gate.try_admit().map_err(|reason| ProtoError {
            code: ErrorCode::Overloaded,
            message: reason.to_string(),
            id: Some(req.id.clone()),
        })?;
        let admitted = Instant::now();
        if injected("PARRA_SERVE_INJECT_STALL", &req.name).is_some() {
            std::thread::sleep(INJECT_STALL);
        }
        anchor_window(&mut options, admitted, &req.name);

        let by_text = match &text_key {
            Some(key) if known => self
                .verifiers
                .get_by_text(key, options.clone(), rec.clone()),
            _ => None,
        };
        let (verifier, cached) = match by_text {
            Some(verifier) => (verifier, true),
            None => {
                // A known text whose alias a cache reset dropped since
                // parses here; it parsed before, so it parses again.
                let parsed = match parsed {
                    Some(parsed) => parsed,
                    None => self.resolve_system(req, &rec)?,
                };
                self.verifiers
                    .get_or_prepare(&parsed, text_key.as_deref(), options, rec.clone())
                    .map_err(|e| ProtoError {
                        code: ErrorCode::BadProgram,
                        message: e.to_string(),
                        id: Some(req.id.clone()),
                    })?
            }
        };
        let sel = verifier
            .run_selection(&engines, race)
            .map_err(|message| ProtoError {
                code: ErrorCode::Disagreement,
                message,
                id: Some(req.id.clone()),
            })?;
        let duration_us = admitted.elapsed().as_micros() as u64;

        if let Some(sink) = &self.events {
            let rendered = rec.render_events_jsonl(&[("file", &req.name)]);
            let mut sink = sink.lock().expect("events sink poisoned");
            let _ = sink.write_all(rendered.as_bytes());
            let _ = sink.flush();
        }

        let name = req.name.clone();
        let in_flight = self.gate.in_flight() as u64;
        Ok(Box::new(move |w: &mut ObjWriter| {
            w.str_field("file", &name);
            w.str_field("engine", &label);
            w.str_field("verdict", &sel.verdict.to_string());
            match sel.reported_interruption() {
                Some(r) => w.str_field("interrupted", r.as_str()),
                None => w.raw_field("interrupted", "null"),
            }
            w.raw_field("error", "null");
            let reports: Vec<String> = sel.results.iter().map(|r| r.to_json()).collect();
            w.raw_field("reports", &format!("[{}]", reports.join(",")));
            let mut vol = ObjWriter::new();
            vol.num_field("cached", u64::from(cached));
            vol.num_field("duration_us", duration_us);
            vol.num_field("in_flight", in_flight);
            w.raw_field("volatile", &vol.finish());
        }))
    }
}

/// Opens a request's window at its admission: the relative `timeout`
/// becomes an absolute deadline and is cleared, so nothing re-anchors it
/// at run time.
fn anchor_window(options: &mut VerifierOptions, admitted: Instant, name: &str) {
    options.deadline_at = options.timeout.take().map(|d| admitted + d);
    if injected("PARRA_INJECT_DEADLINE", name).is_some() {
        options.deadline_at = Some(admitted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_obs::json::{self, Value};

    fn server() -> Server {
        Server::new(ServeConfig::default())
    }

    fn verdict_of(response: &str) -> String {
        let v = json::parse(response).expect("response parses");
        v.get("verdict")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no verdict in {response}"))
            .to_string()
    }

    fn litmus_text(name: &str) -> String {
        parra_program::pretty::system_to_string(&parra_litmus::by_name(name).unwrap().system)
    }

    fn program_request(id: &str, text: &str) -> String {
        let mut w = ObjWriter::new();
        w.num_field("proto", PROTO_VERSION);
        w.str_field("type", "verify");
        w.str_field("id", id);
        w.str_field("program", text);
        w.finish()
    }

    /// The phases and `cached` flag of a one-report response.
    fn phases_and_cached(response: &str) -> (Vec<String>, u64) {
        let v = json::parse(response).expect("response parses");
        let report = &v.get("reports").and_then(Value::as_arr).expect("reports")[0];
        let phases = report
            .get("phases")
            .and_then(Value::as_obj)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        let cached = v
            .get("volatile")
            .and_then(|vol| vol.get("cached"))
            .and_then(Value::as_u64)
            .expect("cached flag");
        (phases, cached)
    }

    /// A cold program request parses through the timed path, so its
    /// report carries `parse` and `prepare`; a hit by the same text (an
    /// alias) or by another formatting of it (the canonical key) carries
    /// neither.
    #[test]
    fn a_cold_program_reports_its_parse_and_a_hit_reports_none() {
        let s = server().with_events_sink(Box::new(std::io::sink()));
        let text = litmus_text("mp");
        let cold = s.process_line(&program_request("c", &text)).unwrap();
        let (phases, cached) = phases_and_cached(&cold);
        assert_eq!(cached, 0);
        for phase in ["parse", "prepare", "search"] {
            assert!(phases.iter().any(|p| p == phase), "cold: {phases:?}");
        }
        let reformatted = text.replace('\n', "\n\n    ");
        for (pass, text) in [("alias", &text), ("reformatted", &reformatted)] {
            let warm = s.process_line(&program_request(pass, text)).unwrap();
            let (phases, cached) = phases_and_cached(&warm);
            assert_eq!(cached, 1, "{pass}");
            assert!(
                !phases.iter().any(|p| p == "parse" || p == "prepare"),
                "{pass}: {phases:?}"
            );
            assert_eq!(
                proto::canonical_response(&cold).unwrap(),
                proto::canonical_response(&warm).unwrap().replace(pass, "c"),
            );
        }
        assert_eq!(s.cache_counters(), (2, 1));
    }

    #[test]
    fn litmus_request_round_trips_and_warms_the_cache() {
        let s = server();
        let line = r#"{"proto":1,"type":"verify","id":"a","litmus":"mp"}"#;
        let cold = s.process_line(line).expect("response");
        assert_eq!(verdict_of(&cold), "SAFE");
        let warm = s.process_line(line).expect("response");
        assert_eq!(verdict_of(&warm), "SAFE");
        assert_eq!(s.cache_counters(), (1, 1));
        // Identical modulo the volatile section (cached flag, timing).
        assert_eq!(
            proto::canonical_response(&cold).unwrap(),
            proto::canonical_response(&warm).unwrap()
        );
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn garbage_gets_a_structured_error_and_the_daemon_lives_on() {
        let s = server();
        for bad in [
            "garbage",
            r#"{"proto":1,"type":"verify","id":"x","litmus":"no-such-benchmark"}"#,
            r#"{"proto":1,"type":"verify","id":"y","program":"this is not a program"}"#,
            r#"{"proto":7,"type":"verify"}"#,
        ] {
            let resp = s.process_line(bad).expect("response");
            let v = json::parse(&resp).expect("error response parses");
            assert_eq!(v.get("type").and_then(Value::as_str), Some("error"));
            assert!(v.get("code").and_then(Value::as_str).is_some());
        }
        // Still healthy afterwards.
        let ok = s
            .process_line(r#"{"proto":1,"type":"verify","id":"z","litmus":"sb"}"#)
            .expect("response");
        assert_eq!(verdict_of(&ok), "UNSAFE");
    }

    #[test]
    fn batch_and_status_and_shutdown() {
        let s = server();
        let resp = s
            .process_line(
                r#"{"proto":1,"type":"batch","id":"b","items":[{"litmus":"mp"},{"litmus":"sb"},{"litmus":"no-such"}]}"#,
            )
            .expect("response");
        let v = json::parse(&resp).expect("batch response parses");
        let results = v.get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].get("verdict").and_then(Value::as_str),
            Some("SAFE")
        );
        assert_eq!(
            results[1].get("verdict").and_then(Value::as_str),
            Some("UNSAFE")
        );
        assert_eq!(
            results[2].get("code").and_then(Value::as_str),
            Some("bad-field")
        );

        let status = s
            .process_line(r#"{"proto":1,"type":"status","id":"s"}"#)
            .expect("response");
        let v = json::parse(&status).expect("status parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("status"));
        let vol = |v: &Value, key: &str| {
            v.get("volatile")
                .and_then(|vol| vol.get(key))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("status has no volatile `{key}`"))
        };
        // Two litmus entries; a request by name adds no alias.
        assert_eq!(vol(&v, "cache_entries"), 2);
        assert_eq!(vol(&v, "cache_aliases"), 0);

        // A third program's text twice: one entry, one alias, one hit.
        let line = program_request("t", &litmus_text("rcu"));
        s.process_line(&line).expect("response");
        s.process_line(&line).expect("response");
        let v = json::parse(
            &s.process_line(r#"{"proto":1,"type":"status","id":"s2"}"#)
                .unwrap(),
        )
        .expect("status parses");
        assert_eq!(vol(&v, "cache_entries"), 3);
        assert_eq!(vol(&v, "cache_aliases"), 1);
        assert_eq!((vol(&v, "cache_hits"), vol(&v, "cache_misses")), (1, 3));

        assert!(!s.is_shutdown());
        let bye = s
            .process_line(r#"{"proto":1,"type":"shutdown","id":"q"}"#)
            .expect("response");
        assert!(json::parse(&bye).is_ok());
        assert!(s.is_shutdown());
    }

    #[test]
    fn handle_stream_answers_every_line_in_order() {
        let s = server();
        let input = concat!(
            r#"{"proto":1,"type":"verify","id":"1","litmus":"mp"}"#,
            "\n\n",
            "garbage\n",
            r#"{"proto":1,"type":"shutdown","id":"2"}"#,
            "\n",
            r#"{"proto":1,"type":"verify","id":"never","litmus":"rcu"}"#,
            "\n",
        );
        let mut out = Vec::new();
        s.handle_stream(input.as_bytes(), &mut out).expect("stream");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // verify + garbage error + shutdown ack; the post-shutdown
        // request is never read.
        assert_eq!(lines.len(), 3, "got: {out}");
        let ids: Vec<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .expect("line parses")
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(ids, ["1", "", "2"]);
    }

    /// A request carrying `threads` (older clients send one) gets the
    /// same response as the request without it, each on a fresh daemon.
    #[test]
    fn a_threads_field_is_ignored() {
        let line = |extra: &str| {
            format!(
                r#"{{"proto":1,"type":"verify","id":"t","litmus":"sb","engine":"all-engines"{extra}}}"#
            )
        };
        let plain = server().process_line(&line("")).expect("response");
        let with = server()
            .process_line(&line(r#","threads":4"#))
            .expect("response");
        assert_eq!(verdict_of(&with), "UNSAFE");
        assert_eq!(
            proto::canonical_response(&plain).unwrap(),
            proto::canonical_response(&with).unwrap()
        );
    }

    #[test]
    fn a_panic_inside_the_daemon_is_internal_not_bad_program() {
        let s = server();
        let resp = s.contained("p", || panic!("daemon bug"));
        let v = json::parse(&resp).expect("error response parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("internal"));
        assert_eq!(v.get("id").and_then(Value::as_str), Some("p"));
        assert_eq!(s.panics.load(Ordering::Relaxed), 1);
        assert_eq!(s.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_rejects_when_full_without_touching_served_work() {
        let s = Server::new(ServeConfig {
            max_in_flight: 1,
            ..Default::default()
        });
        let _held = s.gate().try_admit().expect("fill the only slot");
        let resp = s
            .process_line(r#"{"proto":1,"type":"verify","id":"o","litmus":"rcu"}"#)
            .expect("response");
        let v = json::parse(&resp).expect("parses");
        assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
        drop(_held);
        let resp = s
            .process_line(r#"{"proto":1,"type":"verify","id":"o2","litmus":"mp"}"#)
            .expect("response");
        assert_eq!(verdict_of(&resp), "SAFE");
    }
}
