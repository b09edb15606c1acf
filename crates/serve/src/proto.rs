//! The `parra serve` wire protocol: line-delimited JSON, version 1.
//!
//! One request per line in, exactly one response line per request out —
//! whatever happens to the request. The protocol is schema-versioned like
//! the flight recorder, under its own top-level key `proto` (the
//! recorder owns `v`, and `parra report` dispatches event validation on
//! that key; responses deliberately avoid it so a serve response that
//! carries run `reports` ingests as a batch line instead).
//!
//! ## Requests
//!
//! ```json
//! {"proto":1,"type":"verify","id":"1","litmus":"rcu","engine":"race"}
//! {"proto":1,"type":"verify","id":"2","program":"var x ...","timeout_ms":5000}
//! {"proto":1,"type":"batch","id":"3","items":[{"litmus":"rcu"},{"litmus":"barrier"}]}
//! {"proto":1,"type":"status","id":"4"}
//! {"proto":1,"type":"shutdown","id":"5"}
//! ```
//!
//! A `verify` request names its system either by `litmus` benchmark name
//! or inline `program` source, and may override the daemon's defaults
//! with `engine` (an engine name, `all-engines`, or `race`), `threads`
//! (clamped to the daemon's own), `unroll`, `timeout_ms` (anchored at *admission*, not connection or
//! daemon start), and `memory` (a byte size like `"512M"`).
//!
//! ## Responses
//!
//! Every response carries `proto`, the echoed `id`, and a `type` of
//! `result`, `batch`, `status`, `ok`, or `error`. Result lines put every
//! deterministic field first and quarantine the timing-dependent ones
//! (durations, cache hits, queue depth) in a trailing `volatile` object,
//! mirroring the flight-recorder event discipline — so
//! [`canonical_response`] can strip scheduling noise and compare
//! responses across daemon lifetimes byte-for-byte.
//!
//! Malformed input never kills the connection: an unparseable, oversized,
//! wrongly-versioned, or unknown-typed line yields a structured `error`
//! response with a stable `code`.
//!
//! The codes form a closed set ([`ErrorCode`]). It has grown once within
//! version 1: `internal` reports a failure inside the daemon itself,
//! which earlier v1 daemons reported as `bad-program`. Clients should
//! treat an unknown code as an error they cannot act on.

use parra_obs::json::{self, write_escaped, Value};
use std::collections::BTreeMap;

/// Protocol schema version. Bump on any breaking change to request or
/// response shapes.
pub const PROTO_VERSION: u64 = 1;

/// Hard bound on one request line, in bytes. A line past this is
/// rejected with [`ErrorCode::Oversized`] before parsing.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Stable machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON or not an object.
    Malformed,
    /// `proto` is missing or not a version this daemon speaks.
    UnsupportedVersion,
    /// The line exceeds [`MAX_FRAME_BYTES`].
    Oversized,
    /// `type` is missing or unknown.
    UnknownType,
    /// A field has the wrong type or an invalid value.
    BadField,
    /// The program failed to parse or the verifier rejected the system.
    BadProgram,
    /// Admission control turned the request away; in-flight work is
    /// unaffected. Retry later.
    Overloaded,
    /// Decisive engines disagreed (an engine bug worth reporting).
    Disagreement,
    /// The daemon itself failed while processing the request (a daemon
    /// bug, not a fault of the request). Added to the closed v1 code set
    /// after `disagreement`; before it, such failures were reported as
    /// `bad-program`.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownType => "unknown-type",
            ErrorCode::BadField => "bad-field",
            ErrorCode::BadProgram => "bad-program",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Disagreement => "disagreement",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A request rejection: code, human-readable message, and the request id
/// when one could still be recovered from the line.
#[derive(Debug, Clone)]
pub struct ProtoError {
    /// The stable code.
    pub code: ErrorCode,
    /// What went wrong.
    pub message: String,
    /// The echoed request id, when recoverable.
    pub id: Option<String>,
}

/// Where a verify request's system comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A named `parra-litmus` benchmark.
    Litmus(String),
    /// Inline program source text.
    Program(String),
}

/// One parsed `verify` request (also the element shape of `batch`).
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// Echoed request id (empty when absent).
    pub id: String,
    /// Attribution name: `name` field, else the litmus name, else
    /// `inline`. Used for the response `file` field, event-log
    /// attribution, and the injection hooks.
    pub name: String,
    /// The system.
    pub source: Source,
    /// Engine selection label (`simplified-reach`, …, `all-engines`,
    /// `race`); `None` uses the daemon default.
    pub engine: Option<String>,
    /// Worker-thread override, clamped to the daemon's own `--threads`.
    pub threads: Option<usize>,
    /// Per-request wall-clock budget in milliseconds, anchored at
    /// admission.
    pub timeout_ms: Option<u64>,
    /// Per-request live-heap budget in bytes.
    pub memory: Option<usize>,
    /// `dis`-loop unroll depth.
    pub unroll: Option<usize>,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Verify one system.
    Verify(Box<VerifyRequest>),
    /// Verify several systems; one `batch` response with per-item
    /// results.
    Batch {
        /// Echoed request id.
        id: String,
        /// The items, in request order.
        items: Vec<VerifyRequest>,
    },
    /// Daemon counters.
    Status {
        /// Echoed request id.
        id: String,
    },
    /// Acknowledge and stop accepting work.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
}

fn field_str(obj: &BTreeMap<String, Value>, key: &str) -> Option<String> {
    obj.get(key).and_then(Value::as_str).map(str::to_string)
}

fn field_u64(
    obj: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| ProtoError {
            code: ErrorCode::BadField,
            message: format!("`{key}` must be a non-negative integer"),
            id: Some(id.to_string()),
        }),
    }
}

fn parse_verify_fields(
    obj: &BTreeMap<String, Value>,
    id: &str,
) -> Result<VerifyRequest, ProtoError> {
    let litmus = field_str(obj, "litmus");
    let program = field_str(obj, "program");
    let source = match (litmus, program) {
        (Some(_), Some(_)) => {
            return Err(ProtoError {
                code: ErrorCode::BadField,
                message: "`litmus` and `program` are mutually exclusive".into(),
                id: Some(id.to_string()),
            })
        }
        (Some(name), None) => Source::Litmus(name),
        (None, Some(text)) => Source::Program(text),
        (None, None) => {
            return Err(ProtoError {
                code: ErrorCode::BadField,
                message: "a verify request needs `litmus` or `program`".into(),
                id: Some(id.to_string()),
            })
        }
    };
    let name = field_str(obj, "name").unwrap_or_else(|| match &source {
        Source::Litmus(n) => n.clone(),
        Source::Program(_) => "inline".to_string(),
    });
    let memory = match obj.get("memory") {
        None | Some(Value::Null) => None,
        Some(Value::Str(s)) => {
            Some(parra_limits::parse_byte_size(s).ok_or_else(|| ProtoError {
                code: ErrorCode::BadField,
                message: format!("`memory`: invalid byte size `{s}`"),
                id: Some(id.to_string()),
            })?)
        }
        Some(v) => Some(v.as_u64().ok_or_else(|| ProtoError {
            code: ErrorCode::BadField,
            message: "`memory` must be a byte count or a size string".into(),
            id: Some(id.to_string()),
        })? as usize),
    };
    Ok(VerifyRequest {
        id: id.to_string(),
        name,
        source,
        engine: field_str(obj, "engine"),
        threads: field_u64(obj, "threads", id)?.map(|n| n as usize),
        timeout_ms: field_u64(obj, "timeout_ms", id)?,
        memory,
        unroll: field_u64(obj, "unroll", id)?.map(|n| n as usize),
    })
}

/// Parses one request line. Never panics; every malformed input maps to
/// a [`ProtoError`] with a stable [`ErrorCode`].
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(ProtoError {
            code: ErrorCode::Oversized,
            message: format!("request is {} bytes (max {MAX_FRAME_BYTES})", line.len()),
            id: None,
        });
    }
    let value = json::parse(line).map_err(|e| ProtoError {
        code: ErrorCode::Malformed,
        message: format!("invalid JSON: {e}"),
        id: None,
    })?;
    let obj = match &value {
        Value::Obj(m) => m,
        _ => {
            return Err(ProtoError {
                code: ErrorCode::Malformed,
                message: "request must be a JSON object".into(),
                id: None,
            })
        }
    };
    // Ids are echoed verbatim; integer ids are accepted and echoed in
    // their decimal rendering so hand-written requests work too.
    let id = match obj.get("id") {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) if n.fract() == 0.0 => format!("{}", *n as i64),
        _ => String::new(),
    };
    match obj.get("proto").and_then(Value::as_u64) {
        Some(PROTO_VERSION) => {}
        Some(other) => {
            return Err(ProtoError {
                code: ErrorCode::UnsupportedVersion,
                message: format!("protocol version {other} (this daemon speaks {PROTO_VERSION})"),
                id: Some(id),
            })
        }
        None => {
            return Err(ProtoError {
                code: ErrorCode::UnsupportedVersion,
                message: format!("missing numeric `proto` (expected {PROTO_VERSION})"),
                id: Some(id),
            })
        }
    }
    match obj.get("type").and_then(Value::as_str) {
        Some("verify") => Ok(Request::Verify(Box::new(parse_verify_fields(obj, &id)?))),
        Some("batch") => {
            let items = obj
                .get("items")
                .and_then(Value::as_arr)
                .ok_or_else(|| ProtoError {
                    code: ErrorCode::BadField,
                    message: "a batch request needs an `items` array".into(),
                    id: Some(id.clone()),
                })?;
            let items = items
                .iter()
                .map(|item| match item {
                    Value::Obj(m) => parse_verify_fields(m, &id),
                    _ => Err(ProtoError {
                        code: ErrorCode::BadField,
                        message: "batch `items` must be objects".into(),
                        id: Some(id.clone()),
                    }),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch { id, items })
        }
        Some("status") => Ok(Request::Status { id }),
        Some("shutdown") => Ok(Request::Shutdown { id }),
        Some(other) => Err(ProtoError {
            code: ErrorCode::UnknownType,
            message: format!("unknown request type `{other}`"),
            id: Some(id),
        }),
        None => Err(ProtoError {
            code: ErrorCode::UnknownType,
            message: "missing string `type`".into(),
            id: Some(id),
        }),
    }
}

/// Renders an `error` response line.
pub fn error_response(err: &ProtoError) -> String {
    let mut w = json::ObjWriter::new();
    w.num_field("proto", PROTO_VERSION);
    w.str_field("id", err.id.as_deref().unwrap_or(""));
    w.str_field("type", "error");
    w.str_field("code", err.code.as_str());
    w.str_field("error", &err.message);
    w.finish()
}

/// Keys whose values are timing-, scheduling-, or cache-state-dependent.
/// [`canonical_response`] strips them (recursively) so two runs of the
/// same request compare byte-for-byte whatever the daemon's history.
const VOLATILE_KEYS: [&str; 7] = [
    "volatile",
    "duration_us",
    "phases",
    "stats",
    "counters",
    "gauges",
    "histograms",
];

fn strip_volatile(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                strip_volatile(item, out);
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            let mut any = false;
            for (k, val) in m {
                if VOLATILE_KEYS.contains(&k.as_str()) {
                    continue;
                }
                if any {
                    out.push(',');
                }
                any = true;
                write_escaped(out, k);
                out.push(':');
                strip_volatile(val, out);
            }
            out.push('}');
        }
    }
}

/// The deterministic projection of a response line: volatile fields
/// removed at every depth, object keys in sorted order. Two responses to
/// the same request — concurrent vs. sequential, warm vs. cold daemon —
/// must canonicalize identically; that is the serve determinism
/// contract the concurrency suite enforces.
///
/// # Errors
///
/// When `line` is not valid JSON (which would itself be a protocol bug).
pub fn canonical_response(line: &str) -> Result<String, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("unparseable response: {e}"))?;
    let mut out = String::new();
    strip_volatile(&v, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_verify_round_trips() {
        let req = parse_request(
            r#"{"proto":1,"type":"verify","id":"7","litmus":"rcu","engine":"race","threads":4,"timeout_ms":250,"memory":"64M","unroll":2}"#,
        )
        .expect("parse");
        match req {
            Request::Verify(v) => {
                assert_eq!(v.id, "7");
                assert_eq!(v.name, "rcu");
                assert!(matches!(v.source, Source::Litmus(ref n) if n == "rcu"));
                assert_eq!(v.engine.as_deref(), Some("race"));
                assert_eq!(v.threads, Some(4));
                assert_eq!(v.timeout_ms, Some(250));
                assert_eq!(v.memory, Some(64 << 20));
                assert_eq!(v.unroll, Some(2));
            }
            other => panic!("expected verify, got {other:?}"),
        }
    }

    #[test]
    fn every_malformed_frame_maps_to_a_stable_code() {
        let cases: &[(&str, ErrorCode)] = &[
            ("not json at all", ErrorCode::Malformed),
            (r#"{"proto":1,"type":"verify""#, ErrorCode::Malformed),
            ("[1,2,3]", ErrorCode::Malformed),
            (
                r#"{"type":"verify","litmus":"rcu"}"#,
                ErrorCode::UnsupportedVersion,
            ),
            (
                r#"{"proto":99,"type":"verify","litmus":"rcu"}"#,
                ErrorCode::UnsupportedVersion,
            ),
            (r#"{"proto":1,"type":"frobnicate"}"#, ErrorCode::UnknownType),
            (r#"{"proto":1}"#, ErrorCode::UnknownType),
            (r#"{"proto":1,"type":"verify"}"#, ErrorCode::BadField),
            (
                r#"{"proto":1,"type":"verify","litmus":"a","program":"b"}"#,
                ErrorCode::BadField,
            ),
            (
                r#"{"proto":1,"type":"verify","litmus":"rcu","threads":-3}"#,
                ErrorCode::BadField,
            ),
            (r#"{"proto":1,"type":"batch"}"#, ErrorCode::BadField),
        ];
        for (line, expected) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, *expected, "line: {line}");
            // The error response itself must be valid JSON.
            let rendered = error_response(&err);
            assert!(json::parse(&rendered).is_ok(), "unparseable: {rendered}");
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_parsing() {
        let line = format!(
            r#"{{"proto":1,"type":"verify","program":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        let err = parse_request(&line).expect_err("oversized");
        assert_eq!(err.code, ErrorCode::Oversized);
    }

    #[test]
    fn canonicalization_strips_volatile_fields_at_every_depth() {
        let a = r#"{"id":"1","verdict":"SAFE","volatile":{"duration_us":12},"reports":[{"engine":"e","duration_us":5,"phases":{"plan":3},"verdict":"SAFE"}]}"#;
        let b = r#"{"id":"1","verdict":"SAFE","volatile":{"duration_us":99000},"reports":[{"engine":"e","duration_us":777,"phases":{"search":1},"verdict":"SAFE"}]}"#;
        let ca = canonical_response(a).unwrap();
        let cb = canonical_response(b).unwrap();
        assert_eq!(ca, cb);
        assert!(ca.contains("\"verdict\":\"SAFE\""));
        assert!(!ca.contains("duration_us"));
    }
}
