//! The flight recorder: a structured, append-only event log.
//!
//! Engines emit round/world-granular [`Event`]s into the recorder as they
//! run; the CLI persists them as schema-versioned JSONL (`--events-out`)
//! and `parra report` aggregates and diffs the resulting files. Each
//! event separates its payload into two sections:
//!
//! - **`fields`** — the deterministic contract. For a run that completes
//!   (is not interrupted), the sequence of `(seq, scope, kind, fields)`
//!   tuples is identical from run to run. Engines never put
//!   timing-dependent data here.
//! - **`volatile`** — wall-clock and environment-dependent measurements:
//!   durations, budget headroom, heap high-watermarks.
//!   These vary run to run and are exempt from the determinism contract.
//!
//! The JSONL schema (version [`SCHEMA_VERSION`]):
//!
//! ```json
//! {"v":1,"seq":0,"t_us":12,"scope":"simplified-reach/","kind":"world",
//!  "fields":{"world":0,"states":3},"volatile":{"heap_bytes":4096}}
//! ```
//!
//! An optional top-level `"file"` string attributes an event to an input
//! system (added by `parra batch`). Unknown top-level keys are rejected
//! by [`check_line`] so the schema can grow only by bumping the version.
//!
//! `parra campaign` emits its own event kinds through the same schema:
//! `campaign_start` (fields: `engine`, `inputs`, `shard`), one
//! `input_done` per owned input (fields: `input`, `key`, `cached`,
//! `verdict`; volatile `duration_us` on fresh runs), and `campaign_end`
//! (fields: `assigned`, `cached`, `verified`), under the `campaign/`
//! scope. The campaign *store* (`results.jsonl` inside a `--store`
//! directory) is a separate, non-event format with the same
//! deterministic/volatile split: one record per input with `key`,
//! `input`, `engine`, `verdict`, `interrupted`, `error` as the
//! deterministic contract and wall-clock `duration_us` under a trailing
//! `"volatile"` object — `parra report` ingests those lines too,
//! keyed by input path.

use crate::json::{write_escaped, ObjWriter, Value};

/// The event-log schema version emitted by this build.
pub const SCHEMA_VERSION: u64 = 1;

/// A value in an event's deterministic `fields` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventValue {
    /// An unsigned integer.
    U64(u64),
    /// A string (verdicts, outcome labels).
    Str(String),
}

impl From<u64> for EventValue {
    fn from(v: u64) -> EventValue {
        EventValue::U64(v)
    }
}

impl From<usize> for EventValue {
    fn from(v: usize) -> EventValue {
        EventValue::U64(v as u64)
    }
}

impl From<u32> for EventValue {
    fn from(v: u32) -> EventValue {
        EventValue::U64(v as u64)
    }
}

impl From<&str> for EventValue {
    fn from(v: &str) -> EventValue {
        EventValue::Str(v.to_string())
    }
}

impl From<String> for EventValue {
    fn from(v: String) -> EventValue {
        EventValue::Str(v)
    }
}

/// One flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the log (0-based, dense).
    pub seq: u64,
    /// Microseconds since the recorder's epoch (volatile).
    pub t_us: u64,
    /// The emitting recorder's scope prefix (e.g. `"simplified-reach/"`).
    pub scope: String,
    /// The event kind (`run_start`, `world`, `round`, `run_end`, ...).
    pub kind: String,
    /// Deterministic payload — identical from run to run for completed
    /// runs.
    pub fields: Vec<(String, EventValue)>,
    /// Non-deterministic payload: durations, headroom, heap, etc.
    pub volatile: Vec<(String, u64)>,
}

impl Event {
    /// Renders the event as one JSONL line (no trailing newline).
    /// `extra` key/value string pairs (e.g. `("file", path)`) are added
    /// as top-level fields after `v`.
    pub fn render(&self, extra: &[(&str, &str)]) -> String {
        let mut w = ObjWriter::new();
        w.num_field("v", SCHEMA_VERSION);
        for (k, v) in extra {
            w.str_field(k, v);
        }
        w.num_field("seq", self.seq);
        w.num_field("t_us", self.t_us);
        w.str_field("scope", &self.scope);
        w.str_field("kind", &self.kind);
        w.raw_field("fields", &self.fields_json());
        let mut vol = String::from("{");
        for (i, (k, v)) in self.volatile.iter().enumerate() {
            if i > 0 {
                vol.push(',');
            }
            write_escaped(&mut vol, k);
            vol.push(':');
            vol.push_str(&v.to_string());
        }
        vol.push('}');
        w.raw_field("volatile", &vol);
        w.finish()
    }

    /// The deterministic `fields` section as one JSON object.
    pub(crate) fn fields_json(&self) -> String {
        let mut fields = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                fields.push(',');
            }
            write_escaped(&mut fields, k);
            fields.push(':');
            match v {
                EventValue::U64(n) => fields.push_str(&n.to_string()),
                EventValue::Str(s) => write_escaped(&mut fields, s),
            }
        }
        fields.push('}');
        fields
    }

    /// The deterministic projection `(seq, scope, kind, fields)` used by
    /// the event-log determinism tests.
    pub fn deterministic_key(&self) -> (u64, String, String, Vec<(String, EventValue)>) {
        (
            self.seq,
            self.scope.clone(),
            self.kind.clone(),
            self.fields.clone(),
        )
    }
}

/// Renders a batch of events as JSONL, one line per event.
pub fn render_jsonl(events: &[Event], extra: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render(extra));
        out.push('\n');
    }
    out
}

/// A schema violation found by [`check_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn err(message: impl Into<String>) -> SchemaError {
    SchemaError {
        message: message.into(),
    }
}

/// Validates one JSONL line against the version-1 event schema.
///
/// Returns the parsed value on success so callers can go on to ingest
/// it without re-parsing.
pub fn check_line(line: &str) -> Result<Value, SchemaError> {
    let v = crate::json::parse(line).map_err(|e| err(format!("not valid JSON: {e}")))?;
    let Some(obj) = v.as_obj() else {
        return Err(err("event is not a JSON object"));
    };
    match v.get("v").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => return Err(err(format!("unsupported schema version {other}"))),
        None => return Err(err("missing numeric `v` field")),
    }
    for key in ["seq", "t_us"] {
        if v.get(key).and_then(Value::as_u64).is_none() {
            return Err(err(format!("missing numeric `{key}` field")));
        }
    }
    for key in ["scope", "kind"] {
        if v.get(key).and_then(Value::as_str).is_none() {
            return Err(err(format!("missing string `{key}` field")));
        }
    }
    let Some(fields) = v.get("fields").and_then(Value::as_obj) else {
        return Err(err("missing object `fields` field"));
    };
    for (k, fv) in fields {
        if fv.as_u64().is_none() && fv.as_str().is_none() {
            return Err(err(format!("field `{k}` is neither integer nor string")));
        }
    }
    let Some(volatile) = v.get("volatile").and_then(Value::as_obj) else {
        return Err(err("missing object `volatile` field"));
    };
    for (k, vv) in volatile {
        if vv.as_u64().is_none() {
            return Err(err(format!("volatile `{k}` is not an integer")));
        }
    }
    for (k, fv) in obj {
        match k.as_str() {
            "v" | "seq" | "t_us" | "scope" | "kind" | "fields" | "volatile" => {}
            "file" => {
                if fv.as_str().is_none() {
                    return Err(err("`file` is not a string"));
                }
            }
            other => return Err(err(format!("unknown top-level key `{other}`"))),
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 3,
            t_us: 17,
            scope: "simplified-reach/".into(),
            kind: "wave".into(),
            fields: vec![
                ("wave".into(), EventValue::U64(2)),
                ("verdict".into(), EventValue::Str("safe".into())),
            ],
            volatile: vec![("heap_bytes".into(), 4096)],
        }
    }

    #[test]
    fn render_then_check_round_trips() {
        let line = sample().render(&[]);
        let v = check_line(&line).expect("schema-valid");
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("wave"));
        assert_eq!(
            v.get("fields").unwrap().get("wave").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            v.get("volatile")
                .unwrap()
                .get("heap_bytes")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
    }

    #[test]
    fn file_attribution_is_allowed() {
        let line = sample().render(&[("file", "examples/systems/peterson.ra")]);
        let v = check_line(&line).expect("schema-valid");
        assert_eq!(
            v.get("file").unwrap().as_str(),
            Some("examples/systems/peterson.ra")
        );
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(check_line("not json").is_err());
        assert!(check_line("[1,2]").is_err());
        // Wrong version.
        assert!(check_line(
            r#"{"v":2,"seq":0,"t_us":0,"scope":"","kind":"x","fields":{},"volatile":{}}"#
        )
        .is_err());
        // Missing kind.
        assert!(
            check_line(r#"{"v":1,"seq":0,"t_us":0,"scope":"","fields":{},"volatile":{}}"#).is_err()
        );
        // Non-integer volatile.
        assert!(check_line(
            r#"{"v":1,"seq":0,"t_us":0,"scope":"","kind":"x","fields":{},"volatile":{"d":"no"}}"#
        )
        .is_err());
        // Unknown top-level key.
        assert!(check_line(
            r#"{"v":1,"seq":0,"t_us":0,"scope":"","kind":"x","fields":{},"volatile":{},"zzz":1}"#
        )
        .is_err());
    }

    #[test]
    fn jsonl_batch_rendering() {
        let text = render_jsonl(&[sample(), sample()], &[("file", "a.ra")]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            check_line(line).expect("each line schema-valid");
        }
    }
}
