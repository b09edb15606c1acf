//! Chrome-trace / Perfetto output.
//!
//! Renders a recorder's phase intervals and flight-recorder events as
//! the Trace Event Format's JSON array, one record per line, so the file
//! both loads in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//! and greps like JSONL:
//!
//! - one `"ph":"X"` (complete) record per [`PhaseInterval`], named
//!   `phase:{name}`, on the thread that timed it, with its scope in
//!   `args`;
//! - one process-scoped `"ph":"i"` (instant) record per [`Event`], named
//!   `{scope}{kind}`, with the event's deterministic fields as `args` —
//!   so the `run_start` / `run_end` pair (with the verdict) marks each
//!   engine run.

use crate::events::Event;
use crate::json::ObjWriter;
use crate::phase::PhaseInterval;

/// Renders phase intervals and events as a Trace Event Format JSON
/// array, one record per line.
pub fn render_chrome_trace(phases: &[PhaseInterval], events: &[Event]) -> String {
    let mut records = vec![process_name_record()];
    records.extend(phases.iter().map(|p| {
        let mut args = ObjWriter::new();
        args.str_field("scope", &p.scope);
        let mut w = record(&format!("phase:{}", p.phase.as_str()), "X", p.start_us);
        w.num_field("dur", p.dur_us);
        w.num_field("tid", p.tid);
        w.raw_field("args", &args.finish());
        w.finish()
    }));
    records.extend(events.iter().map(|e| {
        let mut w = record(&format!("{}{}", e.scope, e.kind), "i", e.t_us);
        w.str_field("s", "p");
        w.raw_field("args", &e.fields_json());
        w.finish()
    }));
    format!("[\n{}\n]\n", records.join(",\n"))
}

fn record(name: &str, ph: &str, ts: u64) -> ObjWriter {
    let mut w = ObjWriter::new();
    w.str_field("name", name);
    w.str_field("cat", "parra");
    w.str_field("ph", ph);
    w.num_field("ts", ts);
    w.num_field("pid", 1);
    w
}

fn process_name_record() -> String {
    let mut w = ObjWriter::new();
    w.str_field("name", "process_name");
    w.str_field("ph", "M");
    w.num_field("pid", 1);
    w.raw_field("args", "{\"name\":\"parra\"}");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventValue;
    use crate::json::parse;
    use crate::Phase;

    #[test]
    fn intervals_become_x_records_and_events_instants() {
        let phases = [PhaseInterval {
            scope: "cache-datalog/".into(),
            phase: Phase::Guess,
            tid: 3,
            start_us: 10,
            dur_us: 20,
        }];
        let events = [Event {
            seq: 0,
            t_us: 40,
            scope: "cache-datalog/".into(),
            kind: "run_end".into(),
            fields: vec![("verdict".into(), EventValue::Str("UNSAFE".into()))],
            volatile: vec![("duration_us".into(), 99)],
        }];
        let text = render_chrome_trace(&phases, &events);
        let v = parse(&text).expect("valid JSON");
        let records = v.as_arr().unwrap();
        assert_eq!(records.len(), 3);
        let x = &records[1];
        assert_eq!(x.get("name").unwrap().as_str(), Some("phase:guess"));
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(x.get("dur").unwrap().as_u64(), Some(20));
        assert_eq!(x.get("tid").unwrap().as_u64(), Some(3));
        let scope = x.get("args").unwrap().get("scope").unwrap().as_str();
        assert_eq!(scope, Some("cache-datalog/"));
        let i = &records[2];
        assert_eq!(
            i.get("name").unwrap().as_str(),
            Some("cache-datalog/run_end")
        );
        assert_eq!(i.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(i.get("ts").unwrap().as_u64(), Some(40));
        // Only the deterministic fields travel; volatile ones stay in
        // the event log.
        let args = i.get("args").unwrap().as_obj().unwrap();
        assert_eq!(args.len(), 1);
        assert_eq!(args["verdict"].as_str(), Some("UNSAFE"));
        // Every record sits on its own line (JSONL-greppable).
        for line in text.lines() {
            let trimmed = line.trim().trim_end_matches(',');
            if trimmed == "[" || trimmed == "]" {
                continue;
            }
            assert!(parse(trimmed).is_ok(), "line not a record: {line}");
        }
    }
}
