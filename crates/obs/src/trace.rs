//! Chrome-trace / Perfetto output.
//!
//! Renders a [`SpanStore`](crate::span::SpanStore) as the Trace Event
//! Format's JSON array: one `"ph":"B"` / `"ph":"E"` pair per finished
//! span, one record per line, so the file both loads in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) and greps
//! like JSONL.
//!
//! Emission walks each thread's span forest recursively (begin, children
//! in start order, end), which guarantees two properties the validity
//! tests rely on: every `B` has a matching `E` on the same `tid`, and
//! timestamps are monotone (non-decreasing) in file order per `tid` —
//! a child opens after its parent and closes before it.

use crate::json::{write_escaped, ObjWriter};
use crate::span::{ArgValue, SpanRecord};

/// Renders spans as a Trace Event Format JSON array, one event per line.
pub fn render_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |event: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&event);
    };
    push(process_name_event(), &mut out);

    // Index the finished spans as per-thread forests. Parents are always
    // on the same thread (span nesting is tracked thread-locally); a
    // span whose direct parent is unfinished hangs off its nearest
    // finished ancestor so sibling order stays time-sorted.
    let finished: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].dur_us.is_some())
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for &i in &finished {
        let mut anc = spans[i].parent;
        while let Some(p) = anc {
            if spans[p].dur_us.is_some() {
                break;
            }
            anc = spans[p].parent;
        }
        match anc {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let start_key = |i: usize| (spans[i].tid, spans[i].start_us, i);
    roots.sort_by_key(|&i| start_key(i));
    for kids in &mut children {
        kids.sort_by_key(|&i| start_key(i));
    }
    // Iterative pre/post-order walk: B on entry, E on exit.
    enum Step {
        Begin(usize),
        End(usize),
    }
    let mut stack: Vec<Step> = roots.iter().rev().map(|&i| Step::Begin(i)).collect();
    while let Some(step) = stack.pop() {
        match step {
            Step::Begin(i) => {
                push(span_event(&spans[i], "B", spans[i].start_us), &mut out);
                stack.push(Step::End(i));
                for &c in children[i].iter().rev() {
                    stack.push(Step::Begin(c));
                }
            }
            Step::End(i) => {
                let end = spans[i].start_us + spans[i].dur_us.unwrap_or(0);
                push(span_event(&spans[i], "E", end), &mut out);
            }
        }
    }

    out.push_str("\n]\n");
    out
}

fn span_event(span: &SpanRecord, ph: &str, ts: u64) -> String {
    let mut w = ObjWriter::new();
    w.str_field("name", &span.name);
    w.str_field("cat", "parra");
    w.str_field("ph", ph);
    w.num_field("ts", ts);
    w.num_field("pid", 1);
    w.num_field("tid", span.tid);
    if ph == "B" && !span.args.is_empty() {
        let mut args = String::from("{");
        for (i, (k, v)) in span.args.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            write_escaped(&mut args, k);
            args.push(':');
            match v {
                ArgValue::U64(n) => args.push_str(&n.to_string()),
                ArgValue::Str(s) => write_escaped(&mut args, s),
            }
        }
        args.push('}');
        w.raw_field("args", &args);
    }
    w.finish()
}

fn process_name_event() -> String {
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
    use crate::json::{parse, Value};

    #[test]
    fn trace_is_valid_json_array_of_records() {
        let spans = vec![
            SpanRecord {
                name: "verify".into(),
                start_us: 0,
                dur_us: Some(100),
                parent: None,
                tid: 1,
                args: vec![("states".into(), ArgValue::U64(4))],
            },
            SpanRecord {
                name: "open-span-skipped".into(),
                start_us: 5,
                dur_us: None,
                parent: Some(0),
                tid: 1,
                args: vec![],
            },
            SpanRecord {
                name: "child".into(),
                start_us: 10,
                dur_us: Some(20),
                parent: Some(0),
                tid: 1,
                args: vec![],
            },
        ];
        let text = render_chrome_trace(&spans);
        let v = parse(&text).expect("valid JSON");
        let events = v.as_arr().unwrap();
        // 1 metadata + 2 finished spans × (B + E).
        assert_eq!(events.len(), 5);
        // Nesting: B verify, B child, E child, E verify.
        let phs: Vec<(&str, &str)> = events[1..5]
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("ph").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            phs,
            [
                ("verify", "B"),
                ("child", "B"),
                ("child", "E"),
                ("verify", "E")
            ]
        );
        assert_eq!(events[1].get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(events[3].get("ts").unwrap().as_u64(), Some(30));
        assert_eq!(events[4].get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("states")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        // Every record sits on its own line (JSONL-greppable).
        for line in text.lines() {
            let trimmed = line.trim().trim_end_matches(',');
            if trimmed == "[" || trimmed == "]" || trimmed.is_empty() {
                continue;
            }
            assert!(parse(trimmed).is_ok(), "line not a record: {line}");
        }
    }

    /// Checks the two invariants `--trace-out` consumers rely on: every
    /// `B` is closed by an `E` on the same thread (stack discipline) and
    /// timestamps never decrease within a thread.
    pub(crate) fn assert_trace_validity(events: &[Value]) {
        use std::collections::BTreeMap;
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if !matches!(ph, "B" | "E") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            let name = e.get("name").unwrap().as_str().unwrap().to_string();
            let prev = last_ts.insert(tid, ts).unwrap_or(0);
            assert!(ts >= prev, "tid {tid}: ts went backwards ({prev} -> {ts})");
            let stack = stacks.entry(tid).or_default();
            match ph {
                "B" => stack.push(name),
                _ => assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "unmatched E"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "tid {tid}: unclosed B events {stack:?}");
        }
    }

    #[test]
    fn b_e_pairs_match_and_timestamps_are_monotone_per_thread() {
        // A two-thread store with nesting, a zero-duration span, and an
        // unfinished span that must be dropped together with nothing else.
        let spans = vec![
            SpanRecord {
                name: "root".into(),
                start_us: 0,
                dur_us: Some(50),
                parent: None,
                tid: 1,
                args: vec![],
            },
            SpanRecord {
                name: "instant".into(),
                start_us: 7,
                dur_us: Some(0),
                parent: Some(0),
                tid: 1,
                args: vec![],
            },
            SpanRecord {
                name: "late-child".into(),
                start_us: 7,
                dur_us: Some(40),
                parent: Some(0),
                tid: 1,
                args: vec![],
            },
            SpanRecord {
                name: "worker".into(),
                start_us: 3,
                dur_us: Some(10),
                parent: None,
                tid: 2,
                args: vec![],
            },
            SpanRecord {
                name: "abandoned".into(),
                start_us: 4,
                dur_us: None,
                parent: None,
                tid: 2,
                args: vec![],
            },
        ];
        let text = render_chrome_trace(&spans);
        let v = parse(&text).expect("valid JSON");
        assert_trace_validity(v.as_arr().unwrap());
        assert!(!text.contains("abandoned"));
    }
}
