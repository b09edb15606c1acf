//! Datalog-engine benchmark and regression gate.
//!
//! Runs the Datalog engine (`cache-datalog`) on a fixed litmus subset at
//! `threads = 1` and records, per (benchmark, engine): best-of-N
//! wall-clock, and the evaluator's deterministic work
//! counters (join attempts, index builds, index hits).
//!
//! ```text
//! bench_datalog [--out FILE]        # measure and write FILE (default BENCH_datalog.json)
//! bench_datalog --check BASELINE    # measure and fail (exit 1) on regression
//! ```
//!
//! The check fails when an entry's wall-clock exceeds the baseline by
//! more than 25% *and* by more than an absolute 20 ms floor (sub-floor
//! entries are all noise at CI timer resolution). Counter drift never
//! fails the gate — the counters are deterministic, so a diff of the
//! regenerated file shows exactly which plans changed and by how much.

use parra_core::verify::{EngineId, Verifier, VerifierOptions};
use parra_obs::json::{self, ObjWriter, Value};
use parra_obs::{Level, Recorder};
use std::process::ExitCode;

/// The litmus subset: every benchmark where the Datalog engines do real
/// work (unsafe ones walk the guess fleet to a winner and extract the
/// witness; the safe ones saturate every guess).
const BENCHES: &[&str] = &[
    "producer-consumer",
    "peterson-ra",
    "peterson-ra-bratosz",
    "dekker",
    "lamport-2-ra",
    "mp",
    "sb",
    "iriw",
    "corr-parameterized",
];

const ENGINES: [EngineId; 1] = [EngineId::CacheDatalog];

/// Timed repetitions per entry; the best is recorded.
const REPS: usize = 3;

/// Relative wall-clock tolerance of the `--check` gate.
const TOLERANCE: f64 = 1.25;

/// Absolute wall-clock floor (µs) below which drift is timer noise.
const FLOOR_US: u64 = 20_000;

struct Entry {
    bench: String,
    engine: String,
    verdict: String,
    wall_us: u64,
    join_attempts: u64,
    index_builds: u64,
    index_hits: u64,
}

fn counter(report: &parra_core::verify::RunReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn measure() -> Vec<Entry> {
    let mut out = Vec::new();
    for name in BENCHES {
        let bench = parra_litmus::by_name(name)
            .unwrap_or_else(|| panic!("unknown litmus benchmark `{name}`"));
        let rec = Recorder::enabled(Level::Summary);
        let options = VerifierOptions {
            threads: 1, // deterministic counters: no guess-fleet races
            ..Default::default()
        };
        let verifier = Verifier::new_with_recorder(&bench.system, options, rec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for engine in ENGINES {
            let mut best: Option<Entry> = None;
            for _ in 0..REPS {
                let r = verifier.run(engine);
                let wall_us = r.stats.duration.as_micros() as u64;
                if best.as_ref().is_none_or(|b| wall_us < b.wall_us) {
                    best = Some(Entry {
                        bench: name.to_string(),
                        engine: engine.to_string(),
                        verdict: r.verdict.to_string(),
                        wall_us,
                        join_attempts: counter(&r.report, "join_attempts"),
                        index_builds: counter(&r.report, "index_builds"),
                        index_hits: counter(&r.report, "index_hits"),
                    });
                }
            }
            out.push(best.expect("REPS >= 1"));
        }
    }
    out
}

fn to_json(entries: &[Entry]) -> String {
    let mut items = Vec::new();
    for e in entries {
        let mut w = ObjWriter::new();
        w.str_field("bench", &e.bench);
        w.str_field("engine", &e.engine);
        w.str_field("verdict", &e.verdict);
        w.num_field("wall_us", e.wall_us);
        w.num_field("join_attempts", e.join_attempts);
        w.num_field("index_builds", e.index_builds);
        w.num_field("index_hits", e.index_hits);
        items.push(w.finish());
    }
    let mut root = ObjWriter::new();
    root.num_field("threads", 1);
    root.raw_field("entries", &format!("[{}]", items.join(",")));
    let mut buf = root.finish();
    buf.push('\n');
    buf
}

/// One baseline entry as parsed back from the JSON.
struct Baseline {
    wall_us: u64,
    join_attempts: u64,
    index_hits: u64,
}

fn parse_baseline(text: &str) -> Result<Vec<(String, String, Baseline)>, String> {
    let root = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    let entries = root
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("baseline has no `entries` array")?;
    let mut out = Vec::new();
    for e in entries {
        let field = |k: &str| {
            e.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("baseline entry missing numeric `{k}`"))
        };
        out.push((
            e.get("bench")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `bench`")?
                .to_string(),
            e.get("engine")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `engine`")?
                .to_string(),
            Baseline {
                wall_us: field("wall_us")?,
                join_attempts: field("join_attempts")?,
                index_hits: field("index_hits")?,
            },
        ));
    }
    Ok(out)
}

/// Whether `current` wall-clock regresses past `base` under the
/// 25%-and-20ms rule.
fn regresses(base: u64, current: u64) -> bool {
    current as f64 > base as f64 * TOLERANCE && current > base + FLOOR_US
}

fn check(entries: &[Entry], baseline_path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
    let baseline = parse_baseline(&text)?;
    let mut failures = Vec::new();
    for e in entries {
        let Some((_, _, base)) = baseline
            .iter()
            .find(|(b, eng, _)| *b == e.bench && *eng == e.engine)
        else {
            println!(
                "note: {} / {} has no baseline entry (new benchmark?)",
                e.bench, e.engine
            );
            continue;
        };
        let marker = if regresses(base.wall_us, e.wall_us) {
            failures.push(format!(
                "{} / {}: {} µs vs baseline {} µs (>{:.0}% and >{} ms floor)",
                e.bench,
                e.engine,
                e.wall_us,
                base.wall_us,
                (TOLERANCE - 1.0) * 100.0,
                FLOOR_US / 1000
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<22} {:<16} {:>9} µs (baseline {:>9}) {}",
            e.bench, e.engine, e.wall_us, base.wall_us, marker
        );
        if e.join_attempts != base.join_attempts || e.index_hits != base.index_hits {
            println!(
                "  counter drift: join_attempts {} -> {}, index_hits {} -> {} \
                 (informational; regenerate the baseline if the plan change is intended)",
                base.join_attempts, e.join_attempts, base.index_hits, e.index_hits
            );
        }
    }
    if failures.is_empty() {
        println!(
            "wall-clock within tolerance for all {} entries",
            entries.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("datalog bench regression:");
        for f in &failures {
            eprintln!("  {f}");
        }
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let entries = measure();
    match flag("--check") {
        Some(baseline) => match check(&entries, &baseline) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("bench_datalog: {msg}");
                ExitCode::from(64)
            }
        },
        None => {
            let out = flag("--out").unwrap_or_else(|| "BENCH_datalog.json".into());
            let jsonv = to_json(&entries);
            if let Err(e) = std::fs::write(&out, &jsonv) {
                eprintln!("bench_datalog: cannot write `{out}`: {e}");
                return ExitCode::from(64);
            }
            for e in &entries {
                println!(
                    "{:<22} {:<16} {:>9} µs  joins {:>9}  index hits {:>9}",
                    e.bench, e.engine, e.wall_us, e.join_attempts, e.index_hits
                );
            }
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_rule_needs_both_ratio_and_floor() {
        assert!(!regresses(1_000, 10_000)); // tiny baseline: under the floor
        assert!(!regresses(100_000, 119_000)); // under 25%
        assert!(regresses(100_000, 126_000)); // over both
        assert!(!regresses(100_000, 110_000));
    }

    #[test]
    fn json_round_trips_through_the_baseline_parser() {
        let entries = vec![Entry {
            bench: "peterson-ra".into(),
            engine: "cache-datalog".into(),
            verdict: "UNSAFE".into(),
            wall_us: 1234,
            join_attempts: 99,
            index_builds: 3,
            index_hits: 42,
        }];
        let parsed = parse_baseline(&to_json(&entries)).unwrap();
        assert_eq!(parsed.len(), 1);
        let (bench, engine, base) = &parsed[0];
        assert_eq!(bench, "peterson-ra");
        assert_eq!(engine, "cache-datalog");
        assert_eq!(base.wall_us, 1234);
        assert_eq!(base.join_attempts, 99);
        assert_eq!(base.index_hits, 42);
    }
}
