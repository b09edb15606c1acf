//! The parra benchmark. See `README.md` next to this package for the
//! workloads, the metrics and how to read them.

mod compare;
mod cpu;
mod inputs;
mod stats;
mod trace;
mod workloads;

use stats::{median, percentile};
use std::io::Write as _;
use std::process::{Command, ExitCode};
use trace::{layer_table, ratio};
use workloads::{Traced, Workload};

/// The allocator the `parra` binary installs: timings include its cost,
/// and its high-water mark, less the benchmark's own inputs, is the
/// memory metric.
#[global_allocator]
static ALLOC: parra_limits::TrackingAlloc = parra_limits::TrackingAlloc::new();

const USAGE: &str = "\
usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-out FILE] [--out FILE]
       benchmark --compare A.jsonl B.jsonl
       benchmark --record-answers";

/// Default `--seconds`; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 25;

/// Every untraced run reports these, in this order. Times are CPU time at
/// the reference speed (see `cpu.rs`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_cpu_s", "1/s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p99_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Every traced run reports these. A `.share` metric is the span's self
/// time over the request time; `count/req` metrics are per traced
/// request. A layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("program.parse.share", "ratio"),
    ("core.prepare.share", "ratio"),
    ("core.makep.guess.share", "ratio"),
    ("core.makep.construct.share", "ratio"),
    ("datalog.plan.share", "ratio"),
    ("datalog.eval.share", "ratio"),
    ("core.witness.share", "ratio"),
    ("simplified.reach.share", "ratio"),
    ("simplified.witness.share", "ratio"),
    ("serve.process.hit.share", "ratio"),
    ("serve.process.miss.share", "ratio"),
    ("core.makep.guesses", "count/req"),
    ("datalog.eval.calls", "count/req"),
    ("datalog.fleet.evaluated_ratio", "ratio"),
    ("datalog.plan.calls", "count/req"),
    ("datalog.plan.hit_ratio", "ratio"),
    ("datalog.join_attempts", "count/req"),
    ("datalog.index_builds", "count/req"),
    ("datalog.index_hits", "count/req"),
    ("simplified.states", "count/req"),
    ("simplified.worlds", "count/req"),
    ("serve.verifier_cache.hit_ratio", "ratio"),
    ("limits.admission.rejected", "count"),
    ("trace.requests", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The traced run must attribute at least this share of request time to
/// some layer, and may slow the requests by at most this factor.
const MIN_COVERAGE: f64 = 0.90;
const MAX_OVERHEAD: f64 = 1.10;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    record_answers: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--record-answers" => a.record_answers = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, num(*v)))
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

fn end_to_end(
    w: Workload,
    setups: &[f64],
    run: &workloads::Run,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat = run.request_ms.clone();
    lat.sort_by(f64::total_cmp);
    let p50 = percentile(&lat, 0.5);
    let p99 = percentile(&lat, 0.99);
    for (name, p) in [("cpu_p50_ms", p50), ("cpu_p99_ms", p99)] {
        let p = p.unwrap_or(stats::Percentile {
            value: 0.0,
            beyond: 0,
        });
        eprintln!(
            "{} {name}: {:.4} ms over {} samples, {} beyond{}",
            w.name(),
            p.value,
            lat.len(),
            p.beyond,
            if p.is_trusted() {
                ""
            } else {
                " (fewer than 10: raise --seconds)"
            }
        );
    }
    let value = |name: &str| match name {
        "setup_s" => median(setups),
        "verdicts_per_cpu_s" => ratio(lat.len() as f64, lat.iter().sum::<f64>() / 1e3),
        "cpu_p50_ms" => p50.map_or(0.0, |p| p.value),
        "cpu_p99_ms" => p99.map_or(0.0, |p| p.value),
        "peak_heap_mb" => {
            let peak = parra_limits::heap_peak().unwrap_or(0);
            peak.saturating_sub(run.heap_base) as f64 / (1 << 20) as f64
        }
        _ => unreachable!("END_TO_END names"),
    };
    END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

fn per_layer(t: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let (table, request_ns) = layer_table(&t.tracer.spans);
    let c = &t.counts;
    let per_req = |x: u64| ratio(x as f64, c.requests as f64);
    let share = |layer: &str| {
        ratio(
            table.get(layer).map_or(0, |s| s.self_ns) as f64,
            request_ns as f64,
        )
    };
    let coverage = trace::coverage(&table, request_ns);
    let value = |name: &str| -> f64 {
        if let Some(layer) = name.strip_suffix(".share") {
            return share(layer);
        }
        match name {
            "core.makep.guesses" => per_req(c.guesses),
            "datalog.eval.calls" => per_req(c.evaluated),
            "datalog.fleet.evaluated_ratio" => ratio(c.evaluated as f64, c.guesses as f64),
            "datalog.plan.calls" => per_req(c.plan_calls),
            "datalog.plan.hit_ratio" => ratio(c.plan_hits as f64, c.plan_calls as f64),
            "datalog.join_attempts" => per_req(c.join_attempts),
            "datalog.index_builds" => per_req(c.index_builds),
            "datalog.index_hits" => per_req(c.index_hits),
            "simplified.states" => per_req(c.states),
            "simplified.worlds" => per_req(c.worlds),
            "serve.verifier_cache.hit_ratio" => ratio(c.cache_hits as f64, c.cache_lookups as f64),
            "limits.admission.rejected" => c.rejected as f64,
            "trace.requests" => c.requests as f64,
            "trace.coverage_ratio" => coverage,
            "trace.overhead_ratio" => t.overhead,
            _ => unreachable!("PER_LAYER names"),
        }
    };
    eprint!("{}", trace::render_table(&table, request_ns));
    if coverage < MIN_COVERAGE {
        eprintln!(
            "trace: layers cover only {:.1}% of request time; {:.3} ms sit in no layer span",
            coverage * 100.0,
            (1.0 - coverage) * request_ns as f64 / 1e6
        );
    }
    if t.overhead > MAX_OVERHEAD {
        eprintln!(
            "trace: tracing slowed requests by {:.1}%",
            (t.overhead - 1.0) * 100.0
        );
    }
    PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

fn append(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let answers = match inputs::load_answers() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: refusing to run: {e}");
            return ExitCode::from(1);
        }
    };
    let seconds = args.seconds as f64;
    let (attempted, failures, metrics) = if args.trace {
        let t = workloads::trace(w, args.seed, seconds, &answers);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, t.tracer.render_jsonl()) {
                eprintln!("benchmark: cannot write `{path}`: {e}");
                return ExitCode::from(1);
            }
        }
        let metrics = per_layer(&t);
        (t.attempted, t.failures, metrics)
    } else {
        let (setups, run) = workloads::measure(w, args.seed, seconds, &answers);
        let metrics = end_to_end(w, &setups, &run);
        (run.attempted, run.failures, metrics)
    };
    for f in failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let correct = failures.is_empty();
    for (n, v, u) in &metrics {
        println!("{} {n} {} {u}", w.name(), num(*v));
    }
    let result = result_json(correct, attempted, failures.len(), &metrics);
    if let Some(out) = &args.out {
        let record = format!(
            r#"{{"workload":"{}","seed":{},"trace":{},"result":{result}}}"#,
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        if let Err(e) = append(out, &record) {
            eprintln!("benchmark: cannot append to `{out}`: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, each in a child process of its own so that peak
/// memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    if args.trace_out.is_some() {
        eprintln!("benchmark: --trace-out needs a single --workload");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        match cmd.output() {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                ok &= o.status.success();
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record_answers {
        return match inputs::record(2) {
            Ok(a) => match std::fs::write(inputs::ANSWERS_PATH, a.render()) {
                Ok(()) => {
                    eprintln!("wrote {}", inputs::ANSWERS_PATH);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark: cannot write {}: {e}", inputs::ANSWERS_PATH);
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("benchmark: not recording: {e}");
                ExitCode::from(1)
            }
        };
    }
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"));
        let outcome = read("BENCHMARK.json")
            .and_then(|s| compare::Spec::parse(&s))
            .and_then(|spec| compare::compare(&spec, &read(a)?, &read(b)?));
        return match outcome {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload.as_deref() {
        None | Some("all") => run_all(&args),
        Some(name) => match Workload::from_name(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("benchmark: unknown workload `{name}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use parra_obs::json::{self, Value};

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_runs_use() {
        let root = json::parse(SPEC).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            root.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("no `{key}`"))
                .iter()
                .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let names = |l: &[(&str, &str)], i: usize| -> Vec<String> {
            l.iter().map(|p| [p.0, p.1][i].to_string()).collect()
        };
        assert_eq!(list("end_to_end", "name"), names(&END_TO_END, 0));
        assert_eq!(list("end_to_end", "unit"), names(&END_TO_END, 1));
        assert_eq!(list("per_layer", "name"), names(&PER_LAYER, 0));
        assert_eq!(list("per_layer", "unit"), names(&PER_LAYER, 1));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(list("workloads", "name"), workloads);
        assert_eq!(
            root.get("run_seconds").and_then(Value::as_u64),
            Some(DEFAULT_SECONDS)
        );
        let spec = compare::Spec::parse(SPEC).expect("end-to-end specs parse");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("cpu_p50_ms", 1.25, "ms")]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("cpu_p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload serve-mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--trace yes").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--bogus").is_err());
    }
}
