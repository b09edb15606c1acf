//! Serve warm-cache benchmark and regression gate.
//!
//! Runs the whole litmus suite through an in-process `parra serve`
//! server twice: a cold pass (every request prepares its verifier and
//! plans its Datalog queries) and a warm pass against the same server
//! (every request must hit the shared prepared-verifier cache and the
//! shared plan cache). The serve layer's warm-cache contract is enforced
//! structurally — every warm request is a cache hit and its reports
//! carry **zero** `prepare` phase time, i.e. warm requests skip
//! preparation entirely — and the cold wall-clock is kept under the shared
//! [`gate::WALL_CLOCK`] rule of [`parra_bench::gate`]. The baseline is a
//! single `litmus-suite` row.
//!
//! ```text
//! bench_serve [--out FILE]        # measure and write FILE (default BENCH_serve.json)
//! bench_serve --check BASELINE    # measure and fail (exit 1) on regression
//! ```

use parra_bench::gate::{self, Row};
use parra_core::verify::{EngineId, VerifierOptions};
use parra_obs::json::{self, Value};
use parra_serve::{ServeConfig, Server};
use std::process::ExitCode;

#[derive(Clone, Copy)]
struct Measurement {
    requests: u64,
    cold_us: u64,
    warm_us: u64,
    warm_hit_permille: u64,
    cold_prepare_us: u64,
    warm_prepare_us: u64,
}

/// Total `prepare` phase time (µs) across a response's engine reports;
/// panics on error responses — the litmus suite must serve cleanly.
fn prepare_us_of(resp: &str) -> u64 {
    let v = json::parse(resp).expect("serve response parses");
    assert!(
        v.get("error").map(Value::is_null).unwrap_or(false),
        "serve error: {resp}"
    );
    v.get("reports")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            r.get("phases")
                .and_then(|p| p.get("prepare"))
                .and_then(Value::as_u64)
        })
        .sum()
}

fn measure_suite() -> Measurement {
    // Cache Datalog so every cold report carries a real `prepare` phase —
    // the phase whose disappearance on warm hits is the gated contract.
    // The null events sink turns request recording on (phase timers are
    // no-ops under a disabled recorder) without I/O in the timed path.
    let server = Server::new(ServeConfig {
        options: VerifierOptions::default(),
        engine: EngineId::CacheDatalog.to_string(),
        ..Default::default()
    })
    .with_events_sink(Box::new(std::io::sink()));
    let requests: Vec<String> = parra_litmus::all()
        .iter()
        .map(|b| {
            format!(
                r#"{{"proto":1,"id":"{0}","type":"verify","litmus":"{0}"}}"#,
                b.name
            )
        })
        .collect();
    let sweep = |label: &str| {
        let start = std::time::Instant::now();
        let prepare_us: u64 = requests
            .iter()
            .map(|r| {
                prepare_us_of(
                    &server
                        .process_line(r)
                        .unwrap_or_else(|| panic!("{label} sweep: no response")),
                )
            })
            .sum();
        (start.elapsed().as_micros() as u64, prepare_us)
    };
    let (cold_us, cold_prepare_us) = sweep("cold");
    let (hits_after_cold, misses) = server.cache_counters();
    assert_eq!(hits_after_cold, 0, "cold sweep must miss every entry");
    assert_eq!(misses, requests.len() as u64);
    let (warm_us, warm_prepare_us) = sweep("warm");
    let (hits, _) = server.cache_counters();
    let warm_hit_permille = hits
        .saturating_mul(1000)
        .checked_div(requests.len() as u64)
        .unwrap_or(0);
    Measurement {
        requests: requests.len() as u64,
        cold_us,
        warm_us,
        warm_hit_permille,
        cold_prepare_us,
        warm_prepare_us,
    }
}

/// The warm-cache contract, independent of any baseline: every warm
/// request hits the verifier cache, warm reports carry no prepare time, and
/// the instrument itself is live (cold preparation took measurable time).
fn structural_failures(m: &Measurement) -> Vec<String> {
    let mut failures = Vec::new();
    if m.warm_hit_permille < 1000 {
        failures.push(format!(
            "warm sweep hit the verifier cache on only {}‰ of requests (contract: 1000‰)",
            m.warm_hit_permille
        ));
    }
    if m.warm_prepare_us != 0 {
        failures.push(format!(
            "warm reports carry {} µs of `prepare` phase (contract: 0 — warm requests skip preparation)",
            m.warm_prepare_us
        ));
    }
    if m.cold_prepare_us == 0 {
        failures.push(
            "cold sweep recorded no `prepare` phase at all — the gate's instrument is broken"
                .into(),
        );
    }
    failures
}

fn measure() -> (Vec<Row>, Vec<String>) {
    let m = measure_suite();
    let row = Row::new()
        .info("bench", "litmus-suite")
        .info("requests", m.requests)
        .wall("cold_us", m.cold_us)
        .info("warm_us", m.warm_us)
        .info("warm_hit_permille", m.warm_hit_permille)
        .info("cold_prepare_us", m.cold_prepare_us)
        .info("warm_prepare_us", m.warm_prepare_us);
    (vec![row], structural_failures(&m))
}

fn main() -> ExitCode {
    gate::main("bench_serve", "BENCH_serve.json", measure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_gate_enforces_the_warm_cache_contract() {
        let ok = Measurement {
            requests: 26,
            cold_us: 1,
            warm_us: 1,
            warm_hit_permille: 1000,
            cold_prepare_us: 10,
            warm_prepare_us: 0,
        };
        assert!(structural_failures(&ok).is_empty());
        let misses = Measurement {
            warm_hit_permille: 960,
            ..ok
        };
        assert_eq!(structural_failures(&misses).len(), 1);
        let replans = Measurement {
            warm_prepare_us: 5,
            ..ok
        };
        assert_eq!(structural_failures(&replans).len(), 1);
        let dead_instrument = Measurement {
            cold_prepare_us: 0,
            ..ok
        };
        assert_eq!(structural_failures(&dead_instrument).len(), 1);
    }
}
