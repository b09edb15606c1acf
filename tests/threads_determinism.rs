//! Worker threads must be invisible in the reports: for every litmus
//! benchmark and every engine, running with 1 and 4 worker threads
//! yields identical verdicts, statistics, notes, witnesses and cache
//! occupancy. The state-space searches merge their workers' results in a
//! deterministic order; the Datalog route runs on one thread at any
//! count.

use parra_core::verify::{EngineId, VerificationResult, Verifier, VerifierOptions};
use parra_litmus::all;
use std::time::Duration;

fn options(threads: usize) -> VerifierOptions {
    VerifierOptions {
        threads,
        ..Default::default()
    }
}

/// The stats without their wall-clock duration.
fn stats(r: &VerificationResult) -> String {
    let mut stats = r.stats.clone();
    stats.duration = Duration::ZERO;
    format!("{stats:?}")
}

#[test]
fn litmus_suite_reports_identical_across_thread_counts() {
    for bench in all() {
        let seq = Verifier::new(&bench.system, options(1))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let par = Verifier::new(&bench.system, options(4)).unwrap();
        for engine in [
            EngineId::SimplifiedReach,
            EngineId::BoundedConcrete,
            EngineId::CacheDatalog,
        ] {
            let a = seq.run(engine);
            let b = par.run(engine);
            let at = |what: &str| format!("{} / {engine}: {what} diverge", bench.name);
            assert_eq!(a.verdict, b.verdict, "{}", at("verdicts"));
            assert_eq!(stats(&a), stats(&b), "{}", at("stats"));
            assert_eq!(a.witness_lines, b.witness_lines, "{}", at("witnesses"));
            assert_eq!(a.notes, b.notes, "{}", at("notes"));
            assert_eq!(
                a.env_thread_bound,
                b.env_thread_bound,
                "{}",
                at("§4.3 bounds")
            );
            assert_eq!(
                a.report.cache_occupancy,
                b.report.cache_occupancy,
                "{}",
                at("cache occupancies")
            );
        }
    }
}
