//! Campaign warm-cache benchmark and regression gate.
//!
//! Materializes the whole litmus suite as `.ra` files, runs a cold
//! campaign over them (every input verified, store populated), then a
//! warm re-run over the same store (every key already settled). The
//! campaign layer's contract is that the warm pass re-verifies nothing;
//! the gate enforces it structurally (≥90% of inputs must be skipped —
//! in practice 100%) and keeps the cold wall-clock under the shared
//! [`gate::WALL_CLOCK`] rule of [`parra_bench::gate`]. The baseline is a
//! single `litmus-suite` row.
//!
//! ```text
//! bench_campaign [--out FILE]        # measure and write FILE (default BENCH_campaign.json)
//! bench_campaign --check BASELINE    # measure and fail (exit 1) on regression
//! ```

use parra_bench::gate::{self, Row};
use parra_campaign::{plan, run_campaign, CampaignOptions, Manifest, Store};
use parra_core::verify::{EngineId, VerifierOptions};
use parra_obs::Recorder;
use std::process::ExitCode;

/// Minimum fraction of inputs the warm re-run must skip, in permille.
const MIN_SKIP_PERMILLE: u64 = 900;

fn measure() -> (Vec<Row>, Vec<String>) {
    let scratch = std::env::temp_dir().join(format!("parra-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let corpus = scratch.join("corpus");
    std::fs::create_dir_all(&corpus).expect("create corpus dir");
    let mut inputs: Vec<String> = Vec::new();
    for bench in parra_litmus::all() {
        let path = corpus.join(format!("{}.ra", bench.name));
        std::fs::write(
            &path,
            parra_program::pretty::system_to_string(&bench.system),
        )
        .expect("write litmus system");
        inputs.push(path.display().to_string());
    }

    let copts = CampaignOptions {
        engines: vec![EngineId::SimplifiedReach],
        race: false,
        engine_label: EngineId::SimplifiedReach.to_string(),
        options: VerifierOptions {
            threads: 1,
            ..Default::default()
        },
        shard: None,
    };
    let manifest = Manifest {
        engine: copts.engine_label.clone(),
        options_fp: copts.options_fp(),
        unroll: None,
        timeout_us: None,
        memory_budget: None,
        shard: None,
        inputs: inputs.clone(),
    };
    let store = Store::create(&scratch.join("store"), &manifest).expect("create store");

    let sweep = |label: &str| {
        let entries = plan(&inputs, &store, &copts).expect("plan");
        let start = std::time::Instant::now();
        let summary = run_campaign(
            &store,
            &entries,
            &copts,
            &Recorder::disabled(),
            |_, _, _| {},
        )
        .unwrap_or_else(|e| panic!("{label} sweep: {e}"));
        assert_eq!(
            summary.errors, 0,
            "{label} sweep hit errors — the litmus corpus should verify cleanly"
        );
        (start.elapsed().as_micros() as u64, summary)
    };
    let (cold_us, cold) = sweep("cold");
    assert_eq!(
        cold.verified, cold.assigned,
        "cold sweep must verify everything"
    );
    let (warm_us, warm) = sweep("warm");

    let skip_permille = warm
        .cached
        .saturating_mul(1000)
        .checked_div(warm.assigned)
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&scratch);
    // The structural gate: a warm re-run over an unchanged corpus must
    // skip at least 90% of inputs. This does not depend on the baseline
    // — it is the campaign layer's contract.
    let mut failures = Vec::new();
    if skip_permille < MIN_SKIP_PERMILLE {
        failures.push(format!(
            "warm re-run skipped only {skip_permille}‰ of inputs (contract: ≥{MIN_SKIP_PERMILLE}‰; {} re-verified)",
            warm.verified
        ));
    }
    let row = Row::new()
        .info("bench", "litmus-suite")
        .info("inputs", inputs.len() as u64)
        .wall("cold_us", cold_us)
        .info("warm_us", warm_us)
        .info("warm_verified", warm.verified)
        .info("skip_permille", skip_permille);
    (vec![row], failures)
}

fn main() -> ExitCode {
    gate::main("bench_campaign", "BENCH_campaign.json", measure)
}
