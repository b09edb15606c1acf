//! Golden-verdict snapshot: every litmus benchmark × all three engines,
//! with the expected verdict per engine and the §4.3 env-thread bound
//! pinned in one table.
//!
//! The table is the repo's behavioural contract: an engine change that
//! flips any verdict (or the thread bound) shows up as a readable diff
//! here, not as a silent drift. To re-pin after an *intended* change,
//! run
//!
//! ```text
//! cargo test --test golden_litmus -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_litmus::all;

/// One pinned row: benchmark name, then the verdict of each engine in
/// [`ENGINES`] order, then the §4.3 env-thread bound reported by
/// `simplified-reach` (`-` when none, i.e. safe benchmarks).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, &str, &str)] = &[
    // (name, simplified-reach, cache-datalog, bounded-concrete, env-bound)
    ("producer-consumer", "UNSAFE", "UNSAFE", "UNSAFE", "3"),
    ("peterson-ra", "UNSAFE", "UNSAFE", "UNSAFE", "2"),
    ("peterson-ra-bratosz", "UNSAFE", "UNSAFE", "UNSAFE", "2"),
    ("dekker", "UNSAFE", "UNSAFE", "UNSAFE", "2"),
    ("lamport-2-ra", "UNSAFE", "UNSAFE", "UNSAFE", "4"),
    ("lamport-2-3-ra", "UNSAFE", "UNSAFE", "UNSAFE", "4"),
    ("spinlock-cas", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("rcu", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("barrier", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("chase-lev-deque", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("histogram", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("kmeans", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("linear-regression", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("matrix-multiply", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("pca", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("string-match", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("word-count", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("sort-pthread", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("mp", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("sb", "UNSAFE", "UNSAFE", "UNSAFE", "0"),
    ("lb", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("iriw", "UNSAFE", "UNSAFE", "UNSAFE", "2"),
    ("wrc", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("corr", "SAFE", "SAFE", "UNKNOWN", "-"),
    ("corr-parameterized", "UNSAFE", "UNSAFE", "UNSAFE", "2"),
    ("2+2w", "UNSAFE", "UNSAFE", "UNSAFE", "0"),
];

const ENGINES: [EngineId; 3] = [
    EngineId::SimplifiedReach,
    EngineId::CacheDatalog,
    EngineId::BoundedConcrete,
];

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Safe => "SAFE",
        Verdict::Unsafe => "UNSAFE",
        Verdict::Unknown => "UNKNOWN",
        // Golden runs are ungoverned, so interruption means a bug.
        Verdict::Interrupted(_) => "INTERRUPTED",
    }
}

/// Runs the full matrix and renders one row per benchmark.
fn actual_rows() -> Vec<(String, [String; 4])> {
    all()
        .iter()
        .map(|bench| {
            let verifier = Verifier::new(&bench.system, VerifierOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let mut cells: Vec<String> = Vec::new();
            let mut env_bound = "-".to_string();
            for engine in ENGINES {
                let r = verifier.run(engine);
                cells.push(verdict_str(r.verdict).to_string());
                if engine == EngineId::SimplifiedReach {
                    if let Some(b) = r.env_thread_bound {
                        env_bound = b.to_string();
                    }
                }
            }
            cells.push(env_bound);
            let cells: [String; 4] = cells.try_into().unwrap();
            (bench.name.to_string(), cells)
        })
        .collect()
}

fn render(rows: &[(String, [String; 4])]) -> String {
    let mut out = String::new();
    for (name, c) in rows {
        out.push_str(&format!(
            "    (\"{name}\", \"{}\", \"{}\", \"{}\", \"{}\"),\n",
            c[0], c[1], c[2], c[3]
        ));
    }
    out
}

#[test]
fn golden_verdicts_match() {
    let rows = actual_rows();
    let mut drift: Vec<String> = Vec::new();

    if GOLDEN.len() != rows.len() {
        drift.push(format!(
            "table has {} rows, suite has {} benchmarks",
            GOLDEN.len(),
            rows.len()
        ));
    }
    for (name, actual) in &rows {
        match GOLDEN.iter().find(|g| g.0 == name) {
            None => drift.push(format!("{name}: missing from GOLDEN")),
            Some(g) => {
                let pinned = [g.1, g.2, g.3, g.4];
                let labels = [
                    "simplified-reach",
                    "cache-datalog",
                    "bounded-concrete",
                    "env-bound",
                ];
                for (i, label) in labels.iter().enumerate() {
                    if pinned[i] != actual[i] {
                        drift.push(format!(
                            "{name} / {label}: pinned {}, got {}",
                            pinned[i], actual[i]
                        ));
                    }
                }
            }
        }
    }
    for g in GOLDEN {
        if !rows.iter().any(|(name, _)| name == g.0) {
            drift.push(format!("{}: in GOLDEN but not in the suite", g.0));
        }
    }

    if !drift.is_empty() {
        let mut msg = String::from("golden verdict table drifted:\n");
        for d in &drift {
            msg.push_str(&format!("  {d}\n"));
        }
        msg.push_str("\nactual table (paste over GOLDEN if the change is intended):\n");
        msg.push_str(&render(&rows));
        panic!("{msg}");
    }
}
