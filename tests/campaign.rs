//! End-to-end tests of `parra campaign`: crash-injection resume,
//! warm-cache re-runs, shard partitioning + merge, the golden diff
//! fixture, and the `batch --strict` degradation gate.

use parra::campaign::Store;
use parra::obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_parra");

fn examples_dir() -> String {
    format!("{}/examples/systems", env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    format!(
        "{}/tests/fixtures/campaign/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("parra-campaign-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the litmus suite as a `.ra` corpus and returns the directory.
fn litmus_corpus(dir: &Path) -> PathBuf {
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    for bench in parra::litmus::all() {
        std::fs::write(
            corpus.join(format!("{}.ra", bench.name)),
            parra::program::pretty::system_to_string(&bench.system),
        )
        .unwrap();
    }
    corpus
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

/// Parses the final summary line of a campaign run's stdout.
fn summary_of(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("campaign printed a summary line");
    json::parse(last).expect("summary line is JSON")
}

fn summary_field(out: &Output, field: &str) -> u64 {
    summary_of(out)
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("summary has numeric `{field}`"))
}

/// A campaign killed mid-sweep and resumed converges on a store whose
/// deterministic content is byte-identical to an uninterrupted run's.
#[test]
fn crash_injection_resume_matches_uninterrupted() {
    let dir = scratch("crash-resume");
    let corpus = litmus_corpus(&dir);
    let corpus_arg = corpus.display().to_string();
    let full = dir.join("full");
    let killed = dir.join("killed");
    let (full_arg, killed_arg) = (full.display().to_string(), killed.display().to_string());

    let out = run(
        &[
            "campaign",
            "run",
            &corpus_arg,
            "--store",
            &full_arg,
            "--engine",
            "simplified",
        ],
        &[],
    );
    // The litmus suite mixes SAFE and UNSAFE benchmarks, so a healthy
    // sweep reports a verdict code (0/1/2), never a usage error.
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "uninterrupted sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(
        &[
            "campaign",
            "run",
            &corpus_arg,
            "--store",
            &killed_arg,
            "--engine",
            "simplified",
        ],
        &[("PARRA_CAMPAIGN_KILL_AFTER", "2")],
    );
    assert_eq!(
        out.status.code(),
        Some(86),
        "kill hook should exit 86; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (partial, _) = Store::open(&killed).unwrap();
    assert_eq!(
        partial.records().unwrap().len(),
        2,
        "the kill fired after exactly two checkpointed records"
    );

    let out = run(&["campaign", "resume", "--store", &killed_arg], &[]);
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        summary_field(&out, "cached"),
        2,
        "resume keeps the two checkpointed verdicts"
    );

    let (full_store, _) = Store::open(&full).unwrap();
    let (resumed_store, _) = Store::open(&killed).unwrap();
    assert_eq!(
        full_store.canonical_results().unwrap(),
        resumed_store.canonical_results().unwrap(),
        "resumed store diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm re-run over an unchanged corpus verifies nothing, and the
/// store diffs clean (exit 0) against its pre-re-run copy.
#[test]
fn warm_rerun_verifies_nothing_and_diffs_clean() {
    let dir = scratch("warm");
    let store = dir.join("store");
    let store_arg = store.display().to_string();
    let cold = run(
        &[
            "campaign",
            "run",
            &examples_dir(),
            "--store",
            &store_arg,
            "--engine",
            "simplified",
        ],
        &[],
    );
    // The examples mix SAFE and UNSAFE files: exit 1.
    assert_eq!(cold.status.code(), Some(1));
    assert_eq!(summary_field(&cold, "cached"), 0);

    // Snapshot the store, then re-run warm.
    let snap = dir.join("snapshot");
    std::fs::create_dir_all(&snap).unwrap();
    for f in ["manifest.json", "results.jsonl"] {
        std::fs::copy(store.join(f), snap.join(f)).unwrap();
    }
    let warm = run(
        &[
            "campaign",
            "run",
            &examples_dir(),
            "--store",
            &store_arg,
            "--engine",
            "simplified",
        ],
        &[],
    );
    assert_eq!(warm.status.code(), Some(1));
    assert_eq!(
        summary_field(&warm, "verified"),
        0,
        "warm re-run re-verified inputs"
    );
    assert_eq!(
        summary_field(&warm, "cached"),
        summary_field(&warm, "planned"),
        "warm re-run should skip every input"
    );

    let diff = run(
        &["campaign", "diff", &snap.display().to_string(), &store_arg],
        &[],
    );
    assert_eq!(
        diff.status.code(),
        Some(0),
        "warm re-run store should diff clean: {}",
        String::from_utf8_lossy(&diff.stdout)
    );
    assert!(String::from_utf8_lossy(&diff.stdout).contains("clean: no flips, no regressions"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// For several N, the `--shard k/N` assignments partition the key set —
/// disjoint, jointly exhaustive — and the merged shard stores diff
/// clean against a single-process run.
#[test]
fn shards_partition_and_merge_cleanly() {
    let dir = scratch("shards");
    let full = dir.join("full");
    let full_arg = full.display().to_string();
    let out = run(
        &[
            "campaign",
            "run",
            &examples_dir(),
            "--store",
            &full_arg,
            "--engine",
            "simplified",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1));
    let (full_store, _) = Store::open(&full).unwrap();
    let full_keys: std::collections::BTreeSet<String> =
        full_store.merged().unwrap().keys().cloned().collect();
    assert_eq!(full_keys.len(), 5);

    for n in [2usize, 3] {
        let mut shard_args: Vec<String> = Vec::new();
        let mut union: std::collections::BTreeSet<String> = Default::default();
        let mut total = 0usize;
        for k in 1..=n {
            let store = dir.join(format!("shard-{k}-of-{n}"));
            let store_arg = store.display().to_string();
            let out = run(
                &[
                    "campaign",
                    "run",
                    &examples_dir(),
                    "--store",
                    &store_arg,
                    "--engine",
                    "simplified",
                    "--shard",
                    &format!("{k}/{n}"),
                ],
                &[],
            );
            assert!(
                out.status.code() == Some(0)
                    || out.status.code() == Some(1)
                    || out.status.code() == Some(2),
                "shard {k}/{n} errored: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let (store, _) = Store::open(&store).unwrap();
            let keys: Vec<String> = store.merged().unwrap().keys().cloned().collect();
            total += keys.len();
            union.extend(keys);
            shard_args.push(store_arg);
        }
        assert_eq!(union, full_keys, "N={n}: shard union misses keys");
        assert_eq!(total, full_keys.len(), "N={n}: shards overlap");

        let merged = dir.join(format!("merged-{n}"));
        let merged_arg = merged.display().to_string();
        let mut args: Vec<&str> = vec!["campaign", "status"];
        args.extend(shard_args.iter().map(String::as_str));
        args.extend(["--merge-out", &merged_arg]);
        let out = run(&args, &[]);
        assert!(
            out.status.success(),
            "status --merge-out failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let diff = run(&["campaign", "diff", &full_arg, &merged_arg], &[]);
        assert_eq!(
            diff.status.code(),
            Some(0),
            "N={n}: merged shards diff dirty vs single-process run: {}",
            String::from_utf8_lossy(&diff.stdout)
        );
        let (merged_store, _) = Store::open(&merged).unwrap();
        assert_eq!(
            merged_store.canonical_results().unwrap(),
            full_store.canonical_results().unwrap(),
            "N={n}: merged store content diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed golden fixture: a verdict flip, a duration regression,
/// one removed and one added input — exact report text, exit 1.
#[test]
fn golden_diff_fixture_renders_exactly() {
    let (base, new) = (fixture("base"), fixture("new"));
    let out = run(&["campaign", "diff", &base, &new], &[]);
    assert_eq!(out.status.code(), Some(1), "a verdict flip must exit 1");
    let expected = format!(
        "campaign diff: baseline `{base}` vs new `{new}`\n\
         diff: 2 runs compared, 1 verdict flips, 1 phase regressions\n\
         \x20 FLIP a.ra · all-engines: SAFE -> UNSAFE\n\
         \x20 SLOWER b.ra · all-engines [total]: 120.0ms -> 300.0ms (+150%)\n\
         \x20 only in baseline: c.ra · all-engines\n\
         \x20 only in new set: d.ra · all-engines\n"
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

/// `parra report` ingests a campaign store's `results.jsonl` directly.
#[test]
fn report_ingests_store_records() {
    let out = run(
        &["report", &format!("{}/results.jsonl", fixture("base"))],
        &[],
    );
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all-engines"), "dashboard: {stdout}");
}

/// The `batch --strict` fix: a file that *decides* while losing an
/// engine run to a deadline exits 0 without `--strict` (the historical
/// bug shape) and 2 with it; without the injected deadline `--strict`
/// stays 0.
#[test]
fn batch_strict_flags_degraded_portfolios() {
    let spinlock = format!("{}/spinlock.ra", examples_dir());
    let hook = [("PARRA_INJECT_DEADLINE", "spinlock")];

    let out = run(&["batch", &spinlock, "--all-engines"], &hook);
    assert_eq!(
        out.status.code(),
        Some(0),
        "non-strict batch hides the degradation (decided file => exit 0)"
    );
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"verdict\":\"SAFE\""), "line: {line}");
    assert!(
        line.contains("\"interrupted\":null"),
        "decided lines keep interrupted null: {line}"
    );

    let out = run(&["batch", &spinlock, "--all-engines", "--strict"], &hook);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--strict surfaces the deadline-degraded engine run"
    );

    let out = run(&["batch", &spinlock, "--all-engines", "--strict"], &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--strict passes when no engine was interrupted: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
