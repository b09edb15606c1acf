//! Campaign planning and execution.
//!
//! A campaign run has two halves. **Planning** is pure: read every
//! input, canonicalize it through the parser + pretty-printer, compute
//! its content key, mark the keys the merged store already settles
//! (cache hits) and — under `--shard K/N` — the keys this process owns.
//! **Execution** walks the plan in input order, verifies each owned
//! uncached entry inside a panic shield, and appends one record to the
//! store per input, flushed immediately: the checkpoint a resume picks
//! up from.
//!
//! Shard assignment is deterministic in *sorted key order*, not input
//! order, so every shard of a fleet computes the same partition from the
//! same manifest without coordination, whatever order its operator
//! listed the inputs in.

use crate::hash::content_key;
use crate::store::{Record, Store};
use parra_core::verify::VerifierOptions;
use parra_core::{verify_text, EngineId};
use parra_obs::{Level, Recorder};
use parra_program::parser::parse_system;
use parra_program::pretty::system_to_string;
use std::collections::{BTreeMap, BTreeSet};

/// Exit code of the `PARRA_CAMPAIGN_KILL_AFTER` crash-injection hook,
/// chosen outside the CLI's 0/1/2/64+ vocabulary so tests can tell an
/// injected kill from a real outcome.
pub const KILL_EXIT_CODE: u8 = 86;

/// One shard of a fanned-out sweep: this process is worker `k` of `n`
/// (1-based, as in `--shard 2/4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This worker's 1-based index.
    pub k: u64,
    /// Total number of workers.
    pub n: u64,
}

impl Shard {
    /// Parses `K/N`, requiring `1 <= K <= N`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("--shard: expected K/N, got `{s}`"))?;
        let k: u64 = k.trim().parse().map_err(|e| format!("--shard K: {e}"))?;
        let n: u64 = n.trim().parse().map_err(|e| format!("--shard N: {e}"))?;
        if n == 0 || k == 0 || k > n {
            return Err(format!("--shard: need 1 <= K <= N, got {k}/{n}"));
        }
        Ok(Shard { k, n })
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.k, self.n)
    }
}

/// What to run and how — the campaign-level view of one sweep.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Engines to run per input.
    pub engines: Vec<EngineId>,
    /// Race the engines instead of running them sequentially.
    pub race: bool,
    /// The engine-selection label recorded in keys and the manifest:
    /// one engine's name, `all-engines`, or `race`.
    pub engine_label: String,
    /// Verifier options; `options.fingerprint()` is part of every key.
    pub options: VerifierOptions,
    /// Shard assignment, when this process is one worker of a fleet.
    pub shard: Option<Shard>,
}

impl CampaignOptions {
    /// The options fingerprint keyed into the store.
    pub fn options_fp(&self) -> String {
        self.options.fingerprint()
    }
}

/// One planned input.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// The input path as given.
    pub input: String,
    /// The content key (stable even for unreadable/unparseable inputs —
    /// derived from an error marker so the entry still shards
    /// deterministically).
    pub key: String,
    /// The canonical system text, when the input parsed.
    pub canonical: Option<String>,
    /// Why the input cannot be verified (read or parse failure).
    pub error: Option<String>,
    /// The merged store already settles this key: skip it.
    pub cached: bool,
    /// This process's shard owns the key (always true unsharded).
    pub assigned: bool,
}

/// Totals of one campaign run, in inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Inputs planned (everything listed).
    pub planned: u64,
    /// Inputs this shard owns.
    pub assigned: u64,
    /// Owned inputs skipped as already settled.
    pub cached: u64,
    /// Owned inputs verified this run.
    pub verified: u64,
    /// Verdict tallies over the owned inputs' current records
    /// (cached + fresh).
    pub safe: u64,
    /// See [`Summary::safe`].
    pub unsafe_: u64,
    /// Undecided (completed `Unknown`) owned inputs.
    pub unknown: u64,
    /// Owned inputs whose latest record ended interrupted.
    pub interrupted: u64,
    /// Owned inputs whose latest record is an error.
    pub errors: u64,
}

impl Summary {
    fn tally(&mut self, record: &Record) {
        if record.error.is_some() {
            self.errors += 1;
        } else if record.interrupted.is_some() {
            self.interrupted += 1;
        } else {
            match record.verdict.as_deref() {
                Some("SAFE") => self.safe += 1,
                Some("UNSAFE") => self.unsafe_ += 1,
                _ => self.unknown += 1,
            }
        }
    }
}

/// Plans a campaign: keys every input, marks cache hits against the
/// store's merged state, and assigns shard ownership.
///
/// # Errors
///
/// Only store I/O fails the plan; unreadable or unparseable *inputs*
/// become error entries that execution records (and a resume retries).
pub fn plan(
    inputs: &[String],
    store: &Store,
    copts: &CampaignOptions,
) -> Result<Vec<PlanEntry>, String> {
    let fp = copts.options_fp();
    let merged = store.merged()?;
    let mut entries: Vec<PlanEntry> = inputs
        .iter()
        .map(|input| {
            // Error inputs still need stable keys (for dedup and shard
            // assignment); a marker keeps them disjoint from real
            // system texts, which never start with `!`.
            let (canonical, error) = match std::fs::read_to_string(input) {
                Ok(text) => match parse_system(&text) {
                    Ok(sys) => (Some(system_to_string(&sys)), None),
                    Err(e) => (None, Some(format!("parse: {e}"))),
                },
                Err(e) => (None, Some(format!("cannot read: {e}"))),
            };
            let hashed = match (&canonical, &error) {
                (Some(c), _) => c.clone(),
                (None, Some(e)) => format!("!error:{input}:{e}"),
                (None, None) => unreachable!(),
            };
            let key = content_key(&hashed, &copts.engine_label, &fp);
            let cached = merged.get(&key).is_some_and(Record::is_settled);
            PlanEntry {
                input: input.clone(),
                key,
                canonical,
                error,
                cached,
                assigned: true,
            }
        })
        .collect();

    if let Some(shard) = copts.shard {
        // Deterministic partition: sort the deduplicated key set and
        // deal keys round-robin. Every worker derives the same
        // partition from the manifest alone.
        let keys: BTreeSet<&str> = entries.iter().map(|e| e.key.as_str()).collect();
        let owned: BTreeSet<&str> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64) % shard.n == shard.k - 1)
            .map(|(_, k)| *k)
            .collect();
        let owned: BTreeSet<String> = owned.into_iter().map(str::to_string).collect();
        for e in &mut entries {
            e.assigned = owned.contains(&e.key);
        }
    }
    Ok(entries)
}

/// The deterministic shard partition over a key set: `key -> shard k`
/// (1-based). Exposed for the partition tests and `status`.
pub fn shard_of(keys: &BTreeSet<String>, n: u64) -> BTreeMap<String, u64> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), (i as u64) % n + 1))
        .collect()
}

/// Runs the plan: verifies every owned, uncached entry and appends its
/// record to the store (checkpointing after each). `rec` receives
/// campaign-scope events; `on_input` fires after every owned entry —
/// cached or fresh — with the entry, its current record, and the
/// per-input recorder (enabled only when `rec` is), so the CLI can
/// stream progress lines and assemble an event log.
///
/// Honors the [`verify_text`] fault-injection hooks (an injected panic
/// is contained, recorded as an error, and retried on resume) and
/// `PARRA_CAMPAIGN_KILL_AFTER=<n>` (hard `exit(`
/// [`KILL_EXIT_CODE`]`)` after `n` fresh records — the crash-injection
/// test's simulated kill).
///
/// # Errors
///
/// Store I/O errors abort the run; per-input failures never do.
pub fn run_campaign(
    store: &Store,
    entries: &[PlanEntry],
    copts: &CampaignOptions,
    rec: &Recorder,
    mut on_input: impl FnMut(&PlanEntry, &Record, &Recorder),
) -> Result<Summary, String> {
    let kill_after: Option<u64> = std::env::var("PARRA_CAMPAIGN_KILL_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut summary = Summary {
        planned: entries.len() as u64,
        ..Summary::default()
    };
    let merged = store.merged()?;
    let crec = rec.scoped("campaign/");
    crec.event_with(
        "campaign_start",
        &[
            ("engine", copts.engine_label.as_str().into()),
            ("inputs", entries.len().into()),
            (
                "shard",
                copts
                    .shard
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "none".into())
                    .as_str()
                    .into(),
            ),
        ],
        &[],
    );
    let mut fresh = 0u64;
    for entry in entries {
        if !entry.assigned {
            continue;
        }
        summary.assigned += 1;
        if entry.cached {
            summary.cached += 1;
            let record = merged
                .get(&entry.key)
                .expect("cached entries come from the merged store");
            summary.tally(record);
            crec.event_with(
                "input_done",
                &[
                    ("input", entry.input.as_str().into()),
                    ("key", entry.key.as_str().into()),
                    ("cached", 1usize.into()),
                    (
                        "verdict",
                        record.verdict.as_deref().unwrap_or("ERROR").into(),
                    ),
                ],
                &[],
            );
            on_input(entry, record, &Recorder::disabled());
            continue;
        }
        let irec = if rec.is_enabled() {
            Recorder::enabled(Level::Summary)
        } else {
            Recorder::disabled()
        };
        let record = verify_entry(entry, copts, &irec);
        summary.verified += 1;
        summary.tally(&record);
        store.append(&record)?;
        fresh += 1;
        crec.event_with(
            "input_done",
            &[
                ("input", entry.input.as_str().into()),
                ("key", entry.key.as_str().into()),
                ("cached", 0usize.into()),
                (
                    "verdict",
                    record.verdict.as_deref().unwrap_or("ERROR").into(),
                ),
            ],
            &[("duration_us", record.duration_us)],
        );
        on_input(entry, &record, &irec);
        if kill_after.is_some_and(|n| fresh >= n) {
            // Simulated crash: die without unwinding, leaving the store
            // exactly as a real kill would — checkpointed through the
            // record just appended.
            std::process::exit(KILL_EXIT_CODE.into());
        }
    }
    crec.event_with(
        "campaign_end",
        &[
            ("assigned", (summary.assigned as usize).into()),
            ("cached", (summary.cached as usize).into()),
            ("verified", (summary.verified as usize).into()),
        ],
        &[],
    );
    Ok(summary)
}

/// Verifies one entry into a record through the shared selection path
/// ([`verify_text`]), whose panic boundary keeps one poisoned input from
/// taking down a 100k-input sweep.
fn verify_entry(entry: &PlanEntry, copts: &CampaignOptions, rec: &Recorder) -> Record {
    let base = Record {
        key: entry.key.clone(),
        input: entry.input.clone(),
        engine: copts.engine_label.clone(),
        verdict: None,
        interrupted: None,
        error: None,
        duration_us: 0,
    };
    if let Some(e) = &entry.error {
        return Record {
            error: Some(e.clone()),
            ..base
        };
    }
    let canonical = entry
        .canonical
        .as_deref()
        .expect("entries without errors carry canonical text");
    let start = std::time::Instant::now();
    let outcome = verify_text(
        &entry.input,
        canonical,
        &copts.engines,
        copts.race,
        &copts.options,
        rec,
    );
    let duration_us = start.elapsed().as_micros() as u64;
    match outcome {
        // The aggregate verdict is `SAFE`, `UNSAFE` or `UNKNOWN`; the
        // interruption detail lives in its own field, so resumes that
        // re-run an interrupted input converge on the same text.
        Ok(sel) => Record {
            verdict: Some(sel.verdict.to_string()),
            interrupted: sel.reported_interruption().map(|r| r.as_str().to_string()),
            duration_us,
            ..base
        },
        Err(error) => Record {
            error: Some(error),
            duration_us,
            ..base
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_validates() {
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { k: 2, n: 4 });
        assert!(Shard::parse("0/4").is_err());
        assert!(Shard::parse("5/4").is_err());
        assert!(Shard::parse("4").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn shard_of_partitions_without_overlap() {
        let keys: BTreeSet<String> = (0..17).map(|i| format!("k{i:02}")).collect();
        for n in [1u64, 2, 3, 5, 17, 20] {
            let assign = shard_of(&keys, n);
            assert_eq!(assign.len(), keys.len());
            for k in 1..=n {
                let mine: Vec<_> = assign.values().filter(|&&v| v == k).collect();
                if k <= 17 {
                    assert!(!mine.is_empty() || n > 17);
                }
            }
            assert!(assign.values().all(|&v| 1 <= v && v <= n));
        }
    }
}
