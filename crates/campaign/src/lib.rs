#![warn(missing_docs)]

//! # parra-campaign — crater-style verification campaigns
//!
//! `parra batch` is one process and one pass with no memory of prior
//! runs. This crate turns batch sweeps into *campaigns*: persistent,
//! checkpointed, sharded, resumable, and diffable experiments over a
//! plain-directory store — a regression-fleet layer, modelled on
//! crater's experiment/checkpoint/report split.
//!
//! The moving parts:
//!
//! * [`hash`] — a stable content key over `(canonical system text,
//!   engine id, options fingerprint)`. The canonical text is the
//!   pretty-printer's rendering of the *parsed* system, so the key is
//!   invariant under whitespace, formatting, and file renames, and
//!   changes exactly when the system, the engine selection, or a
//!   verdict-relevant option changes.
//! * [`store`] — the on-disk experiment store: a `manifest.json`
//!   describing the campaign and an append-only `results.jsonl` of
//!   per-input records, checkpointed after every input. Each record
//!   separates deterministic fields from a `volatile` section (wall
//!   clock), so two stores can be compared byte-for-byte modulo timing.
//! * [`runner`] — planning (key computation, cache hits, deterministic
//!   `--shard K/N` assignment in sorted key order) and execution
//!   (per-input panic isolation, resource budgets, checkpoint append).
//!   Interrupted and errored inputs are re-run on resume; decisive and
//!   completed-Unknown verdicts are kept.
//! * [`diff`] — campaign-vs-campaign comparison through the existing
//!   `parra report` machinery: verdict flips are always fatal, duration
//!   regressions past a threshold are flagged, and added/removed inputs
//!   are listed — crater's toolchain diff, for verification sweeps.

pub mod diff;
pub mod hash;
pub mod runner;
pub mod store;

pub use diff::{diff_stores, render_diff, CampaignDiff, CAMPAIGN_FLOOR_US};
pub use hash::content_key;
pub use runner::{
    plan, run_campaign, shard_of, CampaignOptions, PlanEntry, Shard, Summary, KILL_EXIT_CODE,
};
pub use store::{Manifest, Record, Store, STORE_VERSION};
