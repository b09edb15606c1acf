//! A prepared-[`Verifier`] cache for long-lived hosts.
//!
//! Preparing a verifier — classify, unroll, goal-transform, timestamp
//! budget — is pure in the system text and the verdict-relevant options,
//! so a host that sees the same program twice can reuse the prepared
//! verifier instead of re-paying the `prepare` phase. [`VerifierCache`] keys
//! on the *canonical* pretty-printed system (so formatting differences in
//! the source text still hit) combined with
//! [`VerifierOptions::fingerprint`], using [`content_hash`] — the same
//! 128-bit hash the campaign store uses for its experiment keys.
//!
//! Reaching that key costs a parse and a canonical print of the request
//! text. So the cache also keeps, under the same lock, an *alias* for
//! every request text that reached an entry: its
//! [`VerifierCache::text_key`], `content_hash([text, fingerprint])`, maps
//! to the entry's canonical key. A host that sends the same text again
//! finds the verifier by [`VerifierCache::get_by_text`] without parsing
//! it. The invariants:
//!
//! * an alias is added only for a text that parsed and whose preparation
//!   succeeded (on a miss) or found an entry (on a hit), so it always
//!   names a held entry, and any text that differs in one byte or in a
//!   verdict-relevant option has another text key;
//! * aliases and entries are cleared together, on a poison reset, and
//!   are never removed otherwise;
//! * a hit by text is a hit like any other: it counts in
//!   [`VerifierCache::hits`] and hands out the same rescoped clone.
//!
//! The cache stores each prepared verifier pristine; lookups hand out
//! [`Verifier::rescoped`] clones carrying the request's own options and
//! recorder. The shared `prepare`-phase attribution flag travels with the
//! clones, so across a cache entry's whole lifetime exactly one report —
//! the first engine run of the preparing (cold) request — claims the
//! parse and preparation time, and every warm request's phase table shows
//! no `parse` or `prepare` row.

use crate::verify::{ParsedSystem, Verifier, VerifierError, VerifierOptions};
use parra_obs::Recorder;
use parra_program::pretty::system_to_string;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 from both offset bases in one pass over the bytes.
fn fnv1a_pair(parts: &[&str]) -> (u64, u64) {
    let (mut a, mut b) = (FNV_OFFSET_A, FNV_OFFSET_B);
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    };
    for part in parts {
        // Length framing: ("ab","c") and ("a","bc") must not collide.
        eat(&part.len().to_le_bytes());
        eat(part.as_bytes());
    }
    (a, b)
}

/// The workspace's one content hash: FNV-1a/64 run twice with
/// independent offset bases over the length-framed `parts`,
/// concatenated to 32 lower-case hex digits. It keys this cache and the
/// campaign store (whose on-disk keys depend on it staying
/// byte-for-byte stable).
///
/// FNV is not cryptographic; the keys only need resistance to
/// accidental collisions, where a 128-bit digest over ~10⁶ inputs has
/// collision probability below 10⁻²⁴.
pub fn content_hash(parts: &[&str]) -> String {
    let (a, b) = fnv1a_pair(parts);
    format!("{a:016x}{b:016x}")
}

/// A thread-safe cache of prepared verifiers, keyed on canonical system
/// text + options fingerprint, with an alias per request text that
/// reached an entry. See the module docs for the warm-path contract.
#[derive(Default)]
pub struct VerifierCache {
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The state behind the cache's one lock.
#[derive(Default)]
struct Entries {
    /// Prepared verifiers by canonical key.
    verifiers: HashMap<String, Verifier>,
    /// Canonical keys by [`VerifierCache::text_key`]. Every alias names a
    /// key in `verifiers`: both are only ever added to, and cleared
    /// together.
    aliases: HashMap<String, String>,
}

impl VerifierCache {
    /// An empty cache.
    pub fn new() -> VerifierCache {
        VerifierCache::default()
    }

    /// The alias key of a request's program text under `options`: the
    /// text as sent, before any parsing, so two formattings of one
    /// program have two text keys (and one canonical key).
    pub fn text_key(text: &str, options: &VerifierOptions) -> String {
        content_hash(&[text, &options.fingerprint()])
    }

    /// Whether the text behind `text_key` reached an entry, so that
    /// [`VerifierCache::get_by_text`] will find it. Counts nothing.
    pub fn knows_text(&self, text_key: &str) -> bool {
        self.entries().aliases.contains_key(text_key)
    }

    /// A cache hit by request text: a request-scoped verifier of the
    /// entry the text behind `text_key` reached before, with no parse,
    /// canonical print or preparation. `None`, with nothing counted, when
    /// the text has no alias (never seen, or the cache was reset since).
    pub fn get_by_text(
        &self,
        text_key: &str,
        options: VerifierOptions,
        rec: Recorder,
    ) -> Option<Verifier> {
        let entries = self.entries();
        let prepared = entries
            .aliases
            .get(text_key)
            .and_then(|key| entries.verifiers.get(key))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(prepared.rescoped(options, rec))
    }

    /// Returns a request-scoped verifier for `parsed` under `options`,
    /// preparing (and caching) one on a miss. The boolean is `true` on a
    /// cache hit — the returned verifier then skipped preparation and
    /// carries no `parse` or `prepare` phase. When the system came from a
    /// request text, `text_key` ([`VerifierCache::text_key`]) becomes an
    /// alias of the entry, hit or miss.
    ///
    /// The recorder is attached *after* the cache decision: a cold
    /// request records its preparation phases under `rec` as usual, a
    /// warm request records nothing for preparation because none ran.
    ///
    /// # Errors
    ///
    /// Propagates [`VerifierError`] from preparation; errors are not
    /// cached (they are cheap to re-derive and carry no prepared state),
    /// and neither is the alias of a text whose preparation failed.
    pub fn get_or_prepare(
        &self,
        parsed: &ParsedSystem,
        text_key: Option<&str>,
        options: VerifierOptions,
        rec: Recorder,
    ) -> Result<(Verifier, bool), VerifierError> {
        let key = content_hash(&[&system_to_string(&parsed.system), &options.fingerprint()]);
        {
            let mut entries = self.entries();
            let Entries { verifiers, aliases } = &mut *entries;
            if let Some(prepared) = verifiers.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(text_key) = text_key {
                    aliases.insert(text_key.to_string(), key);
                }
                return Ok((prepared.rescoped(options, rec), true));
            }
        }
        // Prepare outside the lock: preparation can be slow and other
        // requests (other keys) should not queue behind it. Two racing
        // misses on the same key both prepare; the second insert wins and
        // both results are equivalent (preparation is deterministic).
        let prepared = Verifier::prepare_parsed(parsed, options.clone(), rec.clone())?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let scoped = prepared.rescoped(options, rec);
        let mut entries = self.entries();
        if let Some(text_key) = text_key {
            entries.aliases.insert(text_key.to_string(), key.clone());
        }
        entries.verifiers.insert(key, prepared);
        Ok((scoped, false))
    }

    /// The locked entries and aliases.
    ///
    /// A panic while the lock was held poisons it; prepared verifiers
    /// are a pure memo, so the cache is then reset to empty (aliases
    /// included) and the poison cleared rather than failing every later
    /// request of a long-lived host.
    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|poisoned| {
            let mut entries = poisoned.into_inner();
            *entries = Entries::default();
            self.entries.clear_poison();
            entries
        })
    }

    /// Cache hits so far, by canonical key or by request text.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (preparations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of prepared verifiers currently held.
    pub fn len(&self) -> usize {
        self.entries().verifiers.len()
    }

    /// Number of request texts currently aliased to an entry.
    pub fn aliases(&self) -> usize {
        self.entries().aliases.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for VerifierCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifierCache")
            .field("len", &self.len())
            .field("aliases", &self.aliases())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::EngineId;
    use parra_program::builder::SystemBuilder;
    use parra_program::system::ParamSystem;

    fn parsed(system: &ParamSystem) -> ParsedSystem {
        ParsedSystem {
            system: system.clone(),
            parse_us: 0,
        }
    }

    /// A lookup of `sys` as a caller that parsed no text makes it.
    fn lookup(
        cache: &VerifierCache,
        sys: &ParamSystem,
        options: VerifierOptions,
    ) -> Result<(Verifier, bool), VerifierError> {
        cache.get_or_prepare(&parsed(sys), None, options, Recorder::disabled())
    }

    fn handshake(safe: bool) -> ParamSystem {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        if !safe {
            d.store(y, 1);
        }
        d.load(s, x).assume_eq(s, 1).assert_false();
        let d = d.finish();
        b.build(env, vec![d])
    }

    #[test]
    fn warm_lookup_reuses_preparation_and_skips_the_prepare_phase() {
        let cache = VerifierCache::new();
        let sys = handshake(false);
        let (cold, was_cached) = lookup(&cache, &sys, VerifierOptions::default()).expect("prepare");
        assert!(!was_cached);
        assert_eq!(cache.misses(), 1);
        let cold_result = cold.run(EngineId::SimplifiedReach);

        let (warm, was_cached) = lookup(&cache, &sys, VerifierOptions::default()).expect("lookup");
        assert!(was_cached);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        let warm_result = warm.run(EngineId::SimplifiedReach);

        assert_eq!(cold_result.verdict, warm_result.verdict);
        assert_eq!(cold_result.notes, warm_result.notes);
        // The preparation time belongs to the cold request's first run;
        // the warm report must show no prepare phase at all.
        assert!(
            !warm_result.phases.iter().any(|(n, _)| n == "prepare"),
            "warm run re-claimed the prepare phase: {:?}",
            warm_result.phases
        );
    }

    #[test]
    fn formatting_differences_share_an_entry_but_options_do_not() {
        let cache = VerifierCache::new();
        let sys = handshake(true);
        lookup(&cache, &sys, VerifierOptions::default()).expect("prepare");
        // Same system again: the canonical text, not the builder
        // identity, is the key.
        let again = handshake(true);
        let (_, was_cached) = lookup(&cache, &again, VerifierOptions::default()).expect("lookup");
        assert!(was_cached);
        // A verdict-relevant option change is a different experiment.
        let widened = VerifierOptions {
            concrete_max_env: 9,
            ..VerifierOptions::default()
        };
        let (_, was_cached) = lookup(&cache, &sys, widened).expect("prepare");
        assert!(!was_cached);
        assert_eq!(cache.len(), 2);
        // Neither is the ignored `threads` nor a scheduling knob
        // (`timeout`).
        let rescheduled = VerifierOptions {
            threads: 3,
            timeout: Some(std::time::Duration::from_secs(30)),
            ..VerifierOptions::default()
        };
        let (_, was_cached) = lookup(&cache, &sys, rescheduled).expect("lookup");
        assert!(was_cached);
    }

    #[test]
    fn preparation_errors_are_propagated_not_cached() {
        let cache = VerifierCache::new();
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let env = {
            let mut p = b.program("env");
            p.skip();
            p.finish()
        };
        // A dis loop without an unroll bound: NeedsUnrolling.
        let mut d = b.program("d");
        let r = d.reg("r");
        d.star(|p| {
            p.load(r, x);
        });
        d.assert_false();
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let key = VerifierCache::text_key("loopy", &VerifierOptions::default());
        let err = cache
            .get_or_prepare(
                &parsed(&sys),
                Some(&key),
                VerifierOptions::default(),
                Recorder::disabled(),
            )
            .expect_err("loopy dis without unroll must be rejected");
        assert_eq!(err, VerifierError::NeedsUnrolling);
        assert!(cache.is_empty());
        assert!(!cache.knows_text(&key), "a failed text must not be aliased");
        // With the bound the same text prepares fine.
        let opts = VerifierOptions {
            unroll_dis: Some(2),
            ..VerifierOptions::default()
        };
        let (_, was_cached) = lookup(&cache, &sys, opts).expect("prepare with unroll");
        assert!(!was_cached);
    }

    #[test]
    fn a_poisoned_lock_resets_the_cache_instead_of_panicking() {
        let cache = VerifierCache::new();
        let sys = handshake(true);
        let key = VerifierCache::text_key(&system_to_string(&sys), &VerifierOptions::default());
        cache
            .get_or_prepare(
                &parsed(&sys),
                Some(&key),
                VerifierOptions::default(),
                Recorder::disabled(),
            )
            .expect("prepare");
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.entries.lock().unwrap();
                panic!("poison the verifier cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.entries.is_poisoned());
        // The reset drops the aliases with the entries they name.
        assert!(!cache.knows_text(&key));
        assert_eq!(cache.aliases(), 0);
        let (_, was_cached) = lookup(&cache, &sys, VerifierOptions::default())
            .expect("a poisoned cache still serves");
        assert!(!was_cached, "the reset cache must miss");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
        assert!(!cache.entries.is_poisoned());
    }

    #[test]
    fn a_request_text_aliases_the_entry_it_reached() {
        let cache = VerifierCache::new();
        let sys = handshake(false);
        let text = system_to_string(&sys);
        let opts = VerifierOptions::default();
        let key = VerifierCache::text_key(&text, &opts);
        assert!(!cache.knows_text(&key));
        assert!(cache
            .get_by_text(&key, opts.clone(), Recorder::disabled())
            .is_none());
        assert_eq!(cache.hits(), 0, "a text that misses counts nothing");

        let (cold, was_cached) = cache
            .get_or_prepare(
                &parsed(&sys),
                Some(&key),
                opts.clone(),
                Recorder::disabled(),
            )
            .expect("prepare");
        assert!(!was_cached);
        assert!(cache.knows_text(&key));
        let warm = cache
            .get_by_text(&key, opts.clone(), Recorder::disabled())
            .expect("the text reached an entry");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let (cold, warm) = (
            cold.run(EngineId::SimplifiedReach),
            warm.run(EngineId::SimplifiedReach),
        );
        assert_eq!(cold.verdict, warm.verdict);
        assert_eq!(cold.witness_lines, warm.witness_lines);
        assert!(
            !warm
                .phases
                .iter()
                .any(|(n, _)| n == "prepare" || n == "parse"),
            "a hit by text re-claimed a preparation phase: {:?}",
            warm.phases
        );

        // Another formatting of the program is another text: it finds the
        // entry by its canonical key and becomes a second alias of it.
        let spaced = text.replace('\n', "\n\n  ");
        let spaced_key = VerifierCache::text_key(&spaced, &opts);
        assert_ne!(spaced_key, key);
        assert!(!cache.knows_text(&spaced_key));
        let (_, was_cached) = cache
            .get_or_prepare(&parsed(&sys), Some(&spaced_key), opts, Recorder::disabled())
            .expect("lookup");
        assert!(was_cached);
        assert_eq!((cache.len(), cache.aliases()), (1, 2));
        assert_eq!((cache.hits(), cache.misses()), (2, 1));

        // A verdict-relevant option makes the same text another key.
        let unrolled = VerifierOptions {
            unroll_dis: Some(2),
            ..VerifierOptions::default()
        };
        assert!(!cache.knows_text(&VerifierCache::text_key(&text, &unrolled)));
    }
}
