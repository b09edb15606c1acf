//! The stable content key identifying one unit of campaign work.
//!
//! A campaign must recognize work it has already done across processes,
//! machines, and re-orderings of the input list, so the key cannot be a
//! path, an index, or anything session-scoped. It is a 128-bit hash over
//! three framed components:
//!
//! 1. the **canonical system text** — the pretty-printer's rendering of
//!    the *parsed* system, so formatting, comments-free whitespace, and
//!    file renames do not change the key;
//! 2. the **engine id** — the portfolio selection label
//!    (`simplified-reach`, `all-engines`, `race`, ...);
//! 3. the **options fingerprint** — the verdict-relevant half of
//!    `VerifierOptions` (see `VerifierOptions::fingerprint`): unroll
//!    depth and engine search limits, but *not* thread counts (verdicts
//!    are thread-count-deterministic) and *not* deadlines or memory
//!    budgets (an exhausted budget degrades to `Interrupted`, which a
//!    resume re-runs anyway — keying on the budget would throw away
//!    every decisive verdict whenever a sweep's time slice changes).
//!
//! The hash is [`parra_core::cache::content_hash`], the 128-bit double
//! FNV-1a the prepared-verifier cache also keys on; the std-only
//! constraint rules out pulling in a real SHA implementation. Existing
//! stores' keys depend on it staying byte-for-byte stable.

use parra_core::cache::content_hash;

/// The campaign key of one `(system, engine, options)` work unit, as 32
/// lower-case hex digits. `canonical_text` must already be canonical
/// (parse + pretty-print); this function hashes exactly what it is
/// given.
pub fn content_key(canonical_text: &str, engine_id: &str, options_fp: &str) -> String {
    content_hash(&[canonical_text, engine_id, options_fp])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_component_sensitive() {
        let k = content_key("sys", "all-engines", "unroll=None");
        assert_eq!(k, content_key("sys", "all-engines", "unroll=None"));
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_ne!(k, content_key("sys2", "all-engines", "unroll=None"));
        assert_ne!(k, content_key("sys", "race", "unroll=None"));
        assert_ne!(k, content_key("sys", "all-engines", "unroll=Some(2)"));
    }

    /// Keys written by earlier releases must keep resolving: this pins
    /// one key to the value every store so far has used.
    #[test]
    fn key_is_pinned_across_releases() {
        assert_eq!(
            content_key("sys", "all-engines", "unroll=None"),
            "fad72750008a818b9d3a7f219f9571d2"
        );
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        assert_ne!(content_key("ab", "c", ""), content_key("a", "bc", ""));
        assert_ne!(content_key("", "x", ""), content_key("x", "", ""));
    }
}
