//! The shared resource budget: deadline, memory limit, cancellation.

use crate::alloc::{heap_in_use, heap_peak};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed run stopped before reaching a verdict.
///
/// Ordering of checks is fixed (cancelled, then deadline, then memory) so
/// that a run tripping several limits at once reports deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The tracked heap exceeded the memory limit.
    Memory,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl InterruptReason {
    /// Stable lower-case name used in JSON reports and obs counters.
    pub fn as_str(self) -> &'static str {
        match self {
            InterruptReason::Deadline => "deadline",
            InterruptReason::Memory => "memory",
            InterruptReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One token's own cancellation state: a request generation counter and
/// the generation up to which requests have been consumed.
#[derive(Debug, Default)]
struct CancelFlag {
    requested: AtomicU64,
    acknowledged: AtomicU64,
}

impl CancelFlag {
    fn pending(&self) -> bool {
        self.requested.load(Ordering::Acquire) > self.acknowledged.load(Ordering::Acquire)
    }
}

/// A shared flag for cooperative cancellation, organised as a tree.
///
/// Clones share the same underlying flag; cancelling any clone cancels
/// all of them. Engines observe cancellation at round granularity via
/// [`ResourceBudget::check`].
///
/// Tokens are hierarchical: [`child`](CancelToken::child) derives a
/// token that observes the parent's cancellation (and every ancestor's)
/// but whose own [`cancel`](CancelToken::cancel) never propagates
/// upward. This is how one verification run — or one portfolio race —
/// scopes cancellation: the scheduler cancels a race-local child to stop
/// the losing engines without tripping the caller's token.
///
/// A cancellation request is *consumed* with
/// [`acknowledge`](CancelToken::acknowledge): once the owner of a token
/// has observed and handled a request (e.g. reported the run as
/// interrupted), acknowledging it re-arms the token so later runs under
/// the same token proceed. Requests are counted, so a cancel that
/// arrives after an acknowledge is a fresh, observable request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    own: Arc<CancelFlag>,
    /// Root-first chain of ancestor flags, excluding `own`.
    ancestors: Arc<[Arc<CancelFlag>]>,
}

impl CancelToken {
    /// A fresh, un-cancelled root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every clone and every descendant observes
    /// it. Ancestors do not.
    pub fn cancel(&self) {
        self.own.requested.fetch_add(1, Ordering::Release);
    }

    /// Whether an unconsumed cancellation request is pending on this
    /// token or any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        self.own.pending() || self.ancestors.iter().any(|a| a.pending())
    }

    /// Derives a child token: it observes this token's cancellation, but
    /// cancelling the child is invisible here.
    pub fn child(&self) -> CancelToken {
        let mut chain = Vec::with_capacity(self.ancestors.len() + 1);
        chain.extend(self.ancestors.iter().cloned());
        chain.push(Arc::clone(&self.own));
        CancelToken {
            own: Arc::default(),
            ancestors: chain.into(),
        }
    }

    /// Consumes every cancellation request made *on this token* so far,
    /// re-arming it for subsequent runs. Pending requests on ancestors
    /// are untouched (they belong to the ancestors' owners). No-op if
    /// nothing is pending. A concurrent `cancel` racing with the
    /// acknowledge may be consumed along with the ones already observed.
    pub fn acknowledge(&self) {
        self.own.acknowledged.store(
            self.own.requested.load(Ordering::Acquire),
            Ordering::Release,
        );
    }
}

/// A resource budget for one engine run.
///
/// The default budget is unlimited: every [`check`](ResourceBudget::check)
/// passes and a governed run is indistinguishable from an ungoverned one.
/// Budgets are cheap to clone (an `Instant`, a `usize`, and an `Arc`) and
/// are handed by value to each engine run (and to each `--race` racer).
///
/// # Example
///
/// ```
/// use parra_limits::{InterruptReason, ResourceBudget};
/// use std::time::Duration;
///
/// let gov = ResourceBudget::unlimited().with_deadline(Duration::ZERO);
/// assert_eq!(gov.check(), Err(InterruptReason::Deadline));
/// assert!(ResourceBudget::unlimited().check().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceBudget {
    deadline: Option<Instant>,
    memory_limit: Option<usize>,
    cancel: Option<CancelToken>,
}

impl ResourceBudget {
    /// A budget that never interrupts. Identical to `Default::default()`.
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget::default()
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> ResourceBudget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute wall-clock deadline.
    ///
    /// Long-lived callers (the fuzz runner, `parra serve`) anchor a
    /// `--timeout` at *request admission* rather than at flag-parse /
    /// process-start time: capture `Instant::now()` when the work is
    /// admitted and pass `admitted + timeout` here. Building the budget
    /// early with [`with_deadline`](ResourceBudget::with_deadline) would
    /// silently shrink the window for every request after the first.
    pub fn with_deadline_at(mut self, at: Instant) -> ResourceBudget {
        self.deadline = Some(at);
        self
    }

    /// Sets an approximate limit on live heap bytes.
    ///
    /// Enforced only when the process installed
    /// [`TrackingAlloc`](crate::TrackingAlloc) as its global allocator; otherwise heap
    /// usage is unknown and the limit soundly never trips.
    pub fn with_memory_limit(mut self, bytes: usize) -> ResourceBudget {
        self.memory_limit = Some(bytes);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> ResourceBudget {
        self.cancel = Some(token);
        self
    }

    /// Whether every check trivially passes.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.memory_limit.is_none() && self.cancel.is_none()
    }

    /// Checks the budget; `Err` names the first exhausted resource.
    ///
    /// Side-effect free: a run that completes under a budget takes exactly
    /// the same steps as an unlimited run. Engines call this once per
    /// round, so the cost is a couple of atomic loads plus (when a
    /// deadline is set) one `Instant::now()`.
    pub fn check(&self) -> Result<(), InterruptReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(InterruptReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(InterruptReason::Deadline);
            }
        }
        if let Some(limit) = self.memory_limit {
            if let Some(in_use) = heap_in_use() {
                if in_use > limit {
                    return Err(InterruptReason::Memory);
                }
            }
        }
        Ok(())
    }

    /// A point-in-time measurement of how much budget remains — polled by
    /// the flight recorder into events' volatile sections.
    pub fn headroom(&self) -> Headroom {
        Headroom {
            deadline_left_us: self
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()).as_micros() as u64),
            memory_left_bytes: match (self.memory_limit, heap_in_use()) {
                (Some(limit), Some(in_use)) => Some(limit.saturating_sub(in_use) as u64),
                _ => None,
            },
            heap_in_use_bytes: heap_in_use().map(|b| b as u64),
            heap_peak_bytes: heap_peak().map(|b| b as u64),
        }
    }
}

/// Remaining budget at a point in time (see [`ResourceBudget::headroom`]).
///
/// All values are wall-clock / environment dependent, so the flight
/// recorder only ever places them in an event's `volatile` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Headroom {
    /// Microseconds until the deadline (`None` without a deadline).
    pub deadline_left_us: Option<u64>,
    /// Bytes left under the memory limit (`None` without a limit or a
    /// tracking allocator).
    pub memory_left_bytes: Option<u64>,
    /// Current live heap bytes (`None` without a tracking allocator).
    pub heap_in_use_bytes: Option<u64>,
    /// Process-lifetime heap high-watermark.
    pub heap_peak_bytes: Option<u64>,
}

impl Headroom {
    /// The headroom as `(name, value)` pairs for an event's volatile
    /// section, skipping unknown dimensions.
    pub fn volatile_fields(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        if let Some(v) = self.deadline_left_us {
            out.push(("deadline_left_us", v));
        }
        if let Some(v) = self.memory_left_bytes {
            out.push(("memory_left_bytes", v));
        }
        if let Some(v) = self.heap_in_use_bytes {
            out.push(("heap_bytes", v));
        }
        if let Some(v) = self.heap_peak_bytes {
            out.push(("heap_peak_bytes", v));
        }
        out
    }
}

/// Parses a human byte size: a decimal integer with an optional
/// `K`/`M`/`G` (or `KB`/`MB`/`GB`, case-insensitive) suffix.
///
/// ```
/// use parra_limits::parse_byte_size;
/// assert_eq!(parse_byte_size("512"), Some(512));
/// assert_eq!(parse_byte_size("64K"), Some(64 * 1024));
/// assert_eq!(parse_byte_size("2gb"), Some(2 * 1024 * 1024 * 1024));
/// assert_eq!(parse_byte_size("lots"), None);
/// ```
pub fn parse_byte_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let digits_end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if digits_end == 0 {
        return None;
    }
    let value: usize = s[..digits_end].parse().ok()?;
    let mult: usize = match s[digits_end..].trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1,
        "k" | "kb" => 1024,
        "m" | "mb" => 1024 * 1024,
        "g" | "gb" => 1024 * 1024 * 1024,
        _ => return None,
    };
    value.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let gov = ResourceBudget::unlimited();
        assert!(gov.is_unlimited());
        assert_eq!(gov.check(), Ok(()));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let gov = ResourceBudget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(gov.check(), Err(InterruptReason::Deadline));
    }

    #[test]
    fn absolute_deadline_anchors_where_told() {
        // A deadline anchored in the past trips immediately; one anchored
        // in the future passes — independent of when the budget value
        // itself was constructed.
        let base = Instant::now();
        let spent = ResourceBudget::unlimited().with_deadline_at(base);
        assert_eq!(spent.check(), Err(InterruptReason::Deadline));
        let live = ResourceBudget::unlimited().with_deadline_at(base + Duration::from_secs(3600));
        assert_eq!(live.check(), Ok(()));
        assert!(!live.is_unlimited());
    }

    #[test]
    fn generous_deadline_passes() {
        let gov = ResourceBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(gov.check(), Ok(()));
    }

    #[test]
    fn cancellation_is_shared_and_wins_over_deadline() {
        let token = CancelToken::new();
        let gov = ResourceBudget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancel(token.clone());
        // Deadline already passed, but not yet cancelled: deadline reported.
        assert_eq!(gov.check(), Err(InterruptReason::Deadline));
        token.cancel();
        assert_eq!(gov.check(), Err(InterruptReason::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());

        // Cancelling the child is invisible to the parent (race-scoped
        // cancellation must never trip the caller's token).
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());

        // Cancelling the parent reaches the child — and a grandchild.
        let child2 = parent.child();
        let grandchild = child2.child();
        parent.cancel();
        assert!(child2.is_cancelled());
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn acknowledge_consumes_request_and_rearms() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        token.acknowledge();
        assert!(!token.is_cancelled(), "acknowledged request is consumed");
        // A later request is a fresh, observable one.
        token.cancel();
        assert!(token.is_cancelled());
        // Acknowledging an un-cancelled token is a no-op.
        token.acknowledge();
        token.acknowledge();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn acknowledge_on_child_does_not_consume_parent_request() {
        let parent = CancelToken::new();
        let child = parent.child();
        parent.cancel();
        assert!(child.is_cancelled());
        // The child cannot consume its parent's request; only the
        // parent's owner may.
        child.acknowledge();
        assert!(child.is_cancelled());
        assert!(parent.is_cancelled());
        parent.acknowledge();
        assert!(!child.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn clones_share_state_with_children_too() {
        let parent = CancelToken::new();
        let child = parent.child();
        let child_clone = child.clone();
        child.cancel();
        assert!(child_clone.is_cancelled());
        child_clone.acknowledge();
        assert!(!child.is_cancelled());
    }

    #[test]
    fn memory_limit_without_tracking_allocator_never_trips() {
        // This test binary does not install TrackingAlloc, so heap usage
        // is unknown and the limit must not trip (soundness: limits only
        // ever stop a run early, they never invent an interruption).
        let gov = ResourceBudget::unlimited().with_memory_limit(1);
        assert_eq!(gov.check(), Ok(()));
    }

    #[test]
    fn headroom_reports_remaining_deadline_and_skips_unknowns() {
        let h = ResourceBudget::unlimited().headroom();
        assert_eq!(h.deadline_left_us, None);
        // No tracking allocator in this test binary: memory dims unknown.
        assert_eq!(h.memory_left_bytes, None);

        let h = ResourceBudget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .headroom();
        let left = h.deadline_left_us.expect("deadline set");
        assert!(left > 3_000_000_000, "almost the whole hour should remain");
        let fields = h.volatile_fields();
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].0, "deadline_left_us");

        let h = ResourceBudget::unlimited()
            .with_deadline(Duration::ZERO)
            .headroom();
        assert_eq!(h.deadline_left_us, Some(0));
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("123"), Some(123));
        assert_eq!(parse_byte_size("123b"), Some(123));
        assert_eq!(parse_byte_size(" 8K "), Some(8192));
        assert_eq!(parse_byte_size("16kb"), Some(16384));
        assert_eq!(parse_byte_size("3M"), Some(3 * 1024 * 1024));
        assert_eq!(parse_byte_size("1G"), Some(1 << 30));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("K"), None);
        assert_eq!(parse_byte_size("12X"), None);
        assert_eq!(parse_byte_size("-3"), None);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(InterruptReason::Deadline.to_string(), "deadline");
        assert_eq!(InterruptReason::Memory.to_string(), "memory");
        assert_eq!(InterruptReason::Cancelled.to_string(), "cancelled");
    }
}
