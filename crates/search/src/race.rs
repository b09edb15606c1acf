//! Racing N *heterogeneous* jobs: first decisive result wins.
//!
//! The rest of this crate parallelises one search by sharding its
//! frontier; this module parallelises a *portfolio* — N different
//! algorithms attacking the same problem, where any one decisive answer
//! makes the others redundant. The scheduler:
//!
//! 1. spawns one scoped thread per job (jobs are closures, so the racers
//!    can be completely different engines);
//! 2. lets the first job to return a *decisive* result (as judged by the
//!    caller's predicate) claim the win — exactly one winner, decided by
//!    an atomic claim, even if two jobs finish decisively back-to-back;
//! 3. invokes the caller's `on_win` callback at claim time, from the
//!    winning job's thread — this is where the caller cancels the losers
//!    via a race-scoped [`CancelToken`](../parra_limits/struct.CancelToken.html);
//! 4. joins everything and returns *all* results in job order, plus the
//!    winner's index.
//!
//! Every job runs to completion (typically fast, once cancelled) and
//! every result is returned: losers are data — the portfolio scheduler
//! records them as metadata rather than discarding them. A job that
//! panics poisons nothing: its slot reports the panic payload and the
//! race goes on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The outcome of [`race`]: every job's result, in job order, and which
/// job (if any) claimed the decisive win.
#[derive(Debug)]
pub struct RaceOutcome<T> {
    /// One entry per job, in the order the jobs were passed.
    /// `Err(message)` if the job panicked.
    pub results: Vec<Result<T, String>>,
    /// Index of the first job whose result was decisive, if any.
    pub winner: Option<usize>,
}

/// Sentinel for "no winner claimed yet".
const NO_WINNER: usize = usize::MAX;

/// Runs `f`, containing a panic as `Err(message)` — the one panic
/// boundary of the workspace: the race below, the verifier's isolated
/// engine runs, the batch/campaign selection path, and the serve
/// daemon's last-resort request shield all go through it.
///
/// The message is the panic payload when it is a string (`&str` and
/// `String` cover every `panic!` in the workspace).
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Races `jobs` to the first decisive result.
///
/// `decisive` judges each job's result as it arrives; the first decisive
/// one claims the win and `on_win` fires exactly once, immediately, on
/// the winning job's thread (before the other jobs are joined). All jobs
/// are joined before returning, so `on_win` must make the losers finish
/// — in `parra` it cancels a race-scoped `CancelToken` the losers poll.
///
/// With zero jobs the outcome is empty with no winner.
pub fn race<T, F>(
    jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>,
    decisive: F,
    on_win: impl Fn() + Sync,
) -> RaceOutcome<T>
where
    T: Send,
    F: Fn(&T) -> bool + Sync,
{
    let n = jobs.len();
    let winner = AtomicUsize::new(NO_WINNER);
    let mut results: Vec<Option<Result<T, String>>> = Vec::new();
    results.resize_with(n, || None);

    std::thread::scope(|scope| {
        let winner = &winner;
        let decisive = &decisive;
        let on_win = &on_win;
        let mut handles = Vec::with_capacity(n);
        for (idx, job) in jobs.into_iter().enumerate() {
            handles.push(scope.spawn(move || {
                let result = catch_panic(job);
                if let Ok(value) = &result {
                    if decisive(value)
                        && winner
                            .compare_exchange(NO_WINNER, idx, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        on_win();
                    }
                }
                result
            }));
        }
        for (idx, handle) in handles.into_iter().enumerate() {
            // The closure catches job panics, so join only fails if the
            // scheduler itself is broken.
            results[idx] = Some(handle.join().expect("race worker survives"));
        }
    });

    RaceOutcome {
        results: results.into_iter().map(|r| r.expect("joined")).collect(),
        winner: match winner.load(Ordering::Acquire) {
            NO_WINNER => None,
            idx => Some(idx),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    #[test]
    fn empty_race_has_no_winner() {
        let out = race(
            Vec::<Box<dyn FnOnce() -> u32 + Send>>::new(),
            |_| true,
            || {},
        );
        assert!(out.results.is_empty());
        assert_eq!(out.winner, None);
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..8)
            .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = race(jobs, |_| false, || {});
        assert_eq!(
            out.results
                .into_iter()
                .map(Result::unwrap)
                .collect::<Vec<_>>(),
            (0usize..8).map(|i| i * 10).collect::<Vec<_>>()
        );
        assert_eq!(out.winner, None, "nothing decisive, nothing won");
    }

    #[test]
    fn first_decisive_wins_and_fires_cancel_once() {
        // Job 1 answers decisively right away; job 0 blocks until the
        // win callback fires, proving on_win runs before the join.
        let (tx, rx) = mpsc::channel::<()>();
        let fired = AtomicBool::new(false);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
            Box::new(move || {
                rx.recv().expect("winner signals");
                -1 // indecisive
            }),
            Box::new(|| 42),
        ];
        let out = race(
            jobs,
            |v| *v >= 0,
            || {
                assert!(!fired.swap(true, Ordering::SeqCst), "on_win fired twice");
                tx.send(()).expect("loser still waiting");
            },
        );
        assert_eq!(out.winner, Some(1));
        assert_eq!(out.results[1].as_ref().unwrap(), &42);
        assert_eq!(out.results[0].as_ref().unwrap(), &-1);
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn all_decisive_claims_exactly_one_winner() {
        let wins = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0u32..6)
            .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> u32 + Send>)
            .collect();
        let out = race(
            jobs,
            |_| true,
            || {
                wins.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(wins.load(Ordering::SeqCst), 1);
        let w = out.winner.expect("someone won");
        assert!(w < 6);
    }

    #[test]
    fn panicking_job_reports_and_race_continues() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("engine exploded")), Box::new(|| 7)];
        let out = race(jobs, |v| *v == 7, || {});
        assert_eq!(out.winner, Some(1));
        let err = out.results[0].as_ref().unwrap_err();
        assert!(err.contains("engine exploded"), "got: {err}");
        assert_eq!(out.results[1].as_ref().unwrap(), &7);
    }
}
