//! Deterministic parallel map over a frontier.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item and returns the results **in item order**,
/// fanning the work out over `workers` OS threads
/// (`std::thread::scope`-based; no pool, no channels).
///
/// `f` receives `(worker, index, item)`: the worker slot (for per-worker
/// metrics), the item's index, and the item. Items are claimed from a
/// shared atomic cursor, so scheduling is dynamic (good for skewed
/// expansion costs), but results are scattered back by index — the output
/// is independent of which worker ran what, which is the property the
/// engines' deterministic merges rely on.
///
/// With `workers <= 1` (or fewer than two items) everything runs inline
/// on the caller's thread in index order: the sequential legacy path, with
/// no thread ever spawned.
///
/// # Panics
///
/// Re-raises a panic from `f` with its own payload (the scope joins all
/// workers first), so [`catch_panic`](crate::catch_panic) sees the
/// worker's message.
pub fn ordered_map<I, O, F>(workers: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, usize, &I) -> O + Sync,
{
    if workers <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| f(0, i, it))
            .collect();
    }
    let n_workers = workers.min(items.len());
    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(w, i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    for bucket in buckets {
        for (i, o) in bucket {
            slots[i] = Some(o);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

/// The number of frontier states to buffer per parallel expansion batch.
///
/// Engines expand a round in chunks of this size: large enough to
/// amortize thread spawns and keep `workers` busy under skewed expansion
/// costs, small enough that the buffered successors stay
/// `O(chunk × branching)` however large the frontier grows. Chunks are
/// merged in frontier order, so chunking is invisible in the reports.
pub fn round_chunk(workers: usize) -> usize {
    workers.max(1) * 256
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 4, 7] {
            let out = ordered_map(workers, &items, |_, i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_path_spawns_no_workers() {
        // worker slot is always 0 when workers == 1.
        let items = [10, 20, 30];
        let out = ordered_map(1, &items, |w, _, &x| {
            assert_eq!(w, 0);
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = ordered_map(4, &items, |_, _, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, items);
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let items: Vec<u32> = (0..16).collect();
        let caught = crate::catch_panic(|| {
            ordered_map(4, &items, |_, i, &x| {
                if i == 7 {
                    panic!("item 7 exploded");
                }
                x
            })
        });
        assert_eq!(caught, Err("item 7 exploded".to_string()));
    }

    #[test]
    fn empty_and_singleton_frontiers() {
        let none: Vec<u8> = vec![];
        assert!(ordered_map(4, &none, |_, _, &x| x).is_empty());
        assert_eq!(ordered_map(4, &[42], |_, _, &x: &i32| x), vec![42]);
    }
}
