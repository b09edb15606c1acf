//! Allocation regression for the tuple arena: after a `reserve`, the
//! steady-state insert path (`TupleStore::intern` and `lookup`) performs
//! **zero** heap allocations per tuple. This is the property that makes
//! the interned representation worth having — a regression that sneaks a
//! per-derivation `Vec` or clone back in shows up here as a nonzero
//! counter, not as a quiet benchmark slide.
//!
//! The whole integration-test binary runs under a counting allocator
//! (test binaries get their own process, so the shim does not leak into
//! other suites). It counts per thread, so each measurement sees only
//! the allocations of the test thread that takes it.

use parra_datalog::ast::{Const, PredId};
use parra_datalog::TupleStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Keeps the tests' measured windows apart. The counter below is per
/// thread, so this is belt and braces: a window only ever counts its own
/// thread's allocations, whatever the harness's other threads do.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], also after a sibling test panicked holding it.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts every allocation and reallocation made by the calling thread;
/// frees are irrelevant to the steady-state property.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and destructor-free, so the allocator can touch
    // it without allocating or re-entering itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // During thread teardown the slot may be gone; those allocations are
    // outside every measured window anyway.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const TUPLES: u32 = 2_000;
const ARITY: usize = 3;

#[test]
fn steady_state_intern_allocates_nothing() {
    let _guard = serial();
    let pred = PredId(0);
    let mut store = TupleStore::new();
    store.reserve(TUPLES as usize, TUPLES as usize * ARITY);

    let before = allocations();
    let mut args = [Const(0); ARITY];
    for i in 0..TUPLES {
        args[0] = Const(i);
        args[1] = Const(i ^ 1);
        args[2] = Const(i % 7);
        let (id, fresh) = store.intern(pred, &args);
        assert!(fresh);
        assert_eq!(store.args(id), &args);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "interning {TUPLES} reserved tuples allocated {} times — the \
         zero-allocation insert path regressed",
        after - before
    );
    assert_eq!(store.len(), TUPLES as usize);
}

#[test]
fn lookup_and_duplicate_intern_allocate_nothing() {
    let _guard = serial();
    let pred = PredId(0);
    let mut store = TupleStore::new();
    store.reserve(TUPLES as usize, TUPLES as usize * ARITY);
    let mut args = [Const(0); ARITY];
    for i in 0..TUPLES {
        args[0] = Const(i);
        args[1] = Const(i);
        args[2] = Const(i);
        store.intern(pred, &args);
    }

    let before = allocations();
    for i in 0..TUPLES {
        args[0] = Const(i);
        args[1] = Const(i);
        args[2] = Const(i);
        assert!(store.lookup(pred, &args).is_some(), "tuple {i} vanished");
        let (_, fresh) = store.intern(pred, &args);
        assert!(!fresh, "tuple {i} was re-interned as new");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lookups and duplicate interns allocated {} times",
        after - before
    );
}

/// Without a reserve the store must still work — growth allocates, but
/// only O(log n) times (amortized doubling), never per tuple.
#[test]
fn unreserved_growth_allocates_logarithmically() {
    let _guard = serial();
    let pred = PredId(0);
    let mut store = TupleStore::new();
    let before = allocations();
    let mut args = [Const(0); ARITY];
    for i in 0..TUPLES {
        args[0] = Const(i);
        args[1] = Const(i + 1);
        args[2] = Const(i + 2);
        store.intern(pred, &args);
    }
    let grown = allocations() - before;
    // 4 growable buffers + the hash table, each doubling ~log2(2000) ≈ 11
    // times from small starts: far below one allocation per tuple.
    assert!(
        grown < TUPLES as usize / 10,
        "{grown} allocations for {TUPLES} unreserved interns — growth is \
         no longer amortized"
    );
}
