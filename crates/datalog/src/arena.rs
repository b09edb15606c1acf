//! Interned tuple arena: every derived ground tuple is stored exactly once.
//!
//! The evaluation substrate keys all of its bookkeeping on [`AtomId`] — a
//! dense, `Copy`, insertion-ordered handle — instead of cloning
//! [`GroundAtom`]s into hash maps. Argument
//! constants live in one flat `Vec<Const>`; per-atom metadata (predicate,
//! span, cached hash) lives in parallel columns; membership is decided by
//! an open-addressing table of `u32` slots probing on the cached hashes.
//!
//! On the steady-state insert path ([`TupleStore::intern`] after a
//! [`TupleStore::reserve`]) no heap allocation happens at all — pinned by
//! the allocator-shim regression test in `tests/arena_alloc.rs`.

use crate::ast::{Const, GroundAtom, PredId};

/// A handle to an interned ground tuple.
///
/// Ids are dense and assigned in insertion order: `AtomId(i)` is the
/// `i`-th tuple ever interned, so a store doubles as a derivation-ordered
/// log of the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a predicate and an argument slice. Collisions are harmless:
/// every probe re-verifies candidates against the stored tuple.
#[inline]
pub fn hash_tuple(pred: PredId, args: &[Const]) -> u64 {
    let mut h = FNV_OFFSET;
    h ^= pred.0 as u64;
    h = h.wrapping_mul(FNV_PRIME);
    for c in args {
        h ^= c.0 as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over an arbitrary key slice (used by the column indices to hash
/// the bound-column values of a probe).
#[inline]
pub fn hash_key(vals: &[Const]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in vals {
        h ^= c.0 as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The interning arena.
///
/// # Example
///
/// ```
/// use parra_datalog::arena::TupleStore;
/// use parra_datalog::ast::{Const, PredId};
///
/// let mut store = TupleStore::new();
/// let p = PredId(0);
/// let (id, fresh) = store.intern(p, &[Const(1), Const(2)]);
/// assert!(fresh);
/// let (again, fresh2) = store.intern(p, &[Const(1), Const(2)]);
/// assert_eq!(id, again);
/// assert!(!fresh2);
/// assert_eq!(store.args(id), &[Const(1), Const(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct TupleStore {
    /// Per-atom predicate.
    preds: Vec<PredId>,
    /// Per-atom `(start, len)` span into `args`.
    spans: Vec<(u32, u32)>,
    /// Per-atom cached tuple hash (reused when the table grows).
    hashes: Vec<u64>,
    /// Flat argument storage.
    args: Vec<Const>,
    /// Open-addressing table: `0` = empty, otherwise `id + 1`.
    /// Length is always a power of two.
    table: Vec<u32>,
}

impl Default for TupleStore {
    fn default() -> Self {
        TupleStore::new()
    }
}

impl TupleStore {
    /// An empty store.
    pub fn new() -> TupleStore {
        TupleStore {
            preds: Vec::new(),
            spans: Vec::new(),
            hashes: Vec::new(),
            args: Vec::new(),
            table: vec![0; 16],
        }
    }

    /// Number of interned tuples.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Total number of stored argument constants.
    pub fn args_len(&self) -> usize {
        self.args.len()
    }

    /// Approximate heap footprint in bytes (capacities, not lengths).
    pub fn heap_bytes(&self) -> usize {
        self.preds.capacity() * std::mem::size_of::<PredId>()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.args.capacity() * std::mem::size_of::<Const>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Pre-sizes the store for `atoms` tuples holding `args` constants in
    /// total, so subsequent [`intern`](TupleStore::intern) calls allocate
    /// nothing until the reservation is exceeded.
    pub fn reserve(&mut self, atoms: usize, args: usize) {
        self.preds.reserve(atoms);
        self.spans.reserve(atoms);
        self.hashes.reserve(atoms);
        self.args.reserve(args);
        let want = table_size_for(self.len() + atoms);
        if want > self.table.len() {
            self.grow_table(want);
        }
    }

    /// The predicate of a tuple.
    #[inline]
    pub fn pred(&self, id: AtomId) -> PredId {
        self.preds[id.index()]
    }

    /// The argument constants of a tuple.
    #[inline]
    pub fn args(&self, id: AtomId) -> &[Const] {
        let (start, len) = self.spans[id.index()];
        &self.args[start as usize..(start + len) as usize]
    }

    /// Materializes a tuple as a [`GroundAtom`] (cold paths only: witness
    /// extraction, display, tests).
    pub fn ground(&self, id: AtomId) -> GroundAtom {
        GroundAtom {
            pred: self.pred(id),
            args: self.args(id).to_vec(),
        }
    }

    /// Looks up a tuple without inserting.
    pub fn lookup(&self, pred: PredId, args: &[Const]) -> Option<AtomId> {
        let h = hash_tuple(pred, args);
        let mask = self.table.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                return None;
            }
            let id = AtomId(slot - 1);
            if self.hashes[id.index()] == h && self.pred(id) == pred && self.args(id) == args {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns a tuple, returning its id and whether it was fresh.
    pub fn intern(&mut self, pred: PredId, args: &[Const]) -> (AtomId, bool) {
        let h = hash_tuple(pred, args);
        let mask = self.table.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                break;
            }
            let id = AtomId(slot - 1);
            if self.hashes[id.index()] == h && self.pred(id) == pred && self.args(id) == args {
                return (id, false);
            }
            i = (i + 1) & mask;
        }
        // Insert. Grow first if the load factor would exceed ~7/8 — the
        // slot found above may move, so re-probe after a grow.
        if (self.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table(self.table.len() * 2);
            let mask = self.table.len() - 1;
            i = (h as usize) & mask;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
        }
        let id = AtomId(self.preds.len() as u32);
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        self.preds.push(pred);
        self.spans.push((start, args.len() as u32));
        self.hashes.push(h);
        self.table[i] = id.0 + 1;
        (id, true)
    }

    /// Deletes every tuple with id `len` or above, so the store holds
    /// what it held after its first `len` interns, and interning one of
    /// the deleted tuples again gives it back its old id.
    ///
    /// The table always equals inserting ids `0, 1, …` in order into a
    /// table of its length: [`intern`](TupleStore::intern) appends the
    /// next id, and a grow re-inserts in id order. So no probe chain of
    /// an older tuple passes through a newer tuple's slot (it was empty
    /// when the older one was placed), and clearing the slots newest
    /// first leaves every survivor reachable.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let mask = self.table.len() - 1;
        for idx in (len..self.len()).rev() {
            let mut i = (self.hashes[idx] as usize) & mask;
            while self.table[i] != idx as u32 + 1 {
                i = (i + 1) & mask;
            }
            self.table[i] = 0;
        }
        self.args.truncate(self.spans[len].0 as usize);
        self.preds.truncate(len);
        self.spans.truncate(len);
        self.hashes.truncate(len);
    }

    fn grow_table(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        let mut table = vec![0u32; new_len];
        let mask = new_len - 1;
        for (idx, &h) in self.hashes.iter().enumerate() {
            let mut i = (h as usize) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = idx as u32 + 1;
        }
        self.table = table;
    }
}

/// The table length needed to hold `n` tuples below the 7/8 load factor.
fn table_size_for(n: usize) -> usize {
    let min = n * 8 / 7 + 1;
    min.next_power_of_two().max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_preserves_order() {
        let mut s = TupleStore::new();
        let p = PredId(3);
        let q = PredId(4);
        let (a, fresh_a) = s.intern(p, &[Const(1)]);
        let (b, fresh_b) = s.intern(q, &[Const(1)]);
        let (a2, fresh_a2) = s.intern(p, &[Const(1)]);
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, AtomId(0));
        assert_eq!(b, AtomId(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pred(b), q);
    }

    #[test]
    fn lookup_matches_intern() {
        let mut s = TupleStore::new();
        let p = PredId(0);
        assert_eq!(s.lookup(p, &[Const(7)]), None);
        let (id, _) = s.intern(p, &[Const(7)]);
        assert_eq!(s.lookup(p, &[Const(7)]), Some(id));
        assert_eq!(s.lookup(p, &[Const(8)]), None);
        // Same args, different predicate: distinct tuple.
        assert_eq!(s.lookup(PredId(1), &[Const(7)]), None);
    }

    #[test]
    fn survives_growth() {
        let mut s = TupleStore::new();
        let p = PredId(0);
        let ids: Vec<AtomId> = (0..1000)
            .map(|i| s.intern(p, &[Const(i), Const(i * 2)]).0)
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(s.args(*id), &[Const(i), Const(i * 2)]);
            assert_eq!(s.lookup(p, &[Const(i), Const(i * 2)]), Some(*id));
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.args_len(), 2000);
    }

    #[test]
    fn nullary_tuples() {
        let mut s = TupleStore::new();
        let (id, fresh) = s.intern(PredId(5), &[]);
        assert!(fresh);
        assert_eq!(s.args(id), &[] as &[Const]);
        assert!(!s.intern(PredId(5), &[]).1);
        assert!(s.intern(PredId(6), &[]).1);
    }

    #[test]
    fn ground_roundtrip() {
        let mut s = TupleStore::new();
        let (id, _) = s.intern(PredId(2), &[Const(9), Const(4)]);
        let g = s.ground(id);
        assert_eq!(g.pred, PredId(2));
        assert_eq!(g.args, vec![Const(9), Const(4)]);
    }

    #[test]
    fn truncate_keeps_survivors_after_a_grow_and_reinterns_the_same_ids() {
        let mut s = TupleStore::new();
        let p = PredId(0);
        let tuple = |i: u32| [Const(i % 7), Const(i / 7)];
        for i in 0..10 {
            s.intern(p, &tuple(i));
        }
        let (table_len, args_len) = (s.table.len(), s.args_len());
        // Enough new tuples to grow the table twice.
        let ids: Vec<AtomId> = (10..60).map(|i| s.intern(p, &tuple(i)).0).collect();
        assert!(s.table.len() > table_len);
        s.truncate(10);
        assert_eq!((s.len(), s.args_len()), (10, args_len));
        for i in 0..10 {
            assert_eq!(s.lookup(p, &tuple(i)), Some(AtomId(i)));
            assert_eq!(s.args(AtomId(i)), &tuple(i));
        }
        for i in 10..60 {
            assert_eq!(s.lookup(p, &tuple(i)), None, "tuple {i} survived");
        }
        let again: Vec<AtomId> = (10..60).map(|i| s.intern(p, &tuple(i)).0).collect();
        assert_eq!(again, ids);
        // Truncating to the current length, or beyond, changes nothing.
        s.truncate(60);
        s.truncate(100);
        assert_eq!(s.len(), 60);
        s.truncate(0);
        assert!(s.is_empty() && s.table.iter().all(|&slot| slot == 0));
    }

    #[test]
    fn reserve_prevents_rehash() {
        let mut s = TupleStore::new();
        s.reserve(100, 200);
        let table_len = s.table.len();
        for i in 0..100 {
            s.intern(PredId(0), &[Const(i), Const(i)]);
        }
        assert_eq!(s.table.len(), table_len, "reserve must pre-size the table");
    }
}
