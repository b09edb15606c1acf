//! The search graph: states, parent edges, dedup index, witness unwind.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// The bookkeeping both engines share: a dense vector of discovered
/// states, a parent pointer + edge label per state (for witness
/// reconstruction), and a hash index for dedup.
///
/// Each state is stored once, in the vector. The index maps a state's
/// hash to its id (or to the ids of every state with that hash), and
/// lookups compare against the stored states.
///
/// Ids are assigned in insertion order, so the engines' frontier order
/// fixes ids, parents, and therefore unwound witnesses.
#[derive(Debug, Clone)]
pub struct SearchGraph<S, L> {
    states: Vec<S>,
    parents: Vec<Option<(u32, L)>>,
    hasher: RandomState,
    index: HashMap<u64, Ids>,
}

/// The ids of the states that share one hash: almost always one.
#[derive(Debug, Clone)]
enum Ids {
    One(u32),
    Many(Vec<u32>),
}

impl Ids {
    fn as_slice(&self) -> &[u32] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }
}

impl<S: Hash + Eq, L: Clone> Default for SearchGraph<S, L> {
    fn default() -> SearchGraph<S, L> {
        SearchGraph {
            states: Vec::new(),
            parents: Vec::new(),
            hasher: RandomState::new(),
            index: HashMap::new(),
        }
    }
}

impl<S: Hash + Eq, L: Clone> SearchGraph<S, L> {
    /// An empty graph.
    pub fn new() -> SearchGraph<S, L> {
        SearchGraph::default()
    }

    /// Number of states discovered.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no state has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with id `id`.
    pub fn state(&self, id: u32) -> &S {
        &self.states[id as usize]
    }

    /// Whether `s` has been discovered.
    pub fn contains(&self, s: &S) -> bool {
        self.index.get(&self.hasher.hash_one(s)).is_some_and(|ids| {
            ids.as_slice()
                .iter()
                .any(|&id| self.states[id as usize] == *s)
        })
    }

    /// Inserts a new state with its parent edge, returning the assigned
    /// id. The caller must have ruled out duplicates via
    /// [`contains`](Self::contains).
    pub fn insert(&mut self, s: S, parent: Option<(u32, L)>) -> u32 {
        debug_assert!(!self.contains(&s), "insert of a duplicate state");
        let id = self.states.len() as u32;
        match self.index.entry(self.hasher.hash_one(&s)) {
            Entry::Vacant(e) => {
                e.insert(Ids::One(id));
            }
            Entry::Occupied(mut e) => {
                let ids = e.get_mut();
                match ids {
                    Ids::One(first) => *ids = Ids::Many(vec![*first, id]),
                    Ids::Many(v) => v.push(id),
                }
            }
        }
        self.states.push(s);
        self.parents.push(parent);
        id
    }

    /// The edge labels from the root to state `at`, in execution order —
    /// the witness path.
    pub fn unwind(&self, mut at: u32) -> Vec<L> {
        let mut path = Vec::new();
        while let Some((prev, label)) = &self.parents[at as usize] {
            path.push(label.clone());
            at = *prev;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order_and_unwind_reverses_parents() {
        let mut g: SearchGraph<&'static str, char> = SearchGraph::new();
        let root = g.insert("root", None);
        assert_eq!(root, 0);
        let a = g.insert("a", Some((root, 'a')));
        let b = g.insert("b", Some((root, 'b')));
        let ab = g.insert("ab", Some((a, 'b')));
        assert_eq!((a, b, ab), (1, 2, 3));
        assert_eq!(g.len(), 4);
        assert!(g.contains(&"ab"));
        assert!(!g.contains(&"ba"));
        assert_eq!(g.unwind(ab), vec!['a', 'b']);
        assert_eq!(g.unwind(b), vec!['b']);
        assert_eq!(g.unwind(root), Vec::<char>::new());
        assert_eq!(*g.state(ab), "ab");
    }

    /// A key whose hash is the same for every value, so every state
    /// lands in one index bucket.
    #[derive(Debug, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            0u8.hash(h);
        }
    }

    #[test]
    fn colliding_states_keep_their_ids_and_are_found_by_content() {
        let mut g: SearchGraph<Colliding, u32> = SearchGraph::new();
        let ids: Vec<u32> = (0..4)
            .map(|i| {
                assert!(!g.contains(&Colliding(i)));
                g.insert(Colliding(i), i.checked_sub(1).map(|p| (p, i)))
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        for i in 0..4 {
            assert!(g.contains(&Colliding(i)));
            assert_eq!(*g.state(i), Colliding(i));
        }
        assert!(!g.contains(&Colliding(4)));
        assert_eq!(g.unwind(3), vec![1, 2, 3]);
        assert_eq!(g.unwind(0), Vec::<u32>::new());
    }
}
