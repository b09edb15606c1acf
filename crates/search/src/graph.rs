//! The search graph: states, parent edges, dedup index, witness unwind.

use std::collections::HashMap;
use std::hash::Hash;

/// The bookkeeping both engines share: a dense vector of discovered
/// states, a parent pointer + edge label per state (for witness
/// reconstruction), and a hash index for dedup.
///
/// Ids are assigned in insertion order, so the engines' frontier order
/// fixes ids, parents, and therefore unwound witnesses.
#[derive(Debug, Clone)]
pub struct SearchGraph<S, L> {
    states: Vec<S>,
    parents: Vec<Option<(u32, L)>>,
    index: HashMap<S, u32>,
}

impl<S: Clone + Hash + Eq, L: Clone> Default for SearchGraph<S, L> {
    fn default() -> SearchGraph<S, L> {
        SearchGraph {
            states: Vec::new(),
            parents: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<S: Clone + Hash + Eq, L: Clone> SearchGraph<S, L> {
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
        self.index.contains_key(s)
    }

    /// Inserts a new state with its parent edge, returning the assigned
    /// id. The caller must have ruled out duplicates via
    /// [`contains`](Self::contains).
    pub fn insert(&mut self, s: S, parent: Option<(u32, L)>) -> u32 {
        debug_assert!(!self.contains(&s), "insert of a duplicate state");
        let id = self.states.len() as u32;
        self.index.insert(s.clone(), id);
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
}
