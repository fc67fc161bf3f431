//! The kernel's object tables: one id allocator and one lookup for every
//! kind a descriptor can point at.
//!
//! Ids are never reused: a restore inserts its objects here too, so a
//! restored id can never collide with one handed out later.

use crate::error::{KError, Result};
use std::collections::BTreeMap;

/// Objects of one kind under ids allocated in ascending order.
/// Iteration is in id order.
#[derive(Clone, Debug)]
pub struct Table<T, I = u64> {
    objs: BTreeMap<I, T>,
    next: u64,
}

impl<T, I: Copy + Ord + From<u64>> Table<T, I> {
    /// An empty table whose first id is `first`.
    pub(crate) fn starting_at(first: u64) -> Self {
        Self { objs: BTreeMap::new(), next: first }
    }

    /// Files `obj` under the next id.
    pub fn insert(&mut self, obj: T) -> I {
        let id = I::from(self.next);
        self.next += 1;
        self.objs.insert(id, obj);
        id
    }

    /// Looks an object up; a missing id is a bad descriptor.
    pub fn get(&self, id: I) -> Result<&T> {
        self.objs.get(&id).ok_or(KError::Badf)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: I) -> Result<&mut T> {
        self.objs.get_mut(&id).ok_or(KError::Badf)
    }

    /// Takes an object out of the kernel.
    pub(crate) fn remove(&mut self, id: I) -> Option<T> {
        self.objs.remove(&id)
    }

    /// Live ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.objs.keys().copied()
    }

    /// Live `(id, object)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.objs.iter().map(|(&id, obj)| (id, obj))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// True when no object is live.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_never_reused_and_iterate_in_order() {
        let mut t: Table<&str> = Table::starting_at(1);
        let a = t.insert("a");
        let b = t.insert("b");
        assert_eq!((a, b), (1, 2));
        t.remove(a);
        assert_eq!(t.get(a), Err(KError::Badf));
        assert_eq!(t.insert("c"), 3, "a freed id is not handed out again");
        assert_eq!(t.iter().collect::<Vec<_>>(), [(2, &"b"), (3, &"c")]);
    }
}
