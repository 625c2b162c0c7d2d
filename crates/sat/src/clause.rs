//! Clause storage arena.
//!
//! Clauses are stored in a slab indexed by [`ClauseRef`]. Deleted slots are
//! kept in a free list and reused, so references to live clauses remain
//! stable across database reductions.

use crate::lit::Lit;

/// Stable handle to a clause in the [`ClauseDb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A disjunction of literals plus solver bookkeeping.
#[derive(Debug)]
pub struct Clause {
    lits: Vec<Lit>,
    /// Learnt clauses are eligible for deletion during database reduction.
    pub learnt: bool,
    /// Bump-and-decay activity used to rank learnt clauses.
    pub activity: f64,
    /// Literal block distance at learning time (glue).
    pub lbd: u32,
}

impl Clause {
    /// The literals of the clause. The first two are the watched literals.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// True when the clause has no literals (never stored; kept for API
    /// completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    #[inline]
    pub(crate) fn swap(&mut self, i: usize, j: usize) {
        self.lits.swap(i, j);
    }
}

enum Slot {
    Live(Clause),
    Free { next: Option<u32> },
}

/// Arena of clauses with slot reuse.
#[derive(Default)]
pub struct ClauseDb {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    live: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Number of live clauses.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no clauses are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a clause and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `lits` has fewer than two literals; unit and empty clauses
    /// are handled directly on the trail by the solver.
    pub fn insert(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        assert!(lits.len() >= 2, "clauses in the arena must be non-unit");
        let clause = Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
        };
        self.live += 1;
        match self.free_head {
            Some(idx) => {
                let next = match self.slots[idx as usize] {
                    Slot::Free { next } => next,
                    Slot::Live(_) => unreachable!("free list points at live slot"),
                };
                self.free_head = next;
                self.slots[idx as usize] = Slot::Live(clause);
                ClauseRef(idx)
            }
            None => {
                self.slots.push(Slot::Live(clause));
                ClauseRef((self.slots.len() - 1) as u32)
            }
        }
    }

    /// Removes a clause. Its handle must not be used afterwards.
    pub fn remove(&mut self, cref: ClauseRef) {
        debug_assert!(matches!(self.slots[cref.index()], Slot::Live(_)));
        self.slots[cref.index()] = Slot::Free {
            next: self.free_head,
        };
        self.free_head = Some(cref.0);
        self.live -= 1;
    }

    /// Borrows a clause.
    #[inline]
    pub fn get(&self, cref: ClauseRef) -> &Clause {
        match &self.slots[cref.index()] {
            Slot::Live(c) => c,
            Slot::Free { .. } => panic!("dangling clause reference {cref:?}"),
        }
    }

    /// Mutably borrows a clause.
    #[inline]
    pub fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        match &mut self.slots[cref.index()] {
            Slot::Live(c) => c,
            Slot::Free { .. } => panic!("dangling clause reference {cref:?}"),
        }
    }

    /// Iterates over live clause handles.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Live(_) => Some(ClauseRef(i as u32)),
            Slot::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter()
            .map(|&x| Lit::new(Var::from_index(x.unsigned_abs() as usize), x > 0))
            .collect()
    }

    #[test]
    fn insert_get_remove_reuses_slots() {
        let mut db = ClauseDb::new();
        let a = db.insert(lits(&[1, 2]), false, 0);
        let b = db.insert(lits(&[2, 3, 4]), true, 2);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(a).len(), 2);
        assert!(db.get(b).learnt);
        db.remove(a);
        assert_eq!(db.len(), 1);
        let c = db.insert(lits(&[5, 6]), false, 0);
        // Slot of `a` must be recycled.
        assert_eq!(c, a);
        assert_eq!(db.iter_refs().count(), 2);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn dangling_access_panics() {
        let mut db = ClauseDb::new();
        let a = db.insert(lits(&[1, 2]), false, 0);
        db.remove(a);
        let _ = db.get(a);
    }
}
