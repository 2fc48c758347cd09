//! A small dense bit set used for lookahead sets.
//!
//! The generator manipulates many sets of terminals; a dense `u64`-word
//! representation keeps the set unions cache-friendly without pulling in
//! an external dependency.

/// Dense, fixed-universe bit set.
///
/// The universe size is fixed at construction; all operations panic if an
/// index is out of range (this is an internal tool, so misuse is a bug).
///
/// # Example
///
/// ```
/// use ag_lalr::bitset::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(99);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    universe: usize,
}

impl BitSet {
    /// Creates an empty set over `universe` elements (`0..universe`).
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Number of elements the set may hold.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts `i`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.universe, "bitset index {i} out of range");
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `i`, returning `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.universe, "bitset index {i} out of range");
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.universe {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if `other`'s universe is larger than `self`'s (members could
    /// be lost). A smaller source universe is fine.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert!(
            other.universe <= self.universe,
            "bitset universe mismatch: {} into {}",
            other.universe,
            self.universe
        );
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of elements present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(7);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(7));
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn debug_nonempty() {
        let s = BitSet::new(4);
        assert_eq!(format!("{s:?}"), "{}");
    }
}
