//! A fixed-size bitset over row indices, shared by the ground-truth
//! checkers: one bit per row keeps a per-row flag for a paper-scale module
//! (2 M rows) in 256 KiB, small enough to stay cache-resident beside the
//! per-access working set.

/// One bit per index in `0..len`, all clear at construction.
#[derive(Debug, Clone)]
pub(crate) struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// A bitset of `len` clear bits. The words come from a zeroed
    /// allocation, so no page of it is written (or made resident) here.
    pub(crate) fn new(len: usize) -> Self {
        Bitset {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns `true` if it was clear before.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let was_clear = *word & bit == 0;
        *word |= bit;
        was_clear
    }

    /// Clears bit `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = Bitset::new(130);
        assert!(!b.contains(0) && !b.contains(129));
        assert!(b.insert(129));
        assert!(!b.insert(129));
        assert!(b.insert(64));
        assert!(b.contains(129) && b.contains(64) && !b.contains(63));
        b.remove(129);
        assert!(!b.contains(129) && b.contains(64));
    }
}
