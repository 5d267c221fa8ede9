//! A fixed-size bitset used to represent possible worlds.
//!
//! A possible world of an uncertain graph is exactly "a subset of the edge
//! set", so the sampling layer materializes worlds as bitsets indexed by
//! [`EdgeId`](crate::EdgeId). The type is deliberately minimal: fixed
//! length, block-wise storage, no growth.

/// A fixed-length bitset backed by `u64` blocks.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitset {
    blocks: Vec<u64>,
    len: usize,
}

const BITS: usize = 64;

impl Bitset {
    /// Creates a bitset of `len` zero bits.
    pub fn with_len(len: usize) -> Self {
        Bitset { blocks: vec![0; len.div_ceil(BITS)], len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.blocks[i / BITS] >> (i % BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % BITS);
        if value {
            self.blocks[i / BITS] |= mask;
        } else {
            self.blocks[i / BITS] &= !mask;
        }
    }

    /// Sets bit `i` to one (faster path used by the world sampler).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / BITS] |= 1u64 << (i % BITS);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Clears all bits, keeping the length.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Sets all bits to one.
    pub fn fill(&mut self) {
        self.blocks.fill(!0);
        self.trim_tail();
    }

    /// Iterates over the indices of one bits in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| BlockOnes { block, base: bi * BITS })
    }

    /// Raw block storage (read-only), exposed so the sampler can fill whole
    /// blocks of Bernoulli draws at a time.
    #[inline]
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Zeroes any bits at positions `>= len` in the last block.
    fn trim_tail(&mut self) {
        let tail = self.len % BITS;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitset({}/{} set)", self.count_ones(), self.len)
    }
}

struct BlockOnes {
    block: u64,
    base: usize,
}

impl Iterator for BlockOnes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let tz = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitset() {
        let b = Bitset::with_len(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.ones().count(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitset::with_len(130);
        assert!(!b.get(0));
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut b = Bitset::with_len(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            b.insert(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn clear_and_fill() {
        let mut b = Bitset::with_len(70);
        b.fill();
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(69));
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn fill_respects_tail() {
        let mut b = Bitset::with_len(65);
        b.fill();
        assert_eq!(b.count_ones(), 65);
        // The last block must not have stray bits beyond position 64.
        assert_eq!(b.blocks()[1], 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let b = Bitset::with_len(10);
        b.get(10);
    }

    #[test]
    fn trim_tail_zeroes_spurious_bits() {
        // `fill` sets whole blocks, then trims the bits past the length.
        let mut b = Bitset::with_len(3);
        b.fill();
        assert_eq!(b.blocks(), &[0b111]);
        assert_eq!(b.count_ones(), 3);
    }
}
