//! Bitsets.
//!
//! Two flavours are provided:
//!
//! - [`FixedBitBuf`]: the *n*-bit output buffer inside the JAFAR device
//!   (paper §2.2: "the output buffer holds n bits to represent the state of
//!   n filter operations"; every *n* cycles it fills up and is flushed to
//!   DRAM). It is deliberately tiny and fixed-capacity.
//! - [`BitSet`]: a growable word-packed bitmap used by the column-store for
//!   selection vectors and by tests as a reference representation of JAFAR's
//!   output.

use std::fmt;

const WORD_BITS: usize = 64;

/// A growable, word-packed bitmap with a fixed logical length.
///
/// ```
/// use jafar_common::bitset::BitSet;
///
/// // Decode a JAFAR output bitset back into row positions.
/// let mut selection = BitSet::new(100);
/// selection.set(3);
/// selection.set(97);
/// let bytes = selection.to_bytes(); // the DRAM writeback image
/// let decoded = BitSet::from_bytes(&bytes, 100);
/// assert_eq!(decoded.to_positions(), vec![3, 97]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Reconstructs a bitmap from the little-endian byte representation
    /// JAFAR writes to memory. `len` is the number of valid bits.
    ///
    /// # Panics
    /// Panics if `bytes` is too short to hold `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "byte buffer too short: {} bytes for {} bits",
            bytes.len(),
            len
        );
        let nbytes = len.div_ceil(8);
        let mut set = BitSet::new(len);
        for (w, chunk) in set.words.iter_mut().zip(bytes[..nbytes].chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(le);
        }
        // Padding bits past `len` in the source image must not leak in.
        if !len.is_multiple_of(WORD_BITS) {
            if let Some(last) = set.words.last_mut() {
                *last &= (1u64 << (len % WORD_BITS)) - 1;
            }
        }
        set
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Writes bit `i` to `value`.
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Bitwise AND with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// The little-endian byte image of the bitmap, `ceil(len/8)` bytes.
    /// Bit `i` lives at byte `i/8`, bit position `i%8` — the layout JAFAR
    /// writes back to DRAM.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (w, chunk) in self.words.iter().zip(out.chunks_mut(8)) {
            let le = w.to_le_bytes();
            chunk.copy_from_slice(&le[..chunk.len()]);
        }
        out
    }

    /// Collects set-bit indices into a vector of row positions.
    ///
    /// # Panics
    /// Panics if the bitmap holds positions that do not fit in `u32`
    /// (columns of 2^32 rows or more) — use
    /// [`BitSet::to_positions_u64`] for those.
    pub fn to_positions(&self) -> Vec<u32> {
        assert!(
            self.len as u64 <= u64::from(u32::MAX) + 1,
            "bitmap of {} bits has positions beyond u32::MAX; use to_positions_u64",
            self.len
        );
        self.iter_ones().map(|i| i as u32).collect()
    }

    /// Collects set-bit indices into a vector of `u64` row positions —
    /// the overload for columns of 2^32 rows or more, where
    /// [`BitSet::to_positions`] would silently truncate.
    pub fn to_positions_u64(&self) -> Vec<u64> {
        self.iter_ones().map(|i| i as u64).collect()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet[{}; {} set]", self.len, self.count_ones())
    }
}

/// Iterator over set-bit indices of a [`BitSet`].
pub struct IterOnes<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * WORD_BITS + bit;
                // Bits beyond `len` are never set, so no range check needed.
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

/// The fixed *n*-bit result buffer inside the JAFAR device.
///
/// Bits are pushed one per filter operation; when the buffer is full it must
/// be drained ([`FixedBitBuf::drain_bytes`]) before more bits can be pushed,
/// mirroring the hardware writeback every *n* cycles.
#[derive(Clone)]
pub struct FixedBitBuf {
    words: Vec<u64>,
    capacity: usize,
    filled: usize,
}

impl FixedBitBuf {
    /// Creates an empty buffer of `capacity` bits.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or not a multiple of 8 (hardware flushes
    /// whole bytes).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "output buffer must hold at least one bit");
        assert!(
            capacity.is_multiple_of(8),
            "output buffer capacity must be byte-aligned, got {capacity}"
        );
        FixedBitBuf {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
            filled: 0,
        }
    }

    /// Buffer capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bits pushed since the last drain.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// True once `capacity` bits have been pushed.
    pub fn is_full(&self) -> bool {
        self.filled == self.capacity
    }

    /// True if no bits are pending.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Pushes the outcome of one filter operation.
    ///
    /// # Panics
    /// Panics if the buffer is full — the device must drain first, exactly
    /// like the hardware writeback.
    pub fn push(&mut self, bit: bool) {
        assert!(!self.is_full(), "output buffer overflow: drain before push");
        if bit {
            self.words[self.filled / WORD_BITS] |= 1u64 << (self.filled % WORD_BITS);
        }
        self.filled += 1;
    }

    /// Drains the buffered bits as little-endian bytes (the DRAM writeback
    /// image) and resets the buffer. Partial fills drain `ceil(filled/8)`
    /// bytes, which is how the final, possibly short, flush works.
    pub fn drain_bytes(&mut self) -> Vec<u8> {
        let nbytes = self.filled.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (w, chunk) in self.words.iter().zip(out.chunks_mut(8)) {
            let le = w.to_le_bytes();
            chunk.copy_from_slice(&le[..chunk.len()]);
        }
        for w in &mut self.words {
            *w = 0;
        }
        self.filled = 0;
        out
    }
}

impl fmt::Debug for FixedBitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedBitBuf[{}/{}]", self.filled, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 4);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
        b.assign(64, true);
        assert!(b.get(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitSet::new(8).get(8);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitSet::new(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 127, 128, 199]);
        assert_eq!(b.to_positions(), vec![0, 1, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
        assert!(b.to_bytes().is_empty());
    }

    #[test]
    fn union_intersect() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.set(1);
        a.set(69);
        b.set(1);
        b.set(2);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_positions(), vec![1, 2, 69]);
        a.intersect_with(&b);
        assert_eq!(a.to_positions(), vec![1]);
    }

    #[test]
    fn byte_round_trip() {
        let mut b = BitSet::new(19);
        b.set(0);
        b.set(8);
        b.set(18);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[0], 0b0000_0001);
        assert_eq!(bytes[1], 0b0000_0001);
        assert_eq!(bytes[2], 0b0000_0100);
        let back = BitSet::from_bytes(&bytes, 19);
        assert_eq!(back, b);
    }

    #[test]
    fn from_bytes_masks_padding_bits_and_ignores_excess_bytes() {
        // All-ones image, 19 valid bits: the 5 padding bits in byte 2 and
        // the entire spare byte 3 must not leak into the bitmap.
        let bytes = [0xFFu8; 4];
        let b = BitSet::from_bytes(&bytes, 19);
        assert_eq!(b.count_ones(), 19);
        assert_eq!(b.iter_ones().last(), Some(18));
    }

    #[test]
    fn from_bytes_word_boundaries_round_trip() {
        for len in [1usize, 7, 8, 63, 64, 65, 127, 128, 129, 500] {
            let mut b = BitSet::new(len);
            for i in (0..len).step_by(3) {
                b.set(i);
            }
            b.set(len - 1);
            let back = BitSet::from_bytes(&b.to_bytes(), len);
            assert_eq!(back, b, "round trip failed at len {len}");
        }
    }

    #[test]
    fn positions_u64_matches_u32_overload() {
        let mut b = BitSet::new(200);
        for i in [0usize, 64, 65, 199] {
            b.set(i);
        }
        let narrow: Vec<u64> = b.to_positions().iter().map(|&p| p as u64).collect();
        assert_eq!(b.to_positions_u64(), narrow);
    }

    #[test]
    fn fixed_buf_fill_drain_cycle() {
        let mut buf = FixedBitBuf::new(16);
        assert!(buf.is_empty());
        for i in 0..16 {
            buf.push(i % 3 == 0);
        }
        assert!(buf.is_full());
        let bytes = buf.drain_bytes();
        assert_eq!(bytes.len(), 2);
        let set = BitSet::from_bytes(&bytes, 16);
        let expect: Vec<u32> = (0..16).filter(|i| i % 3 == 0).collect();
        assert_eq!(set.to_positions(), expect);
        assert!(buf.is_empty());
        // Buffer is reusable after drain.
        buf.push(true);
        assert_eq!(buf.filled(), 1);
        let tail = buf.drain_bytes();
        assert_eq!(tail, vec![1u8]);
    }

    #[test]
    fn fixed_buf_partial_drain() {
        let mut buf = FixedBitBuf::new(64);
        for _ in 0..9 {
            buf.push(true);
        }
        let bytes = buf.drain_bytes();
        assert_eq!(bytes, vec![0xFF, 0x01]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fixed_buf_overflow_panics() {
        let mut buf = FixedBitBuf::new(8);
        for _ in 0..9 {
            buf.push(false);
        }
    }

    #[test]
    #[should_panic(expected = "byte-aligned")]
    fn fixed_buf_unaligned_capacity_rejected() {
        let _ = FixedBitBuf::new(12);
    }
}
