//! Functional backing store.
//!
//! The timing model alone would suffice for performance numbers, but JAFAR's
//! correctness story — the output bitset it writes back must equal what a
//! software select would have produced — requires reads to return *real
//! bytes*. `DramData` is a sparse page map over the module's physical address
//! space, so modelling a 2 GB module costs memory only for pages actually
//! touched.
//!
//! Every simulated burst looks its page up, so the map is keyed with one
//! multiply (`PageHasher`) rather than SipHash. A flat page table would
//! avoid hashing altogether, but it costs a pointer per *possible* page
//! at construction (512 KiB for a 256 MiB module, 4 MiB for 2 GiB), paid
//! by every machine a serve builds.

use crate::address::PhysAddr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Fibonacci hashing of a page number: one multiply by 2^64/φ. Only
/// the product's high bits mix every bit of the page number, and the map
/// picks buckets with the hash's low bits, so `finish` rotates the high
/// bits down: pages one rank apart (a large power-of-two stride) would
/// otherwise share a bucket. The keys are addresses the simulator's own
/// allocators chose, never input an adversary could craft to collide.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = (self.0 ^ page).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Sparse byte-addressable storage. Unwritten bytes read as zero, like
/// zero-initialised DRAM in a fresh simulation.
#[derive(Default)]
pub struct DramData {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
    capacity: u64,
}

/// The page and in-page offset of a `len`-byte access at `addr`, when it
/// lies within one page.
fn in_one_page(addr: PhysAddr, len: usize) -> Option<(u64, usize)> {
    let off = (addr.0 & (PAGE_SIZE as u64 - 1)) as usize;
    (off + len <= PAGE_SIZE).then_some((addr.0 >> PAGE_SHIFT, off))
}

impl DramData {
    /// Creates storage covering `capacity` bytes of physical address space.
    pub fn new(capacity: u64) -> Self {
        DramData {
            pages: HashMap::default(),
            capacity,
        }
    }

    /// Addressable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of 4 KiB pages actually materialised.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: PhysAddr, len: usize) {
        assert!(
            addr.0
                .checked_add(len as u64)
                .is_some_and(|end| end <= self.capacity),
            "access [{addr}, +{len}) beyond capacity {:#x}",
            self.capacity
        );
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let off = (pos & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = remaining.len().min(PAGE_SIZE - off);
            let (head, tail) = remaining.split_at_mut(chunk);
            match self.pages.get(&page) {
                Some(p) => head.copy_from_slice(&p[off..off + chunk]),
                None => head.fill(0),
            }
            remaining = tail;
            pos += chunk as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        self.check(addr, buf.len());
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let off = (pos & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = remaining.len().min(PAGE_SIZE - off);
            self.page_mut(page)[off..off + chunk].copy_from_slice(&remaining[..chunk]);
            remaining = &remaining[chunk..];
            pos += chunk as u64;
        }
    }

    /// Writes `values` as consecutive little-endian `i64`s starting at
    /// `addr`: a whole column in one call. The values go through a
    /// page-sized staging buffer, so a page-aligned column costs one page
    /// lookup per page rather than one per value, and nothing
    /// column-sized is allocated.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn write_i64s(&mut self, addr: PhysAddr, values: &[i64]) {
        self.check(addr, values.len().saturating_mul(8));
        let mut staged = [0u8; PAGE_SIZE];
        let mut pos = addr.0;
        for block in values.chunks(PAGE_SIZE / 8) {
            let bytes = &mut staged[..block.len() * 8];
            for (dst, v) in bytes.chunks_exact_mut(8).zip(block) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.write(PhysAddr(pos), bytes);
            pos += bytes.len() as u64;
        }
    }

    /// Reads one 64-byte burst. A burst inside one page (every burst the
    /// module serves: they are 64-byte aligned) costs one lookup and a
    /// fixed-size copy.
    pub fn read_burst(&self, addr: PhysAddr) -> [u8; 64] {
        let Some((page, off)) = in_one_page(addr, 64) else {
            let mut buf = [0u8; 64];
            self.read(addr, &mut buf);
            return buf;
        };
        self.check(addr, 64);
        match self.pages.get(&page) {
            Some(p) => p[off..off + 64].try_into().expect("64 bytes"),
            None => [0; 64],
        }
    }

    /// Writes one 64-byte burst, like [`DramData::read_burst`] reads one.
    pub fn write_burst(&mut self, addr: PhysAddr, burst: &[u8; 64]) {
        let Some((page, off)) = in_one_page(addr, 64) else {
            return self.write(addr, burst);
        };
        self.check(addr, 64);
        self.page_mut(page)[off..off + 64].copy_from_slice(burst);
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `i64` at `addr`.
    pub fn read_i64(&self, addr: PhysAddr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `i64` at `addr`.
    pub fn write_i64(&mut self, addr: PhysAddr, value: i64) {
        self.write_u64(addr, value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let d = DramData::new(1 << 20);
        let mut buf = [0xAAu8; 16];
        d.read(PhysAddr(0x8000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(d.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = DramData::new(1 << 20);
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        d.write(PhysAddr(100), &payload);
        let mut back = vec![0u8; 200];
        d.read(PhysAddr(100), &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn cross_page_access() {
        let mut d = DramData::new(1 << 20);
        let payload = [0x5Au8; 100];
        // Straddles the 4 KiB page boundary at 0x1000.
        d.write(PhysAddr(0x1000 - 50), &payload);
        assert_eq!(d.resident_pages(), 2);
        let mut back = [0u8; 100];
        d.read(PhysAddr(0x1000 - 50), &mut back);
        assert_eq!(back, payload);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        d.read(PhysAddr(0x1000 - 51), &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn burst_helpers() {
        let mut d = DramData::new(1 << 16);
        let mut burst = [0u8; 64];
        for (i, b) in burst.iter_mut().enumerate() {
            *b = i as u8;
        }
        d.write_burst(PhysAddr(64), &burst);
        assert_eq!(d.read_burst(PhysAddr(64)), burst);
    }

    #[test]
    fn word_helpers() {
        let mut d = DramData::new(1 << 16);
        d.write_u64(PhysAddr(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(d.read_u64(PhysAddr(8)), 0xDEAD_BEEF_CAFE_F00D);
        d.write_i64(PhysAddr(16), -42);
        assert_eq!(d.read_i64(PhysAddr(16)), -42);
        // Little-endian layout.
        let mut b = [0u8; 1];
        d.read(PhysAddr(8), &mut b);
        assert_eq!(b[0], 0x0D);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_rejected() {
        let d = DramData::new(128);
        let mut buf = [0u8; 2];
        d.read(PhysAddr(127), &mut buf);
    }

    #[test]
    fn strided_pages_spread_over_buckets() {
        // The same offset in 64 ranks of 64 MiB: pages 2^14 apart. The map
        // picks buckets with the hash's low bits, so those must differ.
        let hash = |page: u64| {
            let mut h = PageHasher::default();
            h.write_u64(page);
            h.finish()
        };
        let buckets: std::collections::HashSet<u64> =
            (0..64).map(|rank| hash(rank << 14) & 1023).collect();
        assert!(buckets.len() > 48, "{} of 64 buckets", buckets.len());
    }

    #[test]
    fn sparse_residency() {
        let mut d = DramData::new(1 << 30);
        d.write_u64(PhysAddr(0), 1);
        d.write_u64(PhysAddr(1 << 29), 2);
        assert_eq!(d.resident_pages(), 2);
    }
}
