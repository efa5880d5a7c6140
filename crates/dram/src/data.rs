//! Functional backing store.
//!
//! The timing model alone would suffice for performance numbers, but JAFAR's
//! correctness story — the output bitset it writes back must equal what a
//! software select would have produced — requires reads to return *real
//! bytes*. `DramData` is a sparse page map over the module's physical address
//! space, so modelling a 2 GB module costs memory only for pages actually
//! touched.
//!
//! Every simulated burst looks its page up, so pages are found through a
//! two-level directory, not a hash map: one slot per 2 MiB region of the
//! address space, each pointing at a leaf of 512 page slots that is
//! allocated on the first write into its region. A lookup is two indexed
//! loads. Building a module costs one pointer per region (1 KiB for a
//! 256 MiB module); a flat table with a slot per *possible* page would
//! cost a slot per 4 KiB at construction, paid by every machine a serve
//! builds.

use crate::address::PhysAddr;

const PAGE_SHIFT: u32 = 12;
/// The functional store's page: a read run never crosses one, since its
/// lines are lent as one slice.
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Pages per leaf: one leaf covers a 2 MiB region.
const LEAF_SHIFT: u32 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

type Page = [u8; PAGE_SIZE];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// What a page never written reads: lent by [`DramData::lines`], so an
/// unwritten page needs no storage.
static ZERO_PAGE: [[u8; 64]; PAGE_SIZE / 64] = [[0; 64]; PAGE_SIZE / 64];

/// Sparse byte-addressable storage. Unwritten bytes read as zero, like
/// zero-initialised DRAM in a fresh simulation.
#[derive(Default)]
pub struct DramData {
    /// One slot per 2 MiB region; a leaf exists once a page of its region
    /// has been written.
    regions: Vec<Option<Box<Leaf>>>,
    resident: usize,
    capacity: u64,
}

#[cold]
#[inline(never)]
fn beyond_capacity(addr: PhysAddr, len: usize, capacity: u64) -> ! {
    panic!("access [{addr}, +{len}) beyond capacity {capacity:#x}")
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
        let regions = capacity.div_ceil(1 << (PAGE_SHIFT + LEAF_SHIFT)) as usize;
        DramData {
            regions: vec![None; regions],
            resident: 0,
            capacity,
        }
    }

    /// Addressable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of 4 KiB pages actually materialised.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Only the compare is inlined; the panic stays out of line.
    #[inline]
    fn check(&self, addr: PhysAddr, len: usize) {
        if addr
            .0
            .checked_add(len as u64)
            .is_none_or(|end| end > self.capacity)
        {
            beyond_capacity(addr, len, self.capacity);
        }
    }

    /// Page number `page`, if it has been written.
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        let leaf = self.regions[(page >> LEAF_SHIFT) as usize].as_deref()?;
        leaf[page as usize & (LEAF_PAGES - 1)].as_deref()
    }

    /// Page number `page`, materialised (zeroed) on first use.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let leaf = self.regions[(page >> LEAF_SHIFT) as usize]
            .get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        let slot = &mut leaf[page as usize & (LEAF_PAGES - 1)];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
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
            match self.page(page) {
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

    /// Up to `max` consecutive 64-byte blocks from the one holding
    /// `addr`, lent in place and never past the end of its page: lines of
    /// the page, or of [`ZERO_PAGE`] for a page never written. One
    /// directory walk and no copy; the module serves every read burst
    /// through it. At least one line, whatever `max`.
    #[inline]
    pub(crate) fn lines(&self, addr: PhysAddr, max: usize) -> &[[u8; 64]] {
        let base = addr.block_base();
        self.check(base, 64);
        let line = (base.0 as usize & (PAGE_SIZE - 1)) / 64;
        let end = line + max.clamp(1, PAGE_SIZE / 64 - line);
        match self.page(base.0 >> PAGE_SHIFT) {
            Some(p) => &p.as_chunks::<64>().0[line..end],
            None => &ZERO_PAGE[line..end],
        }
    }

    /// The 64-byte block holding `addr`, lent in place (see
    /// [`DramData::lines`]).
    #[inline]
    pub(crate) fn block(&self, addr: PhysAddr) -> &[u8; 64] {
        &self.lines(addr, 1)[0]
    }

    /// Reads one 64-byte burst: a copy of its block when `addr` is
    /// 64-byte aligned, a page-by-page read otherwise.
    pub fn read_burst(&self, addr: PhysAddr) -> [u8; 64] {
        if addr.block_offset() == 0 {
            return *self.block(addr);
        }
        let mut buf = [0u8; 64];
        self.read(addr, &mut buf);
        buf
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
    fn matches_a_reference_byte_map() {
        use jafar_common::check::forall;
        use std::collections::HashSet;
        const LEAF: u64 = (PAGE_SIZE * LEAF_PAGES) as u64;
        forall("dram_data_matches_a_reference_byte_map", 48, |rng| {
            // Two or three 2 MiB leaves, the last one sometimes partial.
            let capacity = LEAF * (2 + rng.next_below(2)) - 4096 * rng.next_below(3);
            let mut d = DramData::new(capacity);
            let mut reference = vec![0u8; capacity as usize];
            let mut pages = HashSet::new();
            for _ in 0..200 {
                let len = match rng.next_below(4) {
                    0 => 64,
                    1 => 8,
                    2 => 1 + rng.next_below(300),
                    _ => rng.next_below(3 * PAGE_SIZE as u64),
                };
                // Near a page or leaf boundary (either side), or anywhere.
                let addr = match rng.next_below(3) {
                    0 => (rng.next_below(capacity / LEAF + 1) * LEAF)
                        .saturating_sub(rng.next_below(128)),
                    1 => {
                        (rng.next_below(capacity / 4096) * 4096).saturating_sub(rng.next_below(96))
                    }
                    _ => rng.next_below(capacity),
                }
                .min(capacity - len);
                let at = addr as usize;
                // How many bytes the step wrote, if it wrote.
                let written = match rng.next_below(6) {
                    0 => {
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        d.write(PhysAddr(addr), &bytes);
                        reference[at..at + bytes.len()].copy_from_slice(&bytes);
                        Some(len)
                    }
                    1 => {
                        let values: Vec<i64> =
                            (0..len / 8).map(|_| rng.next_u64() as i64).collect();
                        d.write_i64s(PhysAddr(addr), &values);
                        for (i, v) in values.iter().enumerate() {
                            reference[at + 8 * i..at + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
                        }
                        Some(8 * values.len() as u64)
                    }
                    2 if len >= 64 => {
                        let burst: [u8; 64] = std::array::from_fn(|_| rng.next_u64() as u8);
                        d.write_burst(PhysAddr(addr), &burst);
                        reference[at..at + 64].copy_from_slice(&burst);
                        Some(64)
                    }
                    3 if len >= 64 => {
                        assert_eq!(d.read_burst(PhysAddr(addr)), reference[at..at + 64]);
                        None
                    }
                    4 if len >= 8 => {
                        let want = u64::from_le_bytes(reference[at..at + 8].try_into().unwrap());
                        assert_eq!(d.read_u64(PhysAddr(addr)), want);
                        None
                    }
                    _ => {
                        let mut back = vec![0xA5; len as usize];
                        d.read(PhysAddr(addr), &mut back);
                        assert_eq!(back, reference[at..at + back.len()]);
                        None
                    }
                };
                if let Some(n) = written.filter(|&n| n > 0) {
                    pages.extend(addr / 4096..=(addr + n - 1) / 4096);
                }
            }
            assert_eq!(d.resident_pages(), pages.len());
            let mut whole = vec![0u8; capacity as usize];
            d.read(PhysAddr(0), &mut whole);
            assert!(whole == reference, "the whole space reads back");
        });
    }

    #[test]
    fn sparse_residency() {
        let mut d = DramData::new(1 << 30);
        d.write_u64(PhysAddr(0), 1);
        d.write_u64(PhysAddr(1 << 29), 2);
        assert_eq!(d.resident_pages(), 2);
    }
}
