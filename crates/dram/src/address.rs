//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The memory controller decodes a physical address into (rank, bank, row,
//! column) coordinates — the RAS/CAS decomposition of paper §2.1. The order
//! in which address bits are assigned to those fields is a policy decision
//! with large performance consequences:
//!
//! - [`AddressMapping::RowBankRankBlock`] keeps consecutive addresses inside
//!   one row buffer (maximum row-hit locality for streaming scans — what a
//!   column-store wants and what JAFAR's §2.2 sequential consumption model
//!   assumes);
//! - [`AddressMapping::BankInterleavedBlock`] spreads consecutive 64-byte
//!   blocks across banks (classic bank interleaving: more bank-level
//!   parallelism for random traffic, fewer row hits for streams).
//!
//! Addresses are decomposed at 64-byte **block** granularity, the burst
//! transfer size; the low 6 bits are the byte offset within a burst.

use crate::geometry::DramGeometry;
use jafar_common::size::log2_exact;
use std::fmt;

/// A physical memory address (byte-granular).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The 64-byte-aligned block base containing this address.
    pub fn block_base(self) -> PhysAddr {
        PhysAddr(self.0 & !63)
    }

    /// Byte offset within the 64-byte block.
    pub fn block_offset(self) -> u32 {
        (self.0 & 63) as u32
    }

    /// Block index (address divided by the burst size).
    pub fn block_index(self) -> u64 {
        self.0 >> 6
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// DRAM coordinates of one 64-byte block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Rank on the module.
    pub rank: u32,
    /// Bank within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Block (burst-sized column group) within the row.
    pub block: u32,
}

/// Bit-assignment policy for decoding physical addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AddressMapping {
    /// `row : bank : rank : block` (MSB → LSB). Consecutive addresses walk
    /// through a whole row in one bank, then the same row index in the next
    /// rank/bank. Streaming-friendly; the default.
    #[default]
    RowBankRankBlock,
    /// `row : block : bank : rank` (MSB → LSB). Consecutive 64-byte blocks
    /// alternate ranks, then banks — classic fine-grained interleaving.
    BankInterleavedBlock,
    /// `rank : row : bank : block` (MSB → LSB). Each rank owns one
    /// contiguous half of the address space; within a rank, consecutive
    /// addresses fill a row, then the same row of the next bank. This is
    /// the placement §2.2 assumes for JAFAR: "the database storage engine
    /// can explicitly shuffle column data so that the physical layout is
    /// contiguous" within the rank the accelerator owns.
    RankRowBankBlock,
}

/// Decoder bound to a geometry: slices addresses into coordinate fields.
///
/// Each field's shift within the block index is fixed by the mapping, so
/// it is computed once here: a decode or encode is four shift-and-mask
/// steps, whatever the mapping.
#[derive(Clone, Copy, Debug)]
pub struct AddressDecoder {
    mapping: AddressMapping,
    block: Field,
    bank: Field,
    rank: Field,
    row: Field,
    capacity: u64,
}

/// One coordinate field of the block index: the bits under `mask`,
/// `shift` bits up.
#[derive(Clone, Copy, Debug)]
struct Field {
    shift: u32,
    mask: u64,
}

impl Field {
    fn get(self, block_index: u64) -> u32 {
        ((block_index >> self.shift) & self.mask) as u32
    }

    fn put(self, v: u32) -> u64 {
        u64::from(v) << self.shift
    }

    fn holds(self, v: u32) -> bool {
        u64::from(v) <= self.mask
    }
}

impl AddressDecoder {
    /// Creates a decoder for `geometry` under `mapping`.
    pub fn new(geometry: DramGeometry, mapping: AddressMapping) -> Self {
        geometry.validate();
        let block_bits = log2_exact(geometry.bursts_per_row() as u64);
        let bank_bits = log2_exact(geometry.banks_per_rank as u64);
        let rank_bits = log2_exact(geometry.ranks as u64);
        let row_bits = log2_exact(geometry.rows_per_bank as u64);
        // The position of each field (block, bank, rank, row), counted
        // from the least significant end of the block index.
        let order = match mapping {
            AddressMapping::RowBankRankBlock => [0, 2, 1, 3],
            AddressMapping::BankInterleavedBlock => [2, 1, 0, 3],
            AddressMapping::RankRowBankBlock => [0, 1, 3, 2],
        };
        let widths = [block_bits, bank_bits, rank_bits, row_bits];
        let field = |i: usize| {
            let shift = (0..4)
                .filter(|&j| order[j] < order[i])
                .map(|j| widths[j])
                .sum();
            Field {
                shift,
                mask: (1u64 << widths[i]) - 1,
            }
        };
        AddressDecoder {
            mapping,
            block: field(0),
            bank: field(1),
            rank: field(2),
            row: field(3),
            capacity: 1u64 << (6 + block_bits + bank_bits + rank_bits + row_bits),
        }
    }

    /// The mapping policy this decoder implements.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Number of addressable bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Decodes an address into DRAM coordinates.
    ///
    /// # Panics
    /// Panics if the address is beyond the module capacity.
    #[inline]
    pub fn decode(&self, addr: PhysAddr) -> Coord {
        assert!(
            addr.0 < self.capacity,
            "address {addr} beyond module capacity {:#x}",
            self.capacity
        );
        let bits = addr.block_index();
        Coord {
            rank: self.rank.get(bits),
            bank: self.bank.get(bits),
            row: self.row.get(bits),
            block: self.block.get(bits),
        }
    }

    /// Encodes DRAM coordinates back into the base address of the block.
    ///
    /// # Panics
    /// Panics if any coordinate exceeds its field width.
    pub fn encode(&self, coord: Coord) -> PhysAddr {
        assert!(self.block.holds(coord.block), "block out of range");
        assert!(self.bank.holds(coord.bank), "bank out of range");
        assert!(self.rank.holds(coord.rank), "rank out of range");
        assert!(self.row.holds(coord.row), "row out of range");
        let bits = self.block.put(coord.block)
            | self.bank.put(coord.bank)
            | self.rank.put(coord.rank)
            | self.row.put(coord.row);
        PhysAddr(bits << 6)
    }

    /// The contiguous byte range owned by `rank` under the
    /// rank-contiguous mapping.
    ///
    /// # Panics
    /// Panics for mappings where ranks are not contiguous.
    pub fn rank_range(&self, rank: u32) -> std::ops::Range<u64> {
        assert_eq!(
            self.mapping,
            AddressMapping::RankRowBankBlock,
            "ranks are only contiguous under RankRowBankBlock"
        );
        let rank_bytes = self.capacity / (self.rank.mask + 1);
        let start = rank as u64 * rank_bytes;
        start..start + rank_bytes
    }

    /// The byte range of `rank` under this decoder, if ranks occupy
    /// contiguous address sub-ranges — they do **not** in general (rank bits
    /// sit below row bits), so this returns the rank of a specific address
    /// instead; use [`AddressDecoder::decode`].
    pub fn rank_of(&self, addr: PhysAddr) -> u32 {
        self.decode(addr).rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jafar_common::check::forall;

    fn decoder(mapping: AddressMapping) -> AddressDecoder {
        AddressDecoder::new(DramGeometry::tiny(), mapping)
    }

    #[test]
    fn phys_addr_block_math() {
        let a = PhysAddr(0x1234);
        assert_eq!(a.block_base(), PhysAddr(0x1200));
        assert_eq!(a.block_offset(), 0x34);
        assert_eq!(a.block_index(), 0x48);
        assert_eq!(format!("{a}"), "0x1234");
    }

    #[test]
    fn capacity_matches_geometry() {
        let g = DramGeometry::tiny();
        let d = AddressDecoder::new(g, AddressMapping::RowBankRankBlock);
        assert_eq!(d.capacity(), g.capacity_bytes());
        let g2 = DramGeometry::gem5_2gb();
        let d2 = AddressDecoder::new(g2, AddressMapping::RowBankRankBlock);
        assert_eq!(d2.capacity(), g2.capacity_bytes());
    }

    #[test]
    fn streaming_mapping_stays_in_row() {
        // tiny(): 1 KB rows = 16 blocks. The first 16 consecutive blocks must
        // share (rank, bank, row) under the streaming mapping.
        let d = decoder(AddressMapping::RowBankRankBlock);
        let first = d.decode(PhysAddr(0));
        for blk in 0..16u64 {
            let c = d.decode(PhysAddr(blk * 64));
            assert_eq!((c.rank, c.bank, c.row), (first.rank, first.bank, first.row));
            assert_eq!(c.block, blk as u32);
        }
        // Block 16 moves to the next rank (rank bits sit directly above
        // block bits in this mapping).
        let c = d.decode(PhysAddr(16 * 64));
        assert_eq!(c.rank, 1);
        assert_eq!(c.block, 0);
    }

    #[test]
    fn interleaved_mapping_alternates_ranks_then_banks() {
        let d = decoder(AddressMapping::BankInterleavedBlock);
        let c0 = d.decode(PhysAddr(0));
        let c1 = d.decode(PhysAddr(64));
        let c2 = d.decode(PhysAddr(128));
        assert_eq!(c0.rank, 0);
        assert_eq!(c1.rank, 1);
        assert_eq!((c0.bank, c1.bank), (0, 0));
        assert_eq!(c2.rank, 0);
        assert_eq!(c2.bank, 1);
    }

    #[test]
    fn row_walk_order_differs_between_mappings() {
        // Under streaming mapping, one row's worth of consecutive addresses
        // produces 1 distinct (rank,bank); under interleaving, several.
        let count_distinct = |m: AddressMapping| {
            let d = decoder(m);
            let mut set = std::collections::HashSet::new();
            for blk in 0..16u64 {
                let c = d.decode(PhysAddr(blk * 64));
                set.insert((c.rank, c.bank));
            }
            set.len()
        };
        assert_eq!(count_distinct(AddressMapping::RowBankRankBlock), 1);
        assert_eq!(count_distinct(AddressMapping::BankInterleavedBlock), 8);
    }

    #[test]
    fn rank_contiguous_mapping() {
        let g = DramGeometry::tiny(); // 2 ranks x 4 banks x 64 rows x 1 KB
        let d = AddressDecoder::new(g, AddressMapping::RankRowBankBlock);
        let half = g.capacity_bytes() / 2;
        assert_eq!(d.rank_range(0), 0..half);
        assert_eq!(d.rank_range(1), half..g.capacity_bytes());
        // Everything below `half` decodes to rank 0, above to rank 1.
        for probe in [0, 64, half - 64, half, g.capacity_bytes() - 64] {
            let c = d.decode(PhysAddr(probe));
            assert_eq!(c.rank, u32::from(probe >= half), "probe={probe:#x}");
        }
        // Within a rank, one row's worth of blocks shares (bank, row), then
        // the next row's worth moves to the next bank.
        let first = d.decode(PhysAddr(0));
        for blk in 0..16u64 {
            let c = d.decode(PhysAddr(blk * 64));
            assert_eq!((c.bank, c.row), (first.bank, first.row));
        }
        let next = d.decode(PhysAddr(16 * 64));
        assert_eq!(next.bank, first.bank + 1);
        assert_eq!(next.row, first.row);
    }

    #[test]
    fn rank_contiguous_round_trip() {
        let d = decoder(AddressMapping::RankRowBankBlock);
        for addr in (0..DramGeometry::tiny().capacity_bytes()).step_by(4096 + 64) {
            let a = PhysAddr(addr);
            assert_eq!(d.encode(d.decode(a)), a.block_base());
        }
    }

    #[test]
    #[should_panic(expected = "only contiguous")]
    fn rank_range_requires_contiguous_mapping() {
        decoder(AddressMapping::RowBankRankBlock).rank_range(0);
    }

    #[test]
    #[should_panic(expected = "beyond module capacity")]
    fn out_of_range_decode_panics() {
        let d = decoder(AddressMapping::RowBankRankBlock);
        d.decode(PhysAddr(DramGeometry::tiny().capacity_bytes()));
    }

    const MAPPINGS: [AddressMapping; 3] = [
        AddressMapping::RowBankRankBlock,
        AddressMapping::BankInterleavedBlock,
        AddressMapping::RankRowBankBlock,
    ];

    /// A random power-of-two geometry under a random mapping.
    fn random_decoder(rng: &mut jafar_common::rng::SplitMix64) -> (DramGeometry, AddressDecoder) {
        let g = DramGeometry {
            ranks: 1 << rng.next_below(3),
            banks_per_rank: 1 << rng.next_below(4),
            rows_per_bank: 1 << rng.next_below(15),
            row_bytes: 64 << rng.next_below(8),
        };
        let mapping = MAPPINGS[rng.next_below(3) as usize];
        (g, AddressDecoder::new(g, mapping))
    }

    #[test]
    fn decode_encode_round_trip() {
        forall("decode_encode_round_trip", 512, |rng| {
            let (g, d) = random_decoder(rng);
            assert_eq!(d.capacity(), g.capacity_bytes());
            let a = PhysAddr(rng.next_below(g.capacity_bytes()));
            let c = d.decode(a);
            assert!(c.rank < g.ranks && c.bank < g.banks_per_rank);
            assert!(c.row < g.rows_per_bank && c.block < g.bursts_per_row());
            assert_eq!(d.encode(c), a.block_base());
        });
    }

    #[test]
    fn decode_is_injective_on_blocks() {
        forall("decode_is_injective_on_blocks", 512, |rng| {
            let (g, d) = random_decoder(rng);
            let blocks = g.capacity_bytes() / 64;
            let a = rng.next_below(blocks);
            // Another random block, or one differing in a single bit.
            let b = if rng.next_bool(0.5) {
                rng.next_below(blocks)
            } else {
                a ^ (1 << rng.next_below(u64::from(blocks.trailing_zeros()).max(1)))
            } % blocks;
            let (ca, cb) = (d.decode(PhysAddr(a * 64)), d.decode(PhysAddr(b * 64)));
            assert_eq!(ca == cb, a == b);
            // Small geometries: every block decodes somewhere different.
            if blocks <= 1 << 12 {
                let all: std::collections::HashSet<Coord> =
                    (0..blocks).map(|i| d.decode(PhysAddr(i * 64))).collect();
                assert_eq!(all.len() as u64, blocks);
            }
        });
    }

    #[test]
    fn coordinates_in_bounds() {
        forall("coordinates_in_bounds", 256, |rng| {
            let addr = rng.next_below(DramGeometry::tiny().capacity_bytes());
            let g = DramGeometry::tiny();
            let d = decoder(AddressMapping::BankInterleavedBlock);
            let c = d.decode(PhysAddr(addr));
            assert!(c.rank < g.ranks);
            assert!(c.bank < g.banks_per_rank);
            assert!(c.row < g.rows_per_bank);
            assert!(c.block < g.bursts_per_row());
        });
    }
}
