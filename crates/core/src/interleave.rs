//! Multi-DIMM data interleaving (§2.2, "Handling Data Interleaving").
//!
//! With multiple symmetric DIMMs and a multi-channel controller, data may
//! be interleaved across DIMMs at 64-bit granularity. Each DIMM's JAFAR
//! then sees every `ways`-th word of the column: "JAFAR can still perform
//! its filtering operations as usual, but when it writes the output bitset
//! back to main memory, it must only overwrite bits corresponding to rows
//! it has operated on." That means a read-modify-write of each output
//! burst under a phase mask — twice the writeback traffic, and the reason
//! the alternative (the storage engine shuffling columns to be physically
//! contiguous per DIMM) exists.

use crate::device::{admit, device_error, DeviceError, JafarDevice};
use crate::predicate::Predicate;
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr, Requester};

/// An interleaved select: this device owns words with
/// `global_row % ways == phase`.
#[derive(Clone, Copy, Debug)]
pub struct InterleavedSelectJob {
    /// 64-byte-aligned base of this DIMM's slice of the column (the words
    /// this device sees, densely packed on its DIMM).
    pub local_col_addr: PhysAddr,
    /// Rows on this DIMM (one per `ways` global rows).
    pub local_rows: u64,
    /// The filter.
    pub predicate: Predicate,
    /// 64-byte-aligned base of the *global* output bitset replica on this
    /// DIMM (all devices write the same logical bitset, each its own bits).
    pub out_addr: PhysAddr,
    /// Interleave factor (number of DIMMs).
    pub ways: u32,
    /// This device's position in the interleave.
    pub phase: u32,
}

/// Result of an interleaved select.
#[derive(Clone, Copy, Debug)]
pub struct InterleavedRun {
    /// Completion tick.
    pub end: Tick,
    /// Matches among this device's rows.
    pub matched: u64,
    /// Input bursts read.
    pub bursts_read: u64,
    /// Output bursts *read* for the read-modify-write merge.
    pub rmw_reads: u64,
    /// Output bursts written.
    pub bursts_written: u64,
}

/// Rows that phase `phase` of a `ways`-way word interleave owns out of
/// `global_rows` — the shard-size arithmetic every interleave-aware
/// scheduler needs. Phases below `global_rows % ways` own one extra row.
/// `ways == 1` is the contiguous case (the phase owns everything), which
/// is why the serving layer's per-channel column placement — a column's
/// stripes land whole on one channel's ranks — sidesteps the §2.2
/// masked-writeback tax entirely: each unit filters `phase_rows(rows, 1,
/// 0)` contiguous rows and writes its bitset slice once.
///
/// # Panics
/// Panics if `phase >= ways` or `ways == 0`.
pub fn phase_rows(global_rows: u64, ways: u32, phase: u32) -> u64 {
    assert!(ways > 0 && phase < ways, "bad interleave spec");
    let ways = u64::from(ways);
    let phase = u64::from(phase);
    global_rows / ways + u64::from(phase < global_rows % ways)
}

/// Shard size that splits `rows` across `shards` workers on `align_rows`
/// boundaries: the smallest multiple of `align_rows` that still covers
/// the column in `shards` pieces. With `align_rows` = 512 (64 bytes of
/// bitset) every shard's output slice starts on an exact 64-byte line —
/// the invariant the serving engine's migration replay and the device's
/// whole-line writeback both rely on. The tail shard absorbs the
/// remainder.
///
/// # Panics
/// Panics if `shards == 0` or `align_rows == 0`.
pub fn aligned_chunk(rows: u64, shards: u64, align_rows: u64) -> u64 {
    assert!(shards > 0 && align_rows > 0, "bad shard spec");
    rows.div_ceil(shards).div_ceil(align_rows) * align_rows
}

/// Merges `local_bits` (one bit per local row of `phase`) into `burst`,
/// overwriting only global bit positions `phase + k*ways` — the §2.2
/// masked writeback. `burst_base_bit` is the global bit index of the
/// burst's first bit.
pub fn merge_masked_bits(
    burst: &mut [u8; 64],
    local_bits: &[bool],
    burst_base_bit: u64,
    ways: u32,
    phase: u32,
) {
    for bit in 0..512u64 {
        let global = burst_base_bit + bit;
        if global % ways as u64 != phase as u64 {
            continue;
        }
        let local_idx = (global / ways as u64) as usize;
        if local_idx >= local_bits.len() {
            continue;
        }
        let byte = (bit / 8) as usize;
        let mask = 1u8 << (bit % 8);
        if local_bits[local_idx] {
            burst[byte] |= mask;
        } else {
            burst[byte] &= !mask;
        }
    }
}

impl JafarDevice {
    /// Executes an interleaved select with masked read-modify-write
    /// writeback.
    ///
    /// # Errors
    /// Same validation as [`JafarDevice::run_select`].
    ///
    /// # Panics
    /// Panics if `phase >= ways` or `ways == 0`.
    pub fn run_select_interleaved(
        &mut self,
        module: &mut DramModule,
        job: InterleavedSelectJob,
        start: Tick,
    ) -> Result<InterleavedRun, DeviceError> {
        assert!(job.ways > 0 && job.phase < job.ways, "bad interleave spec");
        // The masked writeback reads and writes every global output burst.
        let global_rows = job.local_rows.saturating_mul(u64::from(job.ways));
        admit(
            module,
            &[
                (job.local_col_addr, job.local_rows.saturating_mul(8)),
                (job.out_addr, global_rows.div_ceil(512).saturating_mul(64)),
            ],
            start,
        )?;
        let (lo, hi) = job.predicate.bounds();
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;
        let ps_per_word = self.ps_per_word();

        // Pass 1: filter the local slice (dense stream, as usual).
        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;
        let mut matched = 0u64;
        let mut local_bits: Vec<bool> = Vec::with_capacity(job.local_rows as usize);
        let total_bursts = job.local_rows.div_ceil(8);
        for burst in 0..total_bursts {
            let access = module
                .serve_addr(
                    PhysAddr(job.local_col_addr.0 + burst * 64),
                    false,
                    Requester::Ndp,
                    issue_cursor,
                    None,
                )
                .map_err(device_error)?;
            bursts_read += 1;
            let cas_at = access.data_ready.saturating_sub(cas_pipeline);
            issue_cursor = cas_at.max(issue_cursor) + t.bus_clock.period();
            proc_free = proc_free.max(access.data_ready);
            let data = access.data.expect("read");
            let words = (job.local_rows - burst * 8).min(8);
            for w in 0..words {
                let off = (w * 8) as usize;
                let v = i64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"));
                let hit = lo <= v && v <= hi;
                matched += u64::from(hit);
                local_bits.push(hit);
            }
            proc_free += Tick::from_ps(words * ps_per_word);
        }

        // Pass 2: masked read-modify-write of every global output burst
        // that contains one of our bits.
        let global_rows = job.local_rows * job.ways as u64;
        let out_bursts = global_rows.div_ceil(512);
        let mut rmw_reads = 0u64;
        let mut bursts_written = 0u64;
        for ob in 0..out_bursts {
            let addr = PhysAddr(job.out_addr.0 + ob * 64);
            let access = module
                .serve_addr(addr, false, Requester::Ndp, proc_free, None)
                .map_err(device_error)?;
            rmw_reads += 1;
            proc_free = proc_free.max(access.data_ready);
            let mut burst = *access.data.expect("read");
            merge_masked_bits(&mut burst, &local_bits, ob * 512, job.ways, job.phase);
            module
                .serve_addr(addr, true, Requester::Ndp, proc_free, Some(&burst))
                .map_err(device_error)?;
            bursts_written += 1;
            proc_free += t.t_burst;
        }

        Ok(InterleavedRun {
            end: proc_free,
            matched,
            bursts_read,
            rmw_reads,
            bursts_written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SelectJob;
    use crate::ownership::grant_ownership;
    use jafar_common::bitset::BitSet;
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming};

    fn setup() -> (JafarDevice, DramModule, Tick) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership(&mut m, 0, Tick::ZERO).unwrap();
        let t0 = lease.acquired_at;

        (JafarDevice::paper_default(), m, t0)
    }

    #[test]
    fn phase_rows_partitions_the_column_exactly() {
        for rows in [0u64, 1, 7, 512, 513, 1_000_003] {
            for ways in [1u32, 2, 3, 4, 8] {
                let total: u64 = (0..ways).map(|p| phase_rows(rows, ways, p)).sum();
                assert_eq!(total, rows, "rows {rows} ways {ways}");
                // No phase owns more than one row over its siblings.
                let max = (0..ways).map(|p| phase_rows(rows, ways, p)).max().unwrap();
                let min = (0..ways).map(|p| phase_rows(rows, ways, p)).min().unwrap();
                assert!(max - min <= 1);
            }
        }
        assert_eq!(phase_rows(10, 1, 0), 10, "contiguous placement owns all");
    }

    #[test]
    fn aligned_chunk_covers_and_aligns() {
        for rows in [1u64, 511, 512, 513, 2048, 99_999] {
            for shards in [1u64, 2, 3, 4, 7] {
                let chunk = aligned_chunk(rows, shards, 512);
                assert_eq!(chunk % 512, 0, "rows {rows} shards {shards}");
                assert!(chunk * shards >= rows, "covers the column");
                // Minimal: one alignment quantum smaller could not cover
                // the column with the same shard count.
                assert!(chunk == 512 || (chunk - 512) * shards < rows);
            }
        }
    }

    #[test]
    fn merge_masked_bits_only_touches_own_phase() {
        let mut burst = [0xFFu8; 64];
        // Phase 0 of 2: even global bits; all local bits false → clear
        // every even bit, leave odd bits set.
        let local = vec![false; 256];
        merge_masked_bits(&mut burst, &local, 0, 2, 0);
        for byte in burst {
            assert_eq!(byte, 0b1010_1010);
        }
    }

    #[test]
    fn two_phases_reconstruct_global_bitset() {
        // Simulate 2-way interleaving: global column split into even/odd
        // words on two "DIMMs" (here: two regions of one module, filtered
        // in two passes with the two phases).
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(77);
        let global_rows = 1024u64;
        let global: Vec<i64> = (0..global_rows)
            .map(|_| rng.next_range_inclusive(0, 99))
            .collect();
        let even: Vec<i64> = global.iter().copied().step_by(2).collect();
        let odd: Vec<i64> = global.iter().copied().skip(1).step_by(2).collect();
        for (i, v) in even.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(i as u64 * 8), *v);
        }
        for (i, v) in odd.iter().enumerate() {
            m.data_mut()
                .write_i64(PhysAddr(32 * 1024 + i as u64 * 8), *v);
        }
        let out_addr = 64 * 1024u64;
        let r0 = d
            .run_select_interleaved(
                &mut m,
                InterleavedSelectJob {
                    local_col_addr: PhysAddr(0),
                    local_rows: even.len() as u64,
                    predicate: Predicate::Lt(50),
                    out_addr: PhysAddr(out_addr),
                    ways: 2,
                    phase: 0,
                },
                t0,
            )
            .unwrap();
        let r1 = d
            .run_select_interleaved(
                &mut m,
                InterleavedSelectJob {
                    local_col_addr: PhysAddr(32 * 1024),
                    local_rows: odd.len() as u64,
                    predicate: Predicate::Lt(50),
                    out_addr: PhysAddr(out_addr),
                    ways: 2,
                    phase: 1,
                },
                r0.end,
            )
            .unwrap();
        let expect: Vec<u32> = global
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < 50)
            .map(|(i, _)| i as u32)
            .collect();
        let mut bytes = vec![0u8; (global_rows as usize).div_ceil(8)];
        m.data().read(PhysAddr(out_addr), &mut bytes);
        let got = BitSet::from_bytes(&bytes, global_rows as usize);
        assert_eq!(got.to_positions(), expect);
        assert_eq!(r0.matched + r1.matched, expect.len() as u64);
    }

    #[test]
    fn interleaved_writeback_costs_rmw() {
        // Contiguous layout (the paper's alternative) writes each output
        // burst once; interleaved pays a read + a write per output burst.
        let (mut d, mut m, t0) = setup();
        let rows = 2048u64;
        let values: Vec<i64> = (0..rows as i64).collect();
        for (i, v) in values.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(i as u64 * 8), *v);
        }
        let inter = d
            .run_select_interleaved(
                &mut m,
                InterleavedSelectJob {
                    local_col_addr: PhysAddr(0),
                    local_rows: rows,
                    predicate: Predicate::Lt(100),
                    out_addr: PhysAddr(64 * 1024),
                    ways: 2,
                    phase: 0,
                },
                t0,
            )
            .unwrap();
        let plain = d
            .run_select(
                &mut m,
                SelectJob {
                    col_addr: PhysAddr(0),
                    rows,
                    predicate: Predicate::Lt(100),
                    out_addr: PhysAddr(96 * 1024),
                },
                inter.end,
            )
            .unwrap();
        assert!(inter.rmw_reads > 0);
        // Interleaved global bitset covers ways× rows → at least as many
        // writebacks, plus the RMW reads the contiguous path never pays.
        assert!(inter.bursts_written >= plain.bursts_written);
        assert_eq!(inter.rmw_reads, inter.bursts_written);
    }

    #[test]
    #[should_panic(expected = "bad interleave spec")]
    fn phase_out_of_range_panics() {
        let (mut d, mut m, t0) = setup();
        let _ = d.run_select_interleaved(
            &mut m,
            InterleavedSelectJob {
                local_col_addr: PhysAddr(0),
                local_rows: 8,
                predicate: Predicate::Lt(1),
                out_addr: PhysAddr(1024),
                ways: 2,
                phase: 2,
            },
            t0,
        );
    }
}
