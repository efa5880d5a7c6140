//! Rank-parallel select execution: K devices, K leases, one timeline.
//!
//! The paper's discussion section observes that one JAFAR per rank is the
//! natural scaling axis — ownership is already arbitrated per rank via the
//! MR3/MPR mechanism, so independent ranks can filter concurrently while
//! the host keeps using the others. This module is that scheduler: given a
//! column striped across K ranks (one [`SelectRequest`] shard per rank,
//! each 64-byte-aligned within its own rank), it opens one steppable
//! one-lane [`SelectSession`] per shard and interleaves them in simulated
//! time.
//!
//! **Scheduling discipline.** Each session carries its own simulated
//! clock ([`SelectSession::cursor`]). The scheduler always advances the
//! *furthest-behind* live session by one page (ties broken by shard
//! index, so the interleaving is fully deterministic). Because a page is
//! the driver's atomic unit, a shard may momentarily run ahead of its
//! siblings' cursors — but no shard ever *observes* another's future:
//! ranks do not share banks, rank-level timing state, or the per-rank NDP
//! IO paths, so the per-rank timelines are independent by construction
//! and the page-granular interleaving is exact, not approximate.
//!
//! **Fault isolation.** Every shard gets its own [`ResilientDriver`], so
//! the full recovery ladder — watchdog, bounded backoff, circuit breaker,
//! CPU-scan fallback — applies per rank. A faulty rank degrades to the
//! host scan *on its own timeline* while its siblings stream at device
//! speed; the merged result is still bit-identical to the reference.
//!
//! The per-rank output bitsets stay where each device wrote them (each
//! shard's `out_addr`); merging them into one selection vector is the
//! caller's job (`jafar-sim`'s `run_select_jafar_parallel` does it with
//! byte-aligned copies, which row-aligned striping guarantees possible).

use crate::device::JafarDevice;
use crate::driver::{DriverRun, ResilientDriver, SelectRequest, SelectSession};
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;
use jafar_dram::DramModule;

/// One shard's outcome within a parallel select.
#[derive(Clone, Copy, Debug)]
pub struct ShardRun {
    /// Index of the shard in the request slice.
    pub shard: u32,
    /// The rank the shard's column lives on.
    pub rank: u32,
    /// The shard's own resilient-driver outcome.
    pub run: DriverRun,
}

/// Outcome of a rank-parallel select.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// When the slowest shard finished (the query's completion time).
    pub end: Tick,
    /// Total matching rows across all shards.
    pub matched: u64,
    /// Per-shard outcomes, in request order.
    pub shards: Vec<ShardRun>,
}

/// Runs `shards[i]` on `devices[i]` under `drivers[i]`, all interleaved on
/// the shared simulated timeline starting at `start`.
///
/// Every shard must target a distinct rank — that is what makes the
/// timelines independent (per-rank banks, timing state and NDP IO paths).
/// The host remains free to use unowned ranks throughout; nothing here
/// touches them.
///
/// # Panics
/// Panics if the slice lengths differ or two shards decode to the same
/// rank.
pub fn run_select_parallel(
    drivers: &mut [ResilientDriver],
    devices: &mut [JafarDevice],
    module: &mut DramModule,
    shards: &[SelectRequest],
    start: Tick,
    tracer: &SharedTracer,
) -> ParallelRun {
    assert_eq!(drivers.len(), shards.len(), "one driver per shard");
    assert_eq!(devices.len(), shards.len(), "one device per shard");
    let mut sessions: Vec<Option<SelectSession>> = shards
        .iter()
        .zip(drivers.iter())
        .map(|(req, driver)| Some(driver.start_session(module, (*req).into(), start)))
        .collect();
    for (i, a) in sessions.iter().flatten().enumerate() {
        for b in sessions.iter().flatten().skip(i + 1) {
            assert_ne!(a.rank(), b.rank(), "shards must target distinct ranks");
        }
    }

    let mut runs: Vec<Option<ShardRun>> = vec![None; shards.len()];
    // Advance the furthest-behind live session; ties go to the lowest
    // shard index, making the interleaving deterministic.
    while let Some(i) = sessions
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|s| (s.cursor(), i)))
        .min()
        .map(|(_, i)| i)
    {
        let session = sessions[i].as_mut().expect("picked a live session");
        tracer.emit(
            session.cursor(),
            EventKind::ShardStep {
                shard: i as u32,
                rank: session.rank(),
                at_row: session.next_row(),
            },
        );
        drivers[i].step_page(&mut devices[i], module, session);
        if session.is_done() {
            let session = sessions[i].take().expect("just stepped it");
            let rank = session.rank();
            let run = session.into_run().first_lane();
            tracer.emit(
                run.end,
                EventKind::ShardDone {
                    shard: i as u32,
                    rank,
                    matched: run.matched,
                },
            );
            runs[i] = Some(ShardRun {
                shard: i as u32,
                rank,
                run,
            });
        }
    }

    let shards_out: Vec<ShardRun> = runs
        .into_iter()
        .map(|r| r.expect("every shard ran to completion"))
        .collect();
    ParallelRun {
        end: shards_out.iter().map(|s| s.run.end).max().unwrap_or(start),
        matched: shards_out.iter().map(|s| s.run.matched).sum(),
        shards: shards_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ResilienceConfig;
    use jafar_common::bitset::BitSet;
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{
        AddressMapping, DramGeometry, DramTiming, FaultInjector, FaultPlan, PhysAddr,
    };

    const ROWS: u64 = 2048;
    const LO: i64 = 100;
    const HI: i64 = 499;

    fn fresh_module() -> DramModule {
        DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        )
    }

    /// Writes a seeded column at `base` and returns its values.
    fn put_column(m: &mut DramModule, base: PhysAddr, rows: u64, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64::new(seed);
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        for (i, v) in values.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(base.0 + i as u64 * 8), *v);
        }
        values
    }

    fn reference(values: &[i64]) -> Vec<u32> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (LO..=HI).contains(&v))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn bitset_at(m: &DramModule, addr: PhysAddr, rows: u64) -> Vec<u32> {
        let mut bytes = vec![0u8; rows.div_ceil(8) as usize];
        m.data().read(addr, &mut bytes);
        BitSet::from_bytes(&bytes, rows as usize).to_positions()
    }

    /// One shard per rank of the tiny geometry: rank 0 at offset 0, rank 1
    /// at the rank stride. Output buffers sit high in each shard's rank.
    fn two_shards(m: &mut DramModule) -> (Vec<SelectRequest>, Vec<Vec<i64>>) {
        let rank_bytes = DramGeometry::tiny().rank_bytes();
        let mut reqs = Vec::new();
        let mut vals = Vec::new();
        for rank in 0..2u64 {
            let col = PhysAddr(rank * rank_bytes);
            let out = PhysAddr(rank * rank_bytes + 128 * 1024);
            vals.push(put_column(m, col, ROWS, 21 + rank));
            reqs.push(SelectRequest {
                col_addr: col,
                rows: ROWS,
                lo: LO,
                hi: HI,
                out_addr: out,
            });
        }
        (reqs, vals)
    }

    fn solo_run(req: SelectRequest, seed: u64) -> DriverRun {
        let mut m = fresh_module();
        put_column(&mut m, req.col_addr, req.rows, seed);
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        driver.run_select(&mut device, &mut m, req, Tick::ZERO)
    }

    #[test]
    fn two_ranks_run_concurrently_and_match_reference() {
        let mut m = fresh_module();
        let (reqs, vals) = two_shards(&mut m);
        let mut drivers = vec![
            ResilientDriver::new(ResilienceConfig::default()),
            ResilientDriver::new(ResilienceConfig::default()),
        ];
        let mut devices = vec![JafarDevice::paper_default(), JafarDevice::paper_default()];
        let out = run_select_parallel(
            &mut drivers,
            &mut devices,
            &mut m,
            &reqs,
            Tick::ZERO,
            &SharedTracer::disabled(),
        );

        for (i, req) in reqs.iter().enumerate() {
            let expect = reference(&vals[i]);
            assert_eq!(bitset_at(&m, req.out_addr, ROWS), expect, "shard {i}");
            assert_eq!(out.shards[i].run.matched as usize, expect.len());
            assert_eq!(out.shards[i].rank, i as u32);
        }
        assert_eq!(
            out.matched,
            out.shards.iter().map(|s| s.run.matched).sum::<u64>()
        );

        // The shards are timing-independent: each finishes exactly when it
        // would have finished running alone, so the parallel completion
        // time is the max — not the sum — of the per-shard timelines.
        let solo0 = solo_run(reqs[0], 21);
        let solo1 = solo_run(reqs[1], 22);
        assert_eq!(out.shards[0].run.end, solo0.end);
        assert_eq!(out.shards[1].run.end, solo1.end);
        assert_eq!(out.end, solo0.end.max(solo1.end));
        assert!(
            out.end < solo0.end + (solo1.end - Tick::ZERO),
            "parallel, not serial"
        );

        for rank in 0..2 {
            assert!(!m.rank_owned_by_ndp(rank), "leases released at the end");
        }
    }

    #[test]
    fn faulty_rank_falls_back_without_stalling_sibling() {
        let mut m = fresh_module();
        let (reqs, vals) = two_shards(&mut m);
        // Every read burst on rank 1 stalls past the watchdog; rank 0 is
        // untouched (and consumes none of the injector's RNG stream).
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            stall_burst_range: Some((0, u64::MAX)),
            rank_scope: Some(1),
            ..FaultPlan::none(0)
        })));
        let mut drivers = vec![
            ResilientDriver::new(ResilienceConfig::default()),
            ResilientDriver::new(ResilienceConfig {
                max_retries: 1,
                breaker_threshold: 1,
                ..ResilienceConfig::default()
            }),
        ];
        let mut devices = vec![JafarDevice::paper_default(), JafarDevice::paper_default()];
        let out = run_select_parallel(
            &mut drivers,
            &mut devices,
            &mut m,
            &reqs,
            Tick::ZERO,
            &SharedTracer::disabled(),
        );

        // Results stay bit-identical on both shards.
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(bitset_at(&m, req.out_addr, ROWS), reference(&vals[i]));
        }
        // The faulty shard went through the recovery ladder to the CPU.
        let s1 = drivers[1].stats();
        assert!(s1.watchdog_fires.get() >= 1);
        assert!(s1.pages_cpu.get() >= 1);
        assert_eq!(s1.breaker_trips.get(), 1);
        // The healthy sibling never noticed: zero recovery events and the
        // same completion time as running alone on a fault-free module.
        let s0 = drivers[0].stats();
        assert_eq!(s0.recovery_total(), 0);
        assert_eq!(out.shards[0].run.end, solo_run(reqs[0], 21).end);
        // The stalled rank finishes late — after its healthy sibling.
        assert!(out.shards[1].run.end > out.shards[0].run.end);
        assert_eq!(out.end, out.shards[1].run.end);
    }

    /// Satellite property: the merged device output is bit-identical to
    /// the CPU reference across randomized output-buffer sizes, column
    /// bases that are 64-byte- but not DRAM-row-aligned, row counts not
    /// divisible by 8, and 1..=4 rank partitions. Each case is seeded by
    /// `jafar_common::check::case_seed`, so a failure replays exactly.
    #[test]
    fn property_parallel_select_is_bit_identical_to_reference() {
        use crate::device::DeviceConfig;
        use jafar_common::check::forall;

        let geom = DramGeometry {
            ranks: 4,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        let rank_bytes = geom.rank_bytes();
        forall("parallel select == cpu reference", 48, |rng| {
            let rows = 1 + rng.next_below(1200);
            let k = 1 + rng.next_below(4) as usize;
            let mut m = DramModule::new(
                geom,
                DramTiming::ddr3_paper().without_refresh(),
                AddressMapping::RankRowBankBlock,
            );
            let values: Vec<i64> = (0..rows)
                .map(|_| rng.next_range_inclusive(-500, 1500))
                .collect();
            let lo = rng.next_range_inclusive(-200, 600);
            let hi = lo + rng.next_range_inclusive(0, 700);

            // Stripe the column over up to `k` ranks on multiple-of-8-row
            // boundaries (so shard bitsets merge on byte edges), each shard
            // at a 64-byte-aligned but row-unaligned offset in its rank.
            let chunk = rows.div_ceil(k as u64).div_ceil(8) * 8;
            let mut reqs = Vec::new();
            let mut offsets = Vec::new();
            let mut row_offset = 0u64;
            for rank in 0..k as u64 {
                if row_offset >= rows {
                    break;
                }
                let shard_rows = chunk.min(rows - row_offset);
                let col = PhysAddr(rank * rank_bytes + 64 * (1 + rng.next_below(512)));
                for (i, &v) in values[row_offset as usize..][..shard_rows as usize]
                    .iter()
                    .enumerate()
                {
                    m.data_mut().write_i64(PhysAddr(col.0 + i as u64 * 8), v);
                }
                reqs.push(SelectRequest {
                    col_addr: col,
                    rows: shard_rows,
                    lo,
                    hi,
                    out_addr: PhysAddr(rank * rank_bytes + 192 * 1024),
                });
                offsets.push(row_offset);
                row_offset += shard_rows;
            }

            let mut drivers: Vec<ResilientDriver> = reqs
                .iter()
                .map(|_| ResilientDriver::new(ResilienceConfig::default()))
                .collect();
            let mut devices: Vec<JafarDevice> = reqs
                .iter()
                .map(|_| {
                    JafarDevice::new(DeviceConfig {
                        out_buf_bits: 8 * (1 + rng.next_below(64)) as usize,
                        ..DeviceConfig::default()
                    })
                })
                .collect();
            let out = run_select_parallel(
                &mut drivers,
                &mut devices,
                &mut m,
                &reqs,
                Tick::ZERO,
                &SharedTracer::disabled(),
            );

            // Byte-aligned merge, exactly as the sim layer performs it.
            let mut bytes = vec![0u8; rows.div_ceil(8) as usize];
            for (req, &off) in reqs.iter().zip(&offsets) {
                let mut shard = vec![0u8; req.rows.div_ceil(8) as usize];
                m.data().read(req.out_addr, &mut shard);
                let dst = (off / 8) as usize;
                bytes[dst..dst + shard.len()].copy_from_slice(&shard);
            }
            let got = BitSet::from_bytes(&bytes, rows as usize).to_positions();
            let expect: Vec<u32> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| lo <= v && v <= hi)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, expect, "rows={rows} k={k} lo={lo} hi={hi}");
            assert_eq!(out.matched as usize, expect.len());
        });
    }

    #[test]
    #[should_panic(expected = "distinct ranks")]
    fn same_rank_shards_are_rejected() {
        let mut m = fresh_module();
        let req = SelectRequest {
            col_addr: PhysAddr(0),
            rows: 64,
            lo: 0,
            hi: 0,
            out_addr: PhysAddr(128 * 1024),
        };
        let mut drivers = vec![
            ResilientDriver::new(ResilienceConfig::default()),
            ResilientDriver::new(ResilienceConfig::default()),
        ];
        let mut devices = vec![JafarDevice::paper_default(), JafarDevice::paper_default()];
        run_select_parallel(
            &mut drivers,
            &mut devices,
            &mut m,
            &[req, req],
            Tick::ZERO,
            &SharedTracer::disabled(),
        );
    }
}
