//! The one-shot kernels held to their burst-at-a-time selves.
//!
//! [`aggregate`] and [`project`] are the loops of
//! [`JafarDevice::run_aggregate`] and [`JafarDevice::run_project`] as
//! they stood before either advanced its datapath clock over a whole
//! row run: the fold steps its clock one burst at a time over the runs
//! `serve_run` serves, and the projection reads, packs and writes one
//! burst at a time through `serve_addr`. They are copied verbatim, so a
//! twin module driven through them is the oracle the kernels must equal
//! in every tick, byte, counter and trace event.

use crate::aggregate::{AggOp, AggregateJob, AggregateRun};
use crate::datapath::Datapath;
use crate::device::{
    admit, burst_words, device_error, live_mask, range_mask, DeviceConfig, DeviceError, JafarDevice,
};
use crate::ownership::grant_ownership;
use crate::predicate::Predicate;
use crate::project::{ProjectJob, ProjectRun};
use jafar_accel::schedule::Resources;
use jafar_common::check::forall;
use jafar_common::obs::{Event, RingTracer, SharedTracer};
use jafar_common::rng::SplitMix64;
use jafar_common::time::{ClockDomain, Tick};
use jafar_dram::{
    AddressMapping, DramGeometry, DramModule, DramTiming, FaultInjector, FaultPlan, PhysAddr,
    Requester,
};
use std::cell::RefCell;
use std::rc::Rc;

/// The scalar fold, clocked one burst at a time.
fn aggregate(
    device: &JafarDevice,
    module: &mut DramModule,
    job: AggregateJob,
    start: Tick,
) -> Result<AggregateRun, DeviceError> {
    admit(module, &[(job.col_addr, job.rows.saturating_mul(8))], start)?;
    let datapath = if job.filter.is_some() {
        Datapath::FilteredAggregate
    } else {
        Datapath::Aggregate
    };
    let ps_per_word = datapath.ps_per_word(device.config());
    let bounds = job.filter.map(Predicate::bounds);

    let mut issue_cursor = start;
    let mut proc_free = start;
    let mut bursts_read = 0u64;
    let mut count = 0u64;
    // The three folds, at their identities.
    let (mut sum, mut min, mut max) = (0i64, i64::MAX, i64::MIN);

    let total_bursts = job.rows.div_ceil(8);
    let mut burst = 0;
    while burst < total_bursts {
        // The fold never writes, so it asks for the rest of the column.
        let run = module
            .serve_run(
                PhysAddr(job.col_addr.0 + burst * 64),
                usize::try_from(total_bursts - burst).unwrap_or(usize::MAX),
                Requester::Ndp,
                issue_cursor,
            )
            .map_err(device_error)?;
        issue_cursor = run.next_request;
        for (i, line) in run.lines.iter().enumerate() {
            proc_free = proc_free.max(run.data_ready(i));
            let values = burst_words(line);
            let words = (job.rows - (burst + i as u64) * 8).min(8) as usize;
            let live = match bounds {
                Some((lo, hi)) => range_mask(&values, words, lo, hi),
                None => live_mask(words),
            };
            count += u64::from(live.count_ones());
            // A word that does not qualify folds in as the fold's
            // identity, so all eight fold without a branch on the
            // filter. The wrapping sum is associative: the result is
            // the word-by-word one.
            let qualifying = |identity: i64| -> [i64; 8] {
                std::array::from_fn(|w| {
                    if live >> w & 1 == 1 {
                        values[w]
                    } else {
                        identity
                    }
                })
            };
            match job.op {
                AggOp::Sum | AggOp::Avg => {
                    sum = qualifying(0).into_iter().fold(sum, i64::wrapping_add)
                }
                AggOp::Min => min = qualifying(i64::MAX).into_iter().fold(min, i64::min),
                AggOp::Max => max = qualifying(i64::MIN).into_iter().fold(max, i64::max),
                AggOp::Count => {}
            }
            proc_free += Tick::from_ps(words as u64 * ps_per_word);
        }
        let n = run.lines.len() as u64;
        burst += n;
        bursts_read += n;
    }

    let value = match job.op {
        AggOp::Count => count as i64,
        AggOp::Sum | AggOp::Avg => sum,
        AggOp::Min => min,
        AggOp::Max => max,
    };
    Ok(AggregateRun {
        end: proc_free,
        // Only a count is defined over no qualifying row.
        value: (count > 0 || job.op == AggOp::Count).then_some(value),
        count,
        bursts_read,
    })
}

/// The projection, read, packed, clocked and written one burst at a
/// time.
fn project(
    device: &JafarDevice,
    module: &mut DramModule,
    job: ProjectJob,
    start: Tick,
) -> Result<ProjectRun, DeviceError> {
    let col_bytes = job.rows.saturating_mul(8);
    // The bitset is read a whole burst (512 rows) at a time, and the
    // packed output may hold every row.
    admit(
        module,
        &[
            (job.col_addr, col_bytes),
            (job.bitset_addr, job.rows.div_ceil(512) * 64),
            (job.out_addr, col_bytes),
        ],
        start,
    )?;
    let t = *module.timing();
    let cas_pipeline = t.cl + t.t_burst;
    let ps_per_word = device.ps_per_word();

    let mut issue_cursor = start;
    let mut proc_free = start;
    let mut bursts_read = 0u64;
    let mut bursts_written = 0u64;
    // Selected words wait here until eight make a line. Every word of
    // a burst is stored at the fill point and the fill advances only
    // past selected ones, so packing takes no branch; a burst adds at
    // most eight words, so the pending line flushes at most once.
    let mut pending = [0u8; 128];
    let mut fill = 0usize;
    let mut out_cursor = job.out_addr.0;
    let mut emitted = 0u64;
    // Current bitset burst cache: covers 512 rows.
    let mut bitset_cache: Option<(u64, [u8; 64])> = None;

    let total_bursts = job.rows.div_ceil(8);
    for burst in 0..total_bursts {
        // Bitset burst covering these rows (rows 512*k .. 512*k+511);
        // this data burst covers rows 8*burst .. 8*burst+7.
        let bitset_burst = burst * 8 / 512;
        if bitset_cache.map(|(b, _)| b) != Some(bitset_burst) {
            let access = module
                .serve_addr(
                    PhysAddr(job.bitset_addr.0 + bitset_burst * 64),
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
            // Cached across the column bursts below, so copied out.
            bitset_cache = Some((bitset_burst, *access.data.expect("read")));
        }
        // This burst's eight rows are one byte of the bitset burst.
        let (_, bits) = bitset_cache.expect("fetched above");
        let words = (job.rows - burst * 8).min(8);
        let mask = u32::from(bits[(burst % 64) as usize]) & ((1u32 << words) - 1);
        let access = module
            .serve_addr(
                PhysAddr(job.col_addr.0 + burst * 64),
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
        let (data, _) = access.data.expect("read").as_chunks::<8>();
        for (w, word) in data.iter().enumerate() {
            pending[fill * 8..fill * 8 + 8].copy_from_slice(word);
            fill += (mask >> w & 1) as usize;
        }
        emitted += u64::from(mask.count_ones());
        if fill >= 8 {
            // The line fills within this burst: it goes out at the
            // tick a word-by-word packer would have sent it.
            module
                .serve_addr(
                    PhysAddr(out_cursor),
                    true,
                    Requester::Ndp,
                    proc_free,
                    Some(pending[..64].try_into().expect("one line")),
                )
                .map_err(device_error)?;
            bursts_written += 1;
            out_cursor += 64;
            pending.copy_within(64.., 0);
            fill -= 8;
        }
        proc_free += Tick::from_ps(words * ps_per_word);
    }
    if fill > 0 {
        // The last, partial line carries zeros past its values.
        pending[fill * 8..64].fill(0);
        module
            .serve_addr(
                PhysAddr(out_cursor),
                true,
                Requester::Ndp,
                proc_free,
                Some(pending[..64].try_into().expect("one line")),
            )
            .map_err(device_error)?;
        bursts_written += 1;
    }

    Ok(ProjectRun {
        end: proc_free,
        emitted,
        bursts_read,
        bursts_written,
    })
}

/// The most rows a job streams: 4,096 rows make eight bitset bursts.
const MAX_ROWS: u64 = 4096;

/// One side of the comparison: a device, its module and the tracer
/// attached to the module, if any.
struct Twin {
    device: JafarDevice,
    module: DramModule,
    ring: Option<Rc<RefCell<RingTracer>>>,
}

/// Everything a job leaves behind that the other twin must match.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    out: Vec<u8>,
    counters: String,
    banks: Vec<String>,
    faults: String,
    trace: Vec<Event>,
    probe: String,
}

impl Twin {
    fn new(
        geometry: DramGeometry,
        timing: DramTiming,
        mapping: AddressMapping,
        config: DeviceConfig,
        rank: u32,
    ) -> (Self, Tick) {
        let mut module = DramModule::new(geometry, timing, mapping);
        let t0 = grant_ownership(&mut module, rank, Tick::ZERO)
            .expect("a fresh module grants")
            .acquired_at;
        let twin = Twin {
            device: JafarDevice::new(config),
            module,
            ring: None,
        };
        (twin, t0)
    }

    /// Attaches a fresh command tracer, or detaches it.
    fn trace(&mut self, on: bool) {
        if on {
            let (tracer, ring) = SharedTracer::ring(1 << 15);
            self.module.set_tracer(tracer);
            self.ring = Some(ring);
        } else {
            self.module.set_tracer(SharedTracer::disabled());
            self.ring = None;
        }
    }

    /// What the module holds after a job that ended at `end`, then
    /// the completion of one more read at `probe`, requested at
    /// `end`: a reservation the job left behind shows in it.
    fn observe(&mut self, result: String, out: (u64, usize), probe: u64, end: Tick) -> Observed {
        let mut bytes = vec![0u8; out.1];
        self.module.data().read(PhysAddr(out.0), &mut bytes);
        let g = self.module.geometry();
        let banks = (0..g.ranks)
            .flat_map(|r| (0..g.banks_per_rank).map(move |b| (r, b)))
            .map(|(r, b)| format!("{:?}", self.module.bank(r, b)))
            .collect();
        let trace = self
            .ring
            .as_ref()
            .map(|ring| ring.borrow().snapshot())
            .unwrap_or_default();
        let probe = format!(
            "{:?}",
            self.module
                .serve_addr(PhysAddr(probe), false, Requester::Ndp, end, None)
                .map(|a| (a.outcome, a.data_ready))
        );
        if let Some(ring) = &self.ring {
            ring.borrow_mut().clear();
        }
        Observed {
            result,
            out: bytes,
            counters: format!("{:?}", self.module.stats()),
            banks,
            faults: format!("{:?}", self.module.fault_stats()),
            trace,
            probe,
        }
    }
}

/// A bitset burst's 64 bytes: empty, full, random at a random
/// density, sparse, or random with its last byte set so that its
/// bits come to a whole number of lines (a line that was empty when
/// the burst began fills exactly at its end).
fn bitset_burst(rng: &mut SplitMix64) -> [u8; 64] {
    let random = |rng: &mut SplitMix64, p: f64| -> [u8; 64] {
        std::array::from_fn(|_| (0..8).fold(0u8, |b, i| b | u8::from(rng.next_bool(p)) << i))
    };
    match rng.next_below(5) {
        0 => [0; 64],
        1 => [0xFF; 64],
        2 => {
            let p = rng.next_below(101) as f64 / 100.0;
            random(rng, p)
        }
        3 => random(rng, 0.02),
        _ => {
            let p = rng.next_below(101) as f64 / 100.0;
            let mut bytes = random(rng, p);
            let ones: u32 = bytes[..63].iter().map(|b| b.count_ones()).sum();
            let last = 8 - ones % 8;
            bytes[63] = (0xFFu16 >> (8 - last)) as u8;
            bytes
        }
    }
}

/// An aggregate filter: none, empty (both spellings of an empty
/// range), full, or a random range over the column's small values.
fn filter(rng: &mut SplitMix64) -> Option<Predicate> {
    match rng.next_below(6) {
        0 => None,
        1 => Some(Predicate::Between(5, -5)),
        2 => Some(Predicate::Between(i64::MAX, i64::MIN)),
        3 => Some(Predicate::Between(i64::MIN, i64::MAX)),
        4 => Some([Predicate::Lt(i64::MIN), Predicate::Gt(i64::MAX)][rng.next_below(2) as usize]),
        _ => {
            let lo = rng.next_range_inclusive(-40, 40);
            Some(Predicate::Between(lo, lo + rng.next_range_inclusive(0, 40)))
        }
    }
}

/// A job's row count: none, one partial burst, a whole number of
/// bitset bursts, or any count up to [`MAX_ROWS`].
fn rows(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(5) {
        0 => 0,
        1 => rng.next_range_inclusive(1, 7) as u64,
        2 => rng.next_range_inclusive(1, 8) as u64 * 512,
        _ => rng.next_range_inclusive(1, MAX_ROWS as i64) as u64,
    }
}

#[test]
fn kernels_match_their_burst_at_a_time_selves() {
    let one_alu = Resources {
        alus: 1,
        ..Resources::jafar_default()
    };
    // A full burst costs the datapath W = 8 words; the paper's DDR3
    // timing serves a run's bursts S = 4 ns apart. These configs
    // put W below, at and above S for the projection (the filter
    // rate) and for both folds.
    let configs = [
        DeviceConfig::default(),
        DeviceConfig {
            clock: ClockDomain::from_ghz(4),
            ..DeviceConfig::default()
        },
        DeviceConfig {
            clock: ClockDomain::from_ghz(1),
            ..DeviceConfig::default()
        },
        DeviceConfig {
            resources: one_alu,
            ..DeviceConfig::default()
        },
    ];
    // op-mix's DIMM, perfbench's gem5-like DIMM and the unit tests'.
    let geometries = [
        DramGeometry {
            ranks: 4,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        },
        DramGeometry {
            ranks: 4,
            banks_per_rank: 8,
            rows_per_bank: 1024,
            row_bytes: 8 * 1024,
        },
        DramGeometry::tiny(),
    ];
    let mappings = [
        AddressMapping::RankRowBankBlock,
        AddressMapping::RowBankRankBlock,
        AddressMapping::BankInterleavedBlock,
    ];
    let (mut aggregates, mut projections, mut lines, mut errors) = (0, 0, 0, 0);
    forall(
        "one-shot kernels against their burst-at-a-time selves",
        256,
        |rng| {
            let mut geometry = geometries[rng.next_below(3) as usize];
            let mapping = mappings[rng.next_below(3) as usize];
            if mapping != AddressMapping::RankRowBankBlock {
                // Only this mapping keeps a rank's bytes contiguous; under
                // the others a one-rank module keeps a job on one rank.
                // Interleaved blocks still scatter a row, so every run
                // is one burst there.
                geometry.ranks = 1;
            }
            let mut timing = DramTiming::ddr3_paper();
            match rng.next_below(3) {
                0 => timing = timing.without_refresh(),
                1 => {}
                _ => timing.t_refi = Tick::from_ns(1_000),
            }
            let config = configs[rng.next_below(configs.len() as u64) as usize];
            let rank = rng.next_below(u64::from(geometry.ranks)) as u32;
            let (mut kernel, t0) = Twin::new(geometry, timing, mapping, config, rank);
            let (mut oracle, _) = Twin::new(geometry, timing, mapping, config, rank);
            let rank_bytes = geometry.rank_bytes();
            let base = u64::from(rank) * rank_bytes;
            // The column starts mid-row and crosses 4 KiB pages; the
            // bitset and the packed output follow it on the same rank.
            let col = base + 64 * rng.next_below(200);
            let bits = col + (MAX_ROWS + 512) * 8 + 64 * rng.next_below(64);
            let out = bits + 4096 + 64 * rng.next_below(64);
            let probe = out + (MAX_ROWS + 64) * 8 + 64 * rng.next_below(256);
            let values: Vec<i64> = (0..MAX_ROWS + 512)
                .map(|_| match rng.next_below(5) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => rng.next_u64() as i64,
                    _ => rng.next_range_inclusive(-50, 50),
                })
                .collect();
            for twin in [&mut kernel, &mut oracle] {
                twin.module.data_mut().write_i64s(PhysAddr(col), &values);
            }
            let mut t = t0;
            for job in 0..rng.next_range_inclusive(4, 9) {
                // Faults and the tracer come and go between jobs.
                if rng.next_below(4) == 0 {
                    let plan = (rng.next_below(2) == 0).then(|| FaultPlan::light(rng.next_u64()));
                    for twin in [&mut kernel, &mut oracle] {
                        twin.module.set_fault_injector(plan.map(FaultInjector::new));
                    }
                }
                let traced = rng.next_below(4) == 0;
                kernel.trace(traced);
                oracle.trace(traced);
                t += Tick::from_ns(rng.next_below(4) * rng.next_below(8_000));
                let col_addr = PhysAddr(col + 64 * rng.next_below(64));
                let mut rows = rows(rng);
                if rng.next_below(16) == 0 {
                    // Past the rank's end: refused before any read.
                    rows = rank_bytes / 8;
                }
                let (results, ends): (Vec<String>, Vec<Tick>) = if rng.next_below(2) == 0 {
                    let job = AggregateJob {
                        col_addr,
                        rows,
                        op: [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg]
                            [rng.next_below(5) as usize],
                        filter: filter(rng),
                    };
                    let runs = [
                        kernel.device.run_aggregate(&mut kernel.module, job, t),
                        aggregate(&oracle.device, &mut oracle.module, job, t),
                    ];
                    aggregates += u32::from(runs[0].is_ok());
                    runs.iter()
                        .map(|r| (format!("{r:?}"), r.map_or(t, |r| r.end)))
                        .unzip()
                } else {
                    let bitset: Vec<u8> = (0..MAX_ROWS.div_ceil(512))
                        .flat_map(|_| bitset_burst(rng))
                        .collect();
                    for twin in [&mut kernel, &mut oracle] {
                        twin.module.data_mut().write(PhysAddr(bits), &bitset);
                    }
                    let job = ProjectJob {
                        col_addr,
                        rows,
                        bitset_addr: PhysAddr(bits),
                        out_addr: PhysAddr(out),
                    };
                    let runs = [
                        kernel.device.run_project(&mut kernel.module, job, t),
                        project(&oracle.device, &mut oracle.module, job, t),
                    ];
                    projections += u32::from(runs[0].is_ok());
                    lines += runs[0].map_or(0, |r| r.bursts_written);
                    runs.iter()
                        .map(|r| (format!("{r:?}"), r.map_or(t, |r| r.end)))
                        .unzip()
                };
                errors += u32::from(results[0].starts_with("Err"));
                let region = (out, (MAX_ROWS as usize + 8) * 8);
                let seen = [
                    kernel.observe(results[0].clone(), region, probe, ends[0]),
                    oracle.observe(results[1].clone(), region, probe, ends[1]),
                ];
                assert_eq!(
                    seen[0],
                    seen[1],
                    "job {job}: {geometry:?}, {mapping:?}, refresh {:?}, {config:?}",
                    timing.refresh_enabled.then_some(timing.t_refi)
                );
                t = ends[1];
            }
        },
    );
    // The stream reached every path it is meant to cover.
    assert!(
        aggregates > 100 && projections > 100,
        "{aggregates}, {projections}"
    );
    assert!(
        lines > 1000 && errors > 10,
        "{lines} lines, {errors} errors"
    );
}
