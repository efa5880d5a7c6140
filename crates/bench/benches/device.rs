//! Micro-benchmarks of the JAFAR device simulation and the Aladdin-like
//! scheduler it derives its throughput from.

use jafar_accel::ir::jafar_filter_kernel;
use jafar_accel::{Dddg, Resources, Schedule};
use jafar_bench::micro;
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_core::aggregate::{AggOp, AggregateJob};
use jafar_core::project::ProjectJob;
use jafar_core::{
    grant_ownership, FusedSelectJob, JafarDevice, Predicate, ResilienceConfig, ResilientDriver,
    SelectJob, SelectRequest,
};
use jafar_dram::{AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr};

/// perfbench's gem5-like DIMM (4 ranks × 8 banks × 1024 rows × 8 KiB,
/// refresh on) holding `rows` seeded uniform values over perfbench's
/// value domain `0..1_000_000` at address 0, with rank 0 granted to the
/// device. Returns the module and the tick the grant took effect.
fn gem5_like_shard(rows: u64) -> (DramModule, Tick) {
    let mut module = DramModule::new(
        DramGeometry {
            ranks: 4,
            banks_per_rank: 8,
            rows_per_bank: 1024,
            row_bytes: 8 * 1024,
        },
        DramTiming::ddr3_paper(),
        AddressMapping::RankRowBankBlock,
    );
    let mut rng = SplitMix64::new(42);
    let values: Vec<i64> = (0..rows)
        .map(|_| rng.next_range_inclusive(0, 999_999))
        .collect();
    module.data_mut().write_i64s(PhysAddr(0), &values);
    let now = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    (module, now)
}

/// A module of `geometry` and `timing` holding `rows` seeded uniform
/// values over `0..1000` at address 0.
fn seeded_module(geometry: DramGeometry, timing: DramTiming, rows: u64) -> DramModule {
    let mut module = DramModule::new(geometry, timing, AddressMapping::RankRowBankBlock);
    let mut rng = SplitMix64::new(42);
    for i in 0..rows {
        module
            .data_mut()
            .write_i64(PhysAddr(i * 8), rng.next_range_inclusive(0, 999));
    }
    module
}

/// op-mix's DIMM: 4 ranks × 4 banks × 64 rows × 1 KiB.
const MIX_DIMM: DramGeometry = DramGeometry {
    ranks: 4,
    banks_per_rank: 4,
    rows_per_bank: 64,
    row_bytes: 1024,
};

/// Times back-to-back one-lane selects of `rows` seeded uniform values
/// through `ResilientDriver::run_select` on one module: every page's
/// lease upkeep, device pass, completion discovery and release.
fn driver_select(
    name: &str,
    geometry: DramGeometry,
    timing: DramTiming,
    rows: u64,
    page_bytes: u64,
) {
    let mut module = seeded_module(geometry, timing, rows);
    let req = SelectRequest {
        col_addr: PhysAddr(0),
        rows,
        lo: 100,
        hi: 499,
        out_addr: PhysAddr((rows * 8).next_multiple_of(4096)),
    };
    let mut device = JafarDevice::paper_default();
    let mut driver = ResilientDriver::new(ResilienceConfig {
        page_bytes,
        ..ResilienceConfig::default()
    });
    let mut t = Tick::ZERO;
    micro::run(name, || {
        let run = driver.run_select(&mut device, &mut module, req, t);
        t = run.end;
        run.matched
    });
}

fn main() {
    micro::run_batched(
        "device/select_64k_rows",
        || {
            // Seeded uniform values: the predicate's outcome is as
            // unpredictable word to word as on the served workloads.
            let mut module = seeded_module(
                DramGeometry::gem5_2gb(),
                DramTiming::ddr3_paper().without_refresh(),
                65_536,
            );
            let lease = grant_ownership(&mut module, 0, Tick::ZERO).expect("fresh");
            let t0 = lease.acquired_at;

            (module, JafarDevice::paper_default(), t0)
        },
        |(mut module, mut device, t0)| {
            device
                .run_select(
                    &mut module,
                    SelectJob {
                        col_addr: PhysAddr(0),
                        rows: 65_536,
                        predicate: Predicate::Between(100, 499),
                        out_addr: PhysAddr(1 << 20),
                    },
                    t0,
                )
                .expect("owned")
        },
    );

    // The serving benchmark's two select shapes, one lane each: a
    // select-scan shard (87,552 rows in one 2 MiB page on perfbench's
    // gem5-like DIMM, refresh on) and an op-mix shard (1,536 rows in
    // three 4 KiB pages on the op-mix DIMM, refresh off).
    driver_select(
        "driver/select_one_lane_scan_shape",
        DramGeometry {
            ranks: 4,
            banks_per_rank: 8,
            rows_per_bank: 1024,
            row_bytes: 8 * 1024,
        },
        DramTiming::ddr3_paper(),
        87_552,
        2 << 20,
    );
    driver_select(
        "driver/select_one_lane_mix_shape",
        MIX_DIMM,
        DramTiming::ddr3_paper().without_refresh(),
        1_536,
        4096,
    );

    // grid-mixed's projection pass: one 11,264-row shard (32,768 rows
    // over a node's three units, in 512-row chunks) under a seeded
    // bitset with about a quarter of its bits set.
    let rows = 11_264u64;
    let (mut module, mut t) = gem5_like_shard(rows);
    let bitset_addr = (rows * 8).next_multiple_of(4096);
    let mut rng = SplitMix64::new(7);
    let bits: Vec<u8> = (0..rows.div_ceil(8))
        .map(|_| (0..8).fold(0u8, |b, i| b | u8::from(rng.next_bool(0.25)) << i))
        .collect();
    module.data_mut().write(PhysAddr(bitset_addr), &bits);
    let mut device = JafarDevice::paper_default();
    let job = ProjectJob {
        col_addr: PhysAddr(0),
        rows,
        bitset_addr: PhysAddr(bitset_addr),
        out_addr: PhysAddr((bitset_addr + rows / 8).next_multiple_of(4096)),
    };
    micro::run("device/project_shard", || {
        let run = device.run_project(&mut module, job, t).expect("owned");
        t = run.end;
        run.emitted
    });

    // join-groupby's semi-join: four key ranges fused into one pass over
    // an 8,192-row shard (32,768 rows over a fan-out of four), each lane
    // draining to its own 64-byte-rounded bitset slot.
    let rows = 8_192u64;
    let (mut module, mut t) = gem5_like_shard(rows);
    let out = (rows * 8).next_multiple_of(4096);
    let stride = rows.div_ceil(8).next_multiple_of(64);
    let job = FusedSelectJob {
        col_addr: PhysAddr(0),
        rows,
        predicates: [
            (40_000, 40_799),
            (212_000, 212_411),
            (503_000, 503_999),
            (870_000, 870_120),
        ]
        .map(|(lo, hi)| Predicate::Between(lo, hi))
        .to_vec(),
        out_addrs: (0..4).map(|l| PhysAddr(out + l * stride)).collect(),
    };
    let mut device = JafarDevice::paper_default();
    micro::run("device/fused_select_4_lanes", || {
        let run = device
            .run_select_fused(&mut module, &job, t)
            .expect("owned");
        t = run.end;
        run.matched
    });

    let kernel = jafar_filter_kernel();
    micro::run("accel/schedule_1k_iterations", || {
        let graph = Dddg::expand(&kernel, 1024, 8);
        Schedule::compute(&graph, &Resources::jafar_default())
    });
    micro::run("accel/steady_state_ii", || {
        Schedule::steady_state_ii(&kernel, &Resources::jafar_default(), 8)
    });

    // One warm filtered aggregate job: the datapath rate was derived by
    // the warm-up calls, so this times the streaming fold alone.
    let mut module = DramModule::new(
        DramGeometry::tiny(),
        DramTiming::ddr3_paper().without_refresh(),
        AddressMapping::RankRowBankBlock,
    );
    for i in 0..512u64 {
        module
            .data_mut()
            .write_i64(PhysAddr(i * 8), (i % 1000) as i64);
    }
    let mut t = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh")
        .acquired_at;
    let mut device = JafarDevice::paper_default();
    micro::run("device/run_aggregate", || {
        let job = AggregateJob {
            col_addr: PhysAddr(0),
            rows: 512,
            op: AggOp::Sum,
            filter: Some(Predicate::Between(100, 499)),
        };
        let run = device.run_aggregate(&mut module, job, t).expect("owned");
        t = run.end;
        run.value
    });

    // op-mix's filtered sum over one 1,536-row shard (4,096 rows over
    // three units, in 512-row chunks) on its DIMM, refresh off.
    let rows = 1_536;
    let mut module = seeded_module(MIX_DIMM, DramTiming::ddr3_paper().without_refresh(), rows);
    let mut t = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh")
        .acquired_at;
    let mut device = JafarDevice::paper_default();
    micro::run("device/run_aggregate_mix_shape", || {
        let job = AggregateJob {
            col_addr: PhysAddr(0),
            rows,
            op: AggOp::Sum,
            filter: Some(Predicate::Between(100, 499)),
        };
        let run = device.run_aggregate(&mut module, job, t).expect("owned");
        t = run.end;
        run.value
    });
}
