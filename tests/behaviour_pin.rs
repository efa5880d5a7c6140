//! Pins the simulated behaviour of the NDP datapaths and one serve across
//! commits. `trace_determinism` and `serving_determinism` compare two runs
//! of one build; this file compares every build against constants, so a
//! change that moves one simulated tick, byte or counter fails here.
//!
//! Each scenario folds everything it observes into a 64-bit FNV-1a digest:
//! per job the end tick, the matched count or folded value, the bursts,
//! the output bytes written back, and `Err` values alike; per scenario the
//! module's `DramStats` and fault counters. The digest is written out
//! here because std's `DefaultHasher` is not stable across releases.
//!
//! The constants were computed before the per-burst fast path landed, and
//! those of the group-by, interleaved-select, row-filter and sort
//! scenario before the driver's host-folding kernel entry points were
//! removed; none may be edited to make a change pass. CI runs this file
//! by name.

use jafar::common::rng::SplitMix64;
use jafar::common::time::Tick;
use jafar::core::aggregate::{AggOp, AggregateJob, GroupByJob};
use jafar::core::interleave::InterleavedSelectJob;
use jafar::core::project::ProjectJob;
use jafar::core::rowstore::{ColPredicate, RowFilterJob};
use jafar::core::sort::SortJob;
use jafar::core::{
    grant_ownership, DeviceConfig, DeviceError, FusedSelectJob, JafarDevice, Predicate, SelectJob,
};
use jafar::dram::{
    AddressMapping, DramGeometry, DramModule, DramTiming, FaultInjector, FaultPlan, PhysAddr,
};
use jafar::serve::engine::ServeConfig;
use jafar::serve::{AggFn, PredicateMix, QueryOp, SchedPolicy, Workload};
use jafar::sim::{System, SystemConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn tick(&mut self, t: Tick) {
        self.u64(t.as_ps());
    }

    fn opt(&mut self, v: Option<i64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.i64(v);
            }
            None => self.u64(0),
        }
    }

    fn err(&mut self, e: DeviceError) {
        self.u64(0xE0);
        self.bytes(format!("{e:?}").as_bytes());
    }
}

/// Output regions, all on rank 0 of the gem5-like module and far from
/// the columns.
const SELECT_OUT: u64 = 0x0100_0000;
const LANE_STRIDE: u64 = 0x0010_0000;
const PROJECT_OUT: u64 = 0x0200_0000;

/// Column placements: a whole number of bursts from address 0; a start
/// in the middle of a 128-burst row group with a row count that is not
/// a multiple of 8; a short run that crosses a row boundary; and less
/// than one burst.
const LAYOUTS: [(u64, u64); 4] = [(0, 4096), (64 * 37, 3001), (64 * 126, 77), (64 * 300, 5)];

fn predicates() -> [Predicate; 4] {
    [
        Predicate::Between(200_000, 599_999),
        // Empty: lo > hi.
        Predicate::Between(5, 4),
        // Full range.
        Predicate::Between(i64::MIN, i64::MAX),
        Predicate::Ge(900_000),
    ]
}

/// A column of uniform values in `0..1_000_000` with the integer extremes
/// mixed in, so sums wrap and min/max see both ends.
fn column(rows: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..rows)
        .map(|i| match i % 97 {
            13 => i64::MAX,
            41 => i64::MIN,
            _ => rng.next_range_inclusive(0, 999_999),
        })
        .collect()
}

fn read_bytes(module: &DramModule, addr: u64, len: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len as usize];
    module.data().read(PhysAddr(addr), &mut buf);
    buf
}

fn fold_dram(h: &mut Fnv, module: &DramModule) {
    let s = module.stats();
    for c in [
        s.row_hits,
        s.row_misses,
        s.row_conflicts,
        s.read_bursts,
        s.write_bursts,
        s.refreshes,
        s.mode_sets,
        s.ownership_rejections,
    ] {
        h.u64(c.get());
    }
    if let Some(f) = module.fault_stats() {
        h.bytes(format!("{f:?}").as_bytes());
    }
}

/// What one device scenario produced: its digest, and how many
/// refreshes and failed jobs it saw (so a test can show it covers them).
struct Scenario {
    digest: u64,
    refreshes: u64,
    errors: u64,
}

/// Runs every datapath over every layout and predicate on one
/// refresh-enabled gem5-like module, threading simulated time through
/// all of them. `faults` installs `FaultPlan::light` after the grant.
fn device_digest(out_buf_bits: usize, faults: Option<u64>) -> Scenario {
    let mut module = DramModule::new(
        DramGeometry::gem5_2gb(),
        DramTiming::ddr3_paper(),
        AddressMapping::RankRowBankBlock,
    );
    let values = column(4096 + 64 * 300 / 8, 7);
    for (i, &v) in values.iter().enumerate() {
        module.data_mut().write_i64(PhysAddr(i as u64 * 8), v);
    }
    let mut now = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    if let Some(seed) = faults {
        module.set_fault_injector(Some(FaultInjector::new(FaultPlan::light(seed))));
    }
    let mut device = JafarDevice::new(DeviceConfig {
        out_buf_bits,
        ..DeviceConfig::default()
    });
    let mut h = Fnv::new();
    let mut errors = 0;
    let mut advance = |h: &mut Fnv, now: &mut Tick, end: Result<Tick, DeviceError>| match end {
        Ok(end) => {
            h.tick(end);
            *now = end;
        }
        Err(e) => {
            h.err(e);
            errors += 1;
            *now += Tick::from_us(10);
        }
    };
    let preds = predicates();
    for &(col, rows) in &LAYOUTS {
        for &p in &preds {
            let select = device.run_select(
                &mut module,
                SelectJob {
                    col_addr: PhysAddr(col),
                    rows,
                    predicate: p,
                    out_addr: PhysAddr(SELECT_OUT),
                },
                now,
            );
            if let Ok(r) = &select {
                h.u64(r.matched);
                h.u64(r.bursts_read);
                h.u64(r.bursts_written);
                h.tick(r.dram_wait);
            }
            advance(&mut h, &mut now, select.map(|r| r.end));
            h.bytes(&read_bytes(&module, SELECT_OUT, rows.div_ceil(8)));

            let project = device.run_project(
                &mut module,
                ProjectJob {
                    col_addr: PhysAddr(col),
                    rows,
                    bitset_addr: PhysAddr(SELECT_OUT),
                    out_addr: PhysAddr(PROJECT_OUT),
                },
                now,
            );
            if let Ok(r) = &project {
                h.u64(r.emitted);
                h.u64(r.bursts_read);
                h.u64(r.bursts_written);
                h.bytes(&read_bytes(&module, PROJECT_OUT, r.emitted * 8));
            }
            advance(&mut h, &mut now, project.map(|r| r.end));

            for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg] {
                for filter in [None, Some(p)] {
                    let agg = device.run_aggregate(
                        &mut module,
                        AggregateJob {
                            col_addr: PhysAddr(col),
                            rows,
                            op,
                            filter,
                        },
                        now,
                    );
                    if let Ok(r) = &agg {
                        h.opt(r.value);
                        h.u64(r.count);
                        h.u64(r.bursts_read);
                    }
                    advance(&mut h, &mut now, agg.map(|r| r.end));
                }
            }
        }
        // Three lanes: the first predicate, its complement's upper half,
        // and the empty range.
        let lanes = vec![preds[0], preds[3], preds[1]];
        let fused = device.run_select_fused(
            &mut module,
            &FusedSelectJob {
                col_addr: PhysAddr(col),
                rows,
                predicates: lanes,
                out_addrs: (0..3)
                    .map(|l| PhysAddr(SELECT_OUT + (l + 1) * LANE_STRIDE))
                    .collect(),
            },
            now,
        );
        if let Ok(r) = &fused {
            for &m in &r.matched {
                h.u64(m);
            }
            h.u64(r.bursts_read);
            h.u64(r.bursts_written);
            h.tick(r.dram_wait);
        }
        advance(&mut h, &mut now, fused.map(|r| r.end));
        for l in 0..3 {
            h.bytes(&read_bytes(
                &module,
                SELECT_OUT + (l + 1) * LANE_STRIDE,
                rows.div_ceil(8),
            ));
        }
    }
    let d = device.stats();
    for c in [d.jobs, d.words, d.bursts_read, d.bursts_written] {
        h.u64(c.get());
    }
    fold_dram(&mut h, &module);
    Scenario {
        digest: h.0,
        refreshes: module.stats().refreshes.get(),
        errors,
    }
}

/// Regions of the group-by, interleave, row-filter and sort scenario, all
/// on rank 0 of both machines (the tiny module's rank 0 is its first
/// 256 KiB): a 2,048-row value column at 0, its keys, a row-major table,
/// the output bitsets, the sort's two regions and the group-by spill area.
const KEYS: u64 = 0x0_4000;
const TABLE: u64 = 0x0_8000;
const BITS: u64 = 0x1_0000;
const SORT_IN: u64 = 0x1_1000;
const SORT_OUT: u64 = 0x1_3000;
const SPILL: u64 = 0x2_0000;

/// Column slices of that scenario: whole bursts from 0, a mid-row start
/// with a row count that is not a multiple of 8, a short run across a
/// row boundary, and less than one burst.
const SLICES: [(u64, u64); 4] = [(0, 2048), (64 * 37, 1001), (64 * 14, 77), (64 * 200, 5)];

/// Runs the datapaths `device_digest` leaves out on a module of
/// `geometry`, threading simulated time through all of them: per column
/// slice two group-bys with 4 and 16 buckets (13 distinct keys, so rows
/// spill) and two interleaved selects; then row filters of one to three
/// predicates over four row strides, and sorts of four lengths. `refresh`
/// turns the DDR3 refresh on; `faults` installs `FaultPlan::light` after
/// the grant. Returns the scenario and the rows its group-bys spilled.
fn remaining_datapaths_digest(
    geometry: DramGeometry,
    refresh: bool,
    faults: Option<u64>,
) -> (Scenario, u64) {
    let timing = if refresh {
        DramTiming::ddr3_paper()
    } else {
        DramTiming::ddr3_paper().without_refresh()
    };
    let mut module = DramModule::new(geometry, timing, AddressMapping::RankRowBankBlock);
    let values = column(2048, 13);
    let keys: Vec<i64> = (0..2048).map(|i| (i * 7) % 13).collect();
    module.data_mut().write_i64s(PhysAddr(0), &values);
    module.data_mut().write_i64s(PhysAddr(KEYS), &keys);
    module
        .data_mut()
        .write_i64s(PhysAddr(TABLE), &column(4096, 17));
    module
        .data_mut()
        .write_i64s(PhysAddr(SORT_IN), &values[..1024]);
    let mut now = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    if let Some(seed) = faults {
        module.set_fault_injector(Some(FaultInjector::new(FaultPlan::light(seed))));
    }
    let mut device = JafarDevice::new(DeviceConfig::default());
    let mut h = Fnv::new();
    let (mut errors, mut spilled) = (0, 0);
    let mut advance = |h: &mut Fnv, now: &mut Tick, end: Result<Tick, DeviceError>| match end {
        Ok(end) => {
            h.tick(end);
            *now = end;
        }
        Err(e) => {
            h.err(e);
            errors += 1;
            *now += Tick::from_us(10);
        }
    };
    for &(col, rows) in &SLICES {
        for (buckets, op) in [(4, AggOp::Sum), (16, AggOp::Count)] {
            let group_by = device.run_group_by(
                &mut module,
                GroupByJob {
                    key_addr: PhysAddr(KEYS + col),
                    val_addr: PhysAddr(col),
                    rows,
                    op,
                    buckets,
                    spill_addr: PhysAddr(SPILL),
                },
                now,
            );
            if let Ok(r) = &group_by {
                for &(key, acc, n) in &r.groups {
                    h.i64(key);
                    h.i64(acc);
                    h.u64(n);
                }
                h.u64(r.spilled_rows);
                h.u64(r.bursts_read);
                h.bytes(&read_bytes(&module, SPILL, r.spilled_rows * 64));
                spilled += r.spilled_rows;
            }
            advance(&mut h, &mut now, group_by.map(|r| r.end));
        }
        for (ways, phase, predicate) in [
            (2, 1, Predicate::Between(200_000, 599_999)),
            (3, 0, Predicate::Ge(900_000)),
        ] {
            let interleaved = device.run_select_interleaved(
                &mut module,
                InterleavedSelectJob {
                    local_col_addr: PhysAddr(col),
                    local_rows: rows,
                    predicate,
                    out_addr: PhysAddr(BITS),
                    ways,
                    phase,
                },
                now,
            );
            if let Ok(r) = &interleaved {
                h.u64(r.matched);
                h.u64(r.bursts_read);
                h.u64(r.rmw_reads);
                h.u64(r.bursts_written);
            }
            advance(&mut h, &mut now, interleaved.map(|r| r.end));
            let global_rows = rows * u64::from(ways);
            h.bytes(&read_bytes(&module, BITS, global_rows.div_ceil(8)));
        }
    }
    for (row_bytes, rows, offsets) in [
        (8, 1001, [0, 0, 0]),
        (16, 700, [0, 8, 8]),
        (64, 300, [0, 24, 56]),
        (128, 200, [8, 64, 120]),
    ] {
        let all = [
            Predicate::Between(200_000, 799_999),
            Predicate::Ge(100_000),
            Predicate::Between(i64::MIN, i64::MAX),
        ];
        for n in 1..=3 {
            let predicates = offsets
                .iter()
                .zip(all)
                .take(n)
                .map(|(&offset, predicate)| ColPredicate { offset, predicate })
                .collect();
            let filter = device.run_row_filter(
                &mut module,
                &RowFilterJob {
                    base: PhysAddr(TABLE),
                    row_bytes,
                    rows,
                    predicates,
                    out_addr: PhysAddr(BITS),
                },
                now,
            );
            if let Ok(r) = &filter {
                h.u64(r.matched);
                h.u64(r.bursts_read);
                h.u64(r.bursts_written);
            }
            advance(&mut h, &mut now, filter.map(|r| r.end));
            h.bytes(&read_bytes(&module, BITS, rows.div_ceil(8)));
        }
    }
    for rows in [5, 77, 300, 1000] {
        let sort = device.run_sort(
            &mut module,
            SortJob {
                col_addr: PhysAddr(SORT_IN),
                rows,
                out_addr: PhysAddr(SORT_OUT),
            },
            now,
        );
        if let Ok(r) = &sort {
            h.u64(r.result_addr.0);
            h.u64(u64::from(r.passes));
            h.u64(r.bursts_moved);
            h.bytes(&read_bytes(&module, r.result_addr.0, rows * 8));
        }
        advance(&mut h, &mut now, sort.map(|r| r.end));
    }
    let d = device.stats();
    for c in [d.jobs, d.words, d.bursts_read, d.bursts_written] {
        h.u64(c.get());
    }
    fold_dram(&mut h, &module);
    let run = Scenario {
        digest: h.0,
        refreshes: module.stats().refreshes.get(),
        errors,
    };
    (run, spilled)
}

/// One `System::serve_with_keys` of an op-mix-style stream (every §4
/// operator plus a keyed group-by) on the op-mix machine.
fn serve_digest() -> u64 {
    let mut cfg = SystemConfig::test_small();
    cfg.dram_geometry = DramGeometry {
        ranks: 4,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    let mut sys = System::new(cfg);
    let values = column(4093, 11);
    let keys: Vec<i64> = (0..values.len() as i64).map(|i| (i * 7) % 5).collect();
    let ops = [
        QueryOp::Select,
        QueryOp::SelectCount,
        QueryOp::SelectAgg(AggFn::Sum),
        QueryOp::SelectAgg(AggFn::Min),
        QueryOp::SelectAgg(AggFn::Max),
        QueryOp::Project { k: 2 },
        QueryOp::GroupBy { agg: AggFn::Sum },
    ];
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999_999,
        width: 300_000,
    };
    let workload = Workload::poisson(mix, 84, Tick::from_us(40), 5).with_op_mix(&ops);
    let run = sys.serve_with_keys(
        &values,
        &keys,
        &workload,
        SchedPolicy::Fifo,
        &ServeConfig::default(),
    );
    let mut h = Fnv::new();
    for r in &run.report.records {
        h.u64(u64::from(r.id));
        h.tick(r.submitted);
        h.tick(r.started.unwrap_or(Tick::MAX));
        h.tick(r.done.unwrap_or(Tick::MAX));
        h.bytes(format!("{:?}", r.mode).as_bytes());
        h.u64(r.matched);
        h.bytes(&r.bitset);
        h.opt(r.agg);
        for &v in &r.projected {
            h.i64(v);
        }
        for &(k, n, v) in &r.groups {
            h.i64(k);
            h.u64(n);
            h.opt(v);
        }
    }
    h.tick(run.report.makespan);
    h.u64(run.report.events);
    for (name, _) in sys.metrics().iter() {
        h.bytes(name.as_bytes());
        h.u64(sys.metrics().get_counter(name).unwrap_or(u64::MAX));
    }
    h.0
}

#[test]
fn device_datapaths_are_pinned_on_a_clean_module() {
    let run = device_digest(512, None);
    assert!(run.refreshes > 0, "the jobs span refresh deadlines");
    assert_eq!(run.errors, 0);
    assert_eq!(run.digest, 8_798_840_047_575_603_992);
}

#[test]
fn device_datapaths_are_pinned_under_light_faults() {
    let run = device_digest(512, Some(3));
    assert!(
        run.errors > 0,
        "some jobs fail, and their errors are pinned"
    );
    assert_eq!(run.digest, 16_809_964_412_575_796_881);
}

#[test]
fn narrow_output_buffers_are_pinned() {
    // 24 bits: the buffer fills every third burst, so write-backs
    // interleave with reads much more often than at 512.
    assert_eq!(device_digest(24, None).digest, 3_875_080_677_368_631_350);
}

#[test]
fn an_op_mix_serve_is_pinned() {
    assert_eq!(serve_digest(), 18_324_185_177_949_057_775);
}

#[test]
fn group_by_interleave_row_filter_and_sort_are_pinned() {
    let cases = [
        ("tiny", DramGeometry::tiny(), false, None),
        ("tiny", DramGeometry::tiny(), true, Some(3)),
        ("gem5-like", DramGeometry::gem5_2gb(), true, None),
        ("gem5-like", DramGeometry::gem5_2gb(), false, Some(5)),
    ];
    let runs = cases.map(|(name, geometry, refresh, faults)| {
        let (run, spilled) = remaining_datapaths_digest(geometry, refresh, faults);
        let case = format!("{name}, refresh {refresh}, faults {faults:?}");
        println!("{case}: {} ({} errors)", run.digest, run.errors);
        assert!(spilled > 0, "{case}: group-by rows spill");
        if refresh {
            assert!(run.refreshes > 0, "{case}: the jobs span refresh deadlines");
        }
        if faults.is_none() {
            // Without refresh only an injected storm refreshes.
            assert_eq!(run.refreshes > 0, refresh, "{case}: refreshes");
            assert_eq!(run.errors, 0, "{case}: a clean module fails no job");
        }
        run
    });
    assert!(
        runs.iter().any(|r| r.errors > 0),
        "some faulted jobs fail, and their errors are pinned"
    );
    assert_eq!(
        runs.map(|r| r.digest),
        [
            13_843_440_321_428_171_597,
            6_818_214_854_786_484_450,
            6_809_358_412_495_323_748,
            12_402_110_981_583_608_442,
        ]
    );
}
