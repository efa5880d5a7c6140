//! Pins the resilient driver's recovery ladder under faults across
//! commits: what every rung costs, counts and traces when a page or a
//! one-shot kernel meets ECC failures, stalls, refresh storms, glitched
//! mode-register commands and short leases.
//!
//! `trace_pin` serves only under a rank outage (MRS rejections) and runs
//! its resilient selects with non-expiring leases, and the determinism
//! suites compare two runs of one build. This file folds three scenarios
//! into 64-bit FNV-1a digests, one per seed:
//!
//! - **A: faulted serves.** A traced `System::serve_with_keys` of every
//!   operator (selects, aggregates, a projection, a four-range semi-join
//!   and keyed group-bys) under `FaultPlan::light` and `FaultPlan::chaos`.
//! - **B: short leases.** A traced resilient select on the gem5-like
//!   machine in 4 KiB pages with a 40 µs lease window, so the ladder
//!   renews between pages and its watchdog fires.
//! - **C: direct kernel loops.** A `ResilientDriver` with a ring tracer
//!   runs aggregates, projections and fallible aggregates back to back,
//!   under chaos, under refresh storms, and under ECC failures with a
//!   breaker threshold of 2, so exhausted and successful kernels
//!   interleave before the breaker trips.
//!
//! The constants were computed before the page ladder and the kernel
//! ladder were merged and must not be edited to make a change pass. CI
//! runs this file by name.

use jafar::common::obs::{Event, EventKind, SharedTracer};
use jafar::common::time::Tick;
use jafar::core::aggregate::{AggOp, AggregateJob};
use jafar::core::api::errno;
use jafar::core::project::ProjectJob;
use jafar::core::{JafarDevice, Predicate, ResilienceConfig, ResilientDriver};
use jafar::dram::{DramGeometry, DramModule, FaultInjector, FaultPlan, PhysAddr};
use jafar::serve::engine::ServeConfig;
use jafar::serve::{AggFn, KeyRanges, PredicateMix, QueryOp, SchedPolicy, Workload};
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

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
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
}

/// The seeds every scenario runs.
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// Ring capacity: far above what any scenario here emits.
const TRACE_CAPACITY: usize = 1 << 19;

/// Compares one digest per seed against the pinned constants.
fn check(name: &str, got: [u64; 6], want: [u64; 6]) {
    println!("{name}: {got:?}");
    for (i, seed) in SEEDS.iter().enumerate() {
        assert_eq!(got[i], want[i], "{name}: seed {seed} moved");
    }
}

/// `trace_pin`'s serving machine: `test_small` widened to 4 ranks of 4
/// banks × 64 rows × 1 KiB.
fn serving_system() -> System {
    let mut cfg = SystemConfig::test_small();
    cfg.dram_geometry = DramGeometry {
        ranks: 4,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    System::new(cfg)
}

/// Every operator the engine serves: the select clients, a sum, a
/// projection, a four-range semi-join, two keyed group-bys and a max.
fn op_cycle() -> [QueryOp; 8] {
    let four = KeyRanges::from_keys(
        &(100..=149)
            .chain(300..=319)
            .chain(500..=599)
            .chain(800..=809)
            .collect::<Vec<i64>>(),
    )
    .expect("four ranges fit the lane budget");
    assert_eq!(four.len(), 4);
    [
        QueryOp::Select,
        QueryOp::SelectCount,
        QueryOp::SelectAgg(AggFn::Sum),
        QueryOp::Project { k: 2 },
        QueryOp::SemiJoin { ranges: four },
        QueryOp::GroupBy { agg: AggFn::Sum },
        QueryOp::SelectAgg(AggFn::Max),
        QueryOp::GroupBy { agg: AggFn::Min },
    ]
}

/// Scenario A: one traced `serve_with_keys` of 64 Poisson queries (2 µs
/// mean gap, EDF, SLO classes 1 ms and 400 µs, fuse window 4) under
/// `plan`, folded into one digest of the report, every record, every
/// unit's scoreboard, the fault counts, the Chrome trace, the timeline
/// and the metrics.
fn serve_digest(plan: FaultPlan) -> u64 {
    let mut sys = serving_system();
    sys.enable_tracing(TRACE_CAPACITY);
    let values: Vec<i64> = (0..4096).map(|i| (i * 37 + 11) % 1000).collect();
    let keys: Vec<i64> = (0..4096).map(|i| (i * 13 + 5) % 17).collect();
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 200,
    };
    let mut workload = Workload::poisson(mix, 64, Tick::from_us(2), plan.seed)
        .with_slo_classes(&[Tick::from_ms(1), Tick::from_us(400)])
        .with_op_mix(&op_cycle());
    // A semi-join's `[lo, hi]` is its ranges' envelope.
    for spec in &mut workload.specs {
        if let QueryOp::SemiJoin { ranges } = spec.op {
            (spec.lo, spec.hi) = ranges.envelope();
        }
    }
    sys.inject_faults(plan);
    let cfg = ServeConfig {
        fuse_window: 4,
        ..ServeConfig::default()
    };
    let run = sys.serve_with_keys(&values, &keys, &workload, SchedPolicy::Edf, &cfg);
    let mut h = Fnv::new();
    h.str(&run.report.to_string());
    for r in &run.report.records {
        h.u64(u64::from(r.id));
        h.tick(r.submitted);
        h.tick(r.started.unwrap_or(Tick::MAX));
        h.tick(r.done.unwrap_or(Tick::MAX));
        h.str(&format!("{:?}", r.mode));
        h.u64(r.matched);
        h.bytes(&r.bitset);
        h.opt(r.agg);
        for &v in &r.projected {
            h.i64(v);
        }
        for &(key, count, value) in &r.groups {
            h.i64(key);
            h.u64(count);
            h.opt(value);
        }
    }
    for stats in &run.recovery {
        h.str(&stats.scoreboard().to_string());
    }
    h.str(&format!("{:?}", run.faults));
    let metrics = sys.metrics();
    assert_eq!(
        metrics.get_counter("trace.dropped"),
        Some(0),
        "the ring must hold every event"
    );
    h.str(&sys.chrome_trace().expect("tracing enabled"));
    h.str(&sys.trace_timeline().expect("tracing enabled"));
    h.str(&metrics.to_string());
    h.0
}

/// Scenario B: a traced resilient select of 32,768 rows on the gem5-like
/// machine in 4 KiB pages, with a 40 µs lease window renewed inside a
/// 10 µs margin, under `FaultPlan::light(seed)`. Returns the digest of
/// the report, the time ledger, the output bitset and the Chrome trace,
/// plus the renewals and watchdog fires it took.
fn short_lease_digest(seed: u64) -> (u64, u64, u64) {
    let rows = 32_768u64;
    let mut cfg = SystemConfig::gem5_like();
    cfg.page_bytes = 4096;
    let mut sys = System::new(cfg);
    sys.enable_tracing(TRACE_CAPACITY);
    let values: Vec<i64> = (0..rows as i64).map(|i| (i * 37 + 11) % 1000).collect();
    let col = sys.write_column(&values);
    sys.inject_faults(FaultPlan::light(seed));
    let resilience = ResilienceConfig {
        lease_window: Tick::from_us(40),
        renew_margin: Tick::from_us(10),
        ..ResilienceConfig::default()
    };
    let run = sys.run_select_jafar_resilient(col, rows, 0, 499, Tick::ZERO, resilience);
    let mut out = vec![0u8; (rows / 8) as usize];
    sys.mc().module().data().read(run.out_addr, &mut out);
    let expect = values.iter().filter(|&&v| v <= 499).count() as u64;
    assert_eq!(run.matched, expect, "seed {seed}: matches");
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(
            out[i / 8] >> (i % 8) & 1 == 1,
            v <= 499,
            "seed {seed}: row {i}"
        );
    }
    let mut h = Fnv::new();
    h.str(&run.report());
    h.tick(run.device);
    h.tick(run.driver);
    h.tick(run.cpu_wait);
    h.bytes(&out);
    let metrics = sys.metrics();
    assert_eq!(metrics.get_counter("trace.dropped"), Some(0));
    h.str(&sys.chrome_trace().expect("tracing enabled"));
    (
        h.0,
        run.recovery.lease_renewals.get(),
        run.recovery.watchdog_fires.get(),
    )
}

/// Rows of scenario C's column.
const KERNEL_ROWS: u64 = 4096;
/// Where scenario C's selection bitset lives (rank 0 on both machines).
const BITSET: PhysAddr = PhysAddr(64 * 1024);
/// Where scenario C's projections pack their output (rank 0).
const PACKED: PhysAddr = PhysAddr(96 * 1024);

/// What one scenario-C loop did, beyond its digest.
#[derive(Default)]
struct LoopTally {
    watchdog_fires: u64,
    uncorrectable: u64,
    kernel_fallbacks: u64,
    breaker_trips: u64,
    interrupted_retries: u64,
    handed_back: u64,
    on_device_after_hand_back: u64,
}

/// Scenario C: a `ResilientDriver` with a ring tracer on a module built
/// from `machine`, under `plan`, runs 40 rounds of `run_aggregate`
/// (cycling sum, min, max and count, every other round filtered),
/// `run_project` and `try_run_aggregate`, each starting where the last
/// ended. The digest folds every outcome, the packed output of every
/// projection, the scoreboard and every event.
fn kernel_loop_digest(machine: SystemConfig, plan: FaultPlan, threshold: u32) -> (u64, LoopTally) {
    let mut module = DramModule::new(machine.dram_geometry, machine.dram_timing, machine.mapping);
    let values: Vec<i64> = (0..KERNEL_ROWS as i64)
        .map(|i| (i * 37 + 11) % 1000)
        .collect();
    let mut bits = vec![0u8; (KERNEL_ROWS / 8) as usize];
    for (i, &v) in values.iter().enumerate() {
        module.data_mut().write_i64(PhysAddr(i as u64 * 8), v);
        if (100..=399).contains(&v) {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    module.data_mut().write(BITSET, &bits);
    module.set_fault_injector(Some(FaultInjector::new(plan)));
    let mut device = JafarDevice::new(machine.device.expect("the machine has a device"));
    let mut driver = ResilientDriver::new(ResilienceConfig {
        breaker_threshold: threshold,
        ..ResilienceConfig::default()
    });
    let (tracer, ring) = SharedTracer::ring(TRACE_CAPACITY);
    driver.set_tracer(tracer);

    let mut h = Fnv::new();
    let mut tally = LoopTally::default();
    let mut t = Tick::ZERO;
    for round in 0..40u64 {
        let op = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count][(round % 4) as usize];
        let job = AggregateJob {
            col_addr: PhysAddr(0),
            rows: KERNEL_ROWS,
            op,
            filter: (round % 2 == 1).then_some(Predicate::Between(250, 749)),
        };
        let agg = driver.run_aggregate(&mut device, &mut module, job, t);
        h.tick(agg.end);
        h.opt(agg.value);
        h.u64(agg.count);
        h.u64(u64::from(agg.on_device));
        t = agg.end;

        let project = ProjectJob {
            col_addr: PhysAddr(0),
            rows: KERNEL_ROWS,
            bitset_addr: BITSET,
            out_addr: PACKED,
        };
        let proj = driver.run_project(&mut device, &mut module, project, t);
        h.tick(proj.end);
        h.u64(proj.emitted);
        h.u64(u64::from(proj.on_device));
        let mut packed = vec![0u8; (proj.emitted * 8) as usize];
        module.data().read(PACKED, &mut packed);
        h.bytes(&packed);
        t = proj.end;

        match driver.try_run_aggregate(&mut device, &mut module, job, t) {
            Ok(out) => {
                h.u64(1);
                h.tick(out.end);
                h.opt(out.value);
                h.u64(out.count);
                tally.on_device_after_hand_back += u64::from(tally.handed_back > 0);
                t = out.end;
            }
            Err(at) => {
                h.u64(0);
                h.tick(at);
                tally.handed_back += 1;
                t = at;
            }
        }
    }
    let s = driver.stats();
    h.str(&s.scoreboard().to_string());
    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "the ring must hold every event");
    for e in ring.events() {
        h.str(&format!("{e:?}"));
    }
    tally.interrupted_retries = ring
        .events()
        .filter(|e: &&Event| {
            matches!(
                e.kind,
                EventKind::DriverRetry {
                    errno: errno::ERESTART,
                    ..
                }
            )
        })
        .count() as u64;
    tally.watchdog_fires = s.watchdog_fires.get();
    tally.uncorrectable = s.uncorrectable.get();
    tally.kernel_fallbacks = s.kernel_fallbacks.get();
    tally.breaker_trips = s.breaker_trips.get();
    (h.0, tally)
}

/// Runs scenario C over every seed: the digests and the summed tallies.
fn kernel_loops(
    machine: fn() -> SystemConfig,
    plan: impl Fn(u64) -> FaultPlan,
    threshold: u32,
) -> ([u64; 6], LoopTally) {
    let mut total = LoopTally::default();
    let digests = SEEDS.map(|seed| {
        let (digest, t) = kernel_loop_digest(machine(), plan(seed), threshold);
        total.watchdog_fires += t.watchdog_fires;
        total.uncorrectable += t.uncorrectable;
        total.kernel_fallbacks += t.kernel_fallbacks;
        total.breaker_trips += t.breaker_trips;
        total.interrupted_retries += t.interrupted_retries;
        total.handed_back += t.handed_back;
        total.on_device_after_hand_back += t.on_device_after_hand_back;
        digest
    });
    (digests, total)
}

#[test]
fn serves_under_light_faults_are_pinned() {
    check(
        "serve, light",
        SEEDS.map(|s| serve_digest(FaultPlan::light(s))),
        [
            9_284_288_548_453_453_024,
            12_227_497_080_860_622_792,
            16_853_581_419_750_988_526,
            8_540_279_253_637_382_029,
            1_078_010_320_610_853_805,
            6_353_984_693_662_651_042,
        ],
    );
}

#[test]
fn serves_under_chaos_are_pinned() {
    check(
        "serve, chaos",
        SEEDS.map(|s| serve_digest(FaultPlan::chaos(s))),
        [
            11_586_413_837_618_556_604,
            5_466_204_393_934_360_040,
            14_756_162_188_885_063_025,
            15_371_172_740_962_122_363,
            17_908_405_832_463_003_156,
            14_800_231_250_271_059_638,
        ],
    );
}

#[test]
fn short_leases_are_pinned() {
    let runs = SEEDS.map(short_lease_digest);
    check(
        "short leases",
        runs.map(|r| r.0),
        [
            13_439_680_499_797_292_254,
            12_743_607_801_382_663_080,
            16_355_334_968_563_132,
            1_502_134_955_847_531_926,
            14_377_750_650_267_956_544,
            9_765_874_894_416_405_182,
        ],
    );
    for (seed, &(_, renewals, _)) in SEEDS.iter().zip(&runs) {
        assert!(renewals > 0, "seed {seed}: a 40 us lease is renewed");
    }
    let fires: u64 = runs.iter().map(|r| r.2).sum();
    assert!(fires > 0, "the watchdog fires on some seed");
}

#[test]
fn kernel_loops_under_chaos_are_pinned() {
    let (digests, tally) = kernel_loops(SystemConfig::test_small, FaultPlan::chaos, 1000);
    check(
        "kernels, chaos",
        digests,
        [
            4_754_344_333_593_360_492,
            11_809_307_020_503_295_631,
            3_865_872_686_078_631_759,
            8_687_535_452_895_965_666,
            14_956_501_908_109_077_206,
            13_572_328_586_819_991_692,
        ],
    );
    assert!(
        tally.watchdog_fires > 0,
        "a stalled kernel trips the watchdog"
    );
    assert!(tally.uncorrectable > 0, "an ECC failure aborts a kernel");
    assert!(
        tally.kernel_fallbacks > 0,
        "a kernel falls back to the host"
    );
}

#[test]
fn kernel_loops_under_refresh_storms_are_pinned() {
    let (digests, tally) = kernel_loops(
        SystemConfig::gem5_like,
        |s| FaultPlan {
            storm_p: 0.05,
            ..FaultPlan::light(s)
        },
        1000,
    );
    check(
        "kernels, storms",
        digests,
        [
            10_341_037_830_709_301_700,
            3_547_437_776_123_030_347,
            12_705_664_670_013_047_358,
            6_942_403_348_395_242_539,
            5_624_091_951_552_055_650,
            4_321_527_146_580_749_960,
        ],
    );
    assert!(
        tally.interrupted_retries > 0,
        "a storm interrupts a kernel and the retry says so"
    );
}

#[test]
fn kernel_loops_under_a_low_breaker_threshold_are_pinned() {
    let (digests, tally) = kernel_loops(
        SystemConfig::test_small,
        |s| FaultPlan {
            read_flip_p: 0.004,
            double_flip_p: 0.5,
            ..FaultPlan::none(s)
        },
        2,
    );
    check(
        "kernels, threshold 2",
        digests,
        [
            14_209_488_411_919_254_223,
            7_578_985_621_029_747_264,
            17_587_777_217_178_086_842,
            287_578_304_514_933_695,
            5_742_810_873_429_448_790,
            5_930_555_787_753_719_365,
        ],
    );
    assert!(
        tally.breaker_trips > 0,
        "two exhausted kernels in a row trip"
    );
    assert!(
        tally.on_device_after_hand_back > 0,
        "a kernel succeeds after an exhausted one"
    );
}
