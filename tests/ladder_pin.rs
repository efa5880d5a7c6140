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
//!   runs aggregates and projections back to back through the kernels'
//!   hand-back entry points, under chaos, under refresh storms, and under
//!   ECC failures with a breaker threshold of 2, so handed-back and
//!   successful kernels interleave before the breaker trips.
//!
//! The constants were first computed before the page ladder and the
//! kernel ladder were merged. When the driver's host-folding kernel entry
//! points and their `kernel_fallbacks` counter were removed, all 36 were
//! recomputed on commit `69c7799`, the last with them, after two edits:
//! scenario C rewritten onto the hand-back kernels, and the counter's
//! line deleted from the driver's scoreboard, which every digest hashes.
//! They must not be edited to make a change pass. CI runs this file by
//! name.

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
    breaker_trips: u64,
    interrupted_retries: u64,
    handed_back: u64,
    served_after_hand_back: u64,
}

impl LoopTally {
    /// Folds a kernel served by the device, ending at `end`, and returns
    /// where the next one starts.
    fn served(&mut self, h: &mut Fnv, end: Tick) -> Tick {
        h.u64(1);
        h.tick(end);
        self.served_after_hand_back += u64::from(self.handed_back > 0);
        end
    }

    /// Folds a kernel the ladder handed back at `at`, and returns where
    /// the next one starts.
    fn hand_back(&mut self, h: &mut Fnv, at: Tick) -> Tick {
        h.u64(0);
        h.tick(at);
        self.handed_back += 1;
        at
    }
}

/// Scenario C: a `ResilientDriver` with a ring tracer on a module built
/// from `machine`, under `plan`, runs 40 rounds of `try_run_aggregate`
/// (cycling sum, min, max and count, every other round filtered) and
/// `try_run_project`, each starting where the last ended or was handed
/// back. The digest folds every outcome, the packed output of every
/// served projection, the scoreboard and every event.
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
        match driver.try_run_aggregate(&mut device, &mut module, job, t) {
            Ok(out) => {
                t = tally.served(&mut h, out.end);
                h.opt(out.value);
                h.u64(out.count);
            }
            Err(at) => t = tally.hand_back(&mut h, at),
        }

        let project = ProjectJob {
            col_addr: PhysAddr(0),
            rows: KERNEL_ROWS,
            bitset_addr: BITSET,
            out_addr: PACKED,
        };
        match driver.try_run_project(&mut device, &mut module, project, t) {
            Ok(out) => {
                t = tally.served(&mut h, out.end);
                h.u64(out.emitted);
                let mut packed = vec![0u8; (out.emitted * 8) as usize];
                module.data().read(PACKED, &mut packed);
                h.bytes(&packed);
            }
            Err(at) => t = tally.hand_back(&mut h, at),
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
        total.breaker_trips += t.breaker_trips;
        total.interrupted_retries += t.interrupted_retries;
        total.handed_back += t.handed_back;
        total.served_after_hand_back += t.served_after_hand_back;
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
            6_350_510_723_480_092_138,
            9_725_380_571_645_979_148,
            3_416_507_172_919_130_942,
            16_204_174_005_931_111_395,
            13_123_104_740_359_008_597,
            11_625_103_023_954_647_178,
        ],
    );
}

#[test]
fn serves_under_chaos_are_pinned() {
    check(
        "serve, chaos",
        SEEDS.map(|s| serve_digest(FaultPlan::chaos(s))),
        [
            16_410_730_805_922_082_090,
            1_221_112_312_050_004_302,
            825_512_350_161_641_561,
            13_092_658_066_874_209_313,
            12_001_206_346_505_869_498,
            4_451_558_674_933_596_196,
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
            12_852_126_283_858_298_976,
            17_245_603_887_309_365_288,
            1_545_262_965_305_883_828,
            13_969_607_576_241_053_782,
            18_018_783_186_767_376_326,
            2_253_547_262_123_410_046,
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
            18_295_224_416_962_253_824,
            6_868_689_554_376_991_795,
            16_565_649_769_374_946_768,
            234_905_907_925_937_666,
            5_188_278_934_882_279_719,
            16_089_762_734_726_926_604,
        ],
    );
    assert!(
        tally.watchdog_fires > 0,
        "a stalled kernel trips the watchdog"
    );
    assert!(tally.uncorrectable > 0, "an ECC failure aborts a kernel");
    assert!(tally.handed_back > 0, "a kernel is handed back");
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
            5_616_502_188_427_849_143,
            8_051_598_906_853_890_342,
            7_452_143_797_729_264_066,
            10_148_398_137_322_579_111,
            1_729_510_434_199_732_052,
            14_592_644_850_115_957_559,
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
            18_374_390_149_267_701_167,
            7_951_732_996_588_127_880,
            9_932_962_649_274_922_985,
            14_176_863_206_111_573_762,
            13_101_761_764_254_933_427,
            15_118_440_570_890_532_169,
        ],
    );
    assert!(
        tally.breaker_trips > 0,
        "two exhausted kernels in a row trip"
    );
    assert!(
        tally.served_after_hand_back > 0,
        "a kernel succeeds after an exhausted one"
    );
}
