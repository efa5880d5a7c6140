//! Pins the trace exports of the serving stack and the resilient select
//! paths across commits. `trace_determinism` and `serving_determinism`
//! compare two runs of one build, so a change that moves one trace byte in
//! both runs passes them; this file compares every build against
//! constants.
//!
//! Each scenario folds four exports into 64-bit FNV-1a digests: the
//! rendered result (the `ServeReport` and its per-query records, or the
//! select's outcome and output bytes), `chrome_trace()`,
//! `trace_timeline()` and `metrics()`. The trace ring is sized so that no
//! event is dropped, and each scenario asserts it.
//!
//! The constants were computed before the solo select path was folded
//! into the lane path. The seven result digests, which hash the driver's
//! scoreboard, were recomputed on commit `69c7799` with only the
//! scoreboard's `kernel_fallbacks` line deleted, when that counter was
//! removed; the Chrome-trace, timeline and metrics digests are the
//! originals. None may be edited to make a change pass. CI runs this
//! file by name.

use jafar::common::time::Tick;
use jafar::core::ResilienceConfig;
use jafar::cpu::ScanVariant;
use jafar::dram::{DramGeometry, FaultPlan};
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

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// The four digests of one scenario: result, Chrome trace, timeline and
/// metrics.
type Digests = [u64; 4];

/// Ring capacity: far above what any scenario here emits.
const TRACE_CAPACITY: usize = 1 << 19;

/// Digests a traced system's exports after a run whose result was folded
/// into `result`, asserting the ring dropped nothing.
fn exports(sys: &System, result: Fnv) -> Digests {
    let metrics = sys.metrics();
    assert_eq!(
        metrics.get_counter("trace.dropped"),
        Some(0),
        "the ring must hold every event"
    );
    [
        result.0,
        digest(sys.chrome_trace().expect("tracing enabled").as_bytes()),
        digest(sys.trace_timeline().expect("tracing enabled").as_bytes()),
        digest(metrics.to_string().as_bytes()),
    ]
}

/// The serving machine: `test_small` widened to 4 ranks of 4 banks × 64
/// rows × 1 KiB.
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

/// The op cycle: every select-datapath client, a multi-range semi-join
/// (four fused lanes owned by one query), a one-range semi-join and the
/// scalar aggregates.
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
    let one = KeyRanges::from_keys(&(250..=449).collect::<Vec<i64>>()).expect("one range");
    [
        QueryOp::Select,
        QueryOp::SelectCount,
        QueryOp::SelectAgg(AggFn::Sum),
        QueryOp::Project { k: 2 },
        QueryOp::SemiJoin { ranges: four },
        QueryOp::Select,
        QueryOp::SemiJoin { ranges: one },
        QueryOp::SelectAgg(AggFn::Max),
    ]
}

/// One traced `System::serve` of 48 Poisson queries under EDF with two
/// SLO classes, at fuse window `fuse`, mean gap `gap`, and optionally
/// with rank 0 dark from 20 µs to 400 µs. Returns the digests and the
/// shards the run migrated.
fn serve_digests(fuse: usize, gap: Tick, outage: bool) -> (Digests, u64) {
    let mut sys = serving_system();
    sys.enable_tracing(TRACE_CAPACITY);
    let values: Vec<i64> = (0..4096).map(|i| (i * 37 + 11) % 1000).collect();
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 200,
    };
    let mut workload = Workload::poisson(mix, 48, gap, 23)
        .with_slo_classes(&[Tick::from_ms(1), Tick::from_us(400)])
        .with_op_mix(&op_cycle());
    // A semi-join's `[lo, hi]` is its ranges' envelope.
    for spec in &mut workload.specs {
        if let QueryOp::SemiJoin { ranges } = spec.op {
            (spec.lo, spec.hi) = ranges.envelope();
        }
    }
    if outage {
        sys.inject_faults(FaultPlan::none(0).with_outage(0, Tick::from_us(20), Tick::from_us(400)));
    }
    let cfg = ServeConfig {
        fuse_window: fuse,
        ..ServeConfig::default()
    };
    let run = sys.serve(&values, &workload, SchedPolicy::Edf, &cfg);
    let mut h = Fnv::new();
    h.bytes(run.report.to_string().as_bytes());
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
    }
    for stats in &run.recovery {
        h.bytes(stats.scoreboard().to_string().as_bytes());
    }
    let timeline = sys.trace_timeline().expect("tracing enabled");
    let fused_events = timeline.matches("select-fused-").count() as u64;
    let migrations = run.report.availability.migrations;
    println!(
        "fuse {fuse}, gap {gap}: {} completed, {} shed, {fused_events} fused-stage events, \
         {migrations} migrations",
        run.report.completed(),
        run.report.shed()
    );
    (exports(&sys, h), migrations)
}

/// `trace_determinism`'s resilient select: 8,192 rows in 4 KiB pages
/// under `FaultPlan::light(17)`, after a CPU scan of the same column.
fn resilient_digests() -> Digests {
    let mut cfg = SystemConfig::test_small();
    cfg.query_overhead = Tick::from_ns(500);
    cfg.page_bytes = 4096;
    let mut sys = System::new(cfg);
    sys.enable_tracing(TRACE_CAPACITY);
    let values: Vec<i64> = (0..8192).map(|i| (i * 37 + 17) % 1000).collect();
    let col = sys.write_column(&values);
    let cpu = sys
        .run_select_cpu(col, 8192, 100, 399, ScanVariant::Branching, Tick::ZERO)
        .expect("column placed in range");
    sys.inject_faults(FaultPlan::light(17));
    let run =
        sys.run_select_jafar_resilient(col, 8192, 100, 399, cpu.end, ResilienceConfig::default());
    let mut out = vec![0u8; 8192 / 8];
    sys.mc().module().data().read(run.out_addr, &mut out);
    let mut h = Fnv::new();
    h.bytes(run.report().as_bytes());
    h.tick(run.device);
    h.tick(run.driver);
    h.bytes(&out);
    exports(&sys, h)
}

/// A 3-shard `run_select_jafar_parallel` under `FaultPlan::light(5)`.
fn parallel_digests() -> Digests {
    let mut sys = serving_system();
    sys.enable_tracing(TRACE_CAPACITY);
    let values: Vec<i64> = (0..12_000).map(|i| (i * 37 + 11) % 1000).collect();
    let col = sys.write_column_partitioned(&values, 3);
    assert_eq!(col.shards.len(), 3);
    sys.inject_faults(FaultPlan::light(5));
    let run =
        sys.run_select_jafar_parallel(&col, 100, 399, Tick::ZERO, ResilienceConfig::default());
    let mut h = Fnv::new();
    h.tick(run.end);
    h.u64(run.matched);
    h.bytes(&run.selection.to_bytes());
    for shard in &run.shards {
        h.u64(u64::from(shard.shard));
        h.u64(u64::from(shard.rank));
        h.tick(shard.run.end);
        h.u64(shard.run.matched);
        h.u64(shard.run.pages);
        h.tick(shard.run.cpu_wait);
        h.tick(shard.run.device);
        h.tick(shard.run.driver);
    }
    for stats in &run.recovery {
        h.bytes(stats.scoreboard().to_string().as_bytes());
    }
    exports(&sys, h)
}

fn check(name: &str, got: Digests, want: Digests) {
    println!("{name}: {got:?}");
    for (i, export) in ["result", "chrome trace", "timeline", "metrics"]
        .iter()
        .enumerate()
    {
        assert_eq!(got[i], want[i], "{name}: the {export} moved");
    }
}

#[test]
fn unfused_serve_is_pinned() {
    let (got, _) = serve_digests(1, Tick::from_us(1), false);
    check(
        "fuse 1, gap 1 us",
        got,
        [
            4_834_014_293_123_641_851,
            18_254_325_395_780_737_017,
            17_955_488_187_620_648_933,
            3_067_494_459_706_150_306,
        ],
    );
}

#[test]
fn fused_serve_is_pinned() {
    let (got, _) = serve_digests(4, Tick::from_us(1), false);
    check(
        "fuse 4, gap 1 us",
        got,
        [
            1_286_259_312_397_709_413,
            12_642_659_203_640_302_092,
            15_960_608_584_990_040_886,
            9_084_746_974_960_455_464,
        ],
    );
}

#[test]
fn sparse_fused_serve_is_pinned() {
    let (got, _) = serve_digests(4, Tick::from_us(5), false);
    check(
        "fuse 4, gap 5 us",
        got,
        [
            14_829_328_983_174_681_354,
            16_841_012_349_627_833_426,
            12_985_166_524_954_499_515,
            6_484_642_705_684_314_658,
        ],
    );
}

#[test]
fn unfused_serve_through_an_outage_is_pinned() {
    let (got, migrations) = serve_digests(1, Tick::from_us(2), true);
    assert!(migrations > 0, "the outage parks and migrates shards");
    check(
        "fuse 1, gap 2 us, rank 0 dark",
        got,
        [
            7_517_780_855_017_063_181,
            15_355_621_057_318_346_037,
            979_219_334_352_415_745,
            13_662_694_229_030_294_994,
        ],
    );
}

#[test]
fn fused_serve_through_an_outage_is_pinned() {
    let (got, migrations) = serve_digests(4, Tick::from_us(1), true);
    assert!(migrations > 0, "the outage parks and migrates shards");
    check(
        "fuse 4, gap 1 us, rank 0 dark",
        got,
        [
            9_753_045_258_348_042_171,
            16_284_599_054_922_054_169,
            16_196_439_031_215_576_596,
            3_155_142_658_229_855_182,
        ],
    );
}

#[test]
fn resilient_select_under_light_faults_is_pinned() {
    check(
        "resilient, light(17)",
        resilient_digests(),
        [
            10_083_550_184_326_161_385,
            6_529_144_285_268_002_781,
            11_759_687_455_957_331_572,
            13_131_005_808_200_748_523,
        ],
    );
}

#[test]
fn parallel_select_under_light_faults_is_pinned() {
    check(
        "parallel x3, light(5)",
        parallel_digests(),
        [
            13_476_227_323_259_059_235,
            14_224_582_768_974_981_212,
            5_216_589_322_553_304_949,
            3_341_206_604_440_705_124,
        ],
    );
}
