//! The pool-identity contract: widening the schedulable pool from one
//! DIMM's rank vector to `C` memory channels changes *where* shards run
//! and *when* queries finish — never *what* they return. Every channel
//! of a [`jafar::sim::ServeCluster`] carries the same channel-local
//! column layout, so a `C`-channel serve produces per-query results
//! byte-identical to the single-channel machine, for C ∈ {1, 2, 4},
//! and a rank-scoped fault stays confined to the single pool unit it
//! names. `crates/sim/src/cluster.rs` cites this file as the assertion
//! of that guarantee.

use jafar::common::check::forall;
use jafar::common::obs::SharedTracer;
use jafar::common::time::Tick;
use jafar::dram::{DramGeometry, FaultPlan};
use jafar::serve::engine::ServeConfig;
use jafar::serve::{AggFn, FilterPool, PredicateMix, QueryOp, QueryRecord, SchedPolicy, Workload};
use jafar::sim::{ServeCluster, SystemConfig};

/// The §4 operator set a mixed stream cycles through.
const OP_MIX: [QueryOp; 6] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::Project { k: 2 },
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::SelectAgg(AggFn::Max),
];

/// A platform with three NDP ranks per channel, so even the
/// single-channel pool is wide enough to exercise shard fan-out.
fn cluster_config() -> SystemConfig {
    let mut cfg = SystemConfig::test_small();
    cfg.dram_geometry = DramGeometry {
        ranks: 4,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    cfg
}

fn cluster(channels: usize) -> ServeCluster {
    ServeCluster::new(cluster_config(), channels, SharedTracer::disabled())
        .expect("power-of-two channel count")
}

/// Expected selection bytes (LSB-first within each byte) — the ground
/// truth every pool width must match.
fn reference_bytes(vals: &[i64], lo: i64, hi: i64) -> Vec<u8> {
    let mut bytes = vec![0u8; vals.len().div_ceil(8)];
    for (i, &v) in vals.iter().enumerate() {
        if (lo..=hi).contains(&v) {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    bytes
}

/// Asserts the functional payload of two runs of the same workload is
/// identical query-by-query: predicate, selection bytes, match count,
/// aggregate scalar and packed projection. Timing fields are *expected*
/// to differ across pool widths and are deliberately not compared.
fn assert_results_identical(wide: &[QueryRecord], narrow: &[QueryRecord], label: &str) {
    assert_eq!(wide.len(), narrow.len(), "{label}: record count");
    for (w, n) in wide.iter().zip(narrow) {
        assert_eq!(w.id, n.id, "{label}: query id");
        assert_eq!(
            (w.lo, w.hi, w.op),
            (n.lo, n.hi, n.op),
            "{label}: query {}",
            w.id
        );
        assert_eq!(
            w.bitset, n.bitset,
            "{label}: query {} selection bytes",
            w.id
        );
        assert_eq!(w.matched, n.matched, "{label}: query {} match count", w.id);
        assert_eq!(w.agg, n.agg, "{label}: query {} aggregate scalar", w.id);
        assert_eq!(
            w.projected, n.projected,
            "{label}: query {} projection",
            w.id
        );
    }
}

#[test]
fn channel_widths_1_2_4_serve_byte_identical_results() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Edf,
        SchedPolicy::RankAffinity,
    ];
    let mut case = 0usize;
    forall("pool-identity", 8, |rng| {
        let rows = rng.next_range_inclusive(600, 2500) as usize;
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let n = rng.next_range_inclusive(2, 8) as usize;
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: rng.next_range_inclusive(0, 600),
        };
        let wseed = rng.next_u64();
        let mut workload = if rng.next_bool(0.5) {
            let gap = Tick::from_ns(rng.next_range_inclusive(100, 4000) as u64);
            Workload::poisson(mix, n, gap, wseed)
        } else {
            let clients = rng.next_range_inclusive(1, 3) as u32;
            let think = Tick::from_ns(rng.next_range_inclusive(0, 2000) as u64);
            Workload::closed(mix, n, clients, think, wseed)
        };
        if rng.next_bool(0.6) {
            let start = rng.next_range_inclusive(0, OP_MIX.len() as i64 - 1) as usize;
            let len = rng.next_range_inclusive(1, OP_MIX.len() as i64) as usize;
            let ops: Vec<QueryOp> = (0..len)
                .map(|i| OP_MIX[(start + i) % OP_MIX.len()])
                .collect();
            workload = workload.with_op_mix(&ops);
        }
        let policy = policies[case % policies.len()];
        case += 1;

        // Fusion and batched admission are pure scheduling accelerants:
        // whatever window the engine fuses under and however it drains
        // arrivals, the served bytes must stay identical across widths.
        let cfg = ServeConfig {
            fuse_window: rng.next_range_inclusive(1, 4) as usize,
            batch_admission: rng.next_bool(0.5),
            ..ServeConfig::default()
        };
        let reference = cluster(1).serve(&values, &workload, policy, &cfg);
        assert_eq!(
            reference.report.completed(),
            n,
            "no SLO, no faults: every query completes"
        );
        for rec in &reference.report.records {
            if matches!(rec.op, QueryOp::Select | QueryOp::Project { .. }) {
                assert_eq!(
                    rec.bitset,
                    reference_bytes(&values, rec.lo, rec.hi),
                    "query {} vs functional ground truth",
                    rec.id
                );
            }
        }
        for channels in [2usize, 4] {
            let run = cluster(channels).serve(&values, &workload, policy, &cfg);
            assert_eq!(run.report.completed(), n);
            assert_results_identical(
                &run.report.records,
                &reference.report.records,
                &format!("C={channels} vs C=1, policy {}", policy.name()),
            );
            // The report's availability roster matches the widened pool.
            let units = run.report.availability.units.len();
            assert_eq!(units, channels * 3, "C={channels}: 3 NDP ranks per channel");
        }
    });
}

/// A rank-scoped permanent outage on one channel is confined to exactly
/// one pool unit — the cluster quarantines `{channel 1, rank 0}` and
/// nothing else — and the served results remain byte-identical to a
/// fault-free single-channel run of the same workload.
#[test]
fn rank_scoped_fault_is_confined_to_one_unit_and_preserves_identity() {
    let values: Vec<i64> = (0..2048).map(|i| (i * 61 + 13) % 1000).collect();
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 250,
    };
    let workload = Workload::poisson(mix, 6, Tick::from_us(2), 97).with_op_mix(&OP_MIX);
    let cfg = ServeConfig::default();

    let reference = cluster(1).serve(&values, &workload, SchedPolicy::RankAffinity, &cfg);
    assert_eq!(reference.report.completed(), 6);

    let mut sick = cluster(2);
    let sick_unit = sick.pool().id_of(1, 0).expect("in-shape unit");
    sick.inject_faults_on_channel(1, FaultPlan::none(5).with_outage(0, Tick::ZERO, Tick::MAX));
    let run = sick.serve(&values, &workload, SchedPolicy::RankAffinity, &cfg);

    assert_eq!(run.report.completed(), 6, "the pool absorbs the outage");
    assert_results_identical(
        &run.report.records,
        &reference.report.records,
        "faulted C=2 vs healthy C=1",
    );
    let avail = &run.report.availability;
    assert_eq!(avail.units.len(), sick.pool().units());
    assert!(
        avail.units[sick_unit].quarantines >= 1,
        "the dark unit was quarantined"
    );
    for (u, rec) in avail.units.iter().enumerate() {
        if u != sick_unit {
            assert_eq!(rec.quarantines, 0, "unit {u} untouched by the outage");
        }
    }
    // The injector evidence lives on channel 1 alone.
    assert!(run.faults[1].as_ref().is_some_and(|f| f.total() > 0));
    assert!(run.faults[0].is_none());
}
