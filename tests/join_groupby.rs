//! The served-join / keyed-group-by identity contract: a workload
//! mixing [`QueryOp::SemiJoin`] and keyed [`QueryOp::GroupBy`] queries
//! into the PR-5 operator set returns, for every query, bytes identical
//! to the host `columnstore` reference (`ops::join::semi_join`,
//! `ops::agg::hash_group_by`) — whatever the scheduling policy, fusion
//! window, skew-split setting, key distribution (uniform or
//! Zipf-skewed) or pool shape (1/2/4 memory channels), and with a
//! rank-scoped outage confined to the single unit it names. CI runs
//! this file by name through the tier-1 `cargo test` lane.

use jafar::columnstore::ops::agg::{hash_group_by, AggKind, AggSpec};
use jafar::columnstore::ops::join::semi_join;
use jafar::common::check::forall;
use jafar::common::obs::SharedTracer;
use jafar::common::rng::SplitMix64;
use jafar::common::time::Tick;
use jafar::dram::{DramGeometry, FaultPlan};
use jafar::serve::engine::ServeConfig;
use jafar::serve::{
    uniform_keys, zipf_keys, AggFn, Arrivals, KeyRanges, PredicateMix, QueryOp, QueryRecord,
    QuerySpec, SchedPolicy, Workload,
};
use jafar::sim::{ServeCluster, SystemConfig};

/// The PR-5 operator set the join/group-by queries ride alongside.
const LEGACY_OPS: [QueryOp; 5] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::Project { k: 2 },
];

const AGGS: [AggFn; 3] = [AggFn::Sum, AggFn::Min, AggFn::Max];

fn cluster(channels: usize, ranks: u32) -> ServeCluster {
    let mut cfg = SystemConfig::test_small();
    cfg.dram_geometry = DramGeometry {
        ranks,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    ServeCluster::new(cfg, channels, SharedTracer::disabled()).expect("power-of-two channels")
}

/// What the host column store says each query must return.
enum Expected {
    /// A semi-join against this build-side key multiset.
    Semi(Vec<i64>),
    /// A keyed group-by folding `agg` over rows whose value lies in the
    /// predicate.
    Group(AggFn),
    /// A PR-5 operator — ground truth is pinned by the pre-existing
    /// identity suites; here it only has to agree across pool shapes.
    Legacy,
}

fn semi_reference(build_keys: &[i64], values: &[i64]) -> (Vec<u8>, u64) {
    let positions = semi_join(build_keys, values).expect("row count fits u32");
    let mut bytes = vec![0u8; values.len().div_ceil(8)];
    for &p in &positions {
        bytes[p as usize / 8] |= 1 << (p as usize % 8);
    }
    (bytes, positions.len() as u64)
}

fn group_reference(
    values: &[i64],
    keys: &[i64],
    lo: i64,
    hi: i64,
    agg: AggFn,
) -> Vec<(i64, u64, Option<i64>)> {
    let (keys_f, vals_f): (Vec<i64>, Vec<i64>) = keys
        .iter()
        .zip(values)
        .filter(|&(_, v)| (lo..=hi).contains(v))
        .map(|(&k, &v)| (k, v))
        .unzip();
    if keys_f.is_empty() {
        return Vec::new();
    }
    let kind = match agg {
        AggFn::Sum => AggKind::Sum,
        AggFn::Min => AggKind::Min,
        AggFn::Max => AggKind::Max,
    };
    let grouped = hash_group_by(
        &[&keys_f],
        &[AggSpec {
            kind,
            input: &vals_f,
        }],
    )
    .sorted_by_keys();
    (0..grouped.len())
        .map(|g| {
            (
                grouped.keys[0][g],
                grouped.counts[g],
                Some(grouped.aggs[0][g]),
            )
        })
        .collect()
}

/// Functional payloads only — timing legitimately shifts across pool
/// widths; the served bytes must not.
fn assert_results_identical(wide: &[QueryRecord], narrow: &[QueryRecord], label: &str) {
    assert_eq!(wide.len(), narrow.len(), "{label}: record count");
    for (w, n) in wide.iter().zip(narrow) {
        assert_eq!(
            (w.id, w.lo, w.hi, w.op),
            (n.id, n.lo, n.hi, n.op),
            "{label}: query {}",
            w.id
        );
        assert_eq!(w.bitset, n.bitset, "{label}: query {} bitset", w.id);
        assert_eq!(w.matched, n.matched, "{label}: query {} match count", w.id);
        assert_eq!(w.agg, n.agg, "{label}: query {} scalar", w.id);
        assert_eq!(
            w.projected, n.projected,
            "{label}: query {} projection",
            w.id
        );
        assert_eq!(w.groups, n.groups, "{label}: query {} groups", w.id);
    }
}

/// Draws a mixed workload: at least one semi-join and one keyed
/// group-by, the rest rolled from the full operator set, with open- or
/// closed-loop arrivals. Returns the workload plus each query's host
/// ground truth recipe.
fn draw_workload(rng: &mut SplitMix64, n: usize) -> (Workload, Vec<Expected>) {
    let mut specs = Vec::with_capacity(n);
    let mut expected = Vec::with_capacity(n);
    for q in 0..n {
        // Queries 0 and 1 pin the new operators into every case.
        let roll = match q {
            0 => 5,
            1 => 6,
            _ => rng.next_range_inclusive(0, 6),
        };
        if roll == 5 {
            // 1..=8 distinct build keys always fit the 8-range budget.
            let nkeys = rng.next_range_inclusive(1, 8) as usize;
            let build_keys: Vec<i64> = (0..nkeys)
                .map(|_| rng.next_range_inclusive(0, 999))
                .collect();
            let ranges = KeyRanges::from_keys(&build_keys).expect("≤8 keys → ≤8 ranges");
            specs.push(QuerySpec::semi_join(ranges));
            expected.push(Expected::Semi(build_keys));
        } else if roll == 6 {
            let lo = rng.next_range_inclusive(0, 900);
            let hi = lo + rng.next_range_inclusive(0, 600);
            let agg = AGGS[rng.next_range_inclusive(0, 2) as usize];
            specs.push(QuerySpec::group_by(lo, hi, agg));
            expected.push(Expected::Group(agg));
        } else {
            let lo = rng.next_range_inclusive(0, 900);
            let hi = lo + rng.next_range_inclusive(0, 600);
            specs.push(QuerySpec {
                lo,
                hi,
                op: LEGACY_OPS[roll as usize],
                slo: None,
            });
            expected.push(Expected::Legacy);
        }
    }
    let arrivals = if rng.next_bool(0.5) {
        let mut t = Tick::ZERO;
        Arrivals::Open(
            (0..n)
                .map(|_| {
                    t += Tick::from_ns(rng.next_range_inclusive(100, 4000) as u64);
                    t
                })
                .collect(),
        )
    } else {
        Arrivals::Closed {
            clients: rng.next_range_inclusive(1, 3) as u32,
            think: Tick::from_ns(rng.next_range_inclusive(0, 2000) as u64),
        }
    };
    (
        Workload {
            specs,
            arrivals,
            slo: None,
        },
        expected,
    )
}

#[test]
fn served_joins_and_group_bys_match_the_columnstore_reference_across_pools() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Edf,
        SchedPolicy::RankAffinity,
    ];
    let mut case = 0usize;
    forall("join-groupby identity", 8, |rng| {
        let rows = rng.next_range_inclusive(600, 2500) as usize;
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        // Uniform and Zipf(1.0)-skewed key columns; a skewed domain of
        // 16 makes the head key hot enough to trip the skew detector.
        let domain = rng.next_range_inclusive(8, 48) as usize;
        let keys = if rng.next_bool(0.5) {
            zipf_keys(rows, domain, 1.0, rng.next_u64())
        } else {
            uniform_keys(rows, domain, rng.next_u64())
        };
        let n = rng.next_range_inclusive(4, 8) as usize;
        let (workload, expected) = draw_workload(rng, n);
        let policy = policies[case % policies.len()];
        case += 1;
        let ranks = [2u32, 4][case % 2];
        let cfg = ServeConfig {
            fuse_window: rng.next_range_inclusive(1, 4) as usize,
            batch_admission: rng.next_bool(0.5),
            skew_split: rng.next_bool(0.5),
            ..ServeConfig::default()
        };

        let reference = cluster(1, ranks).serve_with_keys(&values, &keys, &workload, policy, &cfg);
        assert_eq!(
            reference.report.completed(),
            n,
            "no SLO, no faults: every query completes"
        );
        for (rec, exp) in reference.report.records.iter().zip(&expected) {
            match exp {
                Expected::Semi(build_keys) => {
                    let (bytes, matched) = semi_reference(build_keys, &values);
                    assert_eq!(rec.bitset, bytes, "query {}: semi-join bitset", rec.id);
                    assert_eq!(rec.matched, matched, "query {}: semi-join count", rec.id);
                }
                Expected::Group(agg) => {
                    let host = group_reference(&values, &keys, rec.lo, rec.hi, *agg);
                    assert_eq!(rec.groups, host, "query {}: group rows", rec.id);
                    assert_eq!(
                        rec.matched,
                        host.iter().map(|(_, c, _)| c).sum::<u64>(),
                        "query {}: grouped row count",
                        rec.id
                    );
                }
                Expected::Legacy => {}
            }
        }
        for channels in [2usize, 4] {
            let run =
                cluster(channels, ranks).serve_with_keys(&values, &keys, &workload, policy, &cfg);
            assert_eq!(run.report.completed(), n);
            assert_results_identical(
                &run.report.records,
                &reference.report.records,
                &format!("C={channels} vs C=1, policy {}", policy.name()),
            );
        }
    });
}

/// A permanent rank outage while semi-joins and keyed group-bys are in
/// flight: every query still completes with bytes identical to a
/// healthy single-channel run, and the disturbance ledger shows exactly
/// one quarantined unit.
#[test]
fn outage_during_joins_and_group_bys_is_confined_to_one_unit() {
    let values: Vec<i64> = (0..2048).map(|i| (i * 61 + 13) % 1000).collect();
    let keys = zipf_keys(2048, 16, 1.0, 0xBEEF);
    let ranges = KeyRanges::from_keys(&[13, 14, 15, 400, 401, 700]).expect("3 ranges");
    let mix_tail = Workload::poisson(
        PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        },
        4,
        Tick::from_us(2),
        97,
    )
    .with_op_mix(&LEGACY_OPS);
    let mut specs = vec![
        QuerySpec::semi_join(ranges),
        QuerySpec::group_by(100, 799, AggFn::Sum),
        QuerySpec::group_by(0, 999, AggFn::Max),
    ];
    specs.extend(mix_tail.specs.iter().cloned());
    let workload = Workload {
        specs,
        arrivals: Arrivals::Open((0..7).map(|q| Tick::from_us(2) * (q as u64 + 1)).collect()),
        slo: None,
    };
    let cfg = ServeConfig::default();

    let reference =
        cluster(1, 4).serve_with_keys(&values, &keys, &workload, SchedPolicy::RankAffinity, &cfg);
    assert_eq!(reference.report.completed(), 7);

    let mut sick = cluster(2, 4);
    let sick_unit = sick.pool().id_of(1, 0).expect("in-shape unit");
    sick.inject_faults_on_channel(1, FaultPlan::none(5).with_outage(0, Tick::ZERO, Tick::MAX));
    let run = sick.serve_with_keys(&values, &keys, &workload, SchedPolicy::RankAffinity, &cfg);

    assert_eq!(run.report.completed(), 7, "the pool absorbs the outage");
    assert_results_identical(
        &run.report.records,
        &reference.report.records,
        "faulted C=2 vs healthy C=1",
    );
    let avail = &run.report.availability;
    assert!(
        avail.units[sick_unit].quarantines >= 1,
        "the dark unit was quarantined"
    );
    for (u, rec) in avail.units.iter().enumerate() {
        if u != sick_unit {
            assert_eq!(rec.quarantines, 0, "unit {u} untouched by the outage");
        }
    }
    assert!(run.faults[1].as_ref().is_some_and(|f| f.total() > 0));
    assert!(run.faults[0].is_none());
}
