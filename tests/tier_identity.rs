//! The tier-identity contract: a [`System`] serves exactly as a
//! one-channel [`ServeCluster`] built from the same configuration. Both
//! tiers schedule the same units of one DIMM, place the column at the
//! same addresses and drive the same engine, so on every platform
//! preset, with or without a rank outage, under every scheduling policy
//! and fusion window, they return equal [`ServeReport`]s — timing
//! included — equal per-unit driver counters and equal fault counters.
//!
//! [`ServeReport`]: jafar::serve::ServeReport

use jafar::common::check::forall;
use jafar::common::obs::SharedTracer;
use jafar::common::stats::Scoreboard;
use jafar::common::time::Tick;
use jafar::dram::FaultPlan;
use jafar::serve::engine::ServeConfig;
use jafar::serve::{uniform_keys, AggFn, PredicateMix, QueryOp, SchedPolicy, Workload};
use jafar::sim::{ServeCluster, System, SystemConfig};

/// Every §4 operator plus keyed group-bys.
const OPS: [QueryOp; 8] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::GroupBy { agg: AggFn::Sum },
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::Project { k: 2 },
    QueryOp::SelectAgg(AggFn::Max),
    QueryOp::GroupBy { agg: AggFn::Max },
];

const POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::Fifo,
    SchedPolicy::Edf,
    SchedPolicy::RankAffinity,
];

/// One case of the grid: a platform preset, a fault state, a policy and
/// a fusion window. Case `i` of 24 visits each combination once.
fn grid_point(i: usize) -> (SystemConfig, bool, SchedPolicy, usize) {
    let presets: [fn() -> SystemConfig; 2] = [SystemConfig::test_small, SystemConfig::gem5_like];
    let cfg = presets[i % 2]();
    let outage = (i / 2) % 2 == 1;
    let policy = POLICIES[(i / 4) % 3];
    let fuse_window = if i / 12 == 0 { 1 } else { 4 };
    (cfg, outage, policy, fuse_window)
}

fn scoreboards<'a, T: 'a>(
    stats: impl IntoIterator<Item = &'a T>,
    board: fn(&T) -> Scoreboard,
) -> Vec<Scoreboard> {
    stats.into_iter().map(board).collect()
}

#[test]
fn system_serves_as_a_one_channel_cluster() {
    let mut case = 0usize;
    forall("tier-identity", 24, |rng| {
        let (cfg, outage, policy, fuse_window) = grid_point(case);
        case += 1;
        let label = format!(
            "{} outage={outage} {} fuse={fuse_window}",
            cfg.name,
            policy.name()
        );

        let rows = rng.next_range_inclusive(700, 2600) as usize;
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let keys = uniform_keys(
            rows,
            rng.next_range_inclusive(1, 24) as usize,
            rng.next_u64(),
        );
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: rng.next_range_inclusive(50, 700),
        };
        let n = rng.next_range_inclusive(6, 14) as usize;
        let gap = Tick::from_ns(rng.next_range_inclusive(200, 6000) as u64);
        let start = rng.next_below(OPS.len() as u64) as usize;
        let ops: Vec<QueryOp> = (0..OPS.len())
            .map(|i| OPS[(start + i) % OPS.len()])
            .collect();
        let workload = Workload::poisson(mix, n, gap, rng.next_u64())
            .with_op_mix(&ops)
            .with_slo(Tick::from_us(rng.next_range_inclusive(20, 800) as u64));
        let serve_cfg = ServeConfig {
            fuse_window,
            ..ServeConfig::default()
        };
        let plan = outage.then(|| {
            let from = Tick::from_us(rng.next_range_inclusive(0, 40) as u64);
            let until = if rng.next_bool(0.5) {
                Tick::MAX
            } else {
                from + Tick::from_us(rng.next_range_inclusive(5, 200) as u64)
            };
            FaultPlan::none(rng.next_u64()).with_outage(0, from, until)
        });

        let mut sys = System::new(cfg.clone());
        let mut cluster = ServeCluster::new(cfg, 1, SharedTracer::disabled()).expect("one channel");
        if let Some(plan) = plan {
            sys.inject_faults(plan);
            cluster.inject_faults_on_channel(0, plan);
        }
        let solo = sys.serve_with_keys(&values, &keys, &workload, policy, &serve_cfg);
        let pooled = cluster.serve_with_keys(&values, &keys, &workload, policy, &serve_cfg);

        assert_eq!(solo.report, pooled.report, "{label}: serve report");
        assert_eq!(
            scoreboards(&solo.recovery, |d| d.scoreboard()),
            scoreboards(&pooled.recovery, |d| d.scoreboard()),
            "{label}: per-unit driver counters"
        );
        assert_eq!(pooled.faults.len(), 1, "{label}: one channel");
        assert_eq!(
            scoreboards(&solo.faults, |f| f.scoreboard()),
            scoreboards(&pooled.faults[0], |f| f.scoreboard()),
            "{label}: fault counters"
        );
        assert_eq!(solo.faults.is_some(), outage, "{label}: plan installed");
    });
}
