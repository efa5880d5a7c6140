//! The serving core every serving tier is built on.
//!
//! JAFAR puts one filter unit on each NDP rank. A [`ServeCore`] is that
//! machine over `C` channels of one DIMM shape: a [`ChannelRankPool`],
//! one [`JafarDevice`] per unit and one arena confined to the unit's
//! rank. [`System`](crate::System) holds a core at one channel over its
//! controller's module, [`ServeCluster`](crate::ServeCluster) holds one
//! at `C` channels over its multi-channel memory system, and every
//! [`ServeGrid`](crate::ServeGrid) node is a module plus a one-channel
//! core.
//!
//! A serve takes three steps:
//!
//! 1. [`ServeCore::place`] records each arena's cursor and each module's
//!    timing state, replicates the column into every unit's arena, carves
//!    the unit's bitset-lane, projection and group-by staging buffers
//!    behind it, and builds one persistent resilient driver per unit;
//! 2. [`ServeCore::env`] lends the devices, drivers and placement to the
//!    engine as a [`ServeEnv`];
//! 3. [`ServeCore::release`] resets every arena to its recorded cursor,
//!    returns every module to its recorded timing state and returns the
//!    drivers' counters.
//!
//! Every unit's arena replays the same allocation sequence, so the column
//! lands at the same rank-local address on every channel and node, and
//! the next serve reuses exactly the addresses this one released: a
//! machine serves any number of times without running out of simulated
//! memory. Its banks, ranks and buses start each serve where the first
//! one found them, so a reused machine serves a stream as it did before;
//! the DRAM counters keep counting across serves.

use crate::alloc::SimAlloc;
use crate::config::SystemConfig;
use jafar_common::obs::SharedTracer;
use jafar_core::api::DriverCosts;
use jafar_core::{DriverStats, JafarDevice, ResilienceConfig, ResilientDriver};
use jafar_dram::{DramModule, PhysAddr, TimingState};
use jafar_serve::engine::{out_lanes, ServeConfig, ServeEnv};
use jafar_serve::{ChannelRankPool, FilterPool, Workload};

/// Channels × NDP ranks of filter units, their devices and their arenas.
pub(crate) struct ServeCore {
    pub(crate) pool: ChannelRankPool,
    /// One device per unit (empty when the configuration has none).
    pub(crate) devices: Vec<JafarDevice>,
    /// `arenas[u]` allocates within rank `pool.unit(u).rank` of channel
    /// `pool.unit(u).channel`.
    pub(crate) arenas: Vec<SimAlloc>,
    costs: DriverCosts,
    page_bytes: u64,
}

/// One serve's placement: each unit's replica and buffers, the arena
/// cursors and module timing states to return to, and the unit's driver.
pub(crate) struct Placed {
    marks: Vec<PhysAddr>,
    /// Each channel's module as the serve found it.
    timing: Vec<TimingState>,
    replicas: Vec<PhysAddr>,
    outs: Vec<PhysAddr>,
    proj_outs: Vec<PhysAddr>,
    stage_outs: Vec<PhysAddr>,
    drivers: Vec<ResilientDriver>,
}

impl ServeCore {
    /// A core over `channels` modules of `cfg`'s DIMM. Every rank but the
    /// last is a unit; the last stays CPU-private, so host traffic always
    /// has somewhere to go while devices own their ranks.
    pub(crate) fn new(cfg: &SystemConfig, channels: usize) -> Self {
        let rank_bytes = cfg.dram_geometry.rank_bytes();
        let ranks = (cfg.dram_geometry.ranks as usize).saturating_sub(1).max(1);
        let pool = ChannelRankPool::new(channels, ranks);
        let units = pool.units();
        ServeCore {
            arenas: (0..units)
                .map(|u| SimAlloc::new(PhysAddr(pool.unit(u).rank as u64 * rank_bytes), rank_bytes))
                .collect(),
            devices: cfg.device.map_or_else(Vec::new, |d| {
                (0..units).map(|_| JafarDevice::new(d)).collect()
            }),
            pool,
            costs: cfg.driver,
            page_bytes: cfg.page_bytes,
        }
    }

    /// A resilient driver with this machine's per-invocation costs and
    /// page size, the rest of its recovery policy from `resilience`.
    pub(crate) fn driver(
        &self,
        resilience: ResilienceConfig,
        tracer: &SharedTracer,
    ) -> ResilientDriver {
        let mut driver = ResilientDriver::new(ResilienceConfig {
            costs: self.costs,
            page_bytes: self.page_bytes,
            ..resilience
        });
        driver.set_tracer(tracer.clone());
        driver
    }

    /// Places `values` for one serve of `workload`: the replica goes to
    /// every unit's arena, written into `modules[pool.unit(u).channel]`,
    /// followed by the unit's output buffers; one driver per unit. Each
    /// module's timing state is recorded for [`ServeCore::release`].
    ///
    /// # Panics
    /// Panics if the core has no devices, `values` is empty, or a unit's
    /// arena cannot hold the replica plus its buffers.
    pub(crate) fn place(
        &mut self,
        modules: &mut [&mut DramModule],
        values: &[i64],
        workload: &Workload,
        cfg: &ServeConfig,
        tracer: &SharedTracer,
    ) -> Placed {
        assert!(
            !self.devices.is_empty(),
            "serving requires a JAFAR device (SystemConfig::device)"
        );
        assert!(!values.is_empty(), "cannot serve an empty column");
        let rows = values.len() as u64;
        // One bitset lane per fuse slot, or per semi-join key range if
        // that is wider: the engine addresses lane `l` at
        // `out + l * stride` (see engine::lane_stride).
        let out_bytes = (rows.div_ceil(8).next_multiple_of(64) * out_lanes(cfg, workload)).max(64);
        let units = self.pool.units();
        let mut placed = Placed {
            marks: Vec::with_capacity(units),
            timing: modules.iter().map(|m| m.timing_state()).collect(),
            replicas: Vec::with_capacity(units),
            outs: Vec::with_capacity(units),
            proj_outs: Vec::with_capacity(units),
            stage_outs: Vec::with_capacity(units),
            drivers: (0..units)
                .map(|_| self.driver(cfg.resilience, tracer))
                .collect(),
        };
        for (u, arena) in self.arenas.iter_mut().enumerate() {
            placed.marks.push(arena.cursor());
            let replica = arena.alloc_blocks(rows * 8);
            modules[self.pool.unit(u).channel]
                .data_mut()
                .write_i64s(replica, values);
            placed.replicas.push(replica);
            placed.outs.push(arena.alloc_blocks(out_bytes));
            // Packed projection output: worst case every row qualifies.
            placed.proj_outs.push(arena.alloc_blocks(rows * 8));
            // Group-by staging: worst case every row lands on this unit,
            // each group padded to a 64-byte kernel boundary.
            placed.stage_outs.push(arena.alloc_blocks(rows * 8 + 64));
        }
        placed
    }

    /// The engine's view of this core for the serve `placed` was made
    /// for, over `modules` (one per channel).
    pub(crate) fn env<'a>(
        &'a mut self,
        placed: &'a mut Placed,
        modules: Vec<&'a mut DramModule>,
        values: &'a [i64],
        keys: &'a [i64],
        tracer: &'a SharedTracer,
    ) -> ServeEnv<'a> {
        ServeEnv {
            modules,
            pool: &self.pool,
            devices: &mut self.devices,
            drivers: &mut placed.drivers,
            replicas: &placed.replicas,
            outs: &placed.outs,
            proj_outs: &placed.proj_outs,
            values,
            keys,
            stage_outs: &placed.stage_outs,
            tracer,
        }
    }

    /// Ends the serve `placed` was made for: every arena returns to the
    /// cursor it had before [`ServeCore::place`], every one of `modules`
    /// (the ones `place` was given) to the timing state it had then, and
    /// the drivers' counters come back in unit order.
    pub(crate) fn release(
        &mut self,
        placed: Placed,
        modules: &mut [&mut DramModule],
    ) -> Vec<DriverStats> {
        for (arena, mark) in self.arenas.iter_mut().zip(placed.marks) {
            arena.reset_to(mark);
        }
        for (module, timing) in modules.iter_mut().zip(&placed.timing) {
            module.restore_timing(timing);
        }
        placed.drivers.iter().map(|d| *d.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ServeCluster, ServeGrid, System, SystemConfig};
    use jafar_common::check::forall;
    use jafar_common::obs::SharedTracer;
    use jafar_common::time::Tick;
    use jafar_dram::{DramGeometry, FaultPlan, PhysAddr};
    use jafar_net::{NetFabric, Placement};
    use jafar_serve::cluster::ClusterConfig;
    use jafar_serve::engine::ServeConfig;
    use jafar_serve::{
        uniform_keys, AggFn, PredicateMix, QueryOp, QueryRecord, SchedPolicy, Workload,
    };
    use std::collections::BTreeMap;

    const OPS: [QueryOp; 7] = [
        QueryOp::Select,
        QueryOp::SelectCount,
        QueryOp::GroupBy { agg: AggFn::Sum },
        QueryOp::SelectAgg(AggFn::Sum),
        QueryOp::Project { k: 2 },
        QueryOp::SelectAgg(AggFn::Min),
        QueryOp::GroupBy { agg: AggFn::Max },
    ];

    /// Four ranks of 256 KiB: three units per channel or node.
    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::test_small();
        cfg.dram_geometry = DramGeometry {
            ranks: 4,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        cfg
    }

    /// The three serving tiers behind one interface.
    enum Machine {
        Solo(Box<System>),
        Pool(ServeCluster),
        Grid(ServeGrid, NetFabric),
    }

    impl Machine {
        fn cursors(&self) -> Vec<PhysAddr> {
            let cores = match self {
                Machine::Solo(s) => vec![&s.core],
                Machine::Pool(c) => vec![&c.core],
                Machine::Grid(g, _) => g.nodes.iter().map(|n| &n.core).collect(),
            };
            cores
                .iter()
                .flat_map(|c| c.arenas.iter().map(|a| a.cursor()))
                .collect()
        }

        fn inject_outage(&mut self, rank: u32, seed: u64) {
            let plan = FaultPlan::none(seed).with_outage(rank, Tick::ZERO, Tick::MAX);
            match self {
                Machine::Solo(s) => s.inject_faults(plan),
                Machine::Pool(c) => c.inject_faults_on_channel(0, plan),
                Machine::Grid(g, _) => g.inject_faults_on_node(0, plan),
            }
        }

        fn clear_faults(&mut self) {
            match self {
                Machine::Solo(s) => s.clear_faults(),
                Machine::Pool(c) => c.clear_faults(),
                Machine::Grid(g, _) => g.clear_faults(),
            }
        }

        /// One serve's records, and whether any unit's health was
        /// disturbed.
        fn serve(
            &mut self,
            values: &[i64],
            keys: &[i64],
            workload: &Workload,
            cfg: &ServeConfig,
        ) -> (Vec<QueryRecord>, bool) {
            let policy = SchedPolicy::Fifo;
            let report = match self {
                Machine::Solo(s) => {
                    s.serve_with_keys(values, keys, workload, policy, cfg)
                        .report
                }
                Machine::Pool(c) => {
                    c.serve_with_keys(values, keys, workload, policy, cfg)
                        .report
                }
                Machine::Grid(g, fabric) => {
                    let placement = Placement::hot(g.nodes());
                    let ccfg = ClusterConfig::default();
                    let run = g.serve_with_keys(
                        values, keys, &placement, fabric, workload, policy, cfg, &ccfg,
                    );
                    let disturbed = run.report.nodes.iter().any(|n| n.availability.disturbed());
                    let records = run.report.queries.into_iter().map(|q| q.record);
                    return (records.collect(), disturbed);
                }
            };
            let disturbed = report.availability.disturbed();
            (report.records, disturbed)
        }
    }

    fn fold(f: AggFn, vals: impl Iterator<Item = i64>) -> Option<i64> {
        match f {
            AggFn::Sum => vals.reduce(i64::wrapping_add),
            AggFn::Min => vals.min(),
            AggFn::Max => vals.max(),
        }
    }

    /// Asserts a completed record returns what a host scan of the column
    /// returns.
    fn assert_matches_host(values: &[i64], keys: &[i64], rec: &QueryRecord) {
        let hits: Vec<usize> = (0..values.len())
            .filter(|&i| (rec.lo..=rec.hi).contains(&values[i]))
            .collect();
        let matching = || hits.iter().map(|&i| values[i]);
        assert_eq!(rec.matched, hits.len() as u64, "query {} count", rec.id);
        match rec.op {
            QueryOp::Select | QueryOp::Project { .. } => {
                let mut bytes = vec![0u8; values.len().div_ceil(8)];
                for &i in &hits {
                    bytes[i / 8] |= 1 << (i % 8);
                }
                assert_eq!(rec.bitset, bytes, "query {} bitset", rec.id);
                if let QueryOp::Project { .. } = rec.op {
                    assert_eq!(rec.projected, matching().collect::<Vec<_>>());
                }
            }
            QueryOp::SelectCount => assert_eq!(rec.agg, Some(hits.len() as i64)),
            QueryOp::SelectAgg(f) => assert_eq!(rec.agg, fold(f, matching())),
            QueryOp::GroupBy { agg } => {
                let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
                for &i in &hits {
                    groups.entry(keys[i]).or_default().push(values[i]);
                }
                let want: Vec<_> = groups
                    .into_iter()
                    .map(|(k, vs)| (k, vs.len() as u64, fold(agg, vs.into_iter())))
                    .collect();
                assert_eq!(rec.groups, want, "query {} groups", rec.id);
            }
            QueryOp::SemiJoin { .. } => unreachable!("the workload has no semi-joins"),
        }
    }

    /// A record's result fields, without its timing.
    fn results(r: &QueryRecord) -> impl PartialEq + std::fmt::Debug + '_ {
        (r.matched, &r.bitset, r.agg, &r.projected, &r.groups)
    }

    /// A reused machine serves a stream as it served it the first time:
    /// each serve starts from the banks, ranks and buses the first one
    /// found, so the reports agree to the tick. The grid's fabric is the
    /// caller's, so each grid serve gets a fresh one from the same seed.
    #[test]
    fn a_reused_machine_serves_a_stream_as_a_fresh_one_does() {
        let mut rng = jafar_common::rng::SplitMix64::new(0x2E05E);
        let values: Vec<i64> = (0..4096)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 300,
        };
        let workload = Workload::poisson(mix, 64, Tick::from_us(20), 0x3E3)
            .with_op_mix(&[QueryOp::Select, QueryOp::Project { k: 1 }]);
        let (cfg, policy) = (ServeConfig::default(), SchedPolicy::Fifo);

        let mut sys = System::new(SystemConfig::test_small());
        let first = sys.serve(&values, &workload, policy, &cfg).report;
        assert_eq!(first.completed(), 64);
        let again = sys.serve(&values, &workload, policy, &cfg).report;
        assert_eq!(again, first, "System");

        let mut cluster =
            ServeCluster::new(SystemConfig::test_small(), 2, SharedTracer::disabled())
                .expect("2 channels");
        let first = cluster.serve(&values, &workload, policy, &cfg).report;
        let again = cluster.serve(&values, &workload, policy, &cfg).report;
        assert_eq!(again, first, "ServeCluster/2");

        let mut grid = ServeGrid::new(SystemConfig::test_small(), 1, SharedTracer::disabled());
        let placement = Placement::hot(1);
        let serve = |grid: &mut ServeGrid| {
            let mut fabric = grid.fabric(0xFAB);
            let ccfg = ClusterConfig::default();
            grid.serve(
                &values,
                &placement,
                &mut fabric,
                &workload,
                policy,
                &cfg,
                &ccfg,
            )
            .report
        };
        let first = serve(&mut grid);
        let again = serve(&mut grid);
        assert_eq!(again, first, "ServeGrid/1");
    }

    /// K consecutive serves on each tier, the first under a rank outage:
    /// each serve hands every arena back at the cursor it found, every
    /// completed record matches a host scan, and the clean serves return
    /// the same results.
    #[test]
    fn every_tier_serves_any_number_of_times_without_leaking() {
        forall("repeat-serves", 8, |rng| {
            let serves = rng.next_range_inclusive(1, 16) as usize;
            let rows = rng.next_range_inclusive(3800, 4096) as usize;
            let values: Vec<i64> = (0..rows)
                .map(|_| rng.next_range_inclusive(0, 999))
                .collect();
            let keys = uniform_keys(rows, 12, rng.next_u64());
            let mix = PredicateMix::UniformRange {
                min: 0,
                max: 999,
                width: rng.next_range_inclusive(100, 600),
            };
            let gap = Tick::from_ns(rng.next_range_inclusive(500, 4000) as u64);
            let workload = Workload::poisson(mix, 8, gap, rng.next_u64()).with_op_mix(&OPS);
            let cfg = ServeConfig {
                fuse_window: if rng.next_bool(0.5) { 1 } else { 4 },
                ..ServeConfig::default()
            };
            let outage_rank = rng.next_below(3) as u32;
            let outage_seed = rng.next_u64();

            let grid = ServeGrid::new(config(), 2, SharedTracer::disabled());
            let fabric = grid.fabric(rng.next_u64());
            let machines = [
                Machine::Solo(Box::new(System::new(config()))),
                Machine::Pool(
                    ServeCluster::new(config(), 2, SharedTracer::disabled()).expect("2 channels"),
                ),
                Machine::Grid(grid, fabric),
            ];
            for mut machine in machines {
                let mut clean: Option<Vec<QueryRecord>> = None;
                machine.inject_outage(outage_rank, outage_seed);
                for serve in 0..serves {
                    let before = machine.cursors();
                    let (records, disturbed) = machine.serve(&values, &keys, &workload, &cfg);
                    assert_eq!(machine.cursors(), before, "serve {serve}: arenas released");
                    assert_eq!(
                        disturbed,
                        serve == 0,
                        "serve {serve}: only the outage disturbs"
                    );
                    for rec in records.iter().filter(|r| r.done.is_some()) {
                        assert_matches_host(&values, &keys, rec);
                    }
                    if serve == 0 {
                        machine.clear_faults();
                    } else if let Some(first) = &clean {
                        assert_eq!(
                            records.iter().map(results).collect::<Vec<_>>(),
                            first.iter().map(results).collect::<Vec<_>>(),
                            "serve {serve}: clean results"
                        );
                    } else {
                        clean = Some(records);
                    }
                }
            }
        });
    }
}
