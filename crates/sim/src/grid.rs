//! A multi-node serving grid over the deterministic cluster fabric.
//!
//! [`cluster::ServeCluster`](crate::cluster::ServeCluster) widens the
//! schedulable pool across memory *channels* inside one box; a
//! [`ServeGrid`] goes the other way and disaggregates it across `N`
//! memory **nodes**, each a self-contained single-DIMM serving machine —
//! its own DRAM module and fault injector plus the one-channel serving
//! core every tier shares — connected to a host frontend by a
//! [`jafar_net::NetFabric`] link and driven by
//! [`jafar_serve::cluster::run_cluster`].
//!
//! Every node replays the **identical node-local allocation sequence**:
//! the column replica, bitset buffer and projection buffer land at the
//! same node-local physical addresses on every node (the grid analogue
//! of `ServeCluster`'s identical channel-local layout), and return to
//! the arena after every serve. Combined with
//! the fabric's label-split jitter streams, a query served on node `k`
//! of an N-node grid runs byte-for-byte the device program it would run
//! on a single-node grid — which is what lets `tests/cluster_identity.rs`
//! assert per-record byte identity between cluster and solo runs.
//!
//! Fault domains are per node: [`ServeGrid::inject_faults_on_node`]
//! installs a plan on one node's module only, and the cluster report's
//! per-node availability ledgers stay confined to that node.

use crate::config::SystemConfig;
use crate::serving::ServeCore;
use jafar_common::obs::SharedTracer;
use jafar_core::DriverStats;
use jafar_dram::{DramModule, FaultInjector, FaultPlan, FaultStats};
use jafar_net::{NetFabric, Placement};
use jafar_serve::cluster::{cluster_fabric, run_cluster, ClusterConfig, ClusterEnv, ClusterReport};
use jafar_serve::engine::ServeConfig;
use jafar_serve::{FilterPool, SchedPolicy, Workload};

/// Result of a [`ServeGrid::serve`] run: the cluster report plus the
/// per-node recovery and fault counters.
#[derive(Clone, Debug)]
pub struct GridServeRun {
    /// Frontend-side per-query records, per-node summaries and the
    /// network ledger.
    pub report: ClusterReport,
    /// Per-node, per-unit recovery counters of the persistent drivers.
    pub recovery: Vec<Vec<DriverStats>>,
    /// Per-node injector counters (`None` for nodes with no plan).
    pub faults: Vec<Option<FaultStats>>,
}

/// One memory node's machine: a DIMM and the serving core over it. The
/// core's allocation sequence is identical on every node, so node-local
/// addresses replay exactly.
pub(crate) struct GridNode {
    module: DramModule,
    pub(crate) core: ServeCore,
}

/// `N` disaggregated memory nodes served behind one host frontend.
///
/// Built from the same [`SystemConfig`] as a [`crate::System`]: each
/// node gets its own DRAM module with the configured geometry/timing/
/// mapping, and — mirroring the single-DIMM convention — every rank but
/// the last is an NDP filter unit (the last stays CPU-private).
pub struct ServeGrid {
    pub(crate) nodes: Vec<GridNode>,
    tracer: SharedTracer,
}

impl ServeGrid {
    /// Assembles an `nodes`-node grid from `cfg`.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or `cfg` has no JAFAR device.
    pub fn new(cfg: SystemConfig, nodes: usize, tracer: SharedTracer) -> Self {
        assert!(nodes > 0, "a grid needs at least one memory node");
        assert!(
            cfg.device.is_some(),
            "serving requires a JAFAR device (SystemConfig::device)"
        );
        let nodes = (0..nodes)
            .map(|_| GridNode {
                module: DramModule::new(cfg.dram_geometry, cfg.dram_timing, cfg.mapping),
                core: ServeCore::new(&cfg, 1),
            })
            .collect();
        ServeGrid { nodes, tracer }
    }

    /// Number of memory nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// NDP filter units per node.
    pub fn units_per_node(&self) -> usize {
        self.nodes[0].core.pool.units()
    }

    /// The standard star fabric for this grid (one datacenter link per
    /// node plus the page-store link), jitter streams rooted at `seed`.
    pub fn fabric(&self, seed: u64) -> NetFabric {
        cluster_fabric(self.nodes.len(), seed)
    }

    /// Installs a fault plan on one node's module — the grid's fault
    /// domain is the node, so the plan cannot perturb any other node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn inject_faults_on_node(&mut self, node: usize, plan: FaultPlan) {
        self.nodes[node]
            .module
            .set_fault_injector(Some(FaultInjector::new(plan)));
    }

    /// Removes every node's fault injector.
    pub fn clear_faults(&mut self) {
        for node in &mut self.nodes {
            node.module.set_fault_injector(None);
        }
    }

    /// Serves `workload` across the grid: the column is replicated into
    /// every *holder* node's units (identical node-local addresses on
    /// every node), one persistent resilient driver is built per unit,
    /// and the frontend routes over `fabric` per `ccfg` while each node
    /// runs its own engine event loop. Every arena returns to its
    /// pre-serve cursor afterwards, and every node's module to its
    /// pre-serve timing state.
    ///
    /// Non-holder nodes still get the replica written (placement is a
    /// routing contract, not a storage optimisation in this model) so a
    /// placement change never changes any node's allocation replay.
    ///
    /// # Panics
    /// Panics if `values` is empty, a unit arena cannot hold a replica
    /// plus its buffers, the placement names a node outside the grid, or
    /// the workload is closed-loop.
    ///
    /// # Errors
    /// Surfaces the first node-engine invariant violation, exactly as
    /// [`jafar_serve::run_serve_checked`] would.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        values: &[i64],
        placement: &Placement,
        fabric: &mut NetFabric,
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
        ccfg: &ClusterConfig,
    ) -> GridServeRun {
        self.serve_with_keys(values, &[], placement, fabric, workload, policy, cfg, ccfg)
    }

    /// [`ServeGrid::serve`] with a key column alongside the value
    /// column, for workloads carrying keyed group-by queries. `keys`
    /// must be row-aligned with `values` (or empty when no query
    /// groups).
    #[allow(clippy::too_many_arguments)]
    pub fn serve_with_keys(
        &mut self,
        values: &[i64],
        keys: &[i64],
        placement: &Placement,
        fabric: &mut NetFabric,
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
        ccfg: &ClusterConfig,
    ) -> GridServeRun {
        let tracer = &self.tracer;
        let mut placed: Vec<_> = self
            .nodes
            .iter_mut()
            .map(|n| {
                n.core
                    .place(&mut [&mut n.module], values, workload, cfg, tracer)
            })
            .collect();
        let envs = self
            .nodes
            .iter_mut()
            .zip(&mut placed)
            .map(|(n, p)| n.core.env(p, vec![&mut n.module], values, keys, tracer))
            .collect();
        let report = run_cluster(
            ClusterEnv {
                nodes: envs,
                placement,
                fabric,
                tracer,
            },
            workload,
            policy,
            cfg,
            ccfg,
        )
        .unwrap_or_else(|inv| panic!("engine invariant violated: {inv}"));
        GridServeRun {
            report,
            recovery: self
                .nodes
                .iter_mut()
                .zip(placed)
                .map(|(n, p)| n.core.release(p, &mut [&mut n.module]))
                .collect(),
            faults: self
                .nodes
                .iter()
                .map(|n| n.module.fault_stats().copied())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jafar_common::rng::SplitMix64;
    use jafar_common::time::Tick;
    use jafar_serve::cluster::{RoutePolicy, Tier};
    use jafar_serve::PredicateMix;

    fn values(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_range_inclusive(0, 999)).collect()
    }

    fn reference_bytes(values: &[i64], lo: i64, hi: i64) -> Vec<u8> {
        let mut bytes = vec![0u8; values.len().div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            if v >= lo && v <= hi {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    #[test]
    fn grid_serves_byte_identically_across_nodes() {
        let vals = values(4096, 77);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        };
        let workload = Workload::poisson(mix, 8, Tick::from_us(3), 19);
        let mut grid = ServeGrid::new(SystemConfig::test_small(), 2, SharedTracer::disabled());
        assert_eq!(grid.nodes(), 2);
        let mut fabric = grid.fabric(0x91D);
        let run = grid.serve(
            &vals,
            &Placement::hot(2),
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig::default(),
            &ClusterConfig::default(),
        );
        assert_eq!(run.report.completed(), 8);
        assert_eq!(run.report.shed(), 0);
        for q in &run.report.queries {
            let rec = &q.record;
            assert_eq!(rec.bitset, reference_bytes(&vals, rec.lo, rec.hi));
        }
        assert!(run.report.nodes.iter().all(|n| n.routed > 0));
        assert_eq!(run.report.store_link.messages, 0);
        assert_eq!(run.recovery.len(), 2);
    }

    #[test]
    fn node_scoped_outage_is_confined_to_that_node() {
        let vals = values(4096, 31);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 300,
        };
        let workload = Workload::poisson(mix, 6, Tick::from_us(4), 47);
        let mut grid = ServeGrid::new(SystemConfig::test_small(), 2, SharedTracer::disabled());
        // Node 1's only NDP rank is dark for the whole run; blind
        // round-robin keeps routing to it anyway.
        grid.inject_faults_on_node(1, FaultPlan::none(5).with_outage(0, Tick::ZERO, Tick::MAX));
        let mut fabric = grid.fabric(0xDEAD);
        let run = grid.serve(
            &vals,
            &Placement::hot(2),
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig::default(),
            &ClusterConfig {
                route: RoutePolicy::RoundRobin,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(run.report.completed(), 6, "a dark node still answers");
        for q in &run.report.queries {
            assert_eq!(
                q.record.bitset,
                reference_bytes(&vals, q.record.lo, q.record.hi)
            );
        }
        assert!(run.report.nodes[1].availability.disturbed());
        assert!(
            !run.report.nodes[0].availability.disturbed(),
            "node 0 never sees node 1's outage"
        );
        assert!(
            run.report
                .queries
                .iter()
                .filter(|q| q.node == Some(0))
                .all(|q| q.tier == Tier::RemoteNdp),
            "node 0 keeps serving near-data"
        );
        assert!(
            run.faults[1].as_ref().is_some_and(|f| f.total() > 0),
            "node 1's injector rejected commands"
        );
        assert!(run.faults[0].is_none(), "node 0 has no injector");
    }
}
