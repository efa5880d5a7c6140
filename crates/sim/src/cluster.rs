//! A channels × ranks serving machine over the interleaved multi-channel
//! memory system.
//!
//! [`System::serve`](crate::System::serve) drives the serving engine over
//! one DIMM's rank vector; a [`ServeCluster`] widens the schedulable pool
//! across `C` memory channels (one [`jafar_memctl::MultiChannel`] channel
//! per [`jafar_dram::DramModule`]) behind a
//! [`jafar_serve::ChannelRankPool`]; both are the same serving core, held
//! at one channel and at `C`. Every channel carries the *same*
//! channel-local layout — replica, bitset buffer and projection buffer at
//! identical channel-local addresses, contiguous within the channel and
//! never word-interleaved across channels — so each unit's shard run is
//! byte-for-byte the run a single-channel machine would do, and the
//! engine's byte-identity guarantee carries over unchanged (asserted by
//! `tests/pool_identity.rs`).
//!
//! The channel count is validated through the same typed-error path as
//! `MultiChannel` itself: a non-power-of-two count comes back as
//! [`ChannelConfigError`] *and* is reported as an `ErrorSurfaced` trace
//! event on the cluster's tracer — the sim configuration path never
//! panics on bad user input.

use crate::config::SystemConfig;
use crate::serving::ServeCore;
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_core::DriverStats;
use jafar_dram::{DramModule, FaultInjector, FaultPlan, FaultStats};
use jafar_memctl::controller::MemoryController;
use jafar_memctl::{ChannelConfigError, MultiChannel};
use jafar_serve::engine::{run_serve, ServeConfig};
use jafar_serve::{ChannelRankPool, SchedPolicy, ServeReport, Workload};

/// Result of a [`ServeCluster::serve`] run: the engine's report plus the
/// per-unit recovery counters and per-channel fault counters.
#[derive(Clone, Debug)]
pub struct ClusterServeRun {
    /// Per-query records and latency/throughput aggregates.
    pub report: ServeReport,
    /// Per-unit recovery counters of the persistent drivers, in unit-id
    /// (channel-major) order.
    pub recovery: Vec<DriverStats>,
    /// Per-channel injector counters (`None` for channels with no plan).
    pub faults: Vec<Option<FaultStats>>,
}

/// `C` channels × `R` ranks of JAFAR filter units served as one pool.
///
/// Built from the same [`SystemConfig`] as a [`crate::System`]: each
/// channel gets its own memory controller and DRAM module with the
/// configured geometry/timing/mapping, every rank but the last per
/// channel is an NDP unit (the last stays CPU-private, mirroring the
/// single-DIMM convention), and unit ids are channel-major per
/// [`ChannelRankPool`].
pub struct ServeCluster {
    mc: MultiChannel,
    /// The units of every channel. Identical allocation sequences per
    /// channel keep channel-local addresses identical across channels.
    pub(crate) core: ServeCore,
    tracer: SharedTracer,
}

impl ServeCluster {
    /// Assembles a `channels`-channel cluster from `cfg`.
    ///
    /// # Errors
    /// [`ChannelConfigError::ChannelCountNotPow2`] when `channels` is
    /// zero or not a power of two — also reported as an `ErrorSurfaced
    /// { site: "serve-cluster" }` event on `tracer` so misconfigurations
    /// show up in the unified trace stream instead of a panic.
    ///
    /// # Panics
    /// Panics if `cfg` has no JAFAR device: a cluster without filter
    /// units cannot serve.
    pub fn new(
        cfg: SystemConfig,
        channels: usize,
        tracer: SharedTracer,
    ) -> Result<Self, ChannelConfigError> {
        assert!(
            cfg.device.is_some(),
            "serving requires a JAFAR device (SystemConfig::device)"
        );
        let controllers: Vec<MemoryController> = (0..channels)
            .map(|_| {
                MemoryController::new(
                    DramModule::new(cfg.dram_geometry, cfg.dram_timing, cfg.mapping),
                    cfg.controller,
                )
            })
            .collect();
        let mc = match MultiChannel::new(controllers) {
            Ok(mc) => mc,
            Err(e) => {
                tracer.emit(
                    jafar_common::time::Tick::ZERO,
                    EventKind::ErrorSurfaced {
                        site: "serve-cluster",
                        detail: "channel-count-not-pow2",
                    },
                );
                return Err(e);
            }
        };
        Ok(ServeCluster {
            core: ServeCore::new(&cfg, channels),
            mc,
            tracer,
        })
    }

    /// The pool topology this cluster schedules over.
    pub fn pool(&self) -> &ChannelRankPool {
        &self.core.pool
    }

    /// Number of memory channels.
    pub fn channels(&self) -> usize {
        self.mc.num_channels()
    }

    /// Installs a fault plan on one channel's module. Rank scopes within
    /// the plan are channel-local, so a rank-scoped fault confines itself
    /// to the single pool unit `{channel, rank}`.
    pub fn inject_faults_on_channel(&mut self, channel: usize, plan: FaultPlan) {
        self.mc
            .channel_mut(channel)
            .module_mut()
            .set_fault_injector(Some(FaultInjector::new(plan)));
    }

    /// Removes every channel's fault injector.
    pub fn clear_faults(&mut self) {
        for ch in 0..self.mc.num_channels() {
            self.mc
                .channel_mut(ch)
                .module_mut()
                .set_fault_injector(None);
        }
    }

    /// Serves `workload` over the full channels × ranks pool: the column
    /// is replicated into every unit's arena (identical channel-local
    /// addresses on every channel), one persistent resilient driver is
    /// built per unit, and the engine schedules across all channels in
    /// one event loop — rescued shards may migrate across channels.
    /// Every arena returns to its pre-serve cursor afterwards, and every
    /// module to its pre-serve timing state.
    ///
    /// # Panics
    /// Panics if `values` is empty or a unit arena cannot hold a replica
    /// plus its output buffers.
    pub fn serve(
        &mut self,
        values: &[i64],
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
    ) -> ClusterServeRun {
        self.serve_with_keys(values, &[], workload, policy, cfg)
    }

    /// [`ServeCluster::serve`] with a key column alongside the value
    /// column, for workloads carrying keyed group-by queries. `keys`
    /// must be row-aligned with `values` (or empty when no query
    /// groups).
    pub fn serve_with_keys(
        &mut self,
        values: &[i64],
        keys: &[i64],
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
    ) -> ClusterServeRun {
        let mut modules = self.mc.modules_mut();
        let mut placed = self
            .core
            .place(&mut modules, values, workload, cfg, &self.tracer);
        let report = run_serve(
            self.core
                .env(&mut placed, modules, values, keys, &self.tracer),
            workload,
            policy,
            cfg,
        );
        ClusterServeRun {
            report,
            recovery: self.core.release(placed, &mut self.mc.modules_mut()),
            faults: (0..self.mc.num_channels())
                .map(|ch| self.mc.channel(ch).module().fault_stats().copied())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jafar_common::rng::SplitMix64;
    use jafar_common::time::Tick;
    use jafar_serve::{FilterPool, PredicateMix};

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
    fn non_pow2_channel_count_is_surfaced_not_panicked() {
        let (tracer, ring) = SharedTracer::ring(16);
        let got = ServeCluster::new(SystemConfig::test_small(), 3, tracer);
        assert!(matches!(
            got,
            Err(ChannelConfigError::ChannelCountNotPow2 { got: 3 })
        ));
        let events = ring.borrow().snapshot();
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::ErrorSurfaced {
                    site: "serve-cluster",
                    ..
                }
            )),
            "the config error must reach the trace stream"
        );
    }

    #[test]
    fn two_channel_cluster_serves_bit_identically() {
        let vals = values(4096, 71);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        };
        let workload = Workload::poisson(mix, 6, Tick::from_us(2), 13);
        let mut cluster =
            ServeCluster::new(SystemConfig::test_small(), 2, SharedTracer::disabled())
                .expect("2 channels");
        assert_eq!(cluster.channels(), 2);
        let run = cluster.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(run.report.completed(), 6);
        for rec in &run.report.records {
            assert_eq!(rec.bitset, reference_bytes(&vals, rec.lo, rec.hi));
        }
        assert_eq!(
            run.report.availability.units.len(),
            cluster.pool().units(),
            "one availability record per unit"
        );
    }

    #[test]
    fn channel_scoped_fault_confines_to_one_unit() {
        let vals = values(4096, 29);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 300,
        };
        let workload = Workload::poisson(mix, 4, Tick::from_us(3), 43);
        let mut cluster =
            ServeCluster::new(SystemConfig::test_small(), 2, SharedTracer::disabled())
                .expect("2 channels");
        // Kill channel 1's rank 0 — exactly one pool unit.
        let sick = cluster.pool().id_of(1, 0).expect("in-shape unit");
        cluster
            .inject_faults_on_channel(1, FaultPlan::none(7).with_outage(0, Tick::ZERO, Tick::MAX));
        let run = cluster.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(run.report.completed(), 4);
        for rec in &run.report.records {
            assert_eq!(rec.bitset, reference_bytes(&vals, rec.lo, rec.hi));
        }
        let a = &run.report.availability;
        assert!(a.units[sick].quarantines >= 1, "the sick unit quarantined");
        for (u, rec) in a.units.iter().enumerate() {
            if u != sick {
                assert_eq!(rec.quarantines, 0, "unit {u} undisturbed");
            }
        }
        // The serve path hits a dark rank at session setup (the NDP
        // ownership handoff is a ModeRegisterSet), so the outage shows up
        // as MRS rejections rather than read-burst blackouts.
        assert!(
            run.faults[1].as_ref().is_some_and(|f| f.total() > 0),
            "channel 1's outage rejected the unit's commands"
        );
        assert!(run.faults[0].is_none(), "channel 0 has no injector");
    }
}
