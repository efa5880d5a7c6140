//! The assembled system and the two select paths of Figure 3.
//!
//! A [`System`] is one host (core + caches + memory controller + DDR3
//! module) with an optional JAFAR device on the DIMM. The two measured
//! paths:
//!
//! - [`System::run_select_cpu`]: the baseline — the scan kernel streams
//!   the column through the cache hierarchy, recording positions;
//! - [`System::run_select_jafar`]: the pushdown — the query manager
//!   drains the controller, then the resilient driver grants rank
//!   ownership via MR3/MPR, invokes `select_jafar` once per (huge) page,
//!   polling the completion flag, and finally releases the rank.
//!
//! Both runs are preceded by the same fixed query-setup overhead
//! (planning, allocation, result finalisation) so the in-text "93% of
//! execution time is inside the accelerated region" accounting can be
//! reproduced.

use crate::alloc::SimAlloc;
use crate::backend::SimBackend;
use crate::config::SystemConfig;
use crate::serving::ServeCore;
use jafar_cache::{Hierarchy, StreamPrefetcher};
use jafar_common::bitset::BitSet;
use jafar_common::obs::{
    chrome_trace_json, render_timeline, Event, MetricsRegistry, RingTracer, SharedTracer,
};
use jafar_common::stats::Scoreboard;
use jafar_common::time::Tick;
use jafar_core::{
    run_select_parallel, DriverStats, JafarDevice, ResilienceConfig, ResilientDriver,
    SelectRequest, ShardRun,
};
use jafar_cpu::{ScanEngine, ScanVariant};
use jafar_dram::{DramModule, FaultInjector, FaultPlan, FaultStats, PhysAddr};
use jafar_memctl::controller::MemoryController;
use jafar_memctl::IdleReport;
use jafar_serve::engine::{run_serve, ServeConfig};
use jafar_serve::{SchedPolicy, ServeReport, Workload};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Result of a CPU-only select run.
#[derive(Clone, Debug)]
pub struct CpuSelectStats {
    /// End of the run (including setup overhead).
    pub end: Tick,
    /// Matching rows.
    pub matches: u64,
    /// Matching positions (functional result).
    pub positions: Vec<u32>,
    /// Time inside the scan kernel (the "accelerated region" in the
    /// pushdown comparison).
    pub kernel: Tick,
    /// Fixed query-setup/driver time outside the kernel.
    pub driver: Tick,
    /// Kernel time lost to memory stalls.
    pub stall: Tick,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// 64-byte lines moved over the memory bus to the CPU.
    pub lines_from_dram: u64,
}

/// Result of a JAFAR pushdown select run.
#[derive(Clone, Debug)]
pub struct JafarSelectStats {
    /// End of the run (ownership released, results visible).
    pub end: Tick,
    /// Matching rows.
    pub matched: u64,
    /// Physical address of the output bitset.
    pub out_addr: PhysAddr,
    /// Time the device spent filtering/writing (the accelerated region).
    pub device: Tick,
    /// Host driver time: register programming + completion discovery.
    pub driver: Tick,
    /// CPU time burned spin-waiting (zero under interrupt completion —
    /// the §2.2 utilization trade-off).
    pub cpu_wait: Tick,
    /// Ownership handoff time (grant + release).
    pub ownership: Tick,
    /// Fixed query-setup time.
    pub setup: Tick,
    /// `select_jafar` invocations (pages).
    pub pages: u64,
    /// Bursts the device read on the DIMM during this run (never
    /// crossing the bus).
    pub device_bursts_read: u64,
}

/// Result of a resilient JAFAR pushdown run under (possible) fault
/// injection: the [`JafarSelectStats`]-shaped timing plus the recovery and
/// fault counters the run report is built from.
#[derive(Clone, Debug)]
pub struct ResilientSelectStats {
    /// End of the run (ownership released, results visible).
    pub end: Tick,
    /// Matching rows.
    pub matched: u64,
    /// Physical address of the output bitset.
    pub out_addr: PhysAddr,
    /// `select_jafar` invocations plus CPU fallback pages.
    pub pages: u64,
    /// CPU time burned spin-waiting (polling and watchdog windows).
    pub cpu_wait: Tick,
    /// Time inside successful device page runs.
    pub device: Tick,
    /// Host driver time: setup, completion discovery, backoff waits.
    pub driver: Tick,
    /// What the recovery machinery did.
    pub recovery: DriverStats,
    /// What the injector did (absent when no plan was installed).
    pub faults: Option<FaultStats>,
}

impl ResilientSelectStats {
    /// The run report: one line of outcome, one of recovery counters, one
    /// of injected-fault counters — "what it cost" under the fault plan.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "resilient select: end={} matched={} pages={} cpu_wait={}",
            self.end, self.matched, self.pages, self.cpu_wait
        );
        let _ = writeln!(out, "  recovery: {}", self.recovery.scoreboard());
        match &self.faults {
            Some(f) => {
                let _ = writeln!(out, "  faults injected: {}", f.scoreboard());
            }
            None => {
                let _ = writeln!(out, "  faults injected: (no plan installed)");
            }
        }
        out
    }

    /// All counters (recovery + faults) as one scoreboard.
    pub fn scoreboard(&self) -> Scoreboard {
        let mut board = self.recovery.scoreboard();
        if let Some(f) = &self.faults {
            board.merge(&f.scoreboard());
        }
        board
    }
}

/// One shard of a rank-partitioned column: a contiguous run of rows
/// living entirely on one rank, so one device can filter it while its
/// siblings work on other ranks.
#[derive(Clone, Copy, Debug)]
pub struct ColumnShard {
    /// The rank the shard's data (and its output bitset) live on.
    pub rank: u32,
    /// 64-byte-aligned base of the shard's packed `i64` rows.
    pub addr: PhysAddr,
    /// Rows in this shard.
    pub rows: u64,
    /// Index of the shard's first row within the whole column. Always a
    /// multiple of the rows-per-DRAM-row (and hence of 8), so the merged
    /// bitset can be assembled byte-at-a-time.
    pub row_offset: u64,
}

/// A column striped across K ranks on DRAM-row-aligned boundaries.
#[derive(Clone, Debug)]
pub struct PartitionedColumn {
    /// The shards, in row order; `shards[i]` lives on rank `i`.
    pub shards: Vec<ColumnShard>,
    /// Total rows across all shards.
    pub rows: u64,
}

/// Result of a rank-parallel JAFAR pushdown run.
#[derive(Clone, Debug)]
pub struct ParallelSelectStats {
    /// When the slowest shard finished (ownership released everywhere).
    pub end: Tick,
    /// Matching rows across all shards.
    pub matched: u64,
    /// The merged selection vector over the whole column.
    pub selection: BitSet,
    /// Per-shard timings, in shard order.
    pub shards: Vec<ShardRun>,
    /// Per-shard recovery counters, in shard order.
    pub recovery: Vec<DriverStats>,
    /// What the injector did (absent when no plan was installed).
    pub faults: Option<FaultStats>,
}

/// Result of a [`System::serve`] run: the engine's per-query report plus
/// the machinery counters the report alone cannot carry.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// Per-query records and latency/throughput aggregates.
    pub report: ServeReport,
    /// Per-rank recovery counters of the persistent drivers, in rank
    /// order — under a rank-scoped fault plan the sick rank's ladder
    /// activity shows up here.
    pub recovery: Vec<DriverStats>,
    /// What the injector did (absent when no plan was installed).
    pub faults: Option<FaultStats>,
}

/// One simulated host system.
pub struct System {
    cfg: SystemConfig,
    mc: MemoryController,
    hierarchy: Hierarchy,
    prefetcher: Option<StreamPrefetcher>,
    inflight: HashMap<u64, Tick>,
    /// The NDP ranks at one channel: unit `r` is rank `r`, with its device
    /// and an arena over the rank's pinned, device-consumable region.
    pub(crate) core: ServeCore,
    /// Allocator over the last rank (CPU-private scratch).
    pub scratch: SimAlloc,
    tracer: SharedTracer,
    trace_ring: Option<Rc<RefCell<RingTracer>>>,
}

impl System {
    /// Builds a system from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        let module = DramModule::new(cfg.dram_geometry, cfg.dram_timing, cfg.mapping);
        let core = ServeCore::new(&cfg, 1);
        let ndp_bytes = core.pool.ranks_per_channel() as u64 * cfg.dram_geometry.rank_bytes();
        System {
            mc: MemoryController::new(module, cfg.controller),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            prefetcher: cfg.prefetcher.map(|(n, d)| StreamPrefetcher::new(n, d)),
            inflight: HashMap::new(),
            core,
            scratch: SimAlloc::new(
                PhysAddr(ndp_bytes),
                cfg.dram_geometry.capacity_bytes() - ndp_bytes,
            ),
            cfg,
            tracer: SharedTracer::disabled(),
            trace_ring: None,
        }
    }

    /// Turns on cycle-stamped event tracing across every instrumented
    /// component (DRAM module, memory controller, JAFAR device, resilient
    /// driver), backed by a bounded ring holding the `capacity` most
    /// recent events. Purely observational: enabling tracing never changes
    /// a simulated tick count (asserted by `tracer_does_not_change_timing`).
    pub fn enable_tracing(&mut self, capacity: usize) {
        let (tracer, ring) = SharedTracer::ring(capacity);
        self.mc.set_tracer(tracer.clone());
        for device in &mut self.core.devices {
            device.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
        self.trace_ring = Some(ring);
    }

    /// Snapshot of the recorded events, oldest first. Empty when tracing
    /// was never enabled.
    pub fn trace_events(&self) -> Vec<Event> {
        self.trace_ring
            .as_ref()
            .map(|r| r.borrow().snapshot())
            .unwrap_or_default()
    }

    /// The recorded events as Chrome `trace_event` JSON (load the string
    /// at `chrome://tracing` or in Perfetto). `None` when tracing was
    /// never enabled. Same seed, same run → byte-identical output.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace_ring
            .as_ref()
            .map(|r| chrome_trace_json(&r.borrow().snapshot()))
    }

    /// The recorded events as a human-readable timeline, one line per
    /// event. `None` when tracing was never enabled.
    pub fn trace_timeline(&self) -> Option<String> {
        self.trace_ring
            .as_ref()
            .map(|r| render_timeline(&r.borrow().snapshot()))
    }

    /// Snapshots every counter in the stack — DRAM module, memory
    /// controller, device, fault injector, and the trace ring itself —
    /// into one ordered [`MetricsRegistry`] for unified run reports.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let dram = self.mc.module().stats();
        reg.counter("dram.row_hits", dram.row_hits.get());
        reg.counter("dram.row_misses", dram.row_misses.get());
        reg.counter("dram.row_conflicts", dram.row_conflicts.get());
        reg.counter("dram.read_bursts", dram.read_bursts.get());
        reg.counter("dram.write_bursts", dram.write_bursts.get());
        reg.counter("dram.refreshes", dram.refreshes.get());
        reg.counter("dram.mode_sets", dram.mode_sets.get());
        reg.counter("dram.ownership_rejections", dram.ownership_rejections.get());
        let mc = self.mc.counters();
        reg.counter("memctl.reads", mc.reads.get());
        reg.counter("memctl.writes", mc.writes.get());
        reg.counter("memctl.rejected", mc.rejected.get());
        reg.counter("memctl.requeued", mc.requeued.get());
        if !self.core.devices.is_empty() {
            // One logical "device" line summed across the per-rank devices.
            let (mut jobs, mut words, mut reads, mut writes) = (0u64, 0u64, 0u64, 0u64);
            for device in &self.core.devices {
                let d = device.stats();
                jobs += d.jobs.get();
                words += d.words.get();
                reads += d.bursts_read.get();
                writes += d.bursts_written.get();
            }
            reg.counter("device.jobs", jobs);
            reg.counter("device.words", words);
            reg.counter("device.bursts_read", reads);
            reg.counter("device.bursts_written", writes);
        }
        if let Some(f) = self.mc.module().fault_stats() {
            reg.counter("faults.flips_injected", f.flips_injected.get());
            reg.counter("faults.ecc_corrected", f.ecc_corrected.get());
            reg.counter("faults.ecc_uncorrectable", f.ecc_uncorrectable.get());
            reg.counter("faults.stalls", f.stalls.get());
            reg.counter("faults.drops", f.drops.get());
            reg.counter("faults.mrs_glitches", f.mrs_glitches.get());
            reg.counter("faults.refresh_storms", f.refresh_storms.get());
        }
        if let Some(ring) = self.trace_ring.as_ref() {
            let ring = ring.borrow();
            reg.counter("trace.emitted", ring.emitted());
            reg.counter("trace.dropped", ring.dropped());
        }
        reg
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory controller (counters, idle reports).
    pub fn mc(&self) -> &MemoryController {
        &self.mc
    }

    /// Mutable controller access (experiment plumbing).
    pub fn mc_mut(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// The rank-0 JAFAR device, if configured.
    pub fn device(&self) -> Option<&JafarDevice> {
        self.core.devices.first()
    }

    /// All per-rank devices (empty when the config has no device).
    pub fn devices(&self) -> &[JafarDevice] {
        &self.core.devices
    }

    /// The rank-0 NDP arena (the region [`System::write_column`] pins
    /// into).
    pub fn alloc(&mut self) -> &mut SimAlloc {
        &mut self.core.arenas[0]
    }

    /// Allocates a column in the pinned (rank-0) region and writes its
    /// values functionally. Returns the base address.
    pub fn write_column(&mut self, values: &[i64]) -> PhysAddr {
        let addr = self.core.arenas[0].alloc_blocks(values.len() as u64 * 8);
        self.mc.module_mut().data_mut().write_i64s(addr, values);
        addr
    }

    /// Stripes a column across (up to) `k` NDP ranks on DRAM-row-aligned
    /// boundaries and writes the shards functionally: shard `i` lives in
    /// rank `i`'s arena. Row alignment keeps every shard's first row on a
    /// byte boundary of the merged bitset, so results concatenate without
    /// bit shifting. Columns smaller than `k` aligned chunks produce fewer
    /// shards.
    ///
    /// # Panics
    /// Panics if `values` is empty, `k` is zero, or `k` exceeds the number
    /// of NDP ranks.
    pub fn write_column_partitioned(&mut self, values: &[i64], k: usize) -> PartitionedColumn {
        assert!(!values.is_empty(), "cannot partition an empty column");
        assert!(k >= 1, "need at least one shard");
        let arenas = &mut self.core.arenas;
        assert!(
            k <= arenas.len(),
            "{k} shards but only {} NDP rank(s)",
            arenas.len()
        );
        let rows = values.len() as u64;
        let rows_per_dram_row = self.cfg.dram_geometry.row_bytes as u64 / 8;
        let chunk = rows.div_ceil(k as u64).div_ceil(rows_per_dram_row) * rows_per_dram_row;
        let mut shards = Vec::new();
        let mut offset = 0u64;
        while offset < rows {
            let i = shards.len();
            let len = chunk.min(rows - offset);
            let addr = arenas[i].alloc_blocks(len * 8);
            self.mc
                .module_mut()
                .data_mut()
                .write_i64s(addr, &values[offset as usize..(offset + len) as usize]);
            shards.push(ColumnShard {
                rank: i as u32,
                addr,
                rows: len,
                row_offset: offset,
            });
            offset += len;
        }
        PartitionedColumn { shards, rows }
    }

    /// A CPU memory backend for independent streaming access (scans): the
    /// out-of-order window hides cache-hit latency.
    pub fn backend(&mut self) -> SimBackend<'_> {
        SimBackend::new(
            &mut self.mc,
            &mut self.hierarchy,
            self.prefetcher.as_mut(),
            &mut self.inflight,
            self.cfg.cpu_clock,
        )
        .streaming()
    }

    /// A CPU memory backend for dependent access chains (hash probes,
    /// gathers): every hit pays its full cache-traversal latency.
    pub fn backend_dependent(&mut self) -> SimBackend<'_> {
        SimBackend::new(
            &mut self.mc,
            &mut self.hierarchy,
            self.prefetcher.as_mut(),
            &mut self.inflight,
            self.cfg.cpu_clock,
        )
    }

    /// Installs a seeded fault plan on the DRAM module. Subsequent runs —
    /// device or host — see its bit flips, stalls, glitches and storms.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.mc
            .module_mut()
            .set_fault_injector(Some(FaultInjector::new(plan)));
    }

    /// Removes any installed fault injector, restoring fault-free
    /// operation for subsequent runs.
    pub fn clear_faults(&mut self) {
        self.mc.module_mut().set_fault_injector(None);
    }

    /// Counters of what the installed injector actually did, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.mc.module().fault_stats()
    }

    /// Resets memory-controller accounting (between measured phases).
    pub fn begin_measurement(&mut self) {
        self.mc.reset_accounting();
    }

    /// Finalises controller accounting into the Figure-4 idle report over
    /// `[0, span)`.
    pub fn idle_report(&self, span: Tick) -> IdleReport {
        self.mc.finalize(span)
    }

    /// Runs the CPU-only select of `rows` packed `i64`s at `col_addr`,
    /// with the inclusive range `[lo, hi]`, writing the position list to
    /// scratch memory.
    ///
    /// # Errors
    /// [`jafar_cpu::MemoryFault`] if the column (or the scratch output)
    /// extends beyond simulated DRAM capacity — a placement error surfaced
    /// as a typed fault rather than a backend panic.
    pub fn run_select_cpu(
        &mut self,
        col_addr: PhysAddr,
        rows: u64,
        lo: i64,
        hi: i64,
        variant: ScanVariant,
        start: Tick,
    ) -> Result<CpuSelectStats, jafar_cpu::MemoryFault> {
        let setup = self.cfg.query_overhead;
        let out_addr = self.scratch.alloc_blocks(rows.max(1) * 4);
        let engine = ScanEngine::new(self.cfg.cpu_clock, self.cfg.kernel);
        let spec = jafar_cpu::engine::ScanSpec {
            col_addr: col_addr.0,
            rows,
            lo,
            hi,
            out_addr: out_addr.0,
            variant,
        };
        let kernel_start = start + setup;
        let mut backend = self.backend();
        let result = engine.run(&mut backend, spec, kernel_start);
        let lines = backend.demand_fetches;
        // Flush outstanding writebacks/RFOs (timing accounted in MC) even
        // when the scan faulted partway through.
        self.mc.drain();
        let result = result?;
        Ok(CpuSelectStats {
            end: result.end,
            matches: result.matches,
            positions: result.positions,
            kernel: result.end - kernel_start,
            driver: setup,
            stall: result.stall,
            mispredicts: result.mispredicts,
            lines_from_dram: lines,
        })
    }

    /// Runs the JAFAR pushdown select: ownership handoff, per-page
    /// `select_jafar` invocations with completion polling, release. This
    /// is [`System::run_select_jafar_resilient`] under the default
    /// recovery policy, whose ladder an undisturbed run never enters.
    ///
    /// # Panics
    /// Panics if the system has no device.
    pub fn run_select_jafar(
        &mut self,
        col_addr: PhysAddr,
        rows: u64,
        lo: i64,
        hi: i64,
        start: Tick,
    ) -> JafarSelectStats {
        // The device's counter spans its lifetime; the run reports its own.
        let bursts_before = self
            .core
            .devices
            .first()
            .map_or(0, |d| d.stats().bursts_read.get());
        let run = self.run_select_jafar_resilient(
            col_addr,
            rows,
            lo,
            hi,
            start,
            ResilienceConfig::default(),
        );
        let setup = self.cfg.query_overhead;
        JafarSelectStats {
            end: run.end,
            matched: run.matched,
            out_addr: run.out_addr,
            device: run.device,
            driver: run.driver,
            cpu_wait: run.cpu_wait,
            // Each page advances the clock by its device time plus its
            // driver time, so the rest of the run is the grant and the
            // release.
            ownership: run.end - start - setup - run.device - run.driver,
            setup,
            pages: run.pages,
            device_bursts_read: self.core.devices[0].stats().bursts_read.get() - bursts_before,
        }
    }

    /// Runs the JAFAR pushdown select under the resilient driver: expiring
    /// leases with renewal, watchdog timeouts, bounded retry/backoff, a
    /// circuit breaker and a CPU-scan fallback. Under any seeded plan the
    /// bitset still equals the software reference and the returned
    /// [`ResilientSelectStats::report`] says what it cost.
    ///
    /// The per-invocation costs and the page size come from the system
    /// config; the rest of the recovery policy from `resilience`.
    ///
    /// # Panics
    /// Panics if the system has no device.
    pub fn run_select_jafar_resilient(
        &mut self,
        col_addr: PhysAddr,
        rows: u64,
        lo: i64,
        hi: i64,
        start: Tick,
        resilience: ResilienceConfig,
    ) -> ResilientSelectStats {
        assert!(!self.core.devices.is_empty(), "system has no JAFAR device");
        let out_addr = self.core.arenas[0].alloc_blocks(rows.div_ceil(8).max(64));
        let mut driver = self.core.driver(resilience, &self.tracer);

        let t = start + self.cfg.query_overhead;
        // Quiesce host traffic before the first grant.
        self.mc.drain();
        self.mc.advance_cursor(t);
        let module = self.mc.module_mut();
        let device = self.core.devices.first_mut().expect("checked above");
        let run = driver.run_select(
            device,
            module,
            SelectRequest {
                col_addr,
                rows,
                lo,
                hi,
                out_addr,
            },
            t,
        );
        self.mc.advance_cursor(run.end);

        ResilientSelectStats {
            end: run.end,
            matched: run.matched,
            out_addr,
            pages: run.pages,
            cpu_wait: run.cpu_wait,
            device: run.device,
            driver: run.driver,
            recovery: *driver.stats(),
            faults: self.mc.module().fault_stats().copied(),
        }
    }

    /// Runs the rank-parallel JAFAR pushdown select over a partitioned
    /// column: K independent leases, K devices filtering concurrently on
    /// their own ranks, per-shard resilient drivers (a faulty rank falls
    /// back to the CPU scan on its own timeline without stalling its
    /// siblings), and the per-rank bitsets merged into one selection
    /// vector. With a single shard this is the resilient single-device
    /// path.
    ///
    /// # Panics
    /// Panics if the column has no shards or more shards than the system
    /// has devices.
    pub fn run_select_jafar_parallel(
        &mut self,
        col: &PartitionedColumn,
        lo: i64,
        hi: i64,
        start: Tick,
        resilience: ResilienceConfig,
    ) -> ParallelSelectStats {
        let k = col.shards.len();
        assert!(k >= 1, "partitioned column has no shards");
        assert!(
            k <= self.core.devices.len(),
            "{k} shards but only {} device(s)",
            self.core.devices.len()
        );
        // Each shard's output bitset lives in its own rank's arena — the
        // device requires its output on the rank it owns.
        let reqs: Vec<SelectRequest> = col
            .shards
            .iter()
            .map(|s| SelectRequest {
                col_addr: s.addr,
                rows: s.rows,
                lo,
                hi,
                out_addr: self.core.arenas[s.rank as usize]
                    .alloc_blocks(s.rows.div_ceil(8).max(64)),
            })
            .collect();

        let t = start + self.cfg.query_overhead;
        // Quiesce host traffic before the grants, as the single-device
        // paths do.
        self.mc.drain();
        self.mc.advance_cursor(t);
        let mut drivers: Vec<ResilientDriver> = (0..k)
            .map(|_| self.core.driver(resilience, &self.tracer))
            .collect();
        let run = run_select_parallel(
            &mut drivers,
            &mut self.core.devices[..k],
            self.mc.module_mut(),
            &reqs,
            t,
            &self.tracer,
        );
        self.mc.advance_cursor(run.end);

        // Merge the per-rank bitsets into one selection vector. Row-aligned
        // striping puts every shard's first row on a byte boundary, so this
        // is a straight byte copy; `from_bytes` masks the final shard's
        // padding bits.
        let mut bytes = vec![0u8; col.rows.div_ceil(8) as usize];
        for (s, req) in col.shards.iter().zip(&reqs) {
            debug_assert_eq!(s.row_offset % 8, 0, "striping must be byte-aligned");
            let nbytes = s.rows.div_ceil(8) as usize;
            let at = (s.row_offset / 8) as usize;
            self.mc
                .module()
                .data()
                .read(req.out_addr, &mut bytes[at..at + nbytes]);
        }
        let selection = BitSet::from_bytes(&bytes, col.rows as usize);

        ParallelSelectStats {
            end: run.end,
            matched: run.matched,
            selection,
            shards: run.shards,
            recovery: drivers.iter().map(|d| *d.stats()).collect(),
            faults: self.mc.module().fault_stats().copied(),
        }
    }

    /// Serves a stream of select, scalar-aggregate and projection
    /// queries over `values` through the `jafar-serve` engine: the
    /// column is replicated into every NDP
    /// rank's arena (so any query can shard onto any free rank), one
    /// *persistent* resilient driver is built per rank — its circuit-
    /// breaker state spans queries, which is what lets the rank-affinity
    /// policy steer load away from a sick rank — and the workload runs
    /// through admission control, the scheduling policy and the SLO
    /// degradation ladder. See [`jafar_serve::engine`] for the queue
    /// model and the determinism argument. Every arena returns to its
    /// pre-serve cursor afterwards, and the module to its pre-serve
    /// timing state, so a system serves any number of times, each serve
    /// timed as the first.
    ///
    /// Unlike the single-query paths, no per-query
    /// [`SystemConfig::query_overhead`] is charged: a serving system
    /// amortizes planning/setup across the stream, and the degraded CPU
    /// rung's fixed cost is modelled by [`ServeConfig::cpu_fixed`]
    /// instead. Driver costs and page size still come from this system's
    /// config; the rest of the recovery policy from `cfg.resilience`.
    ///
    /// # Panics
    /// Panics if the config has no JAFAR device, `values` is empty, or a
    /// rank arena cannot hold a replica plus its bitset and projection
    /// output buffers.
    pub fn serve(
        &mut self,
        values: &[i64],
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
    ) -> ServeRun {
        self.serve_with_keys(values, &[], workload, policy, cfg)
    }

    /// [`System::serve`] with a key column alongside the value column,
    /// for workloads that carry [`jafar_serve::QueryOp::GroupBy`] queries. `keys`
    /// must be row-aligned with `values` (or empty when no query groups);
    /// a per-rank staging arena is carved for the partitioned group-by
    /// scatter.
    pub fn serve_with_keys(
        &mut self,
        values: &[i64],
        keys: &[i64],
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
    ) -> ServeRun {
        // Quiesce host traffic before the stream starts, as the
        // single-query paths do before their grants.
        self.mc.drain();
        let mut placed = self.core.place(
            &mut [self.mc.module_mut()],
            values,
            workload,
            cfg,
            &self.tracer,
        );
        let report = run_serve(
            self.core.env(
                &mut placed,
                vec![self.mc.module_mut()],
                values,
                keys,
                &self.tracer,
            ),
            workload,
            policy,
            cfg,
        );
        self.mc.advance_cursor(report.makespan);
        ServeRun {
            report,
            recovery: self.core.release(placed, &mut [self.mc.module_mut()]),
            faults: self.mc.module().fault_stats().copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use jafar_common::bitset::BitSet;
    use jafar_common::rng::SplitMix64;

    fn values(n: usize, max: i64, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_range_inclusive(0, max)).collect()
    }

    fn small_system() -> System {
        let mut cfg = SystemConfig::test_small();
        cfg.query_overhead = Tick::from_ns(500);
        cfg.page_bytes = 4096;
        System::new(cfg)
    }

    #[test]
    fn cpu_and_jafar_agree_functionally() {
        let mut sys = small_system();
        let vals = values(8000, 999, 42);
        let col = sys.write_column(&vals);
        let cpu = sys
            .run_select_cpu(col, 8000, 100, 399, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        let jf = sys.run_select_jafar(col, 8000, 100, 399, cpu.end);
        assert_eq!(cpu.matches, jf.matched);
        // The bitset in DRAM equals the CPU's position list.
        let mut bytes = vec![0u8; 1000];
        sys.mc().module().data().read(jf.out_addr, &mut bytes);
        let bits = BitSet::from_bytes(&bytes, 8000);
        assert_eq!(bits.to_positions(), cpu.positions);
    }

    #[test]
    fn jafar_is_faster_on_the_select() {
        let mut sys = small_system();
        let vals = values(16_000, 999, 7);
        let col = sys.write_column(&vals);
        let cpu = sys
            .run_select_cpu(col, 16_000, 0, 499, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        let jf = sys.run_select_jafar(col, 16_000, 0, 499, cpu.end);
        let cpu_time = cpu.end;
        let jf_time = jf.end - cpu.end;
        assert!(
            jf_time < cpu_time,
            "JAFAR {jf_time:?} should beat CPU {cpu_time:?}"
        );
    }

    #[test]
    fn jafar_time_is_selectivity_independent() {
        let run = |hi: i64| {
            let mut sys = small_system();
            let vals = values(8000, 999, 3);
            let col = sys.write_column(&vals);
            let jf = sys.run_select_jafar(col, 8000, 0, hi, Tick::ZERO);
            jf.end
        };
        let none = run(-1);
        let all = run(999);
        let ratio = all.as_ps() as f64 / none.as_ps() as f64;
        assert!((0.98..1.02).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn cpu_time_grows_with_selectivity() {
        let run = |hi: i64| {
            let mut sys = small_system();
            let vals = values(8000, 999, 3);
            let col = sys.write_column(&vals);
            sys.run_select_cpu(col, 8000, 0, hi, ScanVariant::Branching, Tick::ZERO)
                .unwrap()
                .end
        };
        assert!(run(999) > run(-1));
    }

    #[test]
    fn device_traffic_stays_off_the_host_bus() {
        let mut sys = small_system();
        let vals = values(8000, 999, 9);
        let col = sys.write_column(&vals);
        sys.begin_measurement();
        let jf = sys.run_select_jafar(col, 8000, 0, 499, Tick::ZERO);
        // The device read 1000 bursts on the DIMM; the host controller saw
        // none of them.
        assert_eq!(jf.device_bursts_read, 1000);
        assert_eq!(sys.mc().counters().reads.get(), 0);
        // A second identical select on the same system reports its own
        // bursts, not the device's lifetime count.
        let again = sys.run_select_jafar(col, 8000, 0, 499, jf.end);
        assert_eq!(again.device_bursts_read, 1000);
        // The CPU baseline moves every line across the bus (demand +
        // prefetch fills together cover the 1000-line column, plus the
        // output's write-allocate traffic).
        let mut sys2 = small_system();
        let col2 = sys2.write_column(&vals);
        sys2.begin_measurement();
        let cpu = sys2
            .run_select_cpu(col2, 8000, 0, 499, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        assert!(cpu.matches > 0);
        assert!(
            sys2.mc().counters().reads.get() >= 1000,
            "reads={}",
            sys2.mc().counters().reads.get()
        );
    }

    #[test]
    fn page_iteration_counts() {
        let mut sys = small_system(); // 4 KiB pages = 512 rows
        let vals = values(2048, 9, 1);
        let col = sys.write_column(&vals);
        let jf = sys.run_select_jafar(col, 2048, 0, 4, Tick::ZERO);
        assert_eq!(jf.pages, 4);
    }

    #[test]
    fn interrupt_completion_frees_the_cpu() {
        // §2.2: polling burns CPU; interrupts free it at some latency cost.
        let run = |completion| {
            let mut cfg = SystemConfig::test_small();
            cfg.query_overhead = Tick::from_ns(500);
            cfg.page_bytes = 4096;
            cfg.driver.completion = completion;
            let mut sys = System::new(cfg);
            let vals = values(8000, 999, 4);
            let col = sys.write_column(&vals);
            sys.run_select_jafar(col, 8000, 0, 499, Tick::ZERO)
        };
        let polled = run(jafar_core::CompletionMode::Polling {
            gap: Tick::from_ns(100),
        });
        let interrupted = run(jafar_core::CompletionMode::Interrupt {
            latency: Tick::from_ns(400),
        });
        assert_eq!(polled.matched, interrupted.matched);
        assert!(polled.cpu_wait > Tick::ZERO, "polling spins");
        assert_eq!(interrupted.cpu_wait, Tick::ZERO, "interrupts do not");
        // With a long interrupt latency per page, polling finishes sooner —
        // the CPU-utilization-vs-latency trade-off.
        assert!(interrupted.end > polled.end);
    }

    #[test]
    fn resilient_path_under_an_empty_plan_recovers_nothing() {
        // The pushdown select is the resilient driver under its default
        // policy. With a plan installed that injects nothing, no rung of
        // the ladder is entered, and the time outside the pages' device
        // and driver time is exactly the grant plus the release.
        let vals = values(8000, 999, 21);
        let mut sys = small_system();
        let col = sys.write_column(&vals);
        sys.inject_faults(FaultPlan::none(5));
        let jf = sys.run_select_jafar(col, 8000, 100, 399, Tick::ZERO);
        assert_eq!(jf.end, jf.setup + jf.ownership + jf.device + jf.driver);
        assert!(
            jf.ownership > Tick::ZERO,
            "the grant and the release take time"
        );
        assert_eq!(jf.pages, 16, "8,000 rows in 512-row pages");
        let faults = sys.fault_stats().expect("plan installed");
        assert_eq!(faults.total(), 0);

        let resilient = sys.run_select_jafar_resilient(
            col,
            8000,
            100,
            399,
            jf.end,
            ResilienceConfig::default(),
        );
        assert_eq!(resilient.matched, jf.matched);
        assert_eq!(resilient.pages, jf.pages);
        assert_eq!(resilient.recovery.recovery_total(), 0);
        assert_eq!(resilient.recovery.lease_grants.get(), 1);
        assert_eq!(resilient.faults.expect("plan installed").total(), 0);
        let mut bytes = vec![0u8; 1000];
        sys.mc()
            .module()
            .data()
            .read(resilient.out_addr, &mut bytes);
        let mut first = vec![0u8; 1000];
        sys.mc().module().data().read(jf.out_addr, &mut first);
        assert_eq!(bytes, first, "bit-identical output");
        assert_eq!(
            BitSet::from_bytes(&bytes, 8000).to_positions(),
            reference_positions(&vals, 100, 399)
        );
    }

    #[test]
    fn resilient_path_survives_light_faults_and_reports_them() {
        let mut sys = small_system();
        let vals = values(8000, 999, 22);
        let col = sys.write_column(&vals);
        let cpu = sys
            .run_select_cpu(col, 8000, 100, 399, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        sys.inject_faults(FaultPlan::light(77));
        let jf = sys.run_select_jafar_resilient(
            col,
            8000,
            100,
            399,
            cpu.end,
            ResilienceConfig::default(),
        );
        assert_eq!(jf.matched, cpu.matches);
        let mut bytes = vec![0u8; 1000];
        sys.mc().module().data().read(jf.out_addr, &mut bytes);
        let bits = BitSet::from_bytes(&bytes, 8000);
        assert_eq!(bits.to_positions(), cpu.positions);
        let report = jf.report();
        assert!(report.contains("recovery:"));
        assert!(report.contains("faults injected:"));
        // The injector fired at least once under the light plan on 1000+
        // bursts; the combined scoreboard reflects it.
        assert!(jf.faults.expect("plan installed").total() > 0);
    }

    #[test]
    fn tracer_does_not_change_timing() {
        // The zero-cost-when-disabled contract's stronger half: *enabling*
        // the tracer must not bend the simulated timeline either. Identical
        // workloads, traced and untraced, end on the same tick.
        let vals = values(8000, 999, 13);
        let mut plain = small_system();
        let col_p = plain.write_column(&vals);
        let cpu_p = plain
            .run_select_cpu(col_p, 8000, 100, 399, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        let jf_p = plain.run_select_jafar(col_p, 8000, 100, 399, cpu_p.end);

        let mut traced = small_system();
        traced.enable_tracing(1 << 14);
        let col_t = traced.write_column(&vals);
        let cpu_t = traced
            .run_select_cpu(col_t, 8000, 100, 399, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        let jf_t = traced.run_select_jafar(col_t, 8000, 100, 399, cpu_t.end);

        assert_eq!(cpu_t.end, cpu_p.end, "tracing changed CPU-path timing");
        assert_eq!(jf_t.end, jf_p.end, "tracing changed device-path timing");
        assert_eq!(cpu_t.matches, cpu_p.matches);
        assert_eq!(jf_t.matched, jf_p.matched);
        // And the traced run actually recorded the runs it observed.
        assert!(!traced.trace_events().is_empty());
        assert!(plain.trace_events().is_empty());
    }

    #[test]
    fn metrics_snapshot_covers_the_stack() {
        let mut sys = small_system();
        sys.enable_tracing(1024);
        let vals = values(4096, 99, 5);
        let col = sys.write_column(&vals);
        let cpu = sys
            .run_select_cpu(col, 4096, 0, 49, ScanVariant::Branching, Tick::ZERO)
            .unwrap();
        sys.run_select_jafar(col, 4096, 0, 49, cpu.end);
        let reg = sys.metrics();
        assert!(reg.get_counter("dram.read_bursts").unwrap() > 0);
        assert!(reg.get_counter("memctl.reads").unwrap() > 0);
        assert!(reg.get_counter("device.jobs").unwrap() > 0);
        assert!(reg.get_counter("trace.emitted").unwrap() > 0);
        // The rendered report lists every registered name.
        let report = reg.to_string();
        assert!(report.contains("dram.row_hits = "));
        assert!(report.contains("device.bursts_read = "));
    }

    #[test]
    fn trace_exports_render_the_run() {
        let mut sys = small_system();
        sys.enable_tracing(1 << 14);
        let vals = values(2048, 9, 8);
        let col = sys.write_column(&vals);
        sys.run_select_jafar(col, 2048, 0, 4, Tick::ZERO);
        let json = sys.chrome_trace().expect("tracing enabled");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"accel\""), "device stages traced");
        assert!(json.contains("\"cat\":\"ownership\""), "handoff traced");
        let timeline = sys.trace_timeline().expect("tracing enabled");
        assert!(timeline.lines().count() > 0);
        assert!(timeline.contains("accel"));
    }

    /// A `test_small` variant with more ranks: `ranks - 1` NDP arenas and
    /// devices, the last rank as scratch.
    fn multi_rank_system(ranks: u32) -> System {
        let mut cfg = SystemConfig::test_small();
        cfg.dram_geometry = jafar_dram::DramGeometry {
            ranks,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        System::new(cfg)
    }

    fn reference_positions(vals: &[i64], lo: i64, hi: i64) -> Vec<u32> {
        vals.iter()
            .enumerate()
            .filter(|(_, &v)| (lo..=hi).contains(&v))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn partitioning_is_row_aligned_and_rank_local() {
        let mut sys = multi_rank_system(4);
        let vals = values(1000, 9, 17); // not divisible by 8
        let col = sys.write_column_partitioned(&vals, 3);
        assert_eq!(col.rows, 1000);
        assert_eq!(col.shards.iter().map(|s| s.rows).sum::<u64>(), 1000);
        let rows_per_dram_row = 1024 / 8;
        let decoder = *sys.mc().module().decoder();
        for (i, s) in col.shards.iter().enumerate() {
            assert_eq!(s.rank, i as u32);
            assert_eq!(s.row_offset % rows_per_dram_row, 0, "row-aligned stripe");
            assert_eq!(
                decoder.decode(s.addr).rank,
                s.rank,
                "shard data in its rank"
            );
        }
        // A single-shard partition degenerates to the plain layout.
        let one = sys.write_column_partitioned(&vals, 1);
        assert_eq!(one.shards.len(), 1);
        assert_eq!(one.shards[0].rows, 1000);
    }

    #[test]
    fn parallel_select_matches_cpu_and_single_device_and_is_faster() {
        let vals = values(24_000, 999, 31);
        let expect = reference_positions(&vals, 100, 399);

        // Single-device run for the timing and bit-identity baseline.
        let mut solo = multi_rank_system(4);
        let col1 = solo.write_column(&vals);
        let jf = solo.run_select_jafar(col1, 24_000, 100, 399, Tick::ZERO);
        let mut solo_bytes = vec![0u8; 3000];
        solo.mc().module().data().read(jf.out_addr, &mut solo_bytes);
        let solo_bits = BitSet::from_bytes(&solo_bytes, 24_000);
        assert_eq!(solo_bits.to_positions(), expect);

        // Three-rank parallel run over the same values.
        let mut sys = multi_rank_system(4);
        let col = sys.write_column_partitioned(&vals, 3);
        assert_eq!(col.shards.len(), 3);
        let par =
            sys.run_select_jafar_parallel(&col, 100, 399, Tick::ZERO, ResilienceConfig::default());
        assert_eq!(par.matched as usize, expect.len());
        assert_eq!(par.selection.to_positions(), expect, "merged == reference");
        assert_eq!(
            par.selection.to_bytes(),
            solo_bits.to_bytes(),
            "merged == single-device bitset"
        );
        // No shard needed recovery, and the sharded run beats the single
        // device on the same column.
        for r in &par.recovery {
            assert_eq!(r.recovery_total(), 0);
        }
        assert!(
            par.end < jf.end,
            "3-rank parallel ({:?}) should beat one device ({:?})",
            par.end,
            jf.end
        );
    }

    #[test]
    fn parallel_single_rank_fault_degrades_only_that_shard() {
        let vals = values(12_000, 999, 33);
        let expect = reference_positions(&vals, 100, 399);
        let mut sys = multi_rank_system(4);
        let col = sys.write_column_partitioned(&vals, 3);
        // Rank 1's reads all stall past the watchdog; ranks 0 and 2 are
        // untouched.
        sys.inject_faults(FaultPlan {
            stall_burst_range: Some((0, u64::MAX)),
            rank_scope: Some(1),
            ..FaultPlan::none(3)
        });
        let par = sys.run_select_jafar_parallel(
            &col,
            100,
            399,
            Tick::ZERO,
            ResilienceConfig {
                max_retries: 1,
                breaker_threshold: 1,
                ..ResilienceConfig::default()
            },
        );
        assert_eq!(par.selection.to_positions(), expect, "still bit-identical");
        assert!(
            par.recovery[1].pages_cpu.get() >= 1,
            "faulty rank fell back"
        );
        assert_eq!(par.recovery[0].recovery_total(), 0, "sibling untouched");
        assert_eq!(par.recovery[2].recovery_total(), 0, "sibling untouched");
        // The faulted shard is the long pole.
        assert_eq!(par.end, par.shards.iter().map(|s| s.run.end).max().unwrap());
        assert!(par.shards[1].run.end > par.shards[0].run.end);
    }

    #[test]
    fn parallel_trace_carries_shard_events() {
        let mut sys = multi_rank_system(4);
        sys.enable_tracing(1 << 14);
        let vals = values(4096, 9, 6);
        let col = sys.write_column_partitioned(&vals, 2);
        sys.run_select_jafar_parallel(&col, 0, 4, Tick::ZERO, ResilienceConfig::default());
        let timeline = sys.trace_timeline().expect("tracing enabled");
        assert!(timeline.contains("shard-step"));
        assert!(timeline.contains("shard-done"));
    }

    #[test]
    fn host_traffic_resumes_after_release() {
        let mut sys = small_system();
        let vals = values(1024, 9, 2);
        let col = sys.write_column(&vals);
        let jf = sys.run_select_jafar(col, 1024, 0, 4, Tick::ZERO);
        // CPU can scan the same column afterwards.
        let cpu = sys
            .run_select_cpu(col, 1024, 0, 4, ScanVariant::Branching, jf.end)
            .unwrap();
        assert_eq!(cpu.matches, jf.matched);
    }

    #[test]
    fn serve_completes_a_stream_bit_identically() {
        use jafar_serve::PredicateMix;

        let mut sys = multi_rank_system(4);
        sys.enable_tracing(1 << 14);
        let vals = values(4096, 999, 31);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        };
        let workload = Workload::poisson(mix, 5, Tick::from_us(1), 41);
        let run = sys.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(run.report.completed(), 5);
        assert_eq!(run.report.shed(), 0);
        assert_eq!(run.recovery.len(), 3, "one persistent driver per NDP rank");
        assert!(run.recovery.iter().all(|d| d.recovery_total() == 0));
        for rec in &run.report.records {
            let expect = reference_positions(&vals, rec.lo, rec.hi);
            let got = BitSet::from_bytes(&rec.bitset, vals.len()).to_positions();
            assert_eq!(got, expect, "query {} selection vector", rec.id);
            assert_eq!(rec.matched as usize, expect.len());
        }
        // The serve-layer lifecycle shows up in the unified trace.
        let timeline = sys.trace_timeline().expect("tracing enabled");
        assert!(timeline.contains("query-admitted"));
        assert!(timeline.contains("query-done"));
    }

    #[test]
    fn serve_survives_a_rank_scoped_fault() {
        use jafar_serve::PredicateMix;

        let mut sys = multi_rank_system(4);
        let vals = values(4096, 999, 33);
        sys.inject_faults(FaultPlan {
            stall_burst_range: Some((0, u64::MAX)),
            rank_scope: Some(0),
            ..FaultPlan::none(5)
        });
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 100,
        };
        let workload = Workload::poisson(mix, 4, Tick::from_us(2), 43);
        let cfg = ServeConfig {
            resilience: ResilienceConfig {
                max_retries: 1,
                breaker_threshold: 1,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let run = sys.serve(&vals, &workload, SchedPolicy::RankAffinity, &cfg);
        assert_eq!(run.report.completed(), 4, "every query survives the fault");
        for rec in &run.report.records {
            let expect = reference_positions(&vals, rec.lo, rec.hi);
            let got = BitSet::from_bytes(&rec.bitset, vals.len()).to_positions();
            assert_eq!(got, expect, "query {} still bit-identical", rec.id);
        }
        assert!(
            run.faults.expect("plan installed").stalls.get() >= 1
                || run.recovery[0].recovery_total() == 0,
            "either the sick rank was exercised or affinity kept work off it"
        );
        assert_eq!(run.recovery[1].recovery_total(), 0, "healthy rank clean");
        assert_eq!(run.recovery[2].recovery_total(), 0, "healthy rank clean");
    }

    #[test]
    fn serve_mixes_operators_and_degrades_aggregates_identically_under_fault() {
        use jafar_serve::{AggFn, Arrivals, ExecMode, QueryOp, QuerySpec};

        let mut sys = multi_rank_system(4);
        let vals = values(4096, 999, 35);
        sys.inject_faults(FaultPlan {
            stall_burst_range: Some((0, u64::MAX)),
            rank_scope: Some(0),
            ..FaultPlan::none(7)
        });
        let q = |lo: i64, hi: i64, op: QueryOp, slo: Option<Tick>| QuerySpec { lo, hi, op, slo };
        let specs = vec![
            q(100, 599, QueryOp::Select, None),
            // Arrives while q0 holds every rank; its SLO is hopeless, so
            // it must degrade to the CPU rung — and still return exactly
            // the scalar a device run would have.
            q(
                100,
                599,
                QueryOp::SelectAgg(AggFn::Sum),
                Some(Tick::from_ns(1)),
            ),
            q(200, 799, QueryOp::SelectCount, None),
            q(300, 899, QueryOp::Project { k: 2 }, None),
            q(400, 999, QueryOp::SelectAgg(AggFn::Max), None),
        ];
        let n = specs.len();
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open(vec![Tick::ZERO; n]),
            slo: None,
        };
        let cfg = ServeConfig {
            resilience: ResilienceConfig {
                max_retries: 1,
                breaker_threshold: 1,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let run = sys.serve(&vals, &workload, SchedPolicy::RankAffinity, &cfg);
        assert_eq!(run.report.completed(), n);
        let matching = |lo: i64, hi: i64| -> Vec<i64> {
            vals.iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect()
        };
        let sum = matching(100, 599)
            .iter()
            .fold(0i64, |a, &v| a.wrapping_add(v));
        let q1 = &run.report.records[1];
        assert_eq!(q1.mode, ExecMode::Cpu, "hopeless SLO degrades");
        assert_eq!(q1.agg, Some(sum), "degraded scalar == functional reference");

        // The same Sum served solo on a healthy machine: same scalar.
        let mut healthy = multi_rank_system(4);
        let solo = healthy.serve(
            &vals,
            &Workload {
                specs: vec![q(100, 599, QueryOp::SelectAgg(AggFn::Sum), None)],
                arrivals: Arrivals::Open(vec![Tick::ZERO]),
                slo: None,
            },
            SchedPolicy::Fifo,
            &cfg,
        );
        assert!(matches!(
            solo.report.records[0].mode,
            ExecMode::Device { .. }
        ));
        assert_eq!(solo.report.records[0].agg, q1.agg, "device == degraded");

        for rec in &run.report.records {
            let m = matching(rec.lo, rec.hi);
            assert_eq!(rec.matched as usize, m.len(), "query {}", rec.id);
            match rec.op {
                QueryOp::Select | QueryOp::Project { .. } => {
                    let got = BitSet::from_bytes(&rec.bitset, vals.len()).to_positions();
                    assert_eq!(got, reference_positions(&vals, rec.lo, rec.hi));
                    if matches!(rec.op, QueryOp::Project { .. }) {
                        assert_eq!(rec.projected, m, "query {} packed projection", rec.id);
                    }
                }
                QueryOp::SelectCount => assert_eq!(rec.agg, Some(m.len() as i64)),
                QueryOp::SelectAgg(AggFn::Max) => assert_eq!(rec.agg, m.iter().copied().max()),
                QueryOp::SelectAgg(_) => assert_eq!(rec.agg, Some(sum)),
                QueryOp::SemiJoin { .. } | QueryOp::GroupBy { .. } => {
                    unreachable!("this workload serves no joins or group-bys")
                }
            }
        }
        assert!(run.report.cpu_queries() >= 1);
        let breakdown = run.report.op_breakdown();
        assert!(breakdown.len() >= 4, "one breakdown row per operator kind");
    }

    #[test]
    fn serve_state_does_not_leak_between_runs() {
        use jafar_serve::PredicateMix;

        // Run 1 under a permanent rank outage trips breakers, quarantines
        // a rank and parks/migrates shards. After clearing the faults,
        // two consecutive clean runs on the same System must be pristine
        // and functionally identical: no breaker, health or served-count
        // state leaks from one serve call into the next.
        let mut sys = multi_rank_system(4);
        let vals = values(4096, 999, 37);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 200,
        };
        let workload = Workload::poisson(mix, 5, Tick::from_us(2), 47);
        sys.inject_faults(FaultPlan::none(9).with_outage(0, Tick::ZERO, Tick::MAX));
        let chaotic = sys.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert!(
            chaotic.report.availability.disturbed(),
            "the outage engaged the failure machinery"
        );
        assert_eq!(
            chaotic.report.completed() + chaotic.report.shed(),
            5,
            "no query lost under the outage"
        );

        sys.clear_faults();
        let clean1 = sys.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        let clean2 = sys.serve(&vals, &workload, SchedPolicy::Fifo, &ServeConfig::default());
        for run in [&clean1, &clean2] {
            assert!(
                !run.report.availability.disturbed(),
                "clean run inherited failure state: {:?}",
                run.report.availability
            );
            assert_eq!(run.report.completed(), 5);
            assert!(
                run.recovery.iter().all(|d| d.recovery_total() == 0),
                "clean run inherited driver recovery state"
            );
        }
        for (a, b) in clean1.report.records.iter().zip(&clean2.report.records) {
            assert_eq!(a.bitset, b.bitset);
            assert_eq!(a.matched, b.matched);
            assert_eq!(a.mode, b.mode);
        }
        for rec in &clean1.report.records {
            let got = BitSet::from_bytes(&rec.bitset, vals.len()).to_positions();
            assert_eq!(got, reference_positions(&vals, rec.lo, rec.hi));
        }
    }
}
