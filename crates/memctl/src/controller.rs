//! The transaction-level memory controller.
//!
//! The controller owns one [`DramModule`] and services 64-byte read/write
//! transactions from a read queue and a write queue:
//!
//! - **Reads first**: demand reads are latency-critical; writes buffer.
//! - **Write drain**: when the write queue passes a high watermark (or the
//!   read queue is empty), the controller switches to draining writes until
//!   a low watermark — the standard watermark policy.
//! - **Policy-driven picking** within a queue: FCFS or FR-FCFS
//!   ([`crate::sched`]).
//! - **Ownership-aware holding**: requests that target a rank currently
//!   owned by the NDP device are held in the queue (never issued) until the
//!   rank is released — the §2.2 arbitration contract.
//!
//! Decision timing is *transaction-pipelined*: after issuing a transaction's
//! CAS, the controller may make its next decision one bus cycle later, so
//! precharges/activates for other banks overlap in-flight data bursts; the
//! module's bank reservations and shared-bus constraint enforce legality.
//!
//! Queue-occupancy accounting records each request's exact residency
//! interval `[arrival, done)`; [`MemoryController::finalize`] turns these
//! into the Figure-4 counters.

use crate::counters::{IdleReport, IntervalSet, McCounters};
use crate::request::{Completion, MemRequest, ReqId};
use crate::sched::{pick, Policy};
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;
use jafar_dram::{DramCommand, DramModule, IssueError, Requester, RowOutcome};

/// Why a request could not be enqueued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target queue is at capacity; retry after servicing.
    QueueFull,
    /// The address exceeds the module capacity.
    OutOfRange,
}

/// Why an ownership transfer failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnershipError {
    /// Requests to the rank are still queued; drain first.
    PendingRequests,
    /// The underlying MRS command was rejected.
    Mrs(IssueError),
}

/// Sizing and watermark configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Read queue capacity.
    pub read_queue: usize,
    /// Write queue capacity.
    pub write_queue: usize,
    /// Enter write-drain mode at this write-queue depth.
    pub drain_high: usize,
    /// Leave write-drain mode at this write-queue depth.
    pub drain_low: usize,
    /// Scheduling policy.
    pub policy: Policy,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_queue: 32,
            write_queue: 32,
            drain_high: 24,
            drain_low: 8,
            policy: Policy::default(),
        }
    }
}

/// The memory controller.
pub struct MemoryController {
    module: DramModule,
    config: ControllerConfig,
    read_q: Vec<(u64, MemRequest)>,
    write_q: Vec<(u64, MemRequest)>,
    next_id: u64,
    draining: bool,
    bypass_count: u32,
    /// Decision cursor: the controller cannot make a scheduling decision
    /// before this tick.
    cursor: Tick,
    counters: McCounters,
    read_busy: IntervalSet,
    write_busy: IntervalSet,
    tracer: SharedTracer,
}

impl MemoryController {
    /// Builds a controller over `module`.
    pub fn new(module: DramModule, config: ControllerConfig) -> Self {
        assert!(config.drain_low < config.drain_high);
        assert!(config.drain_high <= config.write_queue);
        MemoryController {
            module,
            config,
            read_q: Vec::new(),
            write_q: Vec::new(),
            next_id: 0,
            draining: false,
            bypass_count: 0,
            cursor: Tick::ZERO,
            counters: McCounters::default(),
            read_busy: IntervalSet::new(),
            write_busy: IntervalSet::new(),
            tracer: SharedTracer::disabled(),
        }
    }

    /// Attaches an event tracer to the controller *and* its DRAM module.
    /// Scheduling decisions, ownership transfers and all DRAM-level events
    /// are emitted into it. Purely observational — no timing changes.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.module.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// The DRAM module behind this controller.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module — used by the simulation layer to place
    /// workload data and by the JAFAR device to stream an owned rank.
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Raw counters.
    pub fn counters(&self) -> &McCounters {
        &self.counters
    }

    /// Queued (unserviced) request count.
    pub fn pending(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Queued requests targeting `rank`.
    pub fn pending_for_rank(&self, rank: u32) -> usize {
        let count = |q: &[(u64, MemRequest)]| {
            q.iter()
                .filter(|(_, r)| self.module.decoder().decode(r.addr).rank == rank)
                .count()
        };
        count(&self.read_q) + count(&self.write_q)
    }

    /// Enqueues a transaction.
    ///
    /// # Errors
    /// [`EnqueueError::QueueFull`] on backpressure, [`EnqueueError::OutOfRange`]
    /// for addresses beyond the module.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<ReqId, EnqueueError> {
        if req.addr.0 >= self.module.geometry().capacity_bytes() {
            return Err(EnqueueError::OutOfRange);
        }
        let (q, cap) = if req.is_write {
            (&mut self.write_q, self.config.write_queue)
        } else {
            (&mut self.read_q, self.config.read_queue)
        };
        if q.len() >= cap {
            self.counters.rejected.inc();
            return Err(EnqueueError::QueueFull);
        }
        let id = self.next_id;
        self.next_id += 1;
        q.push((id, req));
        Ok(ReqId(id))
    }

    fn servable(&self, req: &MemRequest) -> bool {
        let rank = self.module.decoder().decode(req.addr).rank;
        !self.module.rank_owned_by_ndp(rank)
    }

    /// Earliest arrival among servable queued requests, or `None`.
    fn earliest_arrival(&self) -> Option<Tick> {
        self.read_q
            .iter()
            .chain(self.write_q.iter())
            .filter(|(_, r)| self.servable(r))
            .map(|(_, r)| r.arrival)
            .min()
    }

    /// Decides which queue to serve from, honouring write-drain watermarks.
    /// Returns `true` for the write queue.
    fn choose_write_queue(&mut self, now: Tick) -> Option<bool> {
        let reads_ready = self
            .read_q
            .iter()
            .any(|(_, r)| r.arrival <= now && self.servable(r));
        let writes_ready = self
            .write_q
            .iter()
            .any(|(_, r)| r.arrival <= now && self.servable(r));
        if self.write_q.len() >= self.config.drain_high {
            self.draining = true;
        }
        if self.draining && self.write_q.len() <= self.config.drain_low {
            self.draining = false;
        }
        match (reads_ready, writes_ready) {
            (false, false) => None,
            (true, false) => Some(false),
            (false, true) => Some(true),
            (true, true) => Some(self.draining),
        }
    }

    /// Services one transaction, if any is ready. Returns its completion.
    ///
    /// Advances the internal decision cursor; requests that have not yet
    /// arrived by the cursor are waited for (the cursor jumps to the next
    /// arrival when all queues are momentarily empty of arrived requests).
    ///
    /// A transaction rejected by a transient DRAM condition (e.g. an
    /// injected refresh storm preempting a due refresh) is requeued with
    /// its arrival bumped to the earliest retry tick; the controller moves
    /// on rather than panicking or spinning.
    pub fn service_one(&mut self) -> Option<Completion> {
        loop {
            let now = self.cursor.max(self.earliest_arrival()?);
            let use_writes = self.choose_write_queue(now)?;
            let module = &self.module;
            let queue = if use_writes {
                &self.write_q
            } else {
                &self.read_q
            };
            // Hold requests to NDP-owned ranks: filter, pick, then map back.
            let candidates: Vec<(u64, MemRequest)> = queue
                .iter()
                .filter(|(_, r)| self.servable(r))
                .copied()
                .collect();
            let picked = pick(
                self.config.policy,
                &candidates,
                module,
                now,
                self.bypass_count,
            )?;
            let (id, req) = candidates[picked];

            // Starvation-cap accounting: did we bypass the oldest arrived one?
            let oldest = candidates
                .iter()
                .filter(|(_, r)| r.arrival <= now)
                .min_by_key(|(cid, r)| (r.arrival, *cid))
                .map(|(cid, _)| *cid);
            if oldest == Some(id) {
                self.bypass_count = 0;
            } else {
                self.bypass_count += 1;
            }

            self.tracer.emit(
                now,
                EventKind::SchedDecision {
                    queue: if use_writes { "write" } else { "read" },
                    picked: id,
                    queued: (self.read_q.len() + self.write_q.len()) as u32,
                },
            );

            let queue = if use_writes {
                &mut self.write_q
            } else {
                &mut self.read_q
            };
            let pos = queue
                .iter()
                .position(|(qid, _)| *qid == id)
                .expect("present");
            queue.remove(pos);

            let done =
                match self
                    .module
                    .serve_addr(req.addr, req.is_write, Requester::Host, now, None)
                {
                    // The completion outlives the module's next command,
                    // so it keeps a copy of the lent burst.
                    Ok(a) => Completion {
                        id: ReqId(id),
                        request: req,
                        done: a.data_ready,
                        outcome: a.outcome,
                        data: a.data.copied(),
                    },
                    Err(e) => {
                        // Requeue with the arrival bumped to the earliest
                        // retry tick and advance the cursor by at least one
                        // bus cycle so the decision loop makes progress.
                        let retry_at = match e {
                            IssueError::TooEarly(t) => t,
                            _ => now + self.module.timing().bus_clock.period(),
                        };
                        let mut requeued = req;
                        requeued.arrival = requeued.arrival.max(retry_at);
                        let queue = if req.is_write {
                            &mut self.write_q
                        } else {
                            &mut self.read_q
                        };
                        queue.push((id, requeued));
                        self.counters.requeued.inc();
                        // The next iteration recomputes `now` from the
                        // earliest arrival, so a lone requeued request is
                        // retried exactly at `retry_at`.
                        self.cursor =
                            self.cursor.max(now) + self.module.timing().bus_clock.period();
                        self.tracer.emit(
                            now,
                            EventKind::ErrorSurfaced {
                                site: "memctl",
                                detail: "requeued",
                            },
                        );
                        continue;
                    }
                };
            return Some(self.complete(done, now));
        }
    }

    fn complete(&mut self, done: Completion, now: Tick) -> Completion {
        let req = done.request;
        match done.outcome {
            RowOutcome::Hit => self.counters.row_hits.inc(),
            RowOutcome::Miss => self.counters.row_misses.inc(),
            RowOutcome::Conflict => self.counters.row_conflicts.inc(),
        }
        if req.is_write {
            self.counters.writes.inc();
            self.write_busy.push(req.arrival, done.done);
        } else {
            self.counters.reads.inc();
            self.read_busy.push(req.arrival, done.done);
        }

        // Next decision: one bus cycle after this CAS issued, so command
        // work for other banks overlaps the in-flight burst.
        let t = self.module.timing();
        let cas_lead = if req.is_write { t.cwl } else { t.cl };
        let cas_at = done.done.saturating_sub(cas_lead + t.t_burst);
        self.cursor = cas_at.max(now) + t.bus_clock.period();
        done
    }

    /// Services every servable queued transaction, in policy order. Requests
    /// held for NDP-owned ranks remain queued.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.pending());
        while let Some(c) = self.service_one() {
            out.push(c);
        }
        out
    }

    /// Transfers rank ownership to (or from) the NDP device by issuing the
    /// MR3/MPR mode-register write. All queued requests for the rank must
    /// have been drained. Returns the tick at which the transfer is
    /// effective.
    ///
    /// # Errors
    /// [`OwnershipError::PendingRequests`] if requests for the rank are
    /// still queued; [`OwnershipError::Mrs`] if the rank cannot quiesce.
    pub fn set_rank_ownership(
        &mut self,
        rank: u32,
        owned: bool,
        now: Tick,
    ) -> Result<Tick, OwnershipError> {
        if self.pending_for_rank(rank) > 0 {
            return Err(OwnershipError::PendingRequests);
        }
        let now = now.max(self.cursor);
        // Quiesce: close any open rows, run due refreshes first. A refresh
        // storm preempting the schedule surfaces here as a recoverable
        // `Mrs(TooEarly)` — retry once the storm drains.
        let after_refresh = self
            .module
            .maintain_refresh(rank, now, Requester::Host)
            .map_err(OwnershipError::Mrs)?;
        let pre = DramCommand::PrechargeAll { rank };
        let at = self
            .module
            .earliest_issue(pre, Requester::Host, after_refresh)
            .map_err(OwnershipError::Mrs)?;
        self.module
            .issue(pre, Requester::Host, at, None)
            .map_err(OwnershipError::Mrs)?;
        let value = self.module.mode_regs(rank).mr3_with_ownership(owned);
        let mrs = DramCommand::ModeRegisterSet { rank, mr: 3, value };
        let at = self
            .module
            .earliest_issue(mrs, Requester::Host, at)
            .map_err(OwnershipError::Mrs)?;
        self.module
            .issue(mrs, Requester::Host, at, None)
            .map_err(OwnershipError::Mrs)?;
        // The module emits the OwnershipChange event at the flip itself,
        // so both this path and the driver's direct grant trace uniformly.
        let effective = at + self.module.timing().t_mod;
        self.cursor = self.cursor.max(effective);
        Ok(effective)
    }

    /// Builds the Figure-4 idle report over `[0, span)`.
    pub fn finalize(&self, span: Tick) -> IdleReport {
        IdleReport::build(
            &self.read_busy,
            &self.write_busy,
            span,
            self.module.timing().bus_clock,
            self.counters.reads.get(),
            self.counters.writes.get(),
        )
    }

    /// Resets queue-occupancy accounting and counters (keeps DRAM state) —
    /// used between measured query phases.
    pub fn reset_accounting(&mut self) {
        self.counters = McCounters::default();
        self.read_busy = IntervalSet::new();
        self.write_busy = IntervalSet::new();
    }

    /// The controller's decision cursor (for tests and the sim layer).
    pub fn cursor(&self) -> Tick {
        self.cursor
    }

    /// Moves the decision cursor forward (e.g. to model the host being busy
    /// computing until `t`). Never moves backward.
    pub fn advance_cursor(&mut self, t: Tick) {
        self.cursor = self.cursor.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Origin;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming, PhysAddr};

    fn controller(policy: Policy) -> MemoryController {
        let module = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RowBankRankBlock,
        );
        MemoryController::new(
            module,
            ControllerConfig {
                policy,
                ..ControllerConfig::default()
            },
        )
    }

    #[test]
    fn single_read_latency() {
        let mut mc = controller(Policy::default());
        mc.enqueue(MemRequest::read(PhysAddr(0), Tick::ZERO))
            .unwrap();
        let c = mc.service_one().unwrap();
        // Closed row: ACT + tRCD + CL + tBURST = 30 ns.
        assert_eq!(c.done, Tick::from_ns(30));
        assert_eq!(mc.counters().reads.get(), 1);
        assert!(mc.service_one().is_none());
    }

    #[test]
    fn streaming_reads_pipeline() {
        let mut mc = controller(Policy::default());
        for i in 0..16u64 {
            mc.enqueue(MemRequest::read(PhysAddr(i * 64), Tick::ZERO))
                .unwrap();
        }
        let completions = mc.drain();
        assert_eq!(completions.len(), 16);
        // All in the same row (tiny row = 16 blocks): 1 miss + 15 hits,
        // bursts back-to-back at 4 ns.
        assert_eq!(mc.counters().row_hits.get(), 15);
        let total = completions.last().unwrap().done;
        // 30 ns first + 15 * 4 ns = 90 ns.
        assert_eq!(total, Tick::from_ns(90));
    }

    #[test]
    fn frfcfs_beats_fcfs_on_interleaved_rows() {
        // Two requests to row A, one to row B (same bank), arrival order
        // A, B, A. FR-FCFS serves A,A,B (1 conflict); FCFS serves A,B,A
        // (2 conflicts).
        let run = |policy: Policy| {
            let mut mc = controller(policy);
            let dec = *mc.module().decoder();
            let a0 = dec.encode(jafar_dram::Coord {
                rank: 0,
                bank: 0,
                row: 0,
                block: 0,
            });
            let b = dec.encode(jafar_dram::Coord {
                rank: 0,
                bank: 0,
                row: 1,
                block: 0,
            });
            let a1 = dec.encode(jafar_dram::Coord {
                rank: 0,
                bank: 0,
                row: 0,
                block: 1,
            });
            mc.enqueue(MemRequest::read(a0, Tick::ZERO)).unwrap();
            mc.enqueue(MemRequest::read(b, Tick::from_ps(1000)))
                .unwrap();
            mc.enqueue(MemRequest::read(a1, Tick::from_ps(2000)))
                .unwrap();
            let completions = mc.drain();
            (
                completions.last().unwrap().done,
                mc.counters().row_conflicts.get(),
            )
        };
        let (fcfs_done, fcfs_conflicts) = run(Policy::Fcfs);
        let (fr_done, fr_conflicts) = run(Policy::FrFcfs { cap: 16 });
        assert_eq!(fcfs_conflicts, 2);
        assert_eq!(fr_conflicts, 1);
        assert!(fr_done < fcfs_done, "fr={fr_done} fcfs={fcfs_done}");
    }

    #[test]
    fn write_drain_watermarks() {
        let mut mc = controller(Policy::default());
        // Fill write queue past the high watermark along with one read.
        for i in 0..24u64 {
            mc.enqueue(MemRequest::writeback(PhysAddr(i * 64), Tick::ZERO))
                .unwrap();
        }
        mc.enqueue(MemRequest::read(PhysAddr(0), Tick::ZERO))
            .unwrap();
        // First service call should pick a WRITE (drain mode).
        let first = mc.service_one().unwrap();
        assert!(first.request.is_write);
        // Drain proceeds until low watermark, then the read is served.
        let mut served_read_at_position = None;
        for pos in 1.. {
            let Some(c) = mc.service_one() else { break };
            if !c.request.is_write {
                served_read_at_position = Some(pos);
                break;
            }
        }
        // 24 writes, drain_low = 8 → 16 writes (positions 0..15), read at 16.
        assert_eq!(served_read_at_position, Some(16));
    }

    #[test]
    fn reads_priority_over_buffered_writes() {
        let mut mc = controller(Policy::default());
        for i in 0..4u64 {
            mc.enqueue(MemRequest::writeback(PhysAddr(i * 64), Tick::ZERO))
                .unwrap();
        }
        mc.enqueue(MemRequest::read(PhysAddr(0), Tick::ZERO))
            .unwrap();
        let first = mc.service_one().unwrap();
        assert!(!first.request.is_write, "read must bypass buffered writes");
    }

    #[test]
    fn queue_full_backpressure() {
        let mut mc = controller(Policy::default());
        for i in 0..32u64 {
            mc.enqueue(MemRequest::read(PhysAddr(i * 64), Tick::ZERO))
                .unwrap();
        }
        let err = mc
            .enqueue(MemRequest::read(PhysAddr(33 * 64), Tick::ZERO))
            .unwrap_err();
        assert_eq!(err, EnqueueError::QueueFull);
        assert_eq!(mc.counters().rejected.get(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mc = controller(Policy::default());
        let cap = mc.module().geometry().capacity_bytes();
        assert_eq!(
            mc.enqueue(MemRequest::read(PhysAddr(cap), Tick::ZERO)),
            Err(EnqueueError::OutOfRange)
        );
    }

    #[test]
    fn ownership_holds_requests_for_owned_rank() {
        let mut mc = controller(Policy::default());
        let dec = *mc.module().decoder();
        let rank1_addr = dec.encode(jafar_dram::Coord {
            rank: 1,
            bank: 0,
            row: 0,
            block: 0,
        });
        // Grant rank 0 to NDP.
        let t = mc.set_rank_ownership(0, true, Tick::ZERO).unwrap();
        assert!(mc.module().rank_owned_by_ndp(0));
        assert!(t > Tick::ZERO);
        // Requests: one to rank 0 (held), one to rank 1 (serviced).
        mc.enqueue(MemRequest::read(PhysAddr(0), t)).unwrap();
        mc.enqueue(MemRequest::read(rank1_addr, t)).unwrap();
        let completions = mc.drain();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].request.addr, rank1_addr);
        assert_eq!(mc.pending(), 1);
        assert_eq!(mc.pending_for_rank(0), 1);
        // Releasing with pending requests fails; after release the held
        // request drains. (Release requires no pending — so drain order is:
        // release is *blocked*; use the Ndp-side release path in jafar-core.
        // Here we verify the error.)
        assert_eq!(
            mc.set_rank_ownership(0, false, t),
            Err(OwnershipError::PendingRequests)
        );
    }

    #[test]
    fn ownership_release_resumes_service() {
        let mut mc = controller(Policy::default());
        let t = mc.set_rank_ownership(0, true, Tick::ZERO).unwrap();
        let t2 = mc.set_rank_ownership(0, false, t).unwrap();
        assert!(!mc.module().rank_owned_by_ndp(0));
        mc.enqueue(MemRequest::read(PhysAddr(0), t2)).unwrap();
        assert_eq!(mc.drain().len(), 1);
    }

    #[test]
    fn idle_report_sees_gap_between_batches() {
        let mut mc = controller(Policy::default());
        mc.enqueue(MemRequest::read(PhysAddr(0), Tick::ZERO))
            .unwrap();
        let c1 = mc.drain().pop().unwrap();
        // Second batch arrives 1 µs later (CPU was computing).
        let later = c1.done + Tick::from_us(1);
        mc.enqueue(MemRequest::read(PhysAddr(64), later)).unwrap();
        let c2 = mc.drain().pop().unwrap();
        let report = mc.finalize(c2.done);
        assert_eq!(report.reads, 2);
        // There is an idle period of roughly 1 µs = 1000 bus cycles.
        assert!(report.idle_periods.count() >= 1);
        assert!(report.exact_idle_cycles >= 990);
        // The paper's estimator is a lower bound on the exact idle time.
        assert!(report.mc_empty_estimate() <= report.exact_idle_cycles);
    }

    #[test]
    fn completion_carries_functional_data() {
        let mut mc = controller(Policy::default());
        mc.module_mut().data_mut().write_u64(PhysAddr(128), 77);
        mc.enqueue(MemRequest::read(PhysAddr(128), Tick::ZERO))
            .unwrap();
        let c = mc.drain().pop().unwrap();
        let data = c.data.unwrap();
        assert_eq!(u64::from_le_bytes(data[0..8].try_into().unwrap()), 77);
        assert_eq!(c.request.origin, Origin::CpuDemand);
    }

    #[test]
    fn cursor_advances_monotonically() {
        let mut mc = controller(Policy::default());
        mc.advance_cursor(Tick::from_ns(100));
        mc.advance_cursor(Tick::from_ns(50));
        assert_eq!(mc.cursor(), Tick::from_ns(100));
        // A request arriving earlier than the cursor is served at the
        // cursor, not before.
        mc.enqueue(MemRequest::read(PhysAddr(0), Tick::ZERO))
            .unwrap();
        let c = mc.service_one().unwrap();
        assert!(c.done >= Tick::from_ns(100));
    }
}
