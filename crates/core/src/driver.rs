//! The resilient host driver: `select_jafar` and the one-shot kernels
//! with a recovery policy.
//!
//! [`crate::api::select_jafar`] is the Figure-2 primitive — one page, one
//! errno. This module wraps its lane-window form, and the aggregate and
//! projection kernels, in the machinery a production host would run them
//! under, so a query survives the fault classes `jafar-dram`'s injector
//! models. One recovery ladder serves a select page and a kernel alike:
//!
//! - **Expiring leases.** Ownership is granted for a bounded window
//!   ([`crate::ownership::grant_ownership_for`]) — §2.2 hands the rank over
//!   "knowing that JAFAR will finish its allotted work in that amount of
//!   time". Before each invocation the driver renews the lease whenever
//!   the remaining window is thinner than the setup cost plus
//!   [`ResilienceConfig::renew_margin`], so every datapath, which refuses
//!   a job admitted at or past the deadline, is invoked inside it.
//! - **Watchdog.** An invocation whose completion is not observed within
//!   [`WATCHDOG`] plus [`WATCHDOG_PER_ROW`]·rows is abandoned at the
//!   timeout (the stalled transfer keeps the DIMM busy, but the host stops
//!   waiting) and retried.
//! - **Bounded exponential backoff.** Transient failures — MRS glitches,
//!   uncorrectable ECC reads, preempted streams, watchdog timeouts, lease
//!   expiry races — are retried up to [`ResilienceConfig::max_retries`]
//!   times with delay `min(BACKOFF_BASE · 2^attempt, BACKOFF_MAX)`.
//! - **Circuit breaker.** After [`ResilienceConfig::breaker_threshold`]
//!   consecutive exhausted ladders the driver stops attempting pushdown;
//!   one success resets the count.
//!
//! When the ladder gives up, each job shape has one contract:
//!
//! - **Fall back.** [`ResilientDriver::step_page`] finishes the select
//!   page on the host: the lease is released, the page is streamed over
//!   timed host reads and every lane's bitset slice written back as whole
//!   64-byte lines — bit-identical to what the device would have produced.
//!   If even the release fails, the driver degrades to functional reads
//!   and writes with a modelled per-line cost, so the *result* is always
//!   correct and only the *cost* varies.
//! - **Park.** [`ResilientDriver::step_page_failfast`] freezes the session
//!   at its page boundary for the caller to migrate.
//! - **Hand back.** The one-shot kernels,
//!   [`ResilientDriver::try_run_aggregate`] and
//!   [`ResilientDriver::try_run_project`], return the tick the ladder gave
//!   up, as §2.2's `select_jafar` returns an errno: the caller decides what
//!   runs next (the serving engine re-dispatches the job or finishes it on
//!   its own host rung).
//!
//! Every recovery action is counted in [`DriverStats`], surfaced as a
//! [`Scoreboard`] so the simulator's run report can say what the faults
//! cost. A select session also keeps a time ledger ([`FusedDriverRun`]'s
//! `cpu_wait`, `device` and `driver`): spin-waits and abandoned watchdog
//! budgets, successful device runs, and setup, discovery and backoff. A
//! kernel keeps none. Under an empty fault plan no rung past the first
//! invocation is entered, and each page costs its register setup, its
//! device run and its completion discovery; `jafar-sim`'s
//! `run_select_jafar` is this driver under the default policy.
//!
//! There is one select path: a [`SelectSession`] over 1..=
//! [`crate::device::MAX_FUSED_LANES`] predicate lanes, one page step
//! (fail-fast or fall back) and one CPU page fallback. A plain select
//! ([`ResilientDriver::run_select`]) is the one-lane session.

use crate::aggregate::AggregateJob;
use crate::api::{device_errno, errno, issue_errno, select_jafar_lanes, DriverCosts};
use crate::device::{burst_words, rank_of, DeviceError, JafarDevice};
use crate::ownership::{grant_ownership_for, release_ownership, renew_lease, Lease};
use crate::project::ProjectJob;
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::stats::{Counter, Scoreboard};
use jafar_common::time::Tick;
use jafar_dram::{DramModule, IssueError, PhysAddr, Requester};

/// Watchdog budget, fixed part. A page whose completion is not observed
/// within `WATCHDOG + WATCHDOG_PER_ROW · page_rows` of its invocation is
/// abandoned and retried.
pub const WATCHDOG: Tick = Tick::from_us(20);

/// Watchdog budget, per-row part — scales the timeout with the page size
/// so huge pages get a proportionally longer window. 10 ns/row is ~10×
/// the clean per-row streaming time, so a healthy page never trips it
/// while a stalled burst still does.
pub const WATCHDOG_PER_ROW: Tick = Tick::from_ns(10);

/// First retry delay; doubles per attempt.
pub const BACKOFF_BASE: Tick = Tick::from_ns(200);

/// Backoff ceiling.
pub const BACKOFF_MAX: Tick = Tick::from_us(10);

/// CPU fallback: predicate cost per 64-bit word.
pub const CPU_WORD_COST: Tick = Tick::from_ps(500);

/// CPU fallback: modelled cost per 64-byte line when the timed host path
/// is unavailable (rank still owned) and the driver degrades to
/// functional reads.
pub const DEGRADED_LINE_COST: Tick = Tick::from_ns(100);

/// Knobs of the recovery policy.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Per-invocation host costs (register programming, completion
    /// discovery).
    pub costs: DriverCosts,
    /// Retries per page beyond the first attempt before falling back.
    pub max_retries: u32,
    /// Consecutive page failures before the breaker trips and the rest of
    /// the query runs on the CPU.
    pub breaker_threshold: u32,
    /// Ownership window per grant/renewal (`Tick::MAX` = non-expiring).
    pub lease_window: Tick,
    /// Renew the lease before invoking a page if less than this remains.
    pub renew_margin: Tick,
    /// Bytes per `select_jafar` invocation (the Figure-2 page). The
    /// driver pages in whole 64-byte bitset lines: a page holds
    /// `page_bytes / 8` rows rounded down to a multiple of 512, and at
    /// least 512, so every page's column slice and bitset slice start
    /// 64-byte aligned. 4 KiB and 2 MiB pages are whole lines already.
    pub page_bytes: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            costs: DriverCosts::default(),
            max_retries: 3,
            breaker_threshold: 2,
            lease_window: Tick::MAX,
            renew_margin: Tick::from_us(2),
            page_bytes: 4096,
        }
    }
}

/// What the recovery machinery did during one or more runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Pages processed in total.
    pub pages: Counter,
    /// Pages completed on the device.
    pub pages_jafar: Counter,
    /// Pages completed by the CPU fallback scan.
    pub pages_cpu: Counter,
    /// Page attempts repeated after a transient failure.
    pub retries: Counter,
    /// Ownership grants (initial and re-grants after fallback).
    pub lease_grants: Counter,
    /// In-place lease renewals between pages.
    pub lease_renewals: Counter,
    /// Jobs rejected with `EKEYEXPIRED` (the renewal raced the deadline).
    pub lease_expiries: Counter,
    /// Pages abandoned at the watchdog timeout.
    pub watchdog_fires: Counter,
    /// Mode-register commands retried after a transient glitch.
    pub mrs_retries: Counter,
    /// Pages aborted by an uncorrectable ECC read (`EIO`).
    pub uncorrectable: Counter,
    /// Times the circuit breaker tripped to all-CPU execution.
    pub breaker_trips: Counter,
    /// 64-byte lines read functionally because the timed host path was
    /// unavailable during a fallback scan.
    pub degraded_lines: Counter,
}

impl DriverStats {
    /// Sum of every recovery event — zero iff the run was undisturbed.
    pub fn recovery_total(&self) -> u64 {
        self.retries.get()
            + self.lease_renewals.get()
            + self.lease_expiries.get()
            + self.watchdog_fires.get()
            + self.mrs_retries.get()
            + self.uncorrectable.get()
            + self.breaker_trips.get()
            + self.pages_cpu.get()
            + self.degraded_lines.get()
    }

    /// The counters as a named scoreboard for run reports.
    pub fn scoreboard(&self) -> Scoreboard {
        let mut s = Scoreboard::new();
        s.add("pages", self.pages.get());
        s.add("pages_jafar", self.pages_jafar.get());
        s.add("pages_cpu", self.pages_cpu.get());
        s.add("retries", self.retries.get());
        s.add("lease_grants", self.lease_grants.get());
        s.add("lease_renewals", self.lease_renewals.get());
        s.add("lease_expiries", self.lease_expiries.get());
        s.add("watchdog_fires", self.watchdog_fires.get());
        s.add("mrs_retries", self.mrs_retries.get());
        s.add("uncorrectable", self.uncorrectable.get());
        s.add("breaker_trips", self.breaker_trips.get());
        s.add("degraded_lines", self.degraded_lines.get());
        s
    }
}

/// One full-column select request.
#[derive(Clone, Copy, Debug)]
pub struct SelectRequest {
    /// 64-byte-aligned base of the packed `i64` column.
    pub col_addr: PhysAddr,
    /// Rows in the column.
    pub rows: u64,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// 64-byte-aligned base of the output bitset.
    pub out_addr: PhysAddr,
}

/// One full-column select request over `k` lanes: `k` range predicates
/// over the same column, each with its own output bitset region
/// (1 ≤ k ≤ [`crate::device::MAX_FUSED_LANES`]).
#[derive(Clone, Debug)]
pub struct FusedSelectRequest {
    /// 64-byte-aligned base of the packed `i64` column.
    pub col_addr: PhysAddr,
    /// Rows in the column.
    pub rows: u64,
    /// Per-lane inclusive `(lo, hi)` bounds.
    pub preds: Vec<(i64, i64)>,
    /// Per-lane 64-byte-aligned bases of the output bitsets.
    pub out_addrs: Vec<PhysAddr>,
}

impl From<SelectRequest> for FusedSelectRequest {
    /// The one-lane request.
    fn from(req: SelectRequest) -> Self {
        FusedSelectRequest {
            col_addr: req.col_addr,
            rows: req.rows,
            preds: vec![(req.lo, req.hi)],
            out_addrs: vec![req.out_addr],
        }
    }
}

/// Outcome of one resilient run over `k` lanes.
#[derive(Clone, Debug)]
pub struct FusedDriverRun {
    /// End of the run (ownership released or final fallback write done).
    pub end: Tick,
    /// Per-lane matching rows.
    pub matched: Vec<u64>,
    /// Pages processed (the column is paged once for all lanes).
    pub pages: u64,
    /// CPU time burned spin-waiting on device completions.
    pub cpu_wait: Tick,
    /// Time inside device page runs (successful invocations only).
    pub device: Tick,
    /// Host driver time: setup, completion discovery, backoff waits.
    pub driver: Tick,
}

impl FusedDriverRun {
    /// The run as lane 0 saw it: the outcome of a one-lane select.
    pub(crate) fn first_lane(&self) -> DriverRun {
        DriverRun {
            end: self.end,
            matched: self.matched[0],
            pages: self.pages,
            cpu_wait: self.cpu_wait,
            device: self.device,
            driver: self.driver,
        }
    }
}

/// Outcome of one resilient one-lane run.
#[derive(Clone, Copy, Debug)]
pub struct DriverRun {
    /// End of the run (ownership released or final fallback write done).
    pub end: Tick,
    /// Matching rows.
    pub matched: u64,
    /// Pages processed.
    pub pages: u64,
    /// CPU time burned spin-waiting on device completions.
    pub cpu_wait: Tick,
    /// Time inside device page runs (successful invocations only).
    pub device: Tick,
    /// Host driver time: setup, completion discovery, backoff waits.
    pub driver: Tick,
}

/// Outcome of one aggregation the device served under the ladder.
#[derive(Clone, Copy, Debug)]
pub struct AggregateOutcome {
    /// Completion tick, as the host observed the device finish.
    pub end: Tick,
    /// The folded scalar, with the device kernel's semantics: sum for
    /// `Sum`/`Avg`, extremum for `Min`/`Max` (`None` when no row
    /// qualified), count for `Count`.
    pub value: Option<i64>,
    /// Qualifying rows.
    pub count: u64,
}

/// Outcome of one projection pass the device served under the ladder.
#[derive(Clone, Copy, Debug)]
pub struct ProjectOutcome {
    /// Completion tick, as the host observed the device finish.
    pub end: Tick,
    /// Values packed to `out_addr`.
    pub emitted: u64,
}

/// A select in progress over `k` predicate lanes (1 ≤ k ≤
/// [`crate::device::MAX_FUSED_LANES`]), steppable one page at a time. One page step
/// streams the page once and advances every lane together; parking
/// freezes all `k` lanes at the same page boundary, so a migration
/// salvages `k` bitset prefixes of identical length. A plain select is
/// the one-lane session.
///
/// [`ResilientDriver::run_select_fused`] is simply
/// [`ResilientDriver::start_session`] + [`ResilientDriver::step_page`]
/// until done; the rank-parallel scheduler ([`crate::parallel`]) instead
/// holds one session per rank and always steps the one whose simulated
/// clock is furthest behind, interleaving the per-rank timelines without
/// any shard ever observing another's future.
pub struct SelectSession {
    req: FusedSelectRequest,
    rank: u32,
    row: u64,
    t: Tick,
    matched: Vec<u64>,
    pages: u64,
    spent: Spent,
    done: bool,
    parked: bool,
}

impl SelectSession {
    /// The session's simulated clock: everything this shard has done so
    /// far happened at or before this tick.
    pub fn cursor(&self) -> Tick {
        self.t
    }

    /// True once the final page completed and the lease was released.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True when a fail-fast step gave up on the device without falling
    /// back to the CPU scan: the session is frozen at a page boundary
    /// (every lane complete up to [`SelectSession::next_row`], its
    /// matches banked in [`SelectSession::matched`]) so a healthy rank
    /// can resume it via [`ResilientDriver::resume_session`].
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Per-lane matches banked so far (complete up to
    /// [`SelectSession::next_row`]).
    pub fn matched(&self) -> &[u64] {
        &self.matched
    }

    /// The rank this session's column lives on.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The next unprocessed row (page-granular progress, shared by every
    /// lane).
    pub fn next_row(&self) -> u64 {
        self.row
    }

    /// Folds the finished session into a [`FusedDriverRun`].
    ///
    /// # Panics
    /// Panics if the session is not done yet.
    pub fn into_run(self) -> FusedDriverRun {
        assert!(self.done, "session still has pages to run");
        FusedDriverRun {
            end: self.t,
            matched: self.matched,
            pages: self.pages,
            cpu_wait: self.spent.cpu_wait,
            device: self.spent.device,
            driver: self.spent.driver,
        }
    }
}

/// Where a ladder's time went: the ledger a [`SelectSession`] reports in
/// its [`FusedDriverRun`]. A one-shot kernel passes a fresh one and drops
/// it.
#[derive(Clone, Copy, Debug, Default)]
struct Spent {
    /// Spin-waiting on completions, abandoned watchdog budgets included.
    cpu_wait: Tick,
    /// Inside successful device runs.
    device: Tick,
    /// Setup, completion discovery and backoff waits.
    driver: Tick,
}

/// The resilient driver. Owns the recovery policy, the current lease and
/// the circuit-breaker state; accumulates [`DriverStats`] across runs.
pub struct ResilientDriver {
    cfg: ResilienceConfig,
    /// Rows per page, derived once from `cfg.page_bytes`: whole 512-row
    /// (64-byte) bitset lines, at least one.
    page_rows: u64,
    stats: DriverStats,
    lease: Option<Lease>,
    consecutive_failures: u32,
    breaker_open: bool,
    tracer: SharedTracer,
}

impl ResilientDriver {
    /// A driver with the given policy.
    pub fn new(cfg: ResilienceConfig) -> Self {
        ResilientDriver {
            cfg,
            page_rows: (cfg.page_bytes / 8 / 512 * 512).max(512),
            stats: DriverStats::default(),
            lease: None,
            consecutive_failures: 0,
            breaker_open: false,
            tracer: SharedTracer::disabled(),
        }
    }

    /// Attaches an event tracer: lease transitions, retries, watchdog and
    /// breaker events are emitted into it. Purely observational.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = tracer;
    }

    /// The policy.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// Accumulated recovery statistics.
    pub fn stats(&self) -> &DriverStats {
        &self.stats
    }

    /// Whether the breaker has tripped to all-CPU execution.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open
    }

    /// Resets the breaker (e.g. between queries, after the operator
    /// decides the device is healthy again).
    pub fn reset_breaker(&mut self) {
        self.breaker_open = false;
        self.consecutive_failures = 0;
    }

    fn backoff(attempt: u32) -> Tick {
        let mult = 1u64 << attempt.min(20);
        let ps = BACKOFF_BASE
            .as_ps()
            .saturating_mul(mult)
            .min(BACKOFF_MAX.as_ps());
        Tick::from_ps(ps)
    }

    /// Runs the full select, page by page, recovering from injected faults
    /// as configured: the one-lane [`ResilientDriver::run_select_fused`].
    /// The result bitset at `req.out_addr` always equals the software
    /// reference; [`DriverStats`] records what that cost.
    pub fn run_select(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        req: SelectRequest,
        start: Tick,
    ) -> DriverRun {
        self.run_select_fused(device, module, req.into(), start)
            .first_lane()
    }

    /// Runs a full select over `k` predicate lanes, page by page,
    /// recovering from injected faults as configured. Every lane's bitset
    /// at its `out_addr` equals the software reference — and is
    /// byte-identical to `k` one-lane [`ResilientDriver::run_select`]
    /// runs of the same predicates — whichever rung produced each page.
    pub fn run_select_fused(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        req: FusedSelectRequest,
        start: Tick,
    ) -> FusedDriverRun {
        let mut session = self.start_session(module, req, start);
        while !session.is_done() {
            self.step_page(device, module, &mut session);
        }
        session.into_run()
    }

    /// Opens a steppable session for `req`. Pair with
    /// [`ResilientDriver::step_page`] or
    /// [`ResilientDriver::step_page_failfast`].
    pub fn start_session(
        &self,
        module: &DramModule,
        req: FusedSelectRequest,
        start: Tick,
    ) -> SelectSession {
        let lanes = req.preds.len();
        self.resume_session(module, req, 0, vec![0; lanes], start)
    }

    /// Reopens a session that a previous rank left parked: the first
    /// `rows_done` rows of *every* lane are complete (their bitset
    /// prefixes salvaged by the caller) with `matched[lane]` matches
    /// banked, and this driver's rank continues from that shared page
    /// boundary at `start` under a fresh lease. Time accounting restarts
    /// at zero — the migrated session reports only the work done on the
    /// new rank.
    pub fn resume_session(
        &self,
        module: &DramModule,
        req: FusedSelectRequest,
        rows_done: u64,
        matched: Vec<u64>,
        start: Tick,
    ) -> SelectSession {
        debug_assert_eq!(matched.len(), req.preds.len());
        SelectSession {
            rank: module.decoder().decode(req.col_addr).rank,
            req,
            row: rows_done,
            t: start,
            matched,
            pages: 0,
            spent: Spent::default(),
            done: false,
            parked: false,
        }
    }

    /// Advances `session` by one page (device attempt with the full
    /// recovery ladder, or the CPU fallback), or — once every page is
    /// processed — releases the lease and marks the session done. No-op
    /// on a done or parked session.
    pub fn step_page(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        session: &mut SelectSession,
    ) {
        self.step_page_inner(device, module, session, false);
    }

    /// Like [`ResilientDriver::step_page`], but a page that exhausts the
    /// device ladder *parks* the session at its current page boundary —
    /// all lanes together — instead of crawling through the CPU scan:
    /// `session.is_parked()` turns true, the row cursor does not advance,
    /// and the caller decides what happens next (typically migrating the
    /// shard to a healthy rank via [`ResilientDriver::resume_session`]).
    /// Breaker accounting is identical to the fallback path.
    pub fn step_page_failfast(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        session: &mut SelectSession,
    ) {
        self.step_page_inner(device, module, session, true);
    }

    fn step_page_inner(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        session: &mut SelectSession,
        failfast: bool,
    ) {
        if session.done || session.parked {
            return;
        }
        if session.row >= session.req.rows {
            // Hand the rank back so host traffic resumes.
            self.release_current(module, &mut session.t);
            session.done = true;
            return;
        }
        let page_rows = self.page_rows.min(session.req.rows - session.row);
        let col_data = PhysAddr(session.req.col_addr.0 + session.row * 8);
        let out_off = session.row / 8;
        let (preds, outs) = (&session.req.preds, &session.req.out_addrs);
        self.stats.pages.inc();
        let counts = self.run_ladder(
            module,
            Some(session.rank),
            page_rows,
            col_data.0,
            &mut session.t,
            &mut session.spent,
            |m, at| {
                select_jafar_lanes(device, m, col_data, page_rows, preds, outs, out_off, at)
                    .map(|run| (run.end, run.matched))
            },
        );
        if let Some(counts) = counts {
            for (banked, n) in session.matched.iter_mut().zip(&counts) {
                *banked += n;
            }
            self.stats.pages_jafar.inc();
        } else if failfast {
            // Freeze at the page boundary: rows [0, session.row) are
            // complete in every lane and their bitset bytes are in DRAM;
            // the caller re-dispatches the remainder elsewhere, salvaging
            // one prefix per lane.
            session.parked = true;
            return;
        } else {
            self.tracer.emit(
                session.t,
                EventKind::CpuFallback {
                    page: session.pages,
                },
            );
            self.run_page_cpu(module, session, page_rows);
            self.stats.pages_cpu.inc();
        }
        session.row += page_rows;
        session.pages += 1;
    }

    /// The CPU fallback of the session's next page (`page_rows` rows):
    /// stream the page once over the host path, evaluate every lane's
    /// predicate in software, bank each lane's matches and write each
    /// lane's bitset slice back — byte-identical to what the device pass
    /// would have produced per lane. The CPU has no parallel comparator
    /// array, so predicate evaluation is charged per lane: [`CPU_WORD_COST`]
    /// per word and lane.
    fn run_page_cpu(
        &mut self,
        module: &mut DramModule,
        session: &mut SelectSession,
        page_rows: u64,
    ) {
        let col = PhysAddr(session.req.col_addr.0 + session.row * 8);
        let (preds, matched) = (&session.req.preds, &mut session.matched);
        let mut out_bytes = vec![vec![0u8; page_rows.div_ceil(8) as usize]; preds.len()];
        let word_cost = CPU_WORD_COST * preds.len() as u64;
        self.host_stream(
            module,
            col,
            page_rows,
            word_cost,
            &mut session.t,
            |row, v| {
                for ((&(lo, hi), bytes), count) in
                    preds.iter().zip(&mut out_bytes).zip(&mut *matched)
                {
                    if lo <= v && v <= hi {
                        *count += 1;
                        bytes[(row / 8) as usize] |= 1 << (row % 8);
                    }
                }
            },
        );
        // Pages hold whole bitset lines, so every slice starts
        // line-aligned and is written back in the device's footprint.
        for (bytes, base) in out_bytes.iter().zip(&session.req.out_addrs) {
            let out = PhysAddr(base.0 + session.row / 8);
            self.host_write(module, out, bytes, &mut session.t);
        }
    }

    /// The one recovery ladder, under select pages and one-shot kernels
    /// alike. While the breaker is open it gives up at once. Otherwise
    /// each attempt keeps the lease (grant if absent, renew when the
    /// window would not cover the invocation plus the margin), invokes
    /// the device through `invoke` at `t` plus the setup cost, and holds
    /// the observed completion to the watchdog; a transient failure is
    /// retried after a bounded backoff, keyed by its [`DeviceError`].
    /// `invoke` returns the device's end tick and the result; `rows`
    /// sizes the watchdog budget and `tag` names the job in trace events.
    /// `spent` books the time. A success resets the breaker's failure
    /// count; giving up counts one failure, trips the breaker at the
    /// threshold and returns `None`, and the caller chooses what follows:
    /// fall back, park or hand the job back. A job with no `rank` (its
    /// column starts past the module's end) gives up at once, as on
    /// [`DeviceError::SpansRanks`].
    #[allow(clippy::too_many_arguments)]
    fn run_ladder<R>(
        &mut self,
        module: &mut DramModule,
        rank: Option<u32>,
        rows: u64,
        tag: u64,
        t: &mut Tick,
        spent: &mut Spent,
        mut invoke: impl FnMut(&mut DramModule, Tick) -> Result<(Tick, R), DeviceError>,
    ) -> Option<R> {
        if self.breaker_open {
            return None;
        }
        let mut attempt = 0u32;
        let outcome = loop {
            // No rank to lease: `admit` would refuse the job as spanning
            // ranks, a permanent error.
            let Some(rank) = rank else {
                break None;
            };
            // Lease upkeep: acquire if absent, renew if the remaining
            // window would not cover this invocation plus the margin.
            let horizon = *t + self.cfg.costs.setup + self.cfg.renew_margin;
            let upkeep = match &mut self.lease {
                None => grant_ownership_for(module, rank, *t, self.cfg.lease_window).map(|lease| {
                    self.stats.lease_grants.inc();
                    self.tracer.emit(
                        lease.acquired_at,
                        EventKind::LeaseGrant {
                            rank,
                            until: lease.expires_at,
                        },
                    );
                    *t = lease.acquired_at;
                    self.lease = Some(lease);
                }),
                Some(lease) if horizon >= lease.expires_at => {
                    renew_lease(module, lease, *t, self.cfg.lease_window).map(|renewed_at| {
                        self.stats.lease_renewals.inc();
                        self.tracer.emit(
                            renewed_at,
                            EventKind::LeaseRenew {
                                rank,
                                until: lease.expires_at,
                            },
                        );
                        *t = renewed_at;
                    })
                }
                Some(_) => Ok(()),
            };
            if let Err(e) = upkeep {
                // A glitched MRS, or a refresh storm preempting the
                // quiesce: both transient. A failed renewal leaves the
                // deadline unchanged.
                if e == IssueError::MrsGlitch {
                    self.stats.mrs_retries.inc();
                }
                if !self.note_failure(&mut attempt, t, spent, issue_errno(e)) {
                    break None;
                }
                continue;
            }
            let invoke_at = *t + self.cfg.costs.setup;
            let cause = match invoke(module, invoke_at) {
                Ok((end, result)) => {
                    let (observed, burned) = self.cfg.costs.completion.observe(invoke_at, end);
                    let budget = WATCHDOG + WATCHDOG_PER_ROW * rows;
                    let deadline = invoke_at + budget;
                    if observed <= deadline {
                        spent.cpu_wait += burned;
                        spent.device += end - invoke_at;
                        spent.driver += observed.saturating_sub(end) + self.cfg.costs.setup;
                        *t = observed.max(end);
                        break Some(result);
                    }
                    // The completion never showed inside the window: the
                    // host abandons the wait at the timeout.
                    self.stats.watchdog_fires.inc();
                    self.tracer
                        .emit(deadline, EventKind::WatchdogFire { page: tag });
                    spent.cpu_wait += budget;
                    *t = deadline;
                    errno::ETIMEDOUT
                }
                // Permanent for this job shape; retrying cannot help.
                Err(
                    DeviceError::Misaligned | DeviceError::SpansRanks | DeviceError::LaneOverflow,
                ) => break None,
                Err(e) => {
                    match e {
                        // The deadline raced past during a backoff; renew
                        // on the next attempt.
                        DeviceError::LeaseExpired => {
                            self.stats.lease_expiries.inc();
                            self.tracer.emit(invoke_at, EventKind::LeaseExpire { rank });
                        }
                        // Ownership vanished under us: re-grant.
                        DeviceError::NotOwned => self.lease = None,
                        // The functional store is intact; a retry re-reads
                        // clean data.
                        DeviceError::Uncorrectable => self.stats.uncorrectable.inc(),
                        // A preempted stream is transient by construction.
                        _ => {}
                    }
                    *t = invoke_at;
                    device_errno(e)
                }
            };
            if !self.note_failure(&mut attempt, t, spent, cause) {
                break None;
            }
        };
        if outcome.is_some() {
            self.consecutive_failures = 0;
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.cfg.breaker_threshold {
                self.breaker_open = true;
                self.stats.breaker_trips.inc();
                self.tracer
                    .emit(*t, EventKind::BreakerTransition { open: true });
            }
        }
        outcome
    }

    /// Books one failed attempt: counts the retry, waits out the backoff.
    /// False means the attempt budget is exhausted. `cause` is the errno of
    /// the failed attempt (for the trace record).
    fn note_failure(
        &mut self,
        attempt: &mut u32,
        t: &mut Tick,
        spent: &mut Spent,
        cause: i32,
    ) -> bool {
        if *attempt >= self.cfg.max_retries {
            return false;
        }
        let pause = Self::backoff(*attempt);
        *t += pause;
        spent.driver += pause;
        *attempt += 1;
        self.stats.retries.inc();
        self.tracer.emit(
            *t,
            EventKind::DriverRetry {
                attempt: *attempt,
                errno: cause,
            },
        );
        true
    }

    /// Releases the held lease, retrying transient MRS glitches. If the
    /// release cannot land within the retry budget the lease is dropped
    /// anyway (the rank stays device-owned; fallback reads degrade).
    fn release_current(&mut self, module: &mut DramModule, t: &mut Tick) {
        let Some(lease) = self.lease.take() else {
            return;
        };
        let rank = lease.rank;
        let acquired_at = lease.acquired_at;
        let mut pending = lease;
        for attempt in 0..=self.cfg.max_retries {
            match release_ownership(module, pending, *t) {
                Ok(released) => {
                    *t = released;
                    return;
                }
                Err(e) => {
                    // A glitched MRS or a refresh storm preempting the
                    // quiesce; both transient.
                    if e == IssueError::MrsGlitch {
                        self.stats.mrs_retries.inc();
                    }
                    *t += Self::backoff(attempt);
                    pending = Lease {
                        rank,
                        acquired_at,
                        expires_at: Tick::MAX,
                    };
                }
            }
        }
    }

    /// Runs one scalar aggregation on the device under the full ladder.
    /// When the ladder gives up (retries exhausted, the breaker open, or a
    /// job the device refuses for good) the job is handed *back*:
    /// `Err(tick)` is the time it gave up, breaker accounting booked, and
    /// the caller decides what runs next. The value travels in the
    /// returned [`AggregateOutcome`], not in DRAM.
    pub fn try_run_aggregate(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        job: AggregateJob,
        start: Tick,
    ) -> Result<AggregateOutcome, Tick> {
        let rank = rank_of(module, job.col_addr);
        let mut t = start;
        let run = self.run_ladder(
            module,
            rank,
            job.rows,
            job.col_addr.0,
            &mut t,
            &mut Spent::default(),
            |m, at| device.run_aggregate(m, job, at).map(|r| (r.end, r)),
        );
        run.map(|r| AggregateOutcome {
            end: t,
            value: r.value,
            count: r.count,
        })
        .ok_or(t)
    }

    /// Runs one projection pass on the device under the full ladder,
    /// with [`ResilientDriver::try_run_aggregate`]'s contract: `Err(tick)`
    /// hands the job back at the tick the ladder gave up.
    pub fn try_run_project(
        &mut self,
        device: &mut JafarDevice,
        module: &mut DramModule,
        job: ProjectJob,
        start: Tick,
    ) -> Result<ProjectOutcome, Tick> {
        let rank = rank_of(module, job.col_addr);
        let mut t = start;
        let run = self.run_ladder(
            module,
            rank,
            job.rows,
            job.col_addr.0,
            &mut t,
            &mut Spent::default(),
            |m, at| device.run_project(m, job, at).map(|r| (r.end, r)),
        );
        run.map(|r| ProjectOutcome {
            end: t,
            emitted: r.emitted,
        })
        .ok_or(t)
    }

    /// The host half of the page fallback: releases the lease if held, then
    /// streams `rows` packed `i64` values from `col` line by line over
    /// [`ResilientDriver::read_line`], calling `each(row, value)` in row
    /// order and charging `word_cost` per word of each line.
    fn host_stream(
        &mut self,
        module: &mut DramModule,
        col: PhysAddr,
        rows: u64,
        word_cost: Tick,
        t: &mut Tick,
        mut each: impl FnMut(u64, i64),
    ) {
        self.release_current(module, t);
        for b in 0..rows.div_ceil(8) {
            let data = self.read_line(module, PhysAddr(col.0 + b * 64), t);
            let words = (rows - b * 8).min(8);
            for (w, v) in (0..words).zip(burst_words(&data)) {
                each(b * 8 + w, v);
            }
            *t += word_cost * words;
        }
    }

    /// Writes `bytes` from `base` as whole 64-byte lines (the tail
    /// zero-padded) over the timed host path, degrading to a functional
    /// write at a modelled cost when the rank is still owned.
    fn host_write(&mut self, module: &mut DramModule, base: PhysAddr, bytes: &[u8], t: &mut Tick) {
        for (i, chunk) in bytes.chunks(64).enumerate() {
            let mut line = [0u8; 64];
            line[..chunk.len()].copy_from_slice(chunk);
            let addr = PhysAddr(base.0 + i as u64 * 64);
            match module.serve_addr(addr, true, Requester::Host, *t, Some(&line)) {
                Ok(access) => *t = access.data_ready,
                Err(_) => {
                    self.stats.degraded_lines.inc();
                    module.data_mut().write(addr, &line);
                    *t += DEGRADED_LINE_COST;
                }
            }
        }
    }

    /// One 64-byte line over the timed host path, degrading to a
    /// functional read at a modelled cost when the timed path is
    /// unavailable (rank still owned, or the burst was uncorrectable).
    fn read_line(
        &mut self,
        module: &mut DramModule,
        addr: PhysAddr,
        cursor: &mut Tick,
    ) -> [u8; 64] {
        match module.serve_addr(addr, false, Requester::Host, *cursor, None) {
            Ok(access) => {
                *cursor = access.data_ready;
                *access.data.expect("read returns data")
            }
            Err(_) => {
                self.stats.degraded_lines.inc();
                let mut buf = [0u8; 64];
                module.data().read(addr, &mut buf);
                *cursor += DEGRADED_LINE_COST;
                buf
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggOp;
    use jafar_common::bitset::BitSet;
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming, FaultInjector, FaultPlan};

    const OUT: PhysAddr = PhysAddr(64 * 1024);

    fn module_with_column(rows: u64, seed: u64) -> (DramModule, Vec<i64>) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut rng = SplitMix64::new(seed);
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        for (i, v) in values.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(i as u64 * 8), *v);
        }
        (m, values)
    }

    fn reference(values: &[i64], lo: i64, hi: i64) -> Vec<u32> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| lo <= v && v <= hi)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn bitset_at(m: &DramModule, addr: PhysAddr, rows: u64) -> Vec<u32> {
        let mut bytes = vec![0u8; rows.div_ceil(8) as usize];
        m.data().read(addr, &mut bytes);
        BitSet::from_bytes(&bytes, rows as usize).to_positions()
    }

    fn request(rows: u64, lo: i64, hi: i64) -> SelectRequest {
        SelectRequest {
            col_addr: PhysAddr(0),
            rows,
            lo,
            hi,
            out_addr: OUT,
        }
    }

    #[test]
    fn clean_run_touches_no_recovery_machinery() {
        let (mut m, values) = module_with_column(2048, 11);
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        let run = driver.run_select(&mut device, &mut m, request(2048, 100, 499), Tick::ZERO);
        let expect = reference(&values, 100, 499);
        assert_eq!(run.matched as usize, expect.len());
        assert_eq!(bitset_at(&m, OUT, 2048), expect);
        let s = driver.stats();
        assert_eq!(s.pages_jafar.get(), run.pages);
        assert_eq!(s.pages_cpu.get(), 0);
        assert_eq!(s.recovery_total(), 0, "no faults, no recovery");
        assert_eq!(s.lease_grants.get(), 1);
        assert!(!m.rank_owned_by_ndp(0), "lease released at the end");
    }

    #[test]
    fn stuck_completion_trips_watchdog_then_cpu_fallback() {
        let (mut m, values) = module_with_column(2048, 12);
        // Pages are 512 rows = 64 bursts. Stall every read burst from the
        // start of page 3 (global index 128 on the device path) onward.
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            stall_burst_range: Some((128, u64::MAX)),
            ..FaultPlan::none(0)
        })));
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let run = driver.run_select(&mut device, &mut m, request(2048, 100, 499), Tick::ZERO);
        assert_eq!(bitset_at(&m, OUT, 2048), reference(&values, 100, 499));
        assert_eq!(run.matched as usize, reference(&values, 100, 499).len());
        let s = driver.stats();
        assert!(s.watchdog_fires.get() >= 1, "stall must trip the watchdog");
        assert!(s.retries.get() >= 1);
        assert!(s.pages_cpu.get() >= 1, "fallback finished the query");
        assert_eq!(s.breaker_trips.get(), 1);
        assert_eq!(s.pages_jafar.get() + s.pages_cpu.get(), run.pages);
    }

    #[test]
    fn permanent_mrs_glitches_force_all_cpu_and_stay_correct() {
        let (mut m, values) = module_with_column(1536, 13);
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            mrs_glitch_p: 1.0,
            ..FaultPlan::none(4)
        })));
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        let run = driver.run_select(&mut device, &mut m, request(1536, 0, 249), Tick::ZERO);
        assert_eq!(bitset_at(&m, OUT, 1536), reference(&values, 0, 249));
        let s = driver.stats();
        assert_eq!(s.pages_jafar.get(), 0, "no grant ever lands");
        assert_eq!(s.pages_cpu.get(), run.pages);
        assert!(s.mrs_retries.get() >= 1);
        assert_eq!(s.breaker_trips.get(), 1);
        assert!(!m.rank_owned_by_ndp(0), "ownership never took effect");
    }

    #[test]
    fn short_lease_renews_between_pages() {
        let (mut m, values) = module_with_column(4096, 14);
        let mut device = JafarDevice::paper_default();
        // A page takes roughly 0.5–1 µs end to end; a 2 µs window with a
        // 1 µs margin forces renewals as the run progresses.
        let mut driver = ResilientDriver::new(ResilienceConfig {
            lease_window: Tick::from_us(2),
            renew_margin: Tick::from_us(1),
            ..ResilienceConfig::default()
        });
        let run = driver.run_select(&mut device, &mut m, request(4096, 250, 749), Tick::ZERO);
        assert_eq!(bitset_at(&m, OUT, 4096), reference(&values, 250, 749));
        let s = driver.stats();
        assert!(
            s.lease_renewals.get() >= 1,
            "short window must force at least one renewal (got {})",
            s.lease_renewals.get()
        );
        assert_eq!(s.pages_jafar.get(), run.pages, "renewals avoid expiry");
        assert_eq!(s.pages_cpu.get(), 0);
    }

    #[test]
    fn try_run_project_hands_a_stalled_job_back() {
        const PROJ: PhysAddr = PhysAddr(128 * 1024);
        let (mut m, values) = module_with_column(2048, 22);
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        driver.run_select(&mut device, &mut m, request(2048, 100, 499), Tick::ZERO);
        let job = ProjectJob {
            col_addr: PhysAddr(0),
            rows: 2048,
            bitset_addr: OUT,
            out_addr: PROJ,
        };
        // Stall every burst: the ladder exhausts its retries and hands the
        // job back.
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            stall_burst_range: Some((0, u64::MAX)),
            ..FaultPlan::none(0)
        })));
        let mut sick = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let t_fail = sick
            .try_run_project(&mut device, &mut m, job, Tick::ZERO)
            .expect_err("a stalled projection is handed back");
        let s = sick.stats();
        assert!(s.watchdog_fires.get() >= 1);
        assert_eq!(s.breaker_trips.get(), 1, "the give-up is booked");

        // Re-dispatched on a healthy path, the job packs the selection.
        m.set_fault_injector(None);
        let out = driver
            .try_run_project(&mut device, &mut m, job, t_fail)
            .expect("a healthy rank serves the job");
        let expect: Vec<i64> = values
            .iter()
            .copied()
            .filter(|v| (100..=499).contains(v))
            .collect();
        assert_eq!(out.emitted as usize, expect.len());
        let packed: Vec<i64> = (0..expect.len())
            .map(|i| m.data().read_i64(PhysAddr(PROJ.0 + i as u64 * 8)))
            .collect();
        assert_eq!(packed, expect);
    }

    #[test]
    fn failfast_step_parks_at_a_page_boundary() {
        let (mut m, _) = module_with_column(2048, 31);
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let req = request(2048, 100, 499);
        let mut session = driver.start_session(&m, req.into(), Tick::ZERO);
        // Two clean pages, then the rank goes dark mid-query.
        driver.step_page_failfast(&mut device, &mut m, &mut session);
        driver.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(!session.is_parked());
        assert_eq!(session.next_row(), 1024);
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan::none(0).with_outage(
            0,
            Tick::ZERO,
            Tick::MAX,
        ))));
        let banked = session.matched().to_vec();
        driver.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(session.is_parked(), "dark rank must park the session");
        assert!(!session.is_done());
        assert_eq!(session.next_row(), 1024, "cursor frozen at the boundary");
        assert_eq!(session.matched(), banked, "banked matches frozen too");
        assert_eq!(driver.stats().pages_cpu.get(), 0, "no CPU crawl on park");
        assert!(driver.breaker_open(), "park still books breaker state");
        // A parked session refuses further steps.
        let t = session.cursor();
        driver.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(session.is_parked());
        assert_eq!(session.cursor(), t);
    }

    #[test]
    fn resumed_session_finishes_a_parked_query_bit_identically() {
        let (mut m, values) = module_with_column(2048, 32);
        let mut device = JafarDevice::paper_default();
        let mut sick = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let req = request(2048, 100, 499);
        let mut session = sick.start_session(&m, req.into(), Tick::ZERO);
        sick.step_page_failfast(&mut device, &mut m, &mut session);
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan::none(0).with_outage(
            0,
            Tick::ZERO,
            Tick::MAX,
        ))));
        sick.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(session.is_parked());
        let row = session.next_row();
        let banked = session.matched().to_vec();
        assert_eq!(row, 512, "one clean page before the outage");

        // The rank repairs; a fresh driver resumes from the boundary under
        // its own lease (the MPR grant is a level, so re-asserting over the
        // stale one is legal) and the final bitset matches the reference.
        m.set_fault_injector(None);
        let mut healthy = ResilientDriver::new(ResilienceConfig::default());
        let mut resumed = healthy.resume_session(&m, req.into(), row, banked, session.cursor());
        assert_eq!(resumed.next_row(), row);
        while !resumed.is_done() {
            healthy.step_page(&mut device, &mut m, &mut resumed);
        }
        let run = resumed.into_run();
        let expect = reference(&values, 100, 499);
        assert_eq!(run.matched, [expect.len() as u64]);
        assert_eq!(bitset_at(&m, OUT, 2048), expect);
        assert_eq!(healthy.stats().pages_cpu.get(), 0, "all-device resume");
        assert!(!m.rank_owned_by_ndp(0), "resumed run releases the rank");
    }

    #[test]
    fn ecc_failure_in_an_aggregate_retries_under_the_same_lease() {
        let job = AggregateJob {
            col_addr: PhysAddr(0),
            rows: 2048,
            op: AggOp::Sum,
            filter: Some(crate::predicate::Predicate::Between(100, 499)),
        };
        let (mut m, _) = module_with_column(2048, 41);
        let mut clean = ResilientDriver::new(ResilienceConfig::default());
        let expect = clean
            .try_run_aggregate(&mut JafarDevice::paper_default(), &mut m, job, Tick::ZERO)
            .expect("a clean module serves the job");

        // Every disturbed burst is a double flip that SECDED detects but
        // cannot correct: the device aborts with an ECC error while the
        // rank stays owned.
        let (mut m, _) = module_with_column(2048, 41);
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            read_flip_p: 0.002,
            double_flip_p: 1.0,
            ecc: true,
            ..FaultPlan::none(5)
        })));
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        let out = driver
            .try_run_aggregate(&mut JafarDevice::paper_default(), &mut m, job, Tick::ZERO)
            .expect("a retry serves the job on the device");
        assert_eq!(out.value, expect.value, "retried scalar differs");
        let s = driver.stats();
        assert!(
            s.uncorrectable.get() >= 1,
            "the ECC abort is booked as such"
        );
        assert_eq!(
            s.lease_grants.get(),
            clean.stats().lease_grants.get(),
            "an ECC abort is not lost ownership: no re-grant"
        );
    }

    #[test]
    fn try_run_aggregate_hands_the_job_back_instead_of_folding() {
        let (mut m, values) = module_with_column(2048, 33);
        let mut device = JafarDevice::paper_default();
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan::none(0).with_outage(
            0,
            Tick::ZERO,
            Tick::MAX,
        ))));
        let mut driver = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let job = AggregateJob {
            col_addr: PhysAddr(0),
            rows: 2048,
            op: AggOp::Sum,
            filter: Some(crate::predicate::Predicate::Between(100, 499)),
        };
        let err = driver.try_run_aggregate(&mut device, &mut m, job, Tick::ZERO);
        let t_fail = err.expect_err("dark rank exhausts the device path");
        assert!(t_fail > Tick::ZERO);
        assert!(driver.breaker_open(), "failure still books the breaker");

        // The same job re-dispatched on a healthy path folds the
        // reference scalar.
        m.set_fault_injector(None);
        let mut healthy = ResilientDriver::new(ResilienceConfig::default());
        let out = healthy
            .try_run_aggregate(&mut device, &mut m, job, t_fail)
            .expect("healthy rank serves the retried job");
        let expect: i64 = values
            .iter()
            .filter(|&&v| (100..=499).contains(&v))
            .fold(0i64, |a, &v| a.wrapping_add(v));
        assert_eq!(out.value, Some(expect));
    }

    /// A kernel job whose column starts at the module's end has no rank.
    /// The driver refuses it as its ladder refuses a job that spans
    /// ranks: no lease, no retry, one failure booked against the breaker,
    /// and `Err(start)`. One path still decodes such a column unchecked
    /// and would panic: `resume_session`, which returns a session rather
    /// than a `Result`. Storing `rank_of`'s `Option` there would only move
    /// the panic, since the session's CPU page fallback reads the same
    /// address through `serve_addr`'s decode; the select entry points need
    /// a typed error first.
    fn refuse_past_the_end(
        run: impl FnOnce(&mut ResilientDriver, &mut DramModule, PhysAddr, Tick) -> Result<Tick, Tick>,
    ) {
        let (mut m, _) = module_with_column(16, 34);
        let mut driver = ResilientDriver::new(ResilienceConfig {
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let end = PhysAddr(m.decoder().capacity());
        let start = Tick::from_ns(70);
        assert_eq!(run(&mut driver, &mut m, end, start), Err(start));
        assert!(driver.breaker_open(), "the give-up is booked");
        let s = driver.stats();
        assert_eq!(s.breaker_trips.get(), 1);
        assert_eq!(s.recovery_total(), 1, "the trip and nothing else");
        assert_eq!(s.lease_grants.get(), 0);
        assert_eq!(m.stats().mode_sets.get(), 0, "no rank was touched");
    }

    #[test]
    fn aggregate_past_the_module_end_is_refused() {
        let mut device = JafarDevice::paper_default();
        refuse_past_the_end(|driver, m, col_addr, start| {
            let job = AggregateJob {
                col_addr,
                rows: 16,
                op: AggOp::Sum,
                filter: None,
            };
            driver
                .try_run_aggregate(&mut device, m, job, start)
                .map(|out| out.end)
        });
    }

    #[test]
    fn project_past_the_module_end_is_refused() {
        let mut device = JafarDevice::paper_default();
        refuse_past_the_end(|driver, m, col_addr, start| {
            let job = ProjectJob {
                col_addr,
                rows: 16,
                bitset_addr: PhysAddr(0),
                out_addr: PhysAddr(4096),
            };
            driver
                .try_run_project(&mut device, m, job, start)
                .map(|out| out.end)
        });
    }

    fn fused_request(rows: u64, preds: &[(i64, i64)]) -> FusedSelectRequest {
        FusedSelectRequest {
            col_addr: PhysAddr(0),
            rows,
            preds: preds.to_vec(),
            out_addrs: (0..preds.len())
                .map(|lane| PhysAddr(OUT.0 + lane as u64 * 4096))
                .collect(),
        }
    }

    #[test]
    fn fused_run_is_byte_identical_to_solo_runs() {
        let preds = [(100, 499), (0, 49), (500, 999), (700, 700)];
        let rows = 2048u64;
        // Solo baselines, each on a fresh module.
        let mut solo: Vec<Vec<u32>> = Vec::new();
        for &(lo, hi) in &preds {
            let (mut m, values) = module_with_column(rows, 41);
            let mut device = JafarDevice::paper_default();
            let mut driver = ResilientDriver::new(ResilienceConfig::default());
            driver.run_select(
                &mut device,
                &mut m,
                SelectRequest {
                    col_addr: PhysAddr(0),
                    rows,
                    lo,
                    hi,
                    out_addr: OUT,
                },
                Tick::ZERO,
            );
            assert_eq!(bitset_at(&m, OUT, rows), reference(&values, lo, hi));
            solo.push(reference(&values, lo, hi));
        }

        let (mut m, _) = module_with_column(rows, 41);
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig::default());
        let req = fused_request(rows, &preds);
        let run = driver.run_select_fused(&mut device, &mut m, req.clone(), Tick::ZERO);
        assert_eq!(run.matched.len(), preds.len());
        for (lane, expect) in solo.iter().enumerate() {
            assert_eq!(run.matched[lane] as usize, expect.len(), "lane {lane}");
            assert_eq!(
                &bitset_at(&m, req.out_addrs[lane], rows),
                expect,
                "lane {lane} bitset"
            );
        }
        let s = driver.stats();
        assert_eq!(s.recovery_total(), 0, "no faults, no recovery");
        assert_eq!(
            s.pages_jafar.get(),
            run.pages,
            "one paged pass for all lanes"
        );
        assert!(!m.rank_owned_by_ndp(0), "lease released at the end");
    }

    #[test]
    fn fused_cpu_fallback_reproduces_device_bytes_per_lane() {
        let preds = [(100, 499), (0, 49), (500, 999)];
        let rows = 2048u64;
        let (mut m, values) = module_with_column(rows, 42);
        // Stall every burst from page 2 onward; the remaining pages crawl
        // through the k-lane CPU fallback and must still land the exact
        // solo bytes in every lane.
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            stall_burst_range: Some((128, u64::MAX)),
            ..FaultPlan::none(0)
        })));
        let mut device = JafarDevice::paper_default();
        let mut driver = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let req = fused_request(rows, &preds);
        let run = driver.run_select_fused(&mut device, &mut m, req.clone(), Tick::ZERO);
        for (lane, &(lo, hi)) in preds.iter().enumerate() {
            let expect = reference(&values, lo, hi);
            assert_eq!(run.matched[lane] as usize, expect.len(), "lane {lane}");
            assert_eq!(
                bitset_at(&m, req.out_addrs[lane], rows),
                expect,
                "lane {lane} fallback bytes"
            );
        }
        let s = driver.stats();
        assert!(s.watchdog_fires.get() >= 1);
        assert!(s.pages_cpu.get() >= 1, "fallback finished the fused run");
    }

    #[test]
    fn an_all_cpu_select_is_priced_per_word_and_lane() {
        // Every grant glitches and the breaker trips on the first page, so
        // each page streams through the CPU fallback, whose predicate
        // price is charged per word and lane: the end ticks pin a 500 ps
        // word.
        for (lanes, end_ps) in [(1, 4_452_000), (2, 5_382_000)] {
            let (mut m, values) = module_with_column(1536, 13);
            m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
                mrs_glitch_p: 1.0,
                ..FaultPlan::none(4)
            })));
            let mut device = JafarDevice::paper_default();
            let mut driver = ResilientDriver::new(ResilienceConfig {
                max_retries: 0,
                breaker_threshold: 1,
                ..ResilienceConfig::default()
            });
            let preds = &[(0, 249), (500, 999)][..lanes];
            let req = fused_request(1536, preds);
            let run = driver.run_select_fused(&mut device, &mut m, req.clone(), Tick::ZERO);
            for (&(lo, hi), &out) in preds.iter().zip(&req.out_addrs) {
                assert_eq!(bitset_at(&m, out, 1536), reference(&values, lo, hi));
            }
            assert_eq!(driver.stats().pages_cpu.get(), run.pages, "{lanes} lanes");
            assert_eq!(run.end, Tick::from_ps(end_ps), "{lanes} lanes");
        }
    }

    #[test]
    fn parked_fused_session_resumes_all_lanes_bit_identically() {
        let preds = [(100, 499), (0, 249)];
        let rows = 2048u64;
        let (mut m, values) = module_with_column(rows, 43);
        let mut device = JafarDevice::paper_default();
        let mut sick = ResilientDriver::new(ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        });
        let req = fused_request(rows, &preds);
        let mut session = sick.start_session(&m, req.clone(), Tick::ZERO);
        sick.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(!session.is_parked());
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan::none(0).with_outage(
            0,
            Tick::ZERO,
            Tick::MAX,
        ))));
        sick.step_page_failfast(&mut device, &mut m, &mut session);
        assert!(session.is_parked(), "dark rank parks every lane together");
        assert_eq!(session.next_row(), 512, "one clean page before the outage");
        let banked = session.matched().to_vec();
        assert_eq!(banked.len(), 2);

        m.set_fault_injector(None);
        let healthy_driver = ResilientDriver::new(ResilienceConfig::default());
        let mut healthy = healthy_driver;
        let mut resumed = healthy.resume_session(&m, req.clone(), 512, banked, session.cursor());
        while !resumed.is_done() {
            healthy.step_page(&mut device, &mut m, &mut resumed);
        }
        let run = resumed.into_run();
        for (lane, &(lo, hi)) in preds.iter().enumerate() {
            let expect = reference(&values, lo, hi);
            assert_eq!(run.matched[lane] as usize, expect.len(), "lane {lane}");
            assert_eq!(
                bitset_at(&m, req.out_addrs[lane], rows),
                expect,
                "lane {lane} resumed bytes"
            );
        }
        assert_eq!(healthy.stats().pages_cpu.get(), 0, "all-device resume");
    }

    #[test]
    fn forall_fused_lanes_match_solo_runs_even_through_outages() {
        use jafar_common::check::forall;
        // Seeded sweep: k ∈ 1..=MAX_FUSED_LANES random same-column
        // predicates, fused bitsets byte-identical to k independent solo
        // device runs — on a clean module AND through a unit-scoped
        // outage that opens at a random instant mid-scan, where the
        // ladder salvages what the device finished and the CPU fallback
        // must reproduce the exact device semantics in every lane.
        forall("fused-lane-identity", 10, |rng| {
            let rows = 2048u64;
            let k = rng.next_range_inclusive(1, crate::device::MAX_FUSED_LANES as i64) as usize;
            let preds: Vec<(i64, i64)> = (0..k)
                .map(|_| {
                    let lo = rng.next_range_inclusive(0, 900);
                    (lo, rng.next_range_inclusive(lo, 999))
                })
                .collect();
            let seed = rng.next_u64();
            let expect: Vec<Vec<u32>> = {
                let (_, values) = module_with_column(rows, seed);
                preds
                    .iter()
                    .map(|&(lo, hi)| reference(&values, lo, hi))
                    .collect()
            };
            // Solo device baselines, one fresh module per predicate.
            for (lane, &(lo, hi)) in preds.iter().enumerate() {
                let (mut m, _) = module_with_column(rows, seed);
                let mut device = JafarDevice::paper_default();
                let mut driver = ResilientDriver::new(ResilienceConfig::default());
                let run = driver.run_select(
                    &mut device,
                    &mut m,
                    SelectRequest {
                        col_addr: PhysAddr(0),
                        rows,
                        lo,
                        hi,
                        out_addr: OUT,
                    },
                    Tick::ZERO,
                );
                assert_eq!(run.matched as usize, expect[lane].len(), "solo lane {lane}");
                assert_eq!(bitset_at(&m, OUT, rows), expect[lane], "solo lane {lane}");
            }
            let req = fused_request(rows, &preds);
            // Clean fused pass.
            {
                let (mut m, _) = module_with_column(rows, seed);
                let mut device = JafarDevice::paper_default();
                let mut driver = ResilientDriver::new(ResilienceConfig::default());
                let run = driver.run_select_fused(&mut device, &mut m, req.clone(), Tick::ZERO);
                for (lane, expect) in expect.iter().enumerate() {
                    assert_eq!(
                        run.matched[lane] as usize,
                        expect.len(),
                        "clean lane {lane}"
                    );
                    assert_eq!(
                        &bitset_at(&m, req.out_addrs[lane], rows),
                        expect,
                        "clean lane {lane} bitset"
                    );
                }
            }
            // Fused pass through a unit outage opening mid-scan.
            {
                let (mut m, _) = module_with_column(rows, seed);
                let dark_from = Tick::from_ns(rng.next_range_inclusive(0, 2000) as u64);
                m.set_fault_injector(Some(FaultInjector::new(FaultPlan::none(seed).with_outage(
                    0,
                    dark_from,
                    Tick::MAX,
                ))));
                let mut device = JafarDevice::paper_default();
                let mut driver = ResilientDriver::new(ResilienceConfig {
                    max_retries: 1,
                    breaker_threshold: 1,
                    ..ResilienceConfig::default()
                });
                let run = driver.run_select_fused(&mut device, &mut m, req.clone(), Tick::ZERO);
                for (lane, expect) in expect.iter().enumerate() {
                    assert_eq!(
                        run.matched[lane] as usize,
                        expect.len(),
                        "outage lane {lane} (dark from {dark_from})"
                    );
                    assert_eq!(
                        &bitset_at(&m, req.out_addrs[lane], rows),
                        expect,
                        "outage lane {lane} bitset (dark from {dark_from})"
                    );
                }
            }
        });
    }

    #[test]
    fn any_page_size_returns_the_reference_bitset() {
        use jafar_common::check::forall;
        // Page sizes that are not whole 64-byte bitset lines, and none at
        // all, over row counts that end mid-byte and mid-line: the driver
        // pages in whole lines, so every run ends with the reference
        // bitset and count, on the device for every page.
        const PAGE_BYTES: [u64; 7] = [0, 512, 1000, 2048, 4096, 6144, 2 << 20];
        forall("any-page-size", 8, |rng| {
            let rows = loop {
                let rows = 1 + rng.next_below(7999);
                if rows % 8 != 0 {
                    break rows;
                }
            };
            let seed = rng.next_u64();
            for page_bytes in PAGE_BYTES {
                let (mut m, values) = module_with_column(rows, seed);
                // Stale bits from an earlier query must be overwritten.
                m.data_mut()
                    .write(OUT, &vec![0xA5; rows.div_ceil(8) as usize]);
                let mut device = JafarDevice::paper_default();
                let mut driver = ResilientDriver::new(ResilienceConfig {
                    page_bytes,
                    ..ResilienceConfig::default()
                });
                let run =
                    driver.run_select(&mut device, &mut m, request(rows, 100, 499), Tick::ZERO);
                let expect = reference(&values, 100, 499);
                let case = format!("{rows} rows, {page_bytes}-byte pages");
                assert_eq!(run.matched as usize, expect.len(), "{case}: count");
                assert!(bitset_at(&m, OUT, rows) == expect, "{case}: bitset differs");
                assert_eq!(driver.stats().pages_cpu.get(), 0, "{case}: CPU pages");
                assert_eq!(
                    run.pages,
                    rows.div_ceil(driver.page_rows),
                    "{case}: pages of whole bitset lines"
                );
                assert_eq!(driver.page_rows % 512, 0, "{case}: whole lines");
            }
        });
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(ResilientDriver::backoff(0), BACKOFF_BASE);
        assert_eq!(ResilientDriver::backoff(1), BACKOFF_BASE * 2);
        assert_eq!(ResilientDriver::backoff(5), BACKOFF_BASE * 32);
        assert_eq!(ResilientDriver::backoff(6), BACKOFF_MAX, "capped");
        assert_eq!(ResilientDriver::backoff(63), BACKOFF_MAX, "no overflow");
    }
}
