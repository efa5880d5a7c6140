//! The JAFAR device: the in-DIMM streaming filter engine.
//!
//! Operation per §2.2:
//!
//! - JAFAR "requests data from DRAM in the same way that a CPU would",
//!   issuing read bursts against its owned rank and receiving 64-byte
//!   bursts from the module IO buffer;
//! - it processes **one 64-bit word per device cycle**; the device clock is
//!   2× the data-bus clock ("rather than building ALUs and latches for a
//!   dual-pumped clock, JAFAR generates its own clock that is twice as fast
//!   as the data bus clock"). The per-word rate is *derived* from the
//!   Aladdin-style schedule of the filter kernel under the two-ALU
//!   provisioning, not hard-coded;
//! - filter outcomes accumulate in an *n*-bit output buffer; "every n
//!   cycles, the output buffer is fully filled and its contents are written
//!   back to DRAM at a pre-programmed location" — the write does not stall
//!   the filter pipeline (it contends for DRAM banks/bus naturally);
//! - completion is signalled through the STATUS register, which the host
//!   polls.

use crate::datapath::Datapath;
use crate::predicate::Predicate;
use crate::regs::RegisterFile;
use jafar_accel::schedule::Resources;
use jafar_common::bitset::FixedBitBuf;
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::stats::Counter;
use jafar_common::time::{ClockDomain, Tick};
use jafar_dram::{DramModule, IssueError, PhysAddr, Requester};

/// Device configuration.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Device clock (2 GHz: twice the 1 GHz data-bus clock, §2.2).
    pub clock: ClockDomain,
    /// Output buffer size in bits (*n*); written back every *n* filter
    /// operations. 512 bits = one 64-byte burst per writeback.
    pub out_buf_bits: usize,
    /// Datapath provisioning for the Aladdin-style throughput derivation.
    pub resources: Resources,
    /// Loop unrolling applied to the filter kernel datapath.
    pub unroll: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            clock: ClockDomain::from_ghz(2),
            out_buf_bits: 512,
            resources: Resources::jafar_default(),
            unroll: 8,
        }
    }
}

/// Why the device rejected a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The target rank is not owned (MPR not enabled) — acquire ownership
    /// first (§2.2's MR3 handoff).
    NotOwned,
    /// Input and output must be 64-byte aligned (burst granularity).
    Misaligned,
    /// The job's data spans more than one rank; JAFAR "can only process
    /// data that is resident on its DIMM" (§4, Memory Management) — and in
    /// this design, on its owned rank.
    SpansRanks,
    /// The job was admitted at or after the lease's expiry deadline. §2.2's
    /// contract is that JAFAR "will finish its allotted work" inside the
    /// granted window, so expiry is enforced at *admission*: a job admitted
    /// one tick before the deadline runs to completion, a job admitted at
    /// the deadline is refused. Renew the lease and retry.
    LeaseExpired,
    /// A read burst failed SECDED ECC with a double-bit error (injected by
    /// the DRAM fault layer). The job aborted mid-stream; the output region
    /// is partially written. Retrying the page is safe — the functional
    /// store was never corrupted.
    Uncorrectable,
    /// The DRAM stream was preempted mid-job by a transient rank-level
    /// condition (e.g. an injected refresh storm colliding with a due
    /// refresh). The output region may be partially written; retrying the
    /// page is safe.
    Interrupted,
    /// A fused job named zero predicates, more than
    /// [`MAX_FUSED_LANES`], or mismatched predicate/output counts. The
    /// comparator array is a fixed hardware resource; the host must split
    /// wider batches itself.
    LaneOverflow,
}

/// Maps a failed NDP DRAM access to the error every datapath reports:
/// lost ownership, an uncorrectable ECC read, or a transient rank
/// condition that preempted the stream. The driver ladder acts on the
/// difference: it re-grants only on `NotOwned` and books the ECC failure
/// as `uncorrectable`.
pub(crate) fn device_error(e: IssueError) -> DeviceError {
    match e {
        IssueError::NdpWithoutOwnership => DeviceError::NotOwned,
        IssueError::Uncorrectable => DeviceError::Uncorrectable,
        _ => DeviceError::Interrupted,
    }
}

/// The rank holding every byte a job touches, or
/// [`DeviceError::SpansRanks`] when one of its regions runs past the
/// module's end, wraps around the address space, or crosses onto another
/// rank. `regions` are `(base, bytes)`: the first one's base names the
/// rank (it is checked even when empty); other empty regions touch
/// nothing. Byte lengths computed with saturating arithmetic stay safe:
/// a saturated length always runs past the end. Every datapath calls
/// this once per job, before it touches DRAM.
pub(crate) fn job_rank(
    module: &DramModule,
    regions: &[(PhysAddr, u64)],
) -> Result<u32, DeviceError> {
    let decoder = module.decoder();
    let rank_of =
        |addr: u64| (addr < decoder.capacity()).then(|| decoder.decode(PhysAddr(addr)).rank);
    let rank = rank_of(regions[0].0 .0).ok_or(DeviceError::SpansRanks)?;
    for &(base, bytes) in regions {
        if bytes == 0 {
            continue;
        }
        let last = base.0.checked_add(bytes - 1);
        if rank_of(base.0) != Some(rank) || last.and_then(rank_of) != Some(rank) {
            return Err(DeviceError::SpansRanks);
        }
    }
    Ok(rank)
}

/// The eight `i64` words of one 64-byte burst.
pub(crate) fn burst_words(data: &[u8; 64]) -> [i64; 8] {
    std::array::from_fn(|w| i64::from_le_bytes(data[w * 8..w * 8 + 8].try_into().expect("8 bytes")))
}

/// The low `n` bits set: the words of a burst that belong to the job (a
/// column's last burst may be partial). `n` ≤ 8.
pub(crate) fn live_mask(n: usize) -> u64 {
    (1u64 << n) - 1
}

/// The range filter over one burst: bit `w` is set when word `w` is one
/// of the first `n` and lies in `[lo, hi]`. All eight comparisons run
/// and no branch depends on an outcome, so the host pays no mispredict
/// on data the predicate splits at random.
pub(crate) fn range_mask(words: &[i64; 8], n: usize, lo: i64, hi: i64) -> u64 {
    let mut mask = 0u64;
    for (w, &v) in words.iter().enumerate() {
        mask |= u64::from((lo <= v) & (v <= hi)) << w;
    }
    mask & live_mask(n)
}

/// Ceiling on fused predicate lanes per pass.
///
/// The fused datapath provisions one comparator lane per word of the
/// 64-byte burst it is already latching, so up to eight range predicates
/// evaluate against each streamed word in the same device cycle — the
/// Taurus/Farview-style shared-scan extension. Beyond eight lanes the
/// comparator array would need another register file port; the host
/// splits wider batches instead.
pub const MAX_FUSED_LANES: usize = 8;

/// One select invocation (one page worth, in the Figure-2 API).
#[derive(Clone, Copy, Debug)]
pub struct SelectJob {
    /// 64-byte-aligned base of the packed `i64` column segment.
    pub col_addr: PhysAddr,
    /// Rows in this segment.
    pub rows: u64,
    /// The filter predicate.
    pub predicate: Predicate,
    /// 64-byte-aligned base of the output bitset region.
    pub out_addr: PhysAddr,
}

/// One fused select invocation: `k` range predicates evaluated against
/// the *same* column stream in a single pass, each lane filling its own
/// bitset region (1 ≤ k ≤ [`MAX_FUSED_LANES`]).
#[derive(Clone, Debug)]
pub struct FusedSelectJob {
    /// 64-byte-aligned base of the packed `i64` column segment.
    pub col_addr: PhysAddr,
    /// Rows in this segment.
    pub rows: u64,
    /// Per-lane filter predicates.
    pub predicates: Vec<Predicate>,
    /// Per-lane 64-byte-aligned bases of the output bitset regions. Must
    /// be the same length as `predicates` and on the column's rank.
    pub out_addrs: Vec<PhysAddr>,
}

/// Outcome and timing of one fused select invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedSelectRun {
    /// First device activity.
    pub start: Tick,
    /// Filter complete, all writebacks issued, STATUS = DONE.
    pub end: Tick,
    /// Per-lane rows that passed the filter.
    pub matched: Vec<u64>,
    /// Input bursts read from DRAM (the column is streamed once).
    pub bursts_read: u64,
    /// Output bursts written to DRAM across all lanes.
    pub bursts_written: u64,
    /// Time the datapath sat waiting for DRAM data.
    pub dram_wait: Tick,
}

/// Outcome and timing of one select invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectRun {
    /// First device activity.
    pub start: Tick,
    /// Filter complete, all writebacks issued, STATUS = DONE.
    pub end: Tick,
    /// Rows that passed the filter.
    pub matched: u64,
    /// Input bursts read from DRAM.
    pub bursts_read: u64,
    /// Output bursts written to DRAM.
    pub bursts_written: u64,
    /// Time the datapath sat waiting for DRAM data.
    pub dram_wait: Tick,
}

/// Accumulated device statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStats {
    /// Select jobs executed.
    pub jobs: Counter,
    /// Words filtered.
    pub words: Counter,
    /// Input bursts read.
    pub bursts_read: Counter,
    /// Output bursts written.
    pub bursts_written: Counter,
}

/// Pre-opens the row containing `addr` (precharge + activate as needed) so
/// a later sequential access finds it open — the device's row lookahead
/// for its strictly sequential stream. Best-effort: a blocked command
/// (e.g. tRAS not yet satisfied) simply skips the lookahead and the access
/// pays the row switch itself.
pub(crate) fn preopen_row(module: &mut DramModule, addr: PhysAddr, now: Tick) {
    let coord = module.decoder().decode(addr.block_base());
    let open = module.bank(coord.rank, coord.bank).open_row();
    if open == Some(coord.row) {
        return;
    }
    if open.is_some() {
        let pre = jafar_dram::DramCommand::precharge(coord);
        let Ok(at) = module.earliest_issue(pre, Requester::Ndp, now) else {
            return;
        };
        if module.issue(pre, Requester::Ndp, at, None).is_err() {
            return;
        }
    }
    let act = jafar_dram::DramCommand::activate(coord);
    if let Ok(at) = module.earliest_issue(act, Requester::Ndp, now) {
        let _ = module.issue(act, Requester::Ndp, at, None);
    }
}

/// The device's row lookahead over a strictly sequential column stream:
/// on entering each row group it opens the *next* group's row, so the row
/// switch hides under the current group's streaming. Row groups are
/// address-space-absolute — `SimAlloc` only guarantees 64-byte alignment,
/// so a job may start mid-group and the crossings are computed from the
/// absolute block index, not the job-relative burst count. The next
/// crossing is kept, so only a crossing costs a division.
struct RowLookahead {
    first_block: u64,
    bursts_per_row: u64,
    total_bursts: u64,
    /// The job-relative burst that enters the next row group.
    next_group: u64,
}

impl RowLookahead {
    fn new(module: &DramModule, col_addr: PhysAddr, total_bursts: u64) -> Self {
        RowLookahead {
            first_block: col_addr.block_index(),
            bursts_per_row: module.geometry().bursts_per_row() as u64,
            total_bursts,
            next_group: 0,
        }
    }

    /// Runs before burst `burst` is requested at `at`. Only the compare
    /// is inlined into the burst loop; a crossing takes the call.
    #[inline(always)]
    fn before(&mut self, module: &mut DramModule, burst: u64, at: Tick) {
        if burst == self.next_group {
            self.cross(module, burst, at);
        }
    }

    /// Enters a new row group: opens the next group's row.
    #[inline(never)]
    fn cross(&mut self, module: &mut DramModule, burst: u64, at: Tick) {
        let group = (self.first_block + burst) / self.bursts_per_row;
        let next_block = (group + 1) * self.bursts_per_row;
        self.next_group = next_block - self.first_block;
        if self.next_group < self.total_bursts {
            preopen_row(module, PhysAddr(next_block * 64), at);
        }
    }
}

/// The device.
pub struct JafarDevice {
    config: DeviceConfig,
    regs: RegisterFile,
    /// Picoseconds per filtered word, derived from the kernel schedule.
    ps_per_word: u64,
    stats: DeviceStats,
    tracer: SharedTracer,
}

impl JafarDevice {
    /// Builds a device, deriving its per-word throughput from the
    /// Aladdin-style schedule of the filter kernel (once per process for
    /// each resources / unroll / clock combination).
    pub fn new(config: DeviceConfig) -> Self {
        let ps_per_word = Datapath::Filter.ps_per_word(&config);
        assert!(ps_per_word > 0, "degenerate device throughput");
        JafarDevice {
            config,
            regs: RegisterFile::new(),
            ps_per_word,
            stats: DeviceStats::default(),
            tracer: SharedTracer::disabled(),
        }
    }

    /// Attaches an event tracer: pipeline stages and bitset write-backs are
    /// emitted into it. Purely observational — no timing changes.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = tracer;
    }

    /// A device with the paper's §2.2 parameters (2 GHz, two ALUs, 512-bit
    /// output buffer). Asserts the derived rate is the paper's one word
    /// per 0.5 ns cycle.
    pub fn paper_default() -> Self {
        let d = JafarDevice::new(DeviceConfig::default());
        debug_assert_eq!(d.ps_per_word, 500, "§2.2: one word per 2 GHz cycle");
        d
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Derived datapath rate: picoseconds per 64-bit word.
    pub fn ps_per_word(&self) -> u64 {
        self.ps_per_word
    }

    /// The control register block (host-visible).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register access (the memory-mapped write path).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn validate(
        &self,
        module: &DramModule,
        job: &SelectJob,
        start: Tick,
    ) -> Result<u32, DeviceError> {
        if job.col_addr.block_offset() != 0 || job.out_addr.block_offset() != 0 {
            return Err(DeviceError::Misaligned);
        }
        let rank = job_rank(
            module,
            &[
                (job.col_addr, job.rows.saturating_mul(8)),
                (job.out_addr, job.rows.div_ceil(8)),
            ],
        )?;
        if !module.rank_owned_by_ndp(rank) {
            return Err(DeviceError::NotOwned);
        }
        if start >= module.ndp_deadline(rank) {
            return Err(DeviceError::LeaseExpired);
        }
        Ok(rank)
    }

    /// Executes one select job against `module`, starting no earlier than
    /// `start`. The rank holding the data must already be owned (see
    /// [`crate::ownership`]).
    ///
    /// # Errors
    /// Returns a [`DeviceError`] (and latches STATUS.ERROR) without
    /// touching DRAM if the job is invalid.
    pub fn run_select(
        &mut self,
        module: &mut DramModule,
        job: SelectJob,
        start: Tick,
    ) -> Result<SelectRun, DeviceError> {
        let _rank = self.validate(module, &job, start).inspect_err(|_| {
            self.regs.set_error();
        })?;
        self.regs.set_busy();
        self.tracer.emit(
            start,
            EventKind::AccelStage {
                stage: "select-start",
                page: job.col_addr.0,
            },
        );
        let (lo, hi) = job.predicate.bounds();
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;

        let mut out_buf = FixedBitBuf::new(self.config.out_buf_bits);
        let mut issue_cursor = start; // when the next read may be requested
        let mut proc_free = start; // when the datapath frees up
        let mut dram_wait = Tick::ZERO;
        let mut matched = 0u64;
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;
        let mut out_cursor = job.out_addr.0;

        let total_bursts = job.rows.div_ceil(8);
        let mut lookahead = RowLookahead::new(module, job.col_addr, total_bursts);
        for burst in 0..total_bursts {
            let addr = PhysAddr(job.col_addr.0 + burst * 64);
            lookahead.before(module, burst, issue_cursor);
            let access = module
                .serve_addr(addr, false, Requester::Ndp, issue_cursor, None)
                .map_err(|e| {
                    self.regs.set_error();
                    device_error(e)
                })?;
            bursts_read += 1;
            // Pipelined command issue: the next read may be requested one
            // bus cycle after this one's CAS went out.
            let cas_at = access.data_ready.saturating_sub(cas_pipeline);
            issue_cursor = cas_at.max(issue_cursor) + t.bus_clock.period();

            let data = access.data.expect("read returns data");
            let ready = access.data_ready;
            if ready > proc_free {
                dram_wait += ready - proc_free;
                proc_free = ready;
            }
            let words = (job.rows - burst * 8).min(8);
            let hits = range_mask(&burst_words(&data), words as usize, lo, hi);
            matched += u64::from(hits.count_ones());
            // The buffer holds a multiple of 8 bits and every burst but
            // the last pushes 8, so it fills only at a burst boundary and
            // drains at the tick a word-by-word push would drain it.
            out_buf.push_bits(hits, words as usize);
            if out_buf.is_full() {
                let bytes = out_buf.drain_bytes();
                out_cursor = self.write_bitset_chunk(
                    module,
                    out_cursor,
                    &bytes,
                    proc_free,
                    &mut bursts_written,
                )?;
            }
            proc_free += Tick::from_ps(words * self.ps_per_word);
        }
        // Final partial flush.
        if !out_buf.is_empty() {
            let bytes = out_buf.drain_bytes();
            self.write_bitset_chunk(module, out_cursor, &bytes, proc_free, &mut bursts_written)?;
        }

        self.regs.set_done(matched);
        self.tracer.emit(
            proc_free,
            EventKind::AccelStage {
                stage: "select-done",
                page: job.col_addr.0,
            },
        );
        self.stats.jobs.inc();
        self.stats.words.add(job.rows);
        self.stats.bursts_read.add(bursts_read);
        self.stats.bursts_written.add(bursts_written);
        Ok(SelectRun {
            start,
            end: proc_free,
            matched,
            bursts_read,
            bursts_written,
            dram_wait,
        })
    }

    fn validate_fused(
        &self,
        module: &DramModule,
        job: &FusedSelectJob,
        start: Tick,
    ) -> Result<u32, DeviceError> {
        let k = job.predicates.len();
        if k == 0 || k > MAX_FUSED_LANES || job.out_addrs.len() != k {
            return Err(DeviceError::LaneOverflow);
        }
        if job.col_addr.block_offset() != 0 || job.out_addrs.iter().any(|a| a.block_offset() != 0) {
            return Err(DeviceError::Misaligned);
        }
        let mut regions = vec![(job.col_addr, job.rows.saturating_mul(8))];
        regions.extend(job.out_addrs.iter().map(|&out| (out, job.rows.div_ceil(8))));
        let rank = job_rank(module, &regions)?;
        if !module.rank_owned_by_ndp(rank) {
            return Err(DeviceError::NotOwned);
        }
        if start >= module.ndp_deadline(rank) {
            return Err(DeviceError::LeaseExpired);
        }
        Ok(rank)
    }

    /// Executes one *fused* select job: the column is streamed from DRAM
    /// exactly once and every word is evaluated against all `k` predicate
    /// lanes in the same device cycle, each lane accumulating into its own
    /// output buffer and draining to its own bitset region. Per-word time
    /// is unchanged from [`Self::run_select`] — the comparator lanes run
    /// in parallel — so one pass serves `k` queries for one scan's worth
    /// of DRAM traffic and datapath time.
    ///
    /// Each lane's bitset bytes are byte-identical to a solo
    /// [`Self::run_select`] of the same predicate over the same segment:
    /// the lanes push through the same [`FixedBitBuf`] drain cadence and
    /// the same line-split writeback path, only the wall-clock stamps of
    /// the writebacks differ.
    ///
    /// # Errors
    /// Returns a [`DeviceError`] (and latches STATUS.ERROR) without
    /// touching DRAM if the job is invalid.
    pub fn run_select_fused(
        &mut self,
        module: &mut DramModule,
        job: &FusedSelectJob,
        start: Tick,
    ) -> Result<FusedSelectRun, DeviceError> {
        let _rank = self.validate_fused(module, job, start).inspect_err(|_| {
            self.regs.set_error();
        })?;
        let k = job.predicates.len();
        self.regs.set_busy();
        self.tracer.emit(
            start,
            EventKind::AccelStage {
                stage: "select-fused-start",
                page: job.col_addr.0,
            },
        );
        let bounds: Vec<(i64, i64)> = job.predicates.iter().map(|p| p.bounds()).collect();
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;

        let mut out_bufs: Vec<FixedBitBuf> = (0..k)
            .map(|_| FixedBitBuf::new(self.config.out_buf_bits))
            .collect();
        let mut out_cursors: Vec<u64> = job.out_addrs.iter().map(|a| a.0).collect();
        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut dram_wait = Tick::ZERO;
        let mut matched = vec![0u64; k];
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;

        let total_bursts = job.rows.div_ceil(8);
        let mut lookahead = RowLookahead::new(module, job.col_addr, total_bursts);
        for burst in 0..total_bursts {
            let addr = PhysAddr(job.col_addr.0 + burst * 64);
            lookahead.before(module, burst, issue_cursor);
            let access = module
                .serve_addr(addr, false, Requester::Ndp, issue_cursor, None)
                .map_err(|e| {
                    self.regs.set_error();
                    device_error(e)
                })?;
            bursts_read += 1;
            let cas_at = access.data_ready.saturating_sub(cas_pipeline);
            issue_cursor = cas_at.max(issue_cursor) + t.bus_clock.period();

            let data = access.data.expect("read returns data");
            let ready = access.data_ready;
            if ready > proc_free {
                dram_wait += ready - proc_free;
                proc_free = ready;
            }
            let words = (job.rows - burst * 8).min(8);
            let values = burst_words(&data);
            // Every lane fills at the same burst boundary and drains in
            // lane order, as a word-by-word push would drain them.
            for lane in 0..k {
                let (lo, hi) = bounds[lane];
                let hits = range_mask(&values, words as usize, lo, hi);
                matched[lane] += u64::from(hits.count_ones());
                out_bufs[lane].push_bits(hits, words as usize);
                if out_bufs[lane].is_full() {
                    let bytes = out_bufs[lane].drain_bytes();
                    out_cursors[lane] = self.write_bitset_chunk(
                        module,
                        out_cursors[lane],
                        &bytes,
                        proc_free,
                        &mut bursts_written,
                    )?;
                }
            }
            proc_free += Tick::from_ps(words * self.ps_per_word);
        }
        // Final partial flush per lane.
        for lane in 0..k {
            if !out_bufs[lane].is_empty() {
                let bytes = out_bufs[lane].drain_bytes();
                self.write_bitset_chunk(
                    module,
                    out_cursors[lane],
                    &bytes,
                    proc_free,
                    &mut bursts_written,
                )?;
            }
        }

        let total_matched: u64 = matched.iter().sum();
        self.regs.set_done(total_matched);
        self.tracer.emit(
            proc_free,
            EventKind::AccelStage {
                stage: "select-fused-done",
                page: job.col_addr.0,
            },
        );
        self.stats.jobs.inc();
        self.stats.words.add(job.rows);
        self.stats.bursts_read.add(bursts_read);
        self.stats.bursts_written.add(bursts_written);
        Ok(FusedSelectRun {
            start,
            end: proc_free,
            matched,
            bursts_read,
            bursts_written,
            dram_wait,
        })
    }

    /// Writes a drained output-buffer chunk back to DRAM as whole bursts.
    /// Chunks are split on 64-byte line boundaries *relative to the
    /// cursor*: a partial line (cursor mid-burst, or a short tail) is
    /// read-modified-written so neighbouring bitset bytes written by
    /// earlier flushes survive, while full lines are written outright.
    /// Returns the advanced output cursor.
    fn write_bitset_chunk(
        &mut self,
        module: &mut DramModule,
        out_cursor: u64,
        bytes: &[u8],
        at: Tick,
        bursts_written: &mut u64,
    ) -> Result<u64, DeviceError> {
        let mut cursor = out_cursor;
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let line_base = cursor & !63;
            let off = (cursor - line_base) as usize;
            let take = (64 - off).min(remaining.len());
            let mut burst = [0u8; 64];
            if off != 0 || take != 64 {
                // Partial line: merge into the existing contents. The read
                // is functional only — the hardware holds the line in its
                // writeback buffer, so no extra DRAM traffic is modelled.
                module.data().read(PhysAddr(line_base), &mut burst);
            }
            burst[off..off + take].copy_from_slice(&remaining[..take]);
            let served =
                module.serve_addr(PhysAddr(line_base), true, Requester::Ndp, at, Some(&burst));
            if let Err(e) = served {
                self.regs.set_error();
                return Err(device_error(e));
            }
            *bursts_written += 1;
            self.tracer.emit(
                at,
                EventKind::BitsetWriteback {
                    addr: line_base,
                    bytes: take as u32,
                },
            );
            cursor += take as u64;
            remaining = &remaining[take..];
        }
        Ok(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::grant_ownership;
    use jafar_common::bitset::BitSet;
    use jafar_common::check::forall;
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming};

    fn owned_module() -> (DramModule, Tick) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership(&mut m, 0, Tick::ZERO).expect("fresh module");
        let t0 = lease.acquired_at;
        (m, t0)
    }

    fn put_column(m: &mut DramModule, addr: u64, values: &[i64]) {
        for (i, v) in values.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(addr + i as u64 * 8), *v);
        }
    }

    fn job(rows: u64, lo: i64, hi: i64) -> SelectJob {
        SelectJob {
            col_addr: PhysAddr(0),
            rows,
            predicate: Predicate::Between(lo, hi),
            out_addr: PhysAddr(128 * 1024), // rank 0 under tiny/RankRowBankBlock
        }
    }

    #[test]
    fn paper_throughput_derivation() {
        let d = JafarDevice::paper_default();
        // §2.2: "JAFAR can process one [word] per clock cycle (0.5ns) for a
        // total of 4ns" per 8-word access.
        assert_eq!(d.ps_per_word(), 500);
        assert_eq!(Tick::from_ps(8 * d.ps_per_word()), Tick::from_ns(4));
    }

    #[test]
    fn bitset_matches_software_reference() {
        let (mut m, t0) = owned_module();
        let mut rng = SplitMix64::new(99);
        let values: Vec<i64> = (0..2000)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        let j = job(2000, 100, 499);
        let run = d.run_select(&mut m, j, t0).unwrap();

        let expect: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (100..=499).contains(&v))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(run.matched as usize, expect.len());
        // Read the bitset back out of DRAM.
        let nbytes = 2000usize.div_ceil(8);
        let mut bytes = vec![0u8; nbytes];
        m.data().read(j.out_addr, &mut bytes);
        let got = BitSet::from_bytes(&bytes, 2000);
        assert_eq!(got.to_positions(), expect);
        assert!(d.regs().done());
        assert_eq!(d.regs().read(crate::regs::Reg::OutCount), run.matched);
    }

    #[test]
    fn runtime_is_selectivity_independent() {
        // §3.2: "JAFAR has constant execution time irrespective of the
        // query selectivity."
        let run_with = |hi: i64| {
            let (mut m, t0) = owned_module();
            let mut rng = SplitMix64::new(5);
            let values: Vec<i64> = (0..4000)
                .map(|_| rng.next_range_inclusive(0, 999))
                .collect();
            put_column(&mut m, 0, &values);
            let mut d = JafarDevice::paper_default();
            d.run_select(&mut m, job(4000, 0, hi), t0).unwrap()
        };
        let none = run_with(-1);
        let all = run_with(999);
        assert_eq!(none.matched, 0);
        assert_eq!(all.matched, 4000);
        let delta = all.end.as_ps().abs_diff(none.end.as_ps());
        // Identical burst counts; any difference is noise (there is none —
        // the writeback schedule is selectivity-independent too).
        assert_eq!(delta, 0, "none={:?} all={:?}", none.end, all.end);
        assert_eq!(none.bursts_written, all.bursts_written);
    }

    #[test]
    fn streaming_rate_matches_paper_arithmetic() {
        // Streaming from an owned rank: DRAM delivers one 64-byte burst per
        // 4 ns (row hits) and the datapath consumes it in exactly 4 ns —
        // the 9-of-13-ns-waiting arithmetic of §2.2 applies per access, but
        // pipelined accesses sustain one burst per tBURST.
        let (mut m, t0) = owned_module();
        let rows = 64 * 1024 / 8; // one full rank row-pass in tiny geometry
        let values: Vec<i64> = (0..rows as i64).collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        let run = d
            .run_select(&mut m, job(rows as u64, 0, i64::MAX), t0)
            .unwrap();
        let span = run.end - run.start;
        let ns_per_burst = span.as_ns_f64() / run.bursts_read as f64;
        assert!(
            (3.9..5.5).contains(&ns_per_burst),
            "ns/burst = {ns_per_burst} (span {span}, {} bursts)",
            run.bursts_read
        );
    }

    #[test]
    fn writeback_cadence_every_n_bits() {
        let (mut m, t0) = owned_module();
        let values: Vec<i64> = (0..1536).collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        // 1536 rows / 512-bit buffer = 3 full writebacks, no partial.
        let run = d.run_select(&mut m, job(1536, 0, i64::MAX), t0).unwrap();
        assert_eq!(run.bursts_written, 3);
        // 1537 rows → 3 full + 1 partial.
        let (mut m2, t0b) = owned_module();
        let values2: Vec<i64> = (0..1537).collect();
        put_column(&mut m2, 0, &values2);
        let mut d2 = JafarDevice::paper_default();
        let run2 = d2.run_select(&mut m2, job(1537, 0, i64::MAX), t0b).unwrap();
        assert_eq!(run2.bursts_written, 4);
    }

    #[test]
    fn unaligned_column_preopen_hides_row_switch() {
        // tiny geometry: 16 bursts per (bank,row) group. `SimAlloc` only
        // guarantees 64-byte alignment, so a column may start mid-group; a
        // 16-burst job based 8 blocks into a group crosses into the next
        // group at burst 8, and the lookahead must hide that switch.
        //
        // Baseline: an aligned 32-burst job, whose single group crossing
        // (at burst 16) is hidden by the same lookahead, and which issues
        // the same single preopen before its first access. Perfect
        // streaming means the datapath only ever waits for DRAM during the
        // shared startup (preopen + first activate + first CAS), so the
        // two runs must report *identical* dram_wait.
        let bursts_per_row = DramGeometry::tiny().bursts_per_row() as u64;
        let run_at = |col_addr: u64, bursts: u64| {
            let (mut m, t0) = owned_module();
            let rows = bursts * 8;
            let values: Vec<i64> = (0..rows as i64).collect();
            put_column(&mut m, col_addr, &values);
            let mut d = JafarDevice::paper_default();
            let mut j = job(rows, 0, i64::MAX);
            j.col_addr = PhysAddr(col_addr);
            d.run_select(&mut m, j, t0).unwrap()
        };
        let aligned = run_at(0, 2 * bursts_per_row);
        let unaligned = run_at(bursts_per_row / 2 * 64, bursts_per_row);
        assert_eq!(
            unaligned.dram_wait, aligned.dram_wait,
            "the mid-job row switch of an unaligned column must be hidden \
             by the lookahead (aligned wait {:?}, unaligned wait {:?})",
            aligned.dram_wait, unaligned.dram_wait
        );
    }

    #[test]
    fn partial_buffer_writebacks_preserve_earlier_bytes() {
        // A 136-bit output buffer drains 17 bytes at a time, so every
        // writeback after the first lands mid-burst. Each partial burst
        // must read-modify-write its 64-byte line, not clobber the
        // previously written bytes with zero padding.
        let (mut m, t0) = owned_module();
        let mut rng = SplitMix64::new(7);
        let rows = 400u64;
        let values: Vec<i64> = (0..rows).map(|_| rng.next_range_inclusive(0, 99)).collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::new(DeviceConfig {
            out_buf_bits: 136,
            ..DeviceConfig::default()
        });
        let j = job(rows, 0, 49);
        let run = d.run_select(&mut m, j, t0).unwrap();

        let mut expect = BitSet::new(rows as usize);
        for (i, &v) in values.iter().enumerate() {
            expect.assign(i, (0..=49).contains(&v));
        }
        let nbytes = (rows as usize).div_ceil(8);
        let mut bytes = vec![0u8; nbytes];
        m.data().read(j.out_addr, &mut bytes);
        let got = BitSet::from_bytes(&bytes, rows as usize);
        assert_eq!(run.matched as usize, expect.count_ones());
        assert_eq!(
            got, expect,
            "device bitset must be bit-identical to the CPU reference"
        );
    }

    fn fused_job(rows: u64, preds: &[(i64, i64)]) -> FusedSelectJob {
        FusedSelectJob {
            col_addr: PhysAddr(0),
            rows,
            predicates: preds
                .iter()
                .map(|&(lo, hi)| Predicate::Between(lo, hi))
                .collect(),
            out_addrs: (0..preds.len())
                .map(|lane| PhysAddr(128 * 1024 + lane as u64 * 4096))
                .collect(),
        }
    }

    #[test]
    fn fused_lanes_are_byte_identical_to_solo_runs() {
        let rows = 2000u64;
        let mut rng = SplitMix64::new(0xF05E);
        let values: Vec<i64> = (0..rows)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let preds = [(0, 199), (100, 499), (500, 500), (-5, -1), (0, 999)];
        let nbytes = (rows as usize).div_ceil(8);

        // Solo baselines, each on a fresh module.
        let mut solo: Vec<(Vec<u8>, u64)> = Vec::new();
        for &(lo, hi) in &preds {
            let (mut m, t0) = owned_module();
            put_column(&mut m, 0, &values);
            let mut d = JafarDevice::paper_default();
            let run = d.run_select(&mut m, job(rows, lo, hi), t0).unwrap();
            let mut bytes = vec![0u8; nbytes];
            m.data().read(PhysAddr(128 * 1024), &mut bytes);
            solo.push((bytes, run.matched));
        }

        let (mut m, t0) = owned_module();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        let fj = fused_job(rows, &preds);
        let run = d.run_select_fused(&mut m, &fj, t0).unwrap();
        assert_eq!(run.matched.len(), preds.len());
        for (lane, (bytes, matched)) in solo.iter().enumerate() {
            assert_eq!(run.matched[lane], *matched, "lane {lane} count");
            let mut got = vec![0u8; nbytes];
            m.data().read(fj.out_addrs[lane], &mut got);
            assert_eq!(&got, bytes, "lane {lane} bitset bytes");
        }
    }

    #[test]
    fn fused_pass_costs_one_scan() {
        // One fused pass streams the column once: same input bursts as a
        // single solo select. The span runs somewhat longer than solo —
        // k lanes drain k output buffers into k distinct rows, and those
        // writebacks contend for banks the solo run never touches — but
        // stays far under the k solo scans it replaces.
        let rows = 4096u64;
        let values: Vec<i64> = (0..rows as i64).collect();
        let (mut m, t0) = owned_module();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        let solo = d.run_select(&mut m, job(rows, 0, 1999), t0).unwrap();

        let (mut m2, t0b) = owned_module();
        put_column(&mut m2, 0, &values);
        let mut d2 = JafarDevice::paper_default();
        let preds = [(0, 1999), (1000, 2999), (0, 4095), (-1, -1)];
        let fused = d2
            .run_select_fused(&mut m2, &fused_job(rows, &preds), t0b)
            .unwrap();
        assert_eq!(
            fused.bursts_read, solo.bursts_read,
            "the column streams once"
        );
        let solo_span = (solo.end - solo.start).as_ps() as f64;
        let fused_span = (fused.end - fused.start).as_ps() as f64;
        assert!(
            fused_span <= solo_span * 1.5,
            "fused span {fused_span} ps must stay near one solo scan ({solo_span} ps)"
        );
        assert!(
            fused_span < solo_span * preds.len() as f64 / 2.0,
            "fused span {fused_span} ps must beat the {} solo scans it replaces",
            preds.len()
        );
    }

    #[test]
    fn fused_lane_overflow_rejected() {
        let (mut m, t0) = owned_module();
        let mut d = JafarDevice::paper_default();
        // Zero lanes.
        let empty = FusedSelectJob {
            col_addr: PhysAddr(0),
            rows: 8,
            predicates: vec![],
            out_addrs: vec![],
        };
        assert_eq!(
            d.run_select_fused(&mut m, &empty, t0),
            Err(DeviceError::LaneOverflow)
        );
        // Nine lanes.
        let preds: Vec<(i64, i64)> = (0..9).map(|i| (0, i)).collect();
        assert_eq!(
            d.run_select_fused(&mut m, &fused_job(8, &preds), t0),
            Err(DeviceError::LaneOverflow)
        );
        // Mismatched predicate/output counts.
        let mut lopsided = fused_job(8, &[(0, 1), (2, 3)]);
        lopsided.out_addrs.pop();
        assert_eq!(
            d.run_select_fused(&mut m, &lopsided, t0),
            Err(DeviceError::LaneOverflow)
        );
        assert!(d.regs().errored());
    }

    #[test]
    fn unowned_rank_rejected() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut d = JafarDevice::paper_default();
        let err = d
            .run_select(&mut m, job(100, 0, 10), Tick::ZERO)
            .unwrap_err();
        assert_eq!(err, DeviceError::NotOwned);
        assert!(d.regs().errored());
    }

    #[test]
    fn misaligned_job_rejected() {
        let (mut m, t0) = owned_module();
        let mut d = JafarDevice::paper_default();
        let mut j = job(8, 0, 10);
        j.col_addr = PhysAddr(8);
        assert_eq!(d.run_select(&mut m, j, t0), Err(DeviceError::Misaligned));
    }

    #[test]
    fn cross_rank_job_rejected() {
        let (mut m, t0) = owned_module();
        let mut d = JafarDevice::paper_default();
        // tiny + RankRowBankBlock: rank 0 is the first 256 KiB. A column
        // ending past that spans ranks.
        let rank_bytes = DramGeometry::tiny().rank_bytes();
        let mut j = job((rank_bytes / 8) + 8, 0, 10);
        j.out_addr = PhysAddr(0); // overlaps, but rank check fires first
        assert_eq!(d.run_select(&mut m, j, t0), Err(DeviceError::SpansRanks));
    }

    #[test]
    fn lease_expiry_is_enforced_at_admission_only() {
        use crate::ownership::{grant_ownership_for, release_ownership};
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership_for(&mut m, 0, Tick::ZERO, Tick::from_us(2)).unwrap();
        let values: Vec<i64> = (0..512).collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();

        // A job admitted exactly at the deadline is refused.
        let at_deadline = d.run_select(&mut m, job(512, 0, i64::MAX), lease.expires_at);
        assert_eq!(at_deadline, Err(DeviceError::LeaseExpired));
        assert!(d.regs().errored());

        // One tick before the deadline it is admitted — and per the §2.2
        // allotted-work contract it runs to completion even though it
        // finishes after the expiry tick.
        let just_in_time = lease.expires_at - Tick::from_ps(1);
        let run = d
            .run_select(&mut m, job(512, 0, i64::MAX), just_in_time)
            .expect("admitted before expiry");
        assert_eq!(run.matched, 512);
        assert!(run.end > lease.expires_at, "work outlives the lease window");
        let _ = release_ownership(&mut m, lease, run.end).unwrap();
    }

    #[test]
    fn zero_rows_is_a_noop() {
        let (mut m, t0) = owned_module();
        let mut d = JafarDevice::paper_default();
        let run = d.run_select(&mut m, job(0, 0, 10), t0).unwrap();
        assert_eq!(run.matched, 0);
        assert_eq!(run.bursts_read, 0);
        assert_eq!(run.bursts_written, 0);
        assert_eq!(run.end, t0);
    }

    #[test]
    fn stats_accumulate_across_jobs() {
        let (mut m, t0) = owned_module();
        let values: Vec<i64> = (0..512).collect();
        put_column(&mut m, 0, &values);
        let mut d = JafarDevice::paper_default();
        let r1 = d.run_select(&mut m, job(512, 0, 100), t0).unwrap();
        d.run_select(&mut m, job(512, 0, 100), r1.end).unwrap();
        assert_eq!(d.stats().jobs.get(), 2);
        assert_eq!(d.stats().words.get(), 1024);
        assert_eq!(d.stats().bursts_read.get(), 128);
    }

    /// Selection bytes, LSB-first within each byte.
    fn reference_bytes(values: &[i64], lo: i64, hi: i64) -> Vec<u8> {
        let mut bytes = vec![0u8; values.len().div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            if lo <= v && v <= hi {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// A predicate drawn from the edge cases the burst mask must get
    /// right: the full range, an empty range (`lo > hi`), a point
    /// (`lo == hi`) on a column value, or an arbitrary range.
    fn edge_bounds(rng: &mut SplitMix64, values: &[i64]) -> (i64, i64) {
        let pick = |rng: &mut SplitMix64| {
            if values.is_empty() {
                0
            } else {
                values[rng.next_below(values.len() as u64) as usize]
            }
        };
        match rng.next_below(4) {
            0 => (i64::MIN, i64::MAX),
            1 => {
                let hi = rng.next_range_inclusive(-1000, 1000);
                (hi + 1 + rng.next_range_inclusive(0, 50), hi)
            }
            2 => {
                let v = pick(rng);
                (v, v)
            }
            _ => {
                let (a, b) = (pick(rng), pick(rng));
                (a.min(b), a.max(b))
            }
        }
    }

    /// Values in a small range with the integer extremes mixed in.
    fn edge_column(rng: &mut SplitMix64, rows: usize) -> Vec<i64> {
        (0..rows)
            .map(|_| match rng.next_below(16) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.next_range_inclusive(-1000, 1000),
            })
            .collect()
    }

    #[test]
    fn burst_masks_match_the_reference_for_any_buffer_and_predicate() {
        forall("select and fused select match reference bytes", 48, |rng| {
            let (mut m, t0) = owned_module();
            let out_buf_bits = [8, 24, 520][rng.next_below(3) as usize];
            let mut d = JafarDevice::new(DeviceConfig {
                out_buf_bits,
                ..DeviceConfig::default()
            });
            let rows = rng.next_below(700) as usize;
            let values = edge_column(rng, rows);
            // Start anywhere in the first row group, 64-byte aligned.
            let col = 64 * rng.next_below(20);
            put_column(&mut m, col, &values);
            let out = 96 * 1024;
            let (lo, hi) = edge_bounds(rng, &values);
            let run = d
                .run_select(
                    &mut m,
                    SelectJob {
                        col_addr: PhysAddr(col),
                        rows: rows as u64,
                        predicate: Predicate::Between(lo, hi),
                        out_addr: PhysAddr(out),
                    },
                    t0,
                )
                .unwrap();
            let expect = reference_bytes(&values, lo, hi);
            let ones: u32 = expect.iter().map(|b| b.count_ones()).sum();
            assert_eq!(run.matched, u64::from(ones));
            let mut got = vec![0u8; expect.len()];
            m.data().read(PhysAddr(out), &mut got);
            assert_eq!(
                got, expect,
                "solo select, {out_buf_bits}-bit buffer, [{lo}, {hi}]"
            );

            let lanes: Vec<(i64, i64)> = (0..1 + rng.next_below(MAX_FUSED_LANES as u64))
                .map(|_| edge_bounds(rng, &values))
                .collect();
            let lane_out = |l: usize| PhysAddr(128 * 1024 + l as u64 * 4096);
            let fused = d
                .run_select_fused(
                    &mut m,
                    &FusedSelectJob {
                        col_addr: PhysAddr(col),
                        rows: rows as u64,
                        predicates: lanes
                            .iter()
                            .map(|&(a, b)| Predicate::Between(a, b))
                            .collect(),
                        out_addrs: (0..lanes.len()).map(lane_out).collect(),
                    },
                    run.end,
                )
                .unwrap();
            for (l, &(lo, hi)) in lanes.iter().enumerate() {
                let expect = reference_bytes(&values, lo, hi);
                let mut got = vec![0u8; expect.len()];
                m.data().read(lane_out(l), &mut got);
                assert_eq!(got, expect, "fused lane {l}, {out_buf_bits}-bit buffer");
                let ones: u32 = expect.iter().map(|b| b.count_ones()).sum();
                assert_eq!(fused.matched[l], u64::from(ones));
            }
        });
    }

    /// The tiny module with its last rank granted, and the address 64
    /// bytes before its end: a 16-row job there runs one burst past it.
    fn past_the_end_module() -> (DramModule, Tick, u64) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let last_rank = m.geometry().ranks - 1;
        let lease = grant_ownership(&mut m, last_rank, Tick::ZERO).expect("fresh module");
        let end = m.geometry().capacity_bytes();
        (m, lease.acquired_at, end - 64)
    }

    #[test]
    fn select_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let out_addr = PhysAddr(tail - 4096);
        let job = |rows| SelectJob {
            col_addr: PhysAddr(tail),
            rows,
            predicate: Predicate::Between(0, 10),
            out_addr,
        };
        assert_eq!(
            d.run_select(&mut m, job(16), t0),
            Err(DeviceError::SpansRanks)
        );
        // A row count whose byte length overflows u64 cannot wrap back
        // into range.
        assert_eq!(
            d.run_select(&mut m, job(u64::MAX - 3), t0),
            Err(DeviceError::SpansRanks)
        );
        // The last full burst is still a valid job.
        assert_eq!(d.run_select(&mut m, job(8), t0).unwrap().bursts_read, 1);
    }

    #[test]
    fn fused_select_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = FusedSelectJob {
            col_addr: PhysAddr(tail),
            rows: 16,
            predicates: vec![Predicate::Between(0, 10), Predicate::Ge(5)],
            out_addrs: vec![PhysAddr(tail - 4096), PhysAddr(tail - 8192)],
        };
        let err = d.run_select_fused(&mut m, &job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }

    #[test]
    fn aggregate_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = crate::aggregate::AggregateJob {
            col_addr: PhysAddr(tail),
            rows: 16,
            op: crate::aggregate::AggOp::Sum,
            filter: None,
        };
        let err = d.run_aggregate(&mut m, job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }

    #[test]
    fn group_by_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = crate::aggregate::GroupByJob {
            key_addr: PhysAddr(tail - 64 * 1024),
            val_addr: PhysAddr(tail),
            rows: 16,
            op: crate::aggregate::AggOp::Sum,
            buckets: 4,
            spill_addr: PhysAddr(tail - 128 * 1024),
        };
        let err = d.run_group_by(&mut m, job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }

    #[test]
    fn project_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        m.data_mut().write(PhysAddr(tail - 4096), &[0xFF; 2]);
        let job = crate::project::ProjectJob {
            col_addr: PhysAddr(tail),
            rows: 16,
            bitset_addr: PhysAddr(tail - 4096),
            out_addr: PhysAddr(tail - 8192),
        };
        let err = d.run_project(&mut m, job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }
}
