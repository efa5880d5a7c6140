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

/// The one admission check of every datapath, run once per job before it
/// touches DRAM. `regions` are `(base, bytes)`, and in order: every base
/// must be 64-byte aligned ([`DeviceError::Misaligned`]); every byte must
/// lie on one rank ([`DeviceError::SpansRanks`]); that rank must be owned
/// ([`DeviceError::NotOwned`]); and its lease must not have expired at
/// `start` ([`DeviceError::LeaseExpired`]). Returns the rank.
///
/// The first region's base names the rank (it is checked even when
/// empty); other empty regions touch nothing. A region spans ranks when
/// it runs past the module's end, wraps around the address space, or
/// crosses onto another rank. Byte lengths computed with saturating
/// arithmetic stay safe: a saturated length always runs past the end.
pub(crate) fn admit(
    module: &DramModule,
    regions: &[(PhysAddr, u64)],
    start: Tick,
) -> Result<u32, DeviceError> {
    if regions.iter().any(|(base, _)| base.block_offset() != 0) {
        return Err(DeviceError::Misaligned);
    }
    let rank = rank_of(module, regions[0].0).ok_or(DeviceError::SpansRanks)?;
    for &(base, bytes) in regions {
        if bytes == 0 {
            continue;
        }
        let last = base.0.checked_add(bytes - 1).map(PhysAddr);
        if rank_of(module, base) != Some(rank)
            || last.and_then(|a| rank_of(module, a)) != Some(rank)
        {
            return Err(DeviceError::SpansRanks);
        }
    }
    if !module.rank_owned_by_ndp(rank) {
        return Err(DeviceError::NotOwned);
    }
    if start >= module.ndp_deadline(rank) {
        return Err(DeviceError::LeaseExpired);
    }
    Ok(rank)
}

/// The rank holding `addr`, or `None` past the module's end: the
/// decode that cannot panic.
pub(crate) fn rank_of(module: &DramModule, addr: PhysAddr) -> Option<u32> {
    let decoder = module.decoder();
    (addr.0 < decoder.capacity()).then(|| decoder.decode(addr).rank)
}

/// The eight `i64` words of one 64-byte burst, read in place from the
/// burst the module lends.
#[inline]
pub(crate) fn burst_words(data: &[u8; 64]) -> [i64; 8] {
    let (words, _) = data.as_chunks::<8>();
    std::array::from_fn(|w| i64::from_le_bytes(words[w]))
}

/// Set bits in a drained output buffer: the rows it matched. A lane
/// counts its matches once per drain rather than once per burst.
fn popcount(bytes: &[u8]) -> u64 {
    bytes.iter().map(|b| u64::from(b.count_ones())).sum()
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

/// One predicate lane of a select pass: its inclusive bounds, its
/// *n*-bit output buffer (`n / 8` bytes, of which `fill` hold outcomes),
/// where that buffer drains next, and the rows it matched in the buffers
/// drained so far. Each burst adds one byte: bit `w` is word `w`'s
/// outcome, the layout a bit-by-bit push would leave.
struct Lane {
    lo: i64,
    hi: i64,
    buf: Vec<u8>,
    fill: usize,
    cursor: u64,
    matched: u64,
}

/// Outcome and timing of one select pass over its lanes: lane `l`'s
/// match count is `matched[l]`, and the entries past the lane count are
/// zero.
pub(crate) struct LaneRun {
    pub(crate) start: Tick,
    pub(crate) end: Tick,
    pub(crate) matched: [u64; MAX_FUSED_LANES],
    pub(crate) bursts_read: u64,
    pub(crate) bursts_written: u64,
    pub(crate) dram_wait: Tick,
}

impl LaneRun {
    /// The run as lane 0 saw it: the outcome of a one-lane select.
    pub(crate) fn first_lane(&self) -> SelectRun {
        SelectRun {
            start: self.start,
            end: self.end,
            matched: self.matched[0],
            bursts_read: self.bursts_read,
            bursts_written: self.bursts_written,
            dram_wait: self.dram_wait,
        }
    }
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
    /// The aggregate, filtered-aggregate and group-by rates, each taken
    /// from the process-wide table on this device's first job that needs
    /// it, so a job reads its rate without the table's lock.
    kernel_rates: [Option<u64>; 3],
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
            kernel_rates: [None; 3],
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

    /// `datapath`'s picoseconds per word on this device.
    pub(crate) fn rate(&mut self, datapath: Datapath) -> u64 {
        let slot = match datapath {
            Datapath::Filter => return self.ps_per_word,
            Datapath::Aggregate => 0,
            Datapath::FilteredAggregate => 1,
            Datapath::GroupBy => 2,
        };
        let config = &self.config;
        *self.kernel_rates[slot].get_or_insert_with(|| datapath.ps_per_word(config))
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

    /// The one validation of every select: 1..=[`MAX_FUSED_LANES`]
    /// lanes with one output region each, then [`admit`] over the column
    /// and every output region.
    fn validate(
        &self,
        module: &DramModule,
        col_addr: PhysAddr,
        rows: u64,
        lanes: usize,
        outs: &[PhysAddr],
        start: Tick,
    ) -> Result<(), DeviceError> {
        let k = outs.len();
        if k == 0 || k > MAX_FUSED_LANES || lanes != k {
            return Err(DeviceError::LaneOverflow);
        }
        let mut regions = [(col_addr, rows.saturating_mul(8)); MAX_FUSED_LANES + 1];
        for (region, &out) in regions[1..].iter_mut().zip(outs) {
            *region = (out, rows.div_ceil(8));
        }
        admit(module, &regions[..=k], start).map(|_| ())
    }

    /// Executes one select job against `module`, starting no earlier than
    /// `start`: the one-lane select. The rank holding the data must
    /// already be owned (see [`crate::ownership`]).
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
        let run = self.select_lanes(
            module,
            job.col_addr,
            job.rows,
            &[job.predicate.bounds()],
            &[job.out_addr],
            start,
        )?;
        Ok(run.first_lane())
    }

    /// Executes one *fused* select job: the column is streamed from DRAM
    /// exactly once and every word is evaluated against all `k` predicate
    /// lanes in the same device cycle, each lane accumulating into its own
    /// output buffer and draining to its own bitset region. Per-word time
    /// is unchanged from [`Self::run_select`] — the comparator lanes run
    /// in parallel — so one pass serves `k` queries for one scan's worth
    /// of DRAM traffic and datapath time.
    ///
    /// Both calls run the same lane loop, so each lane's bitset bytes are
    /// byte-identical to a [`Self::run_select`] of the same predicate over
    /// the same segment; only the wall-clock stamps of the writebacks
    /// differ.
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
        let bounds: Vec<(i64, i64)> = job.predicates.iter().map(|p| p.bounds()).collect();
        let run = self.select_lanes(
            module,
            job.col_addr,
            job.rows,
            &bounds,
            &job.out_addrs,
            start,
        )?;
        Ok(FusedSelectRun {
            start: run.start,
            end: run.end,
            matched: run.matched[..bounds.len()].to_vec(),
            bursts_read: run.bursts_read,
            bursts_written: run.bursts_written,
            dram_wait: run.dram_wait,
        })
    }

    /// Validates and runs one select pass over `preds.len()` lanes: lane
    /// `l` filters by `preds[l]` into the bitset at `outs[l]`. One lane
    /// scans as a `[Lane; 1]`, so a plain select builds no lane vector.
    ///
    /// # Errors
    /// Returns a [`DeviceError`] (and latches STATUS.ERROR); a rejected
    /// job touches no DRAM.
    pub(crate) fn select_lanes(
        &mut self,
        module: &mut DramModule,
        col_addr: PhysAddr,
        rows: u64,
        preds: &[(i64, i64)],
        outs: &[PhysAddr],
        start: Tick,
    ) -> Result<LaneRun, DeviceError> {
        self.validate(module, col_addr, rows, preds.len(), outs, start)
            .inspect_err(|_| self.regs.set_error())?;
        let bits = self.config.out_buf_bits;
        assert!(
            bits > 0 && bits.is_multiple_of(8),
            "output buffer must hold a whole, nonzero number of bytes, got {bits} bits"
        );
        let lane = |&(lo, hi): &(i64, i64), out: &PhysAddr| Lane {
            lo,
            hi,
            buf: vec![0; bits / 8],
            fill: 0,
            cursor: out.0,
            matched: 0,
        };
        match (preds, outs) {
            ([pred], [out]) => self.scan(module, col_addr, rows, [lane(pred, out)], start),
            _ => {
                let lanes: Vec<Lane> = preds.iter().zip(outs).map(|(p, o)| lane(p, o)).collect();
                self.scan(module, col_addr, rows, lanes, start)
            }
        }
    }

    /// The select datapath: streams `rows` words from `col_addr` once and
    /// evaluates every word against each lane in the same device cycle.
    /// Each lane fills its own *n*-bit buffer and drains it to its own
    /// bitset region; the buffers fill at the same burst boundary and
    /// drain in lane order, as a word-by-word push would drain them.
    fn scan<L: AsMut<[Lane]>>(
        &mut self,
        module: &mut DramModule,
        col_addr: PhysAddr,
        rows: u64,
        mut lanes: L,
        start: Tick,
    ) -> Result<LaneRun, DeviceError> {
        let lanes = lanes.as_mut();
        let (begin, done) = if lanes.len() == 1 {
            ("select-start", "select-done")
        } else {
            ("select-fused-start", "select-fused-done")
        };
        self.regs.set_busy();
        self.tracer.emit(
            start,
            EventKind::AccelStage {
                stage: begin,
                page: col_addr.0,
            },
        );

        let mut issue_cursor = start; // when the next read may be requested
        let mut proc_free = start; // when the datapath frees up
        let mut dram_wait = Tick::ZERO;
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;

        let total_bursts = rows.div_ceil(8);
        let buf_bytes = lanes[0].buf.len();
        let mut lookahead = RowLookahead::new(module, col_addr, total_bursts);
        let mut burst = 0;
        while burst < total_bursts {
            // A run never crosses a row, so every row crossing starts one.
            lookahead.before(module, burst, issue_cursor);
            // The lanes' buffers fill together and drain by writes between
            // reads: ask for the bursts up to the next drain.
            let max = (total_bursts - burst).min((buf_bytes - lanes[0].fill) as u64);
            let run = module
                .serve_run(
                    PhysAddr(col_addr.0 + burst * 64),
                    max as usize,
                    Requester::Ndp,
                    issue_cursor,
                )
                .map_err(|e| {
                    self.regs.set_error();
                    device_error(e)
                })?;
            // Pipelined command issue: the next read may be requested one
            // bus cycle after the run's last CAS went out.
            issue_cursor = run.next_request;
            let mut words = 0;
            for (i, line) in run.lines.iter().enumerate() {
                if i > 0 {
                    proc_free += Tick::from_ps(words as u64 * self.ps_per_word);
                }
                let ready = run.data_ready(i);
                if ready > proc_free {
                    dram_wait += ready - proc_free;
                    proc_free = ready;
                }
                words = (rows - (burst + i as u64) * 8).min(8) as usize;
                let values = burst_words(line);
                for lane in lanes.iter_mut() {
                    lane.buf[lane.fill] = range_mask(&values, words, lane.lo, lane.hi) as u8;
                    lane.fill += 1;
                }
            }
            let n = run.lines.len() as u64;
            burst += n;
            bursts_read += n;
            for lane in lanes.iter_mut() {
                // Every burst but the last adds 8 outcomes, so the buffer
                // fills on a burst boundary, the run's last, and drains at
                // the tick a word-by-word push would drain it. A last,
                // partial burst leaves it short of full: the final flush
                // drains it.
                if lane.fill == buf_bytes && words == 8 {
                    lane.matched += popcount(&lane.buf);
                    lane.cursor = self.write_bitset_chunk(
                        module,
                        lane.cursor,
                        &lane.buf,
                        proc_free,
                        &mut bursts_written,
                    )?;
                    lane.fill = 0;
                }
            }
            proc_free += Tick::from_ps(words as u64 * self.ps_per_word);
        }
        // Final partial flush, lane by lane.
        let mut matched = [0u64; MAX_FUSED_LANES];
        for (lane, count) in lanes.iter_mut().zip(&mut matched) {
            if lane.fill > 0 {
                let bytes = &lane.buf[..lane.fill];
                lane.matched += popcount(bytes);
                self.write_bitset_chunk(
                    module,
                    lane.cursor,
                    bytes,
                    proc_free,
                    &mut bursts_written,
                )?;
            }
            *count = lane.matched;
        }

        self.regs.set_done(matched.iter().sum());
        self.tracer.emit(
            proc_free,
            EventKind::AccelStage {
                stage: done,
                page: col_addr.0,
            },
        );
        self.stats.jobs.inc();
        self.stats.words.add(rows);
        self.stats.bursts_read.add(bursts_read);
        self.stats.bursts_written.add(bursts_written);
        Ok(LaneRun {
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
    pub(crate) fn write_bitset_chunk(
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
    fn kernel_lease_expiry_is_enforced_at_admission_only() {
        use crate::aggregate::{AggOp, AggregateJob, GroupByJob};
        use crate::ownership::grant_ownership_for;
        use crate::project::ProjectJob;
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership_for(&mut m, 0, Tick::ZERO, Tick::from_us(2)).unwrap();
        let values: Vec<i64> = (0..512).collect();
        let keys: Vec<i64> = (0..512).map(|i| i % 4).collect();
        put_column(&mut m, 0, &values);
        put_column(&mut m, 8 * 1024, &keys);
        m.data_mut().write(PhysAddr(64 * 1024), &[0xFF; 64]);
        let aggregate = AggregateJob {
            col_addr: PhysAddr(0),
            rows: 512,
            op: AggOp::Sum,
            filter: None,
        };
        let group_by = GroupByJob {
            key_addr: PhysAddr(8 * 1024),
            val_addr: PhysAddr(0),
            rows: 512,
            op: AggOp::Sum,
            buckets: 4,
            spill_addr: PhysAddr(96 * 1024),
        };
        let project = ProjectJob {
            col_addr: PhysAddr(0),
            rows: 512,
            bitset_addr: PhysAddr(64 * 1024),
            out_addr: PhysAddr(128 * 1024),
        };
        let mut d = JafarDevice::paper_default();

        // A kernel admitted exactly at the deadline is refused.
        let deadline = lease.expires_at;
        let err = d.run_aggregate(&mut m, aggregate, deadline).unwrap_err();
        assert_eq!(err, DeviceError::LeaseExpired);
        let err = d.run_group_by(&mut m, group_by, deadline).unwrap_err();
        assert_eq!(err, DeviceError::LeaseExpired);
        let err = d.run_project(&mut m, project, deadline).unwrap_err();
        assert_eq!(err, DeviceError::LeaseExpired);

        // One tick before it, each is admitted and runs to completion
        // past the deadline.
        let just_in_time = deadline - Tick::from_ps(1);
        let run = d.run_aggregate(&mut m, aggregate, just_in_time).unwrap();
        assert_eq!(run.value, Some(values.iter().sum()));
        assert!(run.end > deadline, "work outlives the lease window");
        let run = d.run_group_by(&mut m, group_by, just_in_time).unwrap();
        let grouped: u64 = run.groups.iter().map(|g| g.2).sum();
        assert_eq!(grouped + run.spilled_rows, 512);
        assert!(run.end > deadline);
        let run = d.run_project(&mut m, project, just_in_time).unwrap();
        assert_eq!(run.emitted, 512);
        assert!(run.end > deadline);
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

    #[test]
    fn interleaved_select_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = crate::interleave::InterleavedSelectJob {
            local_col_addr: PhysAddr(tail),
            local_rows: 16,
            predicate: Predicate::Between(0, 10),
            out_addr: PhysAddr(tail - 4096),
            ways: 2,
            phase: 0,
        };
        let err = d.run_select_interleaved(&mut m, job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
        // 8 local rows of a 1024-way interleave own bits across 16
        // global output bursts.
        let job = crate::interleave::InterleavedSelectJob {
            local_col_addr: PhysAddr(tail - 4096),
            local_rows: 8,
            out_addr: PhysAddr(tail),
            ways: 1024,
            ..job
        };
        let err = d.run_select_interleaved(&mut m, job, t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }

    #[test]
    fn row_filter_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = |base, rows, out_addr| crate::rowstore::RowFilterJob {
            base: PhysAddr(base),
            row_bytes: 16,
            rows,
            predicates: vec![crate::rowstore::ColPredicate {
                offset: 0,
                predicate: Predicate::Ge(0),
            }],
            out_addr: PhysAddr(out_addr),
        };
        let err = d.run_row_filter(&mut m, &job(tail, 8, tail - 4096), t0);
        assert_eq!(err, Err(DeviceError::SpansRanks));
        let err = d.run_row_filter(&mut m, &job(tail - 32 * 1024, 1024, tail), t0);
        assert_eq!(err, Err(DeviceError::SpansRanks));
    }

    #[test]
    fn sort_past_the_module_end_is_rejected() {
        let (mut m, t0, tail) = past_the_end_module();
        let mut d = JafarDevice::paper_default();
        let job = |col_addr, out_addr| crate::sort::SortJob {
            col_addr: PhysAddr(col_addr),
            rows: 16,
            out_addr: PhysAddr(out_addr),
        };
        let err = d.run_sort(&mut m, job(tail, tail - 4096), t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
        let err = d.run_sort(&mut m, job(tail - 4096, tail), t0).unwrap_err();
        assert_eq!(err, DeviceError::SpansRanks);
    }
}
