//! The DRAM module: banks + ranks + shared data bus + mode registers +
//! functional storage, behind a checked command interface.
//!
//! Two agents drive commands at this interface: the host memory controller
//! (`jafar-memctl`) and the JAFAR device (`jafar-core`), which §2.2 describes
//! as "request\[ing\] data from DRAM in the same way that a CPU would". The
//! module enforces:
//!
//! - per-bank timing reservations ([`crate::bank`]);
//! - rank-level constraints: tRRD and the four-activate window tFAW,
//!   write-to-read turnaround tWTR, periodic refresh;
//! - the data buses: host traffic shares the single channel bus (one burst
//!   at a time, with direction/rank turnaround gaps), while each rank's
//!   NDP device streams over that rank's local IO path — JAFAR sits in the
//!   DIMM's buffer chip, so its bursts never cross the memory channel
//!   (§2.2), and devices on *different* ranks do not serialise against
//!   each other or against host traffic to other ranks;
//! - MPR-based rank ownership: while a rank's MR3 MPR bit is set, *host*
//!   READ/WRITE commands are rejected ([`IssueError::RankOwnedByNdp`]) and
//!   *NDP* data commands are only accepted on owned ranks
//!   ([`IssueError::NdpWithoutOwnership`]) — the contract §2.2 builds the
//!   ownership handoff on.
//!
//! Command-bus contention is not modelled (commands are assumed to find a
//! free command slot); for the workloads studied here the data bus and bank
//! timing dominate, which is the standard simplification in trace-driven
//! DRAM models.

use crate::address::{AddressDecoder, AddressMapping, Coord, PhysAddr};
use crate::bank::{Bank, BankState};
use crate::command::{DramCommand, Requester};
use crate::data::{DramData, PAGE_SIZE};
use crate::fault::{FaultInjector, FaultStats};
use crate::geometry::DramGeometry;
use crate::mode::ModeRegs;
use crate::stats::DramStats;
use crate::timing::DramTiming;
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;

/// Why a command could not issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueError {
    /// A host data command targeted a rank whose MPR is enabled (owned by
    /// the NDP device).
    RankOwnedByNdp,
    /// An NDP data command targeted a rank it does not own.
    NdpWithoutOwnership,
    /// The command is illegal in the bank's current state (e.g. READ on an
    /// idle bank, ACTIVATE with a row already open). The payload names the
    /// violated expectation.
    WrongState(&'static str),
    /// The command is legal but not yet: it may issue at the contained tick.
    TooEarly(Tick),
    /// REFRESH/MRS targeted a rank with open rows.
    RanksNotQuiesced,
    /// The SECDED ECC model detected a double-bit error in the read burst
    /// (injected by [`crate::fault::FaultInjector`]). The transfer happened
    /// — bank and bus state advanced — but the data must not be consumed.
    Uncorrectable,
    /// A ModeRegisterSet was transiently ignored by the rank (injected
    /// fault). The command had no effect and may simply be retried.
    MrsGlitch,
}

/// Result of a successfully issued READ.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// The 64 bytes of the burst.
    pub data: [u8; 64],
    /// When the first beat appears on the data bus (CAS + CL).
    pub bus_start: Tick,
    /// When the last beat has transferred (burst complete).
    pub data_ready: Tick,
}

/// Row-buffer outcome of a block-level access (for locality statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row was already open.
    Hit,
    /// The bank was idle; one ACTIVATE was needed.
    Miss,
    /// A different row was open; PRECHARGE + ACTIVATE were needed.
    Conflict,
}

/// Result of a block-level access performed by [`DramModule::serve_block`].
///
/// A read lends its burst rather than copying it: the borrow points into
/// the functional store's page, at a shared zero line for a page never
/// written, or at the module's one line holding the copy an installed
/// fault injector perturbed. It lives until the module's next command; a
/// caller that keeps the bytes longer copies them.
#[derive(Clone, Copy, Debug)]
pub struct BlockAccess<'a> {
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// When the burst completed on the data bus.
    pub data_ready: Tick,
    /// The bytes read (reads only).
    pub data: Option<&'a [u8; 64]>,
}

/// Result of a read run served by [`DramModule::serve_run`]: consecutive
/// bursts of one row, the first of which may have opened it. Burst `i`
/// completes at `first_ready + i·step`. Like [`BlockAccess`], the run
/// lends its lines until the module's next command.
#[derive(Clone, Copy, Debug)]
pub struct ReadRun<'a> {
    /// Row-buffer outcome of the first burst; the rest are row hits.
    pub outcome: RowOutcome,
    /// When the first burst completed on the data bus.
    pub first_ready: Tick,
    /// The spacing of the bursts' completions.
    pub step: Tick,
    /// When the reader may request its next read: one bus cycle after
    /// the last burst's CAS, as the reader sees it (its completion less
    /// CL + tBURST, and never before the run was requested).
    pub next_request: Tick,
    /// The bursts read, one 64-byte line each, at consecutive addresses.
    pub lines: &'a [[u8; 64]],
}

impl ReadRun<'_> {
    /// When burst `i` of the run completed on the data bus.
    #[inline]
    pub fn data_ready(&self, i: usize) -> Tick {
        self.first_ready + self.step * i as u64
    }
}

#[derive(Clone, Copy, Debug)]
struct BusOp {
    is_write: bool,
    rank: u32,
    end: Tick,
}

#[derive(Clone, Debug)]
struct RankState {
    mode: ModeRegs,
    /// When each of the rank's last four ACTIVATEs leaves the tFAW window
    /// (its issue tick + tFAW): a ring whose slot `act_next` holds the
    /// fourth-last ACT's, the one a next ACT waits for. A slot no ACT has
    /// written holds `Tick::ZERO`, which constrains nothing.
    act_window: [Tick; 4],
    /// The ring slot the next ACTIVATE overwrites.
    act_next: usize,
    /// Earliest next ACTIVATE anywhere in the rank (tRRD).
    rrd_allowed: Tick,
    /// Earliest next READ CAS in the rank after a write burst (tWTR).
    wtr_until: Tick,
    /// Next scheduled refresh deadline.
    next_refresh: Tick,
    /// Deadline of the current NDP ownership lease (`Tick::MAX` when the
    /// lease is unbounded or the rank is host-owned). The module records
    /// it; admission control against it happens at job-issue time in the
    /// device (§2.2's contract is that granted work finishes within the
    /// allotted window, so per-command policing would be too strict).
    ndp_deadline: Tick,
}

impl RankState {
    fn new(t: &DramTiming) -> Self {
        RankState {
            mode: ModeRegs::new(),
            act_window: [Tick::ZERO; 4],
            act_next: 0,
            rrd_allowed: Tick::ZERO,
            wtr_until: Tick::ZERO,
            next_refresh: t.t_refi,
            ndp_deadline: Tick::MAX,
        }
    }
}

/// A module's timing state, taken by [`DramModule::timing_state`]: every
/// bank's row and reservations, every rank's mode registers, ACT ring,
/// tRRD, tWTR, refresh and lease deadlines, and the data buses. Counters,
/// stored bytes, the fault injector and the tracer are not part of it.
#[derive(Clone, Debug)]
pub struct TimingState {
    banks: Vec<Bank>,
    ranks: Vec<RankState>,
    host_bus: Option<BusOp>,
    ndp_bus: Vec<Option<BusOp>>,
}

/// One DRAM module (DIMM) on a memory channel.
///
/// ```
/// use jafar_common::time::Tick;
/// use jafar_dram::{AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr, Requester};
///
/// let mut module = DramModule::new(
///     DramGeometry::tiny(),
///     DramTiming::ddr3_paper().without_refresh(),
///     AddressMapping::RankRowBankBlock,
/// );
/// module.data_mut().write_i64(PhysAddr(0), 42);
///
/// // A closed-row read pays ACT + tRCD + CL + burst = 30 ns.
/// let access = module
///     .serve_addr(PhysAddr(0), false, Requester::Host, Tick::ZERO, None)
///     .unwrap();
/// assert_eq!(access.data_ready, Tick::from_ns(30));
/// let data = access.data.unwrap();
/// assert_eq!(i64::from_le_bytes(data[..8].try_into().unwrap()), 42);
/// ```
pub struct DramModule {
    geometry: DramGeometry,
    timing: DramTiming,
    decoder: AddressDecoder,
    banks: Vec<Bank>,
    ranks: Vec<RankState>,
    /// The shared memory-channel data bus (host traffic).
    host_bus: Option<BusOp>,
    /// Per-rank local IO paths (NDP traffic): the device's bursts stay
    /// inside the DIMM, one stream per rank.
    ndp_bus: Vec<Option<BusOp>>,
    data: DramData,
    /// The copy of the last read burst a fault injector saw (and may have
    /// perturbed): what a read lends while an injector is installed, so
    /// the functional store is never touched.
    perturbed: [u8; 64],
    stats: DramStats,
    fault: Option<FaultInjector>,
    tracer: SharedTracer,
}

impl Requester {
    fn label(self) -> &'static str {
        match self {
            Requester::Host => "host",
            Requester::Ndp => "ndp",
        }
    }
}

impl DramModule {
    /// Builds a module with the given geometry, timing, and address mapping.
    pub fn new(geometry: DramGeometry, timing: DramTiming, mapping: AddressMapping) -> Self {
        geometry.validate();
        timing.validate();
        DramModule {
            geometry,
            timing,
            decoder: AddressDecoder::new(geometry, mapping),
            banks: (0..geometry.total_banks()).map(|_| Bank::new()).collect(),
            ranks: (0..geometry.ranks)
                .map(|_| RankState::new(&timing))
                .collect(),
            host_bus: None,
            ndp_bus: vec![None; geometry.ranks as usize],
            data: DramData::new(geometry.capacity_bytes()),
            perturbed: [0; 64],
            stats: DramStats::default(),
            fault: None,
            tracer: SharedTracer::disabled(),
        }
    }

    /// Attaches an event tracer. All DRAM commands, row-buffer outcomes and
    /// fault injections are emitted into it. Tracing is observational only:
    /// it never changes any simulated timing.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = tracer;
    }

    /// The attached tracer handle (disabled by default).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Installs (or removes) a fault injector on this module's data and
    /// command paths. Passing `None` restores fault-free operation.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// What the installed injector has done so far (`None` if fault-free).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(FaultInjector::stats)
    }

    /// The module's timing state, to return to with
    /// [`Self::restore_timing`].
    pub fn timing_state(&self) -> TimingState {
        TimingState {
            banks: self.banks.clone(),
            ranks: self.ranks.clone(),
            host_bus: self.host_bus,
            ndp_bus: self.ndp_bus.clone(),
        }
    }

    /// Returns every bank, rank and data bus to `state`, which
    /// [`Self::timing_state`] took from this module: the next command
    /// finds the module's clocks where they were then. Counters keep
    /// counting, and stored bytes stay as they are.
    ///
    /// # Panics
    /// Panics if `state` was taken from a module of another geometry.
    pub fn restore_timing(&mut self, state: &TimingState) {
        assert_eq!(state.banks.len(), self.banks.len(), "another geometry");
        assert_eq!(state.ranks.len(), self.ranks.len(), "another geometry");
        for (bank, from) in self.banks.iter_mut().zip(&state.banks) {
            bank.restore_timing(from);
        }
        self.ranks.clone_from(&state.ranks);
        self.host_bus = state.host_bus;
        self.ndp_bus.clone_from(&state.ndp_bus);
    }

    /// Records the expiry deadline of the current NDP lease on `rank`.
    /// `Tick::MAX` means unbounded. Enforced at job admission by the
    /// device, not per command (see `RankState`'s field docs).
    pub fn set_ndp_deadline(&mut self, rank: u32, deadline: Tick) {
        self.ranks[rank as usize].ndp_deadline = deadline;
    }

    /// The NDP lease deadline of `rank` (`Tick::MAX` if unbounded).
    pub fn ndp_deadline(&self, rank: u32) -> Tick {
        self.ranks[rank as usize].ndp_deadline
    }

    /// Module geometry.
    pub fn geometry(&self) -> DramGeometry {
        self.geometry
    }

    /// Timing rulebook.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Address decoder (shared with the memory controller).
    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-bank state (for inspection/tests).
    pub fn bank(&self, rank: u32, bank: u32) -> &Bank {
        &self.banks[self.bank_index(rank, bank)]
    }

    /// Functional backing store (read-only).
    pub fn data(&self) -> &DramData {
        &self.data
    }

    /// Functional backing store (mutable, for zero-time initialisation of
    /// workload data — the simulation-setup equivalent of data already being
    /// resident in memory).
    pub fn data_mut(&mut self) -> &mut DramData {
        &mut self.data
    }

    /// Mode registers of `rank`.
    pub fn mode_regs(&self, rank: u32) -> &ModeRegs {
        &self.ranks[rank as usize].mode
    }

    /// True if `rank` is currently owned by the NDP device (MPR enabled).
    pub fn rank_owned_by_ndp(&self, rank: u32) -> bool {
        self.ranks[rank as usize].mode.mpr_enabled()
    }

    /// True if `rank` has a refresh deadline at or before `now`.
    pub fn refresh_due(&self, rank: u32, now: Tick) -> bool {
        self.timing.refresh_enabled && now >= self.ranks[rank as usize].next_refresh
    }

    /// The next refresh deadline of `rank` (`Tick::MAX` if refresh disabled).
    pub fn refresh_deadline(&self, rank: u32) -> Tick {
        if self.timing.refresh_enabled {
            self.ranks[rank as usize].next_refresh
        } else {
            Tick::MAX
        }
    }

    fn bank_index(&self, rank: u32, bank: u32) -> usize {
        debug_assert!(rank < self.geometry.ranks && bank < self.geometry.banks_per_rank);
        (rank * self.geometry.banks_per_rank + bank) as usize
    }

    /// The data-bus slot `requester`'s burst on `rank` occupies: the shared
    /// channel bus for the host, the rank's local IO path for the NDP
    /// device.
    fn bus_slot(&self, requester: Requester, rank: u32) -> &Option<BusOp> {
        match requester {
            Requester::Host => &self.host_bus,
            Requester::Ndp => &self.ndp_bus[rank as usize],
        }
    }

    fn bus_slot_mut(&mut self, requester: Requester, rank: u32) -> &mut Option<BusOp> {
        match requester {
            Requester::Host => &mut self.host_bus,
            Requester::Ndp => &mut self.ndp_bus[rank as usize],
        }
    }

    /// Bus-availability constraint for a burst whose data phase starts
    /// `lead` after the command: earliest command tick ≥ `now`. The same
    /// turnaround rules apply on every bus; which bus the burst occupies
    /// depends on the requester (see [`DramModule::bus_slot`]).
    fn bus_constraint(
        &self,
        now: Tick,
        lead: Tick,
        is_write: bool,
        rank: u32,
        requester: Requester,
    ) -> Tick {
        match *self.bus_slot(requester, rank) {
            None => now,
            Some(op) => {
                // Direction or rank switches need a turnaround bubble.
                let gap = if op.is_write != is_write || op.rank != rank {
                    Tick::from_ps(2 * self.timing.bus_clock.period().as_ps())
                } else {
                    Tick::ZERO
                };
                let earliest_data = op.end + gap;
                if earliest_data <= now + lead {
                    now
                } else {
                    earliest_data - lead
                }
            }
        }
    }

    fn check_ownership(&self, cmd: &DramCommand, requester: Requester) -> Result<(), IssueError> {
        if cmd.is_data_command() {
            self.check_data_ownership(cmd.rank(), requester)
        } else {
            Ok(())
        }
    }

    /// The MR3/MPR rule for a READ/WRITE by `requester` on `rank`.
    fn check_data_ownership(&self, rank: u32, requester: Requester) -> Result<(), IssueError> {
        match (requester, self.rank_owned_by_ndp(rank)) {
            (Requester::Host, true) => Err(IssueError::RankOwnedByNdp),
            (Requester::Ndp, false) => Err(IssueError::NdpWithoutOwnership),
            _ => Ok(()),
        }
    }

    /// The earliest tick ≥ `now` at which `cmd` may legally issue, or why it
    /// cannot.
    pub fn earliest_issue(
        &self,
        cmd: DramCommand,
        requester: Requester,
        now: Tick,
    ) -> Result<Tick, IssueError> {
        self.check_ownership(&cmd, requester)?;
        self.earliest_legal(cmd, requester, now)
    }

    /// [`Self::earliest_issue`] without the ownership check, which the
    /// caller has made: the bank-state and timing rules alone.
    fn earliest_legal(
        &self,
        cmd: DramCommand,
        requester: Requester,
        now: Tick,
    ) -> Result<Tick, IssueError> {
        match cmd {
            DramCommand::Activate { rank, bank, .. } => {
                let idx = self.bank_index(rank, bank);
                if self.banks[idx].open_row().is_some() {
                    return Err(IssueError::WrongState("ACTIVATE requires an idle bank"));
                }
                Ok(self.earliest_activate(idx, rank, now))
            }
            DramCommand::Read { rank, bank, .. } => {
                let idx = self.bank_index(rank, bank);
                self.banks[idx]
                    .open_row()
                    .ok_or(IssueError::WrongState("READ requires an open row"))?;
                Ok(self.earliest_read(idx, rank, requester, now))
            }
            DramCommand::Write { rank, bank, .. } => {
                let idx = self.bank_index(rank, bank);
                self.banks[idx]
                    .open_row()
                    .ok_or(IssueError::WrongState("WRITE requires an open row"))?;
                Ok(self.earliest_write(idx, rank, requester, now))
            }
            DramCommand::Precharge { rank, bank } => {
                let b = &self.banks[self.bank_index(rank, bank)];
                Ok(b.earliest_precharge(now))
            }
            DramCommand::PrechargeAll { rank } => {
                let mut earliest = now;
                for bank in 0..self.geometry.banks_per_rank {
                    earliest = earliest
                        .max(self.banks[self.bank_index(rank, bank)].earliest_precharge(now));
                }
                Ok(earliest)
            }
            DramCommand::Refresh { rank } | DramCommand::ModeRegisterSet { rank, .. } => {
                let mut earliest = now;
                for bank in 0..self.geometry.banks_per_rank {
                    let b = &self.banks[self.bank_index(rank, bank)];
                    match b.refresh_ready(now) {
                        Some(ready) => earliest = earliest.max(ready),
                        None => return Err(IssueError::RanksNotQuiesced),
                    }
                }
                Ok(earliest)
            }
        }
    }

    /// The earliest ACTIVATE ≥ `now` to bank `idx` of `rank`, which the
    /// caller has checked is idle: the bank's reservation (tRP, tRC,
    /// refresh and mode-register blocks), tRRD after the rank's last ACT
    /// and tFAW after its fourth-last.
    #[inline]
    fn earliest_activate(&self, idx: usize, rank: u32, now: Tick) -> Tick {
        let rs = &self.ranks[rank as usize];
        self.banks[idx]
            .activate_allowed()
            .max(rs.rrd_allowed)
            .max(rs.act_window[rs.act_next])
            .max(now)
    }

    /// Applies ACTIVATE of `row` at `at` to idle bank `idx` of `rank`,
    /// scheduled at or after [`Self::earliest_activate`]: the bank opens
    /// the row, and the rank books tRRD and the ACT's tFAW window. With
    /// [`Bank::close`] for PRECHARGE, the one place a row command changes
    /// state, whichever path issued it.
    #[inline]
    fn activate_bank(&mut self, idx: usize, rank: u32, row: u32, at: Tick) {
        let t = &self.timing;
        self.banks[idx].open(row, at, t);
        let rs = &mut self.ranks[rank as usize];
        rs.rrd_allowed = rs.rrd_allowed.max(at + t.t_rrd);
        rs.act_window[rs.act_next] = at + t.t_faw;
        rs.act_next = (rs.act_next + 1) % 4;
    }

    /// The earliest READ CAS ≥ `now` to bank `idx` of `rank`, whose open
    /// row the caller has checked: the bank's CAS reservation, tWTR after
    /// the rank's last write burst, and the requester's data bus.
    #[inline]
    fn earliest_read(&self, idx: usize, rank: u32, requester: Requester, now: Tick) -> Tick {
        let cas = self.banks[idx]
            .read_allowed()
            .max(self.ranks[rank as usize].wtr_until)
            .max(now);
        self.bus_constraint(cas, self.timing.cl, false, rank, requester)
    }

    /// The earliest WRITE CAS ≥ `now`, like [`Self::earliest_read`].
    #[inline]
    fn earliest_write(&self, idx: usize, rank: u32, requester: Requester, now: Tick) -> Tick {
        let cas = self.banks[idx].write_allowed().max(now);
        self.bus_constraint(cas, self.timing.cwl, true, rank, requester)
    }

    /// Issues `cmd` at tick `at`. For WRITE commands, `write_data` is the
    /// burst payload; pass `None` for a *timing-only* write (the functional
    /// store was applied synchronously by a higher layer, e.g. the cache
    /// hierarchy's write-through-at-store-time model). Non-write commands
    /// must pass `None`. Returns the read burst for READ commands.
    ///
    /// # Errors
    /// Propagates [`IssueError`], including [`IssueError::TooEarly`] when
    /// `at` violates a timing reservation.
    ///
    /// # Panics
    /// Panics if `write_data` is supplied for a non-write command.
    pub fn issue(
        &mut self,
        cmd: DramCommand,
        requester: Requester,
        at: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<Option<ReadResult>, IssueError> {
        assert!(
            write_data.is_none() || matches!(cmd, DramCommand::Write { .. }),
            "write payload supplied for a non-write command"
        );
        let earliest = match self.earliest_issue(cmd, requester, at) {
            Ok(e) => e,
            Err(e) => {
                if matches!(e, IssueError::RankOwnedByNdp) {
                    self.stats.ownership_rejections.inc();
                }
                return Err(e);
            }
        };
        if at < earliest {
            return Err(IssueError::TooEarly(earliest));
        }
        self.apply(cmd, requester, at, write_data)
    }

    /// Emits `cmd` on the command-bus trace.
    #[inline]
    fn trace_cmd(&self, at: Tick, cmd: DramCommand, requester: Requester) {
        if !self.tracer.is_enabled() {
            return;
        }
        let (name, rank, bank) = match cmd {
            DramCommand::Activate { rank, bank, .. } => ("ACT", rank, bank),
            DramCommand::Read { rank, bank, .. } => ("RD", rank, bank),
            DramCommand::Write { rank, bank, .. } => ("WR", rank, bank),
            DramCommand::Precharge { rank, bank } => ("PRE", rank, bank),
            DramCommand::PrechargeAll { rank } => ("PREA", rank, 0),
            DramCommand::Refresh { rank } => ("REF", rank, 0),
            DramCommand::ModeRegisterSet { rank, .. } => ("MRS", rank, 0),
        };
        self.tracer.emit(
            at,
            EventKind::DramCmd {
                cmd: name,
                rank,
                bank,
                requester: requester.label(),
            },
        );
    }

    /// The address of `block` in the row open in bank `idx` (`rank`,
    /// `bank`): what a bare READ/WRITE command reaches.
    fn open_block_addr(&self, idx: usize, rank: u32, bank: u32, block: u32) -> PhysAddr {
        let row = self.banks[idx].open_row().expect("checked");
        self.decoder.encode(Coord {
            rank,
            bank,
            row,
            block,
        })
    }

    /// Finishes a READ CAS at `at` on `rank`, whose bank has applied it:
    /// books the requester's data bus until `data_ready` and lets an
    /// installed injector disturb the burst at `addr`. The caller has
    /// traced the command. Returns when the requester sees the burst
    /// complete; [`Self::read_line`] lends it.
    #[inline(always)]
    fn finish_read(
        &mut self,
        rank: u32,
        addr: PhysAddr,
        requester: Requester,
        at: Tick,
        data_ready: Tick,
    ) -> Result<Tick, IssueError> {
        *self.bus_slot_mut(requester, rank) = Some(BusOp {
            is_write: false,
            rank,
            end: data_ready,
        });
        self.stats.read_bursts.inc();
        if self.fault.is_none() {
            return Ok(data_ready);
        }
        self.disturb_read(rank, addr, at, data_ready)
    }

    /// The burst a read of `addr` just finished lends: its line in the
    /// functional store, or the copy an installed injector saw.
    #[inline]
    fn read_line(&self, addr: PhysAddr) -> &[u8; 64] {
        match self.fault {
            None => self.data.block(addr),
            Some(_) => &self.perturbed,
        }
    }

    /// Runs the installed fault injector over a copy of the burst at
    /// `addr` of `rank`, read at `at` and complete at `data_ready`: the
    /// copy [`Self::read_line`] lends. Faults perturb only that copy and
    /// the requester-observed completion time, which this returns;
    /// bank/bus reservations stay normal so retries can recover.
    #[cold]
    fn disturb_read(
        &mut self,
        rank: u32,
        addr: PhysAddr,
        at: Tick,
        data_ready: Tick,
    ) -> Result<Tick, IssueError> {
        self.perturbed = *self.data.block(addr);
        let Some(fault) = self.fault.as_mut() else {
            return Ok(data_ready);
        };
        let dark = fault.rank_dark(rank, at);
        let disturbance = fault.on_read_burst(&mut self.perturbed, rank, at);
        let data_ready = data_ready
            .checked_add(disturbance.extra_delay)
            .unwrap_or(Tick::MAX);
        if disturbance.extra_delay > Tick::ZERO {
            self.tracer.emit(
                at,
                EventKind::FaultInjected {
                    kind: if dark { "outage" } else { "stall" },
                },
            );
        }
        if disturbance.uncorrectable {
            self.tracer.emit(
                at,
                EventKind::FaultInjected {
                    kind: "uncorrectable",
                },
            );
            return Err(IssueError::Uncorrectable);
        }
        Ok(data_ready)
    }

    /// Applies a WRITE CAS at `at`, like [`Self::apply_read`]; `payload`
    /// of `None` is a timing-only write. Returns when the burst's data
    /// has landed.
    #[inline]
    fn apply_write(
        &mut self,
        idx: usize,
        rank: u32,
        addr: PhysAddr,
        requester: Requester,
        at: Tick,
        payload: Option<&[u8; 64]>,
    ) -> Tick {
        let t = &self.timing;
        let data_end = self.banks[idx].apply_write(at, t);
        let rs = &mut self.ranks[rank as usize];
        rs.wtr_until = rs.wtr_until.max(data_end + t.t_wtr);
        *self.bus_slot_mut(requester, rank) = Some(BusOp {
            is_write: true,
            rank,
            end: data_end,
        });
        if let Some(payload) = payload {
            self.data.write_burst(addr, payload);
        }
        self.stats.write_bursts.inc();
        data_end
    }

    /// Applies `cmd` at `at`, which the caller has checked: ownership, bank
    /// state and `at` ≥ the command's earliest legal tick. [`Self::issue`]
    /// checks and then applies; a transaction that schedules each command
    /// at the earliest tick it just computed applies it directly, so no
    /// check runs twice.
    fn apply(
        &mut self,
        cmd: DramCommand,
        requester: Requester,
        at: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<Option<ReadResult>, IssueError> {
        self.trace_cmd(at, cmd, requester);
        let t = &self.timing;
        match cmd {
            DramCommand::Activate { rank, bank, row } => {
                let idx = self.bank_index(rank, bank);
                self.activate_bank(idx, rank, row, at);
                Ok(None)
            }
            DramCommand::Read { rank, bank, block } => {
                let idx = self.bank_index(rank, bank);
                let addr = self.open_block_addr(idx, rank, bank, block);
                // A bare READ: the bank checks the CAS against its state.
                let (bus_start, data_ready) = self.banks[idx].read(at, t);
                let data_ready = self.finish_read(rank, addr, requester, at, data_ready)?;
                Ok(Some(ReadResult {
                    data: *self.read_line(addr),
                    bus_start,
                    data_ready,
                }))
            }
            DramCommand::Write { rank, bank, block } => {
                let idx = self.bank_index(rank, bank);
                let addr = self.open_block_addr(idx, rank, bank, block);
                self.apply_write(idx, rank, addr, requester, at, write_data);
                Ok(None)
            }
            DramCommand::Precharge { rank, bank } => {
                let idx = self.bank_index(rank, bank);
                self.banks[idx].close(at, t);
                Ok(None)
            }
            DramCommand::PrechargeAll { rank } => {
                for bank in 0..self.geometry.banks_per_rank {
                    let idx = self.bank_index(rank, bank);
                    self.banks[idx].close(at, t);
                }
                Ok(None)
            }
            DramCommand::Refresh { rank } => {
                let until = at + t.t_rfc;
                for bank in 0..self.geometry.banks_per_rank {
                    let idx = self.bank_index(rank, bank);
                    self.banks[idx].block_until(until);
                }
                let rs = &mut self.ranks[rank as usize];
                rs.next_refresh = (rs.next_refresh + t.t_refi).max(at);
                self.stats.refreshes.inc();
                Ok(None)
            }
            DramCommand::ModeRegisterSet { rank, mr, value } => {
                if let Some(fault) = self.fault.as_mut() {
                    let dark = fault.rank_dark(rank, at);
                    if fault.on_mode_register_set(rank, at) {
                        // Transient glitch (or a dark rank): the rank
                        // ignored the command. No state changed; the
                        // caller may retry.
                        self.tracer.emit(
                            at,
                            EventKind::FaultInjected {
                                kind: if dark { "outage" } else { "mrs-glitch" },
                            },
                        );
                        return Err(IssueError::MrsGlitch);
                    }
                }
                let until = at + t.t_mod;
                for bank in 0..self.geometry.banks_per_rank {
                    let idx = self.bank_index(rank, bank);
                    self.banks[idx].block_until(until);
                }
                let was_ndp = self.rank_owned_by_ndp(rank);
                self.ranks[rank as usize].mode.set(mr, value);
                self.stats.mode_sets.inc();
                let now_ndp = self.rank_owned_by_ndp(rank);
                if now_ndp != was_ndp {
                    self.tracer.emit(
                        until,
                        EventKind::OwnershipChange {
                            rank,
                            to_ndp: now_ndp,
                        },
                    );
                }
                Ok(None)
            }
        }
    }

    /// Closes any open rows on `rank` (precharge-all) and applies an
    /// injected refresh storm of `n` back-to-back refreshes starting at
    /// `cursor`. Returns the tick at which the rank is available again.
    ///
    /// # Errors
    /// Propagates [`IssueError`] from the quiescing precharge (e.g. an
    /// ownership rejection).
    fn apply_refresh_storm(
        &mut self,
        rank: u32,
        requester: Requester,
        mut cursor: Tick,
        n: u32,
    ) -> Result<Tick, IssueError> {
        let needs_close = (0..self.geometry.banks_per_rank).any(|b| {
            matches!(
                self.banks[self.bank_index(rank, b)].state(),
                BankState::Active { .. }
            )
        });
        if needs_close {
            let pre = DramCommand::PrechargeAll { rank };
            let at = self.earliest_legal(pre, requester, cursor)?;
            self.apply(pre, requester, at, None)?;
            cursor = at;
        }
        let until = cursor + self.timing.t_rfc * n as u64;
        for bank in 0..self.geometry.banks_per_rank {
            let idx = self.bank_index(rank, bank);
            self.banks[idx].block_until(until);
        }
        self.stats.refreshes.add(n as u64);
        if self.timing.refresh_enabled {
            // The storm's refreshes count toward the schedule: the rank
            // was just fully refreshed, so the next regular refresh is due
            // one tREFI after the storm drains. Without this, a retry at
            // `until` would find the same refresh still due and livelock.
            let rs = &mut self.ranks[rank as usize];
            rs.next_refresh = rs.next_refresh.max(until + self.timing.t_refi);
        }
        self.tracer.emit(
            cursor,
            EventKind::FaultInjected {
                kind: "refresh-storm",
            },
        );
        Ok(until)
    }

    /// Performs any overdue refreshes on `rank`, closing open rows as
    /// needed. Returns the tick at which the rank is available again (≥
    /// `now`). Idempotent when no refresh is due.
    ///
    /// # Errors
    /// Returns [`IssueError::TooEarly`] when an injected refresh storm
    /// preempts a *due* scheduled refresh: the storm seizes the rank for
    /// `n × tRFC` and the caller's transaction cannot proceed this attempt.
    /// The storm is consumed here, so retrying at the returned tick
    /// succeeds. Other scheduling failures (e.g. ownership rejections) are
    /// propagated instead of panicking.
    pub fn maintain_refresh(
        &mut self,
        rank: u32,
        now: Tick,
        requester: Requester,
    ) -> Result<Tick, IssueError> {
        let mut cursor = now;
        while self.refresh_due(rank, cursor) {
            // An injected refresh storm colliding with a due scheduled
            // refresh preempts it: surface a recoverable error instead of
            // silently stretching the transaction.
            if let Some(n) = self.fault.as_mut().and_then(|f| f.refresh_storm(rank)) {
                let until = self.apply_refresh_storm(rank, requester, cursor, n)?;
                self.tracer.emit(
                    cursor,
                    EventKind::ErrorSurfaced {
                        site: "refresh",
                        detail: "storm-preempted",
                    },
                );
                return Err(IssueError::TooEarly(until));
            }
            // Quiesce: close all open rows first.
            let needs_close = (0..self.geometry.banks_per_rank).any(|b| {
                matches!(
                    self.banks[self.bank_index(rank, b)].state(),
                    BankState::Active { .. }
                )
            });
            if needs_close {
                let pre = DramCommand::PrechargeAll { rank };
                let at = self.earliest_legal(pre, requester, cursor)?;
                self.apply(pre, requester, at, None)?;
                cursor = at;
            }
            let at = match self.earliest_legal(DramCommand::Refresh { rank }, requester, cursor) {
                Ok(at) => at,
                Err(e) => {
                    self.tracer.emit(
                        cursor,
                        EventKind::ErrorSurfaced {
                            site: "refresh",
                            detail: "schedule-failed",
                        },
                    );
                    return Err(e);
                }
            };
            self.apply(DramCommand::Refresh { rank }, requester, at, None)?;
            cursor = at + self.timing.t_rfc;
        }
        Ok(cursor)
    }

    /// Serves one 64-byte block access as an atomic transaction under an
    /// open-page policy: precharge/activate as needed, then CAS — each step
    /// at its earliest legal tick ≥ `now`. This is the transaction-level
    /// interface the memory controller and the JAFAR device both use.
    /// A read lends its burst until the module's next command (see
    /// [`BlockAccess`]).
    ///
    /// For writes, `write_data` of `None` performs a timing-only write (see
    /// [`DramModule::issue`]).
    ///
    /// # Errors
    /// Propagates ownership errors.
    ///
    /// # Panics
    /// Panics if `write_data` is supplied for a read.
    pub fn serve_block(
        &mut self,
        coord: Coord,
        is_write: bool,
        requester: Requester,
        now: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<BlockAccess<'_>, IssueError> {
        let addr = self.decoder.encode(coord);
        self.serve(coord, addr, is_write, requester, now, write_data)
    }

    /// Serves the block holding `addr`, as [`Self::serve_block`] serves its
    /// decoded coordinate. A read is what [`Self::serve_run`] serves with a
    /// `max` of one.
    ///
    /// # Errors
    /// Propagates ownership errors.
    ///
    /// # Panics
    /// Panics if `write_data` is supplied for a read.
    #[inline]
    pub fn serve_addr(
        &mut self,
        addr: PhysAddr,
        is_write: bool,
        requester: Requester,
        now: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<BlockAccess<'_>, IssueError> {
        let addr = addr.block_base();
        let coord = self.decoder.decode(addr);
        self.serve(coord, addr, is_write, requester, now, write_data)
    }

    /// The transaction behind [`Self::serve_block`] and
    /// [`Self::serve_addr`]; `addr` is `coord`'s block address, which the
    /// entry point already holds, so no step re-encodes it.
    #[inline(always)]
    fn serve(
        &mut self,
        coord: Coord,
        addr: PhysAddr,
        is_write: bool,
        requester: Requester,
        now: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<BlockAccess<'_>, IssueError> {
        assert!(
            write_data.is_none() || is_write,
            "payload supplied for a read"
        );
        let Coord {
            rank, bank, row, ..
        } = coord;
        // The transaction's one ownership check, before mutating anything.
        self.check_data_ownership(rank, requester)
            .inspect_err(|e| {
                if matches!(e, IssueError::RankOwnedByNdp) {
                    self.stats.ownership_rejections.inc();
                }
            })?;

        let idx = self.bank_index(rank, bank);
        // A row hit with nothing to prepare goes straight to its CAS: no
        // refresh is due, no injector is installed to draw a storm, no
        // tracer records the row access, and the bank holds the row. In
        // that case `prepare_row` would change nothing but the tick it
        // returns, which is `now`. Every other case readies the row out
        // of line, where a plain row switch goes straight to its PRE and
        // ACT and the rest runs `prepare_row`.
        let (outcome, cursor) = if !self.refresh_due(rank, now)
            && self.fault.is_none()
            && !self.tracer.is_enabled()
            && self.banks[idx].open_row() == Some(row)
        {
            (RowOutcome::Hit, now)
        } else {
            self.ready_row(coord, idx, requester, now)?
        };
        match outcome {
            RowOutcome::Hit => self.stats.row_hits.inc(),
            RowOutcome::Miss => self.stats.row_misses.inc(),
            RowOutcome::Conflict => self.stats.row_conflicts.inc(),
        }

        if is_write {
            let at = self.earliest_write(idx, rank, requester, cursor);
            self.trace_cmd(at, DramCommand::write(coord), requester);
            let data_end = self.apply_write(idx, rank, addr, requester, at, write_data);
            Ok(BlockAccess {
                outcome,
                data_ready: data_end,
                data: None,
            })
        } else {
            let at = self.earliest_read(idx, rank, requester, cursor);
            self.trace_cmd(at, DramCommand::read(coord), requester);
            let t = &self.timing;
            self.banks[idx].apply_reads(at, 1, t);
            // The only fallible outcome of a read scheduled at its earliest
            // legal tick is an injected ECC failure.
            let data_ready = self.finish_read(rank, addr, requester, at, at + t.cl + t.t_burst)?;
            Ok(BlockAccess {
                outcome,
                data_ready,
                data: Some(self.read_line(addr)),
            })
        }
    }

    /// Serves up to `max` reads of consecutive blocks from the one holding
    /// `addr` (at least one, whatever `max`), as a streaming reader issues
    /// them: the first at `now`, each next one requested one bus cycle
    /// after the previous one's CAS. Burst `i` completes at
    /// `first_ready + i·step` (see [`ReadRun`]). The module's ticks,
    /// counters and bytes are those of as many [`Self::serve_addr`] calls
    /// at those request ticks.
    ///
    /// The first read is the full transaction ([`Self::serve_block`]). The
    /// others are row hits whose CAS follows the previous one by the
    /// larger of tCCD, tBURST and one bus cycle, so they skip it; their
    /// reservations and counters are applied once, as the last one leaves
    /// them. They are served only when no tracer records commands, no
    /// injector disturbs bursts and the mapping keeps the row's blocks at
    /// consecutive addresses; otherwise the run is one burst, so a tracer
    /// sees and an injector draws burst by burst. A run stops at the first
    /// of `max`, the row's end, the end of the functional store's 4 KiB
    /// page and the first read requested at or after the rank's refresh
    /// deadline.
    ///
    /// # Errors
    /// Propagates the first read's errors; the other reads cannot fail.
    pub fn serve_run(
        &mut self,
        addr: PhysAddr,
        max: usize,
        requester: Requester,
        now: Tick,
    ) -> Result<ReadRun<'_>, IssueError> {
        let addr = addr.block_base();
        let coord = self.decoder.decode(addr);
        let BlockAccess {
            outcome,
            data_ready: first_ready,
            ..
        } = self.serve(coord, addr, false, requester, now, None)?;
        let t = &self.timing;
        let pipeline = t.cl + t.t_burst;
        let cycle = t.bus_clock.period();
        // The first burst completes CL + tBURST after its CAS, unless an
        // injector delayed it, and then the run is that one burst.
        let first_cas = first_ready - pipeline;
        // After a read of the open row, the next one waits tCCD for the
        // bank and tBURST for the rank's own burst on the bus; tWTR and
        // every other rank or bus constraint lie behind the first CAS.
        let step = t.t_ccd.max(t.t_burst).max(cycle);
        let n = self.run_length(addr, coord.rank, max, first_cas, step);
        if n > 1 {
            let last_cas = first_cas + step * (n - 1);
            let idx = self.bank_index(coord.rank, coord.bank);
            // Every reservation is a max with a tick that grows with the
            // CAS, so the run's last read leaves what all of them leave.
            // The bus slot holds the run's first read; only its end moves.
            self.banks[idx].apply_reads(last_cas, n - 1, &self.timing);
            if let Some(op) = self.bus_slot_mut(requester, coord.rank) {
                op.end = last_cas + pipeline;
            }
            self.stats.read_bursts.add(n - 1);
            self.stats.row_hits.add(n - 1);
        }
        let last_ready = first_ready + step * (n - 1);
        Ok(ReadRun {
            outcome,
            first_ready,
            step,
            next_request: last_ready.saturating_sub(pipeline).max(now) + cycle,
            lines: match self.fault {
                None => self.data.lines(addr, n as usize),
                // An injected run is one burst: the copy the injector saw.
                Some(_) => std::slice::from_ref(&self.perturbed),
            },
        })
    }

    /// How many reads a run from `addr`, whose first CAS on `rank` went
    /// out at `first_cas`, serves: at most `max`, one when a tracer or an
    /// injector is attached or the mapping scatters the row's blocks, and
    /// never past the row's end, the functional store's page end or the
    /// last read requested before the rank's refresh deadline.
    fn run_length(
        &self,
        addr: PhysAddr,
        rank: u32,
        max: usize,
        first_cas: Tick,
        step: Tick,
    ) -> u64 {
        if max <= 1 || self.fault.is_some() || self.tracer.is_enabled() {
            return 1;
        }
        let Some(row_end) = self.decoder.row_end(addr) else {
            return 1;
        };
        let n = (max as u64)
            .min((row_end - addr.0) / 64)
            .min((PAGE_SIZE as u64 - addr.0 % PAGE_SIZE as u64) / 64);
        if n <= 1 {
            return n;
        }
        // Read i ≥ 1 is requested at first_cas + (i-1)·step + one bus
        // cycle, which must come before the deadline. Most runs end
        // before it, so only a run that reaches it divides.
        let deadline = self.refresh_deadline(rank);
        let second = first_cas + self.timing.bus_clock.period();
        if second + step * (n - 2) < deadline {
            n
        } else if deadline <= second {
            1
        } else {
            1 + (deadline - second).as_ps().div_ceil(step.as_ps())
        }
    }

    /// Readies `coord`'s row in bank `idx` for a CAS at or after `now`,
    /// for a transaction that missed the row-hit guard in [`Self::serve`].
    /// A plain one (no refresh due, no injector, no tracer) has only its
    /// row to switch, and switches it here; any other runs
    /// [`Self::prepare_row`]. Returns the row-buffer outcome and the tick
    /// from which the CAS may issue.
    #[cold]
    fn ready_row(
        &mut self,
        coord: Coord,
        idx: usize,
        requester: Requester,
        now: Tick,
    ) -> Result<(RowOutcome, Tick), IssueError> {
        if self.refresh_due(coord.rank, now) || self.fault.is_some() || self.tracer.is_enabled() {
            return self.prepare_row(coord, idx, requester, now);
        }
        let outcome = match self.banks[idx].open_row() {
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        };
        Ok((
            outcome,
            self.switch_row(coord, idx, requester, outcome, now),
        ))
    }

    /// Readies `coord`'s row in bank `idx` for a CAS at or after `now`:
    /// catches up on overdue refresh, lets an installed injector preempt
    /// the transaction with a refresh storm, records the row access, and
    /// precharges and activates as the bank's state requires. Returns the
    /// row-buffer outcome and the tick from which the CAS may issue.
    #[inline(never)]
    fn prepare_row(
        &mut self,
        coord: Coord,
        idx: usize,
        requester: Requester,
        now: Tick,
    ) -> Result<(RowOutcome, Tick), IssueError> {
        let Coord { rank, bank, .. } = coord;
        let mut cursor = if self.refresh_due(rank, now) {
            self.maintain_refresh(rank, now, requester)?
        } else {
            now
        };

        // Injected refresh storm: the rank is preempted by back-to-back
        // refreshes before this transaction proceeds (independent of the
        // regular tREFI schedule, which may be disabled). Like regular
        // refresh, the storm quiesces the rank — open rows close first.
        if let Some(n) = self.fault.as_mut().and_then(|f| f.refresh_storm(rank)) {
            cursor = self.apply_refresh_storm(rank, requester, cursor, n)?;
        }

        let outcome = match self.banks[idx].state() {
            BankState::Active { row } if row == coord.row => RowOutcome::Hit,
            BankState::Idle => RowOutcome::Miss,
            BankState::Active { .. } => RowOutcome::Conflict,
        };
        self.tracer.emit(
            cursor,
            EventKind::RowAccess {
                outcome: match outcome {
                    RowOutcome::Hit => "hit",
                    RowOutcome::Miss => "miss",
                    RowOutcome::Conflict => "conflict",
                },
                rank,
                bank,
            },
        );
        if outcome != RowOutcome::Hit {
            cursor = self.switch_row(coord, idx, requester, outcome, cursor);
        }
        Ok((outcome, cursor))
    }

    /// Opens `coord`'s row in bank `idx` for a transaction whose row
    /// outcome is `outcome`, a conflict or a miss: on a conflict, PRE at
    /// the bank's earliest precharge tick ≥ `now`; then ACT at the
    /// earliest tick ≥ that the bank and rank allow. Each command is
    /// traced and applied at the tick just computed for it; ownership was
    /// checked once, for the whole transaction. Returns the ACT's tick,
    /// from which the CAS may issue.
    #[inline]
    fn switch_row(
        &mut self,
        coord: Coord,
        idx: usize,
        requester: Requester,
        outcome: RowOutcome,
        mut now: Tick,
    ) -> Tick {
        if outcome == RowOutcome::Conflict {
            now = self.banks[idx].earliest_precharge(now);
            self.trace_cmd(now, DramCommand::precharge(coord), requester);
            self.banks[idx].close(now, &self.timing);
        }
        let at = self.earliest_activate(idx, coord.rank, now);
        self.trace_cmd(at, DramCommand::activate(coord), requester);
        self.activate_bank(idx, coord.rank, coord.row, at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::MR3_MPR_ENABLE;
    use jafar_common::rng::SplitMix64;

    fn module() -> DramModule {
        DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RowBankRankBlock,
        )
    }

    fn coord(rank: u32, bank: u32, row: u32, block: u32) -> Coord {
        Coord {
            rank,
            bank,
            row,
            block,
        }
    }

    #[test]
    fn closed_row_read_end_to_end_latency() {
        let mut m = module();
        let c = coord(0, 0, 0, 0);
        let access = m
            .serve_block(c, false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        assert_eq!(access.outcome, RowOutcome::Miss);
        // ACT@0 → RD@tRCD → data done @ tRCD + CL + tBURST = 13+13+4 = 30 ns.
        assert_eq!(access.data_ready, Tick::from_ns(30));
    }

    #[test]
    fn row_hit_stream_saturates_bus() {
        let mut m = module();
        let mut now = Tick::ZERO;
        let mut ready = Vec::new();
        for block in 0..8 {
            let a = m
                .serve_block(coord(0, 0, 0, block), false, Requester::Host, now, None)
                .unwrap()
                .data_ready;
            now = a.saturating_sub(m.timing().cl + m.timing().t_burst);
            ready.push(a);
        }
        // After the first access, every subsequent burst completes exactly
        // tCCD (= tBURST = 4 ns) after the previous: streaming at full
        // bandwidth, the §2.2 regime where JAFAR sees one burst per 4 ns.
        for pair in ready.windows(2) {
            assert_eq!(pair[1] - pair[0], Tick::from_ns(4), "ready={ready:?}");
        }
        assert_eq!(m.stats().row_hits.get(), 7);
        assert_eq!(m.stats().row_misses.get(), 1);
    }

    #[test]
    fn row_conflict_costs_precharge_plus_activate() {
        let mut m = module();
        let a0 = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap()
            .data_ready;
        let a1 = m
            .serve_block(coord(0, 0, 1, 0), false, Requester::Host, a0, None)
            .unwrap();
        assert_eq!(a1.outcome, RowOutcome::Conflict);
        // Conflict path: wait for tRAS (35ns from ACT@0), PRE, +tRP, ACT,
        // +tRCD, RD, +CL+tBURST → 35+13+13+13+4 = 78 ns.
        assert_eq!(a1.data_ready, Tick::from_ns(78));
        assert_eq!(m.stats().row_conflicts.get(), 1);
    }

    #[test]
    fn banks_overlap_but_bus_serialises() {
        let mut m = module();
        // Same rank, different banks, issued "simultaneously".
        let a = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap()
            .data_ready;
        let b = m
            .serve_block(coord(0, 1, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap()
            .data_ready;
        // Bank 1's ACT can overlap bank 0's, but its data burst must queue
        // behind bank 0's on the shared bus: at least tBURST later.
        assert!(b >= a + m.timing().t_burst);
        // And much sooner than a serial closed-row access pair (60 ns).
        assert!(b < Tick::from_ns(60));
    }

    #[test]
    fn ndp_streams_use_per_rank_io_not_the_channel_bus() {
        use crate::mode::MR3_MPR_ENABLE;
        let mut m = module();
        // Hand both ranks to NDP devices.
        for rank in 0..2 {
            let mrs = DramCommand::ModeRegisterSet {
                rank,
                mr: 3,
                value: MR3_MPR_ENABLE,
            };
            let at = m.earliest_issue(mrs, Requester::Host, Tick::ZERO).unwrap();
            m.issue(mrs, Requester::Host, at, None).unwrap();
        }
        // A burst on rank 0's local IO path must not delay a simultaneous
        // burst on rank 1's: both devices see identical first-access
        // latency, where the old shared bus would queue the second burst.
        let a = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Ndp, Tick::ZERO, None)
            .unwrap()
            .data_ready;
        let b = m
            .serve_block(coord(1, 0, 0, 0), false, Requester::Ndp, Tick::ZERO, None)
            .unwrap()
            .data_ready;
        assert_eq!(a, b, "rank-local IO paths overlap");
        // Host traffic on an unowned rank? Both ranks are owned here, so
        // release rank 1 and check the channel bus ignores NDP activity.
        let quiet = Tick::from_us(1);
        let pre = DramCommand::PrechargeAll { rank: 1 };
        let at = m.earliest_issue(pre, Requester::Host, quiet).unwrap();
        m.issue(pre, Requester::Host, at, None).unwrap();
        let mrs = DramCommand::ModeRegisterSet {
            rank: 1,
            mr: 3,
            value: 0,
        };
        let at = m.earliest_issue(mrs, Requester::Host, at).unwrap();
        m.issue(mrs, Requester::Host, at, None).unwrap();
        let host_t0 = at + m.timing().t_mod;
        let ndp = m
            .serve_block(coord(0, 0, 0, 1), false, Requester::Ndp, host_t0, None)
            .unwrap()
            .data_ready;
        let host = m
            .serve_block(coord(1, 0, 0, 0), false, Requester::Host, host_t0, None)
            .unwrap()
            .data_ready;
        // The host's burst ends one row cycle after issue, unaffected by
        // the NDP burst occupying rank 0's IO path at the same instant.
        assert_eq!(host, host_t0 + Tick::from_ns(30));
        assert!(ndp <= host);
    }

    #[test]
    fn write_then_read_pays_wtr() {
        let mut m = module();
        let payload = [7u8; 64];
        let w = m
            .serve_block(
                coord(0, 0, 0, 0),
                true,
                Requester::Host,
                Tick::ZERO,
                Some(&payload),
            )
            .unwrap()
            .data_ready;
        let r = m
            .serve_block(coord(0, 0, 0, 1), false, Requester::Host, w, None)
            .unwrap()
            .data_ready;
        // Read CAS must wait tWTR after write data end; data returns CL later.
        assert!(r >= w + m.timing().t_wtr + m.timing().cl);
        // Functional: the write landed.
        assert_eq!(m.data().read_burst(PhysAddr(0)), payload);
    }

    #[test]
    fn functional_read_returns_stored_bytes() {
        let mut m = module();
        let mut want = [0u8; 64];
        for (i, b) in want.iter_mut().enumerate() {
            *b = (i * 3) as u8;
        }
        // Block 5 of rank 0, bank 0, row 0 under RowBankRankBlock mapping is
        // plain address 5*64.
        m.data_mut().write_burst(PhysAddr(5 * 64), &want);
        let a = m
            .serve_block(coord(0, 0, 0, 5), false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        assert_eq!(*a.data.unwrap(), want);
    }

    #[test]
    fn ownership_blocks_host_data_commands() {
        let mut m = module();
        // Grant rank 0 to the NDP device via MRS (rank must be quiesced —
        // it is, freshly powered on).
        let at = m
            .earliest_issue(
                DramCommand::ModeRegisterSet {
                    rank: 0,
                    mr: 3,
                    value: MR3_MPR_ENABLE,
                },
                Requester::Host,
                Tick::ZERO,
            )
            .unwrap();
        m.issue(
            DramCommand::ModeRegisterSet {
                rank: 0,
                mr: 3,
                value: MR3_MPR_ENABLE,
            },
            Requester::Host,
            at,
            None,
        )
        .unwrap();
        assert!(m.rank_owned_by_ndp(0));

        let t = Tick::from_ns(100);
        // Host reads on rank 0 rejected; NDP reads accepted.
        let host = m.serve_block(coord(0, 0, 0, 0), false, Requester::Host, t, None);
        assert_eq!(host.unwrap_err(), IssueError::RankOwnedByNdp);
        assert_eq!(m.stats().ownership_rejections.get(), 1);
        let ndp = m.serve_block(coord(0, 0, 0, 0), false, Requester::Ndp, t, None);
        assert!(ndp.is_ok());
        // Rank 1 is unaffected: host proceeds, NDP is rejected.
        assert!(m
            .serve_block(coord(1, 0, 0, 0), false, Requester::Host, t, None)
            .is_ok());
        assert_eq!(
            m.serve_block(coord(1, 0, 0, 0), false, Requester::Ndp, t, None)
                .unwrap_err(),
            IssueError::NdpWithoutOwnership
        );
    }

    #[test]
    fn ndp_needs_ownership_for_data_commands() {
        let mut m = module();
        let err = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Ndp, Tick::ZERO, None)
            .unwrap_err();
        assert_eq!(err, IssueError::NdpWithoutOwnership);
    }

    #[test]
    fn mrs_requires_quiesced_rank() {
        let mut m = module();
        m.serve_block(coord(0, 0, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        // Row open in bank 0 → MRS rejected.
        let e = m.earliest_issue(
            DramCommand::ModeRegisterSet {
                rank: 0,
                mr: 3,
                value: MR3_MPR_ENABLE,
            },
            Requester::Host,
            Tick::from_us(1),
        );
        assert_eq!(e.unwrap_err(), IssueError::RanksNotQuiesced);
    }

    #[test]
    fn too_early_issue_reports_earliest() {
        let mut m = module();
        let act = DramCommand::Activate {
            rank: 0,
            bank: 0,
            row: 0,
        };
        m.issue(act, Requester::Host, Tick::ZERO, None).unwrap();
        // Read before tRCD.
        let rd = DramCommand::Read {
            rank: 0,
            bank: 0,
            block: 0,
        };
        let err = m
            .issue(rd, Requester::Host, Tick::from_ns(5), None)
            .unwrap_err();
        assert_eq!(err, IssueError::TooEarly(Tick::from_ns(13)));
    }

    #[test]
    fn refresh_maintenance_fires_on_schedule() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper(),
            AddressMapping::RowBankRankBlock,
        );
        assert!(!m.refresh_due(0, Tick::ZERO));
        let deadline = m.refresh_deadline(0);
        assert_eq!(deadline, Tick::from_ns(7_800));
        // Open a row, then run maintenance past the deadline: the row is
        // closed, the refresh applied, and the deadline advances.
        m.serve_block(coord(0, 0, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        let after = m
            .maintain_refresh(0, Tick::from_us(8), Requester::Host)
            .unwrap();
        assert!(after >= Tick::from_us(8) + m.timing().t_rfc);
        assert_eq!(m.stats().refreshes.get(), 1);
        assert!(m.refresh_deadline(0) > deadline);
        // Subsequent access pays the refresh shadow.
        let a = m
            .serve_block(
                coord(0, 0, 0, 1),
                false,
                Requester::Host,
                Tick::from_us(8),
                None,
            )
            .unwrap();
        assert!(a.data_ready >= after);
    }

    #[test]
    fn refresh_storm_preempts_due_refresh_as_recoverable_error() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper(),
            AddressMapping::RowBankRankBlock,
        );
        m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
            storm_p: 1.0,
            storm_refreshes: 4,
            ..FaultPlan::none(7)
        })));
        let (tracer, ring) = jafar_common::obs::SharedTracer::ring(64);
        m.set_tracer(tracer);
        // Far past the first deadline: refresh is due, and the injected
        // storm preempts it. The error is recoverable — the returned tick
        // says when to retry, and the retry succeeds because the storm was
        // consumed (and its refreshes advanced the schedule).
        let now = Tick::from_us(40);
        let err = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Host, now, None)
            .unwrap_err();
        let until = match err {
            IssueError::TooEarly(t) => t,
            other => panic!("expected TooEarly, got {other:?}"),
        };
        assert!(until >= now + m.timing().t_rfc * 4);
        assert_eq!(m.stats().refreshes.get(), 4);
        // The retry rolls a fresh storm (p = 1.0), but refresh is no longer
        // due, so it takes the non-colliding serve_block storm path and the
        // access completes.
        let a = m
            .serve_block(coord(0, 0, 0, 0), false, Requester::Host, until, None)
            .unwrap();
        assert!(a.data_ready > until);
        let ring = ring.borrow();
        let kinds: Vec<&str> = ring.events().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"fault"), "kinds={kinds:?}");
        assert!(kinds.contains(&"error"), "kinds={kinds:?}");
        assert!(kinds.contains(&"row-access"), "kinds={kinds:?}");
    }

    #[test]
    fn tracer_records_commands_without_changing_timing() {
        let mut traced = module();
        let (tracer, ring) = jafar_common::obs::SharedTracer::ring(1024);
        traced.set_tracer(tracer);
        let mut plain = module();
        for block in 0..4 {
            let a = traced
                .serve_block(
                    coord(0, 0, 0, block),
                    false,
                    Requester::Host,
                    Tick::ZERO,
                    None,
                )
                .unwrap();
            let b = plain
                .serve_block(
                    coord(0, 0, 0, block),
                    false,
                    Requester::Host,
                    Tick::ZERO,
                    None,
                )
                .unwrap();
            assert_eq!(a.data_ready, b.data_ready);
            assert_eq!(a.outcome, b.outcome);
        }
        let ring = ring.borrow();
        assert!(!ring.is_empty());
        // ACT + 4 RDs on the command stream, plus 4 row-access events.
        let cmds = ring
            .events()
            .filter(|e| e.kind.name() == "dram-cmd")
            .count();
        assert_eq!(cmds, 5);
    }

    #[test]
    fn refresh_happens_inside_serve_block() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper(),
            AddressMapping::RowBankRankBlock,
        );
        // Jump far past several deadlines; serve_block must catch up.
        m.serve_block(
            coord(0, 0, 0, 0),
            false,
            Requester::Host,
            Tick::from_us(40),
            None,
        )
        .unwrap();
        assert!(m.stats().refreshes.get() >= 1);
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        let mut m = module();
        let t = *m.timing();
        // Issue 4 activates to different banks as fast as tRRD allows.
        let mut at = Tick::ZERO;
        let mut times = Vec::new();
        for bank in 0..4 {
            let cmd = DramCommand::Activate {
                rank: 0,
                bank,
                row: 0,
            };
            at = m.earliest_issue(cmd, Requester::Host, at).unwrap();
            m.issue(cmd, Requester::Host, at, None).unwrap();
            times.push(at);
        }
        // All four went at tRRD spacing (tiny geometry has 4 banks/rank —
        // reuse rank 1 bank 0 for the fifth activate? No: tFAW is per rank).
        assert_eq!(times[3] - times[0], t.t_rrd * 3);
        // Fifth activate to the same rank must respect tFAW from the first.
        // (All 4 banks are active; precharge bank 0 first.)
        let pre_at = m
            .earliest_issue(
                DramCommand::Precharge { rank: 0, bank: 0 },
                Requester::Host,
                at,
            )
            .unwrap();
        m.issue(
            DramCommand::Precharge { rank: 0, bank: 0 },
            Requester::Host,
            pre_at,
            None,
        )
        .unwrap();
        let fifth = m
            .earliest_issue(
                DramCommand::Activate {
                    rank: 0,
                    bank: 0,
                    row: 1,
                },
                Requester::Host,
                pre_at,
            )
            .unwrap();
        assert!(
            fifth >= times[0] + t.t_faw,
            "fifth={fifth} first={} tFAW={}",
            times[0],
            t.t_faw
        );
    }

    /// What a test compares between twin modules after every call: the
    /// counters, the injector's counters, every bank's state and timing
    /// reservations, and the earliest tick at which a READ, WRITE,
    /// PRECHARGE or ACTIVATE could issue on each bank at `now` for either
    /// requester, which reads the rank's tRRD, tFAW and tWTR state and
    /// both data buses.
    fn snapshot(m: &DramModule, now: Tick) -> String {
        let g = m.geometry();
        let mut out = format!("{:?} {:?}", m.stats(), m.fault_stats());
        for rank in 0..g.ranks {
            for bank in 0..g.banks_per_rank {
                out += &format!(" {:?}", m.bank(rank, bank));
                for requester in [Requester::Host, Requester::Ndp] {
                    for cmd in [
                        DramCommand::Read {
                            rank,
                            bank,
                            block: 0,
                        },
                        DramCommand::Write {
                            rank,
                            bank,
                            block: 0,
                        },
                        DramCommand::Precharge { rank, bank },
                        DramCommand::Activate { rank, bank, row: 0 },
                    ] {
                        out += &format!(" {:?}", m.earliest_issue(cmd, requester, now));
                    }
                }
            }
        }
        out
    }

    /// The rank owner reads `addr` nine times in ten; otherwise the other
    /// requester tries and is refused.
    fn reader(m: &DramModule, addr: PhysAddr, rng: &mut SplitMix64) -> Requester {
        let rank = m.decoder().decode(addr.block_base()).rank;
        if m.rank_owned_by_ndp(rank) == rng.next_bool(0.9) {
            Requester::Ndp
        } else {
            Requester::Host
        }
    }

    const REF: usize = 0;
    const RUN: usize = 1;
    const ADDR: usize = 2;
    const BLOCK: usize = 3;
    const TRACED_RUN: usize = 4;

    /// A burst's outcome, completion and bytes, owned.
    fn owned(a: BlockAccess) -> (RowOutcome, Tick, Option<[u8; 64]>) {
        (a.outcome, a.data_ready, a.data.copied())
    }

    /// The row outcome of an access to `c` on `m`, judged from the bank's
    /// row before the access (`held`) and not by the module: a refresh
    /// during the access (`refreshes` is the counter before it) closes
    /// the rank, so the access misses; otherwise it hits the held row, or
    /// conflicts with another, or misses an idle bank.
    fn outcome_from(m: &DramModule, c: Coord, held: Option<u32>, refreshes: u64) -> RowOutcome {
        match held {
            _ if m.stats().refreshes.get() > refreshes => RowOutcome::Miss,
            Some(row) if row == c.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Reads up to `max` consecutive blocks from `addr` on every twin, as
    /// a streaming reader requests them from `now`: one `serve_run` on
    /// the run twin, and a burst at a time on the others, each burst
    /// checked against the reference's. Returns how many blocks the run
    /// read and the tick of the reader's next request.
    fn read_twins(
        m: &mut [DramModule; 5],
        addr: PhysAddr,
        max: usize,
        requester: Requester,
        now: Tick,
        step: usize,
    ) -> (u64, Tick) {
        let t = *m[REF].timing();
        let pipeline = t.cl + t.t_burst;
        let cycle = t.bus_clock.period();
        let run = m[RUN].serve_run(addr, max, requester, now).map(|r| {
            let head = (r.outcome, r.first_ready, r.step);
            (head, r.next_request, r.lines.to_vec())
        });
        let n = run.as_ref().map_or(1, |r| r.2.len());
        assert!(n <= max);
        // The other twins read the run's blocks one by one, at the ticks
        // a streaming reader requests them.
        let mut request = now;
        for i in 0..n {
            let a = PhysAddr(addr.0 + 64 * i as u64);
            let coord = m[REF].decoder().decode(a);
            let held = m[REF].bank(coord.rank, coord.bank).open_row();
            let before = *m[REF].stats();
            let want = m[REF]
                .serve_addr(a, false, requester, request, None)
                .map(owned);
            let outcome = outcome_from(&m[REF], coord, held, before.refreshes.get());
            let from_run = run
                .as_ref()
                .map(|&((outcome, first_ready, step), _, ref lines)| {
                    let outcome = if i == 0 { outcome } else { RowOutcome::Hit };
                    (outcome, first_ready + step * i as u64, Some(lines[i]))
                })
                .map_err(|e| *e);
            assert_eq!(from_run, want, "step {step}, burst {i}: serve_run");
            let by_addr = m[ADDR]
                .serve_addr(a, false, requester, request, None)
                .map(owned);
            assert_eq!(by_addr, want, "step {step}, burst {i}: serve_addr");
            let by_block = m[BLOCK]
                .serve_block(coord, false, requester, request, None)
                .map(owned);
            assert_eq!(by_block, want, "step {step}, burst {i}: serve_block");
            let mut traced_next = None;
            let traced_run = m[TRACED_RUN]
                .serve_run(a, max - i, requester, request)
                .map(|r| {
                    assert_eq!(r.lines.len(), 1, "a traced run is one burst");
                    traced_next = Some(r.next_request);
                    (r.outcome, r.first_ready, Some(r.lines[0]))
                });
            assert_eq!(traced_run, want, "step {step}, burst {i}: traced serve_run");
            // The access's outcome, and only its counter, rose by one; a
            // failed ECC read was counted before its CAS, a rejected or
            // preempted access not at all.
            let after = m[REF].stats();
            let rose = [
                after.row_hits.get() - before.row_hits.get(),
                after.row_misses.get() - before.row_misses.get(),
                after.row_conflicts.get() - before.row_conflicts.get(),
            ];
            let mut counted = [0; 3];
            counted[outcome as usize] = 1;
            let ready = match want {
                Ok((got, ready, _)) => {
                    assert_eq!(got, outcome, "step {step}, burst {i}: outcome");
                    assert_eq!(rose, counted, "step {step}: {outcome:?} counted");
                    ready
                }
                Err(IssueError::Uncorrectable) => {
                    assert_eq!(rose, counted, "step {step}: {outcome:?} counted");
                    break;
                }
                Err(_) => {
                    assert_eq!(rose, [0; 3]);
                    break;
                }
            };
            if m[REF].fault.is_none() {
                // The bank reserved tCCD and tRTP after the CAS.
                let cas = ready - pipeline;
                let bank = m[REF].bank(coord.rank, coord.bank);
                assert!(bank.read_allowed() >= cas + t.t_ccd, "step {step}: tCCD");
                assert!(
                    bank.earliest_precharge(Tick::ZERO) >= cas + t.t_rtp,
                    "step {step}: tRTP"
                );
            }
            request = ready.saturating_sub(pipeline).max(request) + cycle;
            assert_eq!(traced_next, Some(request), "step {step}, burst {i}");
        }
        if let Ok((_, next_request, _)) = run {
            assert_eq!(next_request, request, "step {step}: next_request");
        }
        (n as u64, request)
    }

    /// Writes `payload` to `addr` on every twin at `now` (`serve_block`
    /// on the block twin, `serve_addr` on the others) and checks each
    /// against the reference.
    fn write_twins(
        m: &mut [DramModule; 5],
        addr: PhysAddr,
        requester: Requester,
        now: Tick,
        payload: &[u8; 64],
        step: usize,
    ) {
        let coord = m[REF].decoder().decode(addr.block_base());
        let held = m[REF].bank(coord.rank, coord.bank).open_row();
        let refreshes = m[REF].stats().refreshes.get();
        let want = m[REF]
            .serve_addr(addr, true, requester, now, Some(payload))
            .map(owned);
        if let Ok((got, ..)) = want {
            let outcome = outcome_from(&m[REF], coord, held, refreshes);
            assert_eq!(got, outcome, "step {step}: write outcome");
        }
        for (i, twin) in m.iter_mut().enumerate().skip(1) {
            let got = if i == BLOCK {
                let coord = twin.decoder().decode(addr);
                twin.serve_block(coord, true, requester, now, Some(payload))
            } else {
                twin.serve_addr(addr, true, requester, now, Some(payload))
            };
            assert_eq!(got.map(owned), want, "step {step}: twin {i} write");
        }
    }

    /// The row rules, kept from a traced module's command stream alone,
    /// so that the module's one PRE/ACT implementation is not its own
    /// judge: every ACT keeps tRP, tRC, tRRD and tFAW, every PRE keeps
    /// tRAS, tRTP and tWR, and every CAS keeps tRCD.
    struct RowRules {
        t: DramTiming,
        banks_per_rank: u32,
        /// Every ACT tick of each rank, in tick order.
        acts: Vec<Vec<Tick>>,
        /// Each bank's last ACT, PRE, READ CAS and write-data end.
        last: Vec<[Option<Tick>; 4]>,
    }

    impl RowRules {
        const ACT: usize = 0;
        const PRE: usize = 1;
        const RD: usize = 2;
        const WR_END: usize = 3;

        fn new(g: DramGeometry, t: DramTiming) -> Self {
            RowRules {
                t,
                banks_per_rank: g.banks_per_rank,
                acts: vec![Vec::new(); g.ranks as usize],
                last: vec![[None; 4]; g.total_banks() as usize],
            }
        }

        /// Checks the commands in `events` (one step's trace), in order.
        fn replay(&mut self, events: &[jafar_common::obs::Event], step: usize) {
            let t = self.t;
            for e in events {
                let EventKind::DramCmd {
                    cmd, rank, bank, ..
                } = e.kind
                else {
                    continue;
                };
                let at = e.at;
                let banks = match cmd {
                    "PREA" => 0..self.banks_per_rank,
                    _ => bank..bank + 1,
                };
                for bank in banks {
                    let last = &mut self.last[(rank * self.banks_per_rank + bank) as usize];
                    let after = |i: usize, gap: Tick, rule: &str| {
                        if let Some(prev) = last[i] {
                            assert!(at >= prev + gap, "step {step}: {cmd} at {at}: {rule}");
                        }
                    };
                    match cmd {
                        "ACT" => {
                            after(Self::PRE, t.t_rp, "tRP");
                            after(Self::ACT, t.t_rc, "tRC");
                        }
                        "PRE" | "PREA" => {
                            after(Self::ACT, t.t_ras, "tRAS");
                            after(Self::RD, t.t_rtp, "tRTP");
                            after(Self::WR_END, t.t_wr, "tWR");
                        }
                        "RD" | "WR" => after(Self::ACT, t.t_rcd, "tRCD"),
                        _ => {}
                    }
                    let (slot, tick) = match cmd {
                        "ACT" => (Self::ACT, at),
                        "PRE" | "PREA" => (Self::PRE, at),
                        "RD" => (Self::RD, at),
                        "WR" => (Self::WR_END, at + t.cwl + t.t_burst),
                        _ => continue,
                    };
                    last[slot] = Some(last[slot].map_or(tick, |prev| prev.max(tick)));
                }
                if cmd == "ACT" {
                    let acts = &mut self.acts[rank as usize];
                    let i = acts.partition_point(|&a| a <= at);
                    acts.insert(i, at);
                    for pair in acts[i.saturating_sub(1)..(i + 2).min(acts.len())].windows(2) {
                        assert!(
                            pair[1] >= pair[0] + t.t_rrd,
                            "step {step}: ACT at {at}: tRRD"
                        );
                    }
                    for five in acts[i.saturating_sub(4)..(i + 5).min(acts.len())].windows(5) {
                        assert!(
                            five[4] >= five[0] + t.t_faw,
                            "step {step}: ACT at {at}: tFAW"
                        );
                    }
                }
            }
        }

        /// Every idle bank's earliest ACT at `now` is exactly what its own
        /// reservation, tRRD after the rank's last ACT and tFAW after its
        /// fourth-last allow.
        fn check_earliest_activates(&self, m: &DramModule, now: Tick, step: usize) {
            let t = self.t;
            for (rank, acts) in self.acts.iter().enumerate() {
                let rank = rank as u32;
                let mut rank_allows = now;
                if let Some(&last) = acts.last() {
                    rank_allows = rank_allows.max(last + t.t_rrd);
                }
                if acts.len() >= 4 {
                    rank_allows = rank_allows.max(acts[acts.len() - 4] + t.t_faw);
                }
                for bank in 0..self.banks_per_rank {
                    let Some(own) = m.bank(rank, bank).earliest_activate(now) else {
                        continue;
                    };
                    let act = DramCommand::Activate { rank, bank, row: 0 };
                    assert_eq!(
                        m.earliest_issue(act, Requester::Host, now),
                        Ok(own.max(rank_allows)),
                        "step {step}: earliest ACT on rank {rank}, bank {bank}"
                    );
                }
            }
        }
    }

    /// Five twins run one random stream and must agree after every call.
    /// The reference has a tracer attached, so it serves every burst by
    /// the full transaction, one `serve_addr` at a time. Beside it run,
    /// untraced, `serve_run` with a random `max`, and `serve_addr` and
    /// `serve_block` a burst at a time; and, traced, `serve_run`, whose
    /// trace must equal the reference's: with a tracer a run is one burst,
    /// so it emits what the full transaction emits. Each burst's
    /// completion and bytes, each run's next request tick, the counters,
    /// the banks and the earliest tick of every command must agree, and
    /// the reference's reservations must cover each CAS it issued. The
    /// untraced twins switch rows on the plain path, the reference on the
    /// full one; since both call one PRE/ACT implementation, the
    /// reference's command stream is also held to the row rules on its
    /// own ([`RowRules`]).
    ///
    /// The stream draws random geometries of up to eight banks a rank and
    /// all three mappings, refresh on and off with idle gaps past tREFI,
    /// host and NDP readers, writes and bare PRE, ACT and MRS (ownership
    /// flips) between reads, ACT-dense bursts (back-to-back reads and
    /// writes to closed rows of up to eight banks of one rank, so tRRD
    /// and tFAW bind), and `FaultPlan::light` installed and removed
    /// mid-stream, each followed by a read. Its runs cross rows, pages,
    /// banks, ranks and the module's end, and start at the block after
    /// the last one read three times in four.
    #[test]
    fn serve_addr_and_serve_block_agree() {
        use crate::fault::{FaultInjector, FaultPlan};
        use jafar_common::check::forall;
        use jafar_common::obs::SharedTracer;
        forall("serve_addr_and_serve_block_agree", 48, |rng| {
            let g = DramGeometry {
                ranks: 1 << rng.next_below(2),
                banks_per_rank: 1 << rng.next_below(4),
                rows_per_bank: 4 << rng.next_below(3),
                row_bytes: [256, 1024, 8192][rng.next_below(3) as usize],
            };
            let mapping = [
                AddressMapping::RowBankRankBlock,
                AddressMapping::BankInterleavedBlock,
                AddressMapping::RankRowBankBlock,
            ][rng.next_below(3) as usize];
            let mut t =
                [DramTiming::ddr3_paper(), DramTiming::ddr3_1600()][rng.next_below(2) as usize];
            // Refresh off, due every 7.8 µs, or due so often that many
            // deadlines fall inside runs.
            match rng.next_below(4) {
                0 => t = t.without_refresh(),
                1 => {}
                k => t.t_refi = Tick::from_ns([1_000, 400][k as usize - 2]),
            }
            let capacity = g.capacity_bytes();
            // Seeded bytes in the first 64 KiB; the rest read as zero
            // until a write lands there.
            let seeded: Vec<u8> = (0..capacity.min(64 * 1024) / 8)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect();
            let mut faults = rng.next_bool(0.5).then(|| FaultPlan::light(rng.next_u64()));
            let mut rings = Vec::new();
            let mut m: [DramModule; 5] = std::array::from_fn(|i| {
                let mut m = DramModule::new(g, t, mapping);
                m.data_mut().write(PhysAddr(0), &seeded);
                m.set_fault_injector(faults.map(FaultInjector::new));
                if i == REF || i == TRACED_RUN {
                    let (tracer, ring) = SharedTracer::ring(1 << 12);
                    m.set_tracer(tracer);
                    rings.push(ring);
                }
                // Rank 0 belongs to the NDP device (a glitched grant is
                // fine: every twin glitches alike).
                let mrs = DramCommand::ModeRegisterSet {
                    rank: 0,
                    mr: 3,
                    value: MR3_MPR_ENABLE,
                };
                let _ = m.issue(mrs, Requester::Host, Tick::ZERO, None);
                m
            });
            let mut rules = RowRules::new(g, t);
            // Applies a bare command on every twin at the earliest tick the
            // reference allows, if it allows one; every twin must agree.
            let bare = |m: &mut [DramModule; 5], cmd: DramCommand, now: Tick| {
                let at = m[REF].earliest_issue(cmd, Requester::Host, now);
                for (i, twin) in m.iter_mut().enumerate() {
                    assert_eq!(
                        twin.earliest_issue(cmd, Requester::Host, now),
                        at,
                        "twin {i}"
                    );
                }
                let at = at.ok()?;
                let want = format!("{:?}", m[REF].issue(cmd, Requester::Host, at, None));
                for (i, twin) in m.iter_mut().enumerate().skip(1) {
                    let got = format!("{:?}", twin.issue(cmd, Requester::Host, at, None));
                    assert_eq!(got, want, "twin {i}: {cmd:?}");
                }
                Some(at)
            };
            let mut cursor = 0u64; // the block after the last one read
            let mut now = Tick::ZERO;
            let mut probe = false;
            for step in 0..250 {
                // Whatever is not a read is followed by one, which probes
                // the state it left.
                let action = if probe { 0 } else { rng.next_below(100) };
                probe = action >= 58;
                if action < 58 {
                    let addr = if rng.next_bool(0.75) {
                        PhysAddr(cursor % capacity)
                    } else {
                        PhysAddr(rng.next_below(capacity))
                    }
                    .block_base();
                    let max = 1 + rng.next_below(200) as usize;
                    let requester = reader(&m[REF], addr, rng);
                    let (n, next) = read_twins(&mut m, addr, max, requester, now, step);
                    cursor = addr.0 + 64 * n;
                    now = next;
                } else if action < 72 {
                    // A write between reads: often to the run's next block
                    // or to the block just read.
                    let addr = match rng.next_below(3) {
                        0 => PhysAddr(cursor % capacity),
                        1 => PhysAddr(cursor.saturating_sub(64) % capacity),
                        _ => PhysAddr(rng.next_below(capacity)).block_base(),
                    };
                    let requester = reader(&m[REF], addr, rng);
                    let payload = [rng.next_u64() as u8; 64];
                    write_twins(&mut m, addr, requester, now, &payload, step);
                } else if action < 80 {
                    // ACT-dense: the rank's owner asks for closed rows of
                    // five to eight of its banks (all of them on a smaller
                    // rank) at once, reading short runs and writing.
                    let rank = rng.next_below(u64::from(g.ranks)) as u32;
                    let requester = if m[REF].rank_owned_by_ndp(rank) {
                        Requester::Ndp
                    } else {
                        Requester::Host
                    };
                    let first = rng.next_below(u64::from(g.banks_per_rank)) as u32;
                    let k = g.banks_per_rank.min(5 + rng.next_below(4) as u32);
                    for j in 0..k {
                        let bank = (first + j) % g.banks_per_rank;
                        let mut row = rng.next_below(u64::from(g.rows_per_bank)) as u32;
                        if m[REF].bank(rank, bank).open_row() == Some(row) {
                            row = (row + 1) % g.rows_per_bank;
                        }
                        let block = rng.next_below(u64::from(g.bursts_per_row())) as u32;
                        let addr = m[REF].decoder().encode(coord(rank, bank, row, block));
                        if rng.next_bool(0.3) {
                            let payload = [rng.next_u64() as u8; 64];
                            write_twins(&mut m, addr, requester, now, &payload, step);
                        } else {
                            let max = 1 + rng.next_below(4) as usize;
                            read_twins(&mut m, addr, max, requester, now, step);
                        }
                    }
                } else if action < 96 {
                    let rank = rng.next_below(u64::from(g.ranks)) as u32;
                    let bank = rng.next_below(u64::from(g.banks_per_rank)) as u32;
                    let row = rng.next_below(u64::from(g.rows_per_bank)) as u32;
                    // An ownership flip, which needs a quiesced rank.
                    let value = if m[REF].rank_owned_by_ndp(rank) {
                        0
                    } else {
                        MR3_MPR_ENABLE
                    };
                    let cmd = match action % 4 {
                        0 => DramCommand::Precharge { rank, bank },
                        1 => DramCommand::Activate { rank, bank, row },
                        2 => DramCommand::PrechargeAll { rank },
                        _ => DramCommand::ModeRegisterSet { rank, mr: 3, value },
                    };
                    now = bare(&mut m, cmd, now).unwrap_or(now);
                } else if action < 98 {
                    faults = match faults {
                        Some(_) => None,
                        None => Some(FaultPlan::light(rng.next_u64())),
                    };
                    for twin in &mut m {
                        twin.set_fault_injector(faults.map(FaultInjector::new));
                    }
                } else {
                    // Idle past several refresh deadlines.
                    now += Tick::from_us(40);
                }
                // Mostly back-to-back, so the next read often follows the
                // last one at the tick a streaming reader would ask for it.
                if rng.next_bool(0.5) {
                    now += Tick::from_ps(rng.next_below(60_000));
                }
                let snap = snapshot(&m[REF], now);
                for (i, twin) in m.iter().enumerate().skip(1) {
                    assert_eq!(snapshot(twin, now), snap, "step {step}: twin {i}");
                }
                let (reference, traced_run) = (&rings[0], &rings[1]);
                let events = reference.borrow().snapshot();
                assert_eq!(events, traced_run.borrow().snapshot(), "step {step}: trace");
                assert_eq!(reference.borrow().dropped(), 0);
                rules.replay(&events, step);
                rules.check_earliest_activates(&m[REF], now, step);
                reference.borrow_mut().clear();
                traced_run.borrow_mut().clear();
            }
        });
    }

    #[test]
    fn serve_addr_matches_serve_block() {
        let mut m = module();
        m.data_mut().write_u64(PhysAddr(64), 0xABCD);
        let a = m
            .serve_addr(PhysAddr(64 + 8), false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        let data = a.data.unwrap();
        assert_eq!(u64::from_le_bytes(data[0..8].try_into().unwrap()), 0xABCD);
    }
}
