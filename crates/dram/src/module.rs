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
use crate::data::DramData;
use crate::fault::{FaultInjector, FaultStats};
use crate::geometry::DramGeometry;
use crate::mode::ModeRegs;
use crate::stats::DramStats;
use crate::timing::DramTiming;
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;
use std::collections::VecDeque;

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
#[derive(Clone, Debug)]
pub struct BlockAccess {
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// When the burst completed on the data bus.
    pub data_ready: Tick,
    /// The bytes read (reads only).
    pub data: Option<[u8; 64]>,
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
    /// Issue ticks of recent ACTIVATEs (pruned to the tFAW window).
    act_history: VecDeque<Tick>,
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
            act_history: VecDeque::with_capacity(8),
            rrd_allowed: Tick::ZERO,
            wtr_until: Tick::ZERO,
            next_refresh: t.t_refi,
            ndp_deadline: Tick::MAX,
        }
    }
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
        let t = &self.timing;
        match cmd {
            DramCommand::Activate { rank, bank, .. } => {
                let b = &self.banks[self.bank_index(rank, bank)];
                let base = b
                    .earliest_activate(now)
                    .ok_or(IssueError::WrongState("ACTIVATE requires an idle bank"))?;
                let rs = &self.ranks[rank as usize];
                let mut earliest = base.max(rs.rrd_allowed);
                if rs.act_history.len() >= 4 {
                    let fourth_back = rs.act_history[rs.act_history.len() - 4];
                    earliest = earliest.max(fourth_back + t.t_faw);
                }
                Ok(earliest.max(now))
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

    /// Applies a READ CAS at `at` to bank `idx` of `rank`; `addr` is the
    /// burst's block address. The caller has traced the command.
    #[inline]
    fn apply_read(
        &mut self,
        idx: usize,
        rank: u32,
        addr: PhysAddr,
        requester: Requester,
        at: Tick,
    ) -> Result<ReadResult, IssueError> {
        let (bus_start, mut data_ready) = self.banks[idx].read(at, &self.timing);
        *self.bus_slot_mut(requester, rank) = Some(BusOp {
            is_write: false,
            rank,
            end: data_ready,
        });
        let mut data = self.data.read_burst(addr);
        self.stats.read_bursts.inc();
        if let Some(fault) = self.fault.as_mut() {
            // Faults perturb only the returned copy and the
            // requester-observed completion time; bank/bus reservations
            // stay normal so retries can recover.
            let dark = fault.rank_dark(rank, at);
            let disturbance = fault.on_read_burst(&mut data, rank, at);
            data_ready = data_ready
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
        }
        Ok(ReadResult {
            data,
            bus_start,
            data_ready,
        })
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
        let (_, data_end) = self.banks[idx].write(at, t);
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
                self.banks[idx].activate(row, at, t);
                let rs = &mut self.ranks[rank as usize];
                rs.rrd_allowed = rs.rrd_allowed.max(at + t.t_rrd);
                rs.act_history.push_back(at);
                while let Some(&front) = rs.act_history.front() {
                    if rs.act_history.len() > 4 && front + t.t_faw <= at {
                        rs.act_history.pop_front();
                    } else {
                        break;
                    }
                }
                Ok(None)
            }
            DramCommand::Read { rank, bank, block } => {
                let idx = self.bank_index(rank, bank);
                let addr = self.open_block_addr(idx, rank, bank, block);
                self.apply_read(idx, rank, addr, requester, at).map(Some)
            }
            DramCommand::Write { rank, bank, block } => {
                let idx = self.bank_index(rank, bank);
                let addr = self.open_block_addr(idx, rank, bank, block);
                self.apply_write(idx, rank, addr, requester, at, write_data);
                Ok(None)
            }
            DramCommand::Precharge { rank, bank } => {
                let idx = self.bank_index(rank, bank);
                self.banks[idx].precharge(at, t);
                Ok(None)
            }
            DramCommand::PrechargeAll { rank } => {
                for bank in 0..self.geometry.banks_per_rank {
                    let idx = self.bank_index(rank, bank);
                    self.banks[idx].precharge(at, t);
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
    ) -> Result<BlockAccess, IssueError> {
        let addr = self.decoder.encode(coord);
        self.serve(coord, addr, is_write, requester, now, write_data)
    }

    /// Serves the block holding `addr`, as [`Self::serve_block`] serves its
    /// decoded coordinate.
    ///
    /// # Errors
    /// Propagates ownership errors.
    pub fn serve_addr(
        &mut self,
        addr: PhysAddr,
        is_write: bool,
        requester: Requester,
        now: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<BlockAccess, IssueError> {
        let addr = addr.block_base();
        let coord = self.decoder.decode(addr);
        self.serve(coord, addr, is_write, requester, now, write_data)
    }

    /// The transaction behind [`Self::serve_block`] and
    /// [`Self::serve_addr`]; `addr` is `coord`'s block address, which the
    /// entry point already holds, so no step re-encodes it.
    fn serve(
        &mut self,
        coord: Coord,
        addr: PhysAddr,
        is_write: bool,
        requester: Requester,
        now: Tick,
        write_data: Option<&[u8; 64]>,
    ) -> Result<BlockAccess, IssueError> {
        assert!(
            write_data.is_none() || is_write,
            "payload supplied for a read"
        );
        let Coord { rank, bank, .. } = coord;
        // The transaction's one ownership check, before mutating anything.
        self.check_data_ownership(rank, requester)
            .inspect_err(|e| {
                if matches!(e, IssueError::RankOwnedByNdp) {
                    self.stats.ownership_rejections.inc();
                }
            })?;

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

        let idx = self.bank_index(rank, bank);
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
        // Each command is applied at the earliest tick just computed for
        // it; ownership was checked once above, for the whole transaction.
        match outcome {
            RowOutcome::Hit => self.stats.row_hits.inc(),
            RowOutcome::Conflict => {
                let pre = DramCommand::precharge(coord);
                let at = self
                    .earliest_legal(pre, requester, cursor)
                    .expect("precharge always legal");
                self.apply(pre, requester, at, None).expect("legal");
                cursor = self.activate(coord, requester, at);
                self.stats.row_conflicts.inc();
            }
            RowOutcome::Miss => {
                cursor = self.activate(coord, requester, cursor);
                self.stats.row_misses.inc();
            }
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
            // The only fallible outcome of a read scheduled at its earliest
            // legal tick is an injected ECC failure.
            let result = self.apply_read(idx, rank, addr, requester, at)?;
            Ok(BlockAccess {
                outcome,
                data_ready: result.data_ready,
                data: Some(result.data),
            })
        }
    }

    /// Opens `coord`'s row in its idle bank at the earliest legal tick ≥
    /// `now`, and returns that tick.
    fn activate(&mut self, coord: Coord, requester: Requester, now: Tick) -> Tick {
        let act = DramCommand::activate(coord);
        let at = self.earliest_legal(act, requester, now).expect("bank idle");
        self.apply(act, requester, at, None).expect("legal");
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::MR3_MPR_ENABLE;

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
                .unwrap();
            now = a
                .data_ready
                .saturating_sub(m.timing().cl + m.timing().t_burst);
            ready.push(a.data_ready);
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
            .unwrap();
        let a1 = m
            .serve_block(
                coord(0, 0, 1, 0),
                false,
                Requester::Host,
                a0.data_ready,
                None,
            )
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
            .unwrap();
        let b = m
            .serve_block(coord(0, 1, 0, 0), false, Requester::Host, Tick::ZERO, None)
            .unwrap();
        // Bank 1's ACT can overlap bank 0's, but its data burst must queue
        // behind bank 0's on the shared bus: at least tBURST later.
        assert!(b.data_ready >= a.data_ready + m.timing().t_burst);
        // And much sooner than a serial closed-row access pair (60 ns).
        assert!(b.data_ready < Tick::from_ns(60));
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
            .unwrap();
        let b = m
            .serve_block(coord(1, 0, 0, 0), false, Requester::Ndp, Tick::ZERO, None)
            .unwrap();
        assert_eq!(a.data_ready, b.data_ready, "rank-local IO paths overlap");
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
            .unwrap();
        let host = m
            .serve_block(coord(1, 0, 0, 0), false, Requester::Host, host_t0, None)
            .unwrap();
        // The host's burst ends one row cycle after issue, unaffected by
        // the NDP burst occupying rank 0's IO path at the same instant.
        assert_eq!(host.data_ready, host_t0 + Tick::from_ns(30));
        assert!(ndp.data_ready <= host.data_ready);
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
            .unwrap();
        let r = m
            .serve_block(
                coord(0, 0, 0, 1),
                false,
                Requester::Host,
                w.data_ready,
                None,
            )
            .unwrap();
        // Read CAS must wait tWTR after write data end; data returns CL later.
        assert!(r.data_ready >= w.data_ready + m.timing().t_wtr + m.timing().cl);
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
        assert_eq!(a.data.unwrap(), want);
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

    #[test]
    fn serve_addr_and_serve_block_agree() {
        use crate::fault::{FaultInjector, FaultPlan};
        use jafar_common::check::forall;
        forall("serve_addr_and_serve_block_agree", 48, |rng| {
            let mapping = [
                AddressMapping::RowBankRankBlock,
                AddressMapping::BankInterleavedBlock,
                AddressMapping::RankRowBankBlock,
            ][rng.next_below(3) as usize];
            let timing = if rng.next_bool(0.5) {
                DramTiming::ddr3_paper()
            } else {
                DramTiming::ddr3_paper().without_refresh()
            };
            let faults = rng.next_bool(0.5).then(|| FaultPlan::light(rng.next_u64()));
            let twin = || {
                let mut m = DramModule::new(DramGeometry::tiny(), timing, mapping);
                m.set_fault_injector(faults.map(FaultInjector::new));
                // Rank 0 belongs to the NDP device (a glitched grant is
                // fine: both twins glitch alike).
                let mrs = DramCommand::ModeRegisterSet {
                    rank: 0,
                    mr: 3,
                    value: MR3_MPR_ENABLE,
                };
                let _ = m.issue(mrs, Requester::Host, Tick::ZERO, None);
                m
            };
            let (mut by_addr, mut by_block) = (twin(), twin());
            let mut now = Tick::ZERO;
            for i in 0..300u64 {
                let addr = PhysAddr(rng.next_below(DramGeometry::tiny().capacity_bytes()));
                let write = rng.next_bool(0.3);
                let payload = [i as u8; 64];
                let data = write.then_some(&payload);
                let requester = if rng.next_bool(0.5) {
                    Requester::Host
                } else {
                    Requester::Ndp
                };
                let a = by_addr.serve_addr(addr, write, requester, now, data);
                let coord = by_block.decoder().decode(addr.block_base());
                let b = by_block.serve_block(coord, write, requester, now, data);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            (a.outcome, a.data_ready, a.data),
                            (b.outcome, b.data_ready, b.data)
                        );
                    }
                    (a, b) => assert_eq!(a.err(), b.err()),
                }
                // Mostly back-to-back, sometimes past several refreshes.
                now += if rng.next_bool(0.02) {
                    Tick::from_us(40)
                } else {
                    Tick::from_ps(rng.next_below(60_000))
                };
            }
            assert_eq!(
                format!("{:?}", by_addr.stats()),
                format!("{:?}", by_block.stats())
            );
            assert_eq!(
                format!("{:?}", by_addr.fault_stats()),
                format!("{:?}", by_block.fault_stats())
            );
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
