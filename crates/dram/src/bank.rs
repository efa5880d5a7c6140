//! Per-bank row-buffer state machine and timing bookkeeping.
//!
//! Each bank is "independently addressable" (§2.1) and owns one row buffer.
//! The model is reservation-based: rather than simulating every DRAM-internal
//! clock edge, the bank records, per command class, the earliest tick at
//! which that command may next legally issue, and updates those reservations
//! as commands are applied. This is exactly the bookkeeping a real memory
//! controller performs to keep its command stream JEDEC-legal.

use crate::stats::BankStats;
use crate::timing::DramTiming;
use jafar_common::time::Tick;

/// Row-buffer state of one bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; bitlines precharged (or precharging — readiness is
    /// captured by the activate reservation, not a separate state).
    Idle,
    /// `row` is open in the row buffer.
    Active {
        /// The open row.
        row: u32,
    },
}

/// One DRAM bank: row-buffer state plus earliest-legal-issue reservations.
#[derive(Clone, Debug)]
pub struct Bank {
    state: BankState,
    /// Earliest next ACTIVATE (covers tRP after precharge and tRC between
    /// activates; also doubles as refresh-ready time).
    act_allowed: Tick,
    /// Earliest next READ CAS.
    rd_allowed: Tick,
    /// Earliest next WRITE CAS.
    wr_allowed: Tick,
    /// Earliest next PRECHARGE.
    pre_allowed: Tick,
    stats: BankStats,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A fresh, idle bank ready at time zero.
    pub fn new() -> Self {
        Bank {
            state: BankState::Idle,
            act_allowed: Tick::ZERO,
            rd_allowed: Tick::ZERO,
            wr_allowed: Tick::ZERO,
            pre_allowed: Tick::ZERO,
            stats: BankStats::default(),
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Accumulated per-bank statistics.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Earliest tick ≥ `now` at which ACTIVATE may issue, or `None` if a row
    /// is open (must precharge first).
    pub fn earliest_activate(&self, now: Tick) -> Option<Tick> {
        match self.state {
            BankState::Idle => Some(self.act_allowed.max(now)),
            BankState::Active { .. } => None,
        }
    }

    /// Earliest tick ≥ `now` at which a READ CAS may issue, or `None` if the
    /// bank is idle or a different row is open.
    pub fn earliest_read(&self, row: u32, now: Tick) -> Option<Tick> {
        match self.state {
            BankState::Active { row: open } if open == row => Some(self.rd_allowed.max(now)),
            _ => None,
        }
    }

    /// Earliest tick ≥ `now` at which a WRITE CAS may issue, or `None` if the
    /// bank is idle or a different row is open.
    pub fn earliest_write(&self, row: u32, now: Tick) -> Option<Tick> {
        match self.state {
            BankState::Active { row: open } if open == row => Some(self.wr_allowed.max(now)),
            _ => None,
        }
    }

    /// The READ CAS reservation alone, for a caller that knows which row
    /// is open: [`Bank::earliest_read`] without the row check.
    pub(crate) fn read_allowed(&self) -> Tick {
        self.rd_allowed
    }

    /// The WRITE CAS reservation alone (see [`Bank::read_allowed`]).
    pub(crate) fn write_allowed(&self) -> Tick {
        self.wr_allowed
    }

    /// Earliest tick ≥ `now` at which PRECHARGE may issue. Precharging an
    /// idle bank is legal (a no-op NOP-like command).
    pub fn earliest_precharge(&self, now: Tick) -> Tick {
        self.pre_allowed.max(now)
    }

    /// The tick at which this bank could accept a REFRESH-like, activate-class
    /// command (all row state quiesced). Meaningful only when idle.
    pub fn refresh_ready(&self, now: Tick) -> Option<Tick> {
        self.earliest_activate(now)
    }

    /// Applies ACTIVATE at `now`.
    ///
    /// # Panics
    /// Panics if the bank is not idle or `now` violates the reservation —
    /// callers must consult [`Bank::earliest_activate`] first; the module
    /// layer converts this protocol into checked errors.
    pub fn activate(&mut self, row: u32, now: Tick, t: &DramTiming) {
        let earliest = self
            .earliest_activate(now)
            .expect("ACTIVATE on bank with open row");
        assert!(now >= earliest, "ACTIVATE at {now} before {earliest}");
        self.open(row, now, t);
    }

    /// The ACTIVATE reservation alone, for a caller that knows the bank
    /// is idle: [`Bank::earliest_activate`] without the state check.
    #[inline]
    pub(crate) fn activate_allowed(&self) -> Tick {
        self.act_allowed
    }

    /// Applies ACTIVATE of `row` at `at`, which the module has scheduled
    /// on this idle bank at or after its reservation: [`Bank::activate`]
    /// without the checks.
    #[inline]
    pub(crate) fn open(&mut self, row: u32, at: Tick, t: &DramTiming) {
        self.state = BankState::Active { row };
        self.rd_allowed = self.rd_allowed.max(at + t.t_rcd);
        self.wr_allowed = self.wr_allowed.max(at + t.t_rcd);
        self.pre_allowed = self.pre_allowed.max(at + t.t_ras);
        self.act_allowed = self.act_allowed.max(at + t.t_rc);
        self.stats.activates.inc();
    }

    /// Applies a READ CAS at `now`; returns the interval `[start, end)` the
    /// read burst occupies on the data bus.
    ///
    /// # Panics
    /// Panics on protocol violations (see [`Bank::activate`]).
    pub fn read(&mut self, now: Tick, t: &DramTiming) -> (Tick, Tick) {
        let row = self.open_row().expect("READ on idle bank");
        let earliest = self.earliest_read(row, now).expect("row just checked");
        assert!(now >= earliest, "READ at {now} before {earliest}");
        self.apply_reads(now, 1, t);
        (now + t.cl, now + t.cl + t.t_burst)
    }

    /// Applies `n` READ CASes to the open row, the last at `last`, which
    /// the module has scheduled at or after each one's earliest tick.
    /// Every reservation a read makes is a `max` with a tick that grows
    /// with the CAS, so `n` reads leave what their last one leaves.
    #[inline]
    pub(crate) fn apply_reads(&mut self, last: Tick, n: u64, t: &DramTiming) {
        self.rd_allowed = self.rd_allowed.max(last + t.t_ccd);
        self.wr_allowed = self.wr_allowed.max(last + t.t_ccd);
        self.pre_allowed = self.pre_allowed.max(last + t.t_rtp);
        self.stats.reads.add(n);
    }

    /// Applies a WRITE CAS at `now`; returns the interval `[start, end)` the
    /// write burst occupies on the data bus.
    ///
    /// # Panics
    /// Panics on protocol violations.
    pub fn write(&mut self, now: Tick, t: &DramTiming) -> (Tick, Tick) {
        let row = self.open_row().expect("WRITE on idle bank");
        let earliest = self.earliest_write(row, now).expect("row just checked");
        assert!(now >= earliest, "WRITE at {now} before {earliest}");
        (now + t.cwl, self.apply_write(now, t))
    }

    /// Applies a WRITE CAS at `at` to the open row, which the module has
    /// scheduled at or after the CAS's earliest tick: [`Bank::write`]
    /// without the checks. Returns when the burst's data has landed.
    #[inline]
    pub(crate) fn apply_write(&mut self, at: Tick, t: &DramTiming) -> Tick {
        self.rd_allowed = self.rd_allowed.max(at + t.t_ccd);
        self.wr_allowed = self.wr_allowed.max(at + t.t_ccd);
        let data_end = at + t.cwl + t.t_burst;
        // Write recovery: the row may not close until tWR after data lands.
        self.pre_allowed = self.pre_allowed.max(data_end + t.t_wr);
        self.stats.writes.inc();
        data_end
    }

    /// Applies PRECHARGE at `now`, closing any open row.
    ///
    /// # Panics
    /// Panics if `now` violates the precharge reservation.
    pub fn precharge(&mut self, now: Tick, t: &DramTiming) {
        let earliest = self.earliest_precharge(now);
        assert!(now >= earliest, "PRECHARGE at {now} before {earliest}");
        self.close(now, t);
    }

    /// Applies PRECHARGE at `at`, which the module has scheduled at or
    /// after the bank's precharge reservation: [`Bank::precharge`] without
    /// the check.
    #[inline]
    pub(crate) fn close(&mut self, at: Tick, t: &DramTiming) {
        if matches!(self.state, BankState::Active { .. }) {
            self.stats.precharges.inc();
        }
        self.state = BankState::Idle;
        self.act_allowed = self.act_allowed.max(at + t.t_rp);
    }

    /// Returns the bank's row and reservations to `from`'s; its counters
    /// keep counting.
    pub(crate) fn restore_timing(&mut self, from: &Bank) {
        let stats = self.stats;
        *self = Bank { stats, ..*from };
    }

    /// Blocks the bank (refresh or mode-register update): no command may
    /// issue until `until`.
    pub fn block_until(&mut self, until: Tick) {
        debug_assert!(matches!(self.state, BankState::Idle));
        self.act_allowed = self.act_allowed.max(until);
        self.rd_allowed = self.rd_allowed.max(until);
        self.wr_allowed = self.wr_allowed.max(until);
        self.pre_allowed = self.pre_allowed.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr3_paper()
    }

    #[test]
    fn closed_bank_read_path() {
        let timing = t();
        let mut b = Bank::new();
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.earliest_read(5, Tick::ZERO), None, "no row open");

        let act_at = b.earliest_activate(Tick::ZERO).unwrap();
        assert_eq!(act_at, Tick::ZERO);
        b.activate(5, act_at, &timing);
        assert_eq!(b.open_row(), Some(5));

        // First CAS must wait tRCD.
        let rd_at = b.earliest_read(5, Tick::ZERO).unwrap();
        assert_eq!(rd_at, timing.t_rcd);
        let (start, end) = b.read(rd_at, &timing);
        assert_eq!(start, timing.t_rcd + timing.cl); // 26 ns closed-row latency
        assert_eq!(end - start, timing.t_burst);
    }

    #[test]
    fn row_hit_reads_pipeline_at_tccd() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        let first = b.earliest_read(0, Tick::ZERO).unwrap();
        b.read(first, &timing);
        let second = b.earliest_read(0, first).unwrap();
        assert_eq!(second, first + timing.t_ccd);
        b.read(second, &timing);
        // Back-to-back row hits stream one burst per tCCD = 4 ns: full
        // bandwidth, the regime JAFAR streams in.
        let third = b.earliest_read(0, second).unwrap();
        assert_eq!(third, second + timing.t_ccd);
    }

    #[test]
    fn wrong_row_requires_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(3, Tick::ZERO, &timing);
        assert_eq!(b.earliest_read(4, Tick::from_ns(100)), None);
        assert_eq!(b.earliest_activate(Tick::from_ns(100)), None);
        // tRAS gates the precharge.
        let pre_at = b.earliest_precharge(Tick::ZERO);
        assert_eq!(pre_at, timing.t_ras);
        b.precharge(pre_at, &timing);
        assert_eq!(b.state(), BankState::Idle);
        // tRP gates the next activate; tRC also applies from the old ACT.
        let act_at = b.earliest_activate(pre_at).unwrap();
        assert_eq!(act_at, (pre_at + timing.t_rp).max(timing.t_rc));
    }

    #[test]
    fn trc_spacing_between_activates() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        // Precharge as early as tRAS allows, then activate as early as legal.
        let pre_at = b.earliest_precharge(Tick::ZERO);
        b.precharge(pre_at, &timing);
        let act_at = b.earliest_activate(Tick::ZERO).unwrap();
        assert!(act_at >= timing.t_rc, "tRC violated: {act_at}");
    }

    #[test]
    fn read_to_precharge_waits_trtp() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        let rd_at = b.earliest_read(0, Tick::ZERO).unwrap();
        b.read(rd_at, &timing);
        assert!(b.earliest_precharge(rd_at) >= rd_at + timing.t_rtp);
    }

    #[test]
    fn write_recovery_gates_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        let wr_at = b.earliest_write(0, Tick::ZERO).unwrap();
        let (_, data_end) = b.write(wr_at, &timing);
        assert_eq!(data_end, wr_at + timing.cwl + timing.t_burst);
        assert_eq!(b.earliest_precharge(wr_at), data_end + timing.t_wr);
    }

    #[test]
    fn precharge_idle_bank_is_legal_noop() {
        let timing = t();
        let mut b = Bank::new();
        b.precharge(Tick::ZERO, &timing);
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.stats().precharges.get(), 0, "no row was closed");
        // But it still costs tRP before the next activate.
        assert_eq!(b.earliest_activate(Tick::ZERO).unwrap(), timing.t_rp);
    }

    #[test]
    #[should_panic(expected = "before")]
    fn premature_read_panics() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        b.read(Tick::from_ns(1), &timing); // < tRCD
    }

    #[test]
    #[should_panic(expected = "open row")]
    fn double_activate_panics() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        b.activate(1, Tick::from_us(1), &timing);
    }

    #[test]
    fn stats_accumulate() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(0, Tick::ZERO, &timing);
        let rd = b.earliest_read(0, Tick::ZERO).unwrap();
        b.read(rd, &timing);
        let wr = b.earliest_write(0, rd).unwrap();
        b.write(wr, &timing);
        let pre = b.earliest_precharge(wr);
        b.precharge(pre, &timing);
        assert_eq!(b.stats().activates.get(), 1);
        assert_eq!(b.stats().reads.get(), 1);
        assert_eq!(b.stats().writes.get(), 1);
        assert_eq!(b.stats().precharges.get(), 1);
    }

    #[test]
    fn block_until_delays_everything() {
        let timing = t();
        let mut b = Bank::new();
        b.block_until(Tick::from_ns(500));
        assert_eq!(b.earliest_activate(Tick::ZERO).unwrap(), Tick::from_ns(500));
        assert_eq!(b.earliest_precharge(Tick::ZERO), Tick::from_ns(500));
        b.activate(0, Tick::from_ns(500), &timing);
    }
}
