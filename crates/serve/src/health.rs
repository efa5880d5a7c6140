//! The per-unit health lifecycle behind the serving engine's failure
//! domain: `healthy → suspect → quarantined → probing → healthy`.
//!
//! The tracker is keyed by **pool unit id** (one entry per
//! [`crate::pool::FilterPool`] unit — a `{channel, rank}` coordinate; on
//! a single-DIMM pool `unit == rank`). A unit is
//! **suspect** the instant one of its shards parks (the resilient
//! driver's fail-fast ladder gave up on a page) and **quarantined** — out
//! of the schedulable pool — once the engine's rescue event confirms the
//! failure and re-dispatches the shard. A quarantined unit dwells for
//! [`PROBE_AFTER`], then the engine sends a **canary** select of
//! [`CANARY_ROWS`] rows at it; a canary that completes on the device
//! repairs the unit back to healthy, one that parks doubles the dwell
//! (capped at [`PROBE_MAX`]) and re-quarantines.
//!
//! [`HealthTracker`] is the pure state machine: it owns no clocks, emits
//! no trace events and touches no hardware — the engine drives every
//! transition at a deterministic event time and reports them, which keeps
//! serve runs a pure function of `(workload, policy, config)` even under
//! injected unit outages. Downtime accounting runs from quarantine entry
//! to observed repair (or end of run, via [`HealthTracker::finalize`]).
//! Because state is per unit, a failure on one unit never bleeds into its
//! channel siblings: quarantine, probing and repair are all confined to
//! the failing unit id.

use crate::report::UnitAvailability;
use jafar_common::time::Tick;

/// Where a unit sits in its failure lifecycle. Only
/// [`UnitState::Healthy`] units are schedulable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnitState {
    /// In the schedulable pool.
    #[default]
    Healthy,
    /// A shard parked on this unit; the rescue event will confirm.
    Suspect,
    /// Out of the pool, waiting out its probe dwell.
    Quarantined,
    /// A canary query is in flight against it.
    Probing,
}

impl UnitState {
    /// The mnemonic the trace stream uses for this state.
    pub fn name(&self) -> &'static str {
        match self {
            UnitState::Healthy => "healthy",
            UnitState::Suspect => "suspect",
            UnitState::Quarantined => "quarantined",
            UnitState::Probing => "probing",
        }
    }
}

/// Quarantine dwell before the first canary probe.
pub const PROBE_AFTER: Tick = Tick::from_us(200);

/// Dwell ceiling as failed canaries double it.
pub const PROBE_MAX: Tick = Tick::from_ms(5);

/// Rows the canary select scans (clamped to the served column).
pub const CANARY_ROWS: u64 = 512;

#[derive(Clone, Copy, Debug, Default)]
struct UnitHealth {
    state: UnitState,
    /// When the current quarantine began (meaningful while not healthy).
    down_since: Tick,
    /// Current probe dwell (doubles per failed canary, capped).
    dwell: Tick,
    downtime: Tick,
    quarantines: u64,
    canary_ok: u64,
    canary_fail: u64,
}

/// The pure per-unit health state machine. See the module docs for the
/// lifecycle; every method is a deterministic function of its inputs.
pub struct HealthTracker {
    units: Vec<UnitHealth>,
}

impl HealthTracker {
    /// A tracker with every unit healthy.
    pub fn new(nunits: usize) -> Self {
        HealthTracker {
            units: vec![UnitHealth::default(); nunits],
        }
    }

    /// Current state of `unit`.
    pub fn state(&self, unit: usize) -> UnitState {
        self.units[unit].state
    }

    /// True when `unit` may receive new work.
    pub fn is_schedulable(&self, unit: usize) -> bool {
        self.units[unit].state == UnitState::Healthy
    }

    /// Units currently in the schedulable pool.
    pub fn schedulable_count(&self) -> usize {
        self.units
            .iter()
            .filter(|r| r.state == UnitState::Healthy)
            .count()
    }

    /// Healthy → suspect (a shard parked; the rescue event will decide).
    /// Returns true on a real transition, false when the unit was already
    /// somewhere else in the lifecycle.
    pub fn mark_suspect(&mut self, unit: usize) -> bool {
        let r = &mut self.units[unit];
        if r.state == UnitState::Healthy {
            r.state = UnitState::Suspect;
            true
        } else {
            false
        }
    }

    /// Healthy/suspect → quarantined at `at`. Returns the tick the first
    /// canary probe is due, or `None` when the unit was already
    /// quarantined or probing (no new probe is owed).
    pub fn quarantine(&mut self, unit: usize, at: Tick) -> Option<Tick> {
        let r = &mut self.units[unit];
        match r.state {
            UnitState::Healthy | UnitState::Suspect => {
                r.state = UnitState::Quarantined;
                r.down_since = at;
                r.dwell = PROBE_AFTER;
                r.quarantines += 1;
                Some(at + r.dwell)
            }
            UnitState::Quarantined | UnitState::Probing => None,
        }
    }

    /// Quarantined → probing (the canary is being sent).
    pub fn begin_probe(&mut self, unit: usize) {
        debug_assert_eq!(self.units[unit].state, UnitState::Quarantined);
        self.units[unit].state = UnitState::Probing;
    }

    /// The canary parked: probing → quarantined with the dwell doubled
    /// (capped at [`PROBE_MAX`]). Returns the next probe tick.
    pub fn probe_failed(&mut self, unit: usize, at: Tick) -> Tick {
        let r = &mut self.units[unit];
        r.state = UnitState::Quarantined;
        r.canary_fail += 1;
        r.dwell = Tick::from_ps(r.dwell.as_ps().saturating_mul(2)).min(PROBE_MAX);
        at + r.dwell
    }

    /// The canary completed on the device: probing → healthy, with the
    /// quarantine's downtime (entry to observed repair) booked.
    pub fn repaired(&mut self, unit: usize, at: Tick) {
        let r = &mut self.units[unit];
        r.state = UnitState::Healthy;
        r.canary_ok += 1;
        r.downtime += at.saturating_sub(r.down_since);
    }

    /// Books the open downtime of every unit still out of the pool when
    /// the run ends at `makespan` (its quarantine never repaired).
    pub fn finalize(&mut self, makespan: Tick) {
        for r in &mut self.units {
            if matches!(r.state, UnitState::Quarantined | UnitState::Probing) {
                r.downtime += makespan.saturating_sub(r.down_since);
            }
        }
    }

    /// One unit's availability record for the serve report. The tracker
    /// knows only unit ids; the engine decorates the record with the
    /// unit's pool coordinates (channel, rank) before reporting it.
    pub fn availability(&self, unit: usize) -> UnitAvailability {
        let r = &self.units[unit];
        UnitAvailability {
            unit: unit as u32,
            channel: 0,
            rank: unit as u32,
            downtime: r.downtime,
            quarantines: r.quarantines,
            canary_ok: r.canary_ok,
            canary_fail: r.canary_fail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_walks_suspect_quarantine_probe_repair() {
        let mut h = HealthTracker::new(2);
        assert_eq!(h.state(0), UnitState::Healthy);
        assert_eq!(h.schedulable_count(), 2);

        assert!(h.mark_suspect(0));
        assert!(!h.mark_suspect(0), "second suspect is a no-op");
        assert_eq!(h.state(0), UnitState::Suspect);
        assert!(!h.is_schedulable(0), "suspect units take no new work");
        assert_eq!(h.schedulable_count(), 1);

        let probe_at = h.quarantine(0, Tick::from_us(10));
        assert_eq!(probe_at, Some(Tick::from_us(10) + PROBE_AFTER));
        assert!(
            h.quarantine(0, Tick::from_us(11)).is_none(),
            "re-quarantine owes no second probe"
        );
        assert!(!h.mark_suspect(0));

        h.begin_probe(0);
        assert_eq!(h.state(0), UnitState::Probing);
        assert!(!h.is_schedulable(0));
        h.repaired(0, Tick::from_us(300));
        assert_eq!(h.state(0), UnitState::Healthy);
        assert_eq!(h.schedulable_count(), 2);

        let a = h.availability(0);
        assert_eq!(a.quarantines, 1);
        assert_eq!(a.canary_ok, 1);
        assert_eq!(a.canary_fail, 0);
        assert_eq!(a.downtime, Tick::from_us(290));
    }

    #[test]
    fn failed_probes_double_the_dwell_up_to_the_cap() {
        let mut h = HealthTracker::new(1);
        let mut at = h.quarantine(0, Tick::ZERO).expect("a first probe");
        assert_eq!(at, PROBE_AFTER);
        let mut dwell = PROBE_AFTER;
        for _ in 0..8 {
            h.begin_probe(0);
            let next = h.probe_failed(0, at);
            dwell = Tick::from_ps(dwell.as_ps() * 2).min(PROBE_MAX);
            assert_eq!(next, at + dwell, "dwell doubles up to the cap");
            at = next;
        }
        assert_eq!(dwell, PROBE_MAX, "eight failures reach the cap");
        assert_eq!(h.availability(0).canary_fail, 8);
    }

    #[test]
    fn finalize_books_open_downtime_at_makespan() {
        let mut h = HealthTracker::new(2);
        h.quarantine(1, Tick::from_us(50));
        h.finalize(Tick::from_us(450));
        assert_eq!(h.availability(1).downtime, Tick::from_us(400));
        assert_eq!(h.availability(0).downtime, Tick::ZERO);
    }

    #[test]
    fn lifecycle_is_confined_to_one_unit_of_a_wide_pool() {
        // 2 channels × 3 ranks = 6 units; unit 4 (channel 1, rank 1 in
        // channel-major order) fails. Its siblings — same channel and
        // other channel alike — stay schedulable throughout.
        let mut h = HealthTracker::new(6);
        h.mark_suspect(4);
        h.quarantine(4, Tick::from_us(5));
        assert_eq!(h.schedulable_count(), 5);
        for u in [0, 1, 2, 3, 5] {
            assert!(h.is_schedulable(u), "unit {u} undisturbed");
        }
        h.begin_probe(4);
        h.repaired(4, Tick::from_us(500));
        assert_eq!(h.schedulable_count(), 6);
        assert_eq!(h.availability(3).downtime, Tick::ZERO);
        assert_eq!(h.availability(5).downtime, Tick::ZERO);
    }
}
