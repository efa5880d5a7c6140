//! The schedulable filter-unit pool.
//!
//! JAFAR places one filter unit per rank, but "the pool" the serving
//! engine schedules over is not inherently one DIMM's rank vector: with a
//! multi-channel memory system every channel brings its own ranks.
//! [`FilterPool`] abstracts that topology: the engine schedules over
//! opaque **unit ids** `0..units()`, and the pool maps each id to its
//! physical coordinates — `{channel, rank}` — so dispatch, health
//! tracking, canary probing, fault confinement and the availability
//! ledger all work per unit rather than per DIMM-rank.
//!
//! # Unit id scheme
//!
//! Ids are dense and channel-major:
//!
//! ```text
//! unit = channel · ranks_per_channel + rank
//! ```
//!
//! so a single-channel pool degenerates to `unit == rank` — the
//! single-DIMM layout, byte-for-byte. The id order is also the
//! engine's deterministic tie-break order, which keeps serve runs pure
//! functions of `(workload, policy, config, pool)`.
//!
//! # Placement rules
//!
//! The pool is a topology map only; *placement* — where each unit's
//! column replica, bitset buffer and projection buffer live — is recorded
//! in the serve env's per-unit address slices (`replicas[u]`, `outs[u]`,
//! `proj_outs[u]`, all channel-local addresses within
//! `modules[unit(u).channel]`). A column's stripes land whole on one
//! channel's ranks (contiguous placement, `phase_rows(rows, 1, 0)` rows
//! per replica in [`jafar_core::interleave`] terms), never word-
//! interleaved across channels: contiguous placement writes each output
//! line once, where interleaving would pay the §2.2 masked
//! read-modify-write on every output burst. Because every unit's
//! arguments are recorded per unit, the byte-identity argument of the
//! single-DIMM engine carries over unchanged — each unit's shard run is
//! indistinguishable from the same shard on a single-channel pool.
//!
//! Busy/health/affinity state is *engine* state, keyed by unit id: the
//! busy vector, the [`crate::health::HealthTracker`] lifecycle and the
//! served-count affinity ledger all index by unit, so quarantine and
//! canary probing confine failures to one unit without touching its
//! channel siblings.

use std::fmt;

/// Typed failure from unit-id arithmetic: the `(channel, rank)`
/// coordinates do not map to a dense id, either because a
/// coordinate is outside the pool's shape or because the id computation
/// would exceed `usize::MAX` (silent wraparound would alias two distinct
/// units onto one id — a correctness bug, not a perf bug).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolIdError {
    /// A coordinate is at or beyond its axis extent.
    OutOfRange {
        /// Which axis (`"channel"` or `"rank"`).
        axis: &'static str,
        /// The offending coordinate.
        index: usize,
        /// The axis extent it must stay below.
        extent: usize,
    },
    /// The dense id (or the pool's total unit count) overflows `usize`.
    Overflow,
}

impl fmt::Display for PoolIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolIdError::OutOfRange {
                axis,
                index,
                extent,
            } => write!(f, "{axis} {index} out of range (extent {extent})"),
            PoolIdError::Overflow => write!(f, "unit id arithmetic overflows usize"),
        }
    }
}

impl std::error::Error for PoolIdError {}

/// Physical coordinates of one schedulable filter unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FilterUnit {
    /// Memory channel the unit's DIMM hangs off.
    pub channel: usize,
    /// Rank within that channel the unit filters.
    pub rank: usize,
}

/// A schedulable pool of filter units: the topology the serving engine
/// dispatches onto. See the module docs for the id scheme and placement
/// rules.
pub trait FilterPool {
    /// Number of schedulable units (dense ids `0..units()`).
    fn units(&self) -> usize;

    /// Physical coordinates of unit `u`.
    ///
    /// # Panics
    /// Implementations may panic when `u >= units()`.
    fn unit(&self, u: usize) -> FilterUnit;

    /// Number of memory channels the pool spans. Every
    /// [`FilterUnit::channel`] is below this.
    fn channels(&self) -> usize;
}

/// A channels × ranks pool over an interleaved multi-channel memory
/// system (`jafar_memctl::MultiChannel`): every channel brings
/// `ranks_per_channel` whole-rank units. Unit ids are channel-major, so
/// at `channels == 1` the pool is one DIMM's rank vector, `unit == rank`.
#[derive(Clone, Copy, Debug)]
pub struct ChannelRankPool {
    channels: usize,
    ranks_per_channel: usize,
}

impl ChannelRankPool {
    /// A pool of `channels × ranks_per_channel` whole-rank units.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the unit count overflows
    /// `usize` (use [`ChannelRankPool::try_units`] to probe a shape).
    pub fn new(channels: usize, ranks_per_channel: usize) -> Self {
        assert!(
            channels > 0 && ranks_per_channel > 0,
            "a pool needs at least one unit"
        );
        let pool = ChannelRankPool {
            channels,
            ranks_per_channel,
        };
        assert!(
            pool.try_units().is_ok(),
            "pool shape {channels}x{ranks_per_channel} overflows usize"
        );
        pool
    }

    /// Ranks each channel contributes.
    pub fn ranks_per_channel(&self) -> usize {
        self.ranks_per_channel
    }

    /// The dense id of `(channel, rank)` — the inverse of
    /// [`FilterPool::unit`]. Checked: out-of-shape coordinates and
    /// `usize` overflow return a [`PoolIdError`] instead of silently
    /// wrapping onto some other unit's id.
    pub fn id_of(&self, channel: usize, rank: usize) -> Result<usize, PoolIdError> {
        for (axis, index, extent) in [
            ("channel", channel, self.channels),
            ("rank", rank, self.ranks_per_channel),
        ] {
            if index >= extent {
                return Err(PoolIdError::OutOfRange {
                    axis,
                    index,
                    extent,
                });
            }
        }
        channel
            .checked_mul(self.ranks_per_channel)
            .and_then(|v| v.checked_add(rank))
            .ok_or(PoolIdError::Overflow)
    }

    /// Total units, checked: `Err(Overflow)` when `channels ×
    /// ranks_per_channel` exceeds `usize` — the shape validation
    /// [`ChannelRankPool::new`] enforces by panic.
    pub fn try_units(&self) -> Result<usize, PoolIdError> {
        self.channels
            .checked_mul(self.ranks_per_channel)
            .ok_or(PoolIdError::Overflow)
    }
}

impl FilterPool for ChannelRankPool {
    fn units(&self) -> usize {
        self.channels * self.ranks_per_channel
    }

    fn unit(&self, u: usize) -> FilterUnit {
        assert!(u < self.units(), "unit {u} out of range ({})", self.units());
        FilterUnit {
            channel: u / self.ranks_per_channel,
            rank: u % self.ranks_per_channel,
        }
    }

    fn channels(&self) -> usize {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_channel_pool_is_the_identity_on_ranks() {
        let p = ChannelRankPool::new(1, 7);
        assert_eq!(p.units(), 7);
        assert_eq!(p.channels(), 1);
        for u in 0..7 {
            assert_eq!(
                p.unit(u),
                FilterUnit {
                    channel: 0,
                    rank: u
                }
            );
        }
    }

    #[test]
    fn channel_rank_pool_ids_are_channel_major_and_invertible() {
        let p = ChannelRankPool::new(4, 3);
        assert_eq!(p.units(), 12);
        assert_eq!(p.channels(), 4);
        let mut seen = std::collections::HashSet::new();
        for u in 0..p.units() {
            let fu = p.unit(u);
            assert!(fu.channel < 4 && fu.rank < 3);
            assert_eq!(p.id_of(fu.channel, fu.rank), Ok(u));
            assert!(seen.insert(fu), "ids are distinct coordinates");
        }
        // Channel-major: consecutive ids walk ranks within a channel.
        assert_eq!(p.unit(0).channel, 0);
        assert_eq!(p.unit(2).channel, 0);
        assert_eq!(p.unit(3).channel, 1);
    }

    #[test]
    fn id_of_rejects_out_of_shape_coordinates() {
        let p = ChannelRankPool::new(2, 3);
        assert_eq!(
            p.id_of(2, 0),
            Err(PoolIdError::OutOfRange {
                axis: "channel",
                index: 2,
                extent: 2
            })
        );
        assert_eq!(
            p.id_of(0, 3),
            Err(PoolIdError::OutOfRange {
                axis: "rank",
                index: 3,
                extent: 3
            })
        );
    }

    #[test]
    fn id_arithmetic_errors_at_the_overflow_boundary() {
        // A shape whose id arithmetic crosses the usize boundary:
        // 3 channels × (usize::MAX/2 + 1) ranks. Channel 1's last rank
        // maps to exactly usize::MAX; channel 2's first would wrap.
        let half = usize::MAX / 2 + 1;
        let p = ChannelRankPool {
            channels: 3,
            ranks_per_channel: half,
        };
        // In-shape extremes still map without wrapping.
        assert_eq!(p.id_of(1, half - 1), Ok(usize::MAX));
        // Past the boundary the overflow is a typed error, not a wrapped
        // id: 3 × (MAX/2 + 1) > usize::MAX.
        assert_eq!(p.try_units(), Err(PoolIdError::Overflow));
        assert_eq!(p.id_of(2, 0), Err(PoolIdError::Overflow));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_rejected() {
        ChannelRankPool::new(1, 0);
    }
}
