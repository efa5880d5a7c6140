//! Select pushdown planning.
//!
//! The planner decides, per full-column scan, whether the select runs as a
//! CPU kernel or is pushed down to JAFAR. The §2.2/§3.3 constraints shape
//! the decision:
//!
//! - JAFAR consumes *one complete column at a time*, so only full scans
//!   (not positional refinements) are candidates;
//! - the per-page invocation and rank-ownership handoff have fixed costs,
//!   so tiny columns are not worth pushing down;
//! - pushdown requires a device to be present and the column resident on
//!   a rank the query manager can grant.

use crate::ops::scan::ScanPredicate;

/// How a scan is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanImpl {
    /// Branchy CPU kernel (the paper's baseline).
    CpuBranching,
    /// Predicated (branch-free) CPU kernel.
    CpuPredicated,
    /// SIMD CPU kernel.
    CpuVectorized,
    /// Pushed down to the JAFAR device.
    Jafar,
    /// Pushed down to K per-rank JAFAR devices over a rank-partitioned
    /// column (the discussion section's one-device-per-rank scaling).
    JafarParallel,
}

impl ScanImpl {
    /// True for either device pushdown flavour.
    pub fn is_pushdown(self) -> bool {
        matches!(self, ScanImpl::Jafar | ScanImpl::JafarParallel)
    }
}

/// The pushdown planner.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    /// Whether a JAFAR device is available to this query.
    pub jafar_available: bool,
    /// Ranks with their own device that a scan may be striped across.
    /// `<= 1` keeps pushdown on the single-device path; `>= 2` makes the
    /// planner choose [`ScanImpl::JafarParallel`] for eligible scans.
    pub parallel_ranks: u32,
    /// Minimum rows for pushdown to amortise invocation/ownership costs.
    pub min_rows_for_pushdown: u64,
    /// The CPU kernel used when not pushing down.
    pub cpu_kernel: ScanImpl,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            jafar_available: false,
            parallel_ranks: 1,
            min_rows_for_pushdown: 4096,
            cpu_kernel: ScanImpl::CpuBranching,
        }
    }
}

impl Planner {
    /// A planner with JAFAR enabled.
    pub fn with_jafar() -> Self {
        Planner {
            jafar_available: true,
            ..Planner::default()
        }
    }

    /// A planner with rank-parallel JAFAR enabled over `ranks` ranks.
    pub fn with_jafar_parallel(ranks: u32) -> Self {
        Planner {
            jafar_available: true,
            parallel_ranks: ranks,
            ..Planner::default()
        }
    }

    /// Chooses the implementation for a full scan of `rows` rows.
    pub fn choose(&self, rows: u64, predicate: ScanPredicate) -> ScanImpl {
        let (lo, hi) = predicate.bounds();
        let nontrivial = lo <= hi;
        if self.jafar_available && nontrivial && rows >= self.min_rows_for_pushdown {
            if self.parallel_ranks >= 2 {
                ScanImpl::JafarParallel
            } else {
                ScanImpl::Jafar
            }
        } else {
            self.cpu_kernel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_cpu() {
        let p = Planner::default();
        assert_eq!(
            p.choose(1_000_000, ScanPredicate::Lt(5)),
            ScanImpl::CpuBranching
        );
    }

    #[test]
    fn pushdown_when_available_and_large() {
        let p = Planner::with_jafar();
        assert_eq!(p.choose(1_000_000, ScanPredicate::Lt(5)), ScanImpl::Jafar);
        assert_eq!(
            p.choose(100, ScanPredicate::Lt(5)),
            ScanImpl::CpuBranching,
            "too small to amortise invocation cost"
        );
    }

    #[test]
    fn parallel_pushdown_when_ranks_available() {
        let p = Planner::with_jafar_parallel(4);
        assert_eq!(
            p.choose(1_000_000, ScanPredicate::Lt(5)),
            ScanImpl::JafarParallel
        );
        assert!(ScanImpl::JafarParallel.is_pushdown());
        assert_eq!(
            p.choose(100, ScanPredicate::Lt(5)),
            ScanImpl::CpuBranching,
            "size threshold applies to the parallel flavour too"
        );
        // One rank degenerates to the single-device plan.
        let single = Planner::with_jafar_parallel(1);
        assert_eq!(
            single.choose(1_000_000, ScanPredicate::Lt(5)),
            ScanImpl::Jafar
        );
    }

    #[test]
    fn empty_predicate_stays_on_cpu() {
        let p = Planner::with_jafar();
        // An always-false predicate needs no accelerator.
        assert_eq!(
            p.choose(1_000_000, ScanPredicate::Between(10, 5)),
            ScanImpl::CpuBranching
        );
    }

    #[test]
    fn kernel_override() {
        let p = Planner {
            cpu_kernel: ScanImpl::CpuVectorized,
            ..Planner::default()
        };
        assert_eq!(p.choose(10, ScanPredicate::Ge(0)), ScanImpl::CpuVectorized);
    }
}
