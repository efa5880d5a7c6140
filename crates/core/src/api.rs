//! The host-facing API of Figure 2.
//!
//! ```c
//! int errno = select_jafar(
//!     void*    col_data,
//!     int      range_low,
//!     int      range_high,
//!     uint8_t* out_buf,
//!     size_t   num_input_rows,
//!     size_t*  num_output_rows);
//! ```
//!
//! "The API is designed so that this function must be called for every page
//! in the column, since JAFAR must rely on the CPU to provide memory
//! translation services" (§2.2). The reproduction keeps the errno-style
//! contract: [`select_jafar`] programs the control registers, starts the
//! device, and reports the match count; the caller (the column-store's
//! pushdown path, or `jafar-sim`'s driver which also charges the
//! register-write and polling time) iterates pages.

use crate::device::{DeviceError, JafarDevice, LaneRun, SelectRun, MAX_FUSED_LANES};
use crate::regs::Reg;
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr};

/// POSIX-flavoured error codes for the Figure-2 contract.
///
/// Every [`DeviceError`] and [`jafar_dram::IssueError`] variant maps to a
/// *distinct* code (see [`device_errno`] / [`issue_errno`]) so a host-side
/// log line pins down exactly what failed; the resilient driver keys its
/// recovery policy off these values.
pub mod errno {
    /// Success.
    pub const OK: i32 = 0;
    /// Operation not permitted: an NDP command targeted an unowned rank.
    pub const EPERM: i32 = 1;
    /// Argument list too long: a fused job named zero or more than
    /// [`crate::device::MAX_FUSED_LANES`] predicate lanes (or mismatched
    /// predicate/output counts).
    pub const E2BIG: i32 = 7;
    /// I/O error: uncorrectable (double-bit) ECC failure in a read burst.
    pub const EIO: i32 = 5;
    /// No such device or address: command illegal in the bank's state.
    pub const ENXIO: i32 = 6;
    /// Try again: the command is legal but may not issue yet.
    pub const EAGAIN: i32 = 11;
    /// Permission denied: the rank is not owned by the device.
    pub const EACCES: i32 = 13;
    /// Bad address: the job spans ranks.
    pub const EFAULT: i32 = 14;
    /// Device busy: a host data command hit an NDP-owned rank.
    pub const EBUSY: i32 = 16;
    /// Invalid argument: misalignment.
    pub const EINVAL: i32 = 22;
    /// Not empty: REFRESH/MRS targeted a rank with open rows.
    pub const ENOTEMPTY: i32 = 39;
    /// Protocol error: a ModeRegisterSet was transiently ignored (retry).
    pub const EPROTO: i32 = 71;
    /// Bad message: uncorrectable ECC surfaced at the command layer.
    pub const EBADMSG: i32 = 74;
    /// Timed out: the driver's watchdog fired before completion.
    pub const ETIMEDOUT: i32 = 110;
    /// Interrupted: the DRAM stream was preempted mid-job by a transient
    /// rank-level condition (e.g. a refresh storm) — retry the page.
    pub const ERESTART: i32 = 85;
    /// Key expired: the job was admitted after the lease deadline.
    pub const EKEYEXPIRED: i32 = 127;
}

/// Maps a device-level rejection to its errno. Total and injective: every
/// variant gets its own code, distinct from every [`issue_errno`] code.
pub fn device_errno(e: DeviceError) -> i32 {
    match e {
        DeviceError::NotOwned => errno::EACCES,
        DeviceError::Misaligned => errno::EINVAL,
        DeviceError::SpansRanks => errno::EFAULT,
        DeviceError::LeaseExpired => errno::EKEYEXPIRED,
        DeviceError::Uncorrectable => errno::EIO,
        DeviceError::Interrupted => errno::ERESTART,
        DeviceError::LaneOverflow => errno::E2BIG,
    }
}

/// Maps a DRAM command-layer rejection to its errno. Total and injective
/// across the union with [`device_errno`].
pub fn issue_errno(e: jafar_dram::IssueError) -> i32 {
    use jafar_dram::IssueError;
    match e {
        IssueError::RankOwnedByNdp => errno::EBUSY,
        IssueError::NdpWithoutOwnership => errno::EPERM,
        IssueError::WrongState(_) => errno::ENXIO,
        IssueError::TooEarly(_) => errno::EAGAIN,
        IssueError::RanksNotQuiesced => errno::ENOTEMPTY,
        IssueError::Uncorrectable => errno::EBADMSG,
        IssueError::MrsGlitch => errno::EPROTO,
    }
}

/// Arguments of one `select_jafar` call (one page of the column).
#[derive(Clone, Copy, Debug)]
pub struct SelectArgs {
    /// Physical base of the page's column data.
    pub col_data: PhysAddr,
    /// Inclusive lower bound.
    pub range_low: i64,
    /// Inclusive upper bound.
    pub range_high: i64,
    /// Physical base of the page's slice of the output bitset.
    pub out_buf: PhysAddr,
    /// Rows in this page.
    pub num_input_rows: u64,
}

/// Result of one call.
#[derive(Clone, Copy, Debug)]
pub struct SelectOutcome {
    /// 0 on success, else an `errno` value.
    pub errno: i32,
    /// Rows that passed (the `*num_output_rows` out-parameter).
    pub num_output_rows: u64,
    /// Device-side timing, when the call succeeded.
    pub run: Option<SelectRun>,
}

/// How the host learns a device operation finished.
///
/// §2.2: the CPU "is currently notified of JAFAR operation completion by
/// polling a shared memory location (CPU utilization in a complete system
/// can be improved by using hardware interrupts)". Both mechanisms are
/// modelled: polling discovers completion at the next poll edge and burns
/// the CPU meanwhile; an interrupt frees the CPU but adds delivery +
/// handler latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompletionMode {
    /// Spin on the shared completion word every `gap`.
    Polling {
        /// Poll interval.
        gap: Tick,
    },
    /// Hardware interrupt with delivery + handler `latency`.
    Interrupt {
        /// Interrupt delivery and handling latency.
        latency: Tick,
    },
}

impl CompletionMode {
    /// When the host observes a device run that finished at `done`, having
    /// started waiting at `wait_from`. Also returns the CPU time burned
    /// waiting (the §2.2 utilization cost of polling).
    pub fn observe(self, wait_from: Tick, done: Tick) -> (Tick, Tick) {
        match self {
            CompletionMode::Polling { gap } => {
                let busy = done.saturating_sub(wait_from);
                let polls = busy.as_ps().div_ceil(gap.as_ps().max(1));
                let observed = wait_from + Tick::from_ps(polls * gap.as_ps());
                (observed, observed - wait_from)
            }
            CompletionMode::Interrupt { latency } => (done + latency, Tick::ZERO),
        }
    }
}

/// Per-invocation host driver costs (charged by the simulation layer).
#[derive(Clone, Copy, Debug)]
pub struct DriverCosts {
    /// Programming the control registers + the start kick (uncached MMIO
    /// stores, write-combined).
    pub setup: Tick,
    /// Completion discovery mechanism.
    pub completion: CompletionMode,
}

impl Default for DriverCosts {
    fn default() -> Self {
        DriverCosts {
            setup: Tick::from_ns(60),
            completion: CompletionMode::Polling {
                gap: Tick::from_ns(100),
            },
        }
    }
}

/// The Figure-2 entry point: programs the registers, runs the device,
/// returns errno + match count. It is the one-lane page of the lane
/// window the resilient driver pages through.
pub fn select_jafar(
    device: &mut JafarDevice,
    module: &mut DramModule,
    args: SelectArgs,
    at: Tick,
) -> SelectOutcome {
    let ranges = [(args.range_low, args.range_high)];
    let page = select_jafar_lanes(
        device,
        module,
        args.col_data,
        args.num_input_rows,
        &ranges,
        &[args.out_buf],
        0,
        at,
    );
    match page {
        Ok(run) => SelectOutcome {
            errno: errno::OK,
            num_output_rows: run.matched[0],
            run: Some(run.first_lane()),
        },
        Err(e) => SelectOutcome {
            errno: device_errno(e),
            num_output_rows: 0,
            run: None,
        },
    }
}

/// One page through the lane window of the control registers: the column
/// registers once, then each lane's bounds and output slice in the same
/// write-combined MMIO burst (so the driver charges the one-lane `setup`
/// cost), and one device pass over the page for every lane. Lane `l`
/// filters by `ranges[l]` into the bitset slice at `out_bases[l] +
/// out_off`.
///
/// # Errors
/// The device's rejection; more than [`MAX_FUSED_LANES`] lanes, or
/// mismatched range and output counts, is [`DeviceError::LaneOverflow`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_jafar_lanes(
    device: &mut JafarDevice,
    module: &mut DramModule,
    col_data: PhysAddr,
    rows: u64,
    ranges: &[(i64, i64)],
    out_bases: &[PhysAddr],
    out_off: u64,
    at: Tick,
) -> Result<LaneRun, DeviceError> {
    let regs = device.regs_mut();
    regs.write(Reg::ColAddr, col_data.0);
    regs.write(Reg::NumRows, rows);
    let mut outs = [PhysAddr(0); MAX_FUSED_LANES];
    for (out, base) in outs.iter_mut().zip(out_bases) {
        *out = PhysAddr(base.0 + out_off);
    }
    for (&(lo, hi), out) in ranges.iter().zip(&outs) {
        regs.write(Reg::RangeLo, lo as u64);
        regs.write(Reg::RangeHi, hi as u64);
        regs.write(Reg::OutAddr, out.0);
    }
    // Past the lane budget the slices' lengths differ, which the device
    // rejects as a lane overflow.
    let lanes = out_bases.len().min(MAX_FUSED_LANES);
    device.select_lanes(module, col_data, rows, ranges, &outs[..lanes], at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::grant_ownership;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming};

    fn setup() -> (JafarDevice, DramModule, Tick) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership(&mut m, 0, Tick::ZERO).unwrap();
        let t0 = lease.acquired_at;

        (JafarDevice::paper_default(), m, t0)
    }

    #[test]
    fn successful_call_reports_count() {
        let (mut d, mut m, t0) = setup();
        for i in 0..100i64 {
            m.data_mut().write_i64(PhysAddr(i as u64 * 8), i);
        }
        let out = select_jafar(
            &mut d,
            &mut m,
            SelectArgs {
                col_data: PhysAddr(0),
                range_low: 10,
                range_high: 19,
                out_buf: PhysAddr(64 * 1024),
                num_input_rows: 100,
            },
            t0,
        );
        assert_eq!(out.errno, errno::OK);
        assert_eq!(out.num_output_rows, 10);
        assert!(out.run.is_some());
        // Registers reflect the programmed call.
        assert_eq!(d.regs().read(Reg::NumRows), 100);
        assert_eq!(d.regs().read(Reg::OutCount), 10);
    }

    #[test]
    fn select_past_the_module_end_is_efault() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership(&mut m, 1, Tick::ZERO).unwrap();
        let tail = m.geometry().capacity_bytes() - 64;
        let out = select_jafar(
            &mut JafarDevice::paper_default(),
            &mut m,
            SelectArgs {
                col_data: PhysAddr(tail),
                range_low: 0,
                range_high: 10,
                out_buf: PhysAddr(tail - 4096),
                num_input_rows: 16,
            },
            lease.acquired_at,
        );
        assert_eq!(out.errno, errno::EFAULT);
        assert!(out.run.is_none());
    }

    #[test]
    fn errno_mapping() {
        let (mut d, mut m, t0) = setup();
        // Misaligned input.
        let out = select_jafar(
            &mut d,
            &mut m,
            SelectArgs {
                col_data: PhysAddr(4),
                range_low: 0,
                range_high: 1,
                out_buf: PhysAddr(64 * 1024),
                num_input_rows: 8,
            },
            t0,
        );
        assert_eq!(out.errno, errno::EINVAL);
        // Unowned rank (rank 1 under RankRowBankBlock starts at half).
        let half = DramGeometry::tiny().rank_bytes();
        let out = select_jafar(
            &mut d,
            &mut m,
            SelectArgs {
                col_data: PhysAddr(half),
                range_low: 0,
                range_high: 1,
                out_buf: PhysAddr(half + 4096),
                num_input_rows: 8,
            },
            t0,
        );
        assert_eq!(out.errno, errno::EACCES);
        assert_eq!(out.num_output_rows, 0);
    }

    #[test]
    fn per_page_iteration_covers_column() {
        // The API contract: one call per page; bitset slices concatenate.
        let (mut d, mut m, t0) = setup();
        let rows_total = 1024u64;
        let mut expect = 0u64;
        for i in 0..rows_total {
            let v = (i % 10) as i64;
            m.data_mut().write_i64(PhysAddr(i * 8), v);
            expect += u64::from((0..=4).contains(&v));
        }
        let page_bytes = 4096u64;
        let rows_per_page = page_bytes / 8;
        let out_base = 128 * 1024u64;
        let mut at = t0;
        let mut total = 0;
        for page in 0..rows_total / rows_per_page {
            let out = select_jafar(
                &mut d,
                &mut m,
                SelectArgs {
                    col_data: PhysAddr(page * page_bytes),
                    range_low: 0,
                    range_high: 4,
                    out_buf: PhysAddr(out_base + page * rows_per_page / 8),
                    num_input_rows: rows_per_page,
                },
                at,
            );
            assert_eq!(out.errno, errno::OK);
            total += out.num_output_rows;
            at = out.run.unwrap().end;
        }
        assert_eq!(total, expect, "digits 0–4 of (i % 10)");
    }

    #[test]
    fn errno_mapping_is_total_and_injective() {
        use jafar_dram::IssueError;
        // Every variant of both error enums, exhaustively. A new variant
        // extends one of these arrays or the match in its mapping fails to
        // compile — either way this test stays honest.
        let device = [
            DeviceError::NotOwned,
            DeviceError::Misaligned,
            DeviceError::SpansRanks,
            DeviceError::LeaseExpired,
            DeviceError::Uncorrectable,
            DeviceError::Interrupted,
            DeviceError::LaneOverflow,
        ];
        let issue = [
            IssueError::RankOwnedByNdp,
            IssueError::NdpWithoutOwnership,
            IssueError::WrongState("x"),
            IssueError::TooEarly(Tick::ZERO),
            IssueError::RanksNotQuiesced,
            IssueError::Uncorrectable,
            IssueError::MrsGlitch,
        ];
        let mut codes: Vec<i32> = device
            .iter()
            .map(|&e| device_errno(e))
            .chain(issue.iter().map(|&e| issue_errno(e)))
            .collect();
        for &c in &codes {
            assert_ne!(c, errno::OK, "an error never maps to success");
            assert!(c > 0, "errno values are positive");
        }
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(
            codes.len(),
            n,
            "distinct errno per variant across the union"
        );
    }

    #[test]
    fn driver_cost_defaults() {
        let c = DriverCosts::default();
        assert!(c.setup > Tick::ZERO);
        assert!(matches!(c.completion, CompletionMode::Polling { .. }));
    }

    #[test]
    fn completion_mode_semantics() {
        let polling = CompletionMode::Polling {
            gap: Tick::from_ns(100),
        };
        // Device finishes at 250 ns after waiting began → observed at the
        // 300 ns poll; the CPU spun for all 300 ns.
        let (seen, burned) = polling.observe(Tick::ZERO, Tick::from_ns(250));
        assert_eq!(seen, Tick::from_ns(300));
        assert_eq!(burned, Tick::from_ns(300));
        // Exact multiple: observed on the edge itself.
        let (seen, _) = polling.observe(Tick::ZERO, Tick::from_ns(200));
        assert_eq!(seen, Tick::from_ns(200));

        let interrupt = CompletionMode::Interrupt {
            latency: Tick::from_ns(500),
        };
        let (seen, burned) = interrupt.observe(Tick::ZERO, Tick::from_ns(250));
        assert_eq!(seen, Tick::from_ns(750), "interrupt adds latency...");
        assert_eq!(burned, Tick::ZERO, "...but frees the CPU");
    }
}
