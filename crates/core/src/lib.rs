//! # jafar-core — the JAFAR device
//!
//! "Just A Filtering Accelerator on Relations": an accelerator mounted on a
//! DRAM DIMM that executes a column-store's select operator directly in
//! memory (§2.2). This crate is the paper's primary contribution,
//! implemented over the substrates in `jafar-dram` (the module JAFAR
//! streams from) and `jafar-accel` (the Aladdin-style model its datapath
//! throughput is derived from):
//!
//! - [`predicate`]: the supported predicates — `=`, `<`, `>`, `≤`, `≥` and
//!   ranges over integer data — compiled to the two-ALU inclusive-range
//!   form the datapath evaluates;
//! - [`regs`]: the memory-mapped accelerator control registers the CPU
//!   programs, and the polled completion flag;
//! - [`device`]: the streaming filter engine: one 64-byte burst per DRAM
//!   access, one 64-bit word per 0.5 ns device cycle (throughput *derived*
//!   from the Aladdin-like schedule of the filter kernel, not hard-coded),
//!   an *n*-bit output buffer written back to DRAM every *n* filter
//!   operations without delaying the filter;
//! - [`api`]: the Figure-2 host API `select_jafar(col_data, range_low,
//!   range_high, out_buf, num_input_rows, num_output_rows)`, invoked once
//!   per virtual-memory page;
//! - [`ownership`]: rank-ownership transfer via the MR3/MPR mechanism,
//!   with bounded (expiring, renewable) leases;
//! - [`driver`]: the resilient host driver — watchdog timeouts, bounded
//!   exponential backoff, lease renewal, a circuit breaker, a CPU-scan
//!   fallback for select pages and a hand-back for the one-shot kernels,
//!   so queries survive the fault plans `jafar-dram` injects;
//! - the §4 roadmap extensions: [`aggregate`] (sum/min/max/count/avg and
//!   bounded-bucket hash group-by with hierarchical overflow), [`project`]
//!   (position-driven gather in memory), [`rowstore`] (parallel
//!   multi-predicate filters over row-major layouts), [`sort`] (a
//!   fixed-function bitonic network with divide-and-conquer merge
//!   passes), and [`interleave`] (masked bitset writeback for
//!   64-bit-interleaved multi-DIMM systems).

pub mod aggregate;
pub mod api;
#[cfg(test)]
mod burst_oracle;
mod datapath;
pub mod device;
pub mod driver;
pub mod interleave;
pub mod ownership;
pub mod parallel;
pub mod predicate;
pub mod project;
pub mod regs;
pub mod rowstore;
pub mod sort;

pub use api::{
    device_errno, issue_errno, select_jafar, CompletionMode, DriverCosts, SelectArgs, SelectOutcome,
};
pub use device::{
    DeviceConfig, DeviceError, FusedSelectJob, FusedSelectRun, JafarDevice, SelectJob, SelectRun,
    MAX_FUSED_LANES,
};
pub use driver::{
    AggregateOutcome, DriverRun, DriverStats, FusedDriverRun, FusedSelectRequest, ProjectOutcome,
    ResilienceConfig, ResilientDriver, SelectRequest, SelectSession,
};
pub use ownership::{grant_ownership, grant_ownership_for, release_ownership, renew_lease, Lease};
pub use parallel::{run_select_parallel, ParallelRun, ShardRun};
pub use predicate::Predicate;
pub use regs::{Reg, RegisterFile};
