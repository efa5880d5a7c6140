//! # jafar-dram — a functional + timing model of DDR3 SDRAM
//!
//! JAFAR (DaMoN'15) is an accelerator mounted *on the DIMM*, reading data out
//! of the DRAM module's IO buffer. Reproducing its evaluation therefore
//! requires a DRAM model that captures the structures and timing rules the
//! paper reasons about in §2.1:
//!
//! - the **geometry**: ranks of separately packaged chips, banks of arrays,
//!   8 KB rows loaded into per-bank row buffers ([`geometry`]);
//! - the **timing parameters** the paper names — `CL`, `tRCD`, `tRP`, `tRAS` —
//!   plus the rest of the DDR3 rulebook needed for a legal command stream
//!   (`tRC`, `tCCD`, `tRTP`, `tWR`, `tWTR`, `tRRD`, `tFAW`, refresh)
//!   ([`timing`]);
//! - the **8n-prefetch / dual-data-rate** transfer model: one CAS moves a
//!   512-bit burst through the IO buffer over four data-bus cycles
//!   ([`module`]);
//! - the **mode registers**, including the MR3/MPR mechanism §2.2 proposes to
//!   repurpose for granting JAFAR exclusive rank ownership ([`mode`]);
//! - a **functional backing store** so reads return real bytes and the
//!   accelerator's outputs can be checked against software references
//!   ([`data`]);
//! - a **deterministic fault-injection layer** — seeded bit flips filtered
//!   through a SECDED ECC model, completion stalls/drops, transient MRS
//!   glitches, refresh storms — so the host driver's recovery paths can be
//!   exercised reproducibly ([`fault`]).
//!
//! The model is *reservation-based*: each bank tracks the earliest tick at
//! which each command class may legally issue, and [`DramModule::earliest_issue`]
//! / [`DramModule::issue`] expose a checked command interface to the memory
//! controller (`jafar-memctl`) and to the JAFAR device (`jafar-core`), which
//! both act as command agents.
//!
//! [`DramModule::earliest_issue`]: module::DramModule::earliest_issue
//! [`DramModule::issue`]: module::DramModule::issue

pub mod address;
pub mod bank;
pub mod command;
pub mod data;
pub mod fault;
pub mod geometry;
pub mod mode;
pub mod module;
pub mod stats;
pub mod timing;

pub use address::{AddressDecoder, AddressMapping, Coord, PhysAddr};
pub use bank::{Bank, BankState};
pub use command::{DramCommand, Requester};
pub use data::DramData;
pub use fault::{FaultInjector, FaultPlan, FaultStats, ReadDisturbance};
pub use geometry::DramGeometry;
pub use mode::ModeRegs;
pub use module::{
    BlockAccess, DramModule, IssueError, ReadResult, ReadRun, RowOutcome, TimingState,
};
pub use stats::{BankStats, DramStats};
pub use timing::DramTiming;

/// Bytes transferred by one burst (8n-prefetch of 64-bit words = 64 bytes).
pub const BURST_BYTES: u64 = 64;
