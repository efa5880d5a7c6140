//! # jafar-sim — the full-system simulator
//!
//! The gem5-equivalent of the reproduction: it assembles the substrates —
//! host CPU scan engine (`jafar-cpu`), cache hierarchy (`jafar-cache`),
//! memory controller (`jafar-memctl`), DDR3 module (`jafar-dram`) and the
//! JAFAR device (`jafar-core`) — into one timed system and runs the
//! paper's experiments on it:
//!
//! - [`config`]: the Table-1 platform presets (the simulated gem5 host and
//!   the Xeon profiling host);
//! - [`alloc`]: simulated physical-memory placement, including
//!   rank-resident placement for JAFAR-consumable columns (§4's
//!   page-pinning discussion);
//! - [`backend`]: the [`jafar_cpu::MemoryBackend`] implementation over the
//!   cache hierarchy + memory controller, with stream prefetching — the
//!   CPU's view of memory;
//! - [`system`]: the assembled [`System`] with the two select paths:
//!   CPU-only ([`System::run_select_cpu`]) and JAFAR pushdown
//!   ([`System::run_select_jafar`], the per-page Figure-2 driver with
//!   rank-ownership handoff and completion polling) — Figure 3's two
//!   curves;
//! - [`replay`]: operator-trace replay for whole queries — Figure 4's
//!   memory-controller profiling of TPC-H runs.
//!
//! Beyond the paper, [`System::serve`] runs a *stream* of select queries
//! through the `jafar-serve` multi-tenant engine (admission control,
//! scheduling policies, SLO-driven degradation) over this system's
//! devices and ranks, [`cluster::ServeCluster`] widens that pool to
//! channels × ranks over the interleaved multi-channel memory system,
//! and [`grid::ServeGrid`] disaggregates it across N memory nodes behind
//! a deterministic cluster fabric with replica routing and a cross-tier
//! degradation ladder. All three are built on one crate-private serving
//! core: a channels × ranks pool with one device and one rank-confined
//! arena per unit, which places the column before each serve and returns
//! every arena to its prior cursor afterwards, so any machine serves any
//! number of times. `System` holds it at one channel, `ServeCluster` at
//! `C` channels and every grid node at one channel of its own module.

pub mod alloc;
pub mod backend;
pub mod cluster;
pub mod config;
pub mod energy;
pub mod grid;
pub mod replay;
mod serving;
pub mod system;

pub use alloc::SimAlloc;
pub use backend::SimBackend;
pub use cluster::{ClusterServeRun, ServeCluster};
pub use config::SystemConfig;
pub use energy::{HostEnergyModel, SelectEnergy};
pub use grid::{GridServeRun, ServeGrid};
pub use replay::{PlacedDb, QueryReplayer, ReplayCosts};
pub use system::{
    ColumnShard, CpuSelectStats, JafarSelectStats, ParallelSelectStats, PartitionedColumn,
    ResilientSelectStats, ServeRun, System,
};
