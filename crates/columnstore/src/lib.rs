//! # jafar-columnstore — the prototype main-memory column-store
//!
//! §3.1: "To integrate JAFAR with a database system, we use an in-house
//! prototype column-store that is capable of performing select-project-join
//! queries using bulk processing and can invoke JAFAR to push down
//! selections to the accelerator." This crate is that prototype:
//!
//! - [`value`] / [`dict`]: integer-centric physical types — §4 notes that
//!   "many modern systems effectively handle string columns as integers
//!   using dictionary compression", which is exactly how strings are stored
//!   here (order-preserving dictionary codes, so range predicates work);
//! - [`column`](mod@column) / [`table`]: plain dense `i64` column storage;
//! - [`positions`]: position lists and selection bitmaps, the currency of
//!   late materialization;
//! - [`ops`]: bulk operators — scan (select), gather (project), hash join,
//!   hash group-by aggregation, sort;
//! - [`exec`]: the bulk-processing execution context: each operator call is
//!   recorded in an **operator trace** ([`trace`]) that the full-system
//!   simulator replays against the memory hierarchy for timing, keeping
//!   functional query processing and performance modelling decoupled;
//! - [`pushdown`]: the planner knob choosing, per scan, a CPU kernel or
//!   JAFAR pushdown.

pub mod column;
pub mod dict;
pub mod error;
pub mod exec;
pub mod ops;
pub mod plan;
pub mod positions;
pub mod pushdown;
pub mod table;
pub mod trace;
pub mod value;

pub use column::Column;
pub use dict::Dictionary;
pub use error::PlanError;
pub use exec::ExecContext;
pub use plan::{execute, Catalog, Frame, Plan};
pub use positions::PositionList;
pub use pushdown::{Planner, ScanImpl};
pub use table::Table;
pub use trace::{OpTrace, TraceEvent};
pub use value::{DataType, Date, Decimal};
