//! # jafar-serve — deterministic multi-tenant query serving
//!
//! Every other entry point in the workspace runs exactly one query in
//! isolation; this crate is the serving layer on top — the leap the
//! ROADMAP's north star ("serves heavy traffic") requires and that
//! production NDP systems make from single-operator offload to request
//! serving. It is a discrete-event engine that accepts a *stream* of
//! select, scalar-aggregate and projection queries (the §4 operator
//! extensions) and multiplexes them over the shared JAFAR ranks:
//!
//! - [`workload`]: seeded query streams — open-loop Poisson and
//!   closed-loop arrival generators over uniform or TPC-H-Q6-style
//!   predicate mixes, plus an optional per-query latency SLO;
//! - [`pool`]: the first-class schedulable pool — a [`FilterPool`] maps
//!   dense unit ids to `{channel, rank}` coordinates, and
//!   [`ChannelRankPool`] implements it for a channels × ranks pool over
//!   the interleaved multi-channel memory system (one channel is a
//!   single DIMM's rank vector);
//! - [`policy`]: pluggable scheduling policies — FIFO,
//!   earliest-deadline-first, and contention-aware unit affinity (free
//!   units ordered by channel queue depth, then breaker state and
//!   served count);
//! - [`engine`]: admission control (bounded queue with shedding,
//!   tightened while ranks are quarantined), dispatch onto free healthy
//!   ranks via the PR-3 steppable-session min-cursor machinery, and the
//!   SLO degradation ladder (rank-parallel → single-device → requeue on
//!   a healthy rank → host CPU scan) composed over the PR-1 resilient
//!   drivers;
//! - [`health`]: the per-rank failure lifecycle — a rank whose fail-fast
//!   ladder parks a shard is quarantined out of the schedulable pool,
//!   its shard is rescued and re-dispatched mid-query (bitset prefix
//!   salvaged and replayed), and canary probes repair the rank back into
//!   the pool;
//! - [`report`]: per-query records (queue-wait vs service-time
//!   breakdown, execution rung, selection vector) and aggregate
//!   p50/p95/p99 latency + throughput;
//! - [`submit`]: lifting `jafar-columnstore` scan, projection and
//!   global-aggregate plans into served queries;
//! - [`cluster`]: the disaggregated tier — a host frontend routing
//!   queries over a deterministic [`jafar_net::NetFabric`] to N memory
//!   nodes (each a full node-local engine with its own fault domain),
//!   with replica-aware routing policies and the degradation ladder
//!   extended across tiers: remote NDP → remote node CPU →
//!   pull-the-column-and-scan on the frontend.
//!
//! Everything is deterministic: workloads are pure functions of their
//! seeds, and the engine makes every scheduling decision at an explicit
//! event in strict `(time, class, id)` order, so a serve run — including
//! its trace stream — is a pure function of `(workload, policy, config)`.
//! Each served query's selection vector is bit-identical to running the
//! same predicate alone.
//!
//! The usual entry point is `jafar_sim::System::serve`, which owns the
//! DRAM module, replicates the column across the NDP ranks and hands the
//! engine a [`engine::ServeEnv`].

pub mod cluster;
pub mod engine;
pub mod health;
pub mod policy;
pub mod pool;
pub mod report;
pub mod submit;
pub mod workload;

pub use cluster::{
    cluster_fabric, run_cluster, ClusterConfig, ClusterEnv, ClusterQuery, ClusterReport,
    NodeSummary, RoutePolicy, Tier,
};
pub use engine::{out_lanes, run_serve, run_serve_checked, EngineInvariant, ServeConfig, ServeEnv};
pub use health::UnitState;
pub use policy::SchedPolicy;
pub use pool::{ChannelRankPool, FilterPool, FilterUnit, PoolIdError};
pub use report::{Availability, ExecMode, OpBreakdown, QueryRecord, ServeReport, UnitAvailability};
pub use submit::{semi_join_spec, spec_from_plan, workload_from_plans, Lowered, SubmitError};
pub use workload::{
    uniform_keys, zipf_keys, AggFn, Arrivals, KeyRangeOverflow, KeyRanges, PredicateMix, QueryOp,
    QuerySpec, Workload, MAX_KEY_RANGES,
};
