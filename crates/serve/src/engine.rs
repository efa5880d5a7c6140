//! The discrete-event serving engine.
//!
//! # Queue model and the filter-unit pool
//!
//! Queries arrive (open- or closed-loop, see [`crate::workload`]), pass
//! admission control — a bounded FIFO queue that sheds arrivals once
//! [`ServeConfig::max_queue`] queries are waiting, the backpressure signal
//! an upstream client would see as a fast-fail — and are dispatched onto
//! free filter units by the configured [`SchedPolicy`]. The schedulable
//! pool is a first-class [`FilterPool`]: the engine schedules over dense
//! unit ids and the pool maps each id to its `{channel, rank}`
//! coordinates, so the same event loop drives a single DIMM's rank vector
//! (a one-channel [`crate::pool::ChannelRankPool`]) or a channels × ranks
//! pool over an interleaved multi-channel memory system — every per-unit
//! resource (device, driver, replica, output buffers) indexes by unit id,
//! and each unit's DRAM traffic goes to its own channel's module. A
//! dispatched query is sharded over up to [`ServeConfig::fanout`] free
//! units and runs as one steppable [`SelectSession`] per shard, exactly
//! the rank-parallel machinery of [`jafar_core::parallel`], so many
//! in-flight queries interleave in simulated time instead of serializing.
//! A session scans one predicate lane per query it serves (a fused batch
//! has several) or per key range of a multi-range semi-join; a plain
//! select is the one-lane session.
//!
//! # Event loop and determinism
//!
//! The engine is a discrete-event simulation with six event classes —
//! CPU-scan completion, query arrival, shard rescue, unit-free, canary
//! probe, SLO degradation — kept in explicit queues and processed in
//! strict `(time, class, id)` order. Device work is *not* an event:
//! between events the engine always steps the furthest-behind live
//! session (ties by query id then unit), the same min-cursor discipline
//! as [`jafar_core::parallel`], and only processes the next event once
//! every live session's clock has passed it. Stepping a session makes no
//! scheduling decisions, so letting shards run ahead of the event clock
//! is safe: units are timing-independent (channels even more so — they
//! share no DRAM module at all), and every *decision* (admit, shed,
//! dispatch, rescue, probe, degrade) happens at an event, in
//! deterministic order. A serve run is therefore a pure function of
//! `(workload, policy, config, pool)` — the golden tests hold
//! byte-for-byte, and a one-channel pool reproduces the pre-pool engine
//! exactly.
//!
//! # Degradation ladder
//!
//! A dispatched query gets the widest healthy slice of the machine the
//! policy allows: unit-parallel when several units are free, single-
//! device when only one is. Queries with an SLO that are still *queued*
//! are watched by a degradation deadline: at
//! `max(now, host_free, deadline − est_cpu, submitted)` — the last
//! instant the host CPU scan can still make the deadline, never earlier
//! than submission — the query abandons the device queue and runs on the
//! host instead. The CPU rung is timed analytically per operator class
//! ([`ServeConfig::cpu_fixed`] + [`ServeConfig::cpu_per_row`]·rows +
//! [`ServeConfig::cpu_per_out_byte`]·out-bytes, where a select emits one
//! bit per row, a scalar aggregate 8 bytes and a k-column projection up
//! to k·8·rows bytes) but its *result* is computed functionally, so it
//! is bit-identical to the device path — including the aggregate scalar,
//! which a degraded query must return unchanged. Within the device path
//! each unit keeps its own
//! [`ResilientDriver`] across queries, so the PR-1 recovery ladder
//! (watchdog → retries → circuit breaker) composes underneath.
//!
//! # Failure domain: park → rescue → migrate → probe
//!
//! Shards step with the driver's *fail-fast* ladder: a page that
//! exhausts its retries parks the session at its page boundary instead
//! of crawling through the per-page CPU scan. The park marks the unit
//! **suspect** and schedules a rescue event at the park time; the rescue
//! **quarantines** the unit (out of the schedulable pool), salvages the
//! shard's completed bitset prefix functionally — legal even on a dark
//! unit, since only the timed path is perturbed — and requeues the shard
//! *above* host-degrade in the ladder. Dispatch serves rescued shards
//! before queued queries: the salvaged prefix is replayed onto the new
//! unit's buffer as whole 64-byte lines (shards start on
//! 512-row boundaries and parks happen at page boundaries, so the prefix
//! is line-aligned; only the global tail shard can have a partial line,
//! and the bytes past it are unused buffer), then the session resumes
//! from its row cursor under a fresh lease — the new unit may live on a
//! different channel, in which case the replay crosses modules. Migration
//! preserves the min-cursor determinism argument because the rescue
//! decision, the target unit and the resume time are all fixed at events
//! — the resumed session is just another timing-independent shard.
//! Failed one-shot aggregate jobs requeue the same way at shard
//! granularity (the leftover jobs fold on the host, serialized on
//! `host_free`). A quarantined unit dwells, then a **canary** select
//! probes it: success repairs the unit back into the pool (its breaker
//! reset), failure doubles the dwell. While units are quarantined,
//! admission tightens the shedding bound proportionally to the surviving
//! pool; if *no* schedulable unit remains, rescued shards finish
//! functionally on the host and queued queries degrade — so every
//! admitted query still completes, byte-identical, or was explicitly
//! shed at admission.

use crate::health::{HealthTracker, UnitState, CANARY_ROWS};
use crate::policy::SchedPolicy;
use crate::pool::FilterPool;
use crate::report::{Availability, ExecMode, QueryRecord, ServeReport};
use crate::workload::{AggFn, Arrivals, QueryOp, Workload};
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;
use jafar_core::aggregate::{AggOp, AggregateJob};
use jafar_core::device::{JafarDevice, MAX_FUSED_LANES};
use jafar_core::driver::{
    FusedSelectRequest, ResilienceConfig, ResilientDriver, SelectSession, DEGRADED_LINE_COST,
};
use jafar_core::interleave::aligned_chunk;
use jafar_core::predicate::Predicate;
use jafar_core::project::ProjectJob;
use jafar_dram::{DramModule, PhysAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Shards start on 512-row boundaries: 512 rows of bitset are 64 bytes,
/// so per-unit output offsets stay 64-byte aligned (the driver's CPU
/// fallback writes whole aligned lines) and shard boundaries fall on
/// exact bitset bytes.
const CHUNK_ROWS: u64 = 512;

/// Rows the admission-time skew detector samples from a group-by's
/// qualifying set (deterministic stride sampling).
const SKEW_SAMPLE: usize = 64;

/// Tuning knobs of the serving engine.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission-queue bound: arrivals beyond this many waiting queries
    /// are shed (backpressure). At least 1.
    pub max_queue: usize,
    /// Maximum filter units one query is sharded over. At least 1.
    pub fanout: usize,
    /// Fixed cost of a degraded host CPU scan (setup + planning).
    pub cpu_fixed: Tick,
    /// Per-row cost of a degraded host CPU scan.
    pub cpu_per_row: Tick,
    /// Per-output-byte cost of a degraded host CPU scan — what
    /// differentiates the operator classes in the service estimate: a
    /// select materializes one bit per row, a scalar aggregate a single
    /// 8-byte value, a k-column projection up to k·8·rows bytes.
    pub cpu_per_out_byte: Tick,
    /// Recovery policy for the per-unit resilient drivers. The engine
    /// itself reads none of it: `jafar-sim`'s serving tiers build each
    /// unit's driver from it, but take `costs` and `page_bytes` from
    /// their `SystemConfig`, so those two fields have no effect there.
    pub resilience: ResilienceConfig,
    /// Shared-scan fusion window: when a plain select is dispatched, up
    /// to `fuse_window - 1` more selects waiting in the queue (they all
    /// scan the same served column) ride the same device pass as extra
    /// predicate lanes, each materializing its own bitset. Clamped to
    /// [`MAX_FUSED_LANES`]; `1` (the default) disables fusion, so every
    /// select scans as its own one-lane session. Callers sizing output
    /// buffers must provide `fuse_window` bitset slots per unit (one
    /// full-column bitset rounded up to a 64-byte line, per lane).
    pub fuse_window: usize,
    /// Drain every arrival due at an event's instant in that one event
    /// (admitting/shedding the whole batch under the capacity-aware
    /// bound) instead of burning one event per arrival. On: the
    /// default. Identical decisions on fault-free runs — the batch is
    /// processed in the same `(time, id)` order the per-arrival events
    /// would have been.
    pub batch_admission: bool,
    /// Split a group-by's hot keys' rows across units round-robin
    /// instead of hashing each key onto one unit (the JSPIM-style skew
    /// guard). Sound because the per-key fold merges commutatively;
    /// results are byte-identical either way, only the timing differs.
    pub skew_split: bool,
    /// A key is *hot* when it holds at least this percent of the
    /// rows the skew detector samples. Clamped to `1..=100`.
    pub skew_hot_pct: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_queue: 16,
            fanout: 4,
            cpu_fixed: Tick::from_us(2),
            cpu_per_row: Tick::from_ps(1000),
            cpu_per_out_byte: Tick::from_ps(250),
            resilience: ResilienceConfig::default(),
            fuse_window: 1,
            batch_admission: true,
            skew_split: true,
            skew_hot_pct: 25,
        }
    }
}

/// A violated piece of engine bookkeeping — states the event loop can
/// only reach through a bug, surfaced as a typed error (and an
/// `ErrorSurfaced` trace event) instead of a panic, per the workspace's
/// de-panic convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineInvariant {
    /// The EDF picker ran against an empty queue.
    EmptyQueue,
    /// A queue index produced by enumeration no longer resolves.
    QueueIndexVanished,
    /// A shard completed for a query with no in-flight bookkeeping.
    MissingInflight {
        /// The orphaned query.
        query: u32,
    },
    /// A degrade event fired for a query that is not queued.
    DegradeCandidateMissing {
        /// The missing query.
        query: u32,
    },
    /// A rescue event fired for an empty parked-shard slot.
    MissingParkedShard {
        /// The empty slot.
        slot: u32,
    },
}

impl EngineInvariant {
    /// Short machine-readable mnemonic (the `ErrorSurfaced` detail).
    pub fn name(&self) -> &'static str {
        match self {
            EngineInvariant::EmptyQueue => "empty-queue",
            EngineInvariant::QueueIndexVanished => "queue-index-vanished",
            EngineInvariant::MissingInflight { .. } => "missing-inflight",
            EngineInvariant::DegradeCandidateMissing { .. } => "degrade-candidate-missing",
            EngineInvariant::MissingParkedShard { .. } => "missing-parked-shard",
        }
    }
}

impl fmt::Display for EngineInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineInvariant::EmptyQueue => write!(f, "EDF pick on an empty admission queue"),
            EngineInvariant::QueueIndexVanished => {
                write!(f, "admission-queue index vanished between pick and removal")
            }
            EngineInvariant::MissingInflight { query } => {
                write!(f, "query {query} finished a shard with no in-flight entry")
            }
            EngineInvariant::DegradeCandidateMissing { query } => {
                write!(f, "degrade candidate {query} is not in the admission queue")
            }
            EngineInvariant::MissingParkedShard { slot } => {
                write!(f, "rescue event for empty parked-shard slot {slot}")
            }
        }
    }
}

impl std::error::Error for EngineInvariant {}

/// Borrowed machine state the engine schedules onto. The caller (usually
/// `jafar_sim::System::serve`) owns the DRAM modules, the pool topology,
/// the per-unit devices and drivers, and the per-unit column replicas +
/// output buffers; the engine only decides who runs where and when.
pub struct ServeEnv<'a> {
    /// One DRAM module per memory channel, indexed by
    /// [`crate::pool::FilterUnit::channel`]. A single-channel pool is
    /// `vec![&mut module]` — exactly the pre-pool engine's machine.
    pub modules: Vec<&'a mut DramModule>,
    /// The schedulable pool topology: maps dense unit ids to
    /// `{channel, rank}` coordinates. `pool.units()` must
    /// equal every per-unit slice length and `pool.channels()` the
    /// module count.
    pub pool: &'a dyn FilterPool,
    /// One JAFAR device per filter unit; `devices[u]` serves unit `u`.
    pub devices: &'a mut [JafarDevice],
    /// One persistent resilient driver per unit (breaker state spans
    /// queries). Must be as long as `devices`.
    pub drivers: &'a mut [ResilientDriver],
    /// Per-unit 64-byte-aligned base of the column replica on that unit —
    /// a channel-local address within `modules[pool.unit(u).channel]`.
    pub replicas: &'a [PhysAddr],
    /// Per-unit 64-byte-aligned base of that unit's output bitset buffer
    /// (channel-local; reused across queries; a unit runs one shard at a
    /// time).
    pub outs: &'a [PhysAddr],
    /// Per-unit 64-byte-aligned base of that unit's packed projection
    /// output region (channel-local; reused across queries; sized for
    /// the full column, `values.len() · 8` bytes).
    pub proj_outs: &'a [PhysAddr],
    /// Host copy of the column, for the degraded CPU rung's functional
    /// result. Every query scans this full column.
    pub values: &'a [i64],
    /// Host copy of the group-by key column, aligned row-for-row with
    /// `values`. Empty when the workload has no [`QueryOp::GroupBy`]
    /// queries; otherwise must be exactly as long as `values`.
    pub keys: &'a [i64],
    /// Per-unit 64-byte-aligned base of that unit's group-by staging
    /// region (channel-local; reused across queries; sized for the full
    /// column, `values.len() · 8` bytes): partitioned qualifying values
    /// are staged contiguously per group there, so each group folds as
    /// one device aggregate kernel. Empty when the workload has no
    /// group-by queries.
    pub stage_outs: &'a [PhysAddr],
    /// Trace sink for the `QueryAdmitted/Started/Done/Shed` events.
    pub tracer: &'a SharedTracer,
}

/// One in-flight shard: which queries and filter unit it belongs to,
/// where its rows sit within the column, and the session scanning them.
/// `qids` has one entry per predicate lane of the session — one for a
/// plain select, up to [`MAX_FUSED_LANES`] for a fused batch — except a
/// multi-range semi-join, whose one query owns every lane.
struct ActiveShard {
    qids: Vec<u32>,
    unit: usize,
    off: u64,
    rows: u64,
    session: SelectSession,
}

/// Progress of a dispatched device query across its shards.
struct Inflight {
    remaining: u32,
    matched: u64,
    end: Tick,
    /// Per-shard packed projection slices as `(row offset, values)`;
    /// concatenated in row order once the last shard lands.
    proj: Vec<(u64, Vec<i64>)>,
}

/// A shard frozen at its page boundary because its unit's fail-fast
/// ladder gave up, waiting for its rescue event. Per-lane match counts
/// ride along (`matched[i]` belongs to `qids[i]`).
struct ParkedShard {
    qids: Vec<u32>,
    from_unit: usize,
    off: u64,
    rows: u64,
    rows_done: u64,
    matched: Vec<u64>,
}

/// A rescued shard in the requeue rung: cursor plus the salvaged bitset
/// prefix of every predicate lane, ready to resume on any healthy unit
/// (or finish on the host if none remains).
struct RescueShard {
    qids: Vec<u32>,
    from_unit: usize,
    off: u64,
    rows: u64,
    rows_done: u64,
    matched: Vec<u64>,
    prefixes: Vec<Vec<u8>>,
}

/// Event classes, in tie-break priority order at equal times: CPU
/// completions release the host before new decisions, arrivals enter the
/// queue before dispatch can consider them, rescues requeue failed
/// shards before unit-free dispatch hands out the freed capacity, canary
/// probes run after dispatch has first claim on the instant, and
/// degradation — the last resort — only fires if nothing else happens.
const CLASS_CPU_DONE: u8 = 0;
const CLASS_ARRIVAL: u8 = 1;
const CLASS_RESCUE: u8 = 2;
const CLASS_UNIT_FREE: u8 = 3;
const CLASS_PROBE: u8 = 4;
const CLASS_DEGRADE: u8 = 5;

/// [`Engine::slot`]'s entry for a query the engine holds no record of.
const NOT_HELD: u32 = u32::MAX;

/// The serve engine as a steppable object. [`run_serve_checked`] drives
/// it to completion in one call; the cluster tier ([`crate::cluster`])
/// instead interleaves N node engines by advancing each only up to the
/// next fabric event ([`Engine::advance_until`]) and injecting routed
/// arrivals as they are delivered ([`Engine::inject_arrival`]). Both
/// drivers replay the identical `(time, class, id)` decision order, so a
/// node engine's trace is a pure function of the arrivals it is fed.
pub(crate) struct Engine<'a, 'e> {
    env: ServeEnv<'e>,
    cfg: &'a ServeConfig,
    workload: &'a Workload,
    policy: SchedPolicy,
    has_slo: bool,
    think: Option<Tick>,
    /// The records of the queries this engine holds: every query once
    /// its arrival is scheduled or injected, until the cluster frontend
    /// takes it ([`Engine::take_record`]). A single-engine serve
    /// schedules every query in id order, so its records stay in
    /// submission order.
    records: Vec<QueryRecord>,
    /// Device progress of each held query, parallel to `records`.
    inflight: Vec<Option<Inflight>>,
    /// The entries of `inflight` that are `Some`: what
    /// [`Engine::work_pending`] reads instead of scanning them.
    live: usize,
    /// Query id → its index in `records`, or [`NOT_HELD`]. The only
    /// per-query state of a query that was never delivered here.
    slot: Vec<u32>,
    queue: VecDeque<u32>,
    active: Vec<ActiveShard>,
    unit_busy: Vec<bool>,
    served_count: Vec<u64>,
    health: HealthTracker,
    /// Slab of shards frozen between their park and their rescue event
    /// (the rescue event's payload is the slot index).
    parked: Vec<Option<ParkedShard>>,
    /// The requeue rung: rescued shards waiting for a healthy unit.
    rescue_queue: VecDeque<RescueShard>,
    arrivals: BinaryHeap<Reverse<(Tick, u32)>>,
    unit_free_ev: BinaryHeap<Reverse<(Tick, u32)>>,
    cpu_done: BinaryHeap<Reverse<(Tick, u32)>>,
    rescue_ev: BinaryHeap<Reverse<(Tick, u32)>>,
    probe_ev: BinaryHeap<Reverse<(Tick, u32)>>,
    migrations: u64,
    requeues: u64,
    sheds_tightened: u64,
    events: u64,
    host_free: Tick,
    now: Tick,
    next_spec: usize,
    makespan: Tick,
    /// Queries finished since the last [`Engine::take_finished`] — the
    /// completion feed the cluster tier turns into response messages.
    finished: Vec<u32>,
    /// Queries shed since the last [`Engine::take_shed`].
    shed: Vec<u32>,
    /// The key column's dictionary; empty when nothing groups.
    dict: KeyDict,
}

/// Runs `workload` against the machine in `env` under `policy` and
/// returns the per-query records and latency aggregates.
///
/// # Panics
/// Panics if `env` has no units, mismatched per-unit slices, a module
/// count that disagrees with the pool's channel count, an empty column,
/// or (unreachable short of an engine bug) a violated bookkeeping
/// invariant — use [`run_serve_checked`] to observe the latter as a
/// typed error instead.
pub fn run_serve(
    env: ServeEnv<'_>,
    workload: &Workload,
    policy: SchedPolicy,
    cfg: &ServeConfig,
) -> ServeReport {
    run_serve_checked(env, workload, policy, cfg)
        .unwrap_or_else(|inv| panic!("engine invariant violated: {inv}"))
}

/// [`run_serve`] with the engine's bookkeeping invariants surfaced as a
/// typed [`EngineInvariant`] (and an `ErrorSurfaced` trace event) instead
/// of a panic.
///
/// # Panics
/// Panics if `env` has no units, mismatched per-unit slices, a module
/// count that disagrees with the pool's channel count, or an empty
/// column — those are caller contract violations, not engine state.
///
/// # Errors
/// Returns the first violated [`EngineInvariant`]; the trace stream
/// carries a matching `ErrorSurfaced { site: "serve-engine" }` event.
pub fn run_serve_checked(
    env: ServeEnv<'_>,
    workload: &Workload,
    policy: SchedPolicy,
    cfg: &ServeConfig,
) -> Result<ServeReport, EngineInvariant> {
    let mut eng = Engine::build(env, workload, policy, cfg);
    eng.seed_arrivals();
    eng.run()?;
    debug_assert!(
        eng.records
            .iter()
            .all(|r| r.done.is_some() || r.mode == ExecMode::Shed),
        "every query completes or is shed"
    );
    Ok(eng.into_report())
}

/// Bitset lanes a unit's output buffer must hold to serve `workload`
/// under `cfg`: the fusion window, or the widest semi-join's range count
/// if that is larger — a semi-join's ranges always fuse into one scan,
/// even when `fuse_window` is 1. Every `ServeEnv` allocator sizes
/// `outs[u]` as `out_lanes(..) ·` one 64-byte-rounded full-column bitset.
pub fn out_lanes(cfg: &ServeConfig, workload: &Workload) -> u64 {
    (cfg.fuse_window.max(1) as u64).max(workload.max_semi_lanes() as u64)
}

impl<'a, 'e> Engine<'a, 'e> {
    /// Constructs an idle engine over `env` with **no arrivals
    /// scheduled** and no records: a query's record is created when its
    /// arrival is. [`run_serve_checked`] follows this with
    /// [`Engine::seed_arrivals`]; the cluster tier instead feeds arrivals
    /// one at a time via [`Engine::inject_arrival`] as the fabric
    /// delivers them, so a node engine holds only the queries routed to
    /// it.
    ///
    /// # Panics
    /// Panics if `env` has no units, mismatched per-unit slices, a module
    /// count that disagrees with the pool's channel count, an empty
    /// column, or a group-by column of 2^32 rows or more — caller contract
    /// violations, not engine state.
    pub(crate) fn build(
        env: ServeEnv<'e>,
        workload: &'a Workload,
        policy: SchedPolicy,
        cfg: &'a ServeConfig,
    ) -> Engine<'a, 'e> {
        let nunits = env.pool.units();
        assert!(nunits > 0, "serving needs at least one filter unit");
        assert_eq!(env.devices.len(), nunits, "one device per unit");
        assert_eq!(env.drivers.len(), nunits, "one driver per unit");
        assert_eq!(env.replicas.len(), nunits, "one column replica per unit");
        assert_eq!(env.outs.len(), nunits, "one output buffer per unit");
        assert_eq!(
            env.proj_outs.len(),
            nunits,
            "one projection buffer per unit"
        );
        assert_eq!(
            env.modules.len(),
            env.pool.channels(),
            "one DRAM module per pool channel"
        );
        assert!(!env.values.is_empty(), "cannot serve an empty column");
        assert!(
            env.keys.is_empty() || env.keys.len() == env.values.len(),
            "group-by key column must align row-for-row with the served column"
        );
        let groups = workload
            .specs
            .iter()
            .any(|s| matches!(s.op, QueryOp::GroupBy { .. }));
        if groups {
            assert_eq!(
                env.keys.len(),
                env.values.len(),
                "a group-by workload needs a key column"
            );
            assert_eq!(
                env.stage_outs.len(),
                nunits,
                "a group-by workload needs one staging buffer per unit"
            );
            assert!(
                u32::try_from(env.values.len()).is_ok(),
                "a group-by column has fewer than 2^32 rows"
            );
        }

        let n = workload.len();
        let has_slo = workload
            .specs
            .iter()
            .any(|s| s.slo.or(workload.slo).is_some());
        Engine {
            cfg,
            workload,
            policy,
            has_slo,
            think: None,
            records: Vec::new(),
            inflight: Vec::new(),
            live: 0,
            slot: vec![NOT_HELD; n],
            queue: VecDeque::new(),
            active: Vec::new(),
            unit_busy: vec![false; nunits],
            served_count: vec![0; nunits],
            health: HealthTracker::new(nunits),
            parked: Vec::new(),
            rescue_queue: VecDeque::new(),
            arrivals: BinaryHeap::new(),
            unit_free_ev: BinaryHeap::new(),
            cpu_done: BinaryHeap::new(),
            rescue_ev: BinaryHeap::new(),
            probe_ev: BinaryHeap::new(),
            migrations: 0,
            requeues: 0,
            sheds_tightened: 0,
            events: 0,
            host_free: Tick::ZERO,
            now: Tick::ZERO,
            next_spec: n,
            makespan: Tick::ZERO,
            finished: Vec::new(),
            shed: Vec::new(),
            dict: if groups {
                KeyDict::new(env.keys)
            } else {
                KeyDict::default()
            },
            env,
        }
    }

    /// Schedules the workload's own arrival process: every open-loop
    /// instant up front, or the first client wave of a closed loop (each
    /// finished or shed query schedules the next client). Either way
    /// every query is scheduled, in id order.
    pub(crate) fn seed_arrivals(&mut self) {
        let n = self.workload.len();
        self.records.reserve_exact(n);
        self.inflight.reserve_exact(n);
        match &self.workload.arrivals {
            Arrivals::Open(times) => {
                assert_eq!(times.len(), n, "one arrival instant per query");
                for (i, &t) in times.iter().enumerate() {
                    self.schedule(i as u32, t);
                }
                self.next_spec = n;
            }
            &Arrivals::Closed { clients, think } => {
                self.think = Some(think);
                let first = (clients as usize).min(n);
                for i in 0..first {
                    self.schedule(i as u32, Tick::ZERO);
                }
                self.next_spec = first;
            }
        }
    }

    /// Schedules query `qid`'s arrival at `t`, creating its record if the
    /// engine holds none.
    fn schedule(&mut self, qid: u32, t: Tick) {
        if self.slot[qid as usize] == NOT_HELD {
            self.slot[qid as usize] = self.records.len() as u32;
            self.records.push(QueryRecord::pending(
                qid,
                &self.workload.specs[qid as usize],
            ));
            self.inflight.push(None);
        }
        self.arrivals.push(Reverse((t, qid)));
    }

    /// The index of held query `qid` in `records` and `inflight`.
    fn at(&self, qid: u32) -> usize {
        self.slot[qid as usize] as usize
    }

    /// The record of held query `qid`.
    fn rec(&self, qid: u32) -> &QueryRecord {
        &self.records[self.at(qid)]
    }

    /// The record of held query `qid`, mutably.
    fn rec_mut(&mut self, qid: u32) -> &mut QueryRecord {
        let i = self.at(qid);
        &mut self.records[i]
    }

    /// Consumes the finished engine into its [`ServeReport`], stamping
    /// pool coordinates onto the per-unit availability ledger.
    pub(crate) fn into_report(mut self) -> ServeReport {
        self.health.finalize(self.makespan);
        let nunits = self.unit_busy.len();
        let availability = Availability {
            units: (0..nunits)
                .map(|u| {
                    // The tracker knows only unit ids; stamp the pool's
                    // physical coordinates onto the record here.
                    let mut a = self.health.availability(u);
                    let fu = self.env.pool.unit(u);
                    a.channel = fu.channel as u32;
                    a.rank = fu.rank as u32;
                    a
                })
                .collect(),
            migrations: self.migrations,
            requeues: self.requeues,
            sheds_tightened: self.sheds_tightened,
        };
        ServeReport {
            records: self.records,
            makespan: self.makespan,
            policy: self.policy.name(),
            availability,
            events: self.events,
        }
    }

    /// Schedules an externally routed arrival of query `qid` at absolute
    /// time `t` (the fabric's delivery instant). Sound as long as `t` is
    /// not in the engine's processed past — the cluster loop guarantees
    /// this by advancing a node only up to the next fabric event before
    /// injecting. (Times in the past would be clamped to `now` by the
    /// event loop rather than corrupting state, but then delivery order
    /// and admission snapshots would no longer replay.)
    pub(crate) fn inject_arrival(&mut self, qid: u32, t: Tick) {
        self.schedule(qid, t);
    }

    /// When the engine next makes a decision: the earlier of its best
    /// pending event and its furthest-behind active shard's clock.
    /// `None` when fully drained (the run-loop termination condition).
    pub(crate) fn next_time(&self) -> Option<Tick> {
        let ev = self.best_event().map(|(t, _, _)| t);
        let shard = self.active.iter().map(|s| s.session.cursor()).min();
        match (ev, shard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Queries finished since the last call, in completion order.
    pub(crate) fn take_finished(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.finished)
    }

    /// Queries shed by admission since the last call.
    pub(crate) fn take_shed(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.shed)
    }

    /// Moves the record of a finished or shed query `qid` out of the
    /// engine, which holds no state of it afterwards. The last record
    /// takes the freed index, so a node engine's records stay as many as
    /// the queries it has not answered yet.
    pub(crate) fn take_record(&mut self, qid: u32) -> QueryRecord {
        let i = self.at(qid);
        self.slot[qid as usize] = NOT_HELD;
        debug_assert!(
            self.inflight[i].is_none(),
            "an answered query has no shards"
        );
        self.inflight.swap_remove(i);
        let rec = self.records.swap_remove(i);
        if let Some(moved) = self.records.get(i) {
            self.slot[moved.id as usize] = i as u32;
        }
        rec
    }

    /// Current admission-queue depth — the router's load signal.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Units currently in the schedulable pool (healthy, not
    /// quarantined) — the router's health signal.
    pub(crate) fn schedulable_units(&self) -> usize {
        self.health.schedulable_count()
    }
}

impl Engine<'_, '_> {
    fn run(&mut self) -> Result<(), EngineInvariant> {
        self.advance_until(Tick::MAX)
    }

    /// Runs the engine forward, processing every event and shard step
    /// whose decision time is `<= limit`, then stops. `limit ==
    /// Tick::MAX` reproduces a full run exactly. Repeated calls with
    /// non-decreasing limits replay the identical `(time, class, id)`
    /// decision sequence a single full run would make over the same
    /// arrivals, because the loop's choice at each iteration depends
    /// only on current state and stopping merely postpones it.
    pub(crate) fn advance_until(&mut self, limit: Tick) -> Result<(), EngineInvariant> {
        let r = self.advance_until_inner(limit);
        if let Err(inv) = &r {
            self.env.tracer.emit(
                self.now,
                EventKind::ErrorSurfaced {
                    site: "serve-engine",
                    detail: inv.name(),
                },
            );
        }
        r
    }

    fn advance_until_inner(&mut self, limit: Tick) -> Result<(), EngineInvariant> {
        loop {
            let event = self.best_event();
            // Always advance the furthest-behind shard first; decisions
            // only happen at events, once every shard's clock passed them.
            let min_shard = self
                .active
                .iter()
                .enumerate()
                .map(|(i, s)| ((s.session.cursor(), s.qids[0], s.unit), i))
                .min()
                .map(|((cursor, _, _), i)| (cursor, i));
            match (min_shard, event) {
                (Some((cursor, idx)), Some((t, _, _))) if cursor <= t => {
                    if cursor > limit {
                        break;
                    }
                    self.step_shard(idx)?;
                }
                (Some((cursor, idx)), None) => {
                    if cursor > limit {
                        break;
                    }
                    self.step_shard(idx)?;
                }
                (_, Some((t, class, payload))) => {
                    if t > limit {
                        break;
                    }
                    self.process_event(t, class, payload)?;
                }
                (None, None) => break,
            }
        }
        Ok(())
    }

    /// True while any query's fate is still undecided. Canary probes are
    /// gated on this: once every query is resolved, pending probes are
    /// moot and processing them would only stretch the run.
    fn work_pending(&self) -> bool {
        !self.queue.is_empty()
            || !self.rescue_queue.is_empty()
            || !self.active.is_empty()
            || !self.arrivals.is_empty()
            || !self.cpu_done.is_empty()
            || !self.rescue_ev.is_empty()
            || self.live > 0
    }

    /// The next event as `(time, class, payload)`, minimal by `(time,
    /// class)`; within one class the heap already yields the smallest id.
    fn best_event(&self) -> Option<(Tick, u8, u32)> {
        let mut best: Option<(Tick, u8, u32)> = None;
        let mut consider = |t: Tick, class: u8, payload: u32| {
            let t = t.max(self.now);
            if best.is_none_or(|(bt, bc, _)| (t, class) < (bt, bc)) {
                best = Some((t, class, payload));
            }
        };
        if let Some(&Reverse((t, qid))) = self.cpu_done.peek() {
            consider(t, CLASS_CPU_DONE, qid);
        }
        if let Some(&Reverse((t, qid))) = self.arrivals.peek() {
            consider(t, CLASS_ARRIVAL, qid);
        }
        if let Some(&Reverse((t, slot))) = self.rescue_ev.peek() {
            consider(t, CLASS_RESCUE, slot);
        }
        if let Some(&Reverse((t, unit))) = self.unit_free_ev.peek() {
            consider(t, CLASS_UNIT_FREE, unit);
        }
        if self.work_pending() {
            if let Some(&Reverse((t, unit))) = self.probe_ev.peek() {
                consider(t, CLASS_PROBE, unit);
            }
        }
        if let Some((t, qid)) = self.degrade_candidate() {
            consider(t, CLASS_DEGRADE, qid);
        }
        best
    }

    fn process_event(&mut self, t: Tick, class: u8, payload: u32) -> Result<(), EngineInvariant> {
        self.now = t;
        self.events += 1;
        match class {
            CLASS_CPU_DONE => {
                self.cpu_done.pop();
                self.finish_query(payload, t);
            }
            CLASS_ARRIVAL => {
                self.arrivals.pop();
                self.arrive(payload, t)?;
                if self.cfg.batch_admission {
                    // Batched admission: every arrival due by this
                    // instant is admitted or shed in this one event, in
                    // the same `(time, id)` heap order its own events
                    // would have fired — one queue drain instead of an
                    // event per arrival. A closed-loop re-arrival with
                    // zero think time lands at `t` and joins the batch.
                    while let Some(&Reverse((at, qid))) = self.arrivals.peek() {
                        if at.max(self.now) > t {
                            break;
                        }
                        // Replay fidelity: the run loop steps any shard
                        // whose clock lags the next event before
                        // processing it, so if a lagging shard exists
                        // the one-at-a-time engine would interleave a
                        // shard step here. Hand back to the loop — the
                        // remaining arrivals fire as their own events in
                        // the identical (time, class, id) order.
                        let lagging = self.active.iter().any(|s| s.session.cursor() <= t);
                        if lagging {
                            break;
                        }
                        self.arrivals.pop();
                        self.arrive(qid, t)?;
                    }
                }
            }
            CLASS_RESCUE => {
                self.rescue_ev.pop();
                self.rescue(payload, t)?;
            }
            CLASS_UNIT_FREE => {
                self.unit_free_ev.pop();
                self.unit_busy[payload as usize] = false;
                self.try_dispatch(t)?;
            }
            CLASS_PROBE => {
                self.probe_ev.pop();
                self.probe(payload, t)?;
            }
            _ => self.degrade(payload, t)?,
        }
        Ok(())
    }

    /// The current admission bound: the configured queue capacity scaled
    /// by the surviving schedulable pool, so quarantined units tighten
    /// shedding instead of letting the queue build up behind capacity the
    /// machine no longer has. With every unit healthy this is exactly
    /// `max_queue`.
    fn admission_bound(&self) -> usize {
        let cap = self.cfg.max_queue.max(1);
        (cap * self.health.schedulable_count())
            .div_ceil(self.unit_busy.len())
            .max(1)
    }

    fn arrive(&mut self, qid: u32, t: Tick) -> Result<(), EngineInvariant> {
        let slo = self.workload.specs[qid as usize].slo.or(self.workload.slo);
        let rec = self.rec_mut(qid);
        rec.submitted = t;
        rec.deadline = slo.map_or(Tick::MAX, |s| t + s);
        let bound = self.admission_bound();
        // One pre-push depth snapshot feeds both the shed decision and
        // the trace events: the depth the arrival *observed*. Emitting
        // the post-push length on the admit branch (as this path once
        // did) made the two branches disagree by one at the boundary —
        // harmless solo, but a skew batched admission would compound.
        let depth = self.queue.len() as u32;
        if self.queue.len() >= bound {
            if self.queue.len() < self.cfg.max_queue.max(1) {
                // Only the tightened bound shed this arrival; the full
                // queue would have admitted it.
                self.sheds_tightened += 1;
            }
            self.rec_mut(qid).mode = ExecMode::Shed;
            self.shed.push(qid);
            self.env
                .tracer
                .emit(t, EventKind::QueryShed { query: qid, depth });
            self.schedule_next_client(t);
        } else {
            self.queue.push_back(qid);
            self.env
                .tracer
                .emit(t, EventKind::QueryAdmitted { query: qid, depth });
            self.try_dispatch(t)?;
            self.drain_to_host_if_stranded(t)?;
        }
        Ok(())
    }

    /// In a closed loop, a finished (or shed) query frees its client to
    /// submit the next spec one think-time later.
    fn schedule_next_client(&mut self, t: Tick) {
        if let Some(think) = self.think {
            if self.next_spec < self.workload.len() {
                self.schedule(self.next_spec as u32, t + think);
                self.next_spec += 1;
            }
        }
    }

    /// A free unit in the schedulable pool, lowest id first.
    fn free_healthy_unit(&self) -> Option<usize> {
        (0..self.unit_busy.len()).find(|&u| !self.unit_busy[u] && self.health.is_schedulable(u))
    }

    /// Per-channel count of busy schedulable units — the cross-channel
    /// load signal the affinity policy balances on.
    fn channel_depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.env.pool.channels()];
        for u in 0..self.unit_busy.len() {
            if self.unit_busy[u] {
                depths[self.env.pool.unit(u).channel] += 1;
            }
        }
        depths
    }

    /// Drains the requeue rung, then the admission queue, onto free
    /// healthy units until one of them runs out. Rescued shards go first:
    /// requeue-on-failure sits *above* host-degrade in the ladder, and a
    /// half-done shard blocks its whole query.
    fn try_dispatch(&mut self, t: Tick) -> Result<(), EngineInvariant> {
        while !self.rescue_queue.is_empty() {
            let Some(u) = self.free_healthy_unit() else {
                break;
            };
            let shard = self
                .rescue_queue
                .pop_front()
                .ok_or(EngineInvariant::EmptyQueue)?;
            self.migrate_shard(shard, u, t);
        }
        loop {
            if self.queue.is_empty() || !self.rescue_queue.is_empty() {
                return Ok(());
            }
            let mut free: Vec<usize> = (0..self.unit_busy.len())
                .filter(|&u| !self.unit_busy[u] && self.health.is_schedulable(u))
                .collect();
            if free.is_empty() {
                return Ok(());
            }
            let pick = match self.policy {
                SchedPolicy::Fifo | SchedPolicy::RankAffinity => 0,
                // Least laxity by host-rung estimate: with heterogeneous
                // operator classes the query whose deadline minus service
                // estimate comes first is the most urgent, not the one
                // whose bare deadline does. Uniform mixes degenerate to
                // plain deadline order.
                SchedPolicy::Edf => self
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &q)| {
                        let rec = self.rec(q);
                        (
                            rec.deadline.saturating_sub(self.cpu_estimate(rec.op)),
                            rec.deadline,
                            q,
                        )
                    })
                    .map(|(i, _)| i)
                    .ok_or(EngineInvariant::EmptyQueue)?,
            };
            let qid = self
                .queue
                .remove(pick)
                .ok_or(EngineInvariant::QueueIndexVanished)?;
            // Shared-scan fusion: a plain select pulls more waiting
            // selects into its device pass as extra predicate lanes —
            // they all scan the same served column, so grouping "by
            // column" is grouping every queued select. Co-riders join
            // in queue order behind the policy's pick; projections keep
            // one lane (their chained projection passes don't fuse) and
            // scalar aggregates their one-shot kernels.
            let mut group = vec![qid];
            let cap = self.cfg.fuse_window.min(MAX_FUSED_LANES);
            if cap >= 2 && self.rec(qid).op == QueryOp::Select {
                let mut i = 0;
                while group.len() < cap && i < self.queue.len() {
                    if self.rec(self.queue[i]).op == QueryOp::Select {
                        let q = self
                            .queue
                            .remove(i)
                            .ok_or(EngineInvariant::QueueIndexVanished)?;
                        group.push(q);
                    } else {
                        i += 1;
                    }
                }
            }
            if self.policy == SchedPolicy::RankAffinity {
                // Cross-channel load balance folds into affinity: prefer
                // units on the least-loaded channel, then closed breakers,
                // then the least-served unit. On a single-channel pool the
                // depth key is constant and this degenerates to the
                // pre-pool affinity order.
                let depths = self.channel_depths();
                free.sort_by_key(|&u| {
                    (
                        depths[self.env.pool.unit(u).channel],
                        self.env.drivers[u].breaker_open(),
                        self.served_count[u],
                        u,
                    )
                });
            }
            self.dispatch_device(&group, &free, t);
        }
    }

    /// Byte stride between per-lane bitset slots within a unit's output
    /// buffer: the full column's bitset rounded up to a whole 64-byte
    /// line, so every lane's slot starts block-aligned (the device
    /// requires it, and the CPU fallback writes whole aligned lines).
    /// Lane 0 sits at the buffer base, so a one-lane select's slot is the
    /// buffer itself.
    fn lane_stride(&self) -> u64 {
        (self.env.values.len() as u64)
            .div_ceil(8)
            .next_multiple_of(64)
    }

    /// Freezes a failed shard into the parked slab and schedules its
    /// rescue event; the unit is suspect until the rescue confirms. The
    /// unit's busy flag stays set — a dark unit frees no capacity. A
    /// fused shard parks all its lanes as one: they share the scan, so
    /// they share the failure.
    #[allow(clippy::too_many_arguments)]
    fn park_shard(
        &mut self,
        qids: Vec<u32>,
        unit: usize,
        off: u64,
        rows: u64,
        rows_done: u64,
        matched: Vec<u64>,
        at: Tick,
    ) {
        if self.health.mark_suspect(unit) {
            self.env.tracer.emit(
                at,
                EventKind::RankHealth {
                    rank: unit as u32,
                    state: UnitState::Suspect.name(),
                },
            );
        }
        let slot = self
            .parked
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.parked.push(None);
                self.parked.len() - 1
            });
        self.parked[slot] = Some(ParkedShard {
            qids,
            from_unit: unit,
            off,
            rows,
            rows_done,
            matched,
        });
        self.rescue_ev.push(Reverse((at, slot as u32)));
    }

    /// Quarantines `unit` (idempotent) and schedules its first canary
    /// probe. The unit leaves the schedulable pool until a canary
    /// completes on it.
    fn quarantine_unit(&mut self, unit: usize, at: Tick) {
        if let Some(probe_at) = self.health.quarantine(unit, at) {
            self.unit_busy[unit] = true;
            self.env.tracer.emit(
                at,
                EventKind::RankHealth {
                    rank: unit as u32,
                    state: UnitState::Quarantined.name(),
                },
            );
            self.probe_ev.push(Reverse((probe_at, unit as u32)));
        }
    }

    /// The rescue event for a parked shard: quarantine the unit, salvage
    /// the completed bitset prefix of *every* predicate lane functionally
    /// (the functional store is intact on a dark unit — only the timed
    /// path is perturbed), and push the shard onto the requeue rung.
    fn rescue(&mut self, slot: u32, t: Tick) -> Result<(), EngineInvariant> {
        let shard = self.parked[slot as usize]
            .take()
            .ok_or(EngineInvariant::MissingParkedShard { slot })?;
        self.quarantine_unit(shard.from_unit, t);
        let ch = self.env.pool.unit(shard.from_unit).channel;
        let stride = self.lane_stride();
        let nbytes = shard.rows_done.div_ceil(8) as usize;
        // One prefix per predicate lane — `matched` is per-lane, so its
        // length is the lane count even for a solo multi-range semi-join
        // (one query, several lanes).
        let prefixes: Vec<Vec<u8>> = (0..shard.matched.len())
            .map(|lane| {
                let mut prefix = vec![0u8; nbytes];
                self.env.modules[ch].data().read(
                    PhysAddr(
                        self.env.outs[shard.from_unit].0 + lane as u64 * stride + shard.off / 8,
                    ),
                    &mut prefix,
                );
                prefix
            })
            .collect();
        for &qid in &shard.qids {
            self.env
                .tracer
                .emit(t, EventKind::QueryRequeued { query: qid });
        }
        self.rescue_queue.push_back(RescueShard {
            qids: shard.qids,
            from_unit: shard.from_unit,
            off: shard.off,
            rows: shard.rows,
            rows_done: shard.rows_done,
            matched: shard.matched,
            prefixes,
        });
        self.requeues += 1;
        self.try_dispatch(t)?;
        self.drain_to_host_if_stranded(t)
    }

    /// Resumes a rescued shard on healthy unit `u`: the salvaged prefix
    /// is replayed into the new unit's output buffer as whole zero-padded
    /// 64-byte lines (parks happen at page boundaries and shards start on
    /// 512-row boundaries, so the prefix is line-aligned; only the global
    /// tail shard can end mid-line, and the padded bytes beyond it are
    /// unused buffer), charged at the driver's degraded-line cost, then
    /// the session resumes from its row cursor under a fresh lease. The
    /// new unit may sit on a different channel — the replay simply writes
    /// into that channel's module.
    fn migrate_shard(&mut self, shard: RescueShard, u: usize, t: Tick) {
        let ch = self.env.pool.unit(u).channel;
        let stride = self.lane_stride();
        let base = self.env.outs[u].0 + shard.off / 8;
        let mut cost = Tick::ZERO;
        for (lane, prefix) in shard.prefixes.iter().enumerate() {
            let lane_base = base + lane as u64 * stride;
            for (i, chunk) in prefix.chunks(64).enumerate() {
                let mut line = [0u8; 64];
                line[..chunk.len()].copy_from_slice(chunk);
                self.env.modules[ch]
                    .data_mut()
                    .write(PhysAddr(lane_base + i as u64 * 64), &line);
                cost += DEGRADED_LINE_COST;
            }
        }
        let col_addr = PhysAddr(self.env.replicas[u].0 + shard.off * 8);
        // The resumed session's lanes must mirror the parked one's:
        // `lane_preds` re-derives them from the records (a solo
        // multi-range semi-join resumes fused over its key ranges, not
        // its envelope).
        let preds = self.lane_preds(&shard.qids);
        debug_assert_eq!(preds.len(), shard.matched.len(), "lane count is stable");
        let req = FusedSelectRequest {
            col_addr,
            rows: shard.rows,
            out_addrs: (0..preds.len())
                .map(|lane| PhysAddr(base + lane as u64 * stride))
                .collect(),
            preds,
        };
        let session = self.env.drivers[u].resume_session(
            self.env.modules[ch],
            req,
            shard.rows_done,
            shard.matched,
            t + cost,
        );
        for &qid in &shard.qids {
            self.env.tracer.emit(
                t,
                EventKind::ShardMigrated {
                    query: qid,
                    from: shard.from_unit as u32,
                    to: u as u32,
                    row: shard.rows_done,
                },
            );
        }
        self.active.push(ActiveShard {
            qids: shard.qids,
            unit: u,
            off: shard.off,
            rows: shard.rows,
            session,
        });
        self.unit_busy[u] = true;
        self.served_count[u] += 1;
        self.migrations += 1;
    }

    /// When no schedulable unit remains, the requeue rung falls through
    /// to its floor: rescued shards finish functionally on the host
    /// (serialized on `host_free`) and queued queries degrade — every
    /// admitted query still completes.
    fn drain_to_host_if_stranded(&mut self, t: Tick) -> Result<(), EngineInvariant> {
        if self.health.schedulable_count() > 0 {
            return Ok(());
        }
        while let Some(shard) = self.rescue_queue.pop_front() {
            self.host_finish_shard(shard, t)?;
        }
        while let Some(&qid) = self.queue.front() {
            let at = t.max(self.host_free);
            self.degrade(qid, at)?;
        }
        Ok(())
    }

    /// The requeue rung's floor: recompute the full shard functionally on
    /// the host at the degraded-scan cost, serialized on `host_free`, and
    /// book it as the shard's completion. The salvaged prefixes are
    /// ignored — recounting the whole shard from the host copy is simpler
    /// and byte-identical. A fused shard's lanes are independent host
    /// scans here: the host has no parallel comparator array, so each
    /// lane pays the full degraded-scan cost in turn, while a multi-range
    /// semi-join's union comes out of one scan and is priced as one.
    fn host_finish_shard(&mut self, shard: RescueShard, t: Tick) -> Result<(), EngineInvariant> {
        let rows = &self.env.values[shard.off as usize..(shard.off + shard.rows) as usize];
        for &qid in &shard.qids {
            let begin = self.host_free.max(t);
            let i = self.at(qid);
            let rec = &mut self.records[i];
            let (bytes, matched, projected) = host_select(rows, rec.lo, rec.hi, rec.op);
            let done = begin + host_scan_cost(self.cfg, shard.rows, rec.op);
            self.host_free = done;
            let at = (shard.off / 8) as usize;
            rec.bitset[at..at + bytes.len()].copy_from_slice(&bytes);
            self.complete_shard(qid, done, matched, projected.map(|vals| (shard.off, vals)))?;
        }
        Ok(())
    }

    /// Dispatches a query group onto up to `fanout` of the `free` units
    /// (in the policy's preference order) with the execution shape its
    /// operator needs: selects and projections open steppable sessions,
    /// scalar aggregates run eagerly as one-shot kernels. A group longer
    /// than one is always a fused select batch.
    fn dispatch_device(&mut self, qids: &[u32], free: &[usize], t: Tick) {
        if qids.len() > 1 {
            return self.dispatch_select(qids, free, t);
        }
        let qid = qids[0];
        match self.rec(qid).op {
            QueryOp::Select | QueryOp::Project { .. } => self.dispatch_select(qids, free, t),
            QueryOp::SelectCount => self.dispatch_agg(qid, free, t, AggOp::Count),
            QueryOp::SelectAgg(f) => self.dispatch_agg(qid, free, t, agg_op(f)),
            // A semi-join is a select datapath client whose lanes are its
            // key ranges: one range runs as the one-lane select over it,
            // the empty set as the one-lane select over its empty
            // envelope, and more ranges fuse into one multi-lane scan per
            // shard, all lanes owned by the one query.
            QueryOp::SemiJoin { .. } => self.dispatch_select(qids, free, t),
            QueryOp::GroupBy { agg } => self.dispatch_group_by(qid, free, t, agg),
        }
    }

    /// The predicate lanes a dispatch group scans: one `(lo, hi)` per
    /// fused query — except a semi-join, which never fuses and whose lanes
    /// always come from its build-side key ranges, never from its record's
    /// `[lo, hi]`: one lane per range (disjoint, so the union bitset is the
    /// lanes' OR and the match count the lanes' sum), and one lane over
    /// the empty envelope `(i64::MAX, i64::MIN)` for the empty set. The
    /// host rungs read the same ranges, so no rung answers differently.
    fn lane_preds(&self, qids: &[u32]) -> Vec<(i64, i64)> {
        if let [qid] = qids {
            if let QueryOp::SemiJoin { ranges } = self.rec(*qid).op {
                if ranges.is_empty() {
                    return vec![ranges.envelope()];
                }
                return ranges.as_slice().to_vec();
            }
        }
        qids.iter()
            .map(|&q| {
                let rec = self.rec(q);
                (rec.lo, rec.hi)
            })
            .collect()
    }

    /// Shards a select (or the select pass of a projection, or a
    /// semi-join) over the free units and opens one session per shard,
    /// each lane's bitset landing in its own stride-separated slot of the
    /// unit's output buffer — one scan of the shard serves every lane,
    /// whether the lanes are fused queries or one semi-join's key ranges.
    fn dispatch_select(&mut self, qids: &[u32], free: &[usize], t: Tick) {
        let rows = self.env.values.len() as u64;
        let k = free.len().min(self.cfg.fanout.max(1)) as u64;
        let chunk = aligned_chunk(rows, k, CHUNK_ROWS);
        let stride = self.lane_stride();
        let preds = self.lane_preds(qids);
        let mut off = 0u64;
        let mut used = 0u32;
        for &u in free {
            if off >= rows {
                break;
            }
            let len = chunk.min(rows - off);
            let ch = self.env.pool.unit(u).channel;
            let req = FusedSelectRequest {
                col_addr: PhysAddr(self.env.replicas[u].0 + off * 8),
                rows: len,
                preds: preds.clone(),
                out_addrs: (0..preds.len())
                    .map(|lane| PhysAddr(self.env.outs[u].0 + lane as u64 * stride + off / 8))
                    .collect(),
            };
            let session = self.env.drivers[u].start_session(self.env.modules[ch], req, t);
            self.active.push(ActiveShard {
                qids: qids.to_vec(),
                unit: u,
                off,
                rows: len,
                session,
            });
            self.unit_busy[u] = true;
            self.served_count[u] += 1;
            off += len;
            used += 1;
        }
        for &qid in qids {
            let i = self.at(qid);
            self.inflight[i] = Some(Inflight {
                remaining: used,
                matched: 0,
                end: Tick::ZERO,
                proj: Vec::new(),
            });
            self.live += 1;
            self.start_query(qid, t, used, qids.len() > 1);
            self.records[i].bitset = vec![0u8; rows.div_ceil(8) as usize];
        }
    }

    /// Marks `qid` started at `t` on `ranks` ranks (on the host at zero)
    /// and traces it: a fused select starts `"fused"`, anything else
    /// `"cpu"`, `"single"` or `"parallel"` by its rank count.
    fn start_query(&mut self, qid: u32, t: Tick, ranks: u32, fused: bool) {
        let rec = self.rec_mut(qid);
        rec.started = Some(t);
        rec.mode = match ranks {
            0 => ExecMode::Cpu,
            _ => ExecMode::Device { ranks },
        };
        let mode = match ranks {
            _ if fused => "fused",
            0 => "cpu",
            1 => "single",
            _ => "parallel",
        };
        let op = rec.op.name();
        self.env.tracer.emit(
            t,
            EventKind::QueryStarted {
                query: qid,
                mode,
                op,
                ranks,
            },
        );
    }

    /// Shards a scalar aggregate over the free units as eager one-shot
    /// kernels under each unit's resilient driver. Aggregates have no
    /// steppable session, and running a kernel makes no scheduling
    /// decisions, so executing it ahead of the event clock is the same
    /// min-cursor argument that lets select shards run ahead: units are
    /// timing-independent, each is freed at its true end via a unit-free
    /// event, and the query finishes at the max shard end. A unit whose
    /// ladder exhausts hands its job back instead of folding in place:
    /// the unit is quarantined, the job returns to the head of the list,
    /// and whatever no healthy unit took folds on the host, serialized on
    /// `host_free`. Partials merge commutatively with the device kernel's
    /// exact semantics, so the merge is shard-order independent.
    fn dispatch_agg(&mut self, qid: u32, free: &[usize], t: Tick, op: AggOp) {
        let rows = self.env.values.len() as u64;
        let k = free.len().min(self.cfg.fanout.max(1)) as u64;
        let chunk = aligned_chunk(rows, k, CHUNK_ROWS);
        let (lo, hi, query_op) = {
            let rec = self.rec(qid);
            (rec.lo, rec.hi, rec.op)
        };
        let mut jobs: VecDeque<(u64, u64)> = VecDeque::new();
        let mut off = 0u64;
        while off < rows {
            let len = chunk.min(rows - off);
            jobs.push_back((off, len));
            off += len;
        }
        let mut used = 0u32;
        let mut count = 0u64;
        let mut acc: Option<i64> = None;
        let mut end = t;
        let mut requeued = false;
        for &u in free {
            let Some((off, len)) = jobs.pop_front() else {
                break;
            };
            let job = AggregateJob {
                col_addr: PhysAddr(self.env.replicas[u].0 + off * 8),
                rows: len,
                op,
                filter: Some(Predicate::Between(lo, hi)),
            };
            let ch = self.env.pool.unit(u).channel;
            match self.env.drivers[u].try_run_aggregate(
                &mut self.env.devices[u],
                self.env.modules[ch],
                job,
                t,
            ) {
                Ok(out) => {
                    count += out.count;
                    acc = merge_agg(op, acc, out.value);
                    end = end.max(out.end);
                    self.unit_busy[u] = true;
                    self.served_count[u] += 1;
                    self.unit_free_ev
                        .push(Reverse((out.end.max(self.now), u as u32)));
                    used += 1;
                }
                Err(t_fail) => {
                    jobs.push_front((off, len));
                    self.quarantine_unit(u, t_fail);
                    if !requeued {
                        requeued = true;
                        self.requeues += 1;
                        self.env
                            .tracer
                            .emit(t_fail, EventKind::QueryRequeued { query: qid });
                    }
                }
            }
        }
        while let Some((off, len)) = jobs.pop_front() {
            let begin = self.host_free.max(t);
            let slice = &self.env.values[off as usize..(off + len) as usize];
            let mut c = 0u64;
            let mut v: Option<i64> = None;
            for &x in slice.iter().filter(|&&x| x >= lo && x <= hi) {
                c += 1;
                v = op.step(v, x);
            }
            let done = begin + host_scan_cost(self.cfg, len, query_op);
            self.host_free = done;
            end = end.max(done);
            count += c;
            acc = merge_agg(op, acc, v);
        }
        self.start_query(qid, t, used, false);
        let rec = self.rec_mut(qid);
        rec.matched = count;
        rec.agg = match op {
            AggOp::Count => Some(count as i64),
            _ => acc,
        };
        self.finish_query(qid, end);
    }

    /// Serves a keyed group-by as a rank-partitioned aggregation: the
    /// qualifying rows' values are partitioned across the free units by
    /// key hash, each unit stages its partition's values contiguously per
    /// group (64-byte-aligned groups in the unit's staging buffer, priced
    /// per staged line plus a per-row scatter charge), folds every group
    /// with one device aggregate kernel, and the frontend merges the
    /// per-unit partials commutatively — so the merged `(key, count,
    /// value)` rows are identical however the rows were partitioned.
    /// [`stage_group_by`] lays the partitions out over the serve's key
    /// dictionary.
    ///
    /// That order-independence is what makes the skew guard sound: a
    /// sampled key histogram at dispatch flags *hot* keys
    /// ([`ServeConfig::skew_hot_pct`] of the sample), and their rows are
    /// dealt round-robin across all used units instead of hashing onto
    /// one — a JSPIM-style split that converts a hot-key hotspot into
    /// balanced partitions without changing a byte of the result.
    ///
    /// The failure ladder mirrors [`Engine::dispatch_agg`]: a unit whose
    /// kernel ladder exhausts is quarantined and its *remaining* groups
    /// fold on the host, serialized on `host_free`; partials already
    /// folded on the device are kept (the merge is commutative).
    fn dispatch_group_by(&mut self, qid: u32, free: &[usize], t: Tick, f: AggFn) {
        let op = agg_op(f);
        let (lo, hi) = {
            let rec = self.rec(qid);
            (rec.lo, rec.hi)
        };
        let units: Vec<usize> = free.iter().copied().take(self.cfg.fanout.max(1)).collect();
        let staged = stage_group_by(&self.dict, self.env.values, lo, hi, units.len(), self.cfg);
        for &id in &staged.hot {
            self.env.tracer.emit(
                t,
                EventKind::SkewSplit {
                    query: qid,
                    key: self.dict.keys[id as usize],
                    parts: units.len() as u32,
                },
            );
        }

        // Per key id: rows folded and the merged partial.
        let mut partials: Vec<(u64, Option<i64>)> = vec![(0, None); self.dict.keys.len()];
        let mut host_groups: Vec<StagedGroup> = Vec::new();
        let mut used = 0u32;
        let mut end = t;
        let mut requeued = false;
        for (part, &u) in staged.units.iter().zip(&units) {
            if part.rows == 0 {
                continue;
            }
            // Lay the groups out in the unit's staging buffer, each one's
            // values 64-byte-aligned so one aggregate kernel folds it in
            // place.
            let groups = &staged.groups[part.groups.clone()];
            let ch = self.env.pool.unit(u).channel;
            let base = self.env.stage_outs[u];
            let data = self.env.modules[ch].data_mut();
            for g in groups {
                data.write_i64s(PhysAddr(base.0 + g.off * 8), staged.values(g));
            }
            // Scatter pricing: a per-row partition charge plus one
            // degraded-line charge per staged 64-byte line.
            let mut unit_t =
                t + self.cfg.cpu_per_row * part.rows + DEGRADED_LINE_COST * part.span.div_ceil(8);
            let mut failed_at: Option<Tick> = None;
            let mut done_groups = 0usize;
            for (gi, g) in groups.iter().enumerate() {
                let job = AggregateJob {
                    col_addr: PhysAddr(base.0 + g.off * 8),
                    rows: g.len as u64,
                    op,
                    filter: None,
                };
                match self.env.drivers[u].try_run_aggregate(
                    &mut self.env.devices[u],
                    self.env.modules[ch],
                    job,
                    unit_t,
                ) {
                    Ok(out) => {
                        unit_t = out.end;
                        let e = &mut partials[g.id as usize];
                        e.0 += out.count;
                        e.1 = merge_agg(op, e.1, out.value);
                        done_groups = gi + 1;
                    }
                    Err(t_fail) => {
                        failed_at = Some(t_fail);
                        break;
                    }
                }
            }
            if let Some(t_fail) = failed_at {
                self.quarantine_unit(u, t_fail);
                if !requeued {
                    requeued = true;
                    self.requeues += 1;
                    self.env
                        .tracer
                        .emit(t_fail, EventKind::QueryRequeued { query: qid });
                }
                host_groups.extend_from_slice(&groups[done_groups..]);
                end = end.max(t_fail);
            } else {
                self.unit_busy[u] = true;
                self.served_count[u] += 1;
                self.unit_free_ev
                    .push(Reverse((unit_t.max(self.now), u as u32)));
                used += 1;
                end = end.max(unit_t);
            }
        }

        // Whatever no healthy unit folded finishes on the host, in key
        // order, serialized on `host_free`, with the device kernel's exact
        // fold semantics — the merged groups stay byte-identical.
        host_groups.sort_by_key(|g| g.id);
        for g in &host_groups {
            let begin = self.host_free.max(t);
            let vs = staged.values(g);
            let acc = vs.iter().fold(None, |acc, &v| op.step(acc, v));
            let cost = self.cfg.cpu_fixed
                + self.cfg.cpu_per_row * (vs.len() as u64)
                + self.cfg.cpu_per_out_byte * 24;
            let done = begin + cost;
            self.host_free = done;
            end = end.max(done);
            let e = &mut partials[g.id as usize];
            e.0 += vs.len() as u64;
            e.1 = merge_agg(op, e.1, acc);
        }
        if staged.words.is_empty() {
            // Nothing qualified: one host setup pass discovers that.
            let done = self.host_free.max(t) + self.cfg.cpu_fixed;
            self.host_free = done;
            end = end.max(done);
        }

        self.start_query(qid, t, used, false);
        let keys = &self.dict.keys;
        let i = self.at(qid);
        let rec = &mut self.records[i];
        rec.matched = staged.words.len() as u64;
        rec.groups = partials
            .iter()
            .zip(keys)
            .filter(|(&(c, _), _)| c > 0)
            .map(|(&(c, a), &k)| (k, c, a))
            .collect();
        self.finish_query(qid, end);
    }

    fn step_shard(&mut self, idx: usize) -> Result<(), EngineInvariant> {
        let shard = &mut self.active[idx];
        let ch = self.env.pool.unit(shard.unit).channel;
        self.env.drivers[shard.unit].step_page_failfast(
            &mut self.env.devices[shard.unit],
            self.env.modules[ch],
            &mut shard.session,
        );
        if shard.session.is_parked() {
            // The unit's fail-fast ladder gave up on a page: freeze the
            // shard at its page boundary and let the rescue event (same
            // tick, deterministic class order) requeue it. A fused
            // shard's lanes park together — per-lane match counts ride
            // into the parked slab.
            let shard = self.active.swap_remove(idx);
            let (rows_done, matched, at) = (
                shard.session.next_row(),
                shard.session.matched().to_vec(),
                shard.session.cursor(),
            );
            self.park_shard(
                shard.qids, shard.unit, shard.off, shard.rows, rows_done, matched, at,
            );
            return Ok(());
        }
        if !shard.session.is_done() {
            return Ok(());
        }
        let shard = self.active.swap_remove(idx);
        let run = shard.session.into_run();
        // Pull the shard's slice of every lane's selection vector out of
        // DRAM now: the unit is reused only after its unit-free event,
        // which is processed strictly later. Lane `l`'s stride-separated
        // slot goes into its query's bitset. A multi-range semi-join owns
        // every lane and ORs them (its ranges are disjoint, so the union's
        // popcount is the lanes' sum).
        let nbytes = shard.rows.div_ceil(8) as usize;
        let at = (shard.off / 8) as usize;
        let stride = self.lane_stride();
        let union = shard.qids.len() < run.matched.len();
        let mut lane_bits = Vec::new();
        for lane in 0..run.matched.len() {
            let qid = shard.qids[if union { 0 } else { lane }];
            let slot = PhysAddr(self.env.outs[shard.unit].0 + lane as u64 * stride + shard.off / 8);
            let i = self.at(qid);
            let bits = &mut self.records[i].bitset[at..at + nbytes];
            if union && lane > 0 {
                lane_bits.resize(nbytes, 0);
                self.env.modules[ch].data().read(slot, &mut lane_bits);
                for (b, l) in bits.iter_mut().zip(&lane_bits) {
                    *b |= l;
                }
            } else {
                self.env.modules[ch].data().read(slot, bits);
            }
        }
        if !shard.rows.is_multiple_of(8) {
            // The buffer is reused across queries and the device
            // preserves (rather than zeroes) bits past the last row in
            // the final partial byte — mask the stale tail off.
            for &qid in &shard.qids {
                self.rec_mut(qid).bitset[at + nbytes - 1] &= (1u8 << (shard.rows % 8)) - 1;
            }
        }
        let mut shard_end = run.end;
        let mut proj_part = None;
        if let QueryOp::Project { k } = self.rec(shard.qids[0]).op {
            // A projection chains k one-shot kernel passes off the
            // finished select: the engine models projecting k same-width
            // columns by re-running the kernel k times against the served
            // replica (each pass reads the shard's bitset slice and packs
            // one column's worth of qualifying values; passes are
            // byte-identical so the record keeps a single copy). The
            // shard's bitset slice starts on a 512-row boundary, so both
            // it and the packed output stay 64-byte aligned.
            let job = ProjectJob {
                col_addr: PhysAddr(self.env.replicas[shard.unit].0 + shard.off * 8),
                rows: shard.rows,
                bitset_addr: PhysAddr(self.env.outs[shard.unit].0 + shard.off / 8),
                out_addr: PhysAddr(self.env.proj_outs[shard.unit].0 + shard.off * 8),
            };
            let mut emitted = 0u64;
            let mut failed_at = None;
            for _ in 0..k.max(1) {
                match self.env.drivers[shard.unit].try_run_project(
                    &mut self.env.devices[shard.unit],
                    self.env.modules[ch],
                    job,
                    shard_end,
                ) {
                    Ok(out) => {
                        shard_end = out.end;
                        emitted = out.emitted;
                    }
                    Err(t_fail) => {
                        failed_at = Some(t_fail);
                        break;
                    }
                }
            }
            if let Some(t_fail) = failed_at {
                // The select finished but a projection pass exhausted the
                // ladder. Park with the full select done (rows_done =
                // rows): the resumed session completes instantly on the
                // new unit and the k passes re-run there — passes are
                // byte-identical, so re-running them all is correct.
                self.park_shard(
                    shard.qids,
                    shard.unit,
                    shard.off,
                    shard.rows,
                    shard.rows,
                    run.matched,
                    t_fail,
                );
                return Ok(());
            }
            // The packed values, decoded a line at a time straight into
            // the part.
            let data = self.env.modules[ch].data();
            let packed = self.env.proj_outs[shard.unit].0 + shard.off * 8;
            let mut vals = Vec::with_capacity(emitted as usize);
            for addr in (packed..packed + emitted * 8).step_by(64) {
                let line = data.read_burst(PhysAddr(addr));
                let words = (emitted as usize - vals.len()).min(8);
                vals.extend(
                    line.as_chunks::<8>().0[..words]
                        .iter()
                        .map(|w| i64::from_le_bytes(*w)),
                );
            }
            proj_part = Some((shard.off, vals));
        }
        self.unit_free_ev
            .push(Reverse((shard_end.max(self.now), shard.unit as u32)));
        for (lane, &qid) in shard.qids.iter().enumerate() {
            let matched = if union {
                run.matched.iter().sum()
            } else {
                run.matched[lane]
            };
            self.complete_shard(qid, shard_end, matched, proj_part.take())?;
        }
        Ok(())
    }

    /// Books one finished shard (device or host) against its query's
    /// in-flight bookkeeping; the last shard assembles the record and
    /// finishes the query.
    fn complete_shard(
        &mut self,
        qid: u32,
        end: Tick,
        matched: u64,
        proj_part: Option<(u64, Vec<i64>)>,
    ) -> Result<(), EngineInvariant> {
        let i = self.at(qid);
        let fl = self
            .inflight
            .get_mut(i)
            .and_then(Option::as_mut)
            .ok_or(EngineInvariant::MissingInflight { query: qid })?;
        fl.remaining -= 1;
        fl.matched += matched;
        fl.end = fl.end.max(end);
        if let Some(part) = proj_part {
            fl.proj.push(part);
        }
        if fl.remaining > 0 {
            return Ok(());
        }
        let fl = self.inflight[i]
            .take()
            .ok_or(EngineInvariant::MissingInflight { query: qid })?;
        self.live -= 1;
        let mut proj = fl.proj;
        proj.sort_by_key(|&(off, _)| off);
        // A projection emits one value per matched row.
        let mut projected = Vec::with_capacity(if proj.is_empty() {
            0
        } else {
            fl.matched as usize
        });
        for (_, vals) in proj {
            projected.extend(vals);
        }
        let rec = &mut self.records[i];
        rec.matched = fl.matched;
        rec.projected = projected;
        self.finish_query(qid, fl.end);
        Ok(())
    }

    /// The canary probe event for a quarantined unit: reset the unit's
    /// breaker and send a small empty-predicate select at it. A canary
    /// that completes on the device repairs the unit (it rejoins the pool
    /// at a unit-free event); one that parks re-quarantines with the
    /// dwell doubled. The canary runs entirely at probe time against the
    /// unit's own buffers — the unit is quarantined, so no live shard can
    /// be using them, and any parked shard's prefix was already salvaged
    /// at its rescue.
    fn probe(&mut self, unit: u32, t: Tick) -> Result<(), EngineInvariant> {
        let u = unit as usize;
        if self.health.state(u) != UnitState::Quarantined {
            return Ok(());
        }
        self.health.begin_probe(u);
        self.env.tracer.emit(
            t,
            EventKind::RankHealth {
                rank: unit,
                state: UnitState::Probing.name(),
            },
        );
        self.env.drivers[u].reset_breaker();
        let rows = CANARY_ROWS.min(self.env.values.len() as u64).max(1);
        let req = FusedSelectRequest {
            col_addr: self.env.replicas[u],
            rows,
            preds: vec![(0, -1)],
            out_addrs: vec![self.env.outs[u]],
        };
        let ch = self.env.pool.unit(u).channel;
        let mut session = self.env.drivers[u].start_session(self.env.modules[ch], req, t);
        while !session.is_done() && !session.is_parked() {
            self.env.drivers[u].step_page_failfast(
                &mut self.env.devices[u],
                self.env.modules[ch],
                &mut session,
            );
        }
        if session.is_done() {
            let end = session.into_run().end;
            self.health.repaired(u, end);
            self.env.tracer.emit(
                end,
                EventKind::CanaryProbe {
                    rank: unit,
                    ok: true,
                },
            );
            self.env.tracer.emit(
                end,
                EventKind::RankHealth {
                    rank: unit,
                    state: UnitState::Healthy.name(),
                },
            );
            self.unit_free_ev.push(Reverse((end.max(self.now), unit)));
        } else {
            let at = session.cursor().max(t);
            let next = self.health.probe_failed(u, at);
            self.env.tracer.emit(
                at,
                EventKind::CanaryProbe {
                    rank: unit,
                    ok: false,
                },
            );
            self.env.tracer.emit(
                at,
                EventKind::RankHealth {
                    rank: unit,
                    state: UnitState::Quarantined.name(),
                },
            );
            self.probe_ev.push(Reverse((next, unit)));
        }
        Ok(())
    }

    fn finish_query(&mut self, qid: u32, end: Tick) {
        let rec = self.rec_mut(qid);
        rec.done = Some(end);
        let matched = rec.matched;
        self.finished.push(qid);
        self.makespan = self.makespan.max(end);
        self.env.tracer.emit(
            end,
            EventKind::QueryDone {
                query: qid,
                matched,
            },
        );
        self.schedule_next_client(end);
    }

    /// The queued query whose degradation deadline comes first, if any:
    /// the last instant `max(now, host_free, deadline − est_cpu,
    /// submitted)` at which the host scan still protects its SLO.
    fn degrade_candidate(&self) -> Option<(Tick, u32)> {
        if !self.has_slo {
            return None;
        }
        self.queue
            .iter()
            .filter(|&&q| self.rec(q).deadline < Tick::MAX)
            .map(|&q| {
                let rec = self.rec(q);
                let t = self
                    .now
                    .max(self.host_free)
                    .max(rec.deadline.saturating_sub(self.cpu_estimate(rec.op)))
                    .max(rec.submitted);
                (t, q)
            })
            .min()
    }

    /// Analytical host-scan time for one query of the given operator
    /// class: fixed setup, per-row predicate cost, and a per-output-byte
    /// materialization cost — a select writes one bit per row, a scalar
    /// aggregate a single 8-byte value, and a k-column projection up to
    /// k·8·rows bytes (the worst case the host budgets for before it
    /// knows the selectivity).
    fn cpu_estimate(&self, op: QueryOp) -> Tick {
        host_scan_cost(self.cfg, self.env.values.len() as u64, op)
    }

    /// Pulls `qid` off the device queue and runs it on the host: timed
    /// analytically per operator, computed functionally — the bitset is
    /// bit-identical, the aggregate scalar value-identical and the packed
    /// projection byte-identical to what the device path would return.
    fn degrade(&mut self, qid: u32, t: Tick) -> Result<(), EngineInvariant> {
        let pos = self
            .queue
            .iter()
            .position(|&q| q == qid)
            .ok_or(EngineInvariant::DegradeCandidateMissing { query: qid })?;
        self.queue.remove(pos);
        let done = t + self.cpu_estimate(self.rec(qid).op);
        self.host_free = done;
        self.start_query(qid, t, 0, false);
        let (values, keys) = (self.env.values, self.env.keys);
        host_scan(values, keys, self.rec_mut(qid));
        self.cpu_done.push(Reverse((done, qid)));
        Ok(())
    }
}

/// Evaluates `rec`'s query on the host over the full column: the bitset
/// is bit-identical, the aggregate scalar value-identical, the packed
/// projection byte-identical and the groups key-sorted exactly as the
/// device path returns them. `keys` is the group-by key column (empty for
/// workloads without group-bys). Shared by the engine's degrade rung and
/// the cluster frontend's pull-and-scan rung, so no host tier can be told
/// from a device tier by anything but timing.
pub(crate) fn host_scan(values: &[i64], keys: &[i64], rec: &mut QueryRecord) {
    let (lo, hi) = (rec.lo, rec.hi);
    let hit = |v: i64| v >= lo && v <= hi;
    match rec.op {
        QueryOp::Select | QueryOp::Project { .. } | QueryOp::SemiJoin { .. } => {
            let projected;
            (rec.bitset, rec.matched, projected) = host_select(values, lo, hi, rec.op);
            if let Some(vals) = projected {
                rec.projected = vals;
            }
        }
        QueryOp::SelectCount => {
            let matched = values.iter().filter(|&&v| hit(v)).count() as u64;
            rec.matched = matched;
            rec.agg = Some(matched as i64);
        }
        QueryOp::SelectAgg(f) => {
            let mut matched = 0u64;
            let mut acc: Option<i64> = None;
            for &v in values.iter().filter(|&&v| hit(v)) {
                matched += 1;
                acc = agg_op(f).step(acc, v);
            }
            rec.matched = matched;
            rec.agg = acc;
        }
        QueryOp::GroupBy { agg } => {
            let mut matched = 0u64;
            let mut groups: std::collections::BTreeMap<i64, (u64, Option<i64>)> =
                std::collections::BTreeMap::new();
            for (i, &v) in values.iter().enumerate() {
                if hit(v) {
                    matched += 1;
                    let e = groups.entry(keys[i]).or_insert((0, None));
                    e.0 += 1;
                    e.1 = agg_op(agg).step(e.1, v);
                }
            }
            rec.matched = matched;
            rec.groups = groups.into_iter().map(|(k, (c, a))| (k, c, a)).collect();
        }
    }
}

/// A select-datapath query (select, projection or semi-join) with
/// bounds `[lo, hi]` evaluated on the host over `values`: the selection
/// bitset, its match count and, for a projection, the qualifying values
/// in row order. A semi-join evaluates its whole range set in one pass —
/// bit-identical to the OR of the device path's disjoint lane bitsets.
/// Shared by [`host_scan`] over the full column and the engine's host
/// finish of a rescued shard over the shard's rows.
fn host_select(values: &[i64], lo: i64, hi: i64, op: QueryOp) -> (Vec<u8>, u64, Option<Vec<i64>>) {
    if let QueryOp::SemiJoin { ranges } = op {
        let (bytes, matched) = host_bitset(values, |v| ranges.contains(v));
        return (bytes, matched, None);
    }
    let hit = |v: i64| v >= lo && v <= hi;
    let (bytes, matched) = host_bitset(values, hit);
    let projected = matches!(op, QueryOp::Project { .. })
        .then(|| values.iter().copied().filter(|&v| hit(v)).collect());
    (bytes, matched, projected)
}

/// The selection bitset (LSB-first within each byte) and match count of
/// `keep` over `values`.
fn host_bitset(values: &[i64], keep: impl Fn(i64) -> bool) -> (Vec<u8>, u64) {
    let mut bytes = vec![0u8; values.len().div_ceil(8)];
    let mut matched = 0u64;
    for (i, &v) in values.iter().enumerate() {
        if keep(v) {
            bytes[i / 8] |= 1 << (i % 8);
            matched += 1;
        }
    }
    (bytes, matched)
}

/// Analytical host-scan time for one query: fixed setup, per-row
/// predicate cost, per-output-byte materialization cost. Shared by the
/// engine's degrade rung and the cluster frontend's pull-and-scan rung,
/// so the two CPU tiers price identical work identically.
pub(crate) fn host_scan_cost(cfg: &ServeConfig, rows: u64, op: QueryOp) -> Tick {
    let out_bytes = match op {
        // A semi-join emits exactly one bitset — the host evaluates the
        // whole range set in one pass, so it prices a single lane's
        // output, never ranges× it (the device fuses its lanes into one
        // scan for the same reason).
        QueryOp::Select | QueryOp::SemiJoin { .. } => rows.div_ceil(8),
        QueryOp::SelectCount | QueryOp::SelectAgg(_) => 8,
        QueryOp::Project { k } => u64::from(k.max(1)) * 8 * rows,
        // Worst case every row is its own group: one (key, count, value)
        // triple — 24 bytes — per row, the budget before selectivity or
        // key cardinality is known. Monotone in `rows` like every arm.
        QueryOp::GroupBy { .. } => 24 * rows,
    };
    cfg.cpu_fixed + cfg.cpu_per_row * rows + cfg.cpu_per_out_byte * out_bytes
}

/// The group-by key column as a dictionary, built once per serve: the
/// distinct keys in ascending order and each row's dense id into them.
/// Ids follow key order, so whatever is laid out by id is laid out by
/// key, and no hash order can reach a result.
#[derive(Default)]
struct KeyDict {
    keys: Vec<i64>,
    ids: Vec<u32>,
}

impl KeyDict {
    fn new(column: &[i64]) -> KeyDict {
        let mut keys = column.to_vec();
        keys.sort_unstable();
        keys.dedup();
        keys.shrink_to_fit();
        let ids = column
            .iter()
            .map(|k| keys.partition_point(|x| x < k) as u32)
            .collect();
        KeyDict { keys, ids }
    }
}

/// One staged group: `len` values of key id `id`, at word `off` of its
/// unit's staging region and at `at` in [`Staging::words`].
#[derive(Clone, Copy)]
struct StagedGroup {
    id: u32,
    off: u64,
    at: usize,
    len: usize,
}

/// One unit's share of a staged group-by.
struct UnitStage {
    /// Qualifying rows dealt to the unit.
    rows: u64,
    /// The unit's groups in key order, as a range of [`Staging::groups`].
    groups: std::ops::Range<usize>,
    /// Words of staging region the groups span, each rounded up to a
    /// whole 64-byte line.
    span: u64,
}

/// A group-by's qualifying rows, dealt to units and laid out as each
/// unit's staging region holds them.
struct Staging {
    /// Hot key ids, ascending: their rows were dealt round-robin.
    hot: Vec<u32>,
    /// One entry per unit the group-by was dealt over.
    units: Vec<UnitStage>,
    groups: Vec<StagedGroup>,
    /// Every qualifying value, group by group and unit by unit, each
    /// group's in row order.
    words: Vec<i64>,
}

impl Staging {
    fn values(&self, g: &StagedGroup) -> &[i64] {
        &self.words[g.at..g.at + g.len]
    }
}

/// Stages the group-by `lo..=hi` over `units` units in three passes over
/// the key dictionary, with work proportional to the qualifying rows plus
/// `units` × distinct keys:
///
/// 1. a branch-free filter collects the qualifying rows; a stride sample
///    of their key ids finds the hot keys;
/// 2. a branch-free pass gives each qualifying row its (unit, key id)
///    slot and counts it: a hot key's rows are dealt round-robin in row
///    order, every other key goes to its Fibonacci-hashed unit (the
///    device group-by's mixing);
/// 3. each unit's groups are laid out in key order, 64-byte aligned, and
///    a scatter pass drops every value into its slot, so each group keeps
///    its values in row order.
///
/// The fold does not need row order within a group: wrapping sums and
/// extrema commute. It is kept so that the staged bytes depend only on
/// the column, the predicate and the unit count, never on how the
/// layout was computed.
fn stage_group_by(
    dict: &KeyDict,
    values: &[i64],
    lo: i64,
    hi: i64,
    units: usize,
    cfg: &ServeConfig,
) -> Staging {
    // Pass 1: every row is written at the fill point, which advances only
    // past qualifying ones.
    let mut rows = vec![0u32; values.len()];
    let mut matched = 0usize;
    for (i, &v) in values.iter().enumerate() {
        rows[matched] = i as u32;
        matched += usize::from((lo <= v) & (v <= hi));
    }
    rows.truncate(matched);

    // Deterministic stride-sampled key histogram: a key holding at least
    // `skew_hot_pct`% of the sample is hot and gets split.
    let mut hot = Vec::new();
    if cfg.skew_split && units > 1 && matched > 0 {
        let n = SKEW_SAMPLE.min(matched);
        let stride = matched / n;
        let mut sample: Vec<u32> = (0..n)
            .map(|s| dict.ids[rows[s * stride] as usize])
            .collect();
        sample.sort_unstable();
        let cut = (n * cfg.skew_hot_pct.clamp(1, 100) as usize).div_ceil(100);
        hot = sample
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= cut)
            .map(|run| run[0])
            .collect();
    }

    // Pass 2: each qualifying row's (unit, key id) slot, counted. A key id
    // routes to its hashed unit, or is DEALT round-robin when hot.
    const DEALT: u32 = u32::MAX;
    let nkeys = dict.keys.len();
    let mut route: Vec<u32> = dict
        .keys
        .iter()
        .map(|&k| (((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % units as u64) as u32)
        .collect();
    for &id in &hot {
        route[id as usize] = DEALT;
    }
    let mut counts = vec![0u32; units * nkeys];
    let mut slots = Vec::with_capacity(matched);
    let mut next = 0u32;
    for &row in &rows {
        let id = dict.ids[row as usize] as usize;
        let dealt = route[id] == DEALT;
        let unit = if dealt { next } else { route[id] };
        next += u32::from(dealt);
        next = if next == units as u32 { 0 } else { next };
        let slot = unit as usize * nkeys + id;
        counts[slot] += 1;
        slots.push(slot);
    }

    // Pass 3: lay the groups out, turn each slot's count into the position
    // of its first value in `words`, and scatter.
    let mut groups = Vec::new();
    let mut parts = Vec::with_capacity(units);
    let mut at = 0usize;
    for unit in 0..units {
        let first = groups.len();
        let (first_at, mut off) = (at, 0u64);
        for id in 0..nkeys {
            let slot = unit * nkeys + id;
            let len = counts[slot] as usize;
            if len > 0 {
                groups.push(StagedGroup {
                    id: id as u32,
                    off,
                    at,
                    len,
                });
                off = (off + len as u64).next_multiple_of(8);
            }
            counts[slot] = at as u32;
            at += len;
        }
        parts.push(UnitStage {
            rows: (at - first_at) as u64,
            groups: first..groups.len(),
            span: off,
        });
    }
    let mut words = vec![0i64; matched];
    for (&row, &slot) in rows.iter().zip(&slots) {
        words[counts[slot] as usize] = values[row as usize];
        counts[slot] += 1;
    }
    Staging {
        hot,
        units: parts,
        groups,
        words,
    }
}

/// The serving-layer aggregate functions mapped onto the device kernel's
/// fold ops.
fn agg_op(f: AggFn) -> AggOp {
    match f {
        AggFn::Sum => AggOp::Sum,
        AggFn::Min => AggOp::Min,
        AggFn::Max => AggOp::Max,
    }
}

/// Shard-order merge of two aggregate partials with the device kernel's
/// semantics: wrapping sum, `None`-respecting extremum. `Count` totals
/// are carried in the count field instead.
fn merge_agg(op: AggOp, a: Option<i64>, b: Option<i64>) -> Option<i64> {
    b.map_or(a, |b| op.step(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ChannelRankPool;
    use crate::workload::{PredicateMix, QuerySpec};
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming};

    const ROWS: u64 = 2048;

    /// A self-contained channels × ranks serving machine: one module per
    /// channel, and every unit carries a full replica of the same seeded
    /// column plus its output buffers at the *same* channel-local
    /// addresses, with one device and persistent driver each, serving
    /// over a [`ChannelRankPool`].
    struct WideRig {
        modules: Vec<DramModule>,
        pool: ChannelRankPool,
        devices: Vec<JafarDevice>,
        drivers: Vec<ResilientDriver>,
        replicas: Vec<PhysAddr>,
        outs: Vec<PhysAddr>,
        proj_outs: Vec<PhysAddr>,
        stage_outs: Vec<PhysAddr>,
        values: Vec<i64>,
        keys: Vec<i64>,
        tracer: SharedTracer,
    }

    fn wide_rig(channels: usize, ranks_per: u32, seed: u64) -> WideRig {
        let geom = DramGeometry {
            ranks: ranks_per,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        let mut rng = SplitMix64::new(seed);
        let values: Vec<i64> = (0..ROWS)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        // A separate key stream keeps the value stream (and with it
        // every pre-group-by golden expectation) untouched.
        let mut krng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let keys: Vec<i64> = (0..ROWS)
            .map(|_| krng.next_range_inclusive(0, 15))
            .collect();
        let rank_bytes = geom.rank_bytes();
        let mut modules = Vec::new();
        let mut replicas = Vec::new();
        let mut outs = Vec::new();
        let mut proj_outs = Vec::new();
        let mut stage_outs = Vec::new();
        for _ch in 0..channels {
            let mut module = DramModule::new(
                geom,
                DramTiming::ddr3_paper().without_refresh(),
                AddressMapping::RankRowBankBlock,
            );
            for r in 0..ranks_per as u64 {
                let col = PhysAddr(r * rank_bytes);
                module.data_mut().write_i64s(col, &values);
                replicas.push(col);
                outs.push(PhysAddr(r * rank_bytes + 192 * 1024));
                proj_outs.push(PhysAddr(r * rank_bytes + 64 * 1024));
                stage_outs.push(PhysAddr(r * rank_bytes + 128 * 1024));
            }
            modules.push(module);
        }
        let nunits = channels * ranks_per as usize;
        WideRig {
            modules,
            pool: ChannelRankPool::new(channels, ranks_per as usize),
            devices: (0..nunits).map(|_| JafarDevice::paper_default()).collect(),
            drivers: (0..nunits)
                .map(|_| ResilientDriver::new(ResilienceConfig::default()))
                .collect(),
            replicas,
            outs,
            proj_outs,
            stage_outs,
            values,
            keys,
            tracer: SharedTracer::disabled(),
        }
    }

    impl WideRig {
        fn serve(
            &mut self,
            workload: &Workload,
            policy: SchedPolicy,
            cfg: &ServeConfig,
        ) -> ServeReport {
            run_serve(
                ServeEnv {
                    modules: self.modules.iter_mut().collect(),
                    pool: &self.pool,
                    devices: &mut self.devices,
                    drivers: &mut self.drivers,
                    replicas: &self.replicas,
                    outs: &self.outs,
                    proj_outs: &self.proj_outs,
                    values: &self.values,
                    keys: &self.keys,
                    stage_outs: &self.stage_outs,
                    tracer: &self.tracer,
                },
                workload,
                policy,
                cfg,
            )
        }
    }

    /// The single-DIMM machine: one channel of `nranks` units.
    fn rig(nranks: u32, seed: u64) -> WideRig {
        wide_rig(1, nranks, seed)
    }

    fn reference_bytes(values: &[i64], lo: i64, hi: i64) -> Vec<u8> {
        let mut bytes = vec![0u8; values.len().div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            if v >= lo && v <= hi {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    fn spec(lo: i64, hi: i64, slo: Option<Tick>) -> QuerySpec {
        QuerySpec {
            lo,
            hi,
            op: QueryOp::Select,
            slo,
        }
    }

    fn op_spec(lo: i64, hi: i64, op: QueryOp) -> QuerySpec {
        QuerySpec {
            lo,
            hi,
            op,
            slo: None,
        }
    }

    #[test]
    fn fifo_poisson_completes_all_bit_identically() {
        let mut rig = rig(4, 5);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 200,
        };
        let workload = Workload::poisson(mix, 6, Tick::from_us(2), 17);
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 6);
        assert_eq!(report.shed(), 0);
        for rec in &report.records {
            assert!(matches!(rec.mode, ExecMode::Device { ranks } if ranks >= 1));
            assert!(rec.done.unwrap() >= rec.started.unwrap());
            assert_eq!(
                rec.bitset,
                reference_bytes(&rig.values, rec.lo, rec.hi),
                "query {} selection vector",
                rec.id
            );
            assert_eq!(
                rec.matched,
                rec.bitset
                    .iter()
                    .map(|b| b.count_ones() as u64)
                    .sum::<u64>()
            );
        }
        assert!(report.makespan > Tick::ZERO);
        assert!(report.p99() >= report.p50());
    }

    #[test]
    fn serve_is_deterministic() {
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 150,
        };
        let workload = Workload::poisson(mix, 8, Tick::from_ns(800), 23)
            .with_slo(Tick::from_us(400))
            .with_op_mix(&[
                QueryOp::Select,
                QueryOp::SelectCount,
                QueryOp::SelectAgg(AggFn::Sum),
                QueryOp::Project { k: 2 },
            ]);
        let a = rig(2, 9).serve(
            &workload,
            SchedPolicy::RankAffinity,
            &ServeConfig::default(),
        );
        let b = rig(2, 9).serve(
            &workload,
            SchedPolicy::RankAffinity,
            &ServeConfig::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn burst_sheds_at_the_queue_bound() {
        let mut rig = rig(2, 7);
        let workload = Workload {
            specs: (0..6).map(|_| spec(100, 399, None)).collect(),
            arrivals: Arrivals::Open(vec![Tick::ZERO; 6]),
            slo: None,
        };
        let cfg = ServeConfig {
            max_queue: 1,
            fanout: 2,
            ..ServeConfig::default()
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &cfg);
        // q0 takes both ranks, q1 fills the depth-1 queue, the rest shed.
        assert_eq!(report.completed(), 2);
        assert_eq!(report.shed(), 4);
        for rec in &report.records[2..] {
            assert_eq!(rec.mode, ExecMode::Shed);
            assert!(rec.done.is_none());
            assert!(rec.bitset.is_empty());
        }
        assert_eq!(
            report.records[0].mode,
            ExecMode::Device { ranks: 2 },
            "burst head fans out over both ranks"
        );
    }

    #[test]
    fn edf_dispatches_the_tightest_deadline_first() {
        let specs = vec![
            spec(0, 499, None),
            spec(0, 499, Some(Tick::from_ms(3))),
            spec(0, 499, Some(Tick::from_ms(1))),
        ];
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open(vec![Tick::ZERO; 3]),
            slo: None,
        };
        let fifo = rig(1, 3).serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        let edf = rig(1, 3).serve(&workload, SchedPolicy::Edf, &ServeConfig::default());
        assert!(fifo.records[1].started.unwrap() < fifo.records[2].started.unwrap());
        assert!(edf.records[2].started.unwrap() < edf.records[1].started.unwrap());
        // Scheduling order changes; results don't.
        for report in [&fifo, &edf] {
            assert_eq!(report.completed(), 3);
            assert_eq!(report.deadline_misses(), 0);
        }
    }

    #[test]
    fn hopeless_deadline_degrades_to_the_host_cpu() {
        let mut rig = rig(1, 13);
        // q0 occupies the only rank; q1's SLO is far below even the CPU
        // estimate, so its degradation deadline is "now" — it abandons
        // the device queue immediately and still completes, correctly.
        let workload = Workload {
            specs: vec![spec(200, 799, None), spec(300, 599, Some(Tick::from_ns(1)))],
            arrivals: Arrivals::Open(vec![Tick::ZERO, Tick::ZERO]),
            slo: None,
        };
        let cfg = ServeConfig::default();
        let est = cfg.cpu_fixed + cfg.cpu_per_row * ROWS + cfg.cpu_per_out_byte * ROWS.div_ceil(8);
        let report = rig.serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report.completed(), 2);
        let q1 = &report.records[1];
        assert_eq!(q1.mode, ExecMode::Cpu);
        assert_eq!(q1.done.unwrap(), q1.started.unwrap() + est);
        assert_eq!(q1.bitset, reference_bytes(&rig.values, 300, 599));
        assert!(q1.missed_deadline(), "hopeless SLO is still a miss");
        assert_eq!(report.cpu_queries(), 1);
    }

    #[test]
    fn mixed_operator_stream_serves_every_operator_correctly() {
        let mut rig = rig(4, 31);
        let specs = vec![
            op_spec(100, 499, QueryOp::Select),
            op_spec(200, 599, QueryOp::SelectCount),
            op_spec(0, 899, QueryOp::SelectAgg(AggFn::Sum)),
            op_spec(300, 699, QueryOp::SelectAgg(AggFn::Min)),
            op_spec(300, 699, QueryOp::SelectAgg(AggFn::Max)),
            op_spec(400, 799, QueryOp::Project { k: 2 }),
            // An empty range: Min/Max must come back None, not 0.
            op_spec(5000, 6000, QueryOp::SelectAgg(AggFn::Min)),
        ];
        let n = specs.len();
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open((0..n).map(|i| Tick::from_us(i as u64)).collect()),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), n);
        let filtered = |lo: i64, hi: i64| -> Vec<i64> {
            rig.values
                .iter()
                .copied()
                .filter(|&v| v >= lo && v <= hi)
                .collect()
        };
        for rec in &report.records {
            assert!(matches!(rec.mode, ExecMode::Device { ranks } if ranks >= 1));
            let matching = filtered(rec.lo, rec.hi);
            assert_eq!(rec.matched as usize, matching.len(), "query {}", rec.id);
            match rec.op {
                QueryOp::Select => {
                    assert_eq!(rec.bitset, reference_bytes(&rig.values, rec.lo, rec.hi));
                    assert_eq!(rec.agg, None);
                    assert!(rec.projected.is_empty());
                }
                QueryOp::SelectCount => {
                    assert!(rec.bitset.is_empty(), "scalar ops carry no bitset");
                    assert_eq!(rec.agg, Some(matching.len() as i64));
                }
                QueryOp::SelectAgg(f) => {
                    assert!(rec.bitset.is_empty(), "scalar ops carry no bitset");
                    let expect = match f {
                        AggFn::Sum => matching.iter().copied().reduce(|a, b| a.wrapping_add(b)),
                        AggFn::Min => matching.iter().copied().min(),
                        AggFn::Max => matching.iter().copied().max(),
                    };
                    assert_eq!(rec.agg, expect, "query {} ({})", rec.id, rec.op.name());
                }
                QueryOp::Project { .. } => {
                    assert_eq!(rec.bitset, reference_bytes(&rig.values, rec.lo, rec.hi));
                    assert_eq!(rec.projected, matching, "packed projection");
                }
                QueryOp::SemiJoin { .. } | QueryOp::GroupBy { .. } => {
                    unreachable!("this mixed stream does not carry joins or group-bys")
                }
            }
        }
        // The per-operator breakdown covers every class that was served.
        let ops = report.ops();
        for name in ["select", "count", "sum", "min", "max", "project"] {
            assert!(ops.contains(&name), "missing {name} in {ops:?}");
        }
    }

    #[test]
    fn degraded_aggregate_returns_the_identical_scalar() {
        let mut sick = rig(1, 37);
        // q0 occupies the only rank; q1 is a Sum whose SLO is hopeless, so
        // it degrades to the CPU rung — and must return exactly the scalar
        // a device run would have produced.
        let workload = Workload {
            specs: vec![
                op_spec(200, 799, QueryOp::Select),
                QuerySpec {
                    lo: 100,
                    hi: 599,
                    op: QueryOp::SelectAgg(AggFn::Sum),
                    slo: Some(Tick::from_ns(1)),
                },
            ],
            arrivals: Arrivals::Open(vec![Tick::ZERO, Tick::ZERO]),
            slo: None,
        };
        let cfg = ServeConfig::default();
        let est = cfg.cpu_fixed + cfg.cpu_per_row * ROWS + cfg.cpu_per_out_byte * 8;
        let report = sick.serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report.completed(), 2);
        let q1 = &report.records[1];
        assert_eq!(q1.mode, ExecMode::Cpu);
        assert_eq!(q1.done.unwrap(), q1.started.unwrap() + est);
        let expect = sick
            .values
            .iter()
            .copied()
            .filter(|&v| (100..=599).contains(&v))
            .fold(0i64, |a, v| a.wrapping_add(v));
        assert_eq!(q1.agg, Some(expect));
        assert!(q1.bitset.is_empty(), "scalar rung materializes no bitset");

        // Reference: the same Sum served alone on a healthy device rung.
        let mut solo = rig(1, 37);
        let solo_report = solo.serve(
            &Workload {
                specs: vec![QuerySpec {
                    lo: 100,
                    hi: 599,
                    op: QueryOp::SelectAgg(AggFn::Sum),
                    slo: None,
                }],
                arrivals: Arrivals::Open(vec![Tick::ZERO]),
                slo: None,
            },
            SchedPolicy::Fifo,
            &cfg,
        );
        assert!(matches!(
            solo_report.records[0].mode,
            ExecMode::Device { .. }
        ));
        assert_eq!(solo_report.records[0].agg, q1.agg, "device == degraded");
    }

    #[test]
    fn closed_loop_throttles_to_the_client_population() {
        let mut rig = rig(2, 19);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 300,
        };
        let think = Tick::from_us(1);
        let workload = Workload::closed(mix, 8, 2, think, 29);
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 8);
        assert_eq!(report.shed(), 0);
        // Two clients: queries 0 and 1 arrive at start, every later one
        // only a think-time after some predecessor finished.
        assert_eq!(report.records[0].submitted, Tick::ZERO);
        assert_eq!(report.records[1].submitted, Tick::ZERO);
        for rec in &report.records[2..] {
            assert!(rec.submitted >= think);
        }
        for rec in &report.records {
            assert_eq!(rec.bitset, reference_bytes(&rig.values, rec.lo, rec.hi));
        }
    }

    #[test]
    fn permanent_outage_parks_migrates_and_completes_bit_identically() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let mut rig = rig(4, 9);
        rig.modules[0].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(3).with_outage(0, Tick::ZERO, Tick::MAX),
        )));
        let workload = Workload {
            specs: vec![spec(100, 420, None)],
            arrivals: Arrivals::Open(vec![Tick::ZERO]),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 1);
        let rec = &report.records[0];
        assert!(matches!(rec.mode, ExecMode::Device { ranks: 4 }));
        assert_eq!(rec.bitset, reference_bytes(&rig.values, 100, 420));
        let a = &report.availability;
        assert!(a.disturbed());
        assert!(a.requeues >= 1, "the dark rank's shard was rescued");
        assert!(
            a.migrations >= 1,
            "the rescued shard moved to a healthy rank"
        );
        assert_eq!(a.units[0].quarantines, 1);
        assert_eq!(a.units[0].canary_ok, 0, "a permanent outage never repairs");
        assert!(
            a.units[0].downtime > Tick::ZERO,
            "open quarantine booked at makespan"
        );
        assert_eq!(a.units[1].quarantines, 0);
        assert_eq!(a.units[1].downtime, Tick::ZERO);
    }

    #[test]
    fn outage_heals_via_canary_and_the_rank_returns_to_service() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let mut rig = rig(2, 21);
        rig.modules[0].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(5).with_outage(1, Tick::ZERO, Tick::from_us(100)),
        )));
        let workload = Workload {
            specs: vec![spec(0, 500, None), spec(200, 700, None)],
            arrivals: Arrivals::Open(vec![Tick::ZERO, Tick::from_us(500)]),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 2);
        for rec in &report.records {
            assert_eq!(rec.bitset, reference_bytes(&rig.values, rec.lo, rec.hi));
        }
        let a = &report.availability;
        assert_eq!(a.units[1].quarantines, 1);
        assert_eq!(a.units[1].canary_ok, 1, "the canary repaired the rank");
        assert!(a.migrations >= 1);
        assert!(
            a.units[1].downtime < Tick::from_us(500),
            "downtime ends at the observed repair, not at makespan"
        );
        assert!(
            matches!(report.records[1].mode, ExecMode::Device { ranks: 2 }),
            "the repaired rank serves the later query (mode {:?})",
            report.records[1].mode
        );
    }

    #[test]
    fn a_dark_unit_waits_a_doubling_dwell_between_canaries_up_to_5ms() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let mut rig = rig(2, 31);
        rig.modules[0].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(3).with_outage(1, Tick::ZERO, Tick::MAX),
        )));
        let (tracer, ring) = SharedTracer::ring(1 << 16);
        rig.tracer = tracer;
        // Canaries fire only while work is pending, so queries keep
        // arriving for 24 ms: long enough for seven of them.
        let n = 96;
        let workload = Workload {
            specs: (0..n).map(|_| spec(100, 599, None)).collect(),
            arrivals: Arrivals::Open((0..n).map(|i| Tick::from_us(250 * i)).collect()),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), n as usize);
        // Each canary's dwell: from the unit's (re)quarantine to its probe.
        let mut quarantined = Tick::ZERO;
        let mut dwells = Vec::new();
        for e in ring.borrow().events() {
            match e.kind {
                EventKind::RankHealth {
                    rank: 1,
                    state: "quarantined",
                } => quarantined = e.at,
                EventKind::RankHealth {
                    rank: 1,
                    state: "probing",
                } => dwells.push(e.at - quarantined),
                _ => {}
            }
        }
        let a = &report.availability.units[1];
        assert_eq!(a.canary_ok, 0, "a permanent outage never repairs");
        assert!(a.canary_fail >= 6, "{} failed canaries", a.canary_fail);
        let want = [200, 400, 800, 1600, 3200, 5000, 5000].map(Tick::from_us);
        assert_eq!(
            dwells[..7],
            want,
            "the dwell doubles from 200 us and stays at the 5 ms cap"
        );
    }

    #[test]
    fn quarantined_ranks_tighten_admission_and_shed_excess_arrivals() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let mut rig = rig(4, 13);
        rig.modules[0].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(1)
                .with_outage(0, Tick::ZERO, Tick::MAX)
                .with_outage(1, Tick::ZERO, Tick::MAX)
                .with_outage(2, Tick::ZERO, Tick::MAX),
        )));
        // One query up front to trip the three dark ranks into
        // quarantine, then a burst tighter than the surviving rank can
        // absorb: with 1 of 4 ranks schedulable the admission bound drops
        // from 8 to ceil(8/4) = 2, so the burst sheds arrivals the full
        // queue would have admitted.
        let mut specs = vec![spec(100, 420, None)];
        let mut arrivals = vec![Tick::ZERO];
        for i in 0..8u64 {
            specs.push(spec(50 + i as i64, 600, None));
            arrivals.push(Tick::from_us(250) + Tick::from_ns(200) * i);
        }
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open(arrivals),
            slo: None,
        };
        let cfg = ServeConfig {
            max_queue: 8,
            ..ServeConfig::default()
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report.completed() + report.shed(), 9);
        assert!(
            report.shed() >= 1,
            "the tightened bound shed part of the burst"
        );
        assert!(report.availability.sheds_tightened >= 1);
        assert_eq!(report.shed() as u64, report.availability.sheds_tightened);
        for rec in report.records.iter().filter(|r| r.done.is_some()) {
            assert_eq!(rec.bitset, reference_bytes(&rig.values, rec.lo, rec.hi));
        }
        for r in 0..3 {
            assert!(report.availability.units[r].quarantines >= 1);
        }
    }

    #[test]
    fn chaotic_serve_replays_byte_identically() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let run = || {
            let mut rig = rig(4, 33);
            rig.modules[0].set_fault_injector(Some(FaultInjector::new(
                FaultPlan::chaos(7).with_outage(2, Tick::from_us(5), Tick::from_us(80)),
            )));
            let mix = PredicateMix::UniformRange {
                min: 0,
                max: 999,
                width: 300,
            };
            let workload = Workload::poisson(mix, 8, Tick::from_us(3), 19);
            rig.serve(&workload, SchedPolicy::Edf, &ServeConfig::default())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_channel_pool_serves_byte_identically_with_per_unit_coords() {
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        };
        let workload = Workload::poisson(mix, 8, Tick::from_us(2), 41).with_op_mix(&[
            QueryOp::Select,
            QueryOp::SelectCount,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::Project { k: 2 },
        ]);
        let cfg = ServeConfig::default();
        let mut wide = wide_rig(2, 2, 11);
        let report = wide.serve(&workload, SchedPolicy::RankAffinity, &cfg);
        assert_eq!(report.completed(), 8);
        // Functional results match the single-channel machine exactly.
        let narrow = rig(4, 11).serve(&workload, SchedPolicy::RankAffinity, &cfg);
        for (w, n) in report.records.iter().zip(&narrow.records) {
            assert_eq!(w.bitset, n.bitset, "query {} selection vector", w.id);
            assert_eq!(w.matched, n.matched);
            assert_eq!(w.agg, n.agg);
            assert_eq!(w.projected, n.projected);
        }
        // Availability carries the pool's physical coordinates per unit.
        let a = &report.availability;
        assert_eq!(a.units.len(), 4);
        for (u, rec) in a.units.iter().enumerate() {
            assert_eq!(rec.unit, u as u32);
            assert_eq!(rec.channel, (u / 2) as u32, "channel-major unit ids");
            assert_eq!(rec.rank, (u % 2) as u32);
        }
    }

    #[test]
    fn channel_fault_is_confined_to_its_unit_and_heals_cross_channel() {
        use jafar_dram::{FaultInjector, FaultPlan};
        // Unit 2 = channel 1, rank 0 dies permanently. Its shard rescues
        // onto another unit (possibly across channels) and the query
        // still completes byte-identically; every sibling stays clean.
        let mut wide = wide_rig(2, 2, 27);
        wide.modules[1].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(3).with_outage(0, Tick::ZERO, Tick::MAX),
        )));
        let workload = Workload {
            specs: vec![spec(100, 420, None)],
            arrivals: Arrivals::Open(vec![Tick::ZERO]),
            slo: None,
        };
        let report = wide.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 1);
        assert_eq!(
            report.records[0].bitset,
            reference_bytes(&wide.values, 100, 420)
        );
        let a = &report.availability;
        assert!(a.requeues >= 1 && a.migrations >= 1);
        assert_eq!(a.units[2].quarantines, 1);
        assert_eq!((a.units[2].channel, a.units[2].rank), (1, 0));
        for u in [0, 1, 3] {
            assert_eq!(a.units[u].quarantines, 0, "unit {u} undisturbed");
            assert_eq!(a.units[u].downtime, Tick::ZERO);
        }
    }

    #[test]
    fn fused_burst_matches_solo_byte_for_byte_and_wins_the_makespan() {
        // Four selects burst onto one rank: q0 dispatches solo, q1..q3
        // queue behind it and — with a fuse window open — ride one fused
        // 3-lane scan when the rank frees. The fused serve must be
        // byte-identical to the unfused one and strictly cheaper in both
        // wall time and engine events.
        let workload = Workload {
            specs: vec![
                spec(100, 399, None),
                spec(0, 499, None),
                spec(250, 749, None),
                spec(500, 999, None),
            ],
            arrivals: Arrivals::Open(vec![Tick::ZERO; 4]),
            slo: None,
        };
        let solo = rig(1, 45).serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        let (tracer, ring) = SharedTracer::ring(4096);
        let mut frig = rig(1, 45);
        frig.tracer = tracer;
        let fused = frig.serve(
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig {
                fuse_window: 4,
                ..ServeConfig::default()
            },
        );
        assert_eq!(solo.completed(), 4);
        assert_eq!(fused.completed(), 4);
        for (s, f) in solo.records.iter().zip(&fused.records) {
            assert_eq!(f.bitset, s.bitset, "query {} selection vector", f.id);
            assert_eq!(f.bitset, reference_bytes(&frig.values, f.lo, f.hi));
            assert_eq!(f.matched, s.matched);
        }
        // The three co-riders share one dispatch: same start, same end.
        let fused_modes: Vec<u32> = ring
            .borrow()
            .events()
            .filter_map(|e| match e.kind {
                EventKind::QueryStarted {
                    query,
                    mode: "fused",
                    ..
                } => Some(query),
                _ => None,
            })
            .collect();
        assert_eq!(fused_modes, vec![1, 2, 3]);
        assert_eq!(fused.records[1].started, fused.records[2].started);
        assert_eq!(fused.records[1].started, fused.records[3].started);
        assert_eq!(fused.records[1].done, fused.records[2].done);
        assert_eq!(fused.records[1].done, fused.records[3].done);
        // One fused pass beats three back-to-back solo scans.
        assert!(
            fused.makespan < solo.makespan,
            "fused {} !< solo {}",
            fused.makespan,
            solo.makespan
        );
        assert!(
            fused.events < solo.events,
            "fewer dispatch cycles means fewer engine events ({} !< {})",
            fused.events,
            solo.events
        );
    }

    #[test]
    fn batched_admission_replays_the_one_at_a_time_engine_exactly() {
        // Draining the whole due-arrival heap at one event must preserve
        // the (time, class, id) total order: open Poisson and closed-loop
        // think-time re-arrivals serve identically either way on
        // fault-free runs.
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 250,
        };
        let open = Workload::poisson(mix, 10, Tick::from_ns(600), 51);
        let closed = Workload::closed(mix, 10, 3, Tick::from_us(1), 53);
        for (name, workload) in [("open", &open), ("closed", &closed)] {
            let batched = rig(2, 61).serve(workload, SchedPolicy::Fifo, &ServeConfig::default());
            let one = rig(2, 61).serve(
                workload,
                SchedPolicy::Fifo,
                &ServeConfig {
                    batch_admission: false,
                    ..ServeConfig::default()
                },
            );
            assert_eq!(batched.records, one.records, "{name} workload");
            assert_eq!(batched.makespan, one.makespan, "{name} workload");
            assert_eq!(batched.availability, one.availability, "{name} workload");
        }
        // A same-instant burst is where batching actually collapses
        // events — and where the results still must not move.
        let burst = Workload {
            specs: (0..6).map(|i| spec(50 * i, 500 + 50 * i, None)).collect(),
            arrivals: Arrivals::Open(vec![Tick::ZERO; 6]),
            slo: None,
        };
        let batched = rig(2, 61).serve(&burst, SchedPolicy::Fifo, &ServeConfig::default());
        let one = rig(2, 61).serve(
            &burst,
            SchedPolicy::Fifo,
            &ServeConfig {
                batch_admission: false,
                ..ServeConfig::default()
            },
        );
        assert_eq!(batched.records, one.records);
        assert_eq!(batched.makespan, one.makespan);
        assert!(
            batched.events < one.events,
            "the burst drains in one event instead of six ({} !< {})",
            batched.events,
            one.events
        );
    }

    #[test]
    fn admit_and_shed_report_the_same_depth_snapshot() {
        // Regression: the shed decision tested the pre-push queue length
        // while QueryAdmitted reported the post-push length, so the two
        // trace streams disagreed by one at the admission boundary. Both
        // now carry the depth the arrival observed: on one rank with
        // max_queue = 2, a 4-burst admits at depths [0, 0, 1] (q0
        // dispatches immediately, so q1 also sees an empty queue) and
        // sheds the boundary query at exactly the bound.
        let workload = Workload {
            specs: (0..4).map(|_| spec(100, 399, None)).collect(),
            arrivals: Arrivals::Open(vec![Tick::ZERO; 4]),
            slo: None,
        };
        let cfg = ServeConfig {
            max_queue: 2,
            ..ServeConfig::default()
        };
        let (tracer, ring) = SharedTracer::ring(4096);
        let mut r = rig(1, 7);
        r.tracer = tracer;
        let report = r.serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.shed(), 1);
        let mut admitted = Vec::new();
        let mut shed = Vec::new();
        for e in ring.borrow().events() {
            match e.kind {
                EventKind::QueryAdmitted { query, depth } => admitted.push((query, depth)),
                EventKind::QueryShed { query, depth } => shed.push((query, depth)),
                _ => {}
            }
        }
        assert_eq!(admitted, vec![(0, 0), (1, 0), (2, 1)]);
        assert_eq!(shed, vec![(3, 2)]);
        // The boundary is exact: the last admission observed bound - 1,
        // the first shed observed the bound itself.
        assert_eq!(shed[0].1, cfg.max_queue as u32);
        assert_eq!(admitted.last().unwrap().1 + 1, shed[0].1);
        // And the boundary query's fate is identical without batching.
        let unbatched = rig(1, 7).serve(
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig {
                batch_admission: false,
                ..cfg
            },
        );
        assert_eq!(report.records, unbatched.records);
    }

    #[test]
    fn parked_fused_shard_rescues_every_lane_bit_identically() {
        use jafar_dram::{FaultInjector, FaultPlan};
        let fcfg = ServeConfig {
            fuse_window: 4,
            ..ServeConfig::default()
        };
        let workload = Workload {
            specs: vec![
                spec(100, 420, None),
                spec(0, 499, None),
                spec(250, 749, None),
                spec(500, 999, None),
            ],
            arrivals: Arrivals::Open(vec![
                Tick::ZERO,
                Tick::from_ns(1),
                Tick::from_ns(1),
                Tick::from_ns(1),
            ]),
            slo: None,
        };
        // Probe run (fault-free): q0 fans out over both ranks; q1..q3
        // arrive behind it and ride one fused scan on the first rank to
        // free. The deterministic timeline tells us when that scan is
        // mid-flight.
        let probe = rig(2, 77).serve(&workload, SchedPolicy::Fifo, &fcfg);
        assert_eq!(probe.completed(), 4);
        assert_eq!(probe.records[1].started, probe.records[3].started);
        let f_start = probe.records[1].started.unwrap();
        let f_done = probe.records[1].done.unwrap();
        let mid = Tick::from_ps(f_start.as_ps() + (f_done.as_ps() - f_start.as_ps()) / 2);
        // Real run: rank 0 goes permanently dark mid-fused-scan. The
        // 3-lane shard parks, every lane's completed bitset prefix is
        // salvaged, and the shard resumes on the surviving rank — all
        // three co-riders must still complete byte-identically.
        let mut sick = rig(2, 77);
        sick.modules[0].set_fault_injector(Some(FaultInjector::new(
            FaultPlan::none(3).with_outage(0, mid, Tick::MAX),
        )));
        let report = sick.serve(&workload, SchedPolicy::Fifo, &fcfg);
        assert_eq!(report.completed(), 4);
        for rec in &report.records {
            assert_eq!(
                rec.bitset,
                reference_bytes(&sick.values, rec.lo, rec.hi),
                "query {} selection vector after mid-scan rescue",
                rec.id
            );
            assert_eq!(
                rec.matched,
                rec.bitset
                    .iter()
                    .map(|b| b.count_ones() as u64)
                    .sum::<u64>()
            );
        }
        let a = &report.availability;
        assert!(a.requeues >= 1, "the dark rank's fused shard was rescued");
        assert!(a.migrations >= 1, "the rescued fused shard moved ranks");
        assert_eq!(a.units[0].quarantines, 1);
        assert_eq!(a.units[1].quarantines, 0, "the healthy rank stays clean");
    }

    // ---- semi-join + keyed group-by (served joins) ----

    use crate::workload::{zipf_keys, KeyRanges};

    fn reference_semi_bytes(values: &[i64], ranges: &KeyRanges) -> Vec<u8> {
        let mut bytes = vec![0u8; values.len().div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            if ranges.contains(v) {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// Host-side reference fold with the device kernel's exact
    /// semantics: wrapping sum, `None`-on-empty extremum.
    fn reference_groups(
        values: &[i64],
        keys: &[i64],
        lo: i64,
        hi: i64,
        f: AggFn,
    ) -> Vec<(i64, u64, Option<i64>)> {
        let mut groups: std::collections::BTreeMap<i64, (u64, Option<i64>)> =
            std::collections::BTreeMap::new();
        for (i, &v) in values.iter().enumerate() {
            if v >= lo && v <= hi {
                let e = groups.entry(keys[i]).or_insert((0, None));
                e.0 += 1;
                e.1 = Some(match (f, e.1) {
                    (AggFn::Sum, prev) => prev.unwrap_or(0).wrapping_add(v),
                    (AggFn::Min | AggFn::Max, None) => v,
                    (AggFn::Min, Some(p)) => p.min(v),
                    (AggFn::Max, Some(p)) => p.max(v),
                });
            }
        }
        groups.into_iter().map(|(k, (c, a))| (k, c, a)).collect()
    }

    #[test]
    fn semi_join_serves_the_union_of_its_key_ranges() {
        let mut rig = rig(2, 41);
        // Three disjoint build-side key clusters -> a fused multi-lane
        // scan; one isolated key -> the solo single-lane path.
        let multi = KeyRanges::from_keys(&[5, 6, 7, 440, 441, 900]).unwrap();
        assert!(multi.len() >= 2);
        let solo = KeyRanges::from_keys(&[250]).unwrap();
        let workload = Workload {
            specs: vec![QuerySpec::semi_join(multi), QuerySpec::semi_join(solo)],
            arrivals: Arrivals::Open(vec![Tick::ZERO, Tick::from_us(40)]),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 2);
        for (rec, ranges) in report.records.iter().zip([&multi, &solo]) {
            assert!(matches!(rec.mode, ExecMode::Device { .. }));
            assert_eq!(
                rec.bitset,
                reference_semi_bytes(&rig.values, ranges),
                "query {} semi-join selection vector",
                rec.id
            );
            assert_eq!(
                rec.matched,
                rec.bitset
                    .iter()
                    .map(|b| b.count_ones() as u64)
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn semi_join_rides_the_stream_with_fused_selects_unchanged() {
        // A semi-join interleaved with a fusable select burst: the
        // selects fuse among themselves, the semi-join keeps its own
        // multi-lane session, and every bitset matches its reference.
        let ranges = KeyRanges::from_keys(&[10, 11, 12, 500, 501, 502, 777]).unwrap();
        let mut specs = vec![QuerySpec::semi_join(ranges)];
        for i in 0..5 {
            specs.push(spec(i * 50, i * 50 + 199, None));
        }
        let n = specs.len();
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open(vec![Tick::ZERO; n]),
            slo: None,
        };
        let cfg = ServeConfig {
            fuse_window: 4,
            ..ServeConfig::default()
        };
        let mut first = rig(2, 43);
        let report = first.serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report.completed(), n);
        let semi = &report.records[0];
        assert_eq!(semi.bitset, reference_semi_bytes(&first.values, &ranges));
        for rec in &report.records[1..] {
            assert_eq!(
                rec.bitset,
                reference_bytes(&first.values, rec.lo, rec.hi),
                "select {} fused alongside the semi-join",
                rec.id
            );
        }
        // Determinism with the new op in the mix.
        let again = rig(2, 43).serve(&workload, SchedPolicy::Fifo, &cfg);
        assert_eq!(report, again);
    }

    #[test]
    fn group_by_merges_to_the_host_reference_for_every_agg() {
        for f in [AggFn::Sum, AggFn::Min, AggFn::Max] {
            let mut rig = rig(4, 47);
            let workload = Workload {
                specs: vec![QuerySpec::group_by(100, 799, f)],
                arrivals: Arrivals::Open(vec![Tick::ZERO]),
                slo: None,
            };
            let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
            assert_eq!(report.completed(), 1);
            let rec = &report.records[0];
            assert!(matches!(rec.mode, ExecMode::Device { ranks } if ranks >= 2));
            let want = reference_groups(&rig.values, &rig.keys, 100, 799, f);
            assert_eq!(rec.groups, want, "{f:?} groups");
            assert_eq!(
                rec.matched,
                want.iter().map(|&(_, c, _)| c).sum::<u64>(),
                "{f:?} qualifying-row count"
            );
        }
    }

    /// One unit's staging as the oracle reports it: partition rows, the
    /// staged span in words and the `(key, offset, values)` layout.
    type UnitLayout = (usize, u64, Vec<(i64, u64, Vec<i64>)>);

    /// The group-by staging as first written — a qualifying-row list, a
    /// `BTreeMap` key histogram, `(key, value)` pairs per unit and one
    /// `BTreeMap<key, values>` per unit — kept as the oracle of
    /// [`stage_group_by`]. Returns the hot keys and every unit's layout.
    fn reference_staging(
        values: &[i64],
        keys: &[i64],
        lo: i64,
        hi: i64,
        units: usize,
        cfg: &ServeConfig,
    ) -> (Vec<i64>, Vec<UnitLayout>) {
        use std::collections::BTreeMap;
        let qualifying: Vec<usize> = (0..values.len())
            .filter(|&i| values[i] >= lo && values[i] <= hi)
            .collect();
        let mut hot: Vec<i64> = Vec::new();
        if cfg.skew_split && units > 1 && !qualifying.is_empty() {
            let sample_n = SKEW_SAMPLE.min(qualifying.len());
            let stride = qualifying.len() / sample_n;
            let mut hist: BTreeMap<i64, usize> = BTreeMap::new();
            for s in 0..sample_n {
                *hist.entry(keys[qualifying[s * stride]]).or_insert(0) += 1;
            }
            let cut = (sample_n * cfg.skew_hot_pct.clamp(1, 100) as usize).div_ceil(100);
            hot = hist
                .iter()
                .filter(|&(_, &c)| c >= cut)
                .map(|(&k, _)| k)
                .collect();
        }
        let key_unit =
            |k: i64| (((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % units;
        let mut parts: Vec<Vec<(i64, i64)>> = vec![Vec::new(); units];
        let mut rr = 0usize;
        for &i in &qualifying {
            let k = keys[i];
            let p = if hot.binary_search(&k).is_ok() {
                rr += 1;
                (rr - 1) % units
            } else {
                key_unit(k)
            };
            parts[p].push((k, values[i]));
        }
        let layouts = parts
            .iter()
            .map(|part| {
                let mut grouped: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
                for &(k, v) in part {
                    grouped.entry(k).or_default().push(v);
                }
                let mut layout = Vec::new();
                let mut off = 0u64;
                for (k, vs) in grouped {
                    let len = vs.len() as u64;
                    layout.push((k, off, vs));
                    off = (off + len).next_multiple_of(8);
                }
                (part.len(), off, layout)
            })
            .collect();
        (hot, layouts)
    }

    #[test]
    fn group_by_staging_over_the_dictionary_matches_the_btreemap_staging() {
        use jafar_common::check::forall;
        forall("group-by staging", 96, |rng| {
            let rows = rng.next_range_inclusive(1, 3000) as usize;
            // Key ids over 1, 4, 64 or all-distinct domains, Zipf or
            // uniform, mapped onto keys that span the whole i64 range.
            let domain = [1, 4, 64, rows][rng.next_below(4) as usize];
            let ids = if domain == rows {
                let mut ids: Vec<i64> = (0..rows as i64).collect();
                rng.shuffle(&mut ids);
                ids
            } else if rng.next_below(2) == 0 {
                zipf_keys(rows, domain, 1.0, rng.next_u64())
            } else {
                crate::workload::uniform_keys(rows, domain, rng.next_u64())
            };
            let spread = rng.next_u64() as i64 | 1;
            let keys: Vec<i64> = ids
                .iter()
                .map(|&id| match id {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => -1,
                    id => id.wrapping_mul(spread),
                })
                .collect();
            let values: Vec<i64> = (0..rows)
                .map(|_| rng.next_range_inclusive(-1000, 1000))
                .collect();
            let (lo, hi) = match rng.next_below(4) {
                0 => (i64::MAX, i64::MIN),
                1 => (i64::MIN, i64::MAX),
                _ => {
                    let lo = rng.next_range_inclusive(-1000, 1000);
                    (lo, rng.next_range_inclusive(lo, 1000))
                }
            };
            let units = rng.next_range_inclusive(1, 4) as usize;
            let cfg = ServeConfig {
                skew_split: rng.next_below(4) != 0,
                skew_hot_pct: rng.next_range_inclusive(0, 60) as u32,
                ..ServeConfig::default()
            };
            let dict = KeyDict::new(&keys);
            let staged = stage_group_by(&dict, &values, lo, hi, units, &cfg);
            let (want_hot, want_units) = reference_staging(&values, &keys, lo, hi, units, &cfg);
            let hot: Vec<i64> = staged
                .hot
                .iter()
                .map(|&id| dict.keys[id as usize])
                .collect();
            assert_eq!(hot, want_hot, "hot keys");
            let got_units: Vec<UnitLayout> = staged
                .units
                .iter()
                .map(|part| {
                    let layout = staged.groups[part.groups.clone()]
                        .iter()
                        .map(|g| (dict.keys[g.id as usize], g.off, staged.values(g).to_vec()))
                        .collect();
                    (part.rows as usize, part.span, layout)
                })
                .collect();
            assert_eq!(got_units, want_units, "per-unit partitions and layouts");
            let qualifying = values.iter().filter(|&&v| lo <= v && v <= hi).count();
            assert_eq!(staged.words.len(), qualifying);
        });
    }

    #[test]
    fn group_by_with_no_qualifying_rows_completes_empty() {
        let mut rig = rig(2, 53);
        let workload = Workload {
            specs: vec![QuerySpec::group_by(5000, 6000, AggFn::Sum)],
            arrivals: Arrivals::Open(vec![Tick::ZERO]),
            slo: None,
        };
        let report = rig.serve(&workload, SchedPolicy::Fifo, &ServeConfig::default());
        assert_eq!(report.completed(), 1);
        let rec = &report.records[0];
        assert_eq!(rec.mode, ExecMode::Cpu, "nothing staged, host discovers it");
        assert!(rec.groups.is_empty());
        assert_eq!(rec.matched, 0);
    }

    #[test]
    fn skew_split_balances_a_hot_key_without_changing_a_byte() {
        // Zipf(1.0) keys make one key hot enough to trip the sampled
        // histogram; splitting it across units must not change the
        // merged groups, only the partition shape.
        let mut hot_rig = rig(4, 59);
        hot_rig.keys = zipf_keys(ROWS as usize, 16, 1.0, 61);
        let workload = Workload {
            specs: vec![QuerySpec::group_by(0, 999, AggFn::Sum)],
            arrivals: Arrivals::Open(vec![Tick::ZERO]),
            slo: None,
        };
        let split_cfg = ServeConfig::default();
        assert!(split_cfg.skew_split, "skew splitting is the default");
        let naive_cfg = ServeConfig {
            skew_split: false,
            ..ServeConfig::default()
        };
        let (tracer, ring) = SharedTracer::ring(1 << 12);
        hot_rig.tracer = tracer;
        let split = hot_rig.serve(&workload, SchedPolicy::Fifo, &split_cfg);
        let events = ring.borrow().snapshot();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::SkewSplit { query: 0, .. })),
            "the Zipf head key must be flagged hot"
        );
        let mut naive_rig = rig(4, 59);
        naive_rig.keys = zipf_keys(ROWS as usize, 16, 1.0, 61);
        let naive = naive_rig.serve(&workload, SchedPolicy::Fifo, &naive_cfg);
        let want = reference_groups(&hot_rig.values, &hot_rig.keys, 0, 999, AggFn::Sum);
        assert_eq!(split.records[0].groups, want);
        assert_eq!(naive.records[0].groups, want, "split changes nothing");
    }

    #[test]
    fn degraded_semi_join_and_group_by_match_the_device_rungs() {
        // The hopeless-SLO trick pushes each new operator onto the CPU
        // rung (a blocker holds the only rank, the instant deadline
        // degrades the target immediately); the degraded result must be
        // indistinguishable from a healthy device run's.
        let ranges = KeyRanges::from_keys(&[33, 34, 35, 610, 611]).unwrap();
        let targets = [
            QuerySpec::semi_join(ranges),
            QuerySpec::group_by(200, 899, AggFn::Max),
        ];
        for target in targets {
            let joined = Workload {
                specs: vec![
                    spec(0, 999, None),
                    QuerySpec {
                        slo: Some(Tick::from_ns(1)),
                        ..target
                    },
                ],
                arrivals: Arrivals::Open(vec![Tick::ZERO; 2]),
                slo: None,
            };
            let healthy = Workload {
                specs: vec![target],
                arrivals: Arrivals::Open(vec![Tick::ZERO]),
                slo: None,
            };
            let cpu = rig(1, 67).serve(&joined, SchedPolicy::Fifo, &ServeConfig::default());
            let dev = rig(2, 67).serve(&healthy, SchedPolicy::Fifo, &ServeConfig::default());
            let (c, d) = (&cpu.records[1], &dev.records[0]);
            assert_eq!(c.mode, ExecMode::Cpu, "{} must degrade", c.op.name());
            assert!(matches!(d.mode, ExecMode::Device { .. }));
            assert_eq!(c.bitset, d.bitset, "{} bitset across rungs", c.op.name());
            assert_eq!(c.matched, d.matched);
            assert_eq!(c.groups, d.groups, "{} groups across rungs", c.op.name());
        }
    }

    #[test]
    fn host_scan_cost_is_monotone_and_prices_one_semi_lane() {
        let cfg = ServeConfig::default();
        let ranges = KeyRanges::from_keys(&[1, 5, 9, 13, 17, 21, 25, 29]).unwrap();
        assert_eq!(ranges.len(), 8, "maximally fragmented build side");
        let ops = [
            QueryOp::Select,
            QueryOp::SelectCount,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::Project { k: 3 },
            QueryOp::SemiJoin { ranges },
            QueryOp::GroupBy { agg: AggFn::Sum },
        ];
        for op in ops {
            let mut prev = Tick::ZERO;
            for rows in [1u64, 7, 8, 64, 512, 4096, 1 << 20] {
                let c = host_scan_cost(&cfg, rows, op);
                assert!(c > prev, "{} cost must grow strictly with rows", op.name());
                prev = c;
            }
        }
        // The victim-lane property: however many ranges the build side
        // fragments into, the host prices a semi-join exactly like the
        // one-lane select it degenerates to — never ranges x it.
        for rows in [64u64, 2048] {
            assert_eq!(
                host_scan_cost(&cfg, rows, QueryOp::SemiJoin { ranges }),
                host_scan_cost(&cfg, rows, QueryOp::Select)
            );
        }
    }
}
