//! The disaggregated serving tier: one host frontend, N memory nodes.
//!
//! # Topology and message flow
//!
//! Each memory node is a full node-local serving machine — an
//! [`crate::engine`] instance over its own DRAM module(s), filter-unit
//! pool, devices and drivers — connected to the host frontend by one
//! [`jafar_net::NetFabric`] link. A query's life:
//!
//! 1. **Arrive** at the frontend (the workload's open-loop instant).
//! 2. **Route** to a memory node holding a replica of the served column
//!    (the [`RoutePolicy`] axis — round-robin, least-outstanding, or
//!    replica-local health-aware), paying a request hop on that node's
//!    link.
//! 3. **Serve** on the node: the node-local engine admits (or sheds),
//!    schedules, and runs the query down its own degradation ladder —
//!    device NDP ([`Tier::RemoteNdp`]) or the node's host CPU rung
//!    ([`Tier::RemoteCpu`]), with the node's full park/rescue/migrate/
//!    probe failure machinery in between.
//! 4. **Respond**: the result rides the same link back (sized by what
//!    the operator materialized — a bitset, a scalar, or packed
//!    projected values).
//!
//! When *no* replica holder is healthy — every holder's schedulable pool
//! is empty under [`RoutePolicy::ReplicaLocal`] — the ladder crosses the
//! tier boundary: the frontend **pulls the column** from the page store
//! over its own (slower) link and scans it locally
//! ([`Tier::LocalPull`]), serialized on the frontend's CPU clock. The
//! scan is computed functionally with the same code path the node-local
//! CPU rung uses, so every tier of the ladder returns byte-identical
//! results; only the *timing* degrades.
//!
//! # Determinism
//!
//! The frontend is itself a discrete-event loop over a single heap in
//! strict `(time, class, id)` order, with classes response < arrival <
//! delivery < pull-done. Before processing an event at time `t`, every
//! node engine is advanced up to `t` (the PR-3 steppable machinery), and
//! any completions they produced become response events — those carry
//! times `>` the previously processed event, so the global order is
//! monotone. Node engines only ever see arrivals injected at the current
//! frontend time, never in their processed past. Link jitter streams are
//! split per label from the fabric seed, so a cluster run is a pure
//! function of `(workload, placement, policies, configs, seed)` — and
//! node 0's traffic in an N-node run is byte-identical to a 1-node run
//! when the routing sends it the same queries.
//!
//! # What the control plane costs
//!
//! Routing reads node health and queue depth instantaneously — an
//! idealized gossip/heartbeat plane, standard in serving simulators; only
//! the *data* plane (requests, responses, column pulls) pays fabric
//! costs. The ledger of every link ends up in the [`ClusterReport`].

use crate::engine::{host_scan, host_scan_cost, Engine, EngineInvariant, ServeConfig, ServeEnv};
use crate::policy::SchedPolicy;
use crate::report::{mean, percentile, Availability, ExecMode, QueryRecord};
use crate::workload::{Arrivals, Workload};
use jafar_common::obs::{EventKind, SharedTracer};
use jafar_common::time::Tick;
use jafar_net::{LinkSpec, LinkStats, NetFabric, Placement};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Frontend event classes, in processing order at equal times: learn
/// outcomes first, then admit new arrivals, then hand deliveries to the
/// nodes, then retire local pulls.
const FCLASS_RESPONSE: u8 = 0;
const FCLASS_ARRIVAL: u8 = 1;
const FCLASS_DELIVER: u8 = 2;
const FCLASS_PULL_DONE: u8 = 3;

/// The frontend's event heap: `(time, class, query)` min-ordered.
type FrontHeap = BinaryHeap<Reverse<(Tick, u8, u32)>>;

/// How the frontend picks a replica holder for each arriving query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Rotate through the column's holders regardless of their state.
    /// A dark holder still completes its queries — on its node-local
    /// host rung — so this shows the cost of health-blind routing.
    RoundRobin,
    /// The holder with the fewest outstanding-plus-queued queries
    /// (ties to the lowest node id). Health-blind, load-aware.
    LeastOutstanding,
    /// Load-aware among *healthy* holders only (schedulable pool
    /// non-empty); when no holder is healthy, cross the tier boundary
    /// and pull the column to the frontend ([`Tier::LocalPull`]).
    #[default]
    ReplicaLocal,
}

impl RoutePolicy {
    /// Stable mnemonic for reports and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastOutstanding => "least-outstanding",
            RoutePolicy::ReplicaLocal => "replica-local",
        }
    }
}

/// Which tier of the cross-node degradation ladder served a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Ran on a memory node's JAFAR devices (near-data, the fast path).
    RemoteNdp,
    /// Ran on a memory node's host CPU rung (the node-local degrade,
    /// including stranded drains on a fully dark node).
    RemoteCpu,
    /// No healthy holder: the frontend pulled the column over the
    /// page-store link and scanned it itself — the last functional rung.
    LocalPull,
    /// Shed at the node's admission control; the rejection still rides
    /// the response link back.
    Shed,
}

impl Tier {
    /// Stable mnemonic for reports and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::RemoteNdp => "remote-ndp",
            Tier::RemoteCpu => "remote-cpu",
            Tier::LocalPull => "local-pull",
            Tier::Shed => "shed",
        }
    }
}

/// Cluster-tier knobs layered on top of the node-local [`ServeConfig`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Routing policy for arriving queries.
    pub route: RoutePolicy,
    /// Wire size of one routed request (predicate + operator + header).
    pub request_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            route: RoutePolicy::ReplicaLocal,
            request_bytes: 256,
        }
    }
}

/// Fixed response framing added on top of the result payload; a shed
/// notice is this header alone.
const RESPONSE_OVERHEAD_BYTES: u64 = 128;

/// Borrowed cluster machine state: one [`ServeEnv`] per memory node,
/// the column's replica placement, the fabric connecting everything, and
/// the frontend's trace sink. Mirrors [`ServeEnv`] one level up: the
/// caller owns the machines, the tier only decides who serves what.
pub struct ClusterEnv<'a> {
    /// One node-local serving machine per memory node, node id = index.
    /// Every node must serve the same host column (`values` slices all
    /// point at identical data).
    pub nodes: Vec<ServeEnv<'a>>,
    /// Which nodes hold a replica of the served column.
    pub placement: &'a Placement,
    /// The star fabric: link `i` connects the frontend to node `i`, and
    /// link `nodes.len()` is the page-store link the local-pull rung
    /// uses ([`cluster_fabric`] builds exactly this shape).
    pub fabric: &'a mut NetFabric,
    /// Trace sink for the frontend's routed/hop/pulled events (node
    /// engines keep tracing through their own env sinks).
    pub tracer: &'a SharedTracer,
}

/// Builds the standard star fabric for `nodes` memory nodes: one
/// datacenter-class link per node (labelled `node-{i}`) plus the slower
/// `page-store` link at index `nodes`, all jitter streams split from
/// `seed`, 200 ns fixed per-message cost.
pub fn cluster_fabric(nodes: usize, seed: u64) -> NetFabric {
    let mut fabric = NetFabric::new(seed, Tick::from_ns(200));
    for i in 0..nodes {
        fabric.add_link(&format!("node-{i}"), LinkSpec::datacenter());
    }
    fabric.add_link("page-store", LinkSpec::page_store());
    fabric
}

/// One query's life through the cluster, frontend-side.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterQuery {
    /// The node it was routed to; `None` for a frontend local pull.
    pub node: Option<u32>,
    /// The ladder tier that produced its result.
    pub tier: Tier,
    /// When it arrived at the frontend.
    pub submitted: Tick,
    /// When the frontend observed its outcome (result or shed notice).
    pub responded: Option<Tick>,
    /// Request hop delay (frontend → node), or the column-pull delay
    /// for a local pull.
    pub req_hop: Tick,
    /// Response hop delay (node → frontend); zero for a local pull.
    pub resp_hop: Tick,
    /// The node-local record (or the frontend's own, for a local pull):
    /// bitset / scalar / projection, node-side timestamps, exec mode.
    pub record: QueryRecord,
}

impl ClusterQuery {
    /// Frontend submission-to-response latency — the latency a client
    /// would see. `None` for shed queries.
    pub fn latency(&self) -> Option<Tick> {
        if self.tier == Tier::Shed {
            return None;
        }
        self.responded.map(|r| r.saturating_sub(self.submitted))
    }
}

/// One memory node's slice of a cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSummary {
    /// The node id.
    pub node: u32,
    /// Queries the frontend routed to this node.
    pub routed: u64,
    /// Of those, how many completed (either node-local tier).
    pub completed: u64,
    /// Of those, how many its admission control shed.
    pub shed: u64,
    /// The node's own unit-health ledger — quarantines on one node
    /// never appear in another node's counters.
    pub availability: Availability,
    /// Discrete events the node's engine processed.
    pub events: u64,
    /// The node engine's local makespan (its last decision instant).
    pub makespan: Tick,
    /// Traffic ledger of the node's fabric link.
    pub link: LinkStats,
}

/// Aggregate outcome of one [`run_cluster`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Every query in submission order.
    pub queries: Vec<ClusterQuery>,
    /// One summary per memory node, in node-id order.
    pub nodes: Vec<NodeSummary>,
    /// First frontend arrival to last frontend response.
    pub makespan: Tick,
    /// Node-local scheduling policy name.
    pub policy: &'static str,
    /// Routing policy name.
    pub route: &'static str,
    /// The served column's replication factor.
    pub replication: usize,
    /// Traffic ledger of the page-store link (local pulls).
    pub store_link: LinkStats,
    /// Total payload bytes across every fabric link.
    pub net_bytes: u64,
    /// Total messages across every fabric link.
    pub net_messages: u64,
}

impl ClusterReport {
    /// Queries that completed on any tier.
    pub fn completed(&self) -> usize {
        self.queries.iter().filter(|q| q.tier != Tier::Shed).count()
    }

    /// Queries shed at node admission.
    pub fn shed(&self) -> usize {
        self.tier_count(Tier::Shed)
    }

    /// Queries served on the given tier.
    pub fn tier_count(&self, tier: Tier) -> usize {
        self.queries.iter().filter(|q| q.tier == tier).count()
    }

    /// Sustained service rate: completions per second of makespan — the
    /// saturation-knee metric, same accounting as
    /// [`crate::report::ServeReport::service_rate_qps`].
    pub fn service_rate_qps(&self) -> f64 {
        let secs = self.makespan.as_ps() as f64 * 1e-12;
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }

    fn sorted_latencies(&self) -> Vec<Tick> {
        let mut lats: Vec<Tick> = self.queries.iter().filter_map(|q| q.latency()).collect();
        lats.sort_unstable();
        lats
    }

    /// Nearest-rank client-visible latency percentile (`pct` clamped to
    /// `1..=100`); `None` when nothing completed.
    pub fn latency_percentile(&self, pct: u64) -> Option<Tick> {
        percentile(&self.sorted_latencies(), pct)
    }

    /// Median client-visible latency.
    pub fn p50(&self) -> Option<Tick> {
        self.latency_percentile(50)
    }

    /// 99th-percentile client-visible latency.
    pub fn p99(&self) -> Option<Tick> {
        self.latency_percentile(99)
    }

    /// Mean request-hop delay over routed queries (the hop-latency
    /// breakdown's outbound half).
    pub fn mean_req_hop(&self) -> Option<Tick> {
        mean(
            self.queries
                .iter()
                .filter(|q| q.node.is_some())
                .map(|q| q.req_hop),
        )
    }

    /// Mean response-hop delay over routed queries (the inbound half).
    pub fn mean_resp_hop(&self) -> Option<Tick> {
        mean(
            self.queries
                .iter()
                .filter(|q| q.node.is_some())
                .map(|q| q.resp_hop),
        )
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster[{}/{}]: {} queries over {} node(s) (rf {}): {} completed ({} ndp / {} node-cpu / {} pull), {} shed",
            self.route,
            self.policy,
            self.queries.len(),
            self.nodes.len(),
            self.replication,
            self.completed(),
            self.tier_count(Tier::RemoteNdp),
            self.tier_count(Tier::RemoteCpu),
            self.tier_count(Tier::LocalPull),
            self.shed(),
        )?;
        let ms = |t: Option<Tick>| t.map_or(0.0, |t| t.as_ms_f64());
        writeln!(
            f,
            "  makespan {:.3} ms, service rate {:.1} q/s; latency p50 {:.3} / p99 {:.3} ms; hops out {:.3} / back {:.3} ms",
            self.makespan.as_ms_f64(),
            self.service_rate_qps(),
            ms(self.p50()),
            ms(self.p99()),
            ms(self.mean_req_hop()),
            ms(self.mean_resp_hop()),
        )?;
        writeln!(
            f,
            "  network: {} message(s), {} byte(s) total; page store {} pull byte(s)",
            self.net_messages, self.net_bytes, self.store_link.bytes,
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  node {}: {} routed, {} completed, {} shed, {} event(s), link {} B{}",
                n.node,
                n.routed,
                n.completed,
                n.shed,
                n.events,
                n.link.bytes,
                if n.availability.disturbed() {
                    " [disturbed]"
                } else {
                    ""
                },
            )?;
        }
        Ok(())
    }
}

/// Result payload bytes a finished query's response carries: the bitset,
/// the packed projected values, the aggregate scalar, and an 8-byte
/// status/count word.
fn result_bytes(rec: &QueryRecord) -> u64 {
    rec.bitset.len() as u64
        + rec.projected.len() as u64 * 8
        + rec.groups.len() as u64 * 24
        + if rec.agg.is_some() { 8 } else { 0 }
        + 8
}

/// The tier a node-side record's execution mode stands for.
fn node_tier(rec: &QueryRecord) -> Tier {
    match rec.mode {
        ExecMode::Shed => Tier::Shed,
        ExecMode::Cpu => Tier::RemoteCpu,
        ExecMode::Device { .. } => Tier::RemoteNdp,
        ExecMode::Pending => unreachable!("query {} answered while pending", rec.id),
    }
}

/// Harvests completions and sheds node `node` produced since the last
/// call, prices their response hops, enqueues the frontend response
/// events and moves each answered record out of the node into its
/// query's slot of the report. Response times can precede the event that
/// triggered the harvest but never the previously *processed* one: a
/// completion decided in `(t_prev, t]` has `done > t_prev`, so the
/// frontend's `(time, class, id)` order stays monotone.
fn harvest_node(
    node: usize,
    eng: &mut Engine<'_, '_>,
    fabric: &mut NetFabric,
    heap: &mut FrontHeap,
    queries: &mut [ClusterQuery],
    tracer: &SharedTracer,
) {
    for qid in eng.take_finished() {
        let rec = eng.take_record(qid);
        let done = rec.done.expect("finished queries carry a done stamp");
        let bytes = RESPONSE_OVERHEAD_BYTES + result_bytes(&rec);
        let hop = fabric.delay(node, bytes);
        tracer.emit(
            done,
            EventKind::NetHop {
                link: node as u32,
                bytes,
            },
        );
        heap.push(Reverse((done + hop, FCLASS_RESPONSE, qid)));
        let q = &mut queries[qid as usize];
        (q.tier, q.resp_hop, q.record) = (node_tier(&rec), hop, rec);
    }
    for qid in eng.take_shed() {
        // A shed decision happens at the query's node-side admission
        // instant; the rejection notice is a bare header on the wire.
        let rec = eng.take_record(qid);
        let at = rec.submitted;
        let hop = fabric.delay(node, RESPONSE_OVERHEAD_BYTES);
        tracer.emit(
            at,
            EventKind::NetHop {
                link: node as u32,
                bytes: RESPONSE_OVERHEAD_BYTES,
            },
        );
        heap.push(Reverse((at + hop, FCLASS_RESPONSE, qid)));
        let q = &mut queries[qid as usize];
        (q.tier, q.resp_hop, q.record) = (node_tier(&rec), hop, rec);
    }
}

/// Runs `workload` against the cluster in `env`: nodes serve under
/// `policy`/`cfg`, the frontend routes under `ccfg`. Returns the
/// cluster-wide report; every admitted query completes on some tier of
/// the cross-node ladder (or is explicitly shed by its node).
///
/// # Panics
/// Panics if `env.nodes` is empty, the fabric lacks a link per node plus
/// the page-store link, the placement names a node outside the cluster,
/// the nodes disagree on the served column, or the workload is
/// closed-loop (the cluster frontend drives open-loop arrivals; closed
/// loops would need response-triggered think timers — future work).
///
/// # Errors
/// Surfaces the first node-engine [`EngineInvariant`] violation, exactly
/// as [`crate::engine::run_serve_checked`] would.
pub fn run_cluster(
    env: ClusterEnv<'_>,
    workload: &Workload,
    policy: SchedPolicy,
    cfg: &ServeConfig,
    ccfg: &ClusterConfig,
) -> Result<ClusterReport, EngineInvariant> {
    let ClusterEnv {
        nodes: envs,
        placement,
        fabric,
        tracer,
    } = env;
    let nodes = envs.len();
    assert!(nodes > 0, "a cluster needs at least one memory node");
    let store_link = nodes;
    assert!(
        fabric.links() > store_link,
        "fabric needs one link per node plus the page-store link"
    );
    assert!(
        placement.holders().iter().all(|&h| h < nodes),
        "placement names a node outside the cluster"
    );
    let Arrivals::Open(times) = &workload.arrivals else {
        panic!("cluster serving drives open-loop workloads only");
    };
    let n = workload.len();
    assert_eq!(times.len(), n, "one arrival instant per query");
    let values: &[i64] = envs[0].values;
    assert!(
        envs.iter()
            .all(|e| std::ptr::eq(e.values, values) || e.values == values),
        "every node must serve the same column"
    );
    let keys: &[i64] = envs[0].keys;
    assert!(
        envs.iter()
            .all(|e| std::ptr::eq(e.keys, keys) || e.keys == keys),
        "every node must serve the same key column"
    );

    let mut engines: Vec<Engine<'_, '_>> = envs
        .into_iter()
        .map(|e| Engine::build(e, workload, policy, cfg))
        .collect();

    let mut heap: FrontHeap = BinaryHeap::new();
    for (i, &t) in times.iter().enumerate() {
        heap.push(Reverse((t, FCLASS_ARRIVAL, i as u32)));
    }

    // The report's queries are the frontend's per-query ledger. A record
    // stays a placeholder until its node answers and the record moves in
    // (`harvest_node`), or until the frontend pulls the column and scans
    // it itself.
    let mut queries: Vec<ClusterQuery> = workload
        .specs
        .iter()
        .enumerate()
        .map(|(i, spec)| ClusterQuery {
            node: None,
            tier: Tier::LocalPull,
            submitted: Tick::ZERO,
            responded: None,
            req_hop: Tick::ZERO,
            resp_hop: Tick::ZERO,
            record: QueryRecord::pending(i as u32, spec),
        })
        .collect();
    // Per-node ledgers and the frontend's own serial scan clock.
    let mut outstanding: Vec<u64> = vec![0; nodes];
    let mut routed_count: Vec<u64> = vec![0; nodes];
    let mut rr: usize = 0;
    let mut front_free = Tick::ZERO;

    loop {
        let Some(&Reverse((t_next, _, _))) = heap.peek() else {
            // No frontend event pending: anything still moving is inside
            // the nodes. Drain them fully; completions become response
            // events and the loop continues, or nothing progressed and
            // the run is over.
            let mut progressed = false;
            for eng in engines.iter_mut() {
                if eng.next_time().is_some() {
                    eng.advance_until(Tick::MAX)?;
                    progressed = true;
                }
            }
            for (i, eng) in engines.iter_mut().enumerate() {
                harvest_node(i, eng, fabric, &mut heap, &mut queries, tracer);
            }
            if heap.is_empty() && !progressed {
                break;
            }
            continue;
        };
        // Bring every node up to the next frontend instant and harvest
        // what they decided on the way; the true minimum event (possibly
        // a just-harvested earlier response) is then popped.
        for eng in engines.iter_mut() {
            eng.advance_until(t_next)?;
        }
        for (i, eng) in engines.iter_mut().enumerate() {
            harvest_node(i, eng, fabric, &mut heap, &mut queries, tracer);
        }
        let Reverse((t, class, qid)) = heap.pop().expect("peeked non-empty heap");
        let q = &mut queries[qid as usize];
        match class {
            FCLASS_ARRIVAL => {
                q.submitted = t;
                let holders = placement.holders();
                let chosen = match ccfg.route {
                    RoutePolicy::RoundRobin => {
                        let h = holders[rr % holders.len()];
                        rr += 1;
                        Some(h)
                    }
                    RoutePolicy::LeastOutstanding => holders
                        .iter()
                        .copied()
                        .min_by_key(|&h| (outstanding[h] + engines[h].queue_len() as u64, h)),
                    RoutePolicy::ReplicaLocal => holders
                        .iter()
                        .copied()
                        .filter(|&h| engines[h].schedulable_units() > 0)
                        .min_by_key(|&h| (outstanding[h] + engines[h].queue_len() as u64, h)),
                };
                match chosen {
                    Some(node) => {
                        q.node = Some(node as u32);
                        outstanding[node] += 1;
                        routed_count[node] += 1;
                        tracer.emit(
                            t,
                            EventKind::QueryRouted {
                                query: qid,
                                node: node as u32,
                                via: ccfg.route.name(),
                            },
                        );
                        tracer.emit(
                            t,
                            EventKind::NetHop {
                                link: node as u32,
                                bytes: ccfg.request_bytes,
                            },
                        );
                        let hop = fabric.delay(node, ccfg.request_bytes);
                        q.req_hop = hop;
                        heap.push(Reverse((t + hop, FCLASS_DELIVER, qid)));
                    }
                    None => {
                        // Tier 3: no healthy holder anywhere — pull the
                        // column over the page-store link and scan it on
                        // the frontend, serialized on its scan clock.
                        let spec = workload.specs[qid as usize];
                        let bytes = values.len() as u64 * 8;
                        tracer.emit(t, EventKind::ColumnPulled { query: qid, bytes });
                        tracer.emit(
                            t,
                            EventKind::NetHop {
                                link: store_link as u32,
                                bytes,
                            },
                        );
                        let pull = fabric.delay(store_link, bytes);
                        let begin = (t + pull).max(front_free);
                        let done = begin + host_scan_cost(cfg, values.len() as u64, spec.op);
                        front_free = done;
                        let mut rec = QueryRecord {
                            submitted: t,
                            started: Some(begin),
                            done: Some(done),
                            deadline: spec.slo.or(workload.slo).map_or(Tick::MAX, |s| t + s),
                            mode: ExecMode::Cpu,
                            ..QueryRecord::pending(qid, &spec)
                        };
                        host_scan(values, keys, &mut rec);
                        q.req_hop = pull;
                        q.record = rec;
                        heap.push(Reverse((done, FCLASS_PULL_DONE, qid)));
                    }
                }
            }
            FCLASS_DELIVER => {
                let node = q.node.expect("delivery implies a routed query");
                engines[node as usize].inject_arrival(qid, t);
            }
            FCLASS_RESPONSE => {
                let node = q.node.expect("response implies a routed query");
                outstanding[node as usize] -= 1;
                q.responded = Some(t);
            }
            _ => {
                debug_assert_eq!(class, FCLASS_PULL_DONE);
                q.responded = Some(t);
            }
        }
    }

    // Epilogue: every record already sits in its query's slot. Count each
    // node's outcomes in one pass and fold the node engines into their
    // summaries.
    let mut completed = vec![0u64; nodes];
    let mut shed = vec![0u64; nodes];
    for q in &queries {
        let Some(node) = q.node else {
            continue;
        };
        match q.tier {
            _ if q.record.mode == ExecMode::Pending => {
                unreachable!("routed query {} left pending after full drain", q.record.id)
            }
            Tier::Shed => shed[node as usize] += 1,
            _ => completed[node as usize] += 1,
        }
    }
    let nodes_summary: Vec<NodeSummary> = engines
        .into_iter()
        .enumerate()
        .map(|(i, eng)| {
            let rep = eng.into_report();
            NodeSummary {
                node: i as u32,
                routed: routed_count[i],
                completed: completed[i],
                shed: shed[i],
                availability: rep.availability,
                events: rep.events,
                makespan: rep.makespan,
                link: fabric.stats(i),
            }
        })
        .collect();
    let makespan = queries
        .iter()
        .filter_map(|q| q.responded)
        .max()
        .unwrap_or(Tick::ZERO);
    Ok(ClusterReport {
        queries,
        nodes: nodes_summary,
        makespan,
        policy: policy.name(),
        route: ccfg.route.name(),
        replication: placement.factor(),
        store_link: fabric.stats(store_link),
        net_bytes: fabric.total_bytes(),
        net_messages: fabric.total_messages(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ChannelRankPool;
    use crate::workload::{AggFn, PredicateMix, QueryOp, QuerySpec};
    use jafar_common::rng::SplitMix64;
    use jafar_core::device::JafarDevice;
    use jafar_core::driver::{ResilienceConfig, ResilientDriver};
    use jafar_dram::{
        AddressMapping, DramGeometry, DramModule, DramTiming, FaultInjector, FaultPlan, PhysAddr,
    };

    const ROWS: u64 = 2048;

    /// One memory node's machine, same layout as the engine tests' rig.
    struct NodeRig {
        module: DramModule,
        pool: ChannelRankPool,
        devices: Vec<JafarDevice>,
        drivers: Vec<ResilientDriver>,
        replicas: Vec<PhysAddr>,
        outs: Vec<PhysAddr>,
        proj_outs: Vec<PhysAddr>,
        stage_outs: Vec<PhysAddr>,
    }

    struct ClusterRig {
        nodes: Vec<NodeRig>,
        values: Vec<i64>,
        keys: Vec<i64>,
        tracer: SharedTracer,
    }

    fn cluster_rig(nodes: usize, ranks_per_node: u32, seed: u64) -> ClusterRig {
        let mut rng = SplitMix64::new(seed);
        let values: Vec<i64> = (0..ROWS)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let mut krng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let keys: Vec<i64> = (0..ROWS)
            .map(|_| krng.next_range_inclusive(0, 15))
            .collect();
        let geom = DramGeometry {
            ranks: ranks_per_node,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        let rank_bytes = geom.rank_bytes();
        let nodes = (0..nodes)
            .map(|_| {
                let mut module = DramModule::new(
                    geom,
                    DramTiming::ddr3_paper().without_refresh(),
                    AddressMapping::RankRowBankBlock,
                );
                let mut replicas = Vec::new();
                let mut outs = Vec::new();
                let mut proj_outs = Vec::new();
                let mut stage_outs = Vec::new();
                for r in 0..ranks_per_node as u64 {
                    let col = PhysAddr(r * rank_bytes);
                    module.data_mut().write_i64s(col, &values);
                    replicas.push(col);
                    outs.push(PhysAddr(r * rank_bytes + 192 * 1024));
                    proj_outs.push(PhysAddr(r * rank_bytes + 64 * 1024));
                    stage_outs.push(PhysAddr(r * rank_bytes + 128 * 1024));
                }
                NodeRig {
                    module,
                    pool: ChannelRankPool::new(1, ranks_per_node as usize),
                    devices: (0..ranks_per_node)
                        .map(|_| JafarDevice::paper_default())
                        .collect(),
                    drivers: (0..ranks_per_node)
                        .map(|_| ResilientDriver::new(ResilienceConfig::default()))
                        .collect(),
                    replicas,
                    outs,
                    proj_outs,
                    stage_outs,
                }
            })
            .collect();
        ClusterRig {
            nodes,
            values,
            keys,
            tracer: SharedTracer::disabled(),
        }
    }

    impl ClusterRig {
        fn run(
            &mut self,
            placement: &Placement,
            fabric: &mut NetFabric,
            workload: &Workload,
            policy: SchedPolicy,
            cfg: &ServeConfig,
            ccfg: &ClusterConfig,
        ) -> ClusterReport {
            let ClusterRig {
                nodes,
                values,
                keys,
                tracer,
            } = self;
            let envs: Vec<ServeEnv<'_>> = nodes
                .iter_mut()
                .map(|node| ServeEnv {
                    modules: vec![&mut node.module],
                    pool: &node.pool,
                    devices: &mut node.devices,
                    drivers: &mut node.drivers,
                    replicas: &node.replicas,
                    outs: &node.outs,
                    proj_outs: &node.proj_outs,
                    values,
                    keys,
                    stage_outs: &node.stage_outs,
                    tracer,
                })
                .collect();
            run_cluster(
                ClusterEnv {
                    nodes: envs,
                    placement,
                    fabric,
                    tracer,
                },
                workload,
                policy,
                cfg,
                ccfg,
            )
            .expect("cluster invariants hold")
        }
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

    /// Every completed query's payload must match the functional
    /// reference, whatever tier served it.
    fn assert_byte_identity(report: &ClusterReport, values: &[i64]) {
        for q in &report.queries {
            if q.tier == Tier::Shed {
                continue;
            }
            let rec = &q.record;
            let reference = reference_bytes(values, rec.lo, rec.hi);
            let matched = reference.iter().map(|b| b.count_ones() as u64).sum::<u64>();
            assert_eq!(rec.matched, matched, "query {} match count", rec.id);
            match rec.op {
                QueryOp::Select => assert_eq!(rec.bitset, reference, "query {} bitset", rec.id),
                QueryOp::SelectCount => assert_eq!(rec.agg, Some(matched as i64)),
                QueryOp::SelectAgg(AggFn::Sum) => {
                    let sum = values
                        .iter()
                        .copied()
                        .filter(|&v| v >= rec.lo && v <= rec.hi)
                        .fold(0i64, |a, v| a.wrapping_add(v));
                    assert_eq!(rec.agg, Some(sum), "query {} sum", rec.id);
                }
                QueryOp::SelectAgg(_) => {}
                QueryOp::Project { .. } => {
                    let expect: Vec<i64> = values
                        .iter()
                        .copied()
                        .filter(|&v| v >= rec.lo && v <= rec.hi)
                        .collect();
                    assert_eq!(rec.bitset, reference, "query {} bitset", rec.id);
                    assert_eq!(rec.projected, expect, "query {} projection", rec.id);
                }
                QueryOp::SemiJoin { .. } | QueryOp::GroupBy { .. } => {
                    unreachable!("this case mix does not generate joins or group-bys")
                }
            }
        }
    }

    fn mixed_workload(n: usize, mean_gap: Tick, seed: u64) -> Workload {
        Workload::poisson(
            PredicateMix::UniformRange {
                min: 0,
                max: 999,
                width: 300,
            },
            n,
            mean_gap,
            seed,
        )
        .with_op_mix(&[
            QueryOp::Select,
            QueryOp::SelectCount,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::Project { k: 2 },
        ])
    }

    fn roomy_cfg() -> ServeConfig {
        ServeConfig {
            max_queue: 64,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn cluster_results_are_byte_identical_across_tiers_and_nodes() {
        let mut rig = cluster_rig(2, 1, 41);
        let placement = Placement::hot(2);
        let mut fabric = cluster_fabric(2, 0xC1);
        let workload = mixed_workload(12, Tick::from_us(30), 43);
        let report = rig.run(
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &roomy_cfg(),
            &ClusterConfig::default(),
        );
        assert_eq!(report.completed(), 12);
        assert_eq!(report.shed(), 0);
        assert_byte_identity(&report, &rig.values);
        // Replica-local routing over two healthy holders spreads load.
        assert!(report.nodes.iter().all(|n| n.routed > 0));
        assert!(report.net_messages >= 24, "request + response per query");
        assert_eq!(report.store_link.messages, 0, "no pulls while healthy");
        // Every routed query paid both hops.
        for q in &report.queries {
            assert!(q.req_hop > Tick::ZERO && q.resp_hop > Tick::ZERO);
            assert!(q.latency().unwrap() >= q.req_hop + q.resp_hop);
        }
    }

    #[test]
    fn node_links_carry_each_request_answer_and_shed_notice() {
        // A burst against one-deep node queues: some queries are shed at
        // their node, the rest answered.
        let mut rig = cluster_rig(2, 1, 41);
        let placement = Placement::hot(2);
        let mut fabric = cluster_fabric(2, 0xC1);
        let workload = mixed_workload(24, Tick::from_ns(500), 43);
        let cfg = ServeConfig {
            max_queue: 1,
            ..ServeConfig::default()
        };
        let report = rig.run(
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &cfg,
            &ClusterConfig::default(),
        );
        assert!(report.shed() > 0 && report.completed() > 0);
        // A 256 B request per routed query; an answer carries its payload
        // and 128 B of framing, a shed notice the 128 B header alone.
        let mut want = [0u64; 2];
        for q in &report.queries {
            let node = q.node.expect("both holders stay healthy") as usize;
            want[node] += 256 + 128;
            if q.tier != Tier::Shed {
                want[node] += result_bytes(&q.record);
            }
        }
        for n in &report.nodes {
            assert_eq!(n.link.bytes, want[n.node as usize], "node {}", n.node);
        }
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let run = || {
            let mut rig = cluster_rig(2, 1, 7);
            let placement = Placement::hot(2);
            let mut fabric = cluster_fabric(2, 0xFAB);
            let workload = mixed_workload(10, Tick::from_us(25), 9);
            rig.run(
                &placement,
                &mut fabric,
                &workload,
                SchedPolicy::Fifo,
                &roomy_cfg(),
                &ClusterConfig::default(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_nodes_drain_an_overload_faster_than_one() {
        let workload = mixed_workload(20, Tick::from_us(5), 17);
        let run = |nodes: usize| {
            let mut rig = cluster_rig(nodes, 1, 23);
            let placement = Placement::hot(nodes);
            let mut fabric = cluster_fabric(nodes, 0xA0);
            rig.run(
                &placement,
                &mut fabric,
                &workload,
                SchedPolicy::Fifo,
                &roomy_cfg(),
                &ClusterConfig::default(),
            )
        };
        let solo = run(1);
        let duo = run(2);
        assert_eq!(solo.completed(), 20);
        assert_eq!(duo.completed(), 20);
        assert!(
            duo.makespan < solo.makespan,
            "two nodes must drain the same overload sooner: {} vs {}",
            duo.makespan.as_ms_f64(),
            solo.makespan.as_ms_f64()
        );
    }

    #[test]
    fn dark_node_under_blind_routing_completes_on_its_host_rung() {
        let mut rig = cluster_rig(2, 1, 29);
        // Node 1's only rank is dark for the whole run; round-robin
        // keeps sending it queries anyway.
        rig.nodes[1]
            .module
            .set_fault_injector(Some(FaultInjector::new(FaultPlan::none(1).with_outage(
                0,
                Tick::ZERO,
                Tick::MAX,
            ))));
        let placement = Placement::hot(2);
        let mut fabric = cluster_fabric(2, 0xBAD);
        let workload = mixed_workload(10, Tick::from_us(40), 31);
        let report = rig.run(
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &roomy_cfg(),
            &ClusterConfig {
                route: RoutePolicy::RoundRobin,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(report.completed(), 10, "dark node still answers");
        assert_byte_identity(&report, &rig.values);
        let dark: Vec<&ClusterQuery> = report
            .queries
            .iter()
            .filter(|q| q.node == Some(1))
            .collect();
        assert_eq!(dark.len(), 5, "round-robin over two holders");
        assert!(
            dark.iter().all(|q| q.tier == Tier::RemoteCpu),
            "everything on the dark node lands on its host rung"
        );
        // The outage is confined to node 1's counters.
        assert!(report.nodes[1].availability.disturbed());
        assert!(!report.nodes[0].availability.disturbed());
        assert!(report
            .queries
            .iter()
            .filter(|q| q.node == Some(0))
            .all(|q| q.tier == Tier::RemoteNdp));
    }

    #[test]
    fn rf1_dark_holder_falls_back_to_frontend_pulls() {
        let mut rig = cluster_rig(2, 1, 53);
        // The column lives only on node 0, and node 0 is dark.
        rig.nodes[0]
            .module
            .set_fault_injector(Some(FaultInjector::new(FaultPlan::none(1).with_outage(
                0,
                Tick::ZERO,
                Tick::MAX,
            ))));
        let placement = Placement::cold(2, 1);
        let mut fabric = cluster_fabric(2, 0xD00);
        let workload = mixed_workload(10, Tick::from_us(40), 59);
        let report = rig.run(
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &roomy_cfg(),
            &ClusterConfig::default(),
        );
        assert_eq!(report.completed(), 10, "the ladder never loses a query");
        assert_byte_identity(&report, &rig.values);
        // Early arrivals route to node 0 (its pool looks healthy until
        // the first park quarantines the rank) and drain on its host
        // rung; once quarantined, replica-local routing finds no healthy
        // holder and the frontend pulls the column itself.
        let pulls = report.tier_count(Tier::LocalPull);
        assert!(pulls >= 1, "quarantine must force at least one pull");
        assert_eq!(
            report.store_link.messages as usize, pulls,
            "one page-store pull per local scan"
        );
        assert_eq!(report.store_link.bytes, pulls as u64 * ROWS * 8);
        // Queries in flight when the rank goes dark drain node-side
        // (parked shard salvaged functionally; the record keeps its
        // dispatch rung's label), so the routed remainder splits between
        // RemoteNdp-labelled drains and RemoteCpu degrades — but routing
        // must have stopped at the quarantine, leaving the bulk to pulls.
        let routed_to_0 = report.nodes[0].routed as usize;
        assert!(routed_to_0 >= 1, "the holder looked healthy at first");
        assert_eq!(pulls + routed_to_0, 10);
        assert!(
            pulls > routed_to_0,
            "after quarantine the frontend stops routing to the dark holder"
        );
        // Node 1 holds no replica and must never be routed to.
        assert_eq!(report.nodes[1].routed, 0);
        assert!(!report.nodes[1].availability.disturbed());
    }

    #[test]
    fn shed_notices_ride_the_response_link() {
        let mut rig = cluster_rig(1, 1, 61);
        let placement = Placement::hot(1);
        let mut fabric = cluster_fabric(1, 0x5ED);
        // A tiny queue under a burst: some arrivals must shed.
        let specs: Vec<QuerySpec> = (0..8)
            .map(|_| QuerySpec {
                lo: 100,
                hi: 500,
                op: QueryOp::Select,
                slo: None,
            })
            .collect();
        let workload = Workload {
            specs,
            arrivals: Arrivals::Open(vec![Tick::ZERO; 8]),
            slo: None,
        };
        let cfg = ServeConfig {
            max_queue: 2,
            ..ServeConfig::default()
        };
        let report = rig.run(
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &cfg,
            &ClusterConfig::default(),
        );
        assert!(report.shed() > 0, "a burst over a tiny queue must shed");
        assert_eq!(report.completed() + report.shed(), 8);
        for q in report.queries.iter().filter(|q| q.tier == Tier::Shed) {
            assert!(q.responded.is_some(), "the frontend learns of the shed");
            assert!(q.latency().is_none(), "shed queries have no latency");
        }
        assert_byte_identity(&report, &rig.values);
    }
}
