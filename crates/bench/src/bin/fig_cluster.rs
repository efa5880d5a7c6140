//! Disaggregated serving grid — the cluster-shaped follow-on to
//! `fig_serving`: N memory nodes behind a deterministic fabric, replica
//! routing, and the degradation ladder stretched across tiers.
//!
//! Four experiments over one seeded mixed-operator stream, and one on
//! the host cost of a grid serve:
//!
//! - **node sweep** — N ∈ {1, 2, 4} fully-replicated nodes under
//!   replica-local routing on a saturating open-loop load: the
//!   saturation knee (service rate over the run's makespan) must scale
//!   ≥ 1.6× from one node to two (the acceptance gate `bench_check`
//!   re-enforces from the persisted artifact), and every per-query
//!   result must be byte-identical both to the functional reference and
//!   across node counts;
//! - **route sweep** — the same 2-node load under round-robin,
//!   least-outstanding and replica-local routing, reporting the tier mix
//!   each policy produces;
//! - **outage run** — node 1 fully dark from tick zero under blind
//!   round-robin: every admitted query still completes (remote NDP on
//!   the healthy node, the node-local CPU rung on the dark one) with
//!   results byte-identical to the solo run, and the disturbance is
//!   confined to node 1's availability ledger;
//! - **pull run** — replication factor 1 with the only holder dark: the
//!   frontend falls back to the ladder's last rung, pulling the column
//!   over the page-store link and scanning it locally; the store link's
//!   ledger must bill exactly one pull per fallen-back query;
//! - **scale** — a 4-node grid serves plain selects over a 4,096-row
//!   column at `n` and `16·n` queries (1,000 and 16,000; 500 and 8,000 in
//!   smoke mode), best of 3 serves each: the host time per query at
//!   `16·n` must stay within 1.5× of that at `n` (`bench_check` re-checks
//!   the ratio from the artifact), so a grid serve costs linear host
//!   time in its query count.
//!
//! Usage: `fig_cluster [--rows N] [--queries N] [--csv] [--smoke]`
//!
//! Persists `BENCH_cluster.json` (carrying forward the accepted
//! `baseline` object — see `bench_check --accept`) for the CI gate.

use jafar_bench::{arg, carry_baseline, f2, flag, jnum, print_table, write_bench_json};
use jafar_common::obs::SharedTracer;
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_dram::{DramGeometry, FaultPlan};
use jafar_net::Placement;
use jafar_serve::cluster::{ClusterConfig, ClusterQuery, RoutePolicy, Tier};
use jafar_serve::{AggFn, PredicateMix, QueryOp, SchedPolicy, ServeConfig, Workload};
use jafar_sim::{GridServeRun, ServeGrid, SystemConfig};
use std::time::Instant;

const FABRIC_SEED: u64 = 0xFAB;
/// Operators cycle with period 3 — coprime to every node count in the
/// sweep, so the round-robin op assignment never correlates with the
/// routed node (a period-4 mix hands one node of a 2- or 4-node grid
/// *all* the expensive projections and fakes a scaling wall).
const OP_MIX: [QueryOp; 3] = [
    QueryOp::Select,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::Project { k: 2 },
];

/// gem5-like node: a 4-rank DIMM per memory node — 3 NDP filter units,
/// the last rank CPU-private — so even the single-node grid schedules a
/// real pool.
fn config() -> SystemConfig {
    let mut cfg = SystemConfig::gem5_like();
    cfg.dram_geometry = DramGeometry {
        ranks: 4,
        banks_per_rank: 8,
        rows_per_bank: 1024,
        row_bytes: 8 * 1024,
    };
    cfg
}

fn serve_config(queries: usize) -> ServeConfig {
    ServeConfig {
        // The sweep measures the service knee, not admission policy:
        // the queue admits the whole stream so nothing is shed.
        max_queue: queries.max(1),
        ..ServeConfig::default()
    }
}

fn workload(queries: usize, seed: u64) -> Workload {
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 300,
    };
    // A 200 ns mean gap keeps even the 4-node grid service-bound: the
    // knee measures capacity, not the arrival window.
    Workload::poisson(mix, queries, Tick::from_ns(200), seed).with_op_mix(&OP_MIX)
}

/// One grid run from a fresh machine.
#[allow(clippy::too_many_arguments)]
fn run(
    values: &[i64],
    nodes: usize,
    placement: &Placement,
    route: RoutePolicy,
    queries: usize,
    seed: u64,
    dark_node: Option<usize>,
) -> GridServeRun {
    let mut grid = ServeGrid::new(config(), nodes, SharedTracer::disabled());
    if let Some(node) = dark_node {
        // Every NDP unit of the node dark for the whole run: the node's
        // engine can only answer on its host-CPU rung.
        let mut plan = FaultPlan::none(7);
        for unit in 0..grid.units_per_node() as u32 {
            plan = plan.with_outage(unit, Tick::ZERO, Tick::MAX);
        }
        grid.inject_faults_on_node(node, plan);
    }
    let mut fabric = grid.fabric(FABRIC_SEED);
    grid.serve(
        values,
        placement,
        &mut fabric,
        &workload(queries, seed),
        SchedPolicy::Fifo,
        &serve_config(queries),
        &ClusterConfig {
            route,
            ..ClusterConfig::default()
        },
    )
}

/// Every completed record checked against the functional reference —
/// the per-node byte-identity contract, operator by operator.
fn assert_byte_identity(values: &[i64], queries: &[ClusterQuery], label: &str) {
    for q in queries {
        if q.tier == Tier::Shed {
            continue;
        }
        let rec = &q.record;
        let matching: Vec<i64> = values
            .iter()
            .copied()
            .filter(|v| (rec.lo..=rec.hi).contains(v))
            .collect();
        let mut bytes = vec![0u8; values.len().div_ceil(8)];
        for (i, v) in values.iter().enumerate() {
            if (rec.lo..=rec.hi).contains(v) {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        assert_eq!(
            rec.matched,
            matching.len() as u64,
            "{label}: q{} matched",
            rec.id
        );
        match rec.op {
            QueryOp::Select => assert_eq!(rec.bitset, bytes, "{label}: q{} bitset", rec.id),
            QueryOp::SelectCount => {
                assert_eq!(
                    rec.agg,
                    Some(matching.len() as i64),
                    "{label}: q{} count",
                    rec.id
                );
            }
            QueryOp::SelectAgg(AggFn::Sum) => {
                let sum = matching.iter().copied().reduce(|a, b| a.wrapping_add(b));
                assert_eq!(rec.agg, sum, "{label}: q{} sum", rec.id);
            }
            QueryOp::Project { .. } => {
                assert_eq!(rec.bitset, bytes, "{label}: q{} project bitset", rec.id);
                assert_eq!(rec.projected, matching, "{label}: q{} projection", rec.id);
            }
            other => panic!("{label}: unexpected operator {other:?}"),
        }
    }
}

/// Result payloads (not timings — those legitimately differ when the
/// load splits across nodes) of two runs over the same stream.
fn results_identical(a: &[ClusterQuery], b: &[ClusterQuery]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let (rx, ry) = (&x.record, &y.record);
            rx.id == ry.id
                && rx.matched == ry.matched
                && rx.bitset == ry.bitset
                && rx.agg == ry.agg
                && rx.projected == ry.projected
        })
}

fn tier_counts(run: &GridServeRun) -> (usize, usize, usize, usize) {
    let r = &run.report;
    (
        r.tier_count(Tier::RemoteNdp),
        r.tier_count(Tier::RemoteCpu),
        r.tier_count(Tier::LocalPull),
        r.tier_count(Tier::Shed),
    )
}

/// Grid size, column rows and serves per size of the scale experiment.
const SCALE_NODES: usize = 4;
const SCALE_ROWS: usize = 4096;
const SCALE_REPS: usize = 3;
/// The most host time per query the `16·n` serve may cost, as a multiple
/// of the `n` serve's.
const MAX_SCALE_RATIO: f64 = 1.5;

/// Best-of-[`SCALE_REPS`] host microseconds per query of a
/// [`SCALE_NODES`]-node grid serving `queries` plain selects. Each serve
/// gets a fresh grid, built outside the timer, so every repetition also
/// allocates the functional store's pages its placement writes, as the
/// first serve of a machine does.
fn scale_us_per_query(values: &[i64], queries: usize) -> f64 {
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 300,
    };
    let workload = Workload::poisson(mix, queries, Tick::from_us(40), 0x5CA1E);
    let placement = Placement::hot(SCALE_NODES);
    let mut best = f64::INFINITY;
    for _ in 0..SCALE_REPS {
        let mut grid = ServeGrid::new(config(), SCALE_NODES, SharedTracer::disabled());
        let mut fabric = grid.fabric(FABRIC_SEED);
        let t0 = Instant::now();
        let run = grid.serve(
            values,
            &placement,
            &mut fabric,
            &workload,
            SchedPolicy::Fifo,
            &serve_config(queries),
            &ClusterConfig::default(),
        );
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(run.report.completed(), queries, "scale: all complete");
    }
    best * 1e6 / queries as f64
}

fn ms(t: Option<Tick>) -> f64 {
    t.map_or(f64::NAN, |t| t.as_ms_f64())
}

fn main() {
    let smoke = flag("--smoke");
    let rows: usize = arg("--rows", if smoke { 4096 } else { 32_768 });
    let queries: usize = arg("--queries", if smoke { 24 } else { 96 });
    let csv = flag("--csv");
    let seed = 0xC1B5;

    println!("# Disaggregated serving grid: node-count x replication sweep");
    println!(
        "# workload: {queries} mixed-operator queries over {rows} rows, open-loop, 200 ns mean gap"
    );
    let cfg = config();
    println!(
        "# node: {} / {} (3 NDP units per node)",
        cfg.name,
        cfg.dram_geometry.describe()
    );
    println!();

    let mut rng = SplitMix64::new(0x5EED);
    let values: Vec<i64> = (0..rows)
        .map(|_| rng.next_range_inclusive(0, 999))
        .collect();

    // --- Node sweep: N fully-replicated nodes, replica-local routing ---
    let mut sweep: Vec<(usize, GridServeRun)> = Vec::new();
    for nodes in [1usize, 2, 4] {
        let run = run(
            &values,
            nodes,
            &Placement::hot(nodes),
            RoutePolicy::ReplicaLocal,
            queries,
            seed,
            None,
        );
        assert_eq!(
            run.report.completed(),
            queries,
            "{nodes} nodes: all complete"
        );
        assert_byte_identity(&values, &run.report.queries, &format!("{nodes}-node sweep"));
        sweep.push((nodes, run));
    }
    let rate = |i: usize| sweep[i].1.report.service_rate_qps();
    let knee2 = rate(1) / rate(0);
    let knee4 = rate(2) / rate(0);
    assert!(
        knee2 >= 1.6,
        "2-node knee moved only {knee2:.2}x the single node (< 1.6x)"
    );
    assert!(
        results_identical(&sweep[0].1.report.queries, &sweep[1].1.report.queries)
            && results_identical(&sweep[0].1.report.queries, &sweep[2].1.report.queries),
        "per-query results must not depend on the node count"
    );

    if csv {
        println!("nodes,replication,service_rate_qps,p50_ms,p99_ms,net_kib,msgs");
    }
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    for (nodes, run) in &sweep {
        let r = &run.report;
        if csv {
            println!(
                "{nodes},{},{:.0},{:.3},{:.3},{:.1},{}",
                r.replication,
                r.service_rate_qps(),
                ms(r.p50()),
                ms(r.p99()),
                r.net_bytes as f64 / 1024.0,
                r.net_messages
            );
        }
        rows_out.push(vec![
            format!("{nodes}"),
            format!("{}", r.replication),
            format!("{:.0}", r.service_rate_qps()),
            f2(ms(r.p50())),
            f2(ms(r.p99())),
            f2(r.net_bytes as f64 / 1024.0),
            format!("{}", r.net_messages),
        ]);
    }
    if !csv {
        print_table(
            &[
                "nodes",
                "rf",
                "rate (q/s)",
                "p50 (ms)",
                "p99 (ms)",
                "net (KiB)",
                "msgs",
            ],
            &rows_out,
        );
        println!();
        println!(
            "# knee: 2 nodes = {knee2:.2}x the single node (gate >= 1.6x), 4 nodes = {knee4:.2}x"
        );
        println!();
    }

    // --- Route sweep: the same 2-node load under each routing policy ---
    let mut routes: Vec<(RoutePolicy, GridServeRun)> = Vec::new();
    for route in [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastOutstanding,
        RoutePolicy::ReplicaLocal,
    ] {
        let run = run(&values, 2, &Placement::hot(2), route, queries, seed, None);
        assert_eq!(run.report.completed(), queries, "{route:?}: all complete");
        assert_byte_identity(&values, &run.report.queries, "route sweep");
        routes.push((route, run));
    }
    if !csv {
        let rows_out: Vec<Vec<String>> = routes
            .iter()
            .map(|(route, run)| {
                let (ndp, cpu, pull, shed) = tier_counts(run);
                vec![
                    route.name().to_string(),
                    format!("{:.0}", run.report.service_rate_qps()),
                    format!("{ndp}"),
                    format!("{cpu}"),
                    format!("{pull}"),
                    format!("{shed}"),
                ]
            })
            .collect();
        print_table(
            &[
                "route (2 nodes)",
                "rate (q/s)",
                "ndp",
                "node-cpu",
                "pull",
                "shed",
            ],
            &rows_out,
        );
        println!();
    }

    // --- Outage run: node 1 fully dark, blind round-robin keeps
    // routing to it — the ladder answers everything anyway ---
    let outage = run(
        &values,
        2,
        &Placement::hot(2),
        RoutePolicy::RoundRobin,
        queries,
        seed,
        Some(1),
    );
    assert_eq!(
        outage.report.completed(),
        queries,
        "outage: every admitted query completes"
    );
    assert_byte_identity(&values, &outage.report.queries, "outage");
    let identity_vs_solo = results_identical(&outage.report.queries, &sweep[0].1.report.queries);
    assert!(identity_vs_solo, "outage results must match the solo run");
    assert!(
        outage.report.nodes[1].availability.disturbed(),
        "outage: node 1's ledger records the quarantine"
    );
    assert!(
        !outage.report.nodes[0].availability.disturbed(),
        "outage: node 0 is untouched"
    );
    let (o_ndp, o_cpu, o_pull, o_shed) = tier_counts(&outage);
    assert!(o_cpu >= 1, "outage: the dark node answers on its CPU rung");
    println!(
        "# outage (node 1 dark, round-robin): {queries}/{queries} complete — {o_ndp} remote-ndp, \
         {o_cpu} node-cpu, {o_pull} pulls, {o_shed} shed; results identical to the solo run,"
    );
    println!("#   disturbance confined to node 1's availability ledger.");

    // --- Pull run: replication factor 1, the only holder dark — the
    // frontend's pull-and-scan rung is the last resort ---
    let pull = run(
        &values,
        2,
        &Placement::cold(2, 1),
        RoutePolicy::ReplicaLocal,
        queries,
        seed,
        Some(0),
    );
    assert_eq!(pull.report.completed(), queries, "pull run: all complete");
    assert_byte_identity(&values, &pull.report.queries, "pull run");
    let (p_ndp, p_cpu, p_pulls, _) = tier_counts(&pull);
    assert!(p_pulls >= 1, "quarantined holder forces frontend pulls");
    assert_eq!(
        pull.report.store_link.messages, p_pulls as u64,
        "one page-store transfer per pull"
    );
    println!(
        "# rf=1 pull run (holder dark): {p_pulls} frontend pulls ({} KiB over the page-store \
         link), {p_ndp} ndp + {p_cpu} node-cpu before quarantine.",
        pull.report.store_link.bytes / 1024
    );

    // --- Scale: host time per query at n and 16·n queries ---
    let scale_small = if smoke { 500 } else { 1000 };
    let scale_large = 16 * scale_small;
    let mut rng = SplitMix64::new(0x5CA1E);
    let scale_values: Vec<i64> = (0..SCALE_ROWS)
        .map(|_| rng.next_range_inclusive(0, 999))
        .collect();
    let small_us = scale_us_per_query(&scale_values, scale_small);
    let large_us = scale_us_per_query(&scale_values, scale_large);
    let scale_ratio = large_us / small_us;
    println!(
        "# scale ({SCALE_NODES}-node grid, {SCALE_ROWS}-row selects, best of {SCALE_REPS}): \
         {small_us:.1} us/query at {scale_small} queries, {large_us:.1} at {scale_large} \
         ({scale_ratio:.2}x, gate <= {MAX_SCALE_RATIO}x)"
    );
    assert!(
        scale_ratio <= MAX_SCALE_RATIO,
        "scale: {scale_large} queries cost {scale_ratio:.2}x the host time per query of \
         {scale_small} (> {MAX_SCALE_RATIO}x)"
    );

    // --- Persist the artifact, carrying the accepted baseline ---
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(nodes, run)| {
            let r = &run.report;
            format!(
                "    {{\"nodes\": {nodes}, \"replication\": {}, \"service_rate_qps\": {}, \
                 \"p50_ms\": {}, \"p99_ms\": {}, \"completed\": {}, \"shed\": {}, \
                 \"net_bytes\": {}, \"net_messages\": {}}}",
                r.replication,
                jnum(r.service_rate_qps()),
                jnum(ms(r.p50())),
                jnum(ms(r.p99())),
                r.completed(),
                r.shed(),
                r.net_bytes,
                r.net_messages,
            )
        })
        .collect();
    let routes_json: Vec<String> = routes
        .iter()
        .map(|(route, run)| {
            let (ndp, cpu, pull, shed) = tier_counts(run);
            format!(
                "    {{\"route\": \"{}\", \"service_rate_qps\": {}, \"remote_ndp\": {ndp}, \
                 \"remote_cpu\": {cpu}, \"local_pull\": {pull}, \"shed\": {shed}}}",
                route.name(),
                jnum(run.report.service_rate_qps()),
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"fig_cluster\",\n  \"smoke\": {smoke},\n  \"rows\": {rows},\n  \
         \"queries\": {queries},\n  \"node_sweep\": [\n{}\n  ],\n  \
         \"knee_2node_multiple\": {},\n  \"knee_4node_multiple\": {},\n  \
         \"route_sweep\": [\n{}\n  ],\n  \
         \"outage\": {{\"nodes\": 2, \"queries\": {queries}, \"completed\": {}, \"shed\": {o_shed}, \
         \"remote_ndp\": {o_ndp}, \"remote_cpu\": {o_cpu}, \"local_pull\": {o_pull}, \
         \"identity_vs_solo\": {identity_vs_solo}, \"confined_to_node\": 1}},\n  \
         \"pull\": {{\"replication\": 1, \"pulls\": {p_pulls}, \"store_bytes\": {}, \
         \"store_messages\": {}, \"completed\": {}}},\n  \
         \"scale\": {{\"nodes\": {SCALE_NODES}, \"rows\": {SCALE_ROWS}, \"reps\": {SCALE_REPS}, \
         \"small_queries\": {scale_small}, \"large_queries\": {scale_large}, \
         \"small_us_per_query\": {}, \"large_us_per_query\": {}, \"ratio\": {}}},\n  \
         \"baseline\": {}\n}}\n",
        sweep_json.join(",\n"),
        jnum(knee2),
        jnum(knee4),
        routes_json.join(",\n"),
        outage.report.completed(),
        pull.report.store_link.bytes,
        pull.report.store_link.messages,
        pull.report.completed(),
        jnum(small_us),
        jnum(large_us),
        jnum(scale_ratio),
        carry_baseline("BENCH_cluster.json"),
    );
    write_bench_json("BENCH_cluster.json", &body);
}
