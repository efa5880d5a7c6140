//! Engine microbenchmark — wall-clock throughput of the discrete-event
//! serving engine itself (beyond the paper).
//!
//! Every other `fig_*` binary reports *simulated* time; this one asks
//! how fast the simulator's serving engine executes on the host: events
//! processed per wall-clock second and queries served per wall-clock
//! second, across three scenarios:
//!
//! - **mixed-open**: an open Poisson stream of the §4 operator mix —
//!   the engine's steady-state shape;
//! - **select-burst (unfused / fused)**: a saturated same-column select
//!   stream, the shared-scan fusion target. The fused run must sustain
//!   at least the unfused *simulated* service rate (a deterministic
//!   gate `bench_check` enforces) and is expected to beat it by roughly
//!   the fuse window over the fused-scan overhead;
//! - **select-burst (unbatched)**: the same burst with one arrival per
//!   engine event, pinning the event-count saving of batched admission.
//!
//! Each wall-clock figure is the median of five serves, each on a newly
//! built `System` whose construction is not timed. Absolute rates depend
//! on the host, so the only wall-clock gate is a ratio within one run:
//! mixed-open must serve at least 0.3× the queries per second of
//! select-burst-unfused. A fixed per-job cost on the aggregate or
//! project path, which only mixed-open takes, drags it far below that.
//!
//! The run persists `BENCH_engine.json` every time; `bench_check`
//! validates its schema, the two deterministic invariants and the
//! wall-clock ratio in CI.
//!
//! Usage: `fig_engine [--queries N] [--smoke]`

use jafar_bench::{arg, carry_baseline, f1, f2, flag, jnum, print_table, write_bench_json};
use jafar_common::time::Tick;
use jafar_dram::DramGeometry;
use jafar_serve::engine::ServeConfig;
use jafar_serve::{AggFn, Arrivals, PredicateMix, QueryOp, SchedPolicy, Workload};
use jafar_sim::{System, SystemConfig};
use std::time::Instant;

const SEED: u64 = 0xE961;

/// The §4 operator set the mixed stream cycles through.
const OP_MIX: [QueryOp; 6] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::Project { k: 2 },
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::SelectAgg(AggFn::Max),
];

/// A small 4-rank machine: the engine (not the DRAM model) dominates,
/// which is the thing under measurement.
fn system() -> System {
    let mut cfg = SystemConfig::test_small();
    cfg.dram_geometry = DramGeometry {
        ranks: 4,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    System::new(cfg)
}

struct Scenario {
    name: &'static str,
    queries: usize,
    completed: usize,
    shed: usize,
    events: u64,
    sim_makespan_ms: f64,
    sim_service_rate_qps: f64,
    wall_ms: f64,
    events_per_sec: f64,
    queries_per_sec: f64,
}

/// Serves per scenario; the wall-clock figures are their median.
const REPS: usize = 5;

fn run_scenario(
    name: &'static str,
    values: &[i64],
    workload: &Workload,
    cfg: &ServeConfig,
) -> Scenario {
    let mut walls = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        // A fresh machine per serve, built outside the timer, so every
        // repetition also allocates the store pages its placement writes,
        // as the first serve of a machine does.
        let mut sys = system();
        let t0 = Instant::now();
        let run = sys.serve(values, workload, SchedPolicy::Fifo, cfg);
        walls.push(t0.elapsed().as_secs_f64().max(1e-9));
        last = Some(run);
    }
    walls.sort_by(f64::total_cmp);
    let wall = walls[REPS / 2];
    let run = last.expect("REPS > 0");
    let report = &run.report;
    let n = report.records.len();
    assert_eq!(
        report.completed() + report.shed(),
        n,
        "{name}: every query completes or is shed"
    );
    Scenario {
        name,
        queries: n,
        completed: report.completed(),
        shed: report.shed(),
        events: report.events,
        sim_makespan_ms: report.makespan.as_ms_f64(),
        sim_service_rate_qps: report.service_rate_qps(),
        wall_ms: wall * 1e3,
        events_per_sec: report.events as f64 / wall,
        queries_per_sec: n as f64 / wall,
    }
}

fn main() {
    let smoke = flag("--smoke");
    let n: usize = arg("--queries", if smoke { 48 } else { 256 });
    let rows = 2048usize;
    let values: Vec<i64> = (0..rows as i64).map(|i| (i * 37 + 11) % 1000).collect();
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 200,
    };
    println!("# Engine microbenchmark: {n} queries over {rows} rows, 4 NDP ranks");
    println!();

    // Mixed open stream at moderate pressure: arrivals outpace service
    // enough to keep the queue (and thus the dispatch path) busy.
    let mixed = Workload::poisson(mix, n, Tick::from_us(2), SEED).with_op_mix(&OP_MIX);
    // Saturated same-column select stream: everything arrives at one
    // instant, so the queue is deep whenever a rank frees — the
    // shared-scan fusion target, and the same-t batch the admission
    // drain collapses into one event. The queue is widened to hold the
    // whole backlog so every run serves the identical query set.
    let burst = Workload {
        specs: mix.generate(n, SEED),
        arrivals: Arrivals::Open(vec![Tick::ZERO; n]),
        slo: None,
    };
    let wide = |fuse: usize, batch: bool| ServeConfig {
        max_queue: n,
        fuse_window: fuse,
        batch_admission: batch,
        ..ServeConfig::default()
    };

    let scenarios = [
        run_scenario("mixed-open", &values, &mixed, &ServeConfig::default()),
        run_scenario("select-burst-unfused", &values, &burst, &wide(1, true)),
        run_scenario("select-burst-fused", &values, &burst, &wide(4, true)),
        run_scenario("select-burst-unbatched", &values, &burst, &wide(1, false)),
    ];

    let table: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                format!("{}", s.queries),
                format!("{}", s.shed),
                format!("{}", s.events),
                f2(s.sim_makespan_ms),
                f1(s.sim_service_rate_qps),
                f2(s.wall_ms),
                f1(s.events_per_sec / 1e3),
                f1(s.queries_per_sec / 1e3),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario", "queries", "shed", "events", "sim ms", "sim q/s", "wall ms", "kev/s",
            "kq/s",
        ],
        &table,
    );
    println!();

    // Deterministic gates (simulated time, independent of the host):
    // fusion must not lose service rate on its target scenario, and
    // batched admission must not add events.
    let unfused = &scenarios[1];
    let fused = &scenarios[2];
    let unbatched = &scenarios[3];
    assert_eq!(
        fused.completed, unfused.completed,
        "fusion must not change admission outcomes on an un-shed burst"
    );
    assert!(
        fused.sim_service_rate_qps >= unfused.sim_service_rate_qps,
        "fused service rate {} q/s must not fall below unfused {} q/s",
        fused.sim_service_rate_qps,
        unfused.sim_service_rate_qps
    );
    assert!(
        unfused.events <= unbatched.events,
        "batched admission must not add events ({} vs {} unbatched)",
        unfused.events,
        unbatched.events
    );
    let multiple = fused.sim_service_rate_qps / unfused.sim_service_rate_qps;
    println!(
        "# fusion: {}x the unfused service rate on the contention burst (window 4);",
        f2(multiple)
    );
    println!(
        "# batching: {} events vs {} one-at-a-time ({} saved).",
        unfused.events,
        unbatched.events,
        unbatched.events - unfused.events
    );
    println!(
        "# wall clock: mixed-open serves {}x the queries/s of select-burst-unfused \
         (bench_check gate >= 0.3; median of {REPS} serves each).",
        f2(scenarios[0].queries_per_sec / unfused.queries_per_sec)
    );

    let points: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"queries\": {}, \"completed\": {}, \"shed\": {}, \
                 \"events\": {}, \"sim_makespan_ms\": {}, \"sim_service_rate_qps\": {}, \
                 \"wall_ms\": {}, \"events_per_sec\": {}, \"queries_per_sec\": {}}}",
                s.name,
                s.queries,
                s.completed,
                s.shed,
                s.events,
                jnum(s.sim_makespan_ms),
                jnum(s.sim_service_rate_qps),
                jnum(s.wall_ms),
                jnum(s.events_per_sec),
                jnum(s.queries_per_sec),
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"fig_engine\",\n  \"smoke\": {smoke},\n  \"queries\": {n},\n  \
         \"rows\": {rows},\n  \"reps\": {REPS},\n  \"scenarios\": [\n{}\n  ],\n  \"contention\": {{\"fuse_window\": 4, \
         \"unfused_qps\": {}, \"fused_qps\": {}, \"fused_multiple\": {}}},\n  \
         \"batching\": {{\"batched_events\": {}, \"unbatched_events\": {}}},\n  \
         \"baseline\": {}\n}}\n",
        points.join(",\n"),
        jnum(unfused.sim_service_rate_qps),
        jnum(fused.sim_service_rate_qps),
        jnum(multiple),
        unfused.events,
        unbatched.events,
        carry_baseline("BENCH_engine.json"),
    );
    write_bench_json("BENCH_engine.json", &body);
}
