//! A heap gate for every serving tier: a serve holds each result once.
//!
//! A counting global allocator tracks live and peak heap bytes. Each tier
//! (`System`, a 2-channel `ServeCluster`, a 1-node and a 4-node
//! `ServeGrid`) serves one seeded select/project mix twice on the same
//! machine; the first serve materializes the DRAM pages, so the second
//! one's peak above its starting heap is the serve's own state. (A serve
//! returns its arenas and restores its modules' DRAM timing when it ends,
//! so the second serve repeats the first.) That peak
//! must fit in what one copy of the report needs plus a stated allowance
//! per query for the engine's and the frontend's bookkeeping, and a
//! 4-node grid may hold only a few bytes per query more than a 1-node
//! grid: a node engine keeps state only for the queries delivered to it.
//!
//! Every projection's values are several times the per-query allowance,
//! so a second copy of the results cannot fit under the bound.
//!
//! One `#[test]` only: the counters are process-wide, so no other test
//! may allocate while a serve is measured.

use jafar::common::obs::SharedTracer;
use jafar::common::rng::SplitMix64;
use jafar::common::time::Tick;
use jafar::net::Placement;
use jafar::serve::cluster::{ClusterConfig, ClusterQuery, ClusterReport};
use jafar::serve::{
    PredicateMix, QueryOp, QueryRecord, SchedPolicy, ServeConfig, ServeReport, Workload,
};
use jafar::sim::{ServeCluster, ServeGrid, System, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes and their high-water mark since the last reset.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = Heap.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A moving realloc holds both blocks for a moment: count the
            // new one before the old one goes.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 4096;
const QUERIES: usize = 1000;
/// The bookkeeping a serve may hold per query beyond the report itself:
/// two records' worth, for the engine's and the frontend's ledgers.
const PER_QUERY: usize = 2 * std::mem::size_of::<QueryRecord>();
/// Per-serve state that does not grow with the query count: drivers,
/// shard sessions, one query's projection parts, the fabric ledgers.
const CONSTANT: usize = 256 * 1024;
/// How many bytes per query a 4-node grid may hold beyond a 1-node one:
/// an index entry per undelivered query on each extra node.
const PER_QUERY_PER_EXTRA_NODES: usize = 24;

/// Runs `serve` and returns what it returned with its peak heap above
/// the heap it started from.
fn measured<R>(serve: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = serve();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

fn record_heap(r: &QueryRecord) -> usize {
    r.bitset.capacity()
        + r.projected.capacity() * std::mem::size_of::<i64>()
        + r.groups.capacity() * std::mem::size_of::<(i64, u64, Option<i64>)>()
}

/// The heap one copy of a single-engine report needs.
fn serve_report_heap(r: &ServeReport) -> usize {
    r.records.capacity() * std::mem::size_of::<QueryRecord>()
        + r.records.iter().map(record_heap).sum::<usize>()
}

/// The heap one copy of a cluster report's queries needs.
fn cluster_report_heap(r: &ClusterReport) -> usize {
    r.queries.capacity() * std::mem::size_of::<ClusterQuery>()
        + r.queries
            .iter()
            .map(|q| record_heap(&q.record))
            .sum::<usize>()
}

fn workload() -> Workload {
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 300,
    };
    Workload::poisson(mix, QUERIES, Tick::from_us(20), 0x3E3)
        .with_op_mix(&[QueryOp::Select, QueryOp::Project { k: 1 }])
}

fn cfg() -> ServeConfig {
    ServeConfig {
        max_queue: QUERIES,
        ..ServeConfig::default()
    }
}

/// One tier's second-serve peak, checked against one copy of its report.
struct Gate {
    tier: &'static str,
    peak: usize,
    report: usize,
    completed: usize,
}

impl Gate {
    fn bound(&self) -> usize {
        self.report + QUERIES * PER_QUERY + CONSTANT
    }

    fn print(&self) {
        println!(
            "{:<14} peak {:>9} B  report {:>9} B  bound {:>9} B  ({:.0} B/query over the report, {} completed)",
            self.tier,
            self.peak,
            self.report,
            self.bound(),
            self.peak.saturating_sub(self.report) as f64 / QUERIES as f64,
            self.completed,
        );
    }
}

fn system_gate(values: &[i64], wl: &Workload) -> Gate {
    let mut sys = System::new(SystemConfig::test_small());
    drop(sys.serve(values, wl, SchedPolicy::Fifo, &cfg()));
    let (run, peak) = measured(|| sys.serve(values, wl, SchedPolicy::Fifo, &cfg()));
    Gate {
        tier: "System",
        peak,
        report: serve_report_heap(&run.report),
        completed: run.report.completed(),
    }
}

fn cluster_gate(values: &[i64], wl: &Workload) -> Gate {
    let mut cluster = ServeCluster::new(SystemConfig::test_small(), 2, SharedTracer::disabled())
        .expect("2 channels");
    drop(cluster.serve(values, wl, SchedPolicy::Fifo, &cfg()));
    let (run, peak) = measured(|| cluster.serve(values, wl, SchedPolicy::Fifo, &cfg()));
    Gate {
        tier: "ServeCluster/2",
        peak,
        report: serve_report_heap(&run.report),
        completed: run.report.completed(),
    }
}

fn grid_gate(values: &[i64], wl: &Workload, nodes: usize, tier: &'static str) -> Gate {
    let mut grid = ServeGrid::new(SystemConfig::test_small(), nodes, SharedTracer::disabled());
    let placement = Placement::hot(nodes);
    let serve = |grid: &mut ServeGrid| {
        let mut fabric = grid.fabric(0xFAB);
        grid.serve(
            values,
            &placement,
            &mut fabric,
            wl,
            SchedPolicy::Fifo,
            &cfg(),
            &ClusterConfig::default(),
        )
    };
    drop(serve(&mut grid));
    let (run, peak) = measured(|| serve(&mut grid));
    Gate {
        tier,
        peak,
        report: cluster_report_heap(&run.report),
        completed: run.report.completed(),
    }
}

#[test]
fn every_tier_holds_each_result_once() {
    let mut rng = SplitMix64::new(0x6A7E);
    let values: Vec<i64> = (0..ROWS)
        .map(|_| rng.next_range_inclusive(0, 999))
        .collect();
    let wl = workload();
    // A projection's values dwarf the per-query allowance, so a second
    // copy of the results cannot hide inside it.
    let proj_bytes = wl
        .specs
        .iter()
        .filter(|s| matches!(s.op, QueryOp::Project { .. }))
        .map(|s| {
            values
                .iter()
                .filter(|&&v| (s.lo..=s.hi).contains(&v))
                .count()
                * 8
        })
        .min()
        .unwrap_or(0);
    assert!(
        proj_bytes >= 4 * PER_QUERY,
        "every projection ({proj_bytes} B at least) must be several times the allowance ({PER_QUERY} B)"
    );

    let gates = [
        system_gate(&values, &wl),
        cluster_gate(&values, &wl),
        grid_gate(&values, &wl, 1, "ServeGrid/1"),
        grid_gate(&values, &wl, 4, "ServeGrid/4"),
    ];
    println!("{QUERIES} queries over {ROWS} rows; allowance {PER_QUERY} B/query + {CONSTANT} B");
    for g in &gates {
        g.print();
    }
    let (one, four) = (&gates[2], &gates[3]);
    println!(
        "4-node grid over 1-node grid: {:+.1} B/query (bound {PER_QUERY_PER_EXTRA_NODES})",
        (four.peak as f64 - one.peak as f64) / QUERIES as f64
    );

    let mut failures = Vec::new();
    for g in &gates {
        if g.completed != QUERIES {
            failures.push(format!(
                "{}: {} of {QUERIES} completed",
                g.tier, g.completed
            ));
        }
        if g.peak > g.bound() {
            failures.push(format!(
                "{}: peak {} B exceeds one report copy plus bookkeeping ({} B)",
                g.tier,
                g.peak,
                g.bound()
            ));
        }
    }
    if four.peak > one.peak + QUERIES * PER_QUERY_PER_EXTRA_NODES + CONSTANT {
        failures.push(format!(
            "the 4-node grid peaks {} B above the 1-node grid (bound {} B)",
            four.peak - one.peak,
            QUERIES * PER_QUERY_PER_EXTRA_NODES + CONSTANT
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
