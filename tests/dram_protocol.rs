//! Every DRAM command the simulator issues is DDR3-legal, checked by the
//! independent protocol checker in `support/ddr3.rs` rather than by the
//! module's own scheduler. The streams: every device datapath over the
//! placements `behaviour_pin` uses, a seeded forall over random jobs and
//! idle gaps (clean and under `FaultPlan::light`), a random-address host
//! stream dense enough that tRRD and tFAW bind, and `System` op-mix
//! serves. The checker's own tests feed it hand-written illegal streams.
//! CI runs this file by name.

#[path = "support/ddr3.rs"]
mod ddr3;

use ddr3::{check, recorder, Report, Rule};
use jafar::common::check::forall;
use jafar::common::obs::{Event, EventKind};
use jafar::common::rng::SplitMix64;
use jafar::common::time::Tick;
use jafar::core::aggregate::{AggOp, AggregateJob, GroupByJob};
use jafar::core::project::ProjectJob;
use jafar::core::{
    grant_ownership, DeviceConfig, DeviceError, FusedSelectJob, JafarDevice, Predicate, SelectJob,
};
use jafar::dram::{
    AddressMapping, DramGeometry, DramModule, DramTiming, FaultInjector, FaultPlan, PhysAddr,
    Requester,
};
use jafar::serve::engine::ServeConfig;
use jafar::serve::{AggFn, PredicateMix, QueryOp, SchedPolicy, Workload};
use jafar::sim::{System, SystemConfig};

/// Output, key and spill regions: all inside rank 0 of both geometries
/// below (its first 64 MiB) and clear of the columns.
const SELECT_OUT: u64 = 0x0100_0000;
const LANE_STRIDE: u64 = 0x0010_0000;
const PROJECT_OUT: u64 = 0x0200_0000;
const KEYS: u64 = 0x0280_0000;
const SPILL: u64 = 0x0300_0000;

/// `behaviour_pin`'s placements: whole bursts from 0, a mid-row-group
/// start with a row count that is not a multiple of 8, a short run across
/// a row boundary, and less than one burst.
const PIN_LAYOUTS: [(u64, u64); 4] = [(0, 4096), (64 * 37, 3001), (64 * 126, 77), (64 * 300, 5)];

fn pin_predicates() -> [Predicate; 4] {
    [
        Predicate::Between(200_000, 599_999),
        Predicate::Between(5, 4),
        Predicate::Between(i64::MIN, i64::MAX),
        Predicate::Ge(900_000),
    ]
}

/// perfbench's gem5-like DIMM: 4 ranks × 8 banks × 1024 rows × 8 KiB.
fn gem5_like_256m() -> DramGeometry {
    DramGeometry {
        ranks: 4,
        banks_per_rank: 8,
        rows_per_bank: 1024,
        row_bytes: 8 * 1024,
    }
}

/// Uniform values with the integer extremes mixed in.
fn column(rows: usize, rng: &mut SplitMix64) -> Vec<i64> {
    (0..rows)
        .map(|i| match i % 97 {
            13 => i64::MAX,
            41 => i64::MIN,
            _ => rng.next_range_inclusive(0, 999_999),
        })
        .collect()
}

/// A refresh-enabled module with a column at 0 and small keys at
/// [`KEYS`], traced from power-on, with rank 0 granted to the device.
/// `faults` installs `FaultPlan::light` after the grant.
fn device_module(
    geometry: DramGeometry,
    faults: Option<u64>,
    seed: u64,
) -> (DramModule, std::rc::Rc<std::cell::RefCell<ddr3::Log>>, Tick) {
    let mut module = DramModule::new(
        geometry,
        DramTiming::ddr3_paper(),
        AddressMapping::RankRowBankBlock,
    );
    let (tracer, log) = recorder();
    module.set_tracer(tracer);
    let mut rng = SplitMix64::new(seed);
    let rows = 8192;
    module
        .data_mut()
        .write_i64s(PhysAddr(0), &column(rows, &mut rng));
    let keys: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % 13).collect();
    module.data_mut().write_i64s(PhysAddr(KEYS), &keys);
    let now = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    if let Some(seed) = faults {
        module.set_fault_injector(Some(FaultInjector::new(FaultPlan::light(seed))));
    }
    (module, log, now)
}

/// Runs every device datapath over `rows` rows at `col`: per predicate a
/// select, a projection through its bitset and ten aggregates, then a
/// three-lane fused select and a group-by. Failed jobs (injected faults)
/// cost 10 µs, like a driver's back-off. Returns the final tick.
fn run_datapaths(
    device: &mut JafarDevice,
    module: &mut DramModule,
    (col, rows): (u64, u64),
    preds: &[Predicate],
    mut now: Tick,
) -> Tick {
    let advance = |now: &mut Tick, end: Result<Tick, DeviceError>| match end {
        Ok(end) => *now = end,
        Err(_) => *now += Tick::from_us(10),
    };
    for &p in preds {
        let select = SelectJob {
            col_addr: PhysAddr(col),
            rows,
            predicate: p,
            out_addr: PhysAddr(SELECT_OUT),
        };
        let end = device.run_select(module, select, now).map(|r| r.end);
        advance(&mut now, end);
        let project = ProjectJob {
            col_addr: PhysAddr(col),
            rows,
            bitset_addr: PhysAddr(SELECT_OUT),
            out_addr: PhysAddr(PROJECT_OUT),
        };
        let end = device.run_project(module, project, now).map(|r| r.end);
        advance(&mut now, end);
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg] {
            for filter in [None, Some(p)] {
                let job = AggregateJob {
                    col_addr: PhysAddr(col),
                    rows,
                    op,
                    filter,
                };
                let end = device.run_aggregate(module, job, now).map(|r| r.end);
                advance(&mut now, end);
            }
        }
    }
    let lanes: Vec<Predicate> = preds.iter().copied().cycle().take(3).collect();
    let fused = FusedSelectJob {
        col_addr: PhysAddr(col),
        rows,
        out_addrs: (0..lanes.len() as u64)
            .map(|l| PhysAddr(SELECT_OUT + (l + 1) * LANE_STRIDE))
            .collect(),
        predicates: lanes,
    };
    let end = device.run_select_fused(module, &fused, now).map(|r| r.end);
    advance(&mut now, end);
    let group_by = GroupByJob {
        key_addr: PhysAddr(KEYS),
        val_addr: PhysAddr(col),
        rows,
        op: AggOp::Sum,
        buckets: 8,
        spill_addr: PhysAddr(SPILL),
    };
    let end = device.run_group_by(module, group_by, now).map(|r| r.end);
    advance(&mut now, end);
    now
}

fn checked(log: &std::cell::RefCell<ddr3::Log>, timing: &DramTiming) -> Report {
    let report = check(&log.borrow().0, timing);
    report.assert_legal();
    report
}

#[test]
fn device_datapaths_over_the_pinned_layouts_are_legal() {
    for (out_buf_bits, faults) in [(512, None), (512, Some(3)), (24, None)] {
        let (mut module, log, mut now) = device_module(DramGeometry::gem5_2gb(), faults, 7);
        let mut device = JafarDevice::new(DeviceConfig {
            out_buf_bits,
            ..DeviceConfig::default()
        });
        for layout in PIN_LAYOUTS {
            now = run_datapaths(&mut device, &mut module, layout, &pin_predicates(), now);
        }
        let report = checked(&log, module.timing());
        assert!(report.refreshes > 0, "the jobs span refresh deadlines");
        // The stream is constrained by the rules it is checked against.
        for rule in [Rule::TRcd, Rule::TRp, Rule::TRas, Rule::TCcd, Rule::Bus] {
            assert!(report.tight(rule) > 0, "{rule:?} never bound: {report:?}");
        }
    }
}

#[test]
fn random_device_jobs_and_idle_gaps_are_legal() {
    forall("random_device_jobs_and_idle_gaps_are_legal", 16, |rng| {
        let faults = rng.next_bool(0.5).then(|| rng.next_u64());
        let (mut module, log, mut now) = device_module(gem5_like_256m(), faults, rng.next_u64());
        let out_buf_bits = [8, 24, 64, 512][rng.next_below(4) as usize];
        let mut device = JafarDevice::new(DeviceConfig {
            out_buf_bits,
            ..DeviceConfig::default()
        });
        for _ in 0..2 {
            let col = 64 * rng.next_below(400);
            let rows = 1 + rng.next_below(4096);
            let lo = rng.next_range_inclusive(-10, 1_000_000);
            let hi = rng.next_range_inclusive(-10, 1_000_000);
            let preds = [Predicate::Between(lo, hi), Predicate::Ge(lo)];
            now = run_datapaths(&mut device, &mut module, (col, rows), &preds, now);
            // An idle gap: sometimes past the 9 × tREFI refresh window.
            now += Tick::from_ns(rng.next_below(150_000));
        }
        checked(&log, module.timing());
    });
}

/// Host bursts at random addresses over both ranks, a quarter of them
/// writes, issued faster than they complete — the
/// `dram/serve_block_random_1k_bursts` pattern without waiting for each
/// burst, so activates crowd the rank and tRRD, tFAW, tWTR and the bus
/// turnarounds all bind.
#[test]
fn a_dense_random_host_stream_is_legal() {
    for timing in [DramTiming::ddr3_paper(), DramTiming::ddr3_1600()] {
        let geometry = DramGeometry::gem5_2gb();
        let mut module = DramModule::new(geometry, timing, AddressMapping::RankRowBankBlock);
        let (tracer, log) = recorder();
        module.set_tracer(tracer);
        let mut rng = SplitMix64::new(0x5eed);
        let mut now = Tick::ZERO;
        let mut addr = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4096u64 {
            addr = addr.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(1);
            let a = PhysAddr((addr % geometry.capacity_bytes()) & !63);
            let write = rng.next_bool(0.25);
            let payload = [i as u8; 64];
            module
                .serve_addr(a, write, Requester::Host, now, write.then_some(&payload))
                .expect("host-owned, in range");
            now += Tick::from_ps(rng.next_below(8_000));
        }
        let report = checked(&log, &timing);
        assert!(report.refreshes > 0);
        for rule in [
            Rule::TRrd,
            Rule::TFaw,
            Rule::TRcd,
            Rule::TRp,
            Rule::TRas,
            Rule::TWtr,
            Rule::Bus,
        ] {
            assert!(report.tight(rule) > 0, "{rule:?} never bound: {report:?}");
        }
    }
}

/// `behaviour_pin`'s op-mix serve on its machine, with refresh as the
/// machine has it (off) and on.
#[test]
fn served_op_mixes_are_legal() {
    for refresh in [false, true] {
        let mut cfg = SystemConfig::test_small();
        cfg.dram_geometry = DramGeometry {
            ranks: 4,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 1024,
        };
        if refresh {
            cfg.dram_timing = DramTiming::ddr3_paper();
        }
        let timing = cfg.dram_timing;
        let mut sys = System::new(cfg);
        sys.enable_tracing(1 << 22);
        let mut rng = SplitMix64::new(11);
        let values = column(4093, &mut rng);
        let keys: Vec<i64> = (0..values.len() as i64).map(|i| (i * 7) % 5).collect();
        let ops = [
            QueryOp::Select,
            QueryOp::SelectCount,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::SelectAgg(AggFn::Min),
            QueryOp::SelectAgg(AggFn::Max),
            QueryOp::Project { k: 2 },
            QueryOp::GroupBy { agg: AggFn::Sum },
        ];
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999_999,
            width: 300_000,
        };
        let workload = Workload::poisson(mix, 84, Tick::from_us(40), 5).with_op_mix(&ops);
        let run = sys.serve_with_keys(
            &values,
            &keys,
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig::default(),
        );
        assert!(run.report.records.iter().all(|r| r.done.is_some()));
        assert_eq!(sys.metrics().get_counter("trace.dropped"), Some(0));
        let report = check(&sys.trace_events(), &timing);
        report.assert_legal();
        assert_eq!(report.refreshes > 0, refresh);
    }
}

/// The known deviation, pinned: after 1000 µs idle, 128 REFs are owed and
/// the module pays two. The checker reports it under its own rule and
/// nothing else.
#[test]
fn idle_refresh_catch_up_pays_two_refs_where_128_are_owed() {
    let timing = DramTiming::ddr3_paper();
    let mut module = DramModule::new(
        DramGeometry::gem5_2gb(),
        timing,
        AddressMapping::RankRowBankBlock,
    );
    let (tracer, log) = recorder();
    module.set_tracer(tracer);
    let idle = Tick::from_us(1000);
    for at in [Tick::ZERO, idle] {
        module
            .serve_addr(PhysAddr(0), false, Requester::Host, at, None)
            .expect("host-owned");
    }
    assert_eq!(idle / timing.t_refi, 128, "REFs owed");
    assert_eq!(module.stats().refreshes.get(), 2, "REFs paid");
    let report = check(&log.borrow().0, &timing);
    assert_eq!(report.refreshes, 2);
    assert_eq!(report.count(Rule::IdleRefreshBacklog), 1, "{report:?}");
    assert!(report.unexpected().is_empty(), "{report:?}");
}

// The checker's own tests: hand-written streams, each breaking one rule.

fn cmd(at_ps: u64, cmd: &'static str, rank: u32, bank: u32, requester: &'static str) -> Event {
    Event {
        at: Tick::from_ps(at_ps),
        kind: EventKind::DramCmd {
            cmd,
            rank,
            bank,
            requester,
        },
    }
}

fn own(at_ps: u64, rank: u32, to_ndp: bool) -> Event {
    Event {
        at: Tick::from_ps(at_ps),
        kind: EventKind::OwnershipChange { rank, to_ndp },
    }
}

/// Checks `events` under the paper's timing without refresh (unless
/// `refresh`) and returns the rules broken, sorted and deduplicated.
fn broken(events: &[Event], refresh: bool) -> Vec<Rule> {
    let mut timing = DramTiming::ddr3_paper();
    timing.refresh_enabled = refresh;
    let mut rules: Vec<Rule> = check(events, &timing)
        .violations
        .iter()
        .map(|v| v.rule)
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

const NS: u64 = 1000;

#[test]
fn the_checker_accepts_a_legal_stream() {
    // ACT, RD after tRCD, RD after tCCD, PRE after tRAS, ACT after tRP
    // (and tRC), the ACTs of other banks at tRRD, in scrambled order.
    let events = [
        cmd(48 * NS, "ACT", 0, 0, "host"),
        cmd(0, "ACT", 0, 0, "host"),
        cmd(13 * NS, "RD", 0, 0, "host"),
        cmd(17 * NS, "RD", 0, 0, "host"),
        cmd(35 * NS, "PRE", 0, 0, "host"),
        cmd(6 * NS, "ACT", 0, 1, "host"),
        cmd(12 * NS, "ACT", 0, 2, "host"),
    ];
    assert_eq!(broken(&events, false), vec![]);
}

#[test]
fn the_checker_catches_each_timing_rule() {
    use Rule::*;
    // Each stream's last command is one tick early, and issuing it one
    // tick later makes the stream legal (where a tick can).
    let cases: Vec<(Vec<Rule>, Vec<Event>)> = vec![
        (
            vec![TRcd],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(13 * NS - 1, "RD", 0, 0, "host"),
            ],
        ),
        (
            vec![TRas],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(35 * NS - 1, "PRE", 0, 0, "host"),
            ],
        ),
        (
            // An ACT one tick early after a precharge.
            vec![TRp],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(40 * NS, "PRE", 0, 0, "host"),
                cmd(53 * NS - 1, "ACT", 0, 0, "host"),
            ],
        ),
        (
            // tRC = tRAS + tRP in this rulebook, so it breaks with tRP.
            vec![TRp, TRc],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(35 * NS, "PRE", 0, 0, "host"),
                cmd(48 * NS - 1, "ACT", 0, 0, "host"),
            ],
        ),
        (
            vec![TRrd],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(6 * NS - 1, "ACT", 0, 1, "host"),
            ],
        ),
        (
            // Five ACTs at tRRD spacing: the fifth is inside the window.
            vec![TFaw],
            (0..5)
                .map(|b| cmd(b as u64 * 6 * NS, "ACT", 0, b, "host"))
                .collect(),
        ),
        (
            // tCCD = tBURST, so the bursts overlap as well.
            vec![TCcd, Bus],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(6 * NS, "ACT", 0, 1, "host"),
                cmd(19 * NS, "RD", 0, 0, "host"),
                cmd(23 * NS - 1, "RD", 0, 1, "host"),
            ],
        ),
        (
            vec![TWtr],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(13 * NS, "WR", 0, 0, "host"),
                // Write data ends at 13 + 9 + 4 = 26 ns; tWTR is 8 ns.
                cmd(34 * NS - 1, "RD", 0, 0, "host"),
            ],
        ),
        (
            vec![TRtp],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(30 * NS, "RD", 0, 0, "host"),
                cmd(38 * NS - 1, "PRE", 0, 0, "host"),
            ],
        ),
        (
            vec![TWr],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(30 * NS, "WR", 0, 0, "host"),
                cmd(58 * NS - 1, "PRE", 0, 0, "host"),
            ],
        ),
        (
            vec![TRfc],
            vec![
                cmd(0, "REF", 0, 0, "host"),
                cmd(160 * NS - 1, "ACT", 0, 0, "host"),
            ],
        ),
        (
            vec![TMod],
            vec![
                cmd(0, "MRS", 0, 0, "host"),
                cmd(12 * NS - 1, "ACT", 0, 0, "host"),
            ],
        ),
        (
            vec![TMrd],
            vec![
                cmd(0, "MRS", 0, 0, "host"),
                cmd(4 * NS - 1, "MRS", 0, 0, "host"),
            ],
        ),
        (
            // Two ranks' reads on the host channel: the rank switch needs
            // two clocks between the bursts (26-30 ns and 32-36 ns).
            vec![Bus],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(0, "ACT", 1, 0, "host"),
                cmd(13 * NS, "RD", 0, 0, "host"),
                cmd(19 * NS - 1, "RD", 1, 0, "host"),
            ],
        ),
        (
            vec![BankState],
            vec![
                cmd(0, "ACT", 0, 0, "host"),
                cmd(50 * NS, "REF", 0, 0, "host"),
            ],
        ),
        (vec![BankState], vec![cmd(0, "RD", 0, 0, "host")]),
    ];
    for (rules, events) in cases {
        assert_eq!(broken(&events, false), rules, "{events:?}");
        if rules != [TFaw] && rules != [BankState] {
            let mut later = events.clone();
            let last = later.len() - 1;
            later[last].at += Tick::from_ps(1);
            assert_eq!(broken(&later, false), vec![], "{later:?}");
        }
    }
}

#[test]
fn the_checker_enforces_mpr_ownership() {
    let granted = [
        cmd(0, "MRS", 0, 0, "host"),
        own(12 * NS, 0, true),
        cmd(12 * NS, "ACT", 0, 0, "ndp"),
        cmd(25 * NS, "RD", 0, 0, "ndp"),
    ];
    assert_eq!(broken(&granted, false), vec![]);
    let mut host_on_owned = granted.to_vec();
    host_on_owned[3] = cmd(25 * NS, "RD", 0, 0, "host");
    assert_eq!(broken(&host_on_owned, false), vec![Rule::Ownership]);
    let ndp_unowned = [cmd(0, "ACT", 1, 0, "ndp"), cmd(13 * NS, "RD", 1, 0, "ndp")];
    assert_eq!(broken(&ndp_unowned, false), vec![Rule::Ownership]);
    // An MRS the rank ignored starts no tMOD window.
    let glitched = [
        cmd(0, "MRS", 0, 0, "host"),
        Event {
            at: Tick::ZERO,
            kind: EventKind::FaultInjected { kind: "mrs-glitch" },
        },
        cmd(NS, "ACT", 0, 0, "host"),
    ];
    assert_eq!(broken(&glitched, false), vec![]);
}

#[test]
fn the_checker_enforces_the_refresh_window() {
    let window = 9 * 7_800 * NS;
    // REFs every tREFI keep the rank legal.
    let regular: Vec<Event> = (1..=20)
        .flat_map(|i| {
            let at = i * 7_800 * NS;
            [
                cmd(at, "REF", 0, 0, "host"),
                cmd(at + 200 * NS, "ACT", 0, 0, "host"),
                cmd(at + 300 * NS, "PRE", 0, 0, "host"),
            ]
        })
        .collect();
    assert_eq!(broken(&regular, true), vec![]);
    // Driving a rank with no REF in the window: a skipped refresh.
    let skipped = [
        cmd(window + 1, "ACT", 0, 0, "host"),
        cmd(window + 14 * NS, "RD", 0, 0, "host"),
    ];
    assert_eq!(broken(&skipped, true), vec![Rule::RefreshOverdue]);
    assert_eq!(broken(&skipped, false), vec![]);
    // An idle rank caught up late is the known deviation.
    let idle = [
        cmd(window + 1, "REF", 0, 0, "host"),
        cmd(window + 161 * NS, "ACT", 0, 0, "host"),
    ];
    assert_eq!(broken(&idle, true), vec![Rule::IdleRefreshBacklog]);
}
