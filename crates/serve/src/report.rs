//! Per-query records and the aggregate [`ServeReport`].

use crate::workload::{QueryOp, QuerySpec};
use jafar_common::time::Tick;
use std::fmt;

/// Which rung of the degradation ladder a query ended up on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Not yet arrived or still queued. Only observable mid-serve; a
    /// finished [`ServeReport`] never contains pending records.
    Pending,
    /// Rejected at admission (queue full). Never ran; no result.
    Shed,
    /// Ran on JAFAR devices across `ranks` ranks (1 = single-device).
    Device {
        /// Ranks the query's scan was sharded over.
        ranks: u32,
    },
    /// Degraded to the host CPU scan to protect its deadline.
    Cpu,
}

/// The full life of one submitted query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRecord {
    /// Submission index within the workload.
    pub id: u32,
    /// Inclusive predicate lower bound.
    pub lo: i64,
    /// Inclusive predicate upper bound.
    pub hi: i64,
    /// The operator the query ran over its predicate.
    pub op: QueryOp,
    /// When the query arrived at admission control.
    pub submitted: Tick,
    /// When it was dispatched (left the queue); `None` if shed.
    pub started: Option<Tick>,
    /// When its last shard finished; `None` if shed.
    pub done: Option<Tick>,
    /// Its deadline (`submitted + slo`); `Tick::MAX` without an SLO.
    pub deadline: Tick,
    /// The rung it ran on.
    pub mode: ExecMode,
    /// Rows the predicate matched (0 if shed).
    pub matched: u64,
    /// The selection vector it produced, bit per row, LSB-first within
    /// each byte — bit-identical to a solo run of the same predicate.
    /// Filled for [`QueryOp::Select`] and [`QueryOp::Project`] (where the
    /// bitset is the select phase's intermediate); empty for the
    /// scalar-emitting operators on *both* rungs, and if shed.
    pub bitset: Vec<u8>,
    /// The scalar a [`QueryOp::SelectCount`] / [`QueryOp::SelectAgg`]
    /// query emitted — identical whichever rung it ran on. `None` for the
    /// other operators, for `Min`/`Max` over an empty selection, and if
    /// shed.
    pub agg: Option<i64>,
    /// The packed qualifying values a [`QueryOp::Project`] query
    /// reconstructed (one column's worth — the `k` passes all project the
    /// served column, so they are byte-identical). Empty for the other
    /// operators and if shed.
    pub projected: Vec<i64>,
    /// The `(key, count, folded value)` rows a [`QueryOp::GroupBy`]
    /// query produced, sorted by key — identical whichever rung (or mix
    /// of rungs) the partitions ran on. Empty for the other operators
    /// and if shed.
    pub groups: Vec<(i64, u64, Option<i64>)>,
}

impl QueryRecord {
    /// The record of query `id` before anything happened to it: pending,
    /// no deadline, no result.
    pub(crate) fn pending(id: u32, spec: &QuerySpec) -> Self {
        QueryRecord {
            id,
            lo: spec.lo,
            hi: spec.hi,
            op: spec.op,
            submitted: Tick::ZERO,
            started: None,
            done: None,
            deadline: Tick::MAX,
            mode: ExecMode::Pending,
            matched: 0,
            bitset: Vec::new(),
            agg: None,
            projected: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Submission-to-completion latency; `None` if shed.
    pub fn latency(&self) -> Option<Tick> {
        self.done.map(|d| d.saturating_sub(self.submitted))
    }

    /// Time spent queued before dispatch; `None` if shed.
    pub fn queue_wait(&self) -> Option<Tick> {
        self.started.map(|s| s.saturating_sub(self.submitted))
    }

    /// Dispatch-to-completion service time; `None` if shed.
    pub fn service(&self) -> Option<Tick> {
        match (self.started, self.done) {
            (Some(s), Some(d)) => Some(d.saturating_sub(s)),
            _ => None,
        }
    }

    /// True when the query completed after its deadline (shed queries
    /// never complete, so they do not count as misses here).
    pub fn missed_deadline(&self) -> bool {
        self.done.is_some_and(|d| d > self.deadline)
    }
}

/// One filter unit's slice of the availability picture: how long it sat
/// outside the schedulable pool and how its canary probes went. A unit is
/// one entry of the serve run's [`crate::pool::FilterPool`] — on a
/// single-DIMM pool `unit == rank` with `channel == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitAvailability {
    /// The pool unit id.
    pub unit: u32,
    /// The unit's memory channel.
    pub channel: u32,
    /// The unit's rank within its channel.
    pub rank: u32,
    /// Total time out of the pool (quarantine entry to observed repair,
    /// or end of run for a quarantine that never repaired).
    pub downtime: Tick,
    /// Times the unit entered quarantine.
    pub quarantines: u64,
    /// Canary probes that completed on the device (repairs).
    pub canary_ok: u64,
    /// Canary probes that parked (unit still dark).
    pub canary_fail: u64,
}

/// Availability metrics of one serve run: the per-unit health ledger plus
/// the engine's failure-path counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Availability {
    /// One entry per pool unit, in unit-id order.
    pub units: Vec<UnitAvailability>,
    /// Parked shards resumed on a different unit from their checkpoint.
    pub migrations: u64,
    /// Shards (or aggregate jobs) that re-entered the dispatch ladder
    /// after their unit failed mid-query.
    pub requeues: u64,
    /// Arrivals shed only because quarantined units tightened the
    /// admission bound below the configured queue capacity.
    pub sheds_tightened: u64,
}

impl Availability {
    /// Sum of every unit's downtime.
    pub fn total_downtime(&self) -> Tick {
        self.units
            .iter()
            .fold(Tick::ZERO, |acc, r| acc + r.downtime)
    }

    /// True when any failure machinery engaged during the run.
    pub fn disturbed(&self) -> bool {
        self.migrations > 0
            || self.requeues > 0
            || self.sheds_tightened > 0
            || self.units.iter().any(|r| r.quarantines > 0)
    }
}

/// Aggregate outcome of one [`crate::engine::run_serve`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Every submitted query, in submission order (shed ones included).
    pub records: Vec<QueryRecord>,
    /// When the last query finished, measured from serve start.
    pub makespan: Tick,
    /// Name of the scheduling policy that produced this report.
    pub policy: &'static str,
    /// Per-unit downtime, migrations, requeues and canary outcomes.
    pub availability: Availability,
    /// Discrete events the engine processed to produce this report —
    /// the denominator of the engine's own events/sec throughput (see
    /// the `fig_engine` microbenchmark). Shard steps are not events.
    pub events: u64,
}

impl ServeReport {
    /// Queries that ran to completion.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.done.is_some()).count()
    }

    /// Queries rejected at admission.
    pub fn shed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.mode == ExecMode::Shed)
            .count()
    }

    /// Completed queries that ran on JAFAR devices.
    pub fn device_queries(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.mode, ExecMode::Device { .. }))
            .count()
    }

    /// Completed queries degraded to the CPU rung.
    pub fn cpu_queries(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.mode == ExecMode::Cpu)
            .count()
    }

    /// Completed queries that finished past their deadline.
    pub fn deadline_misses(&self) -> usize {
        self.records.iter().filter(|r| r.missed_deadline()).count()
    }

    fn sorted_latencies(&self) -> Vec<Tick> {
        let mut lats: Vec<Tick> = self.records.iter().filter_map(|r| r.latency()).collect();
        lats.sort_unstable();
        lats
    }

    /// Nearest-rank latency percentile over completed queries. `pct` is
    /// clamped into `1..=100` — `0` behaves as p1 (the minimum over any
    /// sample smaller than 100) and anything above 100 as p100 (the
    /// maximum). `None` when nothing completed.
    pub fn latency_percentile(&self, pct: u64) -> Option<Tick> {
        percentile(&self.sorted_latencies(), pct)
    }

    /// The distinct operator kinds present in the stream, in submission
    /// order of first appearance.
    pub fn ops(&self) -> Vec<&'static str> {
        let mut ops = Vec::new();
        for r in &self.records {
            let name = r.op.name();
            if !ops.contains(&name) {
                ops.push(name);
            }
        }
        ops
    }

    /// Per-operator latency/throughput breakdown, one entry per distinct
    /// operator kind in first-appearance order. Operator classes with
    /// zero completions (every query of the kind shed) are skipped:
    /// they have no latency sample and no throughput, and an entry of
    /// `None`s and zeros only invites NaN arithmetic downstream —
    /// [`Self::ops`] still lists every kind that was *submitted*.
    pub fn op_breakdown(&self) -> Vec<OpBreakdown> {
        self.ops()
            .into_iter()
            .filter_map(|op| {
                let recs: Vec<&QueryRecord> =
                    self.records.iter().filter(|r| r.op.name() == op).collect();
                let mut lats: Vec<Tick> = recs.iter().filter_map(|r| r.latency()).collect();
                lats.sort_unstable();
                let completed = recs.iter().filter(|r| r.done.is_some()).count();
                if completed == 0 {
                    return None;
                }
                let secs = self.makespan.as_ps() as f64 * 1e-12;
                Some(OpBreakdown {
                    op,
                    submitted: recs.len(),
                    completed,
                    shed: recs.iter().filter(|r| r.mode == ExecMode::Shed).count(),
                    cpu: recs.iter().filter(|r| r.mode == ExecMode::Cpu).count(),
                    p50: percentile(&lats, 50),
                    p99: percentile(&lats, 99),
                    mean_service: mean(recs.iter().filter_map(|r| r.service())),
                    throughput_qps: if secs > 0.0 {
                        completed as f64 / secs
                    } else {
                        0.0
                    },
                })
            })
            .collect()
    }

    /// Median completion latency.
    pub fn p50(&self) -> Option<Tick> {
        self.latency_percentile(50)
    }

    /// 95th-percentile completion latency.
    pub fn p95(&self) -> Option<Tick> {
        self.latency_percentile(95)
    }

    /// 99th-percentile completion latency.
    pub fn p99(&self) -> Option<Tick> {
        self.latency_percentile(99)
    }

    /// Mean time completed queries spent queued before dispatch.
    pub fn mean_queue_wait(&self) -> Option<Tick> {
        mean(self.records.iter().filter_map(|r| r.queue_wait()))
    }

    /// Mean dispatch-to-completion service time of completed queries.
    pub fn mean_service(&self) -> Option<Tick> {
        mean(self.records.iter().filter_map(|r| r.service()))
    }

    /// Span from the first to the last submission across every record,
    /// shed arrivals included: the window the offered load actually
    /// covered. `None` when fewer than two queries arrived or they all
    /// arrived at one instant (a batch has no arrival span).
    pub fn offered_window(&self) -> Option<Tick> {
        let first = self.records.iter().map(|r| r.submitted).min()?;
        let last = self.records.iter().map(|r| r.submitted).max()?;
        (last > first).then(|| last.saturating_sub(first))
    }

    /// The accounting denominator shared by [`Self::offered_qps`] and
    /// [`Self::throughput_qps`]: the realized arrival window, or the
    /// makespan when the window is degenerate (a batch or a single
    /// query). One shared denominator is the point — dividing arrivals
    /// by one clock and completions by another is exactly the bug that
    /// let a fully-completed, zero-shed run report throughput below its
    /// offered load.
    fn accounting_secs(&self) -> f64 {
        let span = self.offered_window().unwrap_or(self.makespan);
        span.as_ps() as f64 * 1e-12
    }

    /// Realized offered load: submitted queries per second of the
    /// arrival window (makespan for degenerate windows). For a seeded
    /// open-loop workload this is the *observed* rate, which can drift a
    /// few percent from the configured `1 / mean_gap`.
    pub fn offered_qps(&self) -> f64 {
        let secs = self.accounting_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.records.len() as f64 / secs
    }

    /// Goodput against the offered load: completed queries per second of
    /// the same arrival window [`Self::offered_qps`] uses, so
    /// `throughput_qps == offered_qps · completed/submitted` holds
    /// exactly — a zero-shed run keeps up with its offered load by
    /// construction, and `throughput_qps <= offered_qps` always. For the
    /// service-limited capacity plateau (the saturation knee), use
    /// [`Self::service_rate_qps`] instead.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.accounting_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Sustained service rate: completed queries per second of makespan
    /// (admission of the first query to completion of the last,
    /// drain included). Under heavy overload this is the capacity
    /// plateau — the saturation-knee metric — where
    /// [`Self::throughput_qps`] measures goodput relative to the offered
    /// window.
    pub fn service_rate_qps(&self) -> f64 {
        let secs = self.makespan.as_ps() as f64 * 1e-12;
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }
}

/// One operator kind's slice of a [`ServeReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct OpBreakdown {
    /// Operator-kind mnemonic ([`QueryOp::name`]).
    pub op: &'static str,
    /// Queries of this kind submitted.
    pub submitted: usize,
    /// Queries of this kind that completed.
    pub completed: usize,
    /// Queries of this kind rejected at admission.
    pub shed: usize,
    /// Completed queries of this kind that ran on the degraded CPU rung.
    pub cpu: usize,
    /// Median completion latency of this kind.
    pub p50: Option<Tick>,
    /// 99th-percentile completion latency of this kind.
    pub p99: Option<Tick>,
    /// Mean dispatch-to-completion service time of this kind.
    pub mean_service: Option<Tick>,
    /// Completed queries of this kind per second of (whole-run) makespan.
    pub throughput_qps: f64,
}

/// Nearest-rank percentile over sorted latencies; `pct` clamped to
/// `1..=100`, `None` on an empty sample.
pub(crate) fn percentile(sorted: &[Tick], pct: u64) -> Option<Tick> {
    if sorted.is_empty() {
        return None;
    }
    let idx = (pct.clamp(1, 100) as usize * sorted.len()).div_ceil(100) - 1;
    Some(sorted[idx])
}

/// Mean of `iter`; `None` on an empty sample.
pub(crate) fn mean(iter: impl Iterator<Item = Tick>) -> Option<Tick> {
    let (mut sum, mut n) = (0u64, 0u64);
    for t in iter {
        sum += t.as_ps();
        n += 1;
    }
    (n > 0).then(|| Tick::from_ps(sum / n))
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve[{}]: {} submitted, {} completed ({} device / {} cpu), {} shed, {} deadline misses",
            self.policy,
            self.records.len(),
            self.completed(),
            self.device_queries(),
            self.cpu_queries(),
            self.shed(),
            self.deadline_misses(),
        )?;
        writeln!(
            f,
            "  makespan {:.3} ms, offered {:.1} q/s, throughput {:.1} q/s, service rate {:.1} q/s",
            self.makespan.as_ms_f64(),
            self.offered_qps(),
            self.throughput_qps(),
            self.service_rate_qps(),
        )?;
        // A degenerate run (everything shed) has no latency samples;
        // render those as 0.000 ms rather than NaN — a report is for
        // machines and dashboards as much as eyes, and "NaN" poisons
        // both.
        let ms = |t: Option<Tick>| t.map_or(0.0, |t| t.as_ms_f64());
        writeln!(
            f,
            "  latency p50 {:.3} / p95 {:.3} / p99 {:.3} ms; mean queue-wait {:.3} ms, mean service {:.3} ms",
            ms(self.p50()),
            ms(self.p95()),
            ms(self.p99()),
            ms(self.mean_queue_wait()),
            ms(self.mean_service()),
        )?;
        if self.availability.disturbed() {
            let a = &self.availability;
            writeln!(
                f,
                "  availability: {} quarantine(s), downtime {:.3} ms, {} migration(s), {} requeue(s), {} tightened shed(s), canary {}/{} ok",
                a.units.iter().map(|r| r.quarantines).sum::<u64>(),
                a.total_downtime().as_ms_f64(),
                a.migrations,
                a.requeues,
                a.sheds_tightened,
                a.units.iter().map(|r| r.canary_ok).sum::<u64>(),
                a.units
                    .iter()
                    .map(|r| r.canary_ok + r.canary_fail)
                    .sum::<u64>(),
            )?;
        }
        let breakdown = self.op_breakdown();
        if breakdown.len() > 1 {
            for b in breakdown {
                writeln!(
                    f,
                    "  [{}] {}/{} done ({} cpu, {} shed), p50 {:.3} / p99 {:.3} ms, mean service {:.3} ms, {:.1} q/s",
                    b.op,
                    b.completed,
                    b.submitted,
                    b.cpu,
                    b.shed,
                    ms(b.p50),
                    ms(b.p99),
                    ms(b.mean_service),
                    b.throughput_qps,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::workload::AggFn;

    fn record(id: u32, submitted: u64, started: u64, done: u64) -> QueryRecord {
        QueryRecord {
            id,
            lo: 0,
            hi: 0,
            op: QueryOp::Select,
            submitted: Tick::from_ps(submitted),
            started: Some(Tick::from_ps(started)),
            done: Some(Tick::from_ps(done)),
            deadline: Tick::MAX,
            mode: ExecMode::Device { ranks: 1 },
            matched: 0,
            bitset: Vec::new(),
            agg: None,
            projected: Vec::new(),
            groups: Vec::new(),
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let records: Vec<QueryRecord> = (0..100)
            .map(|i| record(i, 0, 0, (i as u64 + 1) * 1000))
            .collect();
        let report = ServeReport {
            records,
            makespan: Tick::from_ps(100_000),
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.p50(), Some(Tick::from_ps(50_000)));
        assert_eq!(report.p95(), Some(Tick::from_ps(95_000)));
        assert_eq!(report.p99(), Some(Tick::from_ps(99_000)));
        assert_eq!(report.latency_percentile(100), Some(Tick::from_ps(100_000)));
    }

    #[test]
    fn breakdown_sums_to_latency() {
        let r = record(0, 100, 250, 700);
        assert_eq!(r.queue_wait(), Some(Tick::from_ps(150)));
        assert_eq!(r.service(), Some(Tick::from_ps(450)));
        assert_eq!(r.latency(), Some(Tick::from_ps(600)));
    }

    #[test]
    fn empty_report_has_no_percentiles() {
        let report = ServeReport {
            records: Vec::new(),
            makespan: Tick::ZERO,
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.p99(), None);
        assert_eq!(report.throughput_qps(), 0.0);
    }

    #[test]
    fn percentile_input_domain_clamps_to_1_and_100() {
        // The doc comment promises clamping; pin it down: pct 0 behaves
        // as p1 (the sample minimum here) and pct > 100 as p100 (the
        // maximum), never panicking or indexing out of bounds.
        let records: Vec<QueryRecord> = (0..100)
            .map(|i| record(i, 0, 0, (i as u64 + 1) * 1000))
            .collect();
        let report = ServeReport {
            records,
            makespan: Tick::from_ps(100_000),
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.latency_percentile(0), Some(Tick::from_ps(1000)));
        assert_eq!(
            report.latency_percentile(0),
            report.latency_percentile(1),
            "pct 0 clamps up to p1"
        );
        assert_eq!(report.latency_percentile(101), Some(Tick::from_ps(100_000)));
        assert_eq!(
            report.latency_percentile(u64::MAX),
            report.latency_percentile(100),
            "pct > 100 clamps down to p100"
        );
        // A single-element sample returns that element at every pct.
        let one = ServeReport {
            records: vec![record(0, 0, 0, 777)],
            makespan: Tick::from_ps(777),
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        for pct in [0, 1, 50, 100, u64::MAX] {
            assert_eq!(one.latency_percentile(pct), Some(Tick::from_ps(777)));
        }
    }

    #[test]
    fn zero_shed_throughput_keeps_up_with_offered_load() {
        // Regression: BENCH_serving.json once reported throughput_qps
        // 5152 against offered_qps 6185 at load 0.25 with 48/48
        // completed and 0 shed — impossible for a fully-completed run.
        // Completions were divided by the makespan (arrival span *plus
        // drain*) while the offered rate ignored the realized arrival
        // span; both must share one accounting window.
        let records: Vec<QueryRecord> = (0..48)
            .map(|i| {
                // Uneven (Poisson-ish) gaps, service stretching past the
                // last arrival so the makespan includes drain.
                let sub = u64::from(i) * 1000 + (u64::from(i) % 7) * 300;
                record(i, sub, sub + 50, sub + 2500)
            })
            .collect();
        let makespan = Tick::from_ps(
            records
                .iter()
                .map(|r| r.done.unwrap().as_ps())
                .max()
                .unwrap(),
        );
        let report = ServeReport {
            records,
            makespan,
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.shed(), 0);
        assert_eq!(report.completed(), 48);
        assert!(
            makespan > report.offered_window().unwrap(),
            "the scenario must include drain past the last arrival"
        );
        let floor = report.offered_qps() * report.completed() as f64 / report.records.len() as f64;
        assert!(
            report.throughput_qps() >= floor * (1.0 - 1e-9),
            "zero-shed throughput {} must keep up with offered {} (floor {})",
            report.throughput_qps(),
            report.offered_qps(),
            floor
        );
        assert!(
            report.throughput_qps() <= report.offered_qps() * (1.0 + 1e-9),
            "completions cannot outrun arrivals"
        );
        // The drain-including service rate stays available — and for this
        // run it is strictly below the offered rate, which is exactly why
        // it was the wrong numerator/denominator pair to call throughput.
        assert!(report.service_rate_qps() < report.offered_qps());
    }

    #[test]
    fn batch_arrivals_fall_back_to_the_makespan_window() {
        // All arrivals at one instant: no arrival span exists, so both
        // rates fall back to the makespan and the goodput identity
        // throughput == offered · completed/submitted still holds.
        let mut records: Vec<QueryRecord> = (0..4).map(|i| record(i, 0, 10, 1000)).collect();
        records[3].mode = ExecMode::Shed;
        records[3].started = None;
        records[3].done = None;
        let report = ServeReport {
            records,
            makespan: Tick::from_ps(1000),
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.offered_window(), None);
        assert!((report.offered_qps() - 4.0e12 / 1000.0).abs() < 1e-3);
        let identity = report.offered_qps() * 3.0 / 4.0;
        assert!((report.throughput_qps() - identity).abs() < 1e-6);
    }

    #[test]
    fn op_breakdown_slices_by_operator_kind() {
        let mut records = Vec::new();
        // 2 selects (1k, 2k), 1 count on the CPU rung (10k), 1 shed sum.
        records.push(record(0, 0, 0, 1000));
        records.push(record(1, 0, 0, 2000));
        let mut count = record(2, 0, 0, 10_000);
        count.op = QueryOp::SelectCount;
        count.mode = ExecMode::Cpu;
        count.agg = Some(42);
        records.push(count);
        let mut sum = record(3, 0, 0, 0);
        sum.op = QueryOp::SelectAgg(AggFn::Sum);
        sum.mode = ExecMode::Shed;
        sum.started = None;
        sum.done = None;
        records.push(sum);
        let report = ServeReport {
            records,
            makespan: Tick::from_ps(1_000_000),
            policy: "edf",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.ops(), vec!["select", "count", "sum"]);
        let breakdown = report.op_breakdown();
        // "sum" was submitted but fully shed: ops() lists it, the
        // breakdown skips it (no completions → no latency/throughput row).
        assert_eq!(breakdown.len(), 2);
        let sel = &breakdown[0];
        assert_eq!((sel.op, sel.submitted, sel.completed), ("select", 2, 2));
        assert_eq!(sel.p99, Some(Tick::from_ps(2000)));
        let cnt = &breakdown[1];
        assert_eq!((cnt.op, cnt.completed, cnt.cpu), ("count", 1, 1));
        assert_eq!(cnt.p50, Some(Tick::from_ps(10_000)));
        // The rendered report carries the per-operator lines for the
        // classes that completed work, and only those.
        let shown = report.to_string();
        assert!(shown.contains("[select]"));
        assert!(shown.contains("[count]"));
        assert!(!shown.contains("[sum]"));
    }

    #[test]
    fn all_shed_report_stays_finite() {
        // Regression: a run where admission sheds *everything* used to
        // render NaN latencies (Display mapped missing percentiles with
        // f64::NAN) and kept a breakdown row of Nones for each class.
        // Degenerate inputs must produce finite, zeroed accounting.
        let records: Vec<QueryRecord> = (0..5)
            .map(|i| {
                let mut r = record(i, u64::from(i) * 100, 0, 0);
                r.mode = ExecMode::Shed;
                r.started = None;
                r.done = None;
                r
            })
            .collect();
        let report = ServeReport {
            records,
            makespan: Tick::ZERO,
            policy: "fifo",
            availability: Availability::default(),
            events: 0,
        };
        assert_eq!(report.completed(), 0);
        assert_eq!(report.shed(), 5);
        assert_eq!(report.p50(), None);
        assert_eq!(report.p99(), None);
        assert_eq!(report.throughput_qps(), 0.0);
        assert_eq!(
            report.service_rate_qps(),
            0.0,
            "zero completions over a zero makespan is a zero rate, not 0/0"
        );
        assert!(report.op_breakdown().is_empty());
        let shown = report.to_string();
        assert!(
            !shown.contains("NaN") && !shown.contains("inf"),
            "degenerate report must render finite numbers:\n{shown}"
        );
    }
}
