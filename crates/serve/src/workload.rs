//! Seeded query streams: predicate mixes and arrival processes.
//!
//! A served workload is (a) a list of range predicates — the *what* — and
//! (b) an arrival process — the *when*. Both are generated from explicit
//! seeds through [`jafar_common::rng::SplitMix64`], so a workload is a
//! pure function of its parameters: the same `(mix, n, seed)` triple
//! always produces the same query stream, which is what makes the serving
//! golden tests (and the bit-identity acceptance check) possible.
//!
//! Two arrival shapes cover the standard serving experiments:
//!
//! - **Open loop** ([`Arrivals::Open`]): absolute submission instants,
//!   typically Poisson ([`Workload::poisson`]). Offered load is fixed by
//!   the mean inter-arrival gap regardless of how the system keeps up —
//!   this is the shape that exposes the saturation knee.
//! - **Closed loop** ([`Arrivals::Closed`]): a fixed client population,
//!   each submitting its next query a think-time after its previous one
//!   finishes (or is shed). Load self-throttles with service time.

use jafar_columnstore::value::Date;
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_tpch::gen::TpchDb;

/// The scalar fold of a [`QueryOp::SelectAgg`] query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of qualifying values (wrapping, like the device fold).
    Sum,
    /// Minimum qualifying value.
    Min,
    /// Maximum qualifying value.
    Max,
}

/// Most ranges a semi-join key set may compress to — one fused select
/// lane per range, so the ceiling is the device's fused-lane budget
/// ([`jafar_core::device::MAX_FUSED_LANES`]).
pub const MAX_KEY_RANGES: usize = 8;

/// A build-side key set's ranges did not fit the fused-lane budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRangeOverflow {
    /// Disjoint ranges the key set compressed to.
    pub ranges: usize,
}

impl core::fmt::Display for KeyRangeOverflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "build keys compress to {} disjoint ranges, past the {MAX_KEY_RANGES}-lane fused budget",
            self.ranges
        )
    }
}

impl std::error::Error for KeyRangeOverflow {}

/// A semi-join build side's key set, compressed to at most
/// [`MAX_KEY_RANGES`] sorted disjoint inclusive ranges. Adjacent integers
/// coalesce (`{3, 4, 5}` is one range), so dense build sides — the common
/// shape for dictionary-coded and surrogate keys — compress far below the
/// ceiling. Inline and `Copy` so a [`QuerySpec`] stays a plain value the
/// cluster tier can route by copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRanges {
    bounds: [(i64, i64); MAX_KEY_RANGES],
    len: u8,
}

impl KeyRanges {
    /// Compresses a build-side key multiset (unsorted, duplicates fine)
    /// into sorted disjoint ranges. An empty key set is a valid semi-join
    /// that matches nothing.
    ///
    /// Keys are first collapsed into runs of consecutive integers in input
    /// order, and only the runs are sorted and merged, so a build side
    /// that arrives as a few dense runs costs one linear pass.
    pub fn from_keys(keys: &[i64]) -> Result<Self, KeyRangeOverflow> {
        let mut runs: Vec<(i64, i64)> = Vec::new();
        for &k in keys {
            match runs.last_mut() {
                Some((lo, hi)) if *lo <= k && k <= hi.saturating_add(1) => *hi = (*hi).max(k),
                _ => runs.push((k, k)),
            }
        }
        runs.sort_unstable();
        // A sorted run that overlaps or touches the one before merges into it.
        runs.dedup_by(|next, kept| {
            let touches = next.0 <= kept.1.saturating_add(1);
            if touches {
                kept.1 = kept.1.max(next.1);
            }
            touches
        });
        if runs.len() > MAX_KEY_RANGES {
            return Err(KeyRangeOverflow { ranges: runs.len() });
        }
        let mut bounds = [(i64::MAX, i64::MIN); MAX_KEY_RANGES];
        bounds[..runs.len()].copy_from_slice(&runs);
        Ok(KeyRanges {
            bounds,
            len: runs.len() as u8,
        })
    }

    /// The ranges, sorted and disjoint.
    pub fn as_slice(&self) -> &[(i64, i64)] {
        &self.bounds[..self.len as usize]
    }

    /// Number of disjoint ranges (fused lanes the semi-join needs).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the build side was empty (the semi-join matches nothing).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `v` falls inside any range.
    pub fn contains(&self, v: i64) -> bool {
        self.as_slice().iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    /// The inclusive envelope `[min lo, max hi]`; the empty set yields
    /// the canonical empty predicate `(MAX, MIN)` so the envelope alone
    /// is already a correct (if loose) filter.
    pub fn envelope(&self) -> (i64, i64) {
        if self.len == 0 {
            return (i64::MAX, i64::MIN);
        }
        (self.bounds[0].0, self.bounds[self.len as usize - 1].1)
    }
}

/// The operator a served query runs over its range predicate — the §4
/// extensions lifted into the serving layer. Every operator shares the
/// same inclusive `[lo, hi]` predicate; they differ in what they *emit*
/// (and therefore in bytes moved, which drives the engine's per-operator
/// service estimates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// Emit the selection bitset (one bit per row) — the paper's core
    /// filter and the cheapest writeback.
    Select,
    /// Emit only the qualifying-row count (one scalar).
    SelectCount,
    /// Emit one folded scalar over the qualifying values.
    SelectAgg(AggFn),
    /// Late-materialization projection: emit the qualifying values of
    /// `k` columns, densely packed — `k`× the value bytes of a select's
    /// bitset-only writeback.
    Project {
        /// Columns reconstructed at the qualifying positions (≥ 1).
        k: u32,
    },
    /// Semi-join pushdown: emit the bitset of probe rows whose value
    /// falls in the build side's key set, compressed to fused-lane
    /// ranges. The spec's `[lo, hi]` is the ranges' envelope, so every
    /// single-predicate code path (routing, estimates) stays correct
    /// without knowing about ranges.
    SemiJoin {
        /// The build-side key set as sorted disjoint ranges.
        ranges: KeyRanges,
    },
    /// Keyed group-by: partition the qualifying rows of the served
    /// column by the workload's key column, fold each group with `agg`,
    /// and emit the sorted `(key, count, value)` rows.
    GroupBy {
        /// The per-group fold.
        agg: AggFn,
    },
}

impl QueryOp {
    /// Stable operator-kind mnemonic for reports and CSV output
    /// (`Project` collapses to `"project"` regardless of `k`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryOp::Select => "select",
            QueryOp::SelectCount => "count",
            QueryOp::SelectAgg(AggFn::Sum) => "sum",
            QueryOp::SelectAgg(AggFn::Min) => "min",
            QueryOp::SelectAgg(AggFn::Max) => "max",
            QueryOp::Project { .. } => "project",
            QueryOp::SemiJoin { .. } => "semi-join",
            QueryOp::GroupBy { .. } => "group-by",
        }
    }
}

/// One served query: an operator over an inclusive range predicate on
/// the served column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// The operator run over the predicate.
    pub op: QueryOp,
    /// Per-query latency SLO, overriding the workload-wide
    /// [`Workload::slo`] — how multi-tenant workloads give different
    /// tenants different deadlines. `None` falls back to the workload
    /// default.
    pub slo: Option<Tick>,
}

/// How queries are drawn for a workload.
#[derive(Clone, Copy, Debug)]
pub enum PredicateMix {
    /// Uniform random sub-ranges of `[min, max]`, each spanning `width`.
    UniformRange {
        /// Domain lower bound.
        min: i64,
        /// Domain upper bound.
        max: i64,
        /// Width of each query's range (clamped to the domain).
        width: i64,
    },
    /// TPC-H Q6-style shipdate windows: `l_shipdate >= date and
    /// l_shipdate < date + window` with a random first-of-month start
    /// date, mirroring Q6's `[1994-01-01, 1995-01-01)` year slice.
    TpchQ6Shipdate {
        /// Window length in days (Q6 proper uses 365).
        window_days: i64,
    },
}

impl PredicateMix {
    /// The Q6 mix with the query's own one-year window.
    pub fn tpch_q6() -> Self {
        PredicateMix::TpchQ6Shipdate { window_days: 365 }
    }

    /// Draws `n` query specs from the mix, deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<QuerySpec> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| match *self {
                PredicateMix::UniformRange { min, max, width } => {
                    // Normalise a degenerate `min > max` domain instead of
                    // panicking (clamp and the RNG both assert lo ≤ hi),
                    // and saturate every bound derivation so extreme
                    // domains (e.g. spanning the full i64 range) produce a
                    // clamped spec rather than overflowing.
                    let (dom_lo, dom_hi) = (min.min(max), max.max(min));
                    let width = width.clamp(0, dom_hi.saturating_sub(dom_lo));
                    let lo = rng.next_range_inclusive(dom_lo, dom_hi.saturating_sub(width));
                    QuerySpec {
                        lo,
                        hi: lo.saturating_add(width).min(dom_hi),
                        op: QueryOp::Select,
                        slo: None,
                    }
                }
                PredicateMix::TpchQ6Shipdate { window_days } => {
                    // Q6 dates start on the first of a month inside the
                    // lineitem shipdate domain (1992-01 .. 1997-12).
                    let year = 1992 + rng.next_below(6) as i32;
                    let month = 1 + rng.next_below(12) as u32;
                    let lo = Date::from_ymd(year, month, 1).raw();
                    QuerySpec {
                        lo,
                        hi: lo.saturating_add(window_days.max(1) - 1),
                        op: QueryOp::Select,
                        slo: None,
                    }
                }
            })
            .collect()
    }
}

/// The arrival process of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arrivals {
    /// Open loop: absolute submission instants, one per query spec,
    /// non-decreasing. Queries arrive on schedule no matter how the
    /// system is doing.
    Open(Vec<Tick>),
    /// Closed loop: `clients` concurrent submitters, each issuing its
    /// next query `think` after its previous one completes or is shed.
    /// The first `clients` queries all arrive at serve start.
    Closed {
        /// Concurrent client count (at least 1).
        clients: u32,
        /// Per-client think time between completion and next submission.
        think: Tick,
    },
}

/// A complete served workload: query specs, their arrival process, and an
/// optional per-query latency SLO.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The query stream, in submission order.
    pub specs: Vec<QuerySpec>,
    /// When each query is submitted.
    pub arrivals: Arrivals,
    /// Workload-wide deadline default: a query submitted at `t` must
    /// finish by `t + slo` — past-due risk triggers the degradation
    /// ladder. Overridden per query by [`QuerySpec::slo`].
    pub slo: Option<Tick>,
}

impl Workload {
    /// Open-loop Poisson workload: `n` queries from `mix`, exponential
    /// inter-arrival gaps with the given mean. Fully determined by
    /// `(mix, n, mean_gap, seed)`.
    pub fn poisson(mix: PredicateMix, n: usize, mean_gap: Tick, seed: u64) -> Self {
        let specs = mix.generate(n, seed);
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mean = mean_gap.as_ps().max(1) as f64;
        let mut at = 0u64;
        let arrivals = (0..n)
            .map(|_| {
                // Inverse-CDF exponential draw; 1 - u is in (0, 1] so the
                // log is finite, and the gap is clamped to >= 1 ps.
                let u = rng.next_f64();
                let gap = (-(1.0 - u).ln() * mean).round() as u64;
                at += gap.max(1);
                Tick::from_ps(at)
            })
            .collect();
        Workload {
            specs,
            arrivals: Arrivals::Open(arrivals),
            slo: None,
        }
    }

    /// Closed-loop workload: `n` queries from `mix` issued by `clients`
    /// concurrent clients with the given think time.
    pub fn closed(mix: PredicateMix, n: usize, clients: u32, think: Tick, seed: u64) -> Self {
        Workload {
            specs: mix.generate(n, seed),
            arrivals: Arrivals::Closed {
                clients: clients.max(1),
                think,
            },
            slo: None,
        }
    }

    /// Attaches a uniform latency SLO (enables the degradation ladder).
    pub fn with_slo(mut self, slo: Tick) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Assigns tenant SLO classes round-robin: query `i` gets
    /// `classes[i % classes.len()]`, so an interleaved multi-tenant mix
    /// (say latency-critical and batch tenants) shares one queue.
    pub fn with_slo_classes(mut self, classes: &[Tick]) -> Self {
        if !classes.is_empty() {
            for (i, spec) in self.specs.iter_mut().enumerate() {
                spec.slo = Some(classes[i % classes.len()]);
            }
        }
        self
    }

    /// Assigns operators round-robin: query `i` runs `ops[i % ops.len()]`
    /// over its generated predicate, turning a single-operator stream
    /// into an interleaved mixed-operator one (the §4 serving mix). A
    /// semi-join's predicate is its key ranges, so its spec takes their
    /// envelope as `[lo, hi]`, as [`QuerySpec::semi_join`] gives it.
    pub fn with_op_mix(mut self, ops: &[QueryOp]) -> Self {
        if !ops.is_empty() {
            for (i, spec) in self.specs.iter_mut().enumerate() {
                spec.op = ops[i % ops.len()];
                if let QueryOp::SemiJoin { ranges } = spec.op {
                    (spec.lo, spec.hi) = ranges.envelope();
                }
            }
        }
        self
    }

    /// Number of queries in the stream.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The widest fused-lane footprint any semi-join in the stream needs
    /// (0 when none): output buffers must hold this many lanes even when
    /// `fuse_window` is 1, since a semi-join's ranges fuse regardless.
    pub fn max_semi_lanes(&self) -> usize {
        self.specs
            .iter()
            .map(|s| match s.op {
                QueryOp::SemiJoin { ranges } => ranges.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }
}

impl QuerySpec {
    /// A semi-join spec over the given build-side key ranges; `[lo, hi]`
    /// is the ranges' envelope.
    pub fn semi_join(ranges: KeyRanges) -> Self {
        let (lo, hi) = ranges.envelope();
        QuerySpec {
            lo,
            hi,
            op: QueryOp::SemiJoin { ranges },
            slo: None,
        }
    }

    /// A keyed group-by spec folding `agg` over values in `[lo, hi]`.
    pub fn group_by(lo: i64, hi: i64, agg: AggFn) -> Self {
        QuerySpec {
            lo,
            hi,
            op: QueryOp::GroupBy { agg },
            slo: None,
        }
    }
}

/// A seeded Zipf-distributed key column: `n` draws over keys
/// `0..domain`, rank-`r` key with probability `∝ 1 / (r+1)^theta`
/// (`theta = 1.0` is the classic JSPIM hot-key stream). Deterministic in
/// `(n, domain, theta, seed)` via inverse-CDF sampling — the key column
/// the served group-by partitions, aligned row-for-row with the served
/// value column.
pub fn zipf_keys(n: usize, domain: usize, theta: f64, seed: u64) -> Vec<i64> {
    assert!(domain > 0, "zipf domain must be non-empty");
    let mut cdf = Vec::with_capacity(domain);
    let mut total = 0.0f64;
    for r in 0..domain {
        total += 1.0 / ((r + 1) as f64).powf(theta);
        cdf.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * total;
            cdf.partition_point(|&c| c < u).min(domain - 1) as i64
        })
        .collect()
}

/// A seeded uniform key column over `0..domain` — the unskewed
/// counterpart of [`zipf_keys`].
pub fn uniform_keys(n: usize, domain: usize, seed: u64) -> Vec<i64> {
    assert!(domain > 0, "key domain must be non-empty");
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| rng.next_below(domain as u64) as i64)
        .collect()
}

/// The `l_shipdate` column a [`PredicateMix::TpchQ6Shipdate`] workload
/// scans, as raw epoch-day `i64`s ready for `System::write_column`.
pub fn q6_shipdate_column(db: &TpchDb) -> &[i64] {
    db.lineitem
        .column("l_shipdate")
        .expect("static TPC-H schema")
        .data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_monotonic() {
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 1000,
            width: 100,
        };
        let a = Workload::poisson(mix, 64, Tick::from_ns(500), 7);
        let b = Workload::poisson(mix, 64, Tick::from_ns(500), 7);
        assert_eq!(a.specs, b.specs);
        let (Arrivals::Open(ta), Arrivals::Open(tb)) = (&a.arrivals, &b.arrivals) else {
            panic!("poisson workloads are open-loop");
        };
        assert_eq!(ta, tb);
        assert!(ta.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let c = Workload::poisson(mix, 64, Tick::from_ns(500), 8);
        let Arrivals::Open(tc) = &c.arrivals else {
            panic!("poisson workloads are open-loop");
        };
        assert_ne!(ta, tc, "different seeds, different schedules");
    }

    #[test]
    fn q6_mix_draws_first_of_month_year_windows() {
        let specs = PredicateMix::tpch_q6().generate(32, 11);
        let lo_min = Date::from_ymd(1992, 1, 1).raw();
        let hi_max = Date::from_ymd(1998, 12, 31).raw();
        for s in specs {
            assert!(s.lo >= lo_min && s.hi <= hi_max);
            assert_eq!(s.hi - s.lo, 364);
        }
    }

    #[test]
    fn uniform_mix_respects_domain() {
        let specs = PredicateMix::UniformRange {
            min: -50,
            max: 50,
            width: 10,
        }
        .generate(100, 3);
        for s in specs {
            assert!(s.lo >= -50 && s.hi <= 50 && s.hi - s.lo == 10);
        }
    }

    #[test]
    fn degenerate_and_extreme_uniform_domains_never_panic() {
        // Regression (pre-fix this panicked): a reversed domain hit
        // `width.clamp(0, negative)` and `next_range_inclusive(lo > hi)`.
        let specs = PredicateMix::UniformRange {
            min: 50,
            max: -50,
            width: 10,
        }
        .generate(16, 5);
        for s in &specs {
            assert!(s.lo >= -50 && s.hi <= 50 && s.lo <= s.hi);
        }
        // Property: any (min, max, width) triple — including full-i64
        // spans whose width arithmetic would overflow unchecked — yields
        // specs clamped inside the normalised domain.
        use jafar_common::check::forall;
        forall("uniform-mix-extreme-bounds", 64, |rng| {
            let pick = |rng: &mut SplitMix64| match rng.next_below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => rng.next_range_inclusive(-1000, 1000),
                _ => rng.next_u64() as i64,
            };
            let (min, max) = (pick(rng), pick(rng));
            let width = pick(rng);
            let specs = PredicateMix::UniformRange { min, max, width }.generate(8, rng.next_u64());
            let (dom_lo, dom_hi) = (min.min(max), max.max(min));
            for s in specs {
                assert!(
                    s.lo >= dom_lo && s.hi <= dom_hi && s.lo <= s.hi,
                    "spec [{}, {}] outside domain [{dom_lo}, {dom_hi}] (width {width})",
                    s.lo,
                    s.hi
                );
            }
        });
    }

    #[test]
    fn extreme_q6_window_saturates_instead_of_overflowing() {
        let specs = PredicateMix::TpchQ6Shipdate {
            window_days: i64::MAX,
        }
        .generate(4, 9);
        for s in specs {
            assert!(s.lo <= s.hi, "saturated window stays ordered");
        }
    }

    #[test]
    fn key_ranges_coalesce_sort_and_dedup() {
        let r = KeyRanges::from_keys(&[5, 3, 4, 9, 4, 1]).expect("few ranges");
        assert_eq!(r.as_slice(), &[(1, 1), (3, 5), (9, 9)]);
        assert_eq!(r.envelope(), (1, 9));
        assert!(r.contains(4) && r.contains(9) && !r.contains(2) && !r.contains(10));
        let dense = KeyRanges::from_keys(&(0..1000).collect::<Vec<i64>>()).expect("one range");
        assert_eq!(dense.as_slice(), &[(0, 999)]);
    }

    #[test]
    fn empty_key_set_is_the_empty_predicate() {
        let r = KeyRanges::from_keys(&[]).expect("empty is valid");
        assert!(r.is_empty());
        assert_eq!(r.envelope(), (i64::MAX, i64::MIN));
        assert!(!r.contains(0));
    }

    #[test]
    fn too_many_ranges_is_a_typed_error() {
        // 9 isolated keys → 9 ranges, one past the lane budget.
        let keys: Vec<i64> = (0..9).map(|i| i * 10).collect();
        let err = KeyRanges::from_keys(&keys).expect_err("over budget");
        assert_eq!(err.ranges, 9);
        assert!(err.to_string().contains("9 disjoint ranges"));
        // i64::MAX next to anything never coalesces past it (the +1 guard).
        let r = KeyRanges::from_keys(&[i64::MAX - 1, i64::MAX]).expect("one range");
        assert_eq!(r.as_slice(), &[(i64::MAX - 1, i64::MAX)]);
    }

    /// `from_keys` as first written — sort every key, dedup, coalesce
    /// adjacent integers — kept as the oracle of the run-merging one.
    fn reference_ranges(keys: &[i64]) -> Result<Vec<(i64, i64)>, KeyRangeOverflow> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut ranges: Vec<(i64, i64)> = Vec::new();
        for &k in &sorted {
            match ranges.last_mut() {
                Some((_, hi)) if *hi != i64::MAX && k == *hi + 1 => *hi = k,
                _ => ranges.push((k, k)),
            }
        }
        if ranges.len() > MAX_KEY_RANGES {
            return Err(KeyRangeOverflow {
                ranges: ranges.len(),
            });
        }
        Ok(ranges)
    }

    #[test]
    fn run_merging_matches_the_sorting_compression() {
        use jafar_common::check::forall;
        forall("key ranges from runs", 512, |rng| {
            // Up to 12 runs (some past the budget), each dense, repeated
            // or shuffled, from anywhere in i64 — its ends included.
            let mut keys: Vec<i64> = Vec::new();
            for _ in 0..rng.next_below(13) {
                let len = rng.next_range_inclusive(1, 40);
                let lo = match rng.next_below(6) {
                    0 => i64::MIN,
                    1 => i64::MAX - len + 1,
                    2 => rng.next_u64() as i64 / 2,
                    _ => rng.next_range_inclusive(-300, 300),
                };
                let run: Vec<i64> = (0..len).map(|i| lo + i).collect();
                keys.extend(&run);
                if rng.next_below(3) == 0 {
                    keys.extend(&run[..rng.next_below(len as u64) as usize]);
                }
            }
            match rng.next_below(3) {
                0 => rng.shuffle(&mut keys),
                1 => keys.reverse(),
                _ => {}
            }
            let got = KeyRanges::from_keys(&keys).map(|r| r.as_slice().to_vec());
            assert_eq!(got, reference_ranges(&keys), "keys {keys:?}");
        });
    }

    #[test]
    fn max_semi_lanes_tracks_the_widest_join() {
        let mut w = Workload::poisson(
            PredicateMix::UniformRange {
                min: 0,
                max: 99,
                width: 10,
            },
            3,
            Tick::from_us(1),
            7,
        );
        assert_eq!(w.max_semi_lanes(), 0);
        w.specs[1] = QuerySpec::semi_join(KeyRanges::from_keys(&[1, 5, 9, 13]).unwrap());
        assert_eq!(w.max_semi_lanes(), 4);
        assert_eq!(w.specs[1].op.name(), "semi-join");
        assert_eq!((w.specs[1].lo, w.specs[1].hi), (1, 13));
    }

    #[test]
    fn zipf_keys_are_deterministic_and_skewed() {
        let a = zipf_keys(4096, 64, 1.0, 42);
        let b = zipf_keys(4096, 64, 1.0, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| (0..64).contains(&k)));
        let hot = a.iter().filter(|&&k| k == 0).count();
        let cold = a.iter().filter(|&&k| k == 63).count();
        assert!(
            hot > 8 * cold.max(1),
            "rank-0 key ({hot}) must dominate rank-63 ({cold})"
        );
        let u = uniform_keys(4096, 64, 42);
        let u_hot = u.iter().filter(|&&k| k == 0).count();
        assert!(u_hot < hot / 2, "uniform keys must not share the skew");
    }

    #[test]
    fn op_mix_assigns_round_robin() {
        let ops = [
            QueryOp::Select,
            QueryOp::SelectCount,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::Project { k: 3 },
        ];
        let w = Workload::poisson(
            PredicateMix::UniformRange {
                min: 0,
                max: 99,
                width: 10,
            },
            10,
            Tick::from_us(1),
            7,
        )
        .with_op_mix(&ops);
        for (i, spec) in w.specs.iter().enumerate() {
            assert_eq!(spec.op, ops[i % ops.len()]);
        }
        assert_eq!(w.specs[3].op.name(), "project");
        assert_eq!(w.specs[2].op.name(), "sum");
    }
}
