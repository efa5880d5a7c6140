//! NDP aggregation (§4, "Aggregations").
//!
//! "Aggregations such as sum, average, minimum, maximum, etc. require
//! minimal additional hardware to support." The device streams a column the
//! same way the filter does and folds each word into an accumulator; an
//! optional predicate combines filter + aggregate in one pass. For
//! hash-based group-by, "there must be a limit to the number of hash
//! buckets JAFAR can support, which suggests that a hierarchical
//! aggregation approach will be required": the device keeps a small bucket
//! table and spills rows whose key conflicts to an overflow region in DRAM
//! for the CPU to merge.
//!
//! The hash unit is a multiply-shift stage standing in for the
//! fixed-function SHA/MD5 units the paper cites [9, 10, 47] — what matters
//! to the model is the pipelined fixed-function latency, not the digest.

use crate::datapath::{last_burst_start, Datapath};
use crate::device::{admit, device_error, DeviceError, JafarDevice};
use crate::predicate::Predicate;
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr, Requester};

/// Aggregate operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Count of (qualifying) rows.
    Count,
    /// Average (reported as sum + count).
    Avg,
}

impl AggOp {
    /// Folds `v` into the accumulator `acc` (`None` before the first
    /// value) with the device kernel's semantics: a wrapping sum for
    /// `Sum`, `Avg` and `Count`, the extremum for `Min` and `Max`. The
    /// same step merges two partial results, so a host fold and a merge
    /// of device partials agree with one device fold byte for byte.
    /// For `Count`, `v` is the count to add.
    #[inline]
    pub fn step(self, acc: Option<i64>, v: i64) -> Option<i64> {
        Some(match (self, acc) {
            (AggOp::Min, Some(a)) => a.min(v),
            (AggOp::Max, Some(a)) => a.max(v),
            (AggOp::Min | AggOp::Max, None) => v,
            (AggOp::Sum | AggOp::Avg | AggOp::Count, a) => a.unwrap_or(0).wrapping_add(v),
        })
    }
}

/// A scalar aggregation job.
#[derive(Clone, Copy, Debug)]
pub struct AggregateJob {
    /// 64-byte-aligned base of the packed `i64` column.
    pub col_addr: PhysAddr,
    /// Rows to aggregate.
    pub rows: u64,
    /// The fold.
    pub op: AggOp,
    /// Optional combined filter: only qualifying rows enter the fold.
    pub filter: Option<Predicate>,
}

/// Result of a scalar aggregation.
#[derive(Clone, Copy, Debug)]
pub struct AggregateRun {
    /// Completion tick.
    pub end: Tick,
    /// The folded value: sum for `Sum`/`Avg`, extremum for `Min`/`Max`,
    /// count for `Count`. `None` when no row qualified for `Min`/`Max`.
    pub value: Option<i64>,
    /// Qualifying rows (equals `rows` without a filter).
    pub count: u64,
    /// Input bursts read.
    pub bursts_read: u64,
}

/// A bounded-bucket hash group-by job.
#[derive(Clone, Copy, Debug)]
pub struct GroupByJob {
    /// 64-byte-aligned base of the packed `i64` key column.
    pub key_addr: PhysAddr,
    /// 64-byte-aligned base of the packed `i64` value column.
    pub val_addr: PhysAddr,
    /// Rows.
    pub rows: u64,
    /// The per-group fold (Sum or Count).
    pub op: AggOp,
    /// Hardware bucket-table size.
    pub buckets: usize,
    /// 64-byte-aligned overflow spill region (key/value pairs).
    pub spill_addr: PhysAddr,
}

/// Result of a group-by pass.
#[derive(Clone, Debug)]
pub struct GroupByRun {
    /// Completion tick.
    pub end: Tick,
    /// `(key, aggregate, count)` per occupied bucket.
    pub groups: Vec<(i64, i64, u64)>,
    /// Rows spilled to DRAM for hierarchical CPU-side merging.
    pub spilled_rows: u64,
    /// Input bursts read (both columns).
    pub bursts_read: u64,
}

/// Folds each of `words` into `acc` with `step`, one that lies outside
/// `[lo, lo + span]` as the fold's `identity`, so no branch depends on
/// the filter; returns how many qualified. The wrapping sum is
/// associative, so the result is the word-by-word one.
#[inline]
fn fold(
    words: &[[u8; 8]],
    (lo, span): (i64, u64),
    acc: &mut i64,
    identity: i64,
    step: impl Fn(i64, i64) -> i64,
) -> u64 {
    let mut count = 0;
    for word in words {
        let v = i64::from_le_bytes(*word);
        let qualifies = v.wrapping_sub(lo) as u64 <= span;
        count += u64::from(qualifies);
        *acc = step(*acc, if qualifies { v } else { identity });
    }
    count
}

/// The multiply-shift "fixed-function hash unit".
pub fn hash_bucket(key: i64, buckets: usize) -> usize {
    debug_assert!(buckets.is_power_of_two());
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - buckets.trailing_zeros())) as usize % buckets
}

impl JafarDevice {
    /// Streams a scalar aggregation over an owned rank.
    ///
    /// # Errors
    /// Same validation as [`JafarDevice::run_select`].
    pub fn run_aggregate(
        &mut self,
        module: &mut DramModule,
        job: AggregateJob,
        start: Tick,
    ) -> Result<AggregateRun, DeviceError> {
        admit(module, &[(job.col_addr, job.rows.saturating_mul(8))], start)?;
        let datapath = if job.filter.is_some() {
            Datapath::FilteredAggregate
        } else {
            Datapath::Aggregate
        };
        let ps_per_word = self.rate(datapath);
        let full_burst = Tick::from_ps(8 * ps_per_word);
        // The filter as `[lo, lo + span]`, so one unsigned compare tests
        // a word; no filter is the whole domain, and an empty range
        // (`lo > hi`) qualifies nothing, so its fold is skipped.
        let range = match job.filter.map(Predicate::bounds) {
            None => Some((i64::MIN, u64::MAX)),
            Some((lo, hi)) => (lo <= hi).then(|| (lo, hi.wrapping_sub(lo) as u64)),
        };

        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;
        let mut count = 0u64;
        // The three folds, at their identities.
        let (mut sum, mut min, mut max) = (0i64, i64::MAX, i64::MIN);

        let total_bursts = job.rows.div_ceil(8);
        let mut burst = 0;
        while burst < total_bursts {
            // The fold never writes, so it asks for the rest of the column.
            let run = module
                .serve_run(
                    PhysAddr(job.col_addr.0 + burst * 64),
                    usize::try_from(total_bursts - burst).unwrap_or(usize::MAX),
                    Requester::Ndp,
                    issue_cursor,
                )
                .map_err(device_error)?;
            issue_cursor = run.next_request;
            let n = run.lines.len() as u64;
            // The run's words up to the job's last row.
            let live = (job.rows - burst * 8).min(n * 8);
            if let Some(range) = range {
                let (words, _) = run.lines.as_flattened()[..live as usize * 8].as_chunks::<8>();
                count += match job.op {
                    AggOp::Sum | AggOp::Avg => fold(words, range, &mut sum, 0, i64::wrapping_add),
                    AggOp::Min => fold(words, range, &mut min, i64::MAX, i64::min),
                    AggOp::Max => fold(words, range, &mut max, i64::MIN, i64::max),
                    AggOp::Count => fold(words, range, &mut sum, 0, |acc, _| acc),
                };
            }
            let last_start = last_burst_start(proc_free, &run, full_burst);
            proc_free = last_start + Tick::from_ps((live - (n - 1) * 8) * ps_per_word);
            burst += n;
            bursts_read += n;
        }

        let value = match job.op {
            AggOp::Count => count as i64,
            AggOp::Sum | AggOp::Avg => sum,
            AggOp::Min => min,
            AggOp::Max => max,
        };
        Ok(AggregateRun {
            end: proc_free,
            // Only a count is defined over no qualifying row.
            value: (count > 0 || job.op == AggOp::Count).then_some(value),
            count,
            bursts_read,
        })
    }

    /// Streams a bounded-bucket hash group-by, spilling conflicting keys to
    /// DRAM (the hierarchical approach §4 calls for).
    ///
    /// # Errors
    /// Same validation as [`JafarDevice::run_select`].
    ///
    /// # Panics
    /// Panics if `buckets` is not a power of two.
    pub fn run_group_by(
        &mut self,
        module: &mut DramModule,
        job: GroupByJob,
        start: Tick,
    ) -> Result<GroupByRun, DeviceError> {
        assert!(job.buckets.is_power_of_two(), "bucket count must be 2^k");
        let col_bytes = job.rows.saturating_mul(8);
        // Each spilled row takes a whole burst.
        admit(
            module,
            &[
                (job.key_addr, col_bytes),
                (job.val_addr, col_bytes),
                (job.spill_addr, job.rows.saturating_mul(64)),
            ],
            start,
        )?;
        let ps_per_word = self.rate(Datapath::GroupBy);
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;

        let mut table: Vec<Option<(i64, i64, u64)>> = vec![None; job.buckets];
        let mut spilled = 0u64;
        let mut spill_cursor = job.spill_addr.0;
        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;

        let total_bursts = job.rows.div_ceil(8);
        for burst in 0..total_bursts {
            // The key burst is held while the value burst is read, so each
            // lent burst is copied out.
            let mut fetch = |col: PhysAddr, cursor: &mut Tick, free: &mut Tick| {
                let addr = PhysAddr(col.0 + burst * 64);
                let access = module
                    .serve_addr(addr, false, Requester::Ndp, *cursor, None)
                    .map_err(device_error)?;
                let cas_at = access.data_ready.saturating_sub(cas_pipeline);
                *cursor = cas_at.max(*cursor) + t.bus_clock.period();
                *free = (*free).max(access.data_ready);
                Ok::<_, DeviceError>(*access.data.expect("read"))
            };
            let keys = fetch(job.key_addr, &mut issue_cursor, &mut proc_free)?;
            let vals = fetch(job.val_addr, &mut issue_cursor, &mut proc_free)?;
            bursts_read += 2;

            let words = (job.rows - burst * 8).min(8);
            for w in 0..words {
                let off = (w * 8) as usize;
                let k = i64::from_le_bytes(keys[off..off + 8].try_into().expect("8 bytes"));
                let v = i64::from_le_bytes(vals[off..off + 8].try_into().expect("8 bytes"));
                let b = hash_bucket(k, job.buckets);
                match &mut table[b] {
                    slot @ None => {
                        *slot = Some((
                            k,
                            match job.op {
                                AggOp::Count => 1,
                                _ => v,
                            },
                            1,
                        ))
                    }
                    Some((key, acc, n)) if *key == k => {
                        match job.op {
                            AggOp::Count => *acc += 1,
                            _ => *acc = acc.wrapping_add(v),
                        }
                        *n += 1;
                    }
                    Some(_) => {
                        // Conflict: spill the (key, value) pair to DRAM.
                        let mut pair = [0u8; 64];
                        pair[..8].copy_from_slice(&k.to_le_bytes());
                        pair[8..16].copy_from_slice(&v.to_le_bytes());
                        module
                            .serve_addr(
                                PhysAddr(spill_cursor & !63),
                                true,
                                Requester::Ndp,
                                proc_free,
                                Some(&pair),
                            )
                            .map_err(device_error)?;
                        spill_cursor += 64;
                        spilled += 1;
                    }
                }
            }
            proc_free += Tick::from_ps(words * ps_per_word);
        }

        Ok(GroupByRun {
            end: proc_free,
            groups: table.into_iter().flatten().collect(),
            spilled_rows: spilled,
            bursts_read,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::grant_ownership;
    use jafar_common::rng::SplitMix64;
    use jafar_dram::{AddressMapping, DramGeometry, DramTiming};

    fn setup() -> (JafarDevice, DramModule, Tick) {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let lease = grant_ownership(&mut m, 0, Tick::ZERO).unwrap();
        let t0 = lease.acquired_at;

        (JafarDevice::paper_default(), m, t0)
    }

    fn put(m: &mut DramModule, addr: u64, values: &[i64]) {
        for (i, v) in values.iter().enumerate() {
            m.data_mut().write_i64(PhysAddr(addr + i as u64 * 8), *v);
        }
    }

    #[test]
    fn sum_min_max_count_match_reference() {
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(17);
        let values: Vec<i64> = (0..500)
            .map(|_| rng.next_range_inclusive(-50, 50))
            .collect();
        put(&mut m, 0, &values);
        let mut run = |op| {
            let mut dd = JafarDevice::paper_default();
            dd.run_aggregate(
                &mut m,
                AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: 500,
                    op,
                    filter: None,
                },
                t0,
            )
            .unwrap()
        };
        let _ = &mut d;
        assert_eq!(run(AggOp::Sum).value, Some(values.iter().sum::<i64>()));
        assert_eq!(run(AggOp::Min).value, values.iter().min().copied());
        assert_eq!(run(AggOp::Max).value, values.iter().max().copied());
        assert_eq!(run(AggOp::Count).value, Some(500));
    }

    #[test]
    fn filtered_aggregate_combines_select_and_fold() {
        let (mut d, mut m, t0) = setup();
        let values: Vec<i64> = (0..100).collect();
        put(&mut m, 0, &values);
        let run = d
            .run_aggregate(
                &mut m,
                AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: 100,
                    op: AggOp::Sum,
                    filter: Some(Predicate::Between(10, 19)),
                },
                t0,
            )
            .unwrap();
        assert_eq!(run.value, Some((10..=19).sum::<i64>()));
        assert_eq!(run.count, 10);
    }

    #[test]
    fn min_of_empty_selection_is_none() {
        let (mut d, mut m, t0) = setup();
        put(&mut m, 0, &[5, 6, 7, 8]);
        let run = d
            .run_aggregate(
                &mut m,
                AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: 4,
                    op: AggOp::Min,
                    filter: Some(Predicate::Between(100, 200)),
                },
                t0,
            )
            .unwrap();
        assert_eq!(run.value, None);
        assert_eq!(run.count, 0);
    }

    #[test]
    fn aggregation_streams_at_filter_rate() {
        // §2.2: there is headroom to add "more complex calculations, like
        // hashing or aggregates, at virtually no additional latency" — an
        // unfiltered sum must stream as fast as the filter does.
        let (mut d, mut m, t0) = setup();
        let values: Vec<i64> = (0..4096).collect();
        put(&mut m, 0, &values);
        let agg = d
            .run_aggregate(
                &mut m,
                AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: 4096,
                    op: AggOp::Sum,
                    filter: None,
                },
                t0,
            )
            .unwrap();
        let span = agg.end - t0;
        let ns_per_burst = span.as_ns_f64() / agg.bursts_read as f64;
        assert!((3.9..6.0).contains(&ns_per_burst), "{ns_per_burst}");
    }

    #[test]
    fn group_by_without_conflicts() {
        let (mut d, mut m, t0) = setup();
        // 4 distinct keys over 64 buckets: collisions possible only if two
        // keys hash to the same bucket — check and regenerate is overkill;
        // just verify total mass is conserved across buckets + spills.
        let keys: Vec<i64> = (0..400).map(|i| i % 4).collect();
        let vals: Vec<i64> = (0..400).map(|_| 2).collect();
        put(&mut m, 0, &keys);
        put(&mut m, 8192, &vals);
        let run = d
            .run_group_by(
                &mut m,
                GroupByJob {
                    key_addr: PhysAddr(0),
                    val_addr: PhysAddr(8192),
                    rows: 400,
                    op: AggOp::Sum,
                    buckets: 64,
                    spill_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        let in_table: i64 = run.groups.iter().map(|(_, acc, _)| acc).sum();
        assert_eq!(in_table + run.spilled_rows as i64 * 2, 800);
        let rows_in_table: u64 = run.groups.iter().map(|(_, _, n)| n).sum();
        assert_eq!(rows_in_table + run.spilled_rows, 400);
    }

    #[test]
    fn group_by_spills_when_buckets_exhausted() {
        let (mut d, mut m, t0) = setup();
        // 64 distinct keys into 4 buckets: heavy conflicts → spills.
        let keys: Vec<i64> = (0..256).map(|i| i % 64).collect();
        let vals: Vec<i64> = vec![1; 256];
        put(&mut m, 0, &keys);
        put(&mut m, 8192, &vals);
        let run = d
            .run_group_by(
                &mut m,
                GroupByJob {
                    key_addr: PhysAddr(0),
                    val_addr: PhysAddr(8192),
                    rows: 256,
                    op: AggOp::Sum,
                    buckets: 4,
                    spill_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        assert!(run.spilled_rows > 0);
        assert!(run.groups.len() <= 4);
        // Hierarchical merge: spilled pairs are readable from DRAM.
        let mut first = [0u8; 16];
        m.data().read(PhysAddr(64 * 1024), &mut first);
        let k = i64::from_le_bytes(first[..8].try_into().unwrap());
        assert!((0..64).contains(&k));
    }

    #[test]
    fn hash_bucket_distributes() {
        let buckets = 64;
        let mut counts = vec![0u32; buckets];
        for k in 0..6400i64 {
            counts[hash_bucket(k, buckets)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 200 && min > 40, "min={min} max={max}");
    }

    #[test]
    fn ecc_failure_aborts_every_fold_with_a_typed_error() {
        let (mut d, mut m, t0) = setup();
        put(&mut m, 0, &[1; 64]);
        m.set_fault_injector(Some(jafar_dram::FaultInjector::new(
            jafar_dram::FaultPlan {
                read_flip_p: 1.0,
                double_flip_p: 1.0,
                ..jafar_dram::FaultPlan::none(3)
            },
        )));
        let agg = AggregateJob {
            col_addr: PhysAddr(0),
            rows: 64,
            op: AggOp::Sum,
            filter: None,
        };
        let group_by = GroupByJob {
            key_addr: PhysAddr(0),
            val_addr: PhysAddr(8192),
            rows: 64,
            op: AggOp::Sum,
            buckets: 4,
            spill_addr: PhysAddr(64 * 1024),
        };
        assert_eq!(
            d.run_aggregate(&mut m, agg, t0).unwrap_err(),
            DeviceError::Uncorrectable
        );
        assert_eq!(
            d.run_group_by(&mut m, group_by, t0).unwrap_err(),
            DeviceError::Uncorrectable
        );
    }

    /// The word-by-word fold that folding a burst at a time must equal.
    fn reference_fold(values: &[i64], op: AggOp, bounds: Option<(i64, i64)>) -> (Option<i64>, u64) {
        let mut count = 0u64;
        let mut acc: Option<i64> = None;
        for &v in values {
            if bounds.is_none_or(|(lo, hi)| lo <= v && v <= hi) {
                count += 1;
                acc = Some(match (op, acc) {
                    (AggOp::Count, prev) => prev.unwrap_or(0).wrapping_add(1),
                    (AggOp::Sum | AggOp::Avg, prev) => prev.unwrap_or(0).wrapping_add(v),
                    (AggOp::Min, prev) => prev.map_or(v, |p| p.min(v)),
                    (AggOp::Max, prev) => prev.map_or(v, |p| p.max(v)),
                });
            }
        }
        let value = match op {
            AggOp::Count => Some(count as i64),
            _ => acc,
        };
        (value, count)
    }

    #[test]
    fn burst_folds_match_a_word_by_word_wrapping_fold() {
        use jafar_common::check::forall;
        forall("aggregate folds match the per-word fold", 64, |rng| {
            let (mut d, mut m, t0) = setup();
            let rows = rng.next_below(300) as usize;
            // Mostly extremes, so sums wrap many times over.
            let values: Vec<i64> = (0..rows)
                .map(|_| match rng.next_below(4) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.next_range_inclusive(-5, 5),
                })
                .collect();
            let col = 64 * rng.next_below(20);
            put(&mut m, col, &values);
            let op = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg]
                [rng.next_below(5) as usize];
            let bounds = match rng.next_below(4) {
                0 => None,
                1 => Some((i64::MIN, i64::MAX)),
                2 => Some((1, 0)),
                _ => {
                    let lo = rng.next_range_inclusive(-5, 5);
                    Some((lo, lo + rng.next_range_inclusive(0, 5)))
                }
            };
            let run = d
                .run_aggregate(
                    &mut m,
                    AggregateJob {
                        col_addr: PhysAddr(col),
                        rows: rows as u64,
                        op,
                        filter: bounds.map(|(lo, hi)| Predicate::Between(lo, hi)),
                    },
                    t0,
                )
                .unwrap();
            let (value, count) = reference_fold(&values, op, bounds);
            assert_eq!(
                (run.value, run.count),
                (value, count),
                "{op:?} over {bounds:?}"
            );
        });
    }

    #[test]
    fn unowned_rank_rejected() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut d = JafarDevice::paper_default();
        let err = d
            .run_aggregate(
                &mut m,
                AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: 8,
                    op: AggOp::Sum,
                    filter: None,
                },
                Tick::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::NotOwned);
    }
}
