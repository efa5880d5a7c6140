//! NDP sorting (§4, "Sorting").
//!
//! "Sorting is used widely in database query plans, such as sorting a
//! position list after an index scan or in an order-based group by ...
//! JAFAR can easily incorporate a fixed function sort accelerator to
//! support sorting. Because ASIC sorters are generally costly in terms of
//! area, implementations are typically limited to sorting a small number
//! of elements at a time. This does not prevent sorting larger datasets,
//! using a divide-and-conquer approach."
//!
//! The model: a fixed-function **bitonic sorting network** over `k`
//! elements (area-limited, so `k` is small — 64 by default) producing
//! sorted runs in one streaming pass, followed by in-memory k-way **merge
//! passes** (the divide-and-conquer step), all reading and writing the
//! owned rank. The network is fully pipelined: one element enters per
//! device cycle; its depth `O(log² k)` adds only fill latency. Merge
//! passes stream at one element per cycle per pass.

use crate::device::{admit, device_error, DeviceError, JafarDevice};
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr, Requester};

/// A sort job over a packed `i64` column.
#[derive(Clone, Copy, Debug)]
pub struct SortJob {
    /// 64-byte-aligned input base.
    pub col_addr: PhysAddr,
    /// Elements to sort.
    pub rows: u64,
    /// 64-byte-aligned output base (also used, with the input region, as
    /// the ping-pong buffer for merge passes; must hold `rows` values).
    pub out_addr: PhysAddr,
}

/// Result of a sort.
#[derive(Clone, Copy, Debug)]
pub struct SortRun {
    /// Completion tick.
    pub end: Tick,
    /// Where the sorted data ended up (ping-pong may land it in either
    /// region).
    pub result_addr: PhysAddr,
    /// Sorted-run generation + merge passes performed.
    pub passes: u32,
    /// Total bursts moved (read + written) on the DIMM.
    pub bursts_moved: u64,
}

/// The bitonic network's comparator count for `k` elements:
/// `k/2 · log k · (log k + 1) / 2` — the area cost that limits `k`.
pub fn bitonic_comparators(k: u64) -> u64 {
    debug_assert!(k.is_power_of_two());
    let log = k.trailing_zeros() as u64;
    k / 2 * log * (log + 1) / 2
}

impl JafarDevice {
    /// Sorts `job.rows` values ascending using the fixed-function network
    /// plus divide-and-conquer merge passes, entirely on the owned rank.
    ///
    /// # Errors
    /// Same validation as [`JafarDevice::run_select`].
    ///
    /// # Panics
    /// Panics if input and output regions overlap.
    pub fn run_sort(
        &mut self,
        module: &mut DramModule,
        job: SortJob,
        start: Tick,
    ) -> Result<SortRun, DeviceError> {
        let bytes = job.rows.saturating_mul(8);
        admit(
            module,
            &[(job.col_addr, bytes), (job.out_addr, bytes)],
            start,
        )?;
        assert!(
            job.col_addr.0 + bytes <= job.out_addr.0 || job.out_addr.0 + bytes <= job.col_addr.0,
            "sort regions must not overlap"
        );
        if job.rows == 0 {
            return Ok(SortRun {
                end: start,
                result_addr: job.out_addr,
                passes: 0,
                bursts_moved: 0,
            });
        }

        let k = 64u64; // network width: area-limited (§4)
        let ps_per_word = self.ps_per_word();
        let network_depth = {
            // log k · (log k + 1) / 2 pipeline stages.
            let log = k.trailing_zeros() as u64;
            log * (log + 1) / 2
        };

        // Pass 0: stream input through the network, emitting sorted runs
        // of k to the output region. Functionally we read/sort/write via
        // the module's backing store; timing is one element per cycle plus
        // the network fill.
        let mut values = vec![0i64; job.rows as usize];
        for (i, v) in values.iter_mut().enumerate() {
            *v = module
                .data()
                .read_i64(PhysAddr(job.col_addr.0 + i as u64 * 8));
        }
        let mut now = start;
        let mut bursts_moved = 0u64;
        let stream_pass =
            |module: &mut DramModule, from: PhysAddr, to: PhysAddr, now: Tick, bursts: &mut u64| {
                // Timing: read-stream + write-stream, overlapped; the pass
                // rate is one word per device cycle, bounded below by the
                // DRAM round trip for the first burst.
                let mut t = now;
                let total_bursts = job.rows.div_ceil(8);
                let timing = *module.timing();
                let cas_pipeline = timing.cl + timing.t_burst;
                let mut issue = now;
                for b in 0..total_bursts {
                    let access = module
                        .serve_addr(
                            PhysAddr(from.0 + b * 64),
                            false,
                            Requester::Ndp,
                            issue,
                            None,
                        )
                        .map_err(device_error)?;
                    let cas_at = access.data_ready.saturating_sub(cas_pipeline);
                    issue = cas_at.max(issue) + timing.bus_clock.period();
                    t = t.max(access.data_ready);
                    t += Tick::from_ps(8 * ps_per_word);
                    // Output burst follows one network-depth behind.
                    module
                        .serve_addr(PhysAddr(to.0 + b * 64), true, Requester::Ndp, t, None)
                        .map_err(device_error)?;
                    *bursts += 2;
                }
                Ok::<_, DeviceError>(t + Tick::from_ps(network_depth * ps_per_word))
            };

        // Functional run generation.
        for chunk in values.chunks_mut(k as usize) {
            chunk.sort_unstable(); // the network's effect on one run
        }
        now = stream_pass(module, job.col_addr, job.out_addr, now, &mut bursts_moved)?;
        let mut passes = 1u32;
        let mut run_len = k;
        // Ping-pong merge passes.
        let mut src_is_out = true;
        while run_len < job.rows {
            let mut merged = Vec::with_capacity(values.len());
            for pair in values.chunks(2 * run_len as usize) {
                let mid = (run_len as usize).min(pair.len());
                let (a, b) = pair.split_at(mid);
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    if a[i] <= b[j] {
                        merged.push(a[i]);
                        i += 1;
                    } else {
                        merged.push(b[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&b[j..]);
            }
            values = merged;
            let (from, to) = if src_is_out {
                (job.out_addr, job.col_addr)
            } else {
                (job.col_addr, job.out_addr)
            };
            now = stream_pass(module, from, to, now, &mut bursts_moved)?;
            src_is_out = !src_is_out;
            run_len *= 2;
            passes += 1;
        }

        // Write the functional result to wherever the last pass landed.
        let result_addr = if src_is_out {
            job.out_addr
        } else {
            job.col_addr
        };
        for (i, v) in values.iter().enumerate() {
            module
                .data_mut()
                .write_i64(PhysAddr(result_addr.0 + i as u64 * 8), *v);
        }

        Ok(SortRun {
            end: now,
            result_addr,
            passes,
            bursts_moved,
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
    fn sorts_random_data() {
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(9);
        let values: Vec<i64> = (0..3000)
            .map(|_| rng.next_range_inclusive(-500, 500))
            .collect();
        put(&mut m, 0, &values);
        let run = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 3000,
                    out_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        let mut expect = values.clone();
        expect.sort_unstable();
        for (i, want) in expect.iter().enumerate() {
            let got = m
                .data()
                .read_i64(PhysAddr(run.result_addr.0 + i as u64 * 8));
            assert_eq!(got, *want, "slot {i}");
        }
        // 3000 elements / 64-run network → runs, then ceil(log2(3000/64))
        // = 6 merge passes.
        assert_eq!(run.passes, 7);
    }

    #[test]
    fn already_sorted_and_tiny_inputs() {
        let (mut d, mut m, t0) = setup();
        put(&mut m, 0, &[1, 2, 3]);
        let run = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 3,
                    out_addr: PhysAddr(4096),
                },
                t0,
            )
            .unwrap();
        assert_eq!(run.passes, 1, "fits one network pass");
        for (i, want) in [1i64, 2, 3].iter().enumerate() {
            assert_eq!(
                m.data()
                    .read_i64(PhysAddr(run.result_addr.0 + i as u64 * 8)),
                *want
            );
        }
        // Empty input is a no-op.
        let empty = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 0,
                    out_addr: PhysAddr(4096),
                },
                run.end,
            )
            .unwrap();
        assert_eq!(empty.passes, 0);
        assert_eq!(empty.end, run.end);
    }

    #[test]
    fn time_scales_with_passes() {
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(2);
        let small: Vec<i64> = (0..512).map(|_| rng.next_range_inclusive(0, 999)).collect();
        let large: Vec<i64> = (0..2048)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        put(&mut m, 0, &small);
        let run_small = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 512,
                    out_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        put(&mut m, 0, &large);
        let run_large = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 2048,
                    out_addr: PhysAddr(64 * 1024),
                },
                run_small.end,
            )
            .unwrap();
        let t_small = run_small.end - t0;
        let t_large = run_large.end - run_small.end;
        // 4x the data and +2 passes: comfortably more than 4x the time.
        assert!(t_large > t_small * 4, "{t_small:?} vs {t_large:?}");
        assert_eq!(run_large.passes, run_small.passes + 2);
    }

    #[test]
    fn comparator_area_model() {
        // §4: ASIC sorters are area-costly — quadratic-in-log growth.
        assert_eq!(bitonic_comparators(2), 1);
        assert_eq!(bitonic_comparators(4), 6);
        assert_eq!(bitonic_comparators(64), 64 / 2 * 6 * 7 / 2);
        assert!(bitonic_comparators(1024) > 16 * bitonic_comparators(64) / 8);
    }

    #[test]
    fn unowned_rejected_and_overlap_panics() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut d = JafarDevice::paper_default();
        let err = d
            .run_sort(
                &mut m,
                SortJob {
                    col_addr: PhysAddr(0),
                    rows: 8,
                    out_addr: PhysAddr(4096),
                },
                Tick::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::NotOwned);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_regions_panic() {
        let (mut d, mut m, t0) = setup();
        let _ = d.run_sort(
            &mut m,
            SortJob {
                col_addr: PhysAddr(0),
                rows: 64,
                out_addr: PhysAddr(256), // overlaps 64*8 = 512 bytes
            },
            t0,
        );
    }
}
