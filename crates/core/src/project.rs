//! NDP projection (§4, "Projections").
//!
//! In a late-materialization column-store, a project (tuple reconstruction)
//! fetches qualifying values of one column given the position list / bitset
//! produced by a select on another column — "every query plan has at least
//! N − 1 project operators where N is the number of columns referenced".
//! The in-memory version here streams the selection bitset and the value
//! column from the owned rank and writes the qualifying values, densely
//! packed, to a pre-allocated output region — none of it crossing the
//! memory bus.

use crate::datapath::last_burst_start;
use crate::device::{admit, device_error, DeviceError, JafarDevice};
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr, Requester};

/// A projection job.
#[derive(Clone, Copy, Debug)]
pub struct ProjectJob {
    /// 64-byte-aligned base of the packed `i64` value column.
    pub col_addr: PhysAddr,
    /// Rows in the column.
    pub rows: u64,
    /// 64-byte-aligned base of the selection bitset (as produced by a
    /// JAFAR select over another column).
    pub bitset_addr: PhysAddr,
    /// 64-byte-aligned base of the packed output region.
    pub out_addr: PhysAddr,
}

/// Result of a projection.
#[derive(Clone, Copy, Debug)]
pub struct ProjectRun {
    /// Completion tick.
    pub end: Tick,
    /// Values emitted.
    pub emitted: u64,
    /// Bursts read (bitset + column).
    pub bursts_read: u64,
    /// Bursts written (packed output).
    pub bursts_written: u64,
}

impl JafarDevice {
    /// Executes an in-memory projection over an owned rank.
    ///
    /// # Errors
    /// Same validation rules as [`JafarDevice::run_select`].
    pub fn run_project(
        &mut self,
        module: &mut DramModule,
        job: ProjectJob,
        start: Tick,
    ) -> Result<ProjectRun, DeviceError> {
        let col_bytes = job.rows.saturating_mul(8);
        // The bitset is read a whole burst (512 rows) at a time, and the
        // packed output may hold every row.
        admit(
            module,
            &[
                (job.col_addr, col_bytes),
                (job.bitset_addr, job.rows.div_ceil(512) * 64),
                (job.out_addr, col_bytes),
            ],
            start,
        )?;
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;
        let ps_per_word = self.ps_per_word();
        let full_burst = Tick::from_ps(8 * ps_per_word);

        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;
        // Selected words wait here until eight make a line. Every word of
        // a burst is stored at the fill point and the fill advances only
        // past selected ones, so packing takes no branch. A run ends at
        // the burst that fills the line, so fewer than eight words wait
        // when a burst begins and the fill stays below sixteen.
        let mut pending = [[0u8; 8]; 16];
        let mut fill = 0usize;
        let mut out_cursor = job.out_addr.0;
        let mut emitted = 0u64;
        // The bitset burst of the current 512 rows: byte `b % 64` selects
        // the rows of column burst `b`.
        let mut bits = [0u8; 64];

        let total_bursts = job.rows.div_ceil(8);
        let mut burst = 0;
        while burst < total_bursts {
            if burst % 64 == 0 {
                let access = module
                    .serve_addr(
                        PhysAddr(job.bitset_addr.0 + burst / 64 * 64),
                        false,
                        Requester::Ndp,
                        issue_cursor,
                        None,
                    )
                    .map_err(device_error)?;
                bursts_read += 1;
                let cas_at = access.data_ready.saturating_sub(cas_pipeline);
                issue_cursor = cas_at.max(issue_cursor) + t.bus_clock.period();
                proc_free = proc_free.max(access.data_ready);
                // Cached across the column runs below, so copied out.
                bits = *access.data.expect("read");
                if total_bursts - burst <= 64 {
                    // The job's last burst may hold fewer than eight rows;
                    // its bits past them select nothing.
                    let tail = job.rows - (total_bursts - 1) * 8;
                    bits[((total_bursts - 1) % 64) as usize] &= u8::MAX >> (8 - tail);
                }
            }
            // A line write goes out between two reads, so the run ends at
            // the burst that fills the pending line, or with this bitset
            // burst's rows.
            let first = (burst % 64) as usize;
            let stop = (64 - first).min((total_bursts - burst) as usize);
            let mut want = 1;
            let mut due = fill + bits[first].count_ones() as usize;
            while due < 8 && want < stop {
                due += bits[first + want].count_ones() as usize;
                want += 1;
            }
            let run = module
                .serve_run(
                    PhysAddr(job.col_addr.0 + burst * 64),
                    want,
                    Requester::Ndp,
                    issue_cursor,
                )
                .map_err(device_error)?;
            issue_cursor = run.next_request;
            let n = run.lines.len() as u64;
            let last_start = last_burst_start(proc_free, &run, full_burst);
            let before = fill;
            for (line, mask) in run.lines.iter().zip(&bits[first..]) {
                for (w, word) in line.as_chunks::<8>().0.iter().enumerate() {
                    pending[fill & 15] = *word;
                    fill += usize::from(mask >> w & 1);
                }
            }
            emitted += (fill - before) as u64;
            // A run served short of the filling burst leaves no line due.
            if fill >= 8 {
                // The line fills in the run's last burst: it goes out at
                // the tick the datapath starts that burst, as a
                // word-by-word packer would send it.
                module
                    .serve_addr(
                        PhysAddr(out_cursor),
                        true,
                        Requester::Ndp,
                        last_start,
                        Some(pending[..8].as_flattened().try_into().expect("one line")),
                    )
                    .map_err(device_error)?;
                bursts_written += 1;
                out_cursor += 64;
                pending.copy_within(8.., 0);
                fill -= 8;
            }
            let last_words = (job.rows - (burst + n - 1) * 8).min(8);
            proc_free = last_start + Tick::from_ps(last_words * ps_per_word);
            burst += n;
            bursts_read += n;
        }
        if fill > 0 {
            // The last, partial line carries zeros past its values.
            pending[fill..8].fill([0; 8]);
            module
                .serve_addr(
                    PhysAddr(out_cursor),
                    true,
                    Requester::Ndp,
                    proc_free,
                    Some(pending[..8].as_flattened().try_into().expect("one line")),
                )
                .map_err(device_error)?;
            bursts_written += 1;
        }

        Ok(ProjectRun {
            end: proc_free,
            emitted,
            bursts_read,
            bursts_written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SelectJob;
    use crate::ownership::grant_ownership;
    use crate::predicate::Predicate;
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
    fn select_then_project_reconstructs_tuples() {
        // The canonical late-materialization plan: select on column A,
        // project column B at the qualifying positions — entirely in
        // memory.
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(31);
        let rows = 1500u64;
        let a: Vec<i64> = (0..rows).map(|_| rng.next_range_inclusive(0, 99)).collect();
        let b: Vec<i64> = (0..rows).map(|i| i as i64 * 1000).collect();
        let a_addr = 0u64;
        let b_addr = 32 * 1024u64;
        let bitset_addr = 64 * 1024u64;
        let out_addr = 96 * 1024u64;
        put(&mut m, a_addr, &a);
        put(&mut m, b_addr, &b);

        let sel = d
            .run_select(
                &mut m,
                SelectJob {
                    col_addr: PhysAddr(a_addr),
                    rows,
                    predicate: Predicate::Lt(30),
                    out_addr: PhysAddr(bitset_addr),
                },
                t0,
            )
            .unwrap();
        let proj = d
            .run_project(
                &mut m,
                ProjectJob {
                    col_addr: PhysAddr(b_addr),
                    rows,
                    bitset_addr: PhysAddr(bitset_addr),
                    out_addr: PhysAddr(out_addr),
                },
                sel.end,
            )
            .unwrap();
        assert_eq!(proj.emitted, sel.matched);
        // The packed output equals the reference projection.
        let expect: Vec<i64> = a
            .iter()
            .zip(&b)
            .filter(|(&av, _)| av < 30)
            .map(|(_, &bv)| bv)
            .collect();
        for (i, want) in expect.iter().enumerate() {
            let got = m.data().read_i64(PhysAddr(out_addr + i as u64 * 8));
            assert_eq!(got, *want, "slot {i}");
        }
        assert!(proj.end > sel.end);
    }

    #[test]
    fn empty_selection_projects_nothing() {
        let (mut d, mut m, t0) = setup();
        let rows = 128u64;
        put(&mut m, 0, &vec![5i64; rows as usize]);
        // Bitset region left zeroed → nothing selected.
        let proj = d
            .run_project(
                &mut m,
                ProjectJob {
                    col_addr: PhysAddr(0),
                    rows,
                    bitset_addr: PhysAddr(16 * 1024),
                    out_addr: PhysAddr(32 * 1024),
                },
                t0,
            )
            .unwrap();
        assert_eq!(proj.emitted, 0);
        assert_eq!(proj.bursts_written, 0);
    }

    #[test]
    fn output_traffic_proportional_to_selectivity() {
        let (mut d, mut m, t0) = setup();
        let rows = 4096u64;
        let values: Vec<i64> = (0..rows as i64).collect();
        put(&mut m, 0, &values);
        // Select all.
        let sel = d
            .run_select(
                &mut m,
                SelectJob {
                    col_addr: PhysAddr(0),
                    rows,
                    predicate: Predicate::Ge(i64::MIN),
                    out_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        let proj = d
            .run_project(
                &mut m,
                ProjectJob {
                    col_addr: PhysAddr(0),
                    rows,
                    bitset_addr: PhysAddr(64 * 1024),
                    out_addr: PhysAddr(96 * 1024),
                },
                sel.end,
            )
            .unwrap();
        // All rows selected → output bursts = input column bursts.
        assert_eq!(proj.bursts_written, rows / 8);
        assert_eq!(proj.emitted, rows);
    }

    /// The word-by-word packer, with a branch per selected bit and the
    /// flush in the middle of the burst: the oracle a burst-at-a-time
    /// packer must equal in ticks, counters and bytes.
    fn reference_project(
        d: &JafarDevice,
        module: &mut DramModule,
        job: ProjectJob,
        start: Tick,
    ) -> ProjectRun {
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;
        let ps_per_word = d.ps_per_word();
        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;
        let mut out_buf = [0u8; 64];
        let mut out_fill = 0usize;
        let mut out_cursor = job.out_addr.0;
        let mut emitted = 0u64;
        let mut bitset_cache: Option<(u64, [u8; 64])> = None;
        let read = |module: &mut DramModule, addr: u64, cursor: &mut Tick, free: &mut Tick| {
            let access = module
                .serve_addr(PhysAddr(addr), false, Requester::Ndp, *cursor, None)
                .unwrap();
            let cas_at = access.data_ready.saturating_sub(cas_pipeline);
            *cursor = cas_at.max(*cursor) + t.bus_clock.period();
            *free = (*free).max(access.data_ready);
            *access.data.unwrap()
        };
        for burst in 0..job.rows.div_ceil(8) {
            let bitset_burst = burst * 8 / 512;
            if bitset_cache.map(|(b, _)| b) != Some(bitset_burst) {
                let addr = job.bitset_addr.0 + bitset_burst * 64;
                let bits = read(module, addr, &mut issue_cursor, &mut proc_free);
                bursts_read += 1;
                bitset_cache = Some((bitset_burst, bits));
            }
            let data = read(
                module,
                job.col_addr.0 + burst * 64,
                &mut issue_cursor,
                &mut proc_free,
            );
            bursts_read += 1;
            let (_, bits) = bitset_cache.unwrap();
            let words = (job.rows - burst * 8).min(8);
            for w in 0..words {
                let bit_in_cache = (burst * 8 + w - bitset_burst * 512) as usize;
                if bits[bit_in_cache / 8] >> (bit_in_cache % 8) & 1 == 1 {
                    let off = (w * 8) as usize;
                    out_buf[out_fill..out_fill + 8].copy_from_slice(&data[off..off + 8]);
                    out_fill += 8;
                    emitted += 1;
                    if out_fill == 64 {
                        module
                            .serve_addr(
                                PhysAddr(out_cursor),
                                true,
                                Requester::Ndp,
                                proc_free,
                                Some(&out_buf),
                            )
                            .unwrap();
                        bursts_written += 1;
                        out_cursor += 64;
                        out_fill = 0;
                        out_buf = [0u8; 64];
                    }
                }
            }
            proc_free += Tick::from_ps(words * ps_per_word);
        }
        if out_fill > 0 {
            module
                .serve_addr(
                    PhysAddr(out_cursor),
                    true,
                    Requester::Ndp,
                    proc_free,
                    Some(&out_buf),
                )
                .unwrap();
            bursts_written += 1;
        }
        ProjectRun {
            end: proc_free,
            emitted,
            bursts_read,
            bursts_written,
        }
    }

    #[test]
    fn burst_packing_matches_the_word_by_word_packer() {
        use jafar_common::check::forall;
        const COL: u64 = 0;
        const BITS: u64 = 32 * 1024;
        const OUT: u64 = 64 * 1024;
        forall("project burst packing", 64, |rng| {
            let rows = match rng.next_below(4) {
                0 => rng.next_range_inclusive(1, 7) as u64,
                1 => rng.next_range_inclusive(1, 300) as u64 * 8,
                _ => rng.next_range_inclusive(1, 2999) as u64,
            };
            // Selectivity 0, 100 % or random; the bitset's bits past the
            // last row are random too, and must be ignored.
            let keep = match rng.next_below(3) {
                0 => 0,
                1 => 100,
                _ => rng.next_below(101),
            };
            let values: Vec<i64> = (0..rows).map(|_| rng.next_u64() as i64).collect();
            let mut bits = vec![0u8; rows.div_ceil(512) as usize * 64];
            for row in 0..bits.len() * 8 {
                let on = if (row as u64) < rows {
                    rng.next_below(100) < keep
                } else {
                    rng.next_below(2) == 1
                };
                bits[row / 8] |= u8::from(on) << (row % 8);
            }
            let garbage: Vec<u8> = (0..rows * 8 + 64).map(|_| rng.next_u64() as u8).collect();
            let job = ProjectJob {
                col_addr: PhysAddr(COL),
                rows,
                bitset_addr: PhysAddr(BITS),
                out_addr: PhysAddr(OUT),
            };
            let start = Tick::from_ns(rng.next_below(5000));
            let mut runs = Vec::new();
            for packer in 0..2 {
                let (mut d, mut m, t0) = setup();
                put(&mut m, COL, &values);
                m.data_mut().write(PhysAddr(BITS), &bits);
                m.data_mut().write(PhysAddr(OUT), &garbage);
                let run = if packer == 0 {
                    d.run_project(&mut m, job, t0 + start).unwrap()
                } else {
                    reference_project(&d, &mut m, job, t0 + start)
                };
                let mut out = vec![0u8; garbage.len()];
                m.data().read(PhysAddr(OUT), &mut out);
                runs.push((
                    run.end,
                    run.emitted,
                    run.bursts_read,
                    run.bursts_written,
                    out,
                ));
            }
            assert_eq!(runs[0], runs[1], "rows {rows}, selectivity {keep} %");
        });
    }

    #[test]
    fn unowned_rejected() {
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut d = JafarDevice::paper_default();
        let err = d
            .run_project(
                &mut m,
                ProjectJob {
                    col_addr: PhysAddr(0),
                    rows: 8,
                    bitset_addr: PhysAddr(1024),
                    out_addr: PhysAddr(2048),
                },
                Tick::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::NotOwned);
    }
}
