//! NDP filters for row-stores and column-group hybrids (§4).
//!
//! "Near-data processing for row-stores or hybrids that store data as
//! column-groups can be achieved by slightly altering the design of JAFAR
//! to be able to apply in parallel different filtering operations to
//! different attributes and record the result of the collective filter
//! accordingly." The device streams whole fixed-width rows (so it moves
//! `row_bytes` per tuple instead of 8), applies every column predicate in
//! parallel ALU pairs, ANDs the outcomes, and emits the same bitset a
//! columnar select would.

use crate::device::{admit, device_error, DeviceError, JafarDevice};
use crate::predicate::Predicate;
use jafar_common::bitset::FixedBitBuf;
use jafar_common::time::Tick;
use jafar_dram::{DramModule, PhysAddr, Requester};

/// One attribute predicate within a row filter.
#[derive(Clone, Copy, Debug)]
pub struct ColPredicate {
    /// Byte offset of the 8-byte attribute within the row.
    pub offset: u32,
    /// The predicate.
    pub predicate: Predicate,
}

/// A conjunctive multi-attribute filter over a row-major table.
#[derive(Clone, Debug)]
pub struct RowFilterJob {
    /// 64-byte-aligned base of the row-major data.
    pub base: PhysAddr,
    /// Row stride in bytes (multiple of 8; rows must not straddle bursts,
    /// so 64 must be a multiple of the stride or vice versa).
    pub row_bytes: u32,
    /// Number of rows.
    pub rows: u64,
    /// The attribute predicates (ANDed).
    pub predicates: Vec<ColPredicate>,
    /// 64-byte-aligned output bitset base.
    pub out_addr: PhysAddr,
}

/// Result of a row filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowFilterRun {
    /// Completion tick.
    pub end: Tick,
    /// Rows passing the conjunction.
    pub matched: u64,
    /// Bursts read — `row_bytes/8 ×` more than a columnar select would
    /// move for the same predicate set applied to one column.
    pub bursts_read: u64,
    /// Output bursts written.
    pub bursts_written: u64,
}

impl JafarDevice {
    /// Executes a conjunctive row filter over an owned rank.
    ///
    /// # Errors
    /// Same validation rules as [`JafarDevice::run_select`], plus stride
    /// checks.
    pub fn run_row_filter(
        &mut self,
        module: &mut DramModule,
        job: &RowFilterJob,
        start: Tick,
    ) -> Result<RowFilterRun, DeviceError> {
        if job.row_bytes == 0
            || !job.row_bytes.is_multiple_of(8)
            || (job.row_bytes < 64 && 64 % job.row_bytes != 0)
            || (job.row_bytes > 64 && !job.row_bytes.is_multiple_of(64))
        {
            return Err(DeviceError::Misaligned);
        }
        for p in &job.predicates {
            if p.offset % 8 != 0 || p.offset + 8 > job.row_bytes.max(8) {
                return Err(DeviceError::Misaligned);
            }
        }
        admit(
            module,
            &[
                (job.base, job.rows.saturating_mul(u64::from(job.row_bytes))),
                (job.out_addr, job.rows.div_ceil(8)),
            ],
            start,
        )?;
        let t = *module.timing();
        let cas_pipeline = t.cl + t.t_burst;
        // Parallel predicate pairs: each predicate costs one ALU pair per
        // word-time; with `alus/2` pairs available, rows with more
        // predicates than pairs serialise.
        let pairs = (self.config().resources.alus / 2).max(1) as u64;
        let waves = (job.predicates.len() as u64).div_ceil(pairs).max(1);
        let ps_per_row = self.ps_per_word() * waves;

        let total_bytes = job.rows * job.row_bytes as u64;
        let total_bursts = total_bytes.div_ceil(64);
        let mut out_buf = FixedBitBuf::new(self.config().out_buf_bits);
        let mut issue_cursor = start;
        let mut proc_free = start;
        let mut bursts_read = 0u64;
        let mut bursts_written = 0u64;
        let mut out_cursor = job.out_addr.0;
        let mut matched = 0u64;
        let mut row = 0u64;

        // Stream burst by burst; evaluate any rows fully contained in the
        // data streamed so far. Rows never straddle bursts by the stride
        // precondition (row_bytes divides 64 or is a multiple of it).
        let mut pending: Vec<u8> = Vec::with_capacity(job.row_bytes as usize);
        for burst in 0..total_bursts {
            let access = module
                .serve_addr(
                    PhysAddr(job.base.0 + burst * 64),
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
            pending.extend_from_slice(access.data.expect("read"));

            let stride = job.row_bytes as usize;
            let mut consumed = 0usize;
            while row < job.rows && pending.len() - consumed >= stride {
                let row_bytes = &pending[consumed..consumed + stride];
                let hit = job.predicates.iter().all(|p| {
                    let off = p.offset as usize;
                    let v =
                        i64::from_le_bytes(row_bytes[off..off + 8].try_into().expect("8 bytes"));
                    p.predicate.eval(v)
                });
                matched += u64::from(hit);
                out_buf.push(hit);
                if out_buf.is_full() {
                    let bytes = out_buf.drain_bytes();
                    out_cursor = self.write_bitset_chunk(
                        module,
                        out_cursor,
                        &bytes,
                        proc_free,
                        &mut bursts_written,
                    )?;
                }
                proc_free += Tick::from_ps(ps_per_row);
                consumed += stride;
                row += 1;
            }
            pending.drain(..consumed);
        }
        if !out_buf.is_empty() {
            let bytes = out_buf.drain_bytes();
            self.write_bitset_chunk(module, out_cursor, &bytes, proc_free, &mut bursts_written)?;
        }

        Ok(RowFilterRun {
            end: proc_free,
            matched,
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
    use jafar_common::bitset::BitSet;
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

    /// Writes a row-major table with `width` i64 attributes per row.
    fn put_rows(m: &mut DramModule, base: u64, rows: &[Vec<i64>]) {
        let width = rows[0].len();
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                m.data_mut()
                    .write_i64(PhysAddr(base + (r * width + c) as u64 * 8), *v);
            }
        }
    }

    #[test]
    fn conjunctive_filter_matches_reference() {
        let (mut d, mut m, t0) = setup();
        let mut rng = SplitMix64::new(8);
        let rows: Vec<Vec<i64>> = (0..600)
            .map(|_| {
                (0..4)
                    .map(|_| rng.next_range_inclusive(0, 9))
                    .collect::<Vec<i64>>()
            })
            .collect();
        put_rows(&mut m, 0, &rows);
        let job = RowFilterJob {
            base: PhysAddr(0),
            row_bytes: 32,
            rows: 600,
            predicates: vec![
                ColPredicate {
                    offset: 0,
                    predicate: Predicate::Le(4),
                },
                ColPredicate {
                    offset: 16,
                    predicate: Predicate::Ge(5),
                },
            ],
            out_addr: PhysAddr(64 * 1024),
        };
        let run = d.run_row_filter(&mut m, &job, t0).unwrap();
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r[0] <= 4 && r[2] >= 5)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(run.matched as usize, expect.len());
        let mut bytes = vec![0u8; 600usize.div_ceil(8)];
        m.data().read(job.out_addr, &mut bytes);
        assert_eq!(BitSet::from_bytes(&bytes, 600).to_positions(), expect);
    }

    #[test]
    fn rowstore_moves_more_data_than_columnar() {
        // The §4 trade-off: filtering one attribute of a 32-byte row moves
        // 4× the data of a columnar select over the same attribute.
        let (mut d, mut m, t0) = setup();
        let rows: Vec<Vec<i64>> = (0..512).map(|i| vec![i, 0, 0, 0]).collect();
        put_rows(&mut m, 0, &rows);
        let row_run = d
            .run_row_filter(
                &mut m,
                &RowFilterJob {
                    base: PhysAddr(0),
                    row_bytes: 32,
                    rows: 512,
                    predicates: vec![ColPredicate {
                        offset: 0,
                        predicate: Predicate::Lt(100),
                    }],
                    out_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        // Columnar layout of the same attribute.
        let col: Vec<i64> = (0..512).collect();
        for (i, v) in col.iter().enumerate() {
            m.data_mut()
                .write_i64(PhysAddr(96 * 1024 + i as u64 * 8), *v);
        }
        let col_run = d
            .run_select(
                &mut m,
                SelectJob {
                    col_addr: PhysAddr(96 * 1024),
                    rows: 512,
                    predicate: Predicate::Lt(100),
                    out_addr: PhysAddr(128 * 1024),
                },
                row_run.end,
            )
            .unwrap();
        assert_eq!(row_run.matched, col_run.matched);
        assert_eq!(row_run.bursts_read, col_run.bursts_read * 4);
    }

    #[test]
    fn narrow_rows_pack_into_bursts() {
        // 16-byte rows: 4 per burst.
        let (mut d, mut m, t0) = setup();
        let rows: Vec<Vec<i64>> = (0..256).map(|i| vec![i, i * 2]).collect();
        put_rows(&mut m, 0, &rows);
        let run = d
            .run_row_filter(
                &mut m,
                &RowFilterJob {
                    base: PhysAddr(0),
                    row_bytes: 16,
                    rows: 256,
                    predicates: vec![ColPredicate {
                        offset: 8,
                        predicate: Predicate::Lt(100),
                    }],
                    out_addr: PhysAddr(64 * 1024),
                },
                t0,
            )
            .unwrap();
        assert_eq!(run.bursts_read, 256 * 16 / 64);
        assert_eq!(run.matched, 50, "i*2 < 100 for i < 50");
    }

    #[test]
    fn bad_stride_rejected() {
        let (mut d, mut m, t0) = setup();
        let job = RowFilterJob {
            base: PhysAddr(0),
            row_bytes: 24, // 64 % 24 != 0 — rows would straddle bursts
            rows: 8,
            predicates: vec![],
            out_addr: PhysAddr(64 * 1024),
        };
        assert_eq!(
            d.run_row_filter(&mut m, &job, t0),
            Err(DeviceError::Misaligned)
        );
    }

    /// Any output buffer width, stride, predicate set and row count: the
    /// bitset equals a host reference, every garbage byte under it is
    /// overwritten, and `matched` counts its bits. A buffer narrower
    /// than a line drains several chunks into one line, each at its own
    /// offset.
    #[test]
    fn narrow_output_buffers_write_every_bit() {
        use crate::device::DeviceConfig;
        use jafar_common::check::forall;
        const OUT: u64 = 128 * 1024;
        forall("row-filter-out-buf", 96, |rng| {
            let bits = [8, 24, 64, 256, 512][rng.next_below(5) as usize];
            let row_bytes = [8u32, 16, 32, 64, 128][rng.next_below(5) as usize];
            let width = (row_bytes / 8) as usize;
            let mut rows = 1 + rng.next_below(400);
            if rows.is_multiple_of(8) {
                rows += 1 + rng.next_below(7);
            }
            let table: Vec<Vec<i64>> = (0..rows)
                .map(|_| {
                    (0..width)
                        .map(|_| rng.next_range_inclusive(0, 999))
                        .collect()
                })
                .collect();
            let predicates: Vec<ColPredicate> = (0..1 + rng.next_below(3))
                .map(|_| {
                    let lo = rng.next_range_inclusive(0, 999);
                    let hi = rng.next_range_inclusive(lo, 999);
                    ColPredicate {
                        offset: 8 * rng.next_below(width as u64) as u32,
                        predicate: Predicate::Between(lo, hi),
                    }
                })
                .collect();
            let (_, mut m, t0) = setup();
            let mut d = JafarDevice::new(DeviceConfig {
                out_buf_bits: bits,
                ..DeviceConfig::default()
            });
            put_rows(&mut m, 0, &table);
            let nbytes = rows.div_ceil(8) as usize;
            let garbage: Vec<u8> = (0..nbytes.next_multiple_of(64))
                .map(|_| rng.next_below(256) as u8)
                .collect();
            m.data_mut().write(PhysAddr(OUT), &garbage);
            let job = RowFilterJob {
                base: PhysAddr(0),
                row_bytes,
                rows,
                predicates,
                out_addr: PhysAddr(OUT),
            };
            let run = d.run_row_filter(&mut m, &job, t0).unwrap();
            let mut expect = vec![0u8; nbytes];
            for (i, row) in table.iter().enumerate() {
                let hit = job
                    .predicates
                    .iter()
                    .all(|p| p.predicate.eval(row[p.offset as usize / 8]));
                expect[i / 8] |= u8::from(hit) << (i % 8);
            }
            let mut got = vec![0u8; nbytes];
            m.data().read(PhysAddr(OUT), &mut got);
            assert_eq!(
                got, expect,
                "{bits}-bit buffer, {row_bytes}-byte rows, {rows} rows"
            );
            let ones: u64 = expect.iter().map(|b| u64::from(b.count_ones())).sum();
            assert_eq!(run.matched, ones);
        });
    }

    #[test]
    fn many_predicates_serialise_on_alu_pairs() {
        // 1 predicate vs 4 predicates on the default 2-ALU (1 pair) device:
        // 4 predicates need 4 waves → slower per row.
        let (mut d, mut m, t0) = setup();
        let rows: Vec<Vec<i64>> = (0..512).map(|i| vec![i, i, i, i, i, i, i, i]).collect();
        put_rows(&mut m, 0, &rows);
        let mk_job = |n_preds: usize| RowFilterJob {
            base: PhysAddr(0),
            row_bytes: 64,
            rows: 512,
            predicates: (0..n_preds)
                .map(|i| ColPredicate {
                    offset: (i * 8) as u32,
                    predicate: Predicate::Lt(1000),
                })
                .collect(),
            out_addr: PhysAddr(96 * 1024),
        };
        let one = d.run_row_filter(&mut m, &mk_job(1), t0).unwrap();
        let four = d.run_row_filter(&mut m, &mk_job(4), one.end).unwrap();
        assert!(four.end - one.end > one.end - t0, "4 waves must be slower");
        assert_eq!(one.matched, 512);
        assert_eq!(four.matched, 512);
    }
}
