//! Per-word rates of the device datapaths, derived once per process.
//!
//! Each datapath's rate comes from the Aladdin-style schedule of its
//! kernel (§2.2), and that schedule depends only on the kernel and on the
//! device's resources, unroll factor and clock period, never on a job.
//! One derivation list-schedules two expanded DDDGs (0.5–1.5 ms of host
//! time), so the table derives each (datapath, resources, unroll, clock
//! period) at most once per process; every later device and job with
//! that configuration reads the stored rate.

use crate::device::DeviceConfig;
use jafar_accel::ir::{jafar_filter_kernel, Kernel, KernelBuilder, OpKind};
use jafar_accel::schedule::{Resources, Schedule};
use jafar_common::time::Tick;
use jafar_dram::ReadRun;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

/// A device datapath with a kernel of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Datapath {
    /// The range filter behind every select.
    Filter,
    /// A scalar fold over every row.
    Aggregate,
    /// A range filter feeding a scalar fold in the same pass.
    FilteredAggregate,
    /// Hash + bucket update: two loads per row (key and value), a
    /// pipelined hash, a compare and an add.
    GroupBy,
}

/// Everything a derivation reads: the datapath and the parts of
/// [`DeviceConfig`] its schedule and rounding depend on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct RateKey {
    datapath: Datapath,
    resources: Resources,
    unroll: u64,
    period_ps: u64,
}

impl RateKey {
    fn new(datapath: Datapath, cfg: &DeviceConfig) -> Self {
        RateKey {
            datapath,
            resources: cfg.resources,
            unroll: cfg.unroll,
            period_ps: cfg.clock.period().as_ps(),
        }
    }
}

/// One key's entry: the rate, set by the key's first derivation.
#[derive(Default)]
struct Slot {
    ps_per_word: OnceLock<u64>,
    /// Completed schedules of this key's kernel: at most one.
    derivations: AtomicU32,
}

static RATES: LazyLock<Mutex<HashMap<RateKey, Arc<Slot>>>> = LazyLock::new(Default::default);

fn slot(key: RateKey) -> Arc<Slot> {
    let mut rates = RATES
        .lock()
        .expect("no code panics while holding the rate table lock");
    Arc::clone(rates.entry(key).or_default())
}

impl Datapath {
    fn kernel(self) -> Kernel {
        let mut b = KernelBuilder::new();
        match self {
            Datapath::Filter => return jafar_filter_kernel(),
            Datapath::Aggregate | Datapath::FilteredAggregate => {
                let inc = b.induction(OpKind::Add, &[]);
                let load = b.op(OpKind::Load, &[]);
                let acc = if self == Datapath::FilteredAggregate {
                    let c1 = b.op(OpKind::ICmp, &[load]);
                    let c2 = b.op(OpKind::ICmp, &[load]);
                    let and = b.op(OpKind::And, &[c1, c2]);
                    let sel = b.op(OpKind::Select, &[load, and]);
                    b.op(OpKind::Add, &[sel])
                } else {
                    b.op(OpKind::Add, &[load])
                };
                b.carry(acc, acc);
                b.carry(inc, inc);
            }
            Datapath::GroupBy => {
                let key = b.op(OpKind::Load, &[]);
                let val = b.op(OpKind::Load, &[]);
                let h = b.op(OpKind::Hash, &[key]);
                let cmp = b.op(OpKind::ICmp, &[h]);
                b.op(OpKind::Add, &[cmp, val]);
                let inc = b.induction(OpKind::Add, &[]);
                b.carry(inc, inc);
            }
        }
        b.build()
    }

    /// Picoseconds per 64-bit word on `cfg`'s resources, unroll and
    /// clock. The first call for a configuration schedules the kernel;
    /// the schedule runs outside the table lock, so a panic in it (zero
    /// resources) leaves the table usable and the key underived.
    pub(crate) fn ps_per_word(self, cfg: &DeviceConfig) -> u64 {
        let slot = slot(RateKey::new(self, cfg));
        *slot.ps_per_word.get_or_init(|| {
            let ii = Schedule::steady_state_ii(&self.kernel(), &cfg.resources, cfg.unroll);
            slot.derivations.fetch_add(1, Ordering::Relaxed);
            let ps = (ii * cfg.clock.period().as_ps() as f64).round();
            match self {
                // `JafarDevice::new` rejects a zero filter rate.
                Datapath::Filter => ps as u64,
                _ => ps.max(1.0) as u64,
            }
        })
    }

    /// How many times the table has scheduled this datapath's kernel for
    /// `cfg`: 0 before the first [`Datapath::ps_per_word`], 1 after.
    #[cfg(test)]
    pub(crate) fn derivations(self, cfg: &DeviceConfig) -> u32 {
        slot(RateKey::new(self, cfg))
            .derivations
            .load(Ordering::Relaxed)
    }
}

/// When a datapath that frees up at `free` and spends `burst` on each
/// full burst starts the last burst of `run`, in closed form.
///
/// Burst `i` of the run completes at R + i·S (`first_ready`, `step`),
/// and the datapath starts it at sᵢ = max(sᵢ₋₁ + W, R + i·S), with
/// s₀ = max(f, R). Unrolled, sₘ = max(f + m·W, maxⱼ R + j·S + (m−j)·W)
/// over j ≤ m; each term is linear in j, so the two ends bound it:
/// sₘ = max(f + m·W, R + m·W, R + m·S). Every burst before the last is
/// full (only a job's last burst may be short), so the caller adds the
/// last burst's own cost to free the datapath again (DESIGN §4).
#[inline]
pub(crate) fn last_burst_start(free: Tick, run: &ReadRun<'_>, burst: Tick) -> Tick {
    let m = run.lines.len() as u64 - 1;
    let r = run.first_ready;
    (free + burst * m).max(r + burst * m).max(r + run.step * m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggOp, AggregateJob};
    use crate::device::JafarDevice;
    use crate::ownership::grant_ownership;
    use crate::predicate::Predicate;
    use jafar_common::time::{ClockDomain, Tick};
    use jafar_dram::{AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr};

    const ALL: [Datapath; 4] = [
        Datapath::Filter,
        Datapath::Aggregate,
        Datapath::FilteredAggregate,
        Datapath::GroupBy,
    ];

    #[test]
    fn rates_are_pinned_per_datapath_and_config() {
        // ps/word for filter, aggregate, filtered aggregate and group-by.
        // Every simulated device latency scales with these, so a change
        // here moves every golden trace.
        let one_alu = Resources {
            alus: 1,
            ..Resources::jafar_default()
        };
        let configs = [
            (DeviceConfig::default(), [500, 500, 1000, 1000]),
            (
                DeviceConfig {
                    clock: ClockDomain::from_ghz(1),
                    ..DeviceConfig::default()
                },
                [1000, 1000, 2000, 2000],
            ),
            (
                DeviceConfig {
                    resources: one_alu,
                    ..DeviceConfig::default()
                },
                [1000, 500, 2000, 1500],
            ),
        ];
        // Interleave datapaths and configs, twice over, so a key that
        // dropped the datapath, the clock or the resources would hand one
        // of them another's rate.
        for _ in 0..2 {
            for (d, datapath) in ALL.into_iter().enumerate() {
                for (cfg, expect) in &configs {
                    assert_eq!(
                        datapath.ps_per_word(cfg),
                        expect[d],
                        "{datapath:?} on {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_rate_is_derived_once_however_many_devices_and_jobs_use_it() {
        // An unroll no other test uses, so this key's count is this
        // test's alone even with tests running on parallel threads.
        let cfg = DeviceConfig {
            unroll: 5,
            ..DeviceConfig::default()
        };
        for datapath in ALL {
            assert_eq!(datapath.derivations(&cfg), 0, "{datapath:?}");
        }
        let mut m = DramModule::new(
            DramGeometry::tiny(),
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        let mut t = grant_ownership(&mut m, 0, Tick::ZERO).unwrap().acquired_at;
        for i in 0..512 {
            m.data_mut().write_i64(PhysAddr(i * 8), i as i64);
        }
        let mut devices: Vec<JafarDevice> = (0..4).map(|_| JafarDevice::new(cfg)).collect();
        for job in 0..64 {
            let run = devices[job % 4]
                .run_aggregate(
                    &mut m,
                    AggregateJob {
                        col_addr: PhysAddr(0),
                        rows: 512,
                        op: AggOp::Sum,
                        filter: (job % 2 == 1).then_some(Predicate::Between(0, 99)),
                    },
                    t,
                )
                .unwrap();
            t = run.end;
        }
        assert_eq!(Datapath::Filter.derivations(&cfg), 1);
        assert_eq!(Datapath::Aggregate.derivations(&cfg), 1);
        assert_eq!(Datapath::FilteredAggregate.derivations(&cfg), 1);
        assert_eq!(Datapath::GroupBy.derivations(&cfg), 0, "never used");
    }

    #[test]
    fn a_panicking_derivation_leaves_the_table_usable() {
        let no_alu = DeviceConfig {
            resources: Resources {
                alus: 0,
                ..Resources::jafar_default()
            },
            ..DeviceConfig::default()
        };
        let derived = std::panic::catch_unwind(|| Datapath::Aggregate.ps_per_word(&no_alu));
        assert!(derived.is_err(), "zero ALUs cannot be scheduled");
        assert_eq!(Datapath::Aggregate.derivations(&no_alu), 0);
        assert_eq!(
            Datapath::Aggregate.ps_per_word(&DeviceConfig::default()),
            500
        );
    }
}
