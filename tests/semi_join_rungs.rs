//! A semi-join's answer does not depend on the rung that serves it.
//!
//! A semi-join's predicate is its build-side key ranges. A spec built
//! through `Workload::with_op_mix` over a range mix used to keep the mix's
//! random `[lo, hi]`, and the device lanes of a one-range semi-join scanned
//! that `[lo, hi]` while the host rung evaluated the ranges, so the device
//! and the host answered the same query differently. This file serves the
//! same one-range semi-joins on the device and, with every unit busy and a
//! hopeless SLO, on the host rung, and checks both against the ranges.

use jafar::common::time::Tick;
use jafar::serve::engine::ServeConfig;
use jafar::serve::{
    Arrivals, ExecMode, KeyRanges, PredicateMix, QueryOp, QueryRecord, QuerySpec, SchedPolicy,
    Workload,
};
use jafar::sim::{System, SystemConfig};

const LO: i64 = 250;
const HI: i64 = 449;

fn column() -> Vec<i64> {
    (0..4096).map(|i| (i * 37 + 11) % 1000).collect()
}

/// The selection bitset (LSB-first within each byte) and match count of
/// `[LO, HI]` over `values`.
fn reference(values: &[i64]) -> (Vec<u8>, u64) {
    let mut bytes = vec![0u8; values.len().div_ceil(8)];
    let mut matched = 0;
    for (i, &v) in values.iter().enumerate() {
        if (LO..=HI).contains(&v) {
            bytes[i / 8] |= 1 << (i % 8);
            matched += 1;
        }
    }
    (bytes, matched)
}

/// Four one-range semi-joins on `[LO, HI]`, built through `with_op_mix`
/// over a width-200 uniform range mix: every spec starts from a random
/// `[lo, hi]` of its own.
fn semi_joins() -> Workload {
    let one = KeyRanges::from_keys(&(LO..=HI).collect::<Vec<i64>>()).expect("one range");
    assert_eq!(one.len(), 1);
    let mix = PredicateMix::UniformRange {
        min: 0,
        max: 999,
        width: 200,
    };
    Workload::poisson(mix, 4, Tick::from_us(40), 23)
        .with_op_mix(&[QueryOp::SemiJoin { ranges: one }])
}

fn serve(workload: &Workload, cfg: &ServeConfig) -> Vec<QueryRecord> {
    let mut sys = System::new(SystemConfig::test_small());
    let run = sys.serve(&column(), workload, SchedPolicy::Fifo, cfg);
    assert_eq!(run.report.completed(), workload.len(), "nothing is shed");
    run.report.records
}

#[test]
fn a_semi_join_answers_alike_on_the_device_and_the_host_rung() {
    let values = column();
    let (want_bits, want_matched) = reference(&values);
    assert_eq!(want_matched, 820);
    let workload = semi_joins();
    for spec in &workload.specs {
        assert_eq!((spec.lo, spec.hi), (LO, HI), "the spec holds the envelope");
    }

    let device = serve(&workload, &ServeConfig::default());
    for rec in &device {
        assert!(
            matches!(rec.mode, ExecMode::Device { .. }),
            "{:?}",
            rec.mode
        );
        assert_eq!((rec.lo, rec.hi), (LO, HI), "query {}: the envelope", rec.id);
        assert_eq!(rec.matched, want_matched, "query {}: device count", rec.id);
        assert_eq!(rec.bitset, want_bits, "query {}: device bitset", rec.id);
    }

    // The same queries behind a select that holds every unit, each with
    // an SLO no device run can meet and a free host scan: the engine
    // degrades all four to the host rung before a unit frees up.
    let blocker = QuerySpec {
        lo: 0,
        hi: 999,
        op: QueryOp::Select,
        slo: None,
    };
    let specs: Vec<QuerySpec> = std::iter::once(blocker)
        .chain(workload.specs.iter().map(|s| QuerySpec {
            slo: Some(Tick::from_ps(1)),
            ..*s
        }))
        .collect();
    let forced = Workload {
        arrivals: Arrivals::Open(vec![Tick::ZERO; specs.len()]),
        specs,
        slo: None,
    };
    let cfg = ServeConfig {
        cpu_fixed: Tick::ZERO,
        cpu_per_row: Tick::ZERO,
        cpu_per_out_byte: Tick::ZERO,
        ..ServeConfig::default()
    };
    let host = serve(&forced, &cfg);
    assert!(matches!(host[0].mode, ExecMode::Device { .. }));
    for (rec, dev) in host[1..].iter().zip(&device) {
        assert_eq!(
            rec.mode,
            ExecMode::Cpu,
            "query {} took the host rung",
            rec.id
        );
        assert_eq!((rec.lo, rec.hi), (LO, HI), "query {}: the envelope", rec.id);
        assert_eq!(rec.matched, dev.matched, "query {}: host count", rec.id);
        assert_eq!(rec.bitset, dev.bitset, "query {}: host bitset", rec.id);
    }
}
