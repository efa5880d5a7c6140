//! Micro-benchmarks of the DDR3 model's hot paths: address decoding, the
//! bank state machine, and transaction-level streaming — the inner loops
//! every Figure-3/Figure-4 simulation spends its time in.

use jafar_bench::micro;
use jafar_common::time::Tick;
use jafar_core::grant_ownership;
use jafar_dram::{
    AddressDecoder, AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr, Requester,
};
use std::hint::black_box;

fn module() -> DramModule {
    DramModule::new(
        DramGeometry::gem5_2gb(),
        DramTiming::ddr3_paper().without_refresh(),
        AddressMapping::RankRowBankBlock,
    )
}

/// perfbench's gem5-like DIMM (4 ranks × 8 banks × 1024 rows × 8 KiB =
/// 256 MiB) with refresh on, as the serving benchmarks build it.
fn gem5_like_module() -> DramModule {
    DramModule::new(
        DramGeometry {
            ranks: 4,
            banks_per_rank: 8,
            rows_per_bank: 1024,
            row_bytes: 8 * 1024,
        },
        DramTiming::ddr3_paper(),
        AddressMapping::RankRowBankBlock,
    )
}

/// Streams 1k sequential bursts from an owned rank, each read issued one
/// bus cycle after the previous one's CAS: the NDP device's pattern.
fn stream_ndp(module: &mut DramModule, now: &mut Tick) -> Tick {
    let t = *module.timing();
    let cas_pipeline = t.cl + t.t_burst;
    for i in 0..1024u64 {
        let access = module
            .serve_addr(PhysAddr(i * 64), false, Requester::Ndp, *now, None)
            .expect("owned rank, in range");
        *now = access.data_ready.saturating_sub(cas_pipeline).max(*now) + t.bus_clock.period();
    }
    *now
}

/// A module whose rank 0 holds 64 KiB of data and is owned by the NDP
/// device; returns it with the tick the grant took effect.
fn owned(mut module: DramModule) -> (DramModule, Tick) {
    for i in 0..8192u64 {
        module.data_mut().write_i64(PhysAddr(i * 8), i as i64);
    }
    let now = grant_ownership(&mut module, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    (module, now)
}

fn main() {
    let decoder = AddressDecoder::new(DramGeometry::gem5_2gb(), AddressMapping::RankRowBankBlock);
    micro::run("dram/decode_encode_round_trip", || {
        let mut acc = 0u64;
        for i in 0..1024u64 {
            let coord = decoder.decode(black_box(PhysAddr(i * 64)));
            acc += decoder.encode(coord).0;
        }
        acc
    });

    micro::run_batched(
        "dram/serve_block_streaming_1k_bursts",
        module,
        |mut module| {
            let mut now = Tick::ZERO;
            for i in 0..1024u64 {
                let access = module
                    .serve_addr(PhysAddr(i * 64), false, Requester::Host, now, None)
                    .expect("in range");
                now = access.data_ready;
            }
            now
        },
    );

    // The NDP device's access pattern on the 2 GiB module without
    // refresh, and on perfbench's DIMM with refresh. The modules and their
    // data stay warm across iterations.
    let (mut ndp, mut now) = owned(module());
    micro::run("dram/serve_addr_ndp_streaming", || {
        stream_ndp(&mut ndp, &mut now)
    });
    let (mut ndp, mut now) = owned(gem5_like_module());
    micro::run("dram/serve_addr_ndp_streaming_gem5", || {
        stream_ndp(&mut ndp, &mut now)
    });

    // Building a machine builds its modules: a page-table set-up cost
    // shows here before it shows in a serve's set-up time.
    micro::run("dram/module_new_drop", gem5_like_module);

    micro::run_batched("dram/serve_block_random_1k_bursts", module, |mut module| {
        let mut now = Tick::ZERO;
        let mut addr = 0x9E3779B97F4A7C15u64;
        for _ in 0..1024 {
            addr = addr.wrapping_mul(0xD1342543DE82EF95).wrapping_add(1);
            let a = PhysAddr((addr % (1 << 30)) & !63);
            let access = module
                .serve_addr(a, false, Requester::Host, now, None)
                .expect("in range");
            now = access.data_ready;
        }
        now
    });
}
