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

    // The NDP device's access pattern: 1k sequential bursts from a rank
    // it owns, each read issued one bus cycle after the previous one's
    // CAS. The module and its data stay warm across iterations.
    let mut ndp = module();
    for i in 0..8192u64 {
        ndp.data_mut().write_i64(PhysAddr(i * 8), i as i64);
    }
    let mut now = grant_ownership(&mut ndp, 0, Tick::ZERO)
        .expect("fresh module")
        .acquired_at;
    let t = *ndp.timing();
    let cas_pipeline = t.cl + t.t_burst;
    micro::run("dram/serve_addr_ndp_streaming", || {
        for i in 0..1024u64 {
            let access = ndp
                .serve_addr(PhysAddr(i * 64), false, Requester::Ndp, now, None)
                .expect("owned rank, in range");
            now = access.data_ready.saturating_sub(cas_pipeline).max(now) + t.bus_clock.period();
        }
        now
    });

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
