//! Figure 3 — "Simulated selection speedup obtained by JAFAR for a dataset
//! of uniformly distributed random integers."
//!
//! §3.1's workload: 4 million rows of uniformly distributed random
//! integers in [0, 1 000 000), unsorted and unindexed, on the Table-1
//! gem5-like host; selectivity swept 0 % → 100 % by moving the range
//! predicate's upper bound; the CPU spin-waits while JAFAR runs (no
//! contention). Expected shape (paper): speedup rising from ≈5× at 0 % to
//! ≈9× at 100 %, with JAFAR's own runtime selectivity-independent.
//!
//! At the default 4 M rows on the paper's DRAM it asserts both endpoints:
//! the 0 % speedup in [4.5, 5.5]× and the 100 % speedup in [8.5, 9.5]×.
//!
//! Usage: `fig3_speedup [--rows N] [--points P] [--csv] [--dram ddr3_1600]`

use jafar_bench::{arg, f2, flag, print_table};
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_cpu::ScanVariant;
use jafar_dram::DramTiming;
use jafar_sim::{System, SystemConfig};

/// §3.1's column length, the one the paper's endpoints are stated for.
const PAPER_ROWS: u64 = 4_000_000;

fn ddr3_1600() -> bool {
    arg::<String>("--dram", "paper".into()) == "ddr3_1600"
}

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::gem5_like();
    // DRAM-timing sensitivity: `--dram ddr3_1600` swaps the paper's ~1 GHz
    // bus for the common DDR3-1600 bin (0.8 GHz, CL 13.75 ns).
    if ddr3_1600() {
        cfg.dram_timing = DramTiming::ddr3_1600();
    }
    cfg
}

fn main() {
    let rows: u64 = arg("--rows", PAPER_ROWS);
    let points: u64 = arg("--points", 10);
    let csv = flag("--csv");
    let value_range = 1_000_000i64;

    println!("# Figure 3: JAFAR select speedup vs selectivity");
    println!("# workload: {rows} rows, uniform integers in [0, {value_range})");
    let cfg = config();
    println!(
        "# platform: {} (DRAM bus {} MHz)",
        cfg.name,
        cfg.dram_timing.bus_clock.freq_mhz()
    );
    println!();

    let mut rng = SplitMix64::new(0xF163);
    let values: Vec<i64> = (0..rows)
        .map(|_| rng.next_range_inclusive(0, value_range - 1))
        .collect();

    let mut out_rows: Vec<Vec<String>> = Vec::new();
    let mut speedups = Vec::new();
    if csv {
        println!("selectivity,cpu_ms,jafar_ms,speedup,cpu_mispredicts,jafar_device_ms");
    }
    for p in 0..=points {
        // Predicate [0, hi] with hi chosen for the target selectivity.
        let target = p as f64 / points as f64;
        let hi = (target * value_range as f64) as i64 - 1;

        let mut sys_cpu = System::new(config());
        let col = sys_cpu.write_column(&values);
        let cpu = sys_cpu
            .run_select_cpu(col, rows, 0, hi, ScanVariant::Branching, Tick::ZERO)
            .expect("column placed in range");

        let mut sys_jf = System::new(config());
        let col = sys_jf.write_column(&values);
        let jf = sys_jf.run_select_jafar(col, rows, 0, hi, Tick::ZERO);

        assert_eq!(cpu.matches, jf.matched, "both paths must agree");
        let selectivity = cpu.matches as f64 / rows as f64;
        let cpu_ms = cpu.end.as_ms_f64();
        let jf_ms = jf.end.as_ms_f64();
        let speedup = cpu_ms / jf_ms;
        speedups.push(speedup);
        if csv {
            println!(
                "{:.3},{:.4},{:.4},{:.3},{},{:.4}",
                selectivity,
                cpu_ms,
                jf_ms,
                speedup,
                cpu.mispredicts,
                jf.device.as_ms_f64()
            );
        }
        out_rows.push(vec![
            format!("{:.0}%", selectivity * 100.0),
            f2(cpu_ms),
            f2(cpu.stall.as_ms_f64()),
            f2(jf_ms),
            f2(speedup),
            format!("{}", cpu.mispredicts),
            f2(jf.device.as_ms_f64()),
        ]);
    }

    // The paper's endpoints hold on its own workload; a shorter column
    // pays relatively more fixed cost, so its speedups are lower.
    if rows == PAPER_ROWS && points > 0 && !ddr3_1600() {
        let (none, all) = (speedups[0], speedups[points as usize]);
        assert!(
            (4.5..=5.5).contains(&none),
            "0 % speedup {none:.2}x is not the paper's ~5x"
        );
        assert!(
            (8.5..=9.5).contains(&all),
            "100 % speedup {all:.2}x is not the paper's ~9x"
        );
    }

    if !csv {
        print_table(
            &[
                "selectivity",
                "CPU (ms)",
                "stall (ms)",
                "JAFAR (ms)",
                "speedup",
                "mispredicts",
                "device (ms)",
            ],
            &out_rows,
        );
        println!();
        println!("# paper: speedup increases gradually from ~5x (0%) to ~9x (100%);");
        println!("# JAFAR execution time is selectivity-independent.");
    }
}
