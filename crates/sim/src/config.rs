//! Platform presets — Table 1 of the paper.
//!
//! | | gem5 simulator | Intel Xeon E7-4820 v2 |
//! |---|---|---|
//! | One out-of-order CPU | Eight 2-way SMT cores |
//! | 1 GHz CPU | 2 GHz CPU |
//! | 1 socket | 4-socket server (32 phys. cores) |
//! | 64 kB L1, 128 kB L2 | 256 kB L1, 2 MB L2, 16 MB L3 |
//! | 2 GB DRAM | 1 TB DDR3 SDRAM |
//!
//! The gem5 column is what Figure 3 runs on ("designed to be fairly simple
//! in order to isolate the raw performance improvement possible with
//! JAFAR"); the Xeon column hosts the Figure-4 profiling. We model one
//! core of each (the paper's workloads are single-threaded scans), with
//! capacities scaled to one core's effective share where Table 1 reports
//! per-socket aggregates.

use jafar_cache::HierarchyConfig;
use jafar_common::time::{ClockDomain, Tick};
use jafar_core::api::DriverCosts;
use jafar_core::device::DeviceConfig;
use jafar_cpu::KernelParams;
use jafar_dram::{AddressMapping, DramGeometry, DramTiming};
use jafar_memctl::controller::ControllerConfig;

/// Full configuration of one simulated platform.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Host core clock.
    pub cpu_clock: ClockDomain,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// DRAM geometry.
    pub dram_geometry: DramGeometry,
    /// DRAM timing.
    pub dram_timing: DramTiming,
    /// Physical address mapping.
    pub mapping: AddressMapping,
    /// Memory-controller queues/policy.
    pub controller: ControllerConfig,
    /// Scan kernel µop costs.
    pub kernel: KernelParams,
    /// The JAFAR device on the DIMM (None = host without NDP).
    pub device: Option<DeviceConfig>,
    /// Host driver costs for device invocation.
    pub driver: DriverCosts,
    /// Stream-prefetcher (streams, degree); None disables prefetch.
    pub prefetcher: Option<(usize, u64)>,
    /// Fixed per-query setup time outside the (accelerated) kernel:
    /// planning, allocation, result finalisation. Charged identically to
    /// both select paths; calibrated so the kernel is ≈93% of the
    /// CPU-only Figure-3 run (§3.1's in-text claim).
    pub query_overhead: Tick,
    /// Virtual-memory page size for the per-page `select_jafar` contract
    /// (2 MiB huge pages — the natural choice for a pinning storage
    /// engine). The driver pages in whole 64-byte bitset lines: a page
    /// holds `page_bytes / 8` rows rounded down to a multiple of 512, and
    /// at least 512 (see `ResilienceConfig::page_bytes`).
    pub page_bytes: u64,
}

impl SystemConfig {
    /// Table 1, left column: the gem5-simulated host Figure 3 uses.
    pub fn gem5_like() -> Self {
        SystemConfig {
            name: "gem5-like (Table 1, left)",
            cpu_clock: ClockDomain::from_ghz(1),
            hierarchy: HierarchyConfig::gem5_like(),
            dram_geometry: DramGeometry::gem5_2gb(),
            dram_timing: DramTiming::ddr3_paper(),
            mapping: AddressMapping::RankRowBankBlock,
            controller: ControllerConfig::default(),
            kernel: KernelParams::default(),
            device: Some(DeviceConfig::default()),
            driver: DriverCosts::default(),
            prefetcher: Some((8, 8)),
            query_overhead: Tick::from_us(1150),
            page_bytes: 2 * 1024 * 1024,
        }
    }

    /// Table 1, right column: the Xeon host used for the Figure-4
    /// profiling (one core modelled).
    pub fn xeon_like() -> Self {
        SystemConfig {
            name: "Xeon E7-4820 v2-like (Table 1, right)",
            cpu_clock: ClockDomain::from_ghz(2),
            hierarchy: HierarchyConfig::xeon_like(),
            dram_geometry: DramGeometry::gem5_2gb(),
            dram_timing: DramTiming::ddr3_paper(),
            mapping: AddressMapping::RankRowBankBlock,
            controller: ControllerConfig::default(),
            kernel: KernelParams::default(),
            device: None,
            driver: DriverCosts::default(),
            prefetcher: Some((16, 8)),
            query_overhead: Tick::from_us(50),
            page_bytes: 2 * 1024 * 1024,
        }
    }

    /// A small, fast configuration for unit tests: tiny DRAM, no refresh.
    pub fn test_small() -> Self {
        SystemConfig {
            name: "test-small",
            cpu_clock: ClockDomain::from_ghz(1),
            hierarchy: HierarchyConfig::gem5_like(),
            dram_geometry: DramGeometry::tiny(),
            dram_timing: DramTiming::ddr3_paper().without_refresh(),
            mapping: AddressMapping::RankRowBankBlock,
            controller: ControllerConfig::default(),
            kernel: KernelParams::default(),
            device: Some(DeviceConfig::default()),
            driver: DriverCosts::default(),
            prefetcher: Some((8, 8)),
            query_overhead: Tick::from_ns(500),
            page_bytes: 4096,
        }
    }

    /// Renders the Table-1 comparison rows: `(spec, gem5 value, xeon value)`.
    pub fn table1() -> Vec<(&'static str, String, String)> {
        let g = SystemConfig::gem5_like();
        let x = SystemConfig::xeon_like();
        let cache = |h: &HierarchyConfig| {
            let mut s = format!(
                "{} L1, {} L2",
                jafar_common::size::fmt_bytes(h.l1.size_bytes),
                jafar_common::size::fmt_bytes(h.l2.size_bytes)
            );
            if let Some(l3) = h.l3 {
                s.push_str(&format!(
                    ", {} L3",
                    jafar_common::size::fmt_bytes(l3.size_bytes)
                ));
            }
            s
        };
        vec![
            (
                "cores",
                "one out-of-order CPU".to_owned(),
                "eight 2-way SMT cores (one modelled)".to_owned(),
            ),
            (
                "clock",
                format!("{} MHz", g.cpu_clock.freq_mhz()),
                format!("{} MHz", x.cpu_clock.freq_mhz()),
            ),
            (
                "sockets",
                "1 socket".to_owned(),
                "4-socket server (one modelled)".to_owned(),
            ),
            ("caches", cache(&g.hierarchy), cache(&x.hierarchy)),
            (
                "DRAM",
                jafar_common::size::fmt_bytes(g.dram_geometry.capacity_bytes()),
                format!(
                    "{} modelled (1 TB in the paper)",
                    jafar_common::size::fmt_bytes(x.dram_geometry.capacity_bytes())
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let g = SystemConfig::gem5_like();
        assert_eq!(g.cpu_clock.freq_mhz(), 1000);
        assert_eq!(g.hierarchy.l1.size_bytes, 64 * 1024);
        assert_eq!(g.hierarchy.l2.size_bytes, 128 * 1024);
        assert!(g.hierarchy.l3.is_none());
        assert_eq!(g.dram_geometry.capacity_bytes(), 2 << 30);
        assert!(g.device.is_some());

        let x = SystemConfig::xeon_like();
        assert_eq!(x.cpu_clock.freq_mhz(), 2000);
        assert!(x.hierarchy.l3.is_some());
    }

    #[test]
    fn table1_rows_render() {
        let rows = SystemConfig::table1();
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .any(|(s, g, _)| *s == "caches" && g.contains("64KiB L1")));
        assert!(rows
            .iter()
            .any(|(s, _, x)| *s == "caches" && x.contains("L3")));
    }
}
