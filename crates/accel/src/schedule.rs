//! Resource-constrained cycle-by-cycle scheduling of a DDDG.
//!
//! This is the "executed cycle-by-cycle by a breadth-first traversal that
//! also takes into account constraints like memory bandwidth and available
//! functional units" step of Aladdin (§3.1). The scheduler is list
//! scheduling: each cycle, ready nodes issue in trace order up to the
//! per-class functional-unit limits and the memory-bandwidth budget;
//! finished nodes wake their dependents.

use crate::dddg::Dddg;
use crate::ir::{FuClass, Kernel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Datapath resource provisioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Arithmetic/compare units.
    pub alus: u32,
    /// Bit-manipulation units (output-buffer insert path).
    pub bitops: u32,
    /// Memory ports into the DRAM IO buffer.
    pub mem_ports: u32,
    /// Bytes the memory interface can move per cycle.
    pub mem_bytes_per_cycle: u64,
}

impl Resources {
    /// JAFAR's provisioning per §2.2 / Figure 1(b): two ALUs, one port into
    /// the IO buffer delivering one 64-bit word per 0.5 ns device cycle.
    /// The bitset-insert path (and/shift/or) is cheap combinational logic
    /// and is provisioned generously so the two ALUs are the compute
    /// bottleneck, as in the paper's datapath.
    pub fn jafar_default() -> Self {
        Resources {
            alus: 2,
            bitops: 4,
            mem_ports: 1,
            mem_bytes_per_cycle: 8,
        }
    }

    /// Checks the provisioning is schedulable.
    ///
    /// # Panics
    /// Panics if any resource is zero (the scheduler could never progress).
    pub fn validate(&self) {
        assert!(self.alus > 0, "at least one ALU required");
        assert!(self.bitops > 0, "at least one bitwise unit required");
        assert!(self.mem_ports > 0, "at least one memory port required");
        assert!(
            self.mem_bytes_per_cycle > 0,
            "memory bandwidth must be positive"
        );
    }
}

/// The result of scheduling a graph.
///
/// ```
/// use jafar_accel::ir::jafar_filter_kernel;
/// use jafar_accel::{Resources, Schedule};
///
/// // The paper's §2.2 claim, derived rather than assumed: with two ALUs
/// // the filter datapath sustains one word per cycle.
/// let ii = Schedule::steady_state_ii(&jafar_filter_kernel(), &Resources::jafar_default(), 8);
/// assert!((ii - 1.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Total cycles from first issue to last completion.
    pub cycles: u64,
    /// Nodes issued per functional-unit class: `(alu, bitwise, memory)`.
    pub issued: (u64, u64, u64),
    /// Bytes moved over the memory interface.
    pub bytes_moved: u64,
}

impl Schedule {
    /// Computes the schedule of `graph` under `resources`.
    ///
    /// Bandwidth is a token bucket replenished by `mem_bytes_per_cycle`
    /// each cycle (bounded burst), so sub-word-per-cycle interfaces stretch
    /// transfers over multiple cycles instead of deadlocking.
    pub fn compute(graph: &Dddg, resources: &Resources) -> Schedule {
        resources.validate();
        let n = graph.nodes.len();
        if n == 0 {
            return Schedule {
                cycles: 0,
                issued: (0, 0, 0),
                bytes_moved: 0,
            };
        }
        // Successor lists and in-degrees.
        let mut indeg = vec![0u32; n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in graph.nodes.iter().enumerate() {
            indeg[i] = node.preds.len() as u32;
            for &p in &node.preds {
                succs[p as usize].push(i as u32);
            }
        }
        // Earliest-start heap: (ready_cycle, node), plus per-node running
        // max of predecessor finish times.
        let mut max_pred_finish = vec![0u64; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for (i, d) in indeg.iter().enumerate() {
            if *d == 0 {
                heap.push(Reverse((0, i as u32)));
            }
        }
        let mut pending: Vec<u32> = Vec::new(); // ready but resource-stalled
        let mut cycle = 0u64;
        let mut last_finish = 0u64;
        let mut issued = (0u64, 0u64, 0u64);
        let mut bytes_moved = 0u64;
        // Bandwidth token bucket: replenished each cycle, bounded burst.
        let bw_cap = resources.mem_bytes_per_cycle * 4;
        let mut bw_tokens = resources.mem_bytes_per_cycle;
        let mut last_refill_cycle = 0u64;

        while !heap.is_empty() || !pending.is_empty() {
            // Pull everything ready by `cycle` into the pending list.
            while let Some(&Reverse((start, _))) = heap.peek() {
                if start <= cycle {
                    let Reverse((_, idx)) = heap.pop().expect("peeked");
                    pending.push(idx);
                } else {
                    break;
                }
            }
            if pending.is_empty() {
                // Jump to the next ready time.
                cycle = heap.peek().map(|&Reverse((s, _))| s).expect("nonempty");
            }
            // Refill bandwidth tokens for elapsed cycles.
            if cycle > last_refill_cycle {
                let earned =
                    (cycle - last_refill_cycle).saturating_mul(resources.mem_bytes_per_cycle);
                bw_tokens = (bw_tokens + earned).min(bw_cap);
                last_refill_cycle = cycle;
            }
            if pending.is_empty() {
                continue;
            }
            // Issue this cycle, trace order, within resource limits.
            pending.sort_unstable();
            let mut used = [0u32; 3]; // alu, bitwise, memory
            let mut remaining: Vec<u32> = Vec::new();
            for &idx in &pending {
                let node = &graph.nodes[idx as usize];
                let class = node.kind.fu_class();
                let (slot, limit) = match class {
                    FuClass::Alu => (0, resources.alus),
                    FuClass::Bitwise => (1, resources.bitops),
                    FuClass::Memory => (2, resources.mem_ports),
                };
                let bytes = node.kind.memory_bytes();
                let fits = node.free || (used[slot] < limit && bytes <= bw_tokens);
                if !fits {
                    remaining.push(idx);
                    continue;
                }
                if !node.free {
                    used[slot] += 1;
                    bw_tokens -= bytes;
                    match class {
                        FuClass::Alu => issued.0 += 1,
                        FuClass::Bitwise => issued.1 += 1,
                        FuClass::Memory => issued.2 += 1,
                    }
                    bytes_moved += bytes;
                }
                let finish = cycle + node.kind.latency();
                last_finish = last_finish.max(finish);
                for &s in &succs[idx as usize] {
                    let s = s as usize;
                    max_pred_finish[s] = max_pred_finish[s].max(finish);
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        heap.push(Reverse((max_pred_finish[s], s as u32)));
                    }
                }
            }
            pending = remaining;
            cycle += 1;
        }

        Schedule {
            cycles: last_finish,
            issued,
            bytes_moved,
        }
    }

    /// Steady-state initiation interval of `kernel` under `resources` with
    /// the given unroll factor, in cycles per iteration: measured as the
    /// marginal cost of additional iterations (cancelling pipeline
    /// fill/drain).
    pub fn steady_state_ii(kernel: &Kernel, resources: &Resources, unroll: u64) -> f64 {
        let short = Schedule::compute(&Dddg::expand(kernel, 64, unroll), resources);
        let long = Schedule::compute(&Dddg::expand(kernel, 192, unroll), resources);
        (long.cycles as f64 - short.cycles as f64) / 128.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{jafar_filter_kernel, KernelBuilder, OpKind};

    #[test]
    fn empty_graph_schedules_to_zero() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 0, 1);
        let s = Schedule::compute(&g, &Resources::jafar_default());
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn jafar_kernel_achieves_ii_of_one_with_two_alus() {
        // §2.2: "JAFAR can process one [64-bit word] per clock cycle" with
        // two ALUs evaluating the range bounds in parallel.
        let k = jafar_filter_kernel();
        let ii = Schedule::steady_state_ii(&k, &Resources::jafar_default(), 8);
        assert!((ii - 1.0).abs() < 0.05, "ii={ii}");
    }

    #[test]
    fn single_alu_halves_throughput() {
        let k = jafar_filter_kernel();
        let one_alu = Resources {
            alus: 1,
            ..Resources::jafar_default()
        };
        let ii = Schedule::steady_state_ii(&k, &one_alu, 8);
        assert!((ii - 2.0).abs() < 0.1, "ii={ii}");
    }

    #[test]
    fn memory_bandwidth_limits_ii() {
        let k = jafar_filter_kernel();
        let starved = Resources {
            mem_bytes_per_cycle: 4, // half a word per cycle
            ..Resources::jafar_default()
        };
        let ii = Schedule::steady_state_ii(&k, &starved, 8);
        assert!(ii >= 1.9, "ii={ii}");
    }

    #[test]
    fn serial_carried_chain_cannot_pipeline() {
        let mut b = KernelBuilder::new();
        let mul = b.op(OpKind::Mul, &[]); // 3-cycle op
        b.carry(mul, mul);
        let k = b.build();
        let ii = Schedule::steady_state_ii(&k, &Resources::jafar_default(), 1);
        assert!(
            (ii - 3.0).abs() < 0.1,
            "carried 3-cycle chain → II 3, got {ii}"
        );
    }

    #[test]
    fn resource_counts_accumulate() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 16, 1);
        let s = Schedule::compute(&g, &Resources::jafar_default());
        // Per iteration: 2 cmps (alu), 3 bit ops, 1 load; induction is free.
        assert_eq!(s.issued, (32, 48, 16));
        assert_eq!(s.bytes_moved, 16 * 8);
    }

    #[test]
    fn schedule_respects_dependences() {
        // A pure chain of 10 adds has no parallelism: 10 cycles regardless
        // of resources.
        let mut b = KernelBuilder::new();
        let mut prev = b.op(OpKind::Add, &[]);
        for _ in 0..9 {
            prev = b.op(OpKind::Add, &[prev]);
        }
        let k = b.build();
        let g = Dddg::expand(&k, 1, 1);
        let wide = Resources {
            alus: 64,
            bitops: 64,
            mem_ports: 64,
            mem_bytes_per_cycle: 1 << 20,
        };
        let s = Schedule::compute(&g, &wide);
        assert_eq!(s.cycles, 10);
        assert_eq!(s.cycles, g.critical_path());
    }

    #[test]
    fn unrolling_amortises_induction_chain() {
        let k = jafar_filter_kernel();
        let r = Resources::jafar_default();
        let no_unroll = Schedule::compute(&Dddg::expand(&k, 64, 1), &r);
        let unrolled = Schedule::compute(&Dddg::expand(&k, 64, 8), &r);
        assert!(unrolled.cycles <= no_unroll.cycles);
    }
}
