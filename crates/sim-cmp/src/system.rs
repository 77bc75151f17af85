//! What a measured run reports: per-core IPC over the paper's fixed
//! warm-up + measurement window (all cores run the same simulated time)
//! and the aggregate L2 statistics. [`crate::SimSession`] produces these.

use crate::core::CoreStats;
use serde::{Deserialize, Serialize};
use sim_cache::CacheStats;

/// Result for one core after a measured run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Workload label (benchmark name).
    pub label: String,
    /// Instructions retired during measurement.
    pub instructions: u64,
    /// Cycles elapsed during measurement.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Core stall counters for the whole run (warm-up included).
    pub stalls: CoreStats,
    /// L1D statistics over the measured phase.
    pub l1d: CacheStats,
}

/// Result of a full system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemResult {
    /// Scheme name.
    pub scheme: String,
    /// Per-core results.
    pub cores: Vec<CoreResult>,
    /// Aggregate L2 statistics.
    pub l2: CacheStats,
}

impl SystemResult {
    /// Sum of per-core IPCs (the paper's throughput metric numerator).
    pub fn throughput(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc).sum()
    }

    /// Per-core IPC vector.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.ipc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::scheme::{ChipResources, L2Fill, L2Org, L2Outcome};
    use crate::session::SimSession;
    use sim_cache::SetAssocCache;
    use sim_mem::{BlockAddr, OpStream, VecStream};

    /// Minimal private-L2 organisation: every slice is an isolated cache
    /// backed by DRAM (no write buffer, no sharing). Enough to test the
    /// driver.
    #[derive(Clone)]
    struct TestOrg {
        slices: Vec<SetAssocCache>,
        local_lat: u64,
    }

    impl TestOrg {
        fn new(cfg: &SystemConfig) -> Self {
            TestOrg {
                slices: (0..cfg.num_cores)
                    .map(|_| SetAssocCache::new(cfg.l2_slice))
                    .collect(),
                local_lat: cfg.l2_local_latency,
            }
        }
    }

    impl L2Org for TestOrg {
        fn access(
            &mut self,
            core: usize,
            block: BlockAddr,
            is_write: bool,
            now: u64,
            res: &mut ChipResources<'_>,
        ) -> L2Outcome {
            let r = self.slices[core].access(block, is_write);
            if r.hit {
                L2Outcome {
                    latency: self.local_lat,
                    fill: L2Fill::LocalHit,
                }
            } else {
                if let Some(ev) = r.evicted {
                    if ev.flags.dirty {
                        res.dram.write(now);
                    }
                }
                let done = res.dram.read(now);
                L2Outcome {
                    latency: self.local_lat + (done - now),
                    fill: L2Fill::Dram,
                }
            }
        }

        fn writeback(
            &mut self,
            core: usize,
            block: BlockAddr,
            _now: u64,
            _res: &mut ChipResources<'_>,
        ) {
            let set = self.slices[core].home_set(block);
            let _ = self.slices[core].touch_in_set(set, block, true);
        }

        fn slice_stats(&self, core: usize) -> &CacheStats {
            self.slices[core].stats()
        }

        fn num_cores(&self) -> usize {
            self.slices.len()
        }

        fn name(&self) -> &'static str {
            "test-l2p"
        }

        fn reset_stats(&mut self) {
            self.slices.iter_mut().for_each(|s| s.reset_stats());
        }

        fn clone_dyn(&self) -> Box<dyn L2Org> {
            Box::new(self.clone())
        }
    }

    /// One fixed-window run of `streams` on the tiny platform.
    fn run(streams: Vec<Box<dyn OpStream>>, warmup: u64, measure: u64) -> SystemResult {
        let cfg = SystemConfig::tiny_test();
        SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams)
            .budget(warmup, measure)
            .build()
            .run_to_completion()
    }

    fn small_loop_stream(label: &str, blocks: u64, gap: u32) -> Box<dyn OpStream> {
        let addrs: Vec<u64> = (0..blocks).map(|i| i * 64).collect();
        Box::new(VecStream::loads(label, addrs, gap))
    }

    #[test]
    fn all_cores_complete_budget() {
        let streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|i| small_loop_stream(&format!("w{i}"), 4, 3))
            .collect();
        let res = run(streams, 500, 20_000);
        for c in &res.cores {
            assert!(c.instructions > 0);
            assert!(c.cycles >= 19_000, "every core ran the full window");
            assert!(c.ipc > 0.0);
        }
        assert_eq!(res.scheme, "test-l2p");
    }

    #[test]
    fn cache_friendly_workload_beats_thrashing() {
        // Fits in L1 (4 sets × 2 ways = 8 blocks): near-peak IPC.
        let friendly: Vec<Box<dyn OpStream>> =
            (0..4).map(|_| small_loop_stream("fit", 4, 7)).collect();
        // 4096 distinct blocks: L1 and the 64-block L2 both thrash.
        let thrash: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| small_loop_stream("thrash", 4096, 7))
            .collect();

        let a = run(friendly, 2_000, 50_000);
        let b = run(thrash, 2_000, 50_000);
        assert!(
            a.throughput() > 3.0 * b.throughput(),
            "friendly {} vs thrash {}",
            a.throughput(),
            b.throughput()
        );
    }

    #[test]
    fn stores_do_not_stall_cores() {
        let addrs: Vec<u64> = (0..4096u64).map(|i| i * 64).collect();
        let load_streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| Box::new(VecStream::loads("ld", addrs.clone(), 3)) as Box<dyn OpStream>)
            .collect();
        let store_streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| {
                let ops: Vec<_> = addrs
                    .iter()
                    .map(|&a| sim_mem::CoreOp::new(3, sim_mem::Access::store(a)))
                    .collect();
                Box::new(VecStream::cycle("st", ops)) as Box<dyn OpStream>
            })
            .collect();
        let l = run(load_streams, 2_000, 50_000);
        let s = run(store_streams, 2_000, 50_000);
        assert!(
            s.throughput() > 2.0 * l.throughput(),
            "stores {} should vastly outpace loads {}",
            s.throughput(),
            l.throughput()
        );
    }

    #[test]
    fn ipc_measured_after_warmup_only() {
        let streams: Vec<Box<dyn OpStream>> =
            (0..4).map(|_| small_loop_stream("fit", 4, 7)).collect();
        let res = run(streams, 5_000, 20_000);
        // After warm-up the 4-block loop lives in L1: misses ≈ 0.
        assert_eq!(res.l2.misses, 0, "no L2 demand misses after warm-up");
        for c in &res.cores {
            assert!(c.ipc > 3.0, "near-peak IPC, got {}", c.ipc);
        }
    }
}
