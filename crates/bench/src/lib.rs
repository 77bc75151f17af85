//! # snug-bench — criterion-harness benches over the simulator
//!
//! The library target is intentionally empty: the crate exists for its
//! `benches/` directory, run under the criterion harness (vendored shim
//! offline; the real crate if registry access appears):
//!
//! * `kernel_throughput` and `sweep_scaling` — the committed throughput
//!   trajectories (`BENCH_kernel.json`, `BENCH_sweep.json`) and their
//!   gates, driven by `snug bench`;
//! * `micro_kernels` — the hot-path primitives, measure-only;
//! * `ablations` — the design choices the paper leaves open.
//!
//! The paper's figures and tables come from `snug report`,
//! `snug characterize` and `examples/overhead_analysis.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
