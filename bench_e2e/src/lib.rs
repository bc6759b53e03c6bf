//! End-to-end benchmark of the IPAS workflow.
//!
//! The `bench_e2e` binary drives four workloads (cold and warm protect
//! requests, journaled campaigns, the campaign daemon) and reports the
//! end-to-end metrics listed in `BENCHMARK.json`; with tracing on it
//! reports each layer's share of the time instead. This library holds
//! the parts its tests exercise directly:
//!
//! - [`stats`]: median, quartiles and the tail-percentile rule;
//! - [`trace`]: the span recorder and self-time computation;
//! - [`protocol`]: one protect request, stage by stage.

pub mod protocol;
pub mod stats;
pub mod trace;
