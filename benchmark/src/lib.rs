//! The repo benchmark: seven workloads over the real kernels, the planner
//! and the serving simulator, measured end to end and attributed to layers.
//!
//! The harness drives only the public API of the `gillis` facade (plus the
//! pool crate, which the facade does not re-export). `BENCHMARK.json` at the
//! repository root declares every workload and metric; see `README.md` here
//! for what each one means and why it was chosen.

pub mod cli;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod manifest;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;
