//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section VI). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Each experiment has a `repro_*` binary (printing paper-style rows and
//! writing `results/*.csv`) and, for the runtime-critical ones, a
//! Criterion bench under `benches/`.

#[expect(
    unsafe_code,
    reason = "the allocation tracker implements `GlobalAlloc`; the only unsafe module in the workspace"
)]
mod alloc_track;
pub mod experiments;
mod util;

pub use alloc_track::{
    alloc_count, current_bytes, measure_allocs, measure_peak, peak_bytes, reset_peak,
    TrackingAllocator,
};
pub use util::{secs, time, Method, Opts, Report};
