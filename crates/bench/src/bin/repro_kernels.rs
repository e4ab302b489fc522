//! Hot-path kernel speedup gate (beyond the paper; ROADMAP "Kernelize
//! the hot path"): the block-unrolled CSA `and_count` kernel must beat
//! the retained scalar reference by >= 1.5x on the microbench, and the
//! correlation graph's NMI matrix must be bit-identical to the per-pair
//! definition on the demo's series (its speedup is recorded, not gated).
//! The fused `and_count_many` batch and one end-to-end exact mine of the
//! energy demo are reported alongside. Exits nonzero when a gate fails,
//! so CI can gate on it. Args: `[scale] [max_events]`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.02, 4);
    if ftpm_bench::experiments::kernel_speedup(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "kernel gate FAILED: and_count did not reach 1.5x over the scalar \
             reference at any measured size, or the NMI matrix is not \
             bit-identical (see results/kernel_speedup.json)"
        );
        ExitCode::FAILURE
    }
}
