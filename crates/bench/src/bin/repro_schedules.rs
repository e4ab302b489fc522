//! Systematic schedule sweep (beyond the paper; ROADMAP "deterministic
//! schedule checking"): the [`ftpm_core::Explorer`] DFS must visit every
//! two-worker interleaving of the parallel miner and of the
//! candidate-exchange executor — output bit-identical to the
//! single-threaded baseline on each — plus every at-most-one-preemption
//! interleaving at four workers. Exits nonzero when any sweep caps out,
//! fails to exhaust, or diverges, so CI can gate on it. Takes no args:
//! the workload is fixed because exhaustiveness depends on its size.
use std::process::ExitCode;

fn main() -> ExitCode {
    if ftpm_bench::experiments::schedule_sweep() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "schedule sweep FAILED: an interleaving sweep capped out or \
             produced output diverging from the single-threaded baseline"
        );
        ExitCode::FAILURE
    }
}
