//! Boundary-policy equivalence on the energy demo (beyond the paper;
//! ROADMAP "Window-boundary artifacts"): with `--boundary true-extent`
//! and `t_ov = t_max`, an overlapped split's pattern set must equal the
//! unsplit baseline for all patterns of duration ≤ `t_max`. Exits
//! nonzero when the sets diverge, so CI can gate on it.
//! Args: `[scale] [max_events]`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.01, 3);
    if ftpm_bench::experiments::boundary_equivalence(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "boundary equivalence FAILED: the true-extent overlapped split \
             diverged from the unsplit baseline"
        );
        ExitCode::FAILURE
    }
}
