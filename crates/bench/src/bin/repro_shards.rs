#![deny(unsafe_code)]
//! Shard-merge equivalence on the energy demo (beyond the paper; ROADMAP
//! "Sharding/scale"): `ShardPlan::mine_exchange` with K ∈ {1, 2, 4}
//! time-range shards, `t_ov = t_max` and `--boundary true-extent` must
//! reproduce the unsharded baseline exactly — same pattern labels,
//! supports, confidences and clipped-occurrence counts. Exits nonzero
//! when any run diverges at K = 4, so CI can gate on it.
//! Args: `[scale] [max_events]`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.01, 3);
    if ftpm_bench::experiments::shard_equivalence(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "shard equivalence FAILED: the merged sharded output diverged \
             from the unsharded baseline"
        );
        ExitCode::FAILURE
    }
}
