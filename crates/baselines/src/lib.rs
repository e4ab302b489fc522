//! The three state-of-the-art baselines the paper compares against
//! (Section VI-A3). All three return exactly the same pattern set as
//! [`ftpm_core::mine_exact`] — asserted by this crate's equivalence tests
//! — but with the algorithmic structure of the original publications,
//! which is what makes them slower:
//!
//! * [`mine_hdfs`] — H-DFS (Papapetrou et al., KAIS 2009): vertical
//!   ID-lists merged pairwise, hybrid BFS (pairs) + DFS (extensions),
//!   full occurrence lists materialized at every step, no bitmap, no
//!   confidence or transitivity pruning;
//! * [`mine_ieminer`] — IEMiner (Patel et al., SIGMOD 2008): level-wise
//!   Apriori candidate generation followed by repeated horizontal
//!   database scans that match every candidate against every sequence;
//! * [`mine_tpminer`] — TPMiner (Chen et al., TKDE 2015): endpoint-style
//!   pattern growth over projected occurrence lists — the strongest
//!   baseline, structurally closest to HTPGM but without its bitmap
//!   Apriori filtering and transitivity pruning.
//!
//! The paper's observed runtime ordering
//! `A-HTPGM < E-HTPGM < TPMiner < IEMiner < H-DFS` emerges from these
//! structural differences, not from artificial slowdowns.
//!
//! All three honor [`ftpm_events::BoundaryPolicy`] (they historically
//! mined the clipped view regardless), so boundary-aware comparisons
//! against the HPG miners are meaningful under every policy — asserted
//! by the equivalence tests against [`ftpm_core::mine_reference`].

// Library code must not panic on user data; each deliberate panic
// site (a documented `# Panics` contract or a structural invariant)
// carries `#[expect(clippy::…, reason = "…")]`. Tests may panic freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod common;
mod hdfs;
mod ieminer;
mod tpminer;

pub use hdfs::mine_hdfs;
pub use ieminer::mine_ieminer;
pub use tpminer::mine_tpminer;
