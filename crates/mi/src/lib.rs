//! Information-theoretic machinery for the approximate miner A-HTPGM
//! (paper Section V).
//!
//! * [`entropy`], [`conditional_entropy`], [`mutual_information`],
//!   [`normalized_mutual_information`] — Defs 5.1–5.3;
//! * [`CorrelationGraph`] — Def 5.5: an undirected graph over symbolic
//!   series with an edge iff NMI meets the threshold `μ` in **both**
//!   directions, plus the density-based μ selection of Def 5.6;
//! * [`confidence_lower_bound`] — Theorem 1: the minimum confidence any
//!   frequent event pair from μ-correlated series can have in `D_SEQ`.
//!
//! All entropies use the natural logarithm; normalized mutual information
//! is scale-invariant, so the choice does not affect A-HTPGM.

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

mod bound;
mod graph;
mod info;

pub use bound::confidence_lower_bound;
pub use graph::{mu_for_density, CorrelationGraph};
pub use info::{
    conditional_entropy, entropy, joint_distribution, mutual_information,
    normalized_mutual_information,
};
