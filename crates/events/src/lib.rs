//! Temporal events, relations and sequences — the bridge between symbolic
//! time series (`ftpm-timeseries`) and pattern mining (`ftpm-core`).
//!
//! This crate implements:
//!
//! * [`Interval`] and [`EventInstance`] — a single occurrence of a temporal
//!   event during a time interval (Defs 3.4–3.5);
//! * [`TemporalRelation`] and [`RelationConfig`] — the simplified Allen
//!   relation model with the buffer `ε` and minimal overlap `d_o`
//!   (Defs 3.6–3.8, Table II);
//! * [`TemporalSequence`] and [`SequenceDatabase`] — the temporal sequence
//!   database `D_SEQ` (Defs 3.9–3.10, Table III);
//! * [`SplitConfig`] / [`to_sequence_database`] — the overlapping splitting
//!   strategy that converts `D_SYB` into `D_SEQ` without losing patterns
//!   (Section IV-B2, Fig 3);
//! * [`BoundaryPolicy`] — how miners treat instances whose runs the split
//!   clipped at a window boundary: keep the clipped view (`Clip`, the
//!   default), reason about the true run extent (`TrueExtent`), or drop
//!   them (`Discard`). Every [`EventInstance`] carries both the clipped
//!   interval and the unclipped extent, so the choice is made at mining
//!   time, not at split time.
//!
//! ## Interval convention
//!
//! The paper prints instance endpoints loosely (Table III mixes sample
//! times and transition times). This crate uses one consistent rule: a
//! sample at time `t` holds during `[t, t + step)`, so a run of identical
//! symbols over steps `i..=j` becomes the interval
//! `[time(i), time(j) + step)`. Adjacent events of the same variable then
//! share endpoints exactly, which is what the relation semantics need.

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

mod event;
mod instance;
mod relation;
mod sequence;
mod split;

pub use event::{EventId, EventRegistry};
pub use instance::{EventInstance, Interval, InvalidInterval};
pub use relation::{
    BoundaryKernel, BoundaryPolicy, BoundaryVisit, ClipKernel, DiscardKernel, RelationConfig,
    TemporalRelation, TrueExtentKernel,
};
pub use sequence::{SequenceDatabase, TemporalSequence};
pub use split::{to_sequence_database, ShardSpan, SplitConfig};
