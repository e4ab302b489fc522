//! HTPGM — Hierarchical Temporal Pattern Graph Mining.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`MinerConfig`] / [`PruningConfig`] — thresholds `σ`, `δ`, the
//!   relation model, and the pruning ablation switches of Section VI-C2;
//! * [`Pattern`] — temporal patterns (Def 3.11): `k` events plus a
//!   relation for every event pair;
//! * [`mine_exact`] (E-HTPGM, Section IV, Alg. 1) — level-wise mining on
//!   the Hierarchical Pattern Graph with bitmap support counting,
//!   Apriori pruning (Lemmas 2–3) and transitivity pruning (Lemmas 4–7);
//! * [`mine_approximate`] (A-HTPGM, Section V, Alg. 2) — prunes
//!   uncorrelated time series via the mutual-information correlation
//!   graph (`ftpm_mi::CorrelationGraph`, built by the caller) before
//!   running HTPGM. The graph becomes a [`CorrelationFilter`] handed to
//!   the shared miners, so A-HTPGM composes with every execution axis:
//!   threads and streaming ([`mine_approximate_graph_with_sink`]) and
//!   sharded candidate-exchange
//!   ([`ShardPlan::mine_approximate_exchange_into`]) — each yielding the
//!   identical pattern set;
//! * [`mine_reference`] — a brute-force miner used as a correctness
//!   oracle in tests and to study the patterns A-HTPGM prunes (Fig 8);
//! * [`PatternSink`] and friends ([`CollectSink`], [`CountingSink`],
//!   [`CsvSink`], [`JsonlSink`]) — streaming output: [`mine_exact_with_sink`]
//!   and [`mine_exact_parallel_with_sink`] emit each finished pattern-graph
//!   node into a sink instead of materializing a result `Vec`. Every
//!   unsharded entry point runs the same mining loop; one thread is its
//!   degenerate case. The collecting forms ([`mine_exact`],
//!   [`mine_exact_parallel`], [`mine_approximate`]) are these sink
//!   primitives run into a [`CollectSink`];
//! * [`ShardPlanner`] / [`ShardPlan::mine_exchange_into`] /
//!   [`ShardPlan::mine_exchange`] — shard-by-time-range mining
//!   through the two-phase candidate-exchange executor: K overlapping
//!   time-range slices (`t_ov = t_max`, the Fig 3 lemma one level up) run
//!   concurrently and propose level-`k` candidates with owned supports, a
//!   coordinator applies the *global* σ/δ apriori gate between levels,
//!   and a [`ShardMerge`] sums owned supports losslessly — per-shard
//!   pruning without giving up exactness ([`ShardReport`] exposes
//!   per-shard candidate and timing observability).

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

//! # Quickstart
//!
//! ```
//! use ftpm_timeseries::{SymbolicDatabase, TimeSeries, ThresholdSymbolizer};
//! use ftpm_events::{to_sequence_database, SplitConfig};
//! use ftpm_core::{mine_exact, MinerConfig};
//!
//! // Two appliances sampled every 5 ticks.
//! let kitchen = TimeSeries::new("K", 0, 5, vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
//! let toaster = TimeSeries::new("T", 0, 5, vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
//! let mut syb = SymbolicDatabase::new(0, 5, 8);
//! let symbolizer = ThresholdSymbolizer::new(0.5);
//! syb.add_time_series(&kitchen, &symbolizer);
//! syb.add_time_series(&toaster, &symbolizer);
//!
//! let seq_db = to_sequence_database(&syb, SplitConfig::new(20, 0));
//! let result = mine_exact(&seq_db, &MinerConfig::new(0.5, 0.5));
//! assert!(!result.patterns.is_empty());
//! ```

mod approx;
mod candidates;
mod config;
mod exact;
mod executor;
mod hpg;
mod index;
mod merge;
mod occ;
mod parallel;
mod pattern;
mod pool;
mod postprocess;
mod reference;
mod result;
mod schedule;
mod shard;
mod sink;

pub use approx::{
    correlation_filter, event_indicator_database, mine_approximate, mine_approximate_event_level,
    mine_approximate_graph_with_sink,
};
pub use candidates::CorrelationFilter;
pub use config::{MinerConfig, PruningConfig};
pub use exact::{mine_exact, mine_exact_with_sink};
pub use parallel::{mine_exact_parallel, mine_exact_parallel_with_sink};
pub use postprocess::{
    closed_patterns, maximal_patterns, pattern_lift, rank_patterns, top_k_by_lift, PatternSort,
};
pub use hpg::{HierarchicalPatternGraph, Level, Node};
pub use index::DatabaseIndex;
pub use merge::ShardMerge;
pub use pattern::Pattern;
pub use pool::{DeltaKey, EventsRev, PatternId, PatternPool};
pub use reference::{mine_reference, mine_reference_filtered};
pub use result::{FrequentPattern, MiningResult, MiningStats};
pub use schedule::{ExploreStats, Explorer, Schedule};
pub use executor::ShardReport;
pub use shard::{Shard, ShardPlan, ShardPlanner};
pub use sink::{CollectSink, CountingSink, CsvSink, JsonlSink, PatternSink};
