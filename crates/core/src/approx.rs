//! A-HTPGM: approximate mining using mutual information
//! (paper Section V, Algorithm 2).
//!
//! The approximate miner first builds the correlation graph `G_C` of the
//! symbolic database: an edge connects two series iff their normalized
//! mutual information is at least `μ` in both directions (Def 5.5). Only
//! series inside the correlated set `X_C` produce single events at L1,
//! and only event pairs whose series are connected in `G_C` are verified
//! at L2. Theorem 1 guarantees that every frequent event pair from
//! correlated series has confidence at least `LB(σ, σ_m, n_x, μ)` in
//! `D_SEQ`, so what A-HTPGM prunes is exactly the low-confidence tail
//! (empirically: Fig 8).
//!
//! Since the one-plan refactor, A-HTPGM is not a separate code path but
//! a [`CorrelationFilter`] handed to the shared miners: this module is
//! the *only* place filters are constructed (lint rule R6), and every
//! execution axis — sequential/parallel via
//! [`mine_approximate_graph_with_sink`] (and its collecting form
//! [`mine_approximate`]), sharded candidate-exchange via
//! [`crate::ShardPlan::mine_approximate_exchange_into`] — takes the same
//! caller-built [`CorrelationGraph`] and consumes the identical gates, so
//! every composition yields the same pattern set.

use ftpm_events::{EventRegistry, SequenceDatabase};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::{SymbolicDatabase, VariableId};

use crate::candidates::CorrelationFilter;
use crate::config::MinerConfig;
use crate::parallel::mine_internal;
use crate::result::{MiningResult, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// Builds the variable-level A-HTPGM filter: L1 admits events whose
/// series is in `X_C`, L2 admits pairs whose series share a `G_C` edge.
///
/// The single construction site for every variable-level approximate
/// path (R6): the unsharded miners get it from
/// [`mine_approximate_graph_with_sink`], the exchange coordinator
/// borrows one built here so shards never invent their own edge gate,
/// and external callers (the reference oracle via
/// [`crate::mine_reference_filtered`], tests) call this rather than
/// assembling gates of their own. `registry` must come
/// from the conversion of the database `graph` was built on (the shard
/// planner's master registry qualifies — shard databases are remapped
/// onto it before mining).
pub fn correlation_filter<'a>(
    graph: &'a CorrelationGraph,
    registry: &'a EventRegistry,
) -> CorrelationFilter<'a> {
    let mut in_xc = vec![false; graph.n_vertices()];
    for var in graph.correlated_variables() {
        in_xc[var.0 as usize] = true;
    }
    let allowed: Vec<bool> = registry
        .ids()
        .map(|e| in_xc[registry.variable(e).0 as usize])
        .collect();
    CorrelationFilter::new(
        allowed,
        Box::new(move |ei, ej| graph.has_edge(registry.variable(ei), registry.variable(ej))),
    )
}

/// Mines `seq_db` approximately under the correlation graph `G_C`
/// (Alg. 2): one thread, collected into a [`MiningResult`]. Build the
/// graph on the symbolic database `seq_db` was converted from — A-HTPGM
/// computes NMI on `D_SYB`, not on `D_SEQ` — with
/// [`CorrelationGraph::build`] for a μ threshold or
/// [`CorrelationGraph::build_with_density`] for the density
/// parameterization the paper evaluates ("A-HTPGM (80%)" keeps 80% of
/// the complete graph's edges, Def 5.6).
///
/// The result is always a subset of [`crate::mine_exact`]'s patterns; the
/// accuracy/runtime trade-off is controlled by `μ` (Table IX, Fig 9).
pub fn mine_approximate(
    seq_db: &SequenceDatabase,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
) -> MiningResult {
    let mut sink = CollectSink::new();
    let stats = mine_approximate_graph_with_sink(seq_db, graph, cfg, 1, &mut sink);
    sink.into_result(stats)
}

/// The unsharded A-HTPGM primitive: mines `seq_db` under a caller-built
/// correlation graph, emitting into `sink` with `threads` workers (1 runs
/// inline, spawning nothing). Build the graph once and reuse it across
/// runs or pass it on to [`crate::ShardPlan::mine_approximate_exchange_into`];
/// that is the "one plan" contract.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn mine_approximate_graph_with_sink(
    seq_db: &SequenceDatabase,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    let filter = correlation_filter(graph, seq_db.registry());
    mine_internal(seq_db, cfg, threads, Some(&filter), sink, None)
}

/// Builds a symbolic database of per-event indicator series: one binary
/// series per distinct event of `seq_db`, with `On` at every step where
/// the event's variable carries the event's symbol.
///
/// This lifts the correlation analysis from variables to events, enabling
/// [`mine_approximate_event_level`]. In the returned database, variable
/// `i` corresponds to `EventId(i)` of `seq_db`'s registry.
pub fn event_indicator_database(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
) -> SymbolicDatabase {
    use ftpm_timeseries::{Alphabet, SymbolId, SymbolicSeries};
    let registry = seq_db.registry();
    let mut indicators = SymbolicDatabase::new(syb.start(), syb.step(), syb.n_steps());
    for event in registry.ids() {
        let var = registry.variable(event);
        let sym = registry.symbol(event);
        let series = syb.series(var);
        let symbols: Vec<SymbolId> = series
            .symbols()
            .iter()
            .map(|&s| SymbolId(u16::from(s == sym)))
            .collect();
        indicators.push(SymbolicSeries::new(
            registry.label(event),
            Alphabet::on_off(),
            symbols,
        ));
    }
    indicators
}

/// Event-level A-HTPGM — the extension the paper names as future work
/// (Section VII: "extend HTPGM to perform pruning at the event level").
///
/// Instead of one correlation-graph vertex per *series*, this builds one
/// vertex per *event* (via [`event_indicator_database`]) and requires an
/// edge between the two events of every L2 candidate pair. Finer-grained
/// than variable-level pruning: a variable pair can be correlated through
/// one symbol (say, both `Off`) while another symbol pair of the same
/// variables is independent — event-level pruning can drop the latter
/// without dropping the former.
///
/// Like variable-level A-HTPGM, the result is always a subset of
/// [`crate::mine_exact`].
pub fn mine_approximate_event_level(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    mu: f64,
    cfg: &MinerConfig,
) -> MiningResult {
    let indicators = event_indicator_database(syb, seq_db);
    let graph = CorrelationGraph::build(&indicators, mu);
    // Event-level variant of `correlation_filter`: the indicator database
    // has one vertex per event, so the mapping is the identity instead of
    // the registry's variable projection.
    let mut allowed = vec![false; seq_db.registry().len()];
    for var in graph.correlated_variables() {
        allowed[var.0 as usize] = true;
    }
    let filter = CorrelationFilter::new(
        allowed,
        Box::new(|ei, ej| graph.has_edge(VariableId(ei.0), VariableId(ej.0))),
    );
    let mut sink = CollectSink::new();
    let stats = mine_internal(seq_db, cfg, 1, Some(&filter), &mut sink, None);
    sink.into_result(stats)
}
