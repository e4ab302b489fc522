//! A-HTPGM must be *one plan*, not a separate code path: the same
//! [`CorrelationFilter`] gates L1 (events of correlated series) and L2
//! (pairs with a `G_C` edge) in every miner, so composing the
//! approximate miner with any execution axis — worker threads, shard
//! plans, the candidate-exchange executor — yields the *identical*
//! pattern set (labels, supports, confidences, clipped counts) as plain
//! single-threaded `mine_approximate`. This suite pins that identity
//! across shard counts, boundary policies and both graph
//! parameterizations (μ and edge density), checks the brute-force
//! reference oracle under the same filter, and asserts the exchange
//! coordinator's MI-at-propose gate generates strictly fewer candidates
//! than mining exactly and filtering post hoc.
//!
//! Event ids differ across conversions (intern order), so everything
//! compares by label.

use std::collections::HashMap;

use ftpm_core::{
    correlation_filter, mine_approximate, mine_approximate_graph_with_sink,
    mine_reference_filtered, CollectSink, MinerConfig, MiningResult, ShardPlan, ShardPlanner,
    ShardReport,
};
use ftpm_events::{
    to_sequence_database, BoundaryPolicy, EventRegistry, RelationConfig, SequenceDatabase,
    SplitConfig,
};
use ftpm_mi::{mu_for_density, CorrelationGraph};
use ftpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries, VariableId};

/// Deterministic pseudo-random on/off symbolic database with run lengths
/// in `1..=max_run` — long runs cross window and shard boundaries, which
/// is exactly what the shard pads and the exchange must survive.
fn random_syb(seed: u64, vars: usize, n_steps: usize, step: i64, max_run: u64) -> SymbolicDatabase {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545f4914f6cdd1d)
    };
    let mut db = SymbolicDatabase::new(0, step, n_steps);
    for v in 0..vars {
        let mut symbols = Vec::with_capacity(n_steps);
        let mut sym = SymbolId((next() % 2) as u16);
        while symbols.len() < n_steps {
            let run = 1 + (next() % max_run) as usize;
            for _ in 0..run.min(n_steps - symbols.len()) {
                symbols.push(sym);
            }
            sym = SymbolId(1 - sym.0);
        }
        db.push(SymbolicSeries::new(
            format!("V{v}"),
            Alphabet::on_off(),
            symbols,
        ));
    }
    db
}

type Labelled = HashMap<String, (usize, f64, usize)>;

fn labelled(result: &MiningResult, reg: &EventRegistry) -> Labelled {
    result
        .patterns
        .iter()
        .map(|p| {
            (
                p.pattern.display(reg).to_string(),
                (p.support, p.confidence, p.clipped_occurrences),
            )
        })
        .collect()
}

fn assert_equivalent(base: &Labelled, other: &Labelled, context: &str) {
    for (label, (supp, conf, clipped)) in base {
        match other.get(label) {
            None => panic!("{context}: lost {label}"),
            Some((s, c, cl)) => {
                assert_eq!(supp, s, "{context}: support mismatch on {label}");
                assert!(
                    (conf - c).abs() < 1e-9,
                    "{context}: confidence mismatch on {label}"
                );
                assert_eq!(clipped, cl, "{context}: clipped count mismatch on {label}");
            }
        }
    }
    assert_eq!(base.len(), other.len(), "{context}: fabricated patterns");
}

/// `threads`-worker A-HTPGM under `graph`, collected into a result.
fn approx_parallel(
    seq: &SequenceDatabase,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    threads: usize,
) -> MiningResult {
    let mut sink = CollectSink::new();
    let stats = mine_approximate_graph_with_sink(seq, graph, cfg, threads, &mut sink);
    sink.into_result(stats)
}

/// A-HTPGM under `graph` over a `shards`-way candidate-exchange plan with
/// `t_ov = t_max`; the result is expressed in `plan.registry()`.
fn approx_exchange(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    shards: usize,
    threads: usize,
) -> (ShardPlan, MiningResult, Vec<ShardReport>) {
    let plan = ShardPlanner::new(shards)
        .plan(syb, split, cfg.relation.t_max)
        .expect("plan");
    let mut sink = CollectSink::new();
    let (stats, reports) = plan.mine_approximate_exchange_into(graph, cfg, threads, &mut sink);
    (plan, sink.into_result(stats), reports)
}

fn policy_cfg(sigma: f64, delta: f64, t_max: i64, policy: BoundaryPolicy) -> MinerConfig {
    MinerConfig::new(sigma, delta)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(policy))
}

/// The full composition check for one (data, split, cfg, μ, K): the
/// single-threaded unsharded approximate run is the baseline, and the
/// parallel and sharded candidate-exchange compositions must both
/// reproduce it exactly.
fn check_compositions(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    mu: f64,
    shards: usize,
    threads: usize,
    context: &str,
) {
    let seq = to_sequence_database(syb, split);
    let graph = CorrelationGraph::build(syb, mu);
    let base = mine_approximate(&seq, &graph, cfg);
    let base_l = labelled(&base, seq.registry());

    let par = approx_parallel(&seq, &graph, cfg, threads);
    assert_equivalent(
        &base_l,
        &labelled(&par, seq.registry()),
        &format!("{context} [parallel]"),
    );
    assert_eq!(
        base.frequent_events.len(),
        par.frequent_events.len(),
        "{context}: parallel L1 count"
    );

    let (plan, exchanged, reports) = approx_exchange(syb, split, &graph, cfg, shards, threads);
    assert_equivalent(
        &base_l,
        &labelled(&exchanged, plan.registry()),
        &format!("{context} [sharded exchange]"),
    );
    assert_eq!(
        base.frequent_events.len(),
        exchanged.frequent_events.len(),
        "{context}: exchange L1 count"
    );
    assert_eq!(reports.len(), plan.shards().len());
    for r in &reports {
        assert!(
            r.candidates_pruned <= r.candidates_proposed,
            "{context}: shard {} pruned more than it proposed",
            r.shard
        );
    }
}

#[test]
fn approx_compositions_agree_across_policies_and_shard_counts() {
    let syb = random_syb(42, 3, 96, 5, 8);
    let split = SplitConfig::new(40, 20);
    let mu = mu_for_density(&syb, 0.6);
    for policy in [
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Clip,
        BoundaryPolicy::Discard,
    ] {
        let cfg = policy_cfg(0.25, 0.25, 20, policy);
        for shards in [1usize, 2, 4] {
            check_compositions(
                &syb,
                split,
                &cfg,
                mu,
                shards,
                2,
                &format!("{policy} K={shards}"),
            );
        }
    }
}

/// The density parameterization is the μ parameterization: A-HTPGM with
/// a density target must equal A-HTPGM at the μ the target resolves to.
#[test]
fn density_parameterization_matches_explicit_mu() {
    let syb = random_syb(7, 4, 96, 5, 7);
    let split = SplitConfig::new(40, 20);
    let seq = to_sequence_database(&syb, split);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    for density in [0.3, 0.6, 0.9] {
        let mu = mu_for_density(&syb, density);
        let graph = CorrelationGraph::build_with_density(&syb, density);
        let by_density = mine_approximate(&seq, &graph, &cfg);
        let by_mu = mine_approximate(&seq, &CorrelationGraph::build(&syb, mu), &cfg);
        assert!(
            (graph.mu() - mu).abs() < 1e-12,
            "density {density} resolved to mu {} not {mu}",
            graph.mu()
        );
        assert_equivalent(
            &labelled(&by_mu, seq.registry()),
            &labelled(&by_density, seq.registry()),
            &format!("density {density}"),
        );
    }
}

/// The brute-force oracle under the same filter: A-HTPGM (with
/// transitivity pruning, the default) equals the reference miner gated
/// by the filter built from the same graph.
#[test]
fn reference_oracle_agrees_under_the_same_filter() {
    let syb = random_syb(3, 3, 64, 5, 6);
    let split = SplitConfig::new(40, 20);
    let seq = to_sequence_database(&syb, split);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    let mu = mu_for_density(&syb, 0.5);
    let graph = CorrelationGraph::build(&syb, mu);
    let filter = correlation_filter(&graph, seq.registry());
    let oracle = mine_reference_filtered(&seq, &cfg, Some(&filter));
    let approx = mine_approximate(&seq, &graph, &cfg);
    assert_equivalent(
        &labelled(&approx, seq.registry()),
        &labelled(&oracle, seq.registry()),
        "reference oracle",
    );
    assert_eq!(
        approx.frequent_events.len(),
        oracle.frequent_events.len(),
        "oracle L1 count"
    );
}

/// The headline of propose-time gating: pairs the coordinator's `G_C`
/// gate rejects are never enumerated, so the approximate exchange
/// generates strictly fewer candidates than the exact exchange on the
/// same plan — and its output equals filtering the exact output post
/// hoc (every pattern whose events are all correlated and pairwise
/// edge-connected).
#[test]
fn mi_at_propose_beats_post_hoc_filtering_on_the_energy_demo() {
    let data = ftpm_datagen::nist_like(0.01).project_variables(6);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.8);
    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, t_max)
        .expect("plan");

    let (exact_result, exact_reports) = plan.mine_exchange(&cfg, 1);
    let mut sink = CollectSink::new();
    let (stats, approx_reports) = plan.mine_approximate_exchange_into(&graph, &cfg, 1, &mut sink);
    let approx_result = sink.into_result(stats);

    let exact_total: usize = exact_reports.iter().map(|r| r.candidates_proposed).sum();
    let approx_total: usize = approx_reports.iter().map(|r| r.candidates_proposed).sum();
    assert!(
        approx_total < exact_total,
        "MI at propose time must generate strictly fewer exchange candidates \
         ({approx_total} vs {exact_total})"
    );

    // Post-hoc baseline: keep exactly the exact-exchange patterns whose
    // events all lie in X_C and are pairwise connected in G_C.
    let registry = plan.registry();
    let mut in_xc = vec![false; graph.n_vertices()];
    for var in graph.correlated_variables() {
        in_xc[var.0 as usize] = true;
    }
    let var_of = |e: ftpm_events::EventId| -> VariableId { registry.variable(e) };
    let post_hoc: Labelled = exact_result
        .patterns
        .iter()
        .filter(|p| {
            let events = p.pattern.events();
            events.iter().all(|&e| in_xc[var_of(e).0 as usize])
                && events.iter().enumerate().all(|(i, &ei)| {
                    events[i + 1..]
                        .iter()
                        .all(|&ej| graph.has_edge(var_of(ei), var_of(ej)))
                })
        })
        .map(|p| {
            (
                p.pattern.display(registry).to_string(),
                (p.support, p.confidence, p.clipped_occurrences),
            )
        })
        .collect();
    assert_equivalent(
        &post_hoc,
        &labelled(&approx_result, registry),
        "post-hoc filter of the exact exchange",
    );
    assert!(
        !approx_result.patterns.is_empty(),
        "the energy demo at density 0.8 must keep patterns — otherwise the \
         equality above is vacuous"
    );
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random series, random σ/δ, random density, K in {1, 2, 4},
        /// every boundary policy, both parameterizations: approximate
        /// sharded-exchange == approximate parallel == approximate
        /// sequential (labels, supports, confidences, clipped counts).
        #[test]
        fn approx_sharded_exchange_equals_parallel_equals_sequential(
            seed in 0u64..24,
            vars in 2usize..4,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            density in 0.25f64..1.0,
            shard_choice in 0usize..3,
            policy_choice in 0usize..3,
            t_max_steps in 2i64..8,
        ) {
            let shards = [1usize, 2, 4][shard_choice];
            let policy = [
                BoundaryPolicy::TrueExtent,
                BoundaryPolicy::Clip,
                BoundaryPolicy::Discard,
            ][policy_choice];
            let step = 5i64;
            let syb = random_syb(seed, vars, 64, step, 7);
            let split = SplitConfig::new(8 * step, 2 * step);
            let cfg = MinerConfig::new(sigma, delta)
                .with_max_events(3)
                .with_relation(
                    RelationConfig::new(0, 1, t_max_steps * step).with_boundary(policy),
                );
            let mu = mu_for_density(&syb, density);
            let seq = to_sequence_database(&syb, split);
            let base = labelled(
                &mine_approximate(
                    &seq,
                    &CorrelationGraph::build_with_density(&syb, density),
                    &cfg,
                ),
                seq.registry(),
            );
            let graph = CorrelationGraph::build(&syb, mu);
            let par = labelled(&approx_parallel(&seq, &graph, &cfg, 2), seq.registry());
            let (plan, exchanged, _) = approx_exchange(&syb, split, &graph, &cfg, shards, 1);
            let em = labelled(&exchanged, plan.registry());
            for (label, (supp, conf, clipped)) in &base {
                for (name, m) in [("parallel", &par), ("exchange", &em)] {
                    let (s, c, cl) = m.get(label).unwrap_or_else(|| {
                        panic!("{name} lost {label} (K={shards}, {policy})")
                    });
                    prop_assert_eq!(supp, s, "{} support of {}", name, label);
                    prop_assert!((conf - c).abs() < 1e-9, "{} confidence of {}", name, label);
                    prop_assert_eq!(clipped, cl, "{} clipped of {}", name, label);
                }
            }
            prop_assert_eq!(base.len(), par.len(), "parallel pattern count");
            prop_assert_eq!(base.len(), em.len(), "exchange pattern count");
        }
    }
}
