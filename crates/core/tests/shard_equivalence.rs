//! Shard-by-time-range mining must be lossless: for any data, any split,
//! and any shard count, the merged output of `ShardPlan::mine_exchange`
//! (shards cut with `t_ov = t_max`, each mining its own slice) equals
//! the unsharded `mine_exact` baseline on the same split — same pattern
//! labels, supports, confidences and clipped-occurrence counts. Event ids
//! differ across conversions (intern order), so everything compares by
//! label.

use std::collections::HashMap;

use ftpm_core::{mine_exact, MinerConfig, MiningResult, ShardPlan, ShardPlanner};
use ftpm_events::{
    to_sequence_database, BoundaryPolicy, EventRegistry, RelationConfig, SplitConfig,
};
use ftpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries};

/// Deterministic pseudo-random on/off symbolic database with run lengths
/// in `1..=max_run` — long runs cross window and shard boundaries, which
/// is exactly what the shard pads must survive.
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

fn assert_equivalent(base: &Labelled, sharded: &Labelled, context: &str) {
    for (label, (supp, conf, clipped)) in base {
        match sharded.get(label) {
            None => panic!("{context}: sharded run lost {label}"),
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
    assert_eq!(
        base.len(),
        sharded.len(),
        "{context}: sharded run fabricated patterns"
    );
}

/// The sharded run under test: candidate exchange on one thread over a
/// `t_ov = t_max` plan; the result is expressed in `plan.registry()`.
fn sharded_run(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    shards: usize,
) -> Result<(ShardPlan, MiningResult), String> {
    let plan = ShardPlanner::new(shards).plan(syb, split, cfg.relation.t_max)?;
    let (result, _) = plan.mine_exchange(cfg, 1);
    Ok((plan, result))
}

fn check(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    shards: usize,
    context: &str,
) {
    let seq = to_sequence_database(syb, split);
    let base = mine_exact(&seq, cfg);
    let (plan, sharded) = sharded_run(syb, split, cfg, shards)
        .unwrap_or_else(|e| panic!("{context}: plan failed: {e}"));
    assert_equivalent(
        &labelled(&base, seq.registry()),
        &labelled(&sharded, plan.registry()),
        context,
    );
    // Frequent single events agree too (by label).
    let base_l1: HashMap<&str, usize> = base
        .frequent_events
        .iter()
        .map(|&(e, s)| (seq.registry().label(e), s))
        .collect();
    let sharded_l1: HashMap<&str, usize> = sharded
        .frequent_events
        .iter()
        .map(|&(e, s)| (plan.registry().label(e), s))
        .collect();
    assert_eq!(base_l1, sharded_l1, "{context}: L1 events");
    // Boundary observability survives the merge.
    assert_eq!(
        base.stats.clipped_instances, sharded.stats.clipped_instances,
        "{context}: clipped_instances"
    );
    assert_eq!(
        base.stats.discarded_instances, sharded.stats.discarded_instances,
        "{context}: discarded_instances"
    );
}

fn true_extent_cfg(t_max: i64) -> MinerConfig {
    MinerConfig::new(0.3, 0.3)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent))
}

#[test]
fn k1_degenerate_case_matches_mine_exact_bit_for_bit() {
    let syb = random_syb(7, 3, 64, 5, 6);
    let split = SplitConfig::new(40, 20);
    let cfg = true_extent_cfg(20);
    let seq = to_sequence_database(&syb, split);
    let base = mine_exact(&seq, &cfg);
    let (plan, sharded) = sharded_run(&syb, split, &cfg, 1).expect("plan");
    assert_eq!(plan.shards().len(), 1);
    // One shard covering everything: identical content (the merge emits
    // in sorted order, so compare as maps plus exact counts).
    assert_eq!(base.len(), sharded.len(), "pattern count");
    assert_equivalent(
        &labelled(&base, seq.registry()),
        &labelled(&sharded, plan.registry()),
        "K=1",
    );
    assert_eq!(base.frequent_events.len(), sharded.frequent_events.len());
}

#[test]
fn sharded_equals_unsharded_across_policies_and_shard_counts() {
    let syb = random_syb(42, 3, 96, 5, 8);
    let split = SplitConfig::new(40, 20);
    for policy in [
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Clip,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(0.25, 0.25)
            .with_max_events(3)
            .with_relation(RelationConfig::new(0, 1, 20).with_boundary(policy));
        for shards in [2usize, 3, 4] {
            check(&syb, split, &cfg, shards, &format!("{policy} K={shards}"));
        }
    }
}

/// Regression: two instances tying on (start, end) break chronological
/// order by EventId, and a shard slice interns events in a different
/// order than the global conversion — so before shard databases were
/// remapped onto the global registry, the shard could bind the tied
/// pair in the opposite orientation and emit the mirrored pattern.
#[test]
fn tied_instances_bind_in_the_global_intern_order() {
    // 16 steps of 5 ticks, windows of 4 steps. V1=On shows up already in
    // window 0 while V0=On first appears in window 2 — so globally
    // id(V1=On) < id(V0=On), but shard 1's slice (starting at window 1)
    // meets V0=On first and would intern the ids the other way around.
    // Both are On exactly over steps 9..=10: identical extents [45, 55).
    let mut syb = SymbolicDatabase::new(0, 5, 16);
    let on_at = |steps: &[usize]| {
        (0..16)
            .map(|i| if steps.contains(&i) { "On" } else { "Off" })
            .collect::<Vec<_>>()
    };
    syb.push(SymbolicSeries::from_labels(
        "V0",
        Alphabet::on_off(),
        on_at(&[9, 10]),
    ));
    syb.push(SymbolicSeries::from_labels(
        "V1",
        Alphabet::on_off(),
        on_at(&[1, 9, 10]),
    ));
    let split = SplitConfig::new(20, 0);
    // sigma low enough that the single tied co-occurrence survives.
    let cfg = MinerConfig::new(0.2, 0.2)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 20).with_boundary(BoundaryPolicy::TrueExtent));
    let seq = to_sequence_database(&syb, split);
    let tied = "(V1=On Contain V0=On)";
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(
        base.contains_key(tied),
        "baseline must bind the tie as {tied}: {base:?}"
    );
    for shards in [2usize, 4] {
        let (plan, sharded) = sharded_run(&syb, split, &cfg, shards).expect("plan");
        assert_equivalent(
            &base,
            &labelled(&sharded, plan.registry()),
            &format!("tied instances K={shards}"),
        );
    }
}

#[test]
fn overlap_dedup_never_under_counts_and_naive_merge_over_counts() {
    // A=On [0,2), B=On [2,4) in every 4-step window: (A=On Follow B=On)
    // is supported by every window, so every duplicated overlap window
    // would be double-counted by a naive (ownership-blind) union.
    let mut syb = SymbolicDatabase::new(0, 5, 48);
    let a: Vec<&str> = ["On", "On", "Off", "Off"].repeat(12);
    let b: Vec<&str> = ["Off", "Off", "On", "On"].repeat(12);
    syb.push(SymbolicSeries::from_labels("A", Alphabet::on_off(), a));
    syb.push(SymbolicSeries::from_labels("B", Alphabet::on_off(), b));
    let split = SplitConfig::new(20, 0);
    let cfg = true_extent_cfg(20);

    let seq = to_sequence_database(&syb, split);
    let n_windows = seq.len();
    let base = mine_exact(&seq, &cfg);
    let base_map = labelled(&base, seq.registry());
    let follow = "(A=On Follow B=On)";
    assert_eq!(
        base_map
            .get(follow)
            .unwrap_or_else(|| panic!("baseline should find {follow}"))
            .0,
        n_windows,
        "the probe pattern is supported by every window"
    );

    let plan = ShardPlanner::new(3).plan(&syb, split, cfg.relation.t_max).expect("plan");
    // The deduplicating merge reproduces the baseline exactly.
    let (merged, _) = plan.mine_exchange(&cfg, 1);
    let merged_map = labelled(&merged, plan.registry());
    assert_equivalent(&base_map, &merged_map, "dedup merge");

    // Shards really do hold duplicated overlap windows...
    let duplicated: usize = plan
        .shards()
        .iter()
        .map(|s| s.owned.iter().filter(|&&o| !o).count())
        .sum();
    assert!(duplicated > 0, "overlapping slices must duplicate windows");
    // ...so the naive union (support counted over every window each
    // shard sees, ownership ignored) over-counts the probe pattern by
    // exactly the duplicated windows. This is the latent bug the merge's
    // dedup exists to prevent.
    let support_complete = MinerConfig {
        sigma: f64::MIN_POSITIVE,
        delta: f64::MIN_POSITIVE,
        ..cfg
    };
    let mut naive: HashMap<String, usize> = HashMap::new();
    for shard in plan.shards() {
        let result = mine_exact(&shard.db, &support_complete);
        for p in &result.patterns {
            *naive
                .entry(p.pattern.display(shard.db.registry()).to_string())
                .or_default() += p.support;
        }
    }
    assert_eq!(
        naive[follow],
        n_windows + duplicated,
        "naive ownership-blind union double-counts every overlap window"
    );
    // And dedup never under-counts: merged support matches the baseline
    // for every pattern while the naive union only ever inflates.
    for (label, (supp, _, _)) in &merged_map {
        assert!(
            naive.get(label).copied().unwrap_or(0) >= *supp,
            "naive union under-counted {label}"
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random series, random sigma/delta, K in {1, 2, 4}: sharded
        /// mining with TrueExtent and t_ov = t_max equals the unsharded
        /// baseline (patterns, supports, confidences, clipped counts).
        #[test]
        fn sharded_true_extent_equals_unsharded(
            seed in 0u64..40,
            vars in 2usize..4,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            shard_choice in 0usize..3,
            overlap_steps in 0usize..3,
            t_max_steps in 2i64..8,
        ) {
            let shards = [1usize, 2, 4][shard_choice];
            let step = 5i64;
            let syb = random_syb(seed, vars, 72, step, 7);
            let split = SplitConfig::new(8 * step, overlap_steps as i64 * step);
            let cfg = MinerConfig::new(sigma, delta)
                .with_max_events(3)
                .with_relation(
                    RelationConfig::new(0, 1, t_max_steps * step)
                        .with_boundary(BoundaryPolicy::TrueExtent),
                );
            let seq = to_sequence_database(&syb, split);
            let base = mine_exact(&seq, &cfg);
            let (plan, sharded) = sharded_run(&syb, split, &cfg, shards).expect("plan");
            let (bm, sm) = (
                labelled(&base, seq.registry()),
                labelled(&sharded, plan.registry()),
            );
            for (label, (supp, conf, clipped)) in &bm {
                let (s, c, cl) = sm
                    .get(label)
                    .unwrap_or_else(|| panic!("lost {label} (K={shards})"));
                prop_assert_eq!(supp, s, "support of {}", label);
                prop_assert!((conf - c).abs() < 1e-9, "confidence of {}", label);
                prop_assert_eq!(clipped, cl, "clipped count of {}", label);
            }
            prop_assert_eq!(bm.len(), sm.len(), "pattern count");
        }
    }
}
