//! Lossless merging of per-shard mining output — the seam between the
//! exchange executor and one downstream [`PatternSink`].
//!
//! A shard-by-time-range run (see [`crate::shard`]) mines K overlapping
//! slices of the data. Just summing per-shard supports would be wrong:
//! the slices overlap by `t_ov`, so windows inside an overlap region are
//! seen by *both* adjacent shards, and a naive union counts every such
//! window twice. Each shard therefore mines over an index masked to the
//! windows it *owns* (ownership partitions the window space — see
//! [`crate::DatabaseIndex::build_masked`]), so its supports are owned
//! supports, and this module sums those: each window contributes exactly
//! once. Shard databases speak the master registry (the planner remaps
//! them before mining), so no id translation is needed here.
//!
//! The accumulator keeps one compact counter pair per distinct pattern.
//! Patterns are *hash-consed*: the exchange gate interns every survivor
//! into a [`PatternPool`] by its [`crate::DeltaKey`], and statistics
//! accumulate in flat columns indexed by [`PatternId`], so a pattern seen
//! by all K shards is allocated once, not K times, and never re-hashed
//! vector-wide. [`ShardMerge::finish_into`] applies the global σ/δ
//! thresholds over the id-indexed columns and resolves only the
//! survivors back to full patterns, in one deterministic
//! (pattern-sorted) pass.

use std::sync::Arc;

use ftpm_events::{EventId, EventRegistry};

use crate::candidates::CONF_EPS;
use crate::config::MinerConfig;
use crate::pattern::Pattern;
use crate::pool::{PatternId, PatternPool};
use crate::result::{FrequentPattern, MiningStats};
use crate::sink::PatternSink;

/// Sums per-task / per-shard run counters into `into` — the single
/// stats-merge path shared by the mining loop's tasks, the exchange
/// workers' propose stages and the time-range shard merge.
pub(crate) fn merge_stats(into: &mut MiningStats, from: MiningStats) {
    for (i, v) in from.nodes_verified.into_iter().enumerate() {
        if into.nodes_verified.len() <= i {
            into.nodes_verified.push(0);
            into.nodes_kept.push(0);
            into.patterns_found.push(0);
        }
        into.nodes_verified[i] += v;
    }
    for (i, v) in from.nodes_kept.into_iter().enumerate() {
        if into.nodes_kept.len() <= i {
            into.nodes_kept.push(0);
        }
        into.nodes_kept[i] += v;
    }
    for (i, v) in from.patterns_found.into_iter().enumerate() {
        if into.patterns_found.len() <= i {
            into.patterns_found.push(0);
        }
        into.patterns_found[i] += v;
    }
    into.instance_checks += from.instance_checks;
    into.apriori_pruned += from.apriori_pruned;
    into.transitivity_pruned += from.transitivity_pruned;
    // Boundary counts describe the database, not per-shard work: they
    // are recorded once up front, and shard stats carry zeros.
    into.clipped_instances += from.clipped_instances;
    into.discarded_instances += from.discarded_instances;
}

/// Accumulated measures of one pattern across shards: owned supports and
/// owned clipped-occurrence counts simply add, because window ownership
/// partitions the global window space.
#[derive(Debug, Default, Clone, Copy)]
struct MergeEntry {
    support: usize,
    clipped_occurrences: usize,
}

/// Streaming union of per-shard pattern statistics, accumulated by
/// hash-consed [`PatternId`] instead of by owned [`Pattern`] key.
///
/// The exchange coordinator folds each round's surviving candidates in
/// by pool id, records the shards' owned single-event supports and run
/// counters, then calls [`ShardMerge::finish_into`] to apply the global
/// thresholds and emit the merged output into a downstream sink.
#[derive(Debug)]
pub struct ShardMerge {
    registry: Arc<EventRegistry>,
    /// Total owned windows across all shards — the global `|D_SEQ|`.
    n_sequences: usize,
    /// Owned single-event supports, indexed by master [`EventId`] — the
    /// confidence denominators of the merged output.
    event_supports: Vec<usize>,
    /// The master pattern pool: every distinct pattern any shard emitted,
    /// interned once. Roots cover the master registry, so raw event ids
    /// double as root pattern ids.
    pool: PatternPool,
    /// Per-pattern accumulators, aligned with `pool` ids (lazily grown —
    /// prefix entries created only as chain links carry no counts).
    entries: Vec<MergeEntry>,
    /// Ids that have received at least one emission, in first-touch
    /// order — the iteration set for [`ShardMerge::finish_into`].
    touched: Vec<PatternId>,
    stats: MiningStats,
}

impl ShardMerge {
    /// An empty merge over a master registry covering `n_sequences` owned
    /// windows in total. Accepts the registry by value or as a shared
    /// [`Arc`] (the shard planner hands every shard the same allocation).
    pub fn new(registry: impl Into<Arc<EventRegistry>>, n_sequences: usize) -> Self {
        let registry = registry.into();
        let event_supports = vec![0; registry.len()];
        let pool = PatternPool::with_roots(registry.len());
        ShardMerge {
            registry,
            n_sequences,
            event_supports,
            pool,
            entries: Vec::new(),
            touched: Vec::new(),
            stats: MiningStats::default(),
        }
    }

    /// The master registry merged patterns are expressed in.
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// Number of distinct patterns accumulated so far (before the global
    /// σ/δ filter).
    pub fn distinct_patterns(&self) -> usize {
        self.touched.len()
    }

    /// The master pattern pool (exchange-coordinator seam: the gate
    /// walks parent chains for confidence denominators and interns
    /// survivors by [`crate::pool::DeltaKey`]).
    pub(crate) fn pool(&self) -> &PatternPool {
        &self.pool
    }

    /// Mutable pool access for the exchange coordinator's survivor
    /// interning.
    pub(crate) fn pool_mut(&mut self) -> &mut PatternPool {
        &mut self.pool
    }

    /// Adds one shard's owned support of a single event (confidence
    /// denominator material).
    pub fn add_event_support(&mut self, event: EventId, support: usize) {
        self.event_supports[event.0 as usize] += support;
    }

    /// Folds owned statistics into the accumulator column of an interned
    /// pattern — the exchange gate lands here with an id, never a cloned
    /// pattern.
    pub(crate) fn add_by_id(&mut self, id: PatternId, support: usize, clipped: usize) {
        let at = id.0 as usize;
        if self.entries.len() <= at {
            self.entries.resize(self.pool.len().max(at + 1), MergeEntry::default());
        }
        let entry = &mut self.entries[at];
        if entry.support == 0 && entry.clipped_occurrences == 0 {
            self.touched.push(id);
        }
        entry.support += support;
        entry.clipped_occurrences += clipped;
    }

    /// Sums one shard's run counters into the merged work statistics.
    pub fn add_stats(&mut self, stats: MiningStats) {
        merge_stats(&mut self.stats, stats);
    }

    /// Overrides the boundary observability counters: per-shard counts
    /// include the duplicated overlap windows, so the exchange executor
    /// recounts them over owned windows only.
    pub fn set_boundary_counts(&mut self, clipped: u64, discarded: u64) {
        self.stats.clipped_instances = clipped;
        self.stats.discarded_instances = discarded;
    }

    /// Applies the *global* thresholds of `cfg` to the merged statistics
    /// and emits the surviving patterns into `sink`, sorted by pattern
    /// (events, then relations) so the merged output is deterministic
    /// regardless of shard emission interleaving. Only survivors are
    /// resolved from the pool back to full patterns — allocation is
    /// output-proportional. Returns the merged run statistics: work
    /// counters are summed across shards, while the per-level
    /// `patterns_found`/`nodes_kept` describe the merged final output.
    pub fn finish_into(self, cfg: &MinerConfig, sink: &mut dyn PatternSink) -> MiningStats {
        let ShardMerge {
            registry,
            n_sequences,
            event_supports,
            pool,
            entries,
            touched,
            mut stats,
        } = self;
        let sigma_abs = cfg.absolute_support(n_sequences);

        let l1: Vec<(EventId, usize)> = registry
            .ids()
            .filter(|e| event_supports[e.0 as usize] >= sigma_abs)
            .map(|e| (e, event_supports[e.0 as usize]))
            .collect();
        sink.begin(&l1);

        let mut rows: Vec<(Pattern, MergeEntry, f64)> = touched
            .into_iter()
            .filter_map(|id| {
                let entry = entries[id.0 as usize];
                if entry.support < sigma_abs {
                    return None;
                }
                let max_supp = pool
                    .events_rev(id)
                    .map(|e| event_supports[e.0 as usize])
                    .max()
                    // lint: allow(panic, structural invariant: patterns always hold at least one event)
                    .expect("patterns have events");
                if max_supp == 0 {
                    return None;
                }
                let confidence = entry.support as f64 / max_supp as f64;
                if confidence + CONF_EPS < cfg.delta {
                    return None;
                }
                Some((pool.resolve(id), entry, confidence))
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));

        stats.nodes_kept = Vec::new();
        stats.patterns_found = Vec::new();
        for (pattern, entry, confidence) in rows {
            let k = pattern.len();
            while stats.patterns_found.len() < k - 1 {
                stats.patterns_found.push(0);
                stats.nodes_kept.push(0);
            }
            stats.patterns_found[k - 2] += 1;
            stats.nodes_kept[k - 2] += 1;
            let events = pattern.events().to_vec();
            let fp = FrequentPattern {
                pattern,
                support: entry.support,
                rel_support: entry.support as f64 / n_sequences.max(1) as f64,
                confidence,
                clipped_occurrences: entry.clipped_occurrences,
            };
            sink.node(events, entry.support, k, vec![fp]);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::TemporalRelation;
    use ftpm_timeseries::{SymbolId, VariableId};

    use crate::sink::CollectSink;

    fn registry(labels: &[&str]) -> EventRegistry {
        let mut reg = EventRegistry::new();
        for (i, l) in labels.iter().enumerate() {
            reg.intern(VariableId(i as u32), SymbolId(1), || (*l).to_owned());
        }
        reg
    }

    /// Folds one shard's owned statistics of `(e1 Follow e2)` into the
    /// merge, the way the exchange gate folds in a survivor.
    fn add(merge: &mut ShardMerge, e1: u32, e2: u32, support: usize, clipped: usize) {
        let pattern = Pattern::pair(EventId(e1), TemporalRelation::Follow, EventId(e2));
        let id = merge.pool_mut().intern(&pattern);
        merge.add_by_id(id, support, clipped);
    }

    /// Owned statistics arrive keyed by pool id and leave, translated
    /// back to patterns, only for the globally frequent survivors.
    #[test]
    fn merge_translates_ids_sums_owned_supports_and_filters() {
        let master = registry(&["A", "B"]);
        let mut merge = ShardMerge::new(master, 8);
        // Shard 0 and shard 1 both see A->B; shard 1 also sees B->A,
        // which stays below the global sigma and is dropped by finish.
        add(&mut merge, 0, 1, 3, 1);
        add(&mut merge, 0, 1, 2, 0);
        add(&mut merge, 1, 0, 1, 0);
        merge.add_event_support(EventId(0), 5);
        merge.add_event_support(EventId(0), 3);
        merge.add_event_support(EventId(1), 6);
        assert_eq!(merge.distinct_patterns(), 2);

        let cfg = MinerConfig::new(0.5, 0.5); // sigma_abs = 4 of 8
        let mut out = CollectSink::new();
        let stats = merge.finish_into(&cfg, &mut out);
        let result = out.into_result(stats);
        assert_eq!(result.len(), 1, "only the summed A->B survives");
        let p = &result.patterns[0];
        assert_eq!(p.support, 5, "3 + 2 owned windows");
        assert_eq!(p.clipped_occurrences, 1);
        assert!((p.confidence - 5.0 / 8.0).abs() < 1e-12);
        assert!((p.rel_support - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(result.frequent_events, vec![(EventId(0), 8), (EventId(1), 6)]);
        assert_eq!(result.stats.patterns_found, vec![1]);
    }

    #[test]
    fn finish_applies_confidence_with_tolerance() {
        let master = registry(&["A", "B"]);
        let mut merge = ShardMerge::new(master, 10);
        add(&mut merge, 0, 1, 7, 0);
        merge.add_event_support(EventId(0), 10);
        merge.add_event_support(EventId(1), 7);
        // conf = 7/10 must pass delta = 0.7 despite float noise.
        let cfg = MinerConfig::new(0.1, 0.7);
        let mut out = CollectSink::new();
        let stats = merge.finish_into(&cfg, &mut out);
        assert_eq!(out.into_result(stats).len(), 1);
    }

    #[test]
    fn same_pattern_from_two_shards_interns_once() {
        let master = registry(&["A", "B"]);
        let mut merge = ShardMerge::new(master, 4);
        add(&mut merge, 0, 1, 1, 0);
        let pooled = merge.pool().len();
        add(&mut merge, 0, 1, 2, 0);
        assert_eq!(merge.pool().len(), pooled, "second emission is a pool hit");
        assert_eq!(merge.distinct_patterns(), 1);
    }
}
