//! E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining
//! (paper Section IV, Algorithm 1).
//!
//! Mining proceeds level by level. L1 finds frequent single events with
//! one bitmap scan. L2 verifies event pairs: the Apriori filter (Lemmas
//! 2–3) discards pairs whose joint-bitmap support/confidence already
//! misses the thresholds, and the survivors have their instance pairs
//! checked against the relation model. Level `k ≥ 3` grows each
//! pattern-bearing node of level `k−1` by one event that is
//! chronologically last, using the transitivity property (Lemmas 4–7):
//! only single events that appear at level `k−1` are candidates, a node
//! extension is skipped outright when some node event has no frequent
//! relation at all with the new event (Lemma 5), and an individual
//! occurrence extension dies as soon as one of its new triples is not a
//! frequent, high-confidence 2-event pattern (Lemmas 6–7).
//!
//! L1, L2 and the scheduling of the growth below them run in
//! [`crate::parallel`]'s one mining loop, which these entry points call
//! at one thread. This module holds the per-node growth
//! step that loop and the exchange executor share ([`grow_candidates`],
//! [`extend_node`], [`GrowContext`], [`archive_node`]). Candidate gating
//! (the Apriori support/confidence bounds and the L2 verification step)
//! lives in [`crate::candidates`]; output flows through a [`PatternSink`]
//! (see [`crate::sink`]) so finished nodes can be collected, counted or
//! streamed without materializing a global pattern `Vec`.
//!
//! Performance notes: frequent 2-event relations are kept as a dense
//! `events × events` bitmask table (no hashing on the hot path), and the
//! relation column of a candidate extension is packed into a `u64` (2
//! bits per relation) that doubles as the grouping key — both are part of
//! the "efficient data structures" story the paper tells about HTPGM.
//! Verifying a candidate allocates nothing: every buffer it needs — the
//! candidate batch, the joint bitmap, one occurrence group per relation
//! code, the decoded relation column — lives in a [`GrowScratch`] that
//! one worker task reuses for every node it grows. Only a surviving
//! child allocates (its events, joint bitmap, arena and patterns); on
//! the `deep_patterns` benchmark that is 8.8 allocations per emitted
//! pattern, down from 78.7 when each of the ~6.5M verified candidates
//! built its own map, bitmaps and arenas.

use std::marker::PhantomData;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase, TemporalRelation};

use crate::candidates::{apriori_gate, passes_thresholds, PairRelations, WorkNode, WorkPattern};
use crate::config::MinerConfig;
use crate::index::DatabaseIndex;
use crate::occ::OccArena;
use crate::parallel::mine_internal;
use crate::pool::{decode_column, pack_relation, FnvHashMap, PatternId};
use crate::result::{FrequentPattern, MiningResult, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// Patterns longer than this cannot pack their relation column into the
/// u64 grouping key; in practice level-wise mining never gets anywhere
/// near it.
pub(crate) const MAX_EVENTS_HARD_CAP: usize = 32;

/// Mines all frequent temporal patterns of `db` — `E-HTPGM`.
///
/// Returns every pattern `P` with `supp(P) ≥ ⌈σ·|D_SEQ|⌉` and
/// `conf(P) ≥ δ`, plus the frequent single events and run statistics.
///
/// # Examples
///
/// See the crate-level example.
pub fn mine_exact(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    let mut sink = CollectSink::new();
    let stats = mine_exact_with_sink(db, cfg, &mut sink);
    sink.into_result(stats)
}

/// Mines like [`mine_exact`], but emits each finished Hierarchical
/// Pattern Graph node into `sink` instead of materializing a
/// [`MiningResult`] — the full pattern result is never built up in
/// memory. (Mining working state is still held while needed: all L2
/// nodes exist at once during candidate generation, and a node's
/// occurrence bindings live until its subtree is grown.) Returns the
/// run statistics.
pub fn mine_exact_with_sink(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    mine_internal(db, cfg, 1, None, sink, None)
}

/// Reusable working memory of the grow loop, one per worker task and
/// reused for every node that task grows. It holds every buffer a
/// candidate verification needs, so verifying a candidate allocates
/// nothing unless the candidate survives — a surviving child allocates
/// only its own events, joint bitmap, occurrence arena and patterns.
/// Buffers are reset in place and only ever grow; one scratch serves
/// nodes of any width over databases of any size. `'i` is the borrow of
/// the [`DatabaseIndex`] whose event bitmaps the candidate batch reads.
pub(crate) struct GrowScratch<'i> {
    /// Lemma 5 survivors of the node being grown.
    cands: Vec<EventId>,
    /// Their event bitmaps, for the one fused AND+popcount pass.
    partners: Vec<&'i Bitmap>,
    /// Joint support of the node with each of `cands`.
    joint_supps: Vec<usize>,
    /// Packed relation code → slot in `groups`; cleared once per parent
    /// pattern, so its length is the number of live groups.
    slot_of: FnvHashMap<u64, usize>,
    /// Occurrence accumulators, one per relation code in the order the
    /// codes are first seen; only the first `slot_of.len()` are live.
    groups: Vec<OccGroup>,
    /// Joint bitmap of the node and the candidate being verified.
    joint: Bitmap,
    /// A surviving group's relation column, decoded for `Pattern::extend`.
    column: Vec<TemporalRelation>,
}

/// Occurrences of one parent pattern extended with one relation column:
/// the packed code, the supporting-sequence bitmap and the bound tuples,
/// spliced into the child node's arena if the group survives the
/// thresholds.
struct OccGroup {
    code: u64,
    bitmap: Bitmap,
    occs: OccArena,
}

impl GrowScratch<'_> {
    /// An empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        GrowScratch {
            cands: Vec::new(),
            partners: Vec::new(),
            joint_supps: Vec::new(),
            slot_of: FnvHashMap::default(),
            groups: Vec::new(),
            joint: Bitmap::new(0),
            column: Vec::new(),
        }
    }
}

/// Step 3.2: extend each frequent pattern of `node` with one instance of
/// `ek` that is chronologically last, verifying the new triples
/// iteratively (and pruning through L2 when transitivity pruning is on).
/// The joint bitmap of `node` and `ek` is `scratch.joint`.
#[expect(
    clippy::too_many_arguments,
    reason = "the grow loop's read-only context, passed without a wrapper struct"
)]
pub(crate) fn extend_node<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    ek: EventId,
    joint_supp: usize,
    max_supp: usize,
    sigma_abs: usize,
    pair_relations: &PairRelations,
    scratch: &mut GrowScratch<'_>,
) -> Option<WorkNode> {
    let n_seqs = db.len();
    let rel = &cfg.relation;
    let width = node.events.len() + 1;
    let mut new_patterns: Vec<WorkPattern> = Vec::new();
    let mut child_occs = OccArena::new(width);
    let GrowScratch {
        slot_of,
        groups,
        joint,
        column,
        ..
    } = scratch;

    for parent in &node.patterns {
        // Group candidate extensions by their packed relation column
        // (r(E_1,E_k), …, r(E_{k-1},E_k)).
        slot_of.clear();
        for oi in parent.occurrences.iter() {
            let seq_id = node.occs.seq(oi);
            if !joint.get(seq_id as usize) {
                continue;
            }
            let tuple = node.occs.tuple(oi);
            let seq = &db.sequences()[seq_id as usize];
            // Bound instances passed the boundary policy when the parent
            // occurrence was built, so their effective interval exists.
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: binding members passed the boundary policy on entry"
            )]
            let bound_iv = |ti: u32| {
                K::interval(&seq.instances()[ti as usize])
                    .expect("bound instances pass the boundary policy")
            };
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: the binding is non-empty on this path"
            )]
            let last_key =
                K::key(&seq.instances()[*tuple.last().expect("non-empty") as usize]);
            let first_start = bound_iv(tuple[0]).start;
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: the binding is non-empty on this path"
            )]
            let tuple_max_end = tuple
                .iter()
                .map(|&ti| bound_iv(ti).end)
                .max()
                .expect("non-empty");
            for &xi in index.instances_in(seq_id as usize, ek) {
                let x = &seq.instances()[xi as usize];
                let Some(x_iv) = K::interval(x) else {
                    continue;
                };
                // The new instance must be chronologically last so each
                // occurrence is enumerated exactly once (Lemma 4 adds the
                // new instance at the end of the sequence order).
                if K::key(x) <= last_key {
                    continue;
                }
                stats.instance_checks += 1;
                let max_end = tuple_max_end.max(x_iv.end);
                if !rel.within_t_max(first_start, max_end) {
                    continue;
                }
                let mut code = 0u64;
                let mut ok = true;
                for (pos, &ti) in tuple.iter().enumerate() {
                    match rel.relate(&bound_iv(ti), &x_iv) {
                        Some(r) => {
                            // Lemmas 4–7: the triple (E_pos, r, E_k) must
                            // itself be a frequent, confident 2-event
                            // pattern, or this extension cannot yield one.
                            if cfg.pruning.transitivity
                                && !pair_relations.contains(node.events[pos], r, ek)
                            {
                                stats.transitivity_pruned += 1;
                                ok = false;
                                break;
                            }
                            code = pack_relation(code, r);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let fresh = slot_of.len();
                let slot = *slot_of.entry(code).or_insert(fresh);
                if slot == fresh {
                    // First sighting of this column: recycle a group
                    // past the live ones, or grow the pool by one.
                    if let Some(group) = groups.get_mut(slot) {
                        group.code = code;
                        group.bitmap.reset(n_seqs);
                        group.occs.reset(width);
                    } else {
                        groups.push(OccGroup {
                            code,
                            bitmap: Bitmap::new(n_seqs),
                            occs: OccArena::new(width),
                        });
                    }
                }
                let group = &mut groups[slot];
                group.bitmap.set(seq_id as usize);
                group.occs.push_extend(seq_id, tuple, xi);
            }
        }
        for group in &groups[..slot_of.len()] {
            let support = group.bitmap.count_ones();
            let Some(confidence) =
                passes_thresholds(support, max_supp, sigma_abs, cfg.delta)
            else {
                continue;
            };
            decode_column(group.code, node.events.len(), column);
            new_patterns.push(WorkPattern {
                pattern: parent.pattern.extend(ek, column),
                support,
                confidence,
                occurrences: child_occs.append_from(&group.occs, group.occs.since(0)),
                id: PatternId::NONE,
                parent_id: parent.id,
                code: group.code,
            });
        }
    }

    if new_patterns.is_empty() {
        return None;
    }
    let mut events = Vec::with_capacity(node.events.len() + 1);
    events.extend_from_slice(&node.events);
    events.push(ek);
    Some(WorkNode {
        events,
        bitmap: joint.clone(),
        support: joint_supp,
        patterns: new_patterns,
        occs: child_occs,
    })
}

/// Tries every candidate last event `ek` for `node` (level `k` in event
/// count for the children) and returns the surviving children — the
/// candidate-extension loop shared by the depth-first
/// [`GrowContext::grow_node`] and the exchange executor's propose stage
/// (which passes local `sigma_abs = 1` so only empty joints are gated).
/// Keeping one copy is load-bearing: the two paths must stay
/// semantically identical for the exchange's bit-identical-output
/// guarantee. `stats` must already have level slots up to `k - 1`.
/// All working memory comes from `scratch`; only surviving children
/// allocate.
#[expect(
    clippy::too_many_arguments,
    reason = "the grow loop's read-only context, passed without a wrapper struct"
)]
pub(crate) fn grow_candidates<'i, K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &'i DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    pair_relations: &PairRelations,
    sigma_abs: usize,
    k: usize,
    scratch: &mut GrowScratch<'i>,
) -> Vec<WorkNode> {
    // Phase 1 — per-node Lemma 5 screen: every node event must form at
    // least one frequent relation with ek, or no k-event pattern over
    // this combination can be frequent.
    scratch.cands.clear();
    'candidates: for &ek in freq_events {
        if cfg.pruning.transitivity {
            for &e in &node.events {
                if !pair_relations.any(e, ek) {
                    stats.transitivity_pruned += 1;
                    continue 'candidates;
                }
            }
        }
        scratch.cands.push(ek);
    }

    // Phase 2 — fused AND+popcount over all survivors in one pass
    // ([`Bitmap::and_count_many`] re-reads the node bitmap once per
    // 32-word block instead of once per candidate). Pruned candidates
    // never touch the joint bitmap.
    scratch.partners.clear();
    scratch
        .partners
        .extend(scratch.cands.iter().map(|&ek| index.bitmap(ek)));
    node.bitmap
        .and_count_many(&scratch.partners, &mut scratch.joint_supps);

    // Phase 3 — Apriori gate + instance verification per survivor. The
    // node's own events bound max_supp the same way for every ek.
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: HPG nodes always hold at least one event"
    )]
    let node_max_supp = node
        .events
        .iter()
        .map(|&e| index.support(e))
        .max()
        .expect("nodes have events");
    let mut children: Vec<WorkNode> = Vec::new();
    for c in 0..scratch.cands.len() {
        let (ek, joint_supp) = (scratch.cands[c], scratch.joint_supps[c]);
        let max_supp = node_max_supp.max(index.support(ek));
        if !apriori_gate(cfg, sigma_abs, joint_supp, max_supp, stats) {
            continue;
        }
        node.bitmap.and_into(index.bitmap(ek), &mut scratch.joint);
        stats.nodes_verified[k - 2] += 1;
        if let Some(child) = extend_node::<K>(
            db,
            index,
            cfg,
            stats,
            node,
            ek,
            joint_supp,
            max_supp,
            sigma_abs,
            pair_relations,
            scratch,
        ) {
            stats.nodes_kept[k - 2] += 1;
            stats.patterns_found[k - 2] += child.patterns.len();
            children.push(child);
        }
    }
    children
}

/// Depth-first growth of the Hierarchical Pattern Graph below L2.
pub(crate) struct GrowContext<'a, K: BoundaryKernel> {
    pub(crate) db: &'a SequenceDatabase,
    pub(crate) cfg: &'a MinerConfig,
    pub(crate) index: &'a DatabaseIndex,
    pub(crate) pair_relations: &'a PairRelations,
    pub(crate) freq_events: &'a [EventId],
    pub(crate) sigma_abs: usize,
    pub(crate) max_events: usize,
    pub(crate) stats: &'a mut MiningStats,
    pub(crate) sink: &'a mut dyn PatternSink,
    /// The task's grow scratch, reused by every node of the subtree.
    pub(crate) scratch: GrowScratch<'a>,
    /// Whether the database contains any boundary-clipped instance —
    /// lets [`archive_node`] skip the per-occurrence artifact scan when
    /// every count would be 0.
    pub(crate) db_has_clipped: bool,
    /// The monomorphized boundary kernel (fixed at dispatch).
    pub(crate) kernel: PhantomData<K>,
}

impl<K: BoundaryKernel> GrowContext<'_, K> {
    /// Archives `node` (level `k − 1` in event count) and tries every
    /// candidate last event for level `k`. The node's occurrence
    /// bindings die when this frame returns.
    pub(crate) fn grow_node(&mut self, node: WorkNode, k: usize) {
        if k > self.max_events {
            archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
            return;
        }
        while self.stats.nodes_verified.len() < k - 1 {
            self.stats.nodes_verified.push(0);
            self.stats.nodes_kept.push(0);
            self.stats.patterns_found.push(0);
        }
        let children = grow_candidates::<K>(
            self.db,
            self.index,
            self.cfg,
            self.stats,
            &node,
            self.freq_events,
            self.pair_relations,
            self.sigma_abs,
            k,
            &mut self.scratch,
        );
        // The parent's occurrences are no longer needed once all its
        // children have been generated.
        archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
        for child in children {
            self.grow_node(child, k + 1);
        }
    }
}

/// Emits a finished node into the sink, dropping occurrence bindings.
/// `k` is the node's event count; its level slot is `k - 2`. Before the
/// bindings die, each pattern counts how many of its occurrences touch a
/// boundary-clipped instance — the per-pattern artifact measure exported
/// through the sinks. `db_has_clipped` (false for unsplit or
/// cleanly-tiled databases) skips that occurrence scan on the hot
/// archive path when the answer can only be 0.
pub(crate) fn archive_node(
    sink: &mut dyn PatternSink,
    db: &SequenceDatabase,
    db_has_clipped: bool,
    node: WorkNode,
    k: usize,
) {
    let n_seqs = db.len();
    let WorkNode {
        events,
        bitmap: _,
        support: node_support,
        patterns,
        occs,
    } = node;
    let count_clipped = |oi: usize| {
        let insts = db.sequences()[occs.seq(oi) as usize].instances();
        occs.tuple(oi)
            .iter()
            .any(|&ti| insts[ti as usize].is_clipped())
    };
    let patterns: Vec<FrequentPattern> = patterns
        .into_iter()
        .map(|wp| {
            let clipped_occurrences = if !db_has_clipped {
                0
            } else {
                wp.occurrences.iter().filter(|&oi| count_clipped(oi)).count()
            };
            FrequentPattern {
                pattern: wp.pattern,
                support: wp.support,
                rel_support: wp.support as f64 / n_seqs.max(1) as f64,
                confidence: wp.confidence,
                clipped_occurrences,
            }
        })
        .collect();
    sink.node(events, node_support, k, patterns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_datagen::random_sequence_database;
    use ftpm_events::ClipKernel;

    use crate::candidates::L2Engine;
    use crate::pattern::Pattern;

    /// The level-2 nodes of `db` and the relation table they imply.
    fn level2(
        db: &SequenceDatabase,
        index: &DatabaseIndex,
        cfg: &MinerConfig,
    ) -> (Vec<EventId>, Vec<WorkNode>, PairRelations) {
        let sigma_abs = cfg.absolute_support(db.len());
        let freq: Vec<EventId> = db
            .registry()
            .ids()
            .filter(|&e| index.support(e) >= sigma_abs)
            .collect();
        let engine = L2Engine::<ClipKernel> {
            db,
            index,
            cfg,
            sigma_abs,
            kernel: PhantomData,
        };
        let mut stats = MiningStats::default();
        stats.nodes_verified.push(0);
        let nodes: Vec<WorkNode> = freq
            .iter()
            .flat_map(|&ei| freq.iter().map(move |&ej| (ei, ej)))
            .filter_map(|(ei, ej)| engine.try_pair(ei, ej, &mut stats))
            .collect();
        let mut pairs = PairRelations::new(db.registry().len());
        for node in &nodes {
            for p in &node.patterns {
                pairs.insert(node.events[0], p.pattern.relations()[0], node.events[1]);
            }
        }
        (freq, nodes, pairs)
    }

    /// A grown pattern: pattern, support, confidence, occurrence tuples.
    type ObservedPattern = (Pattern, usize, f64, Vec<(u32, Vec<u32>)>);
    /// A grown child: events, joint bitmap, support, patterns.
    type ObservedNode = (Vec<EventId>, Bitmap, usize, Vec<ObservedPattern>);

    fn observe(children: &[WorkNode]) -> Vec<ObservedNode> {
        children
            .iter()
            .map(|c| {
                let patterns = c
                    .patterns
                    .iter()
                    .map(|wp| {
                        let occs = wp
                            .occurrences
                            .iter()
                            .map(|oi| (c.occs.seq(oi), c.occs.tuple(oi).to_vec()))
                            .collect();
                        (wp.pattern.clone(), wp.support, wp.confidence, occs)
                    })
                    .collect();
                (c.events.clone(), c.bitmap.clone(), c.support, patterns)
            })
            .collect()
    }

    /// Grows `node` with `scratch`, returning its children.
    fn grow<'i>(
        db: &SequenceDatabase,
        index: &'i DatabaseIndex,
        cfg: &MinerConfig,
        freq: &[EventId],
        pairs: &PairRelations,
        node: &WorkNode,
        scratch: &mut GrowScratch<'i>,
    ) -> Vec<WorkNode> {
        let k = node.events.len() + 1;
        let mut stats = MiningStats::default();
        for _ in 0..k - 1 {
            stats.nodes_verified.push(0);
            stats.nodes_kept.push(0);
            stats.patterns_found.push(0);
        }
        let sigma_abs = cfg.absolute_support(db.len());
        grow_candidates::<ClipKernel>(
            db, index, cfg, &mut stats, node, freq, pairs, sigma_abs, k, scratch,
        )
    }

    #[test]
    fn dirty_scratch_grows_the_same_children_as_a_fresh_one() {
        let cfg = MinerConfig::new(0.2, 0.2);
        // Two databases with different window counts.
        let db_a = random_sequence_database(3, 40, 4, 4, 40);
        let db_b = random_sequence_database(11, 150, 5, 5, 40);
        let index_a = DatabaseIndex::build(&db_a);
        let index_b = DatabaseIndex::build(&db_b);
        let (freq_a, nodes_a, pairs_a) = level2(&db_a, &index_a, &cfg);
        let (freq_b, nodes_b, pairs_b) = level2(&db_b, &index_b, &cfg);

        let mut dirty = GrowScratch::new();
        // Dirty the scratch with width-3 and width-4 groups over db_b's
        // universe.
        let mut dirtied = 0;
        for node in &nodes_b {
            for child in grow(&db_b, &index_b, &cfg, &freq_b, &pairs_b, node, &mut dirty) {
                dirtied += 1;
                grow(&db_b, &index_b, &cfg, &freq_b, &pairs_b, &child, &mut dirty);
            }
        }
        assert!(dirtied > 0, "db_b must grow level-3 children");

        let mut grown = 0;
        for node in &nodes_a {
            let fresh = grow(
                &db_a,
                &index_a,
                &cfg,
                &freq_a,
                &pairs_a,
                node,
                &mut GrowScratch::new(),
            );
            let reused = grow(&db_a, &index_a, &cfg, &freq_a, &pairs_a, node, &mut dirty);
            grown += fresh.len();
            assert_eq!(observe(&fresh), observe(&reused));
        }
        assert!(grown > 0, "db_a must grow level-3 children");
    }

    #[test]
    fn relation_column_roundtrip() {
        use ftpm_events::TemporalRelation::*;
        for column in [
            vec![Follow],
            vec![Contain, Overlap],
            vec![Follow, Follow, Contain, Overlap, Follow],
            vec![Overlap; 31],
        ] {
            let mut code = 0u64;
            for &r in &column {
                code = pack_relation(code, r);
            }
            let mut decoded = Vec::new();
            decode_column(code, column.len(), &mut decoded);
            assert_eq!(decoded, column);
        }
    }
}
