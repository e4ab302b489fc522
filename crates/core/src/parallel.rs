//! The one E-HTPGM mining loop, at any thread count.
//!
//! HTPGM parallelizes naturally along the Hierarchical Pattern Graph:
//! L2 candidate pairs are independent of each other, and from L3 onward
//! every L2 node's subtree grows independently of its siblings (the only
//! cross-node structure, the frequent-relation table of Lemmas 4–7, is
//! complete once L2 is done and read-only afterwards). [`mine_internal`]
//! runs both phases on the scoped work-stealing [`par_for_each`], driving
//! the [`crate::candidates`] engine and the growth step of
//! [`crate::exact`], and emits finished nodes into a shared
//! [`PatternSink`]. One thread is the degenerate case — an inline loop,
//! no spawn — and is what [`crate::mine_exact`] runs. With more threads,
//! node emission interleaves across workers, so the order is not
//! deterministic run to run, but the set, supports and confidences are
//! (asserted by the equivalence tests, and across seeded interleavings
//! by the [`crate::schedule`] harness). Run statistics are summed across
//! tasks.
//!
//! Panic discipline: a panicking task must neither deadlock the pool nor
//! silently drop sibling results. All scopes therefore join *every*
//! worker before re-raising the first panic payload (see [`join_all`]),
//! and lock acquisitions recover from poisoning — the panic is already
//! being propagated at the join; cascading a second one out of a
//! poisoned `Mutex` would only mask it.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the worker pool: threads, channels and shared state live here"
)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ScopedJoinHandle;

use ftpm_events::{BoundaryKernel, BoundaryVisit, EventId, SequenceDatabase};

use crate::candidates::{CorrelationFilter, L2Engine, PairRelations, WorkNode};
use crate::config::MinerConfig;
use crate::exact::{GrowContext, GrowScratch, MAX_EVENTS_HARD_CAP};
use crate::index::DatabaseIndex;
use crate::merge::merge_stats;
use crate::result::{MiningResult, MiningStats};
use crate::schedule::{Retire, SimCtl};
use crate::sink::{CollectSink, PatternSink};

/// Mines exactly like [`crate::mine_exact`], distributing the work over
/// `n_threads` OS threads. The pattern set, supports and confidences are
/// identical to the single-threaded miner; only the order differs.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn mine_exact_parallel(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
) -> MiningResult {
    let mut sink = CollectSink::new();
    let stats = mine_exact_parallel_with_sink(db, cfg, n_threads, &mut sink);
    sink.into_result(stats)
}

/// Multi-threaded counterpart of [`crate::mine_exact_with_sink`]: mines
/// with `n_threads` workers that emit finished Hierarchical Pattern Graph
/// nodes into the shared `sink` as they complete (each emission is
/// atomic, but emissions interleave across workers). The streaming path
/// never materializes the full pattern result; emitted-pattern memory is
/// bounded per task by the emission batch plus one node, though L2
/// working state (all L2 nodes with their occurrence bindings) is still
/// held during candidate generation, as at one thread.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn mine_exact_parallel_with_sink(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    mine_internal(db, cfg, n_threads, None, sink, None)
}

/// Joins every handle, then re-raises the first panic payload if any
/// worker panicked. Joining everything first is what keeps a panicking
/// task from silently discarding its siblings' results (they have all
/// been produced by the time the panic propagates) and what lets the
/// scheduled mode drain its sequencer cleanly before unwinding.
fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(handles.len());
    let mut first_panic = None;
    for handle in handles {
        match handle.join() {
            Ok(value) => results.push(value),
            Err(payload) => first_panic = first_panic.or(Some(payload)),
        }
    }
    if let Some(payload) = first_panic {
        // Re-raise the original payload rather than panicking with a
        // generic message, so callers see the true failure.
        std::panic::resume_unwind(payload);
    }
    results
}

/// Recovers a lock even when a worker panicked while holding it: the
/// panic is already propagating via [`join_all`], and these critical
/// sections leave no half-written state a sibling could observe (slot
/// mutexes guard disjoint items; the sink lock batches whole nodes).
fn lock_clean<'a, T: ?Sized>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many L2 candidate pairs one task claims. Batching keeps the
/// claim overhead low while leaving enough tasks to balance workers
/// when a few pairs dominate the cost.
const L2_CHUNK: usize = 16;

/// The one mining loop (Alg. 1, gated by `corr` for A-HTPGM's Alg. 2)
/// behind every unsharded entry point: [`crate::mine_exact`] and its
/// sink variant run it at one thread, [`mine_exact_parallel_with_sink`]
/// and the approximate miners at `n_threads`, and — with `sched` set —
/// [`crate::Schedule::mine_parallel`], where every task claim goes
/// through the seeded sequencer instead of racing on the atomic alone.
/// Both phases run on [`par_for_each`], so one thread is a plain inline
/// loop that spawns nothing.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub(crate) fn mine_internal(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
    corr: Option<&CorrelationFilter<'_>>,
    sink: &mut (dyn PatternSink + Send),
    sched: Option<&SimCtl>,
) -> MiningStats {
    #[expect(clippy::panic, reason = "documented # Panics contract: thread count floor")]
    if n_threads == 0 {
        panic!("need at least one thread");
    }
    // Monomorphization seam: fix the boundary kernel once per run, so
    // every instance-level decision below compiles branch-free.
    struct Run<'a, 'b, 'c> {
        db: &'a SequenceDatabase,
        cfg: &'a MinerConfig,
        n_threads: usize,
        corr: Option<&'a CorrelationFilter<'c>>,
        sink: &'a mut (dyn PatternSink + Send),
        sched: Option<&'b SimCtl>,
    }
    impl BoundaryVisit for Run<'_, '_, '_> {
        type Out = MiningStats;
        fn visit<K: BoundaryKernel>(self) -> MiningStats {
            mine_internal_k::<K>(
                self.db,
                self.cfg,
                self.n_threads,
                self.corr,
                self.sink,
                self.sched,
            )
        }
    }
    cfg.relation.boundary.dispatch(Run {
        db,
        cfg,
        n_threads,
        corr,
        sink,
        sched,
    })
}

/// [`mine_internal`], monomorphized over the boundary kernel.
fn mine_internal_k<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
    corr: Option<&CorrelationFilter<'_>>,
    sink: &mut (dyn PatternSink + Send),
    sched: Option<&SimCtl>,
) -> MiningStats {
    let sigma_abs = cfg.absolute_support(db.len());
    let max_events = cfg.max_events.min(MAX_EVENTS_HARD_CAP);
    let index = DatabaseIndex::build_with_policy(db, cfg.relation.boundary);

    // ---- L1: frequent single events (Alg. 1 lines 1–4) ----
    let freq_events: Vec<EventId> = db
        .registry()
        .ids()
        .filter(|&e| corr.is_none_or(|c| c.allows_event(e)))
        .filter(|&e| index.support(e) >= sigma_abs)
        .collect();
    let l1: Vec<(EventId, usize)> = freq_events
        .iter()
        .map(|&e| (e, index.support(e)))
        .collect();
    sink.begin(&l1);

    // ---- L2: frequent 2-event patterns (Alg. 1 lines 5–14), claimed in
    // chunks of candidate pairs ----
    let engine = L2Engine::<K> {
        db,
        index: &index,
        cfg,
        sigma_abs,
        kernel: PhantomData,
    };
    let pairs: Vec<(EventId, EventId)> = freq_events
        .iter()
        .flat_map(|&ei| freq_events.iter().map(move |&ej| (ei, ej)))
        .filter(|&(ei, ej)| corr.is_none_or(|c| c.allows_pair(ei, ej)))
        .collect();
    let mut chunks: Vec<_> = pairs
        .chunks(L2_CHUNK)
        .map(|chunk| (chunk, Vec::new(), MiningStats::default()))
        .collect();
    par_for_each(&mut chunks, n_threads, sched, |_, (chunk, nodes, stats)| {
        stats.nodes_verified.push(0);
        for &(ei, ej) in chunk.iter() {
            if let Some(node) = engine.try_pair(ei, ej, stats) {
                nodes.push(node);
            }
        }
    });

    let mut stats = MiningStats::default();
    record_boundary_stats(db, cfg, &mut stats);
    let db_has_clipped = stats.clipped_instances > 0;
    stats.nodes_verified.push(0);
    stats.nodes_kept.push(0);
    stats.patterns_found.push(0);
    // Chunks keep pair order, so L2 comes out in canonical (events)
    // order whatever the interleaving was.
    let mut level2: Vec<WorkNode> = Vec::new();
    for (_, nodes, chunk_stats) in chunks {
        merge_stats(&mut stats, chunk_stats);
        level2.extend(nodes);
    }
    stats.nodes_kept[0] = level2.len();
    stats.patterns_found[0] = level2.iter().map(|n| n.patterns.len()).sum();

    let mut pair_relations = PairRelations::new(db.registry().len());
    for node in &level2 {
        for p in &node.patterns {
            pair_relations.insert(node.events[0], p.pattern.relations()[0], node.events[1]);
        }
    }

    // ---- Lk (k >= 3): grow nodes (Alg. 1 lines 15–20) ----
    // Each L2 node's subtree is one task, grown to exhaustion depth-first
    // with the shared read-only L2 relation table. The level-wise
    // semantics are unchanged, but a node's occurrence bindings are
    // released as soon as its subtree is done — what keeps HTPGM's memory
    // footprint below the list-materializing baselines (Table VIII).
    // Finished nodes go straight into the shared sink.
    let shared = Mutex::new(sink);
    let mut subtrees: Vec<(Option<WorkNode>, MiningStats)> = level2
        .into_iter()
        .map(|node| (Some(node), MiningStats::default()))
        .collect();
    par_for_each(&mut subtrees, n_threads, sched, |_, (node, subtree_stats)| {
        let Some(node) = node.take() else {
            return;
        };
        let mut task_sink = SharedSink::new(&shared);
        let mut grow = GrowContext::<K> {
            db,
            cfg,
            index: &index,
            pair_relations: &pair_relations,
            freq_events: &freq_events,
            sigma_abs,
            max_events,
            stats: subtree_stats,
            sink: &mut task_sink,
            scratch: GrowScratch::new(),
            db_has_clipped,
            kernel: PhantomData,
        };
        grow.grow_node(node, 3);
        task_sink.flush();
    });

    for (_, subtree_stats) in subtrees {
        merge_stats(&mut stats, subtree_stats);
    }
    stats
}

/// Records how many instances of `db` carry a window-boundary clip, and
/// how many of those the active [`ftpm_events::BoundaryPolicy`] drops
/// outright — the run-level observability half of the boundary-artifact
/// story (the per-pattern half is `clipped_occurrences`).
fn record_boundary_stats(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
) {
    let clipped = db
        .sequences()
        .iter()
        .flat_map(|s| s.instances())
        .filter(|i| i.is_clipped())
        .count() as u64;
    stats.clipped_instances = clipped;
    stats.discarded_instances = match cfg.relation.boundary {
        ftpm_events::BoundaryPolicy::Discard => clipped,
        ftpm_events::BoundaryPolicy::Clip | ftpm_events::BoundaryPolicy::TrueExtent => 0,
    };
}

/// Runs `f(index, &mut item)` for every item, distributing items over up
/// to `threads` scoped workers with atomic work stealing. With one
/// thread — or one item — it degrades to a plain loop with no spawn at
/// all. Items are
/// processed exactly once; completion order is unspecified, but every
/// call has returned when this function returns. With `sched` set, each
/// claim goes through the seeded sequencer (see [`crate::schedule`]).
///
/// Both phases of [`mine_internal`] run on it, and it is the shard
/// executor's outer loop: each exchange round runs one stage on every
/// [`crate::executor`] worker concurrently.
pub(crate) fn par_for_each<T, F>(items: &mut [T], threads: usize, sched: Option<&SimCtl>, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    if let Some(ctl) = sched {
        ctl.phase(threads);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let slots = &slots;
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let _retire = sched.map(|ctl| Retire::new(ctl, worker));
                    loop {
                        if let Some(ctl) = sched {
                            ctl.turn(worker);
                        }
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        if at >= slots.len() {
                            break;
                        }
                        let mut item = lock_clean(&slots[at]);
                        f(at, &mut item);
                    }
                })
            })
            .collect();
        join_all(handles);
    });
}

/// Maps `f` over `items` with up to `threads` scoped workers, preserving
/// input order in the output. Built on [`par_for_each`]; single-threaded
/// calls stay allocation- and spawn-free. Used for the intra-shard
/// parallelism of the exchange executor's propose stages (L2 pair chunks,
/// level-k node growth), composing with the shard-level concurrency the
/// way `--threads` composes with `--shards`.
#[expect(
    clippy::expect_used,
    reason = "structural invariant: par_for_each visits every slot exactly once"
)]
pub(crate) fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|t| (Some(t), None)).collect();
    par_for_each(&mut slots, threads, None, |_, slot| {
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the atomic counter hands each slot index out once"
        )]
        let item = slot.0.take().expect("each item mapped once");
        slot.1 = Some(f(item));
    });
    slots
        .into_iter()
        .map(|(_, r)| r.expect("every slot filled"))
        .collect()
}

/// One buffered node emission awaiting the shared-sink lock.
type PendingNode = (Vec<EventId>, usize, usize, Vec<crate::result::FrequentPattern>);

/// How many patterns a worker buffers before taking the shared-sink
/// lock. Amortizes contention when many small nodes finish in bursts;
/// task-resident pattern memory stays bounded by this plus one node.
const SHARED_SINK_BATCH: usize = 1024;

/// Per-task handle on the shared sink: buffers finished nodes and
/// drains them in batches under one lock acquisition, so each node still
/// lands atomically while workers contend far less. Serialization done
/// inside the target sink runs under the lock. The writer sinks keep it
/// short by appending pre-escaped labels into a reused line buffer: on
/// the `deep_patterns` benchmark (796,533 CSV rows, 2 threads) the sink
/// is busy 0.64 s of the run, down from 3.33 s when each row went
/// through `Pattern::display` and a per-char escape.
struct SharedSink<'a, 'b> {
    shared: &'a Mutex<&'b mut (dyn PatternSink + Send)>,
    pending: Vec<PendingNode>,
    pending_patterns: usize,
}

impl<'a, 'b> SharedSink<'a, 'b> {
    fn new(shared: &'a Mutex<&'b mut (dyn PatternSink + Send)>) -> Self {
        SharedSink {
            shared,
            pending: Vec::new(),
            pending_patterns: 0,
        }
    }

    /// Drains the buffer into the shared sink under one lock.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut sink = lock_clean(self.shared);
        for (events, support, k, patterns) in self.pending.drain(..) {
            sink.node(events, support, k, patterns);
        }
        self.pending_patterns = 0;
    }
}

impl PatternSink for SharedSink<'_, '_> {
    fn node(
        &mut self,
        events: Vec<EventId>,
        support: usize,
        k: usize,
        patterns: Vec<crate::result::FrequentPattern>,
    ) {
        self.pending_patterns += patterns.len();
        self.pending.push((events, support, k, patterns));
        if self.pending_patterns >= SHARED_SINK_BATCH {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_for_each_with_more_threads_than_items() {
        // threads is clamped to the item count; surplus workers are
        // never spawned and every item is still processed exactly once.
        let mut items = vec![0u32; 3];
        par_for_each(&mut items, 64, None, |i, item| *item += i as u32 + 1);
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn par_for_each_with_empty_work_list() {
        let mut items: Vec<u32> = Vec::new();
        par_for_each(&mut items, 8, None, |_, _| unreachable!("no items"));
        assert!(items.is_empty());
    }

    #[test]
    fn par_map_edge_cases() {
        let empty: Vec<u32> = par_map(Vec::new(), 8, |x: u32| x);
        assert!(empty.is_empty());
        // Single item: stays on the calling thread.
        assert_eq!(par_map(vec![7u32], 8, |x| x * 2), vec![14]);
        // More threads than items, order preserved.
        assert_eq!(
            par_map(vec![1u32, 2, 3], 64, |x| x * 10),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn worker_panic_propagates_without_deadlock_or_dropped_siblings() {
        // Item 3 panics; the pool must (a) unwind out of par_for_each
        // rather than hang, (b) re-raise the original payload, and (c)
        // have processed every sibling item — a panicking task must not
        // silently drop its siblings' results.
        let processed = AtomicUsize::new(0);
        let mut items: Vec<u32> = (0..8).collect();
        // Silence the worker's default panic-to-stderr backtrace for the
        // duration of this test; restore the hook after.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_for_each(&mut items, 2, None, |_, item| {
                if *item == 3 {
                    panic!("task failure on item {item}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        std::panic::set_hook(prev_hook);
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("original panic payload");
        assert!(msg.contains("task failure on item 3"), "payload was {msg:?}");
        assert_eq!(
            processed.load(Ordering::Relaxed),
            7,
            "all sibling items processed despite the panic"
        );
    }

    #[test]
    fn shared_sink_flushes_on_batch_boundary() {
        use crate::sink::CountingSink;
        let mut target = CountingSink::default();
        {
            let boxed: &mut (dyn PatternSink + Send) = &mut target;
            let shared = Mutex::new(boxed);
            let mut sink = SharedSink::new(&shared);
            sink.node(vec![EventId(0)], 1, 2, Vec::new());
            sink.flush();
        }
        assert_eq!(target.nodes(), 1);
    }
}
