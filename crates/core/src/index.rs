use ftpm_bitmap::Bitmap;
use ftpm_events::{
    BoundaryPolicy, EventId, EventInstance, Interval, RelationConfig, SequenceDatabase,
};

/// Precomputed per-event access structures over a [`SequenceDatabase`]:
/// the single-event bitmaps of HTPGM's L1 (built with one scan of
/// `D_SEQ`, Section IV-C), per sequence the instance indices of each
/// event (the "list of event instances" stored in HPG nodes), and per
/// instance the interval and chronological rank the boundary policy
/// exposes.
///
/// Layout, all flat:
///
/// * **Instance lists (CSR).** The list of `event` in sequence `seq` is
///   `members[offsets[seq · n_events + event] .. offsets[… + 1]]`: one
///   offsets array for every (sequence, event) pair plus one flat `u32`
///   array of in-sequence instance indices, chronologically ascending.
///   A lookup is two adjacent loads, not the three dependent ones of a
///   nested `Vec<Vec<Vec<u32>>>`.
/// * **Instance columns.** `start`, `end` and `rank` hold one row per
///   instance of every indexed sequence; sequence `seq`'s rows are
///   `rows[seq] .. rows[seq + 1]`, in instance order. `start`/`end` are
///   the interval the policy exposes
///   ([`RelationConfig::effective_interval`]: the clipped interval under
///   Clip and Discard, the run extent under TrueExtent), and `rank` is
///   the dense rank of [`RelationConfig::effective_key`] within the
///   sequence — equal keys get equal ranks, so `rank[a] < rank[b]` iff
///   `a` is chronologically before `b` under the policy.
///
/// The boundary policy is thus applied once, here: the miners'
/// verification loops (L2 pair verification and level-`k` growth) read
/// only lists and columns and never branch on the policy or touch an
/// [`ftpm_events::EventInstance`].
#[derive(Debug)]
pub struct DatabaseIndex {
    /// `bitmaps[event]` — sequences containing at least one instance.
    bitmaps: Vec<Bitmap>,
    /// `supports[event]` — cached popcount of `bitmaps[event]`.
    supports: Vec<usize>,
    /// CSR offsets into `members`, `n_sequences · n_events + 1` long.
    offsets: Vec<usize>,
    /// Every instance list, concatenated in (sequence, event) order.
    members: Vec<u32>,
    /// First column row of each sequence, `n_sequences + 1` long.
    rows: Vec<usize>,
    /// Policy-resolved interval start per instance row.
    start: Vec<i64>,
    /// Policy-resolved interval end per instance row.
    end: Vec<i64>,
    /// Dense rank of the policy's chronological key per instance row.
    rank: Vec<u32>,
}

/// The policy-resolved columns of one sequence, indexed by in-sequence
/// instance index (the `u32`s of [`DatabaseIndex::instances_in`] and of
/// occurrence bindings).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqColumns<'a> {
    start: &'a [i64],
    end: &'a [i64],
    rank: &'a [u32],
}

impl SeqColumns<'_> {
    /// Start of the interval the policy exposes for instance `i`.
    #[inline]
    pub(crate) fn start(&self, i: u32) -> i64 {
        self.start[i as usize]
    }

    /// End of the interval the policy exposes for instance `i`.
    #[inline]
    pub(crate) fn end(&self, i: u32) -> i64 {
        self.end[i as usize]
    }

    /// The interval the policy exposes for instance `i`.
    #[inline]
    pub(crate) fn interval(&self, i: u32) -> Interval {
        Interval {
            start: self.start(i),
            end: self.end(i),
        }
    }

    /// Chronological rank of instance `i` under the policy: instance `a`
    /// precedes `b` iff `rank(a) < rank(b)`, and equal keys tie.
    #[inline]
    pub(crate) fn rank(&self, i: u32) -> u32 {
        self.rank[i as usize]
    }
}

impl DatabaseIndex {
    /// Builds the index with a single pass over the database.
    pub fn build(db: &SequenceDatabase) -> Self {
        DatabaseIndex::build_with_policy(db, BoundaryPolicy::Clip)
    }

    /// Builds the index under a boundary policy. With
    /// [`BoundaryPolicy::Discard`], instances clipped at a window
    /// boundary are invisible: they contribute to neither the bitmaps,
    /// nor the supports (and hence confidence denominators), nor the
    /// per-sequence instance lists — as if the split had never emitted
    /// them. The other policies index every instance.
    pub fn build_with_policy(db: &SequenceDatabase, policy: BoundaryPolicy) -> Self {
        DatabaseIndex::build_masked(db, policy, None)
    }

    /// Builds the index under a boundary policy, optionally restricted to
    /// the sequences whose `mask` entry is `true`. Masked-out sequences
    /// are invisible end to end — no bitmap bits, no supports, no
    /// instance lists, no column rows — so every structure a miner
    /// derives from the index (joint bitmaps, occurrence bindings,
    /// pattern supports) covers only the masked-in sequences.
    ///
    /// This is how a time-range shard mines only the windows it *owns*:
    /// the overlap-pad windows duplicated from neighbouring shards exist
    /// in the shard's database (their instances carry the run extents the
    /// conversion needed), but mining them would be pure waste — every
    /// pattern statistic they could contribute belongs to the owning
    /// shard, and pattern growth never crosses a window boundary, so
    /// hiding them changes no owned count.
    pub fn build_masked(
        db: &SequenceDatabase,
        policy: BoundaryPolicy,
        mask: Option<&[bool]>,
    ) -> Self {
        let n_events = db.registry().len();
        let n_seqs = db.len();
        let view = RelationConfig::default().with_boundary(policy);
        let visible = |si: usize| mask.is_none_or(|m| m[si]);
        let indexed = |inst: &EventInstance| view.effective_interval(inst).is_some();

        // Pass 1: list lengths, shifted one slot right, and column rows.
        let mut offsets = vec![0usize; n_seqs * n_events + 1];
        let mut rows = Vec::with_capacity(n_seqs + 1);
        rows.push(0);
        for (si, seq) in db.sequences().iter().enumerate() {
            let mut n_rows = 0;
            if visible(si) {
                n_rows = seq.len();
                for inst in seq.instances().iter().filter(|i| indexed(i)) {
                    offsets[si * n_events + inst.event.0 as usize + 1] += 1;
                }
            }
            rows.push(rows[si] + n_rows);
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }

        // Pass 2: fill the lists, the columns and the bitmaps.
        let n_rows = rows[n_seqs];
        let mut members = vec![0u32; offsets[n_seqs * n_events]];
        let (mut start, mut end) = (Vec::with_capacity(n_rows), Vec::with_capacity(n_rows));
        let mut rank = vec![0u32; n_rows];
        let mut bitmaps = vec![Bitmap::new(n_seqs); n_events];
        let mut cursor = vec![0usize; n_events];
        let mut order: Vec<u32> = Vec::new();
        for (si, seq) in db.sequences().iter().enumerate() {
            if !visible(si) {
                continue;
            }
            let insts = seq.instances();
            cursor.copy_from_slice(&offsets[si * n_events..(si + 1) * n_events]);
            for (ii, inst) in insts.iter().enumerate() {
                // A Discard-hidden instance keeps a row (columns are
                // indexed by instance position) but no list points to it.
                let iv = view.effective_interval(inst);
                let row = iv.unwrap_or(inst.interval);
                start.push(row.start);
                end.push(row.end);
                if iv.is_none() {
                    continue;
                }
                let e = inst.event.0 as usize;
                bitmaps[e].set(si);
                members[cursor[e]] = ii as u32;
                cursor[e] += 1;
            }
            // Dense rank of the policy's key: sort positions by key, then
            // advance the rank only when the key changes.
            let seq_rank = &mut rank[rows[si]..rows[si + 1]];
            order.clear();
            order.extend(0..insts.len() as u32);
            order.sort_by_key(|&i| view.effective_key(&insts[i as usize]));
            let (mut r, mut prev) = (0u32, None);
            for &i in &order {
                let key = view.effective_key(&insts[i as usize]);
                if prev.is_some_and(|p| p != key) {
                    r += 1;
                }
                prev = Some(key);
                seq_rank[i as usize] = r;
            }
        }
        let supports = bitmaps.iter().map(Bitmap::count_ones).collect();
        DatabaseIndex {
            bitmaps,
            supports,
            offsets,
            members,
            rows,
            start,
            end,
            rank,
        }
    }

    /// The occurrence bitmap of an event.
    pub fn bitmap(&self, event: EventId) -> &Bitmap {
        &self.bitmaps[event.0 as usize]
    }

    /// `supp(E)` — number of sequences containing the event (Def 3.13).
    pub fn support(&self, event: EventId) -> usize {
        self.supports[event.0 as usize]
    }

    /// Joint support of two events — the popcount of the AND of their
    /// bitmaps (Alg. 1, line 8) via the fused, non-allocating
    /// [`Bitmap::and_count`]. The Apriori gate calls this for every
    /// candidate pair, pruned or not, so it never pays for the
    /// intermediate bitmap.
    pub fn joint_support(&self, a: EventId, b: EventId) -> usize {
        self.bitmaps[a.0 as usize].and_count(&self.bitmaps[b.0 as usize])
    }

    /// Instance indices of `event` within sequence `seq`, ascending.
    #[inline]
    pub fn instances_in(&self, seq: usize, event: EventId) -> &[u32] {
        let slot = seq * self.bitmaps.len() + event.0 as usize;
        &self.members[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// The policy-resolved interval and rank columns of sequence `seq`
    /// (empty for a masked-out sequence).
    #[inline]
    pub(crate) fn columns(&self, seq: usize) -> SeqColumns<'_> {
        let rows = self.rows[seq]..self.rows[seq + 1];
        SeqColumns {
            start: &self.start[rows.clone()],
            end: &self.end[rows.clone()],
            rank: &self.rank[rows],
        }
    }

    /// Number of distinct events indexed.
    pub fn n_events(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of sequences indexed.
    pub fn n_sequences(&self) -> usize {
        self.rows.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::{EventRegistry, TemporalSequence};
    use ftpm_timeseries::{SymbolId, VariableId};

    fn tiny_db() -> SequenceDatabase {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let s0 = TemporalSequence::new(vec![
            EventInstance::new(a, 0, 5),
            EventInstance::new(b, 5, 9),
            EventInstance::new(a, 10, 12),
        ]);
        let s1 = TemporalSequence::new(vec![EventInstance::new(b, 1, 2)]);
        SequenceDatabase::new(reg, vec![s0, s1])
    }

    #[test]
    fn bitmaps_and_supports() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        assert_eq!(idx.n_events(), 2);
        assert_eq!(idx.support(EventId(0)), 1); // A only in seq 0
        assert_eq!(idx.support(EventId(1)), 2); // B in both
        assert!(idx.bitmap(EventId(0)).get(0));
        assert!(!idx.bitmap(EventId(0)).get(1));
    }

    #[test]
    fn instance_lists_are_chronological() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        assert_eq!(idx.instances_in(0, EventId(0)), &[0, 2]);
        assert_eq!(idx.instances_in(0, EventId(1)), &[1]);
        assert_eq!(idx.instances_in(1, EventId(0)), &[] as &[u32]);
    }

    #[test]
    fn joint_support_matches_bitmap_and() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        let (a, b) = (EventId(0), EventId(1));
        assert_eq!(
            idx.joint_support(a, b),
            idx.bitmap(a).and(idx.bitmap(b)).count_ones()
        );
        assert_eq!(idx.joint_support(a, b), 1); // both only co-occur in seq 0
    }

    #[test]
    fn masked_build_hides_sequences_end_to_end() {
        let db = tiny_db();
        // Mask out sequence 0: only B (in sequence 1) remains visible.
        let idx =
            DatabaseIndex::build_masked(&db, BoundaryPolicy::Clip, Some(&[false, true]));
        assert_eq!(idx.support(EventId(0)), 0, "A lived only in masked-out seq 0");
        assert_eq!(idx.support(EventId(1)), 1);
        assert!(!idx.bitmap(EventId(1)).get(0));
        assert!(idx.bitmap(EventId(1)).get(1));
        assert_eq!(idx.instances_in(0, EventId(0)), &[] as &[u32]);
        assert_eq!(idx.instances_in(0, EventId(1)), &[] as &[u32]);
        assert_eq!(idx.instances_in(1, EventId(1)), &[0]);
        assert_eq!(idx.joint_support(EventId(0), EventId(1)), 0);
    }

    #[test]
    fn discard_policy_hides_clipped_instances() {
        use ftpm_events::{BoundaryPolicy, Interval};
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        // Sequence 0: one clipped A; sequence 1: one clean A.
        let clipped = EventInstance::with_extent(
            a,
            Interval::new(0, 5),
            Interval::new(-3, 5),
        );
        let s0 = TemporalSequence::new(vec![clipped]);
        let s1 = TemporalSequence::new(vec![EventInstance::new(a, 1, 2)]);
        let db = SequenceDatabase::new(reg, vec![s0, s1]);

        let full = DatabaseIndex::build(&db);
        assert_eq!(full.support(a), 2);
        let filtered = DatabaseIndex::build_with_policy(&db, BoundaryPolicy::Discard);
        assert_eq!(filtered.support(a), 1, "clipped instance invisible");
        assert!(!filtered.bitmap(a).get(0));
        assert!(filtered.bitmap(a).get(1));
        assert_eq!(filtered.instances_in(0, a), &[] as &[u32]);
    }

    /// A random database with tied starts, duplicated instances and
    /// boundary-clipped extents, so the three policies disagree.
    fn random_db(seed: u64) -> SequenceDatabase {
        use ftpm_events::Interval;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        let mut reg = EventRegistry::new();
        let n_events = 1 + next(4) as u64;
        for v in 0..n_events {
            reg.intern(VariableId(v as u32), SymbolId(1), || format!("E{v}"));
        }
        let sequences = (0..next(6))
            .map(|_| {
                let mut insts = Vec::new();
                for _ in 0..next(9) {
                    let event = EventId(next(n_events) as u32);
                    let start = next(6);
                    let interval = Interval::new(start, start + 1 + next(4));
                    let extent = Interval::new(
                        interval.start - next(2) * (1 + next(5)),
                        interval.end + next(2) * (1 + next(5)),
                    );
                    let inst = EventInstance::with_extent(event, interval, extent);
                    insts.push(inst);
                    if next(4) == 0 {
                        insts.push(inst);
                    }
                }
                TemporalSequence::new(insts)
            })
            .collect();
        SequenceDatabase::new(reg, sequences)
    }

    const POLICIES: [BoundaryPolicy; 3] = [
        BoundaryPolicy::Clip,
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Discard,
    ];

    proptest::proptest! {
        #[test]
        fn csr_lists_and_columns_match_a_naive_build(seed in 0u64..u64::MAX, masked in 0u8..2) {
            let db = random_db(seed);
            let mask: Vec<bool> = (0..db.len()).map(|si| (seed >> si) & 1 == 0).collect();
            let mask = (masked == 1).then_some(mask.as_slice());
            for policy in POLICIES {
                let view = RelationConfig::default().with_boundary(policy);
                let idx = DatabaseIndex::build_masked(&db, policy, mask);
                proptest::prop_assert_eq!(idx.n_sequences(), db.len());
                // The nested-`Vec` build the CSR layout replaced.
                let mut naive = vec![vec![Vec::new(); db.registry().len()]; db.len()];
                for (si, seq) in db.sequences().iter().enumerate() {
                    if mask.is_some_and(|m| !m[si]) {
                        continue;
                    }
                    for (ii, inst) in seq.instances().iter().enumerate() {
                        if view.effective_interval(inst).is_some() {
                            naive[si][inst.event.0 as usize].push(ii as u32);
                        }
                    }
                }
                for (si, lists) in naive.iter().enumerate() {
                    for (e, list) in lists.iter().enumerate() {
                        let e = EventId(e as u32);
                        proptest::prop_assert_eq!(idx.instances_in(si, e), list.as_slice());
                        proptest::prop_assert_eq!(idx.bitmap(e).get(si), !list.is_empty());
                    }
                }
                for e in db.registry().ids() {
                    let expected = naive.iter().filter(|l| !l[e.0 as usize].is_empty()).count();
                    proptest::prop_assert_eq!(idx.support(e), expected);
                }
                // Every listed instance exposes the policy's interval, and
                // ranks order exactly like the policy's key.
                for (si, seq) in db.sequences().iter().enumerate() {
                    let cols = idx.columns(si);
                    let insts = seq.instances();
                    for lists in &naive[si] {
                        for &i in lists {
                            proptest::prop_assert_eq!(
                                Some(cols.interval(i)),
                                view.effective_interval(&insts[i as usize])
                            );
                        }
                    }
                    let listed: Vec<u32> = naive[si].iter().flatten().copied().collect();
                    for &a in &listed {
                        for &b in &listed {
                            let by_key = view
                                .effective_key(&insts[a as usize])
                                .cmp(&view.effective_key(&insts[b as usize]));
                            proptest::prop_assert_eq!(cols.rank(a).cmp(&cols.rank(b)), by_key);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_instances_get_equal_ranks() {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let dup = EventInstance::new(a, 2, 6);
        let seq = TemporalSequence::new(vec![dup, EventInstance::new(b, 2, 6), dup]);
        let db = SequenceDatabase::new(reg, vec![seq]);
        for policy in POLICIES {
            let idx = DatabaseIndex::build_with_policy(&db, policy);
            let cols = idx.columns(0);
            let [d0, d1] = idx.instances_in(0, a) else {
                panic!("both duplicates are indexed");
            };
            assert_eq!(cols.rank(*d0), cols.rank(*d1), "{policy}");
            // B ties A on (start, end) and breaks the tie by event id.
            let [bi] = idx.instances_in(0, b) else {
                panic!("B is indexed");
            };
            assert!(cols.rank(*d0) < cols.rank(*bi), "{policy}");
        }
    }

    #[test]
    fn true_extent_ranks_follow_extents_not_intervals() {
        use ftpm_events::Interval;
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        // A is observed from t = 5 but its run began at t = 0; B starts
        // at t = 3 unclipped. By interval B is first, by extent A is.
        let clipped_a = EventInstance::with_extent(a, Interval::new(5, 8), Interval::new(0, 8));
        let seq = TemporalSequence::new(vec![clipped_a, EventInstance::new(b, 3, 10)]);
        let db = SequenceDatabase::new(reg, vec![seq]);
        let (ai, bi) = (idx_of(&db, a), idx_of(&db, b));

        let clip = DatabaseIndex::build_with_policy(&db, BoundaryPolicy::Clip);
        assert!(clip.columns(0).rank(bi) < clip.columns(0).rank(ai));
        assert_eq!(clip.columns(0).interval(ai), Interval::new(5, 8));

        let extent = DatabaseIndex::build_with_policy(&db, BoundaryPolicy::TrueExtent);
        assert!(extent.columns(0).rank(ai) < extent.columns(0).rank(bi));
        assert_eq!(extent.columns(0).interval(ai), Interval::new(0, 8));
    }

    /// Position of the only instance of `e` in sequence 0.
    fn idx_of(db: &SequenceDatabase, e: EventId) -> u32 {
        db.sequences()[0]
            .instances()
            .iter()
            .position(|i| i.event == e)
            .map_or(u32::MAX, |p| p as u32)
    }

    #[test]
    fn empty_database_has_one_offset() {
        let mut reg = EventRegistry::new();
        reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let db = SequenceDatabase::new(reg, Vec::new());
        for policy in POLICIES {
            let idx = DatabaseIndex::build_with_policy(&db, policy);
            assert_eq!(idx.offsets.len(), 1);
            assert_eq!(idx.n_sequences(), 0);
            assert!(idx.members.is_empty() && idx.rank.is_empty());
        }
    }
}
