//! Property tests for the hash-consed pattern pool: over random pattern
//! batches, interning round-trips bit-identically, parent-delta chain
//! construction agrees with flat construction, and hash-consing never
//! grows the pool for a known pattern.

use std::collections::HashMap;

use ftpm_core::{DeltaKey, Pattern, PatternPool};
use ftpm_events::{EventId, TemporalRelation};

/// xorshift64* — the workspace's deterministic test RNG idiom.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random pattern of `len` events drawn from `n_events` registry ids
/// (repeats allowed — the miner produces them) with uniformly random
/// relations in the flat upper-triangular layout.
fn random_pattern(rng: &mut Rng, n_events: usize, len: usize) -> Pattern {
    let events = (0..len)
        .map(|_| EventId(rng.below(n_events) as u32))
        .collect();
    let relations = (0..len * (len - 1) / 2)
        .map(|_| TemporalRelation::ALL[rng.below(3)])
        .collect();
    Pattern::new(events, relations)
}

/// A batch of random patterns with mixed lengths (2..=5 events —
/// `Pattern` itself starts at two).
fn random_batch(seed: u64, n_events: usize, count: usize) -> Vec<Pattern> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let len = 2 + rng.below(4);
            random_pattern(&mut rng, n_events, len)
        })
        .collect()
}

/// Packs a delta relation column the way the candidate engine does:
/// two bits per relation, first relation in the high bits.
fn pack(delta: &[TemporalRelation]) -> u64 {
    delta
        .iter()
        .fold(0u64, |code, r| (code << 2) | (r.index() as u64 + 1))
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `resolve(intern(&p))` is bit-identical to the original
        /// `Pattern::new` value, and the accessor surface (event count,
        /// last event, reverse event walk, parent-as-prefix) agrees
        /// with the flat representation.
        #[test]
        fn intern_resolve_round_trips(seed in 0u64..64, n_events in 2usize..9) {
            let mut pool = PatternPool::with_roots(n_events);
            for p in random_batch(seed, n_events, 40) {
                let id = pool.intern(&p);
                prop_assert_eq!(pool.resolve(id), p.clone());
                prop_assert_eq!(pool.event_count(id), p.len());
                prop_assert_eq!(pool.last_event(id), p.events()[p.len() - 1]);
                let mut rev: Vec<EventId> = pool.events_rev(id).collect();
                rev.reverse();
                prop_assert_eq!(&rev[..], p.events());
                if p.len() > 2 {
                    let k = p.len();
                    let prefix = Pattern::new(
                        p.events()[..k - 1].to_vec(),
                        p.relations()[..(k - 1) * (k - 2) / 2].to_vec(),
                    );
                    prop_assert_eq!(pool.parent(id), pool.intern(&prefix));
                } else {
                    prop_assert_eq!(pool.parent(id), pool.root(p.events()[0]));
                }
            }
        }

        /// Growing a pattern level by level through `intern_child` /
        /// `intern_packed` (the exchange gate's `DeltaKey` path) lands
        /// on the same id as interning the flat pattern in one call.
        #[test]
        fn chained_construction_matches_flat(seed in 0u64..64, n_events in 2usize..9) {
            let mut pool = PatternPool::with_roots(n_events);
            for p in random_batch(seed, n_events, 30) {
                let events = p.events();
                let relations = p.relations();
                let mut by_child = pool.root(events[0]);
                let mut by_packed = pool.root(events[0]);
                for k in 2..=events.len() {
                    let delta = &relations[(k - 1) * (k - 2) / 2..k * (k - 1) / 2];
                    by_child = pool.intern_child(by_child, events[k - 1], delta);
                    by_packed = pool.intern_packed(DeltaKey {
                        parent: by_packed,
                        last: events[k - 1],
                        code: pack(delta),
                    });
                    prop_assert_eq!(by_child, by_packed);
                }
                prop_assert_eq!(pool.intern(&p), by_child);
            }
        }

        /// Hash-consing: re-interning a known batch (in reverse order)
        /// returns the same ids without growing the pool, and distinct
        /// patterns never share an id.
        #[test]
        fn hash_consing_dedups(seed in 0u64..64, n_events in 2usize..9) {
            let mut pool = PatternPool::with_roots(n_events);
            let batch = random_batch(seed, n_events, 40);
            let ids: Vec<_> = batch.iter().map(|p| pool.intern(p)).collect();
            let len = pool.len();
            for (p, &id) in batch.iter().zip(&ids).rev() {
                prop_assert_eq!(pool.intern(p), id);
            }
            prop_assert_eq!(pool.len(), len, "re-interning must not grow the pool");
            let mut by_id = HashMap::new();
            for (p, &id) in batch.iter().zip(&ids) {
                let prev = by_id.insert(id, p.clone());
                if let Some(prev) = prev {
                    prop_assert_eq!(&prev, p, "one id, one pattern");
                }
            }
        }
    }
}
