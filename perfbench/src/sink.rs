//! The benchmark's sink wrapper: it digests every emitted pattern for the
//! output check and, in the traced run, times each call on the inner sink.

use std::io::{self, Write};
use std::time::Instant;

use ftpm_core::{FrequentPattern, PatternSink};
use ftpm_events::{EventId, EventRegistry};

use crate::trace::{ns_since, Span, MINING_JOB};

/// A writer that counts the bytes it is given and discards them.
#[derive(Debug, Default)]
pub struct CountingWriter {
    pub bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A key per event that does not depend on intern order:
/// `(variable << 16) | symbol`, indexed by `EventId`.
pub fn event_keys(registry: &EventRegistry) -> Vec<u64> {
    registry
        .ids()
        .map(|e| (u64::from(registry.variable(e).0) << 16) | u64::from(registry.symbol(e).0))
        .collect()
}

/// SplitMix64's finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one pattern over its events, relations, support, confidence
/// bits and clipped-occurrence count. Summing these (wrapping) gives a
/// digest of the pattern set that ignores emission order.
pub fn pattern_hash(fp: &FrequentPattern, keys: &[u64]) -> u64 {
    let mut h = mix(fp.pattern.len() as u64);
    let mut feed = |v: u64| h = mix(h ^ v);
    for &EventId(e) in fp.pattern.events() {
        feed(keys[e as usize]);
    }
    for &r in fp.pattern.relations() {
        feed(r as u64);
    }
    feed(fp.support as u64);
    feed(fp.confidence.to_bits());
    feed(fp.clipped_occurrences as u64);
    h
}

/// Wraps the job's sink: digests what passes through and, when given an
/// epoch, records a span around every call on the inner sink.
pub struct CheckedSink<'k, S> {
    inner: S,
    keys: &'k [u64],
    pub digest: u64,
    pub patterns: u64,
    pub node_calls: u64,
    epoch: Option<Instant>,
    /// Parent span of the calls made from now on.
    pub parent: Option<usize>,
    pub spans: Vec<Span>,
    pub first_emit_ns: Option<u64>,
}

impl<'k, S: PatternSink> CheckedSink<'k, S> {
    pub fn new(inner: S, keys: &'k [u64], epoch: Option<Instant>) -> Self {
        CheckedSink {
            inner,
            keys,
            digest: 0,
            patterns: 0,
            node_calls: 0,
            epoch,
            parent: None,
            spans: Vec::new(),
            first_emit_ns: None,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f(&mut self.inner);
        };
        let start_ns = ns_since(epoch);
        let out = f(&mut self.inner);
        self.spans.push(Span {
            name: "sink",
            job: MINING_JOB,
            parent: self.parent,
            start_ns,
            end_ns: ns_since(epoch),
        });
        out
    }
}

impl<S: PatternSink> PatternSink for CheckedSink<'_, S> {
    fn begin(&mut self, frequent_events: &[(EventId, usize)]) {
        self.timed(|inner| inner.begin(frequent_events));
    }

    fn node(
        &mut self,
        events: Vec<EventId>,
        support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        for fp in &patterns {
            self.digest = self.digest.wrapping_add(pattern_hash(fp, self.keys));
        }
        self.patterns += patterns.len() as u64;
        self.node_calls += 1;
        if self.first_emit_ns.is_none() {
            self.first_emit_ns = self.epoch.map(ns_since);
        }
        self.timed(|inner| inner.node(events, support, k, patterns));
    }

    fn finish(&mut self) -> io::Result<()> {
        self.timed(|inner| inner.finish())
    }
}
