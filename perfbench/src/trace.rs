//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is traced inside the program itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The id shared by the spans of the timed mining job. Setup repetition
/// `r` uses id `r + 1`.
pub const MINING_JOB: u32 = 0;

/// One timed call: `[start_ns, end_ns)` from the tracer's epoch.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The clock spans are measured on.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span and returns its id, which [`Tracer::end`] closes.
    pub fn begin(&mut self, name: &'static str, job: u32, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = ns_since(self.epoch);
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = ns_since(self.epoch);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, job, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Adds spans measured elsewhere on this tracer's clock.
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in seconds: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, 0);
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (span.end_ns - span.start_ns - covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Self seconds summed by span name, for each job id.
    pub fn self_by_job(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, secs) in self.spans.iter().zip(self.self_seconds()) {
            *out.entry(span.job)
                .or_default()
                .entry(span.name)
                .or_default() += secs;
        }
        out
    }

    /// The spans as tab-separated lines: id, job, parent (-1 for none),
    /// name, start and end in nanoseconds.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tjob\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}
