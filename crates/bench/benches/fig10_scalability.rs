//! Criterion counterpart of Figs 10–13: how E-HTPGM and A-HTPGM scale
//! with the number of sequences and attributes.
//! `cargo bench -p ftpm-bench --bench fig10_scalability`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftpm_core::{mine_approximate, mine_exact, MinerConfig, MiningResult};
use ftpm_datagen::{nist_like, Dataset};
use ftpm_mi::CorrelationGraph;

/// A-HTPGM at 60% graph density. The NMI graph build is part of the
/// measured run, as in the paper's A-HTPGM runtimes.
fn a_htpgm_60(data: &Dataset, cfg: &MinerConfig) -> MiningResult {
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.6);
    mine_approximate(&data.seq, &graph, cfg)
}

fn bench_scalability(c: &mut Criterion) {
    let data = nist_like(0.012);
    let cfg = MinerConfig::new(0.5, 0.5).with_max_events(3);

    let mut group = c.benchmark_group("fig10_sequences");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for pct in [25usize, 50, 100] {
        let sub = data.take_sequences(data.seq.len() * pct / 100);
        group.throughput(Throughput::Elements(sub.seq.len() as u64));
        group.bench_with_input(BenchmarkId::new("E-HTPGM", pct), &sub, |b, sub| {
            b.iter(|| mine_exact(&sub.seq, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("A-HTPGM-60", pct), &sub, |b, sub| {
            b.iter(|| a_htpgm_60(sub, &cfg))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig12_attributes");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for pct in [25usize, 50, 100] {
        let sub = data.project_variables(data.syb.n_variables() * pct / 100);
        group.bench_with_input(BenchmarkId::new("E-HTPGM", pct), &sub, |b, sub| {
            b.iter(|| mine_exact(&sub.seq, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("A-HTPGM-60", pct), &sub, |b, sub| {
            b.iter(|| a_htpgm_60(sub, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
