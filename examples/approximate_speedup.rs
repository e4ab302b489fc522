//! E-HTPGM vs A-HTPGM: the accuracy / runtime trade-off of Section V,
//! swept over correlation-graph densities (the paper's Fig 9 in
//! miniature).
//!
//! Run with: `cargo run --release --example approximate_speedup`

use std::time::Instant;

use ftpm::*;

fn main() {
    let data = nist_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);

    let started = Instant::now();
    let exact = mine_exact(&data.seq, &cfg);
    let exact_time = started.elapsed();
    println!(
        "E-HTPGM: {} patterns in {exact_time:.1?} on {} sequences x {} events",
        exact.len(),
        data.seq.len(),
        data.seq.registry().len(),
    );

    println!("\n density    mu    patterns  accuracy  runtime   gain");
    for density in [0.8, 0.6, 0.4, 0.2] {
        // A-HTPGM's runtime includes the NMI computation: time the
        // correlation-graph build together with the mining run.
        let started = Instant::now();
        let graph = CorrelationGraph::build_with_density(&data.syb, density);
        let approx = mine_approximate(&data.seq, &graph, &cfg);
        let t = started.elapsed();
        let accuracy = approx.accuracy_against(&exact);
        let gain = 1.0 - t.as_secs_f64() / exact_time.as_secs_f64();
        println!(
            "   {:>3.0}%  {:>5.2}  {:>8}  {:>7.1}%  {:>7.1?}  {:>5.1}%",
            density * 100.0,
            graph.mu(),
            approx.len(),
            accuracy * 100.0,
            t,
            gain * 100.0,
        );
    }

    println!(
        "\nLike the paper's Fig 9: pick a high density (>= 60%) for both good\n\
         accuracy and a solid runtime gain; low densities trade too much\n\
         accuracy for the extra speed."
    );
}
