//! Sanity harness: verifies the paper's runtime ordering
//! (A-HTPGM < E-HTPGM < TPMiner < IEMiner/H-DFS) on a mid-size dataset.
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let sigma: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.3);
    let data = ftpm_datagen::nist_like(scale);
    println!("seqs={} events={}", data.seq.len(), data.seq.registry().len());
    let me: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
    let cfg = ftpm_core::MinerConfig::new(sigma, sigma).with_max_events(me);
    let t = Instant::now();
    let e = ftpm_core::mine_exact(&data.seq, &cfg);
    println!("E-HTPGM   {:>10.1?} {} patterns", t.elapsed(), e.len());
    let t = Instant::now();
    let graph = ftpm_mi::CorrelationGraph::build_with_density(&data.syb, 0.6);
    let a = ftpm_core::mine_approximate(&data.seq, &graph, &cfg);
    println!(
        "A-HTPGM60 {:>10.1?} {} patterns (accuracy {:.0}%)",
        t.elapsed(),
        a.len(),
        100.0 * a.accuracy_against(&e)
    );
    let t = Instant::now();
    let tp = ftpm_baselines::mine_tpminer(&data.seq, &cfg);
    println!("TPMiner   {:>10.1?} {} patterns", t.elapsed(), tp.len());
    let t = Instant::now();
    let hd = ftpm_baselines::mine_hdfs(&data.seq, &cfg);
    println!("H-DFS     {:>10.1?} {} patterns", t.elapsed(), hd.len());
    let t = Instant::now();
    let ie = ftpm_baselines::mine_ieminer(&data.seq, &cfg);
    println!("IEMiner   {:>10.1?} {} patterns", t.elapsed(), ie.len());
}
