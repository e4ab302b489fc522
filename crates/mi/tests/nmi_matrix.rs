//! The correlation graph's NMI matrix is computed from one-hot bitmap
//! popcounts, one joint-count table per unordered pair. These tests pin
//! it, bit for bit, to the per-pair definition
//! [`normalized_mutual_information`] (Defs 5.1–5.3), and pin the μ and
//! edge set derived from it to the ones derived from that oracle matrix.

use ftpm_datagen::{generate_energy, EnergyConfig};
use ftpm_mi::{mu_for_density, normalized_mutual_information, CorrelationGraph};
use ftpm_timeseries::{
    Alphabet, QuantileSymbolizer, SymbolId, SymbolicDatabase, SymbolicSeries, ThresholdSymbolizer,
    VariableId,
};
use proptest::prelude::*;

const DENSITIES: [f64; 5] = [0.1, 0.4, 0.5, 0.6, 1.0];

/// `Ĩ(X_i;X_j)` for every ordered pair by the per-pair definition,
/// diagonal 1.
fn oracle_matrix(db: &SymbolicDatabase) -> Vec<Vec<f64>> {
    db.iter()
        .map(|(i, x)| {
            db.iter()
                .map(|(j, y)| {
                    if i == j {
                        1.0
                    } else {
                        normalized_mutual_information(x, y)
                    }
                })
                .collect()
        })
        .collect()
}

/// Def 5.6 on the oracle matrix: the weight of the
/// `⌈density · |pairs|⌉`-th largest pair, where a pair weighs the smaller
/// of its two directions; never below the smallest positive float.
fn oracle_mu(nmi: &[Vec<f64>], density: f64) -> f64 {
    let n = nmi.len();
    let mut weights: Vec<f64> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| nmi[i][j].min(nmi[j][i])))
        .collect();
    weights.sort_by(|a, b| b.total_cmp(a));
    let keep = ((density * weights.len() as f64).ceil() as usize).clamp(1, weights.len());
    weights[keep - 1].max(f64::MIN_POSITIVE)
}

fn assert_matches_oracle(db: &SymbolicDatabase) {
    let oracle = oracle_matrix(db);
    for density in DENSITIES {
        let mu = oracle_mu(&oracle, density);
        let graph = CorrelationGraph::build_with_density(db, density);
        let by_mu = CorrelationGraph::build(db, mu);
        assert_eq!(graph.mu().to_bits(), mu.to_bits(), "density {density}");
        assert_eq!(mu_for_density(db, density).to_bits(), mu.to_bits());
        for (i, row) in oracle.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let (vi, vj) = (VariableId(i as u32), VariableId(j as u32));
                let got = graph.nmi(vi, vj);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "NMI({i};{j}): matrix {got} vs per-pair {want}"
                );
                let edge = i == j || (want >= mu && oracle[j][i] >= mu);
                assert_eq!(graph.has_edge(vi, vj), edge, "edge ({i}, {j}) at mu {mu}");
                assert_eq!(by_mu.has_edge(vi, vj), edge, "edge ({i}, {j}) at mu {mu}");
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_nmi_matrix_is_bit_identical_to_per_pair_nmi(
        n_series in 2usize..7,
        steps in 1usize..301,
        alphabets in collection::vec(1usize..5, 6..7),
        used in collection::vec(1usize..5, 6..7),
        shift in collection::vec(0usize..4, 6..7),
        raw in collection::vec(0usize..1000, 1800..1801),
    ) {
        // Series v draws from `used[v]` consecutive symbols (mod its
        // alphabet size) starting at `shift[v]`: one used symbol makes it
        // constant, fewer used than the alphabet leaves symbols that
        // never occur.
        let mut db = SymbolicDatabase::new(0, 1, steps);
        for v in 0..n_series {
            let k = alphabets[v];
            let r = used[v].min(k);
            let labels: Vec<String> = (0..k).map(|s| format!("S{s}")).collect();
            let symbols = raw[v * 300..v * 300 + steps]
                .iter()
                .map(|&x| SymbolId(((x % r + shift[v]) % k) as u16))
                .collect();
            db.push(SymbolicSeries::new(format!("X{v}"), Alphabet::new(labels), symbols));
        }
        assert_matches_oracle(&db);
    }
}

/// Three days of 5-minute energy data (864 steps, not a multiple of 64),
/// symbolized On/Off and into three quantile states.
#[test]
fn energy_nmi_matrix_is_bit_identical_to_per_pair_nmi() {
    let series = generate_energy(&EnergyConfig {
        n_appliances: 10,
        days: 3,
        ..EnergyConfig::default()
    });
    let steps = series[0].len();
    assert_eq!(steps, 864);
    let mut on_off = SymbolicDatabase::new(0, 5, steps);
    let mut quantiles = SymbolicDatabase::new(0, 5, steps);
    for ts in &series {
        on_off.add_time_series(ts, &ThresholdSymbolizer::new(0.05));
        quantiles.add_time_series(
            ts,
            &QuantileSymbolizer::from_data(["Low", "Mid", "High"], ts.values()),
        );
    }
    assert_matches_oracle(&on_off);
    assert_matches_oracle(&quantiles);
}
