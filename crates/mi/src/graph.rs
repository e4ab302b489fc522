use ftpm_bitmap::Bitmap;
use ftpm_timeseries::{SymbolicDatabase, SymbolicSeries, VariableId};
use serde::{Deserialize, Serialize};

use crate::info::entropy;

/// The correlation graph `G_C = (V, E)` of Def 5.5: vertices are symbolic
/// series, and there is an (undirected) edge between `X_i` and `X_j` iff
/// `Ĩ(X_i;X_j) ≥ μ ∧ Ĩ(X_j;X_i) ≥ μ` — both directions, because NMI is
/// asymmetric.
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries, VariableId};
/// use ftpm_mi::CorrelationGraph;
///
/// let mut db = SymbolicDatabase::new(0, 1, 4);
/// db.push(SymbolicSeries::from_labels("A", Alphabet::on_off(),
///     ["On", "On", "Off", "Off"]));
/// db.push(SymbolicSeries::from_labels("B", Alphabet::on_off(),
///     ["On", "On", "Off", "Off"]));
/// let g = CorrelationGraph::build(&db, 0.9);
/// assert!(g.has_edge(VariableId(0), VariableId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationGraph {
    n: usize,
    mu: f64,
    /// Row-major `n × n` pairwise NMI, `nmi[i][j] = Ĩ(X_i;X_j)`.
    nmi: Vec<Vec<f64>>,
    /// Symmetric adjacency matrix.
    adj: Vec<Vec<bool>>,
}

impl CorrelationGraph {
    /// Builds the correlation graph of a symbolic database for threshold
    /// `μ` (Alg. 2, lines 2–6).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < μ ≤ 1` (Def 5.4).
    pub fn build(db: &SymbolicDatabase, mu: f64) -> Self {
        #[expect(clippy::panic, reason = "documented # Panics contract: Def 5.4 domain of mu")]
        if !(mu > 0.0 && mu <= 1.0) {
            panic!("mu must be in (0, 1]");
        }
        Self::from_nmi_matrix(nmi_matrix(db), mu)
    }

    /// Builds the graph with `μ` chosen so that the given fraction of the
    /// complete graph's edges survives (Def 5.6). Computes the pairwise
    /// NMI matrix only once, unlike calling [`mu_for_density`] followed by
    /// [`CorrelationGraph::build`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density ≤ 1` (Def 5.6) and the database has
    /// ≥ 2 variables (a density is a fraction of variable *pairs*).
    pub fn build_with_density(db: &SymbolicDatabase, density: f64) -> Self {
        #[expect(clippy::panic, reason = "documented # Panics contract: Def 5.6 domain of density")]
        if !(density > 0.0 && density <= 1.0) {
            panic!("density must be in (0, 1]");
        }
        #[expect(
            clippy::panic,
            reason = "documented # Panics contract: pairwise NMI needs two variables"
        )]
        if db.n_variables() < 2 {
            panic!("need at least two variables");
        }
        let nmi = nmi_matrix(db);
        let mu = mu_from_matrix(&nmi, density);
        Self::from_nmi_matrix(nmi, mu)
    }

    fn from_nmi_matrix(nmi: Vec<Vec<f64>>, mu: f64) -> Self {
        let n = nmi.len();
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if nmi[i][j] >= mu && nmi[j][i] >= mu {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        CorrelationGraph { n, mu, nmi, adj }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// The threshold this graph was built with.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Pairwise NMI `Ĩ(X_i;X_j)`.
    pub fn nmi(&self, i: VariableId, j: VariableId) -> f64 {
        self.nmi[i.0 as usize][j.0 as usize]
    }

    /// True iff `i` and `j` are connected (both-direction NMI ≥ μ).
    /// Every vertex is trivially connected to itself
    /// (`Ĩ(X;X) = 1 ≥ μ`), which lets A-HTPGM keep self-relations.
    pub fn has_edge(&self, i: VariableId, j: VariableId) -> bool {
        i == j || self.adj[i.0 as usize][j.0 as usize]
    }

    /// Number of undirected edges `|E|` (self-loops not counted).
    pub fn n_edges(&self) -> usize {
        self.adj
            .iter()
            .enumerate()
            .map(|(i, row)| row[i + 1..].iter().filter(|&&b| b).count())
            .sum()
    }

    /// Graph density `d_C = |E| / (n·(n−1)/2)` (Def 5.6).
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.n_edges() as f64 / (self.n * (self.n - 1) / 2) as f64
    }

    /// The correlated set `X_C`: vertices incident to at least one edge
    /// (Alg. 2, line 5). A-HTPGM mines only these series.
    pub fn correlated_variables(&self) -> Vec<VariableId> {
        (0..self.n)
            .filter(|&i| self.adj[i].iter().any(|&b| b))
            .map(|i| VariableId(i as u32))
            .collect()
    }
}

/// Chooses `μ` so that the resulting correlation graph keeps (at least)
/// the `density` fraction of the complete graph's edges (Def 5.6 and the
/// worked example: "if we set the density of the correlation graph to be
/// 40%, then G_C will have 15 × 40% = 6 edges, which corresponds to
/// μ = 0.40").
///
/// Concretely: each pair's edge weight is `min(Ĩ(X_i;X_j), Ĩ(X_j;X_i))`
/// (an edge survives a threshold iff both directions do); the returned μ
/// is the weight of the `⌈density · |pairs|⌉`-th largest pair, so
/// building the graph with it retains exactly that many edges (up to
/// ties). This is the μ of [`CorrelationGraph::build_with_density`];
/// call that instead when the graph is needed too.
///
/// # Panics
///
/// Panics unless `0 < density ≤ 1` and the database has ≥ 2 variables.
pub fn mu_for_density(db: &SymbolicDatabase, density: f64) -> f64 {
    CorrelationGraph::build_with_density(db, density).mu()
}

/// The full pairwise NMI matrix of a symbolic database:
/// `nmi[i][j] = Ĩ(X_i;X_j)`, diagonal 1.
///
/// Each series is scanned once, into one [`Bitmap`] per symbol (bit `t`
/// set iff the series has that symbol at step `t`) plus its marginal
/// probabilities and entropy. Each *unordered* pair then fills one
/// `|Σ_i| × |Σ_j|` joint-count table by popcounting the AND of every
/// symbol-bitmap pair ([`Bitmap::and_count`]), and both directions
/// `Ĩ(X_i;X_j)` and `Ĩ(X_j;X_i)` are read off that one table.
///
/// The counts are exact integers, and [`nmi_from_counts`] repeats the
/// arithmetic of the per-pair
/// [`normalized_mutual_information`](crate::normalized_mutual_information)
/// operation for operation, in the same summation order, so every cell
/// is bit-identical to that definition (Defs 5.1–5.3), which the tests
/// use as their oracle.
fn nmi_matrix(db: &SymbolicDatabase) -> Vec<Vec<f64>> {
    let steps = db.n_steps();
    let series: Vec<SeriesMarginals> = db
        .iter()
        .map(|(_, s)| SeriesMarginals::new(s, steps))
        .collect();
    let n = series.len();
    let mut nmi = vec![vec![1.0; n]; n];
    let mut counts = Vec::new();
    for (i, a) in series.iter().enumerate() {
        for (j, b) in series.iter().enumerate().skip(i + 1) {
            // Row-major over a's alphabet: counts[x * |Σ_b| + y].
            counts.clear();
            counts.extend(
                a.one_hot
                    .iter()
                    .flat_map(|x| b.one_hot.iter().map(move |y| x.and_count(y))),
            );
            let width = b.probs.len();
            nmi[i][j] = nmi_from_counts(a, b, steps, |x, y| counts[x * width + y]);
            nmi[j][i] = nmi_from_counts(b, a, steps, |y, x| counts[x * width + y]);
        }
    }
    nmi
}

/// What the pairwise NMI needs of one series, computed once per series.
struct SeriesMarginals {
    /// One bitmap per alphabet symbol over the series' steps.
    one_hot: Vec<Bitmap>,
    /// `p(x)`, exactly as [`SymbolicSeries::symbol_probabilities`].
    probs: Vec<f64>,
    /// `H(X)` of `probs`.
    entropy: f64,
}

impl SeriesMarginals {
    fn new(series: &SymbolicSeries, steps: usize) -> Self {
        let mut one_hot = vec![Bitmap::new(steps); series.alphabet().len()];
        for (t, s) in series.symbols().iter().enumerate() {
            one_hot[s.0 as usize].set(t);
        }
        let probs = series.symbol_probabilities();
        let entropy = entropy(&probs);
        SeriesMarginals {
            one_hot,
            probs,
            entropy,
        }
    }
}

/// `Ĩ(X;Y)` from the joint counts `count(x, y)` of `steps` aligned
/// steps: the arithmetic of
/// [`normalized_mutual_information`](crate::normalized_mutual_information)
/// (and the [`mutual_information`](crate::mutual_information) it calls),
/// step for step — rows over `X`'s alphabet, `p(x,y) = count / steps`,
/// zero-probability cells skipped, `max(0)` before dividing by `H(X)`,
/// then the clamp; `H(X) = 0` gives 1.
fn nmi_from_counts(
    x: &SeriesMarginals,
    y: &SeriesMarginals,
    steps: usize,
    count: impl Fn(usize, usize) -> usize,
) -> f64 {
    if x.entropy == 0.0 {
        return 1.0;
    }
    let n = steps as f64;
    let mut mi = 0.0;
    for (i, &px) in x.probs.iter().enumerate() {
        for (j, &py) in y.probs.iter().enumerate() {
            let pxy = count(i, j) as f64 / n;
            if pxy > 0.0 {
                mi += pxy * (pxy / (px * py)).ln();
            }
        }
    }
    (mi.max(0.0) / x.entropy).clamp(0.0, 1.0)
}

fn mu_from_matrix(nmi: &[Vec<f64>], density: f64) -> f64 {
    let n = nmi.len();
    let mut weights = Vec::with_capacity(n * (n - 1) / 2);
    #[expect(
        clippy::needless_range_loop,
        reason = "symmetric (i, j)/(j, i) access; an enumerate() rewrite obscures it"
    )]
    for i in 0..n {
        for j in (i + 1)..n {
            weights.push(nmi[i][j].min(nmi[j][i]));
        }
    }
    weights.sort_by(|a, b| b.total_cmp(a));
    let keep = ((density * weights.len() as f64).ceil() as usize)
        .clamp(1, weights.len());
    // An edge needs weight >= mu, so the cutoff is the weight of the last
    // kept pair. Guard against zero so the Def 5.4 constraint mu > 0 holds.
    weights[keep - 1].max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_timeseries::{Alphabet, SymbolicSeries};

    fn onoff(name: &str, bits: &str) -> SymbolicSeries {
        SymbolicSeries::from_labels(
            name,
            Alphabet::on_off(),
            bits.chars().map(|c| if c == '1' { "On" } else { "Off" }),
        )
    }

    fn db(rows: &[(&str, &str)]) -> SymbolicDatabase {
        let mut db = SymbolicDatabase::new(0, 1, rows[0].1.len());
        for (name, bits) in rows {
            db.push(onoff(name, bits));
        }
        db
    }

    #[test]
    fn perfectly_correlated_pair_connected() {
        let db = db(&[("A", "11001010"), ("B", "11001010"), ("C", "11110000")]);
        let g = CorrelationGraph::build(&db, 0.99);
        assert!(g.has_edge(VariableId(0), VariableId(1)));
        assert!(!g.has_edge(VariableId(0), VariableId(2)));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(
            g.correlated_variables(),
            vec![VariableId(0), VariableId(1)]
        );
    }

    #[test]
    fn self_edge_always_present() {
        let db = db(&[("A", "1100"), ("B", "0101")]);
        let g = CorrelationGraph::build(&db, 1.0);
        assert!(g.has_edge(VariableId(0), VariableId(0)));
    }

    #[test]
    fn edge_requires_both_directions() {
        // y is a function of x (NMI(Y;X)=1) but not vice versa.
        let abc = Alphabet::new(["A", "B", "C"]);
        let mut d = SymbolicDatabase::new(0, 1, 6);
        d.push(SymbolicSeries::from_labels(
            "X",
            abc,
            ["A", "B", "C", "A", "B", "C"],
        ));
        d.push(onoff("Y", "011011"));
        let g = CorrelationGraph::build(&d, 0.9);
        assert!(g.nmi(VariableId(1), VariableId(0)) > 0.99);
        assert!(g.nmi(VariableId(0), VariableId(1)) < 0.9);
        assert!(!g.has_edge(VariableId(0), VariableId(1)));
    }

    #[test]
    fn density_counts_fraction_of_complete_graph() {
        let d = db(&[("A", "110010"), ("B", "110010"), ("C", "110010"), ("D", "010101")]);
        let g = CorrelationGraph::build(&d, 0.99);
        // A-B, A-C, B-C connected: 3 of 6 possible edges.
        assert_eq!(g.n_edges(), 3);
        assert!((g.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mu_for_density_hits_target_edge_count() {
        let d = db(&[
            ("A", "1100101001"),
            ("B", "1100101001"),
            ("C", "1100101101"),
            ("D", "0011010110"),
            ("E", "0110110100"),
        ]);
        for &target in &[0.2, 0.4, 0.6] {
            let mu = mu_for_density(&d, target);
            let g = CorrelationGraph::build(&d, mu);
            let total_pairs = 10.0;
            let want = (target * total_pairs).ceil() as usize;
            assert!(
                g.n_edges() >= want,
                "density {target}: got {} edges, want >= {want}",
                g.n_edges()
            );
        }
        // Density 1.0 keeps every pair with positive two-way NMI; pairs
        // with NMI exactly 0 can never be edges since Def 5.4 needs mu > 0.
        let mu = mu_for_density(&d, 1.0);
        let g = CorrelationGraph::build(&d, mu);
        let positive_pairs = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                g.nmi(VariableId(i), VariableId(j)) > 0.0
                    && g.nmi(VariableId(j), VariableId(i)) > 0.0
            })
            .count();
        assert_eq!(g.n_edges(), positive_pairs);
    }

    #[test]
    fn mu_one_densest_graph_is_identical_series_only() {
        let d = db(&[("A", "1100"), ("B", "1100"), ("C", "1001")]);
        let g = CorrelationGraph::build(&d, 1.0);
        assert!(g.has_edge(VariableId(0), VariableId(1)));
        assert!(!g.has_edge(VariableId(0), VariableId(2)));
    }

    #[test]
    #[should_panic(expected = "mu must be in")]
    fn mu_zero_rejected() {
        let d = db(&[("A", "10"), ("B", "01")]);
        let _ = CorrelationGraph::build(&d, 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least two variables")]
    fn density_on_one_variable_rejected() {
        let d = db(&[("A", "10")]);
        let _ = CorrelationGraph::build_with_density(&d, 0.5);
    }
}
