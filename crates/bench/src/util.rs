//! Shared harness plumbing: timing, miner dispatch, grid/row printing and
//! CSV output.

use std::time::{Duration, Instant};

use ftpm_core::{MinerConfig, MiningResult};
use ftpm_datagen::Dataset;

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// The five miners of the Table VII/VIII comparisons, in the paper's
/// presentation order, plus A-HTPGM at a given correlation-graph density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    HDfs,
    IEMiner,
    TPMiner,
    EHtpgm,
    /// Multi-threaded E-HTPGM with this many worker threads — the
    /// `--threads` path of the CLI, for the threads-scaling experiment.
    EHtpgmPar(usize),
    /// A-HTPGM keeping this fraction of correlation-graph edges
    /// (Def 5.6; the paper's "A-HTPGM (80%)" etc.).
    AHtpgm(f64),
}

impl Method {
    /// The paper's standard line-up.
    pub fn lineup() -> Vec<Method> {
        vec![
            Method::HDfs,
            Method::IEMiner,
            Method::TPMiner,
            Method::EHtpgm,
            Method::AHtpgm(0.8),
            Method::AHtpgm(0.6),
            Method::AHtpgm(0.4),
            Method::AHtpgm(0.2),
        ]
    }

    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Method::HDfs => "H-DFS".into(),
            Method::IEMiner => "IEMiner".into(),
            Method::TPMiner => "TPMiner".into(),
            Method::EHtpgm => "E-HTPGM".into(),
            Method::EHtpgmPar(threads) => format!("E-HTPGM ({threads}thr)"),
            Method::AHtpgm(d) => format!("A-HTPGM ({:.0}%)", d * 100.0),
        }
    }

    /// Runs the miner on a dataset.
    pub fn run(&self, data: &Dataset, cfg: &MinerConfig) -> MiningResult {
        match self {
            Method::HDfs => ftpm_baselines::mine_hdfs(&data.seq, cfg),
            Method::IEMiner => ftpm_baselines::mine_ieminer(&data.seq, cfg),
            Method::TPMiner => ftpm_baselines::mine_tpminer(&data.seq, cfg),
            Method::EHtpgm => ftpm_core::mine_exact(&data.seq, cfg),
            Method::EHtpgmPar(threads) => {
                ftpm_core::mine_exact_parallel(&data.seq, cfg, *threads)
            }
            // The paper's A-HTPGM runtime includes the NMI computation, so
            // the graph build is part of the timed run.
            Method::AHtpgm(density) => {
                let graph = ftpm_mi::CorrelationGraph::build_with_density(&data.syb, *density);
                ftpm_core::mine_approximate(&data.seq, &graph, cfg)
            }
        }
    }
}

/// Harness options shared by every experiment binary: positional args
/// `[scale] [max_events]`.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Dataset scale in (0, 1] relative to the paper's full size.
    pub scale: f64,
    /// Pattern-length cap, to keep the low-σ cells bounded.
    pub max_events: usize,
}

impl Opts {
    /// Parses `[scale] [max_events]` from argv with the given defaults.
    pub fn from_args(default_scale: f64, default_max_events: usize) -> Opts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Opts {
            scale: args
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(default_scale),
            max_events: args
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(default_max_events),
        }
    }
}

/// A simple results table that prints aligned rows and can be saved as
/// CSV under `results/`.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with the experiment id (e.g. `"table7"`).
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the table and writes `results/<name>.csv`.
    pub fn finish(self) {
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
        let mut csv = self.header.join(",") + "\n";
        for r in &self.rows {
            csv.push_str(&r.join(","));
            csv.push('\n');
        }
        println!();
        write_result(&format!("results/{}.csv", self.name), &csv);
    }
}

/// Writes one result file under `results/`, creating the directory
/// first, and reports the outcome: `wrote PATH` on stdout, or the I/O
/// error on stderr.
pub(crate) fn write_result(path: &str, contents: &str) {
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, contents));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Formats a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
