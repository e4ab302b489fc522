//! Workspace smoke test: the quickstart pipeline end-to-end —
//! symbolize → split → mine — asserting each stage produces real output.

use ftpm::*;

/// Builds the paper's running example (Fig 1 / Table I): six appliances,
/// 36 samples at 5-minute steps, On/Off symbolization.
fn table1_symbolic_database() -> SymbolicDatabase {
    let step = 5;
    let rows = [
        ("Kitchen", "111100011000000111000011100110011100"),
        ("Toaster", "011100011001100111000011100110001110"),
        ("Microwave", "000011100111011000110110011001110011"),
        ("Coffee", "000011100110111000110110011001110011"),
        ("Ironer", "000000000110000011000000000110001100"),
        ("Blender", "000000011000000000110000000110000011"),
    ];
    let mut syb = SymbolicDatabase::new(0, step, rows[0].1.len());
    let symbolizer = ThresholdSymbolizer::new(0.05);
    for (name, bits) in rows {
        let values: Vec<f64> = bits
            .chars()
            .map(|c| if c == '1' { 120.0 } else { 0.01 })
            .collect();
        let ts = TimeSeries::new(name, 0, step, values);
        syb.add_time_series(&ts, &symbolizer);
    }
    syb
}

#[test]
fn quickstart_pipeline_end_to_end() {
    // Symbolize.
    let syb = table1_symbolic_database();
    assert_eq!(syb.n_variables(), 6);
    assert_eq!(syb.n_steps(), 36);

    // Split into 45-minute windows, no overlap: four sequences (Table III).
    let seq_db = to_sequence_database(&syb, SplitConfig::new(45, 0));
    assert_eq!(seq_db.len(), 4);
    assert!(
        seq_db.sequences().iter().all(|s| !s.is_empty()),
        "every window of the running example contains event instances"
    );

    // Mine exactly.
    let cfg = MinerConfig::new(0.7, 0.7).with_max_events(3);
    let exact = mine_exact(&seq_db, &cfg);
    assert!(
        !exact.frequent_events.is_empty(),
        "σ = 70% keeps frequent single events on the running example"
    );
    assert!(
        !exact.patterns.is_empty(),
        "the running example yields frequent temporal patterns"
    );
    // Every reported pattern respects the thresholds it was mined with.
    for p in &exact.patterns {
        assert!(p.rel_support >= cfg.sigma - 1e-12);
        assert!(p.confidence >= cfg.delta - 1e-12);
    }

    // Mine approximately; A-HTPGM searches a subgraph, so it can only
    // return a subset of E-HTPGM's patterns.
    let graph = CorrelationGraph::build_with_density(&syb, 0.4);
    let approx = mine_approximate(&seq_db, &graph, &cfg);
    assert!(approx.len() <= exact.len());
    let accuracy = approx.accuracy_against(&exact);
    assert!((0.0..=1.0).contains(&accuracy));
}

/// Bad CLI input is a usage error — exit 1 with a message naming the
/// flag or the CSV line — never a panic (exit 101).
#[test]
fn cli_rejects_out_of_range_input_without_panicking() {
    use std::process::Command;

    let csv = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_non_finite.csv");
    std::fs::write(&csv, "time,a,b\n0,1,0\n5,NaN,1\n10,0,1\n").expect("write temp csv");
    let csv = csv.to_str().expect("utf-8 temp path");
    let demo = ["mine", "--demo", "nist", "--scale", "0.01"];
    let cases: [(Vec<&str>, &str); 5] = [
        ([&demo[..], &["--mu", "0"]].concat(), "--mu"),
        ([&demo[..], &["--mu", "1.5"]].concat(), "--mu"),
        (
            [&demo[..], &["--approx-density", "2"]].concat(),
            "--approx-density",
        ),
        ([&demo[..], &["--max-events", "1"]].concat(), "--max-events"),
        (
            vec!["mine", "--input", csv, "--states", "3"],
            "line 3: non-finite value",
        ),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ftpm"))
            .args(&args)
            .output()
            .expect("run ftpm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.contains(needle)),
            "{args:?}: stderr must name {needle:?}: {stderr}"
        );
    }
}
