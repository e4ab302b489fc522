//! Fixture corpus for the analyzer's rule set: for every rule (R1, R2a,
//! R6, R7, R9) there is one deliberately-bad case (`rN_flagged/`) that
//! must trip exactly that rule and one minimally-different good case
//! (`rN_clean/`) that must pass the *whole* pipeline clean. Each case directory
//! mirrors workspace-relative paths (`crates/<crate>/src/...`) because
//! the rules key on file placement; the files are fed to
//! [`analyze_sources`] as an in-memory workspace, so the corpus never
//! has to compile. The workspace walker skips `fixtures/` directories —
//! these snippets are data, not code.
//!
//! The JSON snapshot test pins the machine-readable report shape the CI
//! `analyze` job greps; regenerate with `UPDATE_SNAPSHOTS=1 cargo test
//! -p ftpm-analyzer --test fixtures`.

use std::fs;
use std::path::Path;

use ftpm_analyzer::{analyze_sources, Report};

/// Loads one case directory as `(workspace-relative path, source)`
/// pairs, sorted for determinism.
fn load_case(case: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case);
    let mut rels = Vec::new();
    collect(&dir, &dir, &mut rels);
    assert!(!rels.is_empty(), "fixture case {case} has no files");
    rels.sort();
    rels.into_iter()
        .map(|rel| {
            let src = fs::read_to_string(dir.join(&rel)).expect("fixture file readable");
            (rel, src)
        })
        .collect()
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("fixture dir readable") {
        let path = entry.expect("fixture dir entry").path();
        if path.is_dir() {
            collect(root, &path, out);
        } else {
            let rel = path
                .strip_prefix(root)
                .expect("file under case root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

fn run(case: &str) -> Report {
    analyze_sources(load_case(case))
}

fn render(report: &Report) -> String {
    report
        .violations
        .iter()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every rule has a flagged fixture tripping it (and nothing else) and a
/// clean fixture passing the full pipeline — violations and internal
/// errors both empty.
#[test]
fn every_rule_has_a_flagged_and_a_clean_fixture() {
    for (n, tag) in [(1, "R1/"), (2, "R2a/"), (6, "R6/"), (7, "R7/"), (9, "R9/")] {
        let flagged = run(&format!("r{n}_flagged"));
        assert!(
            flagged.violations.iter().any(|v| v.rule.starts_with(tag)),
            "r{n}_flagged must trip {tag}:\n{}",
            render(&flagged)
        );
        assert!(
            flagged.violations.iter().all(|v| v.rule.starts_with(tag)),
            "r{n}_flagged must trip only {tag}:\n{}",
            render(&flagged)
        );
        assert!(
            flagged.internal_errors.is_empty(),
            "r{n}_flagged hit internal errors: {:?}",
            flagged.internal_errors
        );

        let clean = run(&format!("r{n}_clean"));
        assert!(
            clean.violations.is_empty(),
            "r{n}_clean must pass clean:\n{}",
            render(&clean)
        );
        assert!(
            clean.internal_errors.is_empty(),
            "r{n}_clean hit internal errors: {:?}",
            clean.internal_errors
        );
    }
}

/// R7's hot set covers the writer sinks' per-row path: a per-row
/// `to_string` in `CsvSink::node` and a `format!` in `JsonlSink::node`
/// are both flagged, while rows appended from pre-escaped labels pass.
#[test]
fn r7_covers_writer_sink_rows() {
    let flagged = run("r7_sink_flagged");
    for (name, via) in [("to_string", "CsvSink"), ("format!", "JsonlSink")] {
        assert!(
            flagged.violations.iter().any(|v| v.rule == "R7/hot_path"
                && v.file == "crates/core/src/sink.rs"
                && v.message.contains(&format!("`{name}`"))),
            "{via}::node must be flagged for `{name}`:\n{}",
            render(&flagged)
        );
    }
    assert!(
        flagged.violations.iter().all(|v| v.rule == "R7/hot_path"),
        "r7_sink_flagged must trip only R7:\n{}",
        render(&flagged)
    );

    let clean = run("r7_sink_clean");
    assert!(
        clean.violations.is_empty() && clean.internal_errors.is_empty(),
        "r7_sink_clean must pass clean:\n{}",
        render(&clean)
    );
}

/// R7 treats a panic site as documented only inside an
/// `#[expect(clippy::<its lint>, reason = …)]`: the kernel helper's
/// annotated `.expect` passes (`r7_clean`), the bare `.unwrap()` is
/// flagged next to the `format!` (`r7_flagged`), and an expectation for
/// a different lint documents nothing.
#[test]
fn r7_accepts_only_panics_documented_by_their_own_lint() {
    let flagged = run("r7_flagged");
    for name in ["format!", "unwrap"] {
        assert!(
            flagged
                .violations
                .iter()
                .any(|v| v.rule == "R7/hot_path" && v.message.contains(&format!("`{name}`"))),
            "r7_flagged must flag `{name}`:\n{}",
            render(&flagged)
        );
    }

    let mut sources = load_case("r7_clean");
    assert!(sources[0].1.contains("clippy::expect_used"));
    sources[0].1 = sources[0].1.replace("clippy::expect_used", "clippy::unwrap_used");
    let mislabelled = analyze_sources(sources);
    assert!(
        mislabelled
            .violations
            .iter()
            .any(|v| v.rule == "R7/hot_path" && v.message.contains("`expect`")),
        "an unwrap_used expectation must not document `.expect`:\n{}",
        render(&mislabelled)
    );
}

/// Snapshot of the JSON report shape, with a populated violation array.
/// CI greps this format (`violation_count`, `internal_error_count`), so
/// drift must be deliberate.
#[test]
fn json_report_shape_snapshot() {
    let sources = vec![(
        "crates/events/src/snap.rs".to_string(),
        "pub fn snap(v: &[u32]) -> u32 {\n    assert!(!v.is_empty());\n    v[0]\n}\n"
            .to_string(),
    )];
    let report = analyze_sources(sources);
    let actual = report.to_json();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report_snapshot.json");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::write(&path, &actual).expect("write snapshot");
    }
    let expected = fs::read_to_string(&path)
        .expect("snapshot present — regenerate with UPDATE_SNAPSHOTS=1");
    assert_eq!(
        actual, expected,
        "JSON report shape drifted; regenerate with UPDATE_SNAPSHOTS=1 if deliberate"
    );
}
