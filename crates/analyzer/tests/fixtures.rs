//! Fixture corpus for the analyzer's rule set: for every rule R1–R10
//! except the retired R8 (facade coverage) there is one deliberately-bad case (`rN_flagged/`) that must trip
//! exactly that rule and one minimally-different good case (`rN_clean/`)
//! that must pass the *whole* pipeline clean. Each case directory
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

use ftpm_analyzer::{analyze_sources, AnalyzeOptions, Report};

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
    analyze_sources(load_case(case), &AnalyzeOptions::default())
}

fn render(report: &Report) -> String {
    report
        .violations
        .iter()
        .chain(&report.warnings)
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every rule has a flagged fixture tripping it (and nothing else) and a
/// clean fixture passing the full pipeline — violations, warnings and
/// internal errors all empty.
#[test]
fn every_rule_has_a_flagged_and_a_clean_fixture() {
    for n in (1..=10).filter(|&n| n != 8) {
        let tag = format!("R{n}/");
        let flagged = run(&format!("r{n}_flagged"));
        assert!(
            flagged.violations.iter().any(|v| v.rule.starts_with(&tag)),
            "r{n}_flagged must trip {tag}:\n{}",
            render(&flagged)
        );
        assert!(
            flagged.violations.iter().all(|v| v.rule.starts_with(&tag)),
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
            clean.violations.is_empty() && clean.warnings.is_empty(),
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
        clean.violations.is_empty()
            && clean.warnings.is_empty()
            && clean.internal_errors.is_empty(),
        "r7_sink_clean must pass clean:\n{}",
        render(&clean)
    );
}

/// A suppression that fires nothing is reported — warning by default,
/// violation under `--strict-allows` — so markers cannot outlive their
/// reason.
#[test]
fn stale_allows_warn_by_default_and_error_under_strict() {
    let sources = vec![(
        "crates/core/src/quiet.rs".to_string(),
        "// lint: allow(panic, never fires)\npub fn quiet() {}\n".to_string(),
    )];
    let lax = analyze_sources(sources.clone(), &AnalyzeOptions::default());
    assert!(lax.violations.is_empty(), "{}", render(&lax));
    assert_eq!(lax.warnings.len(), 1, "{}", render(&lax));
    assert_eq!(lax.warnings[0].rule, "stale_allow");

    let strict = analyze_sources(sources, &AnalyzeOptions { strict_allows: true });
    assert_eq!(strict.violations.len(), 1, "{}", render(&strict));
    assert_eq!(strict.violations[0].rule, "stale_allow");
    assert!(strict.warnings.is_empty(), "{}", render(&strict));
}

/// A used suppression is *not* stale: the same marker next to a real
/// panic site suppresses the finding and survives the audit.
#[test]
fn used_allows_are_not_stale() {
    let sources = vec![(
        "crates/core/src/loud.rs".to_string(),
        "pub fn loud(v: &[u32]) -> u32 {\n    \
         // lint: allow(panic, v is non-empty by construction)\n    \
         *v.first().unwrap()\n}\n"
            .to_string(),
    )];
    let report = analyze_sources(sources, &AnalyzeOptions { strict_allows: true });
    assert!(
        report.violations.is_empty() && report.warnings.is_empty(),
        "{}",
        render(&report)
    );
    assert_eq!(report.allows.len(), 1, "audit trail keeps the marker");
}

/// Snapshot of the JSON report shape: one violation, one stale-allow
/// warning, one audit-trail allow — every array and counter populated.
/// CI greps this format (`violation_count`, `internal_error_count`), so
/// drift must be deliberate.
#[test]
fn json_report_shape_snapshot() {
    let sources = vec![(
        "crates/events/src/snap.rs".to_string(),
        "// lint: allow(and_count, stale by design)\n\
         pub fn snap(v: &[u32]) -> u32 { *v.first().unwrap() }\n"
            .to_string(),
    )];
    let report = analyze_sources(sources, &AnalyzeOptions::default());
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
