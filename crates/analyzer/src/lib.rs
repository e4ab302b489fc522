//! # ftpm-analyzer — workspace invariant linter
//!
//! A project-specific static-analysis pass for the ftpm workspace. The
//! miner's headline guarantee (exchange == parallel == unsharded,
//! bit-for-bit) rests on conventions the compiler cannot check from
//! types alone. Those the toolchain *can* express are rustc and clippy
//! lints, set in the root `Cargo.toml` and `clippy.toml`: no `unsafe`
//! (`unsafe_code = "forbid"`), no panicking calls in library code
//! (`clippy::unwrap_used` and friends, denied in each panic-free crate's
//! root), named enum variants in every `match`
//! (`clippy::wildcard_enum_match_arm`), no swallowed results
//! (`clippy::let_underscore_must_use`, `clippy::unused_result_ok`) and
//! concurrency confined to the worker pool (`clippy::disallowed_types`,
//! `clippy::disallowed_methods`). A deliberate exception is written
//! `#[expect(lint, reason = "…")]`; an expectation that suppresses
//! nothing fails `-D warnings` as `unfulfilled_lint_expectations`.
//!
//! This crate checks the rest, and reports every finding as an error
//! with no suppression: see [`rules`] for the per-file rules (R1, R2a,
//! R6) and [`graph`] for the whole-program rules (R7, R9) over the
//! [`graph::ItemGraph`] workspace model.
//!
//! Run it as `cargo run -p ftpm-analyzer`; add `--json PATH` to emit the
//! machine-readable `LINT_report.json` the CI `analyze` job archives.
//! Exit codes: 0 clean, 2 violations found, 1 analyzer internal error.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use graph::{FileRecord, ItemGraph};
pub use report::{Report, Violation};
pub use rules::{check_source, FileContext};

use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `dir`, sorted for a
/// deterministic report.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `fixtures` holds the analyzer's own deliberately-bad test
            // snippets — data for `analyze_sources`, not workspace code.
            if path.file_name().is_some_and(|n| n == "target" || n == "fixtures") {
                continue;
            }
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every source file under `<root>/crates`, returning the full
/// report. `root` must be the workspace root (the directory holding the
/// top-level `Cargo.toml`).
pub fn analyze_workspace(root: &Path) -> Report {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    rs_files(&crates_dir, &mut files);

    let mut sources = Vec::new();
    let mut internal_errors = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(path) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => internal_errors.push(format!("{rel}: unreadable ({e})")),
        }
    }

    let mut report = analyze_sources(sources);
    report.root = root.display().to_string();
    report.internal_errors.extend(internal_errors);
    report
}

/// Lints an in-memory file set of `(workspace-relative path, source)`
/// pairs — the same full pass as [`analyze_workspace`] (per-file rules,
/// then the whole-program rules over the [`ItemGraph`]), used directly
/// by the fixture tests.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Report {
    let mut report = Report::default();

    // Pass 1: lex + parse every file into the program model's records,
    // running the per-file rules along the way.
    let mut records: Vec<FileRecord> = Vec::new();
    for (rel, src) in sources {
        let ctx = FileContext::classify(&rel);
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        let tests = rules::test_regions(&src, &lexed);
        rules::check_source_with(&src, &lexed, &ctx, &tests, &mut report.violations);
        let documented_panics = graph::DOCUMENTED_PANICS
            .iter()
            .map(|&(_, lint)| rules::expect_regions(&src, &lexed, lint))
            .collect();
        let parsed = parser::parse_file(&src, &lexed, &tests);
        records.push(FileRecord {
            ctx,
            parsed,
            documented_panics,
        });
    }

    // Pass 2: whole-program rules (R7, R9) over the item graph.
    let item_graph = ItemGraph::build(&records);
    item_graph.check_all(&mut report.violations);

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above CARGO_MANIFEST_DIR")
    }

    /// The linter must be clean on its own workspace — the same check
    /// `cargo run -p ftpm-analyzer` performs, wired into `cargo test` so
    /// a violation fails fast without the separate binary run.
    #[test]
    fn workspace_is_lint_clean() {
        let report = analyze_workspace(&workspace_root());
        assert!(report.files_scanned > 20, "walker found the crates");
        let rendered: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
            .collect();
        assert!(
            report.violations.is_empty(),
            "workspace has lint violations:\n{}",
            rendered.join("\n")
        );
        assert!(
            report.internal_errors.is_empty(),
            "analyzer internal errors: {:?}",
            report.internal_errors
        );
    }

    /// The toolchain half of the rule set reaches a crate only through
    /// its manifest: every `crates/*` package must carry a `[lints]`
    /// table (`workspace = true`, or bench's own copy), so no crate can
    /// silently drop `unsafe_code = "forbid"` and the clippy denials.
    #[test]
    fn every_crate_manifest_has_a_lints_table() {
        let crates = workspace_root().join("crates");
        let mut checked = 0;
        for entry in std::fs::read_dir(&crates).expect("crates/ readable") {
            let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue;
            };
            let has_lints = text.lines().any(|l| {
                let l = l.trim();
                l == "[lints]" || l == "[lints.rust]"
            });
            assert!(has_lints, "{} has no [lints] table", manifest.display());
            checked += 1;
        }
        assert!(checked >= 10, "found {checked} crate manifests");
    }
}
