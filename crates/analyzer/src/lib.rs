//! # ftpm-analyzer — workspace invariant linter
//!
//! A project-specific static-analysis pass for the ftpm workspace. The
//! miner's headline guarantee (exchange == parallel == unsharded,
//! bit-for-bit) rests on conventions rustc cannot check; this crate
//! enforces them as errors. See [`rules`] for the per-file rule set
//! (R1–R6), [`graph`] for the whole-program rules (R7, R9, R10) over the
//! [`graph::ItemGraph`] workspace model, and the
//! `// lint: allow(rule, reason)` suppression grammar. Allow markers
//! that suppress nothing are themselves reported (warnings by default,
//! violations under [`AnalyzeOptions::strict_allows`]) so suppressions
//! cannot outlive their reason.
//!
//! Run it as `cargo run -p ftpm-analyzer` (or `ftpm lint`); add
//! `--json PATH` to emit the machine-readable `LINT_report.json` the CI
//! `analyze` job archives. Exit codes: 0 clean, 2 violations found,
//! 1 analyzer internal error.
#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use graph::{FileRecord, ItemGraph};
pub use report::{AllowRecord, Report, Violation};
pub use rules::{check_source, FileContext};

use std::path::{Path, PathBuf};

/// Options for a workspace pass.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Report stale allow markers as violations instead of warnings.
    pub strict_allows: bool,
}

/// Per-crate `#![forbid(unsafe_code)]` requirements: every crate root
/// must carry the attribute. `bench` is the one exception — its
/// allocation-tracking harness needs a `GlobalAlloc` impl, so its root
/// carries `#![deny(unsafe_code)]` with a module-scoped allow instead.
fn required_unsafe_attr(crate_name: &str) -> &'static str {
    if crate_name == "bench" {
        "deny"
    } else {
        "forbid"
    }
}

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

/// True if the crate-root source opts out of unsafe code at the required
/// level. Token-level check: `#![<level>(unsafe_code)]`.
fn has_unsafe_attr(src: &str, level: &str) -> bool {
    let lexed = lexer::lex(src);
    (0..lexed.tokens.len()).any(|i| {
        lexed.is_punct(src, i, "#")
            && lexed.is_punct(src, i + 1, "!")
            && lexed.is_punct(src, i + 2, "[")
            && lexed.is_ident(src, i + 3, level)
            && lexed.is_punct(src, i + 4, "(")
            && lexed.is_ident(src, i + 5, "unsafe_code")
            && lexed.is_punct(src, i + 6, ")")
            && lexed.is_punct(src, i + 7, "]")
    })
}

/// Lints every source file under `<root>/crates`, returning the full
/// report. `root` must be the workspace root (the directory holding the
/// top-level `Cargo.toml`).
pub fn analyze_workspace(root: &Path) -> Report {
    analyze_workspace_with(root, &AnalyzeOptions::default())
}

/// [`analyze_workspace`] with explicit options.
pub fn analyze_workspace_with(root: &Path, opts: &AnalyzeOptions) -> Report {
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

    let mut report = analyze_sources(sources, opts);
    report.root = root.display().to_string();
    report.internal_errors.extend(internal_errors);
    report
}

/// Lints an in-memory file set of `(workspace-relative path, source)`
/// pairs — the same full pass as [`analyze_workspace`] (per-file rules,
/// whole-program rules over the [`ItemGraph`], stale-allow audit), used
/// directly by the fixture tests.
pub fn analyze_sources(sources: Vec<(String, String)>, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::default();

    // Pass 1: lex + parse every file into the program model's records,
    // running the per-file rules (R1–R6 and R4b) along the way.
    let mut records: Vec<FileRecord> = Vec::new();
    for (rel, src) in sources {
        let ctx = FileContext::classify(&rel);
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        let allows = rules::collect_allows(&lexed, &ctx, &mut report.violations);
        let tests = rules::test_regions(&src, &lexed);
        rules::check_source_with(&src, &lexed, &ctx, &allows, &tests, &mut report.violations);

        // R4b: crate roots must opt out of unsafe code. A crate root is
        // src/lib.rs, src/main.rs, or a src/bin/*.rs target.
        let is_root = rel.ends_with("/src/lib.rs")
            || rel.ends_with("/src/main.rs")
            || (rel.contains("/src/bin/") && rel.ends_with(".rs"));
        if is_root {
            let level = required_unsafe_attr(&ctx.crate_name);
            if !has_unsafe_attr(&src, level) {
                report.violations.push(Violation {
                    rule: "R4/unsafe_attr".into(),
                    file: rel.clone(),
                    line: 1,
                    message: format!(
                        "crate root missing `#![{level}(unsafe_code)]` (every crate \
                         opts out of unsafe; `bench` uses `deny` with a module-scoped \
                         allow on alloc_track)"
                    ),
                });
            }
        }

        let parsed = parser::parse_file(&src, &lexed, &tests);
        records.push(FileRecord {
            ctx,
            src,
            lexed,
            parsed,
            allows,
            test_regions: tests,
        });
    }

    // Pass 2: whole-program rules (R7, R9, R10) over the item graph.
    let item_graph = ItemGraph::build(&records);
    item_graph.check_all(&mut report.violations);

    // Pass 3: stale-allow audit — markers that suppressed nothing in
    // either pass have outlived their reason.
    for rec in &records {
        for a in &rec.allows {
            if a.used.get() {
                continue;
            }
            let v = Violation {
                rule: "stale_allow".into(),
                file: rec.ctx.rel_path.clone(),
                line: a.line,
                message: format!(
                    "`// lint: allow({}, {})` suppresses no finding; remove the \
                     marker (suppressions must not outlive their reason)",
                    a.rule, a.reason
                ),
            };
            if opts.strict_allows {
                report.violations.push(v);
            } else {
                report.warnings.push(v);
            }
        }
    }

    // Audit trail: record every allow marker with its reason.
    for rec in &records {
        for a in &rec.allows {
            report.allows.push(AllowRecord {
                rule: a.rule.clone(),
                file: rec.ctx.rel_path.clone(),
                line: a.line,
                reason: a.reason.clone(),
            });
        }
    }

    let key = |v: &Violation| (v.file.clone(), v.line, v.rule.clone());
    report.violations.sort_by_key(key);
    report.warnings.sort_by_key(key);
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
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

    #[test]
    fn unsafe_attr_detection() {
        assert!(has_unsafe_attr("#![forbid(unsafe_code)]\npub fn f() {}", "forbid"));
        assert!(has_unsafe_attr(
            "//! docs first\n#![forbid(unsafe_code)]",
            "forbid"
        ));
        assert!(!has_unsafe_attr("#![forbid(unsafe_code)]", "deny"));
        assert!(!has_unsafe_attr("pub fn f() {}", "forbid"));
        // An outer attribute on an item is not a crate-level opt-out.
        assert!(!has_unsafe_attr("#[forbid(unsafe_code)]\nmod m {}", "forbid"));
    }

    /// The linter must be clean on its own workspace — the same check
    /// `cargo run -p ftpm-analyzer` performs, wired into `cargo test` so
    /// a violation fails fast without the separate binary run.
    #[test]
    fn workspace_is_lint_clean() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above CARGO_MANIFEST_DIR");
        let report = analyze_workspace(&root);
        assert!(report.files_scanned > 20, "walker found the crates");
        let render = |list: &[Violation]| -> String {
            list.iter()
                .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(
            report.violations.is_empty(),
            "workspace has lint violations:\n{}",
            render(&report.violations)
        );
        // Stale allows are warnings by default, but the workspace itself
        // must not carry any — a suppression that fires nothing is dead.
        assert!(
            report.warnings.is_empty(),
            "workspace has stale allow markers:\n{}",
            render(&report.warnings)
        );
        assert!(
            report.internal_errors.is_empty(),
            "analyzer internal errors: {:?}",
            report.internal_errors
        );
    }
}
