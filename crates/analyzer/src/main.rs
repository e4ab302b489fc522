//! CLI entry point: `cargo run -p ftpm-analyzer [-- --root DIR --json PATH]`.
//!
//! Exit code 0 when the workspace is clean, 2 when any violation is
//! found, 1 on analyzer internal errors (unreadable files, usage
//! errors).

use std::path::PathBuf;
use std::process::ExitCode;

/// Outcome of one CLI run, ordered by exit-code severity.
enum Outcome {
    Clean,
    Violations,
    InternalError,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match ftpm_analyzer_cli(&args) {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Violations) => ExitCode::from(2),
        Ok(Outcome::InternalError) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ftpm-analyzer: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Parses args, runs the pass, prints the human summary, optionally
/// writes the JSON report.
fn ftpm_analyzer_cli(args: &[String]) -> Result<Outcome, String> {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory")?,
                ))
            }
            "--json" => {
                json = Some(PathBuf::from(
                    it.next().ok_or("--json requires a file path")?,
                ))
            }
            "--help" | "-h" => {
                println!(
                    "ftpm-analyzer: workspace invariant linter\n\n\
                     USAGE: ftpm-analyzer [--root DIR] [--json PATH]\n\n\
                     Per-file rules (token-level):\n  \
                     R1 and_count           no `.and(..).count_ones()` outside bitmap/src/kernel.rs or tests\n  \
                     R2a assert             no assert!/assert_eq!/assert_ne! in library code of core/events/bitmap/baselines/mi\n  \
                     R6 filter_confinement  CorrelationFilter built only at the approx/exchange seams\n\n\
                     Whole-program rules (over the workspace item graph):\n  \
                     R7 hot_path            no transient allocation / undocumented panics reachable from the hot set\n  \
                     R9 sink_seam           every public miner routes through the mine_*_internal seam\n\n\
                     Findings have no suppression. The other invariants are rustc and\n\
                     clippy lints (root Cargo.toml and clippy.toml), checked by\n\
                     `cargo clippy --workspace --all-targets -- -D warnings`; their one\n\
                     suppression form is `#[expect(lint, reason = \"...\")]`.\n\n\
                     Exit codes: 0 clean, 2 violations found, 1 internal error."
                );
                return Ok(Outcome::Clean);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            ftpm_analyzer::find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml above the current directory; pass --root")?
        }
    };

    let report = ftpm_analyzer::analyze_workspace(&root);
    for v in &report.violations {
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    for e in &report.internal_errors {
        eprintln!("internal error: {e}");
    }
    println!(
        "ftpm-analyzer: {} files scanned, {} violations, {} internal errors",
        report.files_scanned,
        report.violations.len(),
        report.internal_errors.len(),
    );
    if let Some(path) = json {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("ftpm-analyzer: report written to {}", path.display());
    }
    if !report.internal_errors.is_empty() {
        Ok(Outcome::InternalError)
    } else if !report.violations.is_empty() {
        Ok(Outcome::Violations)
    } else {
        Ok(Outcome::Clean)
    }
}
