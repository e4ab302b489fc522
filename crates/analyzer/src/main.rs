//! CLI entry point: `cargo run -p ftpm-analyzer [-- --root DIR --json PATH]`.
//!
//! Exit code 0 when the workspace is clean, 2 when any violation is
//! found, 1 on analyzer internal errors (unreadable files, usage
//! errors). Also reachable as `ftpm lint`.
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ftpm_analyzer::AnalyzeOptions;

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
    let mut opts = AnalyzeOptions::default();
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
            "--strict-allows" => opts.strict_allows = true,
            "--help" | "-h" => {
                println!(
                    "ftpm-analyzer: workspace invariant linter\n\n\
                     USAGE: ftpm-analyzer [--root DIR] [--json PATH] [--strict-allows]\n\n\
                     Per-file rules (token-level):\n  \
                     R1 and_count           no `.and(..).count_ones()` outside bitmap/src/kernel.rs or tests\n  \
                     R2 panic               no panics in library code of core/events/bitmap/baselines/mi\n  \
                     R3 boundary_match      BoundaryPolicy matches name every variant\n  \
                     R4 unsafe              unsafe confined to bench/src/alloc_track.rs\n  \
                     R5 write_discard       sink write results must not be discarded\n  \
                     R6 filter_confinement  CorrelationFilter built only at the approx/exchange seams\n\n\
                     Whole-program rules (over the workspace item graph):\n  \
                     R7 hot_path            no transient allocation / undocumented panics reachable from the hot set\n  \
                     R9 sink_seam           every public miner routes through the mine_*_internal seam\n  \
                     R10 concurrency        threads/channels/shared state only in parallel/executor/schedule.rs\n\n\
                     Suppress a finding with `// lint: allow(rule, reason)` on the\n\
                     same line or the line above. Markers that suppress nothing are\n\
                     reported as warnings (violations with --strict-allows).\n\n\
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

    let report = ftpm_analyzer::analyze_workspace_with(&root, &opts);
    for v in &report.violations {
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    for w in &report.warnings {
        eprintln!("{}:{}: warning [{}] {}", w.file, w.line, w.rule, w.message);
    }
    for e in &report.internal_errors {
        eprintln!("internal error: {e}");
    }
    println!(
        "ftpm-analyzer: {} files scanned, {} violations, {} warnings, \
         {} internal errors, {} allow markers",
        report.files_scanned,
        report.violations.len(),
        report.warnings.len(),
        report.internal_errors.len(),
        report.allows.len()
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
