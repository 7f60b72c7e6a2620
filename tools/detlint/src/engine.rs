//! File walking, suppression matching, and report assembly.

use crate::lexer;
use crate::rules::{self, Analysis, FileCtx, Finding, MetricsTable};
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose output is part of the byte-identity contract: the
/// campaign/bench layer, the verdict core, the store, the metrics
/// plane, the side-channel synthesizers — plus the umbrella `src/`
/// (CLI, integration glue). D1 and D3 apply here.
const ARTIFACT_MARKERS: &[&str] = &[
    "crates/core/",
    "crates/bench/",
    "crates/store/",
    "crates/obs/",
    "crates/sidechannel/",
];

/// Modules allowed to read host time and parallelism (rule D2): the
/// bench-report module that measures and records wall-clock
/// trajectories by design. Everything else justifies each site with
/// `allow(D2)` or routes through these.
const TIMING_ALLOWLIST: &[&str] = &["crates/bench/src/benchreport.rs"];

/// Directory names never descended into: generated output, dynamic
/// test pins (the dynamic layer this tool complements — test code
/// Debug-prints and times things legitimately), and bench harnesses.
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", ".git"];

/// Derives a [`FileCtx`] from a (slash-normalized) path.
pub fn ctx_for_path(path: &str) -> FileCtx {
    let p = path.replace('\\', "/");
    let artifact = ARTIFACT_MARKERS.iter().any(|m| p.contains(m))
        // The umbrella package's own src/ (CLI and lib) emits
        // artifacts too; `crates/*/src/` paths were handled above.
        || (!p.contains("crates/") && (p.starts_with("src/") || p.contains("/src/")))
        // Fixtures exercise the artifact-crate rule set by default.
        || p.contains("fixtures/");
    let timing_allowlisted = TIMING_ALLOWLIST.iter().any(|m| p.contains(m));
    FileCtx {
        display: path.to_string(),
        artifact,
        timing_allowlisted,
    }
}

/// Lints one source text. Suppression matching: a well-formed
/// `// detlint: allow(R) -- reason` suppresses findings of rule `R`
/// on its own line or the line directly below (annotation above a
/// statement). Malformed directives suppress nothing and are
/// themselves D0 findings.
pub fn lint_source(src: &str, ctx: &FileCtx, metrics: &mut MetricsTable) -> Vec<Finding> {
    let (toks, comments) = lexer::lex(src);
    let analysis = Analysis::new(&toks, ctx);
    let mut findings = analysis.run(metrics);
    let allows = rules::parse_allows(&comments);
    for allow in &allows {
        if let Some(err) = &allow.malformed {
            findings.push(Finding {
                file: ctx.display.clone(),
                line: allow.line,
                rule: "D0",
                msg: format!("malformed detlint directive: {err}"),
                suppressed: false,
            });
            continue;
        }
        for f in findings.iter_mut() {
            if allow.rules.iter().any(|r| r == f.rule)
                && (f.line == allow.line || f.line == allow.line + 1)
            {
                f.suppressed = true;
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// A whole lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub errors: Vec<String>,
}

impl Report {
    pub fn unsuppressed(&self) -> usize {
        self.findings.iter().filter(|f| !f.suppressed).count()
    }

    pub fn suppressed(&self) -> usize {
        self.findings.iter().filter(|f| f.suppressed).count()
    }
}

/// Walks `roots` (files or directories) and lints every `.rs` file
/// outside `SKIP_DIRS`, in sorted path order so output — and the D5
/// cross-file registration table — is deterministic.
pub fn lint_paths(roots: &[String]) -> Report {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut report = Report::default();
    for root in roots {
        let path = Path::new(root);
        if path.is_file() {
            files.push(path.to_path_buf());
        } else if path.is_dir() {
            collect_rs(path, &mut files, &mut report.errors);
        } else {
            report.errors.push(format!("no such path: {root}"));
        }
    }
    files.sort();
    files.dedup();

    let mut metrics = MetricsTable::default();
    for file in &files {
        let display = file.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(file) {
            Ok(src) => {
                let ctx = ctx_for_path(&display);
                report
                    .findings
                    .extend(lint_source(&src, &ctx, &mut metrics));
                report.files_scanned += 1;
            }
            Err(e) => report.errors.push(format!("cannot read {display}: {e}")),
        }
    }
    report
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>, errors: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("cannot read dir {}: {e}", dir.display()));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, files, errors);
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}
