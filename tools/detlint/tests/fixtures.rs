//! Golden fixture corpus: every rule has a positive file (must fire)
//! and a negative file (must stay silent), plus the allow-hygiene
//! pair. D7's cross-crate behaviour is pinned on a temp tree at the
//! end of this file. Expected findings live next to each fixture as
//! `<name>.expected`; regenerate with
//! `UPDATE_EXPECT=1 cargo test -p detlint`.

use detlint::engine::{gather_callers, lint_paths, lint_source};
use detlint::rules::{Callers, FileCtx, Finding, MetricsTable};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture_sources() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    files
}

/// Lints one fixture in isolation: basename display, artifact-crate
/// context, its own D5 registration table, and a library crate of its
/// own for D7 (so only a doc example can call its `pub fn`s).
fn lint_fixture(path: &Path) -> Vec<Finding> {
    let src = fs::read_to_string(path).expect("fixture source");
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let ctx = FileCtx {
        display: name.clone(),
        artifact: true,
        krate: name,
        library: true,
    };
    let mut callers = Callers::default();
    gather_callers(&src, &ctx, &mut callers);
    let mut metrics = MetricsTable::default();
    lint_source(&src, &ctx, &mut metrics, &callers)
}

fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.render());
        if f.suppressed {
            out.push_str(" [suppressed]");
        }
        out.push('\n');
    }
    out
}

#[test]
fn fixtures_match_their_goldens() {
    let update = std::env::var_os("UPDATE_EXPECT").is_some();
    let mut failures = Vec::new();
    for path in fixture_sources() {
        let rendered = render(&lint_fixture(&path));
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &rendered).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run UPDATE_EXPECT=1 cargo test -p detlint",
                expected_path.display()
            )
        });
        if rendered != expected {
            failures.push(format!(
                "{}:\n--- expected ---\n{expected}\n--- got ---\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn positive_fixtures_fire_negative_fixtures_pass() {
    for path in fixture_sources() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let unsuppressed = lint_fixture(&path).iter().filter(|f| !f.suppressed).count();
        if name.ends_with("_pos") {
            assert!(unsuppressed > 0, "{name}: positive fixture found nothing");
        } else {
            assert_eq!(unsuppressed, 0, "{name}: negative fixture fired");
        }
    }
}

#[test]
fn every_rule_has_a_positive_and_negative_fixture() {
    let names: Vec<String> = fixture_sources()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for rule in ["d1", "d2", "d3", "d4", "d5", "d7"] {
        assert!(
            names.iter().any(|n| n == &format!("{rule}_pos")),
            "{rule}_pos missing"
        );
        assert!(
            names.iter().any(|n| n == &format!("{rule}_neg")),
            "{rule}_neg missing"
        );
    }
    assert!(names.iter().any(|n| n == "d0_allow_pos"));
    assert!(names.iter().any(|n| n == "d0_allow_neg"));
}

#[test]
fn justified_allow_suppresses_but_is_counted() {
    let findings = lint_fixture(&fixtures_dir().join("d0_allow_neg.rs"));
    assert_eq!(findings.iter().filter(|f| !f.suppressed).count(), 0);
    assert_eq!(findings.iter().filter(|f| f.suppressed).count(), 1);
    assert_eq!(findings[0].rule, "D2");
}

#[test]
fn allow_without_reason_is_a_finding_and_suppresses_nothing() {
    let findings = lint_fixture(&fixtures_dir().join("d0_allow_pos.rs"));
    let d0: Vec<_> = findings.iter().filter(|f| f.rule == "D0").collect();
    let d2_live: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "D2" && !f.suppressed)
        .collect();
    assert_eq!(d0.len(), 2, "missing reason + unknown rule");
    assert_eq!(d2_live.len(), 2, "malformed allows must not suppress");
    assert!(d0[0].msg.contains("justification"));
    assert!(d0[1].msg.contains("unknown rule"));
}

#[test]
fn engine_walk_over_fixtures_reports_unsuppressed_findings() {
    let dir = fixtures_dir();
    let report = lint_paths(&[dir.to_string_lossy().into_owned()]);
    assert_eq!(report.files_scanned, fixture_sources().len());
    assert!(report.unsuppressed() > 0, "positive fixtures must gate CI");
    assert!(report.suppressed() > 0, "the justified allow is tallied");
    assert!(report.errors.is_empty());
}

#[test]
fn d7_counts_callers_across_crates_and_examples() {
    let root = std::env::temp_dir().join(format!("detlint-d7-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in [
        (
            "crates/alpha/src/lib.rs",
            "pub fn called_by_beta() {}\n\
             pub fn called_by_example() {}\n\
             pub fn called_only_here() {}\n\
             pub(crate) fn helper() { called_only_here(); }\n",
        ),
        (
            "crates/beta/src/lib.rs",
            "pub fn run() { alpha::called_by_beta(); }\n",
        ),
        (
            "examples/demo.rs",
            "fn main() { alpha::called_by_example(); beta::run(); }\n",
        ),
    ] {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
        fs::write(path, text).expect("temp file");
    }
    let roots = ["crates", "examples"].map(|d| root.join(d).to_string_lossy().into_owned());
    let report = lint_paths(&roots);
    let _ = fs::remove_dir_all(&root);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let d7: Vec<&Finding> = report.findings.iter().filter(|f| f.rule == "D7").collect();
    assert_eq!(d7.len(), 1, "{d7:?}");
    assert!(d7[0].file.ends_with("crates/alpha/src/lib.rs"));
    assert_eq!(d7[0].line, 3);
    assert!(d7[0].msg.contains("called_only_here"), "{}", d7[0].msg);
    assert!(d7[0].msg.contains("crate `alpha`"), "{}", d7[0].msg);
}
