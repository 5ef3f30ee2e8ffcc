//! The live workspace must audit clean: zero findings, every crate at
//! or under its committed panic-surface baseline, every workspace member
//! in the tier map, and a well-formed report. This is the same code path
//! `cargo run -p audit` and the CI job execute.

use std::fs;
use std::path::{Path, PathBuf};

use audit::{ratchet_findings, report, run_audit, tiers};
use tokenflow_json::{self as json, Json};

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    tiers::find_root(here).expect("workspace root above crates/audit")
}

fn render_all(findings: &[audit::diag::Diagnostic]) -> String {
    findings
        .iter()
        .map(|d| d.render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_audits_clean() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    assert!(
        !outcome.crates.is_empty() && outcome.files_scanned > 0,
        "audit found no files — tier map or walker is broken"
    );
    assert!(
        outcome.findings.is_empty(),
        "workspace has unbaselined findings:\n{}",
        render_all(&outcome.findings)
    );
}

#[test]
fn panic_surface_is_within_the_committed_baseline() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    let text = fs::read_to_string(root.join("audit_baseline.json")).unwrap();
    let baseline = report::parse_baseline(&text).unwrap();
    let regressions = ratchet_findings(&outcome, &baseline);
    assert!(
        regressions.is_empty(),
        "panic-surface ratchet regressed:\n{}",
        render_all(&regressions)
    );
    // Every baselined crate still exists — a deleted crate should be
    // dropped from the baseline, not left to rot.
    let names: Vec<&str> = outcome.crates.iter().map(|c| c.name).collect();
    for name in baseline.keys() {
        assert!(
            names.contains(&name.as_str()),
            "baseline entry `{name}` names a crate not in the tier map"
        );
    }
}

/// The root manifest's `[workspace] members` entries, in order.
fn workspace_members(root: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let start = manifest
        .find("members = [")
        .expect("the root manifest lists its workspace members");
    let list = &manifest[start..];
    let list = &list[list.find('[').unwrap() + 1..list.find(']').unwrap()];
    list.split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .map(String::from)
        .collect()
}

#[test]
fn tier_map_covers_every_workspace_member() {
    let members = workspace_members(&workspace_root());
    let dirs: Vec<&str> = tiers::WORKSPACE.iter().map(|c| c.dir).collect();
    for member in members.iter().filter(|m| !m.starts_with("vendor/")) {
        assert!(
            dirs.contains(&member.as_str()),
            "workspace member `{member}` has no tiers::WORKSPACE entry, so it goes unaudited"
        );
    }
    // The root package (`.`) is a member by virtue of the root manifest.
    for dir in dirs {
        assert!(
            dir == "." || members.iter().any(|m| m == dir),
            "tiers::WORKSPACE entry `{dir}` is not a workspace member"
        );
    }
}

#[test]
fn committed_baseline_round_trips_byte_for_byte() {
    let text = fs::read_to_string(workspace_root().join("audit_baseline.json")).unwrap();
    let baseline = report::parse_baseline(&text).unwrap();
    assert_eq!(report::baseline_json(&baseline), text);
}

#[test]
fn report_json_is_well_formed_and_clean() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    let text = fs::read_to_string(root.join("audit_baseline.json")).unwrap();
    let baseline = report::parse_baseline(&text).unwrap();
    let doc = json::parse(&report::report_json(&outcome, &baseline)).unwrap();
    assert_eq!(doc.get("schema"), Some(&json::s("tokenflow-audit/v1")));
    assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("crates").and_then(Json::as_arr).map(<[Json]>::len),
        Some(tiers::WORKSPACE.len())
    );
    // Every allow in the report carries a non-empty reason.
    for (_, allow) in &outcome.allows {
        assert!(!allow.reason.trim().is_empty());
    }
}
