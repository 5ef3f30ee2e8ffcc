//! `audit` — workspace static analysis for the determinism contract.
//!
//! Everything this repository claims — executor byte-identity under
//! faults, pinned golden digests, zero-alloc fast-path steps, trace
//! merge-order invariance — rests on a determinism contract that the
//! dynamic suites can only *sample*: a property test catches an
//! unordered iteration or a stray wall-clock read only when some
//! scheduler or plan happens to tickle it. This crate enforces the
//! contract at the source level instead, so the hazard *cannot be
//! written*:
//!
//! 1. **determinism** — bans wall-clock (`Instant::now`, `SystemTime`),
//!    `std::env`, unseeded randomness, and thread/host-identity reads
//!    in the deterministic tier.
//! 2. **unordered** — flags iteration over `HashMap`/`HashSet`-typed
//!    bindings and fields in the deterministic tier (lookup-only use is
//!    fine; iteration needs a sorted structure or a justified allow).
//! 3. **panic** — counts `unwrap`/`expect`/panic-macros/index
//!    expressions in non-test library code against the committed
//!    `audit_baseline.json`, a ratchet that may only shrink.
//! 4. **unsafe** — every `unsafe` must carry a `// SAFETY:` comment,
//!    and every crate with no unsafe at all must
//!    `#![forbid(unsafe_code)]`.
//!
//! The tool is self-contained (hand-rolled lexer, no `syn`; its one
//! dependency is the zero-dependency `tokenflow-json` codec) and exposes
//! a library surface so the fixture self-tests and the live-workspace
//! test can drive the exact code path the `cargo run -p audit` binary
//! uses.
//! See DESIGN.md §8 for the tier map, the pass taxonomy, the annotation
//! grammar, and the baseline-ratchet policy.

// audit: tier(host)
#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod tiers;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use diag::{Allow, Annotations, Diagnostic, Pass};
use tiers::{CrateSpec, Scope, Tier, WORKSPACE};

/// Everything the audit learned about one file.
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Findings after allow suppression, including annotation errors.
    pub diagnostics: Vec<Diagnostic>,
    /// Panic-surface sites after allow suppression (aggregated into the
    /// ratchet by the workspace engine; compared directly by fixtures).
    pub panic_sites: Vec<Diagnostic>,
    /// Valid allows (with their reasons), for the report.
    pub allows: Vec<Allow>,
    /// Tier declarations found in the file.
    pub tier_decls: Vec<diag::TierDecl>,
    /// Whether the file contains `unsafe` code.
    pub has_unsafe: bool,
    /// Whether the file declares `#![forbid(unsafe_code)]`.
    pub has_forbid: bool,
}

/// Audits one file's source text. This is the single code path shared
/// by the workspace engine, the fixture self-tests, and the binary.
pub fn audit_source(rel: &str, text: &str, tier: Tier, scope: Scope) -> FileAudit {
    let toks = lexer::lex(text);
    let code = passes::code_indices(&toks);
    let Annotations {
        allows,
        tiers: tier_decls,
        errors: mut annotation_errors,
    } = diag::parse_annotations(rel, &toks);

    let mut diagnostics = Vec::new();
    let mut panic_sites = Vec::new();
    if scope == Scope::Lib && tier == Tier::Deterministic {
        diagnostics.extend(passes::determinism(rel, &toks, &code));
        diagnostics.extend(passes::unordered(rel, &toks, &code));
    }
    if scope == Scope::Lib {
        panic_sites = passes::panic_sites(rel, &toks, &code);
    }
    diagnostics.extend(passes::unsafe_audit(rel, &toks));

    // Apply allows: each must suppress at least one finding, or it is
    // itself a finding — stale annotations are holes in the contract.
    for allow in &allows {
        let matches = |d: &Diagnostic| d.pass == allow.pass && d.line == allow.target_line;
        let before = diagnostics.len() + panic_sites.len();
        diagnostics.retain(|d| !matches(d));
        panic_sites.retain(|d| !matches(d));
        if diagnostics.len() + panic_sites.len() == before {
            annotation_errors.push(Diagnostic {
                pass: Pass::Annotation,
                code: "unused_allow",
                file: rel.to_string(),
                line: allow.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove the stale annotation",
                    allow.pass.name(),
                    allow.target_line
                ),
            });
        }
    }
    diagnostics.extend(annotation_errors);

    FileAudit {
        has_unsafe: passes::has_unsafe(&toks),
        has_forbid: passes::has_forbid_unsafe(&toks, &code),
        diagnostics,
        panic_sites,
        allows,
        tier_decls,
    }
}

/// One crate's row in the workspace report.
#[derive(Debug)]
pub struct CrateReport {
    /// Short crate name (tier-map key).
    pub name: &'static str,
    /// The crate's declared tier.
    pub tier: Tier,
    /// Files scanned.
    pub files: usize,
    /// Panic-surface site count over non-test library code.
    pub panic_count: u64,
}

/// The whole-workspace audit result.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    /// All findings, in (file, line, col) order.
    pub findings: Vec<Diagnostic>,
    /// Per-crate summary rows, in tier-map order.
    pub crates: Vec<CrateReport>,
    /// Every allow in the workspace, with its file.
    pub allows: Vec<(String, Allow)>,
    /// Total files scanned.
    pub files_scanned: usize,
}

impl AuditOutcome {
    /// Per-crate panic counts, the ratchet's current side.
    pub fn panic_counts(&self) -> BTreeMap<String, u64> {
        self.crates
            .iter()
            .map(|c| (c.name.to_string(), c.panic_count))
            .collect()
    }
}

/// Runs the four passes over every crate in the tier map.
pub fn run_audit(root: &Path) -> io::Result<AuditOutcome> {
    let mut outcome = AuditOutcome::default();
    for spec in WORKSPACE {
        let row = audit_crate(root, spec, &mut outcome)?;
        outcome.crates.push(row);
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(outcome)
}

fn audit_crate(
    root: &Path,
    spec: &CrateSpec,
    outcome: &mut AuditOutcome,
) -> io::Result<CrateReport> {
    let files = tiers::collect_files(root, spec)?;
    let root_rel = if spec.dir == "." {
        "src/lib.rs".to_string()
    } else {
        format!("{}/src/lib.rs", spec.dir)
    };
    let mut row = CrateReport {
        name: spec.name,
        tier: spec.tier,
        files: files.len(),
        panic_count: 0,
    };
    let mut lib_has_unsafe = false;
    let mut root_has_forbid = false;
    let mut root_file_seen = false;
    for file in &files {
        let text = fs::read_to_string(&file.abs)?;
        let mut audit = audit_source(&file.rel, &text, spec.tier, file.scope);
        outcome.findings.append(&mut audit.diagnostics);
        if file.scope == Scope::Lib {
            row.panic_count += audit.panic_sites.len() as u64;
            lib_has_unsafe |= audit.has_unsafe;
        }
        for allow in audit.allows.drain(..) {
            outcome.allows.push((file.rel.clone(), allow));
        }
        if file.rel == root_rel {
            root_file_seen = true;
            root_has_forbid = audit.has_forbid;
            check_crate_root(spec, &file.rel, &audit, outcome);
        } else {
            for decl in &audit.tier_decls {
                outcome.findings.push(Diagnostic {
                    pass: Pass::Annotation,
                    code: "misplaced_tier",
                    file: file.rel.clone(),
                    line: decl.line,
                    col: 1,
                    message: "tier declarations belong in the crate root (src/lib.rs)".to_string(),
                });
            }
        }
    }
    outcome.files_scanned += files.len();
    if !root_file_seen {
        outcome.findings.push(Diagnostic {
            pass: Pass::Annotation,
            code: "missing_tier",
            file: root_rel,
            line: 0,
            col: 0,
            message: format!(
                "crate `{}` has no src/lib.rs to declare its tier in",
                spec.name
            ),
        });
    } else if !lib_has_unsafe && !root_has_forbid {
        // The forbid rule needs the whole crate: a crate whose library
        // code has no unsafe must forbid it at the root. (Test, bench,
        // and example targets are separate crate roots and do not count
        // against the library's forbid.)
        outcome.findings.push(Diagnostic {
            pass: Pass::Unsafe,
            code: "missing_forbid",
            file: root_rel,
            line: 0,
            col: 0,
            message: format!(
                "crate `{}` has no unsafe code but does not declare `#![forbid(unsafe_code)]` in its crate root",
                spec.name
            ),
        });
    }
    Ok(row)
}

/// Crate-root checks: the tier declaration must exist and match the
/// committed map; crates with no unsafe library code must forbid it.
fn check_crate_root(spec: &CrateSpec, rel: &str, audit: &FileAudit, outcome: &mut AuditOutcome) {
    match audit.tier_decls.as_slice() {
        [] => outcome.findings.push(Diagnostic {
            pass: Pass::Annotation,
            code: "missing_tier",
            file: rel.to_string(),
            line: 0,
            col: 0,
            message: format!(
                "crate `{}` must declare `// audit: tier({})` in its crate root",
                spec.name,
                spec.tier.name()
            ),
        }),
        [decl] if decl.tier != spec.tier.name() => outcome.findings.push(Diagnostic {
            pass: Pass::Annotation,
            code: "tier_mismatch",
            file: rel.to_string(),
            line: decl.line,
            col: 1,
            message: format!(
                "crate `{}` declares tier `{}` but the committed tier map says `{}`",
                spec.name,
                decl.tier,
                spec.tier.name()
            ),
        }),
        [_] => {}
        more => outcome.findings.push(Diagnostic {
            pass: Pass::Annotation,
            code: "duplicate_tier",
            file: rel.to_string(),
            line: more[1].line,
            col: 1,
            message: format!("crate `{}` declares its tier more than once", spec.name),
        }),
    }
}

/// Compares current panic counts against the committed baseline,
/// producing ratchet findings for any growth (or any crate missing from
/// the baseline). Shrinkage is legal — re-pin with `--write-baseline`.
pub fn ratchet_findings(
    outcome: &AuditOutcome,
    baseline: &BTreeMap<String, u64>,
) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for row in &outcome.crates {
        match baseline.get(row.name) {
            Some(&allowed) if row.panic_count <= allowed => {}
            Some(&allowed) => findings.push(Diagnostic {
                pass: Pass::Panic,
                code: "ratchet_regression",
                file: format!("{} (crate)", row.name),
                line: 0,
                col: 0,
                message: format!(
                    "panic surface of `{}` grew: {} sites > baseline {} — shrink it, or justify specific sites with `// audit: allow(panic, ...)`",
                    row.name, row.panic_count, allowed
                ),
            }),
            None => findings.push(Diagnostic {
                pass: Pass::Panic,
                code: "missing_baseline",
                file: format!("{} (crate)", row.name),
                line: 0,
                col: 0,
                message: format!(
                    "crate `{}` has no panic-surface baseline; run `cargo run -p audit -- --write-baseline`",
                    row.name
                ),
            }),
        }
    }
    findings
}
