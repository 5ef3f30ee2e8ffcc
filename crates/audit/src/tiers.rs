//! The committed per-crate capability tier map.
//!
//! Every workspace crate is either **deterministic** — it may only
//! depend on the seeded simulation clock/RNG and must be byte-stable
//! across runs, hosts, and executors — or **host** — it is allowed to
//! touch wall clock, environment, and host identity because it sits
//! outside the reproducibility boundary (benchmark timing, the CLI
//! process surface, and this auditor itself).
//!
//! The map here is the contract of record. Each crate additionally
//! declares its own tier in its crate root (`// audit: tier(...)`), and
//! the audit cross-checks the two: a crate silently moving across the
//! boundary is a finding, not a drift. Every non-`vendor/` workspace
//! member has an entry (the live-workspace test checks both directions);
//! the `vendor/` stand-ins are outside the map — they are pinned
//! third-party substitutes, not grown code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A crate's capability tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Seeded-simulation code: no wall clock, no env, no host identity,
    /// no hash-ordered iteration.
    Deterministic,
    /// Process-boundary code: timing, CLI, filesystem, this tool.
    Host,
}

impl Tier {
    /// The tier's name as written in declarations and reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Deterministic => "deterministic",
            Tier::Host => "host",
        }
    }
}

/// One workspace crate: its short name, directory, and tier.
#[derive(Debug, Clone, Copy)]
pub struct CrateSpec {
    /// Short name used in reports and the panic baseline.
    pub name: &'static str,
    /// Directory relative to the workspace root.
    pub dir: &'static str,
    /// Declared capability tier.
    pub tier: Tier,
}

/// The committed tier map: every workspace crate, vendor excluded.
pub const WORKSPACE: &[CrateSpec] = &[
    CrateSpec {
        name: "json",
        dir: "crates/json",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "sim",
        dir: "crates/sim",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "model",
        dir: "crates/model",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "kv",
        dir: "crates/kv",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "client",
        dir: "crates/client",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "workload",
        dir: "crates/workload",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "metrics",
        dir: "crates/metrics",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "trace",
        dir: "crates/trace",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "sched",
        dir: "crates/sched",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "core",
        dir: "crates/core",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "control",
        dir: "crates/control",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "fault",
        dir: "crates/fault",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "cluster",
        dir: "crates/cluster",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "scenario",
        dir: "crates/scenario",
        tier: Tier::Deterministic,
    },
    CrateSpec {
        name: "bench",
        dir: "crates/bench",
        tier: Tier::Host,
    },
    CrateSpec {
        name: "audit",
        dir: "crates/audit",
        tier: Tier::Host,
    },
    CrateSpec {
        name: "tokenflow",
        dir: ".",
        tier: Tier::Host,
    },
];

/// How a file participates in the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `src/` library (and binary) code: all passes apply.
    Lib,
    /// `tests/`, `benches/`, `examples/`: host-driven harness code —
    /// only the unsafe-audit pass applies.
    Aux,
}

/// One source file to audit.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Absolute path.
    pub abs: PathBuf,
    /// Which passes apply.
    pub scope: Scope,
}

/// Collects a crate's source files: `src/` as [`Scope::Lib`];
/// `tests/`, `benches/`, `examples/` as [`Scope::Aux`]. Paths come back
/// sorted so every report is deterministic.
pub fn collect_files(root: &Path, spec: &CrateSpec) -> io::Result<Vec<SourceFile>> {
    let base = root.join(spec.dir);
    let mut files = Vec::new();
    walk(&base.join("src"), Scope::Lib, &mut files)?;
    for aux in ["tests", "benches", "examples"] {
        walk(&base.join(aux), Scope::Aux, &mut files)?;
    }
    for f in &mut files {
        f.rel = f
            .abs
            .strip_prefix(root)
            .unwrap_or(&f.abs)
            .to_string_lossy()
            .replace('\\', "/");
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(dir: &Path, scope: Scope, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, scope, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(SourceFile {
                rel: String::new(),
                abs: path,
                scope,
            });
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
