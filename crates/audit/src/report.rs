//! Machine-readable report emission and the panic-surface baseline.
//!
//! The report (`tokenflow-audit/v1`) is what CI schema-validates; the
//! baseline (`tokenflow-audit-baseline/v1`) is the committed ratchet.
//! Both are built as [`Json`] values and rendered by the workspace codec
//! (`emit_pretty`: two-space indent, keys in construction order), so a
//! byte-for-byte stable artifact falls out of a stable audit.

use std::collections::BTreeMap;

use tokenflow_json::{self as json, ni, obj, s, Json};

use crate::AuditOutcome;

const BASELINE_SCHEMA: &str = "tokenflow-audit-baseline/v1";

/// Renders the full audit report as canonical JSON.
pub fn report_json(outcome: &AuditOutcome, baseline: &BTreeMap<String, u64>) -> String {
    let crates = outcome
        .crates
        .iter()
        .map(|c| {
            obj(vec![
                ("name", s(c.name)),
                ("tier", s(c.tier.name())),
                ("files", ni(c.files as u64)),
                ("panic_surface", ni(c.panic_count)),
                (
                    "panic_baseline",
                    baseline.get(c.name).map_or(Json::Null, |&b| ni(b)),
                ),
            ])
        })
        .collect();
    let allows = outcome
        .allows
        .iter()
        .map(|(file, a)| {
            obj(vec![
                ("file", s(file)),
                ("line", ni(a.line.into())),
                ("pass", s(a.pass.name())),
                ("reason", s(&a.reason)),
            ])
        })
        .collect();
    let findings = outcome
        .findings
        .iter()
        .map(|d| {
            obj(vec![
                ("pass", s(d.pass.name())),
                ("code", s(d.code)),
                ("file", s(&d.file)),
                ("line", ni(d.line.into())),
                ("col", ni(d.col.into())),
                ("message", s(&d.message)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", s("tokenflow-audit/v1")),
        ("clean", Json::Bool(outcome.findings.is_empty())),
        ("files_scanned", ni(outcome.files_scanned as u64)),
        ("crates", Json::Arr(crates)),
        ("allows", Json::Arr(allows)),
        ("findings", Json::Arr(findings)),
    ])
    .emit_pretty()
}

/// Renders the committed baseline file.
pub fn baseline_json(counts: &BTreeMap<String, u64>) -> String {
    let surface = counts
        .iter()
        .map(|(name, &count)| (name.clone(), ni(count)))
        .collect();
    obj(vec![
        ("schema", s(BASELINE_SCHEMA)),
        ("panic_surface", Json::Obj(surface)),
    ])
    .emit_pretty()
}

/// Parses a baseline file. The codec rejects duplicate keys, so a
/// crate named twice (say, after a bad merge) is an error rather than
/// a silently loosened budget.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(BASELINE_SCHEMA) {
        return Err(format!("baseline missing schema {BASELINE_SCHEMA}"));
    }
    let surface = doc
        .get("panic_surface")
        .ok_or("baseline missing panic_surface")?
        .as_obj()
        .ok_or("panic_surface is not an object")?;
    surface
        .iter()
        .map(|(name, count)| {
            let count = count.as_u64().ok_or_else(|| {
                format!("baseline count for `{name}` is not a non-negative integer")
            })?;
            Ok((name.clone(), count))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert("core".to_string(), 12u64);
        counts.insert("kv".to_string(), 0u64);
        let text = baseline_json(&counts);
        assert_eq!(parse_baseline(&text).unwrap(), counts);
    }

    #[test]
    fn baseline_rejects_wrong_schema() {
        assert!(parse_baseline("{\"schema\": \"other/v1\"}").is_err());
        // The schema is read from the `schema` member, not found anywhere
        // in the text.
        let elsewhere = r#"{"schema": "other/v1", "note": "tokenflow-audit-baseline/v1",
                             "panic_surface": {}}"#;
        assert!(parse_baseline(elsewhere).is_err());
    }

    #[test]
    fn baseline_rejects_duplicate_crates() {
        let text = r#"{"schema": "tokenflow-audit-baseline/v1",
                       "panic_surface": {"sched": 58, "sched": 0}}"#;
        let err = parse_baseline(text).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }

    #[test]
    fn baseline_rejects_non_integer_counts() {
        for bad in ["-1", "1.5", "\"3\""] {
            let text = format!(
                "{{\"schema\": \"tokenflow-audit-baseline/v1\", \"panic_surface\": {{\"kv\": {bad}}}}}"
            );
            assert!(parse_baseline(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_is_valid_shape_for_empty_outcome() {
        let outcome = AuditOutcome::default();
        let doc = json::parse(&report_json(&outcome, &BTreeMap::new())).unwrap();
        assert_eq!(doc.get("schema"), Some(&s("tokenflow-audit/v1")));
        assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
        for key in ["crates", "allows", "findings"] {
            assert_eq!(doc.get(key), Some(&Json::Arr(Vec::new())), "{key}");
        }
    }
}
