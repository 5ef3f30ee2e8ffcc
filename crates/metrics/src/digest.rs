//! Canonical serialization and digests for behavior-invariance pinning.
//!
//! Perf work on the engine's hot path must not change a single reported
//! byte. The golden-digest test suites pin that contract: a seeded run's
//! full [`RunReport`] is rendered to a *canonical* JSON form (fixed field
//! order, shortest-round-trip float formatting, durations in integer
//! microseconds) and hashed with FNV-1a; the 64-bit digest is committed.
//! Any refactor that alters scheduling, accounting, or aggregation —
//! however slightly — moves the digest.
//!
//! The canonical form is hand-rolled here rather than built with the
//! workspace JSON codec (`tokenflow-json`) because it renders floats in
//! Rust's `{:?}` form — `1.0`, `-0.0`, a distinct `NaN` — where the codec
//! writes `1`, `0` and `null`. It is itself part of the pinned contract:
//! do not reorder fields or change float formatting without updating
//! every golden digest.

use crate::report::{FaultStats, RunReport, RuntimeCounters, Summary};

/// 64-bit FNV-1a over a byte stream — stable, dependency-free, and fast
/// enough for test-time digesting.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Canonical float rendering: Rust's shortest round-trip `Debug` form.
/// Exact (`f64::from_str` recovers the bits) and deterministic across
/// platforms, which is what a digest needs; `-0.0` and `NaN` render
/// distinctly so accidental sign/NaN changes are caught too.
fn float(v: f64) -> String {
    format!("{v:?}")
}

fn runtime_json(c: &RuntimeCounters) -> String {
    format!(
        "{{\"fast_steps\":{},\"horizons_issued\":{},\"horizons_invalidated\":{},\
         \"horizons_expired\":{},\"epochs\":{},\"batched_barriers\":{},\
         \"pool_workers\":{},\"pool_submissions\":{}}}",
        c.fast_steps,
        c.horizons_issued,
        c.horizons_invalidated,
        c.horizons_expired,
        c.epochs,
        c.batched_barriers,
        c.pool_workers,
        c.pool_submissions,
    )
}

fn fault_json(f: &FaultStats) -> String {
    let histogram: Vec<String> = f.retry_attempts.iter().map(u64::to_string).collect();
    format!(
        "{{\"crashes\":{},\"boot_failures\":{},\"lost_events\":{},\"recovered\":{},\
         \"abandoned\":{},\"shed\":{},\"retry_attempts\":[{}],\"recovery_latency\":{}}}",
        f.crashes,
        f.boot_failures,
        f.lost_events,
        f.recovered,
        f.abandoned,
        f.shed,
        histogram.join(","),
        summary_json(&f.recovery_latency),
    )
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        s.count,
        float(s.mean),
        float(s.p50),
        float(s.p90),
        float(s.p99),
        float(s.max)
    )
}

impl RunReport {
    /// The report's canonical JSON form (fixed field order, exact float
    /// rendering, duration in integer microseconds). See the module docs
    /// for the stability contract. A `faults` member is appended only
    /// when the report carries fault statistics, so fault-free reports —
    /// and every digest pinned before fault injection existed — render
    /// byte-identically to the historical form.
    pub fn canonical_json(&self) -> String {
        let mut json = format!(
            "{{\"submitted\":{},\"completed\":{},\"duration_us\":{},\"ttft\":{},\
             \"throughput\":{},\"effective_throughput\":{},\"qos\":{},\
             \"total_rebuffer_secs\":{},\"stall_events\":{},\"preemptions\":{},\
             \"recomputes\":{},\"mean_generation_rate\":{},\"replica_seconds\":{},\
             \"runtime\":{}}}",
            self.submitted,
            self.completed,
            self.duration.as_micros(),
            summary_json(&self.ttft),
            float(self.throughput),
            float(self.effective_throughput),
            float(self.qos),
            float(self.total_rebuffer_secs),
            self.stall_events,
            self.preemptions,
            self.recomputes,
            float(self.mean_generation_rate),
            float(self.replica_seconds),
            runtime_json(&self.runtime),
        );
        if let Some(f) = &self.faults {
            json.pop();
            json.push_str(&format!(",\"faults\":{}}}", fault_json(f)));
        }
        json
    }

    /// FNV-1a digest of [`RunReport::canonical_json`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RequestMetrics;
    use crate::weights::QosParams;
    use tokenflow_sim::{RequestId, SimDuration, SimTime};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn float_rendering_is_exact_and_distinct() {
        assert_eq!(float(0.1), "0.1");
        assert_eq!(float(1.0), "1.0");
        assert_ne!(float(0.0), float(-0.0));
        let v = 1.0 / 3.0;
        assert_eq!(float(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
    }

    fn report() -> RunReport {
        let mut m = RequestMetrics::new(RequestId(0), SimTime::ZERO, 20.0, 64);
        m.first_token_at = Some(SimTime::from_millis(500));
        m.finished_at = Some(SimTime::from_secs(10));
        m.generated = 64;
        m.effective_tokens = 60.0;
        m.qos_weight_sum = 60.0;
        RunReport::from_records(&[m], SimDuration::from_secs(10), &QosParams::default())
    }

    #[test]
    fn canonical_json_is_stable_and_digestable() {
        let r = report();
        let j1 = r.canonical_json();
        let j2 = r.clone().canonical_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"submitted\":1,\"completed\":1,"));
        assert!(j1.contains("\"duration_us\":10000000"));
        assert_eq!(r.digest(), fnv1a64(j1.as_bytes()));
    }

    #[test]
    fn faults_section_renders_only_when_present() {
        let clean = report();
        assert!(!clean.canonical_json().contains("\"faults\""));
        assert!(clean.canonical_json().ends_with("}}"));

        let mut faulted = clean.clone();
        faulted.faults = Some(crate::report::FaultStats {
            crashes: 1,
            boot_failures: 0,
            lost_events: 2,
            recovered: 2,
            abandoned: 0,
            shed: 3,
            retry_attempts: vec![1, 1],
            recovery_latency: Summary::of(&[0.5, 1.5]),
        });
        let json = faulted.canonical_json();
        assert!(json.contains(
            "\"faults\":{\"crashes\":1,\"boot_failures\":0,\"lost_events\":2,\
             \"recovered\":2,\"abandoned\":0,\"shed\":3,\"retry_attempts\":[1,1],\
             \"recovery_latency\":"
        ));
        // The fault-free prefix is untouched: byte-identical up to the
        // spliced member, so pre-fault pinned digests cannot move.
        let clean_json = clean.canonical_json();
        assert_eq!(
            &json[..clean_json.len() - 1],
            &clean_json[..clean_json.len() - 1]
        );
        assert_ne!(clean.digest(), faulted.digest());
    }

    #[test]
    fn digest_moves_with_any_field() {
        let base = report();
        let mut changed = base.clone();
        changed.preemptions += 1;
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.throughput += 1e-12;
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.runtime.epochs += 1;
        assert_ne!(base.digest(), changed.digest());
    }
}
