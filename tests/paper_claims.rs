//! The paper's directional claims, asserted over ten seeds.
//!
//! TokenFlow (arXiv 2510.02758) claims that preemptive, buffer-aware
//! scheduling cuts p99 TTFT under a request burst while raising effective
//! throughput, against a non-preemptive FCFS baseline. The committed
//! `scenarios/crowd_burst_h200.json` is that regime: Llama3-8B on one
//! H200, a 120 s diurnal trace at peak 12 req/s with a 1000-request crowd
//! at 30 s, readers at 8–24 tok/s. This suite runs it under `fcfs` and
//! `tokenflow` on seeds 1–10 and asserts, seed by seed, that TokenFlow
//! wins on p99 TTFT and on effective throughput, and does not buy the win
//! with reader stalls.
//!
//! Margins measured on seeds 1–10:
//!
//! | metric | fcfs | tokenflow | worst tokenflow / fcfs |
//! |---|---|---|---|
//! | p99 TTFT, s | 27.1–28.2 | 19.5–23.6 | 0.86 |
//! | effective throughput, tok/s | 1420–1510 | 6619–7021 | 4.6× |
//! | total rebuffer, s | 191–221 | 190–496 | 2.6× |
//!
//! A TokenFlow whose per-pass transition cap is spent on preemptions
//! before admissions reads 103–123 s of p99 TTFT on this scenario and
//! fails the first claim on every seed.

use tokenflow_metrics::RunReport;
use tokenflow_scenario::{parse_scenario, ScenarioSpec, SchedulerSpec, WorkloadSpec};

const SCENARIO: &str = "scenarios/crowd_burst_h200.json";
const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// How much more total rebuffer TokenFlow may show than FCFS: preemption
/// trades some stall time for admission (at most 2.6× on seeds 1–10).
const MAX_REBUFFER_RATIO: f64 = 3.0;

fn load() -> ScenarioSpec {
    let text = std::fs::read_to_string(SCENARIO).unwrap_or_else(|e| panic!("read {SCENARIO}: {e}"));
    parse_scenario(&text).unwrap_or_else(|e| panic!("parse {SCENARIO}: {e}"))
}

/// Runs the committed scenario with `scheduler` on workload seed `seed`.
fn run(mut spec: ScenarioSpec, scheduler: SchedulerSpec, seed: u64) -> RunReport {
    spec.scheduler = scheduler;
    match &mut spec.workload {
        WorkloadSpec::DiurnalFlashCrowd { seed: s, .. } => *s = seed,
        other => panic!("{SCENARIO} must stay a diurnal flash crowd, found {other:?}"),
    }
    let out = spec.build().expect("committed scenario builds").run();
    assert!(out.complete, "{} seed {seed} stopped early", out.scheduler);
    out.report
}

#[test]
fn tokenflow_beats_fcfs_through_a_flash_crowd_on_every_seed() {
    let spec = load();
    assert!(
        matches!(spec.scheduler, SchedulerSpec::TokenFlow(_)),
        "{SCENARIO} is the TokenFlow side of the comparison"
    );
    let tokenflow = spec.scheduler.clone();
    let fcfs = SchedulerSpec::Fcfs { headroom: None };
    // Seeds are independent: run each on its own scoped thread.
    let results: Vec<(u64, RunReport, RunReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = SEEDS
            .map(|seed| {
                let (spec, tokenflow, fcfs) = (&spec, &tokenflow, &fcfs);
                scope.spawn(move || {
                    let tf = run(spec.clone(), tokenflow.clone(), seed);
                    (seed, tf, run(spec.clone(), fcfs.clone(), seed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed run"))
            .collect()
    });
    for (seed, tf, base) in &results {
        assert!(
            tf.ttft.p99 < base.ttft.p99,
            "seed {seed}: TokenFlow p99 TTFT {:.2} s is not below FCFS's {:.2} s",
            tf.ttft.p99,
            base.ttft.p99
        );
        assert!(
            tf.effective_throughput > base.effective_throughput,
            "seed {seed}: TokenFlow effective throughput {:.1} tok/s is not above FCFS's {:.1}",
            tf.effective_throughput,
            base.effective_throughput
        );
        assert!(
            tf.total_rebuffer_secs <= MAX_REBUFFER_RATIO * base.total_rebuffer_secs,
            "seed {seed}: TokenFlow rebuffer {:.1} s exceeds {MAX_REBUFFER_RATIO}× FCFS's {:.1} s",
            tf.total_rebuffer_secs,
            base.total_rebuffer_secs
        );
    }
}
