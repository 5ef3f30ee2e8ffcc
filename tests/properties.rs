//! Property-based tests over the full serving stack: random workloads and
//! configurations must preserve the engine's core invariants.

use proptest::prelude::*;

use tokenflow::prelude::*;

fn arb_workload() -> impl Strategy<Value = Workload> {
    // 1-16 requests with small prompts/outputs and varied rates/arrivals.
    prop::collection::vec((1u64..600, 4u64..200, 5u64..400, 5.0f64..60.0), 1..16).prop_map(
        |specs| {
            Workload::new(
                specs
                    .into_iter()
                    .map(|(arrival_ms, prompt, output, rate)| RequestSpec {
                        id: RequestId(0),
                        arrival: SimTime::from_millis(arrival_ms),
                        prompt_tokens: prompt,
                        output_tokens: output,
                        rate,
                    })
                    .collect(),
            )
        },
    )
}

fn arb_scheduler() -> impl Strategy<Value = u8> {
    0u8..4
}

fn build(which: u8) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(FcfsScheduler::new()),
        1 => Box::new(ChunkedPrefillScheduler::new()),
        2 => Box::new(AndesScheduler::new()),
        _ => Box::new(TokenFlowScheduler::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn engine_preserves_token_conservation(w in arb_workload(), which in arb_scheduler()) {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(8);
        let outcome = Engine::from_boxed(config, build(which)).run(&w);
        prop_assert!(outcome.complete);
        prop_assert_eq!(outcome.report.completed, w.len());
        for (r, spec) in outcome.records.iter().zip(w.iter()) {
            // Exactly the requested tokens are generated — never more.
            prop_assert_eq!(r.generated, spec.output_tokens);
            // Weighted counts are bounded by raw counts.
            prop_assert!(r.effective_tokens <= r.generated as f64 + 1e-9);
            prop_assert!(r.effective_tokens >= 0.0);
            prop_assert!(r.qos_weight_sum <= r.generated as f64 + 1e-9);
            // TTFT exists and is not before arrival.
            let first = r.first_token_at.expect("completed implies started");
            prop_assert!(first >= spec.arrival);
            // Finish follows the first token.
            prop_assert!(r.finished_at.expect("finished") >= first);
        }
    }

    #[test]
    fn effective_never_exceeds_raw_throughput(w in arb_workload(), which in arb_scheduler()) {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
            .with_max_batch(16);
        let outcome = Engine::from_boxed(config, build(which)).run(&w);
        prop_assert!(outcome.report.effective_throughput <= outcome.report.throughput + 1e-9);
        prop_assert!(outcome.report.throughput >= 0.0);
    }

    #[test]
    fn runs_are_deterministic(w in arb_workload(), which in arb_scheduler()) {
        let run = || {
            let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
                .with_max_batch(8);
            Engine::from_boxed(config, build(which)).run(&w)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn rebuffer_and_stalls_are_consistent(w in arb_workload()) {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(4); // force contention
        let outcome = Engine::from_boxed(config, build(3)).run(&w);
        for r in &outcome.records {
            // A stall implies rebuffer time and vice versa (beyond rounding).
            if r.stall_events == 0 {
                prop_assert!(r.rebuffer.as_secs_f64() < 1e-6, "{:?}", r.rebuffer);
            }
            prop_assert!(r.rebuffer.as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn timeline_monotone_and_complete(w in arb_workload()) {
        let n = w.len();
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(8)
            .with_timelines(n);
        let outcome = Engine::from_boxed(config, build(3)).run(&w);
        prop_assert_eq!(outcome.timelines.len(), n);
        for tl in &outcome.timelines {
            let pts = tl.points();
            prop_assert_eq!(pts.len() as u64, w.get(tl.id).output_tokens);
            for pair in pts.windows(2) {
                prop_assert!(pair[1].0 >= pair[0].0, "time monotone");
                prop_assert_eq!(pair[1].1, pair[0].1 + 1, "one token per point");
            }
        }
    }
}
