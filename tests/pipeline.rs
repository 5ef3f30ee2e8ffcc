//! Property tests for the staged pipeline's step-level contract.
//!
//! The engine refactor split the monolithic `Engine::step` into four stage
//! modules. The seed's behavioral suite (kept green, see
//! `crates/core/tests/engine.rs` and `tests/end_to_end.rs`) pins the
//! aggregate outcomes; these properties pin the *step-level* contract on
//! seeded random workloads: the [`StepOutcome`] stream a caller observes
//! while driving the pipeline step by step must exactly reconstruct the
//! final per-request records — same token counts, same first-token
//! instants, same finish instants — and the step-driven run must be
//! indistinguishable from `Engine::run`'s internal loop.

use std::collections::HashMap;

use proptest::prelude::*;

use tokenflow::prelude::*;

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop::collection::vec((0u64..800, 8u64..256, 5u64..200, 5.0f64..50.0), 1..14).prop_map(
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

fn build(which: u8) -> Box<dyn Scheduler> {
    match which % 4 {
        0 => Box::new(FcfsScheduler::new()),
        1 => Box::new(ChunkedPrefillScheduler::new()),
        2 => Box::new(AndesScheduler::new()),
        _ => Box::new(TokenFlowScheduler::new()),
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn step_stream_reconstructs_final_records(w in arb_workload(), which in 0u8..4) {
        let mut engine = Engine::from_boxed(config(), build(which));
        for spec in w.iter() {
            engine.submit(*spec);
        }
        let mut counts: HashMap<RequestId, u64> = HashMap::new();
        let mut first_at: HashMap<RequestId, SimTime> = HashMap::new();
        let mut finished_at: HashMap<RequestId, SimTime> = HashMap::new();
        let mut last_now = SimTime::ZERO;
        let mut iterations = 0u64;
        loop {
            let out = engine.step();
            iterations += 1;
            prop_assert!(iterations < 5_000_000, "run must terminate");
            // Time never runs backwards across steps.
            prop_assert!(out.now >= last_now, "{:?} < {:?}", out.now, last_now);
            last_now = out.now;
            // An idle step delivers nothing.
            if out.idle {
                prop_assert!(out.delivered.is_empty() && out.finished.is_empty());
            }
            for &(id, cum) in &out.delivered {
                let c = counts.entry(id).or_insert(0);
                // Cumulative counts step by exactly one token.
                prop_assert_eq!(cum, *c + 1, "request {:?}", id);
                *c = cum;
                first_at.entry(id).or_insert(out.now);
            }
            for &id in &out.finished {
                // Finishing is reported exactly once, at the final token.
                prop_assert!(finished_at.insert(id, out.now).is_none());
                prop_assert_eq!(counts[&id], w.get(id).output_tokens);
            }
            if out.done {
                break;
            }
        }

        // The step stream must reconstruct the final records exactly.
        let outcome = engine.into_outcome();
        prop_assert!(outcome.complete);
        prop_assert_eq!(outcome.records.len(), w.len());
        for r in &outcome.records {
            prop_assert_eq!(counts[&r.id], r.generated);
            prop_assert_eq!(r.generated, w.get(r.id).output_tokens);
            prop_assert_eq!(first_at[&r.id], r.first_token_at.expect("started"));
            prop_assert_eq!(finished_at[&r.id], r.finished_at.expect("finished"));
        }
    }

    #[test]
    fn step_driven_run_matches_engine_run(w in arb_workload(), which in 0u8..4) {
        // Driving the staged pipeline one step at a time must be
        // indistinguishable from the one-call entry point.
        let mut engine = Engine::from_boxed(config(), build(which));
        for spec in w.iter() {
            engine.submit(*spec);
        }
        while !engine.step().done {}
        let stepped = engine.into_outcome();
        let batch = Engine::from_boxed(config(), build(which)).run(&w);
        prop_assert_eq!(&stepped.report, &batch.report);
        prop_assert_eq!(&stepped.records, &batch.records);
        prop_assert_eq!(stepped.iterations, batch.iterations);
        prop_assert_eq!(&stepped.queued_series, &batch.queued_series);
        prop_assert_eq!(&stepped.gpu_util_series, &batch.gpu_util_series);
    }
}
