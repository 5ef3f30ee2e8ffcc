//! Cross-crate integration tests: full serving runs through every
//! scheduler, reproduction invariants, and determinism.

use tokenflow::prelude::*;
use tokenflow::workload::{trace, ControlledSetup, RateDist};

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FcfsScheduler::new()),
        Box::new(ChunkedPrefillScheduler::new()),
        Box::new(AndesScheduler::new()),
        Box::new(TokenFlowScheduler::new()),
    ]
}

fn small_burst(n: u32) -> Workload {
    Workload::new(
        (0..n)
            .map(|i| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::from_millis(u64::from(i) * 20),
                prompt_tokens: 256,
                output_tokens: 300,
                rate: 15.0,
            })
            .collect(),
    )
}

#[test]
fn every_scheduler_completes_a_contended_burst() {
    let workload = small_burst(24);
    for sched in schedulers() {
        let name = sched.name();
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(8);
        let outcome = Engine::from_boxed(config, sched).run(&workload);
        assert!(outcome.complete, "{name} must complete");
        assert_eq!(outcome.report.completed, 24, "{name}");
        for r in &outcome.records {
            assert_eq!(r.generated, 300, "{name}: {} token count", r.id);
            assert!(r.effective_tokens <= r.generated as f64 + 1e-9, "{name}");
            assert!(r.qos_weight_sum <= r.generated as f64 + 1e-9, "{name}");
        }
    }
}

#[test]
fn tokenflow_beats_fcfs_under_burst() {
    // The headline reproduction claim on the paper's 4090 (a) setting:
    // higher effective throughput and lower tail TTFT.
    let workload = ControlledSetup::rtx4090_a().workload(42);
    fn run(sched: impl Scheduler + 'static, workload: &Workload) -> SimOutcome {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
        Engine::new(config, sched).run(workload)
    }
    let fcfs = run(FcfsScheduler::new(), &workload);
    let tf = run(TokenFlowScheduler::new(), &workload);
    assert!(fcfs.complete && tf.complete);
    assert!(
        tf.report.effective_throughput > 1.5 * fcfs.report.effective_throughput,
        "effective throughput: TokenFlow {} vs SGLang {}",
        tf.report.effective_throughput,
        fcfs.report.effective_throughput
    );
    assert!(
        tf.report.ttft.p99 < 0.5 * fcfs.report.ttft.p99,
        "P99 TTFT: TokenFlow {} vs SGLang {}",
        tf.report.ttft.p99,
        fcfs.report.ttft.p99
    );
    assert!(
        tf.report.ttft.mean < fcfs.report.ttft.mean,
        "mean TTFT must improve"
    );
}

#[test]
fn andes_pays_a_raw_throughput_penalty() {
    // §7.3: "Andes shows notable degradation compared to SGLang in
    // throughput" — recompute-based preemption burns capacity.
    let workload = ControlledSetup::rtx4090_a().workload(42);
    fn run(sched: impl Scheduler + 'static, workload: &Workload) -> SimOutcome {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
        Engine::new(config, sched).run(workload)
    }
    let fcfs = run(FcfsScheduler::new(), &workload);
    let andes = run(AndesScheduler::new(), &workload);
    assert!(
        andes.report.throughput < fcfs.report.throughput,
        "Andes {} vs SGLang {}",
        andes.report.throughput,
        fcfs.report.throughput
    );
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let workload = ControlledSetup::h200_c().workload(7);
    let run = || {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
            .with_mem_frac(0.3);
        Engine::new(config, TokenFlowScheduler::new()).run(&workload)
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.records, b.records);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.queued_series, b.queued_series);
}

#[test]
fn ablation_offload_disabled_is_slowest() {
    // Table 2's biggest delta: without offload, preemption falls back to
    // discard + recompute and completion time inflates.
    let workload = ControlledSetup::rtx4090_b()
        .generator(RateDist::Fixed(100.0))
        .generate(11);
    let run = |offload: bool, wt: bool, overlap: bool| {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_kv_features(offload, wt, overlap);
        Engine::new(config, TokenFlowScheduler::new()).run(&workload)
    };
    let full = run(true, true, true);
    let no_offload = run(false, false, true);
    assert!(full.complete && no_offload.complete);
    assert!(
        no_offload.sim_time.as_secs_f64() > 1.2 * full.sim_time.as_secs_f64(),
        "w/o offload {} vs full {}",
        no_offload.sim_time.as_secs_f64(),
        full.sim_time.as_secs_f64()
    );
    assert!(no_offload.report.recomputes + no_offload.report.preemptions > 0);
}

#[test]
fn trace_roundtrip_replays_identically() {
    let workload = ControlledSetup::rtx4090_c().workload(3);
    let csv = trace::to_csv(&workload);
    let reloaded = trace::from_csv(&csv).expect("parse");
    assert_eq!(reloaded, workload);
    let run = |w: &Workload| {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
        Engine::new(config, FcfsScheduler::new()).run(w)
    };
    assert_eq!(run(&workload).report, run(&reloaded).report);
}

#[test]
fn multi_rate_classes_hold_their_targets() {
    // The Figure 19 property: each rate class streams at its own pace.
    let workload = Workload::new(
        (0..20)
            .map(|i| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::ZERO,
                prompt_tokens: 256,
                output_tokens: 600,
                rate: if i % 2 == 0 { 15.0 } else { 20.0 },
            })
            .collect(),
    );
    let config =
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(12);
    let outcome = Engine::new(config, TokenFlowScheduler::new()).run(&workload);
    assert!(outcome.complete);
    for r in &outcome.records {
        // Streaming window cannot beat the reader's own pace and should
        // not fall far behind it either.
        let (Some(first), Some(finished)) = (r.first_token_at, r.finished_at) else {
            panic!("{} never finished", r.id);
        };
        let window = finished.saturating_since(first).as_secs_f64();
        let ideal = r.output_len as f64 / r.rate;
        assert!(
            window < 1.5 * ideal + 5.0,
            "{} streamed {}s vs ideal {}s",
            r.id,
            window,
            ideal
        );
    }
}

#[test]
fn stalls_stay_bounded_under_feasible_load() {
    // When demand fits capacity, buffer-aware rotation must not starve
    // readers: total rebuffering stays a tiny fraction of playback time.
    let workload = ControlledSetup::h200_a().workload(42);
    let config =
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200()).with_mem_frac(0.3);
    let outcome = Engine::new(config, TokenFlowScheduler::new()).run(&workload);
    assert!(outcome.complete);
    let playback: f64 = outcome
        .records
        .iter()
        .map(|r| r.output_len as f64 / r.rate)
        .sum();
    assert!(
        outcome.report.total_rebuffer_secs < 0.02 * playback,
        "rebuffer {} vs playback {}",
        outcome.report.total_rebuffer_secs,
        playback
    );
}

#[test]
fn queued_series_reflects_burst_then_drains() {
    let workload = ControlledSetup::rtx4090_a().workload(1);
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    let outcome = Engine::new(config, FcfsScheduler::new()).run(&workload);
    let peak = outcome.queued_series.max().unwrap_or(0.0);
    assert!(peak > 10.0, "burst must queue: peak {peak}");
    let last = outcome.queued_series.samples().last().unwrap().1;
    assert!(last <= 1.0, "queue must drain: last {last}");
}

#[test]
fn agents_yield_to_interactive_clients() {
    // §8 extension: agent clients declare a reference rate but are elastic
    // — under contention the scheduler throttles them first, protecting
    // interactive readers; they still complete.
    use tokenflow::core::Engine;

    let mk_spec = |rate: f64| RequestSpec {
        id: RequestId(0),
        arrival: SimTime::ZERO,
        prompt_tokens: 256,
        output_tokens: 400,
        rate,
    };
    let config =
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(6);
    let mut engine = Engine::new(config, TokenFlowScheduler::new());
    let mut interactive = Vec::new();
    let mut agents = Vec::new();
    for _ in 0..8 {
        interactive.push(engine.submit(mk_spec(12.0)));
        agents.push(engine.submit_agent(mk_spec(30.0)));
    }
    assert!(engine.run_to_completion().is_finished());
    let outcome = engine.into_outcome();
    assert_eq!(outcome.report.completed, 16);

    let rebuffer = |ids: &[RequestId]| -> f64 {
        ids.iter()
            .map(|id| outcome.records[id.0 as usize].rebuffer.as_secs_f64())
            .sum()
    };
    let ttft = |ids: &[RequestId]| -> f64 {
        ids.iter()
            .map(|id| outcome.records[id.0 as usize].ttft().unwrap().as_secs_f64())
            .sum::<f64>()
            / ids.len() as f64
    };
    // Interactive readers are protected: minimal stalling despite the
    // agents demanding 2.5× their rate.
    assert!(
        rebuffer(&interactive) < 10.0,
        "interactive stalls {:.1}s",
        rebuffer(&interactive)
    );
    // Interactive TTFT is not worse than the agents' by more than a bit.
    assert!(
        ttft(&interactive) <= ttft(&agents) + 2.0,
        "interactive {:.2}s vs agents {:.2}s",
        ttft(&interactive),
        ttft(&agents)
    );
}

#[test]
fn agents_run_at_full_speed_when_idle() {
    use tokenflow::core::Engine;

    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
    let mut engine = Engine::new(config, TokenFlowScheduler::new());
    let id = engine.submit_agent(RequestSpec {
        id: RequestId(0),
        arrival: SimTime::ZERO,
        prompt_tokens: 128,
        output_tokens: 500,
        rate: 10.0, // reference rate only — no reader to pace against
    });
    assert!(engine.run_to_completion().is_finished());
    let outcome = engine.into_outcome();
    let r = &outcome.records[id.0 as usize];
    // An idle system never throttles an agent to its reference rate: the
    // tokens arrive at full decode speed.
    let gen_rate = r.mean_generation_rate().expect("measurable");
    assert!(gen_rate > 5.0 * 10.0, "agent ran at {gen_rate} tok/s");
}
