//! Differential tests for static-horizon replay.
//!
//! `Engine::run_to_completion` and `Engine::step_until` replay an armed
//! static plan horizon many steps per call; `Engine::step_into` runs one
//! iteration per call and is the reference. Every case here drives twin
//! engines over the same submissions — one through a hand-written
//! `step_into` loop with the entry point's exact stop rules, one through
//! the entry point itself — and requires identical report digests,
//! records, time series, timelines, journals, iteration and fast-step
//! counts, and write-through pump counts; the `step_until` cases also
//! compare each replica's load snapshot at every barrier.
//!
//! The cases steer replays into each of their stop rules: arrivals,
//! finishes and transfer completions inside a horizon; a tiny host pool
//! and a slow link, so a step's write-through span is declined; a GPU
//! pool small enough that the per-step memory pre-check fails; the run
//! deadline and the iteration cap landing inside a replayed run. Each
//! case also asserts that replay ran, so none passes vacuously.

use tokenflow_core::{Completion, Engine, EngineConfig, SimOutcome, StepOutcome};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_workload::RequestSpec;

const SCHEDULERS: [&str; 4] = ["fcfs", "chunked", "andes", "tokenflow"];

fn make(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fcfs" => Box::new(FcfsScheduler::new()),
        "chunked" => Box::new(ChunkedPrefillScheduler::new()),
        "andes" => Box::new(AndesScheduler::new()),
        "tokenflow" => Box::new(TokenFlowScheduler::new()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
}

/// xorshift64*: a small deterministic generator for the workloads.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Bursts of requests separated by quiet gaps: the bursts make
/// admissions, preemptions and transfers land inside horizons, the gaps
/// let long quiescent decode runs form. Outputs start at two tokens, so
/// some members finish one step after a horizon arms.
fn workload(seed: u64, requests: usize) -> Vec<RequestSpec> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut t = 0;
    (0..requests)
        .map(|_| {
            t += if rng.range(0, 6) == 0 {
                rng.range(300_000, 3_000_000)
            } else {
                rng.range(0, 40_000)
            };
            RequestSpec {
                id: RequestId(0),
                arrival: SimTime::from_micros(t),
                prompt_tokens: rng.range(16, 1_200),
                output_tokens: rng.range(2, 500),
                rate: [8.0, 12.0, 16.0, 24.0, 40.0][rng.range(0, 5) as usize],
            }
        })
        .collect()
}

fn engine(cfg: &EngineConfig, scheduler: &str, specs: &[RequestSpec]) -> Engine {
    let mut e = Engine::from_boxed(cfg.clone(), make(scheduler));
    for &s in specs {
        e.submit(s);
    }
    e
}

/// The loop of `Engine::run_to_completion`, one `step_into` per step.
fn reference_run(e: &mut Engine, cfg: &EngineConfig) -> Completion {
    let deadline = SimTime::ZERO + cfg.deadline;
    let mut out = StepOutcome::default();
    loop {
        e.step_into(&mut out);
        if out.done {
            return Completion::Finished;
        }
        if out.now >= deadline {
            return Completion::Deadline;
        }
        if e.iterations() >= cfg.max_iterations {
            return Completion::IterationCap;
        }
    }
}

/// The loop of `Engine::step_until`, one `step_into` per step.
fn reference_until(e: &mut Engine, barrier: SimTime) -> bool {
    let mut out = StepOutcome::default();
    loop {
        // No live request: every submitted one finished, so none is
        // still waiting to arrive either.
        if e.load_snapshot().live == 0 {
            return true;
        }
        if e.now() >= barrier {
            return false;
        }
        e.step_into(&mut out);
        if out.done {
            return true;
        }
    }
}

/// Asserts the replaying engine ended exactly where the reference did,
/// and returns how many steps it replayed.
fn assert_same(label: &str, reference: Engine, replayed: Engine) -> u64 {
    let (a, b) = (reference.fast_path_stats(), replayed.fast_path_stats());
    assert_eq!(a.replays, 0, "{label}: the reference must not replay");
    assert_eq!(
        (
            a.fast_steps,
            a.horizons_issued,
            a.horizons_invalidated,
            a.horizons_expired
        ),
        (
            b.fast_steps,
            b.horizons_issued,
            b.horizons_invalidated,
            b.horizons_expired
        ),
        "{label}: fast-path counters diverged"
    );
    assert_eq!(
        reference.write_flush_stats(),
        replayed.write_flush_stats(),
        "{label}: write-through pumps diverged"
    );
    assert_eq!(
        reference.load_snapshot(),
        replayed.load_snapshot(),
        "{label}: final load snapshots diverged"
    );
    let (x, y): (SimOutcome, SimOutcome) = (reference.into_outcome(), replayed.into_outcome());
    assert_eq!(
        x.report.digest(),
        y.report.digest(),
        "{label}: report digests diverged"
    );
    assert_eq!(x.report, y.report, "{label}: reports diverged");
    assert_eq!(x.records, y.records, "{label}: records diverged");
    assert_eq!(x.queued_series, y.queued_series, "{label}: queued series");
    assert_eq!(
        x.running_series, y.running_series,
        "{label}: running series"
    );
    assert_eq!(x.gpu_util_series, y.gpu_util_series, "{label}: GPU series");
    assert_eq!(x.timelines, y.timelines, "{label}: timelines diverged");
    assert_eq!(x.trace, y.trace, "{label}: journals diverged");
    assert_eq!(x.sim_time, y.sim_time, "{label}: run ends diverged");
    assert_eq!(x.completion, y.completion, "{label}: completions diverged");
    assert_eq!(x.iterations, y.iterations, "{label}: iterations diverged");
    b.replayed_steps
}

/// Runs the twin pair through `run_to_completion` and its reference;
/// returns the replayed step count.
fn run_pair(label: &str, cfg: &EngineConfig, scheduler: &str, specs: &[RequestSpec]) -> u64 {
    run_pair_with(label, cfg, scheduler, specs, |_| {})
}

/// [`run_pair`] with `prepare` applied to both engines first.
fn run_pair_with(
    label: &str,
    cfg: &EngineConfig,
    scheduler: &str,
    specs: &[RequestSpec],
    prepare: impl Fn(&mut Engine),
) -> u64 {
    let mut reference = engine(cfg, scheduler, specs);
    let mut replayed = engine(cfg, scheduler, specs);
    prepare(&mut reference);
    prepare(&mut replayed);
    let a = reference_run(&mut reference, cfg);
    let b = replayed.run_to_completion();
    assert_eq!(a, b, "{label}: completions diverged");
    assert_same(label, reference, replayed)
}

#[test]
fn every_scheduler_replays_exactly() {
    for name in SCHEDULERS {
        let specs = workload(7, 80);
        let replayed = run_pair(name, &config(), name, &specs);
        assert!(replayed > 0, "{name}: nothing was replayed");
    }
}

/// The cluster's pattern: replicas advanced barrier to barrier with new
/// requests submitted at the barriers, here at random instants, so
/// barriers land inside replayed runs and arrivals inside horizons.
#[test]
fn step_until_at_random_barriers_replays_exactly() {
    for (i, name) in SCHEDULERS.into_iter().enumerate() {
        let cfg = config().with_timelines(16);
        let specs = workload(100 + i as u64, 90);
        let mut reference = engine(&cfg, name, &[]);
        let mut replayed = engine(&cfg, name, &[]);
        let mut rng = Rng(31 + i as u64);
        let mut barrier = SimTime::ZERO;
        let mut next = 0;
        loop {
            barrier += SimDuration::from_micros(rng.range(1_000, 1_500_000));
            while next < specs.len() && specs[next].arrival <= barrier {
                reference.submit(specs[next]);
                replayed.submit(specs[next]);
                next += 1;
            }
            let a = reference_until(&mut reference, barrier);
            let b = replayed.step_until(barrier);
            assert_eq!(a, b, "{name}: step_until verdicts diverged at {barrier:?}");
            assert_eq!(
                reference.load_snapshot(),
                replayed.load_snapshot(),
                "{name}: replicas diverged at barrier {barrier:?}"
            );
            if a && next == specs.len() {
                break;
            }
        }
        let replayed_steps = assert_same(name, reference, replayed);
        assert!(replayed_steps > 0, "{name}: nothing was replayed");
    }
}

/// The engine configurations the replay must reproduce: priority and
/// FIFO write order, write-through off, half duplex (loads serialise
/// behind D2H traffic), timelines and tracing on.
type Variant = (&'static str, fn(EngineConfig) -> EngineConfig);

const VARIANTS: [Variant; 6] = [
    ("default", |c| c),
    ("fifo-writes", |mut c| {
        c.priority_writes = false;
        c
    }),
    ("write-through-off", |mut c| {
        c.write_through = false;
        c
    }),
    ("half-duplex", |mut c| {
        c.load_evict_overlap = false;
        c
    }),
    ("timelines", |c| c.with_timelines(1_000)),
    ("traced", |c| c.with_trace(true)),
];

#[test]
fn kv_and_observability_variants_replay_exactly() {
    for (label, variant) in VARIANTS {
        for name in ["fcfs", "tokenflow"] {
            let cfg = variant(config());
            let replayed = run_pair(&format!("{label}/{name}"), &cfg, name, &workload(11, 70));
            assert!(replayed > 0, "{label}/{name}: nothing was replayed");
        }
    }
}

/// A crowd on a small GPU pool under the preemptive schedulers: members
/// are preempted, evicted and loaded back while horizons are armed, so
/// transfer completions land inside them, under every variant.
#[test]
fn preemption_traffic_inside_horizons_replays_exactly() {
    let mut rng = Rng(41);
    let specs: Vec<RequestSpec> = (0..120)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_micros(i * 15_000),
            prompt_tokens: rng.range(64, 1_000),
            output_tokens: rng.range(50, 700),
            rate: [6.0, 10.0, 20.0][rng.range(0, 3) as usize],
        })
        .collect();
    for (label, variant) in VARIANTS {
        for name in ["andes", "tokenflow"] {
            let cfg = variant(config().with_mem_frac(0.16));
            let label = format!("pressure-{label}/{name}");
            let replayed = run_pair(&label, &cfg, name, &specs);
            assert!(replayed > 0, "{label}: nothing was replayed");
        }
    }
}

/// A host pool a thousandth of the GPU pool's size fills up, and a
/// slowed link stretches each span towards the compute window: either
/// way some step's span is declined and the ordered pump takes it.
#[test]
fn declined_spans_end_replays_exactly() {
    for name in ["fcfs", "tokenflow"] {
        let mut cfg = config();
        cfg.cpu_pool_factor = 0.001;
        let label = format!("tiny-host/{name}");
        let replayed = run_pair(&label, &cfg, name, &workload(13, 60));
        assert!(replayed > 0, "{label}: nothing was replayed");

        let mut declined = 0;
        for slowdown in [30.0, 60.0, 120.0] {
            let label = format!("slow-link-x{slowdown}/{name}");
            let mut reference = engine(&config(), name, &workload(17, 60));
            reference.set_link_slowdown(slowdown);
            reference_run(&mut reference, &config());
            declined += reference.write_flush_stats().ordered_pulls;
            let replayed = run_pair_with(&label, &config(), name, &workload(17, 60), |e| {
                e.set_link_slowdown(slowdown)
            });
            assert!(replayed > 0, "{label}: nothing was replayed");
        }
        assert!(declined > 0, "{name}: no span was ever declined");
    }
}

/// A GPU pool small enough that decode growth overflows it inside armed
/// horizons: the per-step memory pre-check ends the replay and the full
/// pipeline reclaims or sheds.
#[test]
fn memory_precheck_ends_replays_exactly() {
    for name in SCHEDULERS {
        let cfg = config().with_mem_frac(0.128).with_max_batch(8);
        let specs: Vec<RequestSpec> = (0..6)
            .map(|i| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::from_micros(i * 300),
                prompt_tokens: 384,
                output_tokens: 2_500,
                rate: 30.0,
            })
            .collect();
        let replayed = run_pair(name, &cfg, name, &specs);
        assert!(replayed > 0, "{name}: nothing was replayed");
    }
}

/// Run deadlines and iteration caps swept across a stretch of replayed
/// steps, so some land inside a replayed run.
#[test]
fn deadline_and_iteration_cap_inside_replays() {
    let specs = workload(23, 40);
    for name in ["fcfs", "tokenflow"] {
        for cap in (600..640).step_by(3) {
            let cfg = config().with_max_iterations(cap);
            let label = format!("cap-{cap}/{name}");
            let replayed = run_pair(&label, &cfg, name, &specs);
            assert!(replayed > 0, "{label}: nothing was replayed");
        }
        for ms in (4_000..4_400).step_by(37) {
            let mut cfg = config();
            cfg.deadline = SimDuration::from_millis(ms);
            let label = format!("deadline-{ms}ms/{name}");
            let replayed = run_pair(&label, &cfg, name, &specs);
            assert!(replayed > 0, "{label}: nothing was replayed");
        }
    }
}
