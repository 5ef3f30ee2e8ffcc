//! One runner per table/figure of the paper's evaluation.
//!
//! Each experiment regenerates the rows/series its figure reports and
//! returns them as formatted text; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison. Shapes — who wins, by roughly what factor,
//! where crossovers fall — are the reproduction target, not absolute
//! numbers (the substrate is an analytical simulator, not the authors'
//! testbed).

use tokenflow_scenario::json::{self, Json};
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

pub mod autoscale;
pub mod cluster;
pub mod e2e;
pub mod fault;
pub mod hotpath;
pub mod kvmem;
pub mod micro;
pub mod sched_behavior;
pub mod sweep;

/// A runnable experiment tied to a paper table or figure.
pub struct Experiment {
    /// Identifier, e.g. `"fig16"`.
    pub id: &'static str,
    /// What the paper figure shows.
    pub title: &'static str,
    /// Runs the experiment and renders its results.
    pub run: fn() -> String,
}

/// Every experiment in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig01",
            title: "Token consumption speeds by age group and language",
            run: micro::fig01,
        },
        Experiment {
            id: "fig02",
            title: "SGLang burst micro-benchmark: TTFT and speed vs load (H200)",
            run: micro::fig02,
        },
        Experiment {
            id: "fig06",
            title: "Toy example of buffer-aware request scheduling",
            run: micro::fig06,
        },
        Experiment {
            id: "fig08",
            title: "Write strategies: write-back vs write-through vs rearranged",
            run: kvmem::fig08,
        },
        Experiment {
            id: "fig10",
            title: "Load-evict overlap vs serialized transfers",
            run: kvmem::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Distribution of the synthetic industrial trace",
            run: micro::fig11,
        },
        Experiment {
            id: "fig12",
            title: "End-to-end on H200 with Llama3-8B (BurstGPT + industrial traces)",
            run: e2e::fig12,
        },
        Experiment {
            id: "fig13",
            title: "End-to-end on A6000 with Qwen2.5-7B (BurstGPT + industrial traces)",
            run: e2e::fig13,
        },
        Experiment {
            id: "fig14_15",
            title: "Queued/running requests over a long trace (Qwen2.5-32B, H200)",
            run: e2e::fig14_15,
        },
        Experiment {
            id: "fig16",
            title: "Controlled burst workloads (Table 1 burst rows)",
            run: e2e::fig16,
        },
        Experiment {
            id: "fig17",
            title: "Controlled Poisson workloads (Table 1 Poisson rows)",
            run: e2e::fig17,
        },
        Experiment {
            id: "fig18",
            title: "Token generation timelines: SGLang vs TokenFlow",
            run: sched_behavior::fig18,
        },
        Experiment {
            id: "fig19",
            title: "Multi-rate request scheduling (40% @15, 60% @20 tok/s)",
            run: sched_behavior::fig19,
        },
        Experiment {
            id: "fig20",
            title: "Effective throughput across generation speeds (20/25/30 tok/s)",
            run: sched_behavior::fig20,
        },
        Experiment {
            id: "fig21",
            title: "Burst performance on Huawei Ascend 910B",
            run: e2e::fig21,
        },
        Experiment {
            id: "fig22",
            title: "Rescheduling interval sensitivity (0.5-1.5 s)",
            run: sched_behavior::fig22,
        },
        Experiment {
            id: "fig23",
            title: "Buffer conservativeness sensitivity (1 vs 20)",
            run: sched_behavior::fig23,
        },
        Experiment {
            id: "table2",
            title: "Ablation of the hierarchical memory manager",
            run: kvmem::table2,
        },
        Experiment {
            id: "cluster",
            title: "Cluster scaling: 1/2/4 replicas × routing policy under burst",
            run: cluster::cluster_burst,
        },
        Experiment {
            id: "autoscale",
            title: "Elastic fleet: replica-seconds vs static-32 at matched QoS",
            run: autoscale::autoscale,
        },
        Experiment {
            id: "fault",
            title: "Failure recovery: mid-crowd replica crash, retries vs abandons",
            run: fault::fault,
        },
        Experiment {
            id: "hotpath",
            title: "Engine hot path: steps/sec vs request population (O(live) gate)",
            run: hotpath::hotpath,
        },
        Experiment {
            id: "sweep",
            title: "Declarative grid: scenarios/sweep_policy_workload.json via the spec layer",
            run: sweep::sweep,
        },
    ]
}

/// Runs one experiment by id, if it exists.
pub fn run_by_id(id: &str) -> Option<String> {
    all().into_iter().find(|e| e.id == id).map(|e| (e.run)())
}

/// A JSON number rounded to `decimals` places, so bench artifacts carry
/// the precision their tables print rather than every digit of the f64.
pub(crate) fn fixed(v: f64, decimals: usize) -> Json {
    json::n(format!("{v:.decimals$}").parse().unwrap_or(v))
}

/// The stress trace of the autoscale and fault experiments: a diurnal
/// base of `duration` peaking at `base_peak_rate` req/s, plus a
/// `crowd`-request flash crowd split into `waves` one-second waves from
/// `crowd_at` (the ramp), composed with `Workload::offset`/`merge`.
pub(crate) fn crowd_wave_trace(
    base_peak_rate: f64,
    duration: SimDuration,
    crowd: u32,
    waves: u32,
    crowd_at: SimTime,
    seed: u64,
) -> Workload {
    let rate = RateDist::Uniform { lo: 8.0, hi: 24.0 };
    let wave_size = crowd / waves.max(1);
    // Base trace plus the first wave from the preset itself...
    let mut parts = vec![diurnal_flash_crowd(
        base_peak_rate,
        duration,
        wave_size,
        crowd_at,
        rate.clone(),
        seed,
    )];
    // ...then the remaining waves, one second apart (the ramp).
    for wave in 1..waves {
        let burst = diurnal_flash_crowd(
            base_peak_rate,
            SimDuration::ZERO, // no base: duration-zero diurnal is empty
            wave_size,
            SimTime::ZERO,
            rate.clone(),
            seed ^ u64::from(wave),
        );
        parts.push(burst.offset(
            crowd_at.saturating_since(SimTime::ZERO) + SimDuration::from_secs(wave.into()),
        ));
    }
    Workload::merge(parts)
}

/// Asserts that `doc` carries every key in `keys`; `at` names the
/// object in the failure message (`"rows[]."`).
#[cfg(test)]
pub(crate) fn assert_keys(doc: &Json, keys: &[&str], at: &str) {
    for key in keys {
        assert!(doc.get(key).is_some(), "missing {at}{key}");
    }
}
