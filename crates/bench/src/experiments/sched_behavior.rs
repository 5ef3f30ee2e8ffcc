//! Scheduler-behaviour experiments: Figures 18, 19, 20, 22, and 23.

use tokenflow_core::{Engine, EngineConfig};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{TokenFlowParams, TokenFlowScheduler};
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{ArrivalSpec, ControlledSetup, RateDist, Workload};

use crate::runner::run_cell;
use crate::table::{f, pct_change, Table};

fn burst_workload(n: u32, prompt: u64, output: u64, rate: RateDist, seed: u64) -> Workload {
    tokenflow_workload::arrivals::WorkloadGen {
        arrivals: ArrivalSpec::Burst {
            size: n,
            at: SimTime::ZERO,
        },
        prompt: tokenflow_workload::LengthDist::Fixed(prompt),
        output: tokenflow_workload::LengthDist::Fixed(output),
        rate,
    }
    .generate(seed)
}

/// Figure 18: token-generation timelines under SGLang vs TokenFlow.
/// SGLang serialises admission (head-of-line blocking, staircase TTFTs);
/// TokenFlow starts everyone early and paces delivery near the required
/// rate, with preemption plateaus.
pub fn fig18() -> String {
    let workload = burst_workload(12, 512, 600, RateDist::Fixed(15.0), 3);
    let mut s = String::from(
        "Per-request generation behaviour (12-request burst, 15 tok/s\n\
         streams, RTX 4090). \"plateau\" is the longest no-progress gap —\n\
         preemption intervals under TokenFlow, queueing under SGLang\n\
         happens before the first token instead.\n\n",
    );
    for which in ["fcfs", "tokenflow"] {
        let cfg = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(4)
            .with_timelines(12);
        let out = run_cell(cfg, which, &workload);
        s.push_str(&format!("{}:\n", out.scheduler));
        let mut t = Table::new(vec![
            "request",
            "TTFT (s)",
            "mean rate (tok/s)",
            "plateau (s)",
            "rebuffer (s)",
        ]);
        for tl in &out.timelines {
            let r = &out.records[tl.id.0 as usize];
            t.row(vec![
                format!("{}", tl.id),
                f(r.ttft().map_or(f64::NAN, |d| d.as_secs_f64()), 2),
                f(tl.mean_rate().unwrap_or(0.0), 1),
                f(tl.longest_plateau_secs(), 1),
                f(r.rebuffer.as_secs_f64(), 2),
            ]);
        }
        s.push_str(&t.render());
        s.push('\n');
    }
    s
}

/// Figure 19: multi-rate scheduling — 40% of clients at 15 tok/s, 60% at
/// 20 tok/s. Each class should track its own target delivery rate.
pub fn fig19() -> String {
    let workload = burst_workload(
        30,
        256,
        900,
        RateDist::Mix(vec![(0.4, 15.0), (0.6, 20.0)]),
        5,
    );
    let cfg = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
        .with_max_batch(16)
        .with_timelines(30);
    let out = run_cell(cfg, "tokenflow", &workload);

    let mut s = String::from(
        "Mixed-rate burst under TokenFlow (30 requests, RTX 4090).\n\
         Delivery rate here is end-to-end: output length divided by the\n\
         time from first token to last consumption; pacing should hold each\n\
         class near its own target.\n\n",
    );
    let mut t = Table::new(vec![
        "class",
        "requests",
        "target (tok/s)",
        "mean delivery (tok/s)",
        "worst stall (s)",
    ]);
    for target in [15.0, 20.0] {
        let class: Vec<_> = out.records.iter().filter(|r| r.rate == target).collect();
        let rates: Vec<f64> = class
            .iter()
            .filter_map(|r| {
                let first = r.first_token_at?;
                let finished = r.finished_at?;
                let span = finished.saturating_since(first).as_secs_f64();
                // End-to-end delivery rate, floored by consumption.
                Some((r.generated as f64 / span.max(r.generated as f64 / r.rate)).min(r.rate))
            })
            .collect();
        let mean = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        let worst_stall = class
            .iter()
            .map(|r| r.rebuffer.as_secs_f64())
            .fold(0.0, f64::max);
        t.row(vec![
            format!("{target} tok/s"),
            class.len().to_string(),
            f(target, 0),
            f(mean, 1),
            f(worst_stall, 2),
        ]);
    }
    s.push_str(&t.render());
    s
}

/// Figure 20: effective-throughput gains at 20, 25, and 30 tok/s streams.
/// The paper reports +53.7%, +48.7%, +52.9% over SGLang.
pub fn fig20() -> String {
    let mut s = String::from(
        "Effective throughput at rising stream rates (burst of 300 on H200,\n\
         mem-frac 0.3). Paper gains: +53.7% / +48.7% / +52.9%.\n\n",
    );
    let mut t = Table::new(vec!["speed (tok/s)", "SGLang eff", "TokenFlow eff", "gain"]);
    for rate in [20.0, 25.0, 30.0] {
        let setup = ControlledSetup::h200_a();
        let workload = setup.generator(RateDist::Fixed(rate)).generate(9);
        let mk_cfg = || {
            EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200()).with_mem_frac(0.3)
        };
        let sgl = run_cell(mk_cfg(), "fcfs", &workload);
        let tf = run_cell(mk_cfg(), "tokenflow", &workload);
        t.row(vec![
            f(rate, 0),
            f(sgl.report.effective_throughput, 1),
            f(tf.report.effective_throughput, 1),
            pct_change(
                sgl.report.effective_throughput,
                tf.report.effective_throughput,
            ),
        ]);
    }
    s.push_str(&t.render());
    s
}

/// Figure 22: rescheduling-interval sensitivity, Δt ∈ {0.5, 1.0, 1.5} s.
/// Shorter intervals react faster (slightly better TTFT and effective
/// throughput) at higher scheduling overhead.
pub fn fig22() -> String {
    let workload = ControlledSetup::rtx4090_a().workload(13);
    let mut s = String::from(
        "Δt sweep on the 4090 (a) burst. Expected: shorter intervals\n\
         marginally improve effective throughput and TTFT.\n\n",
    );
    let mut t = Table::new(vec![
        "Δt (s)",
        "eff thpt (tok/s)",
        "mean TTFT (s)",
        "p99 TTFT (s)",
        "preempts",
    ]);
    for half_ms in [500u64, 1_000, 1_500] {
        let params = TokenFlowParams {
            schedule_interval: SimDuration::from_millis(half_ms),
            ..TokenFlowParams::default()
        };
        let cfg = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
        let out = Engine::new(cfg, TokenFlowScheduler::with_params(params)).run(&workload);
        t.row(vec![
            f(half_ms as f64 / 1_000.0, 1),
            f(out.report.effective_throughput, 1),
            f(out.report.ttft.mean, 2),
            f(out.report.ttft.p99, 2),
            out.report.preemptions.to_string(),
        ]);
    }
    s.push_str(&t.render());
    s
}

/// Figure 23: buffer-conservativeness sensitivity, μ ∈ {1, 20}, against the
/// SGLang reference. High μ behaves cautiously (few preemptions, SGLang-
/// like); low μ adapts aggressively at some stutter risk.
pub fn fig23() -> String {
    let workload = ControlledSetup::rtx4090_a().workload(17);
    let mut s = String::from(
        "Buffer-conservativeness sweep on the 4090 (a) burst. Expected:\n\
         μ=20 preempts rarely (cautious, SGLang-like); μ=1 preempts\n\
         aggressively for the best responsiveness at some stall risk.\n\n",
    );
    let mut t = Table::new(vec![
        "policy",
        "eff thpt (tok/s)",
        "mean TTFT (s)",
        "preempts",
        "rebuffer (s)",
        "stalls",
    ]);
    let cfg = || EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    let sgl = run_cell(cfg(), "fcfs", &workload);
    t.row(vec![
        "SGLang".into(),
        f(sgl.report.effective_throughput, 1),
        f(sgl.report.ttft.mean, 2),
        sgl.report.preemptions.to_string(),
        f(sgl.report.total_rebuffer_secs, 1),
        sgl.report.stall_events.to_string(),
    ]);
    for mu in [20.0, 1.0] {
        let params = TokenFlowParams {
            buffer_conservativeness: mu,
            ..TokenFlowParams::default()
        };
        let out = Engine::new(cfg(), TokenFlowScheduler::with_params(params)).run(&workload);
        t.row(vec![
            format!("TokenFlow μ={mu}"),
            f(out.report.effective_throughput, 1),
            f(out.report.ttft.mean, 2),
            out.report.preemptions.to_string(),
            f(out.report.total_rebuffer_secs, 1),
            out.report.stall_events.to_string(),
        ]);
    }
    s.push_str(&t.render());
    s
}

/// Sanity used by unit tests: a tiny deterministic workload.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_workload_is_deterministic() {
        let a = burst_workload(4, 64, 32, RateDist::Fixed(10.0), 1);
        let b = burst_workload(4, 64, 32, RateDist::Fixed(10.0), 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(tokenflow_sim::RequestId(0)).prompt_tokens, 64);
    }
}
