//! The benchmark's workloads, as scenario specs.
//!
//! Each workload is a JSON `ScenarioSpec` whose only free parameter is
//! the workload seed, so the program under test sees nothing but the
//! generated trace. Arrivals are open-loop: every trace fixes its arrival
//! times up front, whatever the simulated server does, so simulated TTFT
//! includes queueing.

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Llama3-8B/H200 engine running TokenFlow through a diurnal
    /// flash crowd: the paper's burst regime, where `sched` and `kv` do
    /// most of their work.
    CrowdTokenFlow,
    /// The same trace and engine under the FCFS baseline: `core` does the
    /// same steps, `sched.plan` is nearly free and `kv` moves nothing.
    CrowdFcfs,
    /// An autoscaled Llama3-8B/RTX4090 fleet with a replica crash,
    /// a straggler and a slow KV link: the only workload that exercises
    /// `cluster`, `control` and `fault`.
    FleetElastic,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [
    Workload::CrowdTokenFlow,
    Workload::CrowdFcfs,
    Workload::FleetElastic,
];

impl Workload {
    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrowdTokenFlow => "crowd-tokenflow",
            Workload::CrowdFcfs => "crowd-fcfs",
            Workload::FleetElastic => "fleet-elastic",
        }
    }

    /// Looks a workload up by its benchmark name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a replicated, fault-injected fleet.
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetElastic
    }

    /// Independent workload draws per benchmark run. Simulated metrics
    /// are averaged over them: one draw's p99 TTFT moves by several
    /// percent from seed to seed (the fleet's by up to 40%, when the
    /// crash's lost requests recover quickly), and the mean over the
    /// draws keeps it well inside its bound.
    pub fn draws(self) -> u64 {
        match self {
            Workload::CrowdTokenFlow | Workload::CrowdFcfs => 3,
            Workload::FleetElastic => 6,
        }
    }

    /// The scenario spec of draw `draw` of benchmark seed `seed`.
    ///
    /// Draw seeds are `seed * draws + draw`, so distinct benchmark seeds
    /// never share a draw. `None` when the draw seed leaves the range a
    /// JSON number holds exactly.
    pub fn spec_json(self, seed: u64, draw: u64) -> Option<String> {
        let draw_seed = seed.checked_mul(self.draws())?.checked_add(draw)?;
        if draw_seed > (1 << 53) {
            return None;
        }
        let crowd = |scheduler: &str| {
            format!(
                r#"{{
  "name": "{name}",
  "model": "Llama3-8B",
  "hardware": "H200",
  "scheduler": "{scheduler}",
  "workload": {{
    "type": "diurnal-flash-crowd",
    "peak_rate": 12,
    "duration_secs": 1500,
    "crowd_size": 1000,
    "crowd_at_secs": 30,
    "rate": {{"type": "uniform", "lo": 8, "hi": 24}},
    "seed": {draw_seed}
  }}
}}"#,
                name = self.name(),
            )
        };
        Some(match self {
            Workload::CrowdTokenFlow => crowd("tokenflow"),
            Workload::CrowdFcfs => crowd("fcfs"),
            // The crash lands 5 s into the crowd, while the fleet is still
            // its bootstrap set (min = bootstrap, and replicas provisioned
            // for the crowd are still booting), so it always hits a live,
            // loaded replica. A crash aimed at a replica the control plane
            // already retired would be a silent no-op.
            Workload::FleetElastic => format!(
                r#"{{
  "name": "fleet-elastic",
  "model": "Llama3-8B",
  "hardware": "RTX4090",
  "engine": {{"max_batch": 16}},
  "scheduler": "tokenflow",
  "workload": {{
    "type": "diurnal-flash-crowd",
    "peak_rate": 12,
    "duration_secs": 900,
    "crowd_size": 600,
    "crowd_at_secs": 60,
    "rate": {{"type": "uniform", "lo": 8, "hi": 24}},
    "seed": {draw_seed}
  }},
  "topology": {{
    "type": "autoscaled",
    "bootstrap": 4,
    "router": "backlog-aware",
    "policy": "reactive",
    "control": {{"min_replicas": 4, "max_replicas": 24, "control_tick_secs": 5}},
    "execution": "auto"
  }},
  "fault": {{
    "crashes": [{{"replica": 0, "at_secs": 65}}],
    "stragglers": [{{"replica": 1, "from_secs": 60, "until_secs": 120, "factor": 0.5}}],
    "kv_link": [{{"replica": 2, "from_secs": 60, "until_secs": 120, "factor": 0.25}}],
    "retry": {{"max_attempts": 4}}
  }}
}}"#
            ),
        })
    }
}

/// Small specs, one per topology, for the self-test that holds the
/// benchmark's wrapped stack to `Harness::run` digest for digest.
pub const SELF_TEST_SPECS: [&str; 3] = [
    r#"{
  "name": "self-test-single",
  "scheduler": "tokenflow",
  "workload": {"type": "diurnal-flash-crowd", "peak_rate": 4, "duration_secs": 60,
               "crowd_size": 80, "crowd_at_secs": 5,
               "rate": {"type": "uniform", "lo": 8, "hi": 24}, "seed": 11}
}"#,
    r#"{
  "name": "self-test-cluster",
  "model": "Llama3-8B",
  "hardware": "RTX4090",
  "engine": {"max_batch": 8},
  "scheduler": "andes",
  "workload": {"type": "diurnal-flash-crowd", "peak_rate": 2, "duration_secs": 60,
               "crowd_size": 30, "crowd_at_secs": 10,
               "rate": {"type": "uniform", "lo": 8, "hi": 24}, "seed": 12},
  "topology": {"type": "cluster", "replicas": 3, "router": "rate-aware",
               "execution": "sequential"}
}"#,
    r#"{
  "name": "self-test-autoscaled-fault",
  "model": "Llama3-8B",
  "hardware": "RTX4090",
  "engine": {"max_batch": 16},
  "scheduler": "tokenflow",
  "workload": {"type": "diurnal-flash-crowd", "peak_rate": 1.5, "duration_secs": 120,
               "crowd_size": 30, "crowd_at_secs": 30,
               "rate": {"type": "uniform", "lo": 8, "hi": 24}, "seed": 13},
  "topology": {"type": "autoscaled", "bootstrap": 2, "router": "least-loaded",
               "policy": "reactive",
               "control": {"min_replicas": 2, "max_replicas": 6, "boot_delay_secs": 2,
                           "control_tick_secs": 5},
               "execution": {"parallel": {"threads": 2}}},
  "fault": {"crashes": [{"replica": 0, "at_secs": 32}],
            "stragglers": [{"replica": 1, "from_secs": 30, "until_secs": 45, "factor": 0.5}],
            "retry": {"max_attempts": 3}}
}"#,
];
