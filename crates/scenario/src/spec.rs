//! The declarative spec types: every axis of the serving surface as data.
//!
//! A [`ScenarioSpec`] names a model, a hardware profile, engine knobs, a
//! scheduling policy, a workload, and a topology (single engine, fixed
//! cluster, or autoscaled fleet). Each axis is a plain enum/struct with
//! the same defaults as the hand-built constructors, so an empty object
//! `{}` on any axis means "what `::new()` would give you" and a spec-built
//! stack is byte-identical to the equivalent hand-built one (the
//! `equivalence` test suite pins that per shipped combination).
//!
//! Specs are parsed from and emitted to JSON by [`crate::codec`]; the
//! emitted form is canonical (every field explicit, fixed order), so
//! `parse(emit(spec)) == spec` and emission is a fixed point.

/// Valid `scheduler.type` names.
pub const SCHEDULER_NAMES: &[&str] = &["fcfs", "chunked", "andes", "tokenflow"];
/// Valid `router` names.
pub const ROUTER_NAMES: &[&str] = &["round-robin", "least-loaded", "backlog-aware", "rate-aware"];
/// Valid `policy.type` names.
pub const SCALE_POLICY_NAMES: &[&str] = &["reactive", "predictive-ewma", "scripted"];
/// Valid `workload.type` names.
pub const WORKLOAD_TYPE_NAMES: &[&str] = &[
    "preset",
    "diurnal-flash-crowd",
    "synthetic",
    "trace-csv",
    "inline",
];
/// Valid Table 1 preset names (`workload.name` under `"type": "preset"`).
pub const PRESET_NAMES: &[&str] = &[
    "rtx4090-a",
    "rtx4090-b",
    "rtx4090-c",
    "rtx4090-d",
    "h200-a",
    "h200-b",
    "h200-c",
    "h200-d",
];
/// Valid `topology.type` names.
pub const TOPOLOGY_NAMES: &[&str] = &["single", "cluster", "autoscaled"];
/// Accepted `execution` names. All three run the same sequential epoch
/// loop; the parallel forms are accepted so that older specs still
/// parse.
pub const EXECUTION_NAMES: &[&str] = &["sequential", "parallel", "auto"];
/// Valid `arrivals.type` names.
pub const ARRIVAL_NAMES: &[&str] = &["burst", "poisson", "mmpp", "diurnal"];
/// Valid length-distribution `type` names.
pub const LENGTH_DIST_NAMES: &[&str] = &[
    "fixed",
    "normal",
    "lognormal",
    "uniform",
    "sharegpt-prompt",
    "sharegpt-output",
];
/// Valid rate-distribution `type` names.
pub const RATE_DIST_NAMES: &[&str] = &["fixed", "uniform", "mix"];
/// Valid hardware profile names.
pub const HARDWARE_NAMES: &[&str] = &["RTX4090", "A6000", "H200", "Ascend910B"];
/// Valid model profile names.
pub const MODEL_NAMES: &[&str] = &["Llama3-8B", "Qwen2-7B", "Qwen2.5-7B", "Qwen2.5-32B"];

/// A scheduling policy plus its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// SGLang's conservative FCFS baseline. `headroom: None` keeps the
    /// conservative full-output admission reserve; `Some(n)` switches to
    /// an `n`-token headroom reserve.
    Fcfs {
        /// Optional admission headroom override, tokens.
        headroom: Option<u64>,
    },
    /// SGLang with Sarathi-style chunked prefill.
    Chunked {
        /// Prompt tokens mixed into each decode iteration.
        chunk: u64,
    },
    /// The Andes-style QoE-aware preemptive baseline.
    Andes {
        /// Full re-ranking period, milliseconds.
        interval_ms: u64,
    },
    /// The paper's buffer-aware two-step scheduler.
    TokenFlow(TokenFlowSpec),
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec::TokenFlow(TokenFlowSpec::default())
    }
}

impl SchedulerSpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            SchedulerSpec::Fcfs { .. } => "fcfs",
            SchedulerSpec::Chunked { .. } => "chunked",
            SchedulerSpec::Andes { .. } => "andes",
            SchedulerSpec::TokenFlow(_) => "tokenflow",
        }
    }
}

/// Knobs of [`SchedulerSpec::TokenFlow`], mirroring
/// `tokenflow_sched::TokenFlowParams` field for field (times in
/// spec-friendly units). Defaults equal `TokenFlowParams::default()`.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenFlowSpec {
    /// Rescheduling interval Δt, milliseconds.
    pub schedule_interval_ms: u64,
    /// Buffer conservativeness μ.
    pub buffer_conservativeness: f64,
    /// Working-set shrink rate λ (Eq. 5).
    pub ws_adjust_rate: f64,
    /// Utility weight γ on the empty-buffer boost.
    pub gamma: f64,
    /// Off-interval trigger threshold, seconds of buffer.
    pub critical_buffer_secs: f64,
    /// Decode-growth reserve per admission, tokens.
    pub headroom_tokens: u64,
    /// Memory fill target as a fraction of KV capacity.
    pub util_target: f64,
    /// Cap on the actions a full pass issues (preemptions, resumes and
    /// admissions). Admissions and resumes are budgeted first;
    /// preemptions take what remains.
    pub max_transitions: u64,
    /// D2H backpressure threshold as a fraction of the interval.
    pub io_backpressure: f64,
    /// Fraction of Γ that service admission may commit.
    pub capacity_safety: f64,
    /// Prefill chunk size mixed into decode iterations, tokens.
    pub prefill_chunk: u64,
    /// Cap on swap candidates examined per local-search round
    /// (0 = unbounded, the historical behavior).
    pub swap_candidates: u64,
}

impl Default for TokenFlowSpec {
    fn default() -> Self {
        TokenFlowSpec {
            schedule_interval_ms: 500,
            buffer_conservativeness: 2.0,
            ws_adjust_rate: 0.5,
            gamma: 1.0,
            critical_buffer_secs: 1.0,
            headroom_tokens: 64,
            util_target: 0.92,
            max_transitions: 256,
            io_backpressure: 1.0,
            capacity_safety: 0.8,
            prefill_chunk: 2_048,
            swap_candidates: 0,
        }
    }
}

/// A routing policy (knob-free; canonical JSON form is the bare string).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterSpec {
    /// Cycle through active replicas.
    RoundRobin,
    /// Fewest live requests (prefill-backlog tie-break).
    #[default]
    LeastLoaded,
    /// Join-shortest-prefill-queue.
    BacklogAware,
    /// Declared-rate vs capacity scoring.
    RateAware,
}

impl RouterSpec {
    /// The spec's canonical name.
    pub fn type_name(&self) -> &'static str {
        match self {
            RouterSpec::RoundRobin => "round-robin",
            RouterSpec::LeastLoaded => "least-loaded",
            RouterSpec::BacklogAware => "backlog-aware",
            RouterSpec::RateAware => "rate-aware",
        }
    }
}

/// A fleet-sizing policy plus its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalePolicySpec {
    /// Thresholds on admission pressure (`ReactivePolicy`).
    Reactive {
        /// Rate-headroom slack (fleet sized so `Σ rᵢ ≤ n·Γ×this`).
        target_utilization: f64,
        /// TTFT budget in queued prefill tokens per replica.
        backlog_per_replica: u64,
        /// KV fill fraction the sizing allows per replica.
        kv_watermark: f64,
    },
    /// EWMA forecast of the arrival token rate (`PredictivePolicy`).
    PredictiveEwma {
        /// EWMA time constant, seconds.
        tau_secs: f64,
        /// Rate-headroom slack.
        target_utilization: f64,
        /// TTFT budget in queued prefill tokens per replica.
        backlog_per_replica: u64,
        /// KV fill fraction the sizing allows per replica.
        kv_watermark: f64,
    },
    /// A fixed fleet-size schedule (`ScriptedPolicy`).
    Scripted {
        /// `(effective_from_secs, target_fleet_size)` steps.
        steps: Vec<(f64, u64)>,
    },
}

impl Default for ScalePolicySpec {
    fn default() -> Self {
        ScalePolicySpec::Reactive {
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        }
    }
}

impl ScalePolicySpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            ScalePolicySpec::Reactive { .. } => "reactive",
            ScalePolicySpec::PredictiveEwma { .. } => "predictive-ewma",
            ScalePolicySpec::Scripted { .. } => "scripted",
        }
    }

    /// The default predictive spec (τ = 30 s).
    pub fn predictive_default() -> Self {
        ScalePolicySpec::PredictiveEwma {
            tau_secs: 30.0,
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        }
    }
}

/// Control-plane bounds and timing. `gamma: None` derives Γ from the
/// engine's own cost model (`ControlConfig::for_engine`).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSpec {
    /// Fleet floor (≥ 1).
    pub min_replicas: u64,
    /// Fleet ceiling.
    pub max_replicas: u64,
    /// Boot delay of a provisioned replica, seconds.
    pub boot_delay_secs: f64,
    /// Scale-down cooldown, seconds.
    pub cooldown_secs: f64,
    /// Per-replica stall-free streaming capacity Γ override, tokens/s.
    pub gamma: Option<f64>,
    /// Periodic control tick interval, seconds (`None` = arrival-driven).
    pub control_tick_secs: Option<f64>,
}

impl Default for ControlSpec {
    fn default() -> Self {
        ControlSpec {
            min_replicas: 1,
            max_replicas: 64,
            boot_delay_secs: 10.0,
            cooldown_secs: 5.0,
            gamma: None,
            control_tick_secs: None,
        }
    }
}

/// A cluster topology's `execution` field. Clusters have one executor,
/// the sequential epoch loop, so every accepted form (`"sequential"`,
/// `"auto"`, `"parallel"` and the parallel objects, see
/// [`execution_from_json`](crate::codec::execution_from_json)) parses
/// to this one value and emits as `"sequential"`. The field is kept so
/// that specs written for the removed worker pool still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionSpec {
    /// Advance replicas one after another on the calling thread.
    #[default]
    Sequential,
}

/// An engine-facing workload description.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A Table 1 controlled setup by name (see [`PRESET_NAMES`]).
    Preset {
        /// Preset name, e.g. `"rtx4090-a"`.
        name: String,
        /// Generation seed.
        seed: u64,
    },
    /// The autoscaling stress preset: diurnal base plus a flash crowd.
    DiurnalFlashCrowd {
        /// Diurnal peak arrival rate, requests/second.
        peak_rate: f64,
        /// Trace horizon, seconds.
        duration_secs: f64,
        /// Flash-crowd size, requests.
        crowd_size: u64,
        /// Flash-crowd instant, seconds.
        crowd_at_secs: f64,
        /// Streaming-rate distribution.
        rate: RateDistSpec,
        /// Generation seed.
        seed: u64,
    },
    /// A fully synthetic workload: arrival process × length × rate dists.
    Synthetic {
        /// Arrival process.
        arrivals: ArrivalSpecSpec,
        /// Prompt-length distribution.
        prompt: LengthDistSpec,
        /// Output-length distribution.
        output: LengthDistSpec,
        /// Streaming-rate distribution.
        rate: RateDistSpec,
        /// Generation seed.
        seed: u64,
    },
    /// A CSV trace replay (`arrival_us,prompt_tokens,output_tokens,rate_tps`).
    TraceCsv {
        /// Path to the CSV file. Relative paths resolve against the
        /// process working directory unless rebased
        /// (see `ScenarioSpec::rebase_paths`).
        path: String,
    },
    /// Requests spelled out inline.
    Inline {
        /// The requests, in arrival order.
        requests: Vec<InlineRequest>,
    },
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::DiurnalFlashCrowd {
            peak_rate: 1.5,
            duration_secs: 120.0,
            crowd_size: 30,
            crowd_at_secs: 30.0,
            rate: RateDistSpec::Uniform { lo: 8.0, hi: 24.0 },
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            WorkloadSpec::Preset { .. } => "preset",
            WorkloadSpec::DiurnalFlashCrowd { .. } => "diurnal-flash-crowd",
            WorkloadSpec::Synthetic { .. } => "synthetic",
            WorkloadSpec::TraceCsv { .. } => "trace-csv",
            WorkloadSpec::Inline { .. } => "inline",
        }
    }

    /// Resolves a relative `trace-csv` path against `base` (the single
    /// place the resolution rule lives — scenario- and sweep-level
    /// rebasing both call this).
    pub fn rebase_paths(&mut self, base: &std::path::Path) {
        if let WorkloadSpec::TraceCsv { path } = self {
            let p = std::path::Path::new(path.as_str());
            if p.is_relative() {
                *path = base.join(p).to_string_lossy().into_owned();
            }
        }
    }
}

/// One inline request.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineRequest {
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Prompt length, tokens.
    pub prompt_tokens: u64,
    /// Output budget, tokens.
    pub output_tokens: u64,
    /// Required streaming rate, tokens/second.
    pub rate: f64,
}

/// An arrival process (times in seconds; mirrors
/// `tokenflow_workload::ArrivalSpec`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpecSpec {
    /// `size` simultaneous requests at `at_secs`.
    Burst {
        /// Burst size.
        size: u64,
        /// Burst instant, seconds.
        at_secs: f64,
    },
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Arrival rate λ, requests/second.
        rate: f64,
        /// Horizon, seconds.
        duration_secs: f64,
    },
    /// Markov-modulated Poisson (BurstGPT-style calm/burst phases).
    Mmpp {
        /// Calm-state rate, requests/second.
        base_rate: f64,
        /// Burst-state rate, requests/second.
        burst_rate: f64,
        /// Mean calm dwell, seconds.
        mean_calm_secs: f64,
        /// Mean burst dwell, seconds.
        mean_burst_secs: f64,
        /// Horizon, seconds.
        duration_secs: f64,
    },
    /// Diurnal non-homogeneous Poisson (raised-cosine intensity).
    Diurnal {
        /// Trough rate, requests/second.
        trough_rate: f64,
        /// Peak rate, requests/second.
        peak_rate: f64,
        /// Modulation period, seconds.
        period_secs: f64,
        /// Horizon, seconds.
        duration_secs: f64,
    },
}

impl ArrivalSpecSpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            ArrivalSpecSpec::Burst { .. } => "burst",
            ArrivalSpecSpec::Poisson { .. } => "poisson",
            ArrivalSpecSpec::Mmpp { .. } => "mmpp",
            ArrivalSpecSpec::Diurnal { .. } => "diurnal",
        }
    }
}

/// A token-length distribution (mirrors `tokenflow_workload::LengthDist`,
/// plus the two named ShareGPT presets).
#[derive(Debug, Clone, PartialEq)]
pub enum LengthDistSpec {
    /// Every request gets exactly this many tokens.
    Fixed(u64),
    /// Normal clamped to `[min, max]`.
    Normal {
        /// Mean length.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Lognormal clamped to `[min, max]`.
    LogNormal {
        /// Target mean.
        mean: f64,
        /// Target standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// ShareGPT-like prompt lengths.
    SharegptPrompt,
    /// ShareGPT-like output lengths.
    SharegptOutput,
}

impl LengthDistSpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            LengthDistSpec::Fixed(_) => "fixed",
            LengthDistSpec::Normal { .. } => "normal",
            LengthDistSpec::LogNormal { .. } => "lognormal",
            LengthDistSpec::Uniform { .. } => "uniform",
            LengthDistSpec::SharegptPrompt => "sharegpt-prompt",
            LengthDistSpec::SharegptOutput => "sharegpt-output",
        }
    }
}

/// A streaming-rate distribution (mirrors `tokenflow_workload::RateDist`).
#[derive(Debug, Clone, PartialEq)]
pub enum RateDistSpec {
    /// Every client at the same rate.
    Fixed(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A discrete `(weight, rate)` mix.
    Mix(Vec<(f64, f64)>),
}

impl RateDistSpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            RateDistSpec::Fixed(_) => "fixed",
            RateDistSpec::Uniform { .. } => "uniform",
            RateDistSpec::Mix(_) => "mix",
        }
    }
}

/// Engine knobs (the subset of `EngineConfig` a scenario varies; defaults
/// equal `EngineConfig::new`).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Hard cap on concurrently decoding requests.
    pub max_batch: u64,
    /// Fraction of device memory the engine may use.
    pub mem_frac: f64,
    /// Enable KV offload (`false` = w/o-offload ablation).
    pub offload_enabled: bool,
    /// Enable write-through background sync.
    pub write_through: bool,
    /// Enable load-evict overlap.
    pub load_evict_overlap: bool,
    /// Prompt-token budget of one dedicated prefill iteration.
    pub max_prefill_tokens: u64,
    /// Simulation safety deadline, seconds.
    pub deadline_secs: f64,
    /// Honor scheduler plan horizons (the engine's quiescent-step fast
    /// path). `false` forces the full pipeline every step; results are
    /// byte-identical either way — the knob exists for differential
    /// testing and debugging.
    pub plan_horizon: bool,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            max_batch: 256,
            mem_frac: 0.9,
            offload_enabled: true,
            write_through: true,
            load_evict_overlap: true,
            max_prefill_tokens: 8_192,
            deadline_secs: (4 * 3_600) as f64,
            plan_horizon: true,
        }
    }
}

/// How many engines serve, and how they are wired together.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TopologySpec {
    /// One engine, no router.
    #[default]
    Single,
    /// A fixed cluster of `replicas` engines behind `router`.
    Cluster {
        /// Replica count (≥ 1).
        replicas: u64,
        /// Routing policy.
        router: RouterSpec,
        /// Epoch executor; accepted for compatibility, always
        /// sequential.
        execution: ExecutionSpec,
    },
    /// An elastic fleet: `bootstrap` replicas at time zero, resized by
    /// `policy` within `control`'s bounds.
    Autoscaled {
        /// Replicas live at time zero.
        bootstrap: u64,
        /// Routing policy.
        router: RouterSpec,
        /// Fleet-sizing policy.
        policy: ScalePolicySpec,
        /// Control-plane bounds and timing.
        control: ControlSpec,
        /// Epoch executor; accepted for compatibility, always
        /// sequential.
        execution: ExecutionSpec,
    },
}

impl TopologySpec {
    /// The spec's `type` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            TopologySpec::Single => "single",
            TopologySpec::Cluster { .. } => "cluster",
            TopologySpec::Autoscaled { .. } => "autoscaled",
        }
    }
}

/// One scheduled fail-stop replica crash.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Replica index, 0-based in provisioning order.
    pub replica: u64,
    /// Crash instant, seconds.
    pub at_secs: f64,
}

/// One degradation window: the replica (straggler) or its KV link runs
/// at `factor` of healthy throughput over `[from_secs, until_secs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFaultSpec {
    /// Replica index, 0-based in provisioning order.
    pub replica: u64,
    /// Window start, seconds (inclusive).
    pub from_secs: f64,
    /// Window end, seconds (exclusive; must exceed `from_secs`).
    pub until_secs: f64,
    /// Throughput multiplier in `(0, 1]`.
    pub factor: f64,
}

/// Crash-recovery retry/backoff knobs, mirroring
/// `tokenflow_fault::RetryPolicy` field for field (times in
/// spec-friendly milliseconds). Defaults equal `RetryPolicy::default()`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySpec {
    /// Re-dispatch attempts granted per request before it is abandoned.
    pub max_attempts: u64,
    /// Backoff before the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Exponential growth factor (≥ 1) between consecutive retries.
    pub multiplier: f64,
    /// Ceiling on any single backoff, milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetrySpec {
    fn default() -> Self {
        RetrySpec {
            max_attempts: 3,
            base_backoff_ms: 500,
            multiplier: 2.0,
            max_backoff_ms: 8_000,
        }
    }
}

/// A deterministic fault schedule, mirroring
/// `tokenflow_fault::FaultPlan`. Only cluster and autoscaled topologies
/// accept one, and every replica index it names must lie inside the
/// topology (`replicas` for a fixed cluster, `control.max_replicas` for
/// an elastic fleet) — the codec and `ScenarioSpec::build` both enforce
/// this.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Fail-stop replica crashes.
    pub crashes: Vec<CrashSpec>,
    /// Compute-degradation (straggler) windows.
    pub stragglers: Vec<WindowFaultSpec>,
    /// KV-link (PCIe) degradation windows.
    pub kv_link: Vec<WindowFaultSpec>,
    /// Provisioning ordinals that fail to boot (elastic fleets).
    pub boot_failures: Vec<u64>,
    /// Crash-recovery retry/backoff policy.
    pub retry: RetrySpec,
    /// Admission-shed threshold on fleet utilization `Σ rᵢ / (n·Γ)`;
    /// `None` disables shedding.
    pub shed_utilization: Option<f64>,
}

impl FaultSpec {
    /// The largest replica index the spec references, if it names any.
    pub fn max_replica(&self) -> Option<u64> {
        self.crashes
            .iter()
            .map(|c| c.replica)
            .chain(self.stragglers.iter().map(|w| w.replica))
            .chain(self.kv_link.iter().map(|w| w.replica))
            .chain(self.boot_failures.iter().copied())
            .max()
    }
}

/// One complete scenario: the whole serving surface as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (free-form; lands in reports).
    pub name: String,
    /// Model profile, by name (see [`MODEL_NAMES`]).
    pub model: String,
    /// Hardware profile, by name (see [`HARDWARE_NAMES`]).
    pub hardware: String,
    /// Engine knobs.
    pub engine: EngineSpec,
    /// Scheduling policy.
    pub scheduler: SchedulerSpec,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Serving topology.
    pub topology: TopologySpec,
    /// Deterministic fault schedule (`None` = fault-free).
    pub fault: Option<FaultSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            model: "Llama3-8B".to_string(),
            hardware: "RTX4090".to_string(),
            engine: EngineSpec::default(),
            scheduler: SchedulerSpec::default(),
            workload: WorkloadSpec::default(),
            topology: TopologySpec::default(),
            fault: None,
        }
    }
}

impl ScenarioSpec {
    /// Rewrites relative file paths inside the spec (currently only
    /// `workload.path` of a `trace-csv` workload) to resolve against
    /// `base` — what the CLI does with the spec file's own directory, so
    /// scenarios can name traces relative to themselves.
    pub fn rebase_paths(&mut self, base: &std::path::Path) {
        self.workload.rebase_paths(base);
    }
}
