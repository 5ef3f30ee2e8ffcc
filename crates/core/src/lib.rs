//! The TokenFlow serving engine, structured as a staged pipeline.
//!
//! [`Engine`] implements a continuous-batching iteration loop in the style
//! of SGLang's scheduler process, decomposed into four explicit,
//! separately-testable stages that [`Engine::step`] orchestrates:
//!
//! * `admission` — arrival ingest, scheduler-context construction (via
//!   [`SchedContextBuilder`](tokenflow_sched::SchedContextBuilder)), and
//!   application of the policy's plan (admissions, resumes, preemptions)
//!   through the hierarchical [`KvManager`](tokenflow_kv::KvManager);
//! * `kv_orchestrator` — translation of finished evict/load transfers
//!   into request-phase changes, plus compute-window write-through pumping;
//! * `batch` — prefill+decode batch composition under the scheduler's
//!   policy, the GPU-memory fit (emergency reclamation, shedding), and
//!   cost-model pricing via [`CostModel`](tokenflow_model::CostModel);
//! * `delivery` — token delivery into per-request client buffers,
//!   request completion, and sampled telemetry.
//!
//! Request lifecycle state shared by the stages lives in `state`; each
//! stage takes `&mut` views of it rather than owning the world. That
//! decomposition is what makes the loop reusable: the `tokenflow-cluster`
//! crate drives N replicas of this engine on one simulated timeline behind
//! a pluggable router, using [`Engine::load_snapshot`] as the routing
//! signal.
//!
//! All four evaluated systems (SGLang FCFS, SGLang chunked, Andes,
//! TokenFlow) run through this same loop; only the scheduler differs —
//! exactly the controlled comparison the paper's evaluation performs.
//!
//! Use [`Engine::run`] for one-call experiment runs, or drive an
//! [`Engine`] step by step for interactive use (see the `quickstart`
//! example). The loops behind `run` ([`Engine::run_to_completion`]) and
//! the cluster's epochs ([`Engine::step_until`]) replay quiescent decode
//! stretches many steps per call; [`Engine::step`] always runs one
//! iteration and is their reference.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub(crate) mod admission;
pub(crate) mod batch;
pub mod config;
pub(crate) mod delivery;
pub mod engine;
pub(crate) mod kv_orchestrator;
pub mod outcome;
pub mod profiler;
pub mod state;

pub use config::EngineConfig;
pub use engine::{Completion, Engine, FastPathStats, StepOutcome};
pub use outcome::SimOutcome;
pub use state::EngineLoad;
