//! End-to-end and per-layer benchmark of the TokenFlow serving simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <crowd-tokenflow|crowd-fcfs|fleet-elastic> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). Each
//! workload is a scenario spec run through the repository's single
//! construction path, `parse_scenario` → `ScenarioSpec::build` →
//! `Harness::run`. With `--trace 0` the benchmark repeats untraced runs
//! of a few workload draws for `--seconds` and reports the
//! end-to-end metrics; with `--trace 1` it pairs each untraced run of the
//! first draw with a traced, wrapper-timed run of the same stack and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A failed correctness check prints `FAIL:` lines, reports
//! `"correct": false` and exits 1. See `benchmark/README.md`.

mod alloc;
mod host;
mod profile;
mod workloads;

use std::process::exit;
use std::time::{Duration, Instant};

use tokenflow_core::Completion;
use tokenflow_metrics::RunReport;
use tokenflow_scenario::json::{self, ni, obj, s, Json};
use tokenflow_scenario::{parse_scenario, Harness};

use workloads::{Workload, SELF_TEST_SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("effective_throughput_tok_s", "tok/s"),
    ("throughput_tok_s", "tok/s"),
    ("replica_s", "s"),
    ("completed_frac", "ratio"),
];

/// Per-layer metrics (traced runs), with units. Layers are named after
/// the repository's crates.
const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_s", "s"),
    ("scenario.build_s", "s"),
    ("workload.requests", "count"),
    ("workload.submit_s", "s"),
    ("core.steps", "count"),
    ("core.fast_steps", "count"),
    ("core.fast_ratio", "ratio"),
    ("core.full_step_s", "s"),
    ("core.fast_step_s", "s"),
    ("core.full_step_us_p99", "us"),
    ("core.fast_step_us_p99", "us"),
    ("core.self_s", "s"),
    ("core.horizons_issued", "count"),
    ("core.horizon_invalidated_ratio", "ratio"),
    ("core.step_allocs", "count"),
    ("sched.plan_calls", "count"),
    ("sched.plan_s", "s"),
    ("sched.plan_us_p99", "us"),
    ("sched.decode_gate_calls", "count"),
    ("sched.decode_gate_s", "s"),
    ("sched.other_s", "s"),
    ("sched.reprices", "count"),
    ("sched.swaps", "count"),
    ("sched.preemptions", "count"),
    ("sched.queued_wait_s", "s"),
    ("sched.held_wait_s", "s"),
    ("kv.loads", "count"),
    ("kv.evictions", "count"),
    ("kv.evict_per_preempt", "ratio"),
    ("kv.recomputes", "count"),
    ("kv.reload_wait_s", "s"),
    ("client.stall_events", "count"),
    ("client.rebuffer_per_req_s", "s"),
    ("cluster.epochs", "count"),
    ("cluster.epoch_s", "s"),
    ("cluster.epoch_us_p99", "us"),
    ("cluster.route_calls", "count"),
    ("cluster.route_s", "s"),
    ("cluster.pool_submissions", "count"),
    ("cluster.batched_barriers", "count"),
    ("cluster.dispatch_imbalance", "ratio"),
    ("control.decide_calls", "count"),
    ("control.decide_s", "s"),
    ("control.scale_events", "count"),
    ("control.peak_replicas", "count"),
    ("fault.crashes", "count"),
    ("fault.lost", "count"),
    ("fault.recovered", "count"),
    ("fault.abandoned", "count"),
    ("fault.recovery_p99_s", "s"),
    ("metrics.finalize_s", "s"),
    ("trace.events", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// Fewest untraced passes over the draws per end-to-end run, whatever
/// `--seconds` says: repeats are what the determinism checks compare.
const MIN_PASSES: usize = 2;

/// Set-ups timed per draw per pass; the median is kept.
const SETUP_REPEATS: usize = 5;

const USAGE: &str =
    "usage: tokenflow-benchmark --workload <crowd-tokenflow|crowd-fcfs|fleet-elastic> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Correctness failures collected over the whole invocation.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Outcome checks every run must pass: it finished, every request is
    /// accounted for, and the fleet's faults really fired.
    fn check_run(&mut self, label: &str, completion: Completion, report: &RunReport, fleet: bool) {
        self.check(completion == Completion::Finished, || {
            format!("{label}: run stopped with {completion:?}, not Finished")
        });
        let (shed, abandoned) = report
            .faults
            .as_ref()
            .map_or((0, 0), |f| (f.shed, f.abandoned));
        self.check(
            report.completed as u64 + shed + abandoned == report.submitted as u64,
            || {
                format!(
                    "{label}: completed {} + shed {shed} + abandoned {abandoned} != submitted {}",
                    report.completed, report.submitted
                )
            },
        );
        if fleet {
            let (crashes, lost) = report
                .faults
                .as_ref()
                .map_or((0, 0), |f| (f.crashes, f.lost_events));
            self.check(crashes >= 1 && lost > 0, || {
                format!("{label}: faults did not fire (crashes {crashes}, lost {lost})")
            });
        }
    }
}

/// Requests attempted and failed over every run of the invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, report: &RunReport) {
        self.attempted += report.submitted as u64;
        self.failed += report.submitted.saturating_sub(report.completed) as u64;
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Parses and builds a spec, timing each half.
fn set_up(text: &str) -> (Harness, Duration, Duration) {
    let t = Instant::now();
    let spec = parse_scenario(text)
        .unwrap_or_else(|e| fatal(&format!("benchmark spec does not parse: {e:?}")));
    let parse = t.elapsed();
    let t = Instant::now();
    let harness = spec
        .build()
        .unwrap_or_else(|e| fatal(&format!("benchmark spec does not build: {e:?}")));
    (harness, parse, t.elapsed())
}

/// One untraced run of one workload draw.
struct DrawRun {
    digest: u64,
    completion: Completion,
    report: RunReport,
    setup: f64,
    calibration: f64,
    wall: f64,
    cpu: f64,
    peak_bytes: usize,
    allocs: u64,
}

fn run_draw(text: &str) -> DrawRun {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let (harness, parse, build) = set_up(text);
        setups.push((parse + build).as_secs_f64());
        drop(harness);
    }
    let calibration = host::calibrate().as_secs_f64();
    let baseline = alloc::reset_peak();
    let (harness, parse, build) = set_up(text);
    setups.push((parse + build).as_secs_f64());
    let allocs = alloc::allocations();
    let cpu = host::process_cpu_time();
    let t = Instant::now();
    let outcome = harness.run();
    let wall = t.elapsed();
    let cpu = host::process_cpu_time() - cpu;
    let allocs = alloc::allocations() - allocs;
    let peak_bytes = alloc::peak_since(baseline);
    DrawRun {
        digest: outcome.digest(),
        completion: outcome.completion,
        report: outcome.report,
        setup: median(&mut setups),
        calibration,
        wall: wall.as_secs_f64(),
        cpu: cpu.as_secs_f64(),
        peak_bytes,
        allocs,
    }
}

fn draw_specs(args: &Args) -> Vec<String> {
    (0..args.workload.draws())
        .map(|d| args.workload.spec_json(args.seed, d))
        .collect::<Option<_>>()
        .unwrap_or_else(|| fatal("--seed is too large for the workload's seed range"))
}

fn measure_end_to_end(args: &Args, gate: &mut Gate, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let specs = draw_specs(args);
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes: Vec<Vec<DrawRun>> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < until {
        passes.push(specs.iter().map(|text| run_draw(text)).collect());
    }
    let fleet = args.workload.is_fleet();
    for (d, first) in passes[0].iter().enumerate() {
        println!(
            "draw {d}: digest {:016x} submitted {} completed {} allocs {} peak_heap {} B",
            first.digest,
            first.report.submitted,
            first.report.completed,
            first.allocs,
            first.peak_bytes
        );
        for (p, pass) in passes.iter().enumerate().skip(1) {
            let again = &pass[d];
            gate.check(again.digest == first.digest, || {
                format!(
                    "draw {d} pass {p}: digest {:016x} != {:016x}",
                    again.digest, first.digest
                )
            });
            gate.check(again.allocs == first.allocs, || {
                format!(
                    "draw {d} pass {p}: {} allocations != {}",
                    again.allocs, first.allocs
                )
            });
            // A thread pool interleaves replicas' allocations, so only a
            // single-threaded run repeats its peak to the byte.
            gate.check(fleet || again.peak_bytes == first.peak_bytes, || {
                format!(
                    "draw {d} pass {p}: peak heap {} B != {} B",
                    again.peak_bytes, first.peak_bytes
                )
            });
        }
    }
    for pass in &passes {
        for (d, run) in pass.iter().enumerate() {
            gate.check_run(&format!("draw {d}"), run.completion, &run.report, fleet);
            tally.add(&run.report);
        }
    }
    for (p, pass) in passes.iter().enumerate() {
        let sum = |f: fn(&DrawRun) -> f64| pass.iter().map(f).sum::<f64>();
        println!(
            "pass {p}: setup {:.6} s, calibration {:.4} s, run {:.4} s, cpu {:.4} s",
            sum(|r| r.setup),
            sum(|r| r.calibration),
            sum(|r| r.wall),
            sum(|r| r.cpu)
        );
    }
    // Host timings are quoted per pass at the reference host speed: the
    // summed time over the summed calibration time measured alongside,
    // times what one pass's calibrations take at that speed. The host's
    // speed drifts by up to 1.9× for seconds to minutes at a time; the
    // ratio cancels that drift and keeps every change to the program.
    let runs = || passes.iter().flatten();
    let calibration: f64 = runs().map(|r| r.calibration).sum();
    let reference = host::REFERENCE_CALIBRATION.as_secs_f64() * specs.len() as f64;
    let rescaled = |f: fn(&DrawRun) -> f64| runs().map(f).sum::<f64>() / calibration * reference;
    let draws = &passes[0];
    let over_draws = |f: fn(&RunReport) -> f64| mean(draws.iter().map(|r| f(&r.report)));
    let submitted: usize = draws.iter().map(|r| r.report.submitted).sum();
    let completed: usize = draws.iter().map(|r| r.report.completed).sum();
    vec![
        ("setup_s", rescaled(|r| r.setup)),
        ("run_s", rescaled(|r| r.wall)),
        ("run_cpu_s", rescaled(|r| r.cpu)),
        (
            "peak_heap_mb",
            mean(draws.iter().map(|r| r.peak_bytes as f64 * 1e-6)),
        ),
        ("ttft_p50_s", over_draws(|r| r.ttft.p50)),
        ("ttft_p99_s", over_draws(|r| r.ttft.p99)),
        (
            "effective_throughput_tok_s",
            over_draws(|r| r.effective_throughput),
        ),
        ("throughput_tok_s", over_draws(|r| r.throughput)),
        ("replica_s", over_draws(|r| r.replica_seconds)),
        ("completed_frac", ratio(completed as f64, submitted as f64)),
    ]
}

fn measure_layers(args: &Args, gate: &mut Gate, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let text = draw_specs(args).swap_remove(0);
    let fleet = args.workload.is_fleet();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    while rounds.is_empty() || Instant::now() < until {
        let r = rounds.len();
        let (harness, parse, build) = set_up(&text);
        let allocs = alloc::allocations();
        let t = Instant::now();
        let plain = harness.clone().run();
        let run_s = t.elapsed().as_secs_f64();
        let step_allocs = alloc::allocations() - allocs;
        gate.check_run(
            &format!("round {r} untraced"),
            plain.completion,
            &plain.report,
            fleet,
        );
        tally.add(&plain.report);

        let mut prof = profile::run(&harness);
        let digest = prof.report.digest();
        gate.check_run(
            &format!("round {r} traced"),
            prof.completion,
            &prof.report,
            fleet,
        );
        tally.add(&prof.report);
        gate.check(digest == plain.digest(), || {
            format!(
                "round {r}: traced digest {digest:016x} != untraced {:016x}",
                plain.digest()
            )
        });
        match first {
            None => {
                println!("digest {digest:016x} (traced and untraced), step allocs {step_allocs}");
                first = Some((digest, step_allocs));
            }
            Some((d0, a0)) => {
                gate.check(digest == d0, || {
                    format!("round {r}: digest {digest:016x} != {d0:016x}")
                });
                gate.check(step_allocs == a0, || {
                    format!("round {r}: {step_allocs} allocations != {a0}")
                });
            }
        }
        let facts = profile::journal_facts(&mut prof.journal);
        check_journal(gate, r, &facts, &prof.report);
        rounds.push(layer_metrics(
            &harness,
            parse.as_secs_f64(),
            build.as_secs_f64(),
            run_s,
            step_allocs,
            &prof,
            &facts,
        ));
    }
    println!("rounds: {}", rounds.len());
    rounds[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let mut values: Vec<f64> = rounds.iter().map(|m| m[i].1).collect();
            (name, median(&mut values))
        })
        .collect()
}

/// The journal is an independent record of the run: its event counts
/// must agree with the report's own counters. Under faults the merged
/// report drops the records of incarnations a retry superseded, while
/// the journal keeps their events, so preemptions only bound the report.
fn check_journal(gate: &mut Gate, r: usize, facts: &profile::JournalFacts, report: &RunReport) {
    let preemptions_agree = match report.faults {
        None => facts.preemptions == report.preemptions,
        Some(_) => facts.preemptions >= report.preemptions,
    };
    gate.check(preemptions_agree, || {
        format!(
            "round {r}: journal has {} preemptions, report {}",
            facts.preemptions, report.preemptions
        )
    });
    if let Some(f) = &report.faults {
        let journal = (facts.crashes, facts.lost, facts.abandoned);
        let stats = (f.crashes, f.lost_events, f.abandoned);
        gate.check(journal == stats, || {
            format!("round {r}: journal (crashes, lost, abandoned) {journal:?} != report {stats:?}")
        });
    }
}

fn layer_metrics(
    harness: &Harness,
    parse_s: f64,
    build_s: f64,
    run_s: f64,
    step_allocs: u64,
    prof: &profile::Profile,
    facts: &profile::JournalFacts,
) -> Vec<(&'static str, f64)> {
    let report = &prof.report;
    let clocks = &prof.clocks;
    let runtime = &report.runtime;
    let secs = |nanos: &[u64]| nanos.iter().sum::<u64>() as f64 * 1e-9;
    let p99 = |nanos: &[u64]| profile::p99_us(&mut nanos.to_vec());
    let single = prof.fleet.is_none();
    let (epochs, epoch_s, epoch_p99, imbalance, peak, scale_events) = match &prof.fleet {
        Some(f) => (
            f.epoch_nanos.len() as f64,
            secs(&f.epoch_nanos),
            p99(&f.epoch_nanos),
            f.dispatch_imbalance,
            f.peak_replicas as f64,
            f.scale_events as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let (recovered, recovery_p99) = report
        .faults
        .as_ref()
        .map_or((0.0, 0.0), |f| (f.recovered as f64, f.recovery_latency.p99));
    let wall = prof.wall.as_secs_f64();
    let attributed = (prof.submit + prof.drive + prof.finalize).as_secs_f64();
    vec![
        ("scenario.parse_s", parse_s),
        ("scenario.build_s", build_s),
        ("workload.requests", harness.workload.len() as f64),
        ("workload.submit_s", prof.submit.as_secs_f64()),
        ("core.steps", prof.steps as f64),
        ("core.fast_steps", runtime.fast_steps as f64),
        (
            "core.fast_ratio",
            ratio(runtime.fast_steps as f64, prof.steps as f64),
        ),
        ("core.full_step_s", secs(&prof.full_step_nanos)),
        ("core.fast_step_s", secs(&prof.fast_step_nanos)),
        ("core.full_step_us_p99", p99(&prof.full_step_nanos)),
        ("core.fast_step_us_p99", p99(&prof.fast_step_nanos)),
        (
            "core.self_s",
            if single {
                prof.drive.as_secs_f64() - clocks.sched_secs()
            } else {
                0.0
            },
        ),
        ("core.horizons_issued", runtime.horizons_issued as f64),
        (
            "core.horizon_invalidated_ratio",
            ratio(
                runtime.horizons_invalidated as f64,
                runtime.horizons_issued as f64,
            ),
        ),
        ("core.step_allocs", step_allocs as f64),
        ("sched.plan_calls", clocks.plan.calls() as f64),
        ("sched.plan_s", clocks.plan.secs()),
        ("sched.plan_us_p99", clocks.plan_us_p99()),
        ("sched.decode_gate_calls", clocks.decode_gate.calls() as f64),
        ("sched.decode_gate_s", clocks.decode_gate.secs()),
        ("sched.other_s", clocks.sched_other.secs()),
        ("sched.reprices", facts.reprices as f64),
        ("sched.swaps", facts.swaps as f64),
        ("sched.preemptions", facts.preemptions as f64),
        ("sched.queued_wait_s", facts.queued_secs),
        ("sched.held_wait_s", facts.held_secs),
        ("kv.loads", facts.loads as f64),
        ("kv.evictions", facts.evictions as f64),
        (
            "kv.evict_per_preempt",
            ratio(facts.evictions as f64, facts.preemptions as f64),
        ),
        ("kv.recomputes", facts.recomputes as f64),
        ("kv.reload_wait_s", facts.reload_secs),
        ("client.stall_events", report.stall_events as f64),
        (
            "client.rebuffer_per_req_s",
            ratio(report.total_rebuffer_secs, report.submitted as f64),
        ),
        ("cluster.epochs", epochs),
        ("cluster.epoch_s", epoch_s),
        ("cluster.epoch_us_p99", epoch_p99),
        ("cluster.route_calls", clocks.route.calls() as f64),
        ("cluster.route_s", clocks.route.secs()),
        ("cluster.pool_submissions", runtime.pool_submissions as f64),
        ("cluster.batched_barriers", runtime.batched_barriers as f64),
        ("cluster.dispatch_imbalance", imbalance),
        ("control.decide_calls", clocks.decide.calls() as f64),
        ("control.decide_s", clocks.decide.secs()),
        ("control.scale_events", scale_events),
        ("control.peak_replicas", peak),
        ("fault.crashes", facts.crashes as f64),
        ("fault.lost", facts.lost as f64),
        ("fault.recovered", recovered),
        ("fault.abandoned", facts.abandoned as f64),
        ("fault.recovery_p99_s", recovery_p99),
        ("metrics.finalize_s", prof.finalize.as_secs_f64()),
        ("trace.events", facts.events as f64),
        ("trace.wall_s", wall),
        ("trace.overhead_ratio", ratio(wall, run_s)),
        ("trace.unattributed_ratio", ratio(wall - attributed, wall)),
    ]
}

/// For one small spec per topology, the benchmark's wrapped, traced
/// stack must reproduce `Harness::run`'s report digest.
fn self_test(gate: &mut Gate) {
    for text in SELF_TEST_SPECS {
        let (harness, _, _) = set_up(text);
        let plain = harness.clone().run();
        let prof = profile::run(&harness);
        let name = &harness.name;
        gate.check(plain.completion == Completion::Finished, || {
            format!("self-test {name}: run stopped with {:?}", plain.completion)
        });
        gate.check(prof.report.digest() == plain.digest(), || {
            format!(
                "self-test {name}: wrapped digest {:016x} != Harness::run {:016x}",
                prof.report.digest(),
                plain.digest()
            )
        });
        if let Some(f) = &plain.report.faults {
            gate.check(f.crashes >= 1 && f.lost_events > 0, || {
                format!("self-test {name}: faults did not fire")
            });
        }
    }
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks a name or unit"))
        })
        .collect()
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    let declared = declared_metrics(args.trace).unwrap_or_else(|e| fatal(&e));
    println!(
        "host: {} | workload={} seed={} seconds={} trace={}",
        host::fingerprint(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut gate = Gate::default();
    let mut tally = Tally::default();
    self_test(&mut gate);
    let (values, registry) = if args.trace {
        (measure_layers(&args, &mut gate, &mut tally), PER_LAYER)
    } else {
        (measure_end_to_end(&args, &mut gate, &mut tally), END_TO_END)
    };
    let produced: Vec<(&str, &str)> = values
        .iter()
        .map(|&(name, _)| {
            let unit = registry
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |e| e.1);
            (name, unit)
        })
        .collect();
    let mut want: Vec<(&str, &str)> = declared
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let mut have = produced.clone();
    want.sort_unstable();
    have.sort_unstable();
    gate.check(have == want && have.len() == registry.len(), || {
        format!("printed metrics {have:?} do not match BENCHMARK.json {want:?}")
    });
    let metrics = values
        .iter()
        .zip(&produced)
        .map(|(&(name, value), &(_, unit))| {
            gate.check(value.is_finite(), || format!("{name} is not finite"));
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_string(),
                obj(vec![("value", Json::Num(value)), ("unit", s(unit))]),
            )
        })
        .collect();
    for f in &gate.failures {
        println!("FAIL: {f}");
    }
    let correct = gate.failures.is_empty();
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", ni(tally.attempted)),
        ("failed", ni(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.emit());
    if !correct {
        exit(1);
    }
}
