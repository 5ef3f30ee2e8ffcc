//! Run-level aggregation and percentile summaries.

use tokenflow_sim::SimDuration;

use crate::record::RequestMetrics;
use crate::weights::QosParams;

/// Percentile summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Count-weighted merge of summaries over disjoint sample sets.
    ///
    /// Counts, means, and maxima merge exactly. Percentiles cannot be
    /// recovered from summaries alone, so they are count-weighted averages
    /// — a documented approximation for dashboards over pre-aggregated
    /// data. When the underlying samples are available, recompute with
    /// [`Summary::of`] instead (the cluster crate's merged reports do).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Summary>) -> Summary {
        let mut total = Summary::default();
        for s in parts {
            if s.count == 0 {
                continue;
            }
            let n0 = total.count as f64;
            let n1 = s.count as f64;
            let n = n0 + n1;
            total.mean = (total.mean * n0 + s.mean * n1) / n;
            total.p50 = (total.p50 * n0 + s.p50 * n1) / n;
            total.p90 = (total.p90 * n0 + s.p90 * n1) / n;
            total.p99 = (total.p99 * n0 + s.p99 * n1) / n;
            // Seed the maximum from the first non-empty part so all-negative
            // sample sets merge exactly too.
            total.max = if total.count == 0 {
                s.max
            } else {
                total.max.max(s.max)
            };
            total.count += s.count;
        }
        total
    }

    /// Summarises a sample set. Returns the zero summary for empty input.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Linear-interpolated percentile of a **sorted** sample set.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty set");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Execution-machinery counters surfaced alongside the serving metrics:
/// the engine's plan-horizon fast-path statistics and the cluster
/// executor's barrier/pool statistics. Zero for layers that don't apply
/// (a single-engine run has no epochs; a replica report inside a cluster
/// merge has no pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeCounters {
    /// Engine steps served by the plan-horizon fast path.
    pub fast_steps: u64,
    /// Plan horizons armed.
    pub horizons_issued: u64,
    /// Horizons torn down early by a decision-epoch bump.
    pub horizons_invalidated: u64,
    /// Horizons that ran their full certified window.
    pub horizons_expired: u64,
    /// Cluster arrival-barrier epochs executed.
    pub epochs: u64,
    /// Always zero: no executor coalesces arrival barriers. Kept so the
    /// canonical form (and every digest pinned against it) keeps its
    /// `batched_barriers` key.
    pub batched_barriers: u64,
    /// Worker threads of the persistent executor pool (0 when
    /// sequential).
    pub pool_workers: u64,
    /// Replica-advance tasks submitted to the pool.
    pub pool_submissions: u64,
}

impl RuntimeCounters {
    /// Field-wise sum, except `pool_workers` (a configuration value, not
    /// a total) which takes the maximum.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RuntimeCounters>) -> RuntimeCounters {
        let mut total = RuntimeCounters::default();
        for c in parts {
            total.fast_steps += c.fast_steps;
            total.horizons_issued += c.horizons_issued;
            total.horizons_invalidated += c.horizons_invalidated;
            total.horizons_expired += c.horizons_expired;
            total.epochs += c.epochs;
            total.batched_barriers += c.batched_barriers;
            total.pool_workers = total.pool_workers.max(c.pool_workers);
            total.pool_submissions += c.pool_submissions;
        }
        total
    }

    /// Copy with the two pool counters zeroed. They describe *where* a
    /// cluster run's epochs executed — the worker pool's size depends on
    /// the executor and the host's cores — so they are the one part of a
    /// report allowed to differ between execution strategies. Everything
    /// else, epochs included, is simulation semantics; the canonical form
    /// ([`RunReport::canonical_json`](crate::RunReport::canonical_json))
    /// renders this view, so a report's digest is the same under every
    /// executor and on every host.
    pub fn invariant(&self) -> RuntimeCounters {
        RuntimeCounters {
            pool_workers: 0,
            pool_submissions: 0,
            ..*self
        }
    }
}

/// Failure/recovery accounting of one run under a fault plan. Absent
/// (`None` on [`RunReport::faults`]) for runs without an active fault
/// plan, which keeps fault-free canonical JSON — and therefore every
/// pinned golden digest — byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStats {
    /// Replica crashes applied.
    pub crashes: u64,
    /// Provisioned replicas that failed to boot.
    pub boot_failures: u64,
    /// Request-loss events (a request lost twice counts twice).
    pub lost_events: u64,
    /// Lost requests that were re-dispatched and finished.
    pub recovered: u64,
    /// Lost requests that exhausted their retry budget.
    pub abandoned: u64,
    /// Arrivals rejected by pressure-triggered shed mode.
    pub shed: u64,
    /// Retry histogram: `retry_attempts[k]` is the number of requests
    /// that were lost exactly `k + 1` times.
    pub retry_attempts: Vec<u64>,
    /// Seconds from a recovered request's first loss to its completion.
    pub recovery_latency: Summary,
}

impl FaultStats {
    /// Field-wise merge: counters sum, histograms add element-wise, and
    /// the latency summary merges count-weighted (see
    /// [`Summary::merged`]).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a FaultStats>) -> FaultStats {
        let mut total = FaultStats::default();
        let mut summaries = Vec::new();
        for f in parts {
            total.crashes += f.crashes;
            total.boot_failures += f.boot_failures;
            total.lost_events += f.lost_events;
            total.recovered += f.recovered;
            total.abandoned += f.abandoned;
            total.shed += f.shed;
            if total.retry_attempts.len() < f.retry_attempts.len() {
                total.retry_attempts.resize(f.retry_attempts.len(), 0);
            }
            for (slot, &n) in total.retry_attempts.iter_mut().zip(&f.retry_attempts) {
                *slot += n;
            }
            summaries.push(&f.recovery_latency);
        }
        total.recovery_latency = Summary::merged(summaries);
        total
    }
}

/// Aggregated results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of submitted requests.
    pub submitted: usize,
    /// Number of completed requests.
    pub completed: usize,
    /// Wall-clock duration of the run (simulation time).
    pub duration: SimDuration,
    /// TTFT summary in seconds over requests that produced a first token.
    pub ttft: Summary,
    /// Raw throughput: generated tokens / duration, tokens/second.
    pub throughput: f64,
    /// Effective throughput (§7.1.3): Σ effective weights / duration.
    pub effective_throughput: f64,
    /// The QoS scalar of Eq. 2.
    pub qos: f64,
    /// Total rebuffering time across requests, seconds.
    pub total_rebuffer_secs: f64,
    /// Total stall episodes across requests.
    pub stall_events: u64,
    /// Total preemption count across requests.
    pub preemptions: u64,
    /// Total recompute count across requests.
    pub recomputes: u64,
    /// Mean per-request generation rate over completed requests,
    /// tokens/second.
    pub mean_generation_rate: f64,
    /// Serving cost: billable replicas × seconds. A single-engine run
    /// bills one replica for the whole duration; cluster merges sum their
    /// parts, and elastic clusters overwrite this with the control
    /// plane's exact integral (see `tokenflow-metrics`' `FleetStats`).
    pub replica_seconds: f64,
    /// Execution-machinery counters (fast-path and executor statistics).
    /// `from_records` leaves them zero; the engine and cluster layers
    /// fill them in when building their outcomes.
    pub runtime: RuntimeCounters,
    /// Failure/recovery accounting, present only for runs executed under
    /// a non-empty fault plan (the cluster layer fills it in).
    pub faults: Option<FaultStats>,
}

impl RunReport {
    /// Aggregates per-request records.
    pub fn from_records(
        records: &[RequestMetrics],
        duration: SimDuration,
        qos: &QosParams,
    ) -> RunReport {
        let dur_secs = duration.as_secs_f64().max(1e-9);
        let ttfts: Vec<f64> = records
            .iter()
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect();
        let total_tokens: u64 = records.iter().map(|r| r.generated).sum();
        let effective: f64 = records.iter().map(|r| r.effective_tokens).sum();
        let qos_total: f64 = records
            .iter()
            .map(|r| r.qos_contribution(qos.lambda, qos.mu))
            .sum();
        let gen_rates: Vec<f64> = records
            .iter()
            .filter_map(|r| r.mean_generation_rate())
            .collect();
        RunReport {
            submitted: records.len(),
            completed: records.iter().filter(|r| r.completed()).count(),
            duration,
            ttft: Summary::of(&ttfts),
            throughput: total_tokens as f64 / dur_secs,
            effective_throughput: effective / dur_secs,
            qos: qos_total / dur_secs,
            total_rebuffer_secs: records.iter().map(|r| r.rebuffer.as_secs_f64()).sum(),
            stall_events: records.iter().map(|r| r.stall_events as u64).sum(),
            preemptions: records.iter().map(|r| r.preemptions as u64).sum(),
            recomputes: records.iter().map(|r| r.recomputes as u64).sum(),
            mean_generation_rate: if gen_rates.is_empty() {
                0.0
            } else {
                gen_rates.iter().sum::<f64>() / gen_rates.len() as f64
            },
            replica_seconds: duration.as_secs_f64(),
            runtime: RuntimeCounters::default(),
            faults: None,
        }
    }

    /// Merges reports from replicas that ran concurrently on one simulated
    /// timeline (a cluster run): counts and totals sum, the duration is the
    /// longest replica's, and rate metrics are recovered from each
    /// replica's `rate × duration` token totals before re-normalising by
    /// the merged duration.
    ///
    /// TTFT percentiles are count-weighted approximations (see
    /// [`Summary::merged`]), and `mean_generation_rate` is weighted by
    /// completed counts even though each replica normalises it over only
    /// its rate-measurable requests — both are summary-level
    /// approximations. When per-request records are available, prefer
    /// [`RunReport::from_records`] over the concatenated records — that
    /// is what `tokenflow-cluster` reports as the exact merge.
    pub fn merged<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> RunReport {
        let reports: Vec<&RunReport> = reports.into_iter().collect();
        let duration = reports
            .iter()
            .map(|r| r.duration)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let dur_secs = duration.as_secs_f64().max(1e-9);
        let recover = |f: fn(&RunReport) -> f64| -> f64 {
            reports
                .iter()
                .map(|r| f(r) * r.duration.as_secs_f64())
                .sum::<f64>()
                / dur_secs
        };
        let completed: usize = reports.iter().map(|r| r.completed).sum();
        let rate_weight: f64 = reports
            .iter()
            .map(|r| r.mean_generation_rate * r.completed as f64)
            .sum();
        RunReport {
            submitted: reports.iter().map(|r| r.submitted).sum(),
            completed,
            duration,
            ttft: Summary::merged(reports.iter().map(|r| &r.ttft)),
            throughput: recover(|r| r.throughput),
            effective_throughput: recover(|r| r.effective_throughput),
            qos: recover(|r| r.qos),
            total_rebuffer_secs: reports.iter().map(|r| r.total_rebuffer_secs).sum(),
            stall_events: reports.iter().map(|r| r.stall_events).sum(),
            preemptions: reports.iter().map(|r| r.preemptions).sum(),
            recomputes: reports.iter().map(|r| r.recomputes).sum(),
            mean_generation_rate: if completed == 0 {
                0.0
            } else {
                rate_weight / completed as f64
            },
            replica_seconds: reports.iter().map(|r| r.replica_seconds).sum(),
            runtime: RuntimeCounters::merged(reports.iter().map(|r| &r.runtime)),
            faults: if reports.iter().all(|r| r.faults.is_none()) {
                None
            } else {
                Some(FaultStats::merged(
                    reports.iter().filter_map(|r| r.faults.as_ref()),
                ))
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::{RequestId, SimTime};

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.125), 1.5);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.max, 4.0);
        assert!(s.p99 > s.p50);
    }

    fn record(id: u64, ttft_ms: u64, generated: u64, effective: f64) -> RequestMetrics {
        let mut m = RequestMetrics::new(RequestId(id), SimTime::ZERO, 20.0, generated);
        m.first_token_at = Some(SimTime::from_millis(ttft_ms));
        m.finished_at = Some(SimTime::from_secs(30));
        m.generated = generated;
        m.effective_tokens = effective;
        m.qos_weight_sum = effective;
        m
    }

    #[test]
    fn report_aggregates_throughputs() {
        let records = vec![record(0, 500, 600, 500.0), record(1, 1_500, 400, 300.0)];
        let r =
            RunReport::from_records(&records, SimDuration::from_secs(10), &QosParams::default());
        assert_eq!(r.submitted, 2);
        assert_eq!(r.completed, 2);
        assert_eq!(r.throughput, 100.0);
        assert_eq!(r.effective_throughput, 80.0);
        assert!((r.ttft.mean - 1.0).abs() < 1e-9);
        // Effective throughput can never exceed raw throughput.
        assert!(r.effective_throughput <= r.throughput);
    }

    #[test]
    fn report_qos_penalises_latency() {
        let fast = vec![record(0, 100, 500, 500.0)];
        let slow = vec![record(0, 20_000, 500, 500.0)];
        let p = QosParams::default();
        let d = SimDuration::from_secs(10);
        let r_fast = RunReport::from_records(&fast, d, &p);
        let r_slow = RunReport::from_records(&slow, d, &p);
        assert!(r_fast.qos > r_slow.qos);
    }

    #[test]
    fn summary_merge_is_count_weighted() {
        let a = Summary::of(&[1.0, 2.0, 3.0]);
        let b = Summary::of(&[10.0]);
        let m = Summary::merged([&a, &b]);
        assert_eq!(m.count, 4);
        assert!((m.mean - (1.0 + 2.0 + 3.0 + 10.0) / 4.0).abs() < 1e-9);
        assert_eq!(m.max, 10.0);
        let empty = Summary::merged([&Summary::default(), &a]);
        assert_eq!(empty.count, a.count);
        assert_eq!(empty.mean, a.mean);
    }

    #[test]
    fn report_merge_sums_counts_and_recovers_rates() {
        let qos = QosParams::default();
        let d = SimDuration::from_secs(10);
        let a = RunReport::from_records(
            &[record(0, 500, 600, 500.0), record(1, 1_500, 400, 300.0)],
            d,
            &qos,
        );
        let b = RunReport::from_records(
            &[record(0, 700, 1_000, 900.0)],
            SimDuration::from_secs(20),
            &qos,
        );
        let m = RunReport::merged([&a, &b]);
        assert_eq!(m.submitted, a.submitted + b.submitted);
        assert_eq!(m.completed, a.completed + b.completed);
        assert_eq!(m.duration, SimDuration::from_secs(20));
        // Total tokens (1000 + 1000) over the merged 20 s timeline.
        assert!((m.throughput - 100.0).abs() < 1e-9, "{}", m.throughput);
        assert_eq!(m.ttft.count, 3);
        assert_eq!(m.stall_events, a.stall_events + b.stall_events);
        // Merging matches recomputing from the concatenated records on
        // every count/total (percentiles are approximate by contract).
        let exact = RunReport::from_records(
            &[
                record(0, 500, 600, 500.0),
                record(1, 1_500, 400, 300.0),
                record(2, 700, 1_000, 900.0),
            ],
            SimDuration::from_secs(20),
            &qos,
        );
        assert_eq!(m.submitted, exact.submitted);
        assert_eq!(m.completed, exact.completed);
        assert!((m.throughput - exact.throughput).abs() < 1e-9);
        assert!((m.effective_throughput - exact.effective_throughput).abs() < 1e-9);
    }

    #[test]
    fn replica_seconds_default_to_duration_and_sum_on_merge() {
        let qos = QosParams::default();
        let a = RunReport::from_records(
            &[record(0, 500, 600, 500.0)],
            SimDuration::from_secs(10),
            &qos,
        );
        assert_eq!(a.replica_seconds, 10.0);
        let b = RunReport::from_records(
            &[record(0, 700, 1_000, 900.0)],
            SimDuration::from_secs(20),
            &qos,
        );
        // Two replicas that ran 10 s and 20 s cost 30 replica-seconds even
        // though the merged wall-clock is only 20 s.
        let m = RunReport::merged([&a, &b]);
        assert_eq!(m.replica_seconds, 30.0);
        assert_eq!(m.duration, SimDuration::from_secs(20));
    }

    #[test]
    fn report_handles_unstarted_requests() {
        let mut never = RequestMetrics::new(RequestId(0), SimTime::ZERO, 20.0, 100);
        never.generated = 0;
        let r = RunReport::from_records(&[never], SimDuration::from_secs(1), &QosParams::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.ttft.count, 0);
        assert_eq!(r.throughput, 0.0);
    }
}
