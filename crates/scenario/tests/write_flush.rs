//! The write-through span path must carry the burst regime.
//!
//! `KvManager::pump_writes_as_span` sends a pull as one PCIe span only
//! when its certificate holds; otherwise the ordered pump runs and every
//! result is the same, just slower. So a change that quietly stops the
//! certificate from holding breaks no digest. This test pins how often it
//! holds on the committed flash-crowd scenario (seed 1): at least 99% of
//! the pumps that found tokens queued must take the span path.

use std::path::Path;

use tokenflow_core::Engine;
use tokenflow_scenario::{parse_scenario, TopologySpec};

const MIN_SPAN_SHARE: f64 = 0.99;

#[test]
fn flash_crowd_pulls_take_the_span_path() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/crowd_burst_h200.json");
    let text = std::fs::read_to_string(&path).expect("committed scenario is readable");
    let spec = parse_scenario(&text).expect("committed scenario parses");
    let harness = spec.build().expect("committed scenario builds");
    assert!(matches!(harness.topology, TopologySpec::Single));

    let mut engine = Engine::from_boxed(harness.config, harness.scheduler.build_scheduler());
    for req in harness.workload.iter() {
        engine.submit(*req);
    }
    assert!(engine.run_to_completion().is_finished());

    let stats = engine.write_flush_stats();
    let pulls = stats.span_pulls + stats.ordered_pulls;
    assert!(pulls > 10_000, "the crowd should pump often, got {stats:?}");
    let share = stats.span_pulls as f64 / pulls as f64;
    assert!(
        share >= MIN_SPAN_SHARE,
        "only {share:.4} of non-empty pulls took the span path ({stats:?})"
    );
}
