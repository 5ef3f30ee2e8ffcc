//! Static horizons must be replayed in the burst regime.
//!
//! `Engine::run_to_completion` replays a static plan horizon many steps
//! per call when it can, and steps it one fast step at a time otherwise,
//! with the same result either way. So a change that quietly stops the
//! replay from applying breaks no digest. This test pins how much of the
//! fast path it carries on the committed flash-crowd scenario (seed 1):
//! at least half of the fast steps must be replayed.

use std::path::Path;

use tokenflow_core::Engine;
use tokenflow_scenario::{parse_scenario, TopologySpec};

const MIN_REPLAYED_SHARE: f64 = 0.5;

#[test]
fn flash_crowd_fast_steps_are_replayed() {
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

    let stats = engine.fast_path_stats();
    assert!(
        stats.fast_steps > 10_000,
        "the crowd should run many fast steps, got {stats:?}"
    );
    assert!(
        stats.replayed_steps <= stats.fast_steps && stats.replays <= stats.replayed_steps,
        "replayed steps are fast steps, and each replay covers one or more ({stats:?})"
    );
    let share = stats.replayed_steps as f64 / stats.fast_steps as f64;
    assert!(
        share >= MIN_REPLAYED_SHARE,
        "only {share:.4} of fast steps were replayed ({stats:?})"
    );
}
