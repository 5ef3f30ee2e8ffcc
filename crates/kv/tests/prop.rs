//! Property tests: the KV manager's block accounting survives arbitrary
//! operation sequences without leaking or double-freeing, and its
//! write-through backlog never loses or double-counts a dirty token.

use proptest::prelude::*;
use tokenflow_kv::{KvConfig, KvManager, Residency};
use tokenflow_sim::{RequestId, SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Prefill { req: u8, tokens: u16 },
    Append { req: u8 },
    Evict { req: u8 },
    Load { req: u8 },
    Drop { req: u8 },
    Pump,
    Advance { ms: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 1u16..512).prop_map(|(req, tokens)| Op::Prefill { req, tokens }),
        (0u8..6).prop_map(|req| Op::Append { req }),
        (0u8..6).prop_map(|req| Op::Evict { req }),
        (0u8..6).prop_map(|req| Op::Load { req }),
        (0u8..6).prop_map(|req| Op::Drop { req }),
        Just(Op::Pump),
        (1u16..100).prop_map(|ms| Op::Advance { ms }),
    ]
}

/// Applies `ops` to a fresh manager, checking after every op that pool
/// usage equals the per-request holds and that the write-through backlog
/// is exactly the dirty tokens of GPU-resident requests; then drains and
/// drops everything and checks both pools come back empty.
fn run_ops(cfg: KvConfig, ops: Vec<Op>) -> Result<(), String> {
    let mut kv = KvManager::new(cfg);
    let mut now = SimTime::ZERO;
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Prefill { req, tokens } => {
                let _ = kv.on_prefill(RequestId(req as u64), tokens as u64, now);
            }
            Op::Append { req } => {
                let _ = kv.append_token(RequestId(req as u64), 1.0);
            }
            Op::Evict { req } => {
                let _ = kv.begin_evict(RequestId(req as u64), now);
            }
            Op::Load { req } => {
                let _ = kv.begin_load(RequestId(req as u64), now);
            }
            Op::Drop { req } => {
                kv.drop_kv(RequestId(req as u64));
            }
            Op::Pump => {
                kv.pump_writes(now, SimDuration::from_millis(5));
            }
            Op::Advance { ms } => {
                now += SimDuration::from_millis(ms as u64);
                kv.advance_to(now);
            }
        }
        prop_assert!(
            kv.check_conservation(),
            "pool usage must equal per-request holds"
        );
        let gpu_dirty: u64 = (0..6u64)
            .map(RequestId)
            .filter(|&r| kv.residency(r) == Residency::Gpu)
            .map(|r| kv.dirty_tokens(r))
            .sum();
        prop_assert_eq!(
            kv.write_backlog_tokens(),
            gpu_dirty,
            "write backlog must be the GPU-resident dirty tokens after op {step}"
        );
    }
    // Draining all transfers and dropping everything frees both pools.
    now += SimDuration::from_secs(100);
    kv.advance_to(now);
    for req in 0..6u64 {
        kv.drop_kv(RequestId(req));
    }
    now += SimDuration::from_secs(100);
    kv.advance_to(now);
    prop_assert_eq!(kv.gpu_pool().used_blocks(), 0);
    prop_assert_eq!(kv.cpu_pool().used_blocks(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn block_accounting_is_conserved(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 256; // 4096 tokens
        cfg.cpu_blocks = 2_048;
        run_ops(cfg, ops)?;
    }

    #[test]
    fn tiny_host_pool_conserves_write_backlog(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 256;
        cfg.cpu_blocks = 12; // 192 tokens: write-through sync runs the host pool full
        run_ops(cfg, ops)?;
    }

    #[test]
    fn evict_load_roundtrip_preserves_context(tokens in 1u64..2_000) {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 256;
        cfg.cpu_blocks = 4_096;
        let mut kv = KvManager::new(cfg);
        let r = RequestId(0);
        kv.on_prefill(r, tokens, SimTime::ZERO).unwrap();
        kv.begin_evict(r, SimTime::ZERO).unwrap();
        let mut now = SimTime::ZERO;
        while kv.residency(r) != Residency::Cpu {
            now += SimDuration::from_millis(1);
            kv.advance_to(now);
            prop_assert!(now < SimTime::from_secs(60), "eviction must finish");
        }
        kv.begin_load(r, now).unwrap();
        while kv.residency(r) != Residency::Gpu {
            now += SimDuration::from_millis(1);
            kv.advance_to(now);
            prop_assert!(now < SimTime::from_secs(120), "load must finish");
        }
        prop_assert_eq!(kv.context_tokens(r), tokens);
        prop_assert_eq!(kv.dirty_tokens(r), 0, "roundtrip leaves everything synced");
    }
}
