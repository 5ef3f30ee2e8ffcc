//! Host-side measurement: process CPU time, the calibration kernel that
//! tracks the host's speed, and the host fingerprint recorded with every
//! result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, exited
/// worker threads included.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// `nproc`, CPU model and compiler version, as one line.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}

/// What one calibration run takes on the reference host speed that
/// rescaled timings are quoted at.
pub const REFERENCE_CALIBRATION: Duration = Duration::from_millis(100);

/// Times a fixed kernel that shares no code with the program under test
/// but has its shape: a discrete-event loop over a binary heap, small
/// per-entity records, floating-point updates and data-dependent
/// branches. On a shared host the same simulator run can take up to
/// 1.9× longer for seconds to minutes at a time, with no CPU steal; the
/// kernel slows down with it (a memory-latency kernel does not), so run
/// time over kernel time measured alongside stays put.
pub fn calibrate() -> Duration {
    struct Entity {
        rate: f64,
        buffered: f64,
        emitted: u64,
    }
    const ENTITIES: usize = 4096;
    const BATCH: usize = 32;
    let start = Instant::now();
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg
    };
    let mut entities: Vec<Entity> = (0..ENTITIES)
        .map(|i| Entity {
            rate: 8.0 + (i % 17) as f64,
            buffered: 0.0,
            emitted: 0,
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..ENTITIES as u32)
        .map(|i| Reverse((next() >> 44, i)))
        .collect();
    let mut batch = Vec::with_capacity(BATCH);
    let mut acc = 0.0;
    for _ in 0..40_000 {
        batch.clear();
        let mut now = 0;
        while batch.len() < BATCH {
            let Reverse((t, i)) = heap.pop().expect("the heap never empties");
            now = t;
            batch.push(i);
        }
        for &i in &batch {
            let r = next();
            let e = &mut entities[i as usize];
            let tokens = 1 + (r >> 61);
            e.emitted += tokens;
            e.buffered = (e.buffered + tokens as f64 - e.rate * 0.02).max(0.0);
            acc += if e.buffered > 4.0 {
                e.buffered.sqrt()
            } else {
                e.rate * 0.5
            };
            let wait = if e.emitted > 3 {
                (e.buffered * 1000.0) as u64 + 50
            } else {
                10
            };
            heap.push(Reverse((now + wait + (r >> 58), i)));
        }
    }
    black_box(acc);
    start.elapsed()
}
