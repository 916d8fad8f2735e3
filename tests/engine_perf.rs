//! Perf smokes for the event-driven cycle engine. On a memory-bound paper
//! workload the event engine must not be slower than the dense loop it
//! replaced (the whole point of the next-event calendar is harvesting the
//! dead cycles that dominate exactly these workloads). On the compute-bound
//! row, UTS on 15 SMs, it must be clearly faster: the issue stage is busy
//! on one SM-cycle in seven there, and per-core sleeping exists so that the
//! other six are not ticked (before it, the calendar only cost on this
//! row: event/dense wall was 1.065).
//!
//! The test is `#[ignore]`d because wall-clock assertions are only
//! meaningful in release builds on an otherwise idle machine; the verify
//! script runs it explicitly with
//! `cargo test --release --test engine_perf -- --ignored`.

#![allow(clippy::unwrap_used)] // test code asserts infallibility

use gsi::sim::{CycleEngine, Simulator, SystemConfig};
use gsi::workloads::implicit::{self, ImplicitConfig, LocalMemStyle};
use gsi::workloads::uts::{self, UtsConfig, Variant};
use std::time::Instant;

/// Best-of-3 cycles/second for the implicit paper workload under `engine`,
/// plus the simulated cycle count (which must not depend on the engine).
fn cycles_per_sec(engine: CycleEngine) -> (f64, u64) {
    let style = LocalMemStyle::Scratchpad;
    let mut best = 0.0f64;
    let mut cycles = 0;
    for _ in 0..3 {
        let sys = SystemConfig::paper()
            .with_gpu_cores(1)
            .with_local_mem(style.mem_kind())
            .with_mshr(32)
            .with_cycle_engine(engine);
        let mut sim = Simulator::new(sys);
        let t0 = Instant::now();
        let out = implicit::run(&mut sim, &ImplicitConfig::paper(style)).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        cycles = out.run.cycles;
        best = best.max(cycles as f64 / dt);
    }
    (best, cycles)
}

#[test]
#[ignore = "wall-clock assertion; run in release via scripts/verify.sh"]
fn event_engine_not_slower_than_dense_on_memory_bound_workload() {
    let (dense_cps, dense_cycles) = cycles_per_sec(CycleEngine::Dense);
    let (event_cps, event_cycles) = cycles_per_sec(CycleEngine::Event);
    assert_eq!(dense_cycles, event_cycles, "engines disagree on simulated cycles");
    // Equal-within-noise is a pass: the calendar's wake evaluation must not
    // cost more than the cycles it skips. The 0.8 factor absorbs scheduler
    // jitter on shared machines; a real regression (the pre-calendar engine
    // was ~2x slower here) fails by a wide margin.
    assert!(
        event_cps >= 0.8 * dense_cps,
        "event engine slower than dense on memory-bound workload: \
         event {event_cps:.0} c/s vs dense {dense_cps:.0} c/s"
    );
}

/// Best-of-3 cycles/second for paper-scale UTS (GPU coherence, 15 SMs)
/// under `engine`, plus the simulated cycle count.
fn uts_cycles_per_sec(engine: CycleEngine) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut cycles = 0;
    for _ in 0..3 {
        let mut sim = Simulator::new(SystemConfig::paper().with_cycle_engine(engine));
        let t0 = Instant::now();
        let out = uts::run(&mut sim, &UtsConfig::paper(), Variant::Centralized).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        cycles = out.run.cycles;
        best = best.max(cycles as f64 / dt);
    }
    (best, cycles)
}

#[test]
#[ignore = "wall-clock assertion; run in release via scripts/verify.sh"]
fn event_engine_beats_dense_on_compute_bound_uts() {
    let (dense_cps, dense_cycles) = uts_cycles_per_sec(CycleEngine::Dense);
    let (event_cps, event_cycles) = uts_cycles_per_sec(CycleEngine::Event);
    assert_eq!(dense_cycles, event_cycles, "engines disagree on simulated cycles");
    // Measured 2.0x when written; 1.3x leaves room for a noisy machine
    // while still failing if sleeping SMs are ever ticked again.
    assert!(
        event_cps >= 1.3 * dense_cps,
        "event engine under 1.3x dense on uts/gpu at paper scale: \
         event {event_cps:.0} c/s vs dense {dense_cps:.0} c/s"
    );
}
