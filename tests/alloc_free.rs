//! The acceptance test for the allocation-free cycle loop: a counting
//! global allocator verifies that steady-state simulation performs no
//! per-cycle heap allocation. The test runs the same compute-bound kernel
//! at two very different iteration counts on pre-warmed simulators; if any
//! allocation remained on the per-cycle path, the longer run would allocate
//! (tens of thousands of times) more.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! thread perturbs the allocation counter. The counter is additionally
//! gated on a thread-local flag set only by the test thread: the libtest
//! harness runs helper threads (timers, the output channel) whose
//! occasional allocations would otherwise land inside the measured window
//! and flake the count.

#![allow(clippy::unwrap_used)] // test code asserts infallibility

use gsi::isa::{MemSem, Operand, ProgramBuilder, Reg};
use gsi::sim::{AnalysisGate, LaunchSpec, Simulator, SystemConfig};
use gsi::trace::TraceLevel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation made by the measuring thread,
/// delegating to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-init: reading this from inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    MEASURING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A compute-bound kernel: `iters` iterations of a dependent-ALU spin loop
/// across two warps, exercising issue, compute-data stalls, control stalls,
/// and the scheduler every cycle.
fn spin_spec(iters: u64) -> LaunchSpec {
    let mut b = ProgramBuilder::new("spin");
    b.ldi(Reg(1), iters);
    let top = b.here();
    b.subi(Reg(1), Reg(1), 1);
    b.addi(Reg(2), Reg(1), 3); // dependent op: compute-data stalls
    b.bra_nz(Reg(1), top); // taken branch: control stalls
    b.exit();
    LaunchSpec::new(b.build().unwrap(), 2, 2)
}

/// The trace level under test: `GSI_TRACE_LEVEL=off|counters` (default
/// `off`). CI runs this test at both levels — counter-mode tracing must
/// also be allocation-free in steady state.
fn trace_level() -> TraceLevel {
    match std::env::var("GSI_TRACE_LEVEL").as_deref() {
        Ok("counters") => TraceLevel::Counters,
        Ok("off") | Err(_) => TraceLevel::Off,
        Ok(other) => panic!("GSI_TRACE_LEVEL must be off|counters, got {other:?}"),
    }
}

/// Run `spec` twice on `sim`: a warm-up that grows every scratch buffer to
/// steady-state capacity, then the measured run. Returns the allocations
/// the measured run made and its cycle count.
fn warmed_allocs(sim: &mut Simulator, spec: &LaunchSpec) -> (u64, u64) {
    let warm = sim.run_kernel(spec).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let run = sim.run_kernel(spec).unwrap();
    MEASURING.with(|m| m.set(false));
    assert_eq!(warm.cycles, run.cycles, "warm-up and measured runs agree");
    (ALLOCS.load(Ordering::Relaxed) - before, run.cycles)
}

/// Allocations made by the second (scratch-warmed) execution of the kernel.
fn allocs_for(iters: u64) -> (u64, u64) {
    // Gate off: the pre-flight analyzer is a per-launch pass (never
    // per-cycle), and with the gate disabled it must cost nothing at all.
    let cfg = SystemConfig::paper().with_gpu_cores(2).with_analysis_gate(AnalysisGate::Off);
    let mut sim = Simulator::new(cfg);
    sim.set_trace_level(trace_level());
    warmed_allocs(&mut sim, &spin_spec(iters))
}

/// Like [`allocs_for`], but with block dispatch live through the whole
/// run: one SM limited to two resident blocks and an eight-block grid, so
/// slots recycle and `add_block_from` runs mid-kernel. Dispatch work is
/// per-*block* (equal across the two runs), never per-cycle — this guards
/// the regression where each dispatched block allocated a fresh warp
/// initializer `Vec` inside the cycle loop.
fn streaming_allocs_for(iters: u64) -> (u64, u64) {
    let mut cfg = SystemConfig::paper().with_gpu_cores(1).with_analysis_gate(AnalysisGate::Off);
    cfg.sm.max_blocks = 2;
    let mut sim = Simulator::new(cfg);
    sim.set_trace_level(trace_level());
    let mut b = ProgramBuilder::new("stream");
    b.ldi(Reg(1), iters);
    let top = b.here();
    b.subi(Reg(1), Reg(1), 1);
    b.bra_nz(Reg(1), top);
    b.exit();
    warmed_allocs(&mut sim, &LaunchSpec::new(b.build().unwrap(), 8, 1))
}

/// Like [`allocs_for`], but on four SMs whose warps spend most cycles
/// waiting on atomic round trips to the L2: each SM falls asleep when its
/// warps stall, is woken by the response's delivery (or its own ALU
/// timers), and is credited the slept stretch through `skip_cycles`. The
/// sleep/wake path — calendar evaluation, frozen-hazard buffer, bulk
/// crediting — must not allocate per window. Also returns the SM-cycles
/// the run slept through.
fn sleeping_allocs_for(iters: u64) -> (u64, u64, u64) {
    let cfg = SystemConfig::paper().with_gpu_cores(4).with_analysis_gate(AnalysisGate::Off);
    let mut sim = Simulator::new(cfg);
    sim.set_trace_level(trace_level());
    let mut b = ProgramBuilder::new("roundtrips");
    b.ldi(Reg(1), iters);
    let top = b.here();
    b.atom_add(Reg(3), Reg(2), Operand::Imm(1), MemSem::Relaxed);
    b.addi(Reg(4), Reg(3), 1); // waits for the response: memory-data stalls
    b.subi(Reg(1), Reg(1), 1);
    b.bra_nz(Reg(1), top);
    b.exit();
    let spec = LaunchSpec::new(b.build().unwrap(), 4, 2)
        .with_init(|w, block, _, _| w.set_uniform(2, 0x9000 + block * 64));
    let (allocs, cycles) = warmed_allocs(&mut sim, &spec);
    // Warm-up and measured run sleep alike: half the total is the latter's.
    (allocs, cycles, sim.engine_stats().core_cycles_slept / 2)
}

#[test]
fn steady_state_cycle_loop_does_not_allocate() {
    // Pre-warm libtest's channel machinery: the harness lazily initializes
    // a thread-local mpmc Context (two heap allocations) the first time the
    // test thread parks on a channel, which can land inside the measured
    // window and flake the count by +2.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    tx.send(()).unwrap();
    rx.recv().unwrap();

    let (short_allocs, short_cycles) = allocs_for(50);
    let (long_allocs, long_cycles) = allocs_for(5_000);
    assert!(
        long_cycles > short_cycles * 50,
        "the long run must dwarf the short one ({short_cycles} vs {long_cycles} cycles)"
    );
    // Identical launch/teardown work, ~100x the cycles: any per-cycle
    // allocation would separate the two counts by tens of thousands.
    assert_eq!(
        short_allocs, long_allocs,
        "allocation count must be independent of cycles simulated \
         ({short_cycles} cycles -> {short_allocs} allocs, \
         {long_cycles} cycles -> {long_allocs} allocs)"
    );

    // Same property with dispatch active throughout the run: both runs
    // dispatch the same eight blocks through two recycled slots, so their
    // (per-block) dispatch allocations match and the cycle count still
    // must not leak into the total.
    let (stream_short_allocs, stream_short_cycles) = streaming_allocs_for(50);
    let (stream_long_allocs, stream_long_cycles) = streaming_allocs_for(5_000);
    assert!(
        stream_long_cycles > stream_short_cycles * 50,
        "the long streaming run must dwarf the short one \
         ({stream_short_cycles} vs {stream_long_cycles} cycles)"
    );
    assert_eq!(
        stream_short_allocs, stream_long_allocs,
        "streaming dispatch must not allocate per cycle \
         ({stream_short_cycles} cycles -> {stream_short_allocs} allocs, \
         {stream_long_cycles} cycles -> {stream_long_allocs} allocs)"
    );

    // Same property across per-core sleep and wake: four SMs sleeping
    // through atomic round trips, ~100x the sleep windows.
    let (sleep_short_allocs, sleep_short_cycles, _) = sleeping_allocs_for(20);
    let (sleep_long_allocs, sleep_long_cycles, slept) = sleeping_allocs_for(2_000);
    assert!(
        sleep_long_cycles > sleep_short_cycles * 50,
        "the long sleeping run must dwarf the short one \
         ({sleep_short_cycles} vs {sleep_long_cycles} cycles)"
    );
    assert!(
        slept > sleep_long_cycles,
        "the SMs must spend most of the run asleep \
         (slept {slept} SM-cycles of 4 x {sleep_long_cycles})"
    );
    assert_eq!(
        sleep_short_allocs, sleep_long_allocs,
        "sleeping and waking an SM must not allocate \
         ({sleep_short_cycles} cycles -> {sleep_short_allocs} allocs, \
         {sleep_long_cycles} cycles -> {sleep_long_allocs} allocs)"
    );
}
