//! The forward-progress watchdog: a genuinely livelocked machine must be
//! caught well before the cycle budget, and the resulting
//! [`gsi::sim::ProgressReport`] must explain itself — which resource is
//! starved, which warps are stuck, what the queues look like.

#![allow(clippy::unwrap_used)] // test code asserts infallibility

use gsi::chaos::{FaultKind, FaultParams, FaultPlan};
use gsi::isa::{MemSem, Operand, ProgramBuilder, Reg};
use gsi::sim::{
    AnalysisGate, CycleEngine, LaunchSpec, ProgressReport, SimError, Simulator, SystemConfig,
    TimeoutKind,
};

/// Warp 0 tries a global load; warp 1 waits at the block barrier for it.
fn load_then_barrier_spec() -> LaunchSpec {
    let mut b = ProgramBuilder::new("livelock");
    let skip = b.label();
    b.ldi(Reg(2), 0x1000);
    // Reg(1) is preset per-warp: 0 for warp 0 (takes the load), 1 for warp 1.
    b.bra_nz(Reg(1), skip);
    b.ld_global(Reg(3), Reg(2), 0);
    b.bind(skip);
    b.bar();
    b.exit();
    LaunchSpec::new(b.build().unwrap(), 1, 2)
        .with_init(|w, _block, warp, _| w.set_uniform(1, warp as u64))
}

/// A chaos plan that permanently wedges the MSHR: every allocation attempt
/// is rejected, so warp 0's load can never issue — a true livelock.
fn wedged_mshr() -> FaultPlan {
    FaultPlan::disabled()
        .with_seed(0xDEAD)
        .with(FaultKind::MshrStall, FaultParams { per_mille: 1000, max_extra: 1 })
}

#[test]
fn watchdog_catches_livelock_and_names_the_starved_resource() {
    let cfg = SystemConfig::paper().with_gpu_cores(1).with_progress_window(20_000);
    let mut sim = Simulator::new(cfg);
    sim.set_chaos(&wedged_mshr());
    let err = sim.run_kernel(&load_then_barrier_spec()).expect_err("must livelock");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    assert_eq!(report.kind, TimeoutKind::NoForwardProgress);
    // The wedged MSHR bounces warp 0 at issue every cycle, so the
    // accumulated breakdown is dominated by MSHR-full structural stalls.
    assert_eq!(report.starved_resource(), "mshr", "\n{}", report.render());
    // Warp 1 is genuinely stuck at the barrier waiting for warp 0.
    assert!(report.stalled_warp_count() >= 1, "\n{}", report.render());
    let stuck: Vec<_> = report
        .sms
        .iter()
        .flat_map(|sm| sm.stalled_warps())
        .map(|w| (w.warp, w.stall_state()))
        .collect();
    assert!(stuck.contains(&(1, "barrier")), "warp 1 must be at the barrier: {stuck:?}");
    // The watchdog fired long before the cycle budget would have.
    assert!(report.cycles_run < SystemConfig::paper().max_cycles / 2);
    assert!(report.stalled_for >= 20_000);
}

#[test]
fn report_renders_the_machine_state() {
    let cfg = SystemConfig::paper().with_gpu_cores(1).with_progress_window(20_000);
    let mut sim = Simulator::new(cfg);
    sim.set_chaos(&wedged_mshr());
    let err = sim.run_kernel(&load_then_barrier_spec()).expect_err("must livelock");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    let text = report.render();
    assert!(text.contains("no forward progress"), "{text}");
    assert!(text.contains("starved resource: mshr"), "{text}");
    assert!(text.contains("stalled warps:"), "{text}");
    assert!(text.contains("barrier"), "{text}");
    // The per-SM table reports queue occupancy columns.
    assert!(text.contains("mshr") && text.contains("sbuf"), "{text}");
    // And the error's Display carries the summary end-to-end.
    let display = SimError::Timeout {
        cycles: report.cycles_run,
        blocks_done: report.blocks_done,
        blocks_total: report.blocks_total,
        report: report.clone(),
    }
    .to_string();
    assert!(display.contains("starved resource mshr"), "{display}");
}

#[test]
fn cycle_budget_timeouts_also_carry_a_report() {
    // No chaos: just an honest budget too small for the kernel. The
    // watchdog stays quiet (progress never stops); the budget fires.
    let mut b = ProgramBuilder::new("spin");
    b.ldi(Reg(1), 100_000);
    let top = b.here();
    b.subi(Reg(1), Reg(1), 1);
    b.bra_nz(Reg(1), top);
    b.exit();
    let mut cfg = SystemConfig::paper().with_gpu_cores(1);
    cfg.max_cycles = 10_000;
    let mut sim = Simulator::new(cfg);
    let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
    let err = sim.run_kernel(&spec).expect_err("budget too small");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    assert_eq!(report.kind, TimeoutKind::CycleBudget);
    assert!(report.cycles_run >= 10_000);
    assert!(report.render().contains("cycle budget exhausted"));
}

#[test]
fn small_progress_windows_are_honored() {
    // Regression: the watchdog used to test `now & 4095 == 0`, which
    // silently quantized any window below 4096 cycles up to the sampling
    // period (and the skip-ahead engine could jump straight over the mask
    // boundary). With an explicit next-sample cycle of `min(4096, window)`
    // a 500-cycle window must fire within window + period, not ~8192.
    let mut cfg = SystemConfig::paper().with_gpu_cores(1).with_progress_window(500);
    cfg.max_cycles = 1_000_000;
    let mut sim = Simulator::new(cfg);
    sim.set_chaos(&wedged_mshr());
    let err = sim.run_kernel(&load_then_barrier_spec()).expect_err("must livelock");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    assert_eq!(report.kind, TimeoutKind::NoForwardProgress);
    assert!(report.stalled_for >= 500, "window must elapse: {}", report.stalled_for);
    assert!(
        report.cycles_run < 4096,
        "a 500-cycle window must fire well before the old 4096-cycle \
         sampling grid: ran {} cycles",
        report.cycles_run
    );
}

#[test]
fn progress_window_zero_disables_the_watchdog() {
    // The same livelocked machine with the watchdog off runs all the way
    // to the cycle budget instead.
    let mut cfg = SystemConfig::paper().with_gpu_cores(1).with_progress_window(0);
    cfg.max_cycles = 60_000;
    let mut sim = Simulator::new(cfg);
    sim.set_chaos(&wedged_mshr());
    let err = sim.run_kernel(&load_then_barrier_spec()).expect_err("must time out");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    assert_eq!(report.kind, TimeoutKind::CycleBudget);
    assert!(report.cycles_run >= 60_000);
}

/// Run `spec` to its timeout under `engine` and return the report.
fn timeout_report(
    cfg: SystemConfig,
    engine: CycleEngine,
    plan: &FaultPlan,
    spec: &LaunchSpec,
    init: impl Fn(&mut Simulator),
) -> (Box<ProgressReport>, u64) {
    let mut sim = Simulator::new(cfg.with_cycle_engine(engine));
    sim.set_chaos(plan);
    init(&mut sim);
    let err = sim.run_kernel(spec).expect_err("must time out");
    let SimError::Timeout { report, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    (report, sim.engine_stats().core_cycles_slept)
}

/// The event engine stops ticking SMs that cannot issue, and a timeout can
/// fire while some are asleep. The report snapshots every SM's breakdown,
/// warp states and the cycles since progress, so sleepers must be credited
/// first: both timeout paths must produce the dense loop's report.
#[test]
fn timeout_reports_match_dense_when_sms_are_asleep() {
    // Watchdog path: one block on four SMs. SM 0 bounces off the wedged
    // MSHR every cycle; SMs 1-3 never get a block and sleep throughout.
    let cfg = SystemConfig::paper().with_gpu_cores(4).with_progress_window(3_000);
    let spec = load_then_barrier_spec();
    let (dense, _) = timeout_report(cfg, CycleEngine::Dense, &wedged_mshr(), &spec, |_| {});
    let (event, slept) = timeout_report(cfg, CycleEngine::Event, &wedged_mshr(), &spec, |_| {});
    assert_eq!(dense.kind, TimeoutKind::NoForwardProgress);
    assert!(slept > 3 * 3_000, "the empty SMs must have been asleep (slept {slept})");
    assert_eq!(event, dense, "watchdog reports differ:\n{}\n{}", event.render(), dense.render());

    // Budget path: a block per SM, each spinning on a lock nobody holds
    // the key to while its second warp waits at the barrier. Every SM
    // sleeps through each CAS round trip, so the budget expires with SMs
    // mid-window.
    let lock = 0x8000u64;
    let mut b = ProgramBuilder::new("spin");
    let wait = b.label();
    b.ldi(Reg(2), lock);
    b.bra_nz(Reg(1), wait);
    let spin = b.here();
    b.atom_cas(Reg(3), Reg(2), Operand::Imm(0), Operand::Imm(1), MemSem::Acquire);
    b.jmp_to(spin);
    b.bind(wait);
    b.bar();
    b.exit();
    let spec = LaunchSpec::new(b.build().unwrap(), 4, 2)
        .with_init(|w, _block, warp, _| w.set_uniform(1, warp as u64));
    let mut cfg = SystemConfig::paper().with_gpu_cores(4).with_analysis_gate(AnalysisGate::Off);
    cfg.max_cycles = 7_001;
    let held = |sim: &mut Simulator| sim.gmem_mut().write_word(lock, 1);
    let none = FaultPlan::disabled();
    let (dense, _) = timeout_report(cfg, CycleEngine::Dense, &none, &spec, held);
    let (event, slept) = timeout_report(cfg, CycleEngine::Event, &none, &spec, held);
    assert_eq!(dense.kind, TimeoutKind::CycleBudget);
    assert!(slept > 7_001, "the spinning SMs must have slept (slept {slept})");
    assert_eq!(event, dense, "budget reports differ:\n{}\n{}", event.render(), dense.render());
}
