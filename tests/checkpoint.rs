//! Checkpoint/restore equivalence: pausing a kernel mid-flight,
//! serializing the whole machine to gsi-json, rebuilding it from the text,
//! and running to completion must be *bit-identical* to an uninterrupted
//! run — cycle counts, stall breakdowns, per-SM statistics, timelines,
//! warp profiles, and the full blame report. Every workload runs the
//! round trip under both coherence protocols and both cycle engines, and
//! a chaos-armed subset checks that the per-component fault streams
//! survive the trip too.
//!
//! The snapshot encoding is canonical: snapshotting the same state twice,
//! or snapshotting a just-restored machine, yields byte-identical JSON.

#![allow(clippy::unwrap_used)] // test code asserts infallibility

use gsi::chaos::FaultPlan;
use gsi::json::Value;
use gsi::mem::Protocol;
use gsi::sim::{CycleEngine, LaunchSpec, Simulator, SystemConfig};
use gsi::workloads::{bfs, gemm, histogram, implicit, reduction, spmv, stencil, uts};

const PROTOCOLS: [Protocol; 2] = [Protocol::GpuCoherence, Protocol::DeNovo];
const ENGINES: [CycleEngine; 2] = [CycleEngine::Dense, CycleEngine::Event];

fn base(cores: usize, protocol: Protocol) -> SystemConfig {
    SystemConfig::paper().with_gpu_cores(cores).with_protocol(protocol)
}

/// Run `spec` straight through, then again pausing at the halfway cycle,
/// snapshotting, round-tripping the snapshot through its text encoding,
/// restoring a third machine from it, and finishing both the paused and
/// the restored machines. All three `KernelRun`s and blame reports must be
/// identical.
fn assert_checkpoint_roundtrip(
    name: &str,
    cfg: SystemConfig,
    plan: &FaultPlan,
    spec: &LaunchSpec,
    init: &dyn Fn(&mut Simulator),
) {
    let build = |cfg: SystemConfig| {
        let mut sim = Simulator::new(cfg);
        sim.set_timeline_epoch(256);
        sim.set_chaos(plan);
        sim.set_blame_enabled(true);
        init(&mut sim);
        sim
    };

    let mut straight = build(cfg);
    let run_straight = straight.run_kernel(spec).unwrap();
    let blame_straight = straight.blame_report().to_json().to_string();

    let mut paused = build(cfg);
    paused.begin_kernel(spec).unwrap();
    let mid = (run_straight.cycles / 2).max(1);
    assert!(
        paused.run_until(spec, mid).unwrap().is_none(),
        "{name}: kernel finished before the pause point"
    );
    assert!(paused.kernel_in_progress());

    // Canonical encoding: re-snapshotting unchanged state is byte-stable.
    let snap = paused.snapshot();
    let text = snap.to_string();
    assert_eq!(text, paused.snapshot().to_string(), "{name}: snapshot not canonical");

    // Restore from the parsed *text*, proving the on-disk form suffices.
    let parsed = Value::parse(&text).unwrap();
    let mut restored = Simulator::restore(&parsed, spec).unwrap();
    assert_eq!(
        restored.snapshot().to_string(),
        text,
        "{name}: restored machine re-snapshots differently"
    );
    assert!(restored.kernel_in_progress());

    let run_restored = restored.run_until(spec, u64::MAX).unwrap().unwrap();
    let run_paused = paused.run_until(spec, u64::MAX).unwrap().unwrap();
    assert_eq!(run_straight, run_paused, "{name}: pause/resume diverged");
    assert_eq!(run_straight, run_restored, "{name}: snapshot/restore diverged");
    assert_eq!(
        blame_straight,
        paused.blame_report().to_json().to_string(),
        "{name}: paused blame diverged"
    );
    assert_eq!(
        blame_straight,
        restored.blame_report().to_json().to_string(),
        "{name}: restored blame diverged"
    );
}

/// The full protocol × engine matrix for one workload launch.
fn matrix(name: &str, cores: usize, spec: &LaunchSpec, init: &dyn Fn(&mut Simulator)) {
    for protocol in PROTOCOLS {
        for engine in ENGINES {
            assert_checkpoint_roundtrip(
                &format!("{name}-{protocol}-{engine:?}"),
                base(cores, protocol).with_cycle_engine(engine),
                &FaultPlan::disabled(),
                spec,
                init,
            );
        }
    }
}

#[test]
fn spmv_checkpoints() {
    let cfg = spmv::SpmvConfig::small();
    let lay = spmv::SpmvLayout::new(&cfg);
    let spec = spmv::launch_spec(&cfg, lay);
    matrix("spmv", 4, &spec, &move |sim| spmv::init_memory(sim, &cfg, &lay));
}

#[test]
fn histogram_checkpoints() {
    let cfg = histogram::HistogramConfig::small();
    let lay = histogram::HistogramLayout::new(&cfg);
    let spec = histogram::launch_spec(&cfg, lay);
    matrix("histogram", 4, &spec, &move |sim| histogram::init_memory(sim, &cfg, &lay));
}

#[test]
fn reduction_checkpoints() {
    let cfg = reduction::ReductionConfig::small();
    let lay = reduction::ReductionLayout::new(&cfg);
    let spec = reduction::launch_spec(&cfg, lay);
    matrix("reduction", 4, &spec, &move |sim| reduction::init_memory(sim, &cfg, &lay));
}

#[test]
fn bfs_level_checkpoints() {
    let cfg = bfs::BfsConfig::small();
    let lay = bfs::BfsLayout::new(&cfg);
    let spec = bfs::launch_spec(&cfg, &lay, 0);
    matrix("bfs-l0", 4, &spec, &move |sim| bfs::init_memory(sim, &cfg, &lay));
}

#[test]
fn gemm_both_variants_checkpoint() {
    for variant in [gemm::GemmVariant::Tiled, gemm::GemmVariant::Global] {
        let cfg = gemm::GemmConfig::small(variant);
        let lay = gemm::GemmLayout::new(&cfg);
        let spec = gemm::launch_spec(&cfg, lay);
        matrix(&format!("gemm-{variant:?}"), 4, &spec, &move |sim| {
            gemm::init_memory(sim, &cfg, &lay)
        });
    }
}

#[test]
fn stencil_both_variants_checkpoint() {
    for variant in [stencil::StencilVariant::Tiled, stencil::StencilVariant::Global] {
        let cfg = stencil::StencilConfig::small(variant);
        let lay = stencil::StencilLayout::new(&cfg);
        let spec = stencil::launch_spec(&cfg, lay);
        matrix(&format!("stencil-{variant:?}"), 2, &spec, &move |sim| {
            stencil::init_memory(sim, &cfg, &lay)
        });
    }
}

#[test]
fn uts_both_variants_checkpoint() {
    let cfg = uts::UtsConfig::small();
    for variant in [uts::Variant::Centralized, uts::Variant::Decentralized] {
        let lay = uts::UtsLayout::new(&cfg);
        let spec = uts::launch_spec(&cfg, lay, variant);
        matrix(&format!("uts-{variant:?}"), 4, &spec, &move |sim| {
            uts::init_memory(sim, &cfg, &lay)
        });
    }
}

#[test]
fn implicit_all_styles_checkpoint() {
    for style in implicit::LocalMemStyle::ALL {
        let cfg = implicit::ImplicitConfig::small(style);
        let spec = implicit::launch_spec(&cfg);
        for protocol in PROTOCOLS {
            for engine in ENGINES {
                assert_checkpoint_roundtrip(
                    &format!("implicit-{style}-{protocol}-{engine:?}"),
                    base(1, protocol).with_local_mem(style.mem_kind()).with_cycle_engine(engine),
                    &FaultPlan::disabled(),
                    &spec,
                    &move |sim| implicit::init_memory(sim, &cfg),
                );
            }
        }
    }
}

/// Chaos-armed machines must round-trip too: the per-component fault
/// streams (their splitmix states and injected counters) are part of the
/// snapshot, so a restored machine injects the *same remaining* faults an
/// uninterrupted one would.
#[test]
fn chaos_armed_machines_checkpoint() {
    let cfg = uts::UtsConfig::small();
    for seed in [1u64, 0xC0FFEE] {
        let plan = FaultPlan::all(seed);
        let lay = uts::UtsLayout::new(&cfg);
        let spec = uts::launch_spec(&cfg, lay, uts::Variant::Decentralized);
        for engine in ENGINES {
            assert_checkpoint_roundtrip(
                &format!("chaos-uts-{seed:#x}-{engine:?}"),
                base(4, Protocol::DeNovo).with_cycle_engine(engine),
                &plan,
                &spec,
                &move |sim| uts::init_memory(sim, &cfg, &lay),
            );
        }
    }
}

/// Pausing must be invisible wherever it lands relative to the event
/// engine's per-core sleep windows. Over a 200-cycle span of UTSD (SMs
/// sleeping on lock round trips, a few cycles at a time), cut `run_until`
/// at every cycle two ways — one machine stepped a cycle at a time, and a
/// fresh restore of the span's first snapshot run straight to the cut, so
/// the cut lands inside whatever windows are open there — and require the
/// snapshot bytes at every cut to equal the dense engine's (the recorded
/// `cycle_engine` config field aside).
#[test]
fn every_cut_through_sleep_windows_matches_dense() {
    const SPAN: u64 = 200;
    let cfg = uts::UtsConfig::small();
    let lay = uts::UtsLayout::new(&cfg);
    let spec = uts::launch_spec(&cfg, lay, uts::Variant::Decentralized);
    let launch = |engine| {
        let mut sim = Simulator::new(base(4, Protocol::DeNovo).with_cycle_engine(engine));
        sim.set_timeline_epoch(64);
        sim.set_blame_enabled(true);
        uts::init_memory(&mut sim, &cfg, &lay);
        sim.begin_kernel(&spec).unwrap();
        sim
    };
    let as_event = |dense: &Simulator| {
        dense.snapshot().to_string().replacen(
            "\"cycle_engine\":\"Dense\"",
            "\"cycle_engine\":\"Event\"",
            1,
        )
    };

    let mut dense = launch(CycleEngine::Dense);
    let mut stepped = launch(CycleEngine::Event);
    let from = 300;
    assert!(dense.run_until(&spec, from).unwrap().is_none(), "kernel ended before the span");
    assert!(stepped.run_until(&spec, from).unwrap().is_none());
    let origin = stepped.snapshot();
    assert_eq!(origin.to_string(), as_event(&dense), "cut {from}: span start differs");

    let mut slept_mid_window = 0;
    for cut in from + 1..=from + SPAN {
        assert!(dense.run_until(&spec, cut).unwrap().is_none(), "kernel ended inside the span");
        let want = as_event(&dense);

        assert!(stepped.run_until(&spec, cut).unwrap().is_none());
        assert_eq!(stepped.snapshot().to_string(), want, "cut {cut}: stepped machine differs");

        let mut jumped = Simulator::restore(&origin, &spec).unwrap();
        assert!(jumped.run_until(&spec, cut).unwrap().is_none());
        assert_eq!(jumped.snapshot().to_string(), want, "cut {cut}: straight run differs");
        slept_mid_window = slept_mid_window.max(jumped.engine_stats().core_cycles_slept);
    }
    assert!(
        slept_mid_window > SPAN,
        "the span must contain sleep windows (slept {slept_mid_window} SM-cycles)"
    );

    // And the paused machines finish exactly like the dense one.
    let want = dense.run_until(&spec, u64::MAX).unwrap().unwrap();
    assert_eq!(stepped.run_until(&spec, u64::MAX).unwrap().unwrap(), want);
}

/// Restore refuses a snapshot whose recorded program does not match the
/// launch spec it is being resumed with.
#[test]
fn restore_rejects_wrong_program() {
    let cfg = spmv::SpmvConfig::small();
    let lay = spmv::SpmvLayout::new(&cfg);
    let spec = spmv::launch_spec(&cfg, lay);
    let mut sim = Simulator::new(base(4, Protocol::GpuCoherence));
    spmv::init_memory(&mut sim, &cfg, &lay);
    sim.begin_kernel(&spec).unwrap();
    assert!(sim.run_until(&spec, 8).unwrap().is_none());
    let snap = sim.snapshot();

    let other_cfg = reduction::ReductionConfig::small();
    let other = reduction::launch_spec(&other_cfg, reduction::ReductionLayout::new(&other_cfg));
    let err = Simulator::restore(&snap, &other).unwrap_err();
    assert!(err.to_string().contains("does not match"), "unexpected error: {err}");
}

/// Restore refuses an unknown checkpoint format version.
#[test]
fn restore_rejects_unknown_format() {
    let cfg = spmv::SpmvConfig::small();
    let lay = spmv::SpmvLayout::new(&cfg);
    let spec = spmv::launch_spec(&cfg, lay);
    let mut sim = Simulator::new(base(4, Protocol::GpuCoherence));
    spmv::init_memory(&mut sim, &cfg, &lay);
    sim.begin_kernel(&spec).unwrap();
    assert!(sim.run_until(&spec, 8).unwrap().is_none());
    let text = sim.snapshot().to_string().replacen("\"format\":1", "\"format\":999", 1);
    let err = Simulator::restore(&Value::parse(&text).unwrap(), &spec).unwrap_err();
    assert!(err.to_string().contains("format"), "unexpected error: {err}");
}

/// A snapshot taken *between* kernels restores into a machine that runs
/// the next kernel identically (warm-started sweeps: simulate a prefix
/// workload once, fork the machine per configuration of the next).
#[test]
fn between_kernel_snapshots_warm_start() {
    let cfg = spmv::SpmvConfig::small();
    let lay = spmv::SpmvLayout::new(&cfg);
    let spec = spmv::launch_spec(&cfg, lay);

    let mut warm = Simulator::new(base(4, Protocol::GpuCoherence));
    spmv::init_memory(&mut warm, &cfg, &lay);
    warm.run_kernel(&spec).unwrap();
    let second_direct = warm.run_kernel(&spec).unwrap();

    let mut warm2 = Simulator::new(base(4, Protocol::GpuCoherence));
    spmv::init_memory(&mut warm2, &cfg, &lay);
    warm2.run_kernel(&spec).unwrap();
    let snap = warm2.snapshot();
    assert!(!warm2.kernel_in_progress());
    let mut forked = Simulator::restore(&snap, &spec).unwrap();
    let second_forked = forked.run_kernel(&spec).unwrap();
    assert_eq!(second_direct, second_forked, "warm-started run diverged");
}
