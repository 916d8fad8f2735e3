//! Differential suite for the cycle engines: the dense per-cycle loop and
//! the event-driven skip-ahead engine must be *bit-identical*, not merely
//! statistically close. Every workload in the repertoire runs under both
//! engines and both coherence protocols, and the full [`KernelRun`] — cycle
//! count, stall breakdowns, per-SM statistics, timelines, warp profiles —
//! must compare equal. A subset re-runs with chaos fault injection armed,
//! since injected timing faults exercise machine states (wedged MSHRs,
//! stalled flushes, dropped DMA bursts) that the clean runs never reach.
//!
//! The event engine stops ticking individual SMs that cannot issue and
//! credits the slept stretch when it wakes them, so the suite also covers
//! the states that only per-core sleeping reaches: round-robin scheduling
//! (the per-cycle replay path of `skip_cycles`) and asymmetric occupancy —
//! SMs with no block at all, one busy SM among fourteen sleepers, a long
//! grid streaming through recycled block slots.
//!
//! The suite honors `GSI_TRACE_LEVEL` (the verify script runs it under
//! `counters`) and, when tracing is on, also requires the recorded counter
//! vectors to match between engines.

#![allow(clippy::unwrap_used)] // test code asserts infallibility

use gsi::chaos::FaultPlan;
use gsi::isa::{ProgramBuilder, Reg};
use gsi::mem::Protocol;
use gsi::sim::{CycleEngine, EngineStats, LaunchSpec, Simulator, SystemConfig};
use gsi::sm::SchedPolicy;
use gsi::trace::TraceLevel;
use gsi::workloads::{bfs, gemm, histogram, implicit, reduction, spmv, stencil, uts};
use std::fmt::Debug;

fn trace_level() -> TraceLevel {
    match std::env::var("GSI_TRACE_LEVEL").as_deref() {
        Ok("counters") => TraceLevel::Counters,
        Ok("full") => TraceLevel::Full,
        _ => TraceLevel::Off,
    }
}

/// Full tracing forces the dense loop under either engine setting, so only
/// below it can a test require that SMs actually slept.
fn sleeping_observable() -> bool {
    trace_level() != TraceLevel::Full
}

/// Run `work` on two simulators that differ only in cycle engine and
/// assert the results (and trace counters, if tracing) are identical.
/// Stall attribution runs on both, and its full JSON report — causal pcs,
/// per-kind counters, service sub-buckets — must also be byte-identical:
/// the skip-ahead engine credits blame without simulating the cycles.
/// Returns the event engine's own counters, so a test can require that the
/// states it is about (sleeping cores) were actually reached.
fn assert_engines_agree<R, F>(
    name: &str,
    base: SystemConfig,
    plan: &FaultPlan,
    mut work: F,
) -> EngineStats
where
    R: PartialEq + Debug,
    F: FnMut(&mut Simulator) -> R,
{
    let mut outs = Vec::new();
    let mut counts = Vec::new();
    let mut blames = Vec::new();
    let mut engine_stats = Vec::new();
    for engine in [CycleEngine::Dense, CycleEngine::Event] {
        let mut sim = Simulator::new(base.with_cycle_engine(engine));
        sim.set_trace_level(trace_level());
        sim.set_timeline_epoch(256);
        sim.set_chaos(plan);
        sim.set_blame_enabled(true);
        outs.push(work(&mut sim));
        counts.push(sim.trace().counts().to_vec());
        blames.push(sim.blame_report().to_json().to_string_pretty());
        engine_stats.push(sim.engine_stats());
    }
    assert_eq!(outs[0], outs[1], "{name}: engines disagree on results");
    assert_eq!(counts[0], counts[1], "{name}: engines disagree on trace counters");
    assert_eq!(blames[0], blames[1], "{name}: engines disagree on blame attribution");
    assert_eq!(engine_stats[0].core_cycles_slept, 0, "{name}: the dense loop never sleeps");
    // Every SM-cycle is either ticked or slept, under either engine.
    let covered = |e: &EngineStats| e.core_ticks + e.core_cycles_slept;
    assert_eq!(
        covered(&engine_stats[0]),
        covered(&engine_stats[1]),
        "{name}: ticked + slept SM-cycles differ between engines"
    );
    engine_stats[1]
}

fn base(cores: usize, protocol: Protocol) -> SystemConfig {
    SystemConfig::paper().with_gpu_cores(cores).with_protocol(protocol)
}

const PROTOCOLS: [Protocol; 2] = [Protocol::GpuCoherence, Protocol::DeNovo];

#[test]
fn uts_both_variants_agree() {
    let cfg = uts::UtsConfig::small();
    for protocol in PROTOCOLS {
        for variant in [uts::Variant::Centralized, uts::Variant::Decentralized] {
            assert_engines_agree(
                &format!("uts-{variant:?}-{protocol}"),
                base(4, protocol),
                &FaultPlan::disabled(),
                |sim| {
                    let out = uts::run(sim, &cfg, variant).unwrap();
                    (out.run, out.processed)
                },
            );
        }
    }
}

#[test]
fn implicit_all_styles_agree() {
    for protocol in PROTOCOLS {
        for style in implicit::LocalMemStyle::ALL {
            let cfg = implicit::ImplicitConfig::small(style);
            assert_engines_agree(
                &format!("implicit-{style}-{protocol}"),
                base(1, protocol).with_local_mem(style.mem_kind()),
                &FaultPlan::disabled(),
                |sim| {
                    let out = implicit::run(sim, &cfg).unwrap();
                    (out.run, out.verified_elems)
                },
            );
        }
    }
}

#[test]
fn spmv_agrees() {
    let cfg = spmv::SpmvConfig::small();
    for protocol in PROTOCOLS {
        assert_engines_agree(
            &format!("spmv-{protocol}"),
            base(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = spmv::run(sim, &cfg).unwrap();
                (out.run, out.verified_rows)
            },
        );
    }
}

#[test]
fn histogram_agrees() {
    let cfg = histogram::HistogramConfig::small();
    for protocol in PROTOCOLS {
        assert_engines_agree(
            &format!("histogram-{protocol}"),
            base(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = histogram::run(sim, &cfg).unwrap();
                (out.run, out.verified_bins)
            },
        );
    }
}

#[test]
fn stencil_both_variants_agree() {
    for protocol in PROTOCOLS {
        for variant in [stencil::StencilVariant::Tiled, stencil::StencilVariant::Global] {
            let cfg = stencil::StencilConfig::small(variant);
            assert_engines_agree(
                &format!("stencil-{variant:?}-{protocol}"),
                base(2, protocol),
                &FaultPlan::disabled(),
                |sim| {
                    let out = stencil::run(sim, &cfg).unwrap();
                    (out.run, out.verified_elems)
                },
            );
        }
    }
}

#[test]
fn reduction_agrees() {
    let cfg = reduction::ReductionConfig::small();
    for protocol in PROTOCOLS {
        assert_engines_agree(
            &format!("reduction-{protocol}"),
            base(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = reduction::run(sim, &cfg).unwrap();
                (out.run, out.total)
            },
        );
    }
}

#[test]
fn bfs_agrees_level_by_level() {
    let cfg = bfs::BfsConfig::small();
    for protocol in PROTOCOLS {
        assert_engines_agree(
            &format!("bfs-{protocol}"),
            base(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = bfs::run(sim, &cfg).unwrap();
                (out.levels, out.reached)
            },
        );
    }
}

#[test]
fn gemm_both_variants_agree() {
    for protocol in PROTOCOLS {
        for variant in [gemm::GemmVariant::Tiled, gemm::GemmVariant::Global] {
            let cfg = gemm::GemmConfig::small(variant);
            assert_engines_agree(
                &format!("gemm-{variant:?}-{protocol}"),
                base(4, protocol),
                &FaultPlan::disabled(),
                |sim| {
                    let out = gemm::run(sim, &cfg).unwrap();
                    (out.run, out.verified)
                },
            );
        }
    }
}

/// Round-robin rotates the consideration order every cycle, so a sleeping
/// SM's verdict detail fields must be replayed per slept cycle (the
/// `rounds = n` path of `skip_cycles`), and the rotation offset must land
/// where `n` dense ticks would have left it.
#[test]
fn round_robin_scheduling_agrees() {
    let rr = |cores, protocol| base(cores, protocol).with_scheduler(SchedPolicy::RoundRobin);
    let ucfg = uts::UtsConfig::small();
    let gcfg = gemm::GemmConfig::small(gemm::GemmVariant::Tiled);
    let scfg = spmv::SpmvConfig::small();
    for protocol in PROTOCOLS {
        for variant in [uts::Variant::Centralized, uts::Variant::Decentralized] {
            let stats = assert_engines_agree(
                &format!("rr-uts-{variant:?}-{protocol}"),
                rr(4, protocol),
                &FaultPlan::disabled(),
                |sim| {
                    let out = uts::run(sim, &ucfg, variant).unwrap();
                    (out.run, out.processed)
                },
            );
            assert!(
                !sleeping_observable() || stats.sleep_windows > 0,
                "rr-uts-{variant:?}-{protocol}: no SM ever slept"
            );
        }
        assert_engines_agree(
            &format!("rr-gemm-tiled-{protocol}"),
            rr(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = gemm::run(sim, &gcfg).unwrap();
                (out.run, out.verified)
            },
        );
        assert_engines_agree(
            &format!("rr-spmv-{protocol}"),
            rr(4, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = spmv::run(sim, &scfg).unwrap();
                (out.run, out.verified_rows)
            },
        );
    }
    let stats = assert_engines_agree(
        "rr-chaos-uts",
        rr(4, Protocol::DeNovo),
        &FaultPlan::all(0xC0FFEE),
        |sim| {
            let out = uts::run(sim, &ucfg, uts::Variant::Decentralized).unwrap();
            (out.run, out.processed, sim.chaos_stats().total())
        },
    );
    assert!(
        !sleeping_observable() || stats.core_cycles_slept > 0,
        "rr-chaos-uts: no SM-cycle was slept"
    );
}

/// Each warp walks `iters` dependent loads down its own line-strided
/// region, bumping every word it reads, with a block barrier in the
/// middle: memory-data, compute-data, control and synchronization stalls
/// on whichever SMs hold a block, nothing on the others.
fn pointer_walk_spec(grid_blocks: u64, warps: usize, iters: u64) -> LaunchSpec {
    let mut b = ProgramBuilder::new("walk");
    b.ldi(Reg(4), iters);
    let top = b.here();
    b.ld_global(Reg(2), Reg(1), 0);
    b.addi(Reg(2), Reg(2), 1);
    b.st_global(Reg(2), Reg(1), 0);
    b.addi(Reg(1), Reg(1), 64);
    b.subi(Reg(4), Reg(4), 1);
    b.bra_nz(Reg(4), top);
    b.bar();
    b.ld_global(Reg(3), Reg(1), 0);
    b.addi(Reg(3), Reg(3), 7);
    b.st_global(Reg(3), Reg(1), 0);
    b.exit();
    let span = (iters + 1) * 64;
    LaunchSpec::new(b.build().unwrap(), grid_blocks, warps).with_init(move |w, block, warp, _| {
        w.set_uniform(1, 0x10_0000 + (block * warps as u64 + warp as u64) * span);
    })
}

/// Asymmetric occupancy: SMs that never receive a block sleep from the
/// first cycle to the kernel-end flush, a lone busy SM must not keep the
/// others ticking, and blocks dispatched into recycled slots must wake
/// their SM before they land.
#[test]
fn asymmetric_occupancy_agrees() {
    let full = !sleeping_observable();
    for protocol in PROTOCOLS {
        // A grid smaller than the machine: 4 blocks on 15 SMs.
        let ucfg = uts::UtsConfig::small();
        let stats = assert_engines_agree(
            &format!("uts-4-blocks-on-15-sms-{protocol}"),
            base(15, protocol),
            &FaultPlan::disabled(),
            |sim| {
                let out = uts::run(sim, &ucfg, uts::Variant::Decentralized).unwrap();
                (out.run, out.processed)
            },
        );
        // The 11 empty SMs are ticked a handful of times at most.
        assert!(
            full || stats.core_cycles_slept > 2 * stats.core_ticks,
            "uts-4-blocks-on-15-sms-{protocol}: empty SMs were ticked: {stats}"
        );

        // One block on 15 SMs.
        let spec = pointer_walk_spec(1, 2, 24);
        let stats = assert_engines_agree(
            &format!("one-block-on-15-sms-{protocol}"),
            base(15, protocol),
            &FaultPlan::disabled(),
            |sim| sim.run_kernel(&spec).unwrap(),
        );
        assert!(
            full || stats.core_cycles_slept > 10 * stats.core_ticks,
            "one-block-on-15-sms-{protocol}: idle SMs were ticked: {stats}"
        );

        // A long grid streaming through 2 SMs, two resident blocks each:
        // every slot is recycled many times, so dispatch keeps finding
        // sleeping SMs.
        let spec = pointer_walk_spec(48, 2, 6);
        let mut cfg = base(2, protocol);
        cfg.sm.max_blocks = 2;
        let stats = assert_engines_agree(
            &format!("streaming-grid-{protocol}"),
            cfg,
            &FaultPlan::disabled(),
            |sim| sim.run_kernel(&spec).unwrap(),
        );
        assert!(full || stats.sleep_windows > 48, "streaming-grid-{protocol}: {stats}");
    }
}

/// Chaos-armed runs reach machine states the clean runs never do (wedged
/// MSHRs, stalled store-buffer drains, dropped DMA bursts). The engines
/// must stay identical there too — chaos decisions are keyed off per-cycle
/// machine state, so a single cycle simulated differently would diverge
/// the whole fault stream.
#[test]
fn chaos_runs_agree() {
    const SEEDS: [u64; 3] = [1, 0xC0FFEE, 0x2026_0808];
    let ucfg = uts::UtsConfig::small();
    for seed in SEEDS {
        let plan = FaultPlan::all(seed);
        assert_engines_agree(
            &format!("chaos-uts-{seed:#x}"),
            base(4, Protocol::DeNovo),
            &plan,
            |sim| {
                let out = uts::run(sim, &ucfg, uts::Variant::Decentralized).unwrap();
                (out.run, out.processed, sim.chaos_stats().total())
            },
        );
        let style = implicit::LocalMemStyle::ScratchpadDma;
        let icfg = implicit::ImplicitConfig::small(style);
        assert_engines_agree(
            &format!("chaos-implicit-{seed:#x}"),
            base(1, Protocol::GpuCoherence).with_local_mem(style.mem_kind()),
            &plan,
            |sim| {
                let out = implicit::run(sim, &icfg).unwrap();
                (out.run, out.verified_elems, sim.chaos_stats().total())
            },
        );
    }
}

/// The event engine must also agree when profiling is off entirely (the
/// overhead-measurement configuration): same cycle counts, empty
/// breakdowns on both sides.
#[test]
fn profiling_off_agrees() {
    let cfg = spmv::SpmvConfig::small();
    let mut cycles = Vec::new();
    for engine in [CycleEngine::Dense, CycleEngine::Event] {
        let mut sim = Simulator::new(base(4, Protocol::GpuCoherence).with_cycle_engine(engine));
        sim.set_profiling(false);
        let out = spmv::run(&mut sim, &cfg).unwrap();
        assert_eq!(out.run.breakdown.total_cycles(), 0);
        cycles.push(out.run.cycles);
    }
    assert_eq!(cycles[0], cycles[1], "profiling-off cycle counts diverge");
}
