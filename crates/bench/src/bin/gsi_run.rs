//! `gsi-run` — run any workload of the suite under any system
//! configuration and inspect the GSI output: breakdown panels, per-warp
//! straggler profiles, timelines, CSV, or a full JSON report.
//!
//! ```text
//! gsi-run --workload utsd --protocol denovo --sms 15 --owned-atomics
//! gsi-run --workload spmv --scale paper --json run.json
//! gsi-run --workload implicit-stash --mshr 256 --timeline 200
//! ```

use gsi_blame::{BlameDiff, BlameReport};
use gsi_core::report::{render_timeline, Figure, Panel};
use gsi_core::{CyclePriority, StallKind};
use gsi_isa::asm::parse_program;
use gsi_mem::Protocol;
use gsi_sim::LaunchSpec;
use gsi_sim::{CycleEngine, EngineStats, KernelRun, Simulator, SystemConfig};
use gsi_sm::SchedPolicy;
use gsi_trace::TraceLevel;
use gsi_workloads::implicit::{self, ImplicitConfig, LocalMemStyle};
use gsi_workloads::uts::{self, UtsConfig, Variant};
use gsi_workloads::{bfs, gemm, histogram, reduction, spmv, stencil};

const WORKLOADS: &[&str] = &[
    "uts",
    "utsd",
    "implicit-scratchpad",
    "implicit-dma",
    "implicit-stash",
    "spmv",
    "histogram",
    "stencil-tiled",
    "stencil-global",
    "reduction",
    "bfs",
    "gemm-tiled",
    "gemm-global",
    "custom",
];

fn usage() -> ! {
    eprintln!(
        "usage: gsi-run --workload <{}>\n\
         \x20      [--sms N] [--protocol gpu|denovo] [--mshr N] [--engine event|dense]\n\
         \x20      [--scheduler gto|rr] [--priority memory|compute|control]\n\
         \x20      [--sfifo] [--owned-atomics] [--scale small|paper]\n\
         \x20      [--trace-level off|counters|full]\n\
         \x20      [--blame] [--blame-diff] [--blame-top N] [--blame-out PATH]\n\
         \x20      [--timeline EPOCH_CYCLES] [--csv PATH] [--json PATH] [--quiet]\n\
         \x20      custom kernels: --workload custom --asm FILE [--blocks N] [--warps N]\n\
         \x20      (r0 is preset to the flat thread id per lane)",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn report_json(workload: &str, config: &SystemConfig, run: &KernelRun) -> String {
    gsi_json::obj! {
        "workload" => workload,
        "config" => config,
        "run" => run,
    }
    .to_string_pretty()
}

struct Options {
    workload: String,
    sms: Option<usize>,
    protocol: Protocol,
    mshr: Option<usize>,
    scheduler: SchedPolicy,
    priority: CyclePriority,
    sfifo: bool,
    owned_atomics: bool,
    engine: CycleEngine,
    paper_scale: bool,
    timeline: u64,
    trace_level: Option<TraceLevel>,
    blame: bool,
    blame_diff: bool,
    blame_top: usize,
    blame_out: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    quiet: bool,
    asm: Option<String>,
    blocks: u64,
    warps: usize,
}

fn parse_args() -> Options {
    let mut o = Options {
        workload: String::new(),
        sms: None,
        protocol: Protocol::GpuCoherence,
        mshr: None,
        scheduler: SchedPolicy::Gto,
        priority: CyclePriority::memory_focused(),
        sfifo: false,
        owned_atomics: false,
        engine: CycleEngine::default(),
        paper_scale: false,
        timeline: 0,
        trace_level: None,
        blame: false,
        blame_diff: false,
        blame_top: 10,
        blame_out: None,
        csv: None,
        json: None,
        quiet: false,
        asm: None,
        blocks: 4,
        warps: 2,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => o.workload = next(),
            "--sms" => o.sms = Some(next().parse().unwrap_or_else(|_| usage())),
            "--protocol" => {
                o.protocol = match next().as_str() {
                    "gpu" => Protocol::GpuCoherence,
                    "denovo" => Protocol::DeNovo,
                    _ => usage(),
                }
            }
            "--mshr" => o.mshr = Some(next().parse().unwrap_or_else(|_| usage())),
            "--scheduler" => {
                o.scheduler = match next().as_str() {
                    "gto" => SchedPolicy::Gto,
                    "rr" => SchedPolicy::RoundRobin,
                    _ => usage(),
                }
            }
            "--priority" => {
                o.priority = match next().as_str() {
                    "memory" => CyclePriority::memory_focused(),
                    "compute" => CyclePriority::compute_focused(),
                    "control" => CyclePriority::control_focused(),
                    _ => usage(),
                }
            }
            "--engine" => {
                o.engine = match next().as_str() {
                    "event" => CycleEngine::Event,
                    "dense" => CycleEngine::Dense,
                    _ => usage(),
                }
            }
            "--sfifo" => o.sfifo = true,
            "--owned-atomics" => o.owned_atomics = true,
            "--scale" => {
                o.paper_scale = match next().as_str() {
                    "paper" => true,
                    "small" => false,
                    _ => usage(),
                }
            }
            "--timeline" => o.timeline = next().parse().unwrap_or_else(|_| usage()),
            // Unknown levels are a hard usage error, not a silent fallback.
            "--trace-level" => {
                o.trace_level = Some(TraceLevel::parse(&next()).unwrap_or_else(|| usage()))
            }
            "--blame" => o.blame = true,
            "--blame-diff" => o.blame_diff = true,
            "--blame-top" => o.blame_top = next().parse().unwrap_or_else(|_| usage()),
            "--blame-out" => o.blame_out = Some(next()),
            "--asm" => o.asm = Some(next()),
            "--blocks" => o.blocks = next().parse().unwrap_or_else(|_| usage()),
            "--warps" => o.warps = next().parse().unwrap_or_else(|_| usage()),
            "--csv" => o.csv = Some(next()),
            "--json" => o.json = Some(next()),
            "--quiet" => o.quiet = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        usage();
    }
    o
}

fn implicit_style(name: &str) -> LocalMemStyle {
    match name {
        "implicit-scratchpad" => LocalMemStyle::Scratchpad,
        "implicit-dma" => LocalMemStyle::ScratchpadDma,
        "implicit-stash" => LocalMemStyle::Stash,
        _ => unreachable!(),
    }
}

/// Build a simulator for the options, overriding the protocol (the blame
/// differential runs the same workload under both).
fn build_sim(o: &Options, protocol: Protocol) -> Simulator {
    let default_sms = match o.workload.as_str() {
        w if w.starts_with("implicit") => 1,
        _ => {
            if o.paper_scale {
                15
            } else {
                4
            }
        }
    };
    let mut sys = SystemConfig::paper()
        .with_gpu_cores(o.sms.unwrap_or(default_sms))
        .with_protocol(protocol)
        .with_scheduler(o.scheduler)
        .with_cycle_priority(o.priority)
        .with_sfifo(o.sfifo)
        .with_owned_atomics(o.owned_atomics)
        .with_cycle_engine(o.engine);
    if let Some(m) = o.mshr {
        if m < gsi_mem::MIN_QUEUE_ENTRIES {
            eprintln!(
                "--mshr {m} is below the architectural minimum of {} \
                 (one fully strided warp access)",
                gsi_mem::MIN_QUEUE_ENTRIES
            );
            std::process::exit(2);
        }
        sys = sys.with_mshr(m);
    }
    if o.workload.starts_with("implicit") {
        sys = sys.with_local_mem(implicit_style(&o.workload).mem_kind());
    }

    let mut sim = Simulator::new(sys);
    sim.set_timeline_epoch(o.timeline);
    if let Some(level) = o.trace_level {
        sim.set_trace_level(level);
    }
    if o.blame || o.blame_diff {
        sim.set_blame_enabled(true);
    }
    sim
}

/// Execute the selected workload on `sim`.
fn run_workload(sim: &mut Simulator, o: &Options) -> KernelRun {
    match o.workload.as_str() {
        "uts" | "utsd" => {
            let cfg = if o.paper_scale { UtsConfig::paper() } else { UtsConfig::small() };
            let variant =
                if o.workload == "uts" { Variant::Centralized } else { Variant::Decentralized };
            uts::run(&mut *sim, &cfg, variant).expect("workload completes").run
        }
        w if w.starts_with("implicit") => {
            let style = implicit_style(w);
            let cfg = if o.paper_scale {
                ImplicitConfig::paper(style)
            } else {
                ImplicitConfig::small(style)
            };
            implicit::run(&mut *sim, &cfg).expect("workload completes").run
        }
        "spmv" => {
            let cfg =
                if o.paper_scale { spmv::SpmvConfig::medium() } else { spmv::SpmvConfig::small() };
            spmv::run(&mut *sim, &cfg).expect("workload completes").run
        }
        "histogram" => {
            let cfg = if o.paper_scale {
                histogram::HistogramConfig::contended()
            } else {
                histogram::HistogramConfig::small()
            };
            histogram::run(&mut *sim, &cfg).expect("workload completes").run
        }
        "stencil-tiled" | "stencil-global" => {
            let variant = if o.workload.ends_with("tiled") {
                stencil::StencilVariant::Tiled
            } else {
                stencil::StencilVariant::Global
            };
            let cfg = if o.paper_scale {
                stencil::StencilConfig::medium(variant)
            } else {
                stencil::StencilConfig::small(variant)
            };
            stencil::run(&mut *sim, &cfg).expect("workload completes").run
        }
        "reduction" => {
            let cfg = if o.paper_scale {
                reduction::ReductionConfig::medium()
            } else {
                reduction::ReductionConfig::small()
            };
            reduction::run(&mut *sim, &cfg).expect("workload completes").run
        }
        "bfs" => {
            let cfg =
                if o.paper_scale { bfs::BfsConfig::medium() } else { bfs::BfsConfig::small() };
            let out = bfs::run(&mut *sim, &cfg).expect("workload completes");
            // Aggregate the per-level kernels into one record for display.
            let mut levels = out.levels.into_iter();
            let mut acc = levels.next().expect("at least one level");
            for r in levels {
                acc.cycles += r.cycles;
                acc.instructions += r.instructions;
                acc.breakdown.merge(&r.breakdown);
                for (a, b) in acc.per_sm.iter_mut().zip(&r.per_sm) {
                    a.merge(b);
                }
            }
            acc
        }
        "custom" => {
            let path = o.asm.as_deref().unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            let program = parse_program(&text).unwrap_or_else(|e| {
                eprintln!("parse error in {path}: {e}");
                std::process::exit(1);
            });
            let warps = o.warps;
            let spec =
                LaunchSpec::new(program, o.blocks, warps).with_init(move |w, block, warp, _ctx| {
                    w.set_per_lane(0, move |lane| {
                        block * (warps as u64 * 32) + (warp * 32 + lane) as u64
                    });
                });
            sim.run_kernel(&spec).unwrap_or_else(|e| {
                // User-supplied kernels fail for user reasons (the static
                // analyzer refused the launch, a timeout): diagnose, don't
                // panic.
                eprintln!("{path}: {e}");
                std::process::exit(1);
            })
        }
        "gemm-tiled" | "gemm-global" => {
            let variant = if o.workload.ends_with("tiled") {
                gemm::GemmVariant::Tiled
            } else {
                gemm::GemmVariant::Global
            };
            let cfg = if o.paper_scale {
                gemm::GemmConfig::medium(variant)
            } else {
                gemm::GemmConfig::small(variant)
            };
            gemm::run(&mut *sim, &cfg).expect("workload completes").run
        }
        _ => unreachable!(),
    }
}

fn main() {
    let o = parse_args();
    // The differential always compares the paper's two protocols, so the
    // base run is pinned to conventional GPU coherence.
    let base_protocol = if o.blame_diff { Protocol::GpuCoherence } else { o.protocol };
    let mut sim = build_sim(&o, base_protocol);
    let run = run_workload(&mut sim, &o);
    let blame = (o.blame || o.blame_diff).then(|| sim.blame_report());
    let diff = o.blame_diff.then(|| {
        let mut other = build_sim(&o, Protocol::DeNovo);
        let _ = run_workload(&mut other, &o);
        let base = blame.as_ref().expect("blame enabled with --blame-diff");
        BlameDiff::new("gpu", base, "denovo", &other.blame_report())
    });

    // Write exports first: a truncated stdout (e.g. piping through
    // `head`) must not lose the files.
    if let Some(path) = &o.csv {
        let fig = Figure::new("run").with_entry(o.workload.clone(), run.breakdown.clone());
        std::fs::write(path, fig.to_csv()).expect("write csv");
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report_json(&o.workload, sim.config(), &run)).expect("write json");
    }
    if let Some(path) = &o.blame_out {
        // In diff mode the differential is the artifact of interest.
        let text = match (&diff, &blame) {
            (Some(d), _) => d.to_json().to_string_pretty(),
            (None, Some(b)) => b.to_json().to_string_pretty(),
            (None, None) => {
                eprintln!("--blame-out requires --blame or --blame-diff");
                std::process::exit(2);
            }
        };
        std::fs::write(path, text).expect("write blame json");
    }
    // The artifacts above are already on disk; stdout is best-effort. A
    // reader that closes the pipe early (`gsi-run ... | head`) must end
    // the run quietly, not panic mid-print.
    if let Err(e) = print_report(&o, &run, sim.engine_stats(), blame.as_ref(), diff.as_ref()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("stdout error: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the human-readable report, propagating stdout errors instead of
/// panicking (the caller decides what a broken pipe means).
fn print_report(
    o: &Options,
    run: &KernelRun,
    engine: EngineStats,
    blame: Option<&BlameReport>,
    diff: Option<&BlameDiff>,
) -> std::io::Result<()> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if !o.quiet {
        writeln!(
            out,
            "{}: {} cycles, {} instructions on {} SM(s)",
            o.workload,
            run.cycles,
            run.instructions,
            run.per_sm.len()
        )?;
        // How the host computed it (whole run, every launch): never part
        // of the exported result.
        writeln!(out, "engine: {engine}\n")?;
        let fig = Figure::new(format!("{} stall breakdown", o.workload))
            .with_entry(o.workload.clone(), run.breakdown.clone());
        writeln!(out, "{}", fig.render_fractions(Panel::Execution, 60))?;
        if run.breakdown.mem_data_total() > 0 {
            writeln!(out, "{}", fig.render_fractions(Panel::MemData, 60))?;
        }
        if run.breakdown.mem_struct_total() > 0 {
            writeln!(out, "{}", fig.render_fractions(Panel::MemStruct, 60))?;
        }
        // Straggler view: the three warps that stalled the most.
        let mut stragglers: Vec<(usize, usize, u64)> = run
            .warp_profiles
            .iter()
            .enumerate()
            .flat_map(|(sm, ws)| {
                ws.iter().enumerate().map(move |(w, p)| {
                    (sm, w, p.total_considered() - p.classified(StallKind::NoStall))
                })
            })
            .collect();
        stragglers.sort_by_key(|&(_, _, stalled)| std::cmp::Reverse(stalled));
        if !stragglers.is_empty() {
            writeln!(out, "most-stalled warps (sm/warp: stalled considerations):")?;
            for &(sm, w, stalled) in stragglers.iter().take(3) {
                writeln!(out, "  sm{sm}/w{w}: {stalled}")?;
            }
        }
        if o.timeline > 0 {
            writeln!(out, "\ntimeline (SM 0, {}-cycle epochs):", o.timeline)?;
            writeln!(out, "|{}|", render_timeline(&run.timelines[0]))?;
        }
        if let Some(report) = blame {
            writeln!(out, "\n{}", report.render(o.blame_top))?;
        }
        if let Some(d) = diff {
            writeln!(out, "\n{}", d.render(o.blame_top))?;
        }
    }
    if let Some(path) = &o.csv {
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = &o.json {
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}
