//! `trace` — run the implicit microbenchmark under full tracing and export
//! every observability artifact the trace layer produces.
//!
//! ```text
//! trace [--scale small|paper] [--style scratchpad|dma|stash]
//!       [--out-dir DIR] [--quiet]
//! ```
//!
//! Writes to the output directory (default `.`):
//!
//! * `trace.json` — Chrome `trace_event` format; load it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * `trace.jsonl` — one raw event per line, for ad-hoc scripting.
//! * `trace_summary.json` — per-kind counts, latency histograms, link
//!   utilization, and the simulator self-profile.
//!
//! Unless `--quiet`, also prints the ASCII latency histograms, the NoC
//! heatmap, and the per-warp stall timelines.

use gsi_sim::{Simulator, SystemConfig};
use gsi_trace::TraceLevel;
use gsi_workloads::implicit::{self, ImplicitConfig, LocalMemStyle};

fn usage() -> ! {
    eprintln!(
        "usage: trace [--scale small|paper] [--style scratchpad|dma|stash] \
         [--out-dir DIR] [--quiet]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paper = false;
    let mut style = LocalMemStyle::Scratchpad;
    let mut out_dir = String::from(".");
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                paper = match it.next().map(String::as_str) {
                    Some("small") => false,
                    Some("paper") => true,
                    _ => usage(),
                }
            }
            "--style" => {
                style = match it.next().map(String::as_str) {
                    Some("scratchpad") => LocalMemStyle::Scratchpad,
                    Some("dma") => LocalMemStyle::ScratchpadDma,
                    Some("stash") => LocalMemStyle::Stash,
                    _ => usage(),
                }
            }
            "--out-dir" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }

    let cfg = if paper { ImplicitConfig::paper(style) } else { ImplicitConfig::small(style) };
    let sys = SystemConfig::paper().with_gpu_cores(1).with_local_mem(style.mem_kind());
    let (mesh_w, mesh_h) = (sys.mesh.width as usize, sys.mesh.height as usize);
    let mut sim = Simulator::new(sys);
    sim.set_trace_level(TraceLevel::Full);
    sim.set_self_profiling(true);

    let run = implicit::run(&mut sim, &cfg).expect("implicit completes").run;
    let trace = sim.trace();
    let events: u64 = trace.counts().iter().sum();

    if !quiet {
        println!(
            "implicit-{style}: {} cycles, {events} events traced ({} overwritten)",
            run.cycles,
            trace.dropped_events(),
        );
        // Full tracing and self-profiling force the dense loop, so this
        // reads "0 slept": the cost of observing every cycle, made visible.
        println!("engine: {}", sim.engine_stats());
        println!("{}", trace.render_histograms());
        println!("{}", trace.render_heatmap(mesh_w, mesh_h, run.cycles));
        println!("{}", trace.render_timelines());
    }

    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir).expect("create output directory");
    std::fs::write(dir.join("trace.json"), trace.chrome_trace().to_string_pretty())
        .expect("write trace.json");
    std::fs::write(dir.join("trace.jsonl"), trace.to_jsonl()).expect("write trace.jsonl");
    std::fs::write(dir.join("trace_summary.json"), trace.to_json().to_string_pretty())
        .expect("write trace_summary.json");
    println!("wrote trace.json, trace.jsonl, trace_summary.json to {out_dir}");
}
