//! `gsi-benchmark` — the host-time benchmark of the GSI simulator, the
//! `gsi-serve` service and the `gsi-shard` supervisor.
//!
//! ```text
//! gsi-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! gsi-benchmark report --out FILE [--seed N] [--seconds S]
//! gsi-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload and prints every metric by name with
//! its unit; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! measures the end-to-end metrics with the harness tracer off; `--trace
//! 1` repeats a pass with spans recorded around every call into a layer
//! and prints the per-layer metrics. See `benchmark/README.md`.

mod adapter;
mod compare;
mod inproc;
mod metrics;
mod outcome;
mod rss;
mod serve;
mod shard;
mod spans;
mod stats;

use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where a run leaves its span file and keeps its scratch directories
/// (service cache, supervisor artifacts) while it runs.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: gsi-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
         \x20      gsi-benchmark report --out FILE [--seed N] [--seconds S]\n\
         \x20      gsi-benchmark compare A.json B.json\n\
         workloads: {}",
        metrics::WORKLOADS.join(", ")
    )
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run =
        RunArgs { workload: String::new(), seed: 1, seconds: 10.0, trace: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !metrics::WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", run.workload, usage()));
    }
    Ok(run)
}

/// A scratch directory of this process under [`OUT_DIR`], removed when
/// the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        // Every path the harness uses is relative to the repository root.
        if !Path::new("benchmark/Cargo.toml").exists() {
            return Err("run the benchmark from the repository root".to_string());
        }
        let dir = Path::new(OUT_DIR).join(format!("work-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// The lowest-numbered CPU this process may run on, from the text of its
/// `/proc/self/status`.
fn first_allowed_cpu(status: &str) -> Option<usize> {
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().split([',', '-']).next()?.parse().ok()
}

/// Restrict this thread, and every process it spawns from now on, to one
/// CPU (the lowest-numbered it may run on), and note which.
///
/// The out-of-process workloads are serial chains of hand-offs between
/// mostly sleeping processes (one client, one connection, one worker), and
/// a request answered from the cache is little else than its two
/// wake-ups. The scheduler usually keeps such a chain on one CPU; now and
/// then it settles on two, every wake-up then crosses to a halted virtual
/// CPU, and the same binaries answer a cached request in 0.116 ms, not
/// 0.077 ms, for minutes on end. A benchmark cannot have two answers, so
/// it takes the usual one; sharing a CPU costs these chains nothing.
pub fn share_one_cpu(outcome: &mut Outcome) {
    outcome.notes.push(match pin_to_one_cpu() {
        Ok(cpu) => format!("harness and the processes it drives share CPU {cpu}"),
        Err(e) => format!("harness and the processes it drives are not pinned: {e}"),
    });
}

#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = first_allowed_cpu(&status).ok_or("/proc/self/status lists no allowed CPU")?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or(format!("CPU {cpu} is beyond the affinity mask"))? =
        1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the byte length passed, and
    // the call only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".to_string())
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let work = WorkDir::create(&args.workload)?;
    let spans = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", args.workload));
    let in_process = |kind| {
        if args.trace {
            inproc::run_traced(kind, args.seed, &spans)
        } else {
            inproc::run(kind, args.seed, args.seconds)
        }
    };
    match args.workload.as_str() {
        "issue-heavy" => in_process(inproc::Kind::IssueHeavy),
        "memory-heavy" => in_process(inproc::Kind::MemoryHeavy),
        "traced-runs" => in_process(inproc::Kind::TracedRuns),
        "serve-cold" => serve::run(serve::Kind::Cold, args, work.path(), &spans),
        "serve-warm" => serve::run(serve::Kind::Warm, args, work.path(), &spans),
        "shard-sweep" => shard::run(args, work.path(), &spans),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run_command(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let outcome = run_workload(&args)?;
    outcome.print_table(&args.workload, args.trace)?;
    if let Some(path) = &args.out {
        let doc = outcome.to_json(args.trace)?;
        std::fs::write(path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_line(args.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_command(&args[1..]),
        Some("report") => compare::report_command(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(_) => run_command(&args).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gsi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_allowed_cpu_is_read_from_a_status_file() {
        let status =
            |list: &str| format!("Name:\tx\nCpus_allowed:\tff\nCpus_allowed_list:\t{list}\n");
        assert_eq!(first_allowed_cpu(&status("0-1")), Some(0));
        assert_eq!(first_allowed_cpu(&status("3,5-7")), Some(3));
        assert_eq!(first_allowed_cpu(&status("12")), Some(12));
        assert_eq!(first_allowed_cpu("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_this_thread_one_cpu() {
        let cpu = pin_to_one_cpu().unwrap();
        // The thread's own status, not the process's.
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap();
        assert_eq!(list.trim(), cpu.to_string());
    }
}
