//! The only file that names a `gsi_*` function, binary or wire field.
//!
//! Everything the benchmark knows about the program under test — how to
//! build and run a scenario in-process, what a request line and a result
//! frame look like, which flags the binaries take, how a plan expands —
//! is written down here once. The rest of the harness speaks in the
//! plain types this module exports, so a refactor of the program's
//! scenario, executor or CLI surface has one file to follow.

use crate::spans::Tracer;
use gsi_bench::merge::MergedReport;
use gsi_bench::plan::{SweepPlan, WorkUnit};
use gsi_bench::sweep::{run_sweep, Experiment};
use gsi_chaos::FaultPlan;
use gsi_core::{StallBreakdown, StallKind};
use gsi_json::{FromJson, ToJson, Value};
use gsi_serve::{prepare, Prepared, Request};
use gsi_shard::{replay, Journal, Record};
use gsi_sim::{CycleEngine, KernelRun, Simulator};
use gsi_trace::{Subsystem, TraceLevel};
use gsi_workloads::bfs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

// ---------------------------------------------------------------------
// JSON and digests
// ---------------------------------------------------------------------

/// The program's JSON value, used for the harness's own documents too.
pub type Json = Value;

pub fn parse_json(text: &str) -> Result<Json, String> {
    Value::parse(text).map_err(|e| e.to_string())
}

/// The program's content digest (FNV-1a 128, 32 hex digits).
pub fn content_digest(text: &str) -> String {
    gsi_json::fnv1a128(text)
}

/// Build a JSON object from `(key, value)` pairs.
pub fn json_object(fields: Vec<(&str, Json)>) -> Json {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn json_f64(x: f64) -> Json {
    Value::F64(x)
}

pub fn json_u64(x: u64) -> Json {
    Value::U64(x)
}

pub fn json_str(s: &str) -> Json {
    Value::Str(s.to_string())
}

pub fn json_array(items: Vec<Json>) -> Json {
    Value::Array(items)
}

pub fn json_bool(b: bool) -> Json {
    Value::Bool(b)
}

// ---------------------------------------------------------------------
// Scenarios run in-process
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    Small,
    Paper,
}

impl Scale {
    fn wire(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    fn registry(self) -> gsi_serve::Scale {
        match self {
            Scale::Small => gsi_serve::Scale::Small,
            Scale::Paper => gsi_serve::Scale::Paper,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Gpu,
    Denovo,
}

impl Protocol {
    pub fn wire(self) -> &'static str {
        match self {
            Protocol::Gpu => "gpu",
            Protocol::Denovo => "denovo",
        }
    }

    fn model(self) -> gsi_mem::Protocol {
        match self {
            Protocol::Gpu => gsi_mem::Protocol::GpuCoherence,
            Protocol::Denovo => gsi_mem::Protocol::DeNovo,
        }
    }
}

/// How the simulator is used for one op. `Plain` is the shipped default
/// (event engine, nothing attached); the others are the same simulator
/// with one observer or one alternative path switched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    /// `TraceLevel::Counters`.
    Counters,
    /// `TraceLevel::Full` (forces the dense loop today).
    Full,
    /// Stall root-cause attribution on.
    Blame,
    /// A seeded `FaultPlan` armed.
    Chaos,
    /// `CycleEngine::Dense`.
    Dense,
    /// Run to half, snapshot, encode, parse, restore, run to the end.
    Checkpoint,
    /// Self-profiling on (forces the dense loop).
    Profile,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Counters => "counters",
            Mode::Full => "full",
            Mode::Blame => "blame",
            Mode::Chaos => "chaos",
            Mode::Dense => "dense",
            Mode::Checkpoint => "checkpoint",
            Mode::Profile => "profile",
        }
    }
}

/// The chaos seed every fault-injected op uses. Fixed, not drawn from
/// `--seed`: the benchmark seed may reorder and re-key ops but never
/// change what a scenario simulates.
pub const CHAOS_SEED: u64 = 7;

/// One thing to simulate: a registry workload under a protocol, with an
/// optional MSHR override. `driver` selects the multi-kernel host loop
/// instead of the registry's single launch (only `bfs` has one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    pub workload: &'static str,
    pub protocol: Protocol,
    pub mshr: Option<usize>,
    pub driver: bool,
}

impl Scenario {
    pub fn new(workload: &'static str, protocol: Protocol) -> Self {
        Scenario { workload, protocol, mshr: None, driver: false }
    }

    pub fn mshr(mut self, entries: usize) -> Self {
        self.mshr = Some(entries);
        self
    }

    /// The multi-kernel `bfs` host loop (one launch per level).
    pub fn bfs_driver() -> Self {
        Scenario { workload: "bfs", protocol: Protocol::Gpu, mshr: None, driver: true }
    }

    pub fn name(&self) -> String {
        let mut name = format!("{}/{}", self.workload, self.protocol.wire());
        if let Some(m) = self.mshr {
            name.push_str(&format!("/mshr{m}"));
        }
        if self.driver {
            name.push_str("/driver");
        }
        name
    }
}

/// Simulated counts summed over kernel runs. These repeat exactly for a
/// fixed scenario, so two commits that differ only in speed must agree
/// on every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub instructions: u64,
    pub sm_cycles: u64,
    pub issued_cycles: u64,
    /// Aggregate breakdown in taxonomy order: no_stall, idle, control,
    /// sync, mem_data, mem_struct, comp_data, comp_struct.
    pub stall_cycles: [u64; 8],
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l1_coalesced: u64,
    pub sb_combines: u64,
    pub lines_invalidated: u64,
    pub stash_hits: u64,
    pub dma_lines: u64,
    pub l2_read_hits: u64,
    pub l2_read_misses: u64,
    pub l2_registrations: u64,
    pub l2_recalls: u64,
    pub noc_messages: u64,
    pub noc_bytes: u64,
    pub noc_hops: u64,
    pub noc_latency: u64,
    pub noc_link_queue_cycles: u64,
}

impl SimCounts {
    /// Fold in the kernels of one simulator, in launch order. L2 and mesh
    /// statistics are cumulative over a simulator's lifetime, so only the
    /// last kernel's are taken.
    fn add_runs(&mut self, runs: &[KernelRun]) {
        for run in runs {
            self.cycles += run.cycles;
            self.instructions += run.instructions;
            for s in &run.sm_stats {
                self.sm_cycles += s.cycles;
                self.issued_cycles += s.issued_cycles;
            }
            for (slot, kind) in self.stall_cycles.iter_mut().zip(StallKind::ALL) {
                *slot += run.breakdown.cycles(kind);
            }
            for m in &run.mem_stats {
                self.l1_hits += m.l1_hits;
                self.l1_misses += m.l1_misses;
                self.l1_coalesced += m.l1_coalesced;
                self.sb_combines += m.sb_combines;
                self.lines_invalidated += m.lines_invalidated;
                self.stash_hits += m.stash_hits;
                self.dma_lines += m.dma_lines;
            }
        }
        if let Some(last) = runs.last() {
            self.l2_read_hits += last.l2_stats.read_hits;
            self.l2_read_misses += last.l2_stats.read_misses;
            self.l2_registrations += last.l2_stats.registrations;
            self.l2_recalls += last.l2_stats.recalls;
            self.noc_messages += last.noc_stats.messages;
            self.noc_bytes += last.noc_stats.bytes;
            self.noc_hops += last.noc_stats.total_hops;
            self.noc_latency += last.noc_stats.total_latency;
            self.noc_link_queue_cycles += last.noc_stats.link_queue_cycles;
        }
    }

    pub fn add(&mut self, other: &SimCounts) {
        let SimCounts {
            cycles,
            instructions,
            sm_cycles,
            issued_cycles,
            stall_cycles,
            l1_hits,
            l1_misses,
            l1_coalesced,
            sb_combines,
            lines_invalidated,
            stash_hits,
            dma_lines,
            l2_read_hits,
            l2_read_misses,
            l2_registrations,
            l2_recalls,
            noc_messages,
            noc_bytes,
            noc_hops,
            noc_latency,
            noc_link_queue_cycles,
        } = other;
        self.cycles += cycles;
        self.instructions += instructions;
        self.sm_cycles += sm_cycles;
        self.issued_cycles += issued_cycles;
        for (a, b) in self.stall_cycles.iter_mut().zip(stall_cycles) {
            *a += b;
        }
        self.l1_hits += l1_hits;
        self.l1_misses += l1_misses;
        self.l1_coalesced += l1_coalesced;
        self.sb_combines += sb_combines;
        self.lines_invalidated += lines_invalidated;
        self.stash_hits += stash_hits;
        self.dma_lines += dma_lines;
        self.l2_read_hits += l2_read_hits;
        self.l2_read_misses += l2_read_misses;
        self.l2_registrations += l2_registrations;
        self.l2_recalls += l2_recalls;
        self.noc_messages += noc_messages;
        self.noc_bytes += noc_bytes;
        self.noc_hops += noc_hops;
        self.noc_latency += noc_latency;
        self.noc_link_queue_cycles += noc_link_queue_cycles;
    }
}

/// Host nanoseconds the simulator's own profiler charged to each phase
/// of its cycle loop (dense engine), with the cycles it covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopProfile {
    pub cycles: u64,
    pub mesh_deliver_ns: u64,
    pub shared_ns: u64,
    pub dispatch_ns: u64,
    pub cores_ns: u64,
    pub outbox_ns: u64,
}

impl LoopProfile {
    pub fn add(&mut self, other: &LoopProfile) {
        self.cycles += other.cycles;
        self.mesh_deliver_ns += other.mesh_deliver_ns;
        self.shared_ns += other.shared_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.cores_ns += other.cores_ns;
        self.outbox_ns += other.outbox_ns;
    }
}

/// What one in-process op produced.
#[derive(Debug, Clone, Default)]
pub struct OpOutput {
    pub counts: SimCounts,
    /// Digest and size of the encoded result document.
    pub result_digest: String,
    pub result_bytes: u64,
    /// Σ per-SM breakdowns equals the aggregate breakdown in every kernel.
    pub conserved: bool,
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub blame_rows: u64,
    pub faults_injected: u64,
    pub snapshot_bytes: u64,
    pub profile: LoopProfile,
}

struct Launch {
    workload: String,
    scale: gsi_serve::Scale,
    protocol: gsi_mem::Protocol,
    sms: Option<usize>,
    mshr: Option<usize>,
    chaos_seed: Option<u64>,
}

impl Launch {
    fn of(s: &Scenario, scale: Scale, mode: Mode) -> Launch {
        Launch {
            workload: s.workload.to_string(),
            scale: scale.registry(),
            protocol: s.protocol.model(),
            sms: None,
            mshr: s.mshr,
            chaos_seed: (mode == Mode::Chaos).then_some(CHAOS_SEED),
        }
    }

    fn prepare(&self, engine: CycleEngine) -> Result<Prepared, String> {
        prepare(&self.workload, self.scale, self.protocol, engine, self.sms, self.mshr)
    }

    /// A simulator for this launch with the mode's observers attached
    /// and global memory initialized.
    fn simulator(&self, prepared: &Prepared, mode: Mode, t: &mut Tracer) -> Simulator {
        let mut sim = t.timed("sim.new", || Simulator::new(prepared.config));
        if let Some(seed) = self.chaos_seed {
            sim.set_chaos(&FaultPlan::all(seed));
        }
        match mode {
            Mode::Counters => sim.set_trace_level(TraceLevel::Counters),
            Mode::Full => sim.set_trace_level(TraceLevel::Full),
            Mode::Blame => sim.set_blame_enabled(true),
            Mode::Profile => sim.set_self_profiling(true),
            Mode::Plain | Mode::Chaos | Mode::Dense | Mode::Checkpoint => {}
        }
        t.timed("workloads.init_memory", || prepared.init_memory(&mut sim));
        sim
    }
}

fn engine_for(mode: Mode) -> CycleEngine {
    if mode == Mode::Dense {
        CycleEngine::Dense
    } else {
        CycleEngine::default()
    }
}

fn conserved(run: &KernelRun) -> bool {
    run.per_sm.iter().sum::<StallBreakdown>() == run.breakdown
}

fn result_document(workload: &str, runs: &[KernelRun]) -> Value {
    let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
    let instructions: u64 = runs.iter().map(|r| r.instructions).sum();
    let mut doc = gsi_json::obj! {
        "workload" => workload,
        "cycles" => cycles,
        "instructions" => instructions,
    };
    match runs {
        [run] => doc.set("run", run.to_json()),
        _ => doc.set("levels", Value::Array(runs.iter().map(ToJson::to_json).collect())),
    }
    doc
}

/// Fill the observer-derived fields of `out` from a finished simulator.
fn observe(sim: &Simulator, mode: Mode, out: &mut OpOutput) {
    if matches!(mode, Mode::Counters | Mode::Full) {
        out.events_recorded = sim.trace().counts().iter().sum();
        out.events_dropped = sim.trace().dropped_events();
    }
    if mode == Mode::Blame {
        out.blame_rows = sim.blame_report().rows.len() as u64;
    }
    if mode == Mode::Chaos {
        out.faults_injected = sim.chaos_stats().total();
    }
    if mode == Mode::Profile {
        let p = sim.trace().profile();
        let ns = p.totals_nanos();
        out.profile = LoopProfile {
            cycles: p.cycles(),
            mesh_deliver_ns: ns[Subsystem::MeshDeliver.index()],
            shared_ns: ns[Subsystem::Shared.index()],
            dispatch_ns: ns[Subsystem::Dispatch.index()],
            cores_ns: ns[Subsystem::Cores.index()],
            outbox_ns: ns[Subsystem::Outbox.index()],
        };
    }
}

fn finish(workload: &str, runs: &[KernelRun], mut out: OpOutput, t: &mut Tracer) -> OpOutput {
    out.counts.add_runs(runs);
    out.conserved = runs.iter().all(conserved);
    let text = t.timed("json.result_encode", || result_document(workload, runs).to_string());
    out.result_bytes = text.len() as u64;
    out.result_digest = gsi_json::fnv1a128(&text);
    out
}

/// Run one launch start to finish: request → encoded result.
///
/// `half` is the cycle a `Mode::Checkpoint` op pauses at (ignored by the
/// other modes).
fn run_launch(l: &Launch, mode: Mode, half: u64, t: &mut Tracer) -> Result<OpOutput, String> {
    let prepared = t.timed("workloads.prepare", || l.prepare(engine_for(mode)))?;
    let mut sim = l.simulator(&prepared, mode, t);
    let spec = &prepared.spec;
    let mut out = OpOutput::default();
    t.timed("analyze.gate", || sim.begin_kernel(spec)).map_err(|e| e.to_string())?;
    let run = if mode == Mode::Checkpoint {
        let paused = t.timed("sim.run", || sim.run_until(spec, half)).map_err(|e| e.to_string())?;
        if paused.is_some() {
            return Err(format!("{} finished before the checkpoint cycle {half}", l.workload));
        }
        let snapshot = t.timed("sim.snapshot", || sim.snapshot());
        let text = t.timed("json.snapshot_encode", || snapshot.to_string());
        out.snapshot_bytes = text.len() as u64;
        let parsed = t.timed("json.snapshot_parse", || Value::parse(&text));
        let parsed = parsed.map_err(|e| format!("snapshot does not re-parse: {e}"))?;
        sim = t
            .timed("sim.restore", || Simulator::restore(&parsed, spec))
            .map_err(|e| format!("snapshot does not restore: {e}"))?;
        t.timed("sim.run", || sim.run_until(spec, u64::MAX))
    } else {
        t.timed("sim.run", || sim.run_until(spec, u64::MAX))
    };
    let run = run.map_err(|e| e.to_string())?.ok_or("an unbounded run paused")?;
    observe(&sim, mode, &mut out);
    Ok(finish(&l.workload, &[run], out, t))
}

/// Run the multi-kernel `bfs` host loop: one launch per level, the gate
/// and the drain paid per kernel.
fn run_bfs_driver(l: &Launch, mode: Mode, t: &mut Tracer) -> Result<OpOutput, String> {
    let prepared = t.timed("workloads.prepare", || l.prepare(engine_for(mode)))?;
    let cfg = match l.scale {
        gsi_serve::Scale::Paper => bfs::BfsConfig::medium(),
        gsi_serve::Scale::Small => bfs::BfsConfig::small(),
    };
    // The driver initializes memory itself; `simulator` has already done
    // the same writes once, which keeps set-up identical across modes.
    let mut sim = l.simulator(&prepared, mode, t);
    let levels = t.timed("sim.run", || bfs::run(&mut sim, &cfg)).map_err(|e| e.to_string())?.levels;
    let mut out = OpOutput::default();
    observe(&sim, mode, &mut out);
    Ok(finish(&l.workload, &levels, out, t))
}

/// Run `scenario` once under `mode`. A `Mode::Checkpoint` op pauses at
/// `half`; the `bfs` driver cannot pause between kernels, so its
/// checkpoint op runs the registry's single level-0 launch instead.
pub fn run_scenario(
    scenario: &Scenario,
    scale: Scale,
    mode: Mode,
    half: u64,
    t: &mut Tracer,
) -> Result<OpOutput, String> {
    let launch = Launch::of(scenario, scale, mode);
    if scenario.driver && mode != Mode::Checkpoint {
        run_bfs_driver(&launch, mode, t)
    } else {
        run_launch(&launch, mode, half, t)
    }
}

/// Cycles the single launch behind `scenario` takes straight through —
/// what a checkpoint op halves to find its pause cycle.
pub fn straight_cycles(scenario: &Scenario, scale: Scale) -> Result<(u64, String), String> {
    let launch = Launch::of(scenario, scale, Mode::Plain);
    let out = run_launch(&launch, Mode::Plain, 0, &mut Tracer::new(false))?;
    Ok((out.counts.cycles, out.result_digest))
}

// ---------------------------------------------------------------------
// Binaries
// ---------------------------------------------------------------------

const SERVE_BIN: &str = "gsi-serve";
pub const SHARD_BIN: &str = "gsi-shard";

/// Where the release binaries of the root workspace land.
fn release_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("release")
}

/// Paths of the two release binaries the out-of-process workloads drive.
#[derive(Debug, Clone)]
pub struct Binaries {
    pub serve: PathBuf,
    pub shard: PathBuf,
}

/// Build `gsi-serve` and `gsi-shard` from the root workspace (a no-op
/// when they are current) and locate them. Compilation is not part of
/// any metric.
pub fn build_binaries() -> Result<Binaries, String> {
    if !Path::new("crates/serve/Cargo.toml").exists() {
        return Err("run the benchmark from the repository root (crates/serve not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "gsi-serve", "-p", "gsi-shard"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {SERVE_BIN} and {SHARD_BIN} failed ({status})"));
    }
    let dir = release_dir();
    let locate = |name: &str| {
        let path = dir.join(name);
        if path.is_file() {
            // Children run with their own working directories.
            path.canonicalize().map_err(|e| format!("{}: {e}", path.display()))
        } else {
            Err(format!(
                "{name} not found under {}; the build step was skipped — run \
                 `cargo build --release -p gsi-serve -p gsi-shard` at the repository root",
                dir.display()
            ))
        }
    };
    Ok(Binaries { serve: locate(SERVE_BIN)?, shard: locate(SHARD_BIN)? })
}

/// One of the release binaries with a single malloc arena. glibc gives a
/// thread that finds the main arena busy at its first allocation an arena
/// of its own, so whether the service's two threads ever collide decides
/// between two peak resident sets 5 to 12% apart, for minutes on end; one
/// arena costs these serial request loops nothing measurable and makes
/// memory a property of the program again.
fn command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.env("MALLOC_ARENA_MAX", "1");
    cmd
}

/// The service on an ephemeral loopback port, caching in memory and,
/// given a `cache_dir`, on disk as well.
pub fn serve_command(bin: &Path, cache_dir: Option<&Path>) -> Command {
    let mut cmd = command(bin);
    cmd.args(["--listen", "127.0.0.1:0"]);
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    cmd
}

/// The address from the service's start-up announcement line.
pub fn listening_address(line: &str) -> Option<&str> {
    line.trim().strip_prefix("LISTENING ")
}

/// The supervisor over `plan` with one worker, writing artifacts and the
/// journal into `out`. One worker because two on a two-core box contend
/// with the supervisor and spread 1.0–1.3 s on the same plan.
pub fn shard_command(bin: &Path, plan: &Path, out: &Path, resume: bool) -> Command {
    let mut cmd = command(bin);
    cmd.arg("--plan").arg(plan).arg("--out").arg(out).args(["--workers", "1"]);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

/// The unit index from a supervisor progress line announcing a finished
/// unit, or `None` for any other line.
pub fn shard_unit_done(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("gsi-shard: unit ")?;
    let (index, tail) = rest.split_once(' ')?;
    tail.contains(" done: ").then(|| index.parse().ok())?
}

// ---------------------------------------------------------------------
// The serve wire
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WireOp {
    Simulate,
    Analyze,
    Blame,
    TraceSummary,
    Checkpoint,
    Resume,
}

impl WireOp {
    pub fn name(self) -> &'static str {
        match self {
            WireOp::Simulate => "simulate",
            WireOp::Analyze => "analyze",
            WireOp::Blame => "blame",
            WireOp::TraceSummary => "trace-summary",
            WireOp::Checkpoint => "checkpoint",
            WireOp::Resume => "resume",
        }
    }
}

/// One request, before it has an id. Every field but `id` is part of the
/// service's cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    pub op: WireOp,
    pub workload: &'static str,
    pub scale: Scale,
    pub protocol: Protocol,
    pub sms: Option<usize>,
    pub mshr: Option<usize>,
    pub at_cycle: Option<u64>,
    pub snapshot: Option<String>,
}

impl WireRequest {
    pub fn new(op: WireOp, workload: &'static str, scale: Scale, protocol: Protocol) -> Self {
        WireRequest {
            op,
            workload,
            scale,
            protocol,
            sms: None,
            mshr: None,
            at_cycle: None,
            snapshot: None,
        }
    }

    /// The request as one line of wire JSON (no trailing newline).
    pub fn line(&self, id: u64) -> String {
        let mut req = gsi_json::obj! {
            "id" => id,
            "op" => self.op.name(),
            "workload" => self.workload,
            "scale" => self.scale.wire(),
            "protocol" => self.protocol.wire(),
        };
        if let Some(n) = self.sms {
            req.set("sms", n);
        }
        if let Some(n) = self.mshr {
            req.set("mshr", n);
        }
        if let Some(c) = self.at_cycle {
            req.set("at_cycle", c);
        }
        if let Some(s) = &self.snapshot {
            req.set("snapshot", s.as_str());
        }
        req.to_string()
    }

    /// The scenario a `simulate` request runs, for in-process comparison.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            workload: self.workload,
            protocol: self.protocol,
            mshr: self.mshr,
            driver: false,
        }
    }

    /// Run the same launch in-process (registry → simulator → encoded
    /// result), bypassing the service entirely.
    pub fn run_in_process(&self, t: &mut Tracer) -> Result<OpOutput, String> {
        let mut launch = Launch::of(&self.scenario(), self.scale, Mode::Plain);
        launch.sms = self.sms;
        run_launch(&launch, Mode::Plain, 0, t)
    }
}

pub const SHUTDOWN_LINE: &str = r#"{"op":"shutdown"}"#;

/// The `event` of a frame, read from its fixed-order prefix
/// (`{"id":N,"event":"..."`) without parsing the payload.
pub fn frame_event(line: &str) -> Option<&str> {
    let head = &line[..line.len().min(64)];
    let start = head.find("\"event\":\"")? + 9;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// A request's last frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal<'a> {
    /// A `result` frame: whether it came from the cache, and the exact
    /// bytes of its `result` member.
    Result { cached: bool, result: &'a str },
    /// An `error` frame with its message.
    Error(String),
}

/// Classify a frame: `None` for `dispatched`/`running`/`progress`.
pub fn terminal_frame(line: &str) -> Option<Terminal<'_>> {
    match frame_event(line)? {
        "result" => {
            // {"id":N,"event":"result","cached":B,"digest":"<hex>","result":R}
            let at = line.find(",\"result\":")? + 10;
            let result = line.get(at..line.len().checked_sub(1)?)?;
            let cached = line[..at].contains("\"cached\":true");
            Some(Terminal::Result { cached, result })
        }
        "error" => {
            let message = Value::parse(line)
                .ok()
                .and_then(|v| v.get("message").and_then(Value::as_str).map(str::to_string))
                .unwrap_or_else(|| line.to_string());
            Some(Terminal::Error(message))
        }
        _ => None,
    }
}

/// What the harness reads out of a `result` payload.
#[derive(Debug, Clone, Default)]
pub struct ResultSummary {
    pub cycles: u64,
    pub instructions: u64,
    /// Digest a `checkpoint` result hands back for `resume`.
    pub snapshot: Option<String>,
    /// Simulated counts, when the payload carries a kernel run.
    pub counts: Option<SimCounts>,
}

/// Parse a `result` payload. `with_counts` also decodes the embedded
/// kernel run (only the traced run pays for that).
pub fn result_summary(result: &str, with_counts: bool) -> Result<ResultSummary, String> {
    let v = Value::parse(result).map_err(|e| format!("result does not parse: {e}"))?;
    let mut summary = ResultSummary {
        cycles: v.get("cycles").and_then(Value::as_u64).unwrap_or(0),
        instructions: v.get("instructions").and_then(Value::as_u64).unwrap_or(0),
        snapshot: v.get("snapshot").and_then(Value::as_str).map(str::to_string),
        counts: None,
    };
    if with_counts {
        if let Some(run) = v.get("run") {
            let run = KernelRun::from_json(run).map_err(|e| format!("bad kernel run: {e}"))?;
            if !conserved(&run) {
                return Err("per-SM breakdowns do not sum to the aggregate".to_string());
            }
            let mut counts = SimCounts::default();
            counts.add_runs(&[run]);
            summary.counts = Some(counts);
        }
    }
    Ok(summary)
}

/// Mean time in microseconds to parse `line` as a request, the way the
/// service does on arrival.
pub fn request_parse_us(lines: &[String]) -> Result<f64, String> {
    let start = Instant::now();
    for line in lines {
        std::hint::black_box(Request::parse(std::hint::black_box(line))?);
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64)
}

/// Time to parse `text` as JSON, in microseconds.
pub fn json_parse_us(text: &str) -> f64 {
    let start = Instant::now();
    let _ = std::hint::black_box(Value::parse(std::hint::black_box(text)));
    start.elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------
// Plans, units, merge and journal
// ---------------------------------------------------------------------

/// A parsed sweep plan with its expanded units.
pub struct Plan {
    plan: SweepPlan,
    units: Vec<WorkUnit>,
}

/// One finished unit as the supervisor's row artifact records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRow {
    pub name: String,
    pub ok: bool,
    pub cycles: u64,
    pub instructions: u64,
}

impl Plan {
    /// Parse a plan document and expand its units.
    pub fn parse(text: &str) -> Result<Plan, String> {
        let plan = SweepPlan::parse(text).map_err(|e| format!("plan: {e}"))?;
        let units = plan.units();
        Ok(Plan { plan, units })
    }

    /// Every workload of the plan once (first protocol, MSHR size and
    /// chaos seed): the warm-up plan.
    pub fn one_unit_per_workload(&self) -> Plan {
        let mut plan = self.plan.clone();
        plan.name = format!("{}-warm-up", plan.name);
        plan.protocols.truncate(1);
        plan.mshrs.truncate(1);
        plan.sms.truncate(1);
        plan.engines.truncate(1);
        plan.seeds.truncate(1);
        let units = plan.units();
        Plan { plan, units }
    }

    /// The plan's first unit: the spawn probe.
    pub fn single_unit(&self) -> Plan {
        let mut one = self.one_unit_per_workload();
        one.plan.name = format!("{}-one-unit", self.plan.name);
        one.plan.workloads.truncate(1);
        one.units = one.plan.units();
        one
    }

    pub fn text(&self) -> String {
        self.plan.to_json().to_string_pretty()
    }

    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Microseconds to parse the plan document and expand its units.
    pub fn expand_us(&self) -> Result<f64, String> {
        let text = self.text();
        let start = Instant::now();
        let plan = SweepPlan::parse(std::hint::black_box(&text)).map_err(|e| e.to_string())?;
        std::hint::black_box(plan.units());
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }

    /// Run every unit in-process, in plan order, the way a worker would
    /// (registry → simulator → result), and reduce each to its row.
    pub fn run_in_process(&self) -> Result<(Vec<UnitRow>, SimCounts), String> {
        let mut rows = Vec::with_capacity(self.units.len());
        let mut counts = SimCounts::default();
        let mut t = Tracer::new(false);
        for unit in &self.units {
            let out = run_launch(&unit_launch(unit)?, Mode::Plain, 0, &mut t)?;
            rows.push(UnitRow {
                name: unit.name.clone(),
                ok: true,
                cycles: out.counts.cycles,
                instructions: out.counts.instructions,
            });
            counts.add(&out.counts);
        }
        Ok((rows, counts))
    }

    /// Units per second through the in-process sweep executor on one
    /// thread — the other way this repository runs a batch.
    pub fn sweep_units_per_s(&self) -> Result<f64, String> {
        let experiments = self
            .units
            .iter()
            .map(|unit| {
                let launch = unit_launch(unit)?;
                Ok(Experiment::new(unit.name.clone(), move || {
                    let prepared = launch.prepare(CycleEngine::default()).expect("valid plan unit");
                    let mut sim = Simulator::new(prepared.config);
                    if let Some(seed) = launch.chaos_seed {
                        sim.set_chaos(&FaultPlan::all(seed));
                    }
                    prepared.init_memory(&mut sim);
                    sim.run_kernel(&prepared.spec)
                }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let outcome = run_sweep(experiments, 1);
        if outcome.failed() > 0 {
            return Err(format!("{} in-process sweep units failed", outcome.failed()));
        }
        Ok(self.units.len() as f64 / outcome.wall.as_secs_f64())
    }

    /// Median microseconds to fold one journaled unit into the merged
    /// report and re-render both artifacts, as the supervisor does after
    /// every unit.
    pub fn merge_insert_us(&self, journal: &[u8]) -> Result<Vec<f64>, String> {
        let replayed = replay(journal).map_err(|e| e.to_string())?;
        let mut merged = MergedReport::new(&self.plan);
        let mut samples = Vec::new();
        for record in replayed.outcomes {
            if let Record::Ok(result) = record {
                let start = Instant::now();
                merged.insert(result);
                std::hint::black_box(merged.rows_json());
                std::hint::black_box(merged.figures_text());
                samples.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(samples)
    }

    /// Re-journal the outcomes of a finished journal into `path`, timing
    /// each durable append; returns the per-append microseconds.
    pub fn journal_append_us(&self, journal: &[u8], path: &Path) -> Result<Vec<f64>, String> {
        let replayed = replay(journal).map_err(|e| e.to_string())?;
        let mut out = Journal::create(path, &self.plan).map_err(|e| e.to_string())?;
        let mut samples = Vec::with_capacity(replayed.outcomes.len());
        for record in &replayed.outcomes {
            let start = Instant::now();
            out.append(record).map_err(|e| e.to_string())?;
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(samples)
    }
}

/// Milliseconds to replay a journal's bytes into its valid prefix, and
/// the number of outcomes found.
pub fn journal_replay_ms(journal: &[u8]) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let replayed = replay(std::hint::black_box(journal)).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64() * 1e3, replayed.outcomes.len()))
}

fn unit_launch(unit: &WorkUnit) -> Result<Launch, String> {
    let req = Request::parse(&unit.request_line(unit.index as u64))?;
    Ok(Launch {
        workload: req.workload,
        scale: req.scale,
        protocol: req.protocol,
        sms: req.sms,
        mshr: req.mshr,
        chaos_seed: req.seed,
    })
}

/// The rows of a supervisor `rows.json` artifact, in unit order.
pub fn shard_rows(rows_json: &str) -> Result<Vec<UnitRow>, String> {
    let doc = Value::parse(rows_json).map_err(|e| format!("rows.json: {e}"))?;
    let rows = doc.get("rows").and_then(Value::as_array).ok_or("rows.json has no rows")?;
    Ok(rows
        .iter()
        .map(|r| UnitRow {
            name: r.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
            ok: r.get("status").and_then(Value::as_str) == Some("ok"),
            cycles: r.get("cycles").and_then(Value::as_u64).unwrap_or(0),
            instructions: r.get("instructions").and_then(Value::as_u64).unwrap_or(0),
        })
        .collect())
}

/// The operational story of one supervisor run, from `manifest.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardManifest {
    pub complete: bool,
    pub total_units: u64,
    pub failed_units: u64,
    pub resumed_units: u64,
    pub workers_spawned: u64,
    /// Attempts beyond the first, summed over units.
    pub retries: u64,
}

pub fn shard_manifest(manifest_json: &str) -> Result<ShardManifest, String> {
    let doc = Value::parse(manifest_json).map_err(|e| format!("manifest.json: {e}"))?;
    let number = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
    let retries = doc
        .get("attempts")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_u64).map(|n| n.saturating_sub(1)).sum())
        .unwrap_or(0);
    Ok(ShardManifest {
        complete: doc.get("status").and_then(Value::as_str) == Some("complete"),
        total_units: number("total_units"),
        failed_units: number("failed_units"),
        resumed_units: number("resumed_units"),
        workers_spawned: number("workers_spawned"),
        retries,
    })
}

/// File names the supervisor writes into its `--out` directory.
pub const SHARD_ROWS_FILE: &str = "rows.json";
pub const SHARD_MANIFEST_FILE: &str = "manifest.json";
pub const SHARD_JOURNAL_FILE: &str = "journal.jsonl";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_classified_from_their_prefix() {
        let hit = r#"{"id":4,"event":"result","cached":true,"digest":"ab12","result":{"cycles":9,"run":{"event":"result"}}}"#;
        assert_eq!(frame_event(hit), Some("result"));
        assert_eq!(
            terminal_frame(hit),
            Some(Terminal::Result {
                cached: true,
                result: r#"{"cycles":9,"run":{"event":"result"}}"#
            })
        );
        assert_eq!(terminal_frame(r#"{"id":4,"event":"progress","percent":50}"#), None);
        assert_eq!(
            terminal_frame(r#"{"id":4,"event":"error","message":"unknown workload"}"#),
            Some(Terminal::Error("unknown workload".to_string()))
        );
        assert_eq!(listening_address("LISTENING 127.0.0.1:4242\n"), Some("127.0.0.1:4242"));
        assert_eq!(shard_unit_done("gsi-shard: unit 17 (spmv/gpu) done: 1234 cycles"), Some(17));
        assert_eq!(shard_unit_done("gsi-shard: plan p (200 units, 0 already journaled)"), None);
    }

    #[test]
    fn a_request_line_is_what_the_service_parses() {
        let mut req = WireRequest::new(WireOp::Checkpoint, "spmv", Scale::Small, Protocol::Denovo);
        req.mshr = Some(64);
        req.at_cycle = Some(500);
        let parsed = Request::parse(&req.line(9)).unwrap();
        assert_eq!(parsed.id, 9);
        assert_eq!(parsed.workload, "spmv");
        assert_eq!(parsed.mshr, Some(64));
        assert_eq!(parsed.at_cycle, 500);
    }

    #[test]
    fn a_small_scenario_runs_and_conserves_cycles() {
        let s = Scenario::new("spmv", Protocol::Gpu);
        let mut t = Tracer::new(true);
        let plain = run_scenario(&s, Scale::Small, Mode::Plain, 0, &mut t).unwrap();
        assert!(plain.conserved && plain.counts.cycles > 0);
        assert!(t.spans().iter().any(|s| s.name == "sim.run"));
        let half = plain.counts.cycles / 2;
        let resumed = run_scenario(&s, Scale::Small, Mode::Checkpoint, half, &mut t).unwrap();
        assert_eq!(resumed.result_digest, plain.result_digest);
        assert!(resumed.snapshot_bytes > 0);
    }
}
