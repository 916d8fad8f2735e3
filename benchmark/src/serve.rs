//! The two service workloads: a real `gsi-serve` child driven over TCP by
//! one closed-loop client on one connection.
//!
//! A request's latency runs from the moment its line is written to the
//! moment its terminal frame (`result` or `error`) has been read. The
//! client sends the next request as soon as it has checked the previous
//! reply, and a pass's wall is the sum of its latencies, so the client's
//! own bookkeeping is not charged to the service.

use crate::adapter::{
    content_digest, frame_event, json_parse_us, listening_address, request_parse_us,
    result_summary, serve_command, straight_cycles, terminal_frame, Binaries, Protocol,
    ResultSummary, Scale, SimCounts, Terminal, WireOp, WireRequest, SHUTDOWN_LINE,
};
use crate::inproc::set_count_metrics;
use crate::outcome::{another_pass, repeat_set_up, Outcome, ScenarioRow};
use crate::rss;
use crate::spans::Tracer;
use crate::stats::{self, Rng, Zipf};
use crate::{dir_bytes, RunArgs};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request has a key the service has never seen.
    Cold,
    /// Every request hits the cache; no simulation runs.
    Warm,
}

const WORKLOADS: [&str; 13] = [
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
];
const PROTOCOLS: [Protocol; 2] = [Protocol::Gpu, Protocol::Denovo];

/// Cycle a paper-scale `utsd` checkpoint pauses at: well inside the run,
/// so the snapshot carries a full machine.
const PAPER_CHECKPOINT_CYCLE: u64 = 32_000;

/// Requests of one warm pass, drawn Zipf(1.0) over the primed keys.
const WARM_PASS_REQUESTS: usize = 4000;
/// Keys primed for the warm workload.
const WARM_KEYS: usize = 200;
/// Cold keys re-requested after each pass to check the cached bytes.
const CACHE_PROBES: usize = 10;

// ---------------------------------------------------------------------
// The service child and its one client connection
// ---------------------------------------------------------------------

struct Server {
    child: Child,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// One request's reply as the client saw it.
struct Reply {
    latency_ms: f64,
    first_frame_ms: f64,
    frames: u32,
    bytes: usize,
    /// The terminal frame.
    line: String,
}

impl Server {
    fn start(bin: &Path, cache_dir: Option<&Path>) -> Result<Server, String> {
        let mut child = serve_command(bin, cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("service stdout not captured")?;
        let mut announcement = String::new();
        let connected = BufReader::new(stdout)
            .read_line(&mut announcement)
            .map_err(|e| format!("read service announcement: {e}"))
            .and_then(|_| {
                listening_address(&announcement)
                    .ok_or_else(|| format!("unexpected service announcement {announcement:?}"))
            })
            .and_then(|addr| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")));
        let stream = match connected {
            Ok(stream) => stream,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // From here on `Drop` reaps the child on every error path.
        let server = Server {
            child,
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
            next_id: 1,
        };
        // Small frames, latency is the product; and a hung service must
        // fail the run, not hang it.
        server
            .writer
            .set_nodelay(true)
            .and_then(|()| server.writer.set_read_timeout(Some(Duration::from_secs(120))))
            .map_err(|e| format!("configure the client socket: {e}"))?;
        Ok(server)
    }

    /// Send one request and read frames up to its terminal frame.
    fn request(&mut self, req: &WireRequest, t: &mut Tracer) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = req.line(id);
        line.push('\n');
        let mut reply = Reply {
            latency_ms: 0.0,
            first_frame_ms: 0.0,
            frames: 0,
            bytes: 0,
            line: String::new(),
        };
        let span = t.begin("serve.request");
        let first = t.begin("serve.first_frame");
        let start = Instant::now();
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("write request: {e}"))?;
        loop {
            reply.line.clear();
            let n =
                self.reader.read_line(&mut reply.line).map_err(|e| format!("read frame: {e}"))?;
            if n == 0 {
                return Err("the service closed the connection mid-request".to_string());
            }
            reply.frames += 1;
            reply.bytes += n;
            if reply.frames == 1 {
                reply.first_frame_ms = start.elapsed().as_secs_f64() * 1e3;
                t.end(first);
            }
            if matches!(frame_event(&reply.line), Some("result" | "error")) {
                break;
            }
        }
        reply.latency_ms = start.elapsed().as_secs_f64() * 1e3;
        t.end(span);
        reply.line.truncate(reply.line.trim_end().len());
        Ok(reply)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        rss::peak_rss_mb(self.child.id())
    }

    /// Ask the service to shut down and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let sent = self.writer.write_all(format!("{SHUTDOWN_LINE}\n").as_bytes());
        let mut ack = String::new();
        let _ = self.reader.read_line(&mut ack);
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("wait for the service: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the service exited with {status}"))
        }
    }
}

impl Drop for Server {
    /// A service that was not stopped cleanly (an error path) must not
    /// outlive the run.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// Request lists
// ---------------------------------------------------------------------

fn every_launch() -> impl Iterator<Item = (&'static str, Protocol)> {
    PROTOCOLS.into_iter().flat_map(|p| WORKLOADS.into_iter().map(move |w| (w, p)))
}

/// The 210 small-scale `simulate` keys: every workload under both
/// protocols, re-keyed by MSHR size and SM count.
fn small_simulates() -> Vec<WireRequest> {
    let mut reqs = Vec::new();
    for sms in [None, Some(2)] {
        for mshr in [None, Some(32), Some(64), Some(128), Some(256)] {
            for (workload, protocol) in every_launch() {
                let mut r = WireRequest::new(WireOp::Simulate, workload, Scale::Small, protocol);
                r.sms = sms;
                r.mshr = mshr;
                reqs.push(r);
            }
        }
    }
    reqs.truncate(210);
    reqs
}

/// The groups of one cold pass: 300 requests, each with a key no other
/// request of the pass shares. A group is sent in order (a `resume`
/// follows its `checkpoint`); groups are shuffled by the seed.
fn cold_groups() -> Result<Vec<Vec<WireRequest>>, String> {
    let mut groups: Vec<Vec<WireRequest>> =
        small_simulates().into_iter().map(|r| vec![r]).collect();
    let small = |op, (workload, protocol)| WireRequest::new(op, workload, Scale::Small, protocol);
    // 10% analyze.
    for launch in every_launch() {
        groups.push(vec![small(WireOp::Analyze, launch)]);
    }
    for launch in every_launch().take(4) {
        let mut r = small(WireOp::Analyze, launch);
        r.mshr = Some(32);
        groups.push(vec![r]);
    }
    // 10% blame / trace-summary.
    for launch in every_launch().take(15) {
        groups.push(vec![small(WireOp::Blame, launch)]);
    }
    for launch in every_launch().skip(11) {
        groups.push(vec![small(WireOp::TraceSummary, launch)]);
    }
    // 8% checkpoint at mid-run followed by resume from that digest.
    for launch in every_launch().take(12) {
        let mut checkpoint = small(WireOp::Checkpoint, launch);
        let (cycles, _) = straight_cycles(&checkpoint.scenario(), Scale::Small)?;
        checkpoint.at_cycle = Some(cycles / 2);
        groups.push(vec![checkpoint, small(WireOp::Resume, launch)]);
    }
    // 2% paper scale, where the snapshot is megabytes.
    for workload in ["histogram", "stencil-tiled"] {
        for protocol in PROTOCOLS {
            groups.push(vec![WireRequest::new(WireOp::Simulate, workload, Scale::Paper, protocol)]);
        }
    }
    let mut checkpoint = WireRequest::new(WireOp::Checkpoint, "utsd", Scale::Paper, Protocol::Gpu);
    checkpoint.at_cycle = Some(PAPER_CHECKPOINT_CYCLE);
    let resume = WireRequest::new(WireOp::Resume, "utsd", Scale::Paper, Protocol::Gpu);
    groups.push(vec![checkpoint, resume]);
    Ok(groups)
}

/// Untimed requests sent after every start so the service's code paths
/// are warm; their keys (3 SMs) appear in no pass.
fn warm_up_requests() -> Vec<WireRequest> {
    let spmv = |op| {
        let mut r = WireRequest::new(op, "spmv", Scale::Small, Protocol::Gpu);
        r.sms = Some(3);
        r
    };
    let mut checkpoint = spmv(WireOp::Checkpoint);
    checkpoint.at_cycle = Some(100);
    vec![
        spmv(WireOp::Simulate),
        spmv(WireOp::Analyze),
        spmv(WireOp::Blame),
        spmv(WireOp::TraceSummary),
        checkpoint,
        spmv(WireOp::Resume),
    ]
}

/// The 200 keys the warm workload primes, in Zipf rank order: small-scale
/// simulates with a paper-scale result every 50 ranks, so result sizes
/// span 4–40 KB at both ends of the popularity curve. The assignment of
/// keys to ranks is fixed; the seed only drives the draw.
fn warm_keys() -> Vec<WireRequest> {
    let mut keys = small_simulates();
    keys.truncate(WARM_KEYS - 4);
    let paper = [
        ("implicit-stash", Protocol::Gpu),
        ("implicit-scratchpad", Protocol::Gpu),
        ("reduction", Protocol::Gpu),
        ("implicit-dma", Protocol::Gpu),
    ];
    for (i, (workload, protocol)) in paper.into_iter().enumerate() {
        let at = (i * 50 + 5).min(keys.len());
        keys.insert(at, WireRequest::new(WireOp::Simulate, workload, Scale::Paper, protocol));
    }
    keys
}

// ---------------------------------------------------------------------
// Running requests and checking replies
// ---------------------------------------------------------------------

/// The kind of a request: what a cold one asked for at which scale, or
/// where a warm one was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Op(WireOp, Scale),
    HitDisk,
    HitMem,
}

impl Class {
    fn name(self) -> String {
        match self {
            Class::Op(op, Scale::Small) => format!("request:{}", op.name()),
            Class::Op(op, Scale::Paper) => format!("request:{}@paper", op.name()),
            Class::HitDisk => "request:hit-disk".to_string(),
            Class::HitMem => "request:hit-mem".to_string(),
        }
    }
}

#[derive(Default)]
struct Checks {
    cache_mismatches: u64,
    nondeterministic_ops: u64,
    conservation_failures: u64,
    errors: u64,
}

/// One timed request with what the checks need from it.
struct Sample {
    key: usize,
    class: Class,
    latency_ms: f64,
    first_frame_ms: f64,
    frames: u32,
    bytes: usize,
    cycles: u64,
    instructions: u64,
    frame_parse_us: f64,
}

#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    counts: SimCounts,
    cached_results: u64,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.samples.iter().map(|s| s.latency_ms).sum::<f64>() / 1e3
    }
}

struct Harness<'a> {
    kind: Kind,
    bins: &'a Binaries,
    cache_dir: PathBuf,
    /// Whether the service is started with the cache directory. The warm
    /// workload is about it. The cold workload's timed passes cache in
    /// memory only: on the checkout's ext4 a file create costs 20 to
    /// 150 µs depending on how many files were deleted in the last 35 s
    /// (inodes freed that recently are skipped one by one), by this run
    /// or the one before, which moved back-to-back runs by 5%. The traced
    /// run measures what the directory adds.
    disk_cache: bool,
    server: Option<Server>,
    /// `VmHWM` of the service at the end of each pass.
    pass_rss_mb: Vec<f64>,
    /// Cold: the groups of a pass. Warm: one group per key, rank order.
    groups: Vec<Vec<WireRequest>>,
    /// Digest of each key's result bytes, from its first answer.
    result_digest: BTreeMap<usize, String>,
    /// Warm only: the exact result bytes and counts each key was primed
    /// with.
    primed: Vec<(String, ResultSummary)>,
    checks: Checks,
    /// Orders a cold pass's groups and draws a warm pass's keys.
    rng: Rng,
    zipf: Zipf,
}

impl<'a> Harness<'a> {
    fn server(&mut self) -> Result<&mut Server, String> {
        self.server.as_mut().ok_or_else(|| "the service is not running".to_string())
    }

    fn stop_server(&mut self) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server.stop()?;
        }
        Ok(())
    }

    /// (Re)start the service and warm it up. `fresh` also empties the
    /// cache directory, so every key is cold again.
    fn restart(&mut self, fresh: bool) -> Result<(), String> {
        self.stop_server()?;
        if fresh {
            let _ = std::fs::remove_dir_all(&self.cache_dir);
        }
        let cache_dir = self.disk_cache.then_some(self.cache_dir.as_path());
        let mut server = Server::start(&self.bins.serve, cache_dir)?;
        let mut t = Tracer::new(false);
        let mut snapshot = None;
        for mut req in warm_up_requests() {
            if req.op == WireOp::Resume {
                req.snapshot = snapshot.take();
            }
            let reply = server.request(&req, &mut t)?;
            match terminal_frame(&reply.line) {
                Some(Terminal::Result { result, .. }) => {
                    snapshot = result_summary(result, false)?.snapshot;
                }
                other => return Err(format!("warm-up {} failed: {other:?}", req.op.name())),
            }
        }
        self.server = Some(server);
        Ok(())
    }

    /// Everything before the first timed request.
    fn set_up(&mut self) -> Result<(), String> {
        match self.kind {
            Kind::Cold => {
                self.groups = cold_groups()?;
                self.restart(true)
            }
            Kind::Warm => {
                self.groups = warm_keys().into_iter().map(|r| vec![r]).collect();
                self.restart(true)?;
                // Prime every key, then restart on the same directory so
                // the service's memory map is empty and the first touch
                // of a key is a disk hit.
                let mut t = Tracer::new(false);
                self.primed.clear();
                for key in 0..self.groups.len() {
                    let req = self.groups[key][0].clone();
                    let reply = self.server()?.request(&req, &mut t)?;
                    match terminal_frame(&reply.line) {
                        Some(Terminal::Result { cached: false, result }) => {
                            self.primed.push((result.to_string(), result_summary(result, false)?));
                        }
                        other => return Err(format!("priming key {key} failed: {other:?}")),
                    }
                }
                self.restart(false)
            }
        }
    }

    /// Send `req` (key `key`) and check its reply. A failed check fails
    /// the op; the sample is kept either way so latencies stay complete.
    fn timed(
        &mut self,
        key: usize,
        req: &WireRequest,
        class: Class,
        t: &mut Tracer,
        pass: &mut Pass,
        outcome: &mut Outcome,
    ) -> Result<Option<String>, String> {
        t.set_op(outcome.attempted);
        outcome.attempted += 1;
        let reply = self.server()?.request(req, t)?;
        let mut sample = Sample {
            key,
            class,
            latency_ms: reply.latency_ms,
            first_frame_ms: reply.first_frame_ms,
            frames: reply.frames,
            bytes: reply.bytes,
            cycles: 0,
            instructions: 0,
            frame_parse_us: if t.enabled() { json_parse_us(&reply.line) } else { 0.0 },
        };
        let mut snapshot = None;
        let label = || format!("{} {} (key {key})", req.op.name(), req.scenario().name());
        match terminal_frame(&reply.line) {
            Some(Terminal::Result { cached, result }) => {
                pass.cached_results += u64::from(cached);
                let want_cached = self.kind == Kind::Warm;
                if cached != want_cached {
                    self.checks.cache_mismatches += 1;
                    outcome.fail(format!("{}: cached={cached}, expected {want_cached}", label()));
                }
                let summary = match self.kind {
                    // A hit must carry exactly the bytes the cold answer had.
                    Kind::Warm => {
                        let (primed, summary) = &self.primed[key];
                        if result != primed {
                            self.checks.cache_mismatches += 1;
                            outcome.fail(format!(
                                "{}: cached bytes differ from the cold frame",
                                label()
                            ));
                        }
                        summary.clone()
                    }
                    Kind::Cold => match result_summary(result, t.enabled()) {
                        Ok(summary) => summary,
                        Err(e) => {
                            self.checks.conservation_failures += 1;
                            outcome.fail(format!("{}: {e}", label()));
                            ResultSummary::default()
                        }
                    },
                };
                if self.kind == Kind::Cold {
                    let digest = content_digest(result);
                    match self.result_digest.get(&key) {
                        Some(first) if *first != digest => {
                            self.checks.nondeterministic_ops += 1;
                            outcome
                                .fail(format!("{}: result differs from an earlier pass", label()));
                        }
                        Some(_) => {}
                        None => {
                            self.result_digest.insert(key, digest);
                        }
                    }
                }
                sample.cycles = summary.cycles;
                sample.instructions = summary.instructions;
                if t.enabled() {
                    if let Some(counts) = &summary.counts {
                        pass.counts.add(counts);
                    }
                }
                snapshot = summary.snapshot;
            }
            Some(Terminal::Error(message)) => {
                self.checks.errors += 1;
                outcome.fail(format!("{}: error frame: {message}", label()));
            }
            None => return Err(format!("{}: no terminal frame", label())),
        }
        pass.samples.push(sample);
        Ok(snapshot)
    }

    fn cold_pass(&mut self, t: &mut Tracer, outcome: &mut Outcome) -> Result<Pass, String> {
        self.restart(true)?;
        // Keys are numbered by position in the unshuffled list.
        let mut first_key = Vec::with_capacity(self.groups.len());
        let mut next = 0;
        for group in &self.groups {
            first_key.push(next);
            next += group.len();
        }
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        self.rng.shuffle(&mut order);
        let mut pass = Pass::default();
        for g in order {
            let mut snapshot = None;
            for (i, mut req) in self.groups[g].clone().into_iter().enumerate() {
                if req.op == WireOp::Resume {
                    req.snapshot = snapshot.take();
                }
                let class = Class::Op(req.op, req.scale);
                snapshot = self.timed(first_key[g] + i, &req, class, t, &mut pass, outcome)?;
            }
        }
        // A repeated key must now come from the cache with the cold bytes.
        let mut off = Tracer::new(false);
        let singles: Vec<usize> =
            (0..self.groups.len()).filter(|&g| self.groups[g].len() == 1).collect();
        for _ in 0..CACHE_PROBES {
            let g = singles[self.rng.below(singles.len())];
            let req = self.groups[g][0].clone();
            let reply = self.server()?.request(&req, &mut off)?;
            let same = match terminal_frame(&reply.line) {
                Some(Terminal::Result { cached: true, result }) => {
                    self.result_digest.get(&first_key[g]) == Some(&content_digest(result))
                }
                _ => false,
            };
            if !same {
                self.checks.cache_mismatches += 1;
                outcome.fail(format!(
                    "{} {}: repeat was not the cached cold result",
                    req.op.name(),
                    req.scenario().name()
                ));
            }
        }
        Ok(pass)
    }

    fn warm_pass(&mut self, t: &mut Tracer, outcome: &mut Outcome) -> Result<Pass, String> {
        self.restart(false)?;
        let mut touched = vec![false; self.groups.len()];
        let mut pass = Pass::default();
        for _ in 0..WARM_PASS_REQUESTS {
            let key = self.zipf.sample(&mut self.rng);
            let class = if touched[key] { Class::HitMem } else { Class::HitDisk };
            touched[key] = true;
            let req = self.groups[key][0].clone();
            self.timed(key, &req, class, t, &mut pass, outcome)?;
        }
        Ok(pass)
    }

    /// One whole pass of the workload, after a restart that makes every
    /// pass start from the same service state.
    fn pass(&mut self, t: &mut Tracer, outcome: &mut Outcome) -> Result<Pass, String> {
        let pass = match self.kind {
            Kind::Cold => self.cold_pass(t, outcome),
            Kind::Warm => self.warm_pass(t, outcome),
        }?;
        let rss = self.server()?.peak_rss_mb()?;
        self.pass_rss_mb.push(rss);
        Ok(pass)
    }
}

/// Median latency of the samples whose class `keep` accepts.
fn median_ms(samples: &[Sample], keep: impl Fn(Class) -> bool) -> f64 {
    let kept: Vec<f64> = samples.iter().filter(|s| keep(s.class)).map(|s| s.latency_ms).collect();
    stats::median(&kept)
}

/// One row per request class: the mix is too wide for a row per key.
/// The simulated counts are those of the first pass, which a seed fixes
/// however many passes a run fits.
fn class_rows(passes: &[Pass]) -> Vec<ScenarioRow> {
    let mut rows: BTreeMap<Class, ScenarioRow> = BTreeMap::new();
    for (p, pass) in passes.iter().enumerate() {
        for s in &pass.samples {
            let row = rows.entry(s.class).or_insert_with(|| ScenarioRow {
                name: s.class.name(),
                pass_ms: vec![Vec::new(); passes.len()],
                cycles: 0,
                instructions: 0,
                digest: String::new(),
            });
            row.pass_ms[p].push(s.latency_ms);
            if p == 0 {
                row.cycles += s.cycles;
                row.instructions += s.instructions;
            }
        }
    }
    rows.into_values().collect()
}

pub fn run(kind: Kind, args: &RunArgs, work: &Path, spans_path: &Path) -> Result<Outcome, String> {
    let bins = crate::adapter::build_binaries()?;
    let mut h = Harness {
        kind,
        bins: &bins,
        cache_dir: work.join("cache"),
        disk_cache: kind == Kind::Warm,
        server: None,
        pass_rss_mb: Vec::new(),
        groups: Vec::new(),
        result_digest: BTreeMap::new(),
        primed: Vec::new(),
        checks: Checks::default(),
        rng: Rng::new(args.seed),
        zipf: Zipf::new(WARM_KEYS, 1.0),
    };
    let mut outcome = Outcome::default();
    // After the build above, which wants every CPU.
    crate::share_one_cpu(&mut outcome);
    let result = if args.trace {
        h.set_up().and_then(|()| run_traced(&mut h, &mut outcome, spans_path))
    } else {
        run_untraced(&mut h, &mut outcome, args.seconds)
    };
    // The service stops whether or not the run succeeded.
    let stopped = h.stop_server();
    result?;
    stopped?;
    if !args.trace {
        // Every pass runs in a service instance of its own.
        outcome.set_peak_rss(h.pass_rss_mb);
    }
    Ok(outcome)
}

fn run_untraced(h: &mut Harness, outcome: &mut Outcome, seconds: f64) -> Result<(), String> {
    let ((), setup_s) = repeat_set_up(|| h.set_up())?;
    outcome.set_from_passes("setup_s", setup_s);

    let mut t = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(h.pass(&mut t, outcome)?);
        let elapsed: f64 = passes.iter().map(Pass::wall_s).sum();
        if !another_pass(elapsed, passes.len(), seconds) {
            break;
        }
    }
    let per_pass = |f: fn(&Sample) -> f64| -> Vec<f64> {
        passes.iter().map(|p| p.samples.iter().map(f).sum::<f64>() / p.wall_s()).collect()
    };
    outcome.set_from_passes("ops_per_s", per_pass(|_| 1.0));
    outcome.set_from_passes("sim_cycles_per_s", per_pass(|s| s.cycles as f64));
    outcome.set_from_passes("sim_instr_per_s", per_pass(|s| s.instructions as f64));
    outcome.scenarios = class_rows(&passes);
    outcome.set_latency_metrics()
}

fn run_traced(h: &mut Harness, outcome: &mut Outcome, spans_path: &Path) -> Result<(), String> {
    let untraced = h.pass(&mut Tracer::new(false), outcome)?;
    let mut t = Tracer::new(true);
    let traced = h.pass(&mut t, outcome)?;
    outcome.set("harness.trace_overhead_pct", (traced.wall_s() / untraced.wall_s() - 1.0) * 100.0);
    outcome.set("harness.spans", t.spans().len() as f64);
    if h.kind == Kind::Cold {
        // The same pass once more with the cache directory.
        h.disk_cache = true;
        let on_disk = h.pass(&mut Tracer::new(false), outcome);
        h.disk_cache = false;
        outcome.set(
            "serve.disk_cache_overhead_pct",
            (on_disk?.wall_s() / untraced.wall_s() - 1.0) * 100.0,
        );
    }
    outcome.set("serve.cache_dir_bytes", dir_bytes(&h.cache_dir) as f64);

    // Latencies come from the untraced pass, counts from the traced one.
    let all = &untraced.samples;
    for (name, op) in [
        ("serve.simulate_ms_p50", WireOp::Simulate),
        ("serve.analyze_ms_p50", WireOp::Analyze),
        ("serve.blame_ms_p50", WireOp::Blame),
        ("serve.trace_summary_ms_p50", WireOp::TraceSummary),
        ("serve.checkpoint_ms_p50", WireOp::Checkpoint),
        ("serve.resume_ms_p50", WireOp::Resume),
    ] {
        outcome.set(name, median_ms(all, |c| matches!(c, Class::Op(o, _) if o == op)));
    }
    outcome.set("serve.hit_mem_ms_p50", median_ms(all, |c| c == Class::HitMem));
    outcome.set("serve.hit_disk_ms_p50", median_ms(all, |c| c == Class::HitDisk));
    let column = |f: fn(&Sample) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    outcome.set("serve.first_frame_ms_p50", stats::median(&column(|s| s.first_frame_ms)));
    outcome.set("serve.response_bytes_p50", stats::median(&column(|s| s.bytes as f64)));
    let frames = column(|s| f64::from(s.frames));
    outcome
        .set("serve.frames_per_request", frames.iter().sum::<f64>() / frames.len().max(1) as f64);
    let latencies = stats::sorted(&column(|s| s.latency_ms));
    outcome.set("serve.request_ms_p95", stats::percentile(&latencies, 95.0).unwrap_or(0.0));
    outcome.set_samples("serve.request_ms_p95", latencies.len());
    outcome.set(
        "serve.cache_hit_ratio",
        traced.cached_results as f64 / traced.samples.len().max(1) as f64,
    );
    outcome.set(
        "json.frame_parse_us_p50",
        stats::median(&traced.samples.iter().map(|s| s.frame_parse_us).collect::<Vec<_>>()),
    );

    // The same request lines through the service's own parser.
    let lines: Vec<String> =
        h.groups.iter().flatten().enumerate().map(|(i, r)| r.line(i as u64)).collect();
    outcome.set("serve.request_parse_us", request_parse_us(&lines)?);

    match h.kind {
        Kind::Cold => {
            set_count_metrics(outcome, &traced.counts);
            // What the service adds to a cold small simulate: its latency
            // over TCP minus the same launch run in this process.
            let mut off = Tracer::new(false);
            let mut overhead = Vec::new();
            let small_simulate = Class::Op(WireOp::Simulate, Scale::Small);
            let flat: Vec<&WireRequest> = h.groups.iter().flatten().collect();
            for s in all.iter().filter(|s| s.class == small_simulate).take(60) {
                let start = Instant::now();
                flat[s.key].run_in_process(&mut off)?;
                overhead.push(s.latency_ms - start.elapsed().as_secs_f64() * 1e3);
            }
            outcome.set("serve.overhead_ms_p50", stats::median(&overhead));
        }
        Kind::Warm => {
            // No simulation ran: the counts are those of the results the
            // cache handed back, and the simulator layers report 0.
            let cycles: u64 = traced.samples.iter().map(|s| s.cycles).sum();
            let instructions: u64 = traced.samples.iter().map(|s| s.instructions).sum();
            outcome.set("sim.cycles_total", cycles as f64);
            outcome.set("sim.instructions_total", instructions as f64);
        }
    }
    outcome.set("serve.errors", h.checks.errors as f64);
    outcome.set("check.cache_mismatches", h.checks.cache_mismatches as f64);
    outcome.set("check.nondeterministic_ops", h.checks.nondeterministic_ops as f64);
    outcome.set("check.conservation_failures", h.checks.conservation_failures as f64);
    outcome.scenarios = class_rows(std::slice::from_ref(&untraced));
    outcome.set_layers(&t);
    t.write_jsonl(spans_path).map_err(|e| format!("write {}: {e}", spans_path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cold_pass_is_300_requests_with_300_distinct_keys() {
        let groups = cold_groups().unwrap();
        let lines: Vec<String> = groups.iter().flatten().map(|r| r.line(0)).collect();
        assert_eq!(lines.len(), 300);
        let mut distinct = lines.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 300, "two requests of a pass share a cache key");
        for warm_up in warm_up_requests() {
            assert!(!lines.contains(&warm_up.line(0)), "a warm-up key is also a pass key");
        }
        let count = |op| groups.iter().flatten().filter(|r| r.op == op).count();
        assert_eq!(count(WireOp::Simulate), 214);
        assert_eq!(count(WireOp::Analyze), 30);
        assert_eq!(count(WireOp::Blame) + count(WireOp::TraceSummary), 30);
        assert_eq!(count(WireOp::Checkpoint), count(WireOp::Resume));
        assert_eq!(count(WireOp::Checkpoint), 13);
    }

    #[test]
    fn the_warm_keys_are_200_distinct_simulates() {
        let keys = warm_keys();
        assert_eq!(keys.len(), WARM_KEYS);
        let mut lines: Vec<String> = keys.iter().map(|r| r.line(0)).collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), WARM_KEYS);
        assert_eq!(keys.iter().filter(|r| r.scale == Scale::Paper).count(), 4);
    }
}
