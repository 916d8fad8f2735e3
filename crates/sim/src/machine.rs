//! The wired simulator and kernel execution loop.

use crate::config::{AnalysisGate, CycleEngine, SystemConfig};
use crate::launch::{LaunchCtx, LaunchSpec};
use crate::progress::{ProgressReport, SmProgress, TimeoutKind};
use gsi_analyze::{
    AnalysisReport, AnalyzeOptions, Baseline, EntryProbe, EntryState, Geom, ProtocolClass,
};
use gsi_blame::{BlameCollector, BlameReport};
use gsi_chaos::{ChaosEngine, ChaosStats, FaultPlan};
use gsi_core::{ConservationError, StallBreakdown, StallCollector};
use gsi_mem::{CoreMemStats, CoreMemUnit, GlobalMem, L2Stats, MemMsg, SharedMem};
use gsi_noc::{Mesh, NocStats, NodeId};
use gsi_sm::{SmCore, SmStats, SmWake, WarpInit, WarpProfile};
use gsi_trace::{Subsystem, TraceBuffer, TraceConfig, TraceLevel};
use std::fmt;
use std::time::Instant;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel did not complete: either the cycle budget ran out or the
    /// forward-progress watchdog saw nothing move for too long — usually a
    /// livelocked workload (e.g. a lock never released) or a wedged
    /// resource. The attached [`ProgressReport`] snapshots the machine at
    /// the moment it gave up.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Blocks that had completed.
        blocks_done: u64,
        /// Blocks in the grid.
        blocks_total: u64,
        /// Full diagnostic dump: per-warp stall state, queue occupancies,
        /// in-flight traffic, and the starved-resource heuristic.
        report: Box<ProgressReport>,
    },
    /// A stall collector's end-of-run conservation check failed: the
    /// breakdown no longer partitions the observed cycles. A simulator bug,
    /// not a workload property.
    Accounting {
        /// The SM whose collector is corrupted.
        sm: u8,
        /// The violated invariant.
        error: ConservationError,
    },
    /// The static-analysis pre-flight gate
    /// ([`AnalysisGate::Deny`](crate::AnalysisGate::Deny)) refused the
    /// launch: the kernel's report contains `Error`-severity findings, so
    /// its stall profile would be meaningless. The full report (including
    /// warnings and rendered snippets) is attached.
    Analysis {
        /// The refused kernel's name.
        kernel: String,
        /// Number of `Error`-severity findings.
        errors: usize,
        /// The complete analysis report.
        report: Box<AnalysisReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles, blocks_done, blocks_total, report } => write!(
                f,
                "kernel timed out after {cycles} cycles \
                 ({blocks_done}/{blocks_total} blocks done): {report}"
            ),
            SimError::Accounting { sm, error } => {
                write!(f, "stall accounting corrupted on SM {sm}: {error}")
            }
            SimError::Analysis { kernel, errors, report } => {
                write!(
                    f,
                    "static analysis refused kernel `{kernel}` \
                     ({errors} error(s)):\n{report}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of one kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRun {
    /// GPU cycles from launch to full drain (including the end-of-kernel
    /// store-buffer flush and stash writeback, which the paper's release
    /// semantics of kernel exit require).
    pub cycles: u64,
    /// Aggregate stall breakdown over all SMs (the paper's figures).
    pub breakdown: StallBreakdown,
    /// Per-SM breakdowns.
    pub per_sm: Vec<StallBreakdown>,
    /// Per-SM pipeline statistics.
    pub sm_stats: Vec<SmStats>,
    /// Per-SM memory statistics.
    pub mem_stats: Vec<CoreMemStats>,
    /// Shared L2/DRAM statistics (cumulative over the simulator lifetime).
    pub l2_stats: L2Stats,
    /// Mesh statistics (cumulative over the simulator lifetime).
    pub noc_stats: NocStats,
    /// Total instructions issued across SMs during this kernel.
    pub instructions: u64,
    /// Per-SM epoch series (empty unless
    /// [`Simulator::set_timeline_epoch`] enabled it): one breakdown per
    /// epoch per SM.
    pub timelines: Vec<Vec<StallBreakdown>>,
    /// Per-SM, per-warp issue-stage profiles (Algorithm-1 classifications
    /// of each warp's considered instructions).
    pub warp_profiles: Vec<Vec<WarpProfile>>,
}

gsi_json::json_struct!(KernelRun {
    cycles,
    breakdown,
    per_sm,
    sm_stats,
    mem_stats,
    l2_stats,
    noc_stats,
    instructions,
    timelines,
    warp_profiles,
});

/// Host-side counters of the cycle engine's own work: how many core
/// ticks it executed and how many it avoided. Diagnostics only — they
/// describe how a result was computed, not the result, so they are kept out
/// of [`KernelRun`], snapshots and every result encoding. Cumulative over
/// the simulator's lifetime (a restored simulator starts from zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Core ticks executed (memory unit + issue stage of one SM for one
    /// cycle). The dense loop executes `cycles x SMs` of them.
    pub core_ticks: u64,
    /// SM-cycles credited in bulk to a sleeping core instead of ticked.
    pub core_cycles_slept: u64,
    /// Sleep windows that skipped at least one cycle.
    pub sleep_windows: u64,
    /// Times the global clock jumped over a stretch in which every core
    /// slept and neither the mesh nor the shared side had work.
    pub clock_jumps: u64,
}

impl EngineStats {
    /// Share of SM-cycles that were slept through instead of ticked.
    pub fn slept_share(&self) -> f64 {
        let total = self.core_ticks + self.core_cycles_slept;
        if total == 0 {
            0.0
        } else {
            self.core_cycles_slept as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} core ticks, {} SM-cycles slept ({:.1}%) in {} windows, {} clock jumps",
            self.core_ticks,
            self.core_cycles_slept,
            self.slept_share() * 100.0,
            self.sleep_windows,
            self.clock_jumps
        )
    }
}

struct Core {
    sm: SmCore,
    mem: CoreMemUnit,
    collector: StallCollector,
    /// The event engine has stopped ticking this core: every warp's
    /// classification is frozen and the memory unit has nothing to do
    /// until `wake_at`. Always false outside [`Simulator::run_until`].
    asleep: bool,
    /// The core's latest tick left no warp that is certain to be ready
    /// next cycle, so it is worth asking the calendar whether it can sleep.
    may_sleep: bool,
    /// First cycle the core was not ticked for (meaningful while asleep).
    slept_from: u64,
    /// Earliest cycle one of the core's own timers expires (`u64::MAX`
    /// when only an outside event can unblock it).
    wake_at: u64,
}

impl Core {
    /// Resume ticking at cycle `now`, crediting the slept stretch
    /// `[slept_from, now)` to the stall breakdown exactly as that many
    /// dense ticks would have. This is the only place slept cycles are
    /// credited, and callers invoke it *before* the mutation that ends the
    /// sleep (a delivery, a dispatch, the kernel-end flush), so the frozen
    /// classification is still the one observable at `slept_from`. A no-op
    /// on a core that is awake.
    fn wake(&mut self, now: u64, stats: &mut EngineStats) {
        if !self.asleep {
            return;
        }
        self.asleep = false;
        let n = now - self.slept_from;
        if n > 0 {
            self.sm.skip_cycles(self.slept_from, n, &mut self.collector);
            stats.core_cycles_slept += n;
            stats.sleep_windows += 1;
        }
    }

    /// After a tick at `now` that left no warp certainly ready, and with
    /// the outbox drained: stop ticking if neither the SM nor the memory
    /// unit can act at `now + 1`.
    fn try_sleep(&mut self, now: u64) {
        let next = now + 1;
        // The memory unit's answer is O(1); ask it first.
        let mem_wake = self.mem.next_wake(next).unwrap_or(u64::MAX);
        if mem_wake <= next {
            return;
        }
        let sm_wake = match self.sm.next_wake(next) {
            SmWake::Busy => return,
            SmWake::At(t) => t,
            SmWake::Idle => u64::MAX,
        };
        self.asleep = true;
        self.slept_from = next;
        self.wake_at = sm_wake.min(mem_wake);
    }
}

/// Mid-kernel execution state carried between [`Simulator::run_until`]
/// slices (and across a snapshot/restore round trip).
#[derive(Debug, Clone, PartialEq)]
struct KernelProgress {
    /// Cycle the kernel launched at.
    start: u64,
    /// Next grid block to dispatch.
    next_block: u64,
    /// Blocks retired so far.
    blocks_done: u64,
    /// The end-of-kernel release flush has begun.
    end_flush: bool,
    /// Per-SM statistics at launch, for per-kernel deltas.
    sm_stats_before: Vec<SmStats>,
}

gsi_json::json_struct!(KernelProgress {
    start,
    next_block,
    blocks_done,
    end_flush,
    sm_stats_before,
});

/// Reusable buffers for the per-cycle simulation loop. Capacities reach a
/// steady state early in a kernel, after which the loop performs no heap
/// allocation for message plumbing (see `tests/alloc_free.rs`).
#[derive(Default)]
struct SimScratch {
    /// Mesh deliveries due this cycle.
    deliveries: Vec<(NodeId, MemMsg)>,
    /// Outgoing messages drained from one core's memory unit.
    outbox: Vec<(NodeId, MemMsg)>,
    /// Ids of blocks that finished this cycle.
    completed: Vec<u64>,
    /// Warp initializers for the block being dispatched (drained into the
    /// SM by `add_block_from`, so dispatch allocates nothing per block
    /// once capacities have warmed up).
    warp_inits: Vec<WarpInit>,
}

/// The integrated CPU-GPU system simulator.
///
/// Create one with a [`SystemConfig`], initialize global memory through
/// [`gmem_mut`](Self::gmem_mut), and execute kernels with
/// [`run_kernel`](Self::run_kernel). Global memory persists across kernels,
/// so multi-kernel workloads compose naturally.
pub struct Simulator {
    cfg: SystemConfig,
    gmem: GlobalMem,
    mesh: Mesh<MemMsg>,
    shared: SharedMem,
    cores: Vec<Core>,
    cycle: u64,
    profiling: bool,
    engine: EngineStats,
    scratch: SimScratch,
    trace: TraceBuffer,
    chaos_plan: FaultPlan,
    last_analysis: Option<AnalysisReport>,
    baseline: Option<Baseline>,
    progress: Option<KernelProgress>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("gpu_cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("profiling", &self.profiling)
            .finish_non_exhaustive()
    }
}

/// Whether a message is addressed to the L2 bank co-located at a node
/// (requests) rather than the core there (responses and forwards).
fn bank_bound(msg: &MemMsg) -> bool {
    matches!(
        msg,
        MemMsg::GetLine { .. }
            | MemMsg::WriteWords { .. }
            | MemMsg::RegisterOwner { .. }
            | MemMsg::OwnerWriteback { .. }
            | MemMsg::AtomicOp { .. }
    )
}

impl Simulator {
    /// Build the system described by `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let core_nodes: Vec<NodeId> = (0..cfg.gpu_cores as u8).map(NodeId).collect();
        let cores = (0..cfg.gpu_cores as u8)
            .map(|i| Core {
                sm: SmCore::new(i, cfg.sm),
                mem: CoreMemUnit::new(i, NodeId(i), cfg.mem),
                collector: StallCollector::new(),
                asleep: false,
                may_sleep: false,
                slept_from: 0,
                wake_at: 0,
            })
            .collect();
        Simulator {
            gmem: GlobalMem::new(),
            mesh: Mesh::new(cfg.mesh),
            shared: SharedMem::new(cfg.mem, core_nodes),
            cores,
            cycle: 0,
            profiling: true,
            engine: EngineStats::default(),
            scratch: SimScratch::default(),
            trace: TraceBuffer::disabled(),
            chaos_plan: FaultPlan::disabled(),
            last_analysis: None,
            baseline: None,
            progress: None,
            cfg,
        }
    }

    /// Install (or clear) the accepted-findings baseline the pre-flight
    /// gate applies to every subsequent launch: findings whose content
    /// digest the baseline lists stay in the report but stop counting
    /// toward the gate's deny decision. This is how intentionally racy
    /// kernels (e.g. a global-lock work queue) are admitted explicitly.
    pub fn set_baseline(&mut self, baseline: Option<Baseline>) {
        self.baseline = baseline;
    }

    /// Arm deterministic fault injection: derive decorrelated per-component
    /// [`ChaosEngine`]s from the plan's seed and install them into the
    /// mesh, the shared L2/DRAM side, and every core's memory unit. An
    /// unarmed plan restores the zero-cost disabled engines.
    pub fn set_chaos(&mut self, plan: &FaultPlan) {
        self.chaos_plan = *plan;
        self.mesh.set_chaos(ChaosEngine::for_component(plan, 0));
        self.shared.set_chaos(ChaosEngine::for_component(plan, 1));
        for (i, c) in self.cores.iter_mut().enumerate() {
            c.mem.set_chaos(ChaosEngine::for_component(plan, 2 + i as u64));
        }
    }

    /// The fault plan currently armed (the disabled plan by default).
    pub fn chaos_plan(&self) -> &FaultPlan {
        &self.chaos_plan
    }

    /// Aggregate fault-injection counters across every component engine.
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut total = ChaosStats::default();
        total.merge(self.mesh.chaos_stats());
        total.merge(self.shared.chaos_stats());
        for c in &self.cores {
            total.merge(c.mem.chaos_stats());
        }
        total
    }

    /// Snapshot the whole machine for the forward-progress watchdog. Only
    /// called when a run is being aborted; allocation here is fine.
    fn progress_report(
        &self,
        kind: TimeoutKind,
        cycles_run: u64,
        stalled_for: u64,
        blocks_done: u64,
        blocks_dispatched: u64,
        blocks_total: u64,
    ) -> Box<ProgressReport> {
        let sms = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut warps = Vec::new();
                c.sm.warp_snapshots(&mut warps);
                SmProgress {
                    sm: i as u8,
                    active_warps: c.sm.active_warps(),
                    instructions: c.sm.stats().instructions,
                    mshr_occupancy: c.mem.mshr_occupancy(),
                    mshr_capacity: c.mem.mshr_capacity(),
                    store_buffer_occupancy: c.mem.store_buffer_occupancy(),
                    store_buffer_capacity: c.mem.store_buffer_capacity(),
                    endflush_backlog: c.mem.endflush_backlog(),
                    flushing: c.mem.is_flushing(),
                    outstanding_atomics: c.mem.outstanding_atomic_count(),
                    dma_busy: c.mem.dma_busy(),
                    breakdown: c.collector.clone().finish(),
                    warps,
                }
            })
            .collect();
        Box::new(ProgressReport {
            kind,
            cycles_run,
            stalled_for,
            blocks_done,
            blocks_dispatched,
            blocks_total,
            mesh_in_flight: self.mesh.in_flight(),
            sms,
        })
    }

    /// Wake every sleeping core at `now`. Every way out of
    /// [`run_until`](Self::run_until) — pause, timeout, completion — goes
    /// through here, so no core is ever asleep outside it and everything
    /// read afterwards (results, snapshots, reports) is the dense loop's.
    fn wake_all(&mut self, now: u64) {
        for c in &mut self.cores {
            c.wake(now, &mut self.engine);
        }
    }

    /// Host-side counters of the cycle engine's work (see [`EngineStats`]).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// The watchdog's progress signature: any change counts as forward
    /// progress. Instructions cover execution, blocks cover dispatch and
    /// retirement, mesh messages cover the end-of-kernel flush and DMA
    /// phases (which retire no instructions).
    fn progress_signature(&self, blocks_done: u64) -> (u64, u64, u64) {
        let instructions: u64 = self.cores.iter().map(|c| c.sm.stats().instructions).sum();
        (instructions, blocks_done, self.mesh.stats().messages)
    }

    /// Enable cycle-level tracing at `level`, sizing the trace buffers for
    /// this system ([`TraceConfig::for_system`]). `TraceLevel::Off` drops
    /// back to the free no-op sink.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace = TraceBuffer::new(TraceConfig::for_system(
            level,
            self.cfg.mesh.nodes(),
            self.cfg.gpu_cores,
            self.cfg.sm.max_warps,
        ));
    }

    /// Install a fully custom trace buffer (ring sizes, windows, ...).
    pub fn set_trace(&mut self, trace: TraceBuffer) {
        self.trace = trace;
    }

    /// The trace buffer (counters, histograms, events recorded so far).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable access to the trace buffer (reset, self-profiling toggles).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Measure wall-clock time per simulator subsystem while running
    /// (recorded into the trace buffer's [`SubsystemProfile`]
    /// (gsi_trace::SubsystemProfile)).
    pub fn set_self_profiling(&mut self, on: bool) {
        self.trace.set_self_profiling(on);
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Functional global memory (read side).
    pub fn gmem(&self) -> &GlobalMem {
        &self.gmem
    }

    /// Functional global memory (write side), for workload initialization.
    pub fn gmem_mut(&mut self) -> &mut GlobalMem {
        &mut self.gmem
    }

    /// Additionally record per-epoch stall series (an Aerialvision-style
    /// timeline): one breakdown per `epoch_len` cycles per SM, returned in
    /// [`KernelRun::timelines`]. Pass 0 to disable.
    pub fn set_timeline_epoch(&mut self, epoch_len: u64) {
        for c in &mut self.cores {
            c.collector.set_epoch_len(epoch_len);
        }
    }

    /// Enable or disable GSI stall profiling (for overhead measurement).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
        for c in &mut self.cores {
            c.collector.set_enabled(enabled);
        }
    }

    /// Enable or disable stall root-cause attribution (`gsi-blame`). Off
    /// by default; the attribution tables live in the SMs and accumulate
    /// across kernel launches, so multi-launch workloads (e.g. the BFS
    /// levels) report whole-run attribution.
    pub fn set_blame_enabled(&mut self, enabled: bool) {
        for c in &mut self.cores {
            c.sm.set_blame_enabled(enabled);
        }
    }

    /// Build the run-level blame report: every SM's attribution tables
    /// merged, dangling memory-data charges resolved, ranked by charged
    /// cycles. The report's `coverage_pct` qualifies the exported event
    /// window: attribution itself is collected live and is always
    /// complete, but when the full-level event ring wrapped, the Perfetto
    /// annotations only cover the retained tail.
    pub fn blame_report(&self) -> BlameReport {
        let mut merged = BlameCollector::new();
        merged.set_enabled(true);
        for c in &self.cores {
            merged.merge(c.sm.blame());
        }
        let dropped = self.trace.dropped_events();
        let coverage = if dropped == 0 {
            100.0
        } else {
            let retained = self.trace.events().count() as u64;
            retained as f64 * 100.0 / (retained + dropped) as f64
        };
        let program = self.cores.first().and_then(|c| c.sm.program());
        BlameReport::build(merged, program, coverage, dropped)
    }

    /// Current simulated GPU cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The analysis report of the most recent launch that went through an
    /// enabled gate (`None` before any launch, or when the gate is
    /// [`AnalysisGate::Off`]).
    pub fn last_analysis(&self) -> Option<&AnalysisReport> {
        self.last_analysis.as_ref()
    }

    /// Execute a kernel to completion (including the end-of-kernel flush).
    ///
    /// Always starts a fresh launch: any kernel left paused by
    /// [`run_until`](Self::run_until) is abandoned.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the kernel exceeds the configured
    /// `max_cycles`.
    pub fn run_kernel(&mut self, spec: &LaunchSpec) -> Result<KernelRun, SimError> {
        self.progress = None;
        self.begin_kernel(spec)?;
        match self.run_until(spec, u64::MAX)? {
            Some(run) => Ok(run),
            None => unreachable!("an unbounded run_until either completes or errors"),
        }
    }

    /// True while a kernel launched by [`begin_kernel`](Self::begin_kernel)
    /// has not yet run to completion.
    pub fn kernel_in_progress(&self) -> bool {
        self.progress.is_some()
    }

    /// Blocks retired by the in-progress kernel, or `None` when no kernel
    /// is in progress. With the launch's `grid_blocks` this gives a
    /// completion fraction for progress reporting between
    /// [`run_until`](Self::run_until) slices.
    pub fn blocks_completed(&self) -> Option<u64> {
        self.progress.as_ref().map(|p| p.blocks_done)
    }

    /// Launch a kernel without running any cycles: run the analysis gate,
    /// install the program, reset per-kernel state, and record the launch
    /// point. Drive it with [`run_until`](Self::run_until).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Analysis`] when the pre-flight gate refuses the
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if a kernel is already in progress.
    pub fn begin_kernel(&mut self, spec: &LaunchSpec) -> Result<(), SimError> {
        assert!(self.progress.is_none(), "a kernel is already in progress");
        if self.cfg.analysis_gate != AnalysisGate::Off {
            let report = analyze_launch_with(spec, &self.cfg, self.baseline.as_ref(), true);
            let errors = report.error_count();
            let deny = self.cfg.analysis_gate == AnalysisGate::Deny && errors > 0;
            // The report stays queryable through `last_analysis` even when
            // the launch is refused (the error carries its own copy).
            let refused = deny.then(|| Box::new(report.clone()));
            self.last_analysis = Some(report);
            if let Some(report) = refused {
                return Err(SimError::Analysis {
                    kernel: spec.program.name().to_string(),
                    errors,
                    report,
                });
            }
        }

        let sm_stats_before: Vec<SmStats> = self.cores.iter().map(|c| *c.sm.stats()).collect();

        // Kernel launch is an acquire: every SM self-invalidates its L1.
        for c in &mut self.cores {
            c.sm.set_program(spec.program.clone());
            c.collector.reset();
            c.mem.self_invalidate();
        }

        self.progress = Some(KernelProgress {
            start: self.cycle,
            next_block: 0,
            blocks_done: 0,
            end_flush: false,
            sm_stats_before,
        });
        Ok(())
    }

    /// Run the in-progress kernel until it completes or the clock reaches
    /// `stop`, whichever comes first. Returns `Ok(None)` when paused at
    /// `stop` (the kernel stays in progress — call again, or snapshot the
    /// machine), `Ok(Some(run))` when the kernel finished. A paused-and-
    /// resumed run is cycle-for-cycle identical to an uninterrupted one.
    ///
    /// Under [`CycleEngine::Event`] a core whose SM cannot issue and whose
    /// memory unit has nothing to do is put to sleep and not ticked again
    /// until one of its own timers, a mesh delivery addressed to it, a
    /// block dispatched to it or the kernel-end flush wakes it; the slept
    /// cycles are credited at that moment, before whatever woke it touches
    /// it. Every way out of this function — pause, timeout, completion —
    /// wakes all cores first, so nothing observable afterwards (results,
    /// snapshots, progress reports) depends on the engine.
    ///
    /// `spec` must be the launch passed to
    /// [`begin_kernel`](Self::begin_kernel) (the spec itself is not stored,
    /// because launch initializers are closures).
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] on budget/progress exhaustion (measured from
    /// the original launch cycle, not the resume point);
    /// [`SimError::Accounting`] if a conservation check fails at kernel
    /// end. Either error abandons the in-progress kernel.
    ///
    /// # Panics
    ///
    /// Panics if no kernel is in progress.
    pub fn run_until(
        &mut self,
        spec: &LaunchSpec,
        stop: u64,
    ) -> Result<Option<KernelRun>, SimError> {
        let KernelProgress {
            start,
            mut next_block,
            mut blocks_done,
            mut end_flush,
            sm_stats_before,
        } = self.progress.take().expect("no kernel in progress; call begin_kernel first");

        let warps = spec.warps_per_block;
        let n_cores = self.cores.len() as u64;

        // Forward-progress watchdog state. The signature is re-sampled at an
        // explicit next-sample cycle so the steady-state loop pays one
        // comparison per cycle. Sampling every `min(PERIOD, window)` cycles
        // keeps windows shorter than the period meaningful (the old
        // power-of-two mask test silently quantized them up to 4096) and
        // gives the event engine a concrete cycle to clamp its clock jumps to.
        // Recomputed per slice: the sample grid only affects when a hang is
        // *detected*, never the simulated state, so slicing stays
        // cycle-identical to a straight-through run.
        const WATCHDOG_PERIOD: u64 = 4096;
        let watchdog_period = WATCHDOG_PERIOD.min(self.cfg.progress_window.max(1));
        let mut next_watchdog = self.cycle + watchdog_period;
        let mut progress_sig = self.progress_signature(blocks_done);
        let mut last_progress = self.cycle;

        // The event engine stops ticking cores that cannot act (see
        // `Core::try_sleep`) and jumps the clock when nothing at all can.
        // Full event tracing and self-profiling observe individual cycles,
        // so they force the dense loop.
        let event_engine = self.cfg.cycle_engine == CycleEngine::Event
            && self.trace.level() != TraceLevel::Full
            && !self.trace.self_profiling();

        loop {
            let now = self.cycle;
            if now >= stop {
                self.wake_all(now);
                self.progress = Some(KernelProgress {
                    start,
                    next_block,
                    blocks_done,
                    end_flush,
                    sm_stats_before,
                });
                return Ok(None);
            }
            let mut timeout =
                (now - start > self.cfg.max_cycles).then_some(TimeoutKind::CycleBudget);
            if timeout.is_none() && self.cfg.progress_window > 0 && now >= next_watchdog {
                next_watchdog = now + watchdog_period;
                let sig = self.progress_signature(blocks_done);
                if sig != progress_sig {
                    progress_sig = sig;
                    last_progress = now;
                } else if now - last_progress >= self.cfg.progress_window {
                    timeout = Some(TimeoutKind::NoForwardProgress);
                }
            }
            if let Some(kind) = timeout {
                // The report reads every SM's breakdown: credit sleepers
                // first so it is the dense loop's report.
                self.wake_all(now);
                let report = self.progress_report(
                    kind,
                    now - start,
                    now - last_progress,
                    blocks_done,
                    next_block,
                    spec.grid_blocks,
                );
                return Err(SimError::Timeout {
                    cycles: now - start,
                    blocks_done,
                    blocks_total: spec.grid_blocks,
                    report,
                });
            }

            let profiling = self.trace.self_profiling();
            let mut lap = profiling.then(Instant::now);
            // Lap the self-profiler: charge the time since the last lap to
            // `sub` and restart the clock. `lap` is None when profiling is
            // off, so the disabled path costs one branch per section.
            macro_rules! lap {
                ($sub:expr) => {
                    if let Some(t0) = lap {
                        let t1 = Instant::now();
                        self.trace.profile_add($sub, (t1 - t0).as_nanos() as u64);
                        lap = Some(t1);
                    }
                };
            }

            // 1. Mesh deliveries: requests to banks, responses to cores (a
            //    delivery wakes its core).
            self.mesh.deliver_into_traced(now, &mut self.scratch.deliveries, &mut self.trace);
            for (node, msg) in self.scratch.deliveries.drain(..) {
                if bank_bound(&msg) {
                    self.shared.deliver(now, node, msg);
                } else {
                    let core = &mut self.cores[node.0 as usize];
                    core.wake(now, &mut self.engine);
                    core.mem.deliver_traced(now, msg, &mut self.trace);
                }
            }
            lap!(Subsystem::MeshDeliver);

            // 2. Shared side.
            self.shared.tick_traced(now, &mut self.mesh, &mut self.gmem, &mut self.trace);
            lap!(Subsystem::Shared);

            // 3. Block dispatch: blocks map to SMs round-robin (block id
            //    modulo SM count), waiting for their home SM to have room.
            //    A dispatch wakes its SM.
            while next_block < spec.grid_blocks {
                let sm = (next_block % n_cores) as usize;
                let core = &mut self.cores[sm];
                if !core.sm.has_capacity(warps) {
                    break;
                }
                core.wake(now, &mut self.engine);
                let ctx = LaunchCtx { sm: sm as u8, slot: core.sm.peek_next_slot() };
                // One scratch buffer serves every dispatch: `add_block_from`
                // drains it into the SM, so no per-block Vec is allocated.
                self.scratch
                    .warp_inits
                    .extend((0..warps).map(|w| spec.init_warp(next_block, w, ctx)));
                core.sm.add_block_from(next_block, &mut self.scratch.warp_inits);
                next_block += 1;
            }
            lap!(Subsystem::Dispatch);

            // 4. Cores: memory unit first, then the SM issue stage. A
            //    sleeping core is passed over until its own timer is due.
            let mut ticked = 0;
            for c in &mut self.cores {
                if c.asleep {
                    if c.wake_at > now {
                        continue;
                    }
                    c.wake(now, &mut self.engine);
                }
                ticked += 1;
                c.mem.tick_traced(now, &mut self.trace);
                let still_ready = c.sm.tick_traced(
                    now,
                    &mut c.mem,
                    &mut self.gmem,
                    &mut c.collector,
                    &mut self.trace,
                );
                c.may_sleep = event_engine && !still_ready;
                c.sm.drain_completed_blocks(&mut self.scratch.completed);
            }
            self.engine.core_ticks += ticked;
            blocks_done += self.scratch.completed.len() as u64;
            self.scratch.completed.clear();
            lap!(Subsystem::Cores);

            // 5. Outgoing traffic (a sleeping core's outbox is empty), then
            //    the sleep decision: unless its issue stage left a warp
            //    that is certainly ready, a core asks its calendar once,
            //    now that the outbox is drained, whether anything can
            //    happen next cycle.
            let mut any_awake = false;
            for (i, c) in self.cores.iter_mut().enumerate() {
                if c.asleep {
                    continue;
                }
                c.mem.drain_outbox(&mut self.scratch.outbox);
                for (dst, msg) in self.scratch.outbox.drain(..) {
                    self.mesh.send_traced(
                        now,
                        NodeId(i as u8),
                        dst,
                        msg.size_bytes(),
                        msg,
                        &mut self.trace,
                    );
                }
                if c.may_sleep {
                    c.try_sleep(now);
                }
                any_awake |= !c.asleep;
            }
            lap!(Subsystem::Outbox);
            if profiling {
                self.trace.profile_end_cycle();
            }

            // 6. Kernel end: once every block has finished, kernel exit acts
            //    as a release — flush store buffers and write back stashes,
            //    then wait for full quiescence. Every core has been ticked
            //    (or slept) through `now`; the flush wakes it for `now + 1`.
            if !end_flush && blocks_done == spec.grid_blocks {
                for c in &mut self.cores {
                    c.wake(now + 1, &mut self.engine);
                    c.mem.begin_kernel_end_flush();
                }
                end_flush = true;
                any_awake = true;
            }
            if end_flush
                && self.mesh.in_flight() == 0
                && self.shared.quiescent()
                && self.cores.iter().all(|c| c.mem.drained())
            {
                self.cycle += 1;
                break;
            }
            self.cycle += 1;

            // 7. Global jump: with every core asleep and no block waiting
            //    for room, nothing happens before the earliest of the
            //    cores' own timers, the next mesh delivery and the shared
            //    side's next event. Jump the clock there; the sleepers are
            //    credited when they wake. A jump never crosses a watchdog
            //    sample, the cycle-budget boundary or `stop`, so timeout
            //    and pause behavior is identical to the dense loop's.
            if event_engine
                && !any_awake
                && !(next_block < spec.grid_blocks
                    && self.cores[(next_block % n_cores) as usize].sm.has_capacity(warps))
            {
                let cur = self.cycle;
                let mut target = self.cores.iter().map(|c| c.wake_at).min().unwrap_or(u64::MAX);
                target = target.min(self.mesh.next_delivery().unwrap_or(u64::MAX));
                target = target.min(self.shared.next_wake().unwrap_or(u64::MAX));
                if self.cfg.progress_window > 0 {
                    target = target.min(next_watchdog);
                }
                target = target.min(start.saturating_add(self.cfg.max_cycles).saturating_add(1));
                target = target.min(stop);
                if target > cur {
                    self.cycle = target;
                    self.engine.clock_jumps += 1;
                }
            }
        }
        self.wake_all(self.cycle);

        // Always-on conservation check: every classified cycle must be
        // accounted for before the numbers are reported anywhere.
        for (i, c) in self.cores.iter().enumerate() {
            c.collector.validate().map_err(|error| SimError::Accounting { sm: i as u8, error })?;
        }

        // Gather results.
        let per_sm: Vec<StallBreakdown> =
            self.cores.iter().map(|c| c.collector.clone().finish()).collect();
        let breakdown: StallBreakdown = per_sm.iter().sum();
        let sm_stats: Vec<SmStats> = self.cores.iter().map(|c| *c.sm.stats()).collect();
        let instructions = sm_stats
            .iter()
            .zip(&sm_stats_before)
            .map(|(a, b)| a.instructions - b.instructions)
            .sum();
        let run = KernelRun {
            cycles: self.cycle - start,
            breakdown,
            per_sm,
            sm_stats,
            mem_stats: self.cores.iter().map(|c| *c.mem.stats()).collect(),
            l2_stats: *self.shared.stats(),
            noc_stats: *self.mesh.stats(),
            instructions,
            timelines: self.cores.iter_mut().map(|c| c.collector.take_epochs()).collect(),
            warp_profiles: self.cores.iter().map(|c| c.sm.warp_profiles().to_vec()).collect(),
        };
        for c in &mut self.cores {
            c.mem.reset_for_kernel();
        }
        Ok(Some(run))
    }

    /// Checkpoint format version, stored in every snapshot.
    pub const SNAPSHOT_FORMAT: u64 = 1;

    /// Serialize the entire machine — functional memory, mesh traffic, L2
    /// and DRAM state, every core's memory unit, SM, and stall collector,
    /// plus any mid-kernel execution state — as a gsi-json value.
    ///
    /// Snapshots are only meaningful at a cycle boundary: take them between
    /// [`run_until`](Self::run_until) slices (or between kernels). The
    /// trace buffer and the static-analysis report are diagnostics, not
    /// machine state, and are excluded; the launch spec is excluded too
    /// (initializers are closures), so [`restore`](Self::restore) re-takes
    /// it and validates it against the recorded program disassembly.
    ///
    /// The encoding is canonical: snapshotting the same machine state twice
    /// produces byte-identical compact JSON.
    pub fn snapshot(&self) -> gsi_json::Value {
        use gsi_json::{ToJson, Value};
        debug_assert!(
            self.cores.iter().all(|c| !c.asleep),
            "a core is asleep outside run_until: its slept cycles are not yet credited"
        );
        let program = match self.cores.first().and_then(|c| c.sm.program()) {
            Some(p) => Value::Str(gsi_isa::asm::disassemble(p)),
            None => Value::Null,
        };
        let cores: Vec<Value> = self
            .cores
            .iter()
            .map(|c| {
                gsi_json::obj! {
                    "sm" => c.sm.snapshot(),
                    "mem" => c.mem.snapshot(),
                    "collector" => c.collector.snapshot()
                }
            })
            .collect();
        gsi_json::obj! {
            "format" => Self::SNAPSHOT_FORMAT,
            "config" => self.cfg.to_json(),
            "cycle" => self.cycle,
            "profiling" => self.profiling,
            "chaos_plan" => self.chaos_plan.to_json(),
            "program" => program,
            "progress" => self.progress.to_json(),
            "gmem" => self.gmem.snapshot(),
            "mesh" => self.mesh.snapshot(),
            "shared" => self.shared.snapshot(),
            "cores" => Value::Array(cores)
        }
    }

    /// Rebuild a machine from a [`snapshot`](Self::snapshot).
    ///
    /// `spec` must be the launch the snapshot was taken under (or the one
    /// about to be resumed): its program is validated against the
    /// snapshot's recorded disassembly and re-installed, because compiled
    /// programs and launch closures do not round-trip through JSON. Resume
    /// with [`run_until`](Self::run_until) when the snapshot was mid-kernel.
    ///
    /// # Errors
    ///
    /// Fails on a format-version mismatch, a program mismatch, or any
    /// malformed / geometry-incompatible component state.
    pub fn restore(v: &gsi_json::Value, spec: &LaunchSpec) -> Result<Self, gsi_json::JsonError> {
        use gsi_json::{FromJson, JsonError, Value};
        let format: u64 = v.read("format")?;
        if format != Self::SNAPSHOT_FORMAT {
            return Err(JsonError::new(format!(
                "unsupported checkpoint format {format} (this build reads format {})",
                Self::SNAPSHOT_FORMAT
            )));
        }
        let cfg = crate::config::SystemConfig::from_json(v.req("config")?)?;
        let mut sim = Simulator::new(cfg);
        sim.cycle = v.read("cycle")?;
        sim.profiling = v.read("profiling")?;
        let plan = FaultPlan::from_json(v.req("chaos_plan")?)?;
        sim.set_chaos(&plan);
        let program = match v.req("program")? {
            Value::Null => None,
            Value::Str(text) => Some(text.as_str()),
            other => return Err(JsonError::expected("program text or null", other)),
        };
        if let Some(text) = program {
            if text != gsi_isa::asm::disassemble(&spec.program) {
                return Err(JsonError::new(
                    "checkpoint program does not match the provided launch spec".to_string(),
                ));
            }
        }
        sim.gmem.restore(v.req("gmem")?)?;
        sim.mesh.restore(v.req("mesh")?)?;
        sim.shared.restore(v.req("shared")?)?;
        let cores = match v.req("cores")? {
            Value::Array(cores) => cores,
            other => return Err(JsonError::expected("array", other)),
        };
        if cores.len() != sim.cores.len() {
            return Err(JsonError::new(format!(
                "checkpoint has {} cores, the configuration builds {}",
                cores.len(),
                sim.cores.len()
            )));
        }
        for (core, cv) in sim.cores.iter_mut().zip(cores) {
            if program.is_some() {
                core.sm.set_program(spec.program.clone());
            }
            core.sm.restore(cv.req("sm")?)?;
            core.mem.restore(cv.req("mem")?)?;
            core.collector.restore(cv.req("collector")?)?;
        }
        sim.progress = Option::<KernelProgress>::from_json(v.req("progress")?)?;
        Ok(sim)
    }
}

/// Statically analyze a launch the way the simulator's pre-flight gate
/// does (without a baseline); see [`analyze_launch_with`].
pub fn analyze_launch(spec: &LaunchSpec, cfg: &SystemConfig) -> AnalysisReport {
    analyze_launch_with(spec, cfg, None, true)
}

/// Statically analyze a launch the way the simulator's pre-flight gate
/// does: probe the launch initializer over a sample of (block, warp, SM,
/// slot) placements, fit per-register values to an affine model in the
/// warp and block ids ([`EntryState::fit`]), then run
/// [`gsi_analyze::analyze`] with the system's scratchpad size, the
/// launch geometry, and the protocol-derived race severity. `baseline`,
/// when given, suppresses explicitly accepted findings from the gate's
/// counts; `races: false` skips the whole-scenario race pass (the other
/// checks still run).
///
/// The block and warp axes are probed at `{0, 1, last}`: the unit steps
/// recover the per-axis coefficients, the far corner (and every other
/// probe) validates the fit. SM and block-slot placements are probed at
/// their corners too, so placement-dependent register values defeat the
/// validation and degrade soundly to the joined envelope.
pub fn analyze_launch_with(
    spec: &LaunchSpec,
    cfg: &SystemConfig,
    baseline: Option<&Baseline>,
    races: bool,
) -> AnalysisReport {
    let geom = Geom {
        warps_per_block: spec.warps_per_block.max(1) as u64,
        grid_blocks: spec.grid_blocks.max(1),
    };
    let blocks = axis3(spec.grid_blocks.saturating_sub(1));
    let warps = axis3(spec.warps_per_block.saturating_sub(1) as u64);
    let sms = axis2(cfg.gpu_cores.saturating_sub(1) as u64);
    let slots = axis2(cfg.sm.max_blocks.saturating_sub(1) as u64);
    let mut inits: Vec<(u64, u64, WarpInit)> = Vec::new();
    for &b in &blocks {
        for &w in &warps {
            for &s in &sms {
                for &l in &slots {
                    let ctx = LaunchCtx { sm: s as u8, slot: l as usize };
                    inits.push((b, w, spec.init_warp(b, w as usize, ctx)));
                }
            }
        }
    }
    let probes: Vec<EntryProbe<'_>> = inits
        .iter()
        .map(|(b, w, i)| EntryProbe { block: *b, warp: *w, regs: &i.regs, set: i.set_mask })
        .collect();
    let opts = AnalyzeOptions {
        entry: EntryState::fit(&probes, geom),
        scratch_bytes: Some(cfg.mem.scratch_bytes),
        warps_per_block: spec.warps_per_block,
        grid_blocks: spec.grid_blocks,
        protocol: match cfg.mem.protocol {
            gsi_mem::Protocol::DeNovo => ProtocolClass::DeNovo,
            gsi_mem::Protocol::GpuCoherence => ProtocolClass::GpuCoherence,
        },
        races,
        baseline: baseline.cloned(),
    };
    gsi_analyze::analyze(&spec.program, &opts)
}

/// The `{0, 1, hi}` sample of `0..=hi` (deduplicated, ascending).
fn axis3(hi: u64) -> Vec<u64> {
    let mut v = vec![0];
    if hi >= 1 {
        v.push(1);
    }
    if hi > 1 {
        v.push(hi);
    }
    v
}

/// The `{0, hi}` sample of `0..=hi` (deduplicated).
fn axis2(hi: u64) -> Vec<u64> {
    if hi == 0 {
        vec![0]
    } else {
        vec![0, hi]
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use gsi_core::StallKind;
    use gsi_isa::{MemSem, Operand, ProgramBuilder, Reg};
    use gsi_mem::Protocol;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::paper().with_gpu_cores(2)
    }

    #[test]
    fn empty_kernel_completes() {
        let mut b = ProgramBuilder::new("empty");
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut sim = Simulator::new(tiny_cfg());
        let run = sim.run_kernel(&spec).unwrap();
        assert!(run.cycles >= 1);
        assert_eq!(run.instructions, 1);
    }

    #[test]
    fn stores_become_visible_after_kernel() {
        let mut b = ProgramBuilder::new("store");
        b.st_global(Operand::Imm(99), Reg(1), 0);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 4, 1)
            .with_init(|w, block, _, _| w.set_uniform(1, 0x2000 + block * 8));
        let mut sim = Simulator::new(tiny_cfg());
        sim.run_kernel(&spec).unwrap();
        for blk in 0..4 {
            assert_eq!(sim.gmem().read_word(0x2000 + blk * 8), 99);
        }
    }

    #[test]
    fn loads_read_initialized_memory() {
        let mut b = ProgramBuilder::new("load");
        b.ld_global(Reg(2), Reg(1), 0);
        b.addi(Reg(2), Reg(2), 1);
        b.st_global(Reg(2), Reg(1), 8);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1)
            .with_init(|w, _, _, _| w.set_uniform(1, 0x3000));
        let mut sim = Simulator::new(tiny_cfg());
        sim.gmem_mut().write_word(0x3000, 41);
        let run = sim.run_kernel(&spec).unwrap();
        assert_eq!(sim.gmem().read_word(0x3008), 42);
        // The load-use gap appears as memory data stalls serviced at main
        // memory (cold caches).
        assert!(run.breakdown.mem_data_cycles(gsi_core::MemDataCause::MainMemory) > 0);
    }

    #[test]
    fn breakdown_partitions_total_cycles() {
        let mut b = ProgramBuilder::new("mix");
        b.ld_global(Reg(2), Reg(1), 0);
        b.addi(Reg(3), Reg(2), 1);
        b.st_global(Reg(3), Reg(1), 0);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 2).with_init(|w, block, warp, _| {
            w.set_uniform(1, 0x4000 + block * 0x100 + warp as u64 * 0x40)
        });
        let mut sim = Simulator::new(tiny_cfg());
        let run = sim.run_kernel(&spec).unwrap();
        // Per-SM breakdown totals equal the kernel cycle count (every SM is
        // classified every cycle).
        for (i, b) in run.per_sm.iter().enumerate() {
            assert_eq!(b.total_cycles(), run.cycles, "sm {i}");
        }
        assert_eq!(run.breakdown.total_cycles(), run.cycles * 2);
    }

    #[test]
    fn atomics_serialize_across_sms() {
        // Both SMs atomically increment the same counter many times.
        let mut b = ProgramBuilder::new("count");
        b.ldi(Reg(1), 0x5000);
        b.ldi(Reg(4), 10);
        let top = b.here();
        b.atom_add(Reg(2), Reg(1), Operand::Imm(1), MemSem::Relaxed);
        // Wait for the result so increments are paced (and counted).
        b.addi(Reg(3), Reg(2), 0);
        b.subi(Reg(4), Reg(4), 1);
        b.bra_nz(Reg(4), top);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 1);
        let mut sim = Simulator::new(tiny_cfg());
        sim.run_kernel(&spec).unwrap();
        assert_eq!(sim.gmem().read_word(0x5000), 20);
    }

    #[test]
    fn spin_lock_mutual_exclusion_across_sms() {
        // Classic test-and-set lock protecting a non-atomic counter.
        let lock = 0x6000u64;
        let counter = 0x6100u64;
        let mut b = ProgramBuilder::new("lock");
        b.ldi(Reg(1), lock);
        b.ldi(Reg(2), counter);
        b.ldi(Reg(6), 5); // iterations
        let loop_top = b.here();
        let acquire = b.here();
        b.atom_cas(Reg(3), Reg(1), Operand::Imm(0), Operand::Imm(1), MemSem::Acquire);
        b.bra_nz(Reg(3), acquire); // spin until CAS returns 0
        b.ld_global(Reg(4), Reg(2), 0); // critical section: counter += 1
        b.addi(Reg(4), Reg(4), 1);
        b.st_global(Reg(4), Reg(2), 0);
        b.atom_store(Reg(1), Operand::Imm(0), MemSem::Release); // unlock
        b.subi(Reg(6), Reg(6), 1);
        b.bra_nz(Reg(6), loop_top);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 1);
        let mut sim = Simulator::new(tiny_cfg());
        let run = sim.run_kernel(&spec).unwrap();
        assert_eq!(sim.gmem().read_word(counter), 10, "no lost updates");
        assert_eq!(sim.gmem().read_word(lock), 0, "lock released");
        assert!(
            run.breakdown.cycles(StallKind::Synchronization) > 0,
            "lock contention shows as synchronization stalls"
        );
    }

    #[test]
    fn denovo_and_gpu_coherence_agree_functionally() {
        let mut results = Vec::new();
        for protocol in [Protocol::GpuCoherence, Protocol::DeNovo] {
            let mut b = ProgramBuilder::new("func");
            b.ld_global(Reg(2), Reg(1), 0);
            b.alu(gsi_isa::AluOp::Mul, Reg(2), Reg(2), Operand::Imm(3));
            b.st_global(Reg(2), Reg(1), 0);
            b.exit();
            let spec = LaunchSpec::new(b.build().unwrap(), 4, 2).with_init(|w, blk, wp, _| {
                w.set_per_lane(1, move |l| 0x7000 + blk * 0x400 + wp as u64 * 0x100 + l as u64 * 8);
            });
            let mut sim = Simulator::new(tiny_cfg().with_protocol(protocol));
            for a in (0x7000..0x8000).step_by(8) {
                sim.gmem_mut().write_word(a, a);
            }
            sim.run_kernel(&spec).unwrap();
            let snapshot: Vec<u64> =
                (0x7000..0x8000).step_by(8).map(|a| sim.gmem().read_word(a)).collect();
            results.push(snapshot);
        }
        assert_eq!(results[0], results[1], "protocols must agree on values");
    }

    #[test]
    fn timeout_reports_progress() {
        // A kernel that spins forever on a lock nobody releases.
        let mut b = ProgramBuilder::new("hang");
        b.ldi(Reg(1), 0x8000);
        let spin = b.here();
        b.atom_cas(Reg(2), Reg(1), Operand::Imm(0), Operand::Imm(1), MemSem::Acquire);
        b.jmp_to(spin);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut cfg = tiny_cfg();
        cfg.max_cycles = 5_000;
        let mut sim = Simulator::new(cfg);
        sim.gmem_mut().write_word(0x8000, 1); // lock already held
        let err = sim.run_kernel(&spec).unwrap_err();
        assert!(err.to_string().contains("timed out"));
        match err {
            SimError::Timeout { blocks_done, blocks_total, .. } => {
                assert_eq!(blocks_done, 0);
                assert_eq!(blocks_total, 1);
            }
            other => panic!("expected timeout, got {other}"),
        }
    }

    #[test]
    fn full_tracing_records_events_across_subsystems() {
        let mut b = ProgramBuilder::new("traced");
        b.ld_global(Reg(2), Reg(1), 0);
        b.addi(Reg(3), Reg(2), 1);
        b.st_global(Reg(3), Reg(1), 0);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 2).with_init(|w, block, warp, _| {
            w.set_uniform(1, 0x4000 + block * 0x100 + warp as u64 * 0x40)
        });
        let mut sim = Simulator::new(tiny_cfg());
        sim.set_trace_level(TraceLevel::Full);
        sim.set_self_profiling(true);
        let run = sim.run_kernel(&spec).unwrap();

        let trace = sim.trace();
        // Each layer contributed events: issue stage, request lifetimes,
        // store buffer, and the mesh.
        for kind in ["issue_verdict", "req_issue", "req_fill", "store_record", "mesh_send"] {
            assert!(trace.count(kind) > 0, "no {kind} events recorded");
        }
        // The loads completed requests with a measured end-to-end latency.
        let completed: Vec<_> = trace.completed().collect();
        assert!(!completed.is_empty(), "no request lifetimes closed");
        assert!(completed.iter().all(|r| r.total_latency() > 0));
        // Self-profiling attributed wall time to every cycle of the run.
        assert_eq!(trace.profile().cycles(), run.cycles);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let mut b = ProgramBuilder::new("quiet");
        b.ld_global(Reg(2), Reg(1), 0);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1)
            .with_init(|w, _, _, _| w.set_uniform(1, 0x3000));
        let mut sim = Simulator::new(tiny_cfg());
        sim.run_kernel(&spec).unwrap();
        assert_eq!(sim.trace().counts().iter().sum::<u64>(), 0);
        assert_eq!(sim.trace().events().count(), 0);
    }

    #[test]
    fn profiling_off_records_nothing() {
        let mut b = ProgramBuilder::new("p");
        b.ldi(Reg(1), 1);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut sim = Simulator::new(tiny_cfg());
        sim.set_profiling(false);
        let run = sim.run_kernel(&spec).unwrap();
        assert_eq!(run.breakdown.total_cycles(), 0);
        assert!(run.cycles > 0, "timing still simulated");
    }

    #[test]
    fn deny_gate_refuses_a_broken_kernel() {
        let mut b = ProgramBuilder::new("bad");
        b.st_global(Reg(1), Reg(2), 0); // r1/r2 never initialized
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut sim = Simulator::new(tiny_cfg());
        let err = sim.run_kernel(&spec).unwrap_err();
        let SimError::Analysis { kernel, errors, report } = err else {
            panic!("expected an analysis refusal");
        };
        assert_eq!(kernel, "bad");
        assert!(errors >= 2, "r1 and r2 are both uninitialized");
        assert_eq!(report.error_count(), errors);
        assert_eq!(sim.last_analysis().unwrap(), report.as_ref());
        assert_eq!(sim.cycle(), 0, "no cycle was simulated");
    }

    #[test]
    fn warn_gate_runs_but_keeps_the_report() {
        let mut b = ProgramBuilder::new("warned");
        b.st_global(Operand::Imm(7), Reg(1), 0); // r1 uninitialized (zero)
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut sim = Simulator::new(tiny_cfg().with_analysis_gate(AnalysisGate::Warn));
        sim.run_kernel(&spec).unwrap();
        let report = sim.last_analysis().unwrap();
        assert!(report.error_count() > 0, "{}", report.render());
    }

    #[test]
    fn analyze_launch_sees_initializer_registers() {
        let mut b = ProgramBuilder::new("init");
        b.st_global(Reg(1), Reg(2), 0);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 1).with_init(|w, block, _, _| {
            w.set_uniform(1, block);
            w.set_uniform(2, 0x1000 + block * 8);
        });
        let report = analyze_launch(&spec, &tiny_cfg());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn blocks_dispatch_round_robin_by_id() {
        use std::sync::{Arc, Mutex};
        let mut b = ProgramBuilder::new("t");
        b.exit();
        let placements: Arc<Mutex<Vec<(u64, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = placements.clone();
        let spec = LaunchSpec::new(b.build().unwrap(), 6, 1).with_init(move |_, block, _, ctx| {
            sink.lock().unwrap().push((block, ctx.sm));
        });
        // Gate off: the pre-flight analyzer probes the init closure with
        // synthetic placements, which would pollute the recording.
        let mut sim = Simulator::new(tiny_cfg().with_analysis_gate(AnalysisGate::Off));
        sim.run_kernel(&spec).unwrap();
        let got = placements.lock().unwrap().clone();
        for (block, sm) in got {
            assert_eq!(sm as u64, block % 2, "block {block} must land on its home SM");
        }
    }

    #[test]
    fn block_slots_are_reused_after_completion() {
        use std::sync::{Arc, Mutex};
        // 1 SM limited to 2 resident blocks: slots 0 and 1 must be recycled
        // across the 6-block grid.
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 3);
        let top = b.here();
        b.subi(Reg(1), Reg(1), 1);
        b.bra_nz(Reg(1), top);
        b.exit();
        let slots: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = slots.clone();
        let spec = LaunchSpec::new(b.build().unwrap(), 6, 1).with_init(move |_, _, _, ctx| {
            sink.lock().unwrap().push(ctx.slot);
        });
        let mut cfg = SystemConfig::paper().with_gpu_cores(1).with_analysis_gate(AnalysisGate::Off);
        cfg.sm.max_blocks = 2;
        let mut sim = Simulator::new(cfg);
        sim.run_kernel(&spec).unwrap();
        let got = slots.lock().unwrap().clone();
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|&s| s < 2), "only two hardware slots exist: {got:?}");
        assert!(got.contains(&0) && got.contains(&1));
    }

    #[test]
    fn timeline_epochs_partition_the_run() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 20);
        let top = b.here();
        b.subi(Reg(1), Reg(1), 1);
        b.bra_nz(Reg(1), top);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 1, 1);
        let mut sim = Simulator::new(tiny_cfg());
        sim.set_timeline_epoch(16);
        let run = sim.run_kernel(&spec).unwrap();
        assert_eq!(run.timelines.len(), 2, "one series per SM");
        for series in &run.timelines {
            let total: u64 = series.iter().map(|e| e.total_cycles()).sum();
            assert_eq!(total, run.cycles);
        }
    }

    #[test]
    fn warp_profiles_are_returned_per_sm() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 1);
        b.exit();
        let spec = LaunchSpec::new(b.build().unwrap(), 2, 2);
        let mut sim = Simulator::new(tiny_cfg());
        let run = sim.run_kernel(&spec).unwrap();
        assert_eq!(run.warp_profiles.len(), 2);
        let total_instr: u64 = run.warp_profiles.iter().flatten().map(|p| p.instructions).sum();
        assert_eq!(total_instr, run.instructions);
    }

    #[test]
    fn multi_kernel_memory_persistence() {
        let mut store = ProgramBuilder::new("w");
        store.st_global(Operand::Imm(7), Reg(1), 0);
        store.exit();
        let mut load = ProgramBuilder::new("r");
        load.ld_global(Reg(2), Reg(1), 0);
        load.st_global(Reg(2), Reg(1), 8);
        load.exit();
        let mut sim = Simulator::new(tiny_cfg());
        let s1 = LaunchSpec::new(store.build().unwrap(), 1, 1)
            .with_init(|w, _, _, _| w.set_uniform(1, 0x9000));
        let s2 = LaunchSpec::new(load.build().unwrap(), 1, 1)
            .with_init(|w, _, _, _| w.set_uniform(1, 0x9000));
        sim.run_kernel(&s1).unwrap();
        sim.run_kernel(&s2).unwrap();
        assert_eq!(sim.gmem().read_word(0x9008), 7);
    }
}
