//! The SM core: completions, the GSI-instrumented issue stage, and
//! functional execution.

use crate::block::{BlockInit, BlockState};
use crate::config::SmConfig;
use crate::scheduler::Scheduler;
use crate::warp::Warp;
use gsi_blame::{BlameCollector, UNKNOWN_PC};
use gsi_core::{
    classify_instruction, judge_cycle_scratch, InstrHazards, MemDataCause, StallCollector,
    StallKind,
};
use gsi_isa::{eval_alu, AtomOp, BranchCond, ExecUnit, Instr, Operand, Program, Reg};
use gsi_mem::{
    AtomKind, Completion, CoreMemUnit, DmaDirection, DmaTransfer, GlobalMem, LsuReject,
    StashMapping,
};
use gsi_trace::{NullSink, TraceEvent as Ev, TraceSink};

/// Execution statistics for one SM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Cycles ticked.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles in which at least one instruction issued.
    pub issued_cycles: u64,
    /// Global/local loads issued.
    pub loads: u64,
    /// Global/local stores issued.
    pub stores: u64,
    /// Atomics issued.
    pub atomics: u64,
    /// Barriers executed (per warp).
    pub barriers: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Divergent branches executed (both sides ran serially).
    pub divergent_branches: u64,
}

/// A point-in-time diagnostic view of one warp's stall state, taken by the
/// simulator's forward-progress watchdog when a kernel stops making
/// progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Warp id within the SM.
    pub warp: usize,
    /// Current program counter.
    pub pc: usize,
    /// False once the warp has executed `exit`.
    pub active: bool,
    /// Number of destination registers with outstanding load lines.
    pub pending_load_regs: u8,
    /// An acquire/release atomic is in flight.
    pub sync_pending: bool,
    /// Waiting at a thread-block barrier.
    pub at_barrier: bool,
    /// Last cycle this warp issued an instruction.
    pub last_issue: u64,
}

impl WarpSnapshot {
    /// A one-word description of what the warp is waiting on.
    pub fn stall_state(&self) -> &'static str {
        if !self.active {
            "exited"
        } else if self.at_barrier {
            "barrier"
        } else if self.sync_pending {
            "sync"
        } else if self.pending_load_regs > 0 {
            "load-wait"
        } else {
            "issuable"
        }
    }
}

/// Per-warp issue-stage profile: how often Algorithm 1 classified this
/// warp's next instruction into each category. The paper computes these
/// per-instruction classifications as the input to Algorithm 2; keeping
/// them per warp answers "which warps stall, and why" — useful when a few
/// straggler warps dominate a kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpProfile {
    /// Instructions this warp issued.
    pub instructions: u64,
    /// Cycles this warp was considered, by Algorithm-1 classification
    /// (indexed by [`StallKind::index`]).
    pub considered: [u64; 8],
}

gsi_json::json_struct!(SmStats {
    cycles,
    instructions,
    issued_cycles,
    loads,
    stores,
    atomics,
    barriers,
    taken_branches,
    divergent_branches,
});

gsi_json::json_struct!(WarpProfile { instructions, considered });

impl WarpProfile {
    /// Cycles this warp's instruction was classified as `kind`.
    pub fn classified(&self, kind: StallKind) -> u64 {
        self.considered[kind.index()]
    }

    /// Total cycles this warp was considered by the issue stage.
    pub fn total_considered(&self) -> u64 {
        self.considered.iter().sum()
    }
}

/// One entry of the SM's instruction trace ring buffer (debugging aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle the instruction issued.
    pub cycle: u64,
    /// Warp that issued it.
    pub warp: usize,
    /// Program counter.
    pub pc: usize,
    /// Disassembly of the instruction.
    pub text: String,
}

/// Reusable buffers for the per-cycle issue stage. Capacities reach a
/// steady state after the first few cycles, after which the hot path
/// performs no heap allocation (see `tests/alloc_free.rs`).
#[derive(Debug, Default)]
struct IssueScratch {
    /// Per-warp last-issue cycles, rebuilt each cycle for the scheduler.
    last_issue: Vec<u64>,
    /// Warp consideration order produced by the scheduler.
    order: Vec<usize>,
    /// Algorithm-1 hazard records for the considered instructions.
    considered: Vec<InstrHazards>,
    /// Causal instruction per considered entry, aligned with `considered`:
    /// the pc the cycle's verdict is blamed on when its kind wins.
    considered_pc: Vec<u32>,
    /// Algorithm-2 intermediate classifications.
    kinds: Vec<StallKind>,
    /// Completions drained from the memory unit at the top of the cycle.
    completions: Vec<Completion>,
    /// `(lane, byte address)` pairs of the active lanes of a memory access.
    pairs: Vec<(usize, u64)>,
    /// The bare addresses of `pairs`, in the shape the LSU expects.
    addrs: Vec<u64>,
    /// Frozen `(hazards, profile credit, causal pc)` records for a skipped
    /// stretch, one per live warp in live-list order (so a window costs
    /// O(resident), not O(warps ever dispatched)). The causal pc is stable
    /// across the window for the same reason the hazards are: the
    /// last-writer tables only change on an issue or a fill, and the
    /// caller guarantees neither happens inside it.
    skip_hazards: Vec<(InstrHazards, bool, u32)>,
}

/// What an SM can do next, computed by [`SmCore::next_wake`] without
/// mutating any state — the SM's entry in the event calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmWake {
    /// Some warp can issue this cycle (or a reconvergence pop is pending):
    /// the SM must be ticked densely.
    Busy,
    /// No warp can issue before this cycle, when a control-refetch or
    /// compute-latency timer expires.
    At(u64),
    /// Every wait is completion-driven: only a memory or mesh event can
    /// unblock the SM (or it has no active warps at all).
    Idle,
}

/// One streaming multiprocessor.
///
/// Drive it once per GPU cycle with [`tick`](Self::tick) after the memory
/// side has been ticked; the stall verdict for the cycle is recorded into
/// the provided [`StallCollector`].
#[derive(Debug)]
pub struct SmCore {
    id: u8,
    cfg: SmConfig,
    program: Option<Program>,
    warps: Vec<Warp>,
    blocks: Vec<BlockState>,
    scheduler: Scheduler,
    completed_blocks: Vec<u64>,
    stats: SmStats,
    profiles: Vec<WarpProfile>,
    trace_capacity: usize,
    trace: std::collections::VecDeque<TraceEntry>,
    scratch: IssueScratch,
    /// Indices of warps that have not exited, ascending. Swept at the top
    /// of each tick; a warp exiting mid-cycle lingers until the next sweep,
    /// which is harmless because every consumer re-checks `Warp::active`.
    /// Warp slots themselves are never recycled (warp ids are stable for
    /// profiles and timelines), so a long grid streaming hundreds of blocks
    /// through one SM grows `warps` without bound — this list keeps the
    /// per-cycle scans O(resident) instead of O(ever dispatched).
    live: Vec<usize>,
    /// Exact count of warps with `active == true`, maintained at the one
    /// deactivation site. The dispatcher's capacity check needs this every
    /// cycle and must not pay an O(ever) count.
    live_count: usize,
    /// Indices of blocks not yet reaped, in dispatch order.
    resident: Vec<usize>,
    /// Stall root-cause attribution (disabled by default). Lives here so
    /// attribution sees exactly what the issue stage sees, in both the
    /// dense and event-driven engines.
    blame: BlameCollector,
}

impl SmCore {
    /// Create SM number `id`.
    pub fn new(id: u8, cfg: SmConfig) -> Self {
        SmCore {
            id,
            cfg,
            program: None,
            warps: Vec::new(),
            blocks: Vec::new(),
            scheduler: Scheduler::default(),
            completed_blocks: Vec::new(),
            stats: SmStats::default(),
            profiles: Vec::new(),
            trace_capacity: 0,
            trace: std::collections::VecDeque::new(),
            scratch: IssueScratch::default(),
            live: Vec::new(),
            live_count: 0,
            resident: Vec::new(),
            blame: BlameCollector::new(),
        }
    }

    /// Enable or disable stall root-cause attribution. Off by default; a
    /// disabled collector records nothing, keeping the cycle loop
    /// allocation-free.
    pub fn set_blame_enabled(&mut self, enabled: bool) {
        self.blame.set_enabled(enabled);
    }

    /// This SM's blame collector (accumulates across kernel launches so
    /// multi-launch workloads like BFS report whole-run attribution).
    pub fn blame(&self) -> &BlameCollector {
        &self.blame
    }

    /// The installed kernel, if any.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// Keep a ring buffer of the last `capacity` issued instructions (0
    /// disables tracing, the default). Tracing is a debugging aid: when a
    /// kernel misbehaves, the tail of the trace shows exactly what each
    /// warp last executed.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
        self.trace.clear();
    }

    /// The trace ring buffer, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter()
    }

    /// This SM's index.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// Install the kernel and clear all resident state (new launch).
    pub fn set_program(&mut self, program: Program) {
        self.program = Some(program);
        self.warps.clear();
        self.blocks.clear();
        self.completed_blocks.clear();
        self.scheduler = Scheduler::default();
        self.profiles.clear();
        self.live.clear();
        self.live_count = 0;
        self.resident.clear();
    }

    /// Per-warp issue-stage profiles for the current kernel, in warp-id
    /// order.
    pub fn warp_profiles(&self) -> &[WarpProfile] {
        &self.profiles
    }

    /// Point-in-time stall-state snapshots of every resident warp, appended
    /// to `out` in warp-id order. Read by the simulator's forward-progress
    /// watchdog when a run stops retiring instructions; not on the hot path.
    pub fn warp_snapshots(&self, out: &mut Vec<WarpSnapshot>) {
        for (id, w) in self.warps.iter().enumerate() {
            out.push(WarpSnapshot {
                warp: id,
                pc: w.pc,
                active: w.active,
                pending_load_regs: w.pending_loads.iter().filter(|&&n| n > 0).count() as u8,
                sync_pending: w.sync_pending,
                at_barrier: w.at_barrier,
                last_issue: w.last_issue,
            });
        }
    }

    /// Number of warps that have not exited.
    pub fn active_warps(&self) -> usize {
        debug_assert_eq!(self.live_count, self.warps.iter().filter(|w| w.active).count());
        self.live_count
    }

    /// Number of resident, unfinished blocks.
    pub fn resident_blocks(&self) -> usize {
        debug_assert_eq!(self.resident.len(), self.blocks.iter().filter(|b| !b.done).count());
        self.resident.len()
    }

    /// True when no warp can ever issue again.
    pub fn is_idle(&self) -> bool {
        self.active_warps() == 0
    }

    /// Whether a block of `warps` warps can be accepted right now.
    pub fn has_capacity(&self, warps: usize) -> bool {
        self.resident_blocks() < self.cfg.max_blocks
            && self.active_warps() + warps <= self.cfg.max_warps
    }

    /// Accept a block for execution.
    ///
    /// # Panics
    ///
    /// Panics if no program is installed or capacity is exceeded (callers
    /// must check [`has_capacity`](Self::has_capacity)).
    pub fn add_block(&mut self, block: BlockInit) {
        let mut warps = block.warps;
        self.add_block_from(block.block_id, &mut warps);
    }

    /// [`add_block`](Self::add_block) draining the warps from a
    /// caller-owned buffer, so a dispatcher running inside the cycle loop
    /// can reuse one scratch `Vec` instead of collecting a fresh one per
    /// block. `warps` is left empty with its capacity intact.
    ///
    /// # Panics
    ///
    /// Panics if no program is installed or capacity is exceeded.
    pub fn add_block_from(&mut self, block_id: u64, warps: &mut Vec<crate::warp::WarpInit>) {
        assert!(self.program.is_some(), "no kernel installed");
        assert!(self.has_capacity(warps.len()), "SM over capacity");
        let block_idx = self.blocks.len();
        let slot = self.peek_next_slot();
        let mut warp_ids = Vec::with_capacity(warps.len());
        for init in warps.drain(..) {
            warp_ids.push(self.warps.len());
            self.live.push(self.warps.len());
            self.live_count += 1;
            self.warps.push(Warp::new(block_idx, init));
            self.profiles.push(WarpProfile::default());
        }
        self.blocks.push(BlockState::new(block_id, slot, warp_ids));
        self.resident.push(block_idx);
    }

    /// Serialize all execution state: warps, blocks, scheduler, statistics,
    /// profiles, and the blame collector. The installed program, the trace
    /// ring, and the issue scratch buffers are excluded — the program is
    /// validated separately by the simulator's checkpoint envelope, and the
    /// other two are debugging/memoization state a restored SM rebuilds.
    pub fn snapshot(&self) -> gsi_json::Value {
        use gsi_json::ToJson;
        gsi_json::obj! {
            "id" => self.id,
            "warps" => self.warps.to_json(),
            "blocks" => self.blocks.to_json(),
            "scheduler" => self.scheduler.to_json(),
            "completed_blocks" => self.completed_blocks.to_json(),
            "stats" => self.stats.to_json(),
            "profiles" => self.profiles.to_json(),
            "live" => self.live.to_json(),
            "live_count" => self.live_count,
            "resident" => self.resident.to_json(),
            "blame" => self.blame.snapshot()
        }
    }

    /// Restore onto an SM with the kernel already installed via
    /// [`set_program`](Self::set_program).
    ///
    /// # Errors
    ///
    /// Fails when the snapshot belongs to a different SM id or is
    /// malformed.
    pub fn restore(&mut self, v: &gsi_json::Value) -> Result<(), gsi_json::JsonError> {
        let id: u8 = v.read("id")?;
        if id != self.id {
            return Err(gsi_json::JsonError::new(format!(
                "SM snapshot is for SM {id}, not SM {}",
                self.id
            )));
        }
        self.warps = v.read("warps")?;
        self.blocks = v.read("blocks")?;
        self.scheduler = v.read("scheduler")?;
        self.completed_blocks = v.read("completed_blocks")?;
        self.stats = v.read("stats")?;
        self.profiles = v.read("profiles")?;
        self.live = v.read("live")?;
        self.live_count = v.read("live_count")?;
        self.resident = v.read("resident")?;
        self.blame.restore(v.req("blame")?)?;
        self.trace.clear();
        Ok(())
    }

    /// The hardware block slot the next accepted block will occupy: the
    /// smallest slot not used by a resident block. Determines the block's
    /// scratchpad/stash partition.
    pub fn peek_next_slot(&self) -> usize {
        (0..)
            .find(|&s| !self.resident.iter().any(|&bi| self.blocks[bi].slot == s))
            .expect("unbounded range")
    }

    /// Pop the ids of blocks that finished since the last call.
    pub fn take_completed_blocks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed_blocks)
    }

    /// [`take_completed_blocks`](Self::take_completed_blocks) appending into
    /// a caller-provided buffer, preserving the internal queue's capacity so
    /// a per-cycle caller allocates nothing in steady state.
    pub fn drain_completed_blocks(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.completed_blocks);
    }

    /// Advance one cycle: retire completions, then run the issue stage and
    /// record the cycle's stall verdict.
    pub fn tick(
        &mut self,
        now: u64,
        mem: &mut CoreMemUnit,
        gmem: &mut GlobalMem,
        collector: &mut StallCollector,
    ) {
        self.tick_traced(now, mem, gmem, collector, &mut NullSink);
    }

    /// [`tick`](Self::tick), recording issue-stage and memory events into
    /// `sink`. Returns whether the issue stage left a warp behind that is
    /// certain to be ready next cycle — one that ran out of issue slots, or
    /// one whose instruction bounced off a structural hazard and retries.
    /// After such a cycle the SM is obviously still busy, so the event
    /// engine does not consult [`next_wake`](Self::next_wake) at all.
    pub fn tick_traced<S: TraceSink>(
        &mut self,
        now: u64,
        mem: &mut CoreMemUnit,
        gmem: &mut GlobalMem,
        collector: &mut StallCollector,
        sink: &mut S,
    ) -> bool {
        self.stats.cycles += 1;
        self.sweep_live();
        self.retire_completions(mem, collector);
        let still_ready = self.issue_stage(now, mem, gmem, collector, sink);
        self.scheduler.next_cycle(self.warps.len());
        self.reap_blocks();
        still_ready
    }

    /// Drop warps that exited since the last sweep from the live list.
    fn sweep_live(&mut self) {
        let warps = &self.warps;
        self.live.retain(|&w| warps[w].active);
    }

    /// What this SM can do at cycle `now`, without mutating any state: the
    /// per-warp gates of [`issue_stage`] re-evaluated read-only, in the
    /// same order. [`SmWake::Busy`] when any warp could issue (or attempt
    /// to — structural rejections still consume a cycle's worth of work)
    /// or a reconvergence pop is pending; otherwise the earliest timer
    /// (control refetch, compute latency) that could unblock a warp, or
    /// [`SmWake::Idle`] when every wait is completion-driven.
    pub fn next_wake(&self, now: u64) -> SmWake {
        let Some(program) = self.program.as_ref() else { return SmWake::Idle };
        let mut earliest: Option<u64> = None;
        let note = |t: u64, earliest: &mut Option<u64>| {
            *earliest = Some(earliest.map_or(t, |e| e.min(t)));
        };
        for &wi in &self.live {
            let w = &self.warps[wi];
            if !w.active {
                continue;
            }
            if now < w.ibuffer_ready_at {
                note(w.ibuffer_ready_at, &mut earliest);
                continue;
            }
            if w.sync_pending || w.at_barrier {
                continue; // unblocked only by a completion
            }
            // A pending reconvergence pop mutates warp state inside the
            // issue stage; that cycle cannot be summarized.
            if let Some(top) = w.simt_stack.last() {
                if w.pc == top.rpc {
                    return SmWake::Busy;
                }
            }
            let instr = program.fetch(w.pc).copied().unwrap_or(Instr::Exit);
            let srcs = instr.source_regs();
            let dest = instr.dest();
            if srcs.iter().chain(dest.as_ref()).any(|r| w.load_pending(r.0)) {
                continue; // unblocked only by a fill
            }
            let latest = srcs.iter().chain(dest.as_ref()).map(|r| w.ready_at[r.0 as usize]).max();
            match latest {
                Some(t) if t > now => note(t, &mut earliest),
                _ => return SmWake::Busy, // issuable right now
            }
        }
        match earliest {
            Some(t) => SmWake::At(t),
            None => SmWake::Idle,
        }
    }

    /// Advance `n` cycles in one step over a stretch in which no warp can
    /// issue — the bulk form of [`tick`](Self::tick), called by the event
    /// engine when it wakes a sleeping core to credit the cycles the core
    /// was not ticked for.
    ///
    /// The caller guarantees (via [`next_wake`](Self::next_wake) at the
    /// moment the core went to sleep, and by waking it before anything
    /// else touches it) that for every cycle in `[start, start + n)` each
    /// warp's Algorithm-1 classification is the one observable at `start`:
    /// no completions arrive, no timer expires inside the window, no block
    /// is dispatched, and no warp is issuable. Under those conditions this
    /// produces bit-identical collector state, statistics, and per-warp
    /// profiles to `n` individual ticks — including the round-robin
    /// rotation of the cycle verdict's detail fields, which is replayed
    /// per cycle from the frozen hazards.
    ///
    /// One call costs O(live warps) for GTO (O(n x live) for round-robin)
    /// and allocates nothing in steady state, however many warps the SM
    /// has retired: it runs once per sleep window, not once per kernel.
    pub fn skip_cycles(&mut self, start: u64, n: u64, collector: &mut StallCollector) {
        if n == 0 {
            return;
        }
        self.stats.cycles += n;
        self.sweep_live();
        // Freeze each live warp's hazard record once; it is constant across
        // the window. The credit flag mirrors the dense loop: control- and
        // sync-blocked warps bail out before the per-warp profile line.
        // `hazards[i]` belongs to warp `live[i]` (the sweep above left only
        // active warps in the list).
        let mut hazards = std::mem::take(&mut self.scratch.skip_hazards);
        hazards.clear();
        let program = self.program.as_ref().expect("program installed");
        for &wi in &self.live {
            let w = &self.warps[wi];
            debug_assert!(w.active, "swept live list holds an exited warp");
            let mut hz = InstrHazards::default();
            if start < w.ibuffer_ready_at {
                hz.control = true;
                hazards.push((hz, false, w.last_branch_pc));
                continue;
            }
            if w.sync_pending || w.at_barrier {
                hz.synchronization = true;
                hazards.push((hz, false, w.sync_pc));
                continue;
            }
            debug_assert!(
                w.simt_stack.last().is_none_or(|top| w.pc != top.rpc),
                "skipped a cycle with a pending reconvergence pop"
            );
            let instr = program.fetch(w.pc).copied().unwrap_or(Instr::Exit);
            let srcs = instr.source_regs();
            let dest = instr.dest();
            let mut cause_pc = UNKNOWN_PC;
            for r in srcs.iter().chain(dest.as_ref()) {
                if w.load_pending(r.0) {
                    hz.mem_data = w.blocking_req(r.0);
                    cause_pc = w.blocking_req_pc(r.0).unwrap_or(UNKNOWN_PC);
                    break;
                }
            }
            if hz.mem_data.is_none() {
                // Blame the operand that clears last: that choice is
                // invariant over the whole stall (earlier operands drop out
                // of the pending set, the latest one gates issue until the
                // end), so the dense loop and this frozen window agree.
                let mut latest = 0u64;
                for r in srcs.iter().chain(dest.as_ref()) {
                    if w.compute_pending(r.0, start) && w.ready_at[r.0 as usize] > latest {
                        hz.compute_data = true;
                        latest = w.ready_at[r.0 as usize];
                        cause_pc = w.reg_writer[r.0 as usize];
                    }
                }
            }
            debug_assert!(!hz.can_issue(), "skipped a cycle with an issuable warp");
            hazards.push((hz, true, cause_pc));
        }

        // Per-warp profile credit is order-independent: bulk-charge it.
        for (&wi, (hz, credit, _)) in self.live.iter().zip(&hazards) {
            if *credit {
                let kind = classify_instruction(hz);
                self.profiles[wi].considered[kind.index()] += n;
            }
        }

        let mut order = std::mem::take(&mut self.scratch.order);
        let mut considered = std::mem::take(&mut self.scratch.considered);
        let mut considered_pc = std::mem::take(&mut self.scratch.considered_pc);
        {
            let last_issue = &mut self.scratch.last_issue;
            last_issue.clear();
            last_issue.extend(self.live.iter().map(|&w| self.warps[w].last_issue));
        }
        let rounds = match self.cfg.scheduler {
            // GTO order is frozen while nothing issues: one verdict covers
            // the whole window.
            crate::config::SchedPolicy::Gto => 1,
            // Round-robin rotates the consideration order every cycle, and
            // the verdict's detail fields (blocking request, rejection
            // cause) come from the first matching warp in order — replay
            // the cheap part per cycle.
            crate::config::SchedPolicy::RoundRobin => n,
        };
        for _ in 0..rounds {
            self.scheduler.order_positions_into(
                self.cfg.scheduler,
                &self.live,
                &self.scratch.last_issue,
                &mut order,
            );
            considered.clear();
            considered_pc.clear();
            for &pos in &order {
                let (hz, _, pc) = hazards[pos];
                considered.push(hz);
                considered_pc.push(pc);
            }
            let verdict = judge_cycle_scratch(
                &self.cfg.cycle_priority,
                false,
                &considered,
                &mut self.scratch.kinds,
            );
            let per_round = if rounds == 1 { n } else { 1 };
            if self.blame.is_enabled() {
                let cause = verdict_cause_pc(&verdict, &self.scratch.kinds, &considered_pc);
                self.blame.record(verdict.kind, cause, verdict.blocking_request, per_round);
            }
            if rounds == 1 {
                collector.record_cycles(&verdict, n);
            } else {
                collector.record_cycle(&verdict);
                self.scheduler.next_cycle(self.warps.len());
            }
        }
        if rounds == 1 {
            self.scheduler.advance_cycles(n, self.warps.len());
        }
        self.scratch.order = order;
        self.scratch.considered = considered;
        self.scratch.considered_pc = considered_pc;
        self.scratch.skip_hazards = hazards;
    }

    fn retire_completions(&mut self, mem: &mut CoreMemUnit, collector: &mut StallCollector) {
        // The buffer is moved out of `self` for the loop (a move, not an
        // allocation) because the body mutates warps.
        let mut completions = std::mem::take(&mut self.scratch.completions);
        mem.drain_completions(&mut completions);
        for c in completions.drain(..) {
            match c {
                Completion::Load { req, warp, reg, provenance } => {
                    collector.on_fill(req, provenance);
                    self.blame.on_fill(req, provenance);
                    self.warps[warp as usize].complete_load(reg, req);
                }
                Completion::Atomic { req, warp, reg, value, acquire, release, write_dst } => {
                    // Any stalls charged against a relaxed atomic are an L2
                    // service (atomics always execute at the L2).
                    collector.on_fill(req, MemDataCause::L2);
                    self.blame.on_fill(req, MemDataCause::L2);
                    let w = &mut self.warps[warp as usize];
                    if write_dst {
                        for lane in &mut w.regs {
                            lane[reg as usize] = value;
                        }
                    }
                    if acquire || release {
                        w.sync_pending = false;
                    } else {
                        w.complete_load(reg, req);
                    }
                }
            }
        }
        self.scratch.completions = completions;
    }

    /// Returns whether some warp passed its data gates without issuing
    /// (no issue slot left, or a structural rejection): nothing can change
    /// that before the next cycle, so the SM is known to be busy then.
    fn issue_stage<S: TraceSink>(
        &mut self,
        now: u64,
        mem: &mut CoreMemUnit,
        gmem: &mut GlobalMem,
        collector: &mut StallCollector,
        sink: &mut S,
    ) -> bool {
        // Scratch buffers are moved out of `self` for the duration of the
        // stage (moves, not allocations) so the per-warp mutations below
        // can borrow `self` freely.
        let mut order = std::mem::take(&mut self.scratch.order);
        let mut considered = std::mem::take(&mut self.scratch.considered);
        let mut considered_pc = std::mem::take(&mut self.scratch.considered_pc);
        {
            let last_issue = &mut self.scratch.last_issue;
            last_issue.clear();
            last_issue.extend(self.live.iter().map(|&w| self.warps[w].last_issue));
            self.scheduler.order_active_into(
                self.cfg.scheduler,
                &self.live,
                last_issue,
                &mut order,
            );
        }
        considered.clear();
        considered_pc.clear();

        let mut issued = 0usize;
        let mut still_ready = false;
        let mut alu_used = 0u32;
        let mut sfu_used = 0u32;

        for &wi in &order {
            if !self.warps[wi].active {
                continue;
            }
            let mut hz = InstrHazards::default();
            let w = &self.warps[wi];
            if now < w.ibuffer_ready_at {
                hz.control = true;
                if sink.events_on() {
                    sink.record(Ev::WarpStall {
                        cycle: now,
                        sm: self.id,
                        warp: wi as u16,
                        kind: StallKind::Control,
                        cause_pc: w.last_branch_pc,
                    });
                }
                considered.push(hz);
                considered_pc.push(w.last_branch_pc);
                continue;
            }
            if w.sync_pending || w.at_barrier {
                hz.synchronization = true;
                if sink.events_on() {
                    sink.record(Ev::WarpStall {
                        cycle: now,
                        sm: self.id,
                        warp: wi as u16,
                        kind: StallKind::Synchronization,
                        cause_pc: w.sync_pc,
                    });
                }
                considered.push(hz);
                considered_pc.push(w.sync_pc);
                continue;
            }
            // SIMT reconvergence: when the running side reaches the join
            // point, switch to the deferred side (or restore the full mask).
            {
                let w = &mut self.warps[wi];
                while let Some(&top) = w.simt_stack.last() {
                    if w.pc != top.rpc {
                        break;
                    }
                    w.simt_stack.pop();
                    w.active_mask = top.mask;
                    if w.pc != top.pc {
                        // Redirected fetch: pay the refetch penalty, like a
                        // taken branch; the refetch is the divergent
                        // branch's fault.
                        w.pc = top.pc;
                        w.ibuffer_ready_at = now + 1 + self.cfg.branch_refetch;
                        w.last_branch_pc = top.origin;
                    }
                }
                if now < w.ibuffer_ready_at {
                    hz.control = true;
                    if sink.events_on() {
                        sink.record(Ev::WarpStall {
                            cycle: now,
                            sm: self.id,
                            warp: wi as u16,
                            kind: StallKind::Control,
                            cause_pc: w.last_branch_pc,
                        });
                    }
                    considered.push(hz);
                    considered_pc.push(w.last_branch_pc);
                    continue;
                }
            }
            let w = &self.warps[wi];
            let program = self.program.as_ref().expect("program installed");
            let instr = program.fetch(w.pc).copied().unwrap_or(Instr::Exit);

            // Data hazards: outstanding loads first (stronger), then
            // compute results in flight. Sources are scanned before the
            // destination so the blocking request of the earliest source
            // operand is the one charged.
            let srcs = instr.source_regs();
            let dest = instr.dest();
            let mut cause_pc = UNKNOWN_PC;
            for r in srcs.iter().chain(dest.as_ref()) {
                if w.load_pending(r.0) {
                    hz.mem_data = w.blocking_req(r.0);
                    cause_pc = w.blocking_req_pc(r.0).unwrap_or(UNKNOWN_PC);
                    break;
                }
            }
            if hz.mem_data.is_none() {
                // Blame the operand with the latest ready cycle: the one
                // that actually gates issue, and the only choice stable
                // across the stall (so the event engine's frozen windows
                // attribute identically).
                let mut latest = 0u64;
                for r in srcs.iter().chain(dest.as_ref()) {
                    if w.compute_pending(r.0, now) && w.ready_at[r.0 as usize] > latest {
                        hz.compute_data = true;
                        latest = w.ready_at[r.0 as usize];
                        cause_pc = w.reg_writer[r.0 as usize];
                    }
                }
            }

            if hz.can_issue() && issued >= self.cfg.issue_width {
                // Out of issue slots: this warp is ready again next cycle.
                still_ready = true;
            } else if hz.can_issue() {
                let pc_before = self.warps[wi].pc;
                // A structural rejection is the stalled instruction's own
                // doing: the causal pc is itself.
                cause_pc = pc_before as u32;
                match self.execute(wi, instr, now, mem, gmem, &mut alu_used, &mut sfu_used, sink) {
                    Ok(()) => {
                        issued += 1;
                        self.stats.instructions += 1;
                        self.profiles[wi].instructions += 1;
                        self.warps[wi].last_issue = now;
                        self.scheduler.issued(wi);
                        if self.trace_capacity > 0 {
                            if self.trace.len() == self.trace_capacity {
                                self.trace.pop_front();
                            }
                            self.trace.push_back(TraceEntry {
                                cycle: now,
                                warp: wi,
                                pc: pc_before,
                                text: instr.to_string(),
                            });
                        }
                    }
                    Err(structural) => {
                        // The rejected instruction retries next cycle.
                        still_ready = true;
                        if sink.counters_on() {
                            if let Some(cause) = structural.mem_structural {
                                sink.record(Ev::LsuReject {
                                    cycle: now,
                                    sm: self.id,
                                    warp: wi as u16,
                                    cause,
                                });
                            }
                        }
                        hz = structural;
                    }
                }
            }
            let kind = classify_instruction(&hz);
            self.profiles[wi].considered[kind.index()] += 1;
            if sink.events_on() && kind != StallKind::NoStall {
                sink.record(Ev::WarpStall {
                    cycle: now,
                    sm: self.id,
                    warp: wi as u16,
                    kind,
                    cause_pc,
                });
            }
            considered.push(hz);
            considered_pc.push(cause_pc);
        }

        let verdict = judge_cycle_scratch(
            &self.cfg.cycle_priority,
            issued > 0,
            &considered,
            &mut self.scratch.kinds,
        );
        if self.blame.is_enabled() {
            let cause = verdict_cause_pc(&verdict, &self.scratch.kinds, &considered_pc);
            self.blame.record(verdict.kind, cause, verdict.blocking_request, 1);
        }
        self.scratch.order = order;
        self.scratch.considered = considered;
        self.scratch.considered_pc = considered_pc;
        if issued > 0 {
            self.stats.issued_cycles += 1;
        }
        if sink.events_on() {
            sink.record(Ev::IssueVerdict {
                cycle: now,
                sm: self.id,
                kind: verdict.kind,
                issued: issued.min(u8::MAX as usize) as u8,
            });
        }
        collector.record_cycle(&verdict);
        still_ready
    }

    /// Attempt to issue `instr` from warp `wi`. On a structural hazard the
    /// instruction stays put and the hazard is returned for classification.
    #[allow(clippy::too_many_arguments)] // the issue stage's full context
    fn execute<S: TraceSink>(
        &mut self,
        wi: usize,
        instr: Instr,
        now: u64,
        mem: &mut CoreMemUnit,
        gmem: &mut GlobalMem,
        alu_used: &mut u32,
        sfu_used: &mut u32,
        sink: &mut S,
    ) -> Result<(), InstrHazards> {
        let take_unit =
            |unit: ExecUnit, alu_used: &mut u32, sfu_used: &mut u32, cfg: &SmConfig| match unit {
                ExecUnit::Alu => {
                    if *alu_used >= cfg.alu_per_cycle {
                        return Err(InstrHazards::compute_structural());
                    }
                    *alu_used += 1;
                    Ok(cfg.alu_latency)
                }
                ExecUnit::Sfu => {
                    if *sfu_used >= cfg.sfu_per_cycle {
                        return Err(InstrHazards::compute_structural());
                    }
                    *sfu_used += 1;
                    Ok(cfg.sfu_latency)
                }
            };
        let reject_to_hazard = |r: LsuReject| InstrHazards::mem_structural(r.cause());

        match instr {
            Instr::Alu { op, dst, a, b } => {
                let lat = take_unit(op.unit(), alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                let mask = w.active_mask;
                for lane in 0..w.regs.len() {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let av = op_val(&w.regs[lane], a);
                    let bv = op_val(&w.regs[lane], b);
                    w.regs[lane][dst.0 as usize] = eval_alu(op, av, bv);
                }
                w.ready_at[dst.0 as usize] = now + lat;
                w.reg_writer[dst.0 as usize] = w.pc as u32;
                w.pc += 1;
            }
            Instr::Ldi { dst, imm } => {
                let lat = take_unit(ExecUnit::Alu, alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                let mask = w.active_mask;
                for (lane, regs) in w.regs.iter_mut().enumerate() {
                    if mask & (1 << lane) != 0 {
                        regs[dst.0 as usize] = imm;
                    }
                }
                w.ready_at[dst.0 as usize] = now + lat;
                w.reg_writer[dst.0 as usize] = w.pc as u32;
                w.pc += 1;
            }
            Instr::Sel { dst, cond, a, b } => {
                let lat = take_unit(ExecUnit::Alu, alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                let mask = w.active_mask;
                for lane in 0..w.regs.len() {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let c = w.regs[lane][cond.0 as usize];
                    let v =
                        if c != 0 { op_val(&w.regs[lane], a) } else { op_val(&w.regs[lane], b) };
                    w.regs[lane][dst.0 as usize] = v;
                }
                w.ready_at[dst.0 as usize] = now + lat;
                w.reg_writer[dst.0 as usize] = w.pc as u32;
                w.pc += 1;
            }
            Instr::LdGlobal { dst, addr, offset } => {
                self.fill_lane_addrs(wi, addr, offset);
                let issued = mem
                    .try_global_load_traced(now, wi as u16, dst.0, &self.scratch.addrs, sink)
                    .map_err(reject_to_hazard)?;
                let w = &mut self.warps[wi];
                for &(lane, a) in &self.scratch.pairs {
                    w.regs[lane][dst.0 as usize] = gmem.read_word(a);
                }
                let pc = w.pc as u32;
                for req in issued.reqs {
                    w.add_pending_load(dst.0, req, pc);
                }
                w.reg_writer[dst.0 as usize] = pc;
                w.pc += 1;
                self.stats.loads += 1;
            }
            Instr::StGlobal { src, addr, offset } => {
                self.fill_lane_addrs(wi, addr, offset);
                mem.try_global_store_traced(now, &self.scratch.addrs, sink)
                    .map_err(reject_to_hazard)?;
                let w = &mut self.warps[wi];
                for &(lane, a) in &self.scratch.pairs {
                    gmem.write_word(a, op_val(&w.regs[lane], src));
                }
                w.pc += 1;
                self.stats.stores += 1;
            }
            Instr::LdLocal { dst, addr, offset } => {
                self.fill_lane_addrs(wi, addr, offset);
                let issued = mem
                    .try_local_load_traced(now, wi as u16, dst.0, &self.scratch.addrs, sink)
                    .map_err(reject_to_hazard)?;
                let w = &mut self.warps[wi];
                for &(lane, a) in &self.scratch.pairs {
                    w.regs[lane][dst.0 as usize] = mem.local_read_word(a, gmem);
                }
                let pc = w.pc as u32;
                for req in issued.reqs {
                    w.add_pending_load(dst.0, req, pc);
                }
                w.reg_writer[dst.0 as usize] = pc;
                w.pc += 1;
                self.stats.loads += 1;
            }
            Instr::StLocal { src, addr, offset } => {
                self.fill_lane_addrs(wi, addr, offset);
                mem.try_local_store_traced(now, &self.scratch.addrs, sink)
                    .map_err(reject_to_hazard)?;
                let w = &mut self.warps[wi];
                for &(lane, a) in &self.scratch.pairs {
                    let v = op_val(&w.regs[lane], src);
                    mem.local_write_word(a, v, gmem);
                }
                w.pc += 1;
                self.stats.stores += 1;
            }
            Instr::Atom { op, dst, addr, a, b, sem } => {
                let w = &self.warps[wi];
                // Atomics execute on the warp's leader lane (lane 0 under
                // full convergence).
                let leader = &w.regs[w.leader()];
                let address = leader[addr.0 as usize];
                let av = op_val(leader, a);
                let bv = op_val(leader, b);
                let kind = match op {
                    AtomOp::Cas => AtomKind::Cas,
                    AtomOp::Exch => AtomKind::Exch,
                    AtomOp::Add => AtomKind::Add,
                    AtomOp::Load => AtomKind::Load,
                    AtomOp::Store => AtomKind::Store,
                };
                let req = mem
                    .try_atomic_traced(
                        now,
                        wi as u16,
                        dst.0,
                        address,
                        kind,
                        av,
                        bv,
                        sem.is_acquire(),
                        sem.is_release(),
                        gmem,
                        sink,
                    )
                    .map_err(reject_to_hazard)?;
                let w = &mut self.warps[wi];
                let pc = w.pc as u32;
                if sem.is_acquire() || sem.is_release() {
                    w.sync_pending = true;
                    w.sync_pc = pc;
                } else {
                    w.add_pending_load(dst.0, req, pc);
                }
                w.reg_writer[dst.0 as usize] = pc;
                w.pc += 1;
                self.stats.atomics += 1;
            }
            Instr::Bar => {
                assert!(
                    self.warps[wi].simt_stack.is_empty(),
                    "barrier inside a divergent region is not supported"
                );
                let block_idx = self.warps[wi].block;
                {
                    let w = &mut self.warps[wi];
                    w.at_barrier = true;
                    w.sync_pc = w.pc as u32;
                    w.pc += 1;
                }
                self.blocks[block_idx].barrier_count += 1;
                self.stats.barriers += 1;
                self.maybe_release_barrier(block_idx);
            }
            Instr::Bra { cond, target } => {
                take_unit(ExecUnit::Alu, alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                let lane0 = &w.regs[0];
                let taken = match cond {
                    BranchCond::Zero(r) => lane0[r.0 as usize] == 0,
                    BranchCond::NonZero(r) => lane0[r.0 as usize] != 0,
                };
                if taken {
                    w.last_branch_pc = w.pc as u32;
                    w.pc = target;
                    w.ibuffer_ready_at = now + 1 + self.cfg.branch_refetch;
                    self.stats.taken_branches += 1;
                } else {
                    w.pc += 1;
                }
            }
            Instr::BraDiv { cond, target, join } => {
                take_unit(ExecUnit::Alu, alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                let cur = w.active_mask;
                let mut taken: u32 = 0;
                for lane in 0..w.regs.len() {
                    if cur & (1 << lane) == 0 {
                        continue;
                    }
                    let v = match cond {
                        BranchCond::Zero(r) => w.regs[lane][r.0 as usize] == 0,
                        BranchCond::NonZero(r) => w.regs[lane][r.0 as usize] != 0,
                    };
                    if v {
                        taken |= 1 << lane;
                    }
                }
                let not_taken = cur & !taken;
                let branch_pc = w.pc as u32;
                if taken == 0 {
                    w.pc += 1;
                } else if not_taken == 0 {
                    w.last_branch_pc = branch_pc;
                    w.pc = target;
                    w.ibuffer_ready_at = now + 1 + self.cfg.branch_refetch;
                    self.stats.taken_branches += 1;
                } else {
                    // Diverge: run the fall-through side first; the taken
                    // side and the full-mask restore wait on the stack.
                    // Both entries remember this branch as their origin so
                    // the refetch at each pop is blamed on it.
                    w.simt_stack.push(crate::warp::SimtEntry {
                        rpc: join,
                        mask: cur,
                        pc: join,
                        origin: branch_pc,
                    });
                    w.simt_stack.push(crate::warp::SimtEntry {
                        rpc: join,
                        mask: taken,
                        pc: target,
                        origin: branch_pc,
                    });
                    w.active_mask = not_taken;
                    w.pc += 1;
                    self.stats.divergent_branches += 1;
                }
            }
            Instr::Jmp { target } => {
                take_unit(ExecUnit::Alu, alu_used, sfu_used, &self.cfg)?;
                let w = &mut self.warps[wi];
                w.last_branch_pc = w.pc as u32;
                w.pc = target;
                w.ibuffer_ready_at = now + 1 + self.cfg.branch_refetch;
                self.stats.taken_branches += 1;
            }
            Instr::DmaLoad { global, local, bytes } => {
                let g = self.warps[wi].regs[0][global.0 as usize];
                let l = self.warps[wi].regs[0][local.0 as usize];
                let t = DmaTransfer::new(l, g, bytes, DmaDirection::ToScratchpad);
                mem.start_dma_traced(now, t, gmem, sink).map_err(reject_to_hazard)?;
                self.warps[wi].pc += 1;
            }
            Instr::DmaStore { global, local, bytes } => {
                let g = self.warps[wi].regs[0][global.0 as usize];
                let l = self.warps[wi].regs[0][local.0 as usize];
                let t = DmaTransfer::new(l, g, bytes, DmaDirection::ToGlobal);
                mem.start_dma_traced(now, t, gmem, sink).map_err(reject_to_hazard)?;
                self.warps[wi].pc += 1;
            }
            Instr::StashMap { global, local, bytes, writeback } => {
                let g = self.warps[wi].regs[0][global.0 as usize];
                let l = self.warps[wi].regs[0][local.0 as usize];
                mem.add_stash_mapping(StashMapping { local: l, global: g, bytes, writeback });
                self.warps[wi].pc += 1;
            }
            Instr::Exit => {
                assert!(
                    self.warps[wi].simt_stack.is_empty(),
                    "exit inside a divergent region is not supported"
                );
                let block_idx = self.warps[wi].block;
                self.warps[wi].active = false;
                self.live_count -= 1;
                // An exiting warp may be the last one a barrier was waiting
                // for.
                self.maybe_release_barrier(block_idx);
            }
            Instr::Nop => {
                self.warps[wi].pc += 1;
            }
        }
        Ok(())
    }

    /// Fill the scratch buffers with the `(lane, byte address)` pairs of
    /// the *active* lanes (and the bare addresses, in the shape the LSU
    /// expects).
    ///
    /// A structurally rejected access replays every cycle with identical
    /// operands (the data gates proved the sources ready, and nothing can
    /// write them again without an issue), so the computed pairs are cached
    /// in the warp and reused while the `(pc, last_issue, active_mask)` key
    /// holds. The walk over 32 strided per-lane register files is the
    /// expensive part; the replay path pays two contiguous copies instead.
    fn fill_lane_addrs(&mut self, wi: usize, addr: Reg, offset: i64) {
        let w = &mut self.warps[wi];
        let pairs = &mut self.scratch.pairs;
        let addrs = &mut self.scratch.addrs;
        pairs.clear();
        addrs.clear();
        let key = (w.pc, w.last_issue, w.active_mask);
        if w.addr_cache_key == Some(key) {
            pairs.extend_from_slice(&w.addr_cache_pairs);
            addrs.extend(pairs.iter().map(|&(_, a)| a));
            return;
        }
        for (lane, regs) in w.regs.iter().enumerate() {
            if w.active_mask & (1 << lane) != 0 {
                let a = regs[addr.0 as usize].wrapping_add(offset as u64);
                pairs.push((lane, a));
                addrs.push(a);
            }
        }
        w.addr_cache_key = Some(key);
        w.addr_cache_pairs.clear();
        w.addr_cache_pairs.extend_from_slice(pairs);
    }

    fn maybe_release_barrier(&mut self, block_idx: usize) {
        // The barrier releases when every still-active warp of the block is
        // waiting at it. Two passes over the (small) warp-id list, by
        // index, so no temporary collection is needed.
        let block = &self.blocks[block_idx];
        let mut any_active = false;
        for &w in &block.warp_ids {
            let warp = &self.warps[w];
            if warp.active {
                any_active = true;
                if !warp.at_barrier {
                    return;
                }
            }
        }
        if !any_active {
            return;
        }
        for i in 0..self.blocks[block_idx].warp_ids.len() {
            let w = self.blocks[block_idx].warp_ids[i];
            if self.warps[w].active {
                self.warps[w].at_barrier = false;
            }
        }
        self.blocks[block_idx].barrier_count = 0;
    }

    fn reap_blocks(&mut self) {
        let blocks = &mut self.blocks;
        let warps = &self.warps;
        let completed = &mut self.completed_blocks;
        self.resident.retain(|&bi| {
            let b = &mut blocks[bi];
            if b.warp_ids.iter().all(|&w| !warps[w].active) {
                b.done = true;
                completed.push(b.block_id);
                false
            } else {
                true
            }
        });
    }
}

/// Causal pc of a cycle verdict: the pc recorded for the first considered
/// instruction whose Algorithm-1 classification matches the verdict's kind
/// — the same position lookup `judge_cycle_scratch` uses for its detail
/// fields, so the blamed instruction and the blocking request agree.
/// `NoStall`/`Idle` cycles have no cause (and on issued cycles the kinds
/// scratch is stale, so they must not be looked up).
fn verdict_cause_pc(
    verdict: &gsi_core::CycleVerdict,
    kinds: &[StallKind],
    considered_pc: &[u32],
) -> u32 {
    if matches!(verdict.kind, StallKind::NoStall | StallKind::Idle) {
        return UNKNOWN_PC;
    }
    kinds
        .iter()
        .position(|&k| k == verdict.kind)
        .and_then(|i| considered_pc.get(i).copied())
        .unwrap_or(UNKNOWN_PC)
}

fn op_val(lane: &[u64; gsi_isa::NUM_REGS], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => lane[r.0 as usize],
        Operand::Imm(v) => v as u64,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::warp::WarpInit;
    use gsi_core::{StallBreakdown, StallKind};
    use gsi_isa::{MemSem, ProgramBuilder};
    use gsi_mem::MemConfig;
    use gsi_noc::NodeId;

    struct Rig {
        sm: SmCore,
        mem: CoreMemUnit,
        gmem: GlobalMem,
        collector: StallCollector,
        now: u64,
    }

    impl Rig {
        fn new(program: Program) -> Self {
            Self::with_mem(program, MemConfig::default())
        }

        fn with_mem(program: Program, mem_cfg: MemConfig) -> Self {
            let mut sm = SmCore::new(0, SmConfig::default());
            sm.set_program(program);
            Rig {
                sm,
                mem: CoreMemUnit::new(0, NodeId(0), mem_cfg),
                gmem: GlobalMem::new(),
                collector: StallCollector::new(),
                now: 0,
            }
        }

        fn add_warp(&mut self, init: WarpInit) {
            self.sm.add_block(BlockInit { block_id: 0, warps: vec![init] });
        }

        /// Tick until idle or the cycle limit, answering every memory
        /// request locally with an immediate L2 fill after `mem_lat` cycles.
        fn run(&mut self, limit: u64) {
            let mut fills: Vec<(u64, gsi_mem::MemMsg)> = Vec::new();
            while self.now < limit {
                // Deliver due fills.
                let mut rest = Vec::new();
                for (t, m) in fills.drain(..) {
                    if t <= self.now {
                        self.mem.deliver(self.now, m);
                    } else {
                        rest.push((t, m));
                    }
                }
                fills = rest;
                self.mem.tick(self.now);
                self.sm.tick(self.now, &mut self.mem, &mut self.gmem, &mut self.collector);
                // Fake the L2: answer requests after 30 cycles.
                for (_, msg) in self.mem.take_outbox() {
                    match msg {
                        gsi_mem::MemMsg::GetLine { line, .. } => {
                            let fill =
                                gsi_mem::MemMsg::Fill { line, provenance: gsi_mem::Provenance::L2 };
                            fills.push((self.now + 30, fill));
                        }
                        gsi_mem::MemMsg::AtomicOp { addr, kind, a, b, req, .. } => {
                            let old = self.gmem.read_word(addr);
                            let (new, ret) = kind.apply(old, a, b);
                            self.gmem.write_word(addr, new);
                            fills.push((
                                self.now + 30,
                                gsi_mem::MemMsg::AtomicResp { req, value: ret },
                            ));
                        }
                        gsi_mem::MemMsg::WriteWords { line, .. } => {
                            fills.push((self.now + 20, gsi_mem::MemMsg::WriteAck { line }));
                        }
                        gsi_mem::MemMsg::RegisterOwner { line, .. } => {
                            fills.push((self.now + 20, gsi_mem::MemMsg::RegisterAck { line }));
                        }
                        _ => {}
                    }
                }
                self.now += 1;
                if self.sm.is_idle() && fills.is_empty() {
                    break;
                }
            }
        }

        fn breakdown(self) -> StallBreakdown {
            self.collector.finish()
        }
    }

    #[test]
    fn straight_line_alu_program_runs_to_exit() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 5);
        b.addi(Reg(2), Reg(1), 3);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(100);
        assert!(rig.sm.is_idle());
        assert_eq!(rig.sm.stats().instructions, 3);
        assert_eq!(rig.sm.warps[0].regs[0][2], 8);
        assert_eq!(rig.sm.take_completed_blocks(), vec![0]);
    }

    #[test]
    fn dependent_alu_ops_cause_compute_data_stalls() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 5);
        b.addi(Reg(2), Reg(1), 1); // depends on r1 (4-cycle ALU)
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(100);
        let bd = rig.breakdown();
        assert!(bd.cycles(StallKind::ComputeData) > 0, "{bd:?}");
    }

    #[test]
    fn load_use_causes_memory_data_stall_attributed_to_l2() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 0x1000);
        b.ld_global(Reg(2), Reg(1), 0);
        b.addi(Reg(3), Reg(2), 1); // use immediately
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.gmem.write_word(0x1000, 77);
        rig.add_warp(WarpInit::zeroed());
        rig.run(200);
        assert_eq!(rig.sm.warps[0].regs[0][3], 78, "functional value flows");
        let bd = rig.breakdown();
        assert!(bd.cycles(StallKind::MemoryData) > 0);
        assert!(bd.mem_data_cycles(MemDataCause::L2) > 0, "{bd:?}");
        assert_eq!(
            bd.cycles(StallKind::MemoryData),
            bd.mem_data_total(),
            "every memory-data cycle is sub-classified"
        );
    }

    #[test]
    fn taken_branches_cause_control_stalls() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 3);
        let top = b.here();
        b.subi(Reg(1), Reg(1), 1);
        b.bra_nz(Reg(1), top);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(200);
        let stats = *rig.sm.stats();
        assert_eq!(stats.taken_branches, 2);
        let bd = rig.breakdown();
        assert!(bd.cycles(StallKind::Control) > 0, "{bd:?}");
    }

    #[test]
    fn barrier_synchronizes_two_warps() {
        // Warp 0 burns cycles before the barrier; warp 1 reaches it first
        // and stalls on synchronization.
        let mut b = ProgramBuilder::new("t");
        // r1 = per-warp loop count (r1 preset), spin:
        let top = b.here();
        b.subi(Reg(1), Reg(1), 1);
        b.bra_nz(Reg(1), top);
        b.bar();
        b.st_global(Operand::Imm(1), Reg(2), 0); // r2 = flag addr
        b.exit();
        let p = b.build().unwrap();
        let mut rig = Rig::new(p);
        let mut w0 = WarpInit::zeroed();
        w0.set_uniform(1, 40);
        w0.set_uniform(2, 0x100);
        let mut w1 = WarpInit::zeroed();
        w1.set_uniform(1, 1);
        w1.set_uniform(2, 0x108);
        rig.sm.add_block(BlockInit { block_id: 9, warps: vec![w0, w1] });
        rig.run(500);
        assert!(rig.sm.is_idle());
        assert_eq!(rig.gmem.read_word(0x100), 1);
        assert_eq!(rig.gmem.read_word(0x108), 1);
        assert_eq!(rig.sm.take_completed_blocks(), vec![9]);
        let bd = rig.breakdown();
        assert!(bd.cycles(StallKind::Synchronization) > 0, "{bd:?}");
    }

    #[test]
    fn acquire_atomic_blocks_warp_as_synchronization() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 0x200);
        b.atom_cas(Reg(2), Reg(1), Operand::Imm(0), Operand::Imm(1), MemSem::Acquire);
        b.addi(Reg(3), Reg(2), 0); // dependent on CAS result
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(300);
        assert!(rig.sm.is_idle());
        assert_eq!(rig.gmem.read_word(0x200), 1, "CAS succeeded");
        assert_eq!(rig.sm.warps[0].regs[0][3], 0, "old value returned");
        let bd = rig.breakdown();
        assert!(bd.cycles(StallKind::Synchronization) > 0, "{bd:?}");
    }

    #[test]
    fn idle_sm_records_idle_cycles() {
        let mut b = ProgramBuilder::new("t");
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        // Run 10 cycles beyond exit.
        for now in 0..10 {
            rig.mem.tick(now);
            rig.sm.tick(now, &mut rig.mem, &mut rig.gmem, &mut rig.collector);
        }
        let bd = rig.collector.finish();
        assert!(bd.cycles(StallKind::Idle) >= 8, "{bd:?}");
    }

    #[test]
    fn per_lane_addresses_coalesce_to_lines() {
        let mut b = ProgramBuilder::new("t");
        // r1 = 0x1000 + lane*8 (preset per lane): one warp load = 4 lines.
        b.ld_global(Reg(2), Reg(1), 0);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        let mut w = WarpInit::zeroed();
        w.set_per_lane(1, |l| 0x1000 + l as u64 * 8);
        rig.add_warp(w);
        rig.run(200);
        // 32 lanes x 8B = 256B = 4 lines.
        assert_eq!(rig.mem.stats().l1_misses, 4);
    }

    #[test]
    fn capacity_accounting() {
        let mut b = ProgramBuilder::new("t");
        b.exit();
        let p = b.build().unwrap();
        let mut sm = SmCore::new(0, SmConfig { max_warps: 2, max_blocks: 1, ..Default::default() });
        sm.set_program(p);
        assert!(sm.has_capacity(2));
        assert!(!sm.has_capacity(3));
        sm.add_block(BlockInit { block_id: 0, warps: vec![WarpInit::zeroed()] });
        assert!(!sm.has_capacity(1), "block slots exhausted");
    }

    #[test]
    fn divergent_branch_runs_both_sides_and_reconverges() {
        // Odd lanes: r2 = r1 * 2; even lanes: r2 = r1 + 100. Then all
        // lanes: r3 = r2 + 1.
        let mut b = ProgramBuilder::new("div");
        let then_l = b.label();
        let join_l = b.label();
        b.and(Reg(4), Reg(1), Operand::Imm(1)); // odd?
        b.bra_div_nz(Reg(4), then_l, join_l);
        // else: even lanes
        b.addi(Reg(2), Reg(1), 100);
        b.jmp_to(join_l);
        b.bind(then_l);
        b.shl(Reg(2), Reg(1), Operand::Imm(1));
        b.bind(join_l);
        b.addi(Reg(3), Reg(2), 1);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        let mut w = WarpInit::zeroed();
        w.set_per_lane(1, |l| l as u64);
        rig.add_warp(w);
        rig.run(300);
        assert!(rig.sm.is_idle());
        for lane in 0..32u64 {
            let want = if lane % 2 == 1 { lane * 2 + 1 } else { lane + 100 + 1 };
            assert_eq!(rig.sm.warps[0].regs[lane as usize][3], want, "lane {lane}");
        }
        assert_eq!(rig.sm.stats().divergent_branches, 1);
        assert!(rig.sm.warps[0].simt_stack.is_empty());
        assert_eq!(rig.sm.warps[0].active_mask, u32::MAX);
    }

    #[test]
    fn nested_divergence_reconverges_in_order() {
        // Outer: odd vs even; inner (odd side): multiples of 4 plus 1 vs rest.
        let mut b = ProgramBuilder::new("nested");
        let outer_then = b.label();
        let outer_join = b.label();
        let inner_then = b.label();
        let inner_join = b.label();
        b.and(Reg(4), Reg(1), Operand::Imm(1));
        b.bra_div_nz(Reg(4), outer_then, outer_join);
        b.addi(Reg(2), Reg(1), 1000); // even lanes
        b.jmp_to(outer_join);
        b.bind(outer_then);
        b.and(Reg(5), Reg(1), Operand::Imm(2));
        b.bra_div_nz(Reg(5), inner_then, inner_join);
        b.addi(Reg(2), Reg(1), 10); // lanes % 4 == 1
        b.jmp_to(inner_join);
        b.bind(inner_then);
        b.addi(Reg(2), Reg(1), 20); // lanes % 4 == 3
        b.bind(inner_join);
        b.bind(outer_join);
        b.addi(Reg(3), Reg(2), 1);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        let mut w = WarpInit::zeroed();
        w.set_per_lane(1, |l| l as u64);
        rig.add_warp(w);
        rig.run(500);
        assert!(rig.sm.is_idle());
        for lane in 0..32u64 {
            let want = match lane % 4 {
                0 | 2 => lane + 1000 + 1,
                1 => lane + 10 + 1,
                _ => lane + 20 + 1,
            };
            assert_eq!(rig.sm.warps[0].regs[lane as usize][3], want, "lane {lane}");
        }
        assert_eq!(rig.sm.stats().divergent_branches, 2);
    }

    #[test]
    fn uniform_divergent_branch_does_not_split() {
        let mut b = ProgramBuilder::new("uni");
        let then_l = b.label();
        let join_l = b.label();
        b.ldi(Reg(4), 1); // all lanes nonzero: uniform taken
        b.bra_div_nz(Reg(4), then_l, join_l);
        b.ldi(Reg(2), 7); // skipped entirely
        b.jmp_to(join_l);
        b.bind(then_l);
        b.ldi(Reg(2), 9);
        b.bind(join_l);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(200);
        assert_eq!(rig.sm.warps[0].regs[0][2], 9);
        assert_eq!(rig.sm.stats().divergent_branches, 0);
    }

    #[test]
    fn divergence_costs_control_stalls() {
        // The same per-lane computation via Sel (predication) vs BraDiv.
        let build = |divergent: bool| {
            let mut b = ProgramBuilder::new("cmp");
            b.and(Reg(4), Reg(1), Operand::Imm(1));
            if divergent {
                let then_l = b.label();
                let join_l = b.label();
                b.bra_div_nz(Reg(4), then_l, join_l);
                b.addi(Reg(2), Reg(1), 100);
                b.jmp_to(join_l);
                b.bind(then_l);
                b.shl(Reg(2), Reg(1), Operand::Imm(1));
                b.bind(join_l);
            } else {
                b.addi(Reg(5), Reg(1), 100);
                b.shl(Reg(6), Reg(1), Operand::Imm(1));
                b.sel(Reg(2), Reg(4), Reg(6), Reg(5));
            }
            b.exit();
            b.build().unwrap()
        };
        let mut runs = Vec::new();
        for divergent in [false, true] {
            let mut rig = Rig::new(build(divergent));
            let mut w = WarpInit::zeroed();
            w.set_per_lane(1, |l| l as u64);
            rig.add_warp(w);
            rig.run(300);
            // Lane 5 computes 10 on both sides of the branch (5+5 or 5<<1).
            assert_eq!(rig.sm.warps[0].regs[5][2], 10);
            runs.push(rig.breakdown());
        }
        assert!(
            runs[1].cycles(StallKind::Control) > runs[0].cycles(StallKind::Control),
            "divergence must show up as control stalls: {:?} vs {:?}",
            runs[1].cycles(StallKind::Control),
            runs[0].cycles(StallKind::Control),
        );
    }

    #[test]
    fn trace_records_the_last_issued_instructions() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 1);
        b.addi(Reg(1), Reg(1), 1);
        b.addi(Reg(1), Reg(1), 2);
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.sm.set_trace_capacity(2);
        rig.add_warp(WarpInit::zeroed());
        rig.run(100);
        let trace: Vec<_> = rig.sm.trace().collect();
        assert_eq!(trace.len(), 2, "ring buffer keeps only the tail");
        assert_eq!(trace[0].pc, 2);
        assert!(trace[0].text.contains("add"));
        assert_eq!(trace[1].pc, 3);
        assert!(trace[1].text.contains("exit"));
    }

    #[test]
    fn tracing_is_off_by_default() {
        let mut b = ProgramBuilder::new("t");
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(50);
        assert_eq!(rig.sm.trace().count(), 0);
    }

    #[test]
    fn warp_profiles_tally_per_warp_classifications() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 0x1000);
        b.ld_global(Reg(2), Reg(1), 0);
        b.addi(Reg(3), Reg(2), 1); // stalls on the load
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(200);
        let p = rig.sm.warp_profiles()[0];
        assert_eq!(p.instructions, 4);
        assert!(p.classified(StallKind::MemoryData) > 0);
        assert!(p.total_considered() >= p.instructions);
    }

    #[test]
    fn straggler_warps_are_identifiable() {
        // Warp 1 loops 30x; warp 0 exits immediately. Warp 1's profile must
        // show far more activity.
        let mut b = ProgramBuilder::new("t");
        let skip = b.label();
        b.bra_z(Reg(1), skip);
        let top = b.here();
        b.subi(Reg(1), Reg(1), 1);
        b.bra_nz(Reg(1), top);
        b.bind(skip);
        b.exit();
        let p = b.build().unwrap();
        let mut rig = Rig::new(p);
        let w0 = WarpInit::zeroed();
        let mut w1 = WarpInit::zeroed();
        w1.set_uniform(1, 30);
        rig.sm.add_block(BlockInit { block_id: 0, warps: vec![w0, w1] });
        rig.run(500);
        let profiles = rig.sm.warp_profiles();
        assert!(profiles[1].instructions > profiles[0].instructions * 5);
    }

    #[test]
    fn relaxed_atomic_does_not_sync_block() {
        let mut b = ProgramBuilder::new("t");
        b.ldi(Reg(1), 0x300);
        b.atom_add(Reg(2), Reg(1), Operand::Imm(5), MemSem::Relaxed);
        b.ldi(Reg(4), 7); // independent work can issue while atomic in flight
        b.addi(Reg(3), Reg(2), 0); // dependent -> memory data stall
        b.exit();
        let mut rig = Rig::new(b.build().unwrap());
        rig.add_warp(WarpInit::zeroed());
        rig.run(300);
        assert_eq!(rig.gmem.read_word(0x300), 5);
        let bd = rig.breakdown();
        assert_eq!(bd.cycles(StallKind::Synchronization), 0, "{bd:?}");
        assert!(bd.cycles(StallKind::MemoryData) > 0);
    }
}
