//! Whole-system configuration (Table 5.1 of the paper).

use gsi_core::CyclePriority;
use gsi_mem::{LocalMemKind, MemConfig, Protocol};
use gsi_noc::MeshConfig;
use gsi_sm::{SchedPolicy, SmConfig};

/// Configuration of the simulated heterogeneous system.
///
/// [`SystemConfig::paper`] reproduces Table 5.1: one CPU and 15 GPU SMs on a
/// 4×4 mesh, private L1s, a banked 4 MB NUCA L2, 32-entry MSHRs and store
/// buffers, and 16 KB scratchpad/stash with 32 banks. The emergent latency
/// windows match the table: L1 hits in 1 cycle, L2 hits in ~29–61 cycles,
/// remote L1 hits in ~35–83 cycles, and main memory in ~197–261 cycles
/// (validated by the `latency_windows` integration test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// SM pipeline parameters.
    pub sm: SmConfig,
    /// Mesh interconnect parameters.
    pub mesh: MeshConfig,
    /// Number of GPU SMs (the paper uses 15, with one mesh node left for
    /// the CPU; case study 2 uses 1).
    pub gpu_cores: usize,
    /// Safety limit: a kernel that exceeds this many cycles aborts with
    /// [`SimError::Timeout`](crate::SimError::Timeout).
    pub max_cycles: u64,
    /// Forward-progress watchdog: if no progress signal (instruction
    /// issued, block completed, or mesh message sent) changes for this many
    /// cycles, the run aborts with a diagnostic
    /// [`ProgressReport`](crate::ProgressReport) instead of burning the
    /// rest of the `max_cycles` budget. 0 disables the watchdog.
    pub progress_window: u64,
    /// What the static-analysis pre-flight gate does with its findings
    /// before any cycle is simulated.
    pub analysis_gate: AnalysisGate,
    /// How the simulator advances time: dense per-cycle ticking, or the
    /// event-driven per-core calendar (bit-identical results; SMs that
    /// cannot issue are not ticked).
    pub cycle_engine: CycleEngine,
}

/// How [`Simulator::run_kernel`](crate::Simulator::run_kernel) advances
/// simulated time.
///
/// Both engines produce bit-identical results — cycle counts, stall
/// breakdowns, timelines, warp profiles — on every workload; the dense
/// loop is kept as the differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleEngine {
    /// Tick every subsystem every cycle (the original loop; the oracle).
    Dense,
    /// Stop ticking each SM that provably cannot act until one of its own
    /// timers, a mesh delivery or a block dispatch wakes it, and jump the
    /// clock when every SM sleeps; the slept cycles are bulk-credited to
    /// the same per-warp stall categories the dense loop would have
    /// recorded.
    #[default]
    Event,
}

/// The pre-flight static-analysis gate
/// ([`Simulator::run_kernel`](crate::Simulator::run_kernel) runs
/// `gsi-analyze` over every launched program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisGate {
    /// Skip analysis entirely (zero overhead).
    Off,
    /// Analyze and keep the report available, but never refuse a launch.
    Warn,
    /// Analyze and refuse launches whose report contains `Error`-severity
    /// findings with [`SimError::Analysis`](crate::SimError::Analysis).
    #[default]
    Deny,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SystemConfig {
    /// The paper's system: 15 SMs + 1 CPU on a 4×4 mesh.
    pub fn paper() -> Self {
        SystemConfig {
            mem: MemConfig::default(),
            sm: SmConfig::default(),
            mesh: MeshConfig::default(),
            gpu_cores: 15,
            max_cycles: 200_000_000,
            progress_window: 2_000_000,
            analysis_gate: AnalysisGate::Deny,
            cycle_engine: CycleEngine::Event,
        }
    }

    /// Use `n` GPU SMs (1 for the paper's second case study).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not leave a mesh node for the CPU.
    #[must_use]
    pub fn with_gpu_cores(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one SM");
        assert!(n < self.mesh.nodes(), "one mesh node must remain for the CPU");
        self.gpu_cores = n;
        self
    }

    /// Select the GPU L1 coherence protocol.
    #[must_use]
    pub fn with_protocol(mut self, p: Protocol) -> Self {
        self.mem.protocol = p;
        self
    }

    /// Select the local-memory structure (case study 2).
    #[must_use]
    pub fn with_local_mem(mut self, kind: LocalMemKind) -> Self {
        self.mem.local_kind = kind;
        self
    }

    /// Scale the MSHR (and, per the paper's sweep, the store buffer).
    #[must_use]
    pub fn with_mshr(mut self, entries: usize) -> Self {
        self.mem = self.mem.with_mshr(entries);
        self
    }

    /// Select the warp scheduling policy.
    #[must_use]
    pub fn with_scheduler(mut self, policy: SchedPolicy) -> Self {
        self.sm.scheduler = policy;
        self
    }

    /// Select the Algorithm-2 cycle classification priority (the paper's
    /// memory-focused order by default).
    #[must_use]
    pub fn with_cycle_priority(mut self, priority: CyclePriority) -> Self {
        self.sm.cycle_priority = priority;
        self
    }

    /// Set the forward-progress watchdog window (0 disables it).
    #[must_use]
    pub fn with_progress_window(mut self, cycles: u64) -> Self {
        self.progress_window = cycles;
        self
    }

    /// Set the store-buffer flush drain rate (lines per cycle).
    #[must_use]
    pub fn with_flush_rate(mut self, rate: u32) -> Self {
        self.mem.flush_rate = rate.max(1);
        self
    }

    /// Enable the QuickRelease-style S-FIFO (stores keep issuing while a
    /// release drains) — the optimization Section 6.1.4 of the paper
    /// predicts would remove pending-release stalls.
    #[must_use]
    pub fn with_sfifo(mut self, enabled: bool) -> Self {
        self.mem.sfifo = enabled;
        self
    }

    /// Enable DeNovo owned atomics (atomics acquire line ownership and are
    /// serviced at the owning L1 thereafter).
    #[must_use]
    pub fn with_owned_atomics(mut self, enabled: bool) -> Self {
        self.mem.owned_atomics = enabled;
        self
    }

    /// Set the owner-L1 access latency for DeNovo remote fills.
    #[must_use]
    pub fn with_remote_l1_latency(mut self, cycles: u64) -> Self {
        self.mem.remote_l1_latency = cycles;
        self
    }

    /// Choose what the static-analysis pre-flight gate does (default:
    /// [`AnalysisGate::Deny`]).
    #[must_use]
    pub fn with_analysis_gate(mut self, gate: AnalysisGate) -> Self {
        self.analysis_gate = gate;
        self
    }

    /// Choose the cycle engine (default: [`CycleEngine::Event`]).
    #[must_use]
    pub fn with_cycle_engine(mut self, engine: CycleEngine) -> Self {
        self.cycle_engine = engine;
        self
    }

    /// A human-readable rendering of Table 5.1 for this configuration.
    pub fn table_5_1(&self) -> String {
        format!(
            "Table 5.1: Parameters of the simulated heterogeneous system\n\
             CPU Parameters\n\
             \x20 Cores                               1 (launch node)\n\
             GPU Parameters\n\
             \x20 SMs used                            {}\n\
             \x20 Scratchpad/stash size               {} KB\n\
             \x20 Scratchpad/stash banks              {}\n\
             Memory Hierarchy Parameters\n\
             \x20 L1/scratchpad hit latency           {} cycle\n\
             \x20 L1 size ({} banks, {}-way)           {} KB\n\
             \x20 L2 size ({} banks, NUCA)            {} MB\n\
             \x20 MSHR entries                        {}\n\
             \x20 Store buffer entries                {}\n\
             \x20 Protocol                            {}\n\
             \x20 Local memory                        {:?}\n",
            self.gpu_cores,
            self.mem.scratch_bytes / 1024,
            self.mem.scratch_banks,
            self.mem.l1_hit_latency,
            self.mem.l1_banks,
            self.mem.l1_ways,
            self.mem.l1_bytes / 1024,
            self.mem.l2_banks,
            self.mem.l2_bytes / (1024 * 1024),
            self.mem.mshr_entries,
            self.mem.store_buffer_entries,
            self.mem.protocol,
            self.mem.local_kind,
        )
    }
}

gsi_json::json_struct!(SystemConfig {
    mem,
    sm,
    mesh,
    gpu_cores,
    max_cycles,
    progress_window,
    analysis_gate,
    cycle_engine
});
gsi_json::json_unit_enum!(AnalysisGate { Off, Warn, Deny });
gsi_json::json_unit_enum!(CycleEngine { Dense, Event });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table() {
        let c = SystemConfig::paper();
        assert_eq!(c.gpu_cores, 15);
        assert_eq!(c.mesh.nodes(), 16);
        assert_eq!(c.mem.mshr_entries, 32);
        let t = c.table_5_1();
        assert!(t.contains("15"));
        assert!(t.contains("4 MB"));
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::paper()
            .with_gpu_cores(1)
            .with_protocol(Protocol::DeNovo)
            .with_local_mem(LocalMemKind::Stash)
            .with_mshr(256);
        assert_eq!(c.gpu_cores, 1);
        assert_eq!(c.mem.protocol, Protocol::DeNovo);
        assert_eq!(c.mem.local_kind, LocalMemKind::Stash);
        assert_eq!(c.mem.mshr_entries, 256);
        assert_eq!(c.mem.store_buffer_entries, 256);
    }

    #[test]
    #[should_panic(expected = "CPU")]
    fn too_many_cores_panics() {
        let _ = SystemConfig::paper().with_gpu_cores(16);
    }
}
