//! # gsi-sim — the integrated CPU-GPU system simulator
//!
//! Wires the pieces of the GSI paper's simulated machine (Table 5.1) into a
//! runnable system: 15 GPU SMs ([`gsi_sm::SmCore`]) and one CPU node spread
//! over a 4×4 mesh ([`gsi_noc::Mesh`]), per-core memory units
//! ([`gsi_mem::CoreMemUnit`]), a 16-bank NUCA L2 with main memory
//! ([`gsi_mem::SharedMem`]), and one [`gsi_core::StallCollector`] per SM.
//!
//! The simulator is cycle-driven and fully deterministic: the same kernel
//! and configuration always produce the same cycle counts and stall
//! breakdowns.
//!
//! ```
//! use gsi_sim::{LaunchSpec, Simulator, SystemConfig};
//! use gsi_isa::{ProgramBuilder, Reg};
//!
//! // A kernel that stores its block id and exits.
//! let mut b = ProgramBuilder::new("hello");
//! b.st_global(Reg(1), Reg(2), 0);
//! b.exit();
//! let program = b.build()?;
//!
//! let mut sim = Simulator::new(SystemConfig::paper().with_gpu_cores(2));
//! let spec = LaunchSpec::new(program, 4, 1).with_init(|w, block, _warp, _ctx| {
//!     w.set_uniform(1, block + 10);        // value
//!     w.set_uniform(2, 0x1000 + block * 8); // address
//! });
//! let run = sim.run_kernel(&spec).expect("kernel completes");
//! assert_eq!(sim.gmem().read_word(0x1008), 11);
//! assert!(run.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod launch;
mod machine;
mod progress;

pub use config::{AnalysisGate, CycleEngine, SystemConfig};
pub use launch::{LaunchCtx, LaunchSpec};
pub use machine::{
    analyze_launch, analyze_launch_with, EngineStats, KernelRun, SimError, Simulator,
};
pub use progress::{ProgressReport, SmProgress, TimeoutKind};

pub use gsi_analyze::{
    finding_digest, AnalysisReport, Baseline, Finding, FindingKind, ProtocolClass, Severity,
};
