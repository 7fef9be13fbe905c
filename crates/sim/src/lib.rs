//! # tapas-sim — cycle-level simulation of TAPAS-generated accelerators
//!
//! This crate is the "FPGA" of the reproduction: it executes the
//! architecture that TAPAS Stage 1/2 generate — a collection of **task
//! units**, one per static task, each with:
//!
//! * a **task queue** of `Ntasks` entries holding `Args[]`, the
//!   `ParentID = (SID, DyID)` and the child join counter `C#`, with entries
//!   moving through the paper's `READY → EXE → SYNC → COMPLETE` states;
//! * asynchronous **spawn/sync ports** with ready-valid backpressure
//!   (a spawn into a full queue stalls the producer);
//! * `Ntiles` **TXU tiles**, each executing one task instance as a
//!   latency-insensitive dataflow (per-block token schedule with fixed
//!   compute latencies and dynamic memory latencies);
//! * memory access through the shared **data box → L1 cache → DRAM** chain
//!   from `tapas-mem`.
//!
//! Recursion works exactly as §IV-C describes: a `call` node spawns the
//! callee's root task, saves the caller instance's dataflow context back
//! into its queue entry, and releases the tile — the task controller's
//! asynchronous queuing is what lets a task spawn itself without deadlock.
//!
//! # Observability
//!
//! The simulator can attribute every tile-cycle to a [`StallReason`]
//! (build the configuration with `.profile(ProfileLevel::Summary)`); the
//! resulting [`Profile`] satisfies an exact accounting invariant and feeds
//! a [`BottleneckReport`]. With `.trace_path(..)` the run also writes a
//! Chrome `chrome://tracing` event trace. Both are strictly passive:
//! enabling them never changes simulated timing or results.
//!
//! # Robustness
//!
//! A seeded [`FaultPlan`] (armed with `.faults(..)` on the builder)
//! deterministically injects tile stalls and wedges, dropped / duplicated /
//! corrupted / delayed memory responses, and queue-RAM parity errors.
//! Opposite it, [`FaultTolerance`] arms per-unit watchdogs, bounded memory
//! retry with exponential backoff, ECC on read data, queue parity checks,
//! and tile quarantine with graceful degradation. Every injected fault is
//! either **masked** (the run produces byte-identical results to a
//! fault-free run) or **detected** (the run fails with a typed
//! [`SimError`]) — never silently wrong. When progress stops, the engine
//! reports a [`DeadlockDiagnosis`] built from the unit wait-for graph
//! instead of a bare timeout.
//!
//! Finite task queues need not be fatal: arming
//! [`AdmissionControl`] (`admission: Some(..)` on [`AcceleratorConfig`])
//! makes any queue size survivable — refused spawns execute inline on the
//! spawning tile (work-first degradation), overflow entries spill through
//! the data box into a DRAM-backed arena and refill as slots drain, and
//! blocked-spawn cycles are broken by inlining the oldest spilled entry.
//! The default (`None`) takes none of these paths and is cycle-identical
//! to the unhardened simulator; [`SimStats`] counts `inline_spawns`,
//! `spills` and `refills`, and spill traffic shows up in the profiler as
//! a dedicated `spill-stall` bucket.
//!
//! # Performance knobs
//!
//! Two opt-in features rebalance the paper's fixed design, and both are
//! cycle-identical to seed when left at their defaults:
//!
//! * **Cross-unit work stealing** (`.steal(StealConfig { .. })`): an idle
//!   tile claims the oldest READY entry from a sibling unit's queue after
//!   a bounded steal latency. Victim probing is deterministic round-robin
//!   and the owner always wins a same-cycle pop/steal race. [`SimStats`]
//!   counts `steals` and `steal_fail`; the profiler charges in-flight
//!   steal cycles to a `steal-stall` bucket.
//! * **Banked non-blocking L1** (`.l1_banks(n)`): the shared cache splits
//!   into `n` address-interleaved banks with per-bank MSHRs, so
//!   same-cycle accesses to different banks grant in parallel. Lost bank
//!   arbitration is counted (`bank_conflicts`) and profiled as
//!   `bank-conflict`.
//!
//! # Examples
//!
//! Lower a one-task function (Stages 1–2, which `tapas::Toolchain::compile`
//! runs for a whole design) and simulate it:
//!
//! ```
//! use tapas_dfg::{lower_module, LatencyModel};
//! use tapas_ir::{FunctionBuilder, Module, Type, interp::Val};
//! use tapas_sim::{Accelerator, AcceleratorConfig};
//!
//! let mut b = FunctionBuilder::new("inc", vec![Type::ptr(Type::I32)], Type::Void);
//! let p = b.param(0);
//! let v = b.load(p);
//! let one = b.const_int(Type::I32, 1);
//! let v2 = b.add(v, one);
//! b.store(p, v2);
//! b.ret(None);
//! let mut m = Module::new("demo");
//! let f = m.add_function(b.finish());
//!
//! let (graphs, dfgs) = lower_module(&m, &LatencyModel::default()).unwrap();
//! let cfg = AcceleratorConfig::builder().build().unwrap();
//! let mut acc = Accelerator::elaborate(&m, &graphs, &dfgs, &cfg);
//! acc.mem_mut().write_bytes(0, &41i32.to_le_bytes());
//! let out = acc.run(f, &[Val::Int(0)]).unwrap();
//! assert_eq!(acc.mem().read_bits(0, 4), 42);
//! assert!(out.cycles > 0);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
pub mod fault;
pub mod profile;
pub mod snapshot;

pub use config::{
    AcceleratorConfig, AcceleratorConfigBuilder, AdmissionControl, ConfigError, Limits,
    SnapshotConfig, StealConfig,
};
pub use engine::{Accelerator, SimError, SimEvent, SimEventKind, SimOutcome, SimStats, UnitStats};
pub use fault::{
    BlockedTask, DeadlockDiagnosis, Fault, FaultPlan, FaultTolerance, UnitWaitState, WaitCause,
    WaitEdge, WaitKind,
};
pub use profile::{
    chrome_trace, BottleneckReport, BoundClass, NodeClass, Profile, ProfileLevel, QueueSummary,
    StallReason, TileProfile, UnitProfile,
};
pub use snapshot::{EngineSnapshot, SnapshotError};
