//! # tapas — parallel accelerators from parallel programs
//!
//! A from-scratch Rust reproduction of **TAPAS** (MICRO 2018): an HLS
//! toolchain that turns programs with *dynamic* task parallelism —
//! expressed through the Tapir `detach`/`reattach`/`sync` instructions —
//! into task-parallel accelerator architectures.
//!
//! The pipeline mirrors the paper's three stages (Fig. 3):
//!
//! 1. **Stage 1** ([`Toolchain::compile`]) — task extraction over the
//!    parallel IR: every detached region becomes a task with its live-in
//!    argument set; the result is the accelerator's task-level blueprint.
//! 2. **Stage 2** (also in [`Toolchain::compile`]) — per-task TXU dataflow
//!    generation with latency-insensitive nodes, data-box ports and
//!    spawn/sync terminators, timed by the toolchain's latency model.
//! 3. **Stage 3** — parameter binding over the [`CompiledDesign`], which
//!    never re-runs Stages 1–2: [`CompiledDesign::instantiate`] builds the
//!    cycle-level simulator (`Ntasks`, `Ntiles`, cache/DRAM),
//!    [`CompiledDesign::emit_chisel`] emits the parameterized Chisel-style
//!    RTL, and [`CompiledDesign::design_info`] feeds the resource, fmax and
//!    power models.
//!
//! # Examples
//!
//! ```
//! use tapas::{Toolchain, AcceleratorConfig};
//! use tapas::ir::{FunctionBuilder, Module, Type, interp::Val};
//!
//! // y[i] = x[i] + 1 over one spawned task per element.
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
//! let design = Toolchain::new().compile(&m).unwrap();
//! let mut acc = design.instantiate(&AcceleratorConfig::default()).unwrap();
//! acc.mem_mut().write_bytes(0, &9i32.to_le_bytes());
//! acc.run(f, &[Val::Int(0)]).unwrap();
//! assert_eq!(acc.mem().read_bits(0, 4), 10);
//!
//! let rtl = design.emit_chisel(&AcceleratorConfig::default());
//! assert!(rtl.contains("class DemoAccelerator"));
//! ```

#![warn(missing_docs)]

mod rtl;
mod verilog;

/// Re-export of the static work/span and occupancy analysis crate.
pub use tapas_analyze as analyze;
/// Re-export of the baseline models crate.
pub use tapas_baseline as baseline;
/// Re-export of the dataflow-generation crate.
pub use tapas_dfg as dfg;
/// Re-export of the parallel IR crate.
pub use tapas_ir as ir;
/// Re-export of the Cilk-like front end.
pub use tapas_lang as lang;
/// Re-export of the memory-substrate crate.
pub use tapas_mem as mem;
/// Re-export of the resource/power model crate.
pub use tapas_res as res;
/// Re-export of the accelerator simulator crate.
pub use tapas_sim as sim;
/// Re-export of the task-extraction crate.
pub use tapas_task as task;

pub use tapas_analyze::{AnalysisReport, AnalyzeError, Bottleneck, Bound, ConfigVerdict};
pub use tapas_sim::{
    Accelerator, AcceleratorConfig, AcceleratorConfigBuilder, AdmissionControl, BottleneckReport,
    BoundClass, ConfigError, DeadlockDiagnosis, EngineSnapshot, Fault, FaultPlan, FaultTolerance,
    Profile, ProfileLevel, SimError, SimEvent, SimEventKind, SimOutcome, SimStats, SnapshotConfig,
    SnapshotError, StallReason, StealConfig, WaitCause,
};

use tapas_dfg::{lower_module, LatencyModel, TaskDfg};
use tapas_ir::Module;
use tapas_res::DesignInfo;
use tapas_task::TaskGraph;

/// Toolchain errors (stage 1/2 failures): [`ToolchainError::Task`] when
/// IR verification or task extraction fails, another variant when
/// dataflow lowering does.
pub use tapas_dfg::DfgError as ToolchainError;

/// Any failure the `tapas` façade can produce, so callers can `?` through
/// the whole compile → configure → simulate pipeline with one error type.
///
/// Each variant wraps the subsystem's typed error and surfaces it through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Stage 1/2 failed (task extraction or dataflow lowering).
    Toolchain(ToolchainError),
    /// The accelerator configuration was rejected.
    Config(ConfigError),
    /// The simulation failed.
    Sim(SimError),
    /// Static analysis failed.
    Analyze(AnalyzeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Toolchain(_) => write!(f, "compilation failed"),
            Error::Config(_) => write!(f, "invalid accelerator configuration"),
            Error::Sim(_) => write!(f, "simulation failed"),
            Error::Analyze(_) => write!(f, "static analysis failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Toolchain(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Analyze(e) => Some(e),
        }
    }
}

impl From<ToolchainError> for Error {
    fn from(e: ToolchainError) -> Self {
        Error::Toolchain(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<AnalyzeError> for Error {
    fn from(e: AnalyzeError) -> Self {
        Error::Analyze(e)
    }
}

/// The TAPAS HLS driver.
#[derive(Debug, Clone, Default)]
pub struct Toolchain {
    latencies: LatencyModel,
}

impl Toolchain {
    /// A toolchain with the default functional-unit latency library.
    pub fn new() -> Self {
        Toolchain { latencies: LatencyModel::default() }
    }

    /// A toolchain with custom functional-unit latencies: the design's one
    /// latency model, baked into every dataflow node the simulator runs.
    pub fn with_latencies(latencies: LatencyModel) -> Self {
        Toolchain { latencies }
    }

    /// Run stages 1 and 2 on `module` — the only place they run; every
    /// Stage-3 backend binds parameters to the result.
    ///
    /// # Errors
    ///
    /// Returns [`ToolchainError`] when the module is not a well-formed
    /// Tapir program or a task uses constructs without a hardware mapping.
    pub fn compile(&self, module: &Module) -> Result<CompiledDesign, ToolchainError> {
        let (graphs, dfgs) = lower_module(module, &self.latencies)?;
        Ok(CompiledDesign { module: module.clone(), graphs, dfgs })
    }
}

/// Output of stages 1 and 2: the task-level architecture plus per-task
/// dataflows, ready for stage-3 parameter binding.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// The compiled module.
    pub module: Module,
    /// Task graph per function.
    pub graphs: Vec<TaskGraph>,
    /// TXU dataflows per function (indexed like `graphs`).
    pub dfgs: Vec<Vec<TaskDfg>>,
}

impl CompiledDesign {
    /// Total task units in the design.
    pub fn num_tasks(&self) -> usize {
        self.graphs.iter().map(|g| g.num_tasks()).sum()
    }

    /// Every task unit in elaboration order: its function's task graph
    /// and its TXU dataflow.
    pub(crate) fn units(&self) -> impl Iterator<Item = (&TaskGraph, &TaskDfg)> {
        self.graphs.iter().zip(&self.dfgs).flat_map(|(g, dfgs)| dfgs.iter().map(move |d| (g, d)))
    }

    /// Stage 3 (simulation backend): build the cycle-level accelerator
    /// from this design's graphs and dataflows, binding only `cfg`.
    ///
    /// # Errors
    ///
    /// None today; the `Result` leaves room for a configuration the
    /// design cannot host.
    pub fn instantiate(&self, cfg: &AcceleratorConfig) -> Result<Accelerator, SimError> {
        Ok(Accelerator::elaborate(&self.module, &self.graphs, &self.dfgs, cfg))
    }

    /// Stage 3 (simulation backend), crash-consistent flavour: build the
    /// accelerator, load `mem_image` at address 0, and run `entry(args)` —
    /// resuming from the newest valid on-disk snapshot when the
    /// configuration arms one (`.snapshot(path, every)` on the builder).
    ///
    /// The restore ladder degrades gracefully: the current snapshot is
    /// tried first, then the `.prev` rotation, and a snapshot that fails
    /// verification (checksum, version, design fingerprint) is skipped
    /// with a note rather than an error, falling back to a fresh run from
    /// cycle 0. A resumed run is byte-identical — cycles, [`SimStats`],
    /// profile and memory — to the same run never interrupted.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and simulation failures. A snapshot that
    /// merely fails to restore is *not* an error (it lands in
    /// [`ResumableRun::notes`]); only the final run's failure is.
    pub fn simulate_resumable(
        &self,
        cfg: &AcceleratorConfig,
        entry: tapas_ir::FuncId,
        args: &[tapas_ir::interp::Val],
        mem_image: &[u8],
    ) -> Result<ResumableRun, Error> {
        let mut notes = Vec::new();
        let mut acc = self.instantiate(cfg)?;
        acc.mem_mut().write_bytes(0, mem_image);

        // Fallback ladder: current snapshot, then its `.prev` rotation,
        // then cycle 0. `load` rejects torn/corrupt files by checksum;
        // `resume` additionally rejects fingerprint mismatches.
        if let Some(sc) = cfg.snapshot.as_ref() {
            let rungs = [sc.path.clone(), tapas_sim::snapshot::prev_path(&sc.path)];
            for path in rungs {
                if !path.exists() {
                    continue;
                }
                let snap = match EngineSnapshot::load(&path) {
                    Ok(s) => s,
                    Err(e) => {
                        notes.push(format!("{}: {e}", path.display()));
                        continue;
                    }
                };
                let from = snap.cycle;
                match acc.resume(&snap) {
                    Ok(outcome) => {
                        return Ok(ResumableRun {
                            accelerator: acc,
                            outcome,
                            resumed_from: Some(from),
                            notes,
                        });
                    }
                    Err(SimError::Snapshot(e)) => {
                        // A failed restore may leave partially-decoded
                        // state behind; rebuild before the next rung.
                        notes.push(format!("{}: {e}", path.display()));
                        acc = self.instantiate(cfg)?;
                        acc.mem_mut().write_bytes(0, mem_image);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if !notes.is_empty() {
                notes.push("no usable snapshot; starting from cycle 0".into());
            }
        }

        let outcome = acc.run(entry, args)?;
        Ok(ResumableRun { accelerator: acc, outcome, resumed_from: None, notes })
    }

    /// Stage 3 (RTL backend): emit parameterized Chisel-style RTL.
    pub fn emit_chisel(&self, cfg: &AcceleratorConfig) -> String {
        rtl::emit_chisel(self, cfg)
    }

    /// Stage 3 (RTL backend): emit structural Verilog (the post-Chisel
    /// artifact of the paper's flow).
    pub fn emit_verilog(&self, cfg: &AcceleratorConfig) -> String {
        verilog::emit_verilog(self, cfg)
    }

    /// Static work/span and task-occupancy analysis of `entry` invoked with
    /// `args` — no simulation. The report carries interval bounds on work,
    /// span (so a Brent's-law speedup ceiling), memory operations and peak
    /// live tasks, plus the smallest `ntasks` proven deadlock-free without
    /// admission control and a predicted bottleneck class. Judge a specific
    /// configuration with [`AnalysisReport::check_config`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] when `entry` is out of range.
    pub fn analyze(
        &self,
        entry: tapas_ir::FuncId,
        args: &[tapas_ir::interp::Val],
    ) -> Result<AnalysisReport, AnalyzeError> {
        tapas_analyze::analyze_prepared(&self.module, &self.graphs, entry, args)
    }

    /// Stage 3 (resource backend): design description for `tapas-res`.
    pub fn design_info(&self, cfg: &AcceleratorConfig) -> DesignInfo {
        DesignInfo::new(
            &self.module,
            &self.graphs,
            &self.dfgs,
            cfg.ntasks,
            cfg.cache.size_bytes,
            |name| cfg.tiles_for(name),
        )
    }

    /// Per-task static profile report (the Table II columns).
    pub fn task_report(&self) -> Vec<TaskReportRow> {
        self.units()
            .map(|(g, dfg)| {
                let prof = g.task_profile(self.module.function(g.func), dfg.task);
                TaskReportRow {
                    task: g.task(dfg.task).name.clone(),
                    insts: prof.insts,
                    mem_ops: prof.mem_ops,
                    args: prof.args,
                    has_loop: dfg.has_loop,
                    children: g.task(dfg.task).children.len(),
                }
            })
            .collect()
    }
}

/// Result of [`CompiledDesign::simulate_resumable`]: the outcome plus how
/// the run started and which snapshot rungs (if any) were rejected.
pub struct ResumableRun {
    /// The accelerator in its post-run state — read results out of its
    /// memory with [`Accelerator::mem`].
    pub accelerator: Accelerator,
    /// The simulation outcome (identical to an uninterrupted run's).
    pub outcome: SimOutcome,
    /// Cycle the run resumed from; `None` when it started fresh.
    pub resumed_from: Option<u64>,
    /// One line per snapshot rung that failed verification or restore.
    pub notes: Vec<String>,
}

impl std::fmt::Debug for ResumableRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumableRun")
            .field("outcome", &self.outcome)
            .field("resumed_from", &self.resumed_from)
            .field("notes", &self.notes)
            .finish_non_exhaustive()
    }
}

/// One row of the per-task report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskReportRow {
    /// Task name.
    pub task: String,
    /// Static instruction count.
    pub insts: usize,
    /// Static load/store count.
    pub mem_ops: usize,
    /// Spawn-port argument count.
    pub args: usize,
    /// Internal loop present.
    pub has_loop: bool,
    /// Static child-task count.
    pub children: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_tasks_for_suite() {
        for wl in tapas_workloads::suite_small() {
            let design = Toolchain::new().compile(&wl.module).unwrap();
            assert!(design.num_tasks() >= 2, "{} has spawned tasks", wl.name);
            let report = design.task_report();
            assert_eq!(report.len(), design.num_tasks());
            assert!(report.iter().any(|r| r.mem_ops > 0));
        }
    }

    #[test]
    fn compile_rejects_malformed_modules() {
        use tapas_ir::{FunctionBuilder, Type};
        let mut b = FunctionBuilder::new("bad", vec![], Type::I32);
        b.ret(None); // type mismatch
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let err = Toolchain::new().compile(&m).unwrap_err();
        assert!(matches!(err, ToolchainError::Task(_)));
    }

    /// Slower integer, address and floating-point units than the default
    /// library.
    fn slow_latencies() -> LatencyModel {
        LatencyModel { int_simple: 2, gep: 3, fp_add: 9, fp_mul: 7, ..LatencyModel::default() }
    }

    #[test]
    fn the_toolchain_latency_model_reaches_the_simulator() {
        let wl = tapas_workloads::saxpy::build(128);
        let golden = wl.golden_memory();
        let cycles = |toolchain: Toolchain| {
            let design = toolchain.compile(&wl.module).unwrap();
            let mut acc = design.instantiate(&AcceleratorConfig::default()).unwrap();
            acc.mem_mut().write_bytes(0, &wl.mem);
            let out = acc.run(wl.func, &wl.args).unwrap();
            assert_eq!(acc.mem().read_bytes(wl.output.0, wl.output.1), wl.output_of(&golden));
            out.cycles
        };
        let default = cycles(Toolchain::new());
        let slow = cycles(Toolchain::with_latencies(slow_latencies()));
        assert!(slow > default, "slower units must cost cycles: {slow} vs {default}");
    }

    #[test]
    fn design_info_counts_every_unit() {
        let wl = tapas_workloads::matrix_add::build(8);
        let design = Toolchain::new().compile(&wl.module).unwrap();
        let info = design.design_info(&AcceleratorConfig::default());
        assert_eq!(info.units.len(), design.num_tasks());
    }

    #[test]
    fn facade_analysis_brackets_the_accelerator_and_judges_configs() {
        use tapas_ir::interp::{run, InterpConfig};
        let wl = tapas_workloads::matrix_add::build(8);
        let design = Toolchain::new().compile(&wl.module).unwrap();
        let report = design.analyze(wl.func, &wl.args).unwrap();

        // Static bounds bracket the interpreter's exact counters.
        let mut mem = wl.mem.clone();
        let out = run(&wl.module, wl.func, &wl.args, &mut mem, &InterpConfig::default()).unwrap();
        assert!(report.work.contains(out.work), "{} ∋ {}", report.work, out.work);
        assert!(report.span.contains(out.span), "{} ∋ {}", report.span, out.span);
        assert!(report.peak_tasks.contains(out.peak_live_tasks));

        // A fork-join workload is proven safe at the seed default ntasks.
        let cfg = AcceleratorConfig::default();
        assert!(report.check_config(cfg.ntasks as u64, cfg.deadlock_guarded()).safe);
        assert!(report.speedup_ceiling(4) >= 1.0);
    }

    #[test]
    fn unified_error_wraps_and_chains() {
        use std::error::Error as _;
        // Toolchain failure converts and exposes its source.
        use tapas_ir::{FunctionBuilder, Type};
        let mut b = FunctionBuilder::new("bad", vec![], Type::I32);
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let run = |m: &Module| -> Result<(), Error> {
            Toolchain::new().compile(m)?;
            Ok(())
        };
        let err = run(&m).unwrap_err();
        assert!(matches!(err, Error::Toolchain(_)));
        let src = err.source().expect("source preserved");
        assert!(src.to_string().contains("task"), "{src}");

        // Config failure converts too.
        let cfg_err: Error = AcceleratorConfig::builder().tiles(0).build().unwrap_err().into();
        assert!(matches!(cfg_err, Error::Config(ConfigError::ZeroTiles { .. })));
        assert!(cfg_err.source().is_some());

        // Sim failure converts.
        let sim_err: Error = SimError::DivByZero.into();
        assert!(matches!(sim_err, Error::Sim(SimError::DivByZero)));
        assert_eq!(sim_err.source().unwrap().to_string(), "division by zero");
    }

    #[test]
    fn simulate_resumable_matches_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join("tapas-core-resumable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("facade-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sim::snapshot::prev_path(&path));

        let wl = tapas_workloads::matrix_add::build(8);
        let design = Toolchain::new().compile(&wl.module).unwrap();
        let base = AcceleratorConfig::builder().tiles(2).build().unwrap();

        // Golden, uninterrupted run.
        let mut acc = design.instantiate(&base).unwrap();
        acc.mem_mut().write_bytes(0, &wl.mem);
        let golden = acc.run(wl.func, &wl.args).unwrap();
        let golden_mem = acc.mem().read_bytes(wl.output.0, wl.output.1).to_vec();

        // Fresh start: no snapshot on disk, runs from cycle 0.
        let cfg = AcceleratorConfig::builder().tiles(2).snapshot(&path, 50).build().unwrap();
        let run = design.simulate_resumable(&cfg, wl.func, &wl.args, &wl.mem).unwrap();
        assert_eq!(run.resumed_from, None);
        assert_eq!(run.outcome, golden);
        assert!(path.exists(), "periodic snapshot written");

        // The completed run left a near-end snapshot behind; clear it so
        // the kill below starts from cycle 0.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sim::snapshot::prev_path(&path));

        // Kill mid-flight, then resume from the disk snapshot.
        let killed = AcceleratorConfig::builder()
            .tiles(2)
            .snapshot(&path, 50)
            .halt_at_cycle(golden.cycles / 2)
            .build()
            .unwrap();
        let err = design.simulate_resumable(&killed, wl.func, &wl.args, &wl.mem).unwrap_err();
        assert!(matches!(err, Error::Sim(SimError::Halted { .. })), "{err:?}");
        let resumed = design.simulate_resumable(&cfg, wl.func, &wl.args, &wl.mem).unwrap();
        let from = resumed.resumed_from.expect("resumed from a snapshot");
        assert!(from > 0 && from < golden.cycles);
        assert_eq!(resumed.outcome, golden);
        assert_eq!(resumed.accelerator.mem().read_bytes(wl.output.0, wl.output.1), &golden_mem[..]);

        // Corrupt the current snapshot: the ladder falls through to `.prev`
        // (or cycle 0) with notes, never an error.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let fallback = design.simulate_resumable(&cfg, wl.func, &wl.args, &wl.mem).unwrap();
        assert!(!fallback.notes.is_empty(), "corrupt rung noted");
        assert_eq!(fallback.outcome, golden);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sim::snapshot::prev_path(&path));
    }

    #[test]
    fn pipeline_runs_through_the_unified_error_type() {
        let wl = tapas_workloads::matrix_add::build(4);
        let run = || -> Result<u64, Error> {
            let design = Toolchain::new().compile(&wl.module)?;
            let cfg = AcceleratorConfig::builder().tiles(2).build()?;
            let mut acc = design.instantiate(&cfg)?;
            acc.mem_mut().write_bytes(0, &wl.mem);
            let out = acc.run(wl.func, &wl.args)?;
            Ok(out.cycles)
        };
        assert!(run().unwrap() > 0);
    }
}
