#![warn(missing_docs)]

//! One differential harness: the generated accelerator must compute what
//! the parallel program computes, under any sampled configuration.
//!
//! Every campaign is a list of [`Cell`]s. A cell names a program
//! [`Source`] (a small-suite workload, or a `tapas-gen` seed), its own
//! sample-stream seed and a [`Campaign`], which decides only how the
//! cell's [`Sample`]s are drawn:
//!
//! * `differential`: steal × banks × tiles × queue depth × admission;
//! * `chaos`: the same knobs plus a profiler draw and a kill point;
//! * `fuzz` (generated programs): the knobs, the engine core, and a fault
//!   plan or a kill point.
//!
//! A cell loads its [`Program`] once: the workload, its interpreter golden
//! output, its static [`AnalysisReport`] and its compiled design, which
//! every simulation of the cell instantiates. [`check_sample`] applies
//! the oracles the sample calls for, whatever campaign drew it:
//!
//! 1. **Functional**: the output region equals the interpreter golden.
//! 2. **Timing opt-in**: a fault-free sample with stealing off and one L1
//!    bank is cycle-identical to its *seed twin*, the same configuration
//!    built without touching the `steal`/`l1_banks` knobs and run on the
//!    stepped core.
//! 3. **Masked or detected**: with faults armed, a run that stops with a
//!    typed error passes (detected); one that completes must still match
//!    golden (masked). Only a silent wrong output fails.
//! 4. **Kill and resume**: a kill sample's run, killed at a seeded cycle
//!    and resumed from its snapshot, is byte-identical to the
//!    uninterrupted run, which is the run oracle 1 compared with golden.
//!
//! A failing sample is greedily [minimized][minimize], never across the
//! analyzer's deadlock boundary, and rendered as one repro line that
//! [`replay_repro`] (and `reproduce fuzzsim --repro`) re-runs.

pub mod fuzz;

use std::fmt;
use std::path::Path;

use tapas::{
    Accelerator, AcceleratorConfig, AdmissionControl, AnalysisReport, CompiledDesign,
    EngineSnapshot, FaultPlan, ProfileLevel, SimError, SimOutcome, SnapshotConfig, StealConfig,
    Toolchain,
};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::{suite_small, BuiltWorkload};

/// The fixed seed of the differential, chaos and fuzzing campaigns.
pub const SWEEP_SEED: u64 = 0x7A9A_5CAF;

/// Where a cell's program comes from; a repro line names it the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A hand-written workload, by name: the small suite plus the deep
    /// spawn chain `deeprec` of the boundary sweep.
    Suite(String),
    /// A generated program, by its [`tapas_gen::generate`] seed.
    Gen(u64),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Suite(name) => f.write_str(name),
            Source::Gen(seed) => write!(f, "{seed:#x}"),
        }
    }
}

/// The hand-written programs a [`Source::Suite`] resolves against.
fn corpus() -> Vec<BuiltWorkload> {
    let mut corpus = suite_small();
    corpus.push(tapas_workloads::deeprec::build(40));
    corpus
}

impl Source {
    /// Build the program and its ground truth.
    ///
    /// # Errors
    ///
    /// An unknown workload name, or a program that fails its lint,
    /// golden run, analysis or compilation.
    pub fn load(&self) -> Result<Program, String> {
        match self {
            Source::Suite(name) => corpus()
                .into_iter()
                .find(|w| &w.name == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))
                .and_then(Program::suite),
            Source::Gen(seed) => fuzz::generated(*seed),
        }
    }
}

/// A program with everything the oracles compare against, prepared once
/// per cell.
#[derive(Debug)]
pub struct Program {
    /// Where the program came from.
    pub source: Source,
    /// The program, its memory image and its output region.
    pub wl: BuiltWorkload,
    /// The output region after the interpreter golden run.
    pub golden: Vec<u8>,
    /// The static analysis: recursion, and the queue depth proven safe.
    pub report: AnalysisReport,
    /// The compiled design every simulation instantiates.
    pub design: CompiledDesign,
    /// The generated shape family, or `"suite"` for a hand-written one.
    pub shape: &'static str,
    /// The generated parameters, or the hand-written workload's name.
    pub descriptor: String,
}

impl Program {
    /// Prepare a hand-written workload: golden output, analysis, design.
    ///
    /// # Errors
    ///
    /// Static analysis or compilation failed.
    pub fn suite(wl: BuiltWorkload) -> Result<Program, String> {
        let golden = wl.output_of(&wl.golden_memory()).to_vec();
        let descriptor = wl.name.clone();
        Program::new(Source::Suite(wl.name.clone()), wl, golden, "suite", descriptor)
    }

    fn new(
        source: Source,
        wl: BuiltWorkload,
        golden: Vec<u8>,
        shape: &'static str,
        descriptor: String,
    ) -> Result<Program, String> {
        let report = tapas_analyze::analyze(&wl.module, wl.func, &wl.args)
            .map_err(|e| format!("{}: static analysis: {e}", wl.name))?;
        let design = Toolchain::new()
            .compile(&wl.module)
            .map_err(|e| format!("{}: compile: {e}", wl.name))?;
        Ok(Program { source, wl, golden, report, design, shape, descriptor })
    }

    /// An accelerator for `cfg` with the program's memory image loaded.
    fn machine(&self, cfg: &AcceleratorConfig) -> Result<Accelerator, String> {
        let mut acc = self.design.instantiate(cfg).map_err(|e| format!("elaborate: {e}"))?;
        acc.mem_mut().write_bytes(0, &self.wl.mem);
        Ok(acc)
    }

    /// The program's output region in `acc`'s memory.
    fn output<'a>(&self, acc: &'a Accelerator) -> &'a [u8] {
        acc.mem().read_bytes(self.wl.output.0, self.wl.output.1)
    }

    /// The one-line repro string for `s` on this program.
    pub fn repro(&self, s: &Sample) -> String {
        s.repro(&self.source, &self.wl.name)
    }
}

/// One sampled point of the feature matrix, small enough to print whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Steal latency in cycles; `None` leaves stealing disabled.
    pub steal_latency: Option<u64>,
    /// L1 bank count (power of two).
    pub banks: usize,
    /// Worker tiles on every task unit.
    pub tiles: usize,
    /// Queue entries per task unit.
    pub ntasks: usize,
    /// Whether admission control (spill + inline degradation) is armed.
    pub admission: bool,
    /// Run on the stepped (cycle-by-cycle) engine core instead of the
    /// event-driven default.
    pub stepped: bool,
    /// Arm a seeded random [`FaultPlan`].
    pub faults: Option<u64>,
    /// Kill the run at a cycle derived from this salt and resume it from
    /// its snapshot.
    pub kill: Option<u64>,
    /// Arm the profiler at [`ProfileLevel::Summary`].
    pub profile: bool,
}

impl Sample {
    /// Every knob off, deep queue, event-driven core. If this diverges,
    /// the program itself, not a feature interaction, is the repro.
    pub fn baseline() -> Sample {
        Sample {
            steal_latency: None,
            banks: 1,
            tiles: 1,
            ntasks: 256,
            admission: false,
            stepped: false,
            faults: None,
            kill: None,
            profile: false,
        }
    }

    /// Draw the performance knobs from `rng`, every other dimension off.
    /// `recursive` constrains the queue depth so the sample cannot
    /// deadlock by construction (recursion without admission control
    /// needs one live entry per level).
    pub fn draw(rng: &mut SplitMix64, recursive: bool) -> Sample {
        let admission = rng.chance(1, 3);
        let steal_latency = if rng.chance(1, 2) { Some(1 + rng.next_below(6)) } else { None };
        let banks = [1usize, 2, 4][rng.next_below(3) as usize];
        let tiles = 1 + rng.next_below(4) as usize;
        let ntasks = if admission {
            [2usize, 4, 8, 32][rng.next_below(4) as usize]
        } else if recursive {
            [256usize, 512][rng.next_below(2) as usize]
        } else {
            [8usize, 16, 32][rng.next_below(3) as usize]
        };
        Sample { steal_latency, banks, tiles, ntasks, admission, ..Sample::baseline() }
    }

    /// Both performance knobs at their seed defaults?
    pub fn features_disabled(&self) -> bool {
        self.steal_latency.is_none() && self.banks == 1
    }

    /// The static analyzer proves the sample's queues deadlock-free.
    pub fn is_safe(&self, report: &AnalysisReport) -> bool {
        report.check_config(self.ntasks as u64, self.admission).safe
    }

    /// Materialize the sample through the public builder API (so the
    /// harness also exercises the builder's validation paths). The
    /// `seed_twin` of a sample is the same shape built without ever
    /// touching the `steal`/`l1_banks` knobs (or faults and profiler) and
    /// run on the stepped core; a features-disabled sample must time
    /// exactly like its twin, which locks both cores to the seed schedule.
    ///
    /// # Errors
    ///
    /// The builder rejected the sample (a repro line can name any value).
    pub fn config(&self, wl: &BuiltWorkload, seed_twin: bool) -> Result<AcceleratorConfig, String> {
        let mut b = AcceleratorConfig::builder()
            .tiles(self.tiles)
            .ntasks(self.ntasks)
            .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
            .event_driven(!self.stepped && !seed_twin);
        if self.admission {
            b = b.admission(AdmissionControl::default());
        }
        if !seed_twin {
            b = b.l1_banks(self.banks);
            if let Some(latency) = self.steal_latency {
                b = b.steal(StealConfig { latency });
            }
            if let Some(seed) = self.faults {
                b = b.faults(FaultPlan::random(seed));
            }
            if self.profile {
                b = b.profile(ProfileLevel::Summary);
            }
        }
        b.build().map_err(|e| format!("config: {e}"))
    }

    /// The one-line repro string: the program (a generator seed, or a
    /// workload name alone) and every sampled dimension, parseable by
    /// [`parse_repro`].
    pub fn repro(&self, source: &Source, workload: &str) -> String {
        let off_or = |v: Option<u64>, hex: bool| match v {
            None => "off".to_string(),
            Some(v) if hex => format!("{v:#x}"),
            Some(v) => v.to_string(),
        };
        let seed = match source {
            Source::Gen(seed) => format!("seed={seed:#x} "),
            Source::Suite(_) => String::new(),
        };
        format!(
            "{seed}workload={workload} steal={} banks={} tiles={} ntasks={} admission={} \
             engine={} faults={} kill={} profile={}",
            off_or(self.steal_latency, false),
            self.banks,
            self.tiles,
            self.ntasks,
            self.admission,
            if self.stepped { "stepped" } else { "event" },
            off_or(self.faults, true),
            off_or(self.kill, true),
            if self.profile { "summary" } else { "off" },
        )
    }
}

/// What a passing sample established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed with the golden output. A kill sample also
    /// resumed to the identical outcome: this is its kill cycle, 0 when
    /// the run was too short to kill.
    Matched(Option<u64>),
    /// A fault-armed run stopped with a typed error: detected, not silent.
    Detected,
}

/// Check `program` under `s` with every oracle the sample calls for (see
/// the crate docs). With `snapshot = Some((path, every))` a kill sample's
/// killed run also writes periodic snapshots to `path`, and its resume is
/// verified through the on-disk ladder as well.
///
/// # Errors
///
/// What diverged, unminimized and without the repro line.
pub fn check_sample(
    program: &Program,
    s: &Sample,
    snapshot: Option<(&Path, u64)>,
) -> Result<Verdict, String> {
    let cfg = s.config(&program.wl, false)?;
    let mut acc = program.machine(&cfg)?;
    let run = match acc.run(program.wl.func, &program.wl.args) {
        Ok(run) => run,
        // The tolerance machinery stopping a faulty run is its job done.
        Err(_) if s.faults.is_some() => return Ok(Verdict::Detected),
        Err(e) => return Err(format!("run: {e}")),
    };
    let output = program.output(&acc);
    if output != program.golden {
        return Err("output diverged from interpreter golden model".to_string());
    }
    if s.faults.is_none() && s.features_disabled() {
        let twin = program
            .machine(&s.config(&program.wl, true)?)?
            .run(program.wl.func, &program.wl.args)
            .map_err(|e| format!("seed twin: {e}"))?;
        if twin.cycles != run.cycles {
            return Err(format!(
                "disabled features changed timing ({} cycles vs seed {})",
                run.cycles, twin.cycles
            ));
        }
    }
    let kill_cycle = match s.kill {
        Some(salt) => Some(kill_and_resume(program, &cfg, &run, output, salt, snapshot)?),
        None => None,
    };
    Ok(Verdict::Matched(kill_cycle))
}

/// Kill a run of `cfg` at a cycle derived from `salt` (standing in for
/// `kill -9`), restore a freshly elaborated accelerator from the halted
/// run's snapshot, round-tripped through its on-disk byte format, and
/// require the resumed run to reproduce the uninterrupted `golden`
/// outcome and `golden_out` region exactly: cycles, every
/// [`tapas::SimStats`] counter and the profile when armed. With an
/// on-disk `snapshot` assignment the killed run also writes the periodic
/// ladder, and a run restored from the ladder must match too. Returns
/// the kill cycle.
fn kill_and_resume(
    program: &Program,
    cfg: &AcceleratorConfig,
    golden: &SimOutcome,
    golden_out: &[u8],
    salt: u64,
    snapshot: Option<(&Path, u64)>,
) -> Result<u64, String> {
    if golden.cycles < 2 {
        return Ok(0);
    }
    let kill = 1 + salt % (golden.cycles - 1);
    let resume_matches = |snap: &EngineSnapshot, what: &str| -> Result<(), String> {
        let mut acc = program.machine(cfg)?;
        let out = acc
            .resume(snap)
            .map_err(|e| format!("kill at {kill}: {what} from cycle {}: {e}", snap.cycle))?;
        if out != *golden {
            return Err(format!(
                "kill at {kill}: {what} from cycle {} diverged from the uninterrupted run \
                 ({} vs {} cycles, stats equal: {})",
                snap.cycle,
                out.cycles,
                golden.cycles,
                out.stats == golden.stats,
            ));
        }
        if program.output(&acc) != golden_out {
            return Err(format!("kill at {kill}: {what} output region diverged"));
        }
        Ok(())
    };

    let mut killed_cfg = cfg.clone();
    killed_cfg.halt_at_cycle = Some(kill);
    let clear = |path: &Path| {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tapas::sim::snapshot::prev_path(path));
    };
    if let Some((path, every)) = snapshot {
        // An earlier trial may have left snapshots at this stable path; a
        // resume would reject them by fingerprint, but start clean.
        clear(path);
        killed_cfg.snapshot = Some(SnapshotConfig { every, path: path.to_path_buf() });
    }
    let mut victim = program.machine(&killed_cfg)?;
    match victim.run(program.wl.func, &program.wl.args) {
        Err(SimError::Halted { .. }) => {}
        Err(e) => return Err(format!("kill at {kill}: unexpected failure before halt: {e}")),
        Ok(_) => return Err(format!("kill at {kill}: run completed past the halt hook")),
    }
    let snap = victim
        .take_halt_snapshot()
        .ok_or_else(|| format!("kill at {kill}: halted run left no snapshot"))?;
    let snap = EngineSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("kill at {kill}: snapshot failed the byte round-trip: {e}"))?;
    resume_matches(&snap, "resume")?;

    if let Some((path, _)) = snapshot {
        let (disk, notes) = tapas::sim::snapshot::load_latest(path);
        if !notes.is_empty() {
            return Err(format!("kill at {kill}: disk snapshot ladder degraded: {notes:?}"));
        }
        if let Some(disk) = disk {
            resume_matches(&disk, "disk resume")?;
        }
        clear(path);
    }
    Ok(kill)
}

/// Greedily minimize a failing sample: repeatedly try the simplifying
/// mutations (kill, faults, stepped core and profiler off, then steal
/// off, one bank, admission off, one tile, a 256-entry queue) and keep
/// the first that still `fails`. A mutation that would take the queues
/// from proven safe to not proven safe under `report` is never tried, so
/// the minimizer cannot trade the real failure for a deadlock of its own
/// making. The result is the simplest sample reproducing the failure.
pub fn minimize<F: Fn(&Sample) -> bool>(
    sample: &Sample,
    report: &AnalysisReport,
    fails: &F,
) -> Sample {
    let mut best = sample.clone();
    loop {
        let b = &best;
        let candidates = [
            b.kill.map(|_| Sample { kill: None, ..b.clone() }),
            b.faults.map(|_| Sample { faults: None, ..b.clone() }),
            b.stepped.then(|| Sample { stepped: false, ..b.clone() }),
            b.profile.then(|| Sample { profile: false, ..b.clone() }),
            b.steal_latency.map(|_| Sample { steal_latency: None, ..b.clone() }),
            (b.banks > 1).then(|| Sample { banks: 1, ..b.clone() }),
            b.admission.then(|| Sample { admission: false, ..b.clone() }),
            (b.tiles > 1).then(|| Sample { tiles: 1, ..b.clone() }),
            (b.ntasks > 256).then(|| Sample { ntasks: 256, ..b.clone() }),
        ];
        let keeps_safety = |c: &Sample| c.is_safe(report) || !b.is_safe(report);
        match candidates.into_iter().flatten().find(|c| keeps_safety(c) && fails(c)) {
            Some(simpler) => best = simpler,
            None => return best,
        }
    }
}

/// How a campaign draws its cells' samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// The performance knobs ([`Sample::draw`]).
    Differential,
    /// The knobs, then a profiler draw and a kill salt on every sample.
    Chaos,
    /// The [baseline][Sample::baseline] first; then the knobs with the
    /// queue depth floored at the analyzer's safe bound, the engine core,
    /// and a fault seed or a kill salt (a kill needs a clean run to diff).
    Fuzz,
}

/// One shardable, deterministic slice of a campaign: a program and its
/// own sample stream. Cells run in any order, or concurrently, and always
/// draw the same samples, which is what lets the sweep executor shard,
/// retry and resume them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// How the samples are drawn.
    pub campaign: Campaign,
    /// The program under test.
    pub source: Source,
    /// The cell's own sample-stream seed.
    pub seed: u64,
    /// Samples to draw and check.
    pub samples: usize,
}

impl Cell {
    /// The cell's samples, drawn from its stream; `report` is its
    /// program's analysis.
    pub fn draw(&self, report: &AnalysisReport) -> Vec<Sample> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.samples)
            .map(|i| match self.campaign {
                Campaign::Differential => Sample::draw(&mut rng, report.recursive),
                Campaign::Chaos => {
                    let s = Sample::draw(&mut rng, report.recursive);
                    let profile = rng.chance(1, 2);
                    Sample { profile, kill: Some(rng.next_u64()), ..s }
                }
                Campaign::Fuzz if i == 0 => Sample::baseline(),
                Campaign::Fuzz => {
                    let mut s = Sample::draw(&mut rng, report.recursive);
                    if !s.is_safe(report) {
                        s.ntasks = s.ntasks.max(report.min_safe_ntasks.unwrap_or(0) as usize);
                    }
                    s.stepped = rng.chance(1, 4);
                    match rng.next_below(4) {
                        0 => s.faults = Some(rng.next_u64()),
                        1 => s.kill = Some(rng.next_u64()),
                        _ => {}
                    }
                    s
                }
            })
            .collect()
    }

    /// Check every drawn sample against `program` (this cell's
    /// [`Source::load`]); `snapshot` is passed to [`check_sample`].
    /// Returns the number of samples checked.
    ///
    /// # Errors
    ///
    /// The first failing sample is minimized and rendered as
    /// `"...\nminimized repro: <one-line string>"`; the line replays with
    /// [`replay_repro`].
    pub fn run(&self, program: &Program, snapshot: Option<(&Path, u64)>) -> Result<usize, String> {
        let samples = self.draw(&program.report);
        for s in &samples {
            if let Err(err) = check_sample(program, s, snapshot) {
                let fails = |c: &Sample| check_sample(program, c, snapshot).is_err();
                let minimized = minimize(s, &program.report, &fails);
                return Err(format!(
                    "{:?} cell failed (stream seed {:#x}, {} {}): {}: {err}\nminimized repro: {}",
                    self.campaign,
                    self.seed,
                    program.shape,
                    program.descriptor,
                    program.repro(s),
                    program.repro(&minimized)
                ));
            }
        }
        Ok(samples.len())
    }
}

/// One cell per small-suite workload, each seed derived from `seed` and
/// the workload's position through an extra SplitMix64 scramble, so the
/// streams are decorrelated from each other and, through `scramble`, from
/// other campaigns sharing the seed.
fn suite_cells(campaign: Campaign, seed: u64, scramble: u64, samples: usize) -> Vec<Cell> {
    suite_small()
        .iter()
        .enumerate()
        .map(|(i, wl)| Cell {
            campaign,
            source: Source::Suite(wl.name.clone()),
            seed: SplitMix64::new(seed ^ (i as u64 + 1).wrapping_mul(scramble)).next_u64(),
            samples,
        })
        .collect()
}

/// The differential sweep: one cell of `samples_per_workload` samples per
/// small-suite workload.
pub fn differential_cells(seed: u64, samples_per_workload: usize) -> Vec<Cell> {
    suite_cells(Campaign::Differential, seed, 0x9e37_79b9_7f4a_7c15, samples_per_workload)
}

/// The kill-and-resume sweep: one cell of `trials_per_workload` kill
/// samples per small-suite workload.
pub fn chaos_cells(seed: u64, trials_per_workload: usize) -> Vec<Cell> {
    suite_cells(Campaign::Chaos, seed, 0x517c_c1b7_2722_0a95, trials_per_workload)
}

/// Sample configurations at the static analyzer's predicted safe/unsafe
/// `ntasks` boundary, for every small-suite workload plus a deep spawn
/// chain. Three checks per workload:
///
/// 1. **Soundness**: a configuration the analyzer *proves* safe — queue
///    depth at the predicted minimum (plus seeded slack) with admission
///    control off — must pass [`check_sample`].
/// 2. **Rescue**: one entry below the boundary with admission control
///    armed must also pass (spilling replaces blocking), exactly as
///    `check_config` promises.
/// 3. **Tightness** (deep chain only): one entry below the boundary with
///    admission off must make the simulator report the very deadlock the
///    analyzer predicted.
///
/// Returns the number of checks made.
///
/// # Errors
///
/// The first violated check, with the sample's repro line.
pub fn boundary_sweep(seed: u64) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed);
    let mut checked = 0usize;
    for wl in corpus() {
        let p = Program::suite(wl)?;
        let need = p
            .report
            .min_safe_ntasks
            .ok_or_else(|| format!("{}: occupancy not statically bounded", p.wl.name))?;
        let tiles = 1 + rng.next_below(2) as usize;
        // At the boundary (with a little slack sometimes), and one entry
        // below it with admission armed; the floor has no below side.
        let at = (need + rng.next_below(3)) as usize;
        let safe = Sample { tiles, ntasks: at, ..Sample::baseline() };
        let below =
            Sample { admission: true, ntasks: (need as usize).saturating_sub(1), ..safe.clone() };
        let sides = if need > 1 { vec![safe, below.clone()] } else { vec![safe] };
        for s in sides {
            if !s.is_safe(&p.report) {
                return Err(format!("{}: analyzer retracted its own bound", p.repro(&s)));
            }
            check_sample(&p, &s, None).map_err(|e| format!("{}: {e}", p.repro(&s)))?;
            checked += 1;
        }
        // The deep chain's boundary is exact: one short, bare, wedged.
        if p.wl.name == "deeprec" {
            let bare = Sample { admission: false, ..below };
            if bare.is_safe(&p.report) {
                return Err(format!("{}: below-boundary config judged safe", p.repro(&bare)));
            }
            match check_sample(&p, &bare, None) {
                Err(e) if e.contains("deadlock") => checked += 1,
                other => {
                    return Err(format!("{}: expected a deadlock, got {other:?}", p.repro(&bare)))
                }
            }
        }
    }
    Ok(checked)
}

/// The keys of a repro line, in the order [`Sample::repro`] writes them.
const REPRO_KEYS: &str =
    "seed workload steal banks tiles ntasks admission engine faults kill profile";

/// Parse a one-line repro string produced by [`Sample::repro`] back into
/// its program source and sample. A line with `seed=` names a generated
/// program (its `workload=`, if given, must be what the seed generates);
/// a line without names a hand-written workload.
///
/// # Errors
///
/// Missing keys, unknown keys and malformed values are all rendered into
/// the error string.
pub fn parse_repro(line: &str) -> Result<(Source, Sample), String> {
    let mut kv = std::collections::HashMap::new();
    for tok in line.split_whitespace() {
        let (k, v) =
            tok.split_once('=').ok_or_else(|| format!("repro: `{tok}` is not key=value"))?;
        if !REPRO_KEYS.split(' ').any(|key| key == k) {
            return Err(format!("repro: unknown key `{k}`"));
        }
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("repro: missing {k}="));
    let num = |k: &str| {
        let v = get(k)?;
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("repro: bad value for {k}: `{v}`"))
    };
    let opt = |k: &str| if get(k)? == "off" { Ok(None) } else { num(k).map(Some) };
    let choice = |k: &str, off: &str, on: &str| match get(k)? {
        v if v == off => Ok(false),
        v if v == on => Ok(true),
        v => Err(format!("repro: {k} must be {off}|{on}, got `{v}`")),
    };
    let source = match (kv.contains_key("seed"), kv.get("workload")) {
        (true, w) => {
            let seed = num("seed")?;
            let expect = tapas_gen::generate(seed).wl.name;
            if w.is_some_and(|w| *w != expect) {
                return Err(format!(
                    "repro: workload `{}` does not match seed {seed:#x} (generates `{expect}`)",
                    w.unwrap()
                ));
            }
            Source::Gen(seed)
        }
        (false, Some(w)) => Source::Suite(w.to_string()),
        (false, None) => return Err("repro: missing seed= (generated) or workload=".to_string()),
    };
    let sample = Sample {
        steal_latency: opt("steal")?,
        banks: num("banks")? as usize,
        tiles: num("tiles")? as usize,
        ntasks: num("ntasks")? as usize,
        admission: choice("admission", "false", "true")?,
        stepped: choice("engine", "event", "stepped")?,
        faults: opt("faults")?,
        kill: opt("kill")?,
        profile: choice("profile", "off", "summary")?,
    };
    Ok((source, sample))
}

/// Why a repro line did not replay clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The line names a configuration the builder refuses (a zero or an
    /// out-of-limit size): a usage error, found before any accelerator is
    /// built.
    Config(String),
    /// The line does not parse or load, or the divergence reproduces.
    Failed(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Config(e) | ReplayError::Failed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Re-run a one-line repro string: rebuild its program and check the
/// exact sample it names.
///
/// # Errors
///
/// [`ReplayError::Config`] when the builder refuses the sample;
/// [`ReplayError::Failed`] for a parse or load failure, or the divergence
/// itself if it reproduces.
pub fn replay_repro(line: &str) -> Result<(), ReplayError> {
    let (source, sample) = parse_repro(line).map_err(ReplayError::Failed)?;
    let program = source.load().map_err(ReplayError::Failed)?;
    sample.config(&program.wl, false).map_err(ReplayError::Config)?;
    check_sample(&program, &sample, None).map(|_| ()).map_err(ReplayError::Failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stream_is_deterministic() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..16).map(|i| Sample::draw(&mut rng, i % 2 == 0)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn samples_cannot_deadlock_by_construction() {
        let mut rng = SplitMix64::new(99);
        for i in 0..256 {
            let s = Sample::draw(&mut rng, i % 2 == 0);
            if !s.admission && i % 2 == 0 {
                assert!(s.ntasks >= 256, "recursive without admission needs a deep queue");
            }
            assert!(s.banks.is_power_of_two());
            assert!((1..=4).contains(&s.tiles));
        }
    }

    fn assert_distinct_seeds(cells: &[Cell]) {
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-workload seed streams must differ");
    }

    #[test]
    fn differential_cells_are_deterministic_and_decorrelated() {
        let cells = differential_cells(SWEEP_SEED, 3);
        assert_eq!(cells.len(), suite_small().len());
        assert_eq!(cells, differential_cells(SWEEP_SEED, 3), "same seed, same cells");
        assert_distinct_seeds(&cells);
        assert_ne!(
            cells[0].seed,
            differential_cells(SWEEP_SEED + 1, 3)[0].seed,
            "cells must track the sweep seed"
        );
    }

    fn suite_cell(campaign: Campaign, workload: &str, seed: u64, samples: usize) -> Cell {
        Cell { campaign, source: Source::Suite(workload.to_string()), seed, samples }
    }

    fn run(cell: &Cell) -> Result<usize, String> {
        cell.run(&cell.source.load()?, None)
    }

    #[test]
    fn differential_cell_runs_and_rejects_unknown_workloads() {
        assert_eq!(run(&suite_cell(Campaign::Differential, "saxpy", 42, 1)), Ok(1));
        let bogus = suite_cell(Campaign::Differential, "nope", 42, 1);
        assert!(run(&bogus).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn chaos_cells_are_deterministic_and_decorrelated() {
        let cells = chaos_cells(0xC0A0_5EED, 2);
        assert_eq!(cells.len(), suite_small().len());
        assert_eq!(cells, chaos_cells(0xC0A0_5EED, 2), "same seed, same cells");
        assert_distinct_seeds(&cells);
        // The chaos and differential sweeps use different scramble
        // constants, so sharing a top-level seed never correlates them.
        let diff = differential_cells(0xC0A0_5EED, 2);
        assert!(cells.iter().zip(&diff).all(|(c, d)| c.seed != d.seed));
    }

    #[test]
    fn chaos_cell_runs_and_rejects_unknown_workloads() {
        assert_eq!(run(&suite_cell(Campaign::Chaos, "saxpy", 42, 1)), Ok(1));
        let bogus = suite_cell(Campaign::Chaos, "nope", 42, 1);
        assert!(run(&bogus).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn minimize_strips_irrelevant_knobs() {
        // Synthetic failures that depend on one dimension only (a banked
        // cache, the stepped core): the minimizer must drop every other
        // dimension and keep the failing one.
        let sample = Sample {
            steal_latency: Some(3),
            banks: 4,
            tiles: 4,
            ntasks: 512,
            admission: true,
            stepped: true,
            faults: Some(1),
            kill: Some(2),
            profile: true,
        };
        let report = Source::Suite("saxpy".to_string()).load().unwrap().report;
        let banked: &dyn Fn(&Sample) -> bool = &|c| c.banks > 1;
        let stepped: &dyn Fn(&Sample) -> bool = &|c| c.stepped;
        let min = minimize(&sample, &report, &banked);
        assert_eq!(min, Sample { banks: 4, ..Sample::baseline() }, "the failing knob survives");
        let min = minimize(&sample, &report, &stepped);
        assert_eq!(min, Sample { stepped: true, ..Sample::baseline() });
    }

    #[test]
    fn minimize_never_crosses_the_analyzers_deadlock_boundary() {
        // A 4-entry queue is safe for the recursive workloads only with
        // admission control armed. Dropping admission would turn the
        // synthetic banked-cache failure into a deadlock the minimizer
        // made itself, so the minimized sample must keep it, stay proven
        // safe, and run clean.
        for name in ["mergesort", "fib"] {
            let p = Source::Suite(name.to_string()).load().unwrap();
            let sample = Sample {
                steal_latency: Some(2),
                banks: 4,
                tiles: 2,
                ntasks: 4,
                admission: true,
                ..Sample::baseline()
            };
            let min = minimize(&sample, &p.report, &|c: &Sample| c.banks > 1);
            assert!(min.admission, "{name}: minimized to an unsafe queue: {}", p.repro(&min));
            assert!(min.is_safe(&p.report), "{name}");
            assert_eq!((min.steal_latency, min.tiles), (None, 1), "{name}");
            check_sample(&p, &min, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn repro_string_round_trips_the_knobs() {
        let s = Sample {
            steal_latency: Some(2),
            banks: 2,
            tiles: 3,
            ntasks: 32,
            admission: false,
            ..Sample::baseline()
        };
        let source = Source::Suite("saxpy".to_string());
        let line = s.repro(&source, "saxpy");
        assert_eq!(
            line,
            "workload=saxpy steal=2 banks=2 tiles=3 ntasks=32 admission=false \
             engine=event faults=off kill=off profile=off"
        );
        assert_eq!(parse_repro(&line), Ok((source, s)));
        replay_repro(&line).expect("a suite repro line replays clean");
    }
}
