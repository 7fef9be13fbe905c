#![warn(missing_docs)]

//! Differential test harness for the accelerator's opt-in performance
//! knobs (cross-unit work stealing, banked L1).
//!
//! The harness draws seeded random configuration samples — steal on/off ×
//! banks ∈ {1, 2, 4} × tiles × queue depth × admission control — and for
//! every workload × sample asserts two properties:
//!
//! 1. **Functional**: the simulator's output region is byte-identical to
//!    the interpreter golden model.
//! 2. **Timing opt-in**: a sample with both features disabled is
//!    cycle-identical to the *seed twin* — the same configuration built
//!    without ever touching the `steal`/`l1_banks` knobs — proving the
//!    new plumbing is free when off.
//!
//! A failing sample is greedily [minimized][minimize] and reported as a
//! one-line repro string (workload, seed and every knob), so a CI failure
//! can be replayed directly with [`check_sample`].

pub mod fuzz;

use tapas::{
    AcceleratorConfig, AdmissionControl, EngineSnapshot, ProfileLevel, SimError, SnapshotConfig,
    StealConfig, Toolchain,
};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::{suite_small, BuiltWorkload};

/// One sampled accelerator configuration, small enough to print whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSample {
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
}

/// Whether `wl`'s program recurses, as the static analyzer sees it.
/// Recursive workloads need deep queues when admission control is off —
/// every live level of the recursion holds a queue entry.
fn is_recursive(wl: &BuiltWorkload) -> bool {
    tapas_analyze::analyze(&wl.module, wl.func, &wl.args)
        .expect("suite workloads are analyzable")
        .recursive
}

impl ConfigSample {
    /// Draw one sample from `rng`. `recursive` constrains the queue depth
    /// so the sample cannot deadlock by construction (recursion without
    /// admission control needs one live entry per level).
    pub fn draw(rng: &mut SplitMix64, recursive: bool) -> ConfigSample {
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
        ConfigSample { steal_latency, banks, tiles, ntasks, admission }
    }

    /// Both performance knobs at their seed defaults?
    pub fn features_disabled(&self) -> bool {
        self.steal_latency.is_none() && self.banks == 1
    }

    /// The one-line repro string a failure report carries.
    pub fn repro(&self, workload: &str) -> String {
        format!(
            "workload={workload} steal={} banks={} tiles={} ntasks={} admission={}",
            self.steal_latency.map_or("off".to_string(), |l| l.to_string()),
            self.banks,
            self.tiles,
            self.ntasks,
            self.admission,
        )
    }

    /// Materialize the sample through the public builder API (so the
    /// sweep also exercises the builder's validation paths).
    pub fn config(&self, wl: &BuiltWorkload) -> AcceleratorConfig {
        let mut b = AcceleratorConfig::builder()
            .tiles(self.tiles)
            .ntasks(self.ntasks)
            .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
            .l1_banks(self.banks);
        if let Some(latency) = self.steal_latency {
            b = b.steal(StealConfig { latency });
        }
        if self.admission {
            b = b.admission(AdmissionControl::default());
        }
        b.build().expect("sampled configurations are valid by construction")
    }

    /// The seed twin: the same shape built without ever touching the
    /// `steal`/`l1_banks` knobs, and run on the stepped (cycle-by-cycle)
    /// engine core rather than the event-driven one. For a
    /// features-disabled sample this must behave cycle-identically to
    /// [`ConfigSample::config`], which locks the event-driven core to the
    /// seed schedule on every sweep.
    pub fn seed_twin(&self, wl: &BuiltWorkload) -> AcceleratorConfig {
        let mut b = AcceleratorConfig::builder()
            .tiles(self.tiles)
            .ntasks(self.ntasks)
            .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
            .event_driven(false);
        if self.admission {
            b = b.admission(AdmissionControl::default());
        }
        b.build().expect("seed twin of a valid sample is valid")
    }
}

/// What one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// End-to-end simulated cycles.
    pub cycles: u64,
    /// The workload's declared output region after the run.
    pub output: Vec<u8>,
    /// Successful cross-unit steals.
    pub steals: u64,
}

/// Compile, elaborate and run `wl` under `cfg`.
///
/// # Errors
///
/// Any toolchain or simulation failure (including deadlock detection) is
/// rendered into the error string.
pub fn simulate(wl: &BuiltWorkload, cfg: &AcceleratorConfig) -> Result<SimRun, String> {
    let design = Toolchain::new().compile(&wl.module).map_err(|e| format!("compile: {e}"))?;
    let mut acc = design.instantiate(cfg).map_err(|e| format!("elaborate: {e}"))?;
    acc.mem_mut().write_bytes(0, &wl.mem);
    let out = acc.run(wl.func, &wl.args).map_err(|e| format!("run: {e}"))?;
    Ok(SimRun {
        cycles: out.cycles,
        output: acc.mem().read_bytes(wl.output.0, wl.output.1).to_vec(),
        steals: out.stats.steals,
    })
}

/// Check one workload × sample: simulator output must match the
/// interpreter golden model, and a features-disabled sample must be
/// cycle-identical to its seed twin.
///
/// # Errors
///
/// Returns the (unminimized) repro string plus what diverged.
pub fn check_sample(wl: &BuiltWorkload, s: &ConfigSample) -> Result<(), String> {
    let run = simulate(wl, &s.config(wl)).map_err(|e| format!("{}: {e}", s.repro(&wl.name)))?;
    let golden_mem = wl.golden_memory();
    let golden = wl.output_of(&golden_mem);
    if run.output != golden {
        return Err(format!(
            "{}: output diverged from interpreter golden model",
            s.repro(&wl.name)
        ));
    }
    if s.features_disabled() {
        let twin = simulate(wl, &s.seed_twin(wl))
            .map_err(|e| format!("{} (seed twin): {e}", s.repro(&wl.name)))?;
        if twin.cycles != run.cycles {
            return Err(format!(
                "{}: disabled features changed timing ({} cycles vs seed {})",
                s.repro(&wl.name),
                run.cycles,
                twin.cycles
            ));
        }
    }
    Ok(())
}

/// Greedily minimize a failing sample: repeatedly try the simplifying
/// mutations (steal off, one bank, admission off, one tile, smallest
/// queue) and keep any that still fails `fails`. The result is the
/// simplest configuration that reproduces the failure.
pub fn minimize<F: Fn(&ConfigSample) -> bool>(sample: &ConfigSample, fails: &F) -> ConfigSample {
    let mut best = sample.clone();
    loop {
        let mut candidates = Vec::new();
        if best.steal_latency.is_some() {
            candidates.push(ConfigSample { steal_latency: None, ..best.clone() });
        }
        if best.banks > 1 {
            candidates.push(ConfigSample { banks: 1, ..best.clone() });
        }
        if best.admission {
            candidates.push(ConfigSample { admission: false, ..best.clone() });
        }
        if best.tiles > 1 {
            candidates.push(ConfigSample { tiles: 1, ..best.clone() });
        }
        if best.ntasks > 256 {
            candidates.push(ConfigSample { ntasks: 256, ..best.clone() });
        }
        match candidates.into_iter().find(|c| fails(c)) {
            Some(simpler) => best = simpler,
            None => return best,
        }
    }
}

/// Run the full differential sweep: `samples_per_workload` seeded samples
/// for every workload in the small suite. Returns the number of checks
/// performed.
///
/// # Errors
///
/// The first failure is minimized and returned as
/// `"<minimized repro (seed=N)>: <what diverged>"`.
pub fn differential_sweep(seed: u64, samples_per_workload: usize) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed);
    let mut checked = 0usize;
    for wl in suite_small() {
        let recursive = is_recursive(&wl);
        for _ in 0..samples_per_workload {
            let sample = ConfigSample::draw(&mut rng, recursive);
            if let Err(err) = check_sample(&wl, &sample) {
                let minimized =
                    minimize(&sample, &|c: &ConfigSample| check_sample(&wl, c).is_err());
                return Err(format!(
                    "differential sweep failed (seed={seed}): {err}\nminimized repro: {}",
                    minimized.repro(&wl.name)
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Sample configurations at the static analyzer's predicted safe/unsafe
/// `ntasks` boundary, for every small-suite workload plus a deep spawn
/// chain. Three checks per workload:
///
/// 1. **Soundness**: a configuration the analyzer *proves* safe — queue
///    depth at the predicted minimum (plus seeded slack) with admission
///    control off — must complete and match the interpreter golden model.
/// 2. **Rescue**: one entry below the boundary with admission control
///    armed must also complete (spilling replaces blocking), exactly as
///    `check_config` promises.
/// 3. **Tightness** (deep chain only): one entry below the boundary with
///    admission off must make the simulator report the very deadlock the
///    analyzer predicted.
///
/// Returns the number of simulations run.
///
/// # Errors
///
/// The first violated check is rendered into the repro string.
pub fn boundary_sweep(seed: u64) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed);
    let mut checked = 0usize;
    let mut corpus = suite_small();
    corpus.push(tapas_workloads::deeprec::build(40));
    for wl in corpus {
        let report = tapas_analyze::analyze(&wl.module, wl.func, &wl.args)
            .map_err(|e| format!("{}: static analysis failed: {e}", wl.name))?;
        let need = report
            .min_safe_ntasks
            .ok_or_else(|| format!("{}: occupancy not statically bounded", wl.name))?;
        let golden_mem = wl.golden_memory();
        let golden = wl.output_of(&golden_mem);
        let tiles = 1 + rng.next_below(2) as usize;

        // 1. Proven safe at the boundary (with a little slack sometimes).
        let at = need + rng.next_below(3);
        let safe = ConfigSample {
            steal_latency: None,
            banks: 1,
            tiles,
            ntasks: at as usize,
            admission: false,
        };
        let verdict = report.check_config(at, false);
        if !verdict.safe {
            return Err(format!(
                "{}: analyzer retracted its own boundary at ntasks={at}: {}",
                wl.name, verdict.reason
            ));
        }
        let run = simulate(&wl, &safe.config(&wl)).map_err(|e| {
            format!("{}: proven-safe config deadlocked or failed: {e}", safe.repro(&wl.name))
        })?;
        if run.output != golden {
            return Err(format!("{}: proven-safe run diverged from golden", safe.repro(&wl.name)));
        }
        checked += 1;

        if need <= 1 {
            continue; // boundary sits at the floor; no below-boundary side exists
        }

        // 2. Below the boundary, admission control must rescue the run.
        let below = (need - 1) as usize;
        let rescued = ConfigSample { admission: true, ntasks: below, ..safe.clone() };
        if !report.check_config(below as u64, true).safe {
            return Err(format!("{}: admission-armed config not judged safe", wl.name));
        }
        let run = simulate(&wl, &rescued.config(&wl))
            .map_err(|e| format!("{}: admission failed to rescue: {e}", rescued.repro(&wl.name)))?;
        if run.output != golden {
            return Err(format!("{}: rescued run diverged from golden", rescued.repro(&wl.name)));
        }
        checked += 1;

        // 3. The deep chain's boundary is exact: one short, bare, wedged.
        if wl.name == "deeprec" {
            let bare = ConfigSample { admission: false, ntasks: below, ..safe };
            if report.check_config(below as u64, false).safe {
                return Err(format!("{}: below-boundary config wrongly judged safe", wl.name));
            }
            match simulate(&wl, &bare.config(&wl)) {
                Err(e) if e.contains("deadlock") => checked += 1,
                Err(e) => {
                    return Err(format!(
                        "{}: expected a deadlock report, got: {e}",
                        bare.repro(&wl.name)
                    ))
                }
                Ok(_) => {
                    return Err(format!(
                        "{}: predicted-unsafe config completed; the boundary is not tight",
                        bare.repro(&wl.name)
                    ))
                }
            }
        }
    }
    Ok(checked)
}

/// One independent, deterministic slice of the differential sweep: a
/// workload with its own derived seed stream. Unlike [`differential_sweep`]
/// (one RNG stream shared across workloads, inherently sequential), cells
/// can run in any order — or concurrently — and always draw the same
/// samples, which is what lets the sweep executor shard them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffCell {
    /// Workload name (resolved against [`suite_small`] when run).
    pub workload: String,
    /// The cell's own 64-bit sample-stream seed.
    pub seed: u64,
    /// Samples to draw and check.
    pub samples: usize,
}

/// Decompose the differential sweep into one [`DiffCell`] per small-suite
/// workload. Each cell's seed is derived from `seed` and the workload's
/// position via an extra SplitMix64 scramble, so the streams are
/// decorrelated from each other and from the sequential sweep's.
pub fn differential_cells(seed: u64, samples_per_workload: usize) -> Vec<DiffCell> {
    suite_small()
        .iter()
        .enumerate()
        .map(|(i, wl)| DiffCell {
            workload: wl.name.clone(),
            seed: SplitMix64::new(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .next_u64(),
            samples: samples_per_workload,
        })
        .collect()
}

/// Run one differential cell: draw `samples` configurations from the
/// cell's own stream and [`check_sample`] each. Returns the number of
/// checks performed (== `cell.samples` on success).
///
/// # Errors
///
/// The first failing sample is minimized and rendered into a repro string
/// carrying the cell's seed, exactly like [`differential_sweep`]'s.
pub fn run_differential_cell(cell: &DiffCell) -> Result<usize, String> {
    let wl = suite_small()
        .into_iter()
        .find(|w| w.name == cell.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cell.workload))?;
    let recursive = is_recursive(&wl);
    let mut rng = SplitMix64::new(cell.seed);
    let mut checked = 0usize;
    for _ in 0..cell.samples {
        let sample = ConfigSample::draw(&mut rng, recursive);
        if let Err(err) = check_sample(&wl, &sample) {
            let minimized = minimize(&sample, &|c: &ConfigSample| check_sample(&wl, c).is_err());
            return Err(format!(
                "differential cell failed (seed={:#x}): {err}\nminimized repro: {}",
                cell.seed,
                minimized.repro(&wl.name)
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

// ---------------------------------------------------------------------------
// Kill-and-resume chaos harness
// ---------------------------------------------------------------------------

/// What one kill-and-resume trial established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosVerdict {
    /// Cycle the run was killed at (relative to run start); 0 when the
    /// golden run was too short to kill.
    pub kill_cycle: u64,
    /// Total cycles of the golden (uninterrupted) run.
    pub golden_cycles: u64,
}

/// Kill a run mid-flight and require the resumed run to be byte-identical
/// to the run never interrupted.
///
/// The trial runs `wl` under `cfg` three times: once uninterrupted (the
/// golden run), once with the `halt_at_cycle` hook armed at a kill point
/// derived from `kill_salt` (standing in for `kill -9` at an arbitrary
/// cycle), and once more on a *freshly elaborated* accelerator restored
/// from the halted run's snapshot. The snapshot is round-tripped through
/// its on-disk byte format on the way, so the codec — not just the
/// in-memory capture — is under test. The resumed run must reproduce the
/// golden [`tapas::SimOutcome`] exactly: cycle count, every
/// [`tapas::SimStats`] counter, the profile when armed, and the workload's
/// declared output region.
///
/// # Errors
///
/// Any divergence (or a failure of any of the three runs) is rendered into
/// the error string with the kill point.
pub fn chaos_check(
    wl: &BuiltWorkload,
    cfg: &AcceleratorConfig,
    kill_salt: u64,
) -> Result<ChaosVerdict, String> {
    chaos_check_with(wl, cfg, kill_salt, None)
}

/// [`chaos_check`] with an optional on-disk snapshot assignment.
///
/// With `snapshot = Some((path, every))` the killed run also writes
/// periodic snapshots to `path` every `every` cycles — the `tapas-exec`
/// crash-resume path — and, when the kill point fell past the first
/// interval, a fourth run restores from the *disk* ladder
/// ([`tapas::sim::snapshot::load_latest`]) rather than the in-memory halt
/// capture and must reach the same golden outcome from its earlier
/// capture point. Stale snapshot files are cleared before the trial and
/// removed after it.
pub fn chaos_check_with(
    wl: &BuiltWorkload,
    cfg: &AcceleratorConfig,
    kill_salt: u64,
    snapshot: Option<(&std::path::Path, u64)>,
) -> Result<ChaosVerdict, String> {
    let design = Toolchain::new().compile(&wl.module).map_err(|e| format!("compile: {e}"))?;

    let mut golden_acc = design.instantiate(cfg).map_err(|e| format!("elaborate: {e}"))?;
    golden_acc.mem_mut().write_bytes(0, &wl.mem);
    let golden = golden_acc.run(wl.func, &wl.args).map_err(|e| format!("golden run: {e}"))?;
    let golden_out = golden_acc.mem().read_bytes(wl.output.0, wl.output.1).to_vec();
    if golden.cycles < 2 {
        return Ok(ChaosVerdict { kill_cycle: 0, golden_cycles: golden.cycles });
    }
    let kill = 1 + kill_salt % (golden.cycles - 1);

    let mut killed_cfg = cfg.clone();
    killed_cfg.halt_at_cycle = Some(kill);
    if let Some((path, every)) = snapshot {
        // A previous trial (possibly of a different design) may have left
        // snapshots at this cell's stable path; a resume would reject
        // them by fingerprint, but the trial should start clean.
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tapas::sim::snapshot::prev_path(path));
        killed_cfg.snapshot = Some(SnapshotConfig { every, path: path.to_path_buf() });
    }
    let mut victim = design.instantiate(&killed_cfg).map_err(|e| format!("elaborate: {e}"))?;
    victim.mem_mut().write_bytes(0, &wl.mem);
    match victim.run(wl.func, &wl.args) {
        Err(SimError::Halted { .. }) => {}
        Err(e) => return Err(format!("kill at {kill}: unexpected failure before halt: {e}")),
        Ok(_) => return Err(format!("kill at {kill}: run completed past the halt hook")),
    }
    let snap = victim
        .take_halt_snapshot()
        .ok_or_else(|| format!("kill at {kill}: halted run left no snapshot"))?;
    let snap = EngineSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("kill at {kill}: snapshot failed the byte round-trip: {e}"))?;

    let mut resumed = design.instantiate(cfg).map_err(|e| format!("elaborate: {e}"))?;
    resumed.mem_mut().write_bytes(0, &wl.mem);
    let out = resumed
        .resume(&snap)
        .map_err(|e| format!("kill at {kill}: resume from cycle {}: {e}", snap.cycle))?;
    if out != golden {
        return Err(format!(
            "kill at {kill}: resumed outcome diverged from golden \
             ({} vs {} cycles, stats equal: {})",
            out.cycles,
            golden.cycles,
            out.stats == golden.stats,
        ));
    }
    if resumed.mem().read_bytes(wl.output.0, wl.output.1) != &golden_out[..] {
        return Err(format!("kill at {kill}: resumed output region diverged from golden"));
    }

    if let Some((path, _every)) = snapshot {
        let (disk, notes) = tapas::sim::snapshot::load_latest(path);
        if !notes.is_empty() {
            return Err(format!("kill at {kill}: disk snapshot ladder degraded: {notes:?}"));
        }
        if let Some(disk) = disk {
            let mut from_disk = design.instantiate(cfg).map_err(|e| format!("elaborate: {e}"))?;
            from_disk.mem_mut().write_bytes(0, &wl.mem);
            let out = from_disk.resume(&disk).map_err(|e| {
                format!("kill at {kill}: disk resume from cycle {}: {e}", disk.cycle)
            })?;
            if out != golden
                || from_disk.mem().read_bytes(wl.output.0, wl.output.1) != &golden_out[..]
            {
                return Err(format!(
                    "kill at {kill}: disk-resumed run (from cycle {}) diverged from golden",
                    disk.cycle
                ));
            }
        }
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tapas::sim::snapshot::prev_path(path));
    }
    Ok(ChaosVerdict { kill_cycle: kill, golden_cycles: golden.cycles })
}

/// One shardable slice of the chaos sweep: a workload with its own derived
/// seed stream drawing configurations and kill points. Like [`DiffCell`],
/// cells are order-independent and deterministic, so the sweep executor
/// can shard, retry and resume them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCell {
    /// Workload name (resolved against [`suite_small`] when run).
    pub workload: String,
    /// The cell's own 64-bit sample/kill-point stream seed.
    pub seed: u64,
    /// Kill-and-resume trials to run.
    pub trials: usize,
}

/// Decompose the chaos sweep into one [`ChaosCell`] per small-suite
/// workload, with per-cell seed streams decorrelated exactly like
/// [`differential_cells`]'s (a different scramble constant keeps the two
/// sweeps' streams independent of each other).
pub fn chaos_cells(seed: u64, trials_per_workload: usize) -> Vec<ChaosCell> {
    suite_small()
        .iter()
        .enumerate()
        .map(|(i, wl)| ChaosCell {
            workload: wl.name.clone(),
            seed: SplitMix64::new(seed ^ (i as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95))
                .next_u64(),
            trials: trials_per_workload,
        })
        .collect()
}

/// Run one chaos cell: each trial draws a configuration sample (steal ×
/// banks × tiles × queue depth × admission, profiler armed on half the
/// trials) and a kill point, then [`chaos_check`]s the workload under it.
/// Returns the number of trials verified.
///
/// # Errors
///
/// The first failing trial is rendered into a repro string carrying the
/// cell's seed and the sampled knobs.
pub fn run_chaos_cell(cell: &ChaosCell) -> Result<usize, String> {
    run_chaos_cell_with(cell, None)
}

/// [`run_chaos_cell`] with the executor's on-disk snapshot assignment:
/// every trial's killed run writes periodic snapshots to `path`, and the
/// resume is additionally verified through the disk ladder. This is what
/// `reproduce chaos --snapshot-every N` drives via [`Cell::resumable`]
/// contexts (`Cell` being `tapas_exec::Cell`).
pub fn run_chaos_cell_with(
    cell: &ChaosCell,
    snapshot: Option<(std::path::PathBuf, u64)>,
) -> Result<usize, String> {
    let wl = suite_small()
        .into_iter()
        .find(|w| w.name == cell.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cell.workload))?;
    let recursive = is_recursive(&wl);
    let mut rng = SplitMix64::new(cell.seed);
    let mut verified = 0usize;
    for _ in 0..cell.trials {
        let sample = ConfigSample::draw(&mut rng, recursive);
        let mut cfg = sample.config(&wl);
        if rng.chance(1, 2) {
            cfg.profile = ProfileLevel::Summary;
        }
        let salt = rng.next_u64();
        let spec = snapshot.as_ref().map(|(p, every)| (p.as_path(), *every));
        chaos_check_with(&wl, &cfg, salt, spec).map_err(|e| {
            format!(
                "chaos cell failed (seed={:#x}): {} profile={:?}: {e}",
                cell.seed,
                sample.repro(&wl.name),
                cfg.profile,
            )
        })?;
        verified += 1;
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stream_is_deterministic() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..16).map(|i| ConfigSample::draw(&mut rng, i % 2 == 0)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn samples_cannot_deadlock_by_construction() {
        let mut rng = SplitMix64::new(99);
        for i in 0..256 {
            let s = ConfigSample::draw(&mut rng, i % 2 == 0);
            if !s.admission && i % 2 == 0 {
                assert!(s.ntasks >= 256, "recursive without admission needs a deep queue");
            }
            assert!(s.banks.is_power_of_two());
            assert!((1..=4).contains(&s.tiles));
        }
    }

    #[test]
    fn differential_cells_are_deterministic_and_decorrelated() {
        let cells = differential_cells(0x7A9A_5CAF, 3);
        assert_eq!(cells.len(), suite_small().len());
        assert_eq!(cells, differential_cells(0x7A9A_5CAF, 3), "same seed, same cells");
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-workload seed streams must differ");
        assert_ne!(
            cells[0].seed,
            differential_cells(0x7A9A_5CB0, 3)[0].seed,
            "cells must track the sweep seed"
        );
    }

    #[test]
    fn differential_cell_runs_and_rejects_unknown_workloads() {
        let cell = DiffCell { workload: "saxpy".to_string(), seed: 42, samples: 1 };
        assert_eq!(run_differential_cell(&cell), Ok(1));
        let bogus = DiffCell { workload: "nope".to_string(), seed: 42, samples: 1 };
        assert!(run_differential_cell(&bogus).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn chaos_cells_are_deterministic_and_decorrelated() {
        let cells = chaos_cells(0xC0A0_5EED, 2);
        assert_eq!(cells.len(), suite_small().len());
        assert_eq!(cells, chaos_cells(0xC0A0_5EED, 2), "same seed, same cells");
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-workload seed streams must differ");
        // The chaos and differential sweeps use different scramble
        // constants, so sharing a top-level seed never correlates them.
        let diff = differential_cells(0xC0A0_5EED, 2);
        assert!(cells.iter().zip(&diff).all(|(c, d)| c.seed != d.seed));
    }

    #[test]
    fn chaos_cell_runs_and_rejects_unknown_workloads() {
        let cell = ChaosCell { workload: "saxpy".to_string(), seed: 42, trials: 1 };
        assert_eq!(run_chaos_cell(&cell), Ok(1));
        let bogus = ChaosCell { workload: "nope".to_string(), seed: 42, trials: 1 };
        assert!(run_chaos_cell(&bogus).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn minimize_strips_irrelevant_knobs() {
        // A synthetic failure that only depends on banks > 1: the
        // minimizer must drop stealing, admission and extra tiles, and
        // keep the banked cache.
        let sample = ConfigSample {
            steal_latency: Some(3),
            banks: 4,
            tiles: 4,
            ntasks: 512,
            admission: true,
        };
        let min = minimize(&sample, &|c: &ConfigSample| c.banks > 1);
        assert_eq!(min.steal_latency, None);
        assert_eq!(min.banks, 4, "the failing knob survives");
        assert!(!min.admission);
        assert_eq!(min.tiles, 1);
        assert_eq!(min.ntasks, 256);
    }

    #[test]
    fn repro_string_round_trips_the_knobs() {
        let s = ConfigSample {
            steal_latency: Some(2),
            banks: 2,
            tiles: 3,
            ntasks: 32,
            admission: false,
        };
        assert_eq!(
            s.repro("saxpy"),
            "workload=saxpy steal=2 banks=2 tiles=3 ntasks=32 admission=false"
        );
    }
}
