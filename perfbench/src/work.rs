//! The four workloads: seeded inputs, set-up, one job, and its checks.
//!
//! Every accelerator configuration a job runs is pinned here as a literal
//! ([`Knobs`]); the benchmark never borrows sizing helpers from the
//! experiment harness, so a refactor there cannot silently change what is
//! measured.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use tapas::{AcceleratorConfig, AdmissionControl, CompiledDesign, StealConfig, Toolchain};
use tapas_gen::Shape;
use tapas_ir::interp::{InterpConfig, Val};
use tapas_ir::{FuncId, Module};
use tapas_res::Board;
use tapas_sim::{EngineSnapshot, SimError, SimStats};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::{source, BuiltWorkload};

use crate::trace::{Span, Tracer};
use crate::Fnv;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven `suite_eval` kernels at 2 worker tiles on the event core.
    BusyKernels,
    /// The `deeprec` spawn chain at the analyzer's exact queue bound.
    SpawnChain,
    /// Program → RTL for seeded generated programs and the source kernels.
    HlsCompile,
    /// Generated programs × sampled feature configs through the executor.
    DseSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::BusyKernels, Workload::SpawnChain, Workload::HlsCompile, Workload::DseSweep];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BusyKernels => "busy_kernels",
            Workload::SpawnChain => "spawn_chain",
            Workload::HlsCompile => "hls_compile",
            Workload::DseSweep => "dse_sweep",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] keeps the same code paths at test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `suite_eval` sizes for the busy kernels (else `suite_small` sizes).
    pub eval_kernels: bool,
    /// `deeprec` chain depth.
    pub chain_depth: u64,
    /// Generated programs per `hls_compile` pass (a multiple of 6 keeps
    /// the shape mix balanced).
    pub hls_programs: usize,
    /// Generated programs in the `dse_sweep` stream.
    pub dse_programs: usize,
    /// Sampled feature configs per `dse_sweep` program.
    pub dse_configs: usize,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        eval_kernels: true,
        chain_depth: 1024,
        hls_programs: 252,
        dse_programs: 120,
        dse_configs: 4,
    };
    /// Test sizes.
    pub const TINY: Scale = Scale {
        eval_kernels: false,
        chain_depth: 32,
        hls_programs: 6,
        dse_programs: 6,
        dse_configs: 2,
    };
}

/// Every `DSE_KILL_EVERY`-th `dse_sweep` cell is a kill-and-resume cell;
/// 7 is coprime with the shape cycle and the configs per program, so the
/// kills fall on every shape and config slot.
const DSE_KILL_EVERY: usize = 7;
/// Deepest queue a `dse_sweep` config may need without admission control;
/// a program whose proven-safe depth is larger runs with admission control
/// instead (host time per event grows with queue depth).
const DSE_MAX_NTASKS: u64 = 512;
/// Smallest modeled memory for generated programs, whose images are a few
/// hundred bytes (the admission arena is reserved above it).
const DSE_MEM_FLOOR: usize = 64 << 10;
/// Smallest modeled memory for the hand-written kernels.
const KERNEL_MEM_FLOOR: usize = 1 << 20;

/// Accelerator knobs of one job, pinned as literals or seeded draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Worker tiles on every task unit.
    pub tiles: usize,
    /// Queue entries per task unit.
    pub ntasks: usize,
    /// Spawn handshake cycles.
    pub spawn_cost: u64,
    /// L1 banks.
    pub banks: usize,
    /// Steal latency; `None` leaves stealing off.
    pub steal: Option<u64>,
    /// Admission control (spill + inline) armed.
    pub admission: bool,
}

impl Knobs {
    /// Default-feature knobs: one bank, no stealing, no admission control.
    pub const fn plain(tiles: usize, ntasks: usize, spawn_cost: u64) -> Knobs {
        Knobs { tiles, ntasks, spawn_cost, banks: 1, steal: None, admission: false }
    }

    /// The accelerator configuration with `mem_bytes` of modeled memory,
    /// on the default (event-driven) core.
    pub fn config(&self, mem_bytes: usize) -> AcceleratorConfig {
        let mut b = AcceleratorConfig::builder()
            .tiles(self.tiles)
            .ntasks(self.ntasks)
            .spawn_cost(self.spawn_cost)
            .mem_bytes(mem_bytes)
            .l1_banks(self.banks);
        if let Some(latency) = self.steal {
            b = b.steal(StealConfig { latency });
        }
        if self.admission {
            b = b.admission(AdmissionControl::default());
        }
        b.build().expect("benchmark knobs are valid configurations")
    }

    /// Canonical one-line form (fingerprinted).
    pub fn describe(&self) -> String {
        format!(
            "tiles={} ntasks={} spawn_cost={} banks={} steal={:?} admission={}",
            self.tiles, self.ntasks, self.spawn_cost, self.banks, self.steal, self.admission
        )
    }
}

/// Queue depth per busy kernel: the recursive kernels hold one entry per
/// live recursion level, the loop kernels a handful.
const BUSY_NTASKS: [(&str, usize); 7] = [
    ("matrix_add", 32),
    ("image_scale", 32),
    ("saxpy", 32),
    ("stencil", 32),
    ("dedup", 32),
    ("mergesort", 512),
    ("fib", 512),
];
const BUSY_TILES: usize = 2;
/// `deeprec(depth)` needs exactly `depth + 1` entries (the analyzer's
/// `min_safe_ntasks`); one tile and two handshake costs.
const CHAIN_TILES: usize = 1;
const CHAIN_SPAWN_COSTS: [u64; 2] = [10, 100];
/// Knobs for elaboration and RTL emission in `hls_compile`.
const HLS_KNOBS: Knobs = Knobs::plain(2, 32, 10);

/// One simulation job: a compiled design, its inputs, the golden output
/// region, and the configuration to run it under.
#[derive(Debug)]
pub struct SimJob {
    /// Human-readable key (`saxpy`, `deeprec/sc100`, `gen-rec#3/c1`).
    pub label: String,
    /// The design, compiled once in set-up (shared across configs).
    pub design: Arc<CompiledDesign>,
    /// Entry function.
    pub func: FuncId,
    /// Entry arguments.
    pub args: Vec<Val>,
    /// Initial memory image.
    pub mem: Arc<Vec<u8>>,
    /// Output region `(start, len)`.
    pub output: (u64, usize),
    /// The output region after the interpreter's golden run.
    pub golden: Arc<Vec<u8>>,
    /// Knobs the config was built from.
    pub knobs: Knobs,
    /// The accelerator configuration.
    pub cfg: AcceleratorConfig,
    /// Kill-and-resume salt: the halt cycle is `1 + salt % (cycles - 1)`.
    pub kill_salt: Option<u64>,
}

/// What an `hls_compile` job starts from.
#[derive(Debug)]
pub enum HlsInput {
    /// A generated IR module; lint-clean by construction, so the job
    /// requires zero lint diagnostics.
    Generated(Module),
    /// A `tapas-lang` source kernel; the hand-written kernels carry benign
    /// lint notes, so only verification is required.
    Source(&'static str),
}

/// One `hls_compile` job.
#[derive(Debug)]
pub struct HlsProgram {
    /// Key (`gen-nest#12`, `saxpy_src`).
    pub label: String,
    /// The program.
    pub input: HlsInput,
    /// Entry function name.
    pub entry: String,
    /// Entry arguments (for the analyzer).
    pub args: Vec<Val>,
}

/// Everything a workload's jobs need, built once per set-up.
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Simulation jobs (busy/spawn/dse).
    pub sim: Vec<Arc<SimJob>>,
    /// Compile jobs (hls).
    pub hls: Vec<HlsProgram>,
    /// FNV-1a hash of the generated inputs.
    pub fingerprint: u64,
    /// Modeled ALMs of the simulated designs at their configs.
    pub design_alms: u64,
    /// Static IR instructions over the distinct programs.
    pub insts: u64,
}

impl Setup {
    /// Distinct jobs per pass.
    pub fn jobs_per_pass(&self) -> usize {
        self.sim.len() + self.hls.len()
    }
}

fn hash_program(fp: &mut Fnv, wl: &BuiltWorkload, text: &str) {
    fp.write_str(&wl.name);
    fp.write_str(text);
    fp.write(&wl.mem);
    fp.write_str(&format!("{:?} {:?}", wl.args, wl.output));
}

/// A program compiled and run on the interpreter once.
struct Prepared {
    design: Arc<CompiledDesign>,
    mem: Arc<Vec<u8>>,
    golden: Arc<Vec<u8>>,
}

fn prepare(wl: &BuiltWorkload, tr: &mut Tracer, fp: &mut Fnv) -> Result<Prepared, String> {
    let (text, _) = tr.timed("ir.print", || tapas_ir::printer::print_module(&wl.module));
    hash_program(fp, wl, &text);
    let (design, _) = tr.timed("core.compile", || Toolchain::new().compile(&wl.module));
    let design = design.map_err(|e| format!("{}: compile: {e}", wl.name))?;
    let cfg = InterpConfig { record_trace: false, ..InterpConfig::default() };
    let (golden, _) = tr.timed("ir.interp", || {
        let mut mem = wl.mem.clone();
        tapas_ir::interp::run(&wl.module, wl.func, &wl.args, &mut mem, &cfg).map(|_| mem)
    });
    let golden = golden.map_err(|e| format!("{}: golden run: {e}", wl.name))?;
    Ok(Prepared {
        design: Arc::new(design),
        mem: Arc::new(wl.mem.clone()),
        golden: Arc::new(wl.output_of(&golden).to_vec()),
    })
}

fn sim_job(
    wl: &BuiltWorkload,
    p: &Prepared,
    label: String,
    knobs: Knobs,
    kill_salt: Option<u64>,
    mem_floor: usize,
) -> SimJob {
    let cfg = knobs.config(wl.mem.len().next_power_of_two().max(mem_floor));
    SimJob {
        label,
        design: Arc::clone(&p.design),
        func: wl.func,
        args: wl.args.clone(),
        mem: Arc::clone(&p.mem),
        output: wl.output,
        golden: Arc::clone(&p.golden),
        knobs,
        cfg,
        kill_salt,
    }
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Candidates drawn per selected program in [`balanced`].
const POOL_FACTOR: usize = 4;

/// `count` generated programs with the same shape and size mix for every
/// seed: per shape, draw `POOL_FACTOR` times as many candidates as needed
/// from `rng` (skipping those `size` rejects), order them by size, and keep
/// the ones at evenly spaced quantiles. The kept programs are shuffled.
fn balanced(
    rng: &mut SplitMix64,
    count: usize,
    mut size: impl FnMut(&tapas_gen::GeneratedProgram) -> Option<u64>,
) -> Vec<tapas_gen::GeneratedProgram> {
    let shapes = Shape::all();
    let per_shape = count.div_ceil(shapes.len());
    let pool = per_shape * POOL_FACTOR;
    let mut buckets: Vec<Vec<(u64, tapas_gen::GeneratedProgram)>> =
        shapes.iter().map(|_| Vec::with_capacity(pool)).collect();
    while buckets.iter().any(|b| b.len() < pool) {
        let g = tapas_gen::generate(rng.next_u64());
        let b = &mut buckets[shapes.iter().position(|&s| s == g.shape).expect("known shape")];
        if b.len() < pool {
            if let Some(sz) = size(&g) {
                b.push((sz, g));
            }
        }
    }
    let mut out = Vec::with_capacity(count);
    for mut b in buckets {
        b.sort_by_key(|(sz, _)| *sz);
        // The middle candidate of each run of `POOL_FACTOR` by size.
        let picks = b.into_iter().enumerate().filter(|(i, _)| i % POOL_FACTOR == POOL_FACTOR / 2);
        out.extend(picks.map(|(_, (_, g))| g));
    }
    shuffle(rng, &mut out);
    out.truncate(count);
    out
}

fn busy_kernels(seed: u64, scale: &Scale) -> Vec<BuiltWorkload> {
    use tapas_workloads::*;
    let sort_seed = SplitMix64::new(seed).next_u64() % 1_000_000;
    let mut suite = if scale.eval_kernels {
        vec![
            matrix_add::build(96),
            image_scale::build(96, 96),
            saxpy::build(8192),
            stencil::build(48, 48),
            dedup::build(192, 48),
            mergesort::build(2048, sort_seed),
            fib::build(16),
        ]
    } else {
        vec![
            matrix_add::build(16),
            image_scale::build(16, 16),
            saxpy::build(128),
            stencil::build(8, 8),
            dedup::build(24, 16),
            mergesort::build(96, sort_seed),
            fib::build(10),
        ]
    };
    shuffle(&mut SplitMix64::new(seed ^ 0xb05e), &mut suite);
    suite
}

fn estimate_alms(p: &Prepared, cfg: &AcceleratorConfig, tr: &mut Tracer) -> u64 {
    let (est, _) = tr
        .timed("res.estimate", || tapas_res::estimate(&p.design.design_info(cfg), Board::Arria10));
    est.alms
}

/// Build a workload's inputs from `seed`, compile its designs and compute
/// the golden outputs.
///
/// # Errors
///
/// A program that fails to compile, analyze or interpret.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
) -> Result<Setup, String> {
    let mut fp = Fnv::new();
    fp.write_str(workload.name());
    let mut out = Setup {
        workload,
        sim: Vec::new(),
        hls: Vec::new(),
        fingerprint: 0,
        design_alms: 0,
        insts: 0,
    };
    match workload {
        Workload::BusyKernels => {
            for wl in busy_kernels(seed, scale) {
                let p = prepare(&wl, tr, &mut fp)?;
                let ntasks = BUSY_NTASKS
                    .iter()
                    .find(|(n, _)| *n == wl.name)
                    .map(|&(_, q)| q)
                    .ok_or_else(|| format!("no queue depth pinned for {}", wl.name))?;
                let knobs = Knobs::plain(BUSY_TILES, ntasks, 10);
                let job = sim_job(&wl, &p, wl.name.clone(), knobs, None, KERNEL_MEM_FLOOR);
                out.design_alms += estimate_alms(&p, &job.cfg, tr);
                out.insts += module_insts(&wl.module);
                out.sim.push(Arc::new(job));
            }
        }
        Workload::SpawnChain => {
            let wl = tapas_workloads::deeprec::build(scale.chain_depth);
            let p = prepare(&wl, tr, &mut fp)?;
            out.insts += module_insts(&wl.module);
            let mut costs = CHAIN_SPAWN_COSTS;
            shuffle(&mut SplitMix64::new(seed ^ 0xc4a1), &mut costs);
            for sc in costs {
                let ntasks = scale.chain_depth as usize + 1;
                let knobs = Knobs::plain(CHAIN_TILES, ntasks, sc);
                let job =
                    sim_job(&wl, &p, format!("deeprec/sc{sc}"), knobs, None, KERNEL_MEM_FLOOR);
                out.design_alms += estimate_alms(&p, &job.cfg, tr);
                out.sim.push(Arc::new(job));
            }
        }
        Workload::HlsCompile => {
            let mut rng = SplitMix64::new(seed ^ 0x4c5);
            let (programs, _) = tr.timed("gen.select", || {
                balanced(&mut rng, scale.hls_programs, |g| Some(module_insts(&g.wl.module)))
            });
            for (i, g) in programs.into_iter().enumerate() {
                let (text, _) =
                    tr.timed("ir.print", || tapas_ir::printer::print_module(&g.wl.module));
                hash_program(&mut fp, &g.wl, &text);
                out.insts += module_insts(&g.wl.module);
                out.hls.push(HlsProgram {
                    label: format!("{}#{i}", g.wl.name),
                    entry: g.wl.module.function(g.wl.func).name.clone(),
                    args: g.wl.args.clone(),
                    input: HlsInput::Generated(g.wl.module),
                });
            }
            let kernels = [
                (source::SAXPY_SRC, source::saxpy_from_source(64)),
                (source::MATRIX_ADD_SRC, source::matrix_add_from_source(8)),
                (source::STENCIL_SRC, source::stencil_from_source(8, 8)),
                (source::FIB_SRC, source::fib_from_source(8)),
            ];
            for (src, wl) in kernels {
                fp.write_str(src);
                out.insts += module_insts(&wl.module);
                out.hls.push(HlsProgram {
                    label: wl.name.clone(),
                    input: HlsInput::Source(src),
                    entry: wl.module.function(wl.func).name.clone(),
                    args: wl.args.clone(),
                });
            }
        }
        Workload::DseSweep => {
            let mut rng = SplitMix64::new(seed ^ 0xd5e);
            let (programs, _) =
                tr.timed("gen.select", || balanced(&mut rng, scale.dse_programs, interpreted_work));
            for (i, g) in programs.into_iter().enumerate() {
                let wl = &g.wl;
                let p = prepare(wl, tr, &mut fp)?;
                out.insts += module_insts(&wl.module);
                let (report, _) =
                    tr.timed("analyze", || tapas_analyze::analyze(&wl.module, wl.func, &wl.args));
                let report = report.map_err(|e| format!("{}: analyze: {e}", wl.name))?;
                let mut templates = DSE_TEMPLATES;
                shuffle(&mut rng, &mut templates);
                let mut tiles = [1, 2, 3, 4];
                shuffle(&mut rng, &mut tiles);
                for c in 0..scale.dse_configs {
                    let (t, tl) = (templates[c % templates.len()], tiles[c % tiles.len()]);
                    let knobs = draw_knobs(&mut rng, t, tl, g.shape.is_recursive(), &report);
                    let cell = out.sim.len();
                    let kill =
                        (cell % DSE_KILL_EVERY == DSE_KILL_EVERY - 1).then(|| rng.next_u64());
                    let label = format!("{}#{i}/c{c}", wl.name);
                    let job = sim_job(wl, &p, label, knobs, kill, DSE_MEM_FLOOR);
                    out.design_alms += estimate_alms(&p, &job.cfg, tr);
                    out.sim.push(Arc::new(job));
                }
            }
        }
    }
    for job in &out.sim {
        fp.write_str(&job.label);
        fp.write_str(&job.knobs.describe());
        fp.write_str(&format!("kill={:?}", job.kill_salt));
    }
    out.fingerprint = fp.finish();
    Ok(out)
}

fn module_insts(m: &Module) -> u64 {
    m.functions().map(|(_, f)| f.num_insts() as u64).sum()
}

/// `(steal, L1 banks, admission)` per `dse_sweep` config slot. Each
/// program runs the templates in a seeded order, with a seeded tile count
/// per slot, so every seed draws the same feature mix.
const DSE_TEMPLATES: [(bool, usize, bool); 4] =
    [(false, 1, false), (true, 2, false), (false, 4, true), (true, 1, true)];

/// Most interpreted instructions a `dse_sweep` program may execute. Every
/// shape but guarded recursion stays under it; recursion trees grow
/// exponentially with depth, and one deep tree would otherwise dominate a
/// pass of short runs (long spawn-bound runs are `spawn_chain`'s job).
const DSE_MAX_WORK: u64 = 2000;

/// Interpreter work of a generated program, the size [`balanced`] orders
/// `dse_sweep` candidates by; `None` above [`DSE_MAX_WORK`].
fn interpreted_work(g: &tapas_gen::GeneratedProgram) -> Option<u64> {
    let wl = &g.wl;
    let cfg = InterpConfig { record_trace: false, ..InterpConfig::default() };
    let mut mem = wl.mem.clone();
    let out = tapas_ir::interp::run(&wl.module, wl.func, &wl.args, &mut mem, &cfg).ok()?;
    (out.work <= DSE_MAX_WORK).then_some(out.work)
}

/// One seeded feature config from a template. A draw the analyzer cannot
/// prove deadlock-free gets its queue raised to the proven-safe depth, or
/// admission control when that depth is beyond [`DSE_MAX_NTASKS`], so no
/// sampled config can deadlock.
fn draw_knobs(
    rng: &mut SplitMix64,
    (steal, banks, mut admission): (bool, usize, bool),
    tiles: usize,
    recursive: bool,
    report: &tapas_analyze::AnalysisReport,
) -> Knobs {
    let steal = steal.then(|| 1 + rng.next_below(6));
    let mut ntasks = if admission {
        [4usize, 8, 32][rng.next_below(3) as usize]
    } else if recursive {
        [256usize, 512][rng.next_below(2) as usize]
    } else {
        [8usize, 16, 32][rng.next_below(3) as usize]
    };
    if !report.check_config(ntasks as u64, admission).safe {
        match report.min_safe_ntasks {
            Some(need) if need <= DSE_MAX_NTASKS => ntasks = ntasks.max(need as usize),
            _ => {
                admission = true;
                ntasks = ntasks.min(32);
            }
        }
    }
    Knobs { tiles, ntasks, spawn_cost: 10, banks, steal, admission }
}

/// Host time of one simulation.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// `instantiate` (elaboration) ns.
    pub elaborate_ns: u64,
    /// `run` ns.
    pub run_ns: u64,
    /// The run's statistics.
    pub stats: SimStats,
}

/// Host time of one kill-and-resume trial.
#[derive(Debug, Clone)]
pub struct SnapRecord {
    /// `to_bytes` ns.
    pub encode_ns: u64,
    /// `from_bytes` ns.
    pub decode_ns: u64,
    /// `resume` ns.
    pub resume_ns: u64,
    /// Encoded snapshot size.
    pub bytes: usize,
}

/// What one job did.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Index of the distinct job within a pass.
    pub key: usize,
    /// Host wall time of the job.
    pub wall_ns: u64,
    /// CPU time of the job's thread.
    pub cpu_ns: u64,
    /// Why the job failed; `None` when every check passed.
    pub error: Option<String>,
    /// The uninterrupted simulation (simulation jobs).
    pub sim: Option<SimRecord>,
    /// The kill-and-resume trial (kill cells).
    pub snap: Option<SnapRecord>,
    /// Emitted Chisel and Verilog (compile jobs), checked then dropped.
    pub rtl: Option<(String, String)>,
    /// Modeled ALMs of the compiled design (compile jobs).
    pub alms: u64,
    /// Time from sweep start to cell start (executor cells).
    pub queue_wait_ns: u64,
    /// Executor attempts (executor cells).
    pub attempts: u32,
    /// Spans recorded on a worker thread (executor cells, traced runs).
    pub spans: Vec<Span>,
}

/// Run `body` as job `key`, under a `job` root span, turning a panic or an
/// error into a failed record.
pub fn guarded(
    key: usize,
    tr: &mut Tracer,
    body: impl FnOnce(&mut Tracer, &mut JobRecord) -> Result<(), String>,
) -> JobRecord {
    let mut rec = JobRecord { key, attempts: 1, ..JobRecord::default() };
    let depth = tr.depth();
    let (start, cpu_start) = (std::time::Instant::now(), crate::cpu::thread_ns());
    tr.enter("job");
    let r = panic::catch_unwind(AssertUnwindSafe(|| body(tr, &mut rec)));
    tr.unwind_to(depth);
    rec.cpu_ns = crate::cpu::thread_ns() - cpu_start;
    rec.wall_ns = start.elapsed().as_nanos() as u64;
    rec.error = match r {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(p) => Some(panic_message(&p)),
    };
    rec
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("panicked: {msg}")
}

/// Simulate `job` on the event core (or the stepped core), check the
/// output region against the golden run, and for kill cells halt, encode,
/// decode and resume, requiring the resumed run to equal this one.
pub fn run_sim(
    job: &SimJob,
    stepped: bool,
    tr: &mut Tracer,
    rec: &mut JobRecord,
) -> Result<(), String> {
    let name = &job.label;
    let stepped_cfg;
    let cfg = if stepped {
        stepped_cfg = AcceleratorConfig { event_driven: false, ..job.cfg.clone() };
        &stepped_cfg
    } else {
        &job.cfg
    };
    let (acc, elaborate_ns) = tr.timed("sim.elaborate", || job.design.instantiate(cfg));
    let mut acc = acc.map_err(|e| format!("{name}: elaborate: {e}"))?;
    tr.timed("sim.load", || acc.mem_mut().write_bytes(0, &job.mem));
    let run_name = if stepped { "sim.stepped_run" } else { "sim.run" };
    let (out, run_ns) = tr.timed(run_name, || acc.run(job.func, &job.args));
    let out = out.map_err(|e| format!("{name}: run: {e}"))?;
    let (ok, _) = tr.timed("check.golden", || {
        acc.mem().read_bytes(job.output.0, job.output.1) == &job.golden[..]
    });
    if !ok {
        return Err(format!("{name}: output differs from the interpreter golden run"));
    }
    if let (Some(salt), false) = (job.kill_salt, stepped) {
        rec.snap = Some(kill_and_resume(job, salt, &out, tr)?);
    }
    rec.sim = Some(SimRecord { elaborate_ns, run_ns, stats: out.stats });
    Ok(())
}

fn kill_and_resume(
    job: &SimJob,
    salt: u64,
    whole: &tapas_sim::SimOutcome,
    tr: &mut Tracer,
) -> Result<SnapRecord, String> {
    let name = &job.label;
    let kill = 1 + salt % whole.cycles.saturating_sub(1).max(1);
    let killed_cfg = AcceleratorConfig { halt_at_cycle: Some(kill), ..job.cfg.clone() };
    let (victim, _) = tr.timed("sim.elaborate", || job.design.instantiate(&killed_cfg));
    let mut victim = victim.map_err(|e| format!("{name}: elaborate: {e}"))?;
    tr.timed("sim.load", || victim.mem_mut().write_bytes(0, &job.mem));
    let (halted, _) = tr.timed("snapshot.kill_run", || victim.run(job.func, &job.args));
    match halted {
        Err(SimError::Halted { .. }) => {}
        Err(e) => return Err(format!("{name}: kill at {kill}: failed before the halt: {e}")),
        Ok(_) => return Err(format!("{name}: kill at {kill}: ran past the halt")),
    }
    let snap = victim
        .take_halt_snapshot()
        .ok_or_else(|| format!("{name}: kill at {kill}: no halt snapshot"))?;
    let (bytes, encode_ns) = tr.timed("snapshot.encode", || snap.to_bytes());
    let (decoded, decode_ns) = tr.timed("snapshot.decode", || EngineSnapshot::from_bytes(&bytes));
    let decoded = decoded.map_err(|e| format!("{name}: kill at {kill}: decode: {e}"))?;
    let (acc, _) = tr.timed("sim.elaborate", || job.design.instantiate(&job.cfg));
    let mut acc = acc.map_err(|e| format!("{name}: elaborate: {e}"))?;
    tr.timed("sim.load", || acc.mem_mut().write_bytes(0, &job.mem));
    let (resumed, resume_ns) = tr.timed("snapshot.resume", || acc.resume(&decoded));
    let resumed = resumed.map_err(|e| format!("{name}: kill at {kill}: resume: {e}"))?;
    let (same, _) = tr.timed("check.resume", || {
        resumed == *whole && acc.mem().read_bytes(job.output.0, job.output.1) == &job.golden[..]
    });
    if !same {
        return Err(format!(
            "{name}: kill at {kill}: resumed run differs from the uninterrupted run"
        ));
    }
    Ok(SnapRecord { encode_ns, decode_ns, resume_ns, bytes: bytes.len() })
}

/// Take one program to RTL: (front end →) print → text parse → verify →
/// lint → analyze → compile → elaborate → emit Chisel + Verilog → area.
pub fn run_hls(prog: &HlsProgram, tr: &mut Tracer, rec: &mut JobRecord) -> Result<(), String> {
    let name = &prog.label;
    let compiled;
    let module = match &prog.input {
        HlsInput::Source(src) => {
            let (m, _) = tr.timed("lang.compile", || tapas_lang::compile(src));
            compiled = m.map_err(|e| format!("{name}: front end: {e}"))?;
            &compiled
        }
        HlsInput::Generated(m) => m,
    };
    let (text, _) = tr.timed("ir.print", || tapas_ir::printer::print_module(module));
    let (m, _) = tr.timed("ir.text_parse", || tapas_ir::text::parse_module(&text));
    let m = m.map_err(|e| format!("{name}: text parse: {e}"))?;
    let (verified, _) = tr.timed("ir.verify", || tapas_ir::verify_module(&m));
    verified.map_err(|e| format!("{name}: verify: {e:?}"))?;
    let (lint, _) =
        tr.timed("lint", || tapas_lint::lint_module(&m, &tapas_lint::LintConfig::default()));
    let lint = lint.map_err(|e| format!("{name}: lint: {e}"))?;
    if matches!(prog.input, HlsInput::Generated(_)) && !lint.diagnostics.is_empty() {
        return Err(format!("{name}: {} lint diagnostic(s)", lint.diagnostics.len()));
    }
    let func = m.function_by_name(&prog.entry).ok_or_else(|| format!("{name}: no entry"))?;
    let (report, _) = tr.timed("analyze", || tapas_analyze::analyze(&m, func, &prog.args));
    std::hint::black_box(report.map_err(|e| format!("{name}: analyze: {e}"))?);
    let (design, _) = tr.timed("core.compile", || Toolchain::new().compile(&m));
    let design = design.map_err(|e| format!("{name}: compile: {e}"))?;
    let cfg = HLS_KNOBS.config(KERNEL_MEM_FLOOR);
    let (acc, _) = tr.timed("sim.elaborate", || design.instantiate(&cfg));
    std::hint::black_box(acc.map_err(|e| format!("{name}: elaborate: {e}"))?);
    let (chisel, _) = tr.timed("core.emit_chisel", || design.emit_chisel(&cfg));
    let (verilog, _) = tr.timed("core.emit_verilog", || design.emit_verilog(&cfg));
    let (est, _) =
        tr.timed("res.estimate", || tapas_res::estimate(&design.design_info(&cfg), Board::Arria10));
    rec.alms = est.alms;
    rec.rtl = Some((chisel, verilog));
    Ok(())
}

/// Split compilation into its stages for one program: task extraction,
/// then DFG lowering per function. Returns `(tasks, dfg nodes)`.
///
/// # Errors
///
/// Extraction or lowering failures.
pub fn stage_split(m: &Module, tr: &mut Tracer) -> Result<(u64, u64), String> {
    let (graphs, _) = tr.timed("task.extract", || tapas_task::extract_module(m));
    let graphs = graphs.map_err(|e| format!("extract: {e}"))?;
    let lat = tapas_dfg::LatencyModel::default();
    let (mut tasks, mut nodes) = (0u64, 0u64);
    for g in &graphs {
        let (dfgs, _) = tr.timed("dfg.lower", || tapas_dfg::lower_tasks(m, g, &lat));
        let dfgs = dfgs.map_err(|e| format!("lower: {e}"))?;
        tasks += dfgs.len() as u64;
        nodes += dfgs.iter().flat_map(|d| &d.blocks).map(|b| b.nodes.len() as u64).sum::<u64>();
    }
    Ok((tasks, nodes))
}

/// The modules behind a set-up's distinct designs.
pub fn distinct_modules(setup: &Setup) -> Vec<Module> {
    let mut out: Vec<Module> = Vec::new();
    let mut seen: Vec<*const CompiledDesign> = Vec::new();
    for job in &setup.sim {
        let p = Arc::as_ptr(&job.design);
        if !seen.contains(&p) {
            seen.push(p);
            out.push(job.design.module.clone());
        }
    }
    for prog in &setup.hls {
        match prog.input {
            HlsInput::Generated(ref m) => out.push(m.clone()),
            HlsInput::Source(src) => out.extend(tapas_lang::compile(src).ok()),
        }
    }
    out
}
