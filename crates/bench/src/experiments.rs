//! The paper's evaluation and the harness experiments, one row type each.
//!
//! Every function here produces the rows of one executor cell; the
//! [`crate::experiment`] registry decomposes each table or figure into
//! such cells, folds their rows and renders them.

use crate::{design_info, estimate, i7_seconds, ntasks_for, seconds_on_board, simulate};
use tapas::baseline::{estimate_static_hls, StaticHlsConfig};
use tapas::res::{self, Board};
use tapas::{Fault, FaultPlan, FaultTolerance, ProfileLevel, Toolchain};
use tapas_exec::{json_decode, json_object};
use tapas_workloads::{image_scale, saxpy, scale_micro, suite_eval, suite_small, BuiltWorkload};

/// Version stamped into every JSON document `reproduce --json` writes.
/// Bump whenever a row struct gains, loses or renames a field so that
/// downstream plotting scripts can detect stale dumps.
pub const JSON_SCHEMA_VERSION: u64 = 8;

/// Table II: per-task static properties of every benchmark.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// The paper's "HLS challenge" tag.
    pub challenge: String,
    /// Total static instructions across tasks.
    pub per_task_insts: usize,
    /// Total static memory operations across tasks.
    pub mem_ops: usize,
    /// Number of task units generated.
    pub tasks: usize,
}

/// Regenerate Table II.
pub fn table2() -> Vec<Table2Row> {
    let challenge = |name: &str| match name {
        "matrix_add" => "Nested loops",
        "image_scale" => "Nested, if-else loops",
        "saxpy" => "Dynamic exit loops",
        "stencil" => "Nested parallel/serial",
        "dedup" => "Task pipeline",
        "mergesort" => "Recursive parallel",
        "fib" => "Recursive parallel",
        _ => "-",
    };
    suite_eval()
        .into_iter()
        .map(|wl| {
            let design = Toolchain::new().compile(&wl.module).expect("compiles");
            let report = design.task_report();
            Table2Row {
                challenge: challenge(&wl.name).to_string(),
                per_task_insts: report.iter().map(|r| r.insts).sum(),
                mem_ops: report.iter().map(|r| r.mem_ops).sum(),
                tasks: report.len(),
                name: wl.name,
            }
        })
        .collect()
}

/// §V-A: spawn overhead — the "tasks spawn in ~10 cycles" claim plus the
/// peak spawn rate.
#[derive(Debug, Clone)]
pub struct SpawnLatencyResult {
    /// Minimum (uncontended) spawn-to-dispatch latency in cycles.
    pub min_latency_cycles: u64,
    /// Sustained spawns per second at the Arria 10 clock.
    pub spawns_per_sec: f64,
    /// The clock used for the rate computation (MHz).
    pub clock_mhz: f64,
}

/// Regenerate the spawn-latency/rate measurement.
pub fn spawn_latency() -> SpawnLatencyResult {
    // Minimal-work tasks maximize observable spawn throughput.
    let wl = scale_micro::build(2048, 1);
    let out = simulate(&wl, 5, 64);
    let est = estimate(&wl, 5, Board::Arria10);
    let secs = out.cycles as f64 / (est.fmax_mhz * 1e6);
    SpawnLatencyResult {
        min_latency_cycles: out.stats.min_spawn_latency.unwrap_or(0),
        spawns_per_sec: out.stats.spawns as f64 / secs,
        clock_mhz: est.fmax_mhz,
    }
}

/// Fig. 13: performance (million adds/s) scaling with worker tiles for
/// varying per-task work, plus the software (i7 + Cilk) line.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Adders per task (10..50).
    pub adders: u32,
    /// Worker tiles (1..5); `None` marks the software row.
    pub tiles: Option<usize>,
    /// Million integer adds per second.
    pub madds_per_sec: f64,
}

/// The per-task work points of Fig. 13, one executor cell each.
pub const FIG13_ADDERS: [u32; 5] = [10, 20, 30, 40, 50];

/// Fig. 13 rows for one per-task work point (Arria 10 target, as in the
/// paper): 1..5 tiles, then the software line.
pub fn fig13_rows(adders: u32) -> Vec<Fig13Row> {
    let n = 1024u64;
    let mut rows = Vec::new();
    let wl = scale_micro::build(n, adders);
    for tiles in 1..=5usize {
        let out = simulate(&wl, tiles, 64);
        let est = estimate(&wl, tiles, Board::Arria10);
        let secs = out.cycles as f64 / (est.fmax_mhz * 1e6);
        rows.push(Fig13Row {
            adders,
            tiles: Some(tiles),
            madds_per_sec: (n * u64::from(adders)) as f64 / secs / 1e6,
        });
    }
    // Software: the same program through the i7 work-stealing model
    // (grainsize 1 — Tapir detaches one task per iteration).
    let secs = i7_seconds(&wl, 4);
    rows.push(Fig13Row {
        adders,
        tiles: None,
        madds_per_sec: (n * u64::from(adders)) as f64 / secs / 1e6,
    });
    rows
}

/// Table III: microbenchmark utilization points.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Board.
    pub board: String,
    /// Worker tiles.
    pub tiles: usize,
    /// Adders per task.
    pub insts: u32,
    /// Modeled fmax (MHz).
    pub mhz: f64,
    /// ALMs.
    pub alm: u64,
    /// Registers.
    pub reg: u64,
    /// Block RAMs.
    pub bram: u64,
    /// Chip fill percentage.
    pub chip_pct: f64,
}

/// Regenerate Table III.
pub fn table3() -> Vec<Table3Row> {
    let mut rows = Vec::new();
    let points: [(Board, usize, u32); 5] = [
        (Board::CycloneV, 1, 1),
        (Board::CycloneV, 1, 50),
        (Board::CycloneV, 10, 1),
        (Board::CycloneV, 10, 50),
        (Board::Arria10, 10, 50),
    ];
    for (board, tiles, insts) in points {
        let wl = scale_micro::build(64, insts);
        let est = estimate(&wl, tiles, board);
        rows.push(Table3Row {
            board: format!("{board:?}"),
            tiles,
            insts,
            mhz: est.fmax_mhz,
            alm: est.alms,
            reg: est.regs,
            bram: est.brams,
            chip_pct: est.utilization * 100.0,
        });
    }
    rows
}

/// Fig. 14: ALM share by sub-block for the four microbenchmark configs.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Config label, e.g. `"10T/50Ins"`.
    pub config: String,
    /// Percent of ALMs in worker tiles.
    pub tiles_pct: f64,
    /// Percent in the parallel-for control unit.
    pub parallel_for_pct: f64,
    /// Percent in task controllers.
    pub task_ctrl_pct: f64,
    /// Percent in the memory arbitration network.
    pub mem_arb_pct: f64,
    /// Remainder.
    pub misc_pct: f64,
}

/// Regenerate Fig. 14.
pub fn fig14() -> Vec<Fig14Row> {
    [(1usize, 1u32), (1, 50), (10, 1), (10, 50)]
        .into_iter()
        .map(|(tiles, insts)| {
            let wl = scale_micro::build(64, insts);
            let b = res::breakdown(&design_info(&wl, tiles));
            let total = b.total() as f64;
            Fig14Row {
                config: format!("{tiles}T/{insts}Ins"),
                tiles_pct: 100.0 * b.tiles as f64 / total,
                parallel_for_pct: 100.0 * b.parallel_for as f64 / total,
                task_ctrl_pct: 100.0 * b.task_ctrl as f64 / total,
                mem_arb_pct: 100.0 * b.mem_arb as f64 / total,
                misc_pct: 100.0 * b.misc as f64 / total,
            }
        })
        .collect()
}

/// Fig. 15: performance scaling with 1/2/4/8 tiles per benchmark,
/// normalized to 1 tile.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Benchmark.
    pub name: String,
    /// Tiles.
    pub tiles: usize,
    /// Cycles.
    pub cycles: u64,
    /// Speedup over the 1-tile configuration.
    pub speedup: f64,
}

/// Fig. 15 rows for one benchmark (Cyclone V conditions; cycles are
/// board-agnostic, normalization removes the clock).
pub fn fig15_rows(wl: &BuiltWorkload) -> Vec<Fig15Row> {
    let mut rows = Vec::new();
    let mut base = None;
    for tiles in [1usize, 2, 4, 8] {
        let out = simulate(wl, tiles, ntasks_for(wl));
        let b = *base.get_or_insert(out.cycles);
        rows.push(Fig15Row {
            name: wl.name.clone(),
            tiles,
            cycles: out.cycles,
            speedup: b as f64 / out.cycles as f64,
        });
    }
    rows
}

/// Fig. 16: performance vs the Intel i7 (both boards, 4 tiles vs 4 cores).
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Benchmark.
    pub name: String,
    /// Board.
    pub board: String,
    /// FPGA runtime (ms).
    pub fpga_ms: f64,
    /// i7 runtime (ms).
    pub i7_ms: f64,
    /// Gain (>1 means the FPGA is faster).
    pub gain: f64,
}

/// Fig. 16 rows for one benchmark, on both boards.
pub fn fig16_rows(wl: &BuiltWorkload) -> Vec<Fig16Row> {
    let i7 = i7_seconds(wl, 4);
    // Cycles do not depend on the board: one simulation serves both.
    let cycles = simulate(wl, 4, ntasks_for(wl)).cycles as f64;
    [Board::CycloneV, Board::Arria10]
        .into_iter()
        .map(|board| {
            let fpga = cycles / (estimate(wl, 4, board).fmax_mhz * 1e6);
            Fig16Row {
                name: wl.name.clone(),
                board: format!("{board:?}"),
                fpga_ms: fpga * 1e3,
                i7_ms: i7 * 1e3,
                gain: i7 / fpga,
            }
        })
        .collect()
}

/// Table IV: per-benchmark resources and power on the Cyclone V.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark.
    pub name: String,
    /// Worker tiles configured (paper's per-benchmark choices).
    pub tiles: usize,
    /// Modeled fmax (MHz).
    pub mhz: f64,
    /// ALMs.
    pub alms: u64,
    /// Registers.
    pub regs: u64,
    /// Block RAMs.
    pub brams: u64,
    /// Modeled power (W).
    pub power_w: f64,
}

/// The paper's Table IV tile choices per benchmark.
pub fn table4_tiles(name: &str) -> usize {
    match name {
        "saxpy" => 5,
        "stencil" => 3,
        "matrix_add" => 3,
        "image_scale" => 4,
        "dedup" => 3,
        "fib" => 4,
        "mergesort" => 4,
        _ => 2,
    }
}

/// Regenerate Table IV.
pub fn table4() -> Vec<Table4Row> {
    suite_eval()
        .into_iter()
        .map(|wl| {
            let tiles = table4_tiles(&wl.name);
            let est = estimate(&wl, tiles, Board::CycloneV);
            Table4Row {
                tiles,
                mhz: est.fmax_mhz,
                alms: est.alms,
                regs: est.regs,
                brams: est.brams,
                power_w: res::power_watts(&est, est.fmax_mhz),
                name: wl.name,
            }
        })
        .collect()
}

/// Fig. 17: performance/watt vs the i7.
#[derive(Debug, Clone)]
pub struct Fig17Row {
    /// Benchmark.
    pub name: String,
    /// Board.
    pub board: String,
    /// Perf/W gain over the i7 (>1 means the FPGA is more efficient).
    pub perf_per_watt_gain: f64,
}

/// Fig. 17 rows for one benchmark, on both boards (concurrency 4 on both
/// sides, as in the paper).
pub fn fig17_rows(wl: &BuiltWorkload) -> Vec<Fig17Row> {
    let i7 = i7_seconds(wl, 4);
    let cycles = simulate(wl, 4, ntasks_for(wl)).cycles as f64;
    [Board::CycloneV, Board::Arria10]
        .into_iter()
        .map(|board| {
            let est = estimate(wl, 4, board);
            let fpga = cycles / (est.fmax_mhz * 1e6);
            let fpga_w = res::power_watts(&est, est.fmax_mhz);
            let gain = (i7 / fpga) * (res::I7_PACKAGE_WATTS / fpga_w);
            Fig17Row {
                name: wl.name.clone(),
                board: format!("{board:?}"),
                perf_per_watt_gain: gain,
            }
        })
        .collect()
}

/// Table V: Intel HLS vs TAPAS on the statically expressible kernels.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark.
    pub name: String,
    /// `"Intel HLS"` or `"TAPAS"`.
    pub tool: String,
    /// Clock (MHz).
    pub mhz: f64,
    /// ALMs.
    pub alms: u64,
    /// Registers.
    pub regs: u64,
    /// Block RAMs.
    pub brams: u64,
    /// Runtime (ms).
    pub runtime_ms: f64,
}

/// Table V's kernels: (workload, streamed words per iteration, streams).
pub fn table5_cases() -> Vec<(BuiltWorkload, usize, usize)> {
    vec![(saxpy::build(8192), 3, 3), (image_scale::build(64, 64), 2, 2)]
}

/// Table V rows for one kernel: unroll 3 vs 3 tiles, 270 ns DRAM,
/// Cyclone V.
pub fn table5_rows(wl: &BuiltWorkload, mem_words: usize, streams: usize) -> Vec<Table5Row> {
    // TAPAS side: simulate with 3 tiles.
    let tiles = 3;
    let (secs, _) = seconds_on_board(wl, tiles, Board::CycloneV);
    let est = estimate(wl, tiles, Board::CycloneV);
    let tapas = Table5Row {
        name: wl.name.clone(),
        tool: "TAPAS".into(),
        mhz: est.fmax_mhz,
        alms: est.alms,
        regs: est.regs,
        brams: est.brams,
        runtime_ms: secs * 1e3,
    };
    // Intel HLS side: static streaming model over the same iteration count.
    let body = design_info(wl, 1)
        .units
        .iter()
        .find(|u| u.name == wl.worker_task)
        .expect("worker unit")
        .profile;
    let ihls_est = tapas_res::intel_hls_estimate(&body, 3, streams, Board::CycloneV);
    let o = estimate_static_hls(
        wl.work_items,
        &StaticHlsConfig {
            unroll: 3,
            mem_words_per_iter: mem_words,
            mem_ports: 1,
            dram_latency: 40,
            fmax_mhz: ihls_est.fmax_mhz,
            ..StaticHlsConfig::default()
        },
    );
    let intel_hls = Table5Row {
        name: wl.name.clone(),
        tool: "Intel HLS".into(),
        mhz: ihls_est.fmax_mhz,
        alms: ihls_est.alms,
        regs: ihls_est.regs,
        brams: ihls_est.brams,
        runtime_ms: o.millis,
    };
    vec![tapas, intel_hls]
}

/// Ablation: the effect of Cilk loop-grainsize coarsening on the i7
/// baseline (a design-space knob the paper's methodology leaves implicit:
/// Tapir's `cilk_for` spawns per iteration, while production Cilk Plus
/// coarsens to `min(2048, N/8P)` iterations per task).
#[derive(Debug, Clone)]
pub struct GrainAblationRow {
    /// Benchmark.
    pub name: String,
    /// i7 runtime with per-iteration spawning (ms).
    pub fine_ms: f64,
    /// i7 runtime with auto grainsize (ms).
    pub coarse_ms: f64,
    /// Speedup coarsening buys the CPU.
    pub coarsening_speedup: f64,
}

/// Regenerate the grainsize ablation.
pub fn grain_ablation() -> Vec<GrainAblationRow> {
    suite_eval()
        .into_iter()
        .map(|wl| {
            let fine = i7_seconds(&wl, 4);
            let coarse = crate::i7_seconds_coarsened(&wl, 4);
            GrainAblationRow {
                name: wl.name.clone(),
                fine_ms: fine * 1e3,
                coarse_ms: coarse * 1e3,
                coarsening_speedup: fine / coarse,
            }
        })
        .collect()
}

/// Ablation: memory-system design knobs (MSHR count, cache issue width)
/// on a memory-bound kernel — quantifying the paper's §VI observation that
/// the released cache macro's "limited support for multiple outstanding
/// cache misses" caps performance.
#[derive(Debug, Clone)]
pub struct MemAblationRow {
    /// MSHRs (outstanding line fills).
    pub mshrs: usize,
    /// Cache requests accepted per cycle.
    pub issue_width: usize,
    /// Whether a 512 KiB L2 sits between the L1 and DRAM.
    pub l2: bool,
    /// SAXPY cycles at 4 tiles.
    pub cycles: u64,
    /// Speedup over the 1-MSHR / 1-wide / no-L2 baseline.
    pub speedup: f64,
}

/// The memory-ablation points `(mshrs, issue_width, l2)`, one executor
/// cell each; the first is the baseline every speedup normalizes to.
pub const MEM_ABLATION_POINTS: [(usize, usize, bool); 7] = [
    (1, 1, false),
    (2, 1, false),
    (4, 1, false),
    (4, 2, false),
    (8, 2, false),
    (1, 1, true),
    (4, 2, true),
];

/// One memory-ablation point. Its `speedup` is left at 1.0: the fold
/// normalizes every row to the first point's cycles.
pub fn mem_ablation_row(mshrs: usize, issue_width: usize, l2: bool) -> MemAblationRow {
    use tapas::{AcceleratorConfig, Toolchain};
    let wl = saxpy::build(2048);
    let mut cfg = AcceleratorConfig {
        ntasks: 64,
        mem_bytes: wl.mem.len().next_power_of_two().max(1 << 16),
        ..AcceleratorConfig::default()
    }
    .with_default_tiles(4);
    cfg.cache.mshrs = mshrs;
    cfg.databox.issue_width = issue_width;
    if l2 {
        cfg.l2 = Some(tapas_mem::CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 32,
            ways: 8,
            hit_latency: 8,
            mshrs: 4,
        });
    }
    let design = Toolchain::new().compile(&wl.module).expect("compiles");
    let mut acc = design.instantiate(&cfg).expect("elaborates");
    acc.mem_mut().write_bytes(0, &wl.mem);
    let out = acc.run(wl.func, &wl.args).expect("runs");
    let golden = wl.golden_memory();
    assert_eq!(
        acc.mem().read_bytes(wl.output.0, wl.output.1),
        wl.output_of(&golden),
        "mem ablation must stay functionally correct"
    );
    MemAblationRow { mshrs, issue_width, l2, cycles: out.cycles, speedup: 1.0 }
}

/// Ablation: static serial elision of the task controllers (the paper's
/// §VI "Task controllers" future direction) — dynamic tasks vs statically
/// elided (serialized) loops for a fine-grain kernel, on both time and
/// area.
#[derive(Debug, Clone)]
pub struct ElisionAblationRow {
    /// `"dynamic"` or `"elided"`.
    pub variant: String,
    /// Cycles for the scale microbenchmark (4 tiles when dynamic).
    pub cycles: u64,
    /// ALMs on the Cyclone V.
    pub alms: u64,
    /// Task units in the design.
    pub task_units: usize,
}

/// Regenerate the task-elision ablation.
pub fn elision_ablation() -> Vec<ElisionAblationRow> {
    use tapas::{AcceleratorConfig, Toolchain};
    let mut rows = Vec::new();
    for elide in [false, true] {
        let wl = scale_micro::build(512, 20);
        let mut module = wl.module.clone();
        if elide {
            let f = module.function_by_name("scale").expect("entry");
            tapas::ir::transform::elide_detaches(&mut module, f, None);
        }
        let design = Toolchain::new().compile(&module).expect("compiles");
        let cfg = AcceleratorConfig {
            ntasks: 64,
            mem_bytes: wl.mem.len().next_power_of_two().max(1 << 16),
            ..AcceleratorConfig::default()
        }
        .with_default_tiles(if elide { 1 } else { 4 });
        let mut acc = design.instantiate(&cfg).expect("elaborates");
        acc.mem_mut().write_bytes(0, &wl.mem);
        let out = acc.run(wl.func, &wl.args).expect("runs");
        let golden = wl.golden_memory();
        assert_eq!(
            acc.mem().read_bytes(wl.output.0, wl.output.1),
            wl.output_of(&golden),
            "elision must preserve results"
        );
        let est = res::estimate(&design.design_info(&cfg), Board::CycloneV);
        rows.push(ElisionAblationRow {
            variant: if elide { "elided" } else { "dynamic" }.to_string(),
            cycles: out.cycles,
            alms: est.alms,
            task_units: design.num_tasks(),
        });
    }
    rows
}

/// Cycle-attribution verdict for one benchmark (the `reproduce profile`
/// experiment built on the simulator's stall profiler).
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Benchmark.
    pub name: String,
    /// Worker tiles (the paper's Table IV per-benchmark choices).
    pub tiles: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Verdict label: `"compute-bound"`, `"memory-bound"` or
    /// `"spawn-bound"`.
    pub class: String,
    /// Fraction of tile-cycles doing or waiting on compute.
    pub compute_frac: f64,
    /// Fraction of tile-cycles waiting on the memory system.
    pub memory_frac: f64,
    /// Fraction of tile-cycles idle on task-parallel machinery.
    pub spawn_frac: f64,
    /// The single largest stall reason.
    pub dominant: String,
    /// Raw spawn-backpressure tile-cycles (redistributed before
    /// classification).
    pub backpressure_cycles: u64,
    /// Per-task-unit queue-full cycles — cycles the unit's task queue
    /// refused (or would refuse) a spawn, the raw signal behind
    /// spawn-backpressure verdicts.
    pub unit_queues: Vec<UnitQueueRow>,
}

/// One task unit's queue-pressure summary inside a [`ProfileRow`].
#[derive(Debug, Clone)]
pub struct UnitQueueRow {
    /// Task-unit name.
    pub unit: String,
    /// Cycles the queue sat full or turned a spawn away.
    pub full_cycles: u64,
}

/// The configuration `reproduce profile` (and the analyze cross-check)
/// measures a benchmark under: the paper's Table IV tile count, tiled like
/// the paper's designs — recursive benchmarks spread tiles everywhere (the
/// recursion is the worker), loop benchmarks concentrate them on the body
/// task so idle control units don't drown the attribution.
pub fn profile_config(wl: &BuiltWorkload) -> tapas::AcceleratorConfig {
    let tiles = table4_tiles(&wl.name);
    let cfg = if crate::is_recursive(wl) {
        crate::accel_config(wl, tiles, ntasks_for(wl))
    } else {
        tapas::AcceleratorConfig {
            ntasks: ntasks_for(wl),
            mem_bytes: wl.mem.len().next_power_of_two().max(1 << 20),
            ..tapas::AcceleratorConfig::default()
        }
        .with_tiles(&wl.worker_task, tiles)
    };
    tapas::AcceleratorConfig { profile: ProfileLevel::Full, ..cfg }
}

/// Profile one benchmark with full cycle attribution and classify what
/// bounds it — one executor cell of the `profile` experiment. Panics if
/// the run violates the attribution invariant, so the experiment doubles
/// as an end-to-end check of the profiler's books.
pub fn profile_row(wl: &BuiltWorkload) -> ProfileRow {
    let tiles = table4_tiles(&wl.name);
    let cfg = profile_config(wl);
    let out = crate::simulate_configured(wl, &cfg).0;
    let p = out.profile.expect("profiling was enabled");
    p.check_invariant().unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    let r = p.bottleneck();
    let unit_queues = p
        .units
        .iter()
        .map(|u| UnitQueueRow { unit: u.name.clone(), full_cycles: u.queue.full_cycles })
        .collect();
    ProfileRow {
        tiles,
        cycles: out.cycles,
        class: r.class.label().to_string(),
        compute_frac: r.compute_frac,
        memory_frac: r.memory_frac,
        spawn_frac: r.spawn_frac,
        dominant: r.dominant.label().to_string(),
        backpressure_cycles: r.backpressure_cycles,
        unit_queues,
        name: wl.name.clone(),
    }
}

/// One benchmark × fault-scenario cell of the robustness matrix.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Benchmark name.
    pub name: String,
    /// Fault-scenario label.
    pub scenario: String,
    /// `"masked"` (results byte-identical to fault-free), `"detected"`
    /// (typed error), or `"silent-corruption"` — the one outcome the
    /// fault model must never produce.
    pub outcome: String,
    /// The typed error for detected runs; empty when masked.
    pub detail: String,
    /// Simulated cycles for completed runs.
    pub cycles: Option<u64>,
    /// Faults the plan actually injected.
    pub faults_injected: u64,
    /// Memory retries performed during recovery.
    pub mem_retries: u64,
    /// ECC-triggered refetches.
    pub ecc_retries: u64,
    /// Tiles fenced by quarantine.
    pub quarantined_tiles: u64,
}

impl FaultRow {
    /// A run that completed with wrong output bytes.
    pub fn silently_wrong(&self) -> bool {
        self.outcome == "silent-corruption"
    }
}

/// Run one benchmark under a matrix of fault scenarios and verify each
/// run is **masked** (output byte-identical to the fault-free run) or
/// **detected** (fails with a typed [`tapas::SimError`]). The matrix
/// covers transient tile stalls, dropped + duplicated grants, ECC-corrected
/// corruption, DRAM response timeouts, queue parity errors, retry
/// exhaustion, and a quarantine scenario where a 4-tile unit loses a tile
/// mid-run and keeps producing correct results. One executor cell of the
/// `faults` experiment (the fault-free baseline is amortized across the
/// benchmark's scenarios, so the workload is the natural cell grain).
pub fn fault_rows_for(wl: &BuiltWorkload) -> Vec<FaultRow> {
    let mut rows = Vec::new();
    {
        let design = Toolchain::new().compile(&wl.module).expect("compiles");
        // Four tiles on every unit: the degradation scenarios need spare
        // tiles to fall back on.
        let base = crate::accel_config(wl, 4, ntasks_for(wl));
        let mut probe = design.instantiate(&base).expect("elaborates");
        probe.mem_mut().write_bytes(0, &wl.mem);
        let baseline = probe.run(wl.func, &wl.args).expect("fault-free baseline runs");
        let worker = probe.unit_names().iter().position(|n| *n == wl.worker_task).unwrap_or(0);
        let golden = wl.golden_memory();
        let expected = wl.output_of(&golden);
        let tol = FaultTolerance::default();
        let scenarios: Vec<(&'static str, FaultPlan, FaultTolerance)> = vec![
            (
                "tile-stall",
                FaultPlan::new().with(Fault::TileStall {
                    unit: worker,
                    tile: 1,
                    at: (baseline.cycles / 4).max(1),
                    cycles: 500,
                }),
                tol,
            ),
            (
                "drop+dup-retry",
                FaultPlan::new()
                    .with(Fault::DropResponse { nth: 3 })
                    .with(Fault::DuplicateResponse { nth: 5 }),
                tol,
            ),
            ("corrupt-ecc", FaultPlan::new().with(Fault::CorruptResponse { nth: 2, bit: 11 }), tol),
            (
                "dram-timeout",
                FaultPlan::new().with(Fault::DelayResponse { nth: 1, cycles: 50_000 }),
                tol,
            ),
            (
                "parity-detect",
                FaultPlan::new().with(Fault::QueueParity { nth_spawn: 2, bit: 3 }),
                tol,
            ),
            (
                "retry-exhausted",
                FaultPlan::new().with(Fault::DropResponse { nth: 1 }),
                FaultTolerance { max_mem_retries: 0, ..tol },
            ),
            (
                "quarantine-wedge",
                FaultPlan::new().with(Fault::TileWedge {
                    unit: worker,
                    tile: 2,
                    at: (baseline.cycles / 3).max(1),
                }),
                tol,
            ),
        ];
        for (scenario, plan, tolerance) in scenarios {
            let cfg = tapas::AcceleratorConfig { faults: Some(plan), tolerance, ..base.clone() };
            let mut acc = design.instantiate(&cfg).expect("elaborates");
            acc.mem_mut().write_bytes(0, &wl.mem);
            rows.push(match acc.run(wl.func, &wl.args) {
                Ok(out) => {
                    let good = acc.mem().read_bytes(wl.output.0, wl.output.1) == expected;
                    FaultRow {
                        name: wl.name.clone(),
                        scenario: scenario.to_string(),
                        outcome: if good { "masked" } else { "silent-corruption" }.to_string(),
                        detail: String::new(),
                        cycles: Some(out.cycles),
                        faults_injected: out.stats.faults_injected,
                        mem_retries: out.stats.mem_retries,
                        ecc_retries: out.stats.ecc_retries,
                        quarantined_tiles: out.stats.quarantined_tiles,
                    }
                }
                Err(e) => FaultRow {
                    name: wl.name.clone(),
                    scenario: scenario.to_string(),
                    outcome: "detected".to_string(),
                    detail: e.to_string(),
                    cycles: None,
                    faults_injected: 0,
                    mem_retries: 0,
                    ecc_retries: 0,
                    quarantined_tiles: 0,
                },
            });
        }
    }
    rows
}

/// One cell of the bounded-resource stress matrix: a workload forced
/// through a deliberately undersized task queue with admission control
/// armed (`reproduce stress`).
#[derive(Debug, Clone)]
pub struct StressRow {
    /// Benchmark name.
    pub name: String,
    /// Queue entries per task unit for this cell (1, 2 or 4 — all far
    /// below the paper's 32–512 sizing).
    pub ntasks: usize,
    /// Simulated cycles; the run also revalidated its output region
    /// byte-for-byte against the interpreter golden model.
    pub cycles: u64,
    /// Queue entries spilled to the DRAM-backed overflow arena.
    pub spills: u64,
    /// Spilled entries refilled as queue slots drained.
    pub refills: u64,
    /// Refused spawns executed inline on the spawning tile.
    pub inline_spawns: u64,
}

/// One benchmark × queue-size cell of the stress matrix — the executor
/// cell grain of the `stress` experiment. The cell runs with
/// [`tapas::AdmissionControl::default`] (inline degradation + queue
/// virtualization + deadlock recovery) and is validated byte-for-byte
/// against the golden model inside [`crate::simulate_configured`] — a
/// wrong result panics, so a returned row *is* the correctness proof.
pub fn stress_row(wl: &BuiltWorkload, ntasks: usize) -> StressRow {
    let cfg = tapas::AcceleratorConfig {
        admission: Some(tapas::AdmissionControl::default()),
        ..crate::accel_config(wl, 2, ntasks)
    };
    let (out, _) = crate::simulate_configured(wl, &cfg);
    StressRow {
        name: wl.name.clone(),
        ntasks,
        cycles: out.cycles,
        spills: out.stats.spills,
        refills: out.stats.refills,
        inline_spawns: out.stats.inline_spawns,
    }
}

/// Queue sizes every stress benchmark is forced through.
pub const STRESS_QUEUE_SIZES: &[usize] = &[1, 2, 4];

/// The benchmark list the full stress matrix runs over: the paper suite
/// plus the `deeprec` spawn-chain (which *cannot* run without admission
/// control on any realistic queue).
pub fn stress_programs() -> Vec<BuiltWorkload> {
    let mut programs = suite_small();
    programs.push(tapas_workloads::deeprec::build(400));
    programs
}

/// One benchmark × feature-variant cell of the performance-tuning matrix
/// (`reproduce tune`): the opt-in cross-unit work-stealing and banked-L1
/// knobs, alone and composed, against the seed configuration.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Benchmark name.
    pub name: String,
    /// Feature variant: `"seed"`, `"steal"`, `"banks4"` or
    /// `"steal+banks4"`.
    pub variant: String,
    /// Worker tiles per task unit.
    pub tiles: usize,
    /// Simulated cycles; the run also revalidated its output region
    /// byte-for-byte against the interpreter golden model.
    pub cycles: u64,
    /// Queue entries stolen by idle sibling-unit tiles.
    pub steals: u64,
    /// Steal probes that found no eligible victim entry.
    pub steal_fail: u64,
    /// Grants deferred by L1 bank conflicts.
    pub bank_conflicts: u64,
    /// Speedup over this benchmark's `"seed"` row (>1 is faster).
    pub speedup: f64,
}

/// The four feature variants every tune benchmark runs under.
pub fn tune_variants() -> [(&'static str, Option<tapas::StealConfig>, usize); 4] {
    [
        ("seed", None, 1),
        ("steal", Some(tapas::StealConfig::default()), 1),
        ("banks4", None, 4),
        ("steal+banks4", Some(tapas::StealConfig::default()), 4),
    ]
}

/// Run one benchmark through the feature-variant matrix at `tiles` tiles
/// per unit. Every run is validated byte-for-byte against the golden
/// model inside [`crate::simulate_configured`], and the `"seed"` run has
/// both knobs at their defaults — so the first row *is* the baseline the
/// speedup column normalizes against.
pub fn tune_rows(wl: &BuiltWorkload, tiles: usize) -> Vec<TuneRow> {
    let mut rows = Vec::new();
    let mut seed_cycles = None;
    for (variant, steal, banks) in tune_variants() {
        let cfg = tapas::AcceleratorConfig {
            steal,
            l1_banks: banks,
            ..crate::accel_config(wl, tiles, ntasks_for(wl))
        };
        let (out, _) = crate::simulate_configured(wl, &cfg);
        let base = *seed_cycles.get_or_insert(out.cycles);
        rows.push(TuneRow {
            name: wl.name.clone(),
            variant: variant.to_string(),
            tiles,
            cycles: out.cycles,
            steals: out.stats.steals,
            steal_fail: out.stats.steal_fail,
            bank_conflicts: out.stats.bank_conflicts,
            speedup: base as f64 / out.cycles as f64,
        });
    }
    rows
}

/// The benchmark list the tuning matrix runs over at 4 tiles: the
/// recursive benchmarks (where stealing bites), the `deeprec` spawn chain
/// (a serial worst case the features must at least not hurt), and the
/// memory-bound kernels (where banking bites) — one executor cell
/// per program: the speedup column normalizes against the program's own
/// `"seed"` variant, so a whole program is the smallest independent cell).
pub fn tune_programs() -> Vec<BuiltWorkload> {
    use tapas_workloads::{deeprec, fib, matrix_add, mergesort, stencil};
    vec![
        fib::build(13),
        mergesort::build(256, 12345),
        deeprec::build(200),
        saxpy::build(2048),
        matrix_add::build(32),
        stencil::build(16, 16),
    ]
}

/// Predicted-vs-measured verdict for one benchmark of the static-analysis
/// experiment (`reproduce analyze`): the analyzer's work/span/occupancy
/// intervals against the interpreter's exact counters, its proven-safe
/// minimum `ntasks` against the seed configuration, and its predicted
/// bottleneck class against the dynamic profiler's verdict.
#[derive(Debug, Clone)]
pub struct AnalyzeRow {
    /// Benchmark name.
    pub name: String,
    /// Static work lower bound (T₁).
    pub work_lo: u64,
    /// Static work upper bound; `None` = unbounded.
    pub work_hi: Option<u64>,
    /// Instructions the interpreter actually executed.
    pub dyn_work: u64,
    /// Static span lower bound (T∞).
    pub span_lo: u64,
    /// Static span upper bound; `None` = unbounded.
    pub span_hi: Option<u64>,
    /// Critical-path length the interpreter actually measured.
    pub dyn_span: u64,
    /// Static memory-operation lower bound.
    pub mem_lo: u64,
    /// Static memory-operation upper bound; `None` = unbounded.
    pub mem_hi: Option<u64>,
    /// Loads + stores the interpreter actually executed.
    pub dyn_mem: u64,
    /// Static spawn-count lower bound.
    pub spawns_lo: u64,
    /// Static spawn-count upper bound; `None` = unbounded.
    pub spawns_hi: Option<u64>,
    /// Detaches the interpreter actually executed.
    pub dyn_spawns: u64,
    /// Static peak-live-task lower bound.
    pub tasks_lo: u64,
    /// Static peak-live-task upper bound; `None` = unbounded.
    pub tasks_hi: Option<u64>,
    /// Peak live tasks the interpreter actually observed.
    pub dyn_peak_tasks: u64,
    /// Smallest `ntasks` proven deadlock-free without admission control.
    pub min_safe_ntasks: Option<u64>,
    /// The seed configuration's `ntasks` the verdict below judges.
    pub seed_ntasks: usize,
    /// Whether the seed configuration (no admission control) is statically
    /// proven deadlock-free for this benchmark.
    pub safe_at_seed: bool,
    /// The analyzer's predicted bottleneck class.
    pub predicted: String,
    /// The dynamic profiler's measured bottleneck class.
    pub measured: String,
    /// Whether prediction and measurement agree.
    pub agree: bool,
}

/// Run the static analyzer over one benchmark and cross-check every bound
/// against the interpreter and the bottleneck prediction against the
/// cycle-level profiler. Panics if any static interval fails to bracket
/// its dynamic measurement — the experiment doubles as a soundness check.
pub fn analyze_row(wl: &BuiltWorkload) -> AnalyzeRow {
    use tapas_ir::interp::{run, InterpConfig};
    let seed_ntasks = tapas::AcceleratorConfig::default().ntasks;
    let report =
        tapas::analyze::analyze(&wl.module, wl.func, &wl.args).expect("workloads are analyzable");

    // Dynamic oracle 1: the interpreter's exact counters.
    let mut mem = wl.mem.clone();
    let out = run(&wl.module, wl.func, &wl.args, &mut mem, &InterpConfig::default())
        .expect("workloads interpret");
    for (what, b, v) in [
        ("work", report.work, out.work),
        ("span", report.span, out.span),
        ("memory ops", report.mem_ops, out.stats.loads + out.stats.stores),
        ("spawns", report.spawns, out.stats.spawns),
        ("peak live tasks", report.peak_tasks, out.peak_live_tasks),
    ] {
        assert!(b.contains(v), "{}: static {what} {b} must bracket dynamic {v}", wl.name);
    }

    // Dynamic oracle 2: the profiler's bottleneck verdict under the
    // same configuration `reproduce profile` measures.
    let sim = crate::simulate_configured(wl, &profile_config(wl)).0;
    let measured =
        sim.profile.expect("profiling was enabled").bottleneck().class.label().to_string();
    let predicted = report.predicted.label().to_string();

    AnalyzeRow {
        work_lo: report.work.lo,
        work_hi: report.work.hi,
        dyn_work: out.work,
        span_lo: report.span.lo,
        span_hi: report.span.hi,
        dyn_span: out.span,
        mem_lo: report.mem_ops.lo,
        mem_hi: report.mem_ops.hi,
        dyn_mem: out.stats.loads + out.stats.stores,
        spawns_lo: report.spawns.lo,
        spawns_hi: report.spawns.hi,
        dyn_spawns: out.stats.spawns,
        tasks_lo: report.peak_tasks.lo,
        tasks_hi: report.peak_tasks.hi,
        dyn_peak_tasks: out.peak_live_tasks,
        min_safe_ntasks: report.min_safe_ntasks,
        seed_ntasks,
        safe_at_seed: report.check_config(seed_ntasks as u64, false).safe,
        agree: predicted == measured,
        predicted,
        measured,
        name: wl.name.clone(),
    }
}

/// The corpus the analyze cross-check runs over (one executor cell per
/// program): the paper suite plus the `deeprec` spawn chain. The
/// analyzer flags `deeprec` (one live queue entry per recursion level,
/// far beyond the seed's 32) and `fib` (a 177-node recursion tree whose
/// blocked parents pile onto the queues) as deadlock-prone at the seed
/// `ntasks`; everything else is proven safe there, and the whole corpus
/// at the deep-queue default of 512.
pub fn analyze_programs() -> Vec<BuiltWorkload> {
    let mut programs = suite_small();
    programs.push(tapas_workloads::deeprec::build(400));
    programs
}

/// One workload's slice of the seeded differential sweep, run as its own
/// executor cell with a derived per-workload seed stream (`reproduce
/// differential`). A row only exists for a *passing* cell — a failing
/// sample errors out of the cell with a minimized repro string and the
/// executor quarantines it.
#[derive(Debug, Clone)]
pub struct DifferentialRow {
    /// Workload name.
    pub workload: String,
    /// The cell's derived 64-bit seed, hex-encoded (a raw u64 would not
    /// survive the f64-based JSON round-trip above 2^53).
    pub seed: String,
    /// Samples the cell was asked to draw.
    pub samples: u64,
    /// Checks that actually ran and passed (== `samples` on success).
    pub checks: u64,
}

/// One workload's slice of the kill-and-resume chaos sweep (`reproduce
/// chaos`): each trial kills a seeded configuration at a seeded cycle via
/// the engine's halt hook, restores the crash-consistent snapshot onto a
/// fresh accelerator, and requires byte-identical cycles, stats, profile
/// and output. A row only exists for a *passing* cell — a diverging trial
/// errors out with its kill point and knobs, and the executor quarantines
/// it.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Workload name.
    pub workload: String,
    /// The cell's derived 64-bit seed, hex-encoded (a raw u64 would not
    /// survive the f64-based JSON round-trip above 2^53).
    pub seed: String,
    /// Kill-and-resume trials the cell was asked to run.
    pub trials: u64,
    /// Trials that restored to byte-identical completion.
    pub verified: u64,
}

/// One generated program's slice of the fuzzing campaign (`reproduce
/// fuzzsim`): the cell generates a race-free-by-construction traffic
/// program from its seed, lints it, establishes the interpreter golden
/// model (SP-bags armed), and checks it under sampled feature
/// configurations spanning steal × banks × admission × engine core ×
/// faults × snapshot-kill. A row only exists for a *passing* cell — a
/// divergence errors out with a minimized one-line repro string
/// (replayable via `reproduce fuzzsim --repro`) and the executor
/// quarantines the cell.
#[derive(Debug, Clone)]
pub struct FuzzRow {
    /// The program-generation seed, hex-encoded (a raw u64 would not
    /// survive the f64-based JSON round-trip above 2^53).
    pub seed: String,
    /// The generated program's task-graph shape family.
    pub shape: String,
    /// Feature configurations the cell was asked to sample.
    pub configs: u64,
    /// Golden-model comparisons that ran and passed (== `configs` on
    /// success).
    pub checks: u64,
}

/// One program's static race check (`reproduce lint`): the paper suite
/// and the deliberately racy variants through `tapas-lint`.
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Program name.
    pub name: String,
    /// Diagnostics the linter reported.
    pub diags: usize,
    /// The first diagnostic, rendered, or `"clean"`.
    pub worst: String,
}

/// Lint the paper suite and the racy variants.
pub fn lint_rows() -> Vec<LintRow> {
    let mut programs = suite_eval();
    programs.extend(tapas_workloads::racy::racy_suite());
    programs
        .into_iter()
        .map(|wl| {
            let report = tapas_lint::lint_module(&wl.module, &tapas_lint::LintConfig::default())
                .expect("workloads are well-formed");
            LintRow {
                diags: report.diagnostics.len(),
                worst: report
                    .diagnostics
                    .first()
                    .map(|d| d.render())
                    .unwrap_or_else(|| "clean".to_string()),
                name: wl.name,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_all_seven() {
        let rows = table2();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.per_task_insts > 0 && r.mem_ops > 0));
        // Dedup is the biggest program, as in the paper (180 insts).
        let dedup = rows.iter().find(|r| r.name == "dedup").unwrap();
        assert!(rows.iter().all(|r| r.per_task_insts <= dedup.per_task_insts));
    }

    #[test]
    fn spawn_latency_close_to_ten_cycles() {
        let r = spawn_latency();
        assert!(r.min_latency_cycles <= 12, "paper: ~10 cycles; got {}", r.min_latency_cycles);
        assert!(
            r.spawns_per_sec > 10e6,
            "paper: up to 40M spawns/s; got {:.1}M",
            r.spawns_per_sec / 1e6
        );
    }

    #[test]
    fn table3_shapes() {
        let rows = table3();
        let cv_small = &rows[0];
        let cv_big = &rows[3];
        let a10_big = &rows[4];
        assert!(cv_big.alm > 10 * cv_small.alm);
        assert!(cv_big.chip_pct > 60.0, "paper: 85%");
        assert!(a10_big.chip_pct < 20.0, "paper: 12%");
        assert!(a10_big.mhz > 270.0, "paper: 308 MHz");
    }

    #[test]
    fn stress_cell_survives_single_entry_queue() {
        // deeprec needs `depth` live queue entries without admission; with
        // it, one entry must suffice. simulate_configured asserts the
        // output matches the golden model, so a returned row is proof of
        // correct termination.
        let row = stress_row(&tapas_workloads::deeprec::build(64), 1);
        assert_eq!(row.ntasks, 1);
        assert!(row.cycles > 0);
        assert!(
            row.inline_spawns + row.spills > 0,
            "a one-entry queue must have degraded somewhere"
        );
    }

    #[test]
    fn fig14_overhead_amortizes() {
        let rows = fig14();
        let tiny = rows.iter().find(|r| r.config == "1T/1Ins").unwrap();
        let big = rows.iter().find(|r| r.config == "10T/50Ins").unwrap();
        let tiny_overhead = 100.0 - tiny.tiles_pct - tiny.parallel_for_pct;
        let big_overhead = 100.0 - big.tiles_pct - big.parallel_for_pct;
        assert!(tiny_overhead > 40.0, "paper: ~60% at 1 op/task");
        assert!(big_overhead < 20.0, "paper: control -> 3% at 10 tiles");
        assert!(big.mem_arb_pct < 12.0, "paper: network < 10%");
    }
}

// Every row type encodes and decodes by the same field list: a cell
// journals its rows as JSON and the fold decodes them, so
// `decode(encode(x)) == x` exactly is what makes a resumed sweep's
// aggregate byte-identical to a clean run's.
macro_rules! json_row {
    ($($ty:ident { $($field:ident),+ $(,)? })*) => {$(
        json_object!($ty { $($field),+ });
        json_decode!($ty { $($field),+ });
    )*};
}

json_row! {
    Table2Row { name, challenge, per_task_insts, mem_ops, tasks }
    SpawnLatencyResult { min_latency_cycles, spawns_per_sec, clock_mhz }
    Fig13Row { adders, tiles, madds_per_sec }
    Table3Row { board, tiles, insts, mhz, alm, reg, bram, chip_pct }
    Fig14Row { config, tiles_pct, parallel_for_pct, task_ctrl_pct, mem_arb_pct, misc_pct }
    Fig15Row { name, tiles, cycles, speedup }
    Fig16Row { name, board, fpga_ms, i7_ms, gain }
    Table4Row { name, tiles, mhz, alms, regs, brams, power_w }
    Fig17Row { name, board, perf_per_watt_gain }
    Table5Row { name, tool, mhz, alms, regs, brams, runtime_ms }
    GrainAblationRow { name, fine_ms, coarse_ms, coarsening_speedup }
    MemAblationRow { mshrs, issue_width, l2, cycles, speedup }
    ElisionAblationRow { variant, cycles, alms, task_units }
    ProfileRow {
        name,
        tiles,
        cycles,
        class,
        compute_frac,
        memory_frac,
        spawn_frac,
        dominant,
        backpressure_cycles,
        unit_queues
    }
    UnitQueueRow { unit, full_cycles }
    FaultRow {
        name,
        scenario,
        outcome,
        detail,
        cycles,
        faults_injected,
        mem_retries,
        ecc_retries,
        quarantined_tiles
    }
    StressRow { name, ntasks, cycles, spills, refills, inline_spawns }
    TuneRow { name, variant, tiles, cycles, steals, steal_fail, bank_conflicts, speedup }
    AnalyzeRow {
        name,
        work_lo,
        work_hi,
        dyn_work,
        span_lo,
        span_hi,
        dyn_span,
        mem_lo,
        mem_hi,
        dyn_mem,
        spawns_lo,
        spawns_hi,
        dyn_spawns,
        tasks_lo,
        tasks_hi,
        dyn_peak_tasks,
        min_safe_ntasks,
        seed_ntasks,
        safe_at_seed,
        predicted,
        measured,
        agree
    }
    DifferentialRow { workload, seed, samples, checks }
    ChaosRow { workload, seed, trials, verified }
    FuzzRow { seed, shape, configs, checks }
    LintRow { name, diags, worst }
}
