//! # tapas-res — FPGA resource, frequency and power models
//!
//! We cannot run Quartus, so this crate replaces the fitter with analytical
//! models **calibrated against the paper's own published synthesis
//! results** (Table III utilization points, Table IV per-benchmark
//! resources and PowerPlay estimates):
//!
//! * **Resources** — per-component ALM costs (task controller, tile
//!   control, one cost per dataflow node class, memory arbitration tree),
//!   solved from the Table III microbenchmark sweep
//!   (1/10 tiles × 1/50 instructions);
//! * **Block RAM** — one queue RAM per task unit, doubled for recursive
//!   units (the `Args RAM` + `Stack RAM` of Fig. 4), scaled by queue depth;
//! * **Fmax** — a utilization-dependent derating of each board's base
//!   fabric frequency;
//! * **Power** — static + activity-proportional dynamic power, least-squares
//!   fitted to the seven Table IV measurements
//!   (`P = 0.605 + 0.178·(ALM + Reg/2)·f[M·MHz] + 0.0316·BRAM·f[k·MHz]` W);
//! * an **Intel HLS** estimator for the Table V comparison (streaming
//!   buffers dominate its BRAM).
//!
//! An i7-RAPL-style package power constant supports the performance/watt
//! figures (Fig. 17).

#![warn(missing_docs)]

use tapas_dfg::{DfgProfile, TaskDfg};
use tapas_ir::Module;
use tapas_task::TaskGraph;

/// FPGA boards evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Board {
    /// Intel-Altera DE1-SoC (Cyclone V 5CSEMA5).
    CycloneV,
    /// Arria 10 SoC (10AS066).
    Arria10,
}

impl Board {
    /// Usable ALM capacity (calibrated so the Table III "%Chip" column is
    /// reproduced).
    pub fn alm_capacity(self) -> u64 {
        match self {
            Board::CycloneV => 29_000,
            Board::Arria10 => 240_000,
        }
    }

    /// Best-case fabric frequency in MHz for small designs.
    pub fn base_mhz(self) -> f64 {
        match self {
            Board::CycloneV => 195.0,
            Board::Arria10 => 330.0,
        }
    }

    /// Fmax at a given utilization (routing pressure derates frequency).
    pub fn fmax_mhz(self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.base_mhz() * (1.0 - 0.22 * u.sqrt())
    }
}

/// Per-component ALM cost constants, solved from Table III.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Task controller (queue management, spawn/sync ports) per unit.
    pub task_ctrl: u64,
    /// Per-tile control FSM and pipeline registers.
    pub tile_base: u64,
    /// Per-tile queue/dispatch interface.
    pub tile_queue_if: u64,
    /// Single-cycle integer ALU / comparator / mux node.
    pub int_simple: u64,
    /// Integer multiplier node.
    pub int_mul: u64,
    /// Integer divider node.
    pub int_div: u64,
    /// Floating-point node.
    pub fp: u64,
    /// Address generator node.
    pub gep: u64,
    /// Load or store unit node.
    pub mem_unit: u64,
    /// Phi mux node.
    pub phi: u64,
    /// Cast (wiring) node.
    pub cast: u64,
    /// Call/spawn bridge node.
    pub call: u64,
    /// Memory arbitration per data-box port.
    pub mem_port: u64,
    /// Miscellaneous glue (AXI bridge, host interface).
    pub misc: u64,
    /// Registers per ALM (empirically ~1.1 in the paper's tables).
    pub reg_per_alm: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            task_ctrl: 270,
            tile_base: 150,
            tile_queue_if: 60,
            int_simple: 35,
            int_mul: 160,
            int_div: 650,
            fp: 400,
            gep: 42,
            mem_unit: 85,
            phi: 14,
            cast: 2,
            call: 120,
            mem_port: 45,
            misc: 120,
            reg_per_alm: 1.10,
        }
    }
}

impl CostModel {
    /// ALMs for one copy of a task's dataflow (one tile's worth of nodes).
    pub fn dfg_alms(&self, p: &DfgProfile) -> u64 {
        self.int_simple * p.int_simple as u64
            + self.int_mul * p.int_mul as u64
            + self.int_div * p.int_div as u64
            + self.fp * p.fp as u64
            + self.gep * p.geps as u64
            + self.mem_unit * (p.loads + p.stores) as u64
            + self.phi * p.phis as u64
            + self.cast * p.casts as u64
            + self.call * p.calls as u64
    }
}

/// Description of one task unit for estimation.
#[derive(Debug, Clone)]
pub struct UnitInfo {
    /// Task name.
    pub name: String,
    /// Static node mix of the TXU dataflow.
    pub profile: DfgProfile,
    /// Tiles instantiated.
    pub tiles: usize,
    /// Task queue depth (`Ntasks`).
    pub ntasks: usize,
    /// Bytes per `Args[]` entry.
    pub arg_bytes: usize,
    /// Whether the task performs calls (recursive units carry a stack RAM
    /// in addition to the args RAM — Fig. 4).
    pub recursive: bool,
}

/// A whole design: every task unit of every function plus memory plumbing.
#[derive(Debug, Clone)]
pub struct DesignInfo {
    /// All task units.
    pub units: Vec<UnitInfo>,
    /// L1 cache capacity in bytes.
    pub cache_bytes: u64,
}

impl DesignInfo {
    /// Describe a lowered design — its task graphs and the TXU dataflows
    /// indexed like them — with tile counts decided by `tiles_for` (task
    /// name → tiles) and queue depth `ntasks`.
    pub fn new(
        module: &Module,
        graphs: &[TaskGraph],
        dfgs: &[Vec<TaskDfg>],
        ntasks: usize,
        cache_bytes: u64,
        tiles_for: impl Fn(&str) -> usize,
    ) -> DesignInfo {
        let mut units = Vec::new();
        for (g, dfgs) in graphs.iter().zip(dfgs) {
            let f = module.function(g.func);
            for dfg in dfgs {
                let t = g.task(dfg.task);
                let arg_bytes: usize =
                    t.args.iter().map(|a| f.value_ty(*a).size_bytes() as usize).sum();
                units.push(UnitInfo {
                    name: t.name.clone(),
                    profile: dfg.profile(),
                    tiles: tiles_for(&t.name).max(1),
                    ntasks,
                    arg_bytes: arg_bytes.max(8),
                    recursive: !t.calls.is_empty(),
                });
            }
        }
        DesignInfo { units, cache_bytes }
    }
}

/// A resource/frequency estimate for a design on a board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Adaptive logic modules.
    pub alms: u64,
    /// Registers.
    pub regs: u64,
    /// Block RAMs (M10K/M20K, queue + stack RAMs; the shared cache macro
    /// is accounted separately as in the paper's tables).
    pub brams: u64,
    /// Chip utilization fraction.
    pub utilization: f64,
    /// Achievable clock in MHz.
    pub fmax_mhz: f64,
}

/// Fig. 14's ALM breakdown by sub-block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AlmBreakdown {
    /// Worker tiles (TXU dataflow copies).
    pub tiles: u64,
    /// The parallel-for / root task unit logic.
    pub parallel_for: u64,
    /// Task controllers and queues.
    pub task_ctrl: u64,
    /// Memory arbitration network.
    pub mem_arb: u64,
    /// Everything else.
    pub misc: u64,
}

impl AlmBreakdown {
    /// Total ALMs.
    pub fn total(&self) -> u64 {
        self.tiles + self.parallel_for + self.task_ctrl + self.mem_arb + self.misc
    }
}

/// Estimate the resources of `design` on `board` with the default costs.
pub fn estimate(design: &DesignInfo, board: Board) -> Estimate {
    estimate_with(design, board, &CostModel::default())
}

/// Estimate with an explicit cost model.
pub fn estimate_with(design: &DesignInfo, board: Board, cm: &CostModel) -> Estimate {
    let b = breakdown_with(design, cm);
    let alms = b.total();
    let regs = (alms as f64 * cm.reg_per_alm).round() as u64;
    let mut brams = 0u64;
    for u in &design.units {
        let queue_bytes = (u.ntasks * (u.arg_bytes + 16)) as u64;
        let queue_brams = queue_bytes.div_ceil(2560).max(1);
        brams += if u.recursive { 2 * queue_brams } else { queue_brams };
    }
    let utilization = alms as f64 / board.alm_capacity() as f64;
    Estimate { alms, regs, brams, utilization, fmax_mhz: board.fmax_mhz(utilization) }
}

/// ALM breakdown by sub-block (Fig. 14).
pub fn breakdown(design: &DesignInfo) -> AlmBreakdown {
    breakdown_with(design, &CostModel::default())
}

/// ALM breakdown with an explicit cost model.
pub fn breakdown_with(design: &DesignInfo, cm: &CostModel) -> AlmBreakdown {
    let mut out = AlmBreakdown { misc: cm.misc, ..AlmBreakdown::default() };
    for (idx, u) in design.units.iter().enumerate() {
        let per_tile = cm.tile_base + cm.tile_queue_if + cm.dfg_alms(&u.profile);
        let tile_alms = per_tile * u.tiles as u64;
        // By the paper's Fig. 14 accounting the root/loop-control unit is
        // the "Parallel For" block; spawned tasks' tiles are "Tiles".
        if idx == 0 || u.name.ends_with("::root") {
            out.parallel_for += tile_alms;
        } else {
            out.tiles += tile_alms;
        }
        out.task_ctrl += cm.task_ctrl;
        let ports = (u.tiles * u.profile.mem_nodes()) as u64;
        out.mem_arb += ports * cm.mem_port;
    }
    out
}

/// Dynamic + static power in watts for a design running at `mhz`
/// (least-squares fit of Table IV; see the crate docs).
pub fn power_watts(est: &Estimate, mhz: f64) -> f64 {
    let logic = (est.alms as f64 + 0.5 * est.regs as f64) / 1.0e6;
    0.605 + 0.178 * logic * mhz + 0.0316 * (est.brams as f64 / 1.0e3) * mhz
}

/// The multicore comparison point: an Intel i7 quad-core package under
/// Cilk load draws on the order of 50 W (measured through RAPL in the
/// paper).
pub const I7_PACKAGE_WATTS: f64 = 50.0;

/// Intel-HLS-style estimate for a statically unrolled streaming kernel
/// (Table V): same datapath cost, no task controllers, large stream
/// buffers in BRAM.
pub fn intel_hls_estimate(
    body: &DfgProfile,
    unroll: usize,
    streams: usize,
    board: Board,
) -> Estimate {
    let cm = CostModel::default();
    let alms = cm.dfg_alms(body) * unroll as u64 + 1200;
    let regs = (alms as f64 * 1.9) as u64; // deep static pipelines
    let brams = 12 * streams as u64 + 2;
    let utilization = alms as f64 / board.alm_capacity() as f64;
    Estimate { alms, regs, brams, utilization, fmax_mhz: board.fmax_mhz(utilization) * 0.98 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapas_dfg::{lower_module, LatencyModel};
    use tapas_workloads::scale_micro;

    fn design_of(m: &Module, ntasks: usize, tiles_for: impl Fn(&str) -> usize) -> DesignInfo {
        let (graphs, dfgs) = lower_module(m, &LatencyModel::default()).unwrap();
        DesignInfo::new(m, &graphs, &dfgs, ntasks, 16 * 1024, tiles_for)
    }

    fn within(actual: f64, expected: f64, tol: f64) -> bool {
        (actual - expected).abs() <= tol * expected
    }

    fn micro_design(tiles: usize, adders: u32) -> DesignInfo {
        let wl = scale_micro::build(64, adders);
        design_of(&wl.module, 32, |name| if name.contains("task") { tiles } else { 1 })
    }

    #[test]
    fn table3_calibration_points_cyclone_v() {
        // (tiles, adders) -> paper ALMs
        let points = [(1usize, 1u32, 1314u64), (1, 50, 2955), (10, 1, 7107), (10, 50, 24738)];
        for (tiles, adders, paper_alm) in points {
            let d = micro_design(tiles, adders);
            let e = estimate(&d, Board::CycloneV);
            assert!(
                within(e.alms as f64, paper_alm as f64, 0.30),
                "{tiles}T/{adders}I: model {} vs paper {paper_alm}",
                e.alms
            );
        }
    }

    #[test]
    fn utilization_tracks_paper_chip_percent() {
        let d = micro_design(10, 50);
        let e = estimate(&d, Board::CycloneV);
        assert!(e.utilization > 0.6 && e.utilization <= 1.0, "paper: 85%");
        let e10 = estimate(&d, Board::Arria10);
        assert!(e10.utilization < 0.2, "paper: 12% on Arria 10");
    }

    #[test]
    fn fmax_derates_with_utilization() {
        let small = micro_design(1, 1);
        let big = micro_design(10, 50);
        let fs = estimate(&small, Board::CycloneV).fmax_mhz;
        let fb = estimate(&big, Board::CycloneV).fmax_mhz;
        assert!(fs > fb);
        assert!(fs > 170.0 && fs < 200.0);
        assert!(fb > 130.0 && fb < 175.0);
        // Arria 10 runs the big design near 300 MHz (paper: 308).
        let fa = estimate(&big, Board::Arria10).fmax_mhz;
        assert!(fa > 270.0 && fa < 335.0, "arria fmax {fa}");
    }

    #[test]
    fn breakdown_overhead_amortizes_with_tiles() {
        // Fig. 14: at 1 op/task ~60% overhead; at 10 tiles control is ~3%.
        let d1 = micro_design(1, 1);
        let b1 = breakdown(&d1);
        let ctrl_share1 = b1.task_ctrl as f64 / b1.total() as f64;
        let d10 = micro_design(10, 50);
        let b10 = breakdown(&d10);
        let ctrl_share10 = b10.task_ctrl as f64 / b10.total() as f64;
        assert!(ctrl_share1 > 0.3, "control dominates tiny designs");
        assert!(ctrl_share10 < 0.08, "control amortized at scale");
        let non_compute1 = 1.0 - (b1.tiles + b1.parallel_for) as f64 / b1.total() as f64;
        assert!(non_compute1 > 0.25);
    }

    #[test]
    fn mem_network_under_ten_percent_at_scale() {
        let d = micro_design(10, 50);
        let b = breakdown(&d);
        assert!((b.mem_arb as f64) < 0.12 * b.total() as f64, "paper: <10%");
    }

    #[test]
    fn power_fit_reproduces_table4_rows() {
        // Use the paper's own (ALM, Reg, BRAM, MHz) inputs to validate the
        // fitted power curve.
        let rows: [(&str, u64, u64, u64, f64, f64); 7] = [
            ("saxpy", 7195, 9414, 3, 149.0, 0.957),
            ("stencil", 11927, 11543, 3, 142.0, 1.272),
            ("matrix", 4702, 7025, 3, 223.0, 0.677),
            ("image", 4442, 5814, 3, 141.0, 0.798),
            ("dedup", 10487, 6509, 3, 153.0, 1.014),
            ("fib", 5699, 9887, 62, 120.0, 1.155),
            ("mergesort", 14098, 24775, 74, 134.0, 1.491),
        ];
        for (name, alms, regs, brams, mhz, paper_w) in rows {
            let est = Estimate {
                alms,
                regs,
                brams,
                utilization: alms as f64 / Board::CycloneV.alm_capacity() as f64,
                fmax_mhz: mhz,
            };
            let w = power_watts(&est, mhz);
            assert!(within(w, paper_w, 0.45), "{name}: model {w:.3} vs paper {paper_w}");
        }
    }

    #[test]
    fn recursive_units_double_queue_brams() {
        let wl = tapas_workloads::fib::build(8);
        let shallow = design_of(&wl.module, 32, |_| 1);
        let deep = design_of(&wl.module, 1024, |_| 1);
        let es = estimate(&shallow, Board::CycloneV);
        let ed = estimate(&deep, Board::CycloneV);
        assert!(ed.brams > es.brams * 4, "deep queues grow BRAM");
        assert!(deep.units.iter().any(|u| u.recursive), "fib tasks are recursive");
    }

    #[test]
    fn intel_hls_uses_more_bram_fewer_controllers() {
        let wl = tapas_workloads::saxpy::build(64);
        let d = design_of(&wl.module, 32, |_| 3);
        let tapas = estimate(&d, Board::CycloneV);
        let body = d.units.iter().find(|u| u.name.contains("task")).unwrap().profile;
        let ihls = intel_hls_estimate(&body, 3, 3, Board::CycloneV);
        assert!(
            ihls.brams > tapas.brams,
            "stream buffers dominate Intel HLS BRAM (paper: 38 vs 11)"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity bound on a calibration constant
    fn i7_power_constant_matches_rapl_magnitude() {
        assert!(I7_PACKAGE_WATTS > 30.0 && I7_PACKAGE_WATTS < 100.0);
    }
}
