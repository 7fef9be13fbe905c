//! # tapas-bench — regenerating every table and figure of the paper
//!
//! Each function in [`experiments`] reproduces one evaluation artifact of
//! the paper (Tables II–V, Figures 13–17 and the §V-A spawn-latency
//! claim) and returns structured rows; the `reproduce` binary formats them
//! and the bench harness times the underlying simulations.
//!
//! Absolute numbers come from the calibrated models in `tapas-res` and the
//! cycle-level simulator — the *shapes* (who wins, scaling trends,
//! crossovers) are the reproduction target, as recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod experiment;
pub mod experiments;
pub mod perf;

// The hand-rolled JSON layer moved to `tapas-exec` (the sweep executor
// journals payloads through it); re-exported so `tapas_bench::json::…`
// paths keep working.
pub use tapas_exec::json;

use tapas::ir::interp::{self, Val};
use tapas::{Accelerator, AcceleratorConfig, ProfileLevel, SimOutcome, Toolchain};
use tapas_res::{Board, DesignInfo};
use tapas_workloads::BuiltWorkload;

/// Simulate `wl` with `tiles` tiles on its worker task; panics on failure
/// (experiments are expected to run green).
pub fn simulate(wl: &BuiltWorkload, tiles: usize, ntasks: usize) -> SimOutcome {
    simulate_configured(wl, &accel_config(wl, tiles, ntasks)).0
}

/// Simulate `wl` under an explicit configuration, revalidating functional
/// correctness against the golden model; returns the outcome and the
/// post-run accelerator (for event traces / memory inspection).
pub fn simulate_configured(
    wl: &BuiltWorkload,
    cfg: &AcceleratorConfig,
) -> (SimOutcome, Accelerator) {
    let design = Toolchain::new().compile(&wl.module).expect("compiles");
    let mut acc = design.instantiate(cfg).expect("elaborates");
    acc.mem_mut().write_bytes(0, &wl.mem);
    let out = acc.run(wl.func, &wl.args).expect("runs");
    // Every experiment run revalidates functional correctness.
    let golden = wl.golden_memory();
    assert_eq!(
        acc.mem().read_bytes(wl.output.0, wl.output.1),
        wl.output_of(&golden),
        "{}: accelerator diverged from golden model",
        wl.name
    );
    (out, acc)
}

/// Simulate `wl` with cycle attribution enabled at `level`.
pub fn simulate_profiled(
    wl: &BuiltWorkload,
    tiles: usize,
    ntasks: usize,
    level: ProfileLevel,
) -> SimOutcome {
    let cfg = AcceleratorConfig { profile: level, ..accel_config(wl, tiles, ntasks) };
    simulate_configured(wl, &cfg).0
}

/// Simulate `wl` with event recording on and return the Chrome
/// trace-event JSON alongside the outcome.
pub fn simulate_traced(wl: &BuiltWorkload, tiles: usize, ntasks: usize) -> (SimOutcome, String) {
    let cfg = AcceleratorConfig { record_events: true, ..accel_config(wl, tiles, ntasks) };
    let (out, acc) = simulate_configured(wl, &cfg);
    let trace = acc.chrome_trace();
    (out, trace)
}

/// The accelerator configuration used for `wl` at a given tile count.
pub fn accel_config(wl: &BuiltWorkload, tiles: usize, ntasks: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        ntasks,
        mem_bytes: wl.mem.len().next_power_of_two().max(1 << 20),
        ..AcceleratorConfig::default()
    }
    .with_default_tiles(tiles)
}

/// Recursive workloads spread tiles across every unit (the recursion *is*
/// the worker); loop workloads concentrate tiles on the body task.
pub fn is_recursive(wl: &BuiltWorkload) -> bool {
    matches!(wl.name.as_str(), "fib" | "mergesort" | "deeprec")
}

/// Queue depth per workload: recursive designs need deep queues (that is
/// exactly why their BRAM count in Table IV is large).
pub fn ntasks_for(wl: &BuiltWorkload) -> usize {
    if is_recursive(wl) {
        512
    } else {
        32
    }
}

/// Resource estimate of `wl`'s design on `board` with `tiles` worker tiles.
pub fn estimate(wl: &BuiltWorkload, tiles: usize, board: Board) -> tapas_res::Estimate {
    let info = design_info(wl, tiles);
    tapas_res::estimate(&info, board)
}

/// The `DesignInfo` for `wl`: its compiled design at the experiments'
/// configuration (`tiles` on every unit, [`ntasks_for`] queue depth).
pub fn design_info(wl: &BuiltWorkload, tiles: usize) -> DesignInfo {
    let design = Toolchain::new().compile(&wl.module).expect("compiles");
    design.design_info(&accel_config(wl, tiles, ntasks_for(wl)))
}

/// Wall-clock seconds for a simulated run at the board's achievable clock.
pub fn seconds_on_board(wl: &BuiltWorkload, tiles: usize, board: Board) -> (f64, SimOutcome) {
    let out = simulate(wl, tiles, ntasks_for(wl));
    let est = estimate(wl, tiles, board);
    (out.cycles as f64 / (est.fmax_mhz * 1e6), out)
}

/// i7 multicore-model seconds for the same program (identical IR).
///
/// Spawns are *not* coarsened: Tapir's `cilk_for` lowering detaches one
/// task per iteration, which is exactly the software overhead the paper's
/// Fig. 13 measures (~2.5 M tasks/s on the i7). The grainsize-coarsened
/// variant is available as [`i7_seconds_coarsened`] and studied in the
/// grainsize ablation experiment.
pub fn i7_seconds(wl: &BuiltWorkload, cores: usize) -> f64 {
    i7_seconds_grain(wl, cores, 1)
}

/// i7 model with Cilk's per-loop auto grainsize (`min(2048, N/8P)`)
/// applied — how a production Cilk Plus runtime would coarsen the loops.
pub fn i7_seconds_coarsened(wl: &BuiltWorkload, cores: usize) -> f64 {
    let mut mem = wl.mem.clone();
    let out =
        interp::run(&wl.module, wl.func, &wl.args, &mut mem, &interp::InterpConfig::default())
            .expect("interpreter run");
    let trace = tapas_baseline::coarsen_loops_auto(&out.trace, cores);
    let cfg = tapas_baseline::CoreConfig { cores, ..tapas_baseline::CoreConfig::default() };
    tapas_baseline::run_multicore(&trace, &cfg).seconds
}

/// i7 model with an explicit grainsize (1 = every spawn pays full runtime
/// cost, as in the Fig. 12 microbenchmark).
pub fn i7_seconds_grain(wl: &BuiltWorkload, cores: usize, grainsize: usize) -> f64 {
    let mut mem = wl.mem.clone();
    let out =
        interp::run(&wl.module, wl.func, &wl.args, &mut mem, &interp::InterpConfig::default())
            .expect("interpreter run");
    let trace = tapas_baseline::coarsen_loops(&out.trace, grainsize);
    let cfg = tapas_baseline::CoreConfig { cores, ..tapas_baseline::CoreConfig::default() };
    tapas_baseline::run_multicore(&trace, &cfg).seconds
}

/// Convenience wrapper shared by tests.
pub fn val_int(v: u64) -> Val {
    Val::Int(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_validates_against_golden() {
        let wl = tapas_workloads::saxpy::build(64);
        let out = simulate(&wl, 2, 32);
        assert!(out.cycles > 0);
    }

    #[test]
    fn board_seconds_differ_by_clock() {
        let wl = tapas_workloads::matrix_add::build(8);
        let (cv, _) = seconds_on_board(&wl, 2, Board::CycloneV);
        let (a10, _) = seconds_on_board(&wl, 2, Board::Arria10);
        assert!(a10 < cv, "Arria 10 clocks higher");
    }

    #[test]
    fn i7_model_produces_finite_time() {
        let wl = tapas_workloads::fib::build(10);
        let s = i7_seconds(&wl, 4);
        assert!(s > 0.0 && s < 1.0);
    }
}
