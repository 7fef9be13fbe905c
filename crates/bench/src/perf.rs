//! `reproduce bench` — simulator-throughput benchmark for the
//! event-driven engine core, decomposed into sweep-executor cells.
//!
//! Three measurements, all taken in the same process and the same build so
//! the comparison is apples-to-apples:
//!
//! 1. **Per-benchmark throughput**: every workload runs twice under an
//!    identical configuration — once on the event-driven core (the
//!    default) and once with [`tapas::AcceleratorConfig::event_driven`]
//!    forced off (the seed's stepped core). Every statistic but the
//!    event core's own counters must agree exactly (the run aborts
//!    otherwise); only wall clock differs. Rows
//!    report simulated-cycles-per-second and the wall-clock speedup.
//!
//!    The *spawn-bound suite* is the subset where the critical path is
//!    the spawn/sync handshake rather than compute: the `deeprec` spawn
//!    chain swept across modeled spawn-port latencies (the same ablation
//!    idiom as the MSHR and grainsize sweeps). A chain exposes the full
//!    handshake latency as machine-wide idle time, which is exactly what
//!    the event-driven core elides — the headline
//!    [`BenchResults::spawn_suite_speedup`] aggregates wall clock over
//!    those rows.
//!
//! 2. **Sweep wall time**: the tune matrix, the fixed-seed differential
//!    sweep and the boundary sweep (the harnesses that lock the engine's
//!    behavior) are each run once and timed, so `BENCH_8.json` records
//!    how long the repo's own verification gates take on this machine.
//!
//! 3. **Shard speedup**: the differential cells run through the sweep
//!    executor twice — `jobs = 1` and `jobs = max(2, cores)` — and the
//!    wall-clock ratio is recorded, so the committed baseline documents
//!    what sharding buys on the machine that produced it (and the
//!    `bench-compare` gate catches a sharded harness that became slower
//!    than serial).

use crate::experiments::JSON_SCHEMA_VERSION;
use crate::{accel_config, ntasks_for, simulate_configured};
use std::time::Instant;
use tapas::SimStats;
use tapas_exec::{json_decode, json_object};
use tapas_workloads::{deeprec, suite_small, BuiltWorkload};

/// Fixed seed shared with `tests/differential.rs`.
pub const SWEEP_SEED: u64 = 0x7A9A_5CAF;

/// One benchmark cell: the same simulation on both engine cores.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload name.
    pub name: String,
    /// Worker tiles.
    pub tiles: usize,
    /// Modeled spawn-port latency (the spawn-bound suite sweeps this).
    pub spawn_cost: u64,
    /// Simulated cycles (identical on both cores by construction).
    pub cycles: u64,
    /// Engine-loop iterations the event-driven core actually executed.
    pub engine_events: u64,
    /// Idle cycles the event-driven core jumped over.
    pub skipped_cycles: u64,
    /// Wall-clock milliseconds, event-driven core.
    pub wall_ms_event: f64,
    /// Wall-clock milliseconds, stepped (seed) core.
    pub wall_ms_stepped: f64,
    /// Simulated cycles per wall-clock second on the event-driven core.
    pub sim_cycles_per_sec: f64,
    /// `wall_ms_stepped / wall_ms_event`.
    pub speedup: f64,
    /// Member of the spawn-bound suite (feeds the headline aggregate).
    pub spawn_bound: bool,
}

/// One timed verification sweep (`bench/sweep/<which>` executor cells).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Which sweep: `"tune"`, `"differential"` or `"boundary"`.
    pub which: String,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Samples / rows the sweep produced (a changed count means the
    /// harness itself changed).
    pub samples: u64,
}

/// Serial-vs-sharded wall clock for the differential cells (the
/// `bench/shard` executor cell).
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Worker threads the sharded run used (`max(2, cores)`).
    pub jobs: u64,
    /// Cells in the sweep.
    pub cells: u64,
    /// Wall-clock milliseconds at `jobs = 1`.
    pub wall_ms_serial: f64,
    /// Wall-clock milliseconds at [`ShardTiming::jobs`].
    pub wall_ms_parallel: f64,
    /// `wall_ms_serial / wall_ms_parallel` (>1 means sharding helped; the
    /// `bench-compare` gate only requires it not collapse below 0.45, so
    /// a 1-core machine passes).
    pub speedup: f64,
}

/// Full `reproduce bench` result set (`BENCH_8.json`).
#[derive(Debug, Clone)]
pub struct BenchResults {
    /// [`JSON_SCHEMA_VERSION`] at the time of the run.
    pub schema_version: u64,
    /// Per-benchmark cells (paper suite + spawn-bound suite).
    pub rows: Vec<BenchRow>,
    /// Aggregate wall-clock speedup over the spawn-bound rows
    /// (total stepped wall / total event wall).
    pub spawn_suite_speedup: f64,
    /// Wall time of the tune matrix (cross-unit stealing + banked L1).
    pub tune_wall_ms: f64,
    /// Wall time of the fixed-seed differential sweep, and its sample
    /// count (a changed count means the harness itself changed).
    pub differential_wall_ms: f64,
    /// Samples the differential sweep accepted.
    pub differential_samples: u64,
    /// Wall time of the boundary sweep.
    pub boundary_wall_ms: f64,
    /// Samples the boundary sweep accepted.
    pub boundary_samples: u64,
    /// Worker threads the sharded differential run used.
    pub shard_jobs: u64,
    /// Cells in the sharded differential run.
    pub shard_cells: u64,
    /// Differential cells at `jobs = 1`, wall-clock ms.
    pub shard_wall_ms_serial: f64,
    /// Differential cells at `jobs = shard_jobs`, wall-clock ms.
    pub shard_wall_ms_parallel: f64,
    /// `shard_wall_ms_serial / shard_wall_ms_parallel`.
    pub shard_speedup: f64,
    /// Total wall clock of everything above — the regression gate in
    /// `scripts/check.sh` compares this against the committed baseline.
    pub total_wall_ms: f64,
}

/// Run one workload on both cores and fold the timings into a row.
pub fn bench_cell(
    wl: &BuiltWorkload,
    tiles: usize,
    spawn_cost: u64,
    spawn_bound: bool,
) -> BenchRow {
    let mut cfg = accel_config(wl, tiles, ntasks_for(wl));
    cfg.spawn_cost = spawn_cost;
    let mut stepped = cfg.clone();
    stepped.event_driven = false;
    let t0 = Instant::now();
    let (ev, _) = simulate_configured(wl, &cfg);
    let wall_ms_event = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let (st, _) = simulate_configured(wl, &stepped);
    let wall_ms_stepped = t1.elapsed().as_secs_f64() * 1e3;
    // The cores must agree on every statistic but the event core's own
    // counters.
    let masked = |s: &SimStats| SimStats { engine_events: 0, skipped_cycles: 0, ..s.clone() };
    assert_eq!(
        masked(&ev.stats),
        masked(&st.stats),
        "{}: event-driven core diverged from the stepped core",
        wl.name
    );
    BenchRow {
        name: wl.name.clone(),
        tiles,
        spawn_cost,
        cycles: ev.cycles,
        engine_events: ev.stats.engine_events,
        skipped_cycles: ev.stats.skipped_cycles,
        wall_ms_event,
        wall_ms_stepped,
        sim_cycles_per_sec: ev.cycles as f64 / (wall_ms_event / 1e3),
        speedup: wall_ms_stepped / wall_ms_event,
        spawn_bound,
    }
}

/// The paper suite at the default spawn latency: documents where the
/// event-driven core helps (spawn-bound) and where it is neutral
/// (compute/memory-bound keeps some tile busy almost every cycle).
pub fn paper_suite_cells() -> Vec<(BuiltWorkload, usize, u64)> {
    suite_small().into_iter().map(|wl| (wl, 2usize, 10u64)).collect()
}

/// The spawn-bound suite: the `deeprec` spawn chain across spawn-port
/// latencies and tile counts. Every cycle of handshake latency on a chain
/// is machine-wide idle time.
pub fn spawn_bound_cells() -> Vec<(BuiltWorkload, usize, u64)> {
    let mut cells = Vec::new();
    for &tiles in &[1usize, 2] {
        for &sc in &[10u64, 25, 50, 100, 200] {
            cells.push((deeprec::build(256), tiles, sc));
        }
    }
    cells
}

/// Time the tune matrix (`bench/sweep/tune` cell).
///
/// # Errors
///
/// An empty matrix means the harness itself broke.
pub fn tune_timing() -> Result<SweepTiming, String> {
    let t = Instant::now();
    let rows = crate::experiments::tune_matrix();
    if rows.is_empty() {
        return Err("tune matrix produced no rows".to_string());
    }
    Ok(SweepTiming {
        which: "tune".to_string(),
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        samples: rows.len() as u64,
    })
}

/// Time the fixed-seed differential sweep (`bench/sweep/differential`).
///
/// # Errors
///
/// A failing sample is rendered into the sweep's repro string.
pub fn differential_timing() -> Result<SweepTiming, String> {
    let t = Instant::now();
    let samples = tapas_integration::differential_sweep(SWEEP_SEED, 3)? as u64;
    Ok(SweepTiming {
        which: "differential".to_string(),
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        samples,
    })
}

/// Time the boundary sweep (`bench/sweep/boundary` cell).
///
/// # Errors
///
/// A violated boundary check is rendered into the repro string.
pub fn boundary_timing() -> Result<SweepTiming, String> {
    let t = Instant::now();
    let samples = tapas_integration::boundary_sweep(SWEEP_SEED)? as u64;
    Ok(SweepTiming {
        which: "boundary".to_string(),
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        samples,
    })
}

/// Run the differential cells through the sweep executor at `jobs = 1`
/// and `jobs = max(2, cores)` and record the wall-clock ratio
/// (`bench/shard` cell).
///
/// # Errors
///
/// Either run failing (or the two runs disagreeing) is a harness bug.
pub fn shard_timing() -> Result<ShardTiming, String> {
    let jobs = tapas_exec::available_jobs().max(2);
    let cells: Vec<tapas_exec::Cell<usize>> = tapas_integration::differential_cells(SWEEP_SEED, 2)
        .into_iter()
        .map(|c| {
            tapas_exec::Cell::new(format!("shard/{}", c.workload), move || {
                tapas_integration::run_differential_cell(&c)
            })
        })
        .collect();
    let timed = |jobs: usize| -> Result<(f64, Vec<Option<usize>>), String> {
        let mut policy = tapas_exec::Policy::serial();
        policy.jobs = jobs;
        let t = Instant::now();
        let sweep = tapas_exec::run_sweep(&cells, &policy, None);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        if !sweep.complete_ok() {
            let why: Vec<String> = sweep
                .failures()
                .iter()
                .map(|r| format!("{} {}: {}", r.id, r.status.label(), r.detail))
                .collect();
            return Err(format!("shard run (jobs={jobs}) failed: {}", why.join("; ")));
        }
        Ok((wall_ms, sweep.records.into_iter().map(|r| r.payload).collect()))
    };
    let (wall_ms_serial, serial_payloads) = timed(1)?;
    let (wall_ms_parallel, parallel_payloads) = timed(jobs)?;
    if serial_payloads != parallel_payloads {
        return Err("sharded differential run diverged from the serial run".to_string());
    }
    Ok(ShardTiming {
        jobs: jobs as u64,
        cells: cells.len() as u64,
        wall_ms_serial,
        wall_ms_parallel,
        speedup: wall_ms_serial / wall_ms_parallel,
    })
}

/// Fold per-cell results back into the aggregate [`BenchResults`]. Missing
/// components (failed cells) leave zeroed fields — the executor separately
/// flags the sweep as failed, so a zero is never mistaken for a clean run.
pub fn assemble_bench(
    rows: Vec<BenchRow>,
    sweeps: &[SweepTiming],
    shard: Option<&ShardTiming>,
) -> BenchResults {
    let (ev_ms, st_ms) = rows
        .iter()
        .filter(|r| r.spawn_bound)
        .fold((0.0, 0.0), |(e, s), r| (e + r.wall_ms_event, s + r.wall_ms_stepped));
    let spawn_suite_speedup = if ev_ms > 0.0 { st_ms / ev_ms } else { 0.0 };
    let sweep = |which: &str| sweeps.iter().find(|s| s.which == which);
    let wall = |which: &str| sweep(which).map_or(0.0, |s| s.wall_ms);
    let samples = |which: &str| sweep(which).map_or(0, |s| s.samples);
    let row_wall: f64 = rows.iter().map(|r| r.wall_ms_event + r.wall_ms_stepped).sum();
    let shard_wall = shard.map_or(0.0, |s| s.wall_ms_serial + s.wall_ms_parallel);
    BenchResults {
        schema_version: JSON_SCHEMA_VERSION,
        spawn_suite_speedup,
        tune_wall_ms: wall("tune"),
        differential_wall_ms: wall("differential"),
        differential_samples: samples("differential"),
        boundary_wall_ms: wall("boundary"),
        boundary_samples: samples("boundary"),
        shard_jobs: shard.map_or(0, |s| s.jobs),
        shard_cells: shard.map_or(0, |s| s.cells),
        shard_wall_ms_serial: shard.map_or(0.0, |s| s.wall_ms_serial),
        shard_wall_ms_parallel: shard.map_or(0.0, |s| s.wall_ms_parallel),
        shard_speedup: shard.map_or(0.0, |s| s.speedup),
        total_wall_ms: row_wall
            + wall("tune")
            + wall("differential")
            + wall("boundary")
            + shard_wall,
        rows,
    }
}

json_object!(BenchRow {
    name,
    tiles,
    spawn_cost,
    cycles,
    engine_events,
    skipped_cycles,
    wall_ms_event,
    wall_ms_stepped,
    sim_cycles_per_sec,
    speedup,
    spawn_bound
});
json_decode!(BenchRow {
    name,
    tiles,
    spawn_cost,
    cycles,
    engine_events,
    skipped_cycles,
    wall_ms_event,
    wall_ms_stepped,
    sim_cycles_per_sec,
    speedup,
    spawn_bound
});
json_object!(SweepTiming { which, wall_ms, samples });
json_decode!(SweepTiming { which, wall_ms, samples });
json_object!(ShardTiming { jobs, cells, wall_ms_serial, wall_ms_parallel, speedup });
json_decode!(ShardTiming { jobs, cells, wall_ms_serial, wall_ms_parallel, speedup });
json_object!(BenchResults {
    schema_version,
    rows,
    spawn_suite_speedup,
    tune_wall_ms,
    differential_wall_ms,
    differential_samples,
    boundary_wall_ms,
    boundary_samples,
    shard_jobs,
    shard_cells,
    shard_wall_ms_serial,
    shard_wall_ms_parallel,
    shard_speedup,
    total_wall_ms
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cell_is_cycle_identical_and_counts_events() {
        let wl = deeprec::build(64);
        let row = bench_cell(&wl, 1, 25, true);
        assert_eq!(row.cycles, row.engine_events + row.skipped_cycles);
        assert!(row.skipped_cycles > 0, "a spawn chain must have idle windows");
        assert!(row.sim_cycles_per_sec > 0.0);
    }

    #[test]
    fn spawn_suite_covers_a_latency_sweep() {
        let cells = spawn_bound_cells();
        assert!(cells.len() >= 8);
        assert!(cells.iter().all(|(wl, _, _)| wl.name == "deeprec"));
        let costs: std::collections::BTreeSet<u64> = cells.iter().map(|&(_, _, sc)| sc).collect();
        assert!(costs.len() >= 4, "the suite sweeps the spawn-port latency axis");
    }

    #[test]
    fn assemble_tolerates_missing_components() {
        let r = assemble_bench(Vec::new(), &[], None);
        assert_eq!(r.schema_version, JSON_SCHEMA_VERSION);
        assert_eq!(r.rows.len(), 0);
        assert_eq!(r.shard_jobs, 0);
        assert_eq!(r.total_wall_ms, 0.0);
    }

    #[test]
    fn assemble_totals_every_component() {
        let sweeps = vec![
            SweepTiming { which: "tune".into(), wall_ms: 10.0, samples: 24 },
            SweepTiming { which: "differential".into(), wall_ms: 20.0, samples: 21 },
            SweepTiming { which: "boundary".into(), wall_ms: 5.0, samples: 12 },
        ];
        let shard = ShardTiming {
            jobs: 2,
            cells: 7,
            wall_ms_serial: 8.0,
            wall_ms_parallel: 6.0,
            speedup: 8.0 / 6.0,
        };
        let r = assemble_bench(Vec::new(), &sweeps, Some(&shard));
        assert_eq!(r.differential_samples, 21);
        assert_eq!(r.boundary_samples, 12);
        assert_eq!(r.shard_cells, 7);
        assert!((r.total_wall_ms - (10.0 + 20.0 + 5.0 + 14.0)).abs() < 1e-9);
    }
}
