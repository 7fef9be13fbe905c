//! The event-driven engine core against the stepped seed core: both must
//! produce identical statistics (the event core's own counters aside) on
//! the whole benchmark suite, on the `deeprec` spawn chain across
//! spawn-port latencies and on runs whose spawns a full queue refuses,
//! pinned to cycle counts recorded from the seed engine, so a skew in
//! *either* core fails loudly.

use tapas::SimStats;
use tapas_bench::{accel_config, ntasks_for, simulate_configured};
use tapas_workloads::BuiltWorkload;

/// Cycle counts recorded from the seed (stepped) engine for `suite_small`
/// at 2 tiles and the default queue depths. The event-driven core must
/// reproduce these exactly.
const SEED_CYCLES: &[(&str, u64)] = &[
    ("matrix_add", 7362),
    ("image_scale", 26992),
    ("saxpy", 3293),
    ("stencil", 12382),
    ("dedup", 10362),
    ("mergesort", 24787),
    ("fib", 3440),
];

/// Cycle counts of the `deeprec(256)` spawn chain at `(tiles,
/// spawn_cost)`: every cycle of handshake latency on a chain is
/// machine-wide idle time, which the event core skips.
const SPAWN_CHAIN_CYCLES: &[(usize, u64, u64)] = &[
    (1, 10, 9790),
    (1, 25, 17485),
    (1, 50, 30310),
    (1, 100, 55960),
    (1, 200, 107260),
    (2, 10, 10814),
    (2, 25, 18509),
    (2, 50, 31334),
    (2, 100, 56984),
    (2, 200, 108284),
];

/// Refused-spawn cells `(workload, tiles, ntasks, cycles, refusing unit,
/// spawn_stalls, engine_events)`: queues shallow enough that spawns into
/// them are refused — `saxpy`'s loop `detach`es and `mergesort`'s serial
/// calls. Cycles and stalls are the seed engine's, and every stall is
/// charged to the unit whose queue refused the spawn. `engine_events` is
/// the event core's, which skips the windows in which a refused spawner
/// only waits for a slot; a regression back to per-cycle retries moves it.
const REFUSED_SPAWN_CELLS: &[(&str, usize, usize, u64, &str, u64, u64)] = &[
    ("saxpy", 2, 4, 3293, "saxpy::task1", 2336, 2141),
    ("mergesort", 2, 16, 27698, "mergesort::root", 24170, 14037),
];

/// Run `wl` on both cores, assert they agree on every statistic but the
/// event core's own counters, and return the event core's stats.
fn both_cores(
    wl: &BuiltWorkload,
    tiles: usize,
    ntasks: usize,
    spawn_cost: u64,
    seed_cycles: u64,
) -> SimStats {
    let name = &wl.name;
    let mut cfg = accel_config(wl, tiles, ntasks);
    cfg.spawn_cost = spawn_cost;
    let mut stepped = cfg.clone();
    stepped.event_driven = false;
    let (ev, _) = simulate_configured(wl, &cfg);
    let (st, _) = simulate_configured(wl, &stepped);
    assert_eq!(ev.cycles, seed_cycles, "{name}: event-driven core diverged from seed record");
    assert_eq!(st.cycles, seed_cycles, "{name}: stepped core diverged from seed record");
    let masked = |s: &SimStats| SimStats { engine_events: 0, skipped_cycles: 0, ..s.clone() };
    assert_eq!(masked(&ev.stats), masked(&st.stats), "{name}: the cores' statistics diverged");
    assert_eq!(
        ev.cycles,
        ev.stats.engine_events + ev.stats.skipped_cycles,
        "{name}: event accounting invariant"
    );
    assert_eq!(st.stats.skipped_cycles, 0, "{name}: the stepped core never skips");
    assert_eq!(st.stats.engine_events, st.cycles);
    ev.stats
}

#[test]
fn event_core_matches_recorded_seed_cycles_suite_wide() {
    let suite = tapas_workloads::suite_small();
    assert_eq!(suite.len(), SEED_CYCLES.len(), "suite changed: re-record SEED_CYCLES");
    for (wl, &(name, seed_cycles)) in suite.iter().zip(SEED_CYCLES) {
        assert_eq!(wl.name, name, "suite order changed: re-record SEED_CYCLES");
        both_cores(wl, 2, ntasks_for(wl), 10, seed_cycles);
    }
}

#[test]
fn spawn_chain_is_cycle_identical_and_counts_events() {
    let chain = tapas_workloads::deeprec::build(256);
    for &(tiles, spawn_cost, cycles) in SPAWN_CHAIN_CYCLES {
        let stats = both_cores(&chain, tiles, ntasks_for(&chain), spawn_cost, cycles);
        assert!(stats.skipped_cycles > 0, "t{tiles}/c{spawn_cost}: a chain has idle windows");
    }
}

#[test]
fn refused_spawns_are_cycle_identical_and_skip_their_stall_windows() {
    let suite = tapas_workloads::suite_small();
    for &(name, tiles, ntasks, cycles, refusing, stalls, events) in REFUSED_SPAWN_CELLS {
        let wl = suite.iter().find(|w| w.name == name).expect("suite workload");
        let stats = both_cores(wl, tiles, ntasks, 10, cycles);
        let cell = format!("{name} t{tiles}/n{ntasks}");
        let charged: Vec<(&str, u64)> = stats
            .units
            .iter()
            .filter(|u| u.spawn_stalls > 0)
            .map(|u| (u.name.as_str(), u.spawn_stalls))
            .collect();
        assert_eq!(charged, [(refusing, stalls)], "{cell}: spawn stalls by unit");
        assert_eq!(stats.engine_events, events, "{cell}: event core iterations");
    }
}
