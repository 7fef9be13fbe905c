//! The event-driven engine core against the stepped seed core: both must
//! produce identical statistics (the event core's own counters aside) on
//! the whole benchmark suite and on the `deeprec` spawn chain across
//! spawn-port latencies, pinned to cycle counts recorded from the seed
//! engine, so a skew in *either* core fails loudly.

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

/// Run `wl` on both cores, assert they agree on every statistic but the
/// event core's own counters, and return the event core's stats.
fn both_cores(wl: &BuiltWorkload, tiles: usize, spawn_cost: u64, seed_cycles: u64) -> SimStats {
    let name = &wl.name;
    let mut cfg = accel_config(wl, tiles, ntasks_for(wl));
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
        both_cores(wl, 2, 10, seed_cycles);
    }
}

#[test]
fn spawn_chain_is_cycle_identical_and_counts_events() {
    let chain = tapas_workloads::deeprec::build(256);
    for &(tiles, spawn_cost, cycles) in SPAWN_CHAIN_CYCLES {
        let stats = both_cores(&chain, tiles, spawn_cost, cycles);
        assert!(stats.skipped_cycles > 0, "t{tiles}/c{spawn_cost}: a chain has idle windows");
    }
}
