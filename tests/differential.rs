//! The seeded differential sweep over the opt-in performance knobs:
//! every small-suite workload × random configurations (steal on/off ×
//! banks ∈ {1,2,4} × tiles × queue depth × admission control), each run
//! checked against the interpreter golden model, with features-disabled
//! samples additionally checked cycle-identical to the seed twin. See
//! `tapas_integration` for the harness and the minimizer.

use tapas_integration::{
    boundary_sweep, check_sample, differential_cells, Program, Sample, SWEEP_SEED,
};
use tapas_workloads::saxpy;

/// Run every cell of the differential sweep; returns the checks made.
fn sweep(seed: u64, samples_per_workload: usize) -> usize {
    differential_cells(seed, samples_per_workload)
        .iter()
        .map(|cell| {
            let program = cell.source.load().unwrap_or_else(|e| panic!("{e}"));
            cell.run(&program, None).unwrap_or_else(|e| panic!("{e}"))
        })
        .sum()
}

#[test]
fn sweep_small_suite_against_golden_and_seed_timing() {
    // 7 workloads × 3 samples each; a shrunken sweep means the suite or
    // the sampler changed shape and this lockdown needs a fresh look.
    assert_eq!(sweep(SWEEP_SEED, 3), 21);
}

#[test]
fn a_second_seed_also_passes() {
    // One more stream so a knob interaction hiding behind the first
    // seed's draw order still gets a chance to surface.
    assert_eq!(sweep(SWEEP_SEED ^ 0xffff, 2), 14);
}

#[test]
fn sweep_the_analyzers_safe_unsafe_ntasks_boundary() {
    // The static analyzer predicts the minimum deadlock-free queue depth
    // per workload; this sweep simulates exactly at that boundary: the
    // proven-safe side must complete and match golden, admission control
    // must rescue one-below-boundary runs, and the deep spawn chain must
    // actually wedge one-below-boundary when bare. Soundness, rescue and
    // tightness in one pass.
    let checked = boundary_sweep(SWEEP_SEED).unwrap_or_else(|e| panic!("{e}"));
    // 8 programs × safe side + 4 recursive-side checks (mergesort, fib,
    // deeprec×2): shape drift here means the corpus or the analyzer's
    // boundaries moved.
    assert_eq!(checked, 12);
}

#[test]
fn check_sample_accepts_a_known_good_config() {
    let p = Program::suite(saxpy::build(128)).unwrap();
    let sample =
        Sample { steal_latency: Some(4), banks: 4, tiles: 2, ntasks: 32, ..Sample::baseline() };
    check_sample(&p, &sample, None).unwrap();
}

#[test]
fn disabled_sample_exercises_the_seed_twin_comparison() {
    // A features-disabled sample takes the cycle-identity branch: the
    // config built with `.steal()`/`.l1_banks()` left untouched must time
    // exactly like one that never mentions the knobs at all.
    let p = Program::suite(saxpy::build(128)).unwrap();
    let sample = Sample { tiles: 3, ntasks: 16, admission: true, ..Sample::baseline() };
    assert!(sample.features_disabled());
    check_sample(&p, &sample, None).unwrap();
}
