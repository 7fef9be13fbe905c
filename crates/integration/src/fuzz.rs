//! The generated-program source: differential fuzzing over `tapas-gen`
//! task-graph traffic.
//!
//! [`tapas_gen::generate`] turns a 64-bit seed into a race-free-by-
//! construction IR program. A fuzzing campaign is one [`Cell`] per
//! generated program, each sampling the whole engine matrix (see
//! [`Campaign::Fuzz`]) from its own decorrelated stream, and checked by
//! the same oracles, minimizer and repro line as every other campaign.

use crate::{Campaign, Cell, Program, Source};
use tapas_ir::interp::{self, InterpConfig};
use tapas_workloads::rng::SplitMix64;

/// Decompose a campaign of `seeds` generated programs into cells. Each
/// cell's program seed is derived from `base_seed` and its index through
/// an extra SplitMix64 scramble (a constant distinct from the
/// differential and chaos sweeps'), so campaign streams are decorrelated
/// from everything else while staying a pure function of `base_seed`. The
/// sample stream is scrambled away from the generation stream, so the
/// program and its sampled configurations stay independent draws.
pub fn fuzz_cells(base_seed: u64, seeds: usize, configs_per_seed: usize) -> Vec<Cell> {
    (0..seeds as u64)
        .map(|i| {
            let seed =
                SplitMix64::new(base_seed ^ (i + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64();
            Cell {
                campaign: Campaign::Fuzz,
                source: Source::Gen(seed),
                seed: seed ^ 0xd1b5_4a32_d192_ed03,
                samples: configs_per_seed,
            }
        })
        .collect()
}

/// Generate the program for `seed` and establish its ground truth: lint
/// cleanliness and a race-free interpreter golden run (SP-bags armed).
pub(crate) fn generated(seed: u64) -> Result<Program, String> {
    let g = tapas_gen::generate(seed);
    tapas_gen::lint_clean(&g.wl).map_err(|e| format!("seed={seed:#x}: lint: {e}"))?;
    let mut mem = g.wl.mem.clone();
    let icfg = InterpConfig { detect_races: true, ..InterpConfig::default() };
    let out = interp::run(&g.wl.module, g.wl.func, &g.wl.args, &mut mem, &icfg)
        .map_err(|e| format!("seed={seed:#x}: interpreter golden run: {e}"))?;
    if !out.races.is_empty() {
        return Err(format!(
            "seed={seed:#x}: generator emitted a racy program (SP-bags: {:?})",
            out.races
        ));
    }
    let golden = g.wl.output_of(&mem).to_vec();
    Program::new(Source::Gen(seed), g.wl, golden, g.shape.name(), g.descriptor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_repro, replay_repro, ReplayError, Sample, SWEEP_SEED};

    #[test]
    fn cells_are_deterministic_and_decorrelated() {
        let cells = fuzz_cells(0xF0CC_5EED, 8, 4);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells, fuzz_cells(0xF0CC_5EED, 8, 4), "same seed, same cells");
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-cell streams must differ");
        assert_ne!(cells[0].source, fuzz_cells(0xF0CC_5EEE, 8, 4)[0].source);
    }

    #[test]
    fn repro_string_round_trips() {
        let s = Sample {
            steal_latency: Some(3),
            banks: 4,
            tiles: 2,
            ntasks: 32,
            admission: true,
            stepped: true,
            faults: None,
            kill: Some(0xbeef),
            profile: true,
        };
        let line = s.repro(&Source::Gen(0x2a), "gen-nest");
        assert_eq!(parse_repro(&line), Ok((Source::Gen(0x2a), s)));
    }

    #[test]
    fn repro_parser_rejects_malformed_lines() {
        assert!(parse_repro("seed=0x1 nonsense").unwrap_err().contains("not key=value"));
        assert!(parse_repro("seed=0x1 bogus=3").unwrap_err().contains("unknown key"));
        assert!(parse_repro("seed=zz steal=off").unwrap_err().contains("bad value"));
        assert!(parse_repro(
            "seed=0x1 steal=off banks=1 tiles=1 ntasks=8 admission=false \
             engine=warp faults=off kill=off profile=off"
        )
        .unwrap_err()
        .contains("event|stepped"));
        assert!(parse_repro(
            "steal=off banks=1 tiles=1 ntasks=8 admission=false \
             engine=event faults=off kill=off profile=off"
        )
        .unwrap_err()
        .contains("missing seed"));
        // A workload that contradicts what the seed generates is a typo.
        assert!(parse_repro(
            "seed=0x0 workload=gen-nope steal=off banks=1 tiles=1 ntasks=8 \
             admission=false engine=event faults=off kill=off profile=off"
        )
        .unwrap_err()
        .contains("does not match seed"));
        // A line the builder rejects is a typed error, not a panic.
        assert!(matches!(
            replay_repro(
                "seed=0x0 steal=off banks=1 tiles=0 ntasks=8 \
                 admission=false engine=event faults=off kill=off profile=off"
            ),
            Err(ReplayError::Config(e)) if e.contains("config")
        ));
    }

    #[test]
    fn injected_divergence_is_caught_and_minimized_to_a_replayable_line() {
        let cell = fuzz_cells(0xF0CC_5EED, 1, 3).remove(0);
        let mut program = cell.source.load().expect("generated program loads");
        // Sanity: the cell passes clean.
        cell.run(&program, None).expect("clean cell must pass");
        // Stand in for an engine bug: corrupt one bit of the golden output,
        // so every simulated output now disagrees with it.
        program.golden[0] ^= 1;
        let err = cell.run(&program, None).expect_err("the divergence must be caught");
        assert!(err.contains("diverged from interpreter golden model"), "err: {err}");
        let line = err
            .lines()
            .find_map(|l| l.strip_prefix("minimized repro: "))
            .expect("failure must carry a minimized repro line");
        // The minimized line parses, names the cell's program, and — with
        // the real golden output — replays clean (the injected bug is not
        // in the engine).
        let (source, sample) = parse_repro(line).expect("repro line must parse");
        assert_eq!(source, cell.source);
        assert_eq!(sample.kill, None, "minimizer must strip the kill dimension");
        assert_eq!(sample.faults, None, "minimizer must strip the fault dimension");
        replay_repro(line).expect("repro without the injected mutation is clean");
    }

    #[test]
    fn a_small_campaign_passes_across_the_feature_matrix() {
        // Enough cells that the shape and dimension draws are all hit at
        // least once (kill, faults, stepped, admission...).
        for cell in fuzz_cells(SWEEP_SEED, 6, 4) {
            let program = cell.source.load().unwrap_or_else(|e| panic!("{}: {e}", cell.source));
            let checks =
                cell.run(&program, None).unwrap_or_else(|e| panic!("{}: {e}", cell.source));
            assert_eq!(checks, 4);
        }
    }
}
