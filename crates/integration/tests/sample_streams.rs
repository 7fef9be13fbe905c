//! Fingerprint lock for the differential, chaos and fuzzing campaigns'
//! sample streams.
//!
//! A given campaign seed must keep testing the same configurations: the
//! same workloads, cell seeds and, per sample, the same steal, banks,
//! tiles, queue depth, admission, engine core, fault seed, kill salt and
//! profiler draw. This test renders every drawn dimension in a plain
//! text form that depends on no harness type or repro format and pins the
//! FNV-1a 64 hash of the whole rendering, so a refactor of the harness
//! that perturbs any draw (or the RNG consumption between draws) fails
//! here. On mismatch it prints the rendering and the new hash.

use tapas_integration::fuzz::fuzz_cells;
use tapas_integration::{chaos_cells, differential_cells, Sample, Source, SWEEP_SEED};
use tapas_workloads::suite_small;

/// FNV-1a 64 of the rendering of all three campaigns' streams.
const LOCKED_STREAMS: u64 = 0x64fa_7cd3_ecf2_22a1;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One sample, every dimension in a fixed order: steal, banks, tiles,
/// ntasks, admission, stepped core, fault seed, kill salt, profiler.
fn render(out: &mut String, s: &Sample) {
    out.push_str(&format!(
        "  {:?} {} {} {} {} {} {:?} {:?} {}\n",
        s.steal_latency,
        s.banks,
        s.tiles,
        s.ntasks,
        s.admission,
        s.stepped,
        s.faults,
        s.kill,
        s.profile
    ));
}

fn streams() -> String {
    let mut out = String::new();
    let campaigns = [
        ("differential", differential_cells(SWEEP_SEED, 3)),
        ("chaos", chaos_cells(SWEEP_SEED, 2)),
        ("fuzz", fuzz_cells(SWEEP_SEED, 8, 4)),
    ];
    for (campaign, cells) in campaigns {
        for cell in cells {
            let wl = match &cell.source {
                Source::Suite(name) => {
                    out.push_str(&format!("{campaign} {name} {:#x} ", cell.seed));
                    suite_small().into_iter().find(|w| &w.name == name).unwrap()
                }
                Source::Gen(seed) => {
                    out.push_str(&format!("{campaign} {seed:#x} "));
                    tapas_gen::generate(*seed).wl
                }
            };
            out.push_str(&format!("{}\n", cell.samples));
            let report = tapas_analyze::analyze(&wl.module, wl.func, &wl.args).unwrap();
            for s in cell.draw(&report) {
                render(&mut out, &s);
            }
        }
    }
    out
}

#[test]
fn campaign_sample_streams_are_pinned() {
    let text = streams();
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, LOCKED_STREAMS,
        "sample streams changed; if intentional, set LOCKED_STREAMS to {hash:#018x}:\n{text}"
    );
}
