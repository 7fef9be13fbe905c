//! Where does every tile-cycle go? Run the full benchmark suite with
//! cycle attribution on and print each design's stall breakdown and
//! bottleneck verdict.
//!
//! Run with `cargo run --release --example profile`.

use tapas::{AcceleratorConfig, ProfileLevel, StallReason, Toolchain};
use tapas_workloads::suite_small;

fn main() {
    for wl in suite_small() {
        // Recursive benchmarks, as the static analyzer sees them, spread
        // tiles across every unit (the recursion is the worker); loop
        // benchmarks concentrate them on the body task.
        let recursive = tapas::analyze::analyze(&wl.module, wl.func, &wl.args)
            .expect("suite workloads are analyzable")
            .recursive;
        let ntasks = if recursive { 512 } else { 32 };
        let base = AcceleratorConfig::builder()
            .ntasks(ntasks)
            .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
            .profile(ProfileLevel::Full)
            .build()
            .expect("valid configuration");
        let cfg = if recursive {
            base.with_default_tiles(4)
        } else {
            base.with_tiles(&wl.worker_task, 4)
        };

        let design = Toolchain::new().compile(&wl.module).expect("compiles");
        let mut acc = design.instantiate(&cfg).expect("elaborates");
        acc.mem_mut().write_bytes(0, &wl.mem);
        let out = acc.run(wl.func, &wl.args).expect("runs");
        let profile = out.profile.expect("profiling was enabled");
        profile.check_invariant().expect("the books balance");
        let report = profile.bottleneck();

        println!(
            "{:<12} {:>8} cycles  {:<14} (compute {:>2.0}%  memory {:>2.0}%  spawn {:>2.0}%)",
            wl.name,
            out.cycles,
            report.class.label(),
            report.compute_frac * 100.0,
            report.memory_frac * 100.0,
            report.spawn_frac * 100.0,
        );
        let tile_cycles = profile.cycles * profile.tile_count() as u64;
        for reason in StallReason::ALL {
            let cycles = profile.stall_total(reason);
            if cycles == 0 {
                continue;
            }
            let pct = 100.0 * cycles as f64 / tile_cycles as f64;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("    {:<18} {:>5.1}% {}", reason.label(), pct, bar);
        }
        println!();
    }
}
