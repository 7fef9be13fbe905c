//! Every workload must produce interpreter-identical results on the
//! cycle-level accelerator (the central functional claim of the port).

use tapas_dfg::{lower_module, LatencyModel};
use tapas_sim::{Accelerator, AcceleratorConfig};
use tapas_workloads::suite_small;

#[test]
fn all_workloads_match_golden_on_accelerator() {
    for wl in suite_small() {
        let cfg = AcceleratorConfig {
            ntasks: 64,
            mem_bytes: wl.mem.len().max(1024),
            ..AcceleratorConfig::default()
        }
        .with_default_tiles(2);
        let (graphs, dfgs) = lower_module(&wl.module, &LatencyModel::default())
            .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", wl.name));
        let mut acc = Accelerator::elaborate(&wl.module, &graphs, &dfgs, &cfg);
        acc.mem_mut().write_bytes(0, &wl.mem);
        let out =
            acc.run(wl.func, &wl.args).unwrap_or_else(|e| panic!("{}: sim failed: {e}", wl.name));
        let gold = wl.golden_memory();
        assert_eq!(
            acc.mem().read_bytes(wl.output.0, wl.output.1),
            wl.output_of(&gold),
            "{}: accelerator output diverges from golden model",
            wl.name
        );
        assert!(out.cycles > 0, "{}", wl.name);
    }
}
