use tapas_dfg::{lower_module, LatencyModel};
use tapas_res::*;
use tapas_workloads::scale_micro;

#[test]
#[ignore]
fn dump() {
    for (tiles, adders, paper) in
        [(1usize, 1u32, 1314u64), (1, 50, 2955), (10, 1, 7107), (10, 50, 24738)]
    {
        let wl = scale_micro::build(64, adders);
        let (graphs, dfgs) = lower_module(&wl.module, &LatencyModel::default()).unwrap();
        let d = DesignInfo::new(&wl.module, &graphs, &dfgs, 32, 16 * 1024, |n| {
            if n.contains("task") {
                tiles
            } else {
                1
            }
        });
        let e = estimate(&d, Board::CycloneV);
        let b = breakdown(&d);
        println!(
            "{tiles}T/{adders}I: model {} paper {paper} | tiles {} pfor {} ctrl {} mem {} misc {}",
            e.alms, b.tiles, b.parallel_for, b.task_ctrl, b.mem_arb, b.misc
        );
    }
}
