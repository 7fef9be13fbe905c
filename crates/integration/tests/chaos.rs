//! Kill-and-resume chaos gate: a run interrupted at an arbitrary cycle and
//! resumed from its crash-consistent snapshot must be byte-identical — in
//! cycles, stats, profile and memory — to the run never interrupted, under
//! every engine feature (steal, banked L1, admission control, fault
//! injection, profiler), both through the in-memory halt hook and through
//! the on-disk snapshot ladder with injected corruption.

use std::path::PathBuf;

use tapas::dfg::LatencyModel;
use tapas::{AcceleratorConfig, AdmissionControl, SimError, StealConfig, Toolchain};
use tapas_integration::{check_sample, Campaign, Cell, Program, Sample, Source, Verdict};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::{suite_small, BuiltWorkload};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tapas-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.snap", std::process::id()))
}

fn base_cfg(wl: &BuiltWorkload) -> AcceleratorConfig {
    AcceleratorConfig::builder()
        .tiles(2)
        .ntasks(512) // deep enough for the recursive workloads without admission
        .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
        .build()
        .unwrap()
}

/// A kill sample: `tiles` on every unit, a queue deep enough for the
/// recursive workloads without admission control.
fn kill_sample(tiles: usize, salt: u64) -> Sample {
    Sample { tiles, ntasks: 512, kill: Some(salt), ..Sample::baseline() }
}

#[test]
fn kill_and_resume_is_identity_across_the_suite() {
    let mut rng = SplitMix64::new(0x000C_4A05_C4A0);
    for wl in suite_small() {
        let p = Program::suite(wl).unwrap();
        for _ in 0..2 {
            let v = check_sample(&p, &kill_sample(2, rng.next_u64()), None)
                .unwrap_or_else(|e| panic!("{}: {e}", p.wl.name));
            assert!(
                matches!(v, Verdict::Matched(Some(k)) if k > 0),
                "{}: golden run long enough to kill",
                p.wl.name
            );
        }
    }
}

#[test]
fn kill_and_resume_covers_steal_banks_admission_and_profiler() {
    let mut rng = SplitMix64::new(0xFEED_F00D);
    for wl in suite_small() {
        // Everything on at once: stealing, 4 L1 banks, a queue small
        // enough that admission control actually spills, profiler armed.
        let p = Program::suite(wl).unwrap();
        let sample = Sample {
            steal_latency: Some(2),
            banks: 4,
            tiles: 3,
            ntasks: 4,
            admission: true,
            profile: true,
            kill: Some(rng.next_u64()),
            ..Sample::baseline()
        };
        check_sample(&p, &sample, None).unwrap_or_else(|e| panic!("{}: {e}", p.wl.name));
    }
}

#[test]
fn kill_and_resume_is_identity_under_masked_fault_plans() {
    // Fault-armed runs either complete with golden output (masked) or fail
    // with a typed error (detected). The identity contract applies to the
    // masked ones; detected plans are covered by the deadlock test below.
    let p = Program::suite(tapas_workloads::matrix_add::build(16)).unwrap();
    let mut verified = 0usize;
    for seed in 0..8u64 {
        let sample = Sample {
            tiles: 4,
            ntasks: AcceleratorConfig::default().ntasks,
            faults: Some(seed),
            kill: Some(0x5EED ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ..Sample::baseline()
        };
        match check_sample(&p, &sample, None) {
            Ok(Verdict::Matched(_)) => verified += 1,
            Ok(Verdict::Detected) => {}
            Err(e) => panic!("fault seed {seed}: {e}"),
        }
    }
    assert!(verified >= 2, "expected several masked plans, got {verified}");
}

#[test]
fn resume_reproduces_a_deadlock_detected_after_the_kill_point() {
    // deeprec under a starved queue without admission control wedges; a
    // run killed *before* the deadlock and resumed must rediscover the
    // exact same diagnosis at the exact same cycle.
    let wl = tapas_workloads::deeprec::build(40);
    let cfg = AcceleratorConfig::builder()
        .ntasks(8)
        .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
        .build()
        .unwrap();
    let design = Toolchain::new().compile(&wl.module).unwrap();

    let mut acc = design.instantiate(&cfg).unwrap();
    acc.mem_mut().write_bytes(0, &wl.mem);
    let golden_err = match acc.run(wl.func, &wl.args) {
        Err(e @ SimError::Deadlock { .. }) => e,
        other => panic!("expected a deadlock, got {other:?}"),
    };
    let at = match &golden_err {
        SimError::Deadlock { at, .. } => *at,
        _ => unreachable!(),
    };

    let mut killed_cfg = cfg.clone();
    killed_cfg.halt_at_cycle = Some(at / 2);
    let mut victim = design.instantiate(&killed_cfg).unwrap();
    victim.mem_mut().write_bytes(0, &wl.mem);
    assert!(matches!(victim.run(wl.func, &wl.args), Err(SimError::Halted { .. })));
    let snap = victim.take_halt_snapshot().unwrap();

    let mut resumed = design.instantiate(&cfg).unwrap();
    resumed.mem_mut().write_bytes(0, &wl.mem);
    let err = resumed.resume(&snap).unwrap_err();
    assert_eq!(err.to_string(), golden_err.to_string(), "same diagnosis, same cycle");
}

#[test]
fn resume_from_inside_a_spawn_stall_window_is_identity() {
    // saxpy with a 4-entry queue: the loop's detach is refused whenever the
    // body queue is full, so the spawning tile parks and the event core
    // skips the windows in which it only waits for a slot. A halt asked for
    // inside such a window fires at the window's end; the resume from that
    // snapshot (which does not carry the park) must reach the uninterrupted
    // outcome exactly, `engine_events` and `skipped_cycles` included.
    let wl = tapas_workloads::saxpy::build(128);
    let cfg = AcceleratorConfig::builder()
        .tiles(2)
        .ntasks(4)
        .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
        .build()
        .unwrap();
    let design = Toolchain::new().compile(&wl.module).unwrap();
    let mut acc = design.instantiate(&cfg).unwrap();
    acc.mem_mut().write_bytes(0, &wl.mem);
    let golden = acc.run(wl.func, &wl.args).unwrap();
    let stalls: u64 = golden.stats.units.iter().map(|u| u.spawn_stalls).sum();
    assert!(stalls > golden.cycles / 2, "the spawner is refused most of the run");
    assert!(golden.stats.skipped_cycles > 0);

    let mut inside = 0;
    for halt in (golden.cycles / 4..golden.cycles * 3 / 4).step_by(41) {
        let mut killed = cfg.clone();
        killed.halt_at_cycle = Some(halt);
        let mut victim = design.instantiate(&killed).unwrap();
        victim.mem_mut().write_bytes(0, &wl.mem);
        assert!(matches!(victim.run(wl.func, &wl.args), Err(SimError::Halted { .. })));
        let snap = victim.take_halt_snapshot().unwrap();
        if snap.cycle > halt {
            inside += 1; // the halt landed inside a skipped window
        }
        let snap = tapas::sim::snapshot::EngineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut resumed = design.instantiate(&cfg).unwrap();
        resumed.mem_mut().write_bytes(0, &wl.mem);
        assert_eq!(resumed.resume(&snap).unwrap(), golden, "halt at {halt}");
    }
    assert!(inside > 0, "no halt fell inside a skipped stall window");
}

#[test]
fn disk_snapshots_resume_through_the_corruption_fallback_ladder() {
    let wl = tapas_workloads::mergesort::build(96, 12345);
    let path = tmp("ladder");
    let prev = tapas::sim::snapshot::prev_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);

    let base = AcceleratorConfig::builder()
        .tiles(2)
        .ntasks(64)
        .steal(StealConfig { latency: 2 })
        .admission(AdmissionControl::default())
        .mem_bytes(wl.mem.len().next_power_of_two().max(1 << 20))
        .build()
        .unwrap();
    let design = Toolchain::new().compile(&wl.module).unwrap();

    let mut acc = design.instantiate(&base).unwrap();
    acc.mem_mut().write_bytes(0, &wl.mem);
    let golden = acc.run(wl.func, &wl.args).unwrap();
    let golden_out = acc.mem().read_bytes(wl.output.0, wl.output.1).to_vec();

    // Kill at two-thirds with periodic snapshots every 25 cycles: the dir
    // ends up with a current snapshot and a `.prev` rotation.
    let mut killed = base.clone();
    killed.snapshot = Some(tapas::SnapshotConfig { every: 25, path: path.clone() });
    killed.halt_at_cycle = Some(golden.cycles * 2 / 3);
    let mut victim = design.instantiate(&killed).unwrap();
    victim.mem_mut().write_bytes(0, &wl.mem);
    assert!(matches!(victim.run(wl.func, &wl.args), Err(SimError::Halted { .. })));
    assert!(path.exists() && prev.exists(), "periodic snapshots rotated");

    let resume_from_disk = |expect_notes: usize| {
        let (snap, notes) = tapas::sim::snapshot::load_latest(&path);
        assert_eq!(notes.len(), expect_notes, "{notes:?}");
        let snap = snap.expect("a valid rung remains");
        let mut acc = design.instantiate(&base).unwrap();
        acc.mem_mut().write_bytes(0, &wl.mem);
        let out = acc.resume(&snap).unwrap();
        assert_eq!(out, golden);
        assert_eq!(acc.mem().read_bytes(wl.output.0, wl.output.1), &golden_out[..]);
        snap.cycle
    };

    // Rung 1: the current snapshot restores and completes identically.
    let newest = resume_from_disk(0);

    // Corrupt the current snapshot mid-file: the ladder falls back to
    // `.prev`, which is an *older* capture and still resumes to identity.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xa5;
    std::fs::write(&path, &bytes).unwrap();
    let older = resume_from_disk(1);
    assert!(older < newest, "fallback rung is an earlier capture");

    // Corrupt `.prev` too: no rung survives and the run degrades to a
    // fresh start from cycle 0 — detected, never silently wrong.
    let mut bytes = std::fs::read(&prev).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xa5;
    std::fs::write(&prev, &bytes).unwrap();
    let (snap, notes) = tapas::sim::snapshot::load_latest(&path);
    assert!(snap.is_none());
    assert_eq!(notes.len(), 2);
    let mut acc = design.instantiate(&base).unwrap();
    acc.mem_mut().write_bytes(0, &wl.mem);
    let out = acc.run(wl.func, &wl.args).unwrap();
    assert_eq!(out, golden);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn a_snapshot_from_a_different_design_is_rejected() {
    let a = tapas_workloads::saxpy::build(128);
    let b = tapas_workloads::matrix_add::build(16);
    let design_a = Toolchain::new().compile(&a.module).unwrap();
    let design_b = Toolchain::new().compile(&b.module).unwrap();

    let mut cfg = base_cfg(&a);
    cfg.halt_at_cycle = Some(40);
    let mut victim = design_a.instantiate(&cfg).unwrap();
    victim.mem_mut().write_bytes(0, &a.mem);
    assert!(matches!(victim.run(a.func, &a.args), Err(SimError::Halted { .. })));
    let snap = victim.take_halt_snapshot().unwrap();

    let mut other = design_b.instantiate(&base_cfg(&b)).unwrap();
    let err = other.resume(&snap).unwrap_err();
    match err {
        SimError::Snapshot(msg) => assert!(msg.contains("fingerprint"), "{msg}"),
        other => panic!("expected a snapshot rejection, got {other:?}"),
    }
}

#[test]
fn a_snapshot_from_a_design_with_other_latencies_is_rejected() {
    // Same program and configuration; only the toolchain's latency model
    // differs, so only the dataflow nodes' latencies tell the designs apart.
    let wl = tapas_workloads::saxpy::build(128);
    let slow = LatencyModel { int_simple: 2, gep: 3, fp_add: 9, fp_mul: 7, ..Default::default() };
    let design_slow = Toolchain::with_latencies(slow).compile(&wl.module).unwrap();
    let design = Toolchain::new().compile(&wl.module).unwrap();

    let mut cfg = base_cfg(&wl);
    cfg.halt_at_cycle = Some(40);
    let mut victim = design_slow.instantiate(&cfg).unwrap();
    victim.mem_mut().write_bytes(0, &wl.mem);
    assert!(matches!(victim.run(wl.func, &wl.args), Err(SimError::Halted { .. })));
    let snap = victim.take_halt_snapshot().unwrap();

    let mut other = design.instantiate(&base_cfg(&wl)).unwrap();
    match other.resume(&snap) {
        Err(SimError::Snapshot(msg)) => assert!(msg.contains("fingerprint"), "{msg}"),
        other => panic!("expected a snapshot rejection, got {other:?}"),
    }
}

fn run(cell: &Cell, snapshot: Option<(&std::path::Path, u64)>) -> Result<usize, String> {
    cell.run(&cell.source.load()?, snapshot)
}

#[test]
fn chaos_cells_honor_an_on_disk_snapshot_assignment() {
    // The executor path: `--snapshot-every N` hands the cell a stable
    // snapshot path; every trial's killed run writes the ladder there and
    // the disk resume is verified too. The harness cleans up after itself.
    let path = tmp("cell-assignment");
    let prev = tapas::sim::snapshot::prev_path(&path);
    let source = Source::Suite("mergesort".to_string());
    let cell = Cell { campaign: Campaign::Chaos, source, seed: 11, samples: 1 };
    assert_eq!(run(&cell, Some((&path, 20))), Ok(1));
    assert!(!path.exists() && !prev.exists(), "trial snapshots removed after verification");
}

#[test]
fn chaos_cells_shard_the_sweep() {
    // One real trial per workload through the cell API the sweep executor
    // (and the bench `chaos` experiment) drives.
    for cell in tapas_integration::chaos_cells(0x0BAD_C0DE, 1) {
        assert_eq!(run(&cell, None), Ok(1), "{}", cell.source);
    }
    // Trials scale the verified count.
    let source = Source::Suite("saxpy".to_string());
    let cell = Cell { campaign: Campaign::Chaos, source, seed: 7, samples: 2 };
    assert_eq!(run(&cell, None), Ok(2));
}

/// FNV-1a 64 over a whole snapshot file image.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snapshot_bytes_are_pinned() {
    // Format lock: the halt snapshot of a loop kernel (tiles mid-block,
    // live dataflow contexts) and of fib (sync-parked contexts carrying
    // their environments) must encode to exactly these bytes. A change to
    // how execution contexts are held in the engine may not move them.
    // The memory image is its length plus its non-zero 4 KiB pages, and
    // each cache lists only the line slots that differ from an empty line.
    // The payload (the file between its 36-byte header and 8-byte
    // checksum) is pinned on its own: a change to what the header's
    // design fingerprint covers moves the whole-file hash, never this.
    let cases = [
        (
            tapas_workloads::saxpy::build(128),
            200u64,
            17_494usize,
            0xbe26_4f52_93d9_d100u64,
            0x5936_166b_5539_52ecu64,
        ),
        (
            tapas_workloads::fib::build(10),
            300,
            34_020,
            0x0560_4dba_138e_f43c,
            0x68e4_c080_5be2_47f6,
        ),
    ];
    for (wl, halt, want_len, want_fnv, want_payload_fnv) in cases {
        let design = Toolchain::new().compile(&wl.module).unwrap();
        let mut cfg = base_cfg(&wl);
        cfg.halt_at_cycle = Some(halt);
        let mut victim = design.instantiate(&cfg).unwrap();
        victim.mem_mut().write_bytes(0, &wl.mem);
        assert!(matches!(victim.run(wl.func, &wl.args), Err(SimError::Halted { .. })));
        let bytes = victim.take_halt_snapshot().unwrap().to_bytes();
        let payload = &bytes[36..bytes.len() - 8];
        assert_eq!(
            (payload.len(), fnv64(payload)),
            (want_len - 44, want_payload_fnv),
            "{} payload",
            wl.name
        );
        assert_eq!((bytes.len(), fnv64(&bytes)), (want_len, want_fnv), "{}", wl.name);
        if wl.name == "saxpy" {
            // The file costs what the run touched, not the memory it was
            // given.
            assert_eq!(cfg.mem_bytes, 1 << 20);
            assert!(bytes.len() < 64 << 10, "saxpy snapshot is {} bytes", bytes.len());
        }
    }
}
