//! Fault-injection acceptance tests: every injected fault is either
//! **masked** (results byte-identical to a fault-free run) or **detected**
//! (the run fails with a typed [`SimError`]) — never silently wrong.

use tapas_dfg::{lower_module, LatencyModel};
use tapas_ir::interp::Val;
use tapas_ir::{CmpPred, FuncId, FunctionBuilder, Module, Type};
use tapas_sim::{
    Accelerator, AcceleratorConfig, Fault, FaultPlan, FaultTolerance, SimError, SimOutcome,
    WaitCause,
};

/// Parallel-for over `n` i32 cells: `a[i] += 1` per detached task.
fn build_pfor_inc(m: &mut Module) -> FuncId {
    let mut b = FunctionBuilder::new("pfor_inc", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
    let header = b.create_block("header");
    let spawn = b.create_block("spawn");
    let task = b.create_block("task");
    let latch = b.create_block("latch");
    let exit = b.create_block("exit");
    let done = b.create_block("done");
    let (a, n) = (b.param(0), b.param(1));
    let zero = b.const_int(Type::I64, 0);
    let one = b.const_int(Type::I64, 1);
    let entry = b.current_block();
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(entry, zero)]);
    let c = b.icmp(CmpPred::Slt, i, n);
    b.cond_br(c, spawn, exit);
    b.switch_to(spawn);
    b.detach(task, latch);
    b.switch_to(task);
    let p = b.gep_index(a, i);
    let v = b.load(p);
    let one32 = b.const_int(Type::I32, 1);
    let v2 = b.add(v, one32);
    b.store(p, v2);
    b.reattach(latch);
    b.switch_to(latch);
    let i2 = b.add(i, one);
    b.add_phi_incoming(i, latch, i2);
    b.br(header);
    b.switch_to(exit);
    b.sync(done);
    b.switch_to(done);
    b.ret(None);
    m.add_function(b.finish())
}

/// Recursive parallel fib via detach + call-bridged recursion.
fn build_parallel_fib(m: &mut Module) -> FuncId {
    let mut b = FunctionBuilder::new("fib", vec![Type::I32, Type::ptr(Type::I32)], Type::I32);
    let rec = b.create_block("rec");
    let base = b.create_block("base");
    let task = b.create_block("task");
    let cont = b.create_block("cont");
    let after = b.create_block("after");
    let (n, out) = (b.param(0), b.param(1));
    let two = b.const_int(Type::I32, 2);
    let c = b.icmp(CmpPred::Slt, n, two);
    b.cond_br(c, base, rec);
    b.switch_to(base);
    b.ret(Some(n));
    b.switch_to(rec);
    b.detach(task, cont);
    b.switch_to(task);
    let one = b.const_int(Type::I32, 1);
    let n1 = b.sub(n, one);
    let one64 = b.const_int(Type::I64, 1);
    let sub_out = b.gep_index(out, one64);
    let r1 = b.call(FuncId(0), vec![n1, sub_out], Type::I32).unwrap();
    b.store(out, r1);
    b.reattach(cont);
    b.switch_to(cont);
    let n2 = b.sub(n, two);
    let k33 = b.const_int(Type::I64, 33);
    let sub_out2 = b.gep_index(out, k33);
    let r2 = b.call(FuncId(0), vec![n2, sub_out2], Type::I32).unwrap();
    b.sync(after);
    b.switch_to(after);
    let r1v = b.load(out);
    let s = b.add(r1v, r2);
    b.ret(Some(s));
    m.add_function(b.finish())
}

const N: u64 = 32;

fn pfor_mem() -> Vec<u8> {
    (0..N as i32).flat_map(|i| i.to_le_bytes()).collect()
}

/// Stages 1–2 with the default latency library, then elaboration.
fn elaborate(m: &Module, cfg: &AcceleratorConfig) -> Accelerator {
    let (graphs, dfgs) = lower_module(m, &LatencyModel::default()).expect("test modules lower");
    Accelerator::elaborate(m, &graphs, &dfgs, cfg)
}

fn run_pfor(cfg: &AcceleratorConfig) -> (Result<SimOutcome, SimError>, Vec<u8>) {
    let mut m = Module::new("faults");
    let f = build_pfor_inc(&mut m);
    let mut acc = elaborate(&m, cfg);
    let init = pfor_mem();
    acc.mem_mut().write_bytes(0, &init);
    let out = acc.run(f, &[Val::Int(0), Val::Int(N)]);
    let mem = acc.mem().read_bytes(0, init.len()).to_vec();
    (out, mem)
}

fn base_cfg() -> AcceleratorConfig {
    AcceleratorConfig::builder().tiles(4).build().unwrap()
}

fn expected_mem() -> Vec<u8> {
    let (out, mem) = run_pfor(&base_cfg());
    out.expect("fault-free run succeeds");
    mem
}

#[test]
fn fault_free_runs_ignore_tolerance_settings() {
    // Arming recovery mechanisms without a fault plan must not perturb
    // timing or results (the fault-free fast path).
    let (a, mem_a) = run_pfor(&base_cfg());
    let strict = AcceleratorConfig::builder()
        .tiles(4)
        .tolerance(FaultTolerance {
            watchdog_timeout: Some(500),
            mem_timeout: 1,
            max_mem_retries: 0,
            ..FaultTolerance::default()
        })
        .build()
        .unwrap();
    let (b, mem_b) = run_pfor(&strict);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(mem_a, mem_b);
    assert_eq!(a.stats.mem_retries, 0);
    assert_eq!(a.stats.faults_injected, 0);
    assert_eq!(a.stats.quarantined_tiles, 0);
}

#[test]
fn same_seed_same_cycles_golden_determinism() {
    let cfg = AcceleratorConfig::builder().tiles(4).faults(FaultPlan::random(3)).build().unwrap();
    let (a, mem_a) = run_pfor(&cfg);
    let (b, mem_b) = run_pfor(&cfg);
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.stats.faults_injected, b.stats.faults_injected);
            assert_eq!(a.stats.mem_retries, b.stats.mem_retries);
            assert_eq!(mem_a, mem_b);
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("nondeterministic outcome: {a:?} vs {b:?}"),
    }
}

#[test]
fn every_random_plan_is_masked_or_detected() {
    let golden = expected_mem();
    for seed in 0..12u64 {
        let plan = FaultPlan::random(seed);
        let cfg = AcceleratorConfig::builder().tiles(4).faults(plan.clone()).build().unwrap();
        let (out, mem) = run_pfor(&cfg);
        match out {
            Ok(out) => {
                assert_eq!(
                    mem, golden,
                    "seed {seed} was silently wrong: plan {plan:?}, stats {:?}",
                    out.stats
                );
            }
            Err(
                SimError::WatchdogTimeout { .. }
                | SimError::MemRetryExhausted { .. }
                | SimError::QueueParity { .. }
                | SimError::AllTilesFailed { .. }
                | SimError::Deadlock { .. }
                | SimError::Memory { .. },
            ) => {} // detected: a typed, attributable failure
            Err(other) => panic!("seed {seed}: untyped failure {other}"),
        }
    }
}

#[test]
fn quarantine_degrades_gracefully_after_a_wedge() {
    let golden = expected_mem();
    // Find the worker unit (the detached task body) so the wedge lands on
    // a 4-tile unit mid-run.
    let mut m = Module::new("faults");
    let f = build_pfor_inc(&mut m);
    let probe = elaborate(&m, &base_cfg());
    let worker =
        probe.unit_names().iter().position(|n| n.contains("task")).expect("worker unit exists");
    let baseline = {
        let (out, _) = run_pfor(&base_cfg());
        out.unwrap().cycles
    };
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::TileWedge { unit: worker, tile: 2, at: baseline / 3 }))
        .build()
        .unwrap();
    let mut acc = elaborate(&m, &cfg);
    let init = pfor_mem();
    acc.mem_mut().write_bytes(0, &init);
    let out = acc.run(f, &[Val::Int(0), Val::Int(N)]).expect("run survives losing one tile");
    let mem = acc.mem().read_bytes(0, init.len()).to_vec();
    assert_eq!(mem, golden, "degraded run must still be correct");
    assert!(out.stats.quarantined_tiles >= 1, "the wedged tile was fenced");
}

#[test]
fn retry_masks_a_dropped_response() {
    let golden = expected_mem();
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::DropResponse { nth: 2 }))
        .build()
        .unwrap();
    let (out, mem) = run_pfor(&cfg);
    let out = out.expect("retry recovers the lost response");
    assert_eq!(mem, golden);
    assert!(out.stats.mem_retries >= 1);
}

#[test]
fn ecc_masks_a_corrupted_response() {
    let golden = expected_mem();
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::CorruptResponse { nth: 1, bit: 5 }))
        .build()
        .unwrap();
    let (out, mem) = run_pfor(&cfg);
    let out = out.expect("ECC discards the flipped word and re-fetches");
    assert_eq!(mem, golden);
    assert!(out.stats.ecc_retries >= 1);
}

#[test]
fn duplicate_and_delayed_responses_are_masked() {
    let golden = expected_mem();
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(
            FaultPlan::new()
                .with(Fault::DuplicateResponse { nth: 1 })
                .with(Fault::DelayResponse { nth: 4, cycles: 50_000 }),
        )
        .build()
        .unwrap();
    let (out, mem) = run_pfor(&cfg);
    let out = out.expect("duplicates and delays are absorbed");
    assert_eq!(mem, golden);
    // The duplicate's second copy — and the delayed original overtaken by
    // its retry — are counted, never delivered.
    assert!(out.stats.spurious_responses >= 1);
}

#[test]
fn watchdog_detects_a_lost_response_when_retry_is_off() {
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::DropResponse { nth: 1 }))
        .tolerance(FaultTolerance {
            mem_retry: false,
            watchdog_timeout: Some(1_000),
            ..FaultTolerance::default()
        })
        .build()
        .unwrap();
    let (out, _) = run_pfor(&cfg);
    match out {
        Err(SimError::WatchdogTimeout { unit, waiting_on: WaitCause::Memory { .. }, .. }) => {
            assert!(unit.contains("pfor_inc"), "watchdog names the unit: {unit}");
        }
        other => panic!("expected a watchdog timeout, got {other:?}"),
    }
}

#[test]
fn exhausted_retries_fail_typed() {
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::DropResponse { nth: 1 }))
        .tolerance(FaultTolerance { max_mem_retries: 0, ..FaultTolerance::default() })
        .build()
        .unwrap();
    let (out, _) = run_pfor(&cfg);
    match out {
        Err(SimError::MemRetryExhausted { attempts, .. }) => assert_eq!(attempts, 0),
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
}

#[test]
fn queue_parity_error_is_detected_at_dispatch() {
    let cfg = AcceleratorConfig::builder()
        .tiles(4)
        .faults(FaultPlan::new().with(Fault::QueueParity { nth_spawn: 1, bit: 7 }))
        .build()
        .unwrap();
    let (out, _) = run_pfor(&cfg);
    match out {
        Err(SimError::QueueParity { unit, .. }) => {
            assert!(unit.contains("pfor_inc"));
        }
        other => panic!("expected a queue parity error, got {other:?}"),
    }
}

#[test]
fn deadlock_diagnosis_reports_the_wait_cycle_and_oldest_task() {
    // A two-entry task queue cannot hold parallel fib's recursion: the
    // queue fills with suspended callers and progress stops.
    let mut m = Module::new("faults");
    let f = build_parallel_fib(&mut m);
    let cfg = AcceleratorConfig::builder().ntasks(2).build().unwrap();
    let mut acc = elaborate(&m, &cfg);
    let err = acc.run(f, &[Val::Int(8), Val::Int(4096)]).unwrap_err();
    match err {
        SimError::Deadlock { diagnosis, .. } => {
            assert!(diagnosis.oldest.is_some(), "oldest blocked task reported");
            assert!(diagnosis.units.iter().any(|u| u.occupancy == u.capacity), "a queue is full");
            let text = diagnosis.to_string();
            assert!(text.contains("fib"), "diagnosis names the unit: {text}");
            assert!(text.contains("full"), "diagnosis flags the full queue: {text}");
        }
        other => panic!("expected a diagnosed deadlock, got {other:?}"),
    }
}
