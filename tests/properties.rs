//! Randomized (but fully deterministic) tests over the toolchain's core
//! invariants, driven by the internal `tapas_workloads::rng` PRNG so no
//! external property-testing framework is needed:
//!
//! * random straight-line arithmetic programs produce identical results on
//!   the interpreter and the cycle-level accelerator;
//! * the accelerator sorts arbitrary arrays (mergesort) and matches the
//!   host oracle on arbitrary workload parameters;
//! * the memory system's functional contents always equal a flat-memory
//!   shadow under arbitrary access sequences;
//! * the task-extraction invariants (block ownership partition, argument
//!   threading) hold on randomly-shaped loop nests.

use tapas::ir::interp::{self, Val};
use tapas::ir::{BinOp, CmpPred, FunctionBuilder, Module, Type};
use tapas::{AcceleratorConfig, Toolchain};
use tapas_mem::{CacheConfig, DramConfig, MemOpKind, MemReq, MemSystem, ReqId};
use tapas_workloads::rng::SplitMix64;

/// A little DSL of straight-line integer ops for random program generation.
#[derive(Debug, Clone)]
enum RandOp {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Xor(usize, usize),
    Shl(usize, u8),
    CmpSelect(usize, usize),
}

fn rand_op(r: &mut SplitMix64) -> RandOp {
    let a = r.next_below(8) as usize;
    let b = r.next_below(8) as usize;
    match r.next_below(6) {
        0 => RandOp::Add(a, b),
        1 => RandOp::Sub(a, b),
        2 => RandOp::Mul(a, b),
        3 => RandOp::Xor(a, b),
        4 => RandOp::Shl(a, r.next_below(31) as u8),
        _ => RandOp::CmpSelect(a, b),
    }
}

fn rand_ops(r: &mut SplitMix64, min: u64, max: u64) -> Vec<RandOp> {
    let len = min + r.next_below(max - min);
    (0..len).map(|_| rand_op(r)).collect()
}

/// Build a function computing a chain of random ops over two params plus
/// memory traffic: loads seed the value pool, the result is stored + returned.
fn build_random_program(ops: &[RandOp]) -> (Module, tapas::ir::FuncId) {
    let mut b =
        FunctionBuilder::new("rand", vec![Type::ptr(Type::I32), Type::I32, Type::I32], Type::I32);
    let (p, x, y) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_int(Type::I64, 0);
    let one64 = b.const_int(Type::I64, 1);
    let p0 = b.gep_index(p, zero);
    let p1 = b.gep_index(p, one64);
    let m0 = b.load(p0);
    let m1 = b.load(p1);
    let mut pool = vec![x, y, m0, m1];
    for op in ops {
        let pick = |i: usize, pool: &Vec<_>| pool[i % pool.len()];
        let v = match op {
            RandOp::Add(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                b.add(l, r)
            }
            RandOp::Sub(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                b.sub(l, r)
            }
            RandOp::Mul(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                b.mul(l, r)
            }
            RandOp::Xor(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                b.bin(BinOp::Xor, l, r)
            }
            RandOp::Shl(a, s) => {
                let l = pick(*a, &pool);
                let sh = b.const_int(Type::I32, i64::from(*s % 31));
                b.shl(l, sh)
            }
            RandOp::CmpSelect(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                let cond = b.icmp(CmpPred::Slt, l, r);
                b.select(cond, l, r)
            }
        };
        pool.push(v);
    }
    let result = *pool.last().unwrap();
    b.store(p0, result);
    b.ret(Some(result));
    let mut m = Module::new("rand");
    let f = m.add_function(b.finish());
    (m, f)
}

/// Evaluate the random-op DSL directly in Rust (oracle for roundtrips).
fn oracle_eval(ops: &[RandOp], x: i32, y: i32, m0: i32, m1: i32) -> i32 {
    let mut pool: Vec<i32> = vec![x, y, m0, m1];
    for op in ops {
        let pick = |i: usize, pool: &Vec<i32>| pool[i % pool.len()];
        let v = match op {
            RandOp::Add(a, c) => pick(*a, &pool).wrapping_add(pick(*c, &pool)),
            RandOp::Sub(a, c) => pick(*a, &pool).wrapping_sub(pick(*c, &pool)),
            RandOp::Mul(a, c) => pick(*a, &pool).wrapping_mul(pick(*c, &pool)),
            RandOp::Xor(a, c) => pick(*a, &pool) ^ pick(*c, &pool),
            RandOp::Shl(a, s) => pick(*a, &pool).wrapping_shl(u32::from(*s % 31)),
            RandOp::CmpSelect(a, c) => {
                let (l, r) = (pick(*a, &pool), pick(*c, &pool));
                if l < r {
                    l
                } else {
                    r
                }
            }
        };
        pool.push(v);
    }
    *pool.last().unwrap()
}

#[test]
fn random_straightline_program_sim_equals_interp() {
    let mut r = SplitMix64::new(0x5eed_0001);
    for _ in 0..48 {
        let ops = rand_ops(&mut r, 1, 24);
        let (x, y, m0, m1) = (r.next_i32(), r.next_i32(), r.next_i32(), r.next_i32());
        let (module, f) = build_random_program(&ops);
        tapas::ir::verify_module(&module).unwrap();
        let mut mem = Vec::new();
        mem.extend_from_slice(&m0.to_le_bytes());
        mem.extend_from_slice(&m1.to_le_bytes());
        let args = [Val::Int(0), Val::Int(x as u32 as u64), Val::Int(y as u32 as u64)];

        let mut gold_mem = mem.clone();
        let gold = interp::run(&module, f, &args, &mut gold_mem, &interp::InterpConfig::default())
            .unwrap();

        let design = Toolchain::new().compile(&module).unwrap();
        let cfg = AcceleratorConfig { mem_bytes: 4096, ..AcceleratorConfig::default() };
        let mut acc = design.instantiate(&cfg).unwrap();
        acc.mem_mut().write_bytes(0, &mem);
        let out = acc.run(f, &args).unwrap();

        assert_eq!(out.ret, gold.ret, "ops: {ops:?}");
        assert_eq!(acc.mem().read_bytes(0, 8), &gold_mem[..], "ops: {ops:?}");
    }
}

#[test]
fn stall_attribution_balances_on_random_programs() {
    use tapas::ProfileLevel;
    let mut r = SplitMix64::new(0x5eed_0009);
    for round in 0..24 {
        let ops = rand_ops(&mut r, 1, 24);
        let (module, f) = build_random_program(&ops);
        let (x, y) = (r.next_i32(), r.next_i32());
        let args = [Val::Int(0), Val::Int(x as u32 as u64), Val::Int(y as u32 as u64)];
        let design = Toolchain::new().compile(&module).unwrap();
        let cfg = tapas::AcceleratorConfig::builder()
            .mem_bytes(4096)
            .profile(ProfileLevel::Full)
            .build()
            .unwrap();
        let mut acc = design.instantiate(&cfg).unwrap();
        acc.mem_mut().write_bytes(0, &[0u8; 8]);
        let out = acc.run(f, &args).unwrap();
        let p = out.profile.expect("profiling was on");
        p.check_invariant().unwrap_or_else(|e| panic!("round {round}, ops {ops:?}: {e}"));
        assert_eq!(p.cycles, out.cycles, "round {round}");
        assert_eq!(
            p.attributed_cycles(),
            p.cycles * p.tile_count() as u64,
            "round {round}: every tile-cycle charged exactly once"
        );
    }
}

#[test]
fn accelerator_sorts_arbitrary_arrays() {
    let mut r = SplitMix64::new(0x5eed_0002);
    for _ in 0..12 {
        let n = 2 + r.next_below(62);
        let seed = r.next_u64();
        let wl = tapas_workloads::mergesort::build(n, seed);
        let design = Toolchain::new().compile(&wl.module).unwrap();
        let cfg = AcceleratorConfig {
            ntasks: 256,
            mem_bytes: wl.mem.len().max(4096),
            ..AcceleratorConfig::default()
        }
        .with_default_tiles(2);
        let mut acc = design.instantiate(&cfg).unwrap();
        acc.mem_mut().write_bytes(0, &wl.mem);
        acc.run(wl.func, &wl.args).unwrap();
        let want = tapas_workloads::mergesort::expected(n, seed);
        assert_eq!(
            acc.mem().read_bytes(wl.output.0, wl.output.1),
            want.as_slice(),
            "n={n} seed={seed}"
        );
    }
}

#[test]
fn dedup_oracle_holds_for_arbitrary_shapes() {
    let mut r = SplitMix64::new(0x5eed_0003);
    for _ in 0..24 {
        let nchunks = 1 + r.next_below(31);
        let chunk_len = 4 + r.next_below(20);
        let wl = tapas_workloads::dedup::build(nchunks, chunk_len);
        let mem = wl.golden_memory();
        let want = tapas_workloads::dedup::expected(nchunks, chunk_len);
        assert_eq!(wl.output_of(&mem), want.as_slice(), "nchunks={nchunks} chunk_len={chunk_len}");
    }
}

#[test]
fn memory_system_matches_flat_shadow() {
    let mut r = SplitMix64::new(0x5eed_0004);
    for _ in 0..32 {
        let len = 1 + r.next_below(63);
        let accesses: Vec<(u64, bool, u32)> =
            (0..len).map(|_| (r.next_below(64), r.chance(1, 2), r.next_u64() as u32)).collect();
        let mut ms = MemSystem::new(256, CacheConfig::default(), DramConfig::default());
        let mut shadow = vec![0u8; 256];
        let mut now = 0u64;
        for (i, (slot, is_write, data)) in accesses.iter().enumerate() {
            let addr = slot * 4;
            let kind = if *is_write { MemOpKind::Write } else { MemOpKind::Read };
            let req = MemReq {
                id: ReqId(i as u64),
                port: 0,
                addr,
                size: 4,
                kind,
                wdata: u64::from(*data),
            };
            // retry until the cache accepts
            let done = loop {
                match ms.issue(req, now).expect("well-formed request") {
                    Some(d) => break d,
                    None => now += 1,
                }
            };
            if *is_write {
                shadow[addr as usize..addr as usize + 4].copy_from_slice(&data.to_le_bytes());
            } else {
                let got =
                    ms.pop_ready(done).into_iter().find(|r| r.id == req.id).expect("response");
                let want = u32::from_le_bytes(
                    shadow[addr as usize..addr as usize + 4].try_into().unwrap(),
                );
                assert_eq!(got.rdata as u32, want);
            }
            now = done;
        }
        assert_eq!(ms.read_bytes(0, ms.size()), &shadow[..]);
    }
}

#[test]
fn scale_micro_oracle_for_any_parameters() {
    let mut r = SplitMix64::new(0x5eed_0005);
    for _ in 0..24 {
        let n = 1 + r.next_below(127);
        let adders = 1 + r.next_below(39) as u32;
        let wl = tapas_workloads::scale_micro::build(n, adders);
        let mem = wl.golden_memory();
        let want = tapas_workloads::scale_micro::expected(n, adders);
        assert_eq!(wl.output_of(&mem), want.as_slice(), "n={n} adders={adders}");
    }
}

#[test]
fn task_extraction_partitions_blocks() {
    for depth in 1usize..4 {
        // loop nests of varying depth: every block owned exactly once.
        let mut b = FunctionBuilder::new("nest", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
        let (p, n) = (b.param(0), b.param(1));
        fn emit_level(
            b: &mut FunctionBuilder,
            p: tapas::ir::ValueId,
            n: tapas::ir::ValueId,
            level: usize,
        ) {
            let zero = b.const_int(Type::I64, 0);
            tapas_workloads::loops::cilk_for(b, zero, n, |b, i| {
                if level > 1 {
                    emit_level(b, p, n, level - 1);
                } else {
                    let q = b.gep_index(p, i);
                    let v = b.load(q);
                    let one = b.const_int(Type::I32, 1);
                    let v2 = b.add(v, one);
                    b.store(q, v2);
                }
            });
        }
        emit_level(&mut b, p, n, depth);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        tapas::ir::verify_module(&m).unwrap();
        let tg = tapas::task::extract_tasks(&m, f).unwrap();
        assert_eq!(tg.num_tasks(), depth + 1);
        let func = m.function(f);
        let owned: usize = tg.task_ids().map(|t| tg.task(t).blocks.len()).sum();
        assert_eq!(owned, func.num_blocks());
        // deepest task carries the pointer through every level
        let deepest = tg.task(tapas::task::TaskId(depth as u32));
        assert!(deepest.args.len() >= 2);
    }
}

#[test]
fn random_program_survives_text_roundtrip_and_optimizer() {
    use tapas::ir::{opt, printer, text};
    let mut r = SplitMix64::new(0x5eed_0006);
    for _ in 0..48 {
        let ops = rand_ops(&mut r, 1, 16);
        let (x, y, m0, m1) = (r.next_i32(), r.next_i32(), r.next_i32(), r.next_i32());
        let (module, _) = build_random_program(&ops);
        let expected = oracle_eval(&ops, x, y, m0, m1);
        let args = [Val::Int(0), Val::Int(x as u32 as u64), Val::Int(y as u32 as u64)];
        let mut mem = Vec::new();
        mem.extend_from_slice(&m0.to_le_bytes());
        mem.extend_from_slice(&m1.to_le_bytes());

        // 1) text roundtrip
        let m2 = text::parse_module(&printer::print_module(&module)).unwrap();
        tapas::ir::verify_module(&m2).unwrap();
        // 2) optimize the roundtripped module
        let mut m3 = m2.clone();
        opt::optimize_module(&mut m3);
        tapas::ir::verify_module(&m3).unwrap();

        for m in [&m2, &m3] {
            let f = m.function_by_name("rand").unwrap();
            let mut mm = mem.clone();
            let out = interp::run(m, f, &args, &mut mm, &interp::InterpConfig::default()).unwrap();
            assert_eq!(out.ret, Some(Val::Int(expected as u32 as u64)), "ops: {ops:?}");
        }
    }
}

#[test]
fn frontend_expressions_match_oracle() {
    let mut r = SplitMix64::new(0x5eed_0007);
    for _ in 0..48 {
        let a = r.next_in_range(-1000, 999);
        let b = r.next_in_range(1, 999);
        let c = r.next_in_range(-1000, 999);
        // compile a source-level expression and compare with native eval
        let src = "fn f(a: i64, b: i64, c: i64) -> i64 {
                 return (a + b) * c - a / b + (c % b);
             }";
        let m = tapas::lang::compile(src).unwrap();
        let f = m.function_by_name("f").unwrap();
        let mut mem = Vec::new();
        let out = interp::run(
            &m,
            f,
            &[Val::Int(a as u64), Val::Int(b as u64), Val::Int(c as u64)],
            &mut mem,
            &interp::InterpConfig::default(),
        )
        .unwrap();
        let expected = (a.wrapping_add(b))
            .wrapping_mul(c)
            .wrapping_sub(a.wrapping_div(b))
            .wrapping_add(c.wrapping_rem(b));
        assert_eq!(out.ret, Some(Val::Int(expected as u64)), "a={a} b={b} c={c}");
    }
}

#[test]
fn elision_preserves_random_parallel_increments() {
    use tapas::ir::transform;
    let mut r = SplitMix64::new(0x5eed_0008);
    for _ in 0..8 {
        let n = 1 + r.next_below(47);
        let wl = tapas_workloads::scale_micro::build(n, 7);
        let mut m = wl.module.clone();
        let f = m.function_by_name("scale").unwrap();
        let count = transform::elide_detaches(&mut m, f, None);
        assert_eq!(count, 1);
        tapas::ir::verify_module(&m).unwrap();
        let mut mem = wl.mem.clone();
        interp::run(&m, f, &wl.args, &mut mem, &interp::InterpConfig::default()).unwrap();
        let want = tapas_workloads::scale_micro::expected(n, 7);
        assert_eq!(wl.output_of(&mem), want.as_slice(), "n={n}");
    }
}
