//! The static analyzer reads lint rule TL0105 (a loop spawns recursive
//! tasks and never syncs in its body) through the narrow pass
//! `tapas_lint::unbounded_spawn_loops`. That pass must flag exactly the
//! functions named by the full linter's TL0105 diagnostics, on every
//! program either one sees: the evaluation suite, the `tapas-lang` source
//! kernels, hand-built positive and negative cases, and generated programs
//! of every shape.

use tapas_ir::{CmpPred, FuncId, FunctionBuilder, Module, Type};
use tapas_lint::{lint_module, unbounded_spawn_loops, LintConfig, RuleCode};
use tapas_workloads::loops::cilk_for;
use tapas_workloads::source;

/// Both passes' flagged function names, sorted, checked equal.
fn flagged(label: &str, m: &Module) -> Vec<String> {
    let graphs = tapas_task::extract_module(m).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut narrow: Vec<String> =
        unbounded_spawn_loops(m, &graphs).iter().map(|&f| m.function(f).name.clone()).collect();
    narrow.sort();
    let report = lint_module(m, &LintConfig::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut full: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == RuleCode::UnboundedSpawnLoop)
        .map(|d| d.location.function.clone())
        .collect();
    full.sort();
    full.dedup();
    assert_eq!(narrow, full, "{label}: the narrow TL0105 pass disagrees with the full lint");
    narrow
}

/// `f(n)`: `if n < 2 return; cilk_for i in 0..n { callee(n - 1) }` — the
/// loop's sync sits after the loop, so when `callee` re-enters `f` the
/// live tasks grow with the trip count.
fn spawn_loop(name: &str, callee: FuncId) -> tapas_ir::Function {
    let mut b = FunctionBuilder::new(name, vec![Type::I64], Type::Void);
    let n = b.param(0);
    let zero = b.const_int(Type::I64, 0);
    let two = b.const_int(Type::I64, 2);
    let base = b.create_block("base");
    let rec = b.create_block("rec");
    let g = b.icmp(CmpPred::Slt, n, two);
    b.cond_br(g, base, rec);
    b.switch_to(base);
    b.ret(None);
    b.switch_to(rec);
    cilk_for(&mut b, zero, n, |b, _i| {
        let one = b.const_int(Type::I64, 1);
        let n1 = b.sub(n, one);
        b.call(callee, vec![n1], Type::Void);
    });
    b.ret(None);
    b.finish()
}

/// `name(n)`: `if n < 1 return; callee(n - 1)` — serial, no spawn.
fn relay(name: &str, callee: Option<FuncId>) -> tapas_ir::Function {
    let mut b = FunctionBuilder::new(name, vec![Type::I64], Type::Void);
    let n = b.param(0);
    let one = b.const_int(Type::I64, 1);
    let base = b.create_block("base");
    let rec = b.create_block("rec");
    let g = b.icmp(CmpPred::Slt, n, one);
    b.cond_br(g, base, rec);
    b.switch_to(base);
    b.ret(None);
    b.switch_to(rec);
    if let Some(callee) = callee {
        let n1 = b.sub(n, one);
        b.call(callee, vec![n1], Type::Void);
    }
    b.ret(None);
    b.finish()
}

#[test]
fn narrow_pass_matches_the_full_lint_on_hand_built_cases() {
    // Direct recursion from the spawn loop: flagged.
    let mut m = Module::new("direct");
    m.add_function(spawn_loop("f", FuncId(0)));
    assert_eq!(flagged("direct", &m), ["f"]);

    // Re-entry through a serial relay: the spawning function is flagged,
    // the relay (no loop, no spawn) is not.
    let mut m = Module::new("mutual");
    m.add_function(spawn_loop("f", FuncId(1)));
    m.add_function(relay("g", Some(FuncId(0))));
    assert_eq!(flagged("mutual", &m), ["f"]);

    // The loop spawns a leaf: nothing re-enters, nothing is flagged.
    let mut m = Module::new("leaf");
    m.add_function(spawn_loop("f", FuncId(1)));
    m.add_function(relay("leaf", None));
    assert!(flagged("leaf", &m).is_empty());
}

#[test]
fn narrow_pass_matches_the_full_lint_on_the_suites() {
    for wl in tapas_workloads::suite_eval() {
        flagged(&wl.name, &wl.module);
    }
    for src in [source::SAXPY_SRC, source::MATRIX_ADD_SRC, source::STENCIL_SRC, source::FIB_SRC] {
        let m = tapas_lang::compile(src).expect("source kernel compiles");
        flagged(&m.name, &m);
    }
}

#[test]
fn narrow_pass_matches_the_full_lint_on_generated_programs() {
    let mut shapes = Vec::new();
    for seed in 0..320u64 {
        let g = tapas_gen::generate(seed);
        flagged(&format!("seed {seed} ({})", g.shape.name()), &g.wl.module);
        if !shapes.contains(&g.shape) {
            shapes.push(g.shape);
        }
    }
    assert_eq!(shapes.len(), tapas_gen::Shape::all().len(), "every shape was drawn");
}
