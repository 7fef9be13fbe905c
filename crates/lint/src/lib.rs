#![warn(missing_docs)]

//! # tapas-lint — static determinacy-race detection and parallelism lints
//!
//! Analyzes a verified Tapir module plus its extracted task graphs and
//! reports, per function:
//!
//! | code | rule |
//! |---|---|
//! | `TL0001` | determinacy race: parallel accesses may overlap |
//! | `TL0002` | possible race: parallel accesses the analysis cannot resolve |
//! | `TL0101` | redundant `sync` (no child can be outstanding) |
//! | `TL0102` | dead `detach` (spawned subtree has no effect) |
//! | `TL0103` | continuation uses a spawned task's output before `sync` |
//! | `TL0104` | unguarded (transitively) recursive call |
//! | `TL0105` | loop spawns recursive tasks and never syncs in its body |
//!
//! The race detector builds a static series-parallel relation from the
//! `detach`/`sync` structure, models access addresses as affine forms
//! over recognized loop induction variables, and proves per-scenario
//! disjointness (see [`race`] module docs inside the crate). A dynamic
//! SP-bags oracle in `tapas-ir`'s interpreter cross-validates it in this
//! crate's integration tests.

pub mod affine;
pub mod diag;
pub mod loops;

mod effects;
mod lints;
mod mhp;
mod race;

pub use diag::{Diagnostic, LintReport, RuleCode, Severity};

use tapas_ir::analysis::{Cfg, Dominators};
use tapas_ir::{BlockId, FuncId, Function, Module};
use tapas_task::TaskGraph;

/// Analysis configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Treat distinct pointer parameters as non-aliasing (restrict-style,
    /// matching the offload calling convention where each parameter is a
    /// separate buffer).
    pub assume_noalias_params: bool,
    /// Also report pairs the analysis cannot resolve (opaque addresses,
    /// call effects). Default mode stays silent on them, per the
    /// compositional Cilk contract that every function is race-free in
    /// isolation.
    pub strict: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig { assume_noalias_params: true, strict: false }
    }
}

/// Everything the per-function passes need, computed once.
pub(crate) struct FnCtx<'a> {
    pub module: &'a Module,
    pub func: FuncId,
    pub f: &'a Function,
    pub tg: &'a TaskGraph,
    pub cfg: Cfg,
    pub dom: Dominators,
    pub li: loops::LoopInfo,
}

impl<'a> FnCtx<'a> {
    fn new(module: &'a Module, tg: &'a TaskGraph) -> FnCtx<'a> {
        let f = module.function(tg.func);
        let cfg = Cfg::compute(f);
        let dom = Dominators::compute(f, &cfg);
        let li = loops::find_loops(f, &cfg, &dom);
        FnCtx { module, func: tg.func, f, tg, cfg, dom, li }
    }

    /// Human-readable label of a block (`name` or `bbN`).
    pub fn block_label(&self, b: BlockId) -> String {
        match &self.f.block(b).name {
            Some(n) => n.clone(),
            None => format!("bb{}", b.0),
        }
    }

    /// Diagnostic location for a block.
    pub fn location(&self, b: BlockId) -> diag::Location {
        diag::Location {
            function: self.f.name.clone(),
            block: Some(self.block_label(b)),
            task: Some(self.tg.task(self.tg.owner(b)).name.clone()),
        }
    }
}

/// Lint every function of a module.
///
/// Verifies the module and extracts its task graphs first (via
/// [`tapas_task::extract_module`]); a malformed module is an error, not a
/// diagnostic — the lints assume structurally valid Tapir.
pub fn lint_module(module: &Module, cfg: &LintConfig) -> Result<LintReport, tapas_task::TaskError> {
    let graphs = tapas_task::extract_module(module)?;
    let cg = lints::CallGraph::build(module);
    let mut report = LintReport::default();
    for tg in &graphs {
        let ctx = FnCtx::new(module, tg);
        let (accesses, calls) = effects::collect(&ctx);
        race::check(&ctx, cfg, &accesses, &calls, &mut report);
        lints::check(&ctx, &accesses, &calls, &cg, &mut report);
    }
    report.sort();
    Ok(report)
}

/// The functions rule `TL0105` flags, over task graphs already extracted
/// from `module`: exactly the functions of [`lint_module`]'s `TL0105`
/// diagnostics, without running the race detector or the other lints.
/// The static analyzer reads only this rule.
pub fn unbounded_spawn_loops(module: &Module, graphs: &[TaskGraph]) -> Vec<FuncId> {
    let cg = lints::CallGraph::build(module);
    graphs
        .iter()
        .filter(|tg| tg.task_ids().any(|t| !tg.task(t).detach_sites.is_empty()))
        .filter(|tg| !lints::unbounded_spawn_loop_sites(&FnCtx::new(module, tg), &cg).is_empty())
        .map(|tg| tg.func)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapas_ir::{CmpPred, FunctionBuilder, Type};
    use tapas_workloads::loops::cilk_for;

    fn lint(m: &Module, strict: bool) -> LintReport {
        lint_module(m, &LintConfig { strict, ..LintConfig::default() }).expect("well-formed")
    }

    /// cilk_for writing a[i]: the canonical clean parallel loop.
    fn clean_pfor() -> Module {
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
        let (a, n) = (b.param(0), b.param(1));
        let zero = b.const_int(Type::I64, 0);
        cilk_for(&mut b, zero, n, |b, i| {
            let p = b.gep_index(a, i);
            let v = b.const_int(Type::I32, 1);
            b.store(p, v);
        });
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn clean_parallel_loop_has_no_diagnostics() {
        let m = clean_pfor();
        let r = lint(&m, false);
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }

    #[test]
    fn parallel_writes_to_same_slot_race() {
        // cilk_for i in 0..n { a[0] = i } — every instance hits slot 0.
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I64), Type::I64], Type::Void);
        let (a, n) = (b.param(0), b.param(1));
        let zero = b.const_int(Type::I64, 0);
        cilk_for(&mut b, zero, n, |b, i| {
            let p = b.gep_index(a, zero);
            b.store(p, i);
        });
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::DeterminacyRace),
            "expected TL0001:\n{r}"
        );
    }

    #[test]
    fn adjacent_slot_overlap_races_but_strided_does_not() {
        // stores a[2i] and a[2i+1]: instances disjoint (stride 16 > span).
        let build = |extra_off: i64| {
            let mut b =
                FunctionBuilder::new("k", vec![Type::ptr(Type::I64), Type::I64], Type::Void);
            let (a, n) = (b.param(0), b.param(1));
            let zero = b.const_int(Type::I64, 0);
            cilk_for(&mut b, zero, n, |b, i| {
                let two = b.const_int(Type::I64, 2);
                let off = b.const_int(Type::I64, extra_off);
                let d = b.mul(i, two);
                let d2 = b.add(d, off);
                let p1 = b.gep_index(a, d);
                let p2 = b.gep_index(a, d2);
                b.store(p1, i);
                b.store(p2, i);
            });
            b.ret(None);
            let mut m = Module::new("m");
            m.add_function(b.finish());
            m
        };
        assert!(lint(&build(1), false).is_clean(), "a[2i], a[2i+1] is race-free");
        let racy = lint(&build(2), false);
        assert!(
            racy.diagnostics.iter().any(|d| d.rule == RuleCode::DeterminacyRace),
            "a[2i], a[2i+2] overlaps the next instance:\n{racy}"
        );
    }

    #[test]
    fn unsynced_continuation_read_is_tl0103() {
        // detach { a[0] = 1 }; read a[0] before the sync.
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I64)], Type::I64);
        let a = b.param(0);
        let task = b.create_block("task");
        let cont = b.create_block("cont");
        let done = b.create_block("done");
        let one = b.const_int(Type::I64, 1);
        let zero = b.const_int(Type::I64, 0);
        b.detach(task, cont);
        b.switch_to(task);
        let p = b.gep_index(a, zero);
        b.store(p, one);
        b.reattach(cont);
        b.switch_to(cont);
        let p2 = b.gep_index(a, zero);
        let v = b.load(p2);
        b.sync(done);
        b.switch_to(done);
        b.ret(Some(v));
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::UnsyncedContinuationUse),
            "expected TL0103:\n{r}"
        );
    }

    #[test]
    fn sync_without_detach_is_redundant() {
        let mut b = FunctionBuilder::new("k", vec![], Type::Void);
        let done = b.create_block("done");
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::RedundantSync),
            "expected TL0101:\n{r}"
        );
    }

    #[test]
    fn sync_after_sync_is_redundant() {
        // detach; sync; sync — second sync has no possible outstanding child.
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I64)], Type::Void);
        let a = b.param(0);
        let task = b.create_block("task");
        let cont = b.create_block("cont");
        let mid = b.create_block("mid");
        let done = b.create_block("done");
        let one = b.const_int(Type::I64, 1);
        let zero = b.const_int(Type::I64, 0);
        b.detach(task, cont);
        b.switch_to(task);
        let p = b.gep_index(a, zero);
        b.store(p, one);
        b.reattach(cont);
        b.switch_to(cont);
        b.sync(mid);
        b.switch_to(mid);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let r = lint(&m, false);
        let redundant: Vec<_> =
            r.diagnostics.iter().filter(|d| d.rule == RuleCode::RedundantSync).collect();
        assert_eq!(redundant.len(), 1, "only the second sync is redundant:\n{r}");
        assert_eq!(redundant[0].location.block.as_deref(), Some("mid"));
    }

    #[test]
    fn effect_free_task_is_dead_detach() {
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I64)], Type::Void);
        let a = b.param(0);
        let task = b.create_block("task");
        let cont = b.create_block("cont");
        let done = b.create_block("done");
        let zero = b.const_int(Type::I64, 0);
        b.detach(task, cont);
        b.switch_to(task);
        let p = b.gep_index(a, zero);
        let _ = b.load(p);
        b.reattach(cont);
        b.switch_to(cont);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::DeadDetach),
            "expected TL0102:\n{r}"
        );
    }

    #[test]
    fn unguarded_recursion_flagged_guarded_not() {
        // loopy() { loopy() } — unbounded. fib-style guarded recursion is
        // fine. The self-call id is known up front: first function is 0.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("loopy", vec![], Type::Void);
        let fid_guess = tapas_ir::FuncId(0);
        b.call(fid_guess, vec![], Type::Void);
        b.ret(None);
        let fid = m.add_function(b.finish());
        assert_eq!(fid, fid_guess);
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::UnboundedRecursion),
            "expected TL0104:\n{r}"
        );

        // Guarded: if (n < 2) return; f(n - 1);
        let mut m2 = Module::new("m2");
        let mut b = FunctionBuilder::new("g", vec![Type::I64], Type::Void);
        let n = b.param(0);
        let base = b.create_block("base");
        let rec = b.create_block("rec");
        let two = b.const_int(Type::I64, 2);
        let one = b.const_int(Type::I64, 1);
        let c = b.icmp(CmpPred::Slt, n, two);
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(None);
        b.switch_to(rec);
        let n1 = b.sub(n, one);
        b.call(tapas_ir::FuncId(0), vec![n1], Type::Void);
        b.ret(None);
        let gid = m2.add_function(b.finish());
        assert_eq!(gid, tapas_ir::FuncId(0));
        let r2 = lint(&m2, false);
        assert!(
            !r2.diagnostics.iter().any(|d| d.rule == RuleCode::UnboundedRecursion),
            "guarded recursion must not be flagged:\n{r2}"
        );
    }

    #[test]
    fn spawn_loop_without_sync_flagged_cilk_for_not() {
        // for (i = 0; i < n; i++) { spawn f(n) } with the sync only after
        // the loop — each spawned task re-enters f, so live tasks pile up
        // with no bound: TL0105.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
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
            b.call(tapas_ir::FuncId(0), vec![n1], Type::Void);
        });
        b.ret(None);
        let fid = m.add_function(b.finish());
        assert_eq!(fid, tapas_ir::FuncId(0));
        let r = lint(&m, false);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == RuleCode::UnboundedSpawnLoop),
            "expected TL0105:\n{r}"
        );
        let graphs = tapas_task::extract_module(&m).unwrap();
        assert_eq!(unbounded_spawn_loops(&m, &graphs), [fid], "the narrow pass agrees");

        // The canonical clean cilk_for spawns leaf tasks: not flagged.
        let m2 = clean_pfor();
        let r2 = lint(&m2, false);
        assert!(
            !r2.diagnostics.iter().any(|d| d.rule == RuleCode::UnboundedSpawnLoop),
            "leaf spawn loop must not be flagged:\n{r2}"
        );
        let graphs = tapas_task::extract_module(&m2).unwrap();
        assert!(unbounded_spawn_loops(&m2, &graphs).is_empty(), "the narrow pass agrees");
    }

    #[test]
    fn strict_mode_surfaces_parallel_calls() {
        // detach { call g() }; call g() in the continuation before sync.
        let mut m = Module::new("m");
        let mut gb = FunctionBuilder::new("g", vec![Type::ptr(Type::I64)], Type::Void);
        let a = gb.param(0);
        let zero = gb.const_int(Type::I64, 0);
        let one = gb.const_int(Type::I64, 1);
        let p = gb.gep_index(a, zero);
        gb.store(p, one);
        gb.ret(None);
        let gid = m.add_function(gb.finish());

        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I64)], Type::Void);
        let ap = b.param(0);
        let task = b.create_block("task");
        let cont = b.create_block("cont");
        let done = b.create_block("done");
        b.detach(task, cont);
        b.switch_to(task);
        b.call(gid, vec![ap], Type::Void);
        b.reattach(cont);
        b.switch_to(cont);
        b.call(gid, vec![ap], Type::Void);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        m.add_function(b.finish());

        assert_eq!(lint(&m, false).races().count(), 0, "default mode trusts composition");
        let strict = lint(&m, true);
        assert!(
            strict.diagnostics.iter().any(|d| d.rule == RuleCode::PossibleRace),
            "strict mode surfaces the parallel calls:\n{strict}"
        );
    }
}
