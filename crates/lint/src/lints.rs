//! Structural parallelism lints: redundant syncs, dead detaches and
//! unguarded recursive spawns.

use std::collections::{HashMap, HashSet};

use tapas_ir::{BlockId, FuncId, Module, Op, Terminator};
use tapas_task::TaskId;

use crate::diag::{Diagnostic, LintReport, RuleCode, Severity};
use crate::effects::{Access, CallSite};
use crate::mhp::window;
use crate::FnCtx;

/// Module call graph with transitive reachability.
pub struct CallGraph {
    reaches: HashMap<FuncId, HashSet<FuncId>>,
}

impl CallGraph {
    /// Build the call graph of a module.
    pub fn build(m: &Module) -> CallGraph {
        let mut direct: HashMap<FuncId, HashSet<FuncId>> = HashMap::new();
        for (fid, f) in m.functions() {
            let entry = direct.entry(fid).or_default();
            for b in f.block_ids() {
                for inst in &f.block(b).insts {
                    if let Op::Call { callee, .. } = inst.op {
                        entry.insert(callee);
                    }
                }
            }
        }
        // Transitive closure (modules are tiny; a fixpoint sweep is fine).
        let mut reaches = direct.clone();
        loop {
            let mut changed = false;
            for fid in direct.keys() {
                let cur: Vec<FuncId> = reaches[fid].iter().copied().collect();
                let mut add = HashSet::new();
                for g in cur {
                    if let Some(next) = reaches.get(&g) {
                        for h in next {
                            if !reaches[fid].contains(h) {
                                add.insert(*h);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    reaches.get_mut(fid).unwrap().extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph { reaches }
    }

    /// Whether `from` can (transitively) call `to`.
    pub fn reaches(&self, from: FuncId, to: FuncId) -> bool {
        self.reaches.get(&from).is_some_and(|s| s.contains(&to))
    }
}

/// Run the structural lints for one function.
pub fn check(
    ctx: &FnCtx<'_>,
    accesses: &[Access],
    calls: &[CallSite],
    cg: &CallGraph,
    report: &mut LintReport,
) {
    redundant_sync(ctx, report);
    dead_detach(ctx, accesses, calls, report);
    unbounded_recursion(ctx, calls, cg, report);
    unbounded_spawn_loop(ctx, cg, report);
}

/// TL0101: a `sync` that no spawned task can still be outstanding at.
///
/// A sync in task `T` is useful only if some detach site of `T` has the
/// sync block inside its parallel window (the sync-free region starting
/// at the detach continuation). Otherwise every child already joined at
/// an earlier sync — or `T` never detached at all.
fn redundant_sync(ctx: &FnCtx<'_>, report: &mut LintReport) {
    for t in ctx.tg.task_ids() {
        let task = ctx.tg.task(t);
        for &b in &task.blocks {
            if !matches!(ctx.f.block(b).term, Terminator::Sync { .. }) {
                continue;
            }
            let useful = task.detach_sites.iter().any(|&(db, _)| {
                let cont = match ctx.f.block(db).term {
                    Terminator::Detach { cont, .. } => cont,
                    _ => return false,
                };
                window(ctx, t, cont, b).reached
            });
            if !useful {
                report.push(Diagnostic {
                    severity: Severity::Warning,
                    rule: RuleCode::RedundantSync,
                    location: ctx.location(b),
                    related: None,
                    message: format!(
                        "sync in {} can never have an outstanding child task; it is a no-op",
                        ctx.block_label(b)
                    ),
                });
            }
        }
    }
}

/// TL0102: a detach whose entire spawned subtree neither stores nor calls
/// — the task has no observable effect and the spawn is pure overhead.
fn dead_detach(ctx: &FnCtx<'_>, accesses: &[Access], calls: &[CallSite], report: &mut LintReport) {
    let effectful: HashSet<BlockId> = accesses
        .iter()
        .filter(|a| a.write)
        .map(|a| a.block)
        .chain(calls.iter().map(|c| c.block))
        .collect();
    for t in ctx.tg.task_ids() {
        for &(db, child) in &ctx.tg.task(t).detach_sites {
            let mut subtree: Vec<TaskId> = vec![child];
            let mut i = 0;
            while i < subtree.len() {
                subtree.extend(ctx.tg.task(subtree[i]).children.iter().copied());
                i += 1;
            }
            let has_effect = subtree
                .iter()
                .flat_map(|&st| ctx.tg.task(st).blocks.iter())
                .any(|b| effectful.contains(b));
            if !has_effect {
                report.push(Diagnostic {
                    severity: Severity::Warning,
                    rule: RuleCode::DeadDetach,
                    location: ctx.location(db),
                    related: None,
                    message: format!(
                        "task {} spawned at {} never stores or calls; the detach is pure overhead",
                        ctx.tg.task(child).name,
                        ctx.block_label(db)
                    ),
                });
            }
        }
    }
}

/// TL0105: a detach inside a natural loop whose body never syncs, where the
/// spawned subtree can re-enter the enclosing function.
///
/// A plain `cilk_for` is fine — its sync sits just outside the loop and the
/// leaf tasks terminate — because each spawned entry retires independently.
/// But when the loop-spawned task *recurses back into the function*, every
/// iteration stacks another activation chain onto the same task units while
/// nothing inside the loop ever joins them: live-task occupancy grows with
/// the trip count times the recursion depth, and no static queue size bounds
/// it. The static analyzer treats flagged functions as occupancy-unbounded
/// (`min_safe_ntasks = none`), so this lint is also a safety input.
fn unbounded_spawn_loop(ctx: &FnCtx<'_>, cg: &CallGraph, report: &mut LintReport) {
    for (db, child, header) in unbounded_spawn_loop_sites(ctx, cg) {
        report.push(Diagnostic {
            severity: Severity::Warning,
            rule: RuleCode::UnboundedSpawnLoop,
            location: ctx.location(db),
            related: None,
            message: format!(
                "loop at {} spawns recursive task {} and never syncs in its body; live tasks grow without bound",
                ctx.block_label(header),
                ctx.tg.task(child).name
            ),
        });
    }
}

/// The TL0105 sites of one function, one per offending detach: the detach
/// block, the task it spawns and the header of the first enclosing loop
/// whose body never syncs.
pub fn unbounded_spawn_loop_sites(
    ctx: &FnCtx<'_>,
    cg: &CallGraph,
) -> Vec<(BlockId, TaskId, BlockId)> {
    let mut sites = Vec::new();
    for t in ctx.tg.task_ids() {
        for &(db, child) in &ctx.tg.task(t).detach_sites {
            let enclosing = ctx.li.containing(db);
            if enclosing.is_empty() {
                continue;
            }
            // The spawned subtree: the child task and its nested tasks.
            let mut subtree: Vec<TaskId> = vec![child];
            let mut i = 0;
            while i < subtree.len() {
                subtree.extend(ctx.tg.task(subtree[i]).children.iter().copied());
                i += 1;
            }
            let reenters = subtree
                .iter()
                .flat_map(|&st| ctx.tg.task(st).blocks.iter())
                .flat_map(|&b| ctx.f.block(b).insts.iter())
                .any(|inst| match inst.op {
                    Op::Call { callee, .. } => callee == ctx.func || cg.reaches(callee, ctx.func),
                    _ => false,
                });
            if !reenters {
                continue;
            }
            let unsynced = enclosing.iter().find(|&&l| {
                !ctx.li.loops[l]
                    .body
                    .iter()
                    .any(|&b| matches!(ctx.f.block(b).term, Terminator::Sync { .. }))
            });
            if let Some(&l) = unsynced {
                sites.push((db, child, ctx.li.loops[l].header));
            }
        }
    }
    sites
}

/// TL0104: a (transitively) recursive call with no conditional branch
/// dominating it — every invocation recurses, so the spawn/call depth is
/// unbounded. The classic `fib`-style base-case guard (a `cond_br` on the
/// path from entry to the call) is what this looks for.
fn unbounded_recursion(
    ctx: &FnCtx<'_>,
    calls: &[CallSite],
    cg: &CallGraph,
    report: &mut LintReport,
) {
    for c in calls {
        let recursive = c.callee == ctx.func || cg.reaches(c.callee, ctx.func);
        if !recursive {
            continue;
        }
        // Walk the immediate-dominator chain strictly above the call
        // block; any cond_br there can cut off the recursion.
        let mut guarded = false;
        let mut cur = c.block;
        while let Some(idom) = ctx.dom.idom(cur) {
            if idom == cur {
                break;
            }
            cur = idom;
            if matches!(ctx.f.block(cur).term, Terminator::CondBr { .. }) {
                guarded = true;
                break;
            }
        }
        if !guarded {
            let callee = ctx.module.function(c.callee).name.clone();
            report.push(Diagnostic {
                severity: Severity::Warning,
                rule: RuleCode::UnboundedRecursion,
                location: ctx.location(c.block),
                related: None,
                message: format!(
                    "recursive call to {callee} in {} is not dominated by any conditional branch; recursion depth is unbounded",
                    ctx.block_label(c.block)
                ),
            });
        }
    }
}
