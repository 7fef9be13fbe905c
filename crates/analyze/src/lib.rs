//! Static work/span and task-occupancy analysis over the TAPAS IR.
//!
//! `tapas-analyze` answers, before any cycle of simulation runs, the three
//! questions a designer otherwise answers by trial: *how much parallelism is
//! in this program* (work/span intervals and the Brent's-law speedup ceiling
//! they imply), *how many task slots does it need to be deadlock-free*
//! (live-task occupancy bounds per task unit, giving a proven-safe minimum
//! `ntasks`), and *what will it be bound by* (a predicted bottleneck class
//! cross-checked against the dynamic profiler).
//!
//! Every quantity is an interval [`Bound`] whose defining contract is
//! checked against the interpreter's exact counters by the cross-validation
//! suite: `lo <= measured <= hi` on every corpus program. Where the program
//! escapes the analyzable fragment — irreducible control flow, data-dependent
//! trip counts, unrecognized recursion — bounds widen to `[·, ∞)` and safety
//! verdicts fail closed ("not provably safe"), never the reverse.
//!
//! The occupancy model matches the simulator's queue topology: each static
//! task has a dedicated unit with `ntasks` slots, a spawning activation
//! blocks until its child's unit accepts the entry, and entries are only
//! retired at `sync`. Under an adversarial schedule *every* activation of a
//! recursion tree can be simultaneously live — blocked parents and sibling
//! subtrees pile onto the queues breadth-first, so the safe bound per unit
//! is the whole worst-case tree node count, not the depth of one blocking
//! chain (the differential harness's boundary sweep demonstrates mergesort
//! wedging at roughly three times its recursion depth). With admission
//! control armed the runtime spills instead of blocking, so every
//! configuration is safe by construction.

#![warn(missing_docs)]

pub mod bound;
mod paths;
mod recursion;
mod symx;

pub use bound::Bound;

use paths::{path_bounds, BaseMetric, Mode};
use std::collections::BTreeMap;
use tapas_ir::interp::Val;
use tapas_ir::{FuncId, Module, Op, Terminator};
use tapas_task::{extract_module, TaskGraph};

/// Analysis failure (malformed module or task extraction error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError(pub String);

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analysis failed: {}", self.0)
    }
}

impl std::error::Error for AnalyzeError {}

/// Predicted limiting resource for a program on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Dominated by arithmetic in tile pipelines.
    Compute,
    /// Dominated by memory traffic.
    Memory,
    /// Dominated by task spawn/steal overhead (fine-grained tasks).
    Spawn,
}

impl Bottleneck {
    /// Stable label, aligned with the dynamic profiler's bottleneck classes.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute-bound",
            Bottleneck::Memory => "memory-bound",
            Bottleneck::Spawn => "spawn-bound",
        }
    }
}

/// Static summary of one function, in terms of a single outermost call with
/// the propagated entry arguments.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Executed non-terminator instructions (the interpreter's `insts`).
    pub work: Bound,
    /// Critical-path length under unlimited parallelism.
    pub span: Bound,
    /// Executed loads and stores.
    pub mem_ops: Bound,
    /// Executed `detach`es.
    pub spawns: Bound,
    /// Peak activation/region nesting depth contributed by one call.
    pub chain: Bound,
    /// Whether the function is (mutually) recursive.
    pub recursive: bool,
    /// Whether lint TL0105 (unsynced spawn loop) fired here.
    pub spawn_loop: bool,
    /// Whether the function spawns from a loop that also runs a serial
    /// stage per iteration — the task-pipeline shape.
    pub pipeline: bool,
    /// Per task unit: peak simultaneously-live queue entries under any
    /// schedule (the quantity `ntasks` must cover), including units of
    /// transitive callees. For recursion this is the whole tree, not one
    /// chain — sibling subtrees hold entries concurrently.
    pub unit_chain: Vec<(String, Bound)>,
}

/// Whole-program analysis result for one entry point and argument vector.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Entry function name.
    pub entry: String,
    /// Total executed instructions (T₁).
    pub work: Bound,
    /// Critical path (T∞).
    pub span: Bound,
    /// Executed loads and stores.
    pub mem_ops: Bound,
    /// Executed `detach`es.
    pub spawns: Bound,
    /// Peak live activation/region nesting (the interpreter's peak depth).
    pub peak_tasks: Bound,
    /// Smallest per-unit `ntasks` proven deadlock-free without admission
    /// control; `None` when occupancy is not statically bounded.
    pub min_safe_ntasks: Option<u64>,
    /// Whether any reachable function is recursive.
    pub recursive: bool,
    /// Whether lint TL0105 fired on any reachable function.
    pub spawn_loop_flagged: bool,
    /// Whether any reachable function has the task-pipeline shape (spawns
    /// interleaved with a serial stage in one loop).
    pub pipeline: bool,
    /// Predicted limiting resource.
    pub predicted: Bottleneck,
    /// Per-function summaries, entry-reachable only, callees first.
    pub functions: Vec<FnSummary>,
    /// Per task unit occupancy bounds (from the entry's transitive summary).
    pub unit_bounds: Vec<(String, Bound)>,
}

/// Verdict of [`AnalysisReport::check_config`].
#[derive(Debug, Clone)]
pub struct ConfigVerdict {
    /// Whether the configuration is statically proven deadlock-free.
    pub safe: bool,
    /// Human-readable justification.
    pub reason: String,
}

impl AnalysisReport {
    /// Statically judge a `(ntasks, admission)` configuration: `safe` means
    /// *proven* deadlock-free; `!safe` means "not provably safe" (and for
    /// recursion deeper than the queues, reliably wedged).
    pub fn check_config(&self, ntasks: u64, admission_armed: bool) -> ConfigVerdict {
        if admission_armed {
            return ConfigVerdict {
                safe: true,
                reason:
                    "admission control spills instead of blocking; no spawn chain can wedge a queue"
                        .into(),
            };
        }
        if self.spawn_loop_flagged {
            return ConfigVerdict {
                safe: false,
                reason: "TL0105: a spawn loop with no dominating sync can outgrow any static queue bound".into(),
            };
        }
        match self.min_safe_ntasks {
            None => ConfigVerdict {
                safe: false,
                reason: "live-task occupancy has no static bound; arm admission control".into(),
            },
            Some(need) if ntasks >= need => ConfigVerdict {
                safe: true,
                reason: format!("peak per-unit occupancy ≤ {need} ≤ ntasks = {ntasks}"),
            },
            Some(need) => ConfigVerdict {
                safe: false,
                reason: format!(
                    "live tasks can hold {need} entries on one unit but ntasks = {ntasks}"
                ),
            },
        }
    }

    /// Brent's-law ceiling on speedup with `tiles` workers:
    /// `min(tiles, T₁ / T∞)` using the optimistic ends of both intervals.
    pub fn speedup_ceiling(&self, tiles: u64) -> f64 {
        let par = self.parallelism();
        (tiles as f64).min(par)
    }

    /// Inherent parallelism `T₁ / T∞` (upper estimate).
    pub fn parallelism(&self) -> f64 {
        let t1 = self.work.rep().max(1) as f64;
        let tinf = self.span.lo.max(1) as f64;
        t1 / tinf
    }

    /// Look up one unit's occupancy bound.
    pub fn unit_bound(&self, name: &str) -> Option<Bound> {
        self.unit_bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
    }
}

/// Analyze `entry` invoked with `args` (the workload's invocation vector).
///
/// Float arguments participate in no integer guard or trip count on a
/// verified module, so only integer bits are consulted.
pub fn analyze(m: &Module, entry: FuncId, args: &[Val]) -> Result<AnalysisReport, AnalyzeError> {
    let graphs = extract_module(m).map_err(|e| AnalyzeError(e.to_string()))?;
    analyze_prepared(m, &graphs, entry, args)
}

/// [`analyze`] for callers that already hold the extracted task graphs (the
/// compilation façade), avoiding repeated extraction.
pub fn analyze_prepared(
    m: &Module,
    graphs: &[TaskGraph],
    entry: FuncId,
    args: &[Val],
) -> Result<AnalysisReport, AnalyzeError> {
    let nf = m.num_functions();
    let ei = entry.0 as usize;
    if ei >= nf {
        return Err(AnalyzeError(format!("no function {ei} in module")));
    }
    let tg_of = |fi: usize| -> &TaskGraph {
        graphs
            .iter()
            .find(|g| g.func.0 as usize == fi)
            .expect("extract_module covers every function")
    };
    let flagged = tapas_lint::unbounded_spawn_loops(m, graphs);

    // Call edges and pairwise reachability over them.
    let callees: Vec<Vec<usize>> = (0..nf)
        .map(|fi| {
            let f = m.function(FuncId(fi as u32));
            let mut cs: Vec<usize> = f
                .block_ids()
                .flat_map(|b| f.block(b).insts.iter())
                .filter_map(|i| match &i.op {
                    Op::Call { callee, .. } => Some(callee.0 as usize),
                    _ => None,
                })
                .collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        })
        .collect();
    let reaches = |from: usize, to: usize| -> bool {
        let mut seen = vec![false; nf];
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for &v in &callees[u] {
                if v == to {
                    return true;
                }
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    };

    // Entry-argument propagation: Some(vec) = one known tuple, None = mixed
    // or unknown. Monotone widening (known → unknown), so it terminates.
    let mut known_args: Vec<Option<Option<Vec<i64>>>> = vec![None; nf];
    known_args[ei] = Some(Some(
        args.iter()
            .map(|v| match v {
                Val::Int(u) => *u as i64,
                _ => 0, // never consulted by an integer expression
            })
            .collect(),
    ));
    let mut wl = vec![ei];
    while let Some(fi) = wl.pop() {
        let f = m.function(FuncId(fi as u32));
        let fargs = known_args[fi].clone().flatten();
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                let Op::Call { callee, args: cargs } = &inst.op else { continue };
                let gi = callee.0 as usize;
                if gi == fi {
                    continue;
                }
                let val: Option<Vec<i64>> = fargs
                    .as_ref()
                    .and_then(|fa| cargs.iter().map(|a| symx::sx_of(f, *a).eval(fa)).collect());
                let next = match &known_args[gi] {
                    None => Some(val),
                    Some(prev) if *prev == val => None,
                    Some(None) => None, // already widened; terminal
                    Some(Some(_)) => Some(None),
                };
                if let Some(next) = next {
                    known_args[gi] = Some(next);
                    wl.push(gi);
                }
            }
        }
    }

    // Bottom-up over the condensation: process a function once every callee
    // outside its own cycle is summarized.
    let mut sums: Vec<Option<FnSummary>> = (0..nf).map(|_| None).collect();
    let mut remaining: Vec<usize> = (0..nf).collect();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&fi| {
                callees[fi]
                    .iter()
                    .all(|&g| g == fi || sums[g].is_some() || (reaches(g, fi) && reaches(fi, g)))
            })
            .expect("condensation of a finite call graph always has a sink");
        let fi = remaining.swap_remove(pick);
        let self_rec = callees[fi].contains(&fi);
        let in_multi_scc = callees[fi].iter().any(|&g| g != fi && reaches(g, fi) && reaches(fi, g));
        let fargs = known_args[fi].clone().flatten();
        let spawn_loop = flagged.contains(&FuncId(fi as u32));
        let s = if in_multi_scc {
            multi_scc_summary(m, fi, tg_of(fi), &sums, fargs.as_deref(), spawn_loop)
        } else if self_rec {
            recursive_summary(m, fi, tg_of(fi), &sums, fargs.as_deref(), spawn_loop)
        } else {
            plain_summary(m, fi, tg_of(fi), &sums, fargs.as_deref(), spawn_loop)
        };
        sums[fi] = Some(s);
    }

    let es = sums[ei].clone().expect("entry summarized");
    let reachable: Vec<usize> = (0..nf).filter(|&g| g == ei || reaches(ei, g)).collect();
    let spawn_loop_flagged =
        reachable.iter().any(|&g| sums[g].as_ref().is_some_and(|s| s.spawn_loop));
    let recursive = reachable.iter().any(|&g| sums[g].as_ref().is_some_and(|s| s.recursive));
    let pipeline = reachable.iter().any(|&g| sums[g].as_ref().is_some_and(|s| s.pipeline));
    let min_safe_ntasks = if spawn_loop_flagged {
        None
    } else if es.unit_chain.is_empty() {
        Some(1)
    } else {
        es.unit_chain
            .iter()
            .map(|(_, b)| b.hi)
            .collect::<Option<Vec<u64>>>()
            .map(|hs| hs.into_iter().max().unwrap_or(1).max(1))
    };
    let predicted = predict_bottleneck(es.work, es.mem_ops, es.spawns, recursive || pipeline);
    let functions = reachable.iter().filter_map(|&g| sums[g].clone()).collect::<Vec<_>>();
    Ok(AnalysisReport {
        entry: es.name.clone(),
        work: es.work,
        span: es.span,
        mem_ops: es.mem_ops,
        spawns: es.spawns,
        peak_tasks: es.chain,
        min_safe_ntasks,
        recursive,
        spawn_loop_flagged,
        pipeline,
        predicted,
        unit_bounds: es.unit_chain.clone(),
        functions,
    })
}

/// Classify from static structure and densities. Spawn *chains* — recursion
/// trees and serial-stage pipelines — put the task machinery on the critical
/// path regardless of arithmetic density, so they dominate; after that,
/// memory-op-dense programs are memory-bound and the rest keep the tiles
/// busy with arithmetic. An ultra-fine grain (fewer than 8 instructions per
/// spawn) is spawn-bound even without a chain: the spawn interface cannot
/// issue faster than the tasks retire. The thresholds are calibrated against
/// the cycle-level profiler's verdicts (`reproduce analyze` cross-checks
/// them per benchmark).
fn predict_bottleneck(work: Bound, mem: Bound, spawns: Bound, spawn_chain: bool) -> Bottleneck {
    let w = work.rep().max(1);
    let s = spawns.rep();
    let may_spawn = spawns.hi != Some(0);
    if may_spawn && (spawn_chain || (s > 0 && w / s < 8)) {
        return Bottleneck::Spawn;
    }
    if mem.rep().saturating_mul(5) >= w {
        return Bottleneck::Memory;
    }
    Bottleneck::Compute
}

/// Whether `f` spawns tasks from a loop that also runs a non-trivial serial
/// stage per iteration — the task-pipeline shape (dedup's ordered probe
/// loop): the spawning task itself computes between detaches, so spawn
/// machinery and the serial stage sit on the critical path together. A
/// plain `cilk_for` does not qualify — its spawner owns only the induction
/// update, about three instructions per iteration.
fn pipeline_spawner(f: &tapas_ir::Function, tg: &TaskGraph) -> bool {
    use tapas_ir::analysis::{Cfg, Dominators};
    const SERIAL_STAGE_INSTS: usize = 8;
    let cfg = Cfg::compute(f);
    let dom = Dominators::compute(f, &cfg);
    for b in f.block_ids() {
        for &h in cfg.succs(b) {
            if !dom.dominates(h, b) {
                continue; // not a back edge
            }
            // Natural loop of the back edge b -> h.
            let mut body = vec![h];
            let mut stack = vec![b];
            while let Some(u) = stack.pop() {
                if body.contains(&u) {
                    continue;
                }
                body.push(u);
                stack.extend(cfg.preds(u).iter().copied());
            }
            for &db in &body {
                if !matches!(f.block(db).term, Terminator::Detach { .. }) {
                    continue;
                }
                let owner = tg.owner(db);
                let serial: usize = body
                    .iter()
                    .filter(|&&x| tg.owner(x) == owner)
                    .map(|&x| f.block(x).insts.len())
                    .sum();
                if serial > SERIAL_STAGE_INSTS {
                    return true;
                }
            }
        }
    }
    false
}

/// Nodes in a recursion tree of depth `d` with branching factor `b`:
/// `d` for a chain, else the saturating geometric sum `1 + b + … + b^(d-1)`.
fn geometric_nodes(b: u64, d: u64) -> u64 {
    if b <= 1 {
        return d.max(1);
    }
    let mut acc: u64 = 0;
    for _ in 0..d {
        acc = acc.saturating_mul(b).saturating_add(1);
        if acc == u64::MAX {
            break;
        }
    }
    acc.max(1)
}

fn callee_bound(
    sums: &[Option<FnSummary>],
    sel: fn(&FnSummary) -> Bound,
) -> impl Fn(FuncId) -> Bound + '_ {
    move |g: FuncId| sums.get(g.0 as usize).and_then(|s| s.as_ref()).map_or(Bound::TOP, sel)
}

fn max_task_depth(tg: &TaskGraph) -> u64 {
    tg.task_ids().map(|t| tg.depth(t) as u64).max().unwrap_or(0)
}

/// Merge `from` into `acc` pointwise (worst chain over alternatives), after
/// scaling by `mult` — the bound on concurrently-live caller activations.
fn merge_units(acc: &mut BTreeMap<String, Bound>, from: &[(String, Bound)], mult: Bound) {
    for (name, b) in from {
        let scaled = b.mul(mult);
        acc.entry(name.clone()).and_modify(|e| *e = e.max(scaled)).or_insert(scaled);
    }
}

/// Summary of a non-recursive function: path bounds with callee summaries
/// folded in at call sites.
fn plain_summary(
    m: &Module,
    fi: usize,
    tg: &TaskGraph,
    sums: &[Option<FnSummary>],
    args: Option<&[i64]>,
    spawn_loop: bool,
) -> FnSummary {
    let fid = FuncId(fi as u32);
    let f = m.function(fid);
    let ar = args.unwrap_or(&[]);
    let work = path_bounds(f, Mode::Serial, BaseMetric::Insts, &callee_bound(sums, |s| s.work), ar);
    let mem_ops =
        path_bounds(f, Mode::Serial, BaseMetric::MemOps, &callee_bound(sums, |s| s.mem_ops), ar);
    let spawns =
        path_bounds(f, Mode::Serial, BaseMetric::Spawns, &callee_bound(sums, |s| s.spawns), ar);
    let span = if spawns == Bound::exact(0) {
        work
    } else {
        let skip =
            path_bounds(f, Mode::SpanSkip, BaseMetric::Insts, &callee_bound(sums, |s| s.span), ar);
        let lo = match work.hi {
            Some(h) => skip.lo.min(h),
            None => skip.lo,
        };
        Bound { lo, hi: work.hi }
    };

    let local_depth = max_task_depth(tg);
    let mut chain_hi: Option<u64> = Some(local_depth);
    let mut units: BTreeMap<String, Bound> = tg
        .task_ids()
        .map(|t| {
            let hi = if spawn_loop { None } else { Some(1) };
            (tg.task(t).name.clone(), Bound { lo: 0, hi })
        })
        .collect();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            let Op::Call { callee, .. } = &inst.op else { continue };
            let gi = callee.0 as usize;
            let Some(gs) = sums.get(gi).and_then(|s| s.as_ref()) else {
                chain_hi = None;
                continue;
            };
            let d = tg.depth(tg.owner(b)) as u64;
            chain_hi = match (chain_hi, gs.chain.hi) {
                (Some(a), Some(c)) => Some(a.max(c.saturating_add(d))),
                _ => None,
            };
            // Calls from the root frame run serially (multiplicity 1); a call
            // inside a detached task may have live siblings, bounded by the
            // caller's total spawns.
            let mult = if d == 0 {
                Bound::exact(1)
            } else {
                Bound { lo: 0, hi: spawns.hi }.max(Bound::exact(1))
            };
            merge_units(&mut units, &gs.unit_chain, mult);
        }
    }
    FnSummary {
        name: f.name.clone(),
        work,
        span,
        mem_ops,
        spawns,
        chain: Bound { lo: 1, hi: chain_hi.map(|h| h.saturating_add(1)) },
        recursive: false,
        spawn_loop,
        pipeline: pipeline_spawner(f, tg),
        unit_chain: units.into_iter().collect(),
    }
}

/// Summary of a self-recursive function: per-level path bounds (self-calls
/// costed zero) scaled by recursion-tree node and depth bounds.
fn recursive_summary(
    m: &Module,
    fi: usize,
    tg: &TaskGraph,
    sums: &[Option<FnSummary>],
    args: Option<&[i64]>,
    spawn_loop: bool,
) -> FnSummary {
    let fid = FuncId(fi as u32);
    let f = m.function(fid);
    let ar = args.unwrap_or(&[]);
    let depth = recursion::depth_bound(f, fid, args);
    let d = Bound { lo: depth.lo, hi: depth.hi };

    // Per-level costs: self-call summaries contribute zero, other callees
    // their full summary.
    let level = |sel: fn(&FnSummary) -> Bound, metric: BaseMetric, mode: Mode| {
        let call = |g: FuncId| {
            if g == fid {
                Bound::ZERO
            } else {
                sums.get(g.0 as usize).and_then(|s| s.as_ref()).map_or(Bound::TOP, sel)
            }
        };
        path_bounds(f, mode, metric, &call, ar)
    };
    let level_work = level(|s| s.work, BaseMetric::Insts, Mode::Serial);
    let level_mem = level(|s| s.mem_ops, BaseMetric::MemOps, Mode::Serial);
    let level_spawns = level(|s| s.spawns, BaseMetric::Spawns, Mode::Serial);
    let level_skip = level(|s| s.span, BaseMetric::Insts, Mode::SpanSkip);

    // Recursion-tree node count: the descent analysis counts the exact
    // worst-case tree when it recognizes the shape; otherwise fall back to
    // the geometric bound from branching = max self-calls on one serial
    // path through a level.
    let branching = level(|_| Bound::ZERO, BaseMetric::CallsTo(fid), Mode::Serial);
    let nodes_hi = depth.nodes.or(match (d.hi, branching.hi) {
        (Some(dh), Some(b)) => Some(geometric_nodes(b, dh)),
        _ => None,
    });
    let nodes = Bound { lo: d.lo, hi: nodes_hi };

    let total = |lvl: Bound| Bound {
        lo: lvl.lo.saturating_mul(if depth.mandatory { d.lo } else { 1 }),
        hi: match (lvl.hi, nodes.hi) {
            (Some(a), Some(b)) => Some(a.saturating_mul(b)),
            _ => None,
        },
    };
    let work = total(level_work);
    let mem_ops = total(level_mem);
    let spawns = total(level_spawns);
    // Each recursive activation executes at least its guard before spawning
    // deeper, so the critical path is at least the chain depth — and at
    // least one level's own skip path.
    let span = Bound { lo: level_skip.lo.max(d.lo), hi: work.hi };

    // Activation chain: each nested self-call adds 1 (its activation) plus
    // the task-region nesting of its call site.
    let sites: Vec<u64> = f
        .block_ids()
        .flat_map(|b| {
            f.block(b).insts.iter().filter_map(move |i| match &i.op {
                Op::Call { callee, .. } if *callee == fid => Some(b),
                _ => None,
            })
        })
        .map(|b| 1 + tg.depth(tg.owner(b)) as u64)
        .collect();
    let max_inc = sites.iter().copied().max().unwrap_or(1);
    let min_inc = sites.iter().copied().min().unwrap_or(1);
    let local_depth = max_task_depth(tg);
    let chain = Bound {
        lo: if depth.mandatory {
            d.lo.saturating_sub(1).saturating_mul(min_inc).saturating_add(1)
        } else {
            1
        },
        hi: d.hi.map(|dh| {
            dh.saturating_sub(1)
                .saturating_mul(max_inc)
                .saturating_add(1)
                .saturating_add(local_depth)
        }),
    };

    // Occupancy: in the worst schedule *every* activation of the recursion
    // tree is simultaneously live — spawned, running, or blocked on sync —
    // and each holds one queue entry on its unit. Sibling subtrees fill
    // queues breadth-first, so chain depth alone is not a safe bound (the
    // boundary sweep shows mergesort wedging well above its depth); the
    // tree node count is, and for a pure chain like deeprec it is exact.
    let unit_hi = if spawn_loop { None } else { nodes.hi };
    let mut units: BTreeMap<String, Bound> =
        tg.task_ids().map(|t| (tg.task(t).name.clone(), Bound { lo: 0, hi: unit_hi })).collect();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            let Op::Call { callee, .. } = &inst.op else { continue };
            let gi = callee.0 as usize;
            if gi == fi {
                continue;
            }
            if let Some(gs) = sums.get(gi).and_then(|s| s.as_ref()) {
                let mult = if tg.depth(tg.owner(b)) == 0 {
                    Bound { lo: 0, hi: d.hi }
                } else {
                    Bound { lo: 0, hi: spawns.hi }
                };
                merge_units(&mut units, &gs.unit_chain, mult.max(Bound::exact(1)));
            }
        }
    }

    FnSummary {
        name: f.name.clone(),
        work,
        span,
        mem_ops,
        spawns,
        chain,
        recursive: true,
        spawn_loop,
        pipeline: pipeline_spawner(f, tg),
        unit_chain: units.into_iter().collect(),
    }
}

/// A member of a multi-function recursive cycle: finite lower bounds from
/// one pass (cycle calls costed zero for `lo`, top for `hi`), everything
/// else widened.
fn multi_scc_summary(
    m: &Module,
    fi: usize,
    tg: &TaskGraph,
    sums: &[Option<FnSummary>],
    args: Option<&[i64]>,
    spawn_loop: bool,
) -> FnSummary {
    let fid = FuncId(fi as u32);
    let f = m.function(fid);
    let ar = args.unwrap_or(&[]);
    let one = |sel: fn(&FnSummary) -> Bound, metric: BaseMetric| {
        let call = |g: FuncId| match sums.get(g.0 as usize).and_then(|s| s.as_ref()) {
            Some(s) => sel(s),
            None => Bound::TOP, // a cycle member: lo 0, hi unbounded
        };
        path_bounds(f, Mode::Serial, metric, &call, ar)
    };
    let work = one(|s| s.work, BaseMetric::Insts);
    let mem_ops = one(|s| s.mem_ops, BaseMetric::MemOps);
    let spawns = one(|s| s.spawns, BaseMetric::Spawns);
    let units: BTreeMap<String, Bound> =
        tg.task_ids().map(|t| (tg.task(t).name.clone(), Bound::TOP)).collect();
    FnSummary {
        name: f.name.clone(),
        work,
        span: Bound { lo: 0, hi: work.hi },
        mem_ops,
        spawns,
        chain: Bound { lo: 1, hi: None },
        recursive: true,
        spawn_loop,
        pipeline: pipeline_spawner(f, tg),
        unit_chain: units.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapas_ir::{FunctionBuilder, Type};

    fn straight_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let x = b.param(0);
        let one = b.const_int(Type::I64, 1);
        let y = b.add(x, one);
        b.ret(Some(y));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn straight_line_report() {
        let m = straight_module();
        let r = analyze(&m, FuncId(0), &[Val::Int(5)]).unwrap();
        assert_eq!(r.work, Bound::exact(1));
        assert_eq!(r.span, Bound::exact(1), "no spawns: span == work");
        assert_eq!(r.spawns, Bound::exact(0));
        assert_eq!(r.min_safe_ntasks, Some(1));
        assert!(!r.recursive);
        assert!(r.check_config(1, false).safe);
    }

    #[test]
    fn parallelism_and_ceiling() {
        let m = straight_module();
        let r = analyze(&m, FuncId(0), &[Val::Int(5)]).unwrap();
        assert!((r.parallelism() - 1.0).abs() < 1e-9);
        assert!((r.speedup_ceiling(8) - 1.0).abs() < 1e-9);
        assert!(r.speedup_ceiling(0) <= f64::EPSILON);
    }

    #[test]
    fn unbounded_verdict_fails_closed() {
        let r = AnalysisReport {
            entry: "x".into(),
            work: Bound::TOP,
            span: Bound::TOP,
            mem_ops: Bound::TOP,
            spawns: Bound::TOP,
            peak_tasks: Bound::TOP,
            min_safe_ntasks: None,
            recursive: true,
            spawn_loop_flagged: false,
            pipeline: false,
            predicted: Bottleneck::Compute,
            functions: Vec::new(),
            unit_bounds: Vec::new(),
        };
        assert!(!r.check_config(1 << 20, false).safe);
        assert!(r.check_config(1, true).safe, "admission is always safe");
    }
}
