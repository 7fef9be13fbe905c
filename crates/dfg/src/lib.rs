//! # tapas-dfg — per-task dataflow generation (TAPAS Stage 2)
//!
//! For each extracted task, TAPAS generates the logic of its **Task
//! Execution Unit (TXU)**: a latency-insensitive dataflow where every
//! operation is a pipeline stage with ready/valid handshakes (Fig. 6 of the
//! paper). This crate lowers a task's sub-program-dependence-graph into that
//! form:
//!
//! * one [`BlockDfg`] per basic block — instructions become [`DfgNode`]s
//!   wired by SSA operands plus conservative memory-ordering edges;
//! * values that cross block boundaries (task arguments, loop-carried
//!   phis) live in the TXU's register environment;
//! * each block's terminator is lowered to a [`TermInfo`] that the
//!   execution engine interprets (branch, spawn, sync, reattach, return);
//! * loads/stores are assigned data-box ports; `call`s become
//!   spawn-and-wait nodes (the recursion mechanism of §IV-C).
//!
//! [`lower_module`] drives Stages 1–2 for a whole module, once per
//! `Toolchain::compile`. The cycle-level execution of these graphs lives
//! in `tapas-sim`; the resource/frequency estimation over them lives in
//! `tapas-res`.

#![warn(missing_docs)]

use std::collections::HashMap;
use tapas_ir::{
    BinOp, BlockId, CastKind, CmpPred, Constant, FBinOp, FCmpPred, FuncId, Function, GepIndex,
    Module, Op, Terminator, Type, ValueId,
};
use tapas_task::{extract_module, TaskError, TaskGraph, TaskId};

/// Fixed operation latencies in cycles, matching the hardware component
/// library the paper describes (multi-cycle FP, single-cycle integer).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Integer add/sub/logic/compare/select.
    pub int_simple: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide/remainder.
    pub int_div: u32,
    /// FP add/sub.
    pub fp_add: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide.
    pub fp_div: u32,
    /// Address computation (GEP adder chain).
    pub gep: u32,
    /// Cast/bit-select (usually free, folded into wiring).
    pub cast: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            int_simple: 1,
            int_mul: 3,
            int_div: 16,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 16,
            gep: 1,
            cast: 0,
        }
    }
}

/// A dataflow operand: produced in this block, or read from the TXU's
/// register environment (arguments, constants, values from other blocks).
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Output of node `idx` in the same block.
    Local(usize),
    /// SSA value from the environment (defined in another block of this
    /// task, or a task argument).
    Env(ValueId),
    /// Immediate.
    Imm(Constant),
}

/// A precomputed GEP step: scale a runtime index or add a fixed offset.
#[derive(Debug, Clone, PartialEq)]
pub enum GepStep {
    /// `addr += operand * stride`.
    Scaled {
        /// The runtime index operand.
        index: Operand,
        /// Element stride in bytes.
        stride: u64,
    },
    /// `addr += offset`.
    Fixed(u64),
}

/// The operation performed by a dataflow node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOp {
    /// Integer ALU.
    Alu(BinOp),
    /// Floating-point unit.
    FAlu(FBinOp),
    /// Integer comparator over operands of `width` bits.
    Cmp {
        /// Comparison predicate.
        pred: CmpPred,
        /// Operand width in bits.
        width: u8,
    },
    /// Floating-point comparator.
    FCmp(FCmpPred),
    /// 2:1 mux.
    Select,
    /// Width/domain cast.
    Cast {
        /// The cast operation.
        kind: CastKind,
        /// Source width in bits.
        from_width: u8,
        /// Destination width in bits.
        to_width: u8,
    },
    /// Address generator; steps applied to the base operand in order.
    Gep {
        /// Address computation steps.
        steps: Vec<GepStep>,
    },
    /// Memory read of `size` bytes through the data box.
    Load {
        /// Access size in bytes.
        size: u8,
    },
    /// Memory write of `size` bytes through the data box.
    Store {
        /// Access size in bytes.
        size: u8,
    },
    /// Phi: selects the incoming value by dynamic predecessor block.
    Phi {
        /// `(predecessor, value)` pairs.
        incomings: Vec<(BlockId, Operand)>,
    },
    /// Spawn the callee's root task and wait for completion (serial call).
    CallSpawn {
        /// The called function.
        callee: FuncId,
    },
}

/// One pipeline stage of the TXU dataflow.
#[derive(Debug, Clone)]
pub struct DfgNode {
    /// Operation.
    pub op: NodeOp,
    /// Data operands in positional order.
    pub operands: Vec<Operand>,
    /// Extra ordering predecessors (node indices) enforcing memory order.
    pub order_deps: Vec<usize>,
    /// The IR value this node defines, if any (stores define none).
    pub result: Option<ValueId>,
    /// Result width in bits (0 for none).
    pub width: u8,
    /// Fixed latency; memory and call nodes are dynamic and hold 0 here.
    pub latency: u32,
    /// For loads/stores: the task-local data-box port index.
    pub mem_port: Option<usize>,
}

/// Lowered terminator of a block.
#[derive(Debug, Clone, PartialEq)]
pub enum TermInfo {
    /// Unconditional transfer.
    Br(BlockId),
    /// Conditional transfer.
    CondBr {
        /// Branch condition.
        cond: Operand,
        /// Taken target.
        if_true: BlockId,
        /// Fall-through target.
        if_false: BlockId,
    },
    /// Task (or function) completes, optionally producing a value.
    Ret(Option<Operand>),
    /// Spawn `child` with `args` read from the environment, then continue
    /// at `cont`.
    Detach {
        /// Spawned child task.
        child: TaskId,
        /// Values for the child's `Args[]` RAM, in the child's arg order.
        args: Vec<Operand>,
        /// Continuation block in this task.
        cont: BlockId,
    },
    /// End of a spawned task's region.
    Reattach,
    /// Wait for all outstanding children, then continue at `cont`.
    Sync(BlockId),
}

/// Dataflow graph of one basic block.
#[derive(Debug, Clone)]
pub struct BlockDfg {
    /// The IR block this was lowered from.
    pub block: BlockId,
    /// Nodes in topological (program) order.
    pub nodes: Vec<DfgNode>,
    /// Lowered terminator.
    pub term: TermInfo,
}

/// The complete TXU dataflow of one task.
#[derive(Debug, Clone)]
pub struct TaskDfg {
    /// Task this DFG implements.
    pub task: TaskId,
    /// Task arguments in `Args[]` RAM order.
    pub args: Vec<ValueId>,
    /// Block dataflows, in the task's block discovery order.
    pub blocks: Vec<BlockDfg>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of data-box ports this task's dataflow needs (one per
    /// memory node).
    pub mem_ports: usize,
    /// Whether the task contains an internal loop (disables cross-instance
    /// pipelining in a tile).
    pub has_loop: bool,
}

impl TaskDfg {
    /// Find the block dataflow for `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not part of this task.
    pub fn block_dfg(&self, block: BlockId) -> &BlockDfg {
        self.blocks
            .iter()
            .find(|b| b.block == block)
            .unwrap_or_else(|| panic!("block {block} not in task {}", self.task))
    }

    /// Static operation mix over the whole task (for resource estimation).
    pub fn profile(&self) -> DfgProfile {
        let mut p = DfgProfile::default();
        for b in &self.blocks {
            for n in &b.nodes {
                p.total += 1;
                match &n.op {
                    NodeOp::Alu(BinOp::Mul) => p.int_mul += 1,
                    NodeOp::Alu(BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem) => {
                        p.int_div += 1
                    }
                    NodeOp::Alu(_) | NodeOp::Cmp { .. } | NodeOp::Select => p.int_simple += 1,
                    NodeOp::FAlu(_) | NodeOp::FCmp(_) => p.fp += 1,
                    NodeOp::Cast { .. } => p.casts += 1,
                    NodeOp::Gep { .. } => p.geps += 1,
                    NodeOp::Load { .. } => p.loads += 1,
                    NodeOp::Store { .. } => p.stores += 1,
                    NodeOp::Phi { .. } => p.phis += 1,
                    NodeOp::CallSpawn { .. } => p.calls += 1,
                }
            }
        }
        p
    }
}

/// Static node mix of a task dataflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfgProfile {
    /// All nodes.
    pub total: usize,
    /// Single-cycle integer ops (ALU/compare/select).
    pub int_simple: usize,
    /// Integer multipliers.
    pub int_mul: usize,
    /// Integer dividers.
    pub int_div: usize,
    /// Floating-point units.
    pub fp: usize,
    /// Casts (wiring only).
    pub casts: usize,
    /// Address generators.
    pub geps: usize,
    /// Load units.
    pub loads: usize,
    /// Store units.
    pub stores: usize,
    /// Phi muxes.
    pub phis: usize,
    /// Call/spawn bridges.
    pub calls: usize,
}

impl DfgProfile {
    /// Memory nodes (loads + stores).
    pub fn mem_nodes(&self) -> usize {
        self.loads + self.stores
    }
}

/// Errors during DFG lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// Stage 1 failed: [`lower_module`] could not extract the tasks.
    Task(TaskError),
    /// A load/store of a type wider than the 8-byte data path.
    UnsupportedAccess(String),
}

impl std::fmt::Display for DfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfgError::Task(e) => write!(f, "task extraction: {e}"),
            DfgError::UnsupportedAccess(s) => write!(f, "unsupported memory access: {s}"),
        }
    }
}

impl std::error::Error for DfgError {}

/// Stages 1 and 2 for a whole module: every function's task graph, and
/// its tasks' TXU dataflows indexed like the graphs.
///
/// # Errors
///
/// [`DfgError::Task`] when extraction fails, else the first lowering error.
pub fn lower_module(
    m: &Module,
    lat: &LatencyModel,
) -> Result<(Vec<TaskGraph>, Vec<Vec<TaskDfg>>), DfgError> {
    let graphs = extract_module(m).map_err(DfgError::Task)?;
    let dfgs = graphs.iter().map(|g| lower_tasks(m, g, lat)).collect::<Result<_, _>>()?;
    Ok((graphs, dfgs))
}

/// Lower every task of `graph` to its TXU dataflow.
///
/// # Errors
///
/// Returns [`DfgError`] on constructs the hardware node library cannot
/// realize.
pub fn lower_tasks(
    m: &Module,
    graph: &TaskGraph,
    lat: &LatencyModel,
) -> Result<Vec<TaskDfg>, DfgError> {
    let f = m.function(graph.func);
    graph.task_ids().map(|tid| lower_task(f, graph, tid, lat)).collect()
}

fn lower_task(
    f: &Function,
    graph: &TaskGraph,
    tid: TaskId,
    lat: &LatencyModel,
) -> Result<TaskDfg, DfgError> {
    let task = graph.task(tid);
    let mut blocks = Vec::with_capacity(task.blocks.len());
    let mut mem_ports = 0usize;
    for &b in &task.blocks {
        let mut nodes: Vec<DfgNode> = Vec::new();
        // Map from IR value -> producing node index in this block.
        let mut local: HashMap<ValueId, usize> = HashMap::new();
        // Memory-ordering state.
        let mut last_store: Option<usize> = None;
        let mut loads_since: Vec<usize> = Vec::new();

        let operand = |v: ValueId, local: &HashMap<ValueId, usize>| -> Operand {
            if let Some(&idx) = local.get(&v) {
                return Operand::Local(idx);
            }
            match &f.value(v).def {
                tapas_ir::ValueDef::Const(c) => Operand::Imm(c.clone()),
                _ => Operand::Env(v),
            }
        };

        for inst in &f.block(b).insts {
            let result = inst.result;
            let width = result.map(|r| type_bits(f.value_ty(r))).unwrap_or(0);
            let mut order_deps = Vec::new();
            let (op, operands, latency, is_load, is_store) = match &inst.op {
                Op::Bin { op, lhs, rhs } => {
                    let l = match op {
                        BinOp::Mul => lat.int_mul,
                        BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => lat.int_div,
                        _ => lat.int_simple,
                    };
                    (
                        NodeOp::Alu(*op),
                        vec![operand(*lhs, &local), operand(*rhs, &local)],
                        l,
                        false,
                        false,
                    )
                }
                Op::FBin { op, lhs, rhs } => {
                    let l = match op {
                        FBinOp::FDiv => lat.fp_div,
                        FBinOp::FMul => lat.fp_mul,
                        _ => lat.fp_add,
                    };
                    (
                        NodeOp::FAlu(*op),
                        vec![operand(*lhs, &local), operand(*rhs, &local)],
                        l,
                        false,
                        false,
                    )
                }
                Op::Cmp { pred, lhs, rhs } => (
                    NodeOp::Cmp { pred: *pred, width: type_bits(f.value_ty(*lhs)) },
                    vec![operand(*lhs, &local), operand(*rhs, &local)],
                    lat.int_simple,
                    false,
                    false,
                ),
                Op::FCmp { pred, lhs, rhs } => (
                    NodeOp::FCmp(*pred),
                    vec![operand(*lhs, &local), operand(*rhs, &local)],
                    lat.fp_add,
                    false,
                    false,
                ),
                Op::Select { cond, if_true, if_false } => (
                    NodeOp::Select,
                    vec![
                        operand(*cond, &local),
                        operand(*if_true, &local),
                        operand(*if_false, &local),
                    ],
                    lat.int_simple,
                    false,
                    false,
                ),
                Op::Cast { kind, value, to } => (
                    NodeOp::Cast {
                        kind: *kind,
                        from_width: type_bits(f.value_ty(*value)),
                        to_width: type_bits(to),
                    },
                    vec![operand(*value, &local)],
                    lat.cast,
                    false,
                    false,
                ),
                Op::Gep { base, indices } => {
                    let (steps, ops) = lower_gep(f, *base, indices, &local, &operand);
                    (NodeOp::Gep { steps }, ops, lat.gep, false, false)
                }
                Op::Load { ptr } => {
                    let ty = f.value_ty(*ptr).pointee().cloned().expect("load from ptr");
                    let size = access_size(&ty)?;
                    (NodeOp::Load { size }, vec![operand(*ptr, &local)], 0, true, false)
                }
                Op::Store { ptr, value } => {
                    let ty = f.value_ty(*ptr).pointee().cloned().expect("store to ptr");
                    let size = access_size(&ty)?;
                    (
                        NodeOp::Store { size },
                        vec![operand(*ptr, &local), operand(*value, &local)],
                        0,
                        false,
                        true,
                    )
                }
                Op::Call { callee, args } => (
                    NodeOp::CallSpawn { callee: *callee },
                    args.iter().map(|a| operand(*a, &local)).collect(),
                    0,
                    false,
                    false,
                ),
                Op::Phi { incomings } => (
                    NodeOp::Phi {
                        incomings: incomings
                            .iter()
                            .map(|(p, v)| (*p, operand(*v, &local)))
                            .collect(),
                    },
                    Vec::new(),
                    0,
                    false,
                    false,
                ),
            };

            // Memory ordering: a load waits for the previous store; a store
            // waits for the previous store and all loads issued since.
            let mem_port = if is_load || is_store {
                if let Some(s) = last_store {
                    order_deps.push(s);
                }
                if is_store {
                    order_deps.extend(loads_since.iter().copied());
                }
                let port = mem_ports;
                mem_ports += 1;
                Some(port)
            } else {
                None
            };

            let idx = nodes.len();
            if is_load {
                loads_since.push(idx);
            }
            if is_store {
                last_store = Some(idx);
                loads_since.clear();
            }
            if let Some(r) = result {
                local.insert(r, idx);
            }
            nodes.push(DfgNode { op, operands, order_deps, result, width, latency, mem_port });
        }

        let term = match &f.block(b).term {
            Terminator::Br { target } => TermInfo::Br(*target),
            Terminator::CondBr { cond, if_true, if_false } => TermInfo::CondBr {
                cond: operand(*cond, &local),
                if_true: *if_true,
                if_false: *if_false,
            },
            Terminator::Ret { value } => TermInfo::Ret(value.map(|v| operand(v, &local))),
            Terminator::Detach { task: _, cont } => {
                let (_, child) = graph
                    .task(tid)
                    .detach_sites
                    .iter()
                    .copied()
                    .find(|(site, _)| *site == b)
                    .expect("detach site recorded during extraction");
                let args = graph.task(child).args.iter().map(|a| operand(*a, &local)).collect();
                TermInfo::Detach { child, args, cont: *cont }
            }
            Terminator::Reattach { .. } => TermInfo::Reattach,
            Terminator::Sync { cont } => TermInfo::Sync(*cont),
            Terminator::Unreachable => TermInfo::Ret(None),
        };
        blocks.push(BlockDfg { block: b, nodes, term });
    }

    Ok(TaskDfg {
        task: tid,
        args: task.args.clone(),
        entry: task.entry,
        blocks,
        mem_ports,
        has_loop: task.has_loop,
    })
}

fn lower_gep(
    f: &Function,
    base: ValueId,
    indices: &[GepIndex],
    local: &HashMap<ValueId, usize>,
    operand: &dyn Fn(ValueId, &HashMap<ValueId, usize>) -> Operand,
) -> (Vec<GepStep>, Vec<Operand>) {
    let mut steps = Vec::new();
    let mut ops = vec![operand(base, local)];
    let mut cur_ty = f.value_ty(base).pointee().cloned().expect("gep base is a pointer");
    for (i, ix) in indices.iter().enumerate() {
        let elem_ty = if i == 0 {
            cur_ty.clone()
        } else {
            match &cur_ty {
                Type::Array(e, _) => (**e).clone(),
                Type::Struct(fields) => {
                    let GepIndex::Const(k) = ix else {
                        unreachable!("verified: struct index is constant")
                    };
                    let off = cur_ty.field_offset(*k as usize);
                    steps.push(GepStep::Fixed(off));
                    cur_ty = fields[*k as usize].clone();
                    continue;
                }
                other => panic!("gep into non-aggregate {other}"),
            }
        };
        match ix {
            GepIndex::Const(k) => {
                steps.push(GepStep::Fixed(k * elem_ty.stride()));
            }
            GepIndex::Value(v) => {
                let o = operand(*v, local);
                ops.push(o.clone());
                steps.push(GepStep::Scaled { index: o, stride: elem_ty.stride() });
            }
        }
        if i > 0 {
            cur_ty = elem_ty;
        }
    }
    (steps, ops)
}

fn type_bits(ty: &Type) -> u8 {
    match ty {
        Type::Int(w) => *w,
        Type::F32 => 32,
        Type::F64 => 64,
        Type::Ptr(_) => 64,
        _ => 0,
    }
}

fn access_size(ty: &Type) -> Result<u8, DfgError> {
    let s = ty.size_bytes();
    if s == 0 || s > 8 || !s.is_power_of_two() {
        return Err(DfgError::UnsupportedAccess(format!("access of type {ty} ({s} bytes)")));
    }
    Ok(s as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapas_ir::FunctionBuilder;
    use tapas_task::extract_tasks;

    /// The Fig. 6 kernel: C[i] = A[i] + B[i] as a flat body task.
    fn vector_add_body() -> (Module, FuncId) {
        let ptr = Type::ptr(Type::I32);
        let mut b = FunctionBuilder::new(
            "body",
            vec![ptr.clone(), ptr.clone(), ptr, Type::I64],
            Type::Void,
        );
        let (a, bb, c, i) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let pa = b.gep_index(a, i);
        let pb = b.gep_index(bb, i);
        let pc = b.gep_index(c, i);
        let va = b.load(pa);
        let vb = b.load(pb);
        let s = b.add(va, vb);
        b.store(pc, s);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        (m, f)
    }

    #[test]
    fn fig6_dataflow_shape() {
        let (m, f) = vector_add_body();
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        assert_eq!(dfgs.len(), 1);
        let dfg = &dfgs[0];
        assert_eq!(dfg.mem_ports, 3, "LoadA, LoadB, StoreC each get a port");
        let prof = dfg.profile();
        assert_eq!(prof.loads, 2);
        assert_eq!(prof.stores, 1);
        assert_eq!(prof.geps, 3);
        assert_eq!(prof.int_simple, 1, "the Add4B unit");
        // The add consumes the two load outputs locally.
        let blk = &dfg.blocks[0];
        let add = blk.nodes.iter().find(|n| matches!(n.op, NodeOp::Alu(BinOp::Add))).unwrap();
        assert!(matches!(add.operands[0], Operand::Local(_)));
        assert!(matches!(add.operands[1], Operand::Local(_)));
    }

    #[test]
    fn memory_ordering_edges() {
        // store p; load p; store p  =>  load depends on store0,
        // store1 depends on store0 and the load.
        let mut b = FunctionBuilder::new("mo", vec![Type::ptr(Type::I32)], Type::Void);
        let p = b.param(0);
        let one = b.const_int(Type::I32, 1);
        b.store(p, one);
        let v = b.load(p);
        b.store(p, v);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let nodes = &dfgs[0].blocks[0].nodes;
        let store0 = 0;
        let load = 1;
        let store1 = 2;
        assert!(matches!(nodes[store0].op, NodeOp::Store { .. }));
        assert_eq!(nodes[load].order_deps, vec![store0]);
        assert_eq!(nodes[store1].order_deps, vec![store0, load]);
    }

    #[test]
    fn independent_loads_unordered() {
        let mut b = FunctionBuilder::new(
            "ld2",
            vec![Type::ptr(Type::I32), Type::ptr(Type::I32)],
            Type::I32,
        );
        let (p, q) = (b.param(0), b.param(1));
        let a = b.load(p);
        let c = b.load(q);
        let s = b.add(a, c);
        b.ret(Some(s));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let nodes = &dfgs[0].blocks[0].nodes;
        assert!(nodes[0].order_deps.is_empty());
        assert!(nodes[1].order_deps.is_empty(), "loads may proceed in parallel");
    }

    #[test]
    fn detach_term_carries_child_args() {
        let mut b = FunctionBuilder::new("sp", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
        let task = b.create_block("task");
        let cont = b.create_block("cont");
        let done = b.create_block("done");
        let (a, i) = (b.param(0), b.param(1));
        b.detach(task, cont);
        b.switch_to(task);
        let p = b.gep_index(a, i);
        let one = b.const_int(Type::I32, 1);
        b.store(p, one);
        b.reattach(cont);
        b.switch_to(cont);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let root = &dfgs[0];
        let entry_dfg = &root.blocks[0];
        match &entry_dfg.term {
            TermInfo::Detach { child, args, cont: _ } => {
                assert_eq!(*child, tapas_task::TaskId(1));
                assert_eq!(args.len(), 2, "pointer and index cross the spawn port");
                assert!(args.iter().all(|a| matches!(a, Operand::Env(_))));
            }
            other => panic!("expected detach, got {other:?}"),
        }
        // Child task ends in reattach.
        let child = &dfgs[1];
        assert_eq!(child.blocks[0].term, TermInfo::Reattach);
    }

    #[test]
    fn gep_struct_field_becomes_fixed_step() {
        // {i32, i64}* -> field 1
        let st = Type::Struct(vec![Type::I32, Type::I64]);
        let mut b = FunctionBuilder::new("gs", vec![Type::ptr(st)], Type::I64);
        let p = b.param(0);
        let fp = b.gep_field(p, 1);
        let v = b.load(fp);
        b.ret(Some(v));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let gep = &dfgs[0].blocks[0].nodes[0];
        match &gep.op {
            NodeOp::Gep { steps } => {
                assert_eq!(
                    steps,
                    &vec![GepStep::Fixed(0), GepStep::Fixed(8)],
                    "field 1 of {{i32,i64}} sits at byte 8"
                );
            }
            other => panic!("expected gep, got {other:?}"),
        }
    }

    #[test]
    fn latency_assignment_by_class() {
        let mut b = FunctionBuilder::new("lat", vec![Type::I32, Type::F64], Type::Void);
        let (x, y) = (b.param(0), b.param(1));
        let _m = b.mul(x, x);
        let _d = b.sdiv(x, x);
        let _f = b.fbin(FBinOp::FMul, y, y);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let lat = LatencyModel::default();
        let dfgs = lower_tasks(&m, &tg, &lat).unwrap();
        let nodes = &dfgs[0].blocks[0].nodes;
        assert_eq!(nodes[0].latency, lat.int_mul);
        assert_eq!(nodes[1].latency, lat.int_div);
        assert_eq!(nodes[2].latency, lat.fp_mul);
    }

    #[test]
    fn call_lowered_to_spawn_bridge() {
        let mut m = Module::new("m");
        let mut g = FunctionBuilder::new("leaf", vec![Type::I32], Type::I32);
        let x = g.param(0);
        g.ret(Some(x));
        let gid = m.add_function(g.finish());
        let mut b = FunctionBuilder::new("caller", vec![Type::I32], Type::I32);
        let x = b.param(0);
        let r = b.call(gid, vec![x], Type::I32).unwrap();
        b.ret(Some(r));
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let node = &dfgs[0].blocks[0].nodes[0];
        assert_eq!(node.op, NodeOp::CallSpawn { callee: gid });
        assert_eq!(node.operands.len(), 1);
    }

    #[test]
    fn phi_lowered_with_env_operands() {
        let mut b = FunctionBuilder::new("lp", vec![Type::I64], Type::I64);
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        let n = b.param(0);
        let zero = b.const_int(Type::I64, 0);
        let one = b.const_int(Type::I64, 1);
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let c = b.icmp(CmpPred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let tg = extract_tasks(&m, f).unwrap();
        let dfgs = lower_tasks(&m, &tg, &LatencyModel::default()).unwrap();
        let dfg = &dfgs[0];
        assert!(dfg.has_loop);
        let header_dfg = dfg.block_dfg(header);
        match &header_dfg.nodes[0].op {
            NodeOp::Phi { incomings } => {
                assert_eq!(incomings.len(), 2);
                assert!(incomings.iter().any(|(_, o)| matches!(o, Operand::Imm(_))));
                assert!(incomings.iter().any(|(_, o)| matches!(o, Operand::Env(_))));
            }
            other => panic!("expected phi, got {other:?}"),
        }
    }
}
