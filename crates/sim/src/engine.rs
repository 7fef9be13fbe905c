//! The accelerator execution engine: task units, queues, tiles, and the
//! top-level cycle loop.

use crate::config::DEADLOCK_STALL_CYCLES;
use crate::fault::{
    BlockedTask, DeadlockDiagnosis, FaultRt, RespFault, UnitWaitState, WaitCause, WaitEdge,
    WaitKind,
};
use crate::profile::{NodeClass, Profile, ProfileLevel, QueueSummary, StallReason, TileProfile};
use crate::snapshot::{Dec, Enc, EngineSnapshot, SnapshotError};
use crate::AcceleratorConfig;
use std::collections::HashMap;
use std::num::NonZeroU16;
use std::rc::Rc;
use tapas_dfg::{DfgNode, NodeOp, Operand, TaskDfg, TermInfo};
use tapas_ir::interp::{eval_bin, eval_cmp, eval_fbin, eval_fcmp, sign_extend, Val};
use tapas_ir::{mask_to_width, BlockId, CastKind, Constant, FuncId, Function, Module, Type};
use tapas_mem::{
    AccessOutcome, CacheState, CacheStats, DataBox, DataBoxConfig, DataBoxState, DramState,
    GrantClass, MemError, MemOpKind, MemReq, MemResp, MemSystem, MemSystemState, ReqId,
    RestoreError,
};
use tapas_task::queue::{QueueOccupancy, QueueOccupancyState};
use tapas_task::steal::{StealPort, StealPortState};
use tapas_task::TaskGraph;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget was exhausted.
    CycleLimit(u64),
    /// Integer division by zero in a TXU.
    DivByZero,
    /// The invoked function's root queue had no free entry.
    QueueFull,
    /// No component made progress for a long window. The payload reports
    /// what the design was actually stuck on: the wait-for cycle between
    /// task units, per-unit queue occupancy, and the oldest blocked task's
    /// `(SID, DyID)`.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        at: u64,
        /// What the wait-for-graph diagnoser found.
        diagnosis: Box<DeadlockDiagnosis>,
    },
    /// A per-unit watchdog fired: one tile made no progress for the
    /// configured window (see
    /// [`FaultTolerance::watchdog_timeout`](crate::FaultTolerance)).
    WatchdogTimeout {
        /// Name of the stuck task unit.
        unit: String,
        /// The stuck tile.
        tile: usize,
        /// Cycle the watchdog fired.
        at: u64,
        /// What the tile was waiting on.
        waiting_on: WaitCause,
    },
    /// A memory request was retried
    /// [`max_mem_retries`](crate::FaultTolerance::max_mem_retries) times
    /// without ever receiving a response.
    MemRetryExhausted {
        /// Name of the issuing task unit.
        unit: String,
        /// The issuing tile.
        tile: usize,
        /// Byte address of the access.
        addr: u64,
        /// Retries attempted.
        attempts: u32,
    },
    /// Queue-RAM parity detected a corrupted entry at dispatch.
    QueueParity {
        /// Name of the task unit whose queue is corrupted.
        unit: String,
        /// The corrupted slot (the `DyID`).
        slot: usize,
    },
    /// Quarantine would fence a unit's last healthy tile: the unit cannot
    /// degrade any further.
    AllTilesFailed {
        /// Name of the fully degraded task unit.
        unit: String,
    },
    /// The memory system refused a malformed request (out of bounds,
    /// misaligned or a bad size).
    Memory {
        /// Name of the issuing task unit, when the request could be
        /// attributed.
        unit: Option<String>,
        /// The issuing tile, when attributable.
        tile: Option<usize>,
        /// Why the request was refused.
        fault: MemError,
    },
    /// A dataflow construct the engine cannot execute.
    Unsupported(String),
    /// Writing the Chrome event trace to
    /// [`AcceleratorConfig::trace_path`](crate::AcceleratorConfig) failed.
    Trace(String),
    /// The run stopped at the
    /// [`halt_at_cycle`](crate::AcceleratorConfig::halt_at_cycle) test
    /// hook — not a failure: an in-memory snapshot of the halted state is
    /// waiting in [`Accelerator::take_halt_snapshot`], and
    /// [`Accelerator::resume`] continues the run from it.
    Halted {
        /// Absolute engine cycle at the halt boundary.
        at: u64,
    },
    /// Capturing, writing or restoring an engine snapshot failed (see
    /// [`crate::snapshot`]).
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit(n) => write!(f, "cycle limit of {n} exceeded"),
            SimError::DivByZero => write!(f, "division by zero"),
            SimError::QueueFull => write!(f, "root task queue full"),
            SimError::Deadlock { at, diagnosis } => {
                write!(f, "deadlock at cycle {at}: {diagnosis}")
            }
            SimError::WatchdogTimeout { unit, tile, at, waiting_on } => write!(
                f,
                "watchdog timeout at cycle {at}: unit {unit} tile {tile} stuck on {waiting_on}"
            ),
            SimError::MemRetryExhausted { unit, tile, addr, attempts } => write!(
                f,
                "memory retry exhausted: unit {unit} tile {tile} got no response for \
                 {addr:#x} after {attempts} retries"
            ),
            SimError::QueueParity { unit, slot } => {
                write!(f, "queue-RAM parity error in unit {unit} slot {slot}")
            }
            SimError::AllTilesFailed { unit } => {
                write!(f, "every tile of unit {unit} exceeded its fault budget")
            }
            SimError::Memory { unit, tile, fault } => {
                write!(f, "memory fault")?;
                if let Some(u) = unit {
                    write!(f, " from unit {u}")?;
                }
                if let Some(t) = tile {
                    write!(f, " tile {t}")?;
                }
                write!(f, ": {fault}")
            }
            SimError::Unsupported(s) => write!(f, "unsupported: {s}"),
            SimError::Trace(s) => write!(f, "writing the event trace failed: {s}"),
            SimError::Halted { at } => {
                write!(f, "halted at cycle {at} by the halt_at_cycle test hook")
            }
            SimError::Snapshot(s) => write!(f, "snapshot failed: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A task-level trace event (recorded when
/// [`AcceleratorConfig::record_events`](crate::AcceleratorConfig) is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// Cycle of the event.
    pub cycle: u64,
    /// Task unit index (see [`Accelerator::unit_names`]).
    pub unit: usize,
    /// Queue slot (the `DyID`).
    pub slot: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// Kinds of task-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// Entry allocated in the task queue (spawn accepted).
    Spawned {
        /// The spawning parent's `(unit, slot)`, when spawned by a
        /// `detach` (the paper's `ParentID`); `None` for host invocations
        /// and call-bridged spawns.
        parent: Option<(usize, usize)>,
    },
    /// Instance dispatched to a tile.
    Dispatched {
        /// The tile it landed on.
        tile: usize,
    },
    /// Instance parked waiting on its children (`SYNC` state).
    SyncWait,
    /// Instance parked waiting on a serial call's completion.
    CallWait,
    /// Instance completed and its slot freed.
    Completed,
    /// A memory request from this instance missed in the cache.
    CacheMiss {
        /// The missing address.
        addr: u64,
    },
    /// The entry was claimed by an idle tile of another unit through the
    /// cross-unit steal port (recorded on the owning unit, immediately
    /// before the matching [`SimEventKind::Dispatched`]).
    Stolen {
        /// The thief's unit index.
        by: usize,
        /// The thief tile the entry executes on.
        tile: usize,
    },
}

/// Per-task-unit counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Task unit (= task) name.
    pub name: String,
    /// Tile count configured for this unit.
    pub tiles: usize,
    /// Dynamic task instances completed.
    pub tasks_executed: u64,
    /// Sum over cycles of busy tiles.
    pub busy_tile_cycles: u64,
    /// Cycles a spawn into this unit (a `detach`, or a serial call bridged
    /// through a task spawn) was refused because this unit's queue was
    /// full.
    pub spawn_stalls: u64,
    /// Peak queue occupancy observed.
    pub queue_peak: usize,
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Dynamic `detach`s executed (tasks spawned).
    pub spawns: u64,
    /// Dynamic serial calls bridged through task spawns.
    pub calls: u64,
    /// Sum of (first-dispatch − spawn) latencies. Under load this
    /// includes queueing delay, so the §V-A "lightweight spawn" number is
    /// `min_spawn_latency`.
    pub total_spawn_latency: u64,
    /// Minimum observed spawn-to-dispatch latency (the uncontended spawn
    /// overhead of §V-A); `None` when nothing was spawned via `detach`.
    pub min_spawn_latency: Option<u64>,
    /// Per-unit counters.
    pub units: Vec<UnitStats>,
    /// Cache counters at the end of the run.
    pub cache: tapas_mem::CacheStats,
    /// DRAM line reads.
    pub dram_reads: u64,
    /// DRAM line writebacks.
    pub dram_writes: u64,
    /// Data box counters.
    pub databox_issued: u64,
    /// Requests the cache refused (MSHR pressure), i.e. memory stalls.
    pub cache_stalls: u64,
    /// Grants deferred because their L1 bank already granted this cycle
    /// (always 0 with a single bank).
    pub bank_conflicts: u64,
    /// Memory requests re-arbitrated after a response timeout (dropped or
    /// overdue grants).
    pub mem_retries: u64,
    /// Corrupted responses ECC caught and converted into retries.
    pub ecc_retries: u64,
    /// Responses with no matching outstanding request (duplicated grants,
    /// or late originals already superseded by a retry) — detected and
    /// discarded.
    pub spurious_responses: u64,
    /// Faults the injection plan actually delivered this run.
    pub faults_injected: u64,
    /// Tiles fenced off by quarantine.
    pub quarantined_tiles: u64,
    /// Task-queue entries spilled to the DRAM-backed overflow arena
    /// (admission control's queue virtualization).
    pub spills: u64,
    /// Spilled entries refilled into a task queue as slots drained.
    pub refills: u64,
    /// Refused spawns executed inline on the spawning tile (work-first
    /// degradation), including deadlock-recovery forced inlines.
    pub inline_spawns: u64,
    /// READY entries claimed from sibling queues through the cross-unit
    /// steal port (always 0 with stealing disabled).
    pub steals: u64,
    /// Steal probe rounds that found no eligible entry in any victim
    /// (always 0 with stealing disabled).
    pub steal_fail: u64,
    /// Idle cycles the event-driven core advanced over without executing
    /// an engine iteration (0 when
    /// [`AcceleratorConfig::event_driven`](crate::AcceleratorConfig) is
    /// off, or when a fault plan forces per-cycle stepping). Every skipped
    /// cycle still counts in [`SimStats::cycles`] and is attributed to the
    /// profiler's stall buckets.
    pub skipped_cycles: u64,
    /// Engine-loop iterations actually executed. The accounting invariant
    /// `cycles == engine_events + skipped_cycles` holds on every completed
    /// run; `cycles / engine_events` is the event-driven core's speedup
    /// over stepping.
    pub engine_events: u64,
}

impl SimStats {
    /// Mean spawn-to-dispatch latency in cycles (the paper's ~10-cycle
    /// lightweight-task claim).
    pub fn avg_spawn_latency(&self) -> f64 {
        if self.spawns == 0 {
            0.0
        } else {
            self.total_spawn_latency as f64 / self.spawns as f64
        }
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Return value of the invoked function.
    pub ret: Option<Val>,
    /// Cycles from invocation to completion.
    pub cycles: u64,
    /// Full statistics.
    pub stats: SimStats,
    /// Cycle-attribution profile; present when
    /// [`AcceleratorConfig::profile`](crate::AcceleratorConfig) is not
    /// [`ProfileLevel::Off`].
    pub profile: Option<Profile>,
}

#[derive(Debug, Clone)]
struct NodeState {
    issued: bool,
    done_at: u64,
    value: Option<Val>,
}

impl NodeState {
    fn fresh() -> Self {
        NodeState { issued: false, done_at: u64::MAX, value: None }
    }

    fn done(&self, now: u64) -> bool {
        self.issued && self.done_at <= now
    }
}

/// A task instance's dataflow context (lives on a tile while executing, or
/// saved in its queue entry while waiting on a sync or call).
#[derive(Debug, Clone)]
struct Exec {
    slot: usize,
    /// The unit owning the queue entry this instance was dispatched from.
    /// Equal to the executing tile's unit except for stolen instances,
    /// whose queue bookkeeping (entry, join counters, completion) stays
    /// with the victim while the datapath runs on the thief's tile.
    home: usize,
    block_idx: usize,
    prev_block: Option<BlockId>,
    block_start: u64,
    /// The steal port is still moving this instance's payload until this
    /// cycle (0 for ordinary dispatches); profiled as `steal-stall`.
    steal_until: u64,
    nodes: Vec<NodeState>,
    /// Dense register file: the bound SSA values of the home function,
    /// indexed by `ValueId` ([`TaskUnit::env_len`] slots).
    env: Vec<Option<Val>>,
    /// When resuming from a sync, enter this block instead of continuing.
    resume_block: Option<BlockId>,
}

#[derive(Debug)]
struct QueueEntry {
    args: Vec<Val>,
    /// Spawning parent: `(unit, slot)` — the paper's `ParentID (SID, DyID)`.
    parent: Option<(usize, usize)>,
    /// Serial-call origin: deliver the return value to this node and
    /// resume that instance.
    call_ret: Option<CallRet>,
    /// Outstanding children (the `C#` join counter).
    children: u32,
    waiting_sync: bool,
    saved: Option<Box<Exec>>,
    ready_at: u64,
    spawned_at: u64,
    dispatched_once: bool,
    host: bool,
    via_detach: bool,
    /// Queue-RAM parity mismatch injected on this entry; detected at
    /// dispatch when parity checking is enabled.
    poisoned: bool,
}

#[derive(Debug, Clone, Copy)]
struct CallRet {
    unit: usize,
    slot: usize,
    node: usize,
}

/// One TXU tile plus its fault-tolerance state. Fault-free runs leave the
/// extra fields at their defaults, so the engine behaves exactly as if
/// the tile were a bare `Option<Exec>`.
#[derive(Debug, Default)]
struct Tile {
    exec: Option<Exec>,
    /// The tile is executing a refused spawn inline until this cycle
    /// (admission control); always 0 when admission is off.
    inline_busy_until: u64,
    /// Fenced off by quarantine; never dispatched to again.
    fenced: bool,
    /// Frozen until this cycle by an injected stall (`u64::MAX` = wedged).
    stall_until: u64,
    /// Injected faults absorbed so far (quarantine fences past the budget).
    fault_count: u32,
    /// Cycle of the most recent injected fault, for the watchdog.
    faulted_at: u64,
    /// Waiting for outstanding memory to drain before fencing.
    quarantine_pending: bool,
    /// The unit whose full queue refused this tile's spawn, as `unit + 1`
    /// (see [`Tile::parked_unit`]): two bytes fit the record's padding, so
    /// `Tile` keeps its size. While that queue has no free slot the tile's
    /// state is frozen, so each cycle charges the stall without re-running
    /// the spawn, and the event core does not wake for it. Derived state:
    /// not in snapshots; a restored tile re-parks on its first retry.
    parked_on: Option<NonZeroU16>,
}

impl Tile {
    fn frozen(&self, now: u64) -> bool {
        self.fenced || now < self.stall_until
    }

    fn wedged(&self) -> bool {
        self.stall_until == u64::MAX
    }

    fn accepts_dispatch(&self, now: u64) -> bool {
        self.exec.is_none() && !self.quarantine_pending && !self.frozen(now)
    }

    /// The unit this tile is parked on, if any.
    fn parked_unit(&self) -> Option<usize> {
        self.parked_on.map(|u| usize::from(u.get()) - 1)
    }

    /// Park on `unit`. A unit index too large to pack leaves the tile
    /// unparked, so its spawn retries every cycle.
    fn park_on(&mut self, unit: usize) {
        self.parked_on = u16::try_from(unit + 1).ok().and_then(NonZeroU16::new);
    }
}

/// A spawn the queue could not hold, parked in the DRAM-backed overflow
/// arena. The arena traffic is modeled through the data box; the payload
/// itself is tracked host-side (the modeled 8-byte transfer stands in for
/// bandwidth and latency, not for an argument encoding).
#[derive(Debug)]
struct SpilledEntry {
    args: Vec<Val>,
    parent: Option<(usize, usize)>,
    call_ret: Option<CallRet>,
    via_detach: bool,
    spawned_at: u64,
    /// Arena slot holding the modeled copy; returned to the free pool on
    /// refill or recovery.
    addr: u64,
}

/// A refill in flight: the queue slot is reserved while the arena read
/// travels through the memory system.
#[derive(Debug)]
struct PendingRefill {
    slot: usize,
    entry: SpilledEntry,
}

/// [`TaskUnit::block_index`] entry of a block outside the task.
const NO_BLOCK: usize = usize::MAX;

#[derive(Debug)]
struct TaskUnit {
    name: String,
    func: FuncId,
    dfg: Rc<TaskDfg>,
    /// `BlockId` -> index into `dfg.blocks`; [`NO_BLOCK`] for the
    /// function's blocks that belong to other tasks.
    block_index: Vec<usize>,
    /// Register-file size of the unit's function (`Function::num_values`).
    env_len: usize,
    entries: Vec<Option<QueueEntry>>,
    free: Vec<usize>,
    ready: Vec<usize>, // LIFO: depth-first scheduling bounds queue growth
    tiles: Vec<Tile>,
    port_base: usize,
    stats: UnitStats,
    /// Spilled spawns awaiting a free queue slot, oldest first.
    overflow: std::collections::VecDeque<SpilledEntry>,
    /// At most one refill read outstanding per unit.
    pending_refill: Option<PendingRefill>,
    /// A spawn into this unit was refused this cycle (feeds the
    /// `full_cycles` queue statistic); cleared every cycle.
    spawn_refused: bool,
    /// Live entries holding a parked context (`saved` is set): suspended
    /// on a sync or a call, or re-parked by quarantine. Maintained where
    /// a context parks and where dispatch takes it back.
    parked: usize,
}

impl TaskUnit {
    /// Index of `block` in the unit's DFG, if the block is the task's.
    fn block_idx(&self, block: BlockId) -> Option<usize> {
        self.block_index.get(block.0 as usize).copied().filter(|&i| i != NO_BLOCK)
    }

    /// A fresh register file binding the task's arguments.
    fn arg_env(&self, args: &[Val]) -> Vec<Option<Val>> {
        let mut env = vec![None; self.env_len];
        for (r, &v) in self.dfg.args.iter().zip(args) {
            env[r.0 as usize] = Some(v);
        }
        env
    }

    /// A first-dispatch context for the entry in `slot` of unit `home`
    /// (this unit), entering the DFG's entry block at `start`.
    fn start_exec(&self, slot: usize, home: usize, start: u64, steal_until: u64) -> Exec {
        // invariant: only occupied slots are dispatched or stolen.
        let entry = self.entries[slot].as_ref().expect("dispatched entry exists");
        let block_idx = self.block_idx(self.dfg.entry).expect("entry block inside the task");
        Exec {
            slot,
            home,
            block_idx,
            prev_block: None,
            block_start: start,
            steal_until,
            nodes: vec![NodeState::fresh(); self.dfg.blocks[block_idx].nodes.len()],
            env: self.arg_env(&entry.args),
            resume_block: None,
        }
    }

    /// Live queue entries. Every slot is exactly one of free, reserved by
    /// an in-flight refill, or live, so the count falls out of the free
    /// list without walking the queue.
    fn occupancy(&self) -> usize {
        let live =
            self.entries.len() - self.free.len() - usize::from(self.pending_refill.is_some());
        debug_assert_eq!(live, self.entries.iter().filter(|e| e.is_some()).count());
        live
    }

    /// Live entries with a parked context (see [`TaskUnit::parked`]). A
    /// sync waiter always holds its context, so this counts them too.
    fn parked(&self) -> usize {
        debug_assert!(self.entries.iter().flatten().all(|e| !e.waiting_sync || e.saved.is_some()));
        debug_assert_eq!(
            self.parked,
            self.entries.iter().flatten().filter(|e| e.saved.is_some()).count()
        );
        self.parked
    }

    /// Park a tile's instance back in its queue entry.
    fn park(&mut self, exec: Exec) -> &mut QueueEntry {
        // invariant: a running exec always back-references the queue entry
        // it was dispatched from, and that entry is not freed until the
        // task completes.
        let entry = self.entries[exec.slot].as_mut().expect("running entry exists");
        entry.saved = Some(Box::new(exec));
        self.parked += 1;
        entry
    }
}

/// What an outstanding memory request is for, so responses route to the
/// right consumer. Tile requests carry a live `(tile, node)` target;
/// spill/refill requests belong to a unit's queue-virtualization machinery
/// and leave those fields unused (`usize::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    /// A dataflow load/store issued by a TXU tile.
    Tile,
    /// A queue entry spilling into the overflow arena.
    SpillWrite,
    /// A spilled entry refilling from the overflow arena.
    RefillRead,
}

/// Everything the engine must remember about an outstanding memory
/// request: where its response routes, the request itself (for retries),
/// and the retry bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    kind: ReqKind,
    unit: usize,
    tile: usize,
    node: usize,
    req: MemReq,
    /// Cycle after which the request is considered lost (`u64::MAX` when
    /// no recovery mechanism is armed).
    deadline: u64,
    /// Retries already performed for this access.
    attempts: u32,
}

/// Live profiler state, boxed behind an `Option` so a disabled profiler
/// costs one pointer test per instrumentation site.
#[derive(Debug)]
struct Prof {
    level: ProfileLevel,
    /// `[unit][tile][reason]` cycle counters.
    stalls: Vec<Vec<[u64; 13]>>,
    /// Per-cycle scratch: the tile finished or parked an instance this
    /// cycle (so an empty tile still counts as having worked).
    worked: Vec<Vec<bool>>,
    queues: Vec<QueueOccupancy>,
    /// `[unit][class]` issued-node counters ([`ProfileLevel::Full`] only).
    node_mix: Vec<[u64; 5]>,
    /// Outstanding request id → memory stall class, from data-box grants.
    req_class: HashMap<u64, StallReason>,
}

impl Prof {
    fn new(level: ProfileLevel, units: &[TaskUnit], ntasks: usize) -> Prof {
        Prof {
            level,
            stalls: units.iter().map(|u| vec![[0; 13]; u.tiles.len()]).collect(),
            worked: units.iter().map(|u| vec![false; u.tiles.len()]).collect(),
            queues: units.iter().map(|_| QueueOccupancy::new(ntasks as u32)).collect(),
            node_mix: vec![[0; 5]; units.len()],
            req_class: HashMap::new(),
        }
    }

    fn finish(self, cycles: u64, units: &[TaskUnit]) -> Profile {
        let unit_profiles = units
            .iter()
            .zip(self.stalls)
            .zip(self.queues)
            .zip(self.node_mix)
            .map(|(((u, stalls), q), node_mix)| crate::profile::UnitProfile {
                name: u.name.clone(),
                tiles: stalls.into_iter().map(|s| TileProfile { stalls: s }).collect(),
                queue: QueueSummary {
                    mean_occupancy: q.mean_occupancy(),
                    peak: q.peak(),
                    full_cycles: q.full_cycles(),
                    capacity: q.capacity(),
                },
                node_mix,
            })
            .collect();
        Profile { level: self.level, cycles, units: unit_profiles }
    }
}

fn node_class(op: &NodeOp) -> NodeClass {
    match op {
        NodeOp::Alu(_) | NodeOp::Cmp { .. } | NodeOp::Select | NodeOp::Cast { .. } => {
            NodeClass::IntAlu
        }
        NodeOp::FAlu(_) | NodeOp::FCmp(_) => NodeClass::FloatAlu,
        NodeOp::Load { .. } | NodeOp::Store { .. } | NodeOp::Gep { .. } => NodeClass::Memory,
        NodeOp::Phi { .. } => NodeClass::Control,
        NodeOp::CallSpawn { .. } => NodeClass::Spawn,
    }
}

/// Rank memory stall classes by severity, so a tile with several
/// outstanding requests is charged the most constrained one.
fn mem_severity(r: StallReason) -> u8 {
    match r {
        StallReason::FaultStall => 4,
        StallReason::MshrFull => 3,
        StallReason::DramQueue => 2,
        StallReason::CacheMiss | StallReason::BankConflict => 1,
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Snapshot payload codec. Every dynamic structure the engine owns has an
// encode/decode pair here; collections with nondeterministic iteration
// order (HashMaps) are serialized under sorted keys, and heap-ordered
// collections are captured in their in-memory layout upstream (see
// `DataBoxState`/`MemSystemState`), so encoding is a pure function of the
// simulation state. Decoders validate tags and lengths — a corrupt
// payload becomes a `SimError::Snapshot`, never a panic.

fn enc_val(e: &mut Enc, v: Val) {
    match v {
        Val::Int(x) => {
            e.u8(0);
            e.u64(x);
        }
        Val::F32(x) => {
            e.u8(1);
            e.u32(x.to_bits());
        }
        Val::F64(x) => {
            e.u8(2);
            e.u64(x.to_bits());
        }
    }
}

fn dec_val(d: &mut Dec) -> Result<Val, String> {
    Ok(match d.u8()? {
        0 => Val::Int(d.u64()?),
        1 => Val::F32(f32::from_bits(d.u32()?)),
        2 => Val::F64(f64::from_bits(d.u64()?)),
        t => return Err(format!("bad Val tag {t}")),
    })
}

fn enc_mem_req(e: &mut Enc, r: MemReq) {
    e.u64(r.id.0);
    e.usize(r.port);
    e.u64(r.addr);
    e.u8(r.size);
    e.u8(match r.kind {
        MemOpKind::Read => 0,
        MemOpKind::Write => 1,
    });
    e.u64(r.wdata);
}

fn dec_mem_req(d: &mut Dec) -> Result<MemReq, String> {
    Ok(MemReq {
        id: ReqId(d.u64()?),
        port: d.usize()?,
        addr: d.u64()?,
        size: d.u8()?,
        kind: match d.u8()? {
            0 => MemOpKind::Read,
            1 => MemOpKind::Write,
            t => return Err(format!("bad MemOpKind tag {t}")),
        },
        wdata: d.u64()?,
    })
}

fn enc_mem_resp(e: &mut Enc, r: MemResp) {
    e.u64(r.id.0);
    e.usize(r.port);
    e.u64(r.rdata);
}

fn dec_mem_resp(d: &mut Dec) -> Result<MemResp, String> {
    Ok(MemResp { id: ReqId(d.u64()?), port: d.usize()?, rdata: d.u64()? })
}

/// `(due_cycle, response)` schedules: delayed/pending response queues.
fn enc_resp_schedule(e: &mut Enc, v: &[(u64, MemResp)]) {
    e.usize(v.len());
    for &(at, r) in v {
        e.u64(at);
        enc_mem_resp(e, r);
    }
}

fn dec_resp_schedule(d: &mut Dec) -> Result<Vec<(u64, MemResp)>, String> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((d.u64()?, dec_mem_resp(d)?));
    }
    Ok(out)
}

fn enc_cache(e: &mut Enc, st: &CacheState) {
    e.usize(st.lines.len());
    for &(slot, tag, valid, dirty, lru, fill_done) in &st.lines {
        e.usize(slot);
        e.u64(tag);
        e.bool(valid);
        e.bool(dirty);
        e.u64(lru);
        e.u64(fill_done);
    }
    e.usize(st.mshrs.len());
    for &(line_addr, done_at) in &st.mshrs {
        e.u64(line_addr);
        e.u64(done_at);
    }
    e.u64(st.stats.hits);
    e.u64(st.stats.misses);
    e.u64(st.stats.mshr_merges);
    e.u64(st.stats.rejections);
    e.u64(st.stats.writebacks);
    e.u64(st.tick);
    e.u8(match st.last_outcome {
        None => 255,
        Some(AccessOutcome::Hit) => 0,
        Some(AccessOutcome::MshrMerge) => 1,
        Some(AccessOutcome::Miss) => 2,
        Some(AccessOutcome::RejectMshrFull) => 3,
        Some(AccessOutcome::RejectSetBusy) => 4,
    });
}

fn dec_cache(d: &mut Dec) -> Result<CacheState, String> {
    let nl = d.len()?;
    let mut lines = Vec::with_capacity(nl);
    for _ in 0..nl {
        lines.push((d.usize()?, d.u64()?, d.bool()?, d.bool()?, d.u64()?, d.u64()?));
    }
    let nm = d.len()?;
    let mut mshrs = Vec::with_capacity(nm);
    for _ in 0..nm {
        mshrs.push((d.u64()?, d.u64()?));
    }
    let stats = CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
        mshr_merges: d.u64()?,
        rejections: d.u64()?,
        writebacks: d.u64()?,
    };
    let tick = d.u64()?;
    let last_outcome = match d.u8()? {
        255 => None,
        0 => Some(AccessOutcome::Hit),
        1 => Some(AccessOutcome::MshrMerge),
        2 => Some(AccessOutcome::Miss),
        3 => Some(AccessOutcome::RejectMshrFull),
        4 => Some(AccessOutcome::RejectSetBusy),
        t => return Err(format!("bad AccessOutcome tag {t}")),
    };
    Ok(CacheState { lines, mshrs, stats, tick, last_outcome })
}

/// The image is its length, then only its non-zero pages (index and
/// bytes, ascending), so the encoding costs what the run touched.
fn enc_mem_system(e: &mut Enc, st: &MemSystemState) {
    e.usize(st.len);
    e.usize(st.pages.len());
    for &(index, bytes) in &st.pages {
        e.usize(index);
        e.bytes(bytes);
    }
    enc_cache(e, &st.cache);
    e.usize(st.extra_banks.len());
    for b in &st.extra_banks {
        enc_cache(e, b);
    }
    e.bool(st.l2.is_some());
    if let Some(l2) = &st.l2 {
        enc_cache(e, l2);
    }
    e.u64(st.dram.channel_free_at);
    e.u64(st.dram.reads);
    e.u64(st.dram.writes);
    e.u64(st.dram.busy_cycles);
    e.u64(st.dram.queue_cycles);
    e.u64(st.dram.last_queue_delay);
    e.usize(st.last_bank);
    enc_resp_schedule(e, &st.pending);
}

/// Decode against an accelerator memory of `mem_bytes`: the image length
/// is checked before anything is allocated; the pages' range, order and
/// lengths are checked by [`MemSystem::restore_state`].
fn dec_mem_system<'a>(d: &mut Dec<'a>, mem_bytes: usize) -> Result<MemSystemState<'a>, String> {
    let len = d.usize()?;
    if len != mem_bytes {
        return Err(RestoreError::ImageLength { image: len, mem_bytes }.to_string());
    }
    let np = d.len()?;
    let mut pages = Vec::with_capacity(np);
    for _ in 0..np {
        let index = d.usize()?;
        let bytes = d.bytes().map_err(|e| format!("memory page {index}: {e}"))?;
        pages.push((index, bytes));
    }
    let cache = dec_cache(d)?;
    let nb = d.len()?;
    let mut extra_banks = Vec::with_capacity(nb);
    for _ in 0..nb {
        extra_banks.push(dec_cache(d)?);
    }
    let l2 = if d.bool()? { Some(dec_cache(d)?) } else { None };
    let dram = DramState {
        channel_free_at: d.u64()?,
        reads: d.u64()?,
        writes: d.u64()?,
        busy_cycles: d.u64()?,
        queue_cycles: d.u64()?,
        last_queue_delay: d.u64()?,
    };
    let last_bank = d.usize()?;
    let pending = dec_resp_schedule(d)?;
    Ok(MemSystemState { len, pages, cache, extra_banks, l2, dram, last_bank, pending })
}

fn enc_databox(e: &mut Enc, st: &DataBoxState) {
    e.usize(st.queues.len());
    for q in &st.queues {
        e.usize(q.len());
        for &(req, at) in q {
            enc_mem_req(e, req);
            e.u64(at);
        }
    }
    e.usize(st.rr_next);
    enc_resp_schedule(e, &st.delayed);
    e.u64(st.stats.enqueued);
    e.u64(st.stats.issued);
    e.u64(st.stats.cache_stalls);
    e.u64(st.stats.backpressure);
    e.u64(st.stats.bank_conflicts);
}

fn dec_databox(d: &mut Dec) -> Result<DataBoxState, String> {
    let np = d.len()?;
    let mut queues = Vec::with_capacity(np);
    for _ in 0..np {
        let nq = d.len()?;
        let mut q = Vec::with_capacity(nq);
        for _ in 0..nq {
            q.push((dec_mem_req(d)?, d.u64()?));
        }
        queues.push(q);
    }
    let rr_next = d.usize()?;
    let delayed = dec_resp_schedule(d)?;
    let stats = tapas_mem::DataBoxStats {
        enqueued: d.u64()?,
        issued: d.u64()?,
        cache_stalls: d.u64()?,
        backpressure: d.u64()?,
        bank_conflicts: d.u64()?,
    };
    Ok(DataBoxState { queues, rr_next, delayed, stats })
}

fn enc_exec(e: &mut Enc, x: &Exec) {
    e.usize(x.slot);
    e.usize(x.home);
    e.usize(x.block_idx);
    e.bool(x.prev_block.is_some());
    if let Some(b) = x.prev_block {
        e.u32(b.0);
    }
    e.u64(x.block_start);
    e.u64(x.steal_until);
    e.usize(x.nodes.len());
    for ns in &x.nodes {
        e.bool(ns.issued);
        e.u64(ns.done_at);
        e.bool(ns.value.is_some());
        if let Some(v) = ns.value {
            enc_val(e, v);
        }
    }
    // Bound slots in ascending `ValueId` order.
    e.usize(x.env.iter().flatten().count());
    for (k, v) in x.env.iter().enumerate() {
        if let Some(v) = *v {
            e.u32(k as u32);
            enc_val(e, v);
        }
    }
    e.bool(x.resume_block.is_some());
    if let Some(b) = x.resume_block {
        e.u32(b.0);
    }
}

/// Decode an execution context and check it against the design: its home
/// unit, queue slot and blocks exist, its node states match its block and
/// its register file binds only the home function's values, in ascending
/// order. A corrupt context is an error, never a panic or an allocation
/// sized by a decoded key.
fn dec_exec(d: &mut Dec, units: &[TaskUnit]) -> Result<Exec, String> {
    let slot = d.usize()?;
    let home = d.usize()?;
    let block_idx = d.usize()?;
    let u = units.get(home).ok_or_else(|| format!("context home {home} is not a task unit"))?;
    if slot >= u.entries.len() {
        return Err(format!("context slot {slot} out of range 0..{}", u.entries.len()));
    }
    let blk = u.dfg.blocks.get(block_idx).ok_or_else(|| {
        format!("context block index {block_idx} is not a block of task {}", u.name)
    })?;
    let in_task = |b: BlockId| match u.block_idx(b) {
        Some(_) => Ok(b),
        None => Err(format!("context names block {b} outside task {}", u.name)),
    };
    let prev_block = if d.bool()? { Some(in_task(BlockId(d.u32()?))?) } else { None };
    let block_start = d.u64()?;
    let steal_until = d.u64()?;
    let nn = d.len()?;
    if nn != blk.nodes.len() {
        return Err(format!(
            "context holds {nn} node states, block {} has {}",
            blk.block,
            blk.nodes.len()
        ));
    }
    let mut nodes = Vec::with_capacity(nn);
    for _ in 0..nn {
        let issued = d.bool()?;
        let done_at = d.u64()?;
        let value = if d.bool()? { Some(dec_val(d)?) } else { None };
        nodes.push(NodeState { issued, done_at, value });
    }
    let ne = d.len()?;
    let mut env = vec![None; u.env_len];
    let mut min_key = 0;
    for _ in 0..ne {
        let k = d.u32()? as usize;
        if k >= u.env_len {
            return Err(format!(
                "context env key {k} is not a value of {} (< {})",
                u.name, u.env_len
            ));
        }
        if k < min_key {
            return Err(format!("context env key {k} is not strictly ascending"));
        }
        env[k] = Some(dec_val(d)?);
        min_key = k + 1;
    }
    let resume_block = if d.bool()? { Some(in_task(BlockId(d.u32()?))?) } else { None };
    Ok(Exec {
        slot,
        home,
        block_idx,
        prev_block,
        block_start,
        steal_until,
        nodes,
        env,
        resume_block,
    })
}

fn enc_parent(e: &mut Enc, parent: Option<(usize, usize)>) {
    e.bool(parent.is_some());
    if let Some((u, s)) = parent {
        e.usize(u);
        e.usize(s);
    }
}

fn dec_parent(d: &mut Dec) -> Result<Option<(usize, usize)>, String> {
    Ok(if d.bool()? { Some((d.usize()?, d.usize()?)) } else { None })
}

fn enc_call_ret(e: &mut Enc, cr: Option<CallRet>) {
    e.bool(cr.is_some());
    if let Some(c) = cr {
        e.usize(c.unit);
        e.usize(c.slot);
        e.usize(c.node);
    }
}

fn dec_call_ret(d: &mut Dec) -> Result<Option<CallRet>, String> {
    Ok(if d.bool()? {
        Some(CallRet { unit: d.usize()?, slot: d.usize()?, node: d.usize()? })
    } else {
        None
    })
}

/// The queue invariants the engine's derived counts rely on: slot indices
/// are in range, every slot is exactly one of free, reserved by the
/// pending refill, or live, and the ready list names only live slots.
fn check_queue(
    entries: &[Option<QueueEntry>],
    free: &[usize],
    ready: &[usize],
    pending_refill: Option<usize>,
) -> Result<(), String> {
    let n = entries.len();
    let in_range =
        |s: usize| if s < n { Ok(s) } else { Err(format!("slot {s} out of range 0..{n}")) };
    let mut is_free = vec![false; n];
    for &s in free {
        let s = in_range(s)?;
        if std::mem::replace(&mut is_free[s], true) {
            return Err(format!("free list holds slot {s} twice"));
        }
        if entries[s].is_some() {
            return Err(format!("free slot {s} holds an entry"));
        }
    }
    for &s in ready {
        if entries[in_range(s)?].is_none() {
            return Err(format!("ready slot {s} is empty"));
        }
    }
    if let Some(s) = pending_refill {
        if is_free[in_range(s)?] || entries[s].is_some() {
            return Err(format!("refill slot {s} is not reserved"));
        }
    }
    let live = entries.iter().filter(|e| e.is_some()).count();
    if live + free.len() + usize::from(pending_refill.is_some()) != n {
        return Err("a queue slot is neither free, reserved nor live".into());
    }
    Ok(())
}

/// The links [`Accelerator::deliver_completion`] follows, over queued,
/// spilled and refilling entries: a `parent` names a live entry still
/// counting children, a `call_ret` a live caller parked in its own unit
/// on a block that holds the return node.
fn check_links(units: &[TaskUnit]) -> Result<(), String> {
    let live = |u: usize, s: usize| units.get(u)?.entries.get(s)?.as_ref();
    for (ui, u) in units.iter().enumerate() {
        let queued = u.entries.iter().flatten().map(|e| (e.parent, e.call_ret));
        let spilled = u.overflow.iter().chain(u.pending_refill.as_ref().map(|r| &r.entry));
        for (parent, call_ret) in queued.chain(spilled.map(|e| (e.parent, e.call_ret))) {
            if let Some((pu, ps)) = parent {
                if live(pu, ps).is_none_or(|p| p.children == 0) {
                    return Err(format!(
                        "unit {ui}: parent ({pu}, {ps}) is not a live entry with children"
                    ));
                }
            }
            if let Some(cr) = call_ret {
                let saved = live(cr.unit, cr.slot).and_then(|c| c.saved.as_ref());
                if saved.is_none_or(|x| x.home != cr.unit || cr.node >= x.nodes.len()) {
                    return Err(format!(
                        "unit {ui}: call return ({}, {}) node {} is not in a parked caller's block",
                        cr.unit, cr.slot, cr.node
                    ));
                }
            }
        }
    }
    Ok(())
}

fn enc_entry(e: &mut Enc, q: &QueueEntry) {
    e.usize(q.args.len());
    for &a in &q.args {
        enc_val(e, a);
    }
    enc_parent(e, q.parent);
    enc_call_ret(e, q.call_ret);
    e.u32(q.children);
    e.bool(q.waiting_sync);
    e.bool(q.saved.is_some());
    if let Some(x) = &q.saved {
        enc_exec(e, x);
    }
    e.u64(q.ready_at);
    e.u64(q.spawned_at);
    e.bool(q.dispatched_once);
    e.bool(q.host);
    e.bool(q.via_detach);
    e.bool(q.poisoned);
}

fn dec_entry(d: &mut Dec, units: &[TaskUnit]) -> Result<QueueEntry, String> {
    let na = d.len()?;
    let mut args = Vec::with_capacity(na);
    for _ in 0..na {
        args.push(dec_val(d)?);
    }
    let parent = dec_parent(d)?;
    let call_ret = dec_call_ret(d)?;
    let children = d.u32()?;
    let waiting_sync = d.bool()?;
    let saved = if d.bool()? { Some(Box::new(dec_exec(d, units)?)) } else { None };
    Ok(QueueEntry {
        args,
        parent,
        call_ret,
        children,
        waiting_sync,
        saved,
        ready_at: d.u64()?,
        spawned_at: d.u64()?,
        dispatched_once: d.bool()?,
        host: d.bool()?,
        via_detach: d.bool()?,
        poisoned: d.bool()?,
    })
}

fn enc_spilled(e: &mut Enc, s: &SpilledEntry) {
    e.usize(s.args.len());
    for &a in &s.args {
        enc_val(e, a);
    }
    enc_parent(e, s.parent);
    enc_call_ret(e, s.call_ret);
    e.bool(s.via_detach);
    e.u64(s.spawned_at);
    e.u64(s.addr);
}

fn dec_spilled(d: &mut Dec) -> Result<SpilledEntry, String> {
    let na = d.len()?;
    let mut args = Vec::with_capacity(na);
    for _ in 0..na {
        args.push(dec_val(d)?);
    }
    Ok(SpilledEntry {
        args,
        parent: dec_parent(d)?,
        call_ret: dec_call_ret(d)?,
        via_detach: d.bool()?,
        spawned_at: d.u64()?,
        addr: d.u64()?,
    })
}

fn enc_event(e: &mut Enc, ev: SimEvent) {
    e.u64(ev.cycle);
    e.usize(ev.unit);
    e.usize(ev.slot);
    match ev.kind {
        SimEventKind::Spawned { parent } => {
            e.u8(0);
            enc_parent(e, parent);
        }
        SimEventKind::Dispatched { tile } => {
            e.u8(1);
            e.usize(tile);
        }
        SimEventKind::SyncWait => e.u8(2),
        SimEventKind::CallWait => e.u8(3),
        SimEventKind::Completed => e.u8(4),
        SimEventKind::CacheMiss { addr } => {
            e.u8(5);
            e.u64(addr);
        }
        SimEventKind::Stolen { by, tile } => {
            e.u8(6);
            e.usize(by);
            e.usize(tile);
        }
    }
}

fn dec_event(d: &mut Dec) -> Result<SimEvent, String> {
    let cycle = d.u64()?;
    let unit = d.usize()?;
    let slot = d.usize()?;
    let kind = match d.u8()? {
        0 => SimEventKind::Spawned { parent: dec_parent(d)? },
        1 => SimEventKind::Dispatched { tile: d.usize()? },
        2 => SimEventKind::SyncWait,
        3 => SimEventKind::CallWait,
        4 => SimEventKind::Completed,
        5 => SimEventKind::CacheMiss { addr: d.u64()? },
        6 => SimEventKind::Stolen { by: d.usize()?, tile: d.usize()? },
        t => return Err(format!("bad SimEventKind tag {t}")),
    };
    Ok(SimEvent { cycle, unit, slot, kind })
}

fn enc_req_meta(e: &mut Enc, m: ReqMeta) {
    e.u8(match m.kind {
        ReqKind::Tile => 0,
        ReqKind::SpillWrite => 1,
        ReqKind::RefillRead => 2,
    });
    e.usize(m.unit);
    e.usize(m.tile);
    e.usize(m.node);
    enc_mem_req(e, m.req);
    e.u64(m.deadline);
    e.u32(m.attempts);
}

fn dec_req_meta(d: &mut Dec) -> Result<ReqMeta, String> {
    Ok(ReqMeta {
        kind: match d.u8()? {
            0 => ReqKind::Tile,
            1 => ReqKind::SpillWrite,
            2 => ReqKind::RefillRead,
            t => return Err(format!("bad ReqKind tag {t}")),
        },
        unit: d.usize()?,
        tile: d.usize()?,
        node: d.usize()?,
        req: dec_mem_req(d)?,
        deadline: d.u64()?,
        attempts: d.u32()?,
    })
}

/// Per-run loop control: the values [`Accelerator::run_loop`] threads
/// between iterations but that live outside the architectural state.
/// Snapshots carry these alongside the component state so a resumed loop
/// continues with the exact control values the killed loop held.
#[derive(Debug, Clone, Copy)]
struct RunCtl {
    /// `self.cycle` when the run began (memory persists across runs, so
    /// cycle counting is relative).
    start_cycle: u64,
    /// Last cycle any component made progress (deadlock watchdog).
    last_progress: u64,
    /// Executed-cycle count at which the next periodic snapshot fires
    /// (`u64::MAX` when snapshotting is off).
    next_snapshot: u64,
    /// Executed-cycle count at which the halt test hook fires. Kept out
    /// of `cfg` reads so a resume can disarm a hook that already fired.
    halt_at: Option<u64>,
    /// Profiling or tracing is active (grant log enabled).
    instrumented: bool,
    /// The event-driven core may skip idle windows this run.
    event_driven: bool,
}

/// An elaborated TAPAS accelerator: the module's task units wired to the
/// shared memory system, ready to simulate.
pub struct Accelerator {
    module: Rc<Module>,
    units: Vec<TaskUnit>,
    unit_of: Vec<Vec<usize>>, // [func][task] -> unit
    func_root: Vec<usize>,
    databox: DataBox,
    ms: MemSystem,
    /// One steal port per unit (round-robin victim cursor + counters);
    /// only consulted when [`AcceleratorConfig::steal`] is armed.
    steal_ports: Vec<StealPort>,
    req_map: HashMap<u64, ReqMeta>,
    next_req: u64,
    cycle: u64,
    cfg: AcceleratorConfig,
    spawns: u64,
    calls: u64,
    total_spawn_latency: u64,
    min_spawn_latency: u64,
    host_result: Option<Option<Val>>,
    progress: bool,
    events: Vec<SimEvent>,
    prof: Option<Box<Prof>>,
    /// Injection state, rebuilt from the plan at the start of every run;
    /// `None` when no plan is configured (the fault-free fast path).
    fault_rt: Option<Box<FaultRt>>,
    mem_retries: u64,
    ecc_retries: u64,
    spurious_responses: u64,
    faults_injected: u64,
    quarantined_tiles: u64,
    spills: u64,
    refills: u64,
    inline_spawns: u64,
    skipped_cycles: u64,
    engine_events: u64,
    /// Overflow-arena bounds ([`spill_base`, `spill_limit`) in bytes);
    /// both 0 when queue virtualization is off. Also marks the top of the
    /// program-visible address space for inline execution's bounds checks.
    spill_base: u64,
    spill_limit: u64,
    /// Bump allocator over the arena, with a free list of returned slots.
    spill_next: u64,
    spill_free: Vec<u64>,
    /// Snapshot captured when the `halt_at_cycle` test hook fired,
    /// retrievable once via [`Accelerator::take_halt_snapshot`].
    halt_snapshot: Option<EngineSnapshot>,
    /// Argument vector handed back by the last refused spawn, reused by
    /// the next one ([`Accelerator::spawn_args`]).
    arg_buf: Vec<Val>,
}

impl std::fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accelerator")
            .field("units", &self.units.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl Accelerator {
    /// Instantiate an accelerator for every function of `module` from its
    /// Stage 1–2 output (`tapas_dfg::lower_module`'s graphs and dataflows):
    /// bind the Stage 3 parameters in `cfg` by building queues, tiles, the
    /// data box and memory.
    pub fn elaborate(
        module: &Module,
        graphs: &[TaskGraph],
        dfgs: &[Vec<TaskDfg>],
        cfg: &AcceleratorConfig,
    ) -> Self {
        let mut units = Vec::new();
        let mut unit_of = Vec::with_capacity(graphs.len());
        let mut func_root = Vec::new();
        let mut port_base = 0usize;
        for (graph, dfgs) in graphs.iter().zip(dfgs) {
            func_root.push(units.len());
            let mut task_unit = vec![usize::MAX; graph.tasks.len()];
            let func = module.function(graph.func);
            for dfg in dfgs {
                let tid = dfg.task;
                let name = graph.task(tid).name.clone();
                let tiles = cfg.tiles_for(&name);
                task_unit[tid.0 as usize] = units.len();
                let mut block_index = vec![NO_BLOCK; func.num_blocks()];
                for (i, b) in dfg.blocks.iter().enumerate() {
                    block_index[b.block.0 as usize] = i;
                }
                let ports = tiles * dfg.mem_ports;
                units.push(TaskUnit {
                    stats: UnitStats { name: name.clone(), tiles, ..UnitStats::default() },
                    name,
                    func: graph.func,
                    dfg: Rc::new(dfg.clone()),
                    block_index,
                    env_len: func.num_values(),
                    entries: (0..cfg.ntasks).map(|_| None).collect(),
                    free: (0..cfg.ntasks).rev().collect(),
                    ready: Vec::new(),
                    tiles: (0..tiles).map(|_| Tile::default()).collect(),
                    port_base,
                    overflow: std::collections::VecDeque::new(),
                    pending_refill: None,
                    spawn_refused: false,
                    parked: 0,
                });
                port_base += ports;
            }
            unit_of.push(task_unit);
        }
        let databox =
            DataBox::new(DataBoxConfig { ports: port_base.max(1), ..cfg.databox.clone() });
        let mut ms = match &cfg.l2 {
            Some(l2) => {
                MemSystem::with_l2(cfg.mem_bytes, cfg.cache.clone(), l2.clone(), cfg.dram.clone())
            }
            None => MemSystem::new(cfg.mem_bytes, cfg.cache.clone(), cfg.dram.clone()),
        };
        // Split the L1 into address-interleaved banks; `1` is a no-op that
        // keeps the seed cache bit-identical.
        ms.split_banks(cfg.l1_banks);
        // Queue virtualization parks overflow entries in a DRAM region
        // above the program's declared footprint; reserving it here keeps
        // the address map stable across runs.
        let (spill_base, spill_limit) = match &cfg.admission {
            Some(a) if a.spill => {
                let bytes = a.overflow_entries * 8;
                let base = ms.reserve_overflow(bytes);
                (base, base + bytes as u64)
            }
            _ => (0, 0),
        };
        let steal_ports = (0..units.len()).map(|_| StealPort::new()).collect();
        Accelerator {
            module: Rc::new(module.clone()),
            units,
            unit_of,
            func_root,
            databox,
            ms,
            steal_ports,
            req_map: HashMap::new(),
            next_req: 0,
            cycle: 0,
            cfg: cfg.clone(),
            spawns: 0,
            calls: 0,
            total_spawn_latency: 0,
            min_spawn_latency: u64::MAX,
            host_result: None,
            progress: false,
            events: Vec::new(),
            prof: None,
            fault_rt: None,
            mem_retries: 0,
            ecc_retries: 0,
            spurious_responses: 0,
            faults_injected: 0,
            quarantined_tiles: 0,
            spills: 0,
            refills: 0,
            inline_spawns: 0,
            skipped_cycles: 0,
            engine_events: 0,
            spill_base,
            spill_limit,
            spill_next: spill_base,
            spill_free: Vec::new(),
            halt_snapshot: None,
            arg_buf: Vec::new(),
        }
    }

    /// Drain the recorded task-level event trace (empty unless
    /// `record_events` was enabled in the configuration).
    pub fn take_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    fn record(&mut self, cycle: u64, unit: usize, slot: usize, kind: SimEventKind) {
        if self.tracing() {
            self.events.push(SimEvent { cycle, unit, slot, kind });
        }
    }

    /// Whether task-level events are being recorded (explicitly, or
    /// implied by a trace path).
    fn tracing(&self) -> bool {
        self.cfg.record_events || self.cfg.trace_path.is_some()
    }

    /// Render the recorded event trace in the Chrome `chrome://tracing`
    /// trace-event JSON format (see [`crate::profile::chrome_trace`]).
    /// Empty unless events were recorded.
    pub fn chrome_trace(&self) -> String {
        crate::profile::chrome_trace(&self.events, &self.unit_names())
    }

    /// The accelerator's shared memory.
    pub fn mem(&self) -> &MemSystem {
        &self.ms
    }

    /// Mutable access to the shared memory (host-side initialization).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.ms
    }

    /// Number of task units in the design.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Names of all task units, in elaboration order.
    pub fn unit_names(&self) -> Vec<String> {
        self.units.iter().map(|u| u.name.clone()).collect()
    }

    /// Invoke `func` with `args` and simulate to completion.
    ///
    /// Can be called repeatedly; memory contents persist across runs while
    /// cycle counting restarts (the cache keeps its state — use
    /// [`MemSystem::cache`] `flush` for cold-cache runs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on cycle-budget exhaustion or functional faults.
    pub fn run(&mut self, func: FuncId, args: &[Val]) -> Result<SimOutcome, SimError> {
        let root_unit = self.func_root[func.0 as usize];
        self.host_result = None;
        self.prof = match self.cfg.profile {
            ProfileLevel::Off => None,
            level => Some(Box::new(Prof::new(level, &self.units, self.cfg.ntasks))),
        };
        let instrumented = self.prof.is_some() || self.tracing();
        self.databox.set_grant_log(instrumented);
        // Rebuild injection state from the plan every run so repeated runs
        // observe the same fault sequence, and reset recovery bookkeeping.
        self.fault_rt = self.cfg.faults.as_ref().filter(|p| !p.is_empty()).map(|p| {
            let geometry: Vec<usize> = self.units.iter().map(|u| u.tiles.len()).collect();
            Box::new(FaultRt::new(p, &geometry))
        });
        self.mem_retries = 0;
        self.ecc_retries = 0;
        self.spurious_responses = 0;
        self.faults_injected = 0;
        self.quarantined_tiles = 0;
        self.spills = 0;
        self.refills = 0;
        self.inline_spawns = 0;
        self.skipped_cycles = 0;
        self.engine_events = 0;
        // Fault plans inject per-cycle (tile stalls, response draws), so a
        // faulted run steps every cycle; the fault-free path may skip.
        let event_driven = self.cfg.event_driven && self.fault_rt.is_none();
        for p in &mut self.steal_ports {
            *p = StealPort::new();
        }
        for u in &mut self.units {
            for t in &mut u.tiles {
                t.fenced = false;
                t.stall_until = 0;
                t.fault_count = 0;
                t.faulted_at = 0;
                t.quarantine_pending = false;
                t.inline_busy_until = 0;
                t.parked_on = None;
            }
        }
        if self.cfg.admission.is_some() {
            self.spill_next = self.spill_base;
            self.spill_free.clear();
            for u in &mut self.units {
                u.overflow.clear();
                if let Some(r) = u.pending_refill.take() {
                    u.free.push(r.slot);
                }
                u.spawn_refused = false;
            }
        }
        let start_cycle = self.cycle;
        let slot = self
            .alloc_entry(root_unit, args.to_vec(), None, None, self.cycle, true, false)
            .map_err(|_| SimError::QueueFull)?;
        let _ = slot;
        self.run_loop(RunCtl {
            start_cycle,
            last_progress: self.cycle,
            next_snapshot: self.cfg.snapshot.as_ref().map_or(u64::MAX, |s| s.every),
            halt_at: self.cfg.halt_at_cycle,
            instrumented,
            event_driven,
        })
    }

    /// The engine's cycle loop plus the end-of-run statistics, shared by
    /// [`Accelerator::run`] (fresh `RunCtl`) and [`Accelerator::resume`]
    /// (`RunCtl` decoded from a snapshot). Each iteration starts at a
    /// snapshot boundary: no cycle's work is half-done, so the state
    /// captured here restores to a byte-identical continuation.
    fn run_loop(&mut self, ctl: RunCtl) -> Result<SimOutcome, SimError> {
        let RunCtl { start_cycle, mut last_progress, mut next_snapshot, halt_at, .. } = ctl;
        let (instrumented, event_driven) = (ctl.instrumented, ctl.event_driven);
        while self.host_result.is_none() {
            let done = self.cycle - start_cycle;
            if done >= next_snapshot {
                // Advance the schedule *before* capturing so the stored
                // `next_snapshot` is the post-write value: a resumed run
                // re-snapshots at the following boundary, not this one.
                let sc = self.cfg.snapshot.clone().expect("next_snapshot finite only with config");
                while next_snapshot <= done {
                    next_snapshot += sc.every;
                }
                let snap = self.capture_snapshot(RunCtl {
                    start_cycle,
                    last_progress,
                    next_snapshot,
                    halt_at,
                    instrumented,
                    event_driven,
                });
                snap.write_atomic(&sc.path).map_err(|e| SimError::Snapshot(e.to_string()))?;
            }
            if halt_at.is_some_and(|h| done >= h) {
                // The chaos harness's deterministic "kill": capture in
                // memory (no disk round-trip) and stop mid-simulation.
                self.halt_snapshot = Some(self.capture_snapshot(RunCtl {
                    start_cycle,
                    last_progress,
                    next_snapshot,
                    halt_at,
                    instrumented,
                    event_driven,
                }));
                return Err(SimError::Halted { at: self.cycle });
            }
            let now = self.cycle;
            if self.fault_rt.is_some() {
                self.apply_tile_faults(now);
                self.process_quarantines(now)?;
            }
            if let Err(fault) = self.databox.tick(now, &mut self.ms) {
                let meta = self.req_map.get(&fault.req.id.0).copied();
                return Err(SimError::Memory {
                    unit: meta.map(|m| self.units[m.unit].name.clone()),
                    tile: meta.map(|m| m.tile),
                    fault: fault.err,
                });
            }
            if instrumented {
                self.classify_grants(now);
            }
            for resp in self.databox.pop_responses(now) {
                self.route_with_faults(resp, now);
            }
            if self.fault_rt.is_some() {
                self.deliver_delayed(now);
                self.scan_retries(now)?;
            }
            if self.cfg.admission.is_some() {
                self.pump_refills(now);
            }
            for u in 0..self.units.len() {
                self.dispatch(u, now)?;
            }
            // Steal probes run strictly after every unit's own dispatch:
            // the owner wins a same-cycle pop/steal race by construction,
            // and an entry can never dispatch twice in one cycle.
            if self.cfg.steal.is_some() {
                self.steal_pass(now);
            }
            for u in 0..self.units.len() {
                for t in 0..self.units[u].tiles.len() {
                    self.advance_tile(u, t, now)?;
                }
            }
            if self.fault_rt.is_some() {
                self.check_watchdog(now)?;
            }
            if self.prof.is_some() {
                self.attribute_cycle(now);
            }
            let prof = self.prof.as_deref_mut();
            let mut queues = prof.map(|p| p.queues.iter_mut());
            for u in &mut self.units {
                let occ = u.occupancy();
                let refused = std::mem::take(&mut u.spawn_refused);
                u.stats.queue_peak = u.stats.queue_peak.max(occ);
                u.stats.busy_tile_cycles +=
                    u.tiles.iter().filter(|t| t.exec.is_some()).count() as u64;
                if let Some(qs) = queues.as_mut() {
                    // invariant: the profiler allocates exactly one
                    // accumulator per unit before the loop starts.
                    qs.next()
                        .expect("one occupancy accumulator per unit")
                        .observe_spawns(occ as u32, refused);
                }
            }
            if self.progress || self.ms.has_pending() {
                last_progress = now;
                self.progress = false;
            } else {
                let stalled = now - last_progress;
                let recover = self.cfg.admission.is_some_and(|a| stalled > a.recovery_window);
                if recover && self.recover_blocked_spawn(now)? {
                    last_progress = now;
                } else if stalled > DEADLOCK_STALL_CYCLES {
                    return Err(SimError::Deadlock {
                        at: now,
                        diagnosis: Box::new(self.diagnose_deadlock(now)),
                    });
                }
            }
            self.cycle += 1;
            self.engine_events += 1;
            if self.cycle - start_cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimit(self.cfg.max_cycles));
            }
            // Event-driven advance: when every component is quiescent, the
            // stepped engine would execute identical no-op iterations until
            // the earliest pending event. Jump the cycle counter straight
            // there, bulk-applying the per-cycle bookkeeping those idle
            // iterations would have done. `self.progress` can only still be
            // true here after a successful deadlock recovery, whose carried
            // flag feeds the *next* iteration's progress check — step it.
            // Once the root task has produced the host result the loop is
            // about to exit; advancing past that point would inflate the
            // final cycle count.
            if event_driven && !self.progress && self.host_result.is_none() {
                let target = self
                    .next_event_cycle(now, last_progress)
                    .min(start_cycle.saturating_add(self.cfg.max_cycles));
                if target > self.cycle {
                    let skipped = target - self.cycle;
                    self.skipped_cycles += skipped;
                    for u in &mut self.units {
                        let busy = u.tiles.iter().filter(|t| t.exec.is_some()).count() as u64;
                        u.stats.busy_tile_cycles += busy * skipped;
                    }
                    // A parked spawner is refused on every skipped cycle:
                    // its queue stays full through the window.
                    for ui in 0..self.units.len() {
                        for t in 0..self.units[ui].tiles.len() {
                            if let Some(cu) = self.units[ui].tiles[t].parked_unit() {
                                debug_assert!(self.units[cu].free.is_empty());
                                self.units[cu].stats.spawn_stalls += skipped;
                            }
                        }
                    }
                    if self.prof.is_some() {
                        self.attribute_skipped(skipped);
                    }
                    // The stepped engine refreshes `last_progress` every
                    // cycle while memory is in flight; replicate the value
                    // it would hold entering the target iteration.
                    if self.ms.has_pending() {
                        last_progress = target - 1;
                    }
                    self.cycle = target;
                }
            }
        }
        let cycles = self.cycle - start_cycle;
        let stats = SimStats {
            cycles,
            spawns: self.spawns,
            calls: self.calls,
            total_spawn_latency: self.total_spawn_latency,
            min_spawn_latency: (self.min_spawn_latency != u64::MAX)
                .then_some(self.min_spawn_latency),
            units: self.units.iter().map(|u| u.stats.clone()).collect(),
            cache: self.ms.l1_stats(),
            dram_reads: self.ms.dram.reads,
            dram_writes: self.ms.dram.writes,
            databox_issued: self.databox.stats().issued,
            cache_stalls: self.databox.stats().cache_stalls,
            bank_conflicts: self.databox.stats().bank_conflicts,
            mem_retries: self.mem_retries,
            ecc_retries: self.ecc_retries,
            spurious_responses: self.spurious_responses,
            faults_injected: self.faults_injected,
            quarantined_tiles: self.quarantined_tiles,
            spills: self.spills,
            refills: self.refills,
            inline_spawns: self.inline_spawns,
            steals: self.steal_ports.iter().map(|p| p.steals).sum(),
            steal_fail: self.steal_ports.iter().map(|p| p.failures).sum(),
            skipped_cycles: self.skipped_cycles,
            engine_events: self.engine_events,
        };
        debug_assert_eq!(cycles, stats.engine_events + stats.skipped_cycles);
        let profile = self.prof.take().map(|p| p.finish(cycles, &self.units));
        if let Some(path) = self.cfg.trace_path.clone() {
            let trace = self.chrome_trace();
            std::fs::write(&path, trace)
                .map_err(|e| SimError::Trace(format!("{}: {e}", path.display())))?;
        }
        Ok(SimOutcome { ret: self.host_result.take().flatten(), cycles, stats, profile })
    }

    /// Restore `snap` into this accelerator and run to completion.
    ///
    /// The accelerator must be elaborated from the same module with the
    /// same configuration — the snapshot's fingerprint enforces this,
    /// deliberately excluding the `snapshot` and `halt_at_cycle` knobs
    /// (a kill-run and its resume-run differ in exactly those). The
    /// returned outcome — cycles, statistics, profile, event trace — is
    /// byte-identical to what the uninterrupted run would have produced.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] when the fingerprint does not match or the
    /// payload fails to decode; otherwise whatever the continued
    /// simulation reports.
    pub fn resume(&mut self, snap: &EngineSnapshot) -> Result<SimOutcome, SimError> {
        let ctl = self.restore_snapshot(snap)?;
        self.run_loop(ctl)
    }

    /// The in-memory snapshot captured when the
    /// [`halt_at_cycle`](crate::AcceleratorConfig::halt_at_cycle) hook
    /// fired (consumed on first call).
    pub fn take_halt_snapshot(&mut self) -> Option<EngineSnapshot> {
        self.halt_snapshot.take()
    }

    /// Hash of everything the snapshot payload's meaning depends on: the
    /// elaborated geometry, every dataflow node's latency (the toolchain's
    /// latency model as compiled into the design) and the configuration,
    /// excluding the `snapshot`/`halt_at_cycle` knobs themselves so the
    /// kill-run and its resume-run fingerprint identically.
    fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "v{};", crate::snapshot::SNAPSHOT_VERSION);
        for u in &self.units {
            let lat: Vec<u32> =
                u.dfg.blocks.iter().flat_map(|b| &b.nodes).map(|n| n.latency).collect();
            let _ = write!(
                s,
                "unit {} func={} entries={} tiles={} blocks={} ports@{} lat={lat:?};",
                u.name,
                u.func.0,
                u.entries.len(),
                u.tiles.len(),
                u.dfg.blocks.len(),
                u.port_base
            );
        }
        let _ = write!(s, "spill {}..{};", self.spill_base, self.spill_limit);
        // HashMap iteration order varies between processes; render the
        // overrides sorted and factor them out of the `Debug` rendering
        // below, which is otherwise deterministic.
        let mut overrides: Vec<(&String, &usize)> = self.cfg.tile_overrides.iter().collect();
        overrides.sort();
        let _ = write!(s, "overrides {overrides:?};");
        let mut cfg = self.cfg.clone();
        cfg.tile_overrides = HashMap::new();
        cfg.snapshot = None;
        cfg.halt_at_cycle = None;
        let _ = write!(s, "cfg {cfg:?}");
        crate::snapshot::fnv64(s.as_bytes())
    }

    /// Capture every piece of clocked state into a snapshot. Called only
    /// at the top of a `run_loop` iteration, where no cycle's work is
    /// half-done: the grant log is drained, per-tick scratch is clear,
    /// the profiler's `worked` flags are all false, and `host_result` is
    /// still pending.
    fn capture_snapshot(&self, ctl: RunCtl) -> EngineSnapshot {
        let mut e = Enc::default();
        e.u64(ctl.start_cycle);
        e.u64(ctl.last_progress);
        e.u64(ctl.next_snapshot);
        e.u64(self.next_req);
        e.u64(self.spawns);
        e.u64(self.calls);
        e.u64(self.total_spawn_latency);
        e.u64(self.min_spawn_latency);
        e.bool(self.progress);
        e.u64(self.mem_retries);
        e.u64(self.ecc_retries);
        e.u64(self.spurious_responses);
        e.u64(self.faults_injected);
        e.u64(self.quarantined_tiles);
        e.u64(self.spills);
        e.u64(self.refills);
        e.u64(self.inline_spawns);
        e.u64(self.skipped_cycles);
        e.u64(self.engine_events);
        e.u64(self.spill_next);
        e.usize(self.spill_free.len());
        for &a in &self.spill_free {
            e.u64(a);
        }
        e.usize(self.units.len());
        for u in &self.units {
            e.usize(u.entries.len());
            for entry in &u.entries {
                e.bool(entry.is_some());
                if let Some(q) = entry {
                    enc_entry(&mut e, q);
                }
            }
            e.usize(u.free.len());
            for &s in &u.free {
                e.usize(s);
            }
            e.usize(u.ready.len());
            for &s in &u.ready {
                e.usize(s);
            }
            e.usize(u.tiles.len());
            for t in &u.tiles {
                e.bool(t.exec.is_some());
                if let Some(x) = &t.exec {
                    enc_exec(&mut e, x);
                }
                e.u64(t.inline_busy_until);
                e.bool(t.fenced);
                e.u64(t.stall_until);
                e.u32(t.fault_count);
                e.u64(t.faulted_at);
                e.bool(t.quarantine_pending);
            }
            e.u64(u.stats.tasks_executed);
            e.u64(u.stats.busy_tile_cycles);
            e.u64(u.stats.spawn_stalls);
            e.usize(u.stats.queue_peak);
            e.usize(u.overflow.len());
            for s in &u.overflow {
                enc_spilled(&mut e, s);
            }
            e.bool(u.pending_refill.is_some());
            if let Some(r) = &u.pending_refill {
                e.usize(r.slot);
                enc_spilled(&mut e, &r.entry);
            }
            e.bool(u.spawn_refused);
        }
        for p in &self.steal_ports {
            let st = p.save_state();
            e.usize(st.cursor);
            e.u64(st.steals);
            e.u64(st.failures);
        }
        let mut ids: Vec<u64> = self.req_map.keys().copied().collect();
        ids.sort_unstable();
        e.usize(ids.len());
        for id in ids {
            e.u64(id);
            enc_req_meta(&mut e, self.req_map[&id]);
        }
        enc_mem_system(&mut e, &self.ms.save_state());
        enc_databox(&mut e, &self.databox.save_state());
        e.usize(self.events.len());
        for &ev in &self.events {
            enc_event(&mut e, ev);
        }
        e.bool(self.prof.is_some());
        if let Some(p) = self.prof.as_deref() {
            e.u8(match p.level {
                ProfileLevel::Off => 0,
                ProfileLevel::Summary => 1,
                ProfileLevel::Full => 2,
            });
            for unit in &p.stalls {
                for tile in unit {
                    for &c in tile {
                        e.u64(c);
                    }
                }
            }
            for q in &p.queues {
                let st = q.save_state();
                e.u64(st.samples);
                e.u64(st.total);
                e.u32(st.peak);
                e.u64(st.full_cycles);
                e.u32(st.capacity);
            }
            for mix in &p.node_mix {
                for &c in mix {
                    e.u64(c);
                }
            }
            let mut rids: Vec<u64> = p.req_class.keys().copied().collect();
            rids.sort_unstable();
            e.usize(rids.len());
            for id in rids {
                e.u64(id);
                e.u8(p.req_class[&id] as u8);
            }
        }
        e.bool(self.fault_rt.is_some());
        if let Some(rt) = self.fault_rt.as_deref() {
            let pos = rt.save_position();
            e.usize(pos.next_tile_fault);
            e.u64(pos.resp_seen);
            e.u64(pos.spawn_seen);
            enc_resp_schedule(&mut e, &pos.delayed);
        }
        EngineSnapshot { fingerprint: self.fingerprint(), cycle: self.cycle, payload: e.buf }
    }

    /// Verify `snap` against this design and overwrite every piece of
    /// dynamic state with the snapshot's, returning the loop control to
    /// continue with.
    fn restore_snapshot(&mut self, snap: &EngineSnapshot) -> Result<RunCtl, SimError> {
        let expected = self.fingerprint();
        if snap.fingerprint != expected {
            let e = SnapshotError::Fingerprint { expected, found: snap.fingerprint };
            return Err(SimError::Snapshot(e.to_string()));
        }
        self.restore_payload(snap)
            .map_err(|e| SimError::Snapshot(format!("at cycle {}: {e}", snap.cycle)))
    }

    fn restore_payload(&mut self, snap: &EngineSnapshot) -> Result<RunCtl, String> {
        let mut d = Dec::new(&snap.payload);
        let start_cycle = d.u64()?;
        let last_progress = d.u64()?;
        // The stored schedule position only binds when the *resuming*
        // configuration still arms periodic snapshots (possibly at a
        // different interval or path); resuming without them must not
        // inherit a finite boundary. Re-derive from the current config:
        // the next `every`-multiple strictly beyond the captured point.
        let stored_next = d.u64()?;
        let next_snapshot = match self.cfg.snapshot.as_ref() {
            Some(sc) => {
                let done = snap.cycle.saturating_sub(start_cycle);
                let mut next = stored_next.min(sc.every);
                while next <= done {
                    next = next.saturating_add(sc.every);
                }
                next
            }
            None => u64::MAX,
        };
        self.next_req = d.u64()?;
        self.spawns = d.u64()?;
        self.calls = d.u64()?;
        self.total_spawn_latency = d.u64()?;
        self.min_spawn_latency = d.u64()?;
        self.progress = d.bool()?;
        self.mem_retries = d.u64()?;
        self.ecc_retries = d.u64()?;
        self.spurious_responses = d.u64()?;
        self.faults_injected = d.u64()?;
        self.quarantined_tiles = d.u64()?;
        self.spills = d.u64()?;
        self.refills = d.u64()?;
        self.inline_spawns = d.u64()?;
        self.skipped_cycles = d.u64()?;
        self.engine_events = d.u64()?;
        self.spill_next = d.u64()?;
        let nf = d.len()?;
        self.spill_free = (0..nf).map(|_| d.u64()).collect::<Result<_, _>>()?;
        let nu = d.len()?;
        if nu != self.units.len() {
            return Err(format!("snapshot has {nu} task units, design has {}", self.units.len()));
        }
        for ui in 0..nu {
            let ne = d.len()?;
            if ne != self.units[ui].entries.len() {
                return Err(format!(
                    "unit {ui}: snapshot has {ne} queue entries, design has {}",
                    self.units[ui].entries.len()
                ));
            }
            let mut entries = Vec::with_capacity(ne);
            for _ in 0..ne {
                entries.push(if d.bool()? { Some(dec_entry(&mut d, &self.units)?) } else { None });
            }
            let nfree = d.len()?;
            let free = (0..nfree).map(|_| d.usize()).collect::<Result<Vec<_>, _>>()?;
            let nready = d.len()?;
            let ready = (0..nready).map(|_| d.usize()).collect::<Result<Vec<_>, _>>()?;
            let nt = d.len()?;
            if nt != self.units[ui].tiles.len() {
                return Err(format!(
                    "unit {ui}: snapshot has {nt} tiles, design has {}",
                    self.units[ui].tiles.len()
                ));
            }
            let mut tiles = Vec::with_capacity(nt);
            for _ in 0..nt {
                let exec = if d.bool()? { Some(dec_exec(&mut d, &self.units)?) } else { None };
                tiles.push(Tile {
                    exec,
                    inline_busy_until: d.u64()?,
                    fenced: d.bool()?,
                    stall_until: d.u64()?,
                    fault_count: d.u32()?,
                    faulted_at: d.u64()?,
                    quarantine_pending: d.bool()?,
                    parked_on: None,
                });
            }
            let tasks_executed = d.u64()?;
            let busy_tile_cycles = d.u64()?;
            let spawn_stalls = d.u64()?;
            let queue_peak = d.usize()?;
            let no = d.len()?;
            let mut overflow = std::collections::VecDeque::with_capacity(no);
            for _ in 0..no {
                overflow.push_back(dec_spilled(&mut d)?);
            }
            let pending_refill = if d.bool()? {
                Some(PendingRefill { slot: d.usize()?, entry: dec_spilled(&mut d)? })
            } else {
                None
            };
            let spawn_refused = d.bool()?;
            check_queue(&entries, &free, &ready, pending_refill.as_ref().map(|r| r.slot))
                .map_err(|e| format!("unit {ui}: {e}"))?;
            let u = &mut self.units[ui];
            u.parked = entries.iter().flatten().filter(|e| e.saved.is_some()).count();
            u.entries = entries;
            u.free = free;
            u.ready = ready;
            u.tiles = tiles;
            u.stats.tasks_executed = tasks_executed;
            u.stats.busy_tile_cycles = busy_tile_cycles;
            u.stats.spawn_stalls = spawn_stalls;
            u.stats.queue_peak = queue_peak;
            u.overflow = overflow;
            u.pending_refill = pending_refill;
            u.spawn_refused = spawn_refused;
        }
        check_links(&self.units)?;
        for p in &mut self.steal_ports {
            let st = StealPortState { cursor: d.usize()?, steals: d.u64()?, failures: d.u64()? };
            p.restore_state(&st);
        }
        let nr = d.len()?;
        self.req_map = HashMap::with_capacity(nr);
        for _ in 0..nr {
            let id = d.u64()?;
            let meta = dec_req_meta(&mut d)?;
            self.req_map.insert(id, meta);
        }
        let ms_state = dec_mem_system(&mut d, self.ms.size())?;
        self.ms.restore_state(ms_state).map_err(|e| e.to_string())?;
        let db_state = dec_databox(&mut d)?;
        self.databox.restore_state(&db_state)?;
        let nev = d.len()?;
        let mut events = Vec::with_capacity(nev);
        for _ in 0..nev {
            events.push(dec_event(&mut d)?);
        }
        self.events = events;
        self.prof = if d.bool()? {
            let level = match d.u8()? {
                0 => ProfileLevel::Off,
                1 => ProfileLevel::Summary,
                2 => ProfileLevel::Full,
                t => return Err(format!("bad ProfileLevel tag {t}")),
            };
            let mut p = Box::new(Prof::new(level, &self.units, self.cfg.ntasks));
            for unit in &mut p.stalls {
                for tile in unit {
                    for c in tile.iter_mut() {
                        *c = d.u64()?;
                    }
                }
            }
            for q in &mut p.queues {
                let st = QueueOccupancyState {
                    samples: d.u64()?,
                    total: d.u64()?,
                    peak: d.u32()?,
                    full_cycles: d.u64()?,
                    capacity: d.u32()?,
                };
                q.restore_state(&st);
            }
            for mix in &mut p.node_mix {
                for c in mix.iter_mut() {
                    *c = d.u64()?;
                }
            }
            let nc = d.len()?;
            for _ in 0..nc {
                let id = d.u64()?;
                let idx = d.u8()? as usize;
                let class = *StallReason::ALL
                    .get(idx)
                    .ok_or_else(|| format!("bad StallReason tag {idx}"))?;
                p.req_class.insert(id, class);
            }
            Some(p)
        } else {
            None
        };
        // The fault *plan* is configuration: rebuild the runtime from it
        // exactly as `run` does, then re-position the schedule.
        self.fault_rt = self.cfg.faults.as_ref().filter(|p| !p.is_empty()).map(|p| {
            let geometry: Vec<usize> = self.units.iter().map(|u| u.tiles.len()).collect();
            Box::new(FaultRt::new(p, &geometry))
        });
        if d.bool()? {
            let pos = crate::fault::FaultRtPosition {
                next_tile_fault: d.usize()?,
                resp_seen: d.u64()?,
                spawn_seen: d.u64()?,
                delayed: dec_resp_schedule(&mut d)?,
            };
            let rt = self.fault_rt.as_deref_mut().ok_or_else(|| {
                "snapshot has a fault-schedule position but no fault plan is configured".to_string()
            })?;
            rt.restore_position(&pos);
        } else if self.fault_rt.is_some() {
            return Err(
                "snapshot has no fault-schedule position but a fault plan is configured".into()
            );
        }
        d.finish()?;
        self.cycle = snap.cycle;
        self.host_result = None;
        self.halt_snapshot = None;
        let instrumented = self.prof.is_some() || self.tracing();
        self.databox.set_grant_log(instrumented);
        let event_driven = self.cfg.event_driven && self.fault_rt.is_none();
        Ok(RunCtl {
            start_cycle,
            last_progress,
            next_snapshot,
            // A halt hook at or before the restored point already fired
            // in the run that produced this snapshot; don't re-fire it.
            halt_at: self.cfg.halt_at_cycle.filter(|&h| h > snap.cycle.saturating_sub(start_cycle)),
            instrumented,
            event_driven,
        })
    }

    /// Fold this cycle's data-box grant log into the profiler's
    /// per-request stall classes and the event trace (cache misses).
    fn classify_grants(&mut self, now: u64) {
        for g in self.databox.take_grant_log() {
            let class = match g.class {
                GrantClass::Hit => StallReason::WaitingDatabox,
                GrantClass::Miss => StallReason::CacheMiss,
                GrantClass::MissDramQueued => StallReason::DramQueue,
                GrantClass::Rejected => StallReason::MshrFull,
                GrantClass::BankConflict => StallReason::BankConflict,
            };
            if let Some(p) = self.prof.as_deref_mut() {
                p.req_class.insert(g.id.0, class);
            }
            if matches!(g.class, GrantClass::Miss | GrantClass::MissDramQueued) && self.tracing() {
                if let Some(t) =
                    self.req_map.get(&g.id.0).copied().filter(|t| t.kind == ReqKind::Tile)
                {
                    // Key the trace event by the owning (home) unit so it
                    // lands on the same track as the task's exec span even
                    // when a stolen instance misses from a foreign tile.
                    let target =
                        self.units[t.unit].tiles[t.tile].exec.as_ref().map(|e| (e.home, e.slot));
                    if let Some((home, slot)) = target {
                        self.record(now, home, slot, SimEventKind::CacheMiss { addr: g.addr });
                    }
                }
            }
        }
    }

    /// Worst outstanding memory class per (unit, tile), from the request
    /// map and the data box's grant classifications.
    fn mem_wait_map(
        &self,
        req_class: &HashMap<u64, StallReason>,
    ) -> HashMap<(usize, usize), StallReason> {
        let mut mem_wait: HashMap<(usize, usize), StallReason> = HashMap::new();
        // Visit requests in id order: `mem_severity` ties (CacheMiss vs
        // BankConflict, both severity 1) resolve first-seen-wins, and a
        // HashMap walk would make that tiebreak — and thus the profile —
        // depend on hasher seeding instead of being run-to-run stable.
        let mut ids: Vec<u64> = self.req_map.keys().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            let t = &self.req_map[id];
            if t.kind != ReqKind::Tile {
                // Spill/refill traffic is charged via the queue-side
                // SpillStall classification, not as a tile memory wait.
                continue;
            }
            let class = if t.attempts > 0 {
                // A request on its retry path is fault recovery, not an
                // ordinary memory stall.
                StallReason::FaultStall
            } else {
                req_class.get(id).copied().unwrap_or(StallReason::WaitingDatabox)
            };
            let worst = mem_wait.entry((t.unit, t.tile)).or_insert(class);
            if mem_severity(class) > mem_severity(*worst) {
                *worst = class;
            }
        }
        mem_wait
    }

    /// Charge exactly one [`StallReason`] to every tile for this cycle.
    /// Runs once per engine-loop iteration; skipped idle windows are
    /// charged in bulk by [`Self::attribute_skipped`]. Together the two
    /// paths charge one reason per tile per *cycle*, which is what makes
    /// the [`Profile::check_invariant`] accounting exact.
    fn attribute_cycle(&mut self, now: u64) {
        let Some(mut prof) = self.prof.take() else {
            return;
        };
        let mem_wait = self.mem_wait_map(&prof.req_class);
        for u in 0..self.units.len() {
            for t in 0..self.units[u].tiles.len() {
                let worked = std::mem::take(&mut prof.worked[u][t]);
                let reason = self.classify_tile(u, t, now, &mem_wait, worked);
                prof.stalls[u][t][reason as usize] += 1;
            }
        }
        self.prof = Some(prof);
    }

    /// Bulk-attribute a skipped idle window of `skipped` cycles starting
    /// at `self.cycle`. Classifying once and multiplying is exact because
    /// every boundary [`Self::classify_tile`] compares the cycle counter
    /// against (`block_start`, `steal_until`, `inline_busy_until`, node
    /// `done_at`s, memory responses, queue `ready_at`s) is itself a
    /// wake-up event reported by [`Self::next_event_cycle`], so no
    /// classification input can change inside the window — and no tile
    /// `worked` in a window the engine proved quiescent.
    fn attribute_skipped(&mut self, skipped: u64) {
        let Some(mut prof) = self.prof.take() else {
            return;
        };
        let now = self.cycle; // first skipped cycle
        let mem_wait = self.mem_wait_map(&prof.req_class);
        for u in 0..self.units.len() {
            for t in 0..self.units[u].tiles.len() {
                let reason = self.classify_tile(u, t, now, &mem_wait, false);
                prof.stalls[u][t][reason as usize] += skipped;
            }
        }
        for (u, q) in self.units.iter().zip(prof.queues.iter_mut()) {
            q.observe_idle(u.occupancy() as u32, skipped);
        }
        self.prof = Some(prof);
    }

    /// The earliest cycle after `now` at which the stepped engine would do
    /// anything other than repeat a no-op iteration, computed from the
    /// post-iteration state. Every component upholds the same contract
    /// (DESIGN §14): report the first future cycle at which it could
    /// change architectural state *or any counter*; activities that tick a
    /// counter every cycle (retried grants, failing steal probes, refill
    /// attempts, a refused spawn not yet parked) pin the result to
    /// `now + 1`, which disables skipping rather than risk under-counting
    /// them. A spawner parked on a still-full queue is not an event: the
    /// skip charges its stalls in bulk, and the completion that frees a
    /// slot is itself a tile event.
    fn next_event_cycle(&self, now: u64, last_progress: u64) -> u64 {
        // The stall watchdog: the deadlock check fires (and its diagnosis
        // is taken) at an exact cycle, which skipping must preserve.
        let mut next = last_progress.saturating_add(DEADLOCK_STALL_CYCLES + 1);
        if let Some(a) = self.cfg.admission {
            if self.units.iter().any(|u| !u.overflow.is_empty()) {
                // Deadlock recovery forces the oldest spill inline the
                // first cycle past the recovery window.
                next = next.min(last_progress.saturating_add(a.recovery_window + 1));
            }
        }
        next = next.min(self.databox.next_event(now));
        if next <= now + 1 {
            // Pinned already (an eligible request retries its grant every
            // cycle) — the unit scans below cannot lower it further.
            return next;
        }
        if let Some(ready) = self.ms.next_event() {
            // The data box must tick at exactly the completion cycle to
            // stage the response into its demux network.
            next = next.min(ready.max(now + 1));
        }
        let steal_armed = self.cfg.steal.is_some() && self.units.len() >= 2;
        for (ui, u) in self.units.iter().enumerate() {
            if self.cfg.admission.is_some()
                && u.pending_refill.is_none()
                && !u.overflow.is_empty()
                && !u.free.is_empty()
            {
                // The refill pump retries its arena read every cycle (a
                // refused data-box enqueue counts backpressure).
                return now + 1;
            }
            let free_tile = u.tiles.iter().any(|t| t.accepts_dispatch(now + 1));
            if free_tile {
                // Owner dispatch fires when the earliest READY entry's
                // spawn handshake completes.
                for &s in &u.ready {
                    if let Some(e) = u.entries[s].as_ref() {
                        next = next.min(e.ready_at.max(now + 1));
                        if next <= now + 1 {
                            return next;
                        }
                    }
                }
                if steal_armed {
                    let lent = u
                        .tiles
                        .iter()
                        .filter(|t| t.exec.as_ref().is_some_and(|e| e.home != ui))
                        .count();
                    if lent + 1 < u.tiles.len() {
                        // An eligible thief probes every cycle, and a
                        // failed probe round increments `steal_fail`.
                        return now + 1;
                    }
                }
            }
            for t in &u.tiles {
                if t.inline_busy_until > now {
                    // Not a state change, but a profiler classification
                    // boundary (SpillStall ends here).
                    next = next.min(t.inline_busy_until);
                }
                let Some(exec) = t.exec.as_ref() else {
                    continue;
                };
                if exec.steal_until > now {
                    // Classification boundary: StealStall ends here.
                    next = next.min(exec.steal_until);
                }
                if let Some(cu) = t.parked_unit() {
                    if self.units[cu].free.is_empty() {
                        continue;
                    }
                    // A slot came back after this tile's turn: it retries
                    // next cycle.
                    return now + 1;
                }
                if exec.block_start > now {
                    // Nodes are fresh until the block transition lands.
                    next = next.min(exec.block_start);
                    if next <= now + 1 {
                        return next;
                    }
                    continue;
                }
                let blk = &self.units[exec.home].dfg.blocks[exec.block_idx];
                let mut all_done = true;
                let mut in_flight = false;
                for ns in &exec.nodes {
                    if ns.issued && ns.done_at != u64::MAX && ns.done_at > now {
                        // A functional unit completes (memory completions
                        // are covered by the memory system's own events).
                        next = next.min(ns.done_at);
                        if next <= now + 1 {
                            // Something finishes next cycle (a unit-latency
                            // ALU op, typically): nothing can beat that.
                            return next;
                        }
                    }
                    if !ns.done(now) {
                        all_done = false;
                        if ns.issued {
                            in_flight = true;
                        }
                    }
                }
                if all_done {
                    // Only a backpressured detach holds a fully drained
                    // instance on a tile; until it parks it retries (and
                    // counts a spawn stall) every cycle.
                    return now + 1;
                }
                for (i, ns) in exec.nodes.iter().enumerate() {
                    if ns.issued || !self.deps_ready(&blk.nodes[i], exec, now) {
                        continue;
                    }
                    if in_flight && matches!(blk.nodes[i].op, NodeOp::CallSpawn { .. }) {
                        // The quiesce check retries silently until the
                        // in-flight node drains — that drain is an event.
                        continue;
                    }
                    // A ready node retries its issue every cycle: a
                    // refused load/store counts data-box backpressure, a
                    // refused spawn counts a spawn stall.
                    return now + 1;
                }
            }
        }
        next
    }

    fn classify_tile(
        &self,
        unit: usize,
        tile: usize,
        now: u64,
        mem_wait: &HashMap<(usize, usize), StallReason>,
        worked: bool,
    ) -> StallReason {
        let u = &self.units[unit];
        if u.tiles[tile].frozen(now) || u.tiles[tile].quarantine_pending {
            // Fenced, stalled, or draining for quarantine: the cycle is
            // lost to the injected fault, whatever the tile holds.
            return StallReason::FaultStall;
        }
        if now < u.tiles[tile].inline_busy_until {
            // The tile is serially executing a spawn its queue refused.
            return StallReason::SpillStall;
        }
        let Some(exec) = u.tiles[tile].exec.as_ref() else {
            // Idle tile: attribute to what the task unit is waiting on.
            if worked {
                return StallReason::Busy;
            }
            if u.pending_refill.is_some() || !u.overflow.is_empty() {
                // Work exists but is parked in the overflow arena; the
                // idle cycle is the cost of queue virtualization.
                return StallReason::SpillStall;
            }
            if u.occupancy() == 0 {
                return StallReason::QueueEmpty;
            }
            return if u.parked() > 0 { StallReason::SyncWait } else { StallReason::QueueEmpty };
        };
        if now < exec.steal_until {
            return StallReason::StealStall; // paying the cross-unit steal latency
        }
        if now < exec.block_start {
            return StallReason::Busy; // block transition in flight
        }
        let blk = &self.units[exec.home].dfg.blocks[exec.block_idx];
        let mut mem_in_flight = false;
        for (i, ns) in exec.nodes.iter().enumerate() {
            if ns.issued && !ns.done(now) {
                match blk.nodes[i].op {
                    NodeOp::Load { .. } | NodeOp::Store { .. } => mem_in_flight = true,
                    // A suspended call never stays on a tile.
                    NodeOp::CallSpawn { .. } => {}
                    // A fixed-latency functional unit is computing.
                    _ => return StallReason::Busy,
                }
            }
        }
        if mem_in_flight {
            return mem_wait.get(&(unit, tile)).copied().unwrap_or(StallReason::WaitingDatabox);
        }
        let mut any_unissued = false;
        for (i, ns) in exec.nodes.iter().enumerate() {
            if ns.issued {
                continue;
            }
            any_unissued = true;
            let node = &blk.nodes[i];
            if self.deps_ready(node, exec, now) {
                return match node.op {
                    // Ready but unissued: the issue attempt was refused.
                    NodeOp::CallSpawn { .. } => StallReason::SpawnBackpressure,
                    NodeOp::Load { .. } | NodeOp::Store { .. } => StallReason::WaitingDatabox,
                    // Became ready after this cycle's issue pass; it will
                    // issue next cycle.
                    _ => StallReason::Busy,
                };
            }
        }
        if any_unissued {
            return StallReason::WaitingOperand;
        }
        // Every node drained but the instance is still resident: only a
        // backpressured detach terminator holds a tile in this state.
        match blk.term {
            TermInfo::Detach { .. } => StallReason::SpawnBackpressure,
            _ => StallReason::Busy,
        }
    }

    /// Mark a tile as having done useful work this cycle even though it
    /// ends the cycle empty (instance completion or suspension).
    fn mark_worked(&mut self, unit: usize, tile: usize) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.worked[unit][tile] = true;
        }
    }

    /// Count an issued node's class ([`ProfileLevel::Full`] only).
    fn note_issue(&mut self, unit: usize, class: NodeClass) {
        if let Some(p) = self.prof.as_deref_mut() {
            if p.level == ProfileLevel::Full {
                p.node_mix[unit][class as usize] += 1;
            }
        }
    }

    // ---- queue management --------------------------------------------------

    /// Allocate a queue entry for a spawn, or hand the argument vector
    /// back (`Err`) when the queue is full so admission control can route
    /// it down the spill or inline path without cloning.
    #[allow(clippy::too_many_arguments)]
    fn alloc_entry(
        &mut self,
        unit: usize,
        args: Vec<Val>,
        parent: Option<(usize, usize)>,
        call_ret: Option<CallRet>,
        now: u64,
        host: bool,
        via_detach: bool,
    ) -> Result<usize, Vec<Val>> {
        // Queue-RAM parity injection: flip a bit in the first argument word
        // as the entry is written. Parity checking catches it at dispatch.
        // The injection draw happens before the capacity check so fault
        // sequences are unchanged by the admission refactor.
        let mut args = args;
        let mut poisoned = false;
        if let Some(rt) = self.fault_rt.as_deref_mut() {
            if let Some(bit) = rt.on_spawn() {
                self.faults_injected += 1;
                poisoned = true;
                if let Some(first) = args.first_mut() {
                    *first = Val::Int(val_bits(*first) ^ (1u64 << (bit % 64)));
                }
            }
        }
        let u = &mut self.units[unit];
        let Some(slot) = u.free.pop() else {
            return Err(args);
        };
        u.entries[slot] = Some(QueueEntry {
            args,
            parent,
            call_ret,
            children: 0,
            waiting_sync: false,
            saved: None,
            ready_at: now + self.cfg.spawn_cost,
            spawned_at: now,
            dispatched_once: false,
            host,
            via_detach,
            poisoned,
        });
        u.ready.push(slot);
        self.record(now, unit, slot, SimEventKind::Spawned { parent });
        Ok(slot)
    }

    fn dispatch(&mut self, unit: usize, now: u64) -> Result<(), SimError> {
        loop {
            let u = &mut self.units[unit];
            let Some(tile_idx) = u.tiles.iter().position(|t| t.accepts_dispatch(now)) else {
                return Ok(());
            };
            // LIFO scan for a dispatchable entry.
            let Some(pos) = u
                .ready
                .iter()
                .rposition(|&s| u.entries[s].as_ref().is_some_and(|e| e.ready_at <= now))
            else {
                return Ok(());
            };
            let slot = u.ready.remove(pos);
            // invariant: the ready list only holds slots whose entry is
            // occupied; entries are cleared strictly after leaving it.
            let entry = u.entries[slot].as_mut().expect("ready entry exists");
            if entry.poisoned && self.cfg.tolerance.parity {
                // Parity mismatch on queue-RAM read: detected, never
                // silently executed with corrupted arguments.
                return Err(SimError::QueueParity { unit: u.name.clone(), slot });
            }
            if !entry.dispatched_once {
                entry.dispatched_once = true;
                if entry.via_detach {
                    let lat = now - entry.spawned_at;
                    self.total_spawn_latency += lat;
                    self.min_spawn_latency = self.min_spawn_latency.min(lat);
                }
            }
            let exec = match entry.saved.take() {
                Some(mut saved) => {
                    u.parked -= 1;
                    if let Some(rb) = saved.resume_block.take() {
                        let idx = u.block_idx(rb).expect("sync continuation inside the task");
                        let old = u.dfg.blocks[saved.block_idx].block;
                        saved.prev_block = Some(old);
                        saved.block_idx = idx;
                        saved.nodes.clear();
                        saved.nodes.resize(u.dfg.blocks[idx].nodes.len(), NodeState::fresh());
                        saved.block_start = now;
                    }
                    *saved
                }
                None => u.start_exec(slot, unit, now, 0),
            };
            let slot = exec.slot;
            u.tiles[tile_idx].exec = Some(exec);
            self.progress = true;
            self.record(now, unit, slot, SimEventKind::Dispatched { tile: tile_idx });
        }
    }

    /// Cross-unit work stealing. Runs strictly after every unit's own
    /// dispatch pass, so the owner always wins a same-cycle pop/steal race
    /// and an entry can never dispatch twice. Each tile still idle after
    /// owner dispatch probes sibling queues in its unit's deterministic
    /// round-robin order and claims the **oldest** ready, never-dispatched
    /// entry (the owner dispatches LIFO, so thieves take the opposite end
    /// of the queue). The stolen instance pays the configured steal
    /// latency before its first node can issue, and borrows its home
    /// unit's memory ports — stealing shares compute tiles, not the
    /// arbitration network. Queue bookkeeping (entry, join counters,
    /// completion) stays with the victim via [`Exec::home`]. Every unit
    /// reserves one tile for its own queue (so single-tile units never
    /// steal): lending the last tile lets a blocked stolen instance starve
    /// the owner's drain path into a deadlock.
    fn steal_pass(&mut self, now: u64) {
        // invariant: the caller gates this pass on `cfg.steal`.
        let latency = self.cfg.steal.expect("steal pass requires steal config").latency;
        let nunits = self.units.len();
        if nunits < 2 {
            return;
        }
        for thief in 0..nunits {
            // A unit never lends its last tile: at least one tile must stay
            // free of stolen work so the unit's own queue can always drain.
            // Without the reservation a stolen instance that blocks spawning
            // into the thief unit's own full queue holds the only tile that
            // could empty it — a deadlock the seed schedule cannot reach.
            let mut lent = self.units[thief]
                .tiles
                .iter()
                .filter(|t| t.exec.as_ref().is_some_and(|e| e.home != thief))
                .count();
            while let Some(tile_idx) =
                self.units[thief].tiles.iter().position(|t| t.accepts_dispatch(now))
            {
                if lent + 1 >= self.units[thief].tiles.len() {
                    break;
                }
                let mut claimed = false;
                for victim in self.steal_ports[thief].probe_order(thief, nunits) {
                    let v = &self.units[victim];
                    // Oldest ready entry first; suspended contexts and
                    // poisoned entries stay home (parity is the owner's
                    // check, saved state is bound to the home datapath).
                    let Some(pos) = v.ready.iter().position(|&s| {
                        v.entries[s]
                            .as_ref()
                            .is_some_and(|e| e.ready_at <= now && e.saved.is_none() && !e.poisoned)
                    }) else {
                        continue;
                    };
                    let slot = self.units[victim].ready.remove(pos);
                    let u = &mut self.units[victim];
                    // invariant: the ready list only holds occupied slots.
                    let entry = u.entries[slot].as_mut().expect("ready entry exists");
                    if !entry.dispatched_once {
                        entry.dispatched_once = true;
                        if entry.via_detach {
                            let lat = now - entry.spawned_at;
                            self.total_spawn_latency += lat;
                            self.min_spawn_latency = self.min_spawn_latency.min(lat);
                        }
                    }
                    let exec = u.start_exec(slot, victim, now + latency, now + latency);
                    self.units[thief].tiles[tile_idx].exec = Some(exec);
                    self.steal_ports[thief].record_steal(victim);
                    self.progress = true;
                    self.record(
                        now,
                        victim,
                        slot,
                        SimEventKind::Stolen { by: thief, tile: tile_idx },
                    );
                    self.record(now, victim, slot, SimEventKind::Dispatched { tile: tile_idx });
                    lent += 1;
                    claimed = true;
                    break;
                }
                if !claimed {
                    // One failed probe round per thief per cycle: the
                    // victim queues cannot change again within this pass.
                    self.steal_ports[thief].record_failure();
                    break;
                }
            }
        }
    }

    // ---- responses ----------------------------------------------------------

    /// Pass a memory response through the fault runtime's out-demux model
    /// before delivering it: the response may be dropped, duplicated,
    /// bit-flipped, or delayed. Fault-free runs take the first branch.
    fn route_with_faults(&mut self, resp: MemResp, now: u64) {
        let fault = match self.fault_rt.as_deref_mut() {
            Some(rt) => rt.on_response(),
            None => RespFault::None,
        };
        match fault {
            RespFault::None => {
                self.route_response(resp, now);
                self.progress = true;
            }
            RespFault::Drop => {
                // The request's `ReqMeta` stays in place; once its deadline
                // lapses the retry scan re-issues it (or fails typed).
                self.faults_injected += 1;
            }
            RespFault::Duplicate => {
                self.faults_injected += 1;
                self.route_response(resp, now);
                // The second copy finds no `ReqMeta` and is discarded as
                // spurious.
                self.route_response(resp, now);
                self.progress = true;
            }
            RespFault::Corrupt(bit) => {
                self.faults_injected += 1;
                if self.cfg.tolerance.ecc {
                    // ECC detects the flip; discard the word and re-fetch.
                    self.ecc_retries += 1;
                    self.retry_request(resp.id.0, now);
                } else {
                    let mut resp = resp;
                    resp.rdata ^= 1u64 << (bit % 64);
                    self.route_response(resp, now);
                    self.progress = true;
                }
            }
            RespFault::Delay(cycles) => {
                self.faults_injected += 1;
                if let Some(rt) = self.fault_rt.as_deref_mut() {
                    rt.delayed.push((now + cycles, resp));
                }
            }
        }
    }

    fn route_response(&mut self, resp: tapas_mem::MemResp, now: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.req_class.remove(&resp.id.0);
        }
        let Some(target) = self.req_map.remove(&resp.id.0) else {
            // No outstanding request behind this id: a duplicated grant, a
            // late original overtaken by its retry, or a delayed copy that
            // outlived its requester. Discarding is safe — workloads are
            // determinacy-race-free, so a retried access returns the same
            // data the stale response carried.
            self.spurious_responses += 1;
            return;
        };
        match target.kind {
            ReqKind::Tile => {}
            // The arena write's ack needs no action: the entry already
            // sits in the overflow list.
            ReqKind::SpillWrite => return,
            ReqKind::RefillRead => {
                self.install_refill(target.unit, now);
                return;
            }
        }
        let Some((home, block_idx)) =
            self.units[target.unit].tiles[target.tile].exec.as_ref().map(|e| (e.home, e.block_idx))
        else {
            // invariant: a task with in-flight memory never suspends (the
            // call-spawn quiesce check) and quarantine drains outstanding
            // requests before re-parking, so the tile must hold the task.
            panic!("memory response for an empty tile (suspension invariant broken)");
        };
        // A stolen instance executes its *home* unit's dataflow graph.
        let dfg = Rc::clone(&self.units[home].dfg);
        let func = self.units[home].func;
        let node = &dfg.blocks[block_idx].nodes[target.node];
        let value = match &node.op {
            NodeOp::Load { .. } => Some(load_value(self.module.function(func), node, resp.rdata)),
            NodeOp::Store { .. } => None,
            // invariant: request ids are only minted by issue_mem for
            // Load/Store nodes, so a response can never target another op.
            other => panic!("memory response for non-memory node {other:?}"),
        };
        let exec = self.units[target.unit].tiles[target.tile]
            .exec
            .as_mut()
            .expect("tile occupancy checked above");
        let ns = &mut exec.nodes[target.node];
        ns.done_at = now;
        ns.value = value;
        if let (Some(r), Some(v)) = (node.result, ns.value) {
            exec.env[r.0 as usize] = Some(v);
        }
    }

    // ---- fault recovery -----------------------------------------------------

    /// Fire the tile stall/wedge faults scheduled for this cycle and mark
    /// over-budget tiles for quarantine.
    fn apply_tile_faults(&mut self, now: u64) {
        let due = match self.fault_rt.as_deref_mut() {
            Some(rt) => rt.due_tile_faults(now),
            None => Vec::new(),
        };
        for ev in due {
            self.faults_injected += 1;
            let budget = self.cfg.tolerance.tile_fault_budget;
            let quarantine = self.cfg.tolerance.quarantine;
            let t = &mut self.units[ev.unit].tiles[ev.tile];
            if t.fenced {
                continue;
            }
            t.faulted_at = now;
            if ev.wedge {
                t.stall_until = u64::MAX;
                // A wedge never recovers: force it past any budget so
                // quarantine (when armed) always fences the tile.
                t.fault_count = t.fault_count.max(budget.saturating_add(1));
            } else {
                t.stall_until = t.stall_until.max(now + ev.cycles);
                t.fault_count += 1;
            }
            if quarantine && t.fault_count > budget {
                t.quarantine_pending = true;
            }
        }
    }

    /// Fence tiles that exhausted their fault budget once their outstanding
    /// memory drains, re-parking any resident task so it resumes on a
    /// healthy tile. Degrades gracefully while at least one tile survives.
    fn process_quarantines(&mut self, now: u64) -> Result<(), SimError> {
        for unit in 0..self.units.len() {
            for tile in 0..self.units[unit].tiles.len() {
                if !self.units[unit].tiles[tile].quarantine_pending {
                    continue;
                }
                // Outstanding responses are routed by (unit, tile); wait
                // for them to drain so none lands on the tile's successor.
                if self.req_map.values().any(|m| m.unit == unit && m.tile == tile) {
                    continue;
                }
                let t = &mut self.units[unit].tiles[tile];
                t.quarantine_pending = false;
                t.fenced = true;
                self.quarantined_tiles += 1;
                if let Some(exec) = t.exec.take() {
                    // Re-park the in-flight instance into its *home*
                    // unit's queue (a stolen instance may be fenced on a
                    // foreign tile); its saved context (including
                    // completed node results) re-dispatches wherever a
                    // healthy tile frees up.
                    let (slot, home) = (exec.slot, exec.home);
                    self.units[home].park(exec).ready_at = now + 1;
                    self.units[home].ready.push(slot);
                }
                self.progress = true;
                let u = &self.units[unit];
                if u.tiles.iter().all(|t| t.fenced) {
                    return Err(SimError::AllTilesFailed { unit: u.name.clone() });
                }
            }
        }
        Ok(())
    }

    /// Re-issue the request behind `id` under a fresh id with a backed-off
    /// deadline. The old id is forgotten, so a late original response is
    /// discarded as spurious rather than delivered twice.
    fn retry_request(&mut self, id: u64, now: u64) {
        let Some(meta) = self.req_map.remove(&id) else {
            return;
        };
        if let Some(p) = self.prof.as_deref_mut() {
            p.req_class.remove(&id);
        }
        let attempts = meta.attempts + 1;
        let mut req = meta.req;
        req.id = ReqId(self.next_req);
        // Exponential backoff, capped so the deadline arithmetic cannot
        // overflow even after many retries.
        let backoff = self.cfg.tolerance.mem_timeout << u64::from(attempts.min(6));
        if self.databox.enqueue(req, now) {
            self.next_req += 1;
            self.req_map
                .insert(req.id.0, ReqMeta { req, deadline: now + backoff, attempts, ..meta });
        } else {
            // Databox queue full this cycle: keep the original id and poll
            // again next cycle without consuming a retry attempt.
            self.req_map.insert(id, ReqMeta { deadline: now + 1, ..meta });
        }
        self.progress = true;
    }

    /// Find outstanding requests past their deadline and recover: re-issue
    /// them (bounded retries) or fail with a typed error when retries are
    /// exhausted or recovery is disabled.
    fn scan_retries(&mut self, now: u64) -> Result<(), SimError> {
        let tol = self.cfg.tolerance;
        if !tol.mem_retry && tol.watchdog_timeout.is_none() {
            return Ok(());
        }
        // Collect then sort: `HashMap` iteration order must never leak
        // into simulated behaviour (determinism).
        let mut due: Vec<u64> =
            self.req_map.iter().filter(|(_, m)| m.deadline <= now).map(|(&id, _)| id).collect();
        due.sort_unstable();
        for id in due {
            let meta = self.req_map[&id];
            if !tol.mem_retry {
                // Watchdog-only mode: a lost response is detected, not
                // retried.
                return Err(SimError::WatchdogTimeout {
                    unit: self.units[meta.unit].name.clone(),
                    tile: meta.tile,
                    at: now,
                    waiting_on: WaitCause::Memory { addr: meta.req.addr, attempts: meta.attempts },
                });
            }
            if meta.attempts >= tol.max_mem_retries {
                return Err(SimError::MemRetryExhausted {
                    unit: self.units[meta.unit].name.clone(),
                    tile: meta.tile,
                    addr: meta.req.addr,
                    attempts: meta.attempts,
                });
            }
            self.mem_retries += 1;
            self.retry_request(id, now);
        }
        Ok(())
    }

    /// Release responses an injected delay has been holding back.
    fn deliver_delayed(&mut self, now: u64) {
        let due = match self.fault_rt.as_deref_mut() {
            Some(rt) => rt.due_delayed(now),
            None => Vec::new(),
        };
        for resp in due {
            self.route_response(resp, now);
            self.progress = true;
        }
    }

    /// Detect tiles wedged past the watchdog window. Quarantine normally
    /// fences a wedge first; the watchdog is the backstop when quarantine
    /// is disabled (or the fence cannot drain).
    fn check_watchdog(&mut self, now: u64) -> Result<(), SimError> {
        let Some(window) = self.cfg.tolerance.watchdog_timeout else {
            return Ok(());
        };
        for u in &self.units {
            for (ti, t) in u.tiles.iter().enumerate() {
                if t.wedged() && !t.fenced && !t.quarantine_pending && now - t.faulted_at >= window
                {
                    return Err(SimError::WatchdogTimeout {
                        unit: u.name.clone(),
                        tile: ti,
                        at: now,
                        waiting_on: WaitCause::Fault,
                    });
                }
            }
        }
        Ok(())
    }

    /// Build the wait-for-graph diagnosis reported inside
    /// [`SimError::Deadlock`]: who waits on whom (and why), the cyclic
    /// dependency if one exists, queue occupancy, the oldest blocked task,
    /// and any wedged tiles.
    fn diagnose_deadlock(&self, _now: u64) -> DeadlockDiagnosis {
        let units: Vec<UnitWaitState> = self
            .units
            .iter()
            .map(|u| UnitWaitState {
                name: u.name.clone(),
                occupancy: u.occupancy(),
                capacity: u.entries.len(),
                fenced_tiles: u.tiles.iter().filter(|t| t.fenced).count(),
            })
            .collect();
        // Wait-for edges between task units. A unit waits on another when
        // one of its live entries is suspended on that unit: a parent
        // syncing on children, a caller awaiting a callee, or a detach /
        // call-spawn backpressured by a full target queue.
        let mut edges: Vec<WaitEdge> = Vec::new();
        let mut add = |from: usize, to: usize, kind: WaitKind| {
            if !edges.iter().any(|e| e.from == from && e.to == to && e.kind == kind) {
                edges.push(WaitEdge { from, to, kind });
            }
        };
        for (ui, u) in self.units.iter().enumerate() {
            for entry in u.entries.iter().flatten() {
                if let Some(cr) = entry.call_ret {
                    // This entry is a callee: its caller waits on us.
                    add(cr.unit, ui, WaitKind::Call);
                }
                if entry.waiting_sync {
                    // The children of (ui, slot) live in child units; find
                    // them by parent backlink.
                    for (ci, cu) in self.units.iter().enumerate() {
                        let has_child = cu
                            .entries
                            .iter()
                            .flatten()
                            .any(|ce| ce.parent.is_some_and(|(pu, _)| pu == ui) && ci != ui);
                        if has_child {
                            add(ui, ci, WaitKind::Join);
                        }
                    }
                }
            }
            // A full queue blocks every unit that spawns into it.
            if u.free.is_empty() {
                for (pi, pu) in self.units.iter().enumerate() {
                    if pi != ui && pu.parked() > 0 {
                        add(pi, ui, WaitKind::Spawn);
                    }
                }
            }
        }
        let cycle = find_cycle(self.units.len(), &edges);
        let oldest = self
            .units
            .iter()
            .enumerate()
            .flat_map(|(ui, u)| {
                u.entries
                    .iter()
                    .enumerate()
                    .filter_map(move |(slot, e)| e.as_ref().map(|e| (ui, slot, e.spawned_at)))
            })
            .min_by_key(|&(_, _, at)| at)
            .map(|(unit, slot, spawned_at)| BlockedTask { unit, slot, spawned_at });
        let wedged: Vec<(usize, usize)> = self
            .units
            .iter()
            .enumerate()
            .flat_map(|(ui, u)| {
                u.tiles
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.wedged() || t.fenced)
                    .map(move |(ti, _)| (ui, ti))
            })
            .collect();
        DeadlockDiagnosis { units, cycle, oldest, wedged }
    }

    // ---- tile execution -------------------------------------------------------

    fn advance_tile(&mut self, unit: usize, tile: usize, now: u64) -> Result<(), SimError> {
        if self.units[unit].tiles[tile].frozen(now)
            || self.units[unit].tiles[tile].quarantine_pending
        {
            // A frozen or draining tile holds its state but makes no
            // forward progress this cycle.
            return Ok(());
        }
        if let Some(cu) = self.units[unit].tiles[tile].parked_unit() {
            if self.units[cu].free.is_empty() {
                // Still refused: the retry would change nothing but the
                // stall counters, so charge them without re-running it.
                debug_assert_eq!(
                    self.units[unit].tiles[tile]
                        .exec
                        .as_ref()
                        .and_then(|e| self.blocked_spawn_target(e, now)),
                    Some(cu),
                    "parked tile {unit}/{tile} no longer holds only a refused spawn"
                );
                self.units[cu].stats.spawn_stalls += 1;
                self.units[cu].spawn_refused = true;
                return Ok(());
            }
            // A slot is free: retry the spawn at this tile's usual place
            // in advance order, so same-cycle slot races resolve as before.
            self.units[unit].tiles[tile].parked_on = None;
        }
        let Some(mut exec) = self.units[unit].tiles[tile].exec.take() else {
            return Ok(());
        };
        if now < exec.block_start {
            self.units[unit].tiles[tile].exec = Some(exec);
            return Ok(());
        }
        // `unit`/`tile` locate the physical datapath (memory ports, busy
        // state); `home` owns the task's queue entry, DFG and events. They
        // differ only for instances claimed by the work-stealing pass.
        let home = exec.home;
        let dfg = Rc::clone(&self.units[home].dfg);
        let blk = &dfg.blocks[exec.block_idx];

        // Issue whatever has become ready.
        let mut refused_call = None;
        for idx in 0..blk.nodes.len() {
            if exec.nodes[idx].issued {
                continue;
            }
            let node = &blk.nodes[idx];
            if !self.deps_ready(node, &exec, now) {
                continue;
            }
            match &node.op {
                NodeOp::Load { size } => {
                    let addr = self.operand_val(&node.operands[0], &exec).as_int();
                    if self.enqueue_mem(
                        unit,
                        tile,
                        home,
                        exec.block_idx,
                        idx,
                        addr,
                        *size,
                        MemOpKind::Read,
                        0,
                        now,
                    ) {
                        exec.nodes[idx].issued = true;
                        self.progress = true;
                        self.note_issue(home, NodeClass::Memory);
                    }
                }
                NodeOp::Store { size } => {
                    let addr = self.operand_val(&node.operands[0], &exec).as_int();
                    let data = val_bits(self.operand_val(&node.operands[1], &exec));
                    if self.enqueue_mem(
                        unit,
                        tile,
                        home,
                        exec.block_idx,
                        idx,
                        addr,
                        *size,
                        MemOpKind::Write,
                        data,
                        now,
                    ) {
                        exec.nodes[idx].issued = true;
                        self.progress = true;
                        self.note_issue(home, NodeClass::Memory);
                    }
                }
                NodeOp::CallSpawn { callee } => {
                    // Quiesce: no other node may be in flight while the
                    // instance suspends (memory responses are tile-routed).
                    let in_flight = exec
                        .nodes
                        .iter()
                        .enumerate()
                        .any(|(j, n)| j != idx && n.issued && !n.done(now));
                    if in_flight {
                        continue;
                    }
                    let args = self.spawn_args(&node.operands, &exec);
                    let callee_unit = self.func_root[callee.0 as usize];
                    // The return lands on the *home* entry: a stolen
                    // caller suspends back into its own unit's queue.
                    let cr = CallRet { unit: home, slot: exec.slot, node: idx };
                    match self.alloc_entry(callee_unit, args, None, Some(cr), now, false, false) {
                        Ok(_) => {
                            self.calls += 1;
                            exec.nodes[idx].issued = true;
                            self.note_issue(home, NodeClass::Spawn);
                            // Suspend: context returns to the queue entry,
                            // the tile frees for other ready tasks.
                            let slot = exec.slot;
                            self.units[home].park(exec);
                            self.record(now, home, slot, SimEventKind::CallWait);
                            self.mark_worked(unit, tile);
                            return Ok(());
                        }
                        Err(args) => {
                            let adm = self.cfg.admission;
                            let args = if adm.is_some_and(|a| a.spill) {
                                match self.try_spill(callee_unit, args, None, Some(cr), false, now)
                                {
                                    Ok(()) => {
                                        // A spilled callee behaves like an
                                        // accepted spawn: the caller suspends
                                        // until it refills, runs and returns.
                                        self.calls += 1;
                                        exec.nodes[idx].issued = true;
                                        self.note_issue(home, NodeClass::Spawn);
                                        let slot = exec.slot;
                                        self.units[home].park(exec);
                                        self.record(now, home, slot, SimEventKind::CallWait);
                                        self.mark_worked(unit, tile);
                                        return Ok(());
                                    }
                                    Err(a) => a,
                                }
                            } else {
                                args
                            };
                            if adm.is_some_and(|a| a.inline_spawn) {
                                // Work-first degradation: run the callee to
                                // completion on this tile, charging its
                                // modeled cost as tile busy time.
                                let (ret, cost) = self.exec_inline(callee_unit, args, 0)?;
                                self.calls += 1;
                                let ns = &mut exec.nodes[idx];
                                ns.issued = true;
                                ns.done_at = now + cost;
                                ns.value = Some(ret.unwrap_or(Val::Int(0)));
                                if let (Some(r), Some(v)) = (node.result, ns.value) {
                                    exec.env[r.0 as usize] = Some(v);
                                }
                                self.note_issue(home, NodeClass::Spawn);
                                self.units[unit].tiles[tile].inline_busy_until = now + cost;
                                self.progress = true;
                            } else {
                                // Callee queue full: retry next cycle.
                                self.units[callee_unit].stats.spawn_stalls += 1;
                                self.units[callee_unit].spawn_refused = true;
                                self.arg_buf = args;
                                refused_call = Some(callee_unit);
                            }
                        }
                    }
                }
                _ => {
                    let (value, lat) = self.eval_fixed(node, &exec)?;
                    self.progress = true;
                    let class = node_class(&node.op);
                    let ns = &mut exec.nodes[idx];
                    ns.issued = true;
                    ns.done_at = now + u64::from(lat);
                    ns.value = value;
                    if let (Some(r), Some(v)) = (node.result, ns.value) {
                        exec.env[r.0 as usize] = Some(v);
                    }
                    self.note_issue(home, class);
                }
            }
        }

        // Terminator fires once every node in the block has drained.
        let all_done = exec.nodes.iter().all(|n| n.done(now));
        if !all_done {
            if let Some(cu) = refused_call.filter(|_| self.parks_refused_spawns()) {
                // Park only if the refused call is all this tile can do:
                // its state is then frozen until the callee queue frees.
                if self.blocked_spawn_target(&exec, now) == Some(cu) {
                    self.units[unit].tiles[tile].park_on(cu);
                }
            }
            self.units[unit].tiles[tile].exec = Some(exec);
            return Ok(());
        }
        match &blk.term {
            TermInfo::Br(t) => {
                self.enter_block(&mut exec, home, *t, now + self.cfg.block_transition);
                self.units[unit].tiles[tile].exec = Some(exec);
                self.progress = true;
            }
            TermInfo::CondBr { cond, if_true, if_false } => {
                let c = self.operand_val(cond, &exec).as_int() & 1;
                let t = if c == 1 { *if_true } else { *if_false };
                self.enter_block(&mut exec, home, t, now + self.cfg.block_transition);
                self.units[unit].tiles[tile].exec = Some(exec);
                self.progress = true;
            }
            TermInfo::Ret(v) => {
                let value = v.as_ref().map(|o| self.operand_val(o, &exec));
                self.finish_instance(home, exec.slot, value, now);
                self.mark_worked(unit, tile);
            }
            TermInfo::Reattach => {
                self.finish_instance(home, exec.slot, None, now);
                self.mark_worked(unit, tile);
            }
            TermInfo::Detach { child, args, cont } => {
                let cont = *cont;
                let child_unit = self.unit_of[self.units[home].func.0 as usize][child.0 as usize];
                let arg_vals = self.spawn_args(args, &exec);
                let parent = Some((home, exec.slot));
                match self.alloc_entry(child_unit, arg_vals, parent, None, now, false, true) {
                    Ok(_) => {
                        self.spawns += 1;
                        self.note_issue(home, NodeClass::Spawn);
                        self.units[home].entries[exec.slot]
                            .as_mut()
                            .expect("running entry exists")
                            .children += 1;
                        self.enter_block(&mut exec, home, cont, now + 1);
                        self.units[unit].tiles[tile].exec = Some(exec);
                    }
                    Err(arg_vals) => {
                        let adm = self.cfg.admission;
                        let arg_vals = if adm.is_some_and(|a| a.spill) {
                            match self.try_spill(child_unit, arg_vals, parent, None, true, now) {
                                Ok(()) => {
                                    // A spilled child still counts against
                                    // the parent's join counter; it completes
                                    // after refilling.
                                    self.spawns += 1;
                                    self.note_issue(home, NodeClass::Spawn);
                                    self.units[home].entries[exec.slot]
                                        .as_mut()
                                        .expect("running entry exists")
                                        .children += 1;
                                    self.enter_block(&mut exec, home, cont, now + 1);
                                    self.units[unit].tiles[tile].exec = Some(exec);
                                    return Ok(());
                                }
                                Err(a) => a,
                            }
                        } else {
                            arg_vals
                        };
                        if adm.is_some_and(|a| a.inline_spawn) {
                            // Work-first degradation: execute the child
                            // serially now; the continuation starts once its
                            // modeled cost has elapsed.
                            let (_, cost) = self.exec_inline(child_unit, arg_vals, 0)?;
                            self.spawns += 1;
                            self.note_issue(home, NodeClass::Spawn);
                            let resume = now + 1 + cost;
                            self.units[unit].tiles[tile].inline_busy_until = resume;
                            self.enter_block(&mut exec, home, cont, resume);
                            self.units[unit].tiles[tile].exec = Some(exec);
                            self.progress = true;
                        } else {
                            // Ready-valid backpressure: hold `valid` until
                            // the child queue raises `ready`.
                            self.units[child_unit].stats.spawn_stalls += 1;
                            self.units[child_unit].spawn_refused = true;
                            if self.parks_refused_spawns() {
                                debug_assert_eq!(
                                    self.blocked_spawn_target(&exec, now),
                                    Some(child_unit)
                                );
                                self.units[unit].tiles[tile].park_on(child_unit);
                            }
                            self.units[unit].tiles[tile].exec = Some(exec);
                            self.arg_buf = arg_vals;
                        }
                    }
                }
            }
            TermInfo::Sync(cont) => {
                let cont = *cont;
                let slot = exec.slot;
                // invariant: exec.slot back-references the live queue entry
                // this instance was dispatched from.
                let entry = self.units[home].entries[slot].as_mut().expect("running entry exists");
                if entry.children == 0 {
                    self.enter_block(&mut exec, home, cont, now + self.cfg.sync_cost);
                    self.units[unit].tiles[tile].exec = Some(exec);
                } else {
                    // SYNC state: context parks in the queue entry.
                    entry.waiting_sync = true;
                    exec.resume_block = Some(cont);
                    self.units[home].park(exec);
                    self.record(now, home, slot, SimEventKind::SyncWait);
                    self.mark_worked(unit, tile);
                }
            }
        }
        Ok(())
    }

    /// Whether a refused spawn parks its tile (see [`Tile::parked_on`]).
    /// Under fault injection a retry draws the fault RNG before the
    /// capacity check, and under admission control it may spill, so those
    /// runs keep the per-cycle retry.
    fn parks_refused_spawns(&self) -> bool {
        self.fault_rt.is_none() && self.cfg.admission.is_none()
    }

    /// The unit whose queue the context's only possible action spawns
    /// into: a fully drained block ending in `Detach`, or a quiesced block
    /// whose one ready, unissued node is a `CallSpawn`. `None` when any
    /// node is in flight or anything else could issue. A context in this
    /// state stays in it until the spawn is accepted, which is what makes
    /// parking a refused spawner exact.
    fn blocked_spawn_target(&self, exec: &Exec, now: u64) -> Option<usize> {
        if now < exec.block_start {
            return None;
        }
        let u = &self.units[exec.home];
        let blk = &u.dfg.blocks[exec.block_idx];
        let mut call = None;
        let mut any_unissued = false;
        for (ns, node) in exec.nodes.iter().zip(&blk.nodes) {
            if ns.issued {
                if !ns.done(now) {
                    return None;
                }
                continue;
            }
            any_unissued = true;
            if !self.deps_ready(node, exec, now) {
                continue;
            }
            match node.op {
                NodeOp::CallSpawn { callee } if call.is_none() => {
                    call = Some(self.func_root[callee.0 as usize]);
                }
                _ => return None,
            }
        }
        if call.is_some() {
            return call;
        }
        match &blk.term {
            TermInfo::Detach { child, .. } if !any_unissued => {
                Some(self.unit_of[u.func.0 as usize][child.0 as usize])
            }
            _ => None,
        }
    }

    fn enter_block(&self, exec: &mut Exec, unit: usize, block: BlockId, at: u64) {
        let u = &self.units[unit];
        let old = u.dfg.blocks[exec.block_idx].block;
        // invariant: lowering only emits branch targets inside the task's
        // own DFG; block ids never cross a task boundary.
        let idx = u
            .block_idx(block)
            .unwrap_or_else(|| panic!("branch to block {block} outside task {}", u.name));
        exec.prev_block = Some(old);
        exec.block_idx = idx;
        exec.nodes.clear();
        exec.nodes.resize(u.dfg.blocks[idx].nodes.len(), NodeState::fresh());
        exec.block_start = at;
    }

    fn finish_instance(&mut self, unit: usize, slot: usize, value: Option<Val>, now: u64) {
        self.progress = true;
        self.record(now, unit, slot, SimEventKind::Completed);
        // invariant: only a running exec reaches finish_instance, and its
        // slot stays occupied for the task's whole lifetime.
        let entry = self.units[unit].entries[slot].take().expect("finishing live entry");
        debug_assert_eq!(entry.children, 0, "task completed with outstanding children");
        self.units[unit].free.push(slot);
        self.units[unit].stats.tasks_executed += 1;
        self.deliver_completion(entry.parent, entry.call_ret, value, now);
        if entry.host {
            self.host_result = Some(value);
        }
    }

    /// Deliver a finished task's side effects to its waiters: resume a
    /// suspended caller with the return value, and decrement the parent's
    /// join counter (waking its `sync` at zero). Shared by the queue path
    /// ([`finish_instance`](Self::finish_instance)) and the inline
    /// deadlock-recovery path, where the task never held a queue entry.
    fn deliver_completion(
        &mut self,
        parent: Option<(usize, usize)>,
        call_ret: Option<CallRet>,
        value: Option<Val>,
        now: u64,
    ) {
        if let Some(cr) = call_ret {
            let dfg = Rc::clone(&self.units[cr.unit].dfg);
            // invariant: a callee outlives its caller's queue entry — the
            // caller suspends (saved context parked) until the return lands.
            let caller = self.units[cr.unit].entries[cr.slot].as_mut().expect("caller entry alive");
            let saved = caller.saved.as_mut().expect("caller suspended on call");
            let ns = &mut saved.nodes[cr.node];
            ns.done_at = now;
            ns.value = value.or(Some(Val::Int(0)));
            // Propagate the return value into the caller's environment.
            let node_result = dfg.blocks[saved.block_idx].nodes[cr.node].result;
            if let (Some(r), Some(v)) = (node_result, saved.nodes[cr.node].value) {
                saved.env[r.0 as usize] = Some(v);
            }
            caller.ready_at = now + 1;
            self.units[cr.unit].ready.push(cr.slot);
        }
        if let Some((pu, ps)) = parent {
            // invariant: reattach semantics — a parent cannot retire before
            // every detached child has completed.
            let p = self.units[pu].entries[ps]
                .as_mut()
                .expect("parent entry alive during child completion");
            p.children -= 1;
            if p.waiting_sync && p.children == 0 {
                p.waiting_sync = false;
                p.ready_at = now + self.cfg.sync_cost;
                self.units[pu].ready.push(ps);
            }
        }
    }

    // ---- helpers -----------------------------------------------------------

    fn deps_ready(&self, node: &DfgNode, exec: &Exec, now: u64) -> bool {
        let op_ready = |o: &Operand| match o {
            Operand::Local(i) => exec.nodes[*i].done(now),
            Operand::Env(_) | Operand::Imm(_) => true,
        };
        let data_ok = match &node.op {
            // A phi's readiness depends only on the incoming edge taken.
            NodeOp::Phi { incomings } => {
                let prev = exec.prev_block;
                incomings
                    .iter()
                    .find(|(b, _)| Some(*b) == prev)
                    .map(|(_, o)| op_ready(o))
                    .unwrap_or(false)
            }
            _ => node.operands.iter().all(op_ready),
        };
        data_ok && node.order_deps.iter().all(|&d| exec.nodes[d].done(now))
    }

    /// Evaluate a spawn's arguments into the vector a refused spawn handed
    /// back, so retrying a spawn refused by a full queue does not
    /// allocate.
    fn spawn_args(&mut self, operands: &[Operand], exec: &Exec) -> Vec<Val> {
        let mut args = std::mem::take(&mut self.arg_buf);
        args.clear();
        args.extend(operands.iter().map(|o| self.operand_val(o, exec)));
        args
    }

    fn operand_val(&self, o: &Operand, exec: &Exec) -> Val {
        match o {
            // invariant: dataflow firing order — a node only issues once
            // every operand producer has completed, and the environment is
            // populated at dispatch with every live-in the DFG references.
            Operand::Local(i) => {
                exec.nodes[*i].value.unwrap_or_else(|| panic!("reading unfinished node {i}"))
            }
            Operand::Env(v) => exec.env[v.0 as usize]
                .unwrap_or_else(|| panic!("value {v} missing from TXU environment")),
            Operand::Imm(c) => const_val(c),
        }
    }

    fn eval_fixed(&self, node: &DfgNode, exec: &Exec) -> Result<(Option<Val>, u32), SimError> {
        self.eval_pure(node, &|o| self.operand_val(o, exec), exec.prev_block)
    }

    /// Evaluate a fixed-latency dataflow node given an operand resolver.
    /// Shared by the cycle-level tile path ([`Self::eval_fixed`]) and the
    /// functional inline executor, which resolve operands from different
    /// state.
    fn eval_pure(
        &self,
        node: &DfgNode,
        ov: &dyn Fn(&Operand) -> Val,
        prev_block: Option<BlockId>,
    ) -> Result<(Option<Val>, u32), SimError> {
        let v = |i: usize| ov(&node.operands[i]);
        let value = match &node.op {
            NodeOp::Alu(op) => {
                Some(eval_bin(*op, v(0), v(1), node.width).map_err(|_| SimError::DivByZero)?)
            }
            NodeOp::FAlu(op) => Some(eval_fbin(*op, v(0), v(1))),
            NodeOp::Cmp { pred, width } => {
                Some(Val::Int(eval_cmp(*pred, v(0), v(1), *width) as u64))
            }
            NodeOp::FCmp(pred) => Some(Val::Int(eval_fcmp(*pred, v(0), v(1)) as u64)),
            NodeOp::Select => Some(if v(0).as_int() & 1 == 1 { v(1) } else { v(2) }),
            NodeOp::Cast { kind, from_width, to_width } => {
                Some(eval_cast(*kind, v(0), *from_width, *to_width))
            }
            NodeOp::Gep { steps } => {
                let mut addr = v(0).as_int();
                let mut next_operand = 1usize;
                for s in steps {
                    match s {
                        tapas_dfg::GepStep::Fixed(k) => addr = addr.wrapping_add(*k),
                        tapas_dfg::GepStep::Scaled { stride, .. } => {
                            let ix = ov(&node.operands[next_operand]).as_int();
                            next_operand += 1;
                            addr = addr.wrapping_add(ix.wrapping_mul(*stride));
                        }
                    }
                }
                Some(Val::Int(addr))
            }
            NodeOp::Phi { incomings } => {
                // invariant: lowering never places a phi in an entry block,
                // and every predecessor edge carries an incoming value.
                let prev = prev_block.expect("phi evaluated in an entry block");
                let (_, o) = incomings
                    .iter()
                    .find(|(b, _)| *b == prev)
                    .expect("phi has incoming for edge taken");
                Some(ov(o))
            }
            NodeOp::Load { .. } | NodeOp::Store { .. } | NodeOp::CallSpawn { .. } => {
                unreachable!("dynamic nodes handled by caller")
            }
        };
        Ok((value, node.latency))
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue_mem(
        &mut self,
        unit: usize,
        tile: usize,
        home: usize,
        block_idx: usize,
        node: usize,
        addr: u64,
        size: u8,
        kind: MemOpKind,
        wdata: u64,
        now: u64,
    ) -> bool {
        let h = &self.units[home];
        // Requests always use the *home* unit's port range: a stolen
        // instance borrows its home unit's memory bandwidth (the thief's
        // tile index is folded onto the home tile-slot ports, sharing that
        // port's queue), so stealing never changes the arbitration network
        // — response routing is by request id, not port. For a non-stolen
        // instance `home == unit` and this is exactly the seed port.
        let port = h.port_base
            + (tile % h.tiles.len()) * h.dfg.mem_ports
            + h.dfg.blocks[block_idx].nodes[node].mem_port.expect("memory node has a port");
        let id = ReqId(self.next_req);
        let req = MemReq { id, port, addr, size, kind, wdata };
        if self.databox.enqueue(req, now) {
            let deadline = self.initial_deadline(now);
            self.req_map.insert(
                id.0,
                ReqMeta { kind: ReqKind::Tile, unit, tile, node, req, deadline, attempts: 0 },
            );
            self.next_req += 1;
            true
        } else {
            false
        }
    }

    /// Deadline for a freshly issued request: the retry timeout when memory
    /// retry is armed, the watchdog window when only the watchdog is, and
    /// "never" on the fault-free fast path (so fault-free timing is
    /// untouched by recovery machinery).
    fn initial_deadline(&self, now: u64) -> u64 {
        if self.fault_rt.is_none() {
            return u64::MAX;
        }
        let tol = &self.cfg.tolerance;
        if tol.mem_retry {
            now + tol.mem_timeout
        } else if let Some(w) = tol.watchdog_timeout {
            now + w
        } else {
            u64::MAX
        }
    }

    // ---- bounded-resource admission control --------------------------------

    /// Park a refused spawn in the overflow arena: allocate an arena slot,
    /// push the modeled 8-byte write through the data box, and append the
    /// entry to the unit's overflow list. Hands the arguments back when
    /// the arena is exhausted or the data box refused the write this
    /// cycle, so the caller can fall through to the inline path.
    fn try_spill(
        &mut self,
        unit: usize,
        args: Vec<Val>,
        parent: Option<(usize, usize)>,
        call_ret: Option<CallRet>,
        via_detach: bool,
        now: u64,
    ) -> Result<(), Vec<Val>> {
        let addr = match self.spill_free.pop() {
            Some(a) => a,
            None if self.spill_next < self.spill_limit => {
                let a = self.spill_next;
                self.spill_next += 8;
                a
            }
            None => return Err(args),
        };
        let id = ReqId(self.next_req);
        let req = MemReq {
            id,
            port: self.units[unit].port_base,
            addr,
            size: 8,
            kind: MemOpKind::Write,
            wdata: args.first().copied().map(val_bits).unwrap_or(0),
        };
        if !self.databox.enqueue(req, now) {
            self.spill_free.push(addr);
            return Err(args);
        }
        self.next_req += 1;
        let deadline = self.initial_deadline(now);
        self.req_map.insert(
            id.0,
            ReqMeta {
                kind: ReqKind::SpillWrite,
                unit,
                tile: usize::MAX,
                node: usize::MAX,
                req,
                deadline,
                attempts: 0,
            },
        );
        self.units[unit].overflow.push_back(SpilledEntry {
            args,
            parent,
            call_ret,
            via_detach,
            spawned_at: now,
            addr,
        });
        self.spills += 1;
        self.progress = true;
        Ok(())
    }

    /// Start refills for units that have both a spilled entry and a free
    /// queue slot: reserve the slot and issue the modeled arena read. The
    /// entry is installed when the response arrives
    /// ([`Self::install_refill`]). Units are scanned in index order and at
    /// most one refill is outstanding per unit, keeping the schedule
    /// deterministic.
    fn pump_refills(&mut self, now: u64) {
        for unit in 0..self.units.len() {
            if self.units[unit].pending_refill.is_some()
                || self.units[unit].overflow.is_empty()
                || self.units[unit].free.is_empty()
            {
                continue;
            }
            let addr = self.units[unit].overflow.front().expect("nonempty overflow").addr;
            let id = ReqId(self.next_req);
            let req = MemReq {
                id,
                port: self.units[unit].port_base,
                addr,
                size: 8,
                kind: MemOpKind::Read,
                wdata: 0,
            };
            if !self.databox.enqueue(req, now) {
                continue;
            }
            self.next_req += 1;
            let deadline = self.initial_deadline(now);
            self.req_map.insert(
                id.0,
                ReqMeta {
                    kind: ReqKind::RefillRead,
                    unit,
                    tile: usize::MAX,
                    node: usize::MAX,
                    req,
                    deadline,
                    attempts: 0,
                },
            );
            let u = &mut self.units[unit];
            let entry = u.overflow.pop_front().expect("nonempty overflow");
            let slot = u.free.pop().expect("nonempty free list");
            u.pending_refill = Some(PendingRefill { slot, entry });
            self.progress = true;
        }
    }

    /// The arena read came back: install the spilled entry into its
    /// reserved queue slot as a freshly arrived spawn (original spawn time
    /// preserved for latency accounting) and return the arena slot.
    fn install_refill(&mut self, unit: usize, now: u64) {
        let spawn_cost = self.cfg.spawn_cost;
        let u = &mut self.units[unit];
        // invariant: refill request ids map 1:1 to the unit's single
        // outstanding refill.
        let PendingRefill { slot, entry } =
            u.pending_refill.take().expect("refill response with a pending refill");
        let SpilledEntry { args, parent, call_ret, via_detach, spawned_at, addr } = entry;
        u.entries[slot] = Some(QueueEntry {
            args,
            parent,
            call_ret,
            children: 0,
            waiting_sync: false,
            saved: None,
            ready_at: now + spawn_cost,
            spawned_at,
            dispatched_once: false,
            host: false,
            via_detach,
            poisoned: false,
        });
        u.ready.push(slot);
        self.spill_free.push(addr);
        self.refills += 1;
        self.record(now, unit, slot, SimEventKind::Spawned { parent });
    }

    /// Deadlock recovery: break a spawn-edge wait cycle by forcing the
    /// globally oldest spilled spawn down the inline path (even when
    /// `inline_spawn` is off — this is the break-glass mechanism that
    /// keeps `Deadlock` reserved for genuinely unrecoverable states).
    /// Returns `false` when nothing is spilled, i.e. the stall is not a
    /// spawn cycle this mechanism can break.
    fn recover_blocked_spawn(&mut self, now: u64) -> Result<bool, SimError> {
        let Some(unit) =
            (0..self.units.len()).filter(|&u| !self.units[u].overflow.is_empty()).min_by_key(
                |&u| self.units[u].overflow.front().map(|e| e.spawned_at).unwrap_or(u64::MAX),
            )
        else {
            return Ok(false);
        };
        let entry = self.units[unit].overflow.pop_front().expect("nonempty overflow");
        let SpilledEntry { args, parent, call_ret, addr, .. } = entry;
        self.spill_free.push(addr);
        let (value, _cost) = self.exec_inline(unit, args, 0)?;
        self.deliver_completion(parent, call_ret, value, now);
        self.progress = true;
        Ok(true)
    }

    /// Bounds/alignment check for an inline (functional) memory access,
    /// mirroring [`MemSystem::issue`]'s validation but bounded by the
    /// program-visible footprint (the overflow arena above it is reserved
    /// for the engine).
    fn check_inline_access(&self, unit: usize, addr: u64, size: u8) -> Result<(), SimError> {
        let bounds = if self.spill_base > 0 { self.spill_base } else { self.ms.size() as u64 };
        let fault = if !size.is_power_of_two() || size > 8 {
            Some(MemError::BadSize { size })
        } else if !addr.is_multiple_of(u64::from(size)) {
            Some(MemError::Misaligned { addr, size })
        } else if u128::from(addr) + u128::from(size) > u128::from(bounds) {
            Some(MemError::OutOfBounds { addr, size, mem_bytes: bounds as usize })
        } else {
            None
        };
        match fault {
            Some(fault) => Err(SimError::Memory {
                unit: Some(self.units[unit].name.clone()),
                tile: None,
                fault,
            }),
            None => Ok(()),
        }
    }

    /// Execute one dynamic instance of `unit`'s task functionally, on the
    /// spawning tile's behalf (Cilk-style work-first serial elision).
    /// Memory effects go straight through the functional store — the
    /// timing/functional split keeps [`MemSystem::data`] coherent with the
    /// cycle-level path — and the returned cost (accumulated node
    /// latencies, hit-latency per access, and spawn/sync/block-transition
    /// overheads) models the serial execution time the tile pays.
    fn exec_inline(
        &mut self,
        unit: usize,
        args: Vec<Val>,
        depth: usize,
    ) -> Result<(Option<Val>, u64), SimError> {
        if depth > 2048 {
            return Err(SimError::Unsupported(
                "inline spawn recursion exceeded 2048 frames".into(),
            ));
        }
        self.inline_spawns += 1;
        self.units[unit].stats.tasks_executed += 1;
        let dfg = Rc::clone(&self.units[unit].dfg);
        let func = self.units[unit].func;
        let hit = u64::from(self.ms.cache.config().hit_latency);
        let mut env = self.units[unit].arg_env(&args);
        let mut cost = 0u64;
        let mut prev_block: Option<BlockId> = None;
        let mut block_idx =
            self.units[unit].block_idx(dfg.entry).expect("entry block inside the task");
        loop {
            let blk = &dfg.blocks[block_idx];
            let n = blk.nodes.len();
            let mut done = vec![false; n];
            let mut vals: Vec<Option<Val>> = vec![None; n];
            let mut remaining = n;
            while remaining > 0 {
                let mut progressed = false;
                for idx in 0..n {
                    if done[idx] {
                        continue;
                    }
                    let node = &blk.nodes[idx];
                    let op_ready = |o: &Operand| match o {
                        Operand::Local(i) => done[*i],
                        Operand::Env(_) | Operand::Imm(_) => true,
                    };
                    let data_ok = match &node.op {
                        NodeOp::Phi { incomings } => incomings
                            .iter()
                            .find(|(b, _)| Some(*b) == prev_block)
                            .map(|(_, o)| op_ready(o))
                            .unwrap_or(false),
                        _ => node.operands.iter().all(op_ready),
                    };
                    if !data_ok || !node.order_deps.iter().all(|&d| done[d]) {
                        continue;
                    }
                    let value = match &node.op {
                        NodeOp::Load { size } => {
                            let addr = resolve_inline(&node.operands[0], &vals, &env).as_int();
                            self.check_inline_access(unit, addr, *size)?;
                            let raw = self.ms.read_bits(addr, *size);
                            cost += hit;
                            Some(load_value(self.module.function(func), node, raw))
                        }
                        NodeOp::Store { size } => {
                            let addr = resolve_inline(&node.operands[0], &vals, &env).as_int();
                            let data = val_bits(resolve_inline(&node.operands[1], &vals, &env));
                            self.check_inline_access(unit, addr, *size)?;
                            self.ms.write_bits(addr, *size, data);
                            cost += hit;
                            None
                        }
                        NodeOp::CallSpawn { callee } => {
                            let cargs: Vec<Val> = node
                                .operands
                                .iter()
                                .map(|o| resolve_inline(o, &vals, &env))
                                .collect();
                            let callee_unit = self.func_root[callee.0 as usize];
                            let (r, c) = self.exec_inline(callee_unit, cargs, depth + 1)?;
                            cost += c + self.cfg.spawn_cost;
                            Some(r.unwrap_or(Val::Int(0)))
                        }
                        _ => {
                            let (v, lat) = self.eval_pure(
                                node,
                                &|o| resolve_inline(o, &vals, &env),
                                prev_block,
                            )?;
                            cost += u64::from(lat);
                            v
                        }
                    };
                    if let (Some(r), Some(v)) = (node.result, value) {
                        env[r.0 as usize] = Some(v);
                    }
                    vals[idx] = value;
                    done[idx] = true;
                    remaining -= 1;
                    progressed = true;
                }
                if !progressed {
                    return Err(SimError::Unsupported(
                        "inline executor wedged on an unready dataflow node".into(),
                    ));
                }
            }
            let cur = blk.block;
            let next = match &blk.term {
                TermInfo::Br(t) => *t,
                TermInfo::CondBr { cond, if_true, if_false } => {
                    if resolve_inline(cond, &vals, &env).as_int() & 1 == 1 {
                        *if_true
                    } else {
                        *if_false
                    }
                }
                TermInfo::Ret(v) => {
                    return Ok((v.as_ref().map(|o| resolve_inline(o, &vals, &env)), cost));
                }
                TermInfo::Reattach => return Ok((None, cost)),
                TermInfo::Detach { child, args: dargs, cont } => {
                    let cargs: Vec<Val> =
                        dargs.iter().map(|o| resolve_inline(o, &vals, &env)).collect();
                    let child_unit = self.unit_of[func.0 as usize][child.0 as usize];
                    let (_, c) = self.exec_inline(child_unit, cargs, depth + 1)?;
                    cost += c + self.cfg.spawn_cost;
                    *cont
                }
                TermInfo::Sync(cont) => {
                    // Children already ran synchronously above; the sync
                    // itself still pays its modeled cost.
                    cost += self.cfg.sync_cost;
                    *cont
                }
            };
            cost += self.cfg.block_transition;
            prev_block = Some(cur);
            block_idx = self.units[unit].block_idx(next).expect("branch target inside the task");
        }
    }
}

/// Find a directed cycle in the unit wait-for graph, returned as its edge
/// sequence (empty when the graph is acyclic).
fn find_cycle(n: usize, edges: &[WaitEdge]) -> Vec<WaitEdge> {
    fn dfs(
        v: usize,
        state: &mut [u8], // 0 = unvisited, 1 = on path, 2 = done
        path: &mut Vec<WaitEdge>,
        edges: &[WaitEdge],
    ) -> Option<usize> {
        state[v] = 1;
        for e in edges.iter().filter(|e| e.from == v) {
            if state[e.to] == 1 {
                path.push(*e);
                return Some(e.to);
            }
            if state[e.to] == 0 {
                path.push(*e);
                if let Some(root) = dfs(e.to, state, path, edges) {
                    return Some(root);
                }
                path.pop();
            }
        }
        state[v] = 2;
        None
    }
    let mut state = vec![0u8; n];
    let mut path: Vec<WaitEdge> = Vec::new();
    for v in 0..n {
        if state[v] == 0 {
            path.clear();
            if let Some(root) = dfs(v, &mut state, &mut path, edges) {
                let start = path.iter().position(|e| e.from == root).unwrap_or(0);
                return path[start..].to_vec();
            }
        }
    }
    Vec::new()
}

/// Resolve an operand during inline (functional) execution: a completed
/// local node's value, an environment binding, or an immediate.
fn resolve_inline(o: &Operand, vals: &[Option<Val>], env: &[Option<Val>]) -> Val {
    match o {
        Operand::Local(i) => vals[*i].expect("local operand of a completed node"),
        Operand::Env(v) => env[v.0 as usize].expect("env value bound before inline use"),
        Operand::Imm(c) => const_val(c),
    }
}

fn const_val(c: &Constant) -> Val {
    match c {
        Constant::Int { bits, .. } => Val::Int(*bits),
        Constant::F32(x) => Val::F32(*x),
        Constant::F64(x) => Val::F64(*x),
        Constant::NullPtr(_) => Val::Int(0),
    }
}

fn val_bits(v: Val) -> u64 {
    match v {
        Val::Int(x) => x,
        Val::F32(x) => u64::from(x.to_bits()),
        Val::F64(x) => x.to_bits(),
    }
}

fn load_value(f: &Function, node: &DfgNode, rdata: u64) -> Val {
    match node.result.map(|r| f.value_ty(r)) {
        Some(Type::F32) => Val::F32(f32::from_bits(rdata as u32)),
        Some(Type::F64) => Val::F64(f64::from_bits(rdata)),
        Some(&Type::Int(w)) => Val::Int(mask_to_width(rdata, w)),
        _ => Val::Int(rdata),
    }
}

fn eval_cast(kind: CastKind, v: Val, from_w: u8, to_w: u8) -> Val {
    match kind {
        CastKind::ZExt => Val::Int(v.as_int()),
        CastKind::SExt => Val::Int(mask_to_width(sign_extend(v.as_int(), from_w) as u64, to_w)),
        CastKind::Trunc => Val::Int(mask_to_width(v.as_int(), to_w)),
        CastKind::SiToFp => {
            let s = sign_extend(v.as_int(), from_w);
            if to_w == 32 {
                Val::F32(s as f32)
            } else {
                Val::F64(s as f64)
            }
        }
        CastKind::FpToSi => {
            let x = match v {
                Val::F32(x) => x as f64,
                Val::F64(x) => x,
                Val::Int(_) => panic!("fptosi of integer"),
            };
            Val::Int(mask_to_width(x as i64 as u64, to_w))
        }
        CastKind::PtrCast | CastKind::PtrToInt | CastKind::IntToPtr => Val::Int(v.as_int()),
        CastKind::FpExt => Val::F64(v.as_f32() as f64),
        CastKind::FpTrunc => Val::F32(v.as_f64() as f32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorConfig;
    use tapas_ir::{CmpPred, FunctionBuilder, Module, Type};

    /// Stages 1–2 with the default latency library, then elaboration; the
    /// one way every test module of the engine builds an accelerator.
    pub(super) fn elaborate(m: &Module, cfg: &AcceleratorConfig) -> Accelerator {
        let (graphs, dfgs) = tapas_dfg::lower_module(m, &tapas_dfg::LatencyModel::default())
            .expect("test modules lower");
        Accelerator::elaborate(m, &graphs, &dfgs, cfg)
    }

    fn run_both(
        m: &Module,
        f: FuncId,
        args: &[Val],
        mem_init: &[u8],
        cfg: &AcceleratorConfig,
    ) -> (SimOutcome, Vec<u8>, Option<Val>, Vec<u8>) {
        // Accelerator
        let mut acc = elaborate(m, cfg);
        acc.mem_mut().write_bytes(0, mem_init);
        let out = acc.run(f, args).unwrap();
        let acc_mem = acc.mem().read_bytes(0, mem_init.len()).to_vec();
        // Interpreter golden model
        let mut im = mem_init.to_vec();
        let gold =
            tapas_ir::interp::run(m, f, args, &mut im, &tapas_ir::interp::InterpConfig::default())
                .unwrap();
        (out, acc_mem, gold.ret, im)
    }

    /// Parallel-for over an array: a[i] += 1 for i in 0..n (Fig. 2 shape).
    pub(super) fn build_pfor_inc(m: &mut Module) -> FuncId {
        let mut b =
            FunctionBuilder::new("pfor_inc", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
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

    #[test]
    fn straight_line_task_matches_interpreter() {
        let mut b = FunctionBuilder::new("axpy1", vec![Type::ptr(Type::I32), Type::I32], Type::I32);
        let (p, x) = (b.param(0), b.param(1));
        let v = b.load(p);
        let prod = b.mul(v, x);
        let three = b.const_int(Type::I32, 3);
        let s = b.add(prod, three);
        b.store(p, s);
        b.ret(Some(s));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mem: Vec<u8> = 5i32.to_le_bytes().to_vec();
        let (out, acc_mem, gold_ret, gold_mem) =
            run_both(&m, f, &[Val::Int(0), Val::Int(7)], &mem, &AcceleratorConfig::default());
        assert_eq!(out.ret, gold_ret);
        assert_eq!(acc_mem, gold_mem);
        assert_eq!(out.ret, Some(Val::Int(38)));
        assert!(out.cycles > 40, "two cache misses dominate");
    }

    #[test]
    fn memory_bound_kernel_skips_idle_cycles_without_changing_them() {
        // One tile waiting on two cache misses: almost every cycle is idle,
        // so the event-driven core must skip — and land on exactly the same
        // cycle count as the stepped seed core.
        let mut b = FunctionBuilder::new("axpy1", vec![Type::ptr(Type::I32), Type::I32], Type::I32);
        let (p, x) = (b.param(0), b.param(1));
        let v = b.load(p);
        let prod = b.mul(v, x);
        let three = b.const_int(Type::I32, 3);
        let s = b.add(prod, three);
        b.store(p, s);
        b.ret(Some(s));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mem: Vec<u8> = 5i32.to_le_bytes().to_vec();
        let args = [Val::Int(0), Val::Int(7)];
        let event = AcceleratorConfig::default();
        let mut stepped = event.clone();
        stepped.event_driven = false;
        let (ev, ev_mem, _, _) = run_both(&m, f, &args, &mem, &event);
        let (st, st_mem, _, _) = run_both(&m, f, &args, &mem, &stepped);
        assert_eq!(ev.cycles, st.cycles, "event-driven core changed the cycle count");
        assert_eq!(ev_mem, st_mem);
        assert!(ev.stats.skipped_cycles > 0, "memory stalls should be skippable");
        assert_eq!(ev.cycles, ev.stats.engine_events + ev.stats.skipped_cycles);
        assert_eq!(st.stats.skipped_cycles, 0);
        assert_eq!(st.stats.engine_events, st.cycles);
        // Most of this kernel's lifetime is miss latency, so skipping should
        // do real work: fewer than half the cycles are actually stepped.
        assert!(
            ev.stats.engine_events * 2 < ev.cycles,
            "expected a mostly-idle run: {} events over {} cycles",
            ev.stats.engine_events,
            ev.cycles
        );
    }

    #[test]
    fn fully_busy_kernel_never_skips() {
        // A long chain of dependent single-cycle ALU ops: the tile retires a
        // node every cycle, so there is never a quiescent window to skip.
        // spawn_cost(0) makes the root task dispatchable at cycle 0 —
        // otherwise the initial alloc handshake is itself a skippable gap.
        let mut b = FunctionBuilder::new("alu_chain", vec![Type::I32], Type::I32);
        let mut v = b.param(0);
        let one = b.const_int(Type::I32, 1);
        for _ in 0..48 {
            v = b.add(v, one);
        }
        b.ret(Some(v));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let cfg = AcceleratorConfig::builder().spawn_cost(0).build().unwrap();
        let (out, _, gold_ret, _) = run_both(&m, f, &[Val::Int(1)], &[], &cfg);
        assert_eq!(out.ret, gold_ret);
        assert_eq!(out.ret, Some(Val::Int(49)));
        assert_eq!(out.stats.skipped_cycles, 0, "a busy machine has nothing to skip");
        assert_eq!(out.stats.engine_events, out.cycles);
    }

    #[test]
    fn serial_loop_matches_interpreter() {
        // sum over memory: while i<n acc+=a[i]
        let mut b = FunctionBuilder::new("sum", vec![Type::ptr(Type::I32), Type::I64], Type::I32);
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        let (a, n) = (b.param(0), b.param(1));
        let zero64 = b.const_int(Type::I64, 0);
        let zero32 = b.const_int(Type::I32, 0);
        let one = b.const_int(Type::I64, 1);
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, zero64)]);
        let acc = b.phi(Type::I32, vec![(entry, zero32)]);
        let c = b.icmp(CmpPred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.gep_index(a, i);
        let v = b.load(p);
        let acc2 = b.add(acc, v);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mut mem = Vec::new();
        for k in 0..16i32 {
            mem.extend_from_slice(&k.to_le_bytes());
        }
        let (out, acc_mem, gold_ret, gold_mem) =
            run_both(&m, f, &[Val::Int(0), Val::Int(16)], &mem, &AcceleratorConfig::default());
        assert_eq!(out.ret, gold_ret);
        assert_eq!(out.ret, Some(Val::Int(120)));
        assert_eq!(acc_mem, gold_mem);
    }

    #[test]
    fn parallel_for_spawns_and_matches() {
        let mut m = Module::new("m");
        let f = build_pfor_inc(&mut m);
        let n = 24u64;
        let mut mem = Vec::new();
        for k in 0..n as i32 {
            mem.extend_from_slice(&(k * 3).to_le_bytes());
        }
        let cfg = AcceleratorConfig::default().with_default_tiles(2);
        let (out, acc_mem, _, gold_mem) = run_both(&m, f, &[Val::Int(0), Val::Int(n)], &mem, &cfg);
        assert_eq!(acc_mem, gold_mem);
        assert_eq!(out.stats.spawns, n);
        // Uncontended spawn latency is small ("~10 cycles" claim); the
        // average includes queueing delay when producers outrun tiles.
        let min = out.stats.min_spawn_latency.expect("detaches ran, latency is defined");
        assert!(min <= 12, "min spawn latency {min}");
    }

    #[test]
    fn spawn_latency_fields_well_defined_without_spawns() {
        let mut b = FunctionBuilder::new("leaf", vec![Type::I32], Type::I32);
        let x = b.param(0);
        let one = b.const_int(Type::I32, 1);
        let y = b.add(x, one);
        b.ret(Some(y));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mut acc = elaborate(&m, &AcceleratorConfig::default());
        let out = acc.run(f, &[Val::Int(4)]).unwrap();
        assert_eq!(out.ret, Some(Val::Int(5)));
        assert_eq!(out.stats.spawns, 0);
        assert_eq!(out.stats.min_spawn_latency, None, "no sentinel for the empty run");
        assert_eq!(out.stats.avg_spawn_latency(), 0.0);
        assert_eq!(out.stats.total_spawn_latency, 0);
    }

    #[test]
    fn more_tiles_do_not_change_results_but_help_performance() {
        let mut m = Module::new("m");
        let f = build_pfor_inc(&mut m);
        let n = 64u64;
        let mut mem = vec![0u8; (n * 4) as usize];
        for k in 0..n as usize {
            mem[k * 4..k * 4 + 4].copy_from_slice(&(k as i32).to_le_bytes());
        }
        let run_with = |tiles: usize| {
            let cfg = AcceleratorConfig::default().with_tiles("pfor_inc::task1", tiles);
            let mut acc = elaborate(&m, &cfg);
            acc.mem_mut().write_bytes(0, &mem);
            let out = acc.run(f, &[Val::Int(0), Val::Int(n)]).unwrap();
            (out.cycles, acc.mem().read_bytes(0, mem.len()).to_vec())
        };
        let (c1, m1) = run_with(1);
        let (c4, m4) = run_with(4);
        assert_eq!(m1, m4, "tile count must not affect results");
        assert!(c4 <= c1, "more tiles should not slow down ({c4} vs {c1})");
    }

    #[test]
    fn nested_detach_sync_matches() {
        // Parent spawns a child; child spawns a grandchild writing memory.
        let mut b = FunctionBuilder::new("nest", vec![Type::ptr(Type::I32)], Type::Void);
        let t1 = b.create_block("t1");
        let c1 = b.create_block("c1");
        let gt = b.create_block("gt");
        let gc = b.create_block("gc");
        let gdone = b.create_block("gdone");
        let done = b.create_block("done");
        let p = b.param(0);
        b.detach(t1, c1);
        // child region: spawn grandchild, sync, reattach
        b.switch_to(t1);
        b.detach(gt, gc);
        b.switch_to(gt);
        let seven = b.const_int(Type::I32, 7);
        b.store(p, seven);
        b.reattach(gc);
        b.switch_to(gc);
        b.sync(gdone);
        b.switch_to(gdone);
        let v = b.load(p);
        let one = b.const_int(Type::I32, 1);
        let v2 = b.add(v, one);
        b.store(p, v2);
        b.reattach(c1);
        b.switch_to(c1);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mem = vec![0u8; 4];
        let (out, acc_mem, _, gold_mem) =
            run_both(&m, f, &[Val::Int(0)], &mem, &AcceleratorConfig::default());
        assert_eq!(acc_mem, gold_mem);
        assert_eq!(i32::from_le_bytes(acc_mem[0..4].try_into().unwrap()), 8);
        assert_eq!(out.stats.spawns, 2);
    }

    /// Recursive parallel fib via detached call (the §IV-C pattern).
    fn build_parallel_fib(m: &mut Module) -> FuncId {
        // fib(n): if n < 2 return n
        //         x = spawn { fib(n-1) -> store to scratch }
        //         actually: spawn task computing fib(n-1) into mem[addr],
        //         compute fib(n-2) serially via call, sync, add.
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
        // spawned: r1 = fib(n-1, out+1); store r1 to out[0]
        b.switch_to(task);
        let one = b.const_int(Type::I32, 1);
        let n1 = b.sub(n, one);
        let one64 = b.const_int(Type::I64, 1);
        let sub_out = b.gep_index(out, one64);
        let r1 = b.call(FuncId(0), vec![n1, sub_out], Type::I32).unwrap();
        b.store(out, r1);
        b.reattach(cont);
        // continuation: r2 = fib(n-2, out+33) serial call
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

    #[test]
    fn recursive_parallel_fib() {
        let mut m = Module::new("m");
        let f = build_parallel_fib(&mut m);
        tapas_ir::verify_module(&m).unwrap();
        // Scratch space: 66 slots per level, 12 levels is plenty for n=10.
        let mem = vec![0u8; 1 << 16];
        let cfg =
            AcceleratorConfig { ntasks: 256, ..AcceleratorConfig::default() }.with_default_tiles(2);
        let (out, _, gold_ret, _) = run_both(&m, f, &[Val::Int(10), Val::Int(4096)], &mem, &cfg);
        assert_eq!(gold_ret, Some(Val::Int(55)));
        assert_eq!(out.ret, Some(Val::Int(55)));
        assert!(out.stats.calls > 50, "recursion bridged through call spawns");
        assert!(out.stats.spawns > 20);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut b = FunctionBuilder::new("inf", vec![], Type::Void);
        let lp = b.create_block("lp");
        b.br(lp);
        b.switch_to(lp);
        b.br(lp);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let cfg = AcceleratorConfig { max_cycles: 5000, ..AcceleratorConfig::default() };
        let mut acc = elaborate(&m, &cfg);
        let err = acc.run(f, &[]).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit(_)));
    }

    #[test]
    fn div_by_zero_reported() {
        let mut b = FunctionBuilder::new("dz", vec![Type::I32], Type::I32);
        let x = b.param(0);
        let zero = b.const_int(Type::I32, 0);
        let q = b.sdiv(x, zero);
        b.ret(Some(q));
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mut acc = elaborate(&m, &AcceleratorConfig::default());
        let err = acc.run(f, &[Val::Int(3)]).unwrap_err();
        assert_eq!(err, SimError::DivByZero);
    }

    #[test]
    fn unit_per_task_elaborated() {
        let mut m = Module::new("m");
        let f = build_pfor_inc(&mut m);
        let _ = f;
        let acc = elaborate(&m, &AcceleratorConfig::default());
        assert_eq!(acc.num_units(), 2);
        let names = acc.unit_names();
        assert!(names[0].contains("root"));
        assert!(names[1].contains("task"));
    }

    #[test]
    fn stats_accumulate_busy_cycles() {
        let mut m = Module::new("m");
        let f = build_pfor_inc(&mut m);
        let mut acc = elaborate(&m, &AcceleratorConfig::default());
        let n = 8u64;
        let out = acc.run(f, &[Val::Int(0), Val::Int(n)]).unwrap();
        let root = &out.stats.units[0];
        let child = &out.stats.units[1];
        assert!(root.busy_tile_cycles > 0);
        assert!(child.busy_tile_cycles > 0);
        assert_eq!(child.tasks_executed, n);
        assert_eq!(root.tasks_executed, 1);
        assert!(out.stats.cache.hits + out.stats.cache.misses > 0);
    }
}

#[cfg(test)]
mod event_tests {
    use super::tests::elaborate;
    use super::*;
    use crate::AcceleratorConfig;
    use tapas_ir::{CmpPred, FunctionBuilder, Module, Type};

    #[test]
    fn event_trace_covers_task_lifecycles() {
        // parallel-for with 6 iterations
        let mut b = FunctionBuilder::new("k", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
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
        let one32 = b.const_int(Type::I32, 1);
        b.store(p, one32);
        b.reattach(latch);
        b.switch_to(latch);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, latch, i2);
        b.br(header);
        b.switch_to(exit);
        b.sync(done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());

        let cfg = AcceleratorConfig {
            record_events: true,
            mem_bytes: 4096,
            ..AcceleratorConfig::default()
        };
        let mut acc = elaborate(&m, &cfg);
        let out = acc.run(f, &[Val::Int(0), Val::Int(6)]).unwrap();
        let events = acc.take_events();
        assert!(!events.is_empty());
        let count =
            |k: fn(&SimEventKind) -> bool| events.iter().filter(|e| k(&e.kind)).count() as u64;
        // 6 children + 1 host root spawned-and-completed
        assert_eq!(count(|k| matches!(k, SimEventKind::Spawned { .. })), 7);
        assert_eq!(
            count(|k| matches!(k, SimEventKind::Spawned { parent: Some(_) })),
            6,
            "every detach-spawn carries its parent id"
        );
        assert_eq!(count(|k| matches!(k, SimEventKind::Completed)), 7);
        assert_eq!(
            count(|k| matches!(k, SimEventKind::SyncWait)),
            1,
            "the root parks once at its sync"
        );
        // Every slot's dispatch precedes its completion.
        for e in &events {
            if let SimEventKind::Completed = e.kind {
                let d = events
                    .iter()
                    .find(|x| {
                        x.unit == e.unit
                            && x.slot == e.slot
                            && matches!(x.kind, SimEventKind::Dispatched { .. })
                    })
                    .expect("dispatched before completed");
                assert!(d.cycle <= e.cycle);
            }
        }
        // Trace drained: second take is empty.
        assert!(acc.take_events().is_empty());
        assert_eq!(out.stats.spawns, 6);
    }

    #[test]
    fn events_off_by_default() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.ret(None);
        let mut m = Module::new("m");
        let f = m.add_function(b.finish());
        let mut acc = elaborate(&m, &AcceleratorConfig::default());
        acc.run(f, &[]).unwrap();
        assert!(acc.take_events().is_empty());
    }
}

#[cfg(test)]
mod profile_tests {
    use super::tests::elaborate;
    use super::*;
    use crate::{AcceleratorConfig, ProfileLevel, StallReason};
    use tapas_ir::{CmpPred, FunctionBuilder, Module, Type};

    fn build_pfor(m: &mut Module) -> FuncId {
        let mut b = FunctionBuilder::new("pf", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
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

    #[test]
    fn profile_attribution_sums_to_cycles() {
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let cfg =
            AcceleratorConfig::builder().tiles(2).profile(ProfileLevel::Full).build().unwrap();
        let mut acc = elaborate(&m, &cfg);
        let out = acc.run(f, &[Val::Int(0), Val::Int(16)]).unwrap();
        let profile = out.profile.expect("profiling was on");
        profile.check_invariant().unwrap();
        assert_eq!(profile.cycles, out.cycles);
        assert_eq!(profile.units.len(), 2);
        assert!(profile.stall_total(StallReason::Busy) > 0, "somebody worked");
        assert_eq!(profile.attributed_cycles(), profile.cycles * profile.tile_count() as u64);
        // Full level records the node mix; this kernel has memory nodes.
        let mem_class = crate::NodeClass::Memory as usize;
        let total_mem: u64 = profile.units.iter().map(|u| u.node_mix[mem_class]).sum();
        assert!(total_mem > 0);
        // The queue saw the spawned entries.
        assert!(profile.units[1].queue.peak > 0);
    }

    #[test]
    fn profiling_does_not_perturb_the_simulation() {
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let run_with = |level: ProfileLevel| {
            let cfg = AcceleratorConfig::builder().tiles(2).profile(level).build().unwrap();
            let mut acc = elaborate(&m, &cfg);
            acc.run(f, &[Val::Int(0), Val::Int(24)]).unwrap()
        };
        let off = run_with(ProfileLevel::Off);
        let on = run_with(ProfileLevel::Full);
        assert!(off.profile.is_none());
        assert_eq!(off.cycles, on.cycles, "profiling must be timing-neutral");
        assert_eq!(off.ret, on.ret);
        assert_eq!(off.stats.spawns, on.stats.spawns);
        assert_eq!(off.stats.cache.hits, on.stats.cache.hits);
        assert_eq!(off.stats.cache.misses, on.stats.cache.misses);
    }

    #[test]
    fn trace_path_writes_chrome_json() {
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let dir = std::env::temp_dir().join("tapas-sim-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let cfg = AcceleratorConfig::builder().trace_path(&path).build().unwrap();
        let mut acc = elaborate(&m, &cfg);
        acc.run(f, &[Val::Int(0), Val::Int(8)]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"ph\":\"X\""));
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod admission_tests {
    use super::tests::elaborate;
    use super::*;
    use crate::{AcceleratorConfig, AdmissionControl, ProfileLevel, StallReason};
    use tapas_ir::{CmpPred, FunctionBuilder, Module, Type};

    /// Parallel-for a[i] += 1 (same shape as the main test module's).
    fn build_pfor(m: &mut Module) -> FuncId {
        let mut b = FunctionBuilder::new("pf", vec![Type::ptr(Type::I32), Type::I64], Type::Void);
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

    /// Recursive parallel fib (same shape as the main test module's).
    fn build_fib(m: &mut Module) -> FuncId {
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

    fn pfor_mem(n: u64) -> Vec<u8> {
        let mut mem = vec![0u8; (n * 4) as usize];
        for k in 0..n as usize {
            mem[k * 4..k * 4 + 4].copy_from_slice(&(k as i32 * 3).to_le_bytes());
        }
        mem
    }

    fn run_pfor(cfg: &AcceleratorConfig, n: u64) -> (SimOutcome, Vec<u8>) {
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let mem = pfor_mem(n);
        let mut acc = elaborate(&m, cfg);
        acc.mem_mut().write_bytes(0, &mem);
        let out = acc.run(f, &[Val::Int(0), Val::Int(n)]).unwrap();
        let final_mem = acc.mem().read_bytes(0, mem.len()).to_vec();
        (out, final_mem)
    }

    fn golden_pfor(n: u64) -> Vec<u8> {
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let mut im = pfor_mem(n);
        tapas_ir::interp::run(
            &m,
            f,
            &[Val::Int(0), Val::Int(n)],
            &mut im,
            &tapas_ir::interp::InterpConfig::default(),
        )
        .unwrap();
        im
    }

    #[test]
    fn one_entry_queue_completes_inline_and_matches() {
        let n = 24u64;
        let cfg = AcceleratorConfig {
            ntasks: 1,
            mem_bytes: 4096,
            admission: Some(AdmissionControl::work_first()),
            ..AcceleratorConfig::default()
        };
        let (out, mem) = run_pfor(&cfg, n);
        assert_eq!(mem, golden_pfor(n), "inline degradation must preserve results");
        assert!(out.stats.inline_spawns > 0, "Ntasks=1 must force inline spawns");
        assert_eq!(out.stats.spills, 0, "work-first admission never spills");
    }

    #[test]
    fn tiny_queue_spills_refills_and_matches() {
        // Profiled on both cores, the queue figures also pin the derived
        // occupancy: a slot `pump_refills` has reserved holds no entry
        // until the arena read lands and must not count as live. The
        // figures are the ones the full-queue scan produced.
        let n = 32u64;
        for event_driven in [true, false] {
            let cfg = AcceleratorConfig {
                ntasks: 2,
                mem_bytes: 4096,
                admission: Some(AdmissionControl::virtualized()),
                profile: ProfileLevel::Full,
                event_driven,
                ..AcceleratorConfig::default()
            };
            let (out, mem) = run_pfor(&cfg, n);
            assert_eq!(mem, golden_pfor(n), "queue virtualization must preserve results");
            assert!(out.stats.spills > 0, "Ntasks=2 must overflow into the arena");
            assert_eq!(out.stats.spills, out.stats.refills, "every spill drains back");
            assert_eq!(out.stats.inline_spawns, 0, "virtualized admission never inlines");
            assert_eq!((out.cycles, out.stats.spills), (793, 30));
            let peaks: Vec<usize> = out.stats.units.iter().map(|u| u.queue_peak).collect();
            assert_eq!(peaks, [1, 2]);
            let profile = out.profile.expect("profiling was on");
            let (root, task) = (&profile.units[0].queue, &profile.units[1].queue);
            assert_eq!(
                (root.mean_occupancy, root.peak, root.full_cycles),
                (0.9987389659520807, 1, 0)
            );
            assert_eq!(
                (task.mean_occupancy, task.peak, task.full_cycles),
                (1.600252206809584, 2, 553)
            );
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_queue_free_list() {
        type Tamper = fn(&mut TaskUnit);
        let cfg = AcceleratorConfig { ntasks: 4, mem_bytes: 4096, ..AcceleratorConfig::default() };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        // Halt mid-run, break one queue invariant of the root unit (one
        // live entry, three free slots), capture, and resume elsewhere.
        let corrupt = |tamper: Tamper| {
            let halt = AcceleratorConfig { halt_at_cycle: Some(40), ..cfg.clone() };
            let mut acc = elaborate(&m, &halt);
            acc.mem_mut().write_bytes(0, &pfor_mem(32));
            assert!(matches!(
                acc.run(f, &[Val::Int(0), Val::Int(32)]),
                Err(SimError::Halted { .. })
            ));
            let root = &mut acc.units[0];
            assert_eq!((root.occupancy(), root.free.len()), (1, 3));
            tamper(root);
            let snap = acc.capture_snapshot(RunCtl {
                start_cycle: 0,
                last_progress: acc.cycle,
                next_snapshot: u64::MAX,
                halt_at: None,
                instrumented: false,
                event_driven: true,
            });
            let mut fresh = elaborate(&m, &cfg);
            match fresh.resume(&snap) {
                Err(SimError::Snapshot(msg)) => msg,
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        };
        let cases: [(&str, Tamper); 6] = [
            ("out of range", |u| u.free[0] = 4),
            ("twice", |u| u.free.push(u.free[0])),
            ("holds an entry", |u| u.free[0] = u.entries.iter().position(Option::is_some).unwrap()),
            ("ready slot", |u| u.ready.push(u.free[0])),
            ("neither free", |u| {
                u.free.pop();
            }),
            ("refill slot", |u| {
                let entry = SpilledEntry {
                    args: Vec::new(),
                    parent: None,
                    call_ret: None,
                    via_detach: false,
                    spawned_at: 0,
                    addr: 0,
                };
                u.pending_refill = Some(PendingRefill { slot: u.free[0], entry });
            }),
        ];
        for (want, tamper) in cases {
            let msg = corrupt(tamper);
            assert!(msg.contains("unit 0") && msg.contains(want), "{want}: {msg}");
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_execution_context() {
        let cfg = AcceleratorConfig { ntasks: 4, mem_bytes: 4096, ..AcceleratorConfig::default() };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let halt = AcceleratorConfig { halt_at_cycle: Some(40), ..cfg.clone() };
        let mut acc = elaborate(&m, &halt);
        acc.mem_mut().write_bytes(0, &pfor_mem(32));
        assert!(matches!(acc.run(f, &[Val::Int(0), Val::Int(32)]), Err(SimError::Halted { .. })));
        let snap = acc.capture_snapshot(RunCtl {
            start_cycle: 0,
            last_progress: acc.cycle,
            next_snapshot: u64::MAX,
            halt_at: None,
            instrumented: false,
            event_driven: true,
        });
        let exec = acc.units.iter().flat_map(|u| &u.tiles).find_map(|t| t.exec.as_ref()).unwrap();
        let bound: Vec<u32> = (0..).zip(&exec.env).filter_map(|(k, v)| v.map(|_| k)).collect();
        let home = &acc.units[exec.home];
        let foreign = BlockId(home.block_index.iter().position(|&i| i == NO_BLOCK).unwrap() as u32);
        assert!(bound.len() >= 2 && exec.resume_block.is_none());
        let encode = |x: &Exec| {
            let mut e = Enc::default();
            enc_exec(&mut e, x);
            e.buf
        };
        // The context re-encoded with its register file replaced by raw
        // keys, which the dense form cannot express: the empty env's count
        // and the absent resume block are the encoding's last 9 bytes.
        let with_keys = |keys: &[u32]| {
            let mut out = encode(&Exec { env: Vec::new(), ..exec.clone() });
            out.truncate(out.len() - 9);
            let mut e = Enc { buf: out };
            e.usize(keys.len());
            for &k in keys {
                e.u32(k);
                enc_val(&mut e, Val::Int(7));
            }
            e.bool(false);
            e.buf
        };
        let original = encode(exec);
        let at = snap.payload.windows(original.len()).position(|w| w == original).unwrap();
        let cases: [(&str, Vec<u8>); 9] = [
            ("home 9 is not a task unit", encode(&Exec { home: 9, ..exec.clone() })),
            ("slot 4 out of range 0..4", encode(&Exec { slot: 4, ..exec.clone() })),
            ("block index 99 is not a block", encode(&Exec { block_idx: 99, ..exec.clone() })),
            ("node states", {
                let mut x = exec.clone();
                x.nodes.push(NodeState::fresh());
                encode(&x)
            }),
            ("is not a value", with_keys(&[bound[0], u32::MAX - 1])),
            ("not strictly ascending", with_keys(&[bound[1], bound[0]])),
            ("not strictly ascending", with_keys(&[bound[0], bound[0]])),
            ("outside task", encode(&Exec { prev_block: Some(foreign), ..exec.clone() })),
            ("outside task", encode(&Exec { resume_block: Some(foreign), ..exec.clone() })),
        ];
        for (want, bytes) in cases {
            let mut payload = snap.payload.clone();
            payload.splice(at..at + original.len(), bytes);
            let bad = EngineSnapshot { payload, ..snap.clone() };
            let mut fresh = elaborate(&m, &cfg);
            match fresh.resume(&bad) {
                Err(SimError::Snapshot(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: expected a snapshot error, got {other:?}"),
            }
        }
        // The untouched capture still resumes.
        let mut fresh = elaborate(&m, &cfg);
        fresh.mem_mut().write_bytes(0, &pfor_mem(32));
        fresh.resume(&snap).unwrap();
    }

    #[test]
    fn restore_rejects_a_broken_entry_link() {
        type Tamper = fn(&mut Accelerator);
        let cfg = AcceleratorConfig { ntasks: 4, mem_bytes: 4096, ..AcceleratorConfig::default() };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        // Halt with the root (unit 0, slot 0; slots 1..4 free) owning the
        // children queued in unit 1, break one link, capture, and resume
        // elsewhere.
        let corrupt = |tamper: Tamper| {
            let halt = AcceleratorConfig { halt_at_cycle: Some(40), ..cfg.clone() };
            let mut acc = elaborate(&m, &halt);
            acc.mem_mut().write_bytes(0, &pfor_mem(32));
            assert!(matches!(
                acc.run(f, &[Val::Int(0), Val::Int(32)]),
                Err(SimError::Halted { .. })
            ));
            assert_eq!(acc.units[0].free, [3, 2, 1]);
            assert!(acc.units[1].entries.iter().flatten().all(|e| e.parent == Some((0, 0))));
            tamper(&mut acc);
            let snap = acc.capture_snapshot(RunCtl {
                start_cycle: 0,
                last_progress: acc.cycle,
                next_snapshot: u64::MAX,
                halt_at: None,
                instrumented: false,
                event_driven: true,
            });
            let mut fresh = elaborate(&m, &cfg);
            match fresh.resume(&snap) {
                Err(SimError::Snapshot(msg)) => msg,
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        };
        fn child(acc: &mut Accelerator) -> &mut QueueEntry {
            acc.units[1].entries.iter_mut().flatten().next().expect("a queued child")
        }
        let cases: [(&str, Tamper); 4] = [
            ("parent (0, 3) is not a live entry", |acc| child(acc).parent = Some((0, 3))),
            ("parent (0, 0) is not a live entry with children", |acc| {
                acc.units[0].entries[0].as_mut().unwrap().children = 0;
            }),
            ("call return (0, 0) node 0 is not in a parked", |acc| {
                acc.units[0].entries[0].as_mut().unwrap().saved = None;
                child(acc).call_ret = Some(CallRet { unit: 0, slot: 0, node: 0 });
            }),
            ("call return (0, 0) node 999 is not in a parked", |acc| {
                let root = acc.units[0].tiles.iter().find_map(|t| t.exec.clone());
                let root = root.expect("the root runs on a tile");
                acc.units[0].entries[0].as_mut().unwrap().saved = Some(Box::new(root));
                child(acc).call_ret = Some(CallRet { unit: 0, slot: 0, node: 999 });
            }),
        ];
        for (want, tamper) in cases {
            let msg = corrupt(tamper);
            assert!(msg.contains("unit 1") && msg.contains(want), "{want}: {msg}");
        }
    }

    #[test]
    fn restore_rejects_a_memory_image_of_the_wrong_length() {
        let cfg = AcceleratorConfig { ntasks: 4, mem_bytes: 4096, ..AcceleratorConfig::default() };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let halt = AcceleratorConfig { halt_at_cycle: Some(40), ..cfg.clone() };
        let mut acc = elaborate(&m, &halt);
        acc.mem_mut().write_bytes(0, &pfor_mem(32));
        assert!(matches!(acc.run(f, &[Val::Int(0), Val::Int(32)]), Err(SimError::Halted { .. })));
        // Seal a payload whose image is half the configured memory.
        acc.ms = MemSystem::new(2048, cfg.cache.clone(), cfg.dram.clone());
        let snap = acc.capture_snapshot(RunCtl {
            start_cycle: 0,
            last_progress: acc.cycle,
            next_snapshot: u64::MAX,
            halt_at: None,
            instrumented: false,
            event_driven: true,
        });
        let mut fresh = elaborate(&m, &cfg);
        match fresh.resume(&snap) {
            Err(SimError::Snapshot(msg)) => assert!(
                msg.contains("memory image is 2048 bytes")
                    && msg.contains("accelerator memory is 4096 bytes"),
                "{msg}"
            ),
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_sparse_image_or_line_list() {
        // Three pages, the last one 10_000 - 2 * 4096 = 1808 bytes long.
        let cfg =
            AcceleratorConfig { ntasks: 4, mem_bytes: 10_000, ..AcceleratorConfig::default() };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let halt = AcceleratorConfig { halt_at_cycle: Some(400), ..cfg.clone() };
        let mut acc = elaborate(&m, &halt);
        acc.mem_mut().write_bytes(0, &pfor_mem(32));
        assert!(matches!(acc.run(f, &[Val::Int(0), Val::Int(32)]), Err(SimError::Halted { .. })));
        let snap = acc.capture_snapshot(RunCtl {
            start_cycle: 0,
            last_progress: acc.cycle,
            next_snapshot: u64::MAX,
            halt_at: None,
            instrumented: false,
            event_driven: true,
        });
        let st = acc.ms.save_state();
        assert_eq!(st.pages.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0]);
        let lines = &st.cache.lines;
        assert!(lines.len() >= 2, "two filled line slots to reorder");
        let encode = |st: &MemSystemState| {
            let mut e = Enc::default();
            enc_mem_system(&mut e, st);
            e.buf
        };
        let original = encode(&st);
        let at = snap.payload.windows(original.len()).position(|w| w == original).unwrap();
        const FULL: &[u8] = &[1; 4096];
        const SHORT: &[u8] = &[1; 1808];
        let pages = |pages: Vec<(usize, &'static [u8])>| MemSystemState { pages, ..st.clone() };
        let cache_lines = |lines| MemSystemState {
            cache: CacheState { lines, ..st.cache.clone() },
            ..st.clone()
        };
        let slots = acc.ms.cache.config().sets() as usize * acc.ms.cache.config().ways as usize;
        let mut out_of_range = lines.clone();
        out_of_range.last_mut().unwrap().0 = slots;
        let mut reversed = lines.clone();
        reversed.swap(0, 1);
        let mut repeated = lines.clone();
        repeated[1].0 = repeated[0].0;
        // The first page's bytes start after the length, the page count,
        // its index and its byte count.
        let slot_range = format!("cache line slot {slots} is out of range 0..{slots}");
        let torn = snap.payload[..at + 32 + 100].to_vec();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "memory image is 1099511627776 bytes but the accelerator memory is 10000 bytes",
                encode(&MemSystemState { len: 1 << 40, ..st.clone() }),
            ),
            ("memory page 3 is out of range 0..3", encode(&pages(vec![(3, FULL)]))),
            (
                "memory pages are not strictly ascending (page 0 after 2)",
                encode(&pages(vec![(2, SHORT), (0, FULL)])),
            ),
            (
                "memory pages are not strictly ascending (page 1 after 1)",
                encode(&pages(vec![(1, FULL), (1, FULL)])),
            ),
            ("memory page 2 is 4096 bytes, expected 1808", encode(&pages(vec![(2, FULL)]))),
            ("memory page 0 is 1808 bytes, expected 4096", encode(&pages(vec![(0, SHORT)]))),
            (&slot_range, encode(&cache_lines(out_of_range))),
            ("cache line slots are not strictly ascending", encode(&cache_lines(reversed))),
            ("cache line slots are not strictly ascending", encode(&cache_lines(repeated))),
        ];
        let resume = |payload| {
            let mut fresh = elaborate(&m, &cfg);
            fresh.resume(&EngineSnapshot { payload, ..snap.clone() })
        };
        for (want, bytes) in cases {
            let mut payload = snap.payload.clone();
            payload.splice(at..at + original.len(), bytes);
            match resume(payload) {
                Err(SimError::Snapshot(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: expected a snapshot error, got {other:?}"),
            }
        }
        match resume(torn) {
            Err(SimError::Snapshot(msg)) => {
                assert!(msg.contains("memory page 0: payload truncated"), "{msg}")
            }
            other => panic!("torn page: expected a snapshot error, got {other:?}"),
        }
        // The untouched capture resumes to the golden result: the image
        // comes from the snapshot alone.
        let mut fresh = elaborate(&m, &cfg);
        fresh.resume(&snap).unwrap();
        assert_eq!(fresh.mem().read_bytes(0, 128), golden_pfor(32));
    }

    #[test]
    fn first_touch_memory_behaves_like_eager_memory() {
        let n = 32u64;
        let cfg = AcceleratorConfig {
            ntasks: 2,
            mem_bytes: 4096,
            admission: Some(AdmissionControl::virtualized()),
            ..AcceleratorConfig::default()
        };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        // A fresh accelerator reads as zeros over its whole memory, overflow
        // arena included, and the arena sits where it always has.
        let fresh = elaborate(&m, &cfg);
        let arena = AdmissionControl::virtualized().overflow_entries * 8;
        assert_eq!((fresh.spill_base, fresh.mem().size()), (4096, 4096 + arena));
        assert!(fresh.mem().read_bytes(0, 4096 + arena).iter().all(|&b| b == 0));
        // An out-of-bounds access names the configured size.
        let mut fresh = elaborate(&m, &cfg);
        let req = MemReq {
            id: ReqId(0),
            port: 0,
            addr: 4096 + arena as u64,
            size: 4,
            kind: MemOpKind::Read,
            wdata: 0,
        };
        let err = fresh.ms.issue(req, 0).unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfBounds { addr: 4096 + arena as u64, size: 4, mem_bytes: 4096 + arena }
        );
        // Kill mid-run, resume into an accelerator whose memory was never
        // touched: cycles and memory match the uninterrupted run.
        let (whole, whole_mem) = run_pfor(&cfg, n);
        let halt = AcceleratorConfig { halt_at_cycle: Some(200), ..cfg.clone() };
        let mut victim = elaborate(&m, &halt);
        victim.mem_mut().write_bytes(0, &pfor_mem(n));
        assert!(matches!(victim.run(f, &[Val::Int(0), Val::Int(n)]), Err(SimError::Halted { .. })));
        let snap = victim.take_halt_snapshot().expect("the halt hook captured a snapshot");
        let mut resumed = elaborate(&m, &cfg);
        let out = resumed.resume(&snap).unwrap();
        assert_eq!(out, whole);
        assert_eq!(resumed.mem().read_bytes(0, whole_mem.len()), &whole_mem[..]);
        assert_eq!(whole_mem, golden_pfor(n));
    }

    #[test]
    fn recursion_on_tiny_queue_recovers_instead_of_deadlocking() {
        let mut m = Module::new("m");
        let f = build_fib(&mut m);
        let cfg = AcceleratorConfig {
            ntasks: 2,
            admission: Some(AdmissionControl::default()),
            ..AcceleratorConfig::default()
        }
        .with_default_tiles(2);
        let mut acc = elaborate(&m, &cfg);
        let out = acc.run(f, &[Val::Int(10), Val::Int(4096)]).unwrap();
        assert_eq!(out.ret, Some(Val::Int(55)), "fib(10) under a 2-entry queue");
    }

    #[test]
    fn deadlock_diagnosis_is_deterministic_without_admission() {
        // Satellite: the same blocked-spawn cycle must render byte-identical
        // across independent runs (stable unit order, no map-order leaks).
        let run_once = || {
            let mut m = Module::new("m");
            let f = build_fib(&mut m);
            let cfg = AcceleratorConfig { ntasks: 2, ..AcceleratorConfig::default() }
                .with_default_tiles(2);
            let mut acc = elaborate(&m, &cfg);
            match acc.run(f, &[Val::Int(10), Val::Int(4096)]) {
                Err(SimError::Deadlock { at, diagnosis }) => (at, diagnosis.to_string()),
                other => panic!("expected spawn-cycle deadlock, got {other:?}"),
            }
        };
        let (at1, d1) = run_once();
        let (at2, d2) = run_once();
        assert_eq!(at1, at2, "deadlock detected at the same cycle");
        assert_eq!(d1, d2, "diagnosis rendering must be byte-identical");
        assert!(d1.contains("spawn"), "diagnosis names the blocked spawn: {d1}");
    }

    #[test]
    fn admission_is_timing_neutral_when_queues_are_roomy() {
        let n = 24u64;
        let base = AcceleratorConfig { mem_bytes: 4096, ..AcceleratorConfig::default() };
        let armed =
            AcceleratorConfig { admission: Some(AdmissionControl::default()), ..base.clone() };
        let (off, mem_off) = run_pfor(&base, n);
        let (on, mem_on) = run_pfor(&armed, n);
        assert_eq!(off.cycles, on.cycles, "unused admission machinery must cost zero cycles");
        assert_eq!(mem_off, mem_on);
        assert_eq!(on.stats.spills, 0);
        assert_eq!(on.stats.inline_spawns, 0);
    }

    #[test]
    fn spill_pressure_shows_up_as_spill_stall() {
        let n = 32u64;
        let cfg = AcceleratorConfig {
            ntasks: 2,
            mem_bytes: 4096,
            admission: Some(AdmissionControl::default()),
            profile: ProfileLevel::Summary,
            ..AcceleratorConfig::default()
        };
        let mut m = Module::new("m");
        let f = build_pfor(&mut m);
        let mut acc = elaborate(&m, &cfg);
        acc.mem_mut().write_bytes(0, &pfor_mem(n));
        let out = acc.run(f, &[Val::Int(0), Val::Int(n)]).unwrap();
        let profile = out.profile.expect("profiling was on");
        profile.check_invariant().unwrap();
        assert!(
            profile.stall_total(StallReason::SpillStall) > 0,
            "queue pressure under virtualization must be attributed to spill-stall"
        );
        // Refused spawns count the child queue as full even when spilling
        // keeps occupancy below nominal capacity.
        assert!(profile.units[1].queue.full_cycles > 0);
    }
}

#[cfg(test)]
mod steal_bank_tests {
    use super::tests::elaborate;
    use super::*;
    use crate::{AcceleratorConfig, ProfileLevel, StallReason, StealConfig};
    use tapas_ir::{CmpPred, FunctionBuilder, Module, Type};

    /// Recursive parallel fib (same shape as the main test module's): both
    /// units touch memory, so steals flow in either direction.
    fn build_fib(m: &mut Module) -> FuncId {
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

    fn run_fib(cfg: &AcceleratorConfig) -> SimOutcome {
        let mut m = Module::new("m");
        let f = build_fib(&mut m);
        let mut acc = elaborate(&m, cfg);
        acc.run(f, &[Val::Int(10), Val::Int(4096)]).unwrap()
    }

    fn fib_cfg() -> AcceleratorConfig {
        AcceleratorConfig { ntasks: 256, ..AcceleratorConfig::default() }.with_default_tiles(2)
    }

    #[test]
    fn stealing_preserves_results_and_helps_fib() {
        let off = run_fib(&fib_cfg());
        let on_cfg = AcceleratorConfig { steal: Some(StealConfig::default()), ..fib_cfg() };
        let on = run_fib(&on_cfg);
        assert_eq!(on.ret, Some(Val::Int(55)), "stolen instances compute the same answer");
        assert_eq!(off.ret, on.ret);
        assert!(on.stats.steals > 0, "idle tiles found work to steal");
        assert!(
            on.cycles <= off.cycles,
            "stealing must not slow fib down ({} vs {})",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn steal_trace_is_deterministic() {
        let cfg = AcceleratorConfig {
            steal: Some(StealConfig { latency: 2 }),
            record_events: true,
            ..fib_cfg()
        };
        let run_once = || {
            let mut m = Module::new("m");
            let f = build_fib(&mut m);
            let mut acc = elaborate(&m, &cfg);
            let out = acc.run(f, &[Val::Int(10), Val::Int(4096)]).unwrap();
            let steals: Vec<(u64, usize, usize)> = acc
                .take_events()
                .iter()
                .filter(|e| matches!(e.kind, SimEventKind::Stolen { .. }))
                .map(|e| (e.cycle, e.unit, e.slot))
                .collect();
            (out.cycles, out.stats.steals, steals)
        };
        let (c1, s1, t1) = run_once();
        let (c2, s2, t2) = run_once();
        assert_eq!(c1, c2, "cycle count must be run-to-run deterministic");
        assert_eq!(s1, s2);
        assert_eq!(t1, t2, "the full steal trace must be byte-identical");
        assert!(!t1.is_empty());
    }

    #[test]
    fn owner_wins_no_entry_dispatches_twice() {
        // Regression for the pop/steal same-cycle race: dispatch events per
        // entry must balance spawn + park events exactly. A double dispatch
        // (owner and thief both claiming an entry) breaks the equation.
        let cfg = AcceleratorConfig {
            steal: Some(StealConfig { latency: 1 }),
            record_events: true,
            ..fib_cfg()
        };
        let mut m = Module::new("m");
        let f = build_fib(&mut m);
        let mut acc = elaborate(&m, &cfg);
        let out = acc.run(f, &[Val::Int(10), Val::Int(4096)]).unwrap();
        assert_eq!(out.ret, Some(Val::Int(55)));
        let events = acc.take_events();
        let count =
            |k: fn(&SimEventKind) -> bool| events.iter().filter(|e| k(&e.kind)).count() as u64;
        let dispatched = count(|k| matches!(k, SimEventKind::Dispatched { .. }));
        let spawned = count(|k| matches!(k, SimEventKind::Spawned { .. }));
        let parked = count(|k| matches!(k, SimEventKind::SyncWait | SimEventKind::CallWait));
        assert_eq!(
            dispatched,
            spawned + parked,
            "every entry dispatches exactly once per spawn or un-park"
        );
        assert!(count(|k| matches!(k, SimEventKind::Stolen { .. })) > 0);
    }

    #[test]
    fn steal_latency_is_attributed_to_steal_stall() {
        let cfg = AcceleratorConfig {
            steal: Some(StealConfig { latency: 6 }),
            profile: ProfileLevel::Summary,
            ..fib_cfg()
        };
        let out = run_fib(&cfg);
        let profile = out.profile.expect("profiling was on");
        profile.check_invariant().unwrap();
        assert!(
            profile.stall_total(StallReason::StealStall) > 0,
            "in-flight steals must show up in the steal-stall bucket"
        );
    }

    #[test]
    fn banked_cache_preserves_results_and_timing_neutral_at_one_bank() {
        let n = 32u64;
        let mut mem = vec![0u8; (n * 4) as usize];
        for k in 0..n as usize {
            mem[k * 4..k * 4 + 4].copy_from_slice(&(k as i32 * 3).to_le_bytes());
        }
        let run_with = |banks: usize| {
            let mut m = Module::new("m");
            let f = super::tests::build_pfor_inc(&mut m);
            let cfg = AcceleratorConfig { l1_banks: banks, mem_bytes: 4096, ..Default::default() }
                .with_default_tiles(4);
            let mut acc = elaborate(&m, &cfg);
            acc.mem_mut().write_bytes(0, &mem);
            let out = acc.run(f, &[Val::Int(0), Val::Int(n)]).unwrap();
            (out, acc.mem().read_bytes(0, mem.len()).to_vec())
        };
        let (seed, seed_mem) = run_with(1);
        let (banked, banked_mem) = run_with(4);
        assert_eq!(seed_mem, banked_mem, "banking must not change results");
        assert!(
            banked.cycles <= seed.cycles,
            "4 banks must not slow the memory-bound pfor down ({} vs {})",
            banked.cycles,
            seed.cycles
        );
        // L1 totals are aggregated across banks: same accesses either way.
        assert_eq!(
            seed.stats.cache.hits + seed.stats.cache.misses,
            banked.stats.cache.hits + banked.stats.cache.misses
        );
    }

    #[test]
    fn both_features_compose_and_match_the_interpreter() {
        let cfg =
            AcceleratorConfig { steal: Some(StealConfig::default()), l1_banks: 4, ..fib_cfg() };
        let out = run_fib(&cfg);
        assert_eq!(out.ret, Some(Val::Int(55)));
        let seed = run_fib(&fib_cfg());
        assert!(
            out.cycles <= seed.cycles,
            "steal + 4 banks must not regress fib ({} vs {})",
            out.cycles,
            seed.cycles
        );
    }

    #[test]
    fn disabled_features_are_cycle_identical_to_seed() {
        // The builder's defaults (steal off, one bank) must take the exact
        // seed code paths: same cycles, same stats, zero feature counters.
        let seed = run_fib(&fib_cfg());
        let explicit = AcceleratorConfig { steal: None, l1_banks: 1, ..fib_cfg() };
        let off = run_fib(&explicit);
        assert_eq!(seed.cycles, off.cycles);
        assert_eq!(seed.ret, off.ret);
        assert_eq!(off.stats.steals, 0);
        assert_eq!(off.stats.steal_fail, 0);
        assert_eq!(off.stats.bank_conflicts, 0);
        assert_eq!(seed.stats.cache.hits, off.stats.cache.hits);
        assert_eq!(seed.stats.cache.misses, off.stats.cache.misses);
    }
}
