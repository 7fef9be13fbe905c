//! Accelerator configuration: the Stage 3 parameters, a validating
//! builder, and the typed errors the builder reports.
//!
//! [`AcceleratorConfig`] remains a plain-old-data struct (every field is
//! public, and `Default` reproduces the paper's operating point), but the
//! preferred construction path is the builder:
//!
//! ```
//! use tapas_sim::{AcceleratorConfig, ProfileLevel};
//!
//! let cfg = AcceleratorConfig::builder()
//!     .tiles(4)
//!     .cache_kib(16)
//!     .profile(ProfileLevel::Summary)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.ntiles, 4);
//! ```
//!
//! The builder front-loads the geometry mistakes that previously surfaced
//! as panics deep inside elaboration (zero tiles, a non-power-of-two cache,
//! a zero-depth data-box queue) into a typed [`ConfigError`].

use crate::fault::{FaultPlan, FaultTolerance};
use crate::profile::ProfileLevel;
use std::collections::HashMap;
use std::path::PathBuf;
use tapas_mem::{CacheConfig, DataBoxConfig, DramConfig};

/// Configuration of the elaborated accelerator (the paper's Stage 3
/// parameters: queue depths, tiles per task, memory system).
/// Functional-unit latencies are not among them: Stage 2 bakes the
/// toolchain's latency model into the dataflow nodes the accelerator runs.
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Task queue entries per task unit (`Ntasks`).
    pub ntasks: usize,
    /// Default TXU tiles per task unit (`Ntiles`).
    pub ntiles: usize,
    /// Per-task tile overrides, keyed by task name (e.g. `"dedup::task2"`).
    pub tile_overrides: HashMap<String, usize>,
    /// Shared L1 cache parameters.
    pub cache: CacheConfig,
    /// Optional L2 between the L1 and DRAM (the §VI cache-hierarchy
    /// improvement; `None` reproduces the paper's released memory system).
    pub l2: Option<CacheConfig>,
    /// DRAM/AXI parameters.
    pub dram: DramConfig,
    /// Data box issue width and queue depth (ports are sized automatically).
    pub databox: DataBoxConfig,
    /// Cycles for the spawn handshake (queue allocation + args write).
    pub spawn_cost: u64,
    /// Cycles to resume from a sync join.
    pub sync_cost: u64,
    /// Cycles between successive block dataflows of one instance.
    pub block_transition: u64,
    /// Accelerator memory size in bytes.
    pub mem_bytes: usize,
    /// Abort the simulation after this many cycles.
    pub max_cycles: u64,
    /// Record a task-level event trace (spawn/dispatch/suspend/complete),
    /// retrievable with [`Accelerator::take_events`](crate::Accelerator).
    /// Off by default — long runs generate many events.
    pub record_events: bool,
    /// Cycle-attribution profiling level. [`ProfileLevel::Off`] (the
    /// default) adds no per-cycle work to the engine loop; higher levels
    /// attach a [`Profile`](crate::Profile) to the
    /// [`SimOutcome`](crate::SimOutcome).
    pub profile: ProfileLevel,
    /// Write a Chrome `chrome://tracing` event trace to this path at the
    /// end of every run. Implies event recording.
    pub trace_path: Option<PathBuf>,
    /// Deterministic fault-injection plan. `None` (the default) is the
    /// fault-free fast path: no recovery machinery perturbs the timing.
    pub faults: Option<FaultPlan>,
    /// Recovery mechanisms armed while a fault plan is active (watchdog,
    /// memory retry, ECC, queue parity, tile quarantine).
    pub tolerance: FaultTolerance,
    /// Bounded-resource admission control. `None` (the default) reproduces
    /// the paper's behaviour exactly: a spawn into a full task queue
    /// backpressures the producer and can wedge the design. `Some` arms
    /// the inline-spawn / queue-virtualization / deadlock-recovery paths,
    /// making every legal program terminate on any finite queue geometry.
    pub admission: Option<AdmissionControl>,
    /// Cross-unit work stealing. `None` (the default) reproduces the
    /// paper's placement exactly: a tile only ever dispatches entries from
    /// its own unit's queue. `Some` lets idle tiles claim READY entries
    /// from sibling queues through a steal port (see [`StealConfig`]).
    pub steal: Option<StealConfig>,
    /// Number of address-interleaved L1 banks. `1` (the default) is the
    /// paper's single shared cache, bit-identical to seed; powers of two
    /// above 1 split the L1 into independent banks with per-bank MSHRs so
    /// same-cycle accesses to different banks stop serializing.
    pub l1_banks: usize,
    /// Advance the cycle counter directly to the next component event
    /// instead of stepping through idle cycles (`true`, the default). The
    /// event-driven core is cycle- and stats-identical to stepping — only
    /// wall clock changes (see DESIGN §14 and
    /// [`SimStats::skipped_cycles`](crate::SimStats)) — so `false` exists
    /// for differential testing against the stepped seed schedule, not as
    /// a behavioural knob.
    pub event_driven: bool,
    /// Periodic crash-consistent snapshots. `None` (the default) adds no
    /// work to the engine loop; `Some` writes an
    /// [`EngineSnapshot`](crate::EngineSnapshot) atomically every
    /// [`SnapshotConfig::every`] executed cycles, so a killed process can
    /// [`Accelerator::resume`](crate::Accelerator) mid-simulation with
    /// byte-identical results (see DESIGN §16).
    pub snapshot: Option<SnapshotConfig>,
    /// Test hook: stop the engine after this many executed cycles with
    /// [`SimError::Halted`](crate::SimError), leaving an in-memory
    /// snapshot retrievable via
    /// [`Accelerator::take_halt_snapshot`](crate::Accelerator). This is
    /// how the chaos harness "kills" a run at a deterministic point
    /// without process gymnastics. `None` (the default) never halts.
    pub halt_at_cycle: Option<u64>,
}

/// The stall watchdog: a run that makes no progress (no state change, no
/// memory in flight) for more than this many consecutive cycles is
/// declared deadlocked with [`SimError::Deadlock`].
///
/// [`SimError::Deadlock`]: crate::SimError::Deadlock
pub(crate) const DEADLOCK_STALL_CYCLES: u64 = 100_000;

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            ntasks: 32,
            ntiles: 1,
            tile_overrides: HashMap::new(),
            cache: CacheConfig::default(),
            l2: None,
            dram: DramConfig::default(),
            databox: DataBoxConfig::default(),
            spawn_cost: 10,
            sync_cost: 2,
            block_transition: 2,
            mem_bytes: 16 * 1024 * 1024,
            max_cycles: 500_000_000,
            record_events: false,
            profile: ProfileLevel::Off,
            trace_path: None,
            faults: None,
            tolerance: FaultTolerance::default(),
            admission: None,
            steal: None,
            l1_banks: 1,
            event_driven: true,
            snapshot: None,
            halt_at_cycle: None,
        }
    }
}

/// Periodic crash-consistent snapshotting
/// (selected with [`AcceleratorConfigBuilder::snapshot`]).
///
/// The engine captures its complete clocked state every
/// [`SnapshotConfig::every`] executed cycles and publishes it to
/// [`SnapshotConfig::path`] with a write-then-rename, rotating the
/// previous snapshot to `<path>.prev`. See the
/// [`snapshot`](crate::snapshot) module for the format and the restore
/// identity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotConfig {
    /// Executed cycles between snapshot writes. Must be at least 1.
    pub every: u64,
    /// Where the snapshot file lives.
    pub path: PathBuf,
}

/// How cross-unit work stealing behaves
/// (selected with [`AcceleratorConfigBuilder::steal`]).
///
/// The paper binds each task queue to one task unit, so recursive
/// workloads leave every tile of a cold unit idle behind one hot queue.
/// With stealing armed, a tile whose own queue has no dispatchable entry
/// probes sibling queues round-robin and claims their **oldest** READY
/// entry, provided the thief tile's memory-port count covers the stolen
/// task's needs. The owner always wins a same-cycle pop/steal race: steal
/// probes run strictly after every unit's own dispatch, so an entry can
/// never dispatch twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Cycles a stolen entry spends in flight over the steal port before
    /// the thief tile can issue its first node (the cost of reading a
    /// remote queue entry and moving its payload).
    pub latency: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig { latency: 4 }
    }
}

/// How the engine responds when a spawn targets a full task queue
/// (selected with [`AcceleratorConfigBuilder::admission`]).
///
/// Three cooperating mechanisms bound live tasks without losing work:
///
/// * **Inline spawn** (Cilk work-first degradation): a task unit that
///   cannot enqueue a child executes the child — and, transitively, its
///   whole subtree — serially on the spawning tile.
/// * **Queue virtualization**: overflow entries spill through the data
///   box into a DRAM-backed overflow arena and refill, oldest first, as
///   queue slots drain.
/// * **Deadlock recovery**: when no component makes progress for
///   [`recovery_window`](AdmissionControl::recovery_window) cycles, the
///   oldest spilled spawn is forced down the inline path, breaking
///   spawn-edge wait-for cycles instead of reporting
///   [`SimError::Deadlock`](crate::SimError).
///
/// The default enables both mechanisms; [`AdmissionControl::work_first`]
/// and [`AdmissionControl::virtualized`] select one apiece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Execute refused spawns inline on the spawning tile.
    pub inline_spawn: bool,
    /// Spill refused spawns to the DRAM-backed overflow arena.
    pub spill: bool,
    /// Overflow arena capacity in queue entries (one 8-byte tag word of
    /// modeled DRAM per entry).
    pub overflow_entries: usize,
    /// Cycles without progress before deadlock recovery forces the oldest
    /// blocked spawn inline. Must be large enough to never race a legal
    /// quiet period (non-memory stalls are bounded by the spawn/sync/block
    /// handshakes, all well under 100 cycles at the default operating
    /// point).
    pub recovery_window: u64,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            inline_spawn: true,
            spill: true,
            overflow_entries: 4096,
            recovery_window: 1_000,
        }
    }
}

impl AdmissionControl {
    /// Inline-spawn only: refused spawns run serially on the spawning
    /// tile; nothing ever spills.
    pub fn work_first() -> Self {
        AdmissionControl { spill: false, ..AdmissionControl::default() }
    }

    /// Queue virtualization only: refused spawns spill to the overflow
    /// arena. Inline execution still backstops deadlock recovery.
    pub fn virtualized() -> Self {
        AdmissionControl { inline_spawn: false, ..AdmissionControl::default() }
    }
}

impl AcceleratorConfig {
    /// Start building a configuration from the paper's defaults.
    pub fn builder() -> AcceleratorConfigBuilder {
        AcceleratorConfigBuilder { cfg: AcceleratorConfig::default() }
    }

    /// Tiles for the task with the given name.
    pub fn tiles_for(&self, task_name: &str) -> usize {
        self.tile_overrides.get(task_name).copied().unwrap_or(self.ntiles).max(1)
    }

    /// Builder-style override of the tile count for one task.
    pub fn with_tiles(mut self, task_name: &str, tiles: usize) -> Self {
        self.tile_overrides.insert(task_name.to_string(), tiles);
        self
    }

    /// Builder-style setting of the default tile count.
    pub fn with_default_tiles(mut self, tiles: usize) -> Self {
        self.ntiles = tiles;
        self
    }

    /// Whether this configuration is structurally protected against
    /// spawn-queue deadlock: admission control spills instead of letting a
    /// blocked spawn chain wedge a full task unit. The static analyzer's
    /// `check_config` verdict keys off this — unguarded configurations must
    /// additionally satisfy its proven `min_safe_ntasks`.
    pub fn deadlock_guarded(&self) -> bool {
        self.admission.is_some()
    }

    /// Validate the configuration's geometry; [`AcceleratorConfigBuilder::build`]
    /// calls this, and [`Accelerator::elaborate`](crate::Accelerator) relies
    /// on it having held.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ntiles == 0 {
            return Err(ConfigError::ZeroTiles { task: None });
        }
        if let Some((task, _)) = self.tile_overrides.iter().find(|(_, &t)| t == 0) {
            return Err(ConfigError::ZeroTiles { task: Some(task.clone()) });
        }
        if self.ntasks == 0 {
            return Err(ConfigError::ZeroQueueDepth { queue: "task queue (ntasks)" });
        }
        if self.databox.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth { queue: "data box port queue" });
        }
        if self.mem_bytes == 0 {
            return Err(ConfigError::ZeroMemory);
        }
        let tiles = self.tile_overrides.values().fold(self.ntiles, |m, &t| m.max(t));
        for (field, value, limit) in [
            ("ntasks", self.ntasks, Limits::NTASKS),
            ("tiles", tiles, Limits::TILES),
            ("mem_bytes", self.mem_bytes, Limits::MEM_BYTES),
        ] {
            if value > limit {
                return Err(ConfigError::AboveLimit { field, value, limit });
            }
        }
        if self.tolerance.mem_retry && self.tolerance.mem_timeout == 0 {
            return Err(ConfigError::ZeroTimeout { which: "memory retry timeout" });
        }
        if self.tolerance.watchdog_timeout == Some(0) {
            return Err(ConfigError::ZeroTimeout { which: "watchdog timeout" });
        }
        if let Some(a) = &self.admission {
            if !a.inline_spawn && !a.spill {
                return Err(ConfigError::AdmissionWithoutMechanism);
            }
            if a.spill && a.overflow_entries == 0 {
                return Err(ConfigError::ZeroQueueDepth { queue: "admission overflow arena" });
            }
            if a.recovery_window == 0 {
                return Err(ConfigError::ZeroTimeout { which: "admission recovery window" });
            }
        }
        for (label, c) in
            std::iter::once(("L1", &self.cache)).chain(self.l2.as_ref().map(|c| ("L2", c)))
        {
            if !c.size_bytes.is_power_of_two() || c.size_bytes < c.line_bytes {
                return Err(ConfigError::NonPowerOfTwoCache { level: label, bytes: c.size_bytes });
            }
            if c.line_bytes != self.dram.line_bytes {
                return Err(ConfigError::LineMismatch {
                    level: label,
                    cache_line: c.line_bytes,
                    dram_line: self.dram.line_bytes,
                });
            }
        }
        if self.snapshot.as_ref().is_some_and(|s| s.every == 0) {
            return Err(ConfigError::ZeroTimeout { which: "snapshot interval" });
        }
        if !self.l1_banks.is_power_of_two() {
            return Err(ConfigError::BadBankCount { banks: self.l1_banks });
        }
        let per_bank = self.cache.size_bytes / self.l1_banks as u64;
        if per_bank < self.cache.line_bytes * self.cache.ways {
            // Each bank must still hold at least one full set.
            return Err(ConfigError::NonPowerOfTwoCache { level: "L1 bank", bytes: per_bank });
        }
        Ok(())
    }
}

/// A configuration the builder refused to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A tile count of zero (default or per-task override).
    ZeroTiles {
        /// The offending per-task override, or `None` for the default count.
        task: Option<String>,
    },
    /// A queue somewhere in the design has no entries.
    ZeroQueueDepth {
        /// Which queue.
        queue: &'static str,
    },
    /// Cache capacity must be a power of two no smaller than one line.
    NonPowerOfTwoCache {
        /// Which cache level.
        level: &'static str,
        /// The rejected capacity.
        bytes: u64,
    },
    /// Cache line size must match the DRAM burst size.
    LineMismatch {
        /// Which cache level.
        level: &'static str,
        /// The cache's line size in bytes.
        cache_line: u64,
        /// The DRAM burst size in bytes.
        dram_line: u64,
    },
    /// The accelerator has no memory.
    ZeroMemory,
    /// A fault-tolerance timeout of zero would fire before the event it
    /// guards could ever complete.
    ZeroTimeout {
        /// Which timeout.
        which: &'static str,
    },
    /// Admission control was requested with every mechanism disabled —
    /// indistinguishable from plain backpressure, so almost certainly a
    /// configuration mistake.
    AdmissionWithoutMechanism,
    /// The L1 bank count must be a power of two (address interleaving is a
    /// line-index modulus) of at least 1.
    BadBankCount {
        /// The rejected bank count.
        banks: usize,
    },
    /// A size above its bound in [`Limits`].
    AboveLimit {
        /// The configuration field (`ntasks`, `tiles` or `mem_bytes`).
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// The bound it exceeds.
        limit: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTiles { task: None } => {
                write!(f, "default tile count must be at least 1")
            }
            ConfigError::ZeroTiles { task: Some(t) } => {
                write!(f, "tile override for task {t:?} must be at least 1")
            }
            ConfigError::ZeroQueueDepth { queue } => {
                write!(f, "{queue} must have at least one entry")
            }
            ConfigError::NonPowerOfTwoCache { level, bytes } => write!(
                f,
                "{level} capacity of {bytes} bytes is not a power of two of at least one line"
            ),
            ConfigError::LineMismatch { level, cache_line, dram_line } => write!(
                f,
                "{level} line size ({cache_line} B) must match the DRAM burst ({dram_line} B)"
            ),
            ConfigError::ZeroMemory => write!(f, "accelerator memory size must be non-zero"),
            ConfigError::ZeroTimeout { which } => {
                write!(f, "{which} must be at least one cycle when its mechanism is enabled")
            }
            ConfigError::AdmissionWithoutMechanism => {
                write!(f, "admission control needs inline spawns, spilling, or both enabled")
            }
            ConfigError::BadBankCount { banks } => {
                write!(f, "L1 bank count of {banks} is not a power of two of at least 1")
            }
            ConfigError::AboveLimit { field, value, limit } => {
                write!(f, "{field} = {value} is above the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Upper bounds [`AcceleratorConfig::validate`] puts on the sizes an
/// outside configuration (a repro line, a builder call) can name. The
/// queues and tiles are allocated when the accelerator is elaborated, so
/// an absurd value must be a typed [`ConfigError::AboveLimit`], not an
/// allocation the process cannot survive. Each bound sits far above every
/// value the experiments and the benchmark use (the largest `ntasks` is
/// the spawn-chain queue sweep's 8200).
#[derive(Debug)]
pub struct Limits;

impl Limits {
    /// Task queue entries per task unit.
    pub const NTASKS: usize = 1 << 16;
    /// TXU tiles per task unit, default or per-task override.
    pub const TILES: usize = 1 << 10;
    /// Accelerator memory in bytes.
    pub const MEM_BYTES: usize = 1 << 32;
}

/// Builder for [`AcceleratorConfig`]; obtained from
/// [`AcceleratorConfig::builder`]. Every setter returns `self`;
/// [`AcceleratorConfigBuilder::build`] validates the result.
#[derive(Debug, Clone)]
pub struct AcceleratorConfigBuilder {
    cfg: AcceleratorConfig,
}

impl AcceleratorConfigBuilder {
    /// Default TXU tiles per task unit (`Ntiles`).
    pub fn tiles(mut self, n: usize) -> Self {
        self.cfg.ntiles = n;
        self
    }

    /// Override the tile count for one task by name.
    pub fn tile_override(mut self, task: &str, n: usize) -> Self {
        self.cfg.tile_overrides.insert(task.to_string(), n);
        self
    }

    /// Task queue entries per task unit (`Ntasks`).
    pub fn ntasks(mut self, n: usize) -> Self {
        self.cfg.ntasks = n;
        self
    }

    /// L1 capacity in KiB, keeping the default geometry otherwise.
    pub fn cache_kib(mut self, kib: u64) -> Self {
        self.cfg.cache.size_bytes = kib * 1024;
        self
    }

    /// Full L1 cache parameters.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = cache;
        self
    }

    /// Insert an L2 between the L1 and DRAM.
    pub fn l2(mut self, l2: CacheConfig) -> Self {
        self.cfg.l2 = Some(l2);
        self
    }

    /// DRAM/AXI channel parameters.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// Data box issue width and queue depth.
    pub fn databox(mut self, databox: DataBoxConfig) -> Self {
        self.cfg.databox = databox;
        self
    }

    /// Cycles for the spawn handshake.
    pub fn spawn_cost(mut self, cycles: u64) -> Self {
        self.cfg.spawn_cost = cycles;
        self
    }

    /// Cycles to resume from a sync join.
    pub fn sync_cost(mut self, cycles: u64) -> Self {
        self.cfg.sync_cost = cycles;
        self
    }

    /// Cycles between successive block dataflows of one instance.
    pub fn block_transition(mut self, cycles: u64) -> Self {
        self.cfg.block_transition = cycles;
        self
    }

    /// Accelerator memory size in bytes.
    pub fn mem_bytes(mut self, bytes: usize) -> Self {
        self.cfg.mem_bytes = bytes;
        self
    }

    /// Cycle budget.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.cfg.max_cycles = cycles;
        self
    }

    /// Record the task-level event trace.
    pub fn record_events(mut self, on: bool) -> Self {
        self.cfg.record_events = on;
        self
    }

    /// Cycle-attribution profiling level.
    pub fn profile(mut self, level: ProfileLevel) -> Self {
        self.cfg.profile = level;
        self
    }

    /// Write a Chrome trace to this path at the end of every run.
    pub fn trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.trace_path = Some(path.into());
        self
    }

    /// Arm deterministic fault injection with this plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Recovery mechanisms used while faults are injected.
    pub fn tolerance(mut self, tolerance: FaultTolerance) -> Self {
        self.cfg.tolerance = tolerance;
        self
    }

    /// Arm bounded-resource admission control: inline spawn execution,
    /// task-queue spilling, and deadlock recovery (see
    /// [`AdmissionControl`]).
    pub fn admission(mut self, admission: AdmissionControl) -> Self {
        self.cfg.admission = Some(admission);
        self
    }

    /// Arm cross-unit work stealing: idle tiles claim READY entries from
    /// sibling task queues (see [`StealConfig`]).
    pub fn steal(mut self, steal: StealConfig) -> Self {
        self.cfg.steal = Some(steal);
        self
    }

    /// Split the shared L1 into `n` address-interleaved banks with
    /// per-bank MSHRs. `1` keeps the paper's single cache.
    pub fn l1_banks(mut self, n: usize) -> Self {
        self.cfg.l1_banks = n;
        self
    }

    /// Select the engine core: event-driven (`true`, the default — skips
    /// idle cycles, identical timing) or stepped (`false` — executes every
    /// cycle, the seed schedule the differential harness compares against).
    pub fn event_driven(mut self, on: bool) -> Self {
        self.cfg.event_driven = on;
        self
    }

    /// Write a crash-consistent snapshot to `path` every `every` executed
    /// cycles (see [`SnapshotConfig`]).
    pub fn snapshot(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.cfg.snapshot = Some(SnapshotConfig { every, path: path.into() });
        self
    }

    /// Test hook: halt with [`SimError::Halted`](crate::SimError) after
    /// `cycles` executed cycles, capturing an in-memory snapshot — the
    /// chaos harness's deterministic "kill point".
    pub fn halt_at_cycle(mut self, cycles: u64) -> Self {
        self.cfg.halt_at_cycle = Some(cycles);
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the geometry is unusable: zero tiles,
    /// a zero-depth queue, a non-power-of-two cache, a cache/DRAM line-size
    /// mismatch, or zero memory.
    pub fn build(self) -> Result<AcceleratorConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_overrides_apply() {
        let c = AcceleratorConfig::default().with_default_tiles(2).with_tiles("f::task1", 8);
        assert_eq!(c.tiles_for("f::task1"), 8);
        assert_eq!(c.tiles_for("f::root"), 2);
    }

    #[test]
    fn tiles_never_zero() {
        let c = AcceleratorConfig::default().with_tiles("x", 0);
        assert_eq!(c.tiles_for("x"), 1);
    }

    #[test]
    fn builder_defaults_validate() {
        let c = AcceleratorConfig::builder().build().unwrap();
        assert_eq!(c.ntasks, 32);
        assert_eq!(c.profile, ProfileLevel::Off);
    }

    #[test]
    fn builder_rejects_zero_tiles() {
        let err = AcceleratorConfig::builder().tiles(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroTiles { task: None });
        let err = AcceleratorConfig::builder().tile_override("f::task1", 0).build().unwrap_err();
        assert!(matches!(err, ConfigError::ZeroTiles { task: Some(_) }));
    }

    #[test]
    fn builder_rejects_non_power_of_two_cache() {
        let err = AcceleratorConfig::builder().cache_kib(3).build().unwrap_err();
        assert!(matches!(err, ConfigError::NonPowerOfTwoCache { level: "L1", .. }));
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn builder_rejects_zero_queue_depth() {
        let err = AcceleratorConfig::builder().ntasks(0).build().unwrap_err();
        assert!(matches!(err, ConfigError::ZeroQueueDepth { .. }));
        let db = DataBoxConfig { queue_depth: 0, ..DataBoxConfig::default() };
        let err = AcceleratorConfig::builder().databox(db).build().unwrap_err();
        assert!(matches!(err, ConfigError::ZeroQueueDepth { .. }));
    }

    #[test]
    fn builder_rejects_sizes_above_the_limits() {
        let at = AcceleratorConfig::builder()
            .ntasks(Limits::NTASKS)
            .tiles(Limits::TILES)
            .mem_bytes(Limits::MEM_BYTES)
            .build();
        assert!(at.is_ok(), "the limits themselves are allowed");
        let err = AcceleratorConfig::builder().ntasks(1 << 40).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::AboveLimit { field: "ntasks", value: 1 << 40, limit: Limits::NTASKS }
        );
        assert_eq!(err.to_string(), "ntasks = 1099511627776 is above the limit of 65536");
        let err = AcceleratorConfig::builder()
            .tile_override("f::task1", Limits::TILES + 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::AboveLimit { field: "tiles", .. }));
        let err =
            AcceleratorConfig::builder().mem_bytes(Limits::MEM_BYTES + 1).build().unwrap_err();
        assert!(matches!(err, ConfigError::AboveLimit { field: "mem_bytes", .. }));
    }

    #[test]
    fn builder_rejects_line_mismatch_and_zero_memory() {
        let bad = CacheConfig { line_bytes: 64, ..CacheConfig::default() };
        let err = AcceleratorConfig::builder().cache(bad).build().unwrap_err();
        assert!(matches!(err, ConfigError::LineMismatch { level: "L1", .. }));
        let err = AcceleratorConfig::builder().mem_bytes(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroMemory);
    }

    #[test]
    fn builder_sets_fault_knobs_and_rejects_zero_timeouts() {
        let c = AcceleratorConfig::builder()
            .faults(FaultPlan::random(7))
            .tolerance(FaultTolerance { max_mem_retries: 2, ..FaultTolerance::default() })
            .build()
            .unwrap();
        assert!(c.faults.as_ref().is_some_and(|p| !p.is_empty()));
        assert_eq!(c.tolerance.max_mem_retries, 2);

        let tol = FaultTolerance { mem_timeout: 0, ..FaultTolerance::default() };
        let err = AcceleratorConfig::builder().tolerance(tol).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroTimeout { which: "memory retry timeout" });

        let tol = FaultTolerance { watchdog_timeout: Some(0), ..FaultTolerance::default() };
        let err = AcceleratorConfig::builder().tolerance(tol).build().unwrap_err();
        assert!(err.to_string().contains("watchdog"));
    }

    #[test]
    fn admission_is_off_by_default_and_builder_arms_it() {
        let c = AcceleratorConfig::builder().build().unwrap();
        assert!(c.admission.is_none(), "seed behaviour unless explicitly requested");
        let c =
            AcceleratorConfig::builder().admission(AdmissionControl::default()).build().unwrap();
        let a = c.admission.unwrap();
        assert!(a.inline_spawn && a.spill);
        assert!(AdmissionControl::work_first().inline_spawn);
        assert!(!AdmissionControl::work_first().spill);
        assert!(AdmissionControl::virtualized().spill);
        assert!(!AdmissionControl::virtualized().inline_spawn);
    }

    #[test]
    fn builder_rejects_degenerate_admission() {
        let none = AdmissionControl { inline_spawn: false, spill: false, ..Default::default() };
        let err = AcceleratorConfig::builder().admission(none).build().unwrap_err();
        assert_eq!(err, ConfigError::AdmissionWithoutMechanism);
        assert!(err.to_string().contains("admission"));

        let empty = AdmissionControl { overflow_entries: 0, ..Default::default() };
        let err = AcceleratorConfig::builder().admission(empty).build().unwrap_err();
        assert!(matches!(err, ConfigError::ZeroQueueDepth { .. }));

        let hair = AdmissionControl { recovery_window: 0, ..Default::default() };
        let err = AcceleratorConfig::builder().admission(hair).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroTimeout { which: "admission recovery window" });
    }

    #[test]
    fn steal_and_banking_are_off_by_default_and_builder_arms_them() {
        let c = AcceleratorConfig::builder().build().unwrap();
        assert!(c.steal.is_none(), "seed placement unless explicitly requested");
        assert_eq!(c.l1_banks, 1, "seed cache unless explicitly requested");

        let c =
            AcceleratorConfig::builder().steal(StealConfig::default()).l1_banks(4).build().unwrap();
        assert_eq!(c.steal.unwrap().latency, StealConfig::default().latency);
        assert_eq!(c.l1_banks, 4);
    }

    #[test]
    fn builder_rejects_degenerate_banking() {
        let err = AcceleratorConfig::builder().l1_banks(0).build().unwrap_err();
        assert_eq!(err, ConfigError::BadBankCount { banks: 0 });
        let err = AcceleratorConfig::builder().l1_banks(3).build().unwrap_err();
        assert!(err.to_string().contains("bank count"));
        // 16 KiB / 512 banks = 32 B per bank — less than one 2-way set.
        let err = AcceleratorConfig::builder().l1_banks(512).build().unwrap_err();
        assert!(matches!(err, ConfigError::NonPowerOfTwoCache { level: "L1 bank", .. }));
    }

    #[test]
    fn event_driven_core_is_the_default_and_builder_can_step() {
        let c = AcceleratorConfig::builder().build().unwrap();
        assert!(c.event_driven, "event-driven core is the default engine");
        let c = AcceleratorConfig::builder().event_driven(false).build().unwrap();
        assert!(!c.event_driven);
    }

    #[test]
    fn snapshotting_is_off_by_default_and_builder_arms_it() {
        let c = AcceleratorConfig::builder().build().unwrap();
        assert!(c.snapshot.is_none(), "no snapshot work unless explicitly requested");
        assert!(c.halt_at_cycle.is_none());

        let c = AcceleratorConfig::builder()
            .snapshot("/tmp/e.snap", 1000)
            .halt_at_cycle(500)
            .build()
            .unwrap();
        let s = c.snapshot.unwrap();
        assert_eq!(s.every, 1000);
        assert_eq!(s.path, PathBuf::from("/tmp/e.snap"));
        assert_eq!(c.halt_at_cycle, Some(500));
    }

    #[test]
    fn builder_rejects_zero_snapshot_interval() {
        let err = AcceleratorConfig::builder().snapshot("/tmp/e.snap", 0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroTimeout { which: "snapshot interval" });
        assert!(err.to_string().contains("snapshot interval"));
    }

    #[test]
    fn builder_sets_observability_knobs() {
        let c = AcceleratorConfig::builder()
            .tiles(4)
            .cache_kib(16)
            .profile(ProfileLevel::Full)
            .trace_path("/tmp/t.json")
            .build()
            .unwrap();
        assert_eq!(c.ntiles, 4);
        assert_eq!(c.cache.size_bytes, 16 * 1024);
        assert_eq!(c.profile, ProfileLevel::Full);
        assert!(c.trace_path.is_some());
    }
}
