//! Fault-tolerant sharded sweep executor.
//!
//! Experiments decompose into independent deterministic **cells**
//! (config × workload × input). [`run_sweep`] drains them with a pool of
//! worker threads claiming work off a shared lock-free index, and makes
//! the robustness guarantees the harness needs:
//!
//! * **Panic isolation** — a cell that panics is recorded as
//!   [`CellStatus::Panicked`] (with the panic message in the record) and
//!   the sweep keeps going; one wedged simulation can no longer take down
//!   a whole matrix.
//! * **Watchdog timeout** — each attempt runs under an optional
//!   wall-clock limit on its worker's long-lived runner thread; an
//!   attempt that outlives it is abandoned (the runner is leaked, by
//!   design — there is no safe way to kill it — and the next attempt gets
//!   a fresh one) and recorded as [`CellStatus::TimedOut`].
//! * **Bounded retry + quarantine** — failed attempts retry with
//!   exponential backoff up to [`Policy::max_attempts`]; a cell that
//!   fails every attempt with a plain error is [`CellStatus::Quarantined`]
//!   (set aside with its failure captured) rather than fatal.
//! * **Deterministic aggregation** — results land in spec order
//!   regardless of which worker finished first, so the aggregate report
//!   is byte-identical across `--jobs` values.
//! * **Checkpoint/resume** — with a [`Journal`] attached, every completed
//!   cell is appended to a JSONL checkpoint; a killed sweep resumes by
//!   replaying succeeded cells from the journal and re-running the rest.
//!
//! The failure taxonomy is deliberately small: `ok` and `retried` are
//! successes (payload present), `timed-out` / `panicked` / `quarantined`
//! are terminal failures distinguished by *how* the last attempt died.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;
pub mod json;

pub use journal::{Codec, Journal, JOURNAL_SCHEMA_VERSION};

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One independent unit of sweep work: a stable identifier plus a
/// deterministic closure producing a payload (or a descriptive error).
///
/// The id doubles as the cell's config record — it encodes the
/// workload/config/seed coordinates (`stress/fib/256`), keys the
/// checkpoint journal, and names injected faults.
pub struct Cell<T> {
    /// Stable identifier, unique within a sweep.
    pub id: String,
    run: CellFn<T>,
}

/// The boxed body of a cell: attempt context in, payload (or error) out.
type CellFn<T> = Arc<dyn Fn(&CellCtx) -> Result<T, String> + Send + Sync + 'static>;

impl<T> Cell<T> {
    /// Wrap a closure as a cell. The closure must be deterministic:
    /// re-running it (retry, resume, a different `--jobs`) must produce
    /// the same payload.
    pub fn new(
        id: impl Into<String>,
        run: impl Fn() -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        Cell { id: id.into(), run: Arc::new(move |_ctx| run()) }
    }

    /// Wrap a closure that consumes the per-attempt [`CellCtx`] — cells
    /// that run long simulations use the context's [`SnapshotSpec`] to
    /// write periodic engine snapshots, so a killed or timed-out attempt
    /// resumes mid-simulation on retry instead of from scratch.
    pub fn resumable(
        id: impl Into<String>,
        run: impl Fn(&CellCtx) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        Cell { id: id.into(), run: Arc::new(run) }
    }
}

/// Per-attempt context handed to a [`Cell::resumable`] body.
#[derive(Clone, Debug)]
pub struct CellCtx {
    /// 1-based attempt number; retries see values above 1.
    pub attempt: u32,
    /// This cell's engine-snapshot assignment, when the sweep was
    /// launched with a snapshot interval. The path is a stable function
    /// of the cell id, so every retry of the same cell resumes from the
    /// snapshots its killed predecessor left behind.
    pub snapshot: Option<SnapshotSpec>,
}

/// One cell's crash-consistent snapshot assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSpec {
    /// Snapshot file under the sweep directory (`<sanitized-id>.snap`).
    pub path: PathBuf,
    /// Snapshot interval in simulated cycles (validated non-zero).
    pub every: u64,
}

/// How a sweep schedules, times out and retries its cells.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Worker threads draining the queue (clamped to at least 1).
    pub jobs: usize,
    /// Wall-clock watchdog per attempt; `None` runs attempts inline with
    /// no watchdog thread.
    pub timeout: Option<Duration>,
    /// Attempts per cell before the failure becomes terminal (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff << (n - 1)` (exponential).
    pub backoff: Duration,
    /// Stop claiming new cells once this many have completed in this run
    /// — the test hook that simulates a killed sweep for resume tests.
    pub halt_after: Option<usize>,
    /// Fault injection (test-only hook; empty in normal runs).
    pub inject: Inject,
    /// Engine-snapshot interval, in simulated cycles, for cells built
    /// with [`Cell::resumable`]; `None` disables snapshotting.
    pub snapshot_every: Option<u64>,
    /// Directory holding per-cell engine snapshots.
    pub snapshot_dir: PathBuf,
}

impl Policy {
    /// Single worker, no watchdog, no retry: cells run inline exactly as
    /// the pre-executor harness did (modulo `catch_unwind` isolation).
    pub fn serial() -> Self {
        Policy {
            jobs: 1,
            timeout: None,
            max_attempts: 1,
            backoff: Duration::ZERO,
            halt_after: None,
            inject: Inject::default(),
            snapshot_every: None,
            snapshot_dir: PathBuf::from("target/sweep"),
        }
    }

    /// One worker per available core, a generous watchdog, and one retry
    /// — the `reproduce` CLI default.
    pub fn default_parallel() -> Self {
        Policy {
            jobs: available_jobs(),
            timeout: Some(Duration::from_secs(600)),
            max_attempts: 2,
            backoff: Duration::from_millis(100),
            halt_after: None,
            inject: Inject::default(),
            snapshot_every: None,
            snapshot_dir: PathBuf::from("target/sweep"),
        }
    }

    /// The snapshot assignment for `cell_id` under this policy: a stable
    /// `<sanitized-id>.snap` path under the sweep directory, identical
    /// across retries.
    pub fn snapshot_spec(&self, cell_id: &str) -> Option<SnapshotSpec> {
        self.snapshot_every.map(|every| SnapshotSpec {
            path: self.snapshot_dir.join(format!("{}.snap", sanitize_id(cell_id))),
            every,
        })
    }
}

/// Flatten a cell id (`chaos/fib`) into a filesystem-safe file stem.
fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect()
}

/// Worker count for the default policy: one per available core.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Retry budget past which `--retries` is treated as a typo rather than a
/// policy: with exponential backoff, attempt 33 would already shift the
/// backoff out of range, and nothing in the harness is that flaky.
pub const MAX_RETRIES: u32 = 32;

/// A nonsensical executor flag, rejected before any cell runs.
///
/// The CLI maps each flag onto one variant so `reproduce --jobs 0` fails
/// fast with a typed, explanatory error instead of being silently clamped
/// or silently disabling the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// `--jobs 0`: zero workers can never drain the queue.
    ZeroJobs,
    /// `--timeout-ms 0`: a zero watchdog would time out every attempt
    /// before it starts. Omit the flag to keep the default watchdog.
    ZeroTimeout,
    /// `--retries n` with `n` beyond [`MAX_RETRIES`].
    AbsurdRetries {
        /// What the flag asked for.
        requested: u32,
    },
    /// `--snapshot-every 0`: a zero-cycle snapshot interval would write a
    /// snapshot every engine iteration. Omit the flag to disable
    /// snapshotting instead.
    ZeroSnapshotInterval,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::ZeroJobs => {
                write!(f, "--jobs 0: at least one worker is required to drain the sweep")
            }
            PolicyError::ZeroTimeout => write!(
                f,
                "--timeout-ms 0: a zero watchdog would kill every attempt at birth; \
                 omit the flag to keep the default"
            ),
            PolicyError::AbsurdRetries { requested } => write!(
                f,
                "--retries {requested}: retry budgets above {MAX_RETRIES} are a typo, \
                 not a policy (exponential backoff overflows long before that)"
            ),
            PolicyError::ZeroSnapshotInterval => write!(
                f,
                "--snapshot-every 0: a zero-cycle snapshot interval would snapshot every \
                 engine iteration; omit the flag to disable snapshotting"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl Policy {
    /// Reject nonsensical knob combinations with a typed [`PolicyError`].
    /// `run_sweep` itself stays lenient (it clamps) so programmatic users
    /// keep the old behaviour; the CLI calls this on every flag set.
    ///
    /// # Errors
    ///
    /// [`PolicyError::ZeroJobs`], [`PolicyError::ZeroTimeout`] or
    /// [`PolicyError::AbsurdRetries`].
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.jobs == 0 {
            return Err(PolicyError::ZeroJobs);
        }
        if self.timeout == Some(Duration::ZERO) {
            return Err(PolicyError::ZeroTimeout);
        }
        if self.max_attempts.saturating_sub(1) > MAX_RETRIES {
            return Err(PolicyError::AbsurdRetries { requested: self.max_attempts - 1 });
        }
        if self.snapshot_every == Some(0) {
            return Err(PolicyError::ZeroSnapshotInterval);
        }
        Ok(())
    }
}

/// Test-only fault injection, keyed by exact cell id. Lets the check.sh
/// executor gate force the failure paths without patching any experiment.
#[derive(Clone, Debug, Default)]
pub struct Inject {
    /// Cells whose attempts panic instead of running.
    pub panic_cells: Vec<String>,
    /// Cells whose attempts wedge past the watchdog (or synthesize a
    /// timeout when no watchdog is armed).
    pub timeout_cells: Vec<String>,
    /// Cells whose first `n` attempts fail with a transient error.
    pub flaky_cells: Vec<(String, u32)>,
}

impl Inject {
    /// True when no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.panic_cells.is_empty() && self.timeout_cells.is_empty() && self.flaky_cells.is_empty()
    }

    /// Parse one `--inject` spec: `panic:<cell-id>`, `timeout:<cell-id>`
    /// or `flaky:<cell-id>:<attempts>`.
    ///
    /// # Errors
    ///
    /// Rejects unknown kinds and malformed `flaky` counts.
    pub fn parse_spec(&mut self, spec: &str) -> Result<(), String> {
        if let Some(id) = spec.strip_prefix("panic:") {
            self.panic_cells.push(id.to_string());
        } else if let Some(id) = spec.strip_prefix("timeout:") {
            self.timeout_cells.push(id.to_string());
        } else if let Some(rest) = spec.strip_prefix("flaky:") {
            let (id, n) = rest.rsplit_once(':').ok_or("flaky spec wants `flaky:<id>:<n>`")?;
            let n: u32 = n.parse().map_err(|_| format!("bad flaky attempt count `{n}`"))?;
            self.flaky_cells.push((id.to_string(), n));
        } else {
            return Err(format!(
                "unknown inject spec `{spec}` (want panic:<id>, timeout:<id> or flaky:<id>:<n>)"
            ));
        }
        Ok(())
    }
}

/// Terminal disposition of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after at least one failed attempt.
    Retried,
    /// The last attempt outlived the watchdog.
    TimedOut,
    /// The last attempt panicked.
    Panicked,
    /// Every attempt failed with a plain error; the cell is set aside
    /// with its failure recorded.
    Quarantined,
}

impl CellStatus {
    /// Stable wire/report label.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Retried => "retried",
            CellStatus::TimedOut => "timed-out",
            CellStatus::Panicked => "panicked",
            CellStatus::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`CellStatus::label`] (used by the checkpoint reader).
    pub fn from_label(label: &str) -> Option<Self> {
        [
            CellStatus::Ok,
            CellStatus::Retried,
            CellStatus::TimedOut,
            CellStatus::Panicked,
            CellStatus::Quarantined,
        ]
        .into_iter()
        .find(|s| s.label() == label)
    }

    /// `ok` and `retried` carry a payload; the rest are failures.
    pub fn succeeded(self) -> bool {
        matches!(self, CellStatus::Ok | CellStatus::Retried)
    }
}

/// The outcome of one cell: status, attempt count, human detail and (on
/// success) the payload.
#[derive(Clone, Debug)]
pub struct CellRecord<T> {
    /// The cell's id (its config record).
    pub id: String,
    /// Terminal disposition.
    pub status: CellStatus,
    /// Attempts consumed (≥ 1).
    pub attempts: u32,
    /// Failure message, retry note, or empty for a clean first-try pass.
    pub detail: String,
    /// The cell's result; `Some` iff `status.succeeded()`.
    pub payload: Option<T>,
    /// True when this record was replayed from a checkpoint journal
    /// rather than executed in this run.
    pub resumed: bool,
}

/// Aggregate outcome of [`run_sweep`]: per-cell records in spec order —
/// independent of completion order — plus scheduling metadata.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// One record per completed cell, in the order the cells were given.
    pub records: Vec<CellRecord<T>>,
    /// Cells never attempted because [`Policy::halt_after`] stopped the
    /// run early (always 0 without the test hook).
    pub skipped: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall clock of the whole sweep.
    pub wall: Duration,
}

impl<T> SweepReport<T> {
    /// Count of records with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Records that did not succeed.
    pub fn failures(&self) -> Vec<&CellRecord<T>> {
        self.records.iter().filter(|r| !r.status.succeeded()).collect()
    }

    /// True when every cell was attempted and succeeded.
    pub fn complete_ok(&self) -> bool {
        self.skipped == 0 && self.records.iter().all(|r| r.status.succeeded())
    }

    /// Count of records replayed from a checkpoint.
    pub fn resumed(&self) -> usize {
        self.records.iter().filter(|r| r.resumed).count()
    }

    /// One-line human summary, e.g.
    /// `22/24 cells ok, 1 panicked, 1 timed-out [jobs=4, 1.24s]`.
    pub fn summary(&self) -> String {
        let total = self.records.len() + self.skipped;
        let good = self.count(CellStatus::Ok) + self.count(CellStatus::Retried);
        let mut s = format!("{good}/{total} cells ok");
        for status in [
            CellStatus::Retried,
            CellStatus::TimedOut,
            CellStatus::Panicked,
            CellStatus::Quarantined,
        ] {
            let n = self.count(status);
            if n > 0 {
                s.push_str(&format!(", {n} {}", status.label()));
            }
        }
        if self.skipped > 0 {
            s.push_str(&format!(", {} not attempted", self.skipped));
        }
        if self.resumed() > 0 {
            s.push_str(&format!(", {} resumed", self.resumed()));
        }
        s.push_str(&format!(" [jobs={}, {:.2}s]", self.jobs, self.wall.as_secs_f64()));
        s
    }
}

/// How one attempt died.
enum FailKind {
    Error(String),
    Panic(String),
    Timeout,
}

/// Extract a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Silence the default panic hook for executor threads (worker and
/// watchdog runner threads are named `cell-…`), so isolated cell panics don't
/// spray backtraces over the report. Installed by the `reproduce` CLI;
/// deliberately **not** installed by the library — the hook is
/// process-global and test harnesses run cells from arbitrary threads.
pub fn install_quiet_panic_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let on_cell_thread =
            std::thread::current().name().is_some_and(|name| name.starts_with("cell-"));
        if !on_cell_thread {
            default(info);
        }
    }));
}

/// How one attempt ended on the thread that ran it.
type Outcome<T> = std::thread::Result<Result<T, String>>;

/// One attempt's body, shipped to a watchdog runner.
type Body<T> = Box<dyn FnOnce() -> Result<T, String> + Send>;

/// A worker's watchdog: one long-lived runner thread (named `cell-…`)
/// fed attempts over a channel, spawned on the first armed attempt. An
/// attempt that outlives the limit abandons its runner — a wedged attempt
/// cannot be killed, so the thread is leaked, by design, and only ever
/// touches its dead channel ends — and the next attempt gets a fresh one.
struct Watchdog<T> {
    worker: usize,
    runner: Option<Runner<T>>,
}

struct Runner<T> {
    bodies: mpsc::Sender<Body<T>>,
    outcomes: mpsc::Receiver<Outcome<T>>,
    thread: std::thread::JoinHandle<()>,
}

impl<T: Send + 'static> Watchdog<T> {
    fn new(worker: usize) -> Self {
        Watchdog { worker, runner: None }
    }

    /// Run `body` on the runner; `None` when it outlived `limit`.
    fn run(&mut self, body: Body<T>, limit: Duration) -> Option<Outcome<T>> {
        let runner = self.runner.get_or_insert_with(|| {
            let (bodies, inbox) = mpsc::channel::<Body<T>>();
            let (outbox, outcomes) = mpsc::channel();
            let thread = std::thread::Builder::new()
                .name(format!("cell-runner-{}", self.worker))
                .spawn(move || {
                    for body in inbox {
                        if outbox.send(panic::catch_unwind(AssertUnwindSafe(body))).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn watchdog runner");
            Runner { bodies, outcomes, thread }
        });
        // A send or receive can only fail on a runner that is gone; it is
        // replaced like a wedged one.
        let outcome =
            runner.bodies.send(body).ok().and_then(|()| runner.outcomes.recv_timeout(limit).ok());
        if outcome.is_none() {
            self.runner = None;
        }
        outcome
    }
}

impl<T> Drop for Watchdog<T> {
    /// Close the idle runner's inbox and wait for it to exit.
    fn drop(&mut self) {
        if let Some(Runner { bodies, thread, .. }) = self.runner.take() {
            drop(bodies);
            let _ = thread.join();
        }
    }
}

/// Run one attempt of a cell, honoring injection and the watchdog.
fn run_attempt<T: Send + 'static>(
    cell: &Cell<T>,
    attempt: u32,
    policy: &Policy,
    watchdog: &mut Watchdog<T>,
) -> Result<T, FailKind> {
    let inject = &policy.inject;
    if inject.flaky_cells.iter().any(|(id, n)| *id == cell.id && attempt <= *n) {
        return Err(FailKind::Error(format!("injected transient fault (attempt {attempt})")));
    }
    let forced_panic = inject.panic_cells.contains(&cell.id);
    let forced_timeout = inject.timeout_cells.contains(&cell.id);
    if forced_timeout && policy.timeout.is_none() {
        // No watchdog armed to out-sleep: synthesize the timeout.
        return Err(FailKind::Timeout);
    }
    let run = Arc::clone(&cell.run);
    let ctx = CellCtx { attempt, snapshot: policy.snapshot_spec(&cell.id) };
    let oversleep = policy.timeout.map_or(Duration::ZERO, |t| t + Duration::from_millis(500));
    let body = move || -> Result<T, String> {
        if forced_panic {
            panic!("injected panic");
        }
        if forced_timeout {
            // Wedge past the watchdog, then exit quietly on the abandoned
            // runner.
            std::thread::sleep(oversleep);
            return Err("watchdog did not fire".to_string());
        }
        run(&ctx)
    };
    let outcome = match policy.timeout {
        None => panic::catch_unwind(AssertUnwindSafe(body)),
        Some(limit) => watchdog.run(Box::new(body), limit).ok_or(FailKind::Timeout)?,
    };
    match outcome {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(FailKind::Error(e)),
        Err(p) => Err(FailKind::Panic(panic_message(p))),
    }
}

/// Drive one cell to a terminal record: attempt, retry with exponential
/// backoff, classify the last failure.
fn run_cell<T: Send + 'static>(
    cell: &Cell<T>,
    policy: &Policy,
    watchdog: &mut Watchdog<T>,
) -> CellRecord<T> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0;
    loop {
        attempts += 1;
        match run_attempt(cell, attempts, policy, watchdog) {
            Ok(payload) => {
                let (status, detail) = if attempts > 1 {
                    (CellStatus::Retried, format!("succeeded on attempt {attempts}"))
                } else {
                    (CellStatus::Ok, String::new())
                };
                return CellRecord {
                    id: cell.id.clone(),
                    status,
                    attempts,
                    detail,
                    payload: Some(payload),
                    resumed: false,
                };
            }
            Err(_) if attempts < max_attempts => {
                let backoff = policy.backoff * (1 << (attempts - 1));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(kind) => {
                let (status, detail) = match kind {
                    FailKind::Timeout => {
                        let ms = policy.timeout.map_or(0, |t| t.as_millis());
                        (CellStatus::TimedOut, format!("exceeded the {ms}ms watchdog"))
                    }
                    FailKind::Panic(msg) => (CellStatus::Panicked, msg),
                    FailKind::Error(msg) => (CellStatus::Quarantined, msg),
                };
                return CellRecord {
                    id: cell.id.clone(),
                    status,
                    attempts,
                    detail,
                    payload: None,
                    resumed: false,
                };
            }
        }
    }
}

/// Run a sweep: workers claim cells off a shared index, each cell runs
/// isolated under the policy, completed records are journaled (when a
/// journal is attached) and aggregated **in spec order** — the report is
/// identical for any `jobs` value because every cell is deterministic
/// and placement is by cell index, not completion order.
///
/// With a journal opened in resume mode, cells whose ids have succeeded
/// records in the checkpoint are replayed (marked `resumed`) instead of
/// re-executed; previously failed cells run again.
pub fn run_sweep<T: Clone + Send + Sync + 'static>(
    cells: &[Cell<T>],
    policy: &Policy,
    journal: Option<&Journal<T>>,
) -> SweepReport<T> {
    let start = Instant::now();
    let slots: Vec<Mutex<Option<CellRecord<T>>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let mut pending: Vec<usize> = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match journal.and_then(|j| j.prior(&cell.id)) {
            Some(record) => *slots[index].lock().expect("slot lock") = Some(record),
            None => pending.push(index),
        }
    }
    let jobs = policy.jobs.clamp(1, pending.len().max(1));
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let (slots, pending, next, completed) = (&slots, &pending, &next, &completed);
            std::thread::Builder::new()
                .name(format!("cell-worker-{worker}"))
                .spawn_scoped(scope, move || {
                    let mut watchdog = Watchdog::new(worker);
                    loop {
                        if let Some(halt) = policy.halt_after {
                            if completed.load(Ordering::SeqCst) >= halt {
                                return;
                            }
                        }
                        let claim = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&index) = pending.get(claim) else { return };
                        let record = run_cell(&cells[index], policy, &mut watchdog);
                        if let Some(j) = journal {
                            j.append(&record);
                        }
                        *slots[index].lock().expect("slot lock") = Some(record);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .expect("spawn sweep worker");
        }
    });
    let mut records = Vec::with_capacity(cells.len());
    let mut skipped = 0;
    for slot in slots {
        match slot.into_inner().expect("slot lock") {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    SweepReport { records, skipped, jobs, wall: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_cells(n: usize) -> Vec<Cell<usize>> {
        (0..n).map(|i| Cell::new(format!("cell/{i}"), move || Ok(i * i))).collect()
    }

    #[test]
    fn serial_sweep_preserves_spec_order() {
        let report = run_sweep(&id_cells(5), &Policy::serial(), None);
        assert!(report.complete_ok());
        assert_eq!(report.records.len(), 5);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, format!("cell/{i}"));
            assert_eq!(r.payload, Some(i * i));
            assert_eq!(r.status, CellStatus::Ok);
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_order_exactly() {
        let serial = run_sweep(&id_cells(16), &Policy::serial(), None);
        for jobs in [2, 4, 8] {
            let mut policy = Policy::serial();
            policy.jobs = jobs;
            let parallel = run_sweep(&id_cells(16), &policy, None);
            assert!(parallel.complete_ok());
            let key = |r: &CellRecord<usize>| (r.id.clone(), r.payload);
            assert_eq!(
                serial.records.iter().map(key).collect::<Vec<_>>(),
                parallel.records.iter().map(key).collect::<Vec<_>>(),
                "jobs={jobs} must aggregate in spec order"
            );
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated_not_fatal() {
        let cells = vec![
            Cell::new("good", || Ok(1u32)),
            Cell::new("bad", || panic!("boom: seed=42")),
            Cell::new("also-good", || Ok(3u32)),
        ];
        let report = run_sweep(&cells, &Policy::serial(), None);
        assert!(!report.complete_ok());
        assert_eq!(report.count(CellStatus::Ok), 2);
        assert_eq!(report.count(CellStatus::Panicked), 1);
        let failure = &report.records[1];
        assert_eq!(failure.id, "bad");
        assert!(
            failure.detail.contains("seed=42"),
            "panic message is captured: {}",
            failure.detail
        );
        assert!(failure.payload.is_none());
    }

    #[test]
    fn plain_errors_quarantine_with_the_message() {
        let cells = vec![Cell::new("err", || Err::<u32, _>("no such workload".to_string()))];
        let report = run_sweep(&cells, &Policy::serial(), None);
        assert_eq!(report.records[0].status, CellStatus::Quarantined);
        assert_eq!(report.records[0].detail, "no such workload");
        assert_eq!(
            report.summary(),
            format!("0/1 cells ok, 1 quarantined [jobs=1, {:.2}s]", report.wall.as_secs_f64())
        );
    }

    #[test]
    fn a_wedged_cell_times_out_and_the_sweep_continues() {
        let cells = vec![
            Cell::new("wedged", || {
                std::thread::sleep(Duration::from_secs(5));
                Ok(0u32)
            }),
            Cell::new("fine", || Ok(7u32)),
        ];
        let mut policy = Policy::serial();
        policy.timeout = Some(Duration::from_millis(50));
        let report = run_sweep(&cells, &policy, None);
        assert_eq!(report.records[0].status, CellStatus::TimedOut);
        assert!(report.records[0].detail.contains("50ms watchdog"));
        assert_eq!(report.records[1].payload, Some(7));
        assert!(report.wall < Duration::from_secs(4), "the sweep must not wait out the wedge");
    }

    /// The thread each logged cell ran on, in run order.
    type ThreadLog = Arc<Mutex<Vec<(std::thread::ThreadId, String)>>>;

    /// Cell `bad` panics and every other cell returns `i * i`; each logs
    /// the thread it ran on first.
    fn logged_cells(ids: &[&str], log: &ThreadLog) -> Vec<Cell<usize>> {
        (0..)
            .zip(ids)
            .map(|(i, &id)| {
                let (log, bad) = (Arc::clone(log), id == "bad");
                Cell::new(id, move || {
                    let me = std::thread::current();
                    log.lock().unwrap().push((me.id(), me.name().unwrap_or("").to_string()));
                    assert!(!bad, "boom");
                    Ok(i * i)
                })
            })
            .collect()
    }

    /// Everything a record says but the watchdog limit in its detail.
    fn outcomes(report: &SweepReport<usize>) -> Vec<(String, CellStatus, u32, Option<usize>)> {
        report.records.iter().map(|r| (r.id.clone(), r.status, r.attempts, r.payload)).collect()
    }

    #[test]
    fn the_runner_survives_a_panicking_cell() {
        let ids = ["bad", "a", "b", "c"];
        let log = ThreadLog::default();
        let mut policy = Policy::serial();
        policy.timeout = Some(Duration::from_secs(60));
        let report = run_sweep(&logged_cells(&ids, &log), &policy, None);
        let serial = run_sweep(&logged_cells(&ids, &ThreadLog::default()), &Policy::serial(), None);
        assert_eq!(outcomes(&report), outcomes(&serial));
        assert_eq!(report.records[0].detail, "boom");
        assert_eq!(report.records[3].payload, Some(9));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4);
        assert!(log.iter().all(|t| *t == log[0]), "one runner ran every attempt: {log:?}");
        assert_eq!(log[0].1, "cell-runner-0");
    }

    #[test]
    fn a_timed_out_runner_is_replaced_by_a_fresh_one() {
        let ids = ["a", "wedged", "b", "c"];
        let log = ThreadLog::default();
        let mut policy = Policy::serial();
        policy.timeout = Some(Duration::from_millis(100));
        policy.inject.parse_spec("timeout:wedged").unwrap();
        let report = run_sweep(&logged_cells(&ids, &log), &policy, None);
        let mut serial = Policy::serial();
        serial.inject = policy.inject.clone();
        let serial = run_sweep(&logged_cells(&ids, &ThreadLog::default()), &serial, None);
        assert_eq!(outcomes(&report), outcomes(&serial));
        assert_eq!(report.records[1].status, CellStatus::TimedOut);
        assert_eq!(report.records[3].payload, Some(9));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3, "the wedged attempt logs nothing");
        assert_ne!(log[0].0, log[1].0, "the cell after the timeout runs on a fresh runner");
        assert_eq!(log[1], log[2], "the fresh runner is reused");
        assert!(log.iter().all(|(_, name)| name == "cell-runner-0"));
    }

    #[test]
    fn flaky_injection_retries_then_succeeds() {
        let mut policy = Policy::serial();
        policy.max_attempts = 3;
        policy.inject.parse_spec("flaky:cell/1:2").unwrap();
        let report = run_sweep(&id_cells(2), &policy, None);
        assert!(report.complete_ok());
        assert_eq!(report.records[0].status, CellStatus::Ok);
        assert_eq!(report.records[1].status, CellStatus::Retried);
        assert_eq!(report.records[1].attempts, 3);
        assert_eq!(report.records[1].payload, Some(1));
        assert_eq!(report.records[1].detail, "succeeded on attempt 3");
    }

    #[test]
    fn retries_exhausted_keeps_the_last_failure_kind() {
        let mut policy = Policy::serial();
        policy.max_attempts = 2;
        policy.inject.parse_spec("flaky:cell/0:9").unwrap();
        policy.inject.parse_spec("panic:cell/1").unwrap();
        let report = run_sweep(&id_cells(2), &policy, None);
        assert_eq!(report.records[0].status, CellStatus::Quarantined);
        assert_eq!(report.records[0].attempts, 2);
        assert_eq!(report.records[1].status, CellStatus::Panicked);
        assert_eq!(report.records[1].detail, "injected panic");
    }

    #[test]
    fn timeout_injection_without_a_watchdog_is_synthesized() {
        let mut policy = Policy::serial();
        policy.inject.parse_spec("timeout:cell/0").unwrap();
        let report = run_sweep(&id_cells(1), &policy, None);
        assert_eq!(report.records[0].status, CellStatus::TimedOut);
    }

    #[test]
    fn halt_after_skips_the_tail() {
        let mut policy = Policy::serial();
        policy.halt_after = Some(3);
        let report = run_sweep(&id_cells(8), &policy, None);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.skipped, 5);
        assert!(!report.complete_ok(), "an interrupted sweep is not complete");
        assert!(report.summary().contains("5 not attempted"));
    }

    #[test]
    fn inject_specs_reject_garbage() {
        let mut inject = Inject::default();
        assert!(inject.parse_spec("explode:everything").is_err());
        assert!(inject.parse_spec("flaky:no-count").is_err());
        assert!(inject.parse_spec("flaky:x:many").is_err());
        assert!(inject.is_empty());
        inject.parse_spec("panic:a").unwrap();
        assert!(!inject.is_empty());
    }

    #[test]
    fn policy_validation_rejects_nonsense_with_typed_errors() {
        assert_eq!(Policy::serial().validate(), Ok(()));
        assert_eq!(Policy::default_parallel().validate(), Ok(()));

        let mut p = Policy::serial();
        p.jobs = 0;
        assert_eq!(p.validate(), Err(PolicyError::ZeroJobs));
        assert!(PolicyError::ZeroJobs.to_string().contains("--jobs 0"));

        let mut p = Policy::serial();
        p.timeout = Some(Duration::ZERO);
        assert_eq!(p.validate(), Err(PolicyError::ZeroTimeout));
        p.timeout = Some(Duration::from_millis(1));
        assert_eq!(p.validate(), Ok(()), "tiny but nonzero watchdogs are a policy, not a typo");

        let mut p = Policy::serial();
        p.max_attempts = MAX_RETRIES + 2;
        assert_eq!(p.validate(), Err(PolicyError::AbsurdRetries { requested: MAX_RETRIES + 1 }));
        assert!(p.validate().unwrap_err().to_string().contains("--retries 33"));
        p.max_attempts = MAX_RETRIES + 1;
        assert_eq!(p.validate(), Ok(()), "the cap itself is allowed");

        assert!(PolicyError::ZeroSnapshotInterval.to_string().contains("--snapshot-every 0"));
        let mut p = Policy::serial();
        p.snapshot_every = Some(0);
        assert_eq!(p.validate(), Err(PolicyError::ZeroSnapshotInterval));
        p.snapshot_every = Some(25);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn resumable_cells_get_a_stable_snapshot_assignment_across_retries() {
        let mut policy = Policy::serial();
        policy.max_attempts = 3;
        policy.snapshot_every = Some(50);
        policy.snapshot_dir = PathBuf::from("target/sweep-test");

        // Without an interval there is no assignment at all.
        assert_eq!(Policy::serial().snapshot_spec("chaos/fib"), None);

        // The body fails twice; every attempt must see the identical
        // sanitized path so the retry resumes from its predecessor's
        // snapshots, and the attempt counter must advance.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let cell = Cell::resumable("chaos/fib", move |ctx: &CellCtx| {
            let spec = ctx.snapshot.clone().expect("snapshotting armed");
            log.lock().unwrap().push((ctx.attempt, spec));
            if ctx.attempt < 3 {
                Err("transient".to_string())
            } else {
                Ok(7usize)
            }
        });
        let record = run_cell(&cell, &policy, &mut Watchdog::new(0));
        assert_eq!(record.status, CellStatus::Retried);
        assert_eq!(record.payload, Some(7));

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        let expected =
            SnapshotSpec { path: PathBuf::from("target/sweep-test/chaos-fib.snap"), every: 50 };
        for (i, (attempt, spec)) in seen.iter().enumerate() {
            assert_eq!(*attempt as usize, i + 1);
            assert_eq!(spec, &expected, "same assignment on every attempt");
        }
    }

    #[test]
    fn status_labels_round_trip() {
        for status in [
            CellStatus::Ok,
            CellStatus::Retried,
            CellStatus::TimedOut,
            CellStatus::Panicked,
            CellStatus::Quarantined,
        ] {
            assert_eq!(CellStatus::from_label(status.label()), Some(status));
        }
        assert_eq!(CellStatus::from_label("exploded"), None);
    }
}
