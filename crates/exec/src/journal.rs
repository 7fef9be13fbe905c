//! Append-only JSONL checkpoint journal for resumable sweeps.
//!
//! Every completed cell appends one line:
//!
//! ```json
//! {"schema_version":2,"cell":"stress/fib/256","status":"ok","attempts":1,"detail":"","payload":{...}}
//! ```
//!
//! On resume the journal is replayed **last-wins by cell id**; only
//! succeeded records (`ok` / `retried`, payload present and decodable)
//! are replayed into the new sweep — failed or half-written cells simply
//! run again. The reader tolerates corruption *anywhere* in the file, not
//! just a torn tail: an unparseable, schema-mismatched or undecodable
//! line — mid-file garbage included — is skipped with a note, never an
//! error, and the cell it named simply re-runs. Skipping is deterministic:
//! the same journal bytes always yield the same replay set and notes,
//! because the journal's whole point is surviving a sweep that was killed
//! mid-write.
//!
//! # Locking
//!
//! Opening a journal (create or resume) takes an exclusive advisory lock:
//! a `<path>.lock` file created atomically and holding the owner's pid.
//! A second process opening the same checkpoint fails fast instead of
//! interleaving half-written JSONL lines with the first. A lock whose
//! owner is no longer alive (checked via `/proc/<pid>`) is stale and is
//! silently broken, so a `kill -9` mid-sweep never wedges the checkpoint;
//! the lock file is removed when the journal is dropped.

use crate::json::{self, JsonValue, ToJson};
use crate::{CellRecord, CellStatus};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamp on every journal line; lines from other versions are
/// skipped on resume. Version 2: `reproduce` journals each cell's rows as
/// plain JSON, where version 1 wrapped them in `{"kind":…,"data":…}`.
pub const JOURNAL_SCHEMA_VERSION: u64 = 2;

/// Payload (de)serializer pair for a journal. Plain function pointers so
/// a journal stays `Send + Sync` without trait plumbing.
pub struct Codec<T> {
    /// Encode a payload as one JSON value.
    pub encode: fn(&T) -> String,
    /// Decode a payload from a parsed JSON value.
    pub decode: fn(&JsonValue) -> Result<T, String>,
}

/// Where the advisory lock for a journal lives.
pub fn lock_path(journal: &Path) -> PathBuf {
    let mut s = journal.as_os_str().to_os_string();
    s.push(".lock");
    PathBuf::from(s)
}

/// Exclusive advisory lock on a journal path, released on drop.
struct JournalLock {
    path: PathBuf,
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Atomically create `<journal>.lock` holding our pid. An existing lock
/// whose owner is still alive is a hard error (two sweeps must not
/// interleave appends); a stale lock — dead owner, or unreadable
/// contents — is broken and re-taken.
fn acquire_lock(journal: &Path) -> std::io::Result<JournalLock> {
    let path = lock_path(journal);
    for _ in 0..5 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let _ = writeln!(file, "{}", std::process::id());
                let _ = file.flush();
                return Ok(JournalLock { path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder =
                    std::fs::read_to_string(&path).ok().and_then(|s| s.trim().parse::<u32>().ok());
                if let Some(pid) = holder {
                    if PathBuf::from(format!("/proc/{pid}")).exists() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            format!(
                                "checkpoint {} is locked by running process {pid} \
                                 (another `reproduce` on the same checkpoint?); \
                                 remove {} if that process is gone",
                                journal.display(),
                                path.display()
                            ),
                        ));
                    }
                }
                // Stale (dead owner) or unreadable: break it and retry.
                let _ = std::fs::remove_file(&path);
            }
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::WouldBlock,
        format!("could not acquire {} after repeated stale-lock breaks", path.display()),
    ))
}

/// An open checkpoint journal: replayable prior successes plus an
/// append handle for this run's completions. Holds the `<path>.lock`
/// advisory lock for its lifetime (see the module docs).
pub struct Journal<T> {
    path: PathBuf,
    file: Mutex<File>,
    prior: HashMap<String, CellRecord<T>>,
    notes: Vec<String>,
    codec: Codec<T>,
    _lock: JournalLock,
}

impl<T: Clone> Journal<T> {
    /// Start a fresh journal, truncating anything at `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file (or a missing parent directory) cannot be
    /// created, or when another live process holds the journal's lock.
    pub fn create(path: &Path, codec: Codec<T>) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock = acquire_lock(path)?;
        let file = File::create(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            prior: HashMap::new(),
            notes: Vec::new(),
            codec,
            _lock: lock,
        })
    }

    /// Reopen an existing journal for resume: replay its succeeded
    /// records, then append this run's completions after them.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be read or reopened for append, or when
    /// another live process holds the journal's lock — *content* problems
    /// (torn lines, mid-file garbage, wrong schema, undecodable payloads)
    /// are notes, not errors.
    pub fn resume(path: &Path, codec: Codec<T>) -> std::io::Result<Self> {
        let lock = acquire_lock(path)?;
        let text = std::fs::read_to_string(path)?;
        let mut prior = HashMap::new();
        let mut notes = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line, &codec) {
                Ok(Some(record)) => {
                    // Last-wins: a later record for the same cell (e.g. a
                    // retry journaled after a failure) replaces the earlier.
                    prior.insert(record.id.clone(), record);
                }
                Ok(None) => {}
                Err(why) => notes.push(format!("line {}: {why}", lineno + 1)),
            }
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            prior,
            notes,
            codec,
            _lock: lock,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Succeeded records available for replay.
    pub fn prior_count(&self) -> usize {
        self.prior.len()
    }

    /// Skipped-line notes collected while replaying (torn tail, schema
    /// mismatch, undecodable payloads).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The replayable record for a cell, marked `resumed`, if the journal
    /// holds a succeeded record for it.
    pub fn prior(&self, id: &str) -> Option<CellRecord<T>> {
        self.prior.get(id).map(|record| {
            let mut replay = record.clone();
            replay.resumed = true;
            replay
        })
    }

    /// Append one completed cell. Best-effort: an I/O error degrades the
    /// checkpoint (that cell re-runs on resume) but never fails the sweep.
    pub fn append(&self, record: &CellRecord<T>) {
        let mut line = format!("{{\"schema_version\":{JOURNAL_SCHEMA_VERSION},\"cell\":");
        record.id.write_json(&mut line);
        line.push_str(",\"status\":");
        record.status.label().write_json(&mut line);
        line.push_str(&format!(",\"attempts\":{},\"detail\":", record.attempts));
        record.detail.write_json(&mut line);
        line.push_str(",\"payload\":");
        match &record.payload {
            Some(payload) => line.push_str(&(self.codec.encode)(payload)),
            None => line.push_str("null"),
        }
        line.push_str("}\n");
        let mut file = self.file.lock().expect("journal lock");
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }
}

/// Parse one journal line. `Ok(Some)` is a replayable success, `Ok(None)`
/// a valid-but-failed record (re-run on resume), `Err` a line to skip
/// with a note.
fn parse_line<T>(line: &str, codec: &Codec<T>) -> Result<Option<CellRecord<T>>, String> {
    let doc = json::parse(line).map_err(|e| format!("unparseable ({e})"))?;
    let version = doc.get("schema_version").and_then(JsonValue::as_f64);
    if version != Some(JOURNAL_SCHEMA_VERSION as f64) {
        return Err(format!(
            "journal schema {:?} != {JOURNAL_SCHEMA_VERSION}, ignoring",
            version.map(|v| v as u64)
        ));
    }
    let id = doc.get("cell").and_then(JsonValue::as_str).ok_or("missing cell id")?.to_string();
    let label = doc.get("status").and_then(JsonValue::as_str).ok_or("missing status")?;
    let status =
        CellStatus::from_label(label).ok_or_else(|| format!("unknown status `{label}`"))?;
    if !status.succeeded() {
        return Ok(None);
    }
    let attempts = doc.get("attempts").and_then(JsonValue::as_f64).unwrap_or(1.0) as u32;
    let detail = doc.get("detail").and_then(JsonValue::as_str).unwrap_or_default().to_string();
    let payload_doc = doc.get("payload").ok_or("missing payload")?;
    if *payload_doc == JsonValue::Null {
        return Err("succeeded record with a null payload".to_string());
    }
    let payload =
        (codec.decode)(payload_doc).map_err(|e| format!("payload does not decode: {e}"))?;
    Ok(Some(CellRecord { id, status, attempts, detail, payload: Some(payload), resumed: false }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sweep, Cell, Policy};

    fn u32_codec() -> Codec<u32> {
        Codec { encode: |v| v.to_string(), decode: |doc| crate::json::FromJson::from_json(doc) }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tapas-exec-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn cells() -> Vec<Cell<u32>> {
        (0..6u32).map(|i| Cell::new(format!("c/{i}"), move || Ok(i + 100))).collect()
    }

    #[test]
    fn interrupted_sweep_resumes_to_the_clean_report() {
        let path = tmp("resume");
        let clean = run_sweep(&cells(), &Policy::serial(), None);

        // First run: journaled, killed after 2 cells.
        let journal = Journal::create(&path, u32_codec()).unwrap();
        let mut policy = Policy::serial();
        policy.halt_after = Some(2);
        let partial = run_sweep(&cells(), &policy, Some(&journal));
        assert_eq!(partial.records.len(), 2);
        assert_eq!(partial.skipped, 4);
        drop(journal);

        // Resume: the 2 journaled cells replay, the other 4 execute.
        let journal = Journal::resume(&path, u32_codec()).unwrap();
        assert_eq!(journal.prior_count(), 2);
        assert!(journal.notes().is_empty());
        let resumed = run_sweep(&cells(), &Policy::serial(), Some(&journal));
        assert!(resumed.complete_ok());
        assert_eq!(resumed.resumed(), 2);
        let key = |r: &crate::CellRecord<u32>| (r.id.clone(), r.status, r.payload);
        assert_eq!(
            clean.records.iter().map(key).collect::<Vec<_>>(),
            resumed.records.iter().map(key).collect::<Vec<_>>(),
            "a resumed sweep reproduces the clean-run report"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_records_are_rerun_on_resume() {
        let path = tmp("rerun-failures");
        let journal = Journal::create(&path, u32_codec()).unwrap();
        let mut policy = Policy::serial();
        policy.inject.parse_spec("panic:c/3").unwrap();
        let faulted = run_sweep(&cells(), &policy, Some(&journal));
        assert_eq!(faulted.count(crate::CellStatus::Panicked), 1);
        drop(journal);

        // Resume without the injected fault: only c/3 runs again.
        let journal = Journal::resume(&path, u32_codec()).unwrap();
        assert_eq!(journal.prior_count(), 5, "the panicked cell is not replayable");
        let resumed = run_sweep(&cells(), &Policy::serial(), Some(&journal));
        assert!(resumed.complete_ok());
        assert_eq!(resumed.resumed(), 5);
        assert_eq!(resumed.records[3].payload, Some(103));
        assert!(!resumed.records[3].resumed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped_with_notes() {
        let path = tmp("torn");
        let journal = Journal::create(&path, u32_codec()).unwrap();
        run_sweep(&cells()[..3], &Policy::serial(), Some(&journal));
        drop(journal);
        // Simulate a kill mid-write plus foreign garbage and a schema bump.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str("{\"schema_version\":99,\"cell\":\"c/4\",\"status\":\"ok\",\"attempts\":1,\"detail\":\"\",\"payload\":5}\n");
        text.push_str("{\"schema_version\":2,\"cell\":\"c/5\",\"status\":\"ok\",\"att");
        std::fs::write(&path, text).unwrap();

        let journal = Journal::resume(&path, u32_codec()).unwrap();
        assert_eq!(journal.prior_count(), 3, "only intact current-schema successes replay");
        assert_eq!(journal.notes().len(), 3);
        let resumed = run_sweep(&cells(), &Policy::serial(), Some(&journal));
        assert!(resumed.complete_ok());
        assert_eq!(resumed.resumed(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_in_the_middle_is_skipped_deterministically() {
        // Corruption mid-journal — not just a torn tail — must skip
        // exactly the damaged record, re-run its cell, and do so
        // identically on every resume of the same bytes.
        let path = tmp("corrupt-middle");
        let journal = Journal::create(&path, u32_codec()).unwrap();
        run_sweep(&cells(), &Policy::serial(), Some(&journal));
        drop(journal);

        // Mangle the third of six records in place: a flipped byte makes
        // the JSON unparseable while the neighbouring lines stay intact.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 6);
        lines[2] = lines[2].replace("\"status\"", "\"sta~us\""); // mid-file corruption
        lines[4] = lines[4].replace(":104", ":\"not-a-number\""); // undecodable payload
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let replay = |path: &Path| {
            let journal = Journal::resume(path, u32_codec()).unwrap();
            let notes = journal.notes().to_vec();
            let mut ids: Vec<String> = (0..6).map(|i| format!("c/{i}")).collect();
            ids.retain(|id| journal.prior(id).is_some());
            (ids, notes)
        };
        let (replayable, notes) = replay(&path);
        assert_eq!(replayable, ["c/0", "c/1", "c/3", "c/5"], "damaged cells are not replayed");
        assert_eq!(notes.len(), 2);
        assert!(notes[0].starts_with("line 3:"), "{notes:?}");
        assert!(notes[1].starts_with("line 5:"), "{notes:?}");
        assert_eq!(replay(&path), (replayable, notes), "same bytes, same skip decisions");

        // The damaged cells re-run and the resumed report is clean.
        let journal = Journal::resume(&path, u32_codec()).unwrap();
        let resumed = run_sweep(&cells(), &Policy::serial(), Some(&journal));
        assert!(resumed.complete_ok());
        assert_eq!(resumed.resumed(), 4);
        assert_eq!(resumed.records[2].payload, Some(102));
        assert_eq!(resumed.records[4].payload, Some(104));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_live_lock_excludes_a_second_journal() {
        let path = tmp("locked");
        let held = Journal::create(&path, u32_codec()).unwrap();
        // Same checkpoint, second open (create *or* resume): locked out.
        let err = Journal::create(&path, u32_codec()).err().expect("create is locked out");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("locked by running process"), "{err}");
        let err = Journal::resume(&path, u32_codec()).err().expect("resume is locked out");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // Dropping the holder releases the lock and frees the path.
        drop(held);
        assert!(!lock_path(&path).exists(), "lock removed on drop");
        let reopened = Journal::resume(&path, u32_codec()).unwrap();
        drop(reopened);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_stale_lock_from_a_dead_process_is_broken() {
        let path = tmp("stale-lock");
        std::fs::write(&path, "").unwrap();
        // No live process has pid u32::MAX (Linux pids stop far below).
        std::fs::write(lock_path(&path), format!("{}\n", u32::MAX)).unwrap();
        let journal = Journal::resume(&path, u32_codec()).unwrap();
        drop(journal);
        // Garbage lock contents are equally stale.
        std::fs::write(lock_path(&path), "not a pid").unwrap();
        let journal = Journal::create(&path, u32_codec()).unwrap();
        drop(journal);
        assert!(!lock_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_record_wins_per_cell() {
        let path = tmp("last-wins");
        std::fs::write(
            &path,
            "{\"schema_version\":2,\"cell\":\"c/0\",\"status\":\"quarantined\",\"attempts\":2,\"detail\":\"x\",\"payload\":null}\n\
             {\"schema_version\":2,\"cell\":\"c/0\",\"status\":\"retried\",\"attempts\":3,\"detail\":\"succeeded on attempt 3\",\"payload\":42}\n",
        )
        .unwrap();
        let journal = Journal::resume(&path, u32_codec()).unwrap();
        let replay = journal.prior("c/0").expect("replayable");
        assert_eq!(replay.status, CellStatus::Retried);
        assert_eq!(replay.payload, Some(42));
        assert!(replay.resumed);
        std::fs::remove_file(&path).ok();
    }
}
