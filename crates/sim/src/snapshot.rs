//! Crash-consistent engine snapshots.
//!
//! An [`EngineSnapshot`] is a versioned, checksummed image of every
//! clocked component of an [`Accelerator`](crate::Accelerator) mid-run:
//! tiles (node states, `done_at`s, inline/steal timers), task queues and
//! spilled entries, the memory scoreboard, data-box/cache/DRAM state,
//! admission control, profiler accumulators, the fault-schedule position
//! and the event-driven core's counters. Restoring a snapshot into a
//! freshly elaborated accelerator (same module, same configuration) and
//! running to completion is **byte-identical** — cycles, `SimStats`,
//! profile and JSON output — to the uninterrupted run.
//!
//! # On-disk format
//!
//! ```text
//! magic "TAPASNAP" | version u32 | fingerprint u64 | cycle u64
//!   | payload_len u64 | payload bytes | fnv1a64 checksum u64
//! ```
//!
//! All integers little-endian. The checksum covers everything before it,
//! so a torn or bit-flipped file is detected on load. The `fingerprint`
//! hashes the elaborated design's geometry and the dynamic configuration
//! knobs (excluding the snapshot/halt test hooks themselves), so a
//! snapshot cannot be restored into an incompatible design.
//!
//! # Crash consistency and the fallback ladder
//!
//! [`EngineSnapshot::write_atomic`] writes to a temporary file and
//! renames it over the target, first rotating any existing snapshot to
//! `<path>.prev`. A consumer killed mid-write therefore degrades
//! gracefully: [`load_latest`] tries the current file, then `.prev`, and
//! reports `None` (restart from cycle 0) only when neither verifies.

use std::path::{Path, PathBuf};

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TAPASNAP";

/// Payload layout version; bumped whenever the engine's encoded state
/// changes shape. Snapshots from other versions are refused on load.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A captured engine state: the header fields plus the opaque payload the
/// engine's encoder produced. Obtain one from a periodic write during
/// [`Accelerator::run`](crate::Accelerator::run), from
/// [`Accelerator::take_halt_snapshot`](crate::Accelerator::take_halt_snapshot),
/// or by [`EngineSnapshot::load`]; consume it with
/// [`Accelerator::resume`](crate::Accelerator::resume).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Design/configuration fingerprint the payload was captured under.
    pub fingerprint: u64,
    /// Absolute engine cycle at the capture boundary.
    pub cycle: u64,
    pub(crate) payload: Vec<u8>,
}

/// Why a snapshot could not be written, read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure while writing or reading.
    Io(String),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's layout version is not [`SNAPSHOT_VERSION`].
    Version {
        /// The version found in the file.
        found: u32,
    },
    /// The file is shorter than its header or declared payload promises.
    Truncated,
    /// The trailing checksum does not match the file contents.
    Checksum,
    /// The snapshot was captured under a different design/configuration.
    Fingerprint {
        /// Fingerprint of the design being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The payload did not decode against the current design.
    Decode(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a TAPAS snapshot (bad magic)"),
            SnapshotError::Version { found } => {
                write!(f, "snapshot layout version {found} != {SNAPSHOT_VERSION}")
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch (corrupt or torn)"),
            SnapshotError::Fingerprint { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match this design ({expected:#018x})"
            ),
            SnapshotError::Decode(e) => write!(f, "snapshot payload does not decode: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash — the snapshot checksum and fingerprint primitive.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where the previous good snapshot rotates to when `path` is rewritten.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".prev");
    PathBuf::from(s)
}

impl EngineSnapshot {
    /// Serialize to the on-disk format (header + payload + checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44 + self.payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and verify the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for a wrong magic, an unknown layout
    /// version, a truncated file or a checksum mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 44 {
            return Err(SnapshotError::Truncated);
        }
        let rd_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let rd_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = rd_u32(8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let fingerprint = rd_u64(12);
        let cycle = rd_u64(20);
        let payload_len = rd_u64(28) as usize;
        let total = 36usize
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotError::Truncated)?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        let sum = rd_u64(36 + payload_len);
        if fnv64(&bytes[..36 + payload_len]) != sum {
            return Err(SnapshotError::Checksum);
        }
        Ok(EngineSnapshot { fingerprint, cycle, payload: bytes[36..36 + payload_len].to_vec() })
    }

    /// Write the snapshot crash-consistently: the bytes land in a
    /// temporary file first, any existing snapshot rotates to
    /// `<path>.prev`, and a rename publishes the new file. A kill at any
    /// point leaves at least one verifiable snapshot on disk.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the directory cannot be created
    /// or any write/rename fails.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
        }
        let tmp = {
            let mut s = path.as_os_str().to_os_string();
            s.push(format!(".tmp.{}", std::process::id()));
            PathBuf::from(s)
        };
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        if path.exists() {
            std::fs::rename(path, prev_path(path)).map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Load and verify one snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the file cannot be read or fails
    /// verification ([`EngineSnapshot::from_bytes`]).
    pub fn load(path: &Path) -> Result<EngineSnapshot, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        EngineSnapshot::from_bytes(&bytes)
    }
}

/// Little-endian byte writer for the snapshot payload. Deliberately
/// minimal — fixed-width integers, bools and length-prefixed byte runs —
/// so the payload layout is fully determined by the encode call sequence.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Checked reader over a snapshot payload; every accessor reports a
/// truncated or malformed buffer instead of panicking, so a corrupt
/// payload surfaces as [`SnapshotError::Decode`].
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b:#x}")),
        }
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "length overflows usize".to_string())
    }

    /// A length to drive a decode loop, sanity-bounded so a corrupt
    /// length cannot provoke an enormous allocation before the payload
    /// runs out.
    pub fn len(&mut self) -> Result<usize, String> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos).saturating_add(1).saturating_mul(64) {
            return Err(format!("implausible collection length {n}"));
        }
        Ok(n)
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Assert the payload was consumed exactly — a layout drift between
    /// encoder and decoder shows up here rather than as silent garbage.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after decode", self.buf.len() - self.pos))
        }
    }
}

/// Walk the fallback ladder: the current snapshot at `path`, then the
/// rotated `<path>.prev`, then nothing (restart from cycle 0). Returns the
/// first snapshot that verifies plus a note for every rung that did not.
pub fn load_latest(path: &Path) -> (Option<EngineSnapshot>, Vec<String>) {
    let mut notes = Vec::new();
    for candidate in [path.to_path_buf(), prev_path(path)] {
        if !candidate.exists() {
            continue;
        }
        match EngineSnapshot::load(&candidate) {
            Ok(snap) => return (Some(snap), notes),
            Err(e) => notes.push(format!("{}: {e}", candidate.display())),
        }
    }
    (None, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tapas-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.snap", std::process::id()))
    }

    fn sample() -> EngineSnapshot {
        EngineSnapshot { fingerprint: 0xfeed_beef, cycle: 1234, payload: vec![1, 2, 3, 4, 5] }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample();
        let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        // Flip one payload bit.
        bytes[40] ^= 0x10;
        assert_eq!(EngineSnapshot::from_bytes(&bytes).unwrap_err(), SnapshotError::Checksum);
        // Torn tail.
        let torn = &snap.to_bytes()[..snap.to_bytes().len() - 3];
        assert_eq!(EngineSnapshot::from_bytes(torn).unwrap_err(), SnapshotError::Truncated);
        // Foreign file.
        assert_eq!(
            EngineSnapshot::from_bytes(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Future layout version.
        let mut future = snap.to_bytes();
        future[8] = 99;
        assert!(matches!(
            EngineSnapshot::from_bytes(&future).unwrap_err(),
            SnapshotError::Version { found: 99 }
        ));
    }

    #[test]
    fn atomic_write_rotates_and_fallback_ladder_recovers() {
        let path = tmp("ladder");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();

        let first = EngineSnapshot { cycle: 100, ..sample() };
        first.write_atomic(&path).unwrap();
        let second = EngineSnapshot { cycle: 200, ..sample() };
        second.write_atomic(&path).unwrap();
        assert_eq!(EngineSnapshot::load(&path).unwrap().cycle, 200);
        assert_eq!(EngineSnapshot::load(&prev_path(&path)).unwrap().cycle, 100);

        // Corrupt the current file: the ladder falls back to .prev.
        std::fs::write(&path, b"TAPASNAPgarbage").unwrap();
        let (got, notes) = load_latest(&path);
        assert_eq!(got.unwrap().cycle, 100);
        assert_eq!(notes.len(), 1, "the corrupt rung is noted");

        // Corrupt both: degrade gracefully to nothing.
        std::fs::write(prev_path(&path), b"junk").unwrap();
        let (got, notes) = load_latest(&path);
        assert!(got.is_none());
        assert_eq!(notes.len(), 2);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
    }

    #[test]
    fn missing_files_fall_through_silently() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
        let (got, notes) = load_latest(&path);
        assert!(got.is_none());
        assert!(notes.is_empty(), "absent files are not corruption");
    }
}
