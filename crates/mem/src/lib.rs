//! # tapas-mem — memory substrate for the accelerator simulator
//!
//! TAPAS-generated accelerators use a cache-based shared-memory model — a
//! prerequisite for dynamic task parallelism (§II-B of the paper): all task
//! units share a synthesized L1 cache which talks to DRAM over an AXI-like
//! bus. This crate provides cycle-level timing models of that hierarchy plus
//! the paper's **data box** (Fig. 8): the arbiter/demux network that routes
//! memory operations from TXU dataflow nodes to the cache and back.
//!
//! The simulator follows the standard timing/functional split: one flat
//! byte-addressed store holds the data (zero-filled on first touch, so a
//! memory system that is built but never accessed costs no image), while
//! the cache and DRAM models compute *when* each access completes.

#![warn(missing_docs)]

use std::cell::OnceCell;

mod cache;
mod databox;
mod dram;
mod scratchpad;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheState, CacheStats, NextLevel};
pub use databox::{DataBox, DataBoxConfig, DataBoxState, DataBoxStats, GrantClass, GrantEvent};
pub use dram::{Dram, DramConfig, DramState};
pub use scratchpad::Scratchpad;

/// Identifier correlating a request with its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// A memory operation issued by a dataflow node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Correlation id; echoed in the response.
    pub id: ReqId,
    /// Data-box port the request entered through.
    pub port: usize,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8); must be naturally aligned.
    pub size: u8,
    /// Read or write.
    pub kind: MemOpKind,
    /// Write payload (low `size` bytes), ignored for reads.
    pub wdata: u64,
}

/// A completed memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResp {
    /// Correlation id from the request.
    pub id: ReqId,
    /// Originating port.
    pub port: usize,
    /// Loaded bits (zero for writes).
    pub rdata: u64,
}

/// A malformed memory request the system refused to execute. Reachable
/// from hostile configurations (an accelerator memory sized smaller than
/// the program's footprint) and from injected faults that corrupt
/// addresses, so it is a typed error rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access extends past the end of accelerator memory.
    OutOfBounds {
        /// Byte address of the access.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Configured memory size in bytes.
        mem_bytes: usize,
    },
    /// The access is not naturally aligned.
    Misaligned {
        /// Byte address of the access.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// The access size is not 1, 2, 4 or 8 bytes.
    BadSize {
        /// The rejected size.
        size: u8,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size, mem_bytes } => write!(
                f,
                "{size}-byte access at {addr:#x} is outside the {mem_bytes}-byte accelerator memory"
            ),
            MemError::Misaligned { addr, size } => {
                write!(f, "{size}-byte access at {addr:#x} is not naturally aligned")
            }
            MemError::BadSize { size } => {
                write!(f, "unsupported access size {size} (must be 1, 2, 4 or 8)")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Why [`MemSystem::restore_state`] refused a saved state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The saved functional image is not this system's size.
    ImageLength {
        /// Length of the saved image in bytes.
        image: usize,
        /// This system's memory size in bytes (overflow arena included).
        mem_bytes: usize,
    },
    /// The saved image's page list is malformed: a page index out of
    /// range or out of order, or a page of the wrong length.
    Page(String),
    /// The saved cache geometry (bank count, line slots, L2 presence)
    /// does not match this system.
    Geometry(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ImageLength { image, mem_bytes } => write!(
                f,
                "memory image is {image} bytes but the accelerator memory is {mem_bytes} bytes"
            ),
            RestoreError::Page(e) | RestoreError::Geometry(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A request the data box could not service: the offending request plus
/// the reason the memory system refused it.
#[derive(Debug, Clone, Copy)]
pub struct MemFault {
    /// The refused request.
    pub req: MemReq,
    /// Why it was refused.
    pub err: MemError,
}

/// The shared memory system: functional storage + L1 cache + DRAM timing.
///
/// # Examples
///
/// ```
/// use tapas_mem::*;
///
/// let mut ms = MemSystem::new(1024, CacheConfig::default(), DramConfig::default());
/// ms.write_bytes(64, &42u32.to_le_bytes());
/// let t = ms.issue(MemReq {
///     id: ReqId(1), port: 0, addr: 64, size: 4,
///     kind: MemOpKind::Read, wdata: 0,
/// }, 0).expect("well-formed request").expect("cache accepts");
/// // The response is available once the (miss) latency has elapsed.
/// let resp = ms.pop_ready(t).into_iter().next().unwrap();
/// assert_eq!(resp.rdata, 42);
/// ```
#[derive(Debug)]
pub struct MemSystem {
    /// Functional backing store (the accelerator's view of DRAM contents),
    /// `size` zero bytes created on first touch: elaboration and RTL
    /// emission build a memory system but never access it.
    data: OnceCell<Vec<u8>>,
    /// Backing store size in bytes: the configured size plus any overflow
    /// arena ([`Self::reserve_overflow`]).
    size: usize,
    /// The shared L1 cache timing model (bank 0 when the L1 is banked).
    pub cache: Cache,
    /// Optional L2 between the L1 and DRAM (the SoC's shared 512 KiB L2 —
    /// the §VI "cache hierarchy" improvement).
    pub l2: Option<Cache>,
    /// The AXI/DRAM channel timing model.
    pub dram: Dram,
    /// L1 banks 1..N when the L1 is address-interleaved ([`Self::split_banks`]);
    /// empty in the default single-bank configuration.
    extra_banks: Vec<Cache>,
    /// Which bank serviced the most recent [`Self::issue`] call.
    last_bank: usize,
    pending: std::collections::BinaryHeap<PendingResp>,
}

struct L2Backend<'a> {
    l2: &'a mut Cache,
    dram: &'a mut Dram,
}

impl NextLevel for L2Backend<'_> {
    fn fetch_line(&mut self, addr: u64, now: u64) -> Option<u64> {
        self.l2.try_access(addr, MemOpKind::Read, now, self.dram)
    }

    fn writeback_line(&mut self, addr: u64, now: u64) -> Option<u64> {
        self.l2.try_access(addr, MemOpKind::Write, now, self.dram)
    }
}

/// Restores bank-interleaved line addresses on their way to the next level.
///
/// Each L1 bank indexes with a *bank-local* line number (`global / banks`)
/// so its full set array is usable, but the L2/DRAM behind the banks must
/// see the original global address — two different lines in two different
/// banks would otherwise alias in the shared L2. The mapping
/// `local * banks + bank` is the exact inverse of the interleave.
struct BankBackend<'a> {
    inner: &'a mut dyn NextLevel,
    banks: u64,
    bank: u64,
    line_bytes: u64,
}

impl BankBackend<'_> {
    fn global(&self, local_addr: u64) -> u64 {
        ((local_addr / self.line_bytes) * self.banks + self.bank) * self.line_bytes
            + local_addr % self.line_bytes
    }
}

impl NextLevel for BankBackend<'_> {
    fn fetch_line(&mut self, addr: u64, now: u64) -> Option<u64> {
        self.inner.fetch_line(self.global(addr), now)
    }

    fn writeback_line(&mut self, addr: u64, now: u64) -> Option<u64> {
        self.inner.writeback_line(self.global(addr), now)
    }
}

#[derive(Debug)]
struct PendingResp {
    ready_at: u64,
    resp: MemResp,
}

impl PartialEq for PendingResp {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at
    }
}
impl Eq for PendingResp {}
impl PartialOrd for PendingResp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingResp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.ready_at.cmp(&self.ready_at) // min-heap
    }
}

impl MemSystem {
    /// Create a memory system with `size` bytes of storage.
    pub fn new(size: usize, cache_cfg: CacheConfig, dram_cfg: DramConfig) -> Self {
        MemSystem {
            data: OnceCell::new(),
            size,
            cache: Cache::new(cache_cfg),
            l2: None,
            dram: Dram::new(dram_cfg),
            extra_banks: Vec::new(),
            last_bank: 0,
            pending: std::collections::BinaryHeap::new(),
        }
    }

    /// Split the L1 into `banks` address-interleaved banks (consecutive
    /// lines round-robin across banks), each holding `1/banks` of the
    /// configured capacity with its own MSHR file. Must be called before
    /// any access; `banks == 1` is a no-op and leaves the system
    /// bit-identical to the unbanked default.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two, exceeds the capacity, or
    /// would leave a bank with zero sets.
    pub fn split_banks(&mut self, banks: usize) {
        assert!(banks >= 1 && banks.is_power_of_two(), "bank count must be a power of two");
        if banks == 1 {
            return;
        }
        let cfg = self.cache.config().clone();
        assert!(
            cfg.size_bytes.is_multiple_of(banks as u64),
            "cache capacity must divide evenly across {banks} banks"
        );
        let per_bank = CacheConfig { size_bytes: cfg.size_bytes / banks as u64, ..cfg };
        self.cache = Cache::new(per_bank.clone());
        self.extra_banks = (1..banks).map(|_| Cache::new(per_bank.clone())).collect();
    }

    /// Number of L1 banks (1 unless [`Self::split_banks`] was called).
    pub fn banks(&self) -> usize {
        1 + self.extra_banks.len()
    }

    /// The bank an address maps to (always 0 when unbanked): consecutive
    /// cache lines interleave round-robin across banks.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.cache.config().line_bytes) % self.banks() as u64) as usize
    }

    /// Classification of the most recent [`Self::issue`] call at the bank
    /// that serviced it (`None` before the first access).
    pub fn l1_last_outcome(&self) -> Option<AccessOutcome> {
        match self.last_bank {
            0 => self.cache.last_outcome(),
            b => self.extra_banks[b - 1].last_outcome(),
        }
    }

    /// Aggregate L1 counters summed across all banks.
    pub fn l1_stats(&self) -> CacheStats {
        let mut total = self.cache.stats();
        for b in &self.extra_banks {
            let s = b.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.mshr_merges += s.mshr_merges;
            total.rejections += s.rejections;
            total.writebacks += s.writebacks;
        }
        total
    }

    /// Create a memory system with an L2 between the L1 and DRAM.
    pub fn with_l2(
        size: usize,
        cache_cfg: CacheConfig,
        l2_cfg: CacheConfig,
        dram_cfg: DramConfig,
    ) -> Self {
        let mut ms = Self::new(size, cache_cfg, dram_cfg);
        ms.l2 = Some(Cache::new(l2_cfg));
        ms
    }

    /// Issue a request at cycle `now`.
    ///
    /// The functional effect is applied immediately (issue order is program
    /// order at each port; the dataflow serializes dependent accesses). The
    /// returned cycle is when the response becomes available, or
    /// `Ok(None)` if the cache cannot accept the request this cycle (MSHRs
    /// full / port conflict) — the caller must retry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for a malformed request (bad size, misaligned,
    /// or out of bounds) *before* any functional or timing effect.
    pub fn issue(&mut self, req: MemReq, now: u64) -> Result<Option<u64>, MemError> {
        if !req.size.is_power_of_two() || req.size > 8 {
            return Err(MemError::BadSize { size: req.size });
        }
        if !req.addr.is_multiple_of(u64::from(req.size)) {
            return Err(MemError::Misaligned { addr: req.addr, size: req.size });
        }
        if u128::from(req.addr) + u128::from(req.size) > self.size as u128 {
            return Err(MemError::OutOfBounds {
                addr: req.addr,
                size: req.size,
                mem_bytes: self.size,
            });
        }
        let outcome = if self.extra_banks.is_empty() {
            match &mut self.l2 {
                Some(l2) => {
                    let mut backend = L2Backend { l2, dram: &mut self.dram };
                    self.cache.try_access(req.addr, req.kind, now, &mut backend)
                }
                None => self.cache.try_access(req.addr, req.kind, now, &mut self.dram),
            }
        } else {
            // Banked L1: route by interleaved line number and index the bank
            // with the bank-local address so its full set array is used; the
            // BankBackend shim restores the global address for the L2/DRAM.
            let banks = self.banks() as u64;
            let line_bytes = self.cache.config().line_bytes;
            let line = req.addr / line_bytes;
            let bank = (line % banks) as usize;
            let local = (line / banks) * line_bytes + req.addr % line_bytes;
            self.last_bank = bank;
            let cache = if bank == 0 { &mut self.cache } else { &mut self.extra_banks[bank - 1] };
            match &mut self.l2 {
                Some(l2) => {
                    let mut inner = L2Backend { l2, dram: &mut self.dram };
                    let mut backend =
                        BankBackend { inner: &mut inner, banks, bank: bank as u64, line_bytes };
                    cache.try_access(local, req.kind, now, &mut backend)
                }
                None => {
                    let mut backend =
                        BankBackend { inner: &mut self.dram, banks, bank: bank as u64, line_bytes };
                    cache.try_access(local, req.kind, now, &mut backend)
                }
            }
        };
        let Some(done) = outcome else {
            return Ok(None);
        };
        let rdata = match req.kind {
            MemOpKind::Read => self.read_bits(req.addr, req.size),
            MemOpKind::Write => {
                self.write_bits(req.addr, req.size, req.wdata);
                0
            }
        };
        self.pending.push(PendingResp {
            ready_at: done,
            resp: MemResp { id: req.id, port: req.port, rdata },
        });
        Ok(Some(done))
    }

    /// Pop all responses ready at or before cycle `now`.
    pub fn pop_ready(&mut self, now: u64) -> Vec<MemResp> {
        let mut out = Vec::new();
        while let Some(top) = self.pending.peek() {
            if top.ready_at <= now {
                // invariant: peek just returned Some, so pop cannot fail.
                out.push(self.pending.pop().unwrap().resp);
            } else {
                break;
            }
        }
        out
    }

    /// Earliest cycle at which a pending response becomes ready.
    pub fn next_event(&self) -> Option<u64> {
        self.pending.peek().map(|p| p.ready_at)
    }

    /// Whether responses are still in flight.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Backing store size in bytes: the configured size plus any overflow
    /// arena.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The functional image, zero-filled on first touch.
    fn image(&self) -> &[u8] {
        self.data.get_or_init(|| vec![0; self.size])
    }

    fn image_mut(&mut self) -> &mut [u8] {
        let size = self.size;
        self.data.get_or_init(|| vec![0; size]);
        // invariant: get_or_init just filled the cell.
        self.data.get_mut().unwrap()
    }

    /// Functional read of `size` bytes as little-endian bits.
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    pub fn read_bits(&self, addr: u64, size: u8) -> u64 {
        let a = addr as usize;
        let s = size as usize;
        assert!(a + s <= self.size, "functional read OOB at {addr:#x}");
        let mut raw = [0u8; 8];
        raw[..s].copy_from_slice(&self.image()[a..a + s]);
        u64::from_le_bytes(raw)
    }

    /// Functional write of the low `size` bytes of `bits`.
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    pub fn write_bits(&mut self, addr: u64, size: u8, bits: u64) {
        let a = addr as usize;
        let s = size as usize;
        assert!(a + s <= self.size, "functional write OOB at {addr:#x}");
        self.image_mut()[a..a + s].copy_from_slice(&bits.to_le_bytes()[..s]);
    }

    /// Bulk byte write (host-side initialization).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let a = addr as usize;
        assert!(a + bytes.len() <= self.size);
        self.image_mut()[a..a + bytes.len()].copy_from_slice(bytes);
    }

    /// Bulk byte read (host-side inspection).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        assert!(a + len <= self.size);
        &self.image()[a..a + len]
    }

    /// Reserve an 8-byte-aligned overflow arena above the program-visible
    /// address space and return its base address. The arena is ordinary
    /// modeled DRAM — accesses to it travel through the cache hierarchy
    /// like any other — but it sits past the configured memory size, so a
    /// program that stays within its declared footprint can never collide
    /// with it. Used by the simulator's task-queue virtualization to park
    /// spilled queue entries.
    pub fn reserve_overflow(&mut self, bytes: usize) -> u64 {
        let base = self.size.next_multiple_of(8);
        self.size = base + bytes;
        if let Some(data) = self.data.get_mut() {
            data.resize(self.size, 0u8);
        }
        base as u64
    }

    /// Capture the full dynamic state — the image's non-zero pages, every
    /// cache bank, DRAM channel and the in-flight response scoreboard —
    /// for the engine snapshot. `pending` is saved in the heap's internal
    /// layout order so restore reproduces the exact pop order for
    /// responses with equal `ready_at` (see [`DataBox::save_state`]).
    /// Pages are borrowed, not copied, and an untouched image has none.
    pub fn save_state(&self) -> MemSystemState<'_> {
        let image = self.data.get().map_or(&[][..], Vec::as_slice);
        MemSystemState {
            len: self.size,
            pages: image.chunks(PAGE_BYTES).enumerate().filter(|(_, p)| !is_zero(p)).collect(),
            cache: self.cache.save_state(),
            extra_banks: self.extra_banks.iter().map(Cache::save_state).collect(),
            l2: self.l2.as_ref().map(Cache::save_state),
            dram: self.dram.save_state(),
            last_bank: self.last_bank,
            pending: self.pending.iter().map(|p| (p.ready_at, p.resp)).collect(),
        }
    }

    /// Restore state captured by [`MemSystem::save_state`] into a system
    /// built from the same configuration (including [`Self::split_banks`]
    /// and L2 setup, which shape the bank/L2 geometry). The image is
    /// zero-filled and the saved pages copied over it; every check runs
    /// before the image is touched.
    ///
    /// # Errors
    ///
    /// [`RestoreError::ImageLength`] when the image is not this system's
    /// size; [`RestoreError::Page`] when a page is out of range, out of
    /// order or of the wrong length; [`RestoreError::Geometry`] when the
    /// bank count, line slots or L2 presence do not match.
    pub fn restore_state(&mut self, st: MemSystemState<'_>) -> Result<(), RestoreError> {
        if st.len != self.size {
            return Err(RestoreError::ImageLength { image: st.len, mem_bytes: self.size });
        }
        let npages = self.size.div_ceil(PAGE_BYTES);
        let mut prev = None;
        for &(index, bytes) in &st.pages {
            if index >= npages {
                return Err(RestoreError::Page(format!(
                    "memory page {index} is out of range 0..{npages}"
                )));
            }
            if let Some(prev) = prev.filter(|&p| p >= index) {
                return Err(RestoreError::Page(format!(
                    "memory pages are not strictly ascending (page {index} after {prev})"
                )));
            }
            prev = Some(index);
            let want = PAGE_BYTES.min(self.size - index * PAGE_BYTES);
            if bytes.len() != want {
                return Err(RestoreError::Page(format!(
                    "memory page {index} is {} bytes, expected {want}",
                    bytes.len()
                )));
            }
        }
        if st.extra_banks.len() != self.extra_banks.len() {
            return Err(RestoreError::Geometry(format!(
                "memory state has {} banks, system has {}",
                st.extra_banks.len() + 1,
                self.extra_banks.len() + 1
            )));
        }
        match (&mut self.l2, &st.l2) {
            (Some(l2), Some(saved)) => l2.restore_state(saved).map_err(RestoreError::Geometry)?,
            (None, None) => {}
            _ => {
                return Err(RestoreError::Geometry(
                    "memory state and system disagree on L2 presence".to_string(),
                ))
            }
        }
        self.cache.restore_state(&st.cache).map_err(RestoreError::Geometry)?;
        for (bank, saved) in self.extra_banks.iter_mut().zip(&st.extra_banks) {
            bank.restore_state(saved).map_err(RestoreError::Geometry)?;
        }
        let mut data = self.data.take().map_or_else(
            || vec![0; self.size],
            |mut data| {
                data.fill(0);
                data
            },
        );
        for &(index, bytes) in &st.pages {
            data[index * PAGE_BYTES..][..bytes.len()].copy_from_slice(bytes);
        }
        self.data = OnceCell::from(data);
        self.dram.restore_state(&st.dram);
        self.last_bank = st.last_bank;
        self.pending = std::collections::BinaryHeap::from(
            st.pending
                .iter()
                .map(|&(ready_at, resp)| PendingResp { ready_at, resp })
                .collect::<Vec<_>>(),
        );
        Ok(())
    }
}

/// Whether every byte of `page` is zero, tested a word at a time.
fn is_zero(page: &[u8]) -> bool {
    let words = page.chunks_exact(8);
    let tail = words.remainder();
    let word = |w: &[u8]| u64::from_ne_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
    words.fold(0, |acc, w| acc | word(w)) == 0 && tail.iter().all(|&b| b == 0)
}

/// Granule of the snapshot's sparse memory image.
pub const PAGE_BYTES: usize = 4096;

/// Plain-data image of the whole memory system's dynamic state (snapshot
/// payload). Pages borrow from the live image on capture and from the
/// payload when decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemSystemState<'a> {
    /// Functional backing store length in bytes.
    pub len: usize,
    /// The [`PAGE_BYTES`] pages of the image that hold a non-zero byte,
    /// as `(page index, bytes)` in strictly ascending index order; every
    /// other byte is zero. The last page is short when `len` is not a
    /// multiple of [`PAGE_BYTES`].
    pub pages: Vec<(usize, &'a [u8])>,
    /// L1 bank 0.
    pub cache: CacheState,
    /// L1 banks 1..N when banked.
    pub extra_banks: Vec<CacheState>,
    /// The L2, when configured.
    pub l2: Option<CacheState>,
    /// The DRAM channel.
    pub dram: DramState,
    /// Which bank serviced the most recent access.
    pub last_bank: usize,
    /// In-flight responses `(ready_at, resp)` in heap-internal layout order.
    pub pending: Vec<(u64, MemResp)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, addr: u64, kind: MemOpKind, wdata: u64) -> MemReq {
        MemReq { id: ReqId(id), port: 0, addr, size: 4, kind, wdata }
    }

    #[test]
    fn read_after_write_roundtrip() {
        let mut ms = MemSystem::new(256, CacheConfig::default(), DramConfig::default());
        let t1 = ms.issue(req(1, 16, MemOpKind::Write, 0xdead_beef), 0).unwrap().unwrap();
        let t2 = ms.issue(req(2, 16, MemOpKind::Read, 0), t1).unwrap().unwrap();
        let resps = ms.pop_ready(t1.max(t2));
        assert_eq!(resps.len(), 2);
        let read = resps.iter().find(|r| r.id == ReqId(2)).unwrap();
        assert_eq!(read.rdata, 0xdead_beef);
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut ms = MemSystem::new(256, CacheConfig::default(), DramConfig::default());
        let t1 = ms.issue(req(1, 0, MemOpKind::Read, 0), 0).unwrap().unwrap();
        assert!(t1 > u64::from(ms.cache.config().hit_latency), "miss pays DRAM latency");
        let t2 = ms.issue(req(2, 4, MemOpKind::Read, 0), t1).unwrap().unwrap();
        assert_eq!(t2 - t1, u64::from(ms.cache.config().hit_latency), "same line now hits");
        assert_eq!(ms.cache.stats().hits, 1);
        assert_eq!(ms.cache.stats().misses, 1);
    }

    #[test]
    fn next_event_tracks_earliest_pending() {
        let mut ms = MemSystem::new(256, CacheConfig::default(), DramConfig::default());
        let t = ms.issue(req(1, 0, MemOpKind::Read, 0), 0).unwrap().unwrap();
        assert_eq!(ms.next_event(), Some(t));
        assert!(ms.pop_ready(t - 1).is_empty());
        assert_eq!(ms.pop_ready(t).len(), 1);
        assert!(!ms.has_pending());
    }

    #[test]
    #[should_panic(expected = "functional read OOB")]
    fn oob_read_panics() {
        let ms = MemSystem::new(8, CacheConfig::default(), DramConfig::default());
        ms.read_bits(8, 4);
    }

    #[test]
    fn overflow_arena_is_aligned_and_addressable() {
        let mut ms = MemSystem::new(100, CacheConfig::default(), DramConfig::default());
        let base = ms.reserve_overflow(64);
        assert_eq!(base, 104, "base rounds the 100-byte footprint up to 8");
        assert_eq!(ms.size(), 104 + 64);
        // Arena addresses are serviceable through the timing path.
        let t = ms
            .issue(
                MemReq {
                    id: ReqId(9),
                    port: 0,
                    addr: base,
                    size: 8,
                    kind: MemOpKind::Write,
                    wdata: 0x1234,
                },
                0,
            )
            .unwrap()
            .unwrap();
        ms.pop_ready(t);
        assert_eq!(ms.read_bits(base, 8), 0x1234);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let mut ms = MemSystem::new(64, CacheConfig::default(), DramConfig::default());
        let oob = ms.issue(req(1, 64, MemOpKind::Read, 0), 0).unwrap_err();
        assert_eq!(oob, MemError::OutOfBounds { addr: 64, size: 4, mem_bytes: 64 });
        let mis = ms.issue(req(2, 2, MemOpKind::Read, 0), 0).unwrap_err();
        assert_eq!(mis, MemError::Misaligned { addr: 2, size: 4 });
        let bad = ms
            .issue(
                MemReq { id: ReqId(3), port: 0, addr: 0, size: 3, ..req(3, 0, MemOpKind::Read, 0) },
                0,
            )
            .unwrap_err();
        assert_eq!(bad, MemError::BadSize { size: 3 });
        // No functional or timing effect from any of them.
        assert!(!ms.has_pending());
        assert_eq!(ms.cache.stats().hits + ms.cache.stats().misses, 0);
        // A huge address must not overflow the bounds check.
        let huge = ms.issue(req(4, u64::MAX - 7, MemOpKind::Read, 0), 0).unwrap_err();
        assert!(matches!(huge, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn memory_is_allocated_on_first_touch_and_reads_as_zeros() {
        let ms = MemSystem::new(4096, CacheConfig::default(), DramConfig::default());
        assert!(ms.data.get().is_none(), "construction allocates no image");
        assert_eq!(ms.size(), 4096);
        assert!(ms.read_bytes(0, 4096).iter().all(|&b| b == 0));
        assert_eq!(ms.data.get().map(Vec::len), Some(4096), "a read creates the image");
        let mut ms = MemSystem::new(64, CacheConfig::default(), DramConfig::default());
        ms.write_bits(60, 4, 0xaabb_ccdd);
        assert_eq!(ms.read_bits(56, 8), 0xaabb_ccdd_0000_0000);
    }

    #[test]
    fn out_of_bounds_before_first_touch_names_the_configured_size() {
        let mut ms = MemSystem::new(64, CacheConfig::default(), DramConfig::default());
        let oob = ms.issue(req(1, 64, MemOpKind::Write, 7), 0).unwrap_err();
        assert_eq!(oob, MemError::OutOfBounds { addr: 64, size: 4, mem_bytes: 64 });
        assert!(ms.data.get().is_none(), "a refused request touches nothing");
    }

    #[test]
    fn overflow_arena_base_is_the_same_before_and_after_first_touch() {
        let cold = || MemSystem::new(100, CacheConfig::default(), DramConfig::default());
        let mut untouched = cold();
        let mut touched = cold();
        touched.write_bytes(96, &[1, 2, 3, 4]);
        assert_eq!(untouched.reserve_overflow(64), 104);
        assert_eq!(touched.reserve_overflow(64), 104);
        assert!(untouched.data.get().is_none());
        assert_eq!((untouched.size(), touched.size()), (168, 168));
        assert_eq!(touched.read_bytes(96, 8), [1, 2, 3, 4, 0, 0, 0, 0]);
        assert!(untouched.read_bytes(0, 168).iter().all(|&b| b == 0));
        assert_eq!(touched.read_bytes(100, 68), untouched.read_bytes(100, 68));
    }

    #[test]
    fn restore_zero_fills_unsaved_pages_and_rejects_a_wrong_length() {
        let system = || MemSystem::new(10_000, CacheConfig::default(), DramConfig::default());
        let untouched = system();
        assert!(untouched.save_state().pages.is_empty());
        assert!(untouched.data.get().is_none(), "capturing an untouched image allocates none");

        // Pages 0 and 2 (the short last page) hold data; page 1 is zero.
        let mut src = system();
        src.write_bytes(8, &[9; 8]);
        src.write_bytes(9_990, &[5; 10]);
        let st = src.save_state();
        assert_eq!(
            st.pages.iter().map(|&(i, p)| (i, p.len())).collect::<Vec<_>>(),
            [(0, PAGE_BYTES), (2, 10_000 - 2 * PAGE_BYTES)]
        );
        let mut dst = system();
        dst.write_bytes(5_000, &[7; 8]);
        dst.restore_state(st.clone()).unwrap();
        assert_eq!(dst.read_bytes(0, 10_000), src.read_bytes(0, 10_000));

        let refused = |st: MemSystemState<'_>| {
            let mut dst = system();
            let err = dst.restore_state(st).unwrap_err();
            assert!(dst.data.get().is_none(), "a refused restore touches nothing");
            err
        };
        let short = MemSystemState { len: 128, ..st.clone() };
        assert_eq!(refused(short), RestoreError::ImageLength { image: 128, mem_bytes: 10_000 });
        let page = src.read_bytes(0, PAGE_BYTES);
        for (pages, want) in [
            (vec![(3, page)], "memory page 3 is out of range 0..3"),
            (vec![(1, page), (0, page)], "not strictly ascending (page 0 after 1)"),
            (vec![(0, page), (0, page)], "not strictly ascending (page 0 after 0)"),
            (vec![(0, &page[..100])], "memory page 0 is 100 bytes, expected 4096"),
            (vec![(2, page)], "memory page 2 is 4096 bytes, expected 1808"),
        ] {
            let err = refused(MemSystemState { pages, ..st.clone() });
            assert!(matches!(&err, RestoreError::Page(m) if m.contains(want)), "{want}: {err}");
        }
    }
}

#[cfg(test)]
mod bank_tests {
    use super::*;

    fn req(id: u64, addr: u64, kind: MemOpKind, wdata: u64) -> MemReq {
        MemReq { id: ReqId(id), port: 0, addr, size: 4, kind, wdata }
    }

    #[test]
    fn consecutive_lines_interleave_across_banks() {
        let mut ms = MemSystem::new(4096, CacheConfig::default(), DramConfig::default());
        ms.split_banks(4);
        assert_eq!(ms.banks(), 4);
        let lb = ms.cache.config().line_bytes;
        for line in 0..8u64 {
            assert_eq!(ms.bank_of(line * lb), (line % 4) as usize);
            assert_eq!(ms.bank_of(line * lb + lb - 4), (line % 4) as usize);
        }
    }

    #[test]
    fn split_divides_capacity_and_keeps_geometry() {
        let mut ms = MemSystem::new(4096, CacheConfig::default(), DramConfig::default());
        let sets_before = ms.cache.config().sets();
        ms.split_banks(4);
        assert_eq!(ms.cache.config().size_bytes, 4 * 1024);
        assert_eq!(ms.cache.config().sets(), sets_before / 4);
    }

    #[test]
    fn one_bank_split_is_a_no_op() {
        let mut ms = MemSystem::new(4096, CacheConfig::default(), DramConfig::default());
        ms.split_banks(1);
        assert_eq!(ms.banks(), 1);
        assert_eq!(ms.cache.config().size_bytes, 16 * 1024);
    }

    #[test]
    fn banked_functional_results_identical_to_unbanked() {
        let run = |banks: usize| {
            let mut ms = MemSystem::new(8192, CacheConfig::default(), DramConfig::default());
            ms.split_banks(banks);
            let mut now = 0;
            let mut reads = Vec::new();
            for k in 0..96u64 {
                let r = MemReq {
                    id: ReqId(k),
                    port: 0,
                    addr: ((k * 36) % 4096) & !3,
                    size: 4,
                    kind: if k % 3 == 0 { MemOpKind::Write } else { MemOpKind::Read },
                    wdata: k.wrapping_mul(0x9e37) & 0xffff_ffff,
                };
                now = loop {
                    match ms.issue(r, now).unwrap() {
                        Some(d) => break d,
                        None => now += 1,
                    }
                };
                for resp in ms.pop_ready(now) {
                    if r.kind == MemOpKind::Read && resp.id == r.id {
                        reads.push((resp.id, resp.rdata));
                    }
                }
            }
            (ms.read_bytes(0, ms.size()).to_vec(), reads)
        };
        let (data1, reads1) = run(1);
        let (data4, reads4) = run(4);
        assert_eq!(data1, data4, "banking is timing-only; data must be identical");
        assert_eq!(reads1, reads4, "read responses must be byte-identical");
    }

    #[test]
    fn per_bank_mshrs_allow_parallel_misses() {
        // With mshrs=1 a single-bank L1 rejects a second miss to another
        // line; four banks each bring their own MSHR, so misses to lines in
        // different banks proceed in parallel.
        let cfg = CacheConfig { mshrs: 1, ..CacheConfig::default() };
        let mut single = MemSystem::new(8192, cfg.clone(), DramConfig::default());
        let t = single.issue(req(1, 0, MemOpKind::Read, 0), 0).unwrap();
        assert!(t.is_some());
        assert!(single.issue(req(2, 32, MemOpKind::Read, 0), 0).unwrap().is_none());

        let mut banked = MemSystem::new(8192, cfg, DramConfig::default());
        banked.split_banks(4);
        assert!(banked.issue(req(1, 0, MemOpKind::Read, 0), 0).unwrap().is_some());
        assert!(
            banked.issue(req(2, 32, MemOpKind::Read, 0), 0).unwrap().is_some(),
            "line 1 lives in bank 1 with its own MSHR"
        );
        assert_eq!(banked.l1_stats().misses, 2);
        assert_eq!(banked.l1_stats().rejections, 0);
    }

    #[test]
    fn last_outcome_tracks_the_servicing_bank() {
        let mut ms = MemSystem::new(8192, CacheConfig::default(), DramConfig::default());
        ms.split_banks(2);
        let t = ms.issue(req(1, 32, MemOpKind::Read, 0), 0).unwrap().unwrap();
        assert_eq!(ms.l1_last_outcome(), Some(AccessOutcome::Miss));
        ms.pop_ready(t);
        ms.issue(req(2, 36, MemOpKind::Read, 0), t).unwrap().unwrap();
        assert_eq!(ms.l1_last_outcome(), Some(AccessOutcome::Hit));
        // Bank 0 never saw an access; the aggregate still has both.
        assert_eq!(ms.cache.stats().hits + ms.cache.stats().misses, 0);
        assert_eq!(ms.l1_stats().hits, 1);
        assert_eq!(ms.l1_stats().misses, 1);
    }

    #[test]
    fn banked_l1_under_l2_sees_global_addresses() {
        // Lines 0 and 1 land in different banks; both bank-local line
        // numbers are 0. Without address restoration they would alias in
        // the shared L2 and the second access would falsely hit.
        let l2 = CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 32,
            ways: 8,
            hit_latency: 8,
            mshrs: 4,
        };
        let mut ms = MemSystem::with_l2(8192, CacheConfig::default(), l2, DramConfig::default());
        ms.split_banks(2);
        let t1 = ms.issue(req(1, 0, MemOpKind::Read, 0), 0).unwrap().unwrap();
        let t2 = ms.issue(req(2, 32, MemOpKind::Read, 0), t1).unwrap().unwrap();
        let l2 = ms.l2.as_ref().unwrap();
        assert_eq!(l2.stats().misses, 2, "distinct global lines must both miss in the L2");
        let _ = t2;
    }
}

#[cfg(test)]
mod l2_tests {
    use super::*;

    fn l2_cfg() -> CacheConfig {
        // A 512 KiB L2 with higher hit latency and more miss parallelism.
        CacheConfig { size_bytes: 512 * 1024, line_bytes: 32, ways: 8, hit_latency: 8, mshrs: 4 }
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let mut ms = MemSystem::with_l2(
            1 << 16,
            CacheConfig { size_bytes: 128, ..CacheConfig::default() },
            l2_cfg(),
            DramConfig::default(),
        );
        // Touch many lines so the tiny L1 (128 B) thrashes but the L2 holds
        // everything; the second sweep must be far cheaper than DRAM trips.
        let mut now = 0u64;
        let sweep = |ms: &mut MemSystem, now: &mut u64, base: u64| -> u64 {
            let start = *now;
            for k in 0..32u64 {
                let req = MemReq {
                    id: ReqId(base + k),
                    port: 0,
                    addr: k * 32,
                    size: 4,
                    kind: MemOpKind::Read,
                    wdata: 0,
                };
                let done = loop {
                    match ms.issue(req, *now).unwrap() {
                        Some(d) => break d,
                        None => *now += 1,
                    }
                };
                *now = done;
            }
            *now - start
        };
        let cold = sweep(&mut ms, &mut now, 0);
        let warm = sweep(&mut ms, &mut now, 1000);
        assert!(
            warm * 2 < cold,
            "L2-resident sweep ({warm}) should be far cheaper than cold ({cold})"
        );
        // And the L2 recorded the activity.
        let l2 = ms.l2.as_ref().unwrap();
        assert!(l2.stats().misses >= 32, "cold sweep filled the L2");
        assert!(l2.stats().hits >= 30, "warm sweep hit in the L2");
    }

    #[test]
    fn l2_functional_results_identical() {
        let mk = |l2: bool| {
            let mut ms = if l2 {
                MemSystem::with_l2(4096, CacheConfig::default(), l2_cfg(), DramConfig::default())
            } else {
                MemSystem::new(4096, CacheConfig::default(), DramConfig::default())
            };
            let mut now = 0;
            for k in 0..64u64 {
                let req = MemReq {
                    id: ReqId(k),
                    port: 0,
                    addr: (k * 8) % 512,
                    size: 8,
                    kind: if k % 3 == 0 { MemOpKind::Write } else { MemOpKind::Read },
                    wdata: k * 7,
                };
                now = loop {
                    match ms.issue(req, now).unwrap() {
                        Some(d) => break d,
                        None => now += 1,
                    }
                };
            }
            ms.read_bytes(0, ms.size()).to_vec()
        };
        assert_eq!(mk(false), mk(true), "timing levels never change data");
    }
}
