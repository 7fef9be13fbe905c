//! Set-associative L1 cache timing model.
//!
//! Mirrors the cache macro-block the paper ships ("borrowed from the RISC-V
//! cores with limited support for multiple outstanding cache misses",
//! §VI): write-back, write-allocate, LRU replacement, and a small MSHR file
//! bounding miss-level parallelism. Requests to a line already being filled
//! merge into the outstanding MSHR (hit-under-miss); when no MSHR is free
//! the cache refuses the request and the data box retries.

use crate::dram::Dram;
use crate::MemOpKind;

/// The memory level behind a cache: DRAM, or another cache level.
///
/// `fetch_line` returns the cycle at which the line has arrived (or `None`
/// when the next level cannot accept the request this cycle); `writeback_line`
/// returns when the eviction has drained.
pub trait NextLevel {
    /// Request a line fill starting no earlier than `now`.
    fn fetch_line(&mut self, addr: u64, now: u64) -> Option<u64>;
    /// Write a dirty line back starting no earlier than `now`.
    fn writeback_line(&mut self, addr: u64, now: u64) -> Option<u64>;
}

impl NextLevel for Dram {
    fn fetch_line(&mut self, _addr: u64, now: u64) -> Option<u64> {
        Some(self.schedule_read(now))
    }

    fn writeback_line(&mut self, _addr: u64, now: u64) -> Option<u64> {
        Some(self.schedule_write(now))
    }
}

/// Cache geometry and timing parameters.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (must match the DRAM burst size).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Maximum outstanding line fills.
    pub mshrs: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // The paper's accelerator L1: 16 KiB shared by all task units.
        CacheConfig { size_bytes: 16 * 1024, line_bytes: 32, ways: 2, hit_latency: 3, mshrs: 1 }
    }
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in the cache (including MSHR merges counted
    /// separately below).
    pub hits: u64,
    /// Accesses that allocated a new line fill.
    pub misses: u64,
    /// Accesses merged into an in-flight fill.
    pub mshr_merges: u64,
    /// Accesses rejected because all MSHRs were busy.
    pub rejections: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate over completed accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = (self.hits + self.misses + self.mshr_merges) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.misses as f64 / total
        }
    }
}

/// Classification of the most recent [`Cache::try_access`] call — the
/// profiler's view of *why* an access took the time it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the cache (possibly waiting behind an in-flight fill).
    Hit,
    /// Merged into an MSHR whose fill is already outstanding.
    MshrMerge,
    /// Missed and allocated a new line fill.
    Miss,
    /// Refused: every MSHR is busy.
    RejectMshrFull,
    /// Refused: every way of the target set is mid-fill.
    RejectSetBusy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    /// While a fill is outstanding, the cycle the line becomes usable.
    fill_done: u64,
}

const EMPTY_LINE: Line = Line { tag: 0, valid: false, dirty: false, lru: 0, fill_done: 0 };

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line_addr: u64,
    done_at: u64,
}

/// The cache timing model. Purely timing: data lives in
/// [`MemSystem::data`](crate::MemSystem::data).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways
    mshrs: Vec<Mshr>,
    stats: CacheStats,
    tick: u64, // LRU clock
    last_outcome: Option<AccessOutcome>,
}

impl Cache {
    /// Create a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            lines: vec![EMPTY_LINE; (sets * cfg.ways) as usize],
            mshrs: Vec::with_capacity(cfg.mshrs),
            cfg,
            stats: CacheStats::default(),
            tick: 0,
            last_outcome: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Classification of the most recent [`Cache::try_access`] call
    /// (`None` before the first access).
    pub fn last_outcome(&self) -> Option<AccessOutcome> {
        self.last_outcome
    }

    fn set_of(&self, line_addr: u64) -> u64 {
        (line_addr / self.cfg.line_bytes) % self.cfg.sets()
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        line_addr / self.cfg.line_bytes / self.cfg.sets()
    }

    fn ways_of(&mut self, set: u64) -> &mut [Line] {
        let w = self.cfg.ways as usize;
        let base = set as usize * w;
        &mut self.lines[base..base + w]
    }

    /// Attempt an access at cycle `now`. Returns the completion cycle, or
    /// `None` when the access cannot be accepted this cycle (all MSHRs in
    /// use on a miss).
    pub fn try_access(
        &mut self,
        addr: u64,
        kind: MemOpKind,
        now: u64,
        dram: &mut dyn NextLevel,
    ) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let line_addr = addr & !(self.cfg.line_bytes - 1);
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let hit_lat = u64::from(self.cfg.hit_latency);

        // Retire finished MSHRs first.
        self.mshrs.retain(|m| m.done_at > now);

        // Hit?
        let ways = self.ways_of(set);
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            if kind == MemOpKind::Write {
                line.dirty = true;
            }
            // If the line is still being filled, the access merges into the
            // outstanding MSHR and waits behind the fill; only a landed line
            // counts as a plain hit.
            let base = line.fill_done.max(now);
            if line.fill_done > now {
                self.stats.mshr_merges += 1;
                self.last_outcome = Some(AccessOutcome::MshrMerge);
            } else {
                self.stats.hits += 1;
                self.last_outcome = Some(AccessOutcome::Hit);
            }
            return Some(base + hit_lat);
        }

        // Miss on a line already being fetched? Merge.
        if let Some(m) = self.mshrs.iter().find(|m| m.line_addr == line_addr) {
            let done = m.done_at;
            self.stats.mshr_merges += 1;
            // The line will be installed; mark dirty on write when it lands.
            if kind == MemOpKind::Write {
                let tag2 = tag;
                if let Some(line) = self.ways_of(set).iter_mut().find(|l| l.valid && l.tag == tag2)
                {
                    line.dirty = true;
                }
            }
            self.last_outcome = Some(AccessOutcome::MshrMerge);
            return Some(done + hit_lat);
        }

        // True miss: need a free MSHR.
        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.rejections += 1;
            self.last_outcome = Some(AccessOutcome::RejectMshrFull);
            return None;
        }

        // Choose a victim: an invalid way first, else the LRU way whose
        // fill (if any) has completed — a line mid-fill cannot be evicted.
        let ways = self.ways_of(set);
        let victim = match ways.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                match ways
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.fill_done <= now)
                    .min_by_key(|(_, l)| l.lru)
                {
                    Some((i, _)) => i,
                    None => {
                        // Every way in the set is mid-fill; retry later.
                        self.stats.rejections += 1;
                        self.last_outcome = Some(AccessOutcome::RejectSetBusy);
                        return None;
                    }
                }
            }
        };
        let victim_dirty = ways[victim].valid && ways[victim].dirty;
        let victim_addr = (ways[victim].tag * self.cfg.sets() + set) * self.cfg.line_bytes;
        if victim_dirty {
            // The writeback occupies the next level's channel first; the
            // backend serializes the following fill behind it.
            if dram.writeback_line(victim_addr, now).is_none() {
                // Next level refused (only possible with an L2): report as
                // MSHR-style pressure, without disturbing the seed counters.
                self.last_outcome = Some(AccessOutcome::RejectMshrFull);
                return None;
            }
        }
        let Some(fill_done) = dram.fetch_line(line_addr, now) else {
            self.last_outcome = Some(AccessOutcome::RejectMshrFull);
            return None;
        };
        self.ways_of(set)[victim] =
            Line { tag, valid: true, dirty: kind == MemOpKind::Write, lru: tick, fill_done };
        if victim_dirty {
            self.stats.writebacks += 1;
        }
        self.mshrs.push(Mshr { line_addr, done_at: fill_done });
        self.stats.misses += 1;
        self.last_outcome = Some(AccessOutcome::Miss);
        Some(fill_done + hit_lat)
    }

    /// Drop all cached lines (used between benchmark repetitions).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = EMPTY_LINE;
        }
        self.mshrs.clear();
    }

    /// Capture the dynamic state (lines, MSHRs, counters, LRU clock) as a
    /// plain-data image for the simulator's engine snapshot. Only the
    /// line slots that differ from an empty line are kept. Geometry is
    /// not captured: [`Cache::restore_state`] targets a cache freshly
    /// built from the same [`CacheConfig`].
    pub fn save_state(&self) -> CacheState {
        CacheState {
            lines: (0..)
                .zip(&self.lines)
                .filter(|&(_, l)| *l != EMPTY_LINE)
                .map(|(slot, l)| (slot, l.tag, l.valid, l.dirty, l.lru, l.fill_done))
                .collect(),
            mshrs: self.mshrs.iter().map(|m| (m.line_addr, m.done_at)).collect(),
            stats: self.stats,
            tick: self.tick,
            last_outcome: self.last_outcome,
        }
    }

    /// Restore state captured by [`Cache::save_state`] into a cache with
    /// identical geometry: every slot the image does not list is reset to
    /// an empty line. MSHR order is preserved exactly (merge lookups scan
    /// in insertion order).
    ///
    /// # Errors
    ///
    /// Fails, before touching the cache, when a listed slot is outside
    /// this geometry or the slots are not strictly ascending.
    pub fn restore_state(&mut self, st: &CacheState) -> Result<(), String> {
        let mut prev = None;
        for &(slot, ..) in &st.lines {
            if slot >= self.lines.len() {
                return Err(format!(
                    "cache line slot {slot} is out of range 0..{}",
                    self.lines.len()
                ));
            }
            if let Some(prev) = prev.filter(|&p| p >= slot) {
                return Err(format!(
                    "cache line slots are not strictly ascending (slot {slot} after {prev})"
                ));
            }
            prev = Some(slot);
        }
        self.lines.fill(EMPTY_LINE);
        for &(slot, tag, valid, dirty, lru, fill_done) in &st.lines {
            self.lines[slot] = Line { tag, valid, dirty, lru, fill_done };
        }
        self.mshrs =
            st.mshrs.iter().map(|&(line_addr, done_at)| Mshr { line_addr, done_at }).collect();
        self.stats = st.stats;
        self.tick = st.tick;
        self.last_outcome = st.last_outcome;
        Ok(())
    }
}

/// Plain-data image of a cache's dynamic state, used by the simulator's
/// engine snapshot/restore (see `tapas-sim`). Field order and meaning are
/// part of the snapshot payload contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheState {
    /// `(slot, tag, valid, dirty, lru, fill_done)` for each line slot
    /// that differs from an empty line, in strictly ascending slot order;
    /// every other slot is empty.
    pub lines: Vec<(usize, u64, bool, bool, u64, u64)>,
    /// Outstanding `(line_addr, done_at)` MSHRs, in insertion order.
    pub mshrs: Vec<(u64, u64)>,
    /// Hit/miss counters.
    pub stats: CacheStats,
    /// LRU clock.
    pub tick: u64,
    /// Classification of the most recent access.
    pub last_outcome: Option<AccessOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;

    fn setup() -> (Cache, Dram) {
        (Cache::new(CacheConfig::default()), Dram::new(DramConfig::default()))
    }

    #[test]
    fn miss_then_hit_same_line() {
        let (mut c, mut d) = setup();
        let t1 = c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        assert!(t1 >= 40);
        let t2 = c.try_access(8, MemOpKind::Read, t1, &mut d).unwrap();
        assert_eq!(t2, t1 + u64::from(c.config().hit_latency));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn mshr_merge_on_inflight_line() {
        let (mut c, mut d) = setup();
        let t1 = c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        // Second access to the same line while the fill is in flight.
        let t2 = c.try_access(16, MemOpKind::Read, 1, &mut d).unwrap();
        assert_eq!(c.stats().mshr_merges + c.stats().hits, 1);
        assert!(t2 <= t1 + u64::from(c.config().hit_latency));
        assert_eq!(d.reads, 1, "merged access must not refetch");
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let cfg = CacheConfig { mshrs: 1, ..CacheConfig::default() };
        let mut c = Cache::new(cfg);
        let mut d = Dram::new(DramConfig::default());
        assert!(c.try_access(0, MemOpKind::Read, 0, &mut d).is_some());
        // Different line while the only MSHR is busy.
        assert!(c.try_access(4096, MemOpKind::Read, 1, &mut d).is_none());
        assert_eq!(c.stats().rejections, 1);
        // After the fill completes, the line can be fetched.
        assert!(c.try_access(4096, MemOpKind::Read, 1000, &mut d).is_some());
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // 2-way cache: touch 3 lines mapping to the same set.
        let cfg =
            CacheConfig { size_bytes: 128, line_bytes: 32, ways: 2, hit_latency: 1, mshrs: 4 };
        let mut c = Cache::new(cfg);
        assert_eq!(c.config().sets(), 2);
        let mut d = Dram::new(DramConfig::default());
        // set 0 lines: addresses 0, 128, 256 (line*sets stride = 64... with
        // 2 sets and 32B lines, set = (addr/32) % 2; addr 0, 64, 128 all set 0)
        let t = c.try_access(0, MemOpKind::Write, 0, &mut d).unwrap();
        let t = c.try_access(64, MemOpKind::Write, t, &mut d).unwrap();
        let t = c.try_access(128, MemOpKind::Write, t, &mut d).unwrap();
        let _ = t;
        assert_eq!(c.stats().writebacks, 1, "LRU dirty victim written back");
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn lru_keeps_recently_used_line() {
        let cfg =
            CacheConfig { size_bytes: 128, line_bytes: 32, ways: 2, hit_latency: 1, mshrs: 4 };
        let mut c = Cache::new(cfg);
        let mut d = Dram::new(DramConfig::default());
        let t = c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        let t = c.try_access(64, MemOpKind::Read, t, &mut d).unwrap();
        // Touch line 0 again so line 64 becomes LRU.
        let t = c.try_access(0, MemOpKind::Read, t, &mut d).unwrap();
        // Bring in line 128; it should evict 64, keeping 0 resident.
        let t = c.try_access(128, MemOpKind::Read, t, &mut d).unwrap();
        let before_hits = c.stats().hits;
        let _ = c.try_access(0, MemOpKind::Read, t, &mut d).unwrap();
        assert_eq!(c.stats().hits, before_hits + 1, "line 0 survived eviction");
    }

    #[test]
    fn flush_empties_cache() {
        let (mut c, mut d) = setup();
        let t = c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        c.flush();
        let t2 = c.try_access(0, MemOpKind::Read, t, &mut d).unwrap();
        assert!(t2 - t >= 40, "post-flush access misses again");
    }

    #[test]
    fn outcomes_track_access_classes() {
        let cfg = CacheConfig { mshrs: 1, ..CacheConfig::default() };
        let mut c = Cache::new(cfg);
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(c.last_outcome(), None);
        c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        assert_eq!(c.last_outcome(), Some(AccessOutcome::Miss));
        // Same line while the fill is in flight: the access merges into the
        // outstanding MSHR (it waits on `fill_done`, not a fresh fetch).
        c.try_access(16, MemOpKind::Read, 1, &mut d).unwrap();
        assert_eq!(c.last_outcome(), Some(AccessOutcome::MshrMerge));
        assert_eq!(c.stats().mshr_merges, 1);
        assert!(c.try_access(4096, MemOpKind::Read, 2, &mut d).is_none());
        assert_eq!(c.last_outcome(), Some(AccessOutcome::RejectMshrFull));
        c.try_access(0, MemOpKind::Read, 1000, &mut d).unwrap();
        assert_eq!(c.last_outcome(), Some(AccessOutcome::Hit));
    }

    #[test]
    fn miss_rate_computation() {
        let (mut c, mut d) = setup();
        let t = c.try_access(0, MemOpKind::Read, 0, &mut d).unwrap();
        c.try_access(4, MemOpKind::Read, t, &mut d).unwrap();
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }
}
