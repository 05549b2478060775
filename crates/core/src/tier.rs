//! The disk spill tier: a checksummed, append-only block store cold
//! window buckets migrate into when the memory budget cannot hold the
//! full window (DESIGN §10, tiered storage).
//!
//! Design:
//!
//! * **Stub-resident spilling.** A spilled tuple keeps a RAM stub (arrival
//!   time + inline JAS values + block id), so index probes, the scan
//!   fallback, and window expiry never touch disk; only materializing a
//!   probe *hit* reads a block. The stub costs
//!   [`layout::spilled_stub_bytes`] against the memory model instead of
//!   the full tuple footprint.
//! * **Blocks reuse the snapshot codec.** Each block is a
//!   [`seal_block`](crate::snapshot_io::seal_block) frame — magic, length,
//!   fxhash checksum, section body — appended to one file per state. A
//!   block id is an index into the in-RAM [`BlockMeta`] table; the file is
//!   append-only and never compacted (dead frames stay as dead space; the
//!   window bounds live data, so the file is bounded per run).
//! * **Write-verify.** Every append is read back and checksum-verified
//!   before the spill commits. A torn write (injected or real) is retried
//!   at the same offset up to [`WRITE_ATTEMPTS`] times; persistent failure
//!   aborts the spill and the tuples simply stay resident — a torn block
//!   never loses data.
//! * **One handle, one verification.** The tier opens its block file once
//!   per (re)creation and holds that read-write handle; every frame is
//!   read with one positional read (no shared cursor, so fanned-out block
//!   reads share the handle), verified exactly once, and decoded straight
//!   from the verified body.
//! * **A cache that holds its budget, a batch that reads a block once.**
//!   The decoded-block LRU ([`BlockCache`]) evicts only until a newcomer
//!   fits, so its byte budget is what it holds. A materialization batch
//!   ([`SpillTier::fetch_batch`]) fetches each distinct block once — a
//!   resident one where it stands, the cold ones as one planned, fanned-
//!   out read — and serves a block's tuples before admitting it, so the
//!   batch cannot evict what it has yet to read. A miss decodes into the
//!   vector its eviction freed. Every tier has a cache: a zero-byte one
//!   keeps nothing, so each batch reads each of its blocks once and drops
//!   the decode, and it plans no readahead it could not keep.
//! * **Seeded fault injection.** [`IoFaultConfig`] drives a splitmix64
//!   coin stream with a *fixed draw discipline* — one draw per write, three
//!   per modeled read, none for verify-reads or restore-time file rebuilds
//!   — so the injected fault sequence is a pure function of the seed and
//!   the operation sequence, and same-seed runs replay identically.
//! * **Virtual I/O cost.** Each operation charges
//!   [`CostReceipt::io_ns`] from the [`StorageProfile`], so the engine's
//!   clock (and through [`WorkloadProfile::spilled_frac`] the tuner's
//!   `C_D`) sees disk latency. The all-zero default profile charges
//!   nothing, keeping the tier behaviorally invisible.
//!
//! [`WorkloadProfile::spilled_frac`]: crate::cost::WorkloadProfile::spilled_frac
//! [`StorageProfile`]: crate::cost::StorageProfile

use crate::cost::{CostReceipt, StorageProfile};
use crate::layout;
use crate::parallel::{for_each_slot, ShardExecutor, BLOCK_IO_NS};
use crate::snapshot_io::{open_block, seal_block, SectionReader, SectionWriter, SnapshotError};
use crate::state::TupleKey;
use amri_stream::coin::{splitmix64, unit, GOLDEN};
use amri_stream::{AttrVec, TupleId, VirtualTime, MAX_ATTRS};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Retry budget for a torn block write (first attempt + two retries).
pub const WRITE_ATTEMPTS: u32 = 3;

/// Tuples per spill block: the engine's balancer spills in chunks of this
/// many, and [`StorageProfile`] amortizes one block access over them.
pub const BLOCK_TUPLES: usize = 64;

/// Budget utilization fraction above which the balancer spills the
/// oldest resident tuples — also the RAM a host reserves for a tenant
/// that runs a tier.
pub const SPILL_HIGH_WATER: f64 = 0.8;

/// Budget utilization fraction below which the balancer promotes the
/// hottest spilled block back into RAM.
pub const PROMOTE_LOW_WATER: f64 = 0.5;

/// Materialization reads a spilled block needs before it is promoted:
/// cold blocks stay on disk.
pub const PROMOTE_MIN_READS: u32 = 2;

/// One decoded tuple record of a spill block — the cached form, ready to
/// serve a materialization without touching the device or re-parsing the
/// frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillEntry {
    /// Arena key the tuple was spilled under.
    pub key: TupleKey,
    /// Stream-assigned tuple id.
    pub id: TupleId,
    /// Arrival time.
    pub ts: VirtualTime,
    /// Full attribute vector.
    pub attrs: AttrVec,
}

/// Bytes of one record's fixed head in a spill-block body: arena key
/// (`u32`), tuple id (`u64`), arrival time (`u64`) and the attribute
/// count byte. `8 · count` attribute bytes follow it.
const RECORD_HEAD: usize = 21;

/// Decode the records of a block body [`open_block`] already verified
/// into `entries` (cleared first; its capacity is what a miss reuses),
/// striding over them: one bounds check for a record's head, one for its
/// attribute bytes. `None` exactly where a field-by-field
/// [`SectionReader`] decode fails — a record cut short, an attribute
/// count above [`MAX_ATTRS`], a record count the body cannot hold.
fn decode_entries(mut body: SectionReader<'_>, entries: &mut Vec<SpillEntry>) -> Option<()> {
    entries.clear();
    let n = body.get_usize().ok()?;
    let mut rest = body.rest();
    // Every record is at least its head, which bounds the allocation by
    // the bytes actually present.
    if n > rest.len() / RECORD_HEAD {
        return None;
    }
    let le64 = |b: &[u8]| u64::from_le_bytes(*b.first_chunk().expect("eight bytes"));
    entries.reserve(n);
    for _ in 0..n {
        let (head, tail) = rest.split_first_chunk::<RECORD_HEAD>()?;
        let width = usize::from(head[RECORD_HEAD - 1]);
        if width > MAX_ATTRS {
            return None;
        }
        let (vals, tail) = tail.split_at_checked(8 * width)?;
        let mut attrs = [0u64; MAX_ATTRS];
        for (attr, val) in attrs.iter_mut().zip(vals.chunks_exact(8)) {
            *attr = le64(val);
        }
        entries.push(SpillEntry {
            key: TupleKey(u32::from_le_bytes(*head.first_chunk().expect("four bytes"))),
            id: TupleId(le64(&head[4..])),
            ts: VirtualTime(le64(&head[12..])),
            attrs: AttrVec::from_slice(&attrs[..width]).ok()?,
        });
        rest = tail;
    }
    Some(())
}

/// The one device read: fill `buf` with the `len` bytes at `offset`.
/// Positional, so concurrent readers of one handle share no cursor.
fn pread_frame(file: &File, offset: u64, len: u32, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.resize(len as usize, 0);
    file.read_exact_at(buf, offset)
}

/// [`pread_frame`] plus the one checksum pass over what it read: the
/// verified body of the frame at `offset`.
fn read_verified<'a>(
    file: &File,
    offset: u64,
    len: u32,
    buf: &'a mut Vec<u8>,
) -> Result<SectionReader<'a>, BlockReadError> {
    pread_frame(file, offset, len, buf).map_err(|e| BlockReadError::Io(e.to_string()))?;
    open_block(buf).map_err(|e| BlockReadError::Corrupt(e.to_string()))
}

/// Read, verify and decode the frame of `meta` through `buf` into
/// `entries`.
fn read_entries(
    file: &File,
    meta: &BlockMeta,
    buf: &mut Vec<u8>,
    entries: &mut Vec<SpillEntry>,
) -> Result<(), BlockReadError> {
    let body = read_verified(file, meta.offset, meta.len, buf)?;
    let undecodable = || BlockReadError::Corrupt("spill block body does not decode".into());
    decode_entries(body, entries).ok_or_else(undecodable)
}

/// Injected disk-fault probabilities. All-zero ([`Default`]) injects
/// nothing; real corruption and real I/O errors are still detected and
/// handled identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct IoFaultConfig {
    /// Probability a block-write attempt is torn (frame corrupted on the
    /// way down, caught by write-verify).
    pub torn_write_prob: f64,
    /// Probability a block read fails transiently; a second draw with the
    /// same probability decides whether the immediate retry also fails,
    /// which loses the block.
    pub read_error_prob: f64,
    /// Probability a block read takes a latency spike.
    pub latency_spike_prob: f64,
    /// Extra virtual nanoseconds a latency spike adds.
    pub spike_ns: u64,
}

impl IoFaultConfig {
    /// True iff no fault can ever be injected.
    pub fn is_noop(&self) -> bool {
        self.torn_write_prob == 0.0 && self.read_error_prob == 0.0 && self.latency_spike_prob == 0.0
    }

    /// Validate probabilities are in `[0, 1]`.
    ///
    /// # Errors
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("torn_write_prob", self.torn_write_prob),
            ("read_error_prob", self.read_error_prob),
            ("latency_spike_prob", self.latency_spike_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// Construction parameters for one state's [`SpillTier`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpillConfig {
    /// Directory holding this state's block file (created if absent).
    pub dir: PathBuf,
    /// File name of the block store within `dir`.
    pub file_name: String,
    /// Latency profile charged per block operation.
    pub profile: StorageProfile,
    /// Injected fault probabilities.
    pub faults: IoFaultConfig,
    /// Seed of this tier's private coin stream.
    pub seed: u64,
    /// Byte budget of the decoded-block read cache. 0 is a cache that
    /// keeps nothing: every batch still reads each of its blocks once,
    /// serves it and drops it, and no readahead is planned.
    pub cache_bytes: u64,
}

/// Replay-identical counters of what the tier did — the disk-fault report
/// and the source of the bench spill columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpillStats {
    /// Tuples moved RAM → disk.
    pub spilled_tuples: u64,
    /// Tuples moved disk → RAM by promotion.
    pub promoted_tuples: u64,
    /// Blocks successfully written.
    pub blocks_written: u64,
    /// Blocks successfully read (materialization + promotion).
    pub blocks_read: u64,
    /// Injected torn-write attempts (each caught by write-verify).
    pub torn_writes: u64,
    /// Injected transient read errors (including the retry failures).
    pub read_errors: u64,
    /// Injected latency spikes.
    pub latency_spikes: u64,
    /// Blocks lost to a double read failure or checksum corruption.
    pub lost_blocks: u64,
    /// Blocks retired by promotion back to RAM.
    pub promoted_blocks: u64,
    /// Virtual nanoseconds charged for block reads (spike included).
    pub read_ns: u64,
    /// Demand fetches served from the decoded-block cache.
    #[serde(default)]
    pub cache_hits: u64,
    /// Device reads taken on the demand path (one per cold block of a
    /// batch, however many tuples it serves).
    #[serde(default)]
    pub cache_misses: u64,
    /// Batch stub hits that shared another hit's block read instead of
    /// issuing their own (per batch: spilled hits minus distinct blocks).
    #[serde(default)]
    pub coalesced_reads: u64,
    /// Blocks loaded into the cache by expiry-order readahead.
    #[serde(default)]
    pub prefetched_blocks: u64,
    /// Cache blocks evicted to stay under the byte budget.
    #[serde(default)]
    pub cache_evictions: u64,
}

impl SpillStats {
    /// Fold another state's counters in (the run-level rollup).
    pub fn merge(&mut self, other: &SpillStats) {
        self.spilled_tuples += other.spilled_tuples;
        self.promoted_tuples += other.promoted_tuples;
        self.blocks_written += other.blocks_written;
        self.blocks_read += other.blocks_read;
        self.torn_writes += other.torn_writes;
        self.read_errors += other.read_errors;
        self.latency_spikes += other.latency_spikes;
        self.lost_blocks += other.lost_blocks;
        self.promoted_blocks += other.promoted_blocks;
        self.read_ns += other.read_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced_reads += other.coalesced_reads;
        self.prefetched_blocks += other.prefetched_blocks;
        self.cache_evictions += other.cache_evictions;
    }

    /// Observed cache hit fraction `hits / (hits + misses)`, `0` before
    /// any demand fetch — the [`WorkloadProfile::cache_hit_frac`] input.
    ///
    /// [`WorkloadProfile::cache_hit_frac`]: crate::cost::WorkloadProfile::cache_hit_frac
    pub fn cache_hit_frac(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Result of a spill-tier movement operation (promotion or recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillOutcome {
    /// Tuples moved between tiers as requested.
    pub moved: usize,
    /// Tuples lost to an unreadable block (purged, typed degradation).
    pub lost: usize,
}

/// In-RAM metadata of one on-disk block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the frame in the block file.
    pub offset: u64,
    /// Frame length in bytes.
    pub len: u32,
    /// Tuples the block was written with.
    pub tuples: u32,
    /// Tuples still referenced by live stubs (0 ⇒ the block is dead).
    pub live: u32,
    /// Materialization reads served — the heat counter promotion ranks by.
    pub reads: u32,
}

/// Why a block write failed after all attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockWriteError {
    /// Every attempt was torn (injected) — the caller keeps the tuples
    /// resident; nothing is lost.
    Torn,
    /// The filesystem itself failed.
    Io(String),
}

/// Why a block read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReadError {
    /// Injected device error on the read and on its retry.
    Device,
    /// The frame failed checksum/framing verification.
    Corrupt(String),
    /// The filesystem itself failed.
    Io(String),
    /// The block id is unknown or already dead.
    Gone,
}

/// `z` stepped by the golden increment and finalized. The tier's coins
/// step their state once in [`SpillTier::next_coin`] and once more here.
fn mix(mut z: u64) -> u64 {
    splitmix64(&mut z)
}

/// One cached block: the decoded tuple records plus the bookkeeping the
/// deterministic LRU needs. `warm == false` marks a slot restored from a
/// snapshot whose contents were deliberately not saved — the entries are
/// re-read from the rebuilt block file on first touch, with no fault
/// coins and no counters, so a resumed run's observable state matches the
/// uninterrupted one exactly.
#[derive(Debug, Clone)]
struct CacheSlot {
    entries: Vec<SpillEntry>,
    bytes: u64,
    touch: u64,
    warm: bool,
}

/// Deterministic decoded-block LRU over one tier's spill blocks.
///
/// Recency is a monotone virtual touch counter (no wall clock). The slot
/// table is indexed by block id, so a hit is one indexed load; the ids of
/// the occupied slots are also kept densely in `resident`, and victims
/// are found by a linear min-touch scan over those alone — eviction costs
/// what is cached, not what was ever written. Touches are unique, so the
/// minimum — and with it every eviction decision — is a pure function of
/// the operation sequence whatever order `resident` is in. Occupancy is
/// accounted in on-disk frame bytes and the fit is exact: an admission
/// evicts least-recently-touched blocks only until the newcomer fits, so
/// `used <= budget` always and the cache holds what it is budgeted.
#[derive(Debug, Clone)]
pub struct BlockCache {
    budget: u64,
    seq: u64,
    used: u64,
    slots: Vec<Option<CacheSlot>>,
    /// Ids of the occupied `slots`, unordered (removal swaps the last in).
    resident: Vec<u32>,
}

/// Comparable cache shape: budget, touch sequence, occupied bytes and
/// the resident `(id, bytes, touch)` in id order — everything a snapshot
/// carries.
type CacheMeta = (u64, u64, u64, Vec<(u32, u64, u64)>);

impl BlockCache {
    fn new(budget: u64) -> Self {
        BlockCache {
            budget,
            seq: 0,
            used: 0,
            slots: Vec::new(),
            resident: Vec::new(),
        }
    }

    /// Cache metadata as comparable shape (entries and warmth excluded —
    /// a lazily-rewarmed twin is the same cache).
    fn meta(&self) -> CacheMeta {
        (self.budget, self.seq, self.used, self.resident_meta())
    }

    /// Resident `(id, bytes, touch)` in ascending id order (deterministic;
    /// snapshots and comparisons iterate this way).
    fn resident_meta(&self) -> Vec<(u32, u64, u64)> {
        let mut ids = self.resident.clone();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| self.slot(id).map(|s| (id, s.bytes, s.touch)))
            .collect()
    }

    fn slot(&self, id: u32) -> Option<&CacheSlot> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    fn contains(&self, id: u32) -> bool {
        self.slot(id).is_some()
    }

    /// Touch `id` (bump its recency) and return its entries.
    fn touch_get(&mut self, id: u32) -> Option<&[SpillEntry]> {
        self.seq += 1;
        let seq = self.seq;
        let slot = self.slots.get_mut(id as usize)?.as_mut()?;
        slot.touch = seq;
        Some(&slot.entries)
    }

    /// Occupy the free slot `id`.
    fn place(&mut self, id: u32, slot: CacheSlot) {
        if self.slots.len() <= id as usize {
            self.slots.resize_with(id as usize + 1, || None);
        }
        self.used += slot.bytes;
        let old = self.slots[id as usize].replace(slot);
        debug_assert!(old.is_none(), "only a free slot is placed into");
        self.resident.push(id);
    }

    /// Insert the uncached block `id`, first evicting least-recently-
    /// touched blocks until it fits; each victim's decode vector goes to
    /// `spare` for the next miss to fill. Returns the entries back when
    /// the block alone exceeds the whole budget (never cached; the caller
    /// serves it transiently instead).
    fn admit(
        &mut self,
        id: u32,
        entries: Vec<SpillEntry>,
        bytes: u64,
        stats: &mut SpillStats,
        spare: &mut Vec<Vec<SpillEntry>>,
    ) -> Result<(), Vec<SpillEntry>> {
        if bytes > self.budget {
            return Err(entries);
        }
        while self.used + bytes > self.budget {
            let victim = self
                .resident
                .iter()
                .copied()
                .min_by_key(|&r| self.slot(r).map(|s| s.touch))
                .expect("bytes are held by resident blocks");
            spare.extend(self.remove(victim));
            stats.cache_evictions += 1;
        }
        self.seq += 1;
        self.place(
            id,
            CacheSlot {
                entries,
                bytes,
                touch: self.seq,
                warm: true,
            },
        );
        Ok(())
    }

    /// Drop `id` without counting an eviction (invalidation: the block
    /// died by promotion, loss, or expiry), returning its decode vector.
    fn remove(&mut self, id: u32) -> Option<Vec<SpillEntry>> {
        let slot = self.slots.get_mut(id as usize)?.take()?;
        self.used -= slot.bytes;
        let at = self.resident.iter().position(|&r| r == id);
        self.resident
            .swap_remove(at.expect("an occupied slot is listed in `resident`"));
        Some(slot.entries)
    }
}

/// One state's disk spill tier: the block file, its metadata table, the
/// seeded fault coin stream, the decoded-block read cache (zero bytes
/// keeps nothing, and is still the read path), and the replay-identical
/// counters.
#[derive(Debug, Clone)]
pub struct SpillTier {
    path: PathBuf,
    /// The block file, opened read-write where it is (re)created and held
    /// for the tier's life: every read and write is positional on this
    /// one descriptor. Clones share it.
    file: Arc<File>,
    profile: StorageProfile,
    faults: IoFaultConfig,
    rng: u64,
    file_len: u64,
    blocks: Vec<BlockMeta>,
    /// Frame bytes of the blocks with `live > 0`, kept in step with
    /// `blocks` so [`disk_bytes`](Self::disk_bytes) never walks the table.
    live_disk_bytes: u64,
    stats: SpillStats,
    cache: BlockCache,
    /// Expiry-order readahead plan queued at the last maintenance grid
    /// point, drained by the next [`run_readahead`](Self::run_readahead).
    pending_prefetch: Vec<u32>,
    /// The decode of the last block [`fetch_entries`](Self::fetch_entries)
    /// served but the cache could not keep. Never consulted as a cache —
    /// it only gives the returned slice a place to live.
    scratch: Vec<SpillEntry>,
    /// The one reusable frame buffer: demand reads land here to be
    /// verified and decoded, appends read back through it.
    frame_buf: Vec<u8>,
    /// Reusable read plan of [`fetch_batch`](Self::fetch_batch) and
    /// [`run_readahead`](Self::run_readahead); empty between calls.
    read_plan: Vec<PlannedRead>,
    /// Emptied decode vectors — an evicted block's, a failed or
    /// unadmitted read's — for the next misses to fill, so a miss that
    /// evicts allocates nothing.
    spare: Vec<Vec<SpillEntry>>,
}

/// One uncached block of a batch fetch or a readahead: its pre-drawn
/// fault outcome going in (a readahead draws none: always `Ok`), its
/// decode coming out.
#[derive(Debug, Clone)]
struct PlannedRead {
    id: u32,
    meta: BlockMeta,
    /// `io_ns` to charge; `Err` = injected device loss.
    outcome: Result<u64, u64>,
    /// The decode, filled when `outcome` let the read through and it
    /// verified; `failed` says why it did not.
    entries: Vec<SpillEntry>,
    failed: Option<BlockReadError>,
}

impl PartialEq for SpillTier {
    /// Structural equality over replayable state: the handle and the
    /// scratch buffers are excluded (they are not observable), and the
    /// cache compares by metadata shape so a lazily-rewarmed restore
    /// equals its live twin.
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.profile == other.profile
            && self.faults == other.faults
            && self.rng == other.rng
            && self.file_len == other.file_len
            && self.blocks == other.blocks
            && self.stats == other.stats
            && self.pending_prefetch == other.pending_prefetch
            && self.cache.meta() == other.cache.meta()
    }
}

impl SpillTier {
    /// Create the tier, truncating any leftover block file from a previous
    /// run.
    ///
    /// # Errors
    /// Filesystem errors creating the directory or file.
    pub fn create(cfg: &SpillConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = cfg.dir.join(&cfg.file_name);
        let file = Arc::new(Self::open_truncated(&path)?);
        Ok(SpillTier {
            path,
            file,
            profile: cfg.profile,
            faults: cfg.faults,
            rng: cfg.seed ^ GOLDEN,
            file_len: 0,
            blocks: Vec::new(),
            live_disk_bytes: 0,
            stats: SpillStats::default(),
            cache: BlockCache::new(cfg.cache_bytes),
            pending_prefetch: Vec::new(),
            scratch: Vec::new(),
            frame_buf: Vec::new(),
            read_plan: Vec::new(),
            spare: Vec::new(),
        })
    }

    /// Create-or-truncate the block file and return the handle the tier
    /// keeps. The only place the file is opened: per-operation opens were
    /// most of a cold read's cost.
    fn open_truncated(path: &Path) -> std::io::Result<File> {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
    }

    fn next_coin(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(GOLDEN);
        mix(self.rng)
    }

    /// The latency profile this tier charges.
    #[inline]
    pub fn profile(&self) -> &StorageProfile {
        &self.profile
    }

    /// The replay-identical operation counters.
    #[inline]
    pub fn stats(&self) -> &SpillStats {
        &self.stats
    }

    /// Metadata of block `id`, if it exists.
    #[inline]
    pub fn block(&self, id: u32) -> Option<&BlockMeta> {
        self.blocks.get(id as usize)
    }

    /// Number of block slots ever allocated (dead ones included).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of live block frames on disk (the memory the tier moved out
    /// of RAM, reported — not charged — by the memory model).
    pub fn disk_bytes(&self) -> u64 {
        self.live_disk_bytes
    }

    /// RAM bytes of the metadata table under the memory model.
    pub fn meta_bytes(&self) -> u64 {
        self.blocks.len() as u64 * layout::BLOCK_META_BYTES
    }

    /// Append `body` as a checksummed block holding `tuples` tuples, with
    /// write-verify and torn-write retry. Draws exactly one fault coin
    /// regardless of outcome; charges one `write_ns` per attempt.
    ///
    /// # Errors
    /// [`BlockWriteError::Torn`] when every attempt was torn (the caller
    /// keeps the tuples resident), [`BlockWriteError::Io`] on filesystem
    /// failure.
    pub fn append_block(
        &mut self,
        body: SectionWriter,
        tuples: u32,
        receipt: &mut CostReceipt,
    ) -> Result<u32, BlockWriteError> {
        let mut frame = seal_block(body);
        let coin = self.next_coin();
        let io = |e: std::io::Error| BlockWriteError::Io(e.to_string());
        let offset = self.file_len;
        let len = frame.len() as u32;
        for attempt in 0..WRITE_ATTEMPTS {
            let torn = self.faults.torn_write_prob > 0.0
                && unit(mix(coin ^ u64::from(attempt))) < self.faults.torn_write_prob;
            // Tear the tail for the duration of the write: the body loses
            // its last byte's integrity, exactly what a power cut
            // mid-append produces.
            let last = frame.len() - 1;
            if torn {
                frame[last] ^= 0xFF;
                self.stats.torn_writes += 1;
            }
            let wrote = self.file.write_all_at(&frame, offset);
            if torn {
                frame[last] ^= 0xFF;
            }
            wrote.map_err(io)?;
            receipt.io_ns += self.profile.write_ns;
            // Write-verify (no coin draws, cost covered by write_ns).
            pread_frame(&self.file, offset, len, &mut self.frame_buf).map_err(io)?;
            if open_block(&self.frame_buf).is_ok() {
                self.file_len = offset + u64::from(len);
                let id = self.blocks.len() as u32;
                self.blocks.push(BlockMeta {
                    offset,
                    len,
                    tuples,
                    live: tuples,
                    reads: 0,
                });
                if tuples > 0 {
                    self.live_disk_bytes += u64::from(len);
                }
                self.stats.blocks_written += 1;
                self.stats.spilled_tuples += u64::from(tuples);
                return Ok(id);
            }
        }
        // Leave no torn residue behind the committed length.
        self.file.set_len(self.file_len).map_err(io)?;
        Err(BlockWriteError::Torn)
    }

    /// Read block `id`, returning the verified frame (open it with
    /// [`open_block`]). Draws exactly three fault coins regardless of
    /// outcome — transient error, retry failure, latency spike — and
    /// charges `read_ns` per attempt plus any spike.
    ///
    /// # Errors
    /// [`BlockReadError::Device`] when the injected error hits twice,
    /// [`BlockReadError::Corrupt`] on checksum/framing failure,
    /// [`BlockReadError::Gone`] for a dead or unknown id.
    pub fn read_block(
        &mut self,
        id: u32,
        receipt: &mut CostReceipt,
    ) -> Result<Vec<u8>, BlockReadError> {
        let meta = self.begin_device_read(id, receipt)?;
        let mut frame = Vec::new();
        read_verified(&self.file, meta.offset, meta.len, &mut frame)?;
        self.note_demand_read(id);
        Ok(frame)
    }

    /// The modeled half of one device read: three fault coins, `read_ns`
    /// per attempt plus any spike — charged whether or not the bytes then
    /// verify — but **no** demand counters (`blocks_read` / block heat);
    /// those belong to whoever serves the demand, which may be the cache.
    /// Returns the extent for the caller to read.
    fn begin_device_read(
        &mut self,
        id: u32,
        receipt: &mut CostReceipt,
    ) -> Result<BlockMeta, BlockReadError> {
        let (c_err, c_retry, c_spike) = (self.next_coin(), self.next_coin(), self.next_coin());
        let meta = match self.blocks.get(id as usize) {
            Some(m) if m.live > 0 => *m,
            _ => return Err(BlockReadError::Gone),
        };
        let outcome = self.injected_read_ns(c_err, c_retry, c_spike);
        let (Ok(io_ns) | Err(io_ns)) = outcome;
        self.stats.read_ns += io_ns;
        receipt.io_ns += io_ns;
        // `Err`: the retry failed too — the device lost this block.
        outcome.map(|_| meta).map_err(|_| BlockReadError::Device)
    }

    /// Resolve one read's injected-fault coins: `Ok(io_ns)` for a read
    /// that reaches the platter (spike and retry charges folded in),
    /// `Err(io_ns)` when the injected error hit twice and the charge
    /// still applies but the read is lost. Counter side effects
    /// (`latency_spikes`, `read_errors`) happen here, in coin order.
    fn injected_read_ns(&mut self, c_err: u64, c_retry: u64, c_spike: u64) -> Result<u64, u64> {
        let mut io_ns = self.profile.read_ns;
        if self.faults.latency_spike_prob > 0.0 && unit(c_spike) < self.faults.latency_spike_prob {
            io_ns += self.faults.spike_ns;
            self.stats.latency_spikes += 1;
        }
        if self.faults.read_error_prob > 0.0 && unit(c_err) < self.faults.read_error_prob {
            self.stats.read_errors += 1;
            if unit(c_retry) < self.faults.read_error_prob {
                self.stats.read_errors += 1;
                return Err(io_ns);
            }
            io_ns += self.profile.read_ns; // the successful retry
        }
        Ok(io_ns)
    }

    /// Account one served demand fetch against block `id`: `blocks_read`
    /// and the promotion heat counter. Charged identically whether the
    /// bytes came from the device or the cache, so promotion decisions
    /// and the PR 8 counters are cache-invariant.
    fn note_demand_read(&mut self, id: u32) {
        self.stats.blocks_read += 1;
        self.blocks[id as usize].reads += 1;
    }

    /// Account `n` tuples served from the cached decode of block `id`:
    /// per tuple one cache hit, one `cache_hit_ns`, one demand read.
    fn charge_served(&mut self, id: u32, n: u64, receipt: &mut CostReceipt) {
        let io_ns = n * self.profile.cache_hit_ns;
        self.stats.cache_hits += n;
        self.stats.read_ns += io_ns;
        receipt.io_ns += io_ns;
        self.stats.blocks_read += n;
        self.blocks[id as usize].reads += n as u32;
    }

    /// True iff block `id` is cache-resident, made servable first
    /// ([`rewarm`](Self::rewarm)) if a restore left it without contents.
    #[inline]
    fn resident(&mut self, id: u32) -> Result<bool, BlockReadError> {
        match self.cache.slot(id) {
            None => Ok(false),
            Some(slot) if slot.warm => Ok(true),
            Some(_) => self.rewarm(id).map(|()| true),
        }
    }

    /// Fill the cache slot of block `id`, which a snapshot restored as
    /// metadata without contents, from the rebuilt block file. Like the
    /// restore itself this draws no coins and charges nothing — the
    /// uninterrupted twin already has the bytes in RAM. Out of line: with
    /// this read inlined a warm hit measured 8.3 ns against 6.5 ns.
    #[cold]
    fn rewarm(&mut self, id: u32) -> Result<(), BlockReadError> {
        let slot = self.cache.slots[id as usize].as_mut();
        let slot = slot.expect("the caller found the slot");
        let meta = &self.blocks[id as usize];
        read_entries(&self.file, meta, &mut self.frame_buf, &mut slot.entries)?;
        slot.warm = true;
        Ok(())
    }

    /// Keep an emptied decode vector for the next miss.
    fn recycle(&mut self, mut entries: Vec<SpillEntry>) {
        entries.clear();
        self.spare.push(entries);
    }

    /// Serve the decoded tuple records of block `id` for one demand fetch
    /// (a promotion).
    ///
    /// * **Cache hit** — no coins, `cache_hit_ns` charged (zero under the
    ///   identity profile), recency touched. `blocks_read` and block heat
    ///   still accrue, so runs at every cache budget agree on them.
    /// * **Cache miss** — one device read, drawing the three coins and
    ///   charging what [`read_block`](Self::read_block) would, decoded into
    ///   a spare vector and admitted into the cache, evicting exactly what
    ///   it needs to fit. A block larger than the whole budget (at zero
    ///   bytes, every block) is served from that read and not kept.
    ///
    /// # Errors
    /// As [`read_block`](Self::read_block); additionally a verified frame
    /// whose body does not decode returns [`BlockReadError::Corrupt`].
    pub fn fetch_entries(
        &mut self,
        id: u32,
        receipt: &mut CostReceipt,
    ) -> Result<&[SpillEntry], BlockReadError> {
        if !matches!(self.blocks.get(id as usize), Some(m) if m.live > 0) {
            return Err(BlockReadError::Gone);
        }
        if self.resident(id)? {
            self.charge_served(id, 1, receipt);
            return Ok(self.cache.touch_get(id).expect("residency checked above"));
        }
        self.stats.cache_misses += 1;
        let meta = self.begin_device_read(id, receipt)?;
        let mut entries = self.spare.pop().unwrap_or_default();
        if let Err(e) = read_entries(&self.file, &meta, &mut self.frame_buf, &mut entries) {
            self.recycle(entries);
            return Err(e);
        }
        self.note_demand_read(id);
        let (len, stats, spare) = (u64::from(meta.len), &mut self.stats, &mut self.spare);
        match self.cache.admit(id, entries, len, stats, spare) {
            Ok(()) => Ok(&self.cache.slot(id).expect("just admitted").entries),
            Err(entries) => {
                let served = std::mem::replace(&mut self.scratch, entries);
                self.recycle(served);
                Ok(&self.scratch)
            }
        }
    }

    /// The read path of one materialization batch: fetch each of
    /// the distinct live blocks `ids` (first-occurrence order) **once**
    /// and hand its records to `serve`, which returns how many tuples it
    /// took from them (a `dyn` callback: one call per block, and the walk
    /// is compiled once rather than once per index type of the store
    /// that calls it).
    ///
    /// A resident block is served where it stands (recency touched once).
    /// The cold ones are planned together: fault coins pre-drawn in `ids`
    /// order before any read runs, the reads fanned out as **one executor
    /// dispatch**, and the results merged in the same order — charge,
    /// serve, *then* admit, so no admission of this batch can displace a
    /// block before its tuples are taken. Counters, charges and the coin
    /// stream are therefore identical for any executor. A block larger
    /// than the whole budget — at zero bytes, every block — is served from
    /// its one read and not kept.
    ///
    /// Per cold block: one `cache_misses`, three coins, `read_ns` per
    /// attempt plus any spike. Per tuple served, cold block or warm: one
    /// `cache_hits`, `cache_hit_ns`, `blocks_read` and block heat.
    ///
    /// Returns the blocks whose read failed (injected device loss,
    /// corruption, or I/O), for the caller to purge; those drew their
    /// coins and charged their latency exactly like a sequential failed
    /// read. Allocates nothing when every block is resident or every
    /// miss finds a spare vector.
    pub fn fetch_batch(
        &mut self,
        ids: &[u32],
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
        serve: &mut dyn FnMut(u32, &[SpillEntry]) -> u64,
    ) -> Vec<(u32, BlockReadError)> {
        let mut failures = Vec::new();
        let mut plan = std::mem::take(&mut self.read_plan);
        for &id in ids {
            match self.resident(id) {
                Ok(true) => {
                    let entries = self.cache.touch_get(id).expect("residency checked above");
                    let n = serve(id, entries);
                    self.charge_served(id, n, receipt);
                    continue;
                }
                Ok(false) => {}
                Err(e) => {
                    failures.push((id, e));
                    continue;
                }
            }
            // One (err, retry, spike) triple per cold block, in order —
            // the same stream a sequence of device reads would draw.
            let (c_err, c_retry, c_spike) = (self.next_coin(), self.next_coin(), self.next_coin());
            let meta = match self.blocks.get(id as usize) {
                Some(m) if m.live > 0 => *m,
                _ => {
                    failures.push((id, BlockReadError::Gone));
                    continue;
                }
            };
            self.stats.cache_misses += 1;
            plan.push(PlannedRead {
                id,
                meta,
                outcome: self.injected_read_ns(c_err, c_retry, c_spike),
                entries: self.spare.pop().unwrap_or_default(),
                failed: None,
            });
        }
        self.read_planned(&mut plan, exec);
        for mut p in plan.drain(..) {
            let (Ok(io_ns) | Err(io_ns)) = p.outcome;
            self.stats.read_ns += io_ns;
            receipt.io_ns += io_ns;
            if p.outcome.is_err() {
                p.failed = Some(BlockReadError::Device);
            }
            if let Some(e) = p.failed {
                failures.push((p.id, e));
                self.recycle(p.entries);
                continue;
            }
            let n = serve(p.id, &p.entries);
            self.charge_served(p.id, n, receipt);
            let len = u64::from(p.meta.len);
            if let Err(entries) =
                self.cache
                    .admit(p.id, p.entries, len, &mut self.stats, &mut self.spare)
            {
                self.recycle(entries);
            }
        }
        self.read_plan = plan;
        failures
    }

    /// Record `n` batch stub hits that shared another hit's block read.
    pub fn note_coalesced(&mut self, n: u64) {
        self.stats.coalesced_reads += n;
    }

    /// Read what the injected faults let through of `plan`: one block
    /// inline through the tier's own frame buffer; several fanned out as
    /// one [`BLOCK_IO_NS`] dispatch, each task on the shared handle with a
    /// buffer of its own.
    fn read_planned(&mut self, plan: &mut [PlannedRead], exec: &dyn ShardExecutor) {
        let file: &File = &self.file;
        let read_into = |p: &mut PlannedRead, buf: &mut Vec<u8>| {
            if p.outcome.is_ok() {
                p.failed = read_entries(file, &p.meta, buf, &mut p.entries).err();
            }
        };
        match plan {
            [] => {}
            [only] => read_into(only, &mut self.frame_buf),
            many => for_each_slot(exec, BLOCK_IO_NS, many, |_, p| {
                read_into(p, &mut Vec::new());
            }),
        }
    }

    /// Queue an expiry-order readahead plan (distinct live block ids,
    /// oldest first), replacing any previous plan. The plan is drained by
    /// the next [`run_readahead`](Self::run_readahead).
    pub fn set_prefetch_plan(&mut self, ids: Vec<u32>) {
        self.pending_prefetch = ids;
    }

    /// The queued readahead plan (empty when nothing is pending).
    pub fn prefetch_pending(&self) -> &[u32] {
        &self.pending_prefetch
    }

    /// Drain the readahead plan: read its still-live, still-uncached
    /// blocks through `exec` and admit the decodes into the cache in plan
    /// order, counting each and charging one `read_ns` of (virtual) disk
    /// time per admitted block. Speculative reads draw **no fault coins**
    /// — an injected fault on a readahead would be observable only
    /// through the cache, and the cache is not allowed to change
    /// observable state — and one that fails to read or verify charges
    /// and changes nothing. Allocates nothing when nothing is queued.
    pub fn run_readahead(&mut self, receipt: &mut CostReceipt, exec: &dyn ShardExecutor) {
        if self.pending_prefetch.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.pending_prefetch);
        let mut plan = std::mem::take(&mut self.read_plan);
        for id in ids {
            match self.blocks.get(id as usize) {
                Some(&meta) if meta.live > 0 && !self.cached(id) => plan.push(PlannedRead {
                    id,
                    meta,
                    outcome: Ok(self.profile.read_ns),
                    entries: self.spare.pop().unwrap_or_default(),
                    failed: None,
                }),
                _ => {}
            }
        }
        self.read_planned(&mut plan, exec);
        let io_ns = self.profile.read_ns;
        for p in plan.drain(..) {
            // `contains`: a plan that names a block twice admits it once.
            let len = u64::from(p.meta.len);
            let kept = if p.failed.is_some() || self.cache.contains(p.id) {
                Err(p.entries)
            } else {
                self.cache
                    .admit(p.id, p.entries, len, &mut self.stats, &mut self.spare)
            };
            match kept {
                Ok(()) => {
                    self.stats.prefetched_blocks += 1;
                    self.stats.read_ns += io_ns;
                    receipt.io_ns += io_ns;
                }
                Err(entries) => self.recycle(entries),
            }
        }
        self.read_plan = plan;
    }

    /// Bytes the decoded-block cache currently holds (its `MemoryReport`
    /// column; budgeted separately from the engine's window budget).
    pub fn cache_used_bytes(&self) -> u64 {
        self.cache.used
    }

    /// True iff block `id` is cache-resident.
    pub fn cached(&self, id: u32) -> bool {
        self.cache.contains(id)
    }

    /// Expiry-order readahead depth (blocks per grid point): the
    /// profile's, or none when the cache budget is zero — a block read
    /// ahead into a cache that keeps nothing would be read for nothing.
    pub fn readahead_blocks(&self) -> u32 {
        if self.cache.budget == 0 {
            0
        } else {
            self.profile.readahead_blocks
        }
    }

    /// Note that one live stub of `id` expired or was evicted.
    pub fn note_dropped(&mut self, id: u32) {
        if let Some(m) = self.blocks.get_mut(id as usize) {
            if m.live == 1 {
                self.live_disk_bytes -= u64::from(m.len);
            }
            m.live = m.live.saturating_sub(1);
            if m.live == 0 {
                // The block died by expiry: invalidate, don't count an
                // eviction — nothing was displaced for budget.
                self.cache.remove(id);
            }
        }
    }

    /// Mark block `id` dead (promoted away or lost), accounting `lost`
    /// tuples against the stats when it was lost rather than promoted.
    pub fn mark_dead(&mut self, id: u32, lost: bool) {
        if let Some(m) = self.blocks.get_mut(id as usize) {
            if m.live > 0 {
                self.live_disk_bytes -= u64::from(m.len);
                if lost {
                    self.stats.lost_blocks += 1;
                } else {
                    self.stats.promoted_blocks += 1;
                }
            }
            m.live = 0;
        }
        self.cache.remove(id);
    }

    /// Note `n` tuples were promoted back to RAM.
    pub fn note_promoted(&mut self, n: u64) {
        self.stats.promoted_tuples += n;
    }

    /// The hottest live block — most materialization reads, at least
    /// `min_reads` — as the promotion candidate. Ties break toward the
    /// oldest block id, deterministically.
    pub fn hottest_block(&self, min_reads: u32) -> Option<u32> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, m)| m.live > 0 && m.reads >= min_reads)
            .max_by(|(ia, a), (ib, b)| a.reads.cmp(&b.reads).then(ib.cmp(ia)))
            .map(|(i, _)| i as u32)
    }

    /// Serialize tier state *and live block contents* into a snapshot
    /// section, so a restore can rebuild the block file byte-for-byte at
    /// the checkpointed step (crash-at-k identity). Dead blocks keep a
    /// metadata placeholder (ids are stable) but drop their bytes. Draws
    /// no fault coins.
    pub fn save(&self, w: &mut SectionWriter) {
        w.put_str("TIER");
        w.put_u64(self.rng);
        for v in [
            self.stats.spilled_tuples,
            self.stats.promoted_tuples,
            self.stats.blocks_written,
            self.stats.blocks_read,
            self.stats.torn_writes,
            self.stats.read_errors,
            self.stats.latency_spikes,
            self.stats.lost_blocks,
            self.stats.promoted_blocks,
            self.stats.read_ns,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.stats.coalesced_reads,
            self.stats.prefetched_blocks,
            self.stats.cache_evictions,
        ] {
            w.put_u64(v);
        }
        w.put_usize(self.blocks.len());
        let mut frame = Vec::new();
        for meta in &self.blocks {
            w.put_u32(meta.tuples);
            w.put_u32(meta.live);
            w.put_u32(meta.reads);
            if meta.live > 0 {
                // Verbatim byte copy; verification happens on future
                // reads. An unreadable frame is saved empty.
                if pread_frame(&self.file, meta.offset, meta.len, &mut frame).is_err() {
                    frame.clear();
                }
                w.put_bytes(&frame);
            }
        }
        // Readahead plan queued but not yet drained at the checkpoint.
        w.put_usize(self.pending_prefetch.len());
        for &id in &self.pending_prefetch {
            w.put_u32(id);
        }
        // Cache **metadata** only — which blocks are resident, their
        // recency, and the byte accounting. The decoded contents are
        // deliberately not saved: a resume rewarms each slot lazily from
        // the rebuilt block file, with no coins and no counters, so the
        // observable run is byte-identical while snapshots stay small.
        w.put_u64(self.cache.seq);
        let resident = self.cache.resident_meta();
        w.put_usize(resident.len());
        for (id, bytes, touch) in resident {
            w.put_u32(id);
            w.put_u64(touch);
            w.put_u64(bytes);
        }
    }

    /// Restore tier state from a [`save`](Self::save)d section: truncates
    /// the block file and rewrites every live frame verbatim (offsets are
    /// recomputed densely). Draws no fault coins and charges no cost —
    /// restore is not a modeled workload.
    ///
    /// The section is parsed and checked whole before the file or the
    /// tier is touched: every count is bounded by the bytes left to hold
    /// it, and a cached id must name a live block, once, at its frame
    /// length, within this tier's cache budget — the exact-fit accounting
    /// of the cache rests on `used` being the sum of what is resident.
    ///
    /// # Errors
    /// Decode failures, [`SnapshotError::Malformed`] naming the field
    /// that failed a check, or the block file being unwritable.
    pub fn restore_from(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        crate::snapshot_io::expect_tag(r, "TIER")?;
        let rng = r.get_u64()?;
        let mut vals = [0u64; 15];
        for v in &mut vals {
            *v = r.get_u64()?;
        }
        let stats = SpillStats {
            spilled_tuples: vals[0],
            promoted_tuples: vals[1],
            blocks_written: vals[2],
            blocks_read: vals[3],
            torn_writes: vals[4],
            read_errors: vals[5],
            latency_spikes: vals[6],
            lost_blocks: vals[7],
            promoted_blocks: vals[8],
            read_ns: vals[9],
            cache_hits: vals[10],
            cache_misses: vals[11],
            coalesced_reads: vals[12],
            prefetched_blocks: vals[13],
            cache_evictions: vals[14],
        };
        let n = r.get_count(12, "TIER block count")?;
        let mut blocks = Vec::with_capacity(n);
        let mut frames: Vec<&[u8]> = Vec::new();
        let mut offset = 0u64;
        for _ in 0..n {
            let tuples = r.get_u32()?;
            let live = r.get_u32()?;
            let reads = r.get_u32()?;
            let mut meta = BlockMeta {
                offset: 0,
                len: 0,
                tuples,
                live,
                reads,
            };
            if live > 0 {
                let frame = r.get_bytes()?;
                meta.offset = offset;
                meta.len = u32::try_from(frame.len()).map_err(|_| {
                    SnapshotError::Malformed("TIER frame length exceeds u32".into())
                })?;
                offset += u64::from(meta.len);
                frames.push(frame);
            }
            blocks.push(meta);
        }
        let n_pending = r.get_count(4, "TIER readahead plan length")?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending.push(r.get_u32()?);
        }
        let mut cache = BlockCache::new(self.cache.budget);
        cache.seq = r.get_u64()?;
        let n_cached = r.get_count(20, "TIER cached block count")?;
        for _ in 0..n_cached {
            let id = r.get_u32()?;
            let touch = r.get_u64()?;
            let bytes = r.get_u64()?;
            let bad = |what: &str| {
                Err(SnapshotError::Malformed(format!(
                    "TIER cached block id {id} {what}"
                )))
            };
            match blocks.get(id as usize) {
                None => return bad("is not in the block table"),
                Some(m) if m.live == 0 => return bad("names a dead block"),
                Some(m) if u64::from(m.len) != bytes => {
                    return bad("carries bytes unequal to its frame length")
                }
                Some(_) if cache.contains(id) => return bad("is listed twice"),
                Some(_) if cache.used + bytes > cache.budget => {
                    return bad("overfills the cache budget")
                }
                Some(_) => {}
            }
            // Metadata-only slot: contents rewarm lazily on first touch.
            cache.place(
                id,
                CacheSlot {
                    entries: Vec::new(),
                    bytes,
                    touch,
                    warm: false,
                },
            );
        }
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let file = Self::open_truncated(&self.path).map_err(io)?;
        let live = blocks.iter().filter(|m| m.live > 0);
        for (meta, frame) in live.zip(frames) {
            file.write_all_at(frame, meta.offset).map_err(io)?;
        }
        file.sync_data().ok();
        self.file = Arc::new(file);
        self.rng = rng;
        self.stats = stats;
        self.blocks = blocks;
        // Every live frame was rewritten densely, so the live bytes are
        // the file.
        self.live_disk_bytes = offset;
        self.file_len = offset;
        self.pending_prefetch = pending;
        self.cache = cache;
        Ok(())
    }
}

#[cfg(test)]
/// Scratch directories for the crate's tests, each removed with
/// everything in it when its guard drops, so a test run leaves nothing in
/// the temp dir.
pub(crate) mod scratch {
    use std::ops::{Deref, DerefMut};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `amri-<tag>-<pid>-<n>` in the temp dir, removed on drop.
    pub(crate) struct Dir(PathBuf);

    impl Dir {
        pub(crate) fn new(tag: &str) -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let name = format!("amri-{tag}-{}-{n}", std::process::id());
            Dir(std::env::temp_dir().join(name))
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A value that keeps its files in a scratch directory: it derefs to
    /// the value, and drops the value before the directory.
    pub(crate) struct In<T> {
        value: T,
        _dir: Dir,
    }

    impl<T> In<T> {
        pub(crate) fn new(value: T, dir: Dir) -> Self {
            In { value, _dir: dir }
        }
    }

    impl<T> Deref for In<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for In<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scratch::{Dir, In};
    use super::*;

    fn tier(tag: &str, faults: IoFaultConfig, profile: StorageProfile) -> In<SpillTier> {
        tier_cached(tag, faults, profile, 0)
    }

    fn tier_cached(
        tag: &str,
        faults: IoFaultConfig,
        profile: StorageProfile,
        cache_bytes: u64,
    ) -> In<SpillTier> {
        let dir = Dir::new(&format!("tier-{tag}"));
        let tier = SpillTier::create(&SpillConfig {
            dir: dir.path().to_path_buf(),
            file_name: "s0.blocks".into(),
            profile,
            faults,
            seed: 7,
            cache_bytes,
        })
        .unwrap();
        In::new(tier, dir)
    }

    fn body(vals: &[u64]) -> SectionWriter {
        let mut w = SectionWriter::new();
        w.put_usize(vals.len());
        for &v in vals {
            w.put_u64(v);
        }
        w
    }

    fn read_vals(frame: &[u8]) -> Vec<u64> {
        let mut r = open_block(frame).unwrap();
        let n = r.get_usize().unwrap();
        (0..n).map(|_| r.get_u64().unwrap()).collect()
    }

    #[test]
    fn block_round_trips_and_counts_heat() {
        let mut t = tier("rt", IoFaultConfig::default(), StorageProfile::default());
        let mut rc = CostReceipt::new();
        let id = t.append_block(body(&[10, 20, 30]), 3, &mut rc).unwrap();
        assert_eq!(rc.io_ns, 0, "zero profile charges nothing");
        let frame = t.read_block(id, &mut rc).unwrap();
        assert_eq!(read_vals(&frame), vec![10, 20, 30]);
        assert_eq!(t.block(id).unwrap().reads, 1);
        assert_eq!(t.stats().blocks_written, 1);
        assert_eq!(t.stats().blocks_read, 1);
    }

    #[test]
    fn io_cost_comes_from_the_profile() {
        let profile = StorageProfile {
            read_ns: 1000,
            write_ns: 2000,
            ..StorageProfile::default()
        };
        let mut t = tier("cost", IoFaultConfig::default(), profile);
        let mut rc = CostReceipt::new();
        let id = t.append_block(body(&[1]), 1, &mut rc).unwrap();
        assert_eq!(rc.io_ns, 2000);
        t.read_block(id, &mut rc).unwrap();
        assert_eq!(rc.io_ns, 3000);
        assert_eq!(t.stats().read_ns, 1000);
    }

    #[test]
    fn certain_torn_writes_fail_cleanly_after_retries() {
        let faults = IoFaultConfig {
            torn_write_prob: 1.0,
            ..IoFaultConfig::default()
        };
        let mut t = tier("torn", faults, StorageProfile::default());
        let mut rc = CostReceipt::new();
        let err = t.append_block(body(&[1, 2]), 2, &mut rc).unwrap_err();
        assert_eq!(err, BlockWriteError::Torn);
        assert_eq!(t.stats().torn_writes as u32, WRITE_ATTEMPTS);
        assert_eq!(t.stats().blocks_written, 0);
        assert_eq!(t.n_blocks(), 0);
        // The file holds no torn residue; a later write starts clean.
        assert_eq!(std::fs::metadata(&t.path).unwrap().len(), 0);
        t.faults = IoFaultConfig::default();
        let id = t.append_block(body(&[1, 2]), 2, &mut rc).unwrap();
        assert_eq!(read_vals(&t.read_block(id, &mut rc).unwrap()), vec![1, 2]);
    }

    #[test]
    fn certain_read_errors_lose_the_block() {
        let faults = IoFaultConfig {
            read_error_prob: 1.0,
            ..IoFaultConfig::default()
        };
        let mut t = tier("readerr", faults, StorageProfile::default());
        let mut rc = CostReceipt::new();
        let id = t.append_block(body(&[5]), 1, &mut rc).unwrap();
        let err = t.read_block(id, &mut rc).unwrap_err();
        assert_eq!(err, BlockReadError::Device);
        assert!(t.stats().read_errors >= 2);
        t.mark_dead(id, true);
        assert_eq!(t.stats().lost_blocks, 1);
        assert_eq!(t.read_block(id, &mut rc).unwrap_err(), BlockReadError::Gone);
    }

    #[test]
    fn latency_spikes_charge_extra_io_time() {
        let faults = IoFaultConfig {
            latency_spike_prob: 1.0,
            spike_ns: 5000,
            ..IoFaultConfig::default()
        };
        let profile = StorageProfile {
            read_ns: 100,
            write_ns: 0,
            ..StorageProfile::default()
        };
        let mut t = tier("spike", faults, profile);
        let mut rc = CostReceipt::new();
        let id = t.append_block(body(&[9]), 1, &mut rc).unwrap();
        t.read_block(id, &mut rc).unwrap();
        assert_eq!(rc.io_ns, 5100);
        assert_eq!(t.stats().latency_spikes, 1);
    }

    #[test]
    fn real_corruption_is_detected_by_checksum() {
        let mut t = tier(
            "corrupt",
            IoFaultConfig::default(),
            StorageProfile::default(),
        );
        let mut rc = CostReceipt::new();
        let id = t.append_block(body(&[1, 2, 3]), 3, &mut rc).unwrap();
        // Flip a byte on disk behind the tier's back.
        let meta = *t.block(id).unwrap();
        let raw = std::fs::read(&t.path).unwrap();
        let mut raw = raw;
        let victim = meta.offset as usize + meta.len as usize - 1;
        raw[victim] ^= 0x01;
        std::fs::write(&t.path, &raw).unwrap();
        match t.read_block(id, &mut rc).unwrap_err() {
            BlockReadError::Corrupt(_) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let faults = IoFaultConfig {
            torn_write_prob: 0.3,
            read_error_prob: 0.3,
            latency_spike_prob: 0.3,
            spike_ns: 10,
        };
        let run = |tag: &str| {
            let mut t = tier(tag, faults, StorageProfile::default());
            let mut rc = CostReceipt::new();
            let mut trace = Vec::new();
            for i in 0..20u64 {
                match t.append_block(body(&[i]), 1, &mut rc) {
                    Ok(id) => {
                        let r = t.read_block(id, &mut rc).is_ok();
                        trace.push((true, r));
                    }
                    Err(_) => trace.push((false, false)),
                }
            }
            (trace, *t.stats())
        };
        let (ta, sa) = run("det-a");
        let (tb, sb) = run("det-b");
        assert_eq!(ta, tb, "fault sequence must be a pure function of seed");
        assert_eq!(sa, sb);
    }

    #[test]
    fn save_restore_rebuilds_the_file_and_coin_stream() {
        let faults = IoFaultConfig {
            read_error_prob: 0.4,
            ..IoFaultConfig::default()
        };
        let mut t = tier("snap", faults, StorageProfile::default());
        let mut rc = CostReceipt::new();
        let a = t.append_block(body(&[1, 2]), 2, &mut rc).unwrap();
        let b = t.append_block(body(&[3]), 1, &mut rc).unwrap();
        let _ = t.read_block(a, &mut rc);
        t.mark_dead(a, false); // promoted away: content dropped, id kept
        let mut w = SectionWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();

        // A parallel clone continues live; the restored twin must match it.
        let mut live = t.clone();
        let mut t2 = tier("snap2", faults, StorageProfile::default());
        let mut r = SectionReader::new(&bytes);
        t2.restore_from(&mut r).unwrap();
        assert_eq!(t2.stats(), live.stats());
        assert_eq!(t2.block(b).map(|m| (m.tuples, m.live)), Some((1, 1)));
        assert_eq!(t2.block(a).map(|m| m.live), Some(0));
        // Same future: identical coin stream and readable content.
        let mut rc1 = CostReceipt::new();
        let mut rc2 = CostReceipt::new();
        let r1 = live.read_block(b, &mut rc1).map(|f| read_vals(&f));
        let r2 = t2.read_block(b, &mut rc2).map(|f| read_vals(&f));
        assert_eq!(r1, r2);
        assert_eq!(live.stats(), t2.stats());
    }

    #[test]
    fn hottest_block_ranks_by_reads_with_stable_ties() {
        let mut t = tier("hot", IoFaultConfig::default(), StorageProfile::default());
        let mut rc = CostReceipt::new();
        let a = t.append_block(body(&[1]), 1, &mut rc).unwrap();
        let b = t.append_block(body(&[2]), 1, &mut rc).unwrap();
        assert_eq!(t.hottest_block(0), Some(a), "tie breaks to the oldest id");
        t.read_block(b, &mut rc).unwrap();
        assert_eq!(t.hottest_block(0), Some(b));
        assert_eq!(t.hottest_block(2), None, "below the heat threshold");
        t.mark_dead(b, false);
        assert_eq!(t.hottest_block(0), Some(a), "dead blocks cannot promote");
    }

    #[test]
    fn fault_config_validates_probabilities() {
        assert!(IoFaultConfig::default().validate().is_ok());
        assert!(IoFaultConfig::default().is_noop());
        let bad = IoFaultConfig {
            read_error_prob: 1.5,
            ..IoFaultConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    /// A block body in the spill-entry codec (what `spill_oldest` writes).
    fn entry_body(keys: &[u32]) -> SectionWriter {
        let mut w = SectionWriter::new();
        w.put_usize(keys.len());
        for &k in keys {
            w.put_u32(k);
            w.put_u64(u64::from(k) + 100);
            w.put_time(VirtualTime(u64::from(k)));
            w.put_attrs(&AttrVec::new());
        }
        w
    }

    #[test]
    fn cache_hit_skips_coins_but_keeps_demand_counters() {
        let profile = StorageProfile {
            read_ns: 1000,
            cache_hit_ns: 10,
            ..StorageProfile::default()
        };
        let mut t = tier_cached("hitpath", IoFaultConfig::default(), profile, 1 << 20);
        let mut rc = CostReceipt::new();
        let id = t.append_block(entry_body(&[1, 2, 3]), 3, &mut rc).unwrap();
        let rng_before = t.rng;
        let entries = t.fetch_entries(id, &mut rc).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(t.stats().cache_misses, 1, "cold fetch reads the device");
        assert_ne!(t.rng, rng_before, "the miss drew its three coins");
        let rng_after_miss = t.rng;
        let io_after_miss = rc.io_ns;
        let _ = t.fetch_entries(id, &mut rc).unwrap();
        assert_eq!(t.stats().cache_hits, 1);
        assert_eq!(t.rng, rng_after_miss, "a hit draws no coins");
        assert_eq!(rc.io_ns, io_after_miss + 10, "a hit charges cache_hit_ns");
        // Demand counters are cache-invariant: two fetches, two reads, heat 2.
        assert_eq!(t.stats().blocks_read, 2);
        assert_eq!(t.block(id).unwrap().reads, 2);
    }

    /// A zero-byte cache keeps nothing, so every `fetch_entries` is a
    /// device read: the same coins, charges and demand counters as
    /// `read_block`, with a `cache_misses` apiece on top.
    #[test]
    fn cacheless_fetch_matches_read_block_exactly() {
        let faults = IoFaultConfig {
            read_error_prob: 0.3,
            latency_spike_prob: 0.3,
            spike_ns: 11,
            ..IoFaultConfig::default()
        };
        let profile = StorageProfile {
            read_ns: 100,
            cache_hit_ns: 7,
            ..StorageProfile::default()
        };
        let run_reads = |mut t: In<SpillTier>, via_fetch: bool| {
            let mut rc = CostReceipt::new();
            let id = t.append_block(entry_body(&[7]), 1, &mut rc).unwrap();
            let mut trace = Vec::new();
            for _ in 0..16 {
                let ok = if via_fetch {
                    t.fetch_entries(id, &mut rc).is_ok()
                } else {
                    t.read_block(id, &mut rc).is_ok()
                };
                trace.push(ok);
            }
            (trace, *t.stats(), rc, t.rng)
        };
        let (ta, mut sa, ra, ga) = run_reads(tier("fvr-a", faults, profile), true);
        let (tb, sb, rb, gb) = run_reads(tier("fvr-b", faults, profile), false);
        assert_eq!(
            ta, tb,
            "a zero-byte fetch must replay read_block's coin stream"
        );
        assert_eq!(ga, gb);
        assert_eq!(sa.cache_misses, 16, "every fetch is a device read");
        sa.cache_misses = 0;
        assert_eq!(sa, sb);
        assert_eq!(ra, rb);
    }

    /// Frame bytes of a one-record [`entry_body`] block (every such block
    /// is the same length).
    fn one_record_frame_bytes() -> u64 {
        let mut probe = tier(
            "frame-probe",
            IoFaultConfig::default(),
            StorageProfile::default(),
        );
        let id = probe
            .append_block(entry_body(&[0]), 1, &mut CostReceipt::new())
            .unwrap();
        u64::from(probe.block(id).unwrap().len)
    }

    /// A block id and the records one fetch of it held.
    type Served = (u32, Vec<SpillEntry>);

    /// Batch-fetch `ids` inline, listing what each fetched block held and
    /// telling the tier `taken(records)` tuples were served from it.
    fn fetch_batch_collect(
        t: &mut SpillTier,
        ids: &[u32],
        rc: &mut CostReceipt,
        taken: fn(&[SpillEntry]) -> u64,
    ) -> (Vec<Served>, Vec<(u32, BlockReadError)>) {
        let mut served = Vec::new();
        let exec = &crate::parallel::SequentialExecutor;
        let failures = t.fetch_batch(ids, rc, exec, &mut |id, entries| {
            served.push((id, entries.to_vec()));
            taken(entries)
        });
        (served, failures)
    }

    /// Every record of the block is a key of the batch.
    fn all_records(entries: &[SpillEntry]) -> u64 {
        entries.len() as u64
    }

    #[test]
    fn a_three_frame_budget_holds_three_blocks_and_evicts_exactly_the_lru() {
        let budget = 3 * one_record_frame_bytes();
        let mut t = tier_cached(
            "exact-fit",
            IoFaultConfig::default(),
            StorageProfile::default(),
            budget,
        );
        let mut rc = CostReceipt::new();
        let ids: Vec<u32> = (0..5u32)
            .map(|k| t.append_block(entry_body(&[k]), 1, &mut rc).unwrap())
            .collect();
        let (a, b, c, d, e) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut fetch = |t: &mut SpillTier, id: u32| {
            t.fetch_entries(id, &mut rc).unwrap();
            assert!(t.cache_used_bytes() <= budget, "never over budget");
        };
        for id in [a, b, c] {
            fetch(&mut t, id);
        }
        assert!(t.cached(a) && t.cached(b) && t.cached(c));
        assert_eq!(t.cache_used_bytes(), budget, "the budget is what it holds");
        assert_eq!(
            t.stats().cache_evictions,
            0,
            "three frames fit three frames"
        );
        fetch(&mut t, a); // b is now the least recently touched
        fetch(&mut t, d);
        assert_eq!(t.stats().cache_evictions, 1, "one in, exactly one out");
        assert!(!t.cached(b), "the LRU block is the victim");
        assert!(t.cached(a) && t.cached(c) && t.cached(d));
        // A block that died leaves room: the next miss evicts nothing.
        t.mark_dead(c, false);
        fetch(&mut t, e);
        assert_eq!(t.stats().cache_evictions, 1);
        assert!(t.cached(a) && t.cached(d) && t.cached(e));
        assert_eq!(t.stats().cache_misses, 5);
        assert_eq!(t.stats().cache_hits, 1);
    }

    #[test]
    fn oversized_block_is_served_transiently_not_cached() {
        let mut t = tier_cached(
            "big",
            IoFaultConfig::default(),
            StorageProfile::default(),
            8,
        );
        let mut rc = CostReceipt::new();
        let id = t.append_block(entry_body(&[1, 2]), 2, &mut rc).unwrap();
        let entries = t.fetch_entries(id, &mut rc).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(!t.cached(id));
        assert_eq!(t.cache_used_bytes(), 0);
        assert_eq!(t.stats().cache_misses, 1);
    }

    #[test]
    fn an_over_budget_block_costs_a_batch_one_read_and_three_coins() {
        let profile = StorageProfile {
            read_ns: 1000,
            cache_hit_ns: 10,
            ..StorageProfile::default()
        };
        let mut t = tier_cached("big-batch", IoFaultConfig::default(), profile, 8);
        let mut rc = CostReceipt::new();
        let id = t
            .append_block(entry_body(&[1, 2, 3, 4, 5]), 5, &mut rc)
            .unwrap();
        let mut three_coins_on = t.clone();
        for _ in 0..3 {
            three_coins_on.next_coin();
        }
        let before = rc.io_ns;
        // All five records taken in one batch. (The parent read the block
        // in its preload, failed to admit it, dropped the decode, and then
        // read the device again for every key: 6 reads, 18 coins.)
        let (served, failures) = fetch_batch_collect(&mut t, &[id], &mut rc, all_records);
        assert!(failures.is_empty());
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].1.len(), 5);
        assert_eq!(t.rng, three_coins_on.rng, "one read's three coins");
        assert_eq!(rc.io_ns, before + 1000 + 5 * 10, "one read_ns, five hits");
        assert_eq!(t.stats().cache_misses, 1);
        assert_eq!(t.stats().cache_hits, 5);
        assert_eq!(t.stats().blocks_read, 5);
        assert_eq!(t.block(id).unwrap().reads, 5);
        assert!(!t.cached(id));
        assert_eq!(t.cache_used_bytes(), 0);
    }

    #[test]
    fn a_batch_over_more_blocks_than_fit_reads_each_once_and_replays_per_seed() {
        let faults = IoFaultConfig {
            read_error_prob: 0.4,
            latency_spike_prob: 0.2,
            spike_ns: 9,
            ..IoFaultConfig::default()
        };
        let budget = 2 * one_record_frame_bytes();
        let run = |tag: &str, faults: IoFaultConfig| {
            let mut t = tier_cached(tag, faults, StorageProfile::default(), budget);
            let mut rc = CostReceipt::new();
            let ids: Vec<u32> = (0..6u32)
                .map(|i| t.append_block(entry_body(&[i]), 1, &mut rc).unwrap())
                .collect();
            let (served, failures) = fetch_batch_collect(&mut t, &ids, &mut rc, all_records);
            assert!(t.cache_used_bytes() <= budget);
            (served, failures, *t.stats(), t.rng, rc, ids)
        };
        let (served, failures, stats, _, _, ids) = run("over-a", IoFaultConfig::default());
        assert!(failures.is_empty());
        // Six cold blocks through a two-frame cache: six device reads,
        // each serving its record before the next admission displaces it.
        // (The parent's water marks kept one block of this budget: its
        // preload admitted all six, each evicting the one before, and its
        // per-key pass re-read every one of them — twelve device reads,
        // eleven evictions, no hit.)
        assert_eq!(stats.cache_misses, 6);
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.cache_evictions, 4);
        let keys: Vec<u32> = served.iter().map(|(_, e)| e[0].key.0).collect();
        assert_eq!(keys, ids, "every block served, in plan order");
        // Under injected faults the outcome is a pure function of the seed.
        let a = run("over-b", faults);
        let b = run("over-c", faults);
        assert_eq!(a, b);
        assert_eq!(a.0.len() + a.1.len(), 6, "served or failed, never both");
        assert_eq!(a.2.cache_misses, 6, "one device read per cold block");
    }

    #[test]
    fn a_zero_byte_batch_reads_each_block_once_and_serves_what_a_large_cache_does() {
        let profile = StorageProfile {
            read_ns: 1000,
            cache_hit_ns: 10,
            readahead_blocks: 2,
            ..StorageProfile::default()
        };
        let run = |tag: &str, cache_bytes: u64| {
            let mut t = tier_cached(tag, IoFaultConfig::default(), profile, cache_bytes);
            let mut rc = CostReceipt::new();
            let ids: Vec<u32> = (0..4u32)
                .map(|b| t.append_block(entry_body(&[3 * b, 3 * b + 1, 3 * b + 2]), 3, &mut rc))
                .collect::<Result<_, _>>()
                .unwrap();
            let before = t.rng;
            let (served, failures) = fetch_batch_collect(&mut t, &ids, &mut rc, all_records);
            assert!(failures.is_empty());
            let mut once = t.clone();
            once.rng = before;
            for _ in 0..3 * ids.len() {
                once.next_coin();
            }
            assert_eq!(t.rng, once.rng, "three coins per block, once each");
            let heat: Vec<u32> = ids.iter().map(|&b| t.block(b).unwrap().reads).collect();
            (served, t, heat, rc)
        };
        let (served, zero, heat, rc) = run("zero-batch", 0);
        let (big_served, big, big_heat, big_rc) = run("big-batch-twin", 1 << 20);
        assert_eq!(served, big_served, "the same records, in plan order");
        assert_eq!(heat, big_heat);
        assert_eq!(heat, vec![3; 4]);
        assert_eq!(zero.stats().blocks_read, big.stats().blocks_read);
        assert_eq!(zero.stats().cache_misses, 4, "one device read per block");
        assert_eq!(zero.stats().cache_hits, 12, "one hit per record served");
        assert_eq!(rc, big_rc, "4 reads and 12 hits charged either way");
        assert_eq!(zero.cache_used_bytes(), 0, "nothing is kept");
        assert!(big.cached(0) && !zero.cached(0));
        // Nothing read ahead into a cache that would keep none of it.
        assert_eq!((zero.readahead_blocks(), big.readahead_blocks()), (0, 2));
    }

    #[test]
    fn prefetch_charges_latency_draws_no_coins_and_counts() {
        let profile = StorageProfile {
            read_ns: 500,
            readahead_blocks: 2,
            ..StorageProfile::default()
        };
        let mut t = tier_cached("prefetch", IoFaultConfig::default(), profile, 1 << 20);
        let mut rc = CostReceipt::new();
        let a = t.append_block(entry_body(&[1]), 1, &mut rc).unwrap();
        let b = t.append_block(entry_body(&[2]), 1, &mut rc).unwrap();
        t.set_prefetch_plan(vec![a, b]);
        assert_eq!(t.prefetch_pending(), &[a, b]);
        let rng = t.rng;
        let before = rc.io_ns;
        t.run_readahead(&mut rc, &crate::parallel::SequentialExecutor);
        assert!(t.prefetch_pending().is_empty(), "the plan is drained");
        assert_eq!(t.rng, rng, "speculative reads draw no coins");
        assert_eq!(rc.io_ns, before + 1000, "one read_ns per prefetched block");
        assert_eq!(t.stats().prefetched_blocks, 2);
        assert!(t.cached(a) && t.cached(b));
        // Demand counters untouched: prefetch is not a demand read.
        assert_eq!(t.stats().blocks_read, 0);
        assert_eq!(t.block(a).unwrap().reads, 0);
    }

    #[test]
    fn save_restore_keeps_cache_metadata_and_rewarms_lazily() {
        let profile = StorageProfile {
            cache_hit_ns: 7,
            ..StorageProfile::default()
        };
        // Spikes (not errors) so coins are consumed but reads succeed and
        // block `a` actually lands in the cache before the snapshot.
        let faults = IoFaultConfig {
            latency_spike_prob: 0.5,
            spike_ns: 13,
            ..IoFaultConfig::default()
        };
        let mut t = tier_cached("csnap", faults, profile, 1 << 20);
        let mut rc = CostReceipt::new();
        let a = t.append_block(entry_body(&[1, 2]), 2, &mut rc).unwrap();
        let b = t.append_block(entry_body(&[3]), 1, &mut rc).unwrap();
        t.fetch_entries(a, &mut rc).unwrap(); // a is now cached
        t.set_prefetch_plan(vec![b]);
        let mut w = SectionWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();

        let mut live = t.clone();
        let mut twin = tier_cached("csnap2", faults, profile, 1 << 20);
        let mut r = SectionReader::new(&bytes);
        twin.restore_from(&mut r).unwrap();
        // Everything but the (test-local) path round-trips: stats, block
        // table, coin stream, prefetch plan, and the cache *metadata* —
        // decoded contents are deliberately absent from both sides of
        // `meta()`, which is exactly the lazily-rewarmed shape.
        assert_eq!(twin.stats(), live.stats());
        assert_eq!(twin.blocks, live.blocks);
        assert_eq!(twin.rng, live.rng);
        assert_eq!(twin.file_len, live.file_len);
        assert_eq!(twin.prefetch_pending(), live.prefetch_pending());
        assert_eq!(
            twin.cache.meta(),
            live.cache.meta(),
            "cache metadata equality (contents rewarm lazily)"
        );
        // Identical future: the restored twin's first touch rewarms from
        // the rebuilt file without coins, so counters and coin streams
        // stay in lockstep with the uninterrupted tier.
        let mut rc1 = CostReceipt::new();
        let mut rc2 = CostReceipt::new();
        let r1 = live.fetch_entries(a, &mut rc1).map(<[SpillEntry]>::to_vec);
        let r2 = twin.fetch_entries(a, &mut rc2).map(<[SpillEntry]>::to_vec);
        assert_eq!(r1, r2);
        assert_eq!(rc1, rc2);
        let r1 = live.fetch_entries(b, &mut rc1).map(<[SpillEntry]>::to_vec);
        let r2 = twin.fetch_entries(b, &mut rc2).map(<[SpillEntry]>::to_vec);
        assert_eq!(r1, r2);
        assert_eq!(live.stats(), twin.stats());
        assert_eq!(live.rng, twin.rng);
    }
    /// The field-by-field decode the stride decoder replaced, kept as its
    /// reference.
    fn decode_by_fields(mut r: SectionReader<'_>) -> Option<Vec<SpillEntry>> {
        let n = r.get_usize().ok()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            entries.push(SpillEntry {
                key: TupleKey(r.get_u32().ok()?),
                id: TupleId(r.get_u64().ok()?),
                ts: r.get_time().ok()?,
                attrs: r.get_attrs().ok()?,
            });
        }
        Some(entries)
    }

    proptest::proptest! {
        /// The stride decoder agrees with the field-by-field reference on
        /// intact bodies and rejects exactly the malformed ones it does.
        #[test]
        fn stride_decode_equals_field_decode(
            records in proptest::collection::vec(
                (
                    0u32..u32::MAX,
                    0u64..u64::MAX,
                    0u64..u64::MAX,
                    proptest::collection::vec(0u64..u64::MAX, 0..MAX_ATTRS + 1),
                ),
                0..40,
            ),
            damage in 0u8..5,
            amount in 0usize..4096,
        ) {
            let mut w = SectionWriter::new();
            w.put_usize(records.len());
            let mut width_at = Vec::new();
            for (key, id, ts, attrs) in &records {
                w.put_u32(*key);
                w.put_u64(*id);
                w.put_time(VirtualTime(*ts));
                width_at.push(w.len());
                w.put_attrs(&AttrVec::from_slice(attrs).unwrap());
            }
            let mut body = w.into_bytes();
            let malformed = match damage {
                // A record (or the count itself) cut short.
                1 => {
                    body.truncate(body.len() - 1 - amount % body.len());
                    true
                }
                // An attribute count above MAX_ATTRS.
                2 if !records.is_empty() => {
                    body[width_at[amount % records.len()]] =
                        (MAX_ATTRS + 1 + amount % 100) as u8;
                    true
                }
                // A record count larger than the body holds.
                3 => {
                    let n = (records.len() + 1 + amount) as u64;
                    body[..8].copy_from_slice(&n.to_le_bytes());
                    true
                }
                // Bytes past the last record are ignored by both.
                4 => {
                    body.extend(std::iter::repeat_n(0xA5, amount % 64));
                    false
                }
                _ => false,
            };
            let mut strided = vec![SpillEntry {
                key: TupleKey(0),
                id: TupleId(0),
                ts: VirtualTime::ZERO,
                attrs: AttrVec::new(),
            }];
            let strided = decode_entries(SectionReader::new(&body), &mut strided).map(|()| strided);
            proptest::prop_assert_eq!(&strided, &decode_by_fields(SectionReader::new(&body)));
            proptest::prop_assert_eq!(strided.is_none(), malformed);
            if let Some(entries) = strided {
                proptest::prop_assert_eq!(entries.len(), records.len());
                for (e, (key, id, ts, attrs)) in entries.iter().zip(&records) {
                    proptest::prop_assert_eq!((e.key.0, e.id.0, e.ts.0), (*key, *id, *ts));
                    proptest::prop_assert_eq!(e.attrs.as_slice(), attrs.as_slice());
                }
            }
        }
    }

    /// The policy [`BlockCache`] must equal: blocks in recency order,
    /// evicted from the front only until a newcomer fits.
    struct RefLru {
        budget: u64,
        order: Vec<(u32, u64)>,
        evictions: u64,
    }

    impl RefLru {
        fn touch(&mut self, id: u32) -> bool {
            let at = self.order.iter().position(|e| e.0 == id);
            at.map(|i| {
                let e = self.order.remove(i);
                self.order.push(e);
            })
            .is_some()
        }

        fn admit(&mut self, id: u32, bytes: u64) {
            if bytes > self.budget {
                return;
            }
            while self.order.iter().map(|e| e.1).sum::<u64>() + bytes > self.budget {
                self.order.remove(0);
                self.evictions += 1;
            }
            self.order.push((id, bytes));
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Fetch(u32),
        Batch(Vec<u32>),
        Dropped(u32),
        Dead(u32),
    }

    fn cache_op() -> impl proptest::strategy::Strategy<Value = CacheOp> {
        use proptest::prelude::*;
        prop_oneof![
            (0u32..8).prop_map(CacheOp::Fetch),
            proptest::collection::vec(0u32..8, 1..8).prop_map(CacheOp::Batch),
            (0u32..8).prop_map(CacheOp::Fetch),
            proptest::collection::vec(0u32..8, 1..8).prop_map(CacheOp::Batch),
            (0u32..8).prop_map(CacheOp::Dropped),
            (0u32..64).prop_map(|b| CacheOp::Dead(b % 8)),
        ]
    }

    proptest::proptest! {
        /// Random fetches, batches, expiries and deaths: the cache's
        /// residents and eviction count equal the reference LRU's after
        /// every operation, it never holds more than its budget, and it
        /// serves exactly the records its cacheless twin reads.
        #[test]
        fn cache_equals_a_reference_lru_and_serves_what_cacheless_reads(
            budget in 1u64..1200,
            ops in proptest::collection::vec(cache_op(), 1..60),
        ) {
            let identity = (IoFaultConfig::default(), StorageProfile::default());
            let mut cached = tier_cached("lru-c", identity.0, identity.1, budget);
            let mut plain = tier("lru-p", identity.0, identity.1);
            let mut rc = CostReceipt::new();
            // Block `b` holds `b + 1` records, so frames differ in length.
            for b in 0..8u32 {
                let keys: Vec<u32> = (0..=b).map(|k| 10 * b + k).collect();
                for t in [&mut cached, &mut plain] {
                    t.append_block(entry_body(&keys), b + 1, &mut rc).unwrap();
                }
            }
            let bytes = |t: &SpillTier, b: u32| u64::from(t.block(b).unwrap().len);
            let live = |t: &SpillTier, b: u32| t.block(b).unwrap().live > 0;
            let mut lru = RefLru { budget, order: Vec::new(), evictions: 0 };
            for op in ops {
                match op {
                    CacheOp::Fetch(b) => {
                        let got = cached.fetch_entries(b, &mut rc).map(<[SpillEntry]>::to_vec);
                        let want = plain.fetch_entries(b, &mut rc).map(<[SpillEntry]>::to_vec);
                        proptest::prop_assert_eq!(got, want);
                        if live(&plain, b) && !lru.touch(b) {
                            lru.admit(b, bytes(&plain, b));
                        }
                    }
                    CacheOp::Batch(mut ids) => {
                        let mut seen = Vec::new();
                        ids.retain(|b| !seen.contains(b) && { seen.push(*b); true });
                        let (mut got, failed) = fetch_batch_collect(&mut cached, &ids, &mut rc, |_| 1);
                        got.sort_by_key(|(b, _)| *b);
                        let mut want = Vec::new();
                        let mut cold = Vec::new();
                        for &b in &ids {
                            match plain.fetch_entries(b, &mut rc) {
                                Ok(entries) => want.push((b, entries.to_vec())),
                                Err(e) => proptest::prop_assert!(failed.contains(&(b, e))),
                            }
                            if live(&plain, b) && !lru.touch(b) {
                                cold.push(b);
                            }
                        }
                        want.sort_by_key(|(b, _)| *b);
                        proptest::prop_assert_eq!(got, want);
                        for b in cold {
                            lru.admit(b, bytes(&plain, b));
                        }
                    }
                    CacheOp::Dropped(b) => {
                        cached.note_dropped(b);
                        plain.note_dropped(b);
                    }
                    CacheOp::Dead(b) => {
                        cached.mark_dead(b, false);
                        plain.mark_dead(b, false);
                    }
                }
                lru.order.retain(|e| live(&plain, e.0));
                for b in 0..8u32 {
                    proptest::prop_assert_eq!(cached.cached(b), lru.order.iter().any(|e| e.0 == b));
                }
                proptest::prop_assert_eq!(cached.stats().cache_evictions, lru.evictions);
                proptest::prop_assert_eq!(
                    cached.cache_used_bytes(),
                    lru.order.iter().map(|e| e.1).sum::<u64>()
                );
                proptest::prop_assert!(cached.cache_used_bytes() <= budget);
                // Cached ≡ cacheless modulo the cache counters.
                let (c, p) = (cached.stats(), plain.stats());
                proptest::prop_assert_eq!(c.blocks_read, p.blocks_read);
                proptest::prop_assert_eq!(&cached.blocks, &plain.blocks);
            }
        }
    }

    /// A hand-built `TIER` section: each count is written as given, so it
    /// can lie about what follows.
    #[derive(Clone)]
    struct Image {
        n_blocks: usize,
        /// `(live, frame)`; a dead block carries no frame.
        blocks: Vec<(u32, Vec<u8>)>,
        n_pending: usize,
        n_cached: usize,
        /// `(id, touch, bytes)`.
        cached: Vec<(u32, u64, u64)>,
    }

    impl Image {
        fn bytes(&self) -> Vec<u8> {
            let mut w = SectionWriter::new();
            w.put_str("TIER");
            for _ in 0..16 {
                w.put_u64(0); // coin state, then the fifteen counters
            }
            w.put_usize(self.n_blocks);
            for (live, frame) in &self.blocks {
                w.put_u32(1);
                w.put_u32(*live);
                w.put_u32(0);
                if *live > 0 {
                    w.put_bytes(frame);
                }
            }
            w.put_usize(self.n_pending);
            w.put_u64(9);
            w.put_usize(self.n_cached);
            for &(id, touch, bytes) in &self.cached {
                w.put_u32(id);
                w.put_u64(touch);
                w.put_u64(bytes);
            }
            w.into_bytes()
        }
    }

    #[test]
    fn restore_refuses_an_image_that_lies_and_leaves_the_tier_as_it_was() {
        let frame = seal_block(entry_body(&[1]));
        let len = frame.len() as u64;
        let good = Image {
            n_blocks: 3,
            blocks: vec![(1, frame.clone()), (0, Vec::new()), (1, frame)],
            n_pending: 0,
            n_cached: 1,
            cached: vec![(0, 4, len)],
        };
        // Room for one frame, not two.
        let mut t = tier_cached(
            "lies",
            IoFaultConfig::default(),
            StorageProfile::default(),
            len + len / 2,
        );
        let mut rc = CostReceipt::new();
        let own = t.append_block(entry_body(&[7, 8]), 2, &mut rc).unwrap();
        let lies = [
            (
                "block count",
                Image {
                    n_blocks: usize::MAX,
                    ..good.clone()
                },
            ),
            (
                "readahead plan length",
                Image {
                    n_pending: usize::MAX / 2,
                    ..good.clone()
                },
            ),
            (
                "cached block count",
                Image {
                    n_cached: 1 << 60,
                    ..good.clone()
                },
            ),
            (
                "is not in the block table",
                Image {
                    cached: vec![(u32::MAX, 4, len)],
                    ..good.clone()
                },
            ),
            (
                "names a dead block",
                Image {
                    cached: vec![(1, 4, 0)],
                    ..good.clone()
                },
            ),
            (
                "is listed twice",
                Image {
                    n_cached: 2,
                    cached: vec![(0, 4, len), (0, 5, len)],
                    ..good.clone()
                },
            ),
            (
                "unequal to its frame length",
                Image {
                    cached: vec![(0, 4, len + 1)],
                    ..good.clone()
                },
            ),
            (
                "overfills the cache budget",
                Image {
                    n_cached: 2,
                    cached: vec![(0, 4, len), (2, 5, len)],
                    ..good.clone()
                },
            ),
        ];
        for (field, image) in lies {
            match t.restore_from(&mut SectionReader::new(&image.bytes())) {
                Err(SnapshotError::Malformed(what)) => {
                    assert!(what.contains(field), "`{what}` should name: {field}")
                }
                other => panic!("{field}: expected Malformed, got {other:?}"),
            }
            // Refused before anything was touched: the tier's own block
            // still reads.
            assert_eq!(t.fetch_entries(own, &mut rc).unwrap().len(), 2, "{field}");
        }
        // The image they were cut from restores, with exact accounting.
        t.restore_from(&mut SectionReader::new(&good.bytes()))
            .unwrap();
        assert!(t.cached(0));
        assert_eq!(t.cache_used_bytes(), len);
        assert_eq!(t.fetch_entries(0, &mut rc).unwrap()[0].key, TupleKey(1));
    }

    #[test]
    fn corruption_under_the_open_handle_is_caught_on_every_read_path() {
        let mut t = tier_cached(
            "corrupt-open",
            IoFaultConfig::default(),
            StorageProfile::default(),
            1 << 20,
        );
        let mut rc = CostReceipt::new();
        let ids: Vec<u32> = (0..3u32)
            .map(|i| t.append_block(entry_body(&[i]), 1, &mut rc).unwrap())
            .collect();
        // The handle has been open since `create`; flip one body byte of
        // every block behind it.
        let mut raw = std::fs::read(&t.path).unwrap();
        for &id in &ids {
            let meta = *t.block(id).unwrap();
            raw[(meta.offset + u64::from(meta.len)) as usize - 1] ^= 0x01;
        }
        std::fs::write(&t.path, &raw).unwrap();
        assert!(matches!(
            t.fetch_entries(ids[0], &mut rc),
            Err(BlockReadError::Corrupt(_))
        ));
        let (served, failures) = fetch_batch_collect(&mut t, &ids[1..], &mut rc, all_records);
        assert!(served.is_empty());
        assert_eq!(failures.len(), 2);
        assert!(failures
            .iter()
            .all(|(_, e)| matches!(e, BlockReadError::Corrupt(_))));
        assert!(matches!(
            t.read_block(ids[0], &mut rc),
            Err(BlockReadError::Corrupt(_))
        ));
        // Readahead verifies too — one block inline, two fanned out — and
        // abandons what fails without a charge.
        let charged = rc.io_ns;
        for plan in [&ids[..1], &ids[1..]] {
            t.set_prefetch_plan(plan.to_vec());
            t.run_readahead(&mut rc, &crate::parallel::SequentialExecutor);
        }
        assert_eq!(rc.io_ns, charged);
        assert_eq!(t.stats().prefetched_blocks, 0);
        assert_eq!(t.cache_used_bytes(), 0, "nothing corrupt was admitted");
    }

    #[test]
    fn handle_serves_reads_after_restore_rewrote_the_file_and_after_clone() {
        let mut t = tier(
            "reopen",
            IoFaultConfig::default(),
            StorageProfile::default(),
        );
        let mut rc = CostReceipt::new();
        let a = t.append_block(body(&[1, 2, 3]), 3, &mut rc).unwrap();
        let b = t.append_block(body(&[4, 5]), 2, &mut rc).unwrap();
        t.mark_dead(a, false);
        let mut w = SectionWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        // Restoring in place truncates and rewrites the file densely:
        // `b` moves to offset 0 and the fresh handle must follow it.
        let before = t.block(b).unwrap().offset;
        t.restore_from(&mut SectionReader::new(&bytes)).unwrap();
        assert_eq!(t.block(b).unwrap().offset, 0);
        assert_ne!(before, 0);
        assert_eq!(read_vals(&t.read_block(b, &mut rc).unwrap()), vec![4, 5]);
        // A clone shares the handle, and outlives the original.
        let mut twin = t.clone();
        drop(t);
        assert_eq!(read_vals(&twin.read_block(b, &mut rc).unwrap()), vec![4, 5]);
        let c = twin.append_block(body(&[6]), 1, &mut rc).unwrap();
        assert_eq!(read_vals(&twin.read_block(c, &mut rc).unwrap()), vec![6]);
    }

    #[test]
    fn a_file_shorter_than_a_blocks_extent_is_a_typed_error() {
        let mut t = tier_cached(
            "short",
            IoFaultConfig::default(),
            StorageProfile::default(),
            1 << 20,
        );
        let mut rc = CostReceipt::new();
        let a = t.append_block(entry_body(&[1]), 1, &mut rc).unwrap();
        let b = t.append_block(entry_body(&[2, 3]), 2, &mut rc).unwrap();
        // Cut the file in the middle of `b` behind the tier's back.
        let meta = *t.block(b).unwrap();
        let cut = meta.offset + u64::from(meta.len) / 2;
        let other = std::fs::OpenOptions::new()
            .write(true)
            .open(&t.path)
            .unwrap();
        other.set_len(cut).unwrap();
        assert!(matches!(
            t.read_block(b, &mut rc),
            Err(BlockReadError::Io(_))
        ));
        assert!(matches!(
            t.fetch_entries(b, &mut rc),
            Err(BlockReadError::Io(_))
        ));
        let (_, failures) = fetch_batch_collect(&mut t, &[b], &mut rc, all_records);
        assert!(matches!(failures[..], [(id, BlockReadError::Io(_))] if id == b));
        t.set_prefetch_plan(vec![b]);
        t.run_readahead(&mut rc, &crate::parallel::SequentialExecutor);
        assert!(!t.cached(b), "a readahead that cannot read admits nothing");
        // A snapshot still encodes (the unreadable frame is saved empty)
        // and the intact block is untouched.
        let mut w = SectionWriter::new();
        t.save(&mut w);
        assert_eq!(t.fetch_entries(a, &mut rc).unwrap().len(), 1);
    }

    #[test]
    fn disk_bytes_tracks_the_live_blocks() {
        let walk = |t: &SpillTier| -> u64 {
            t.blocks
                .iter()
                .filter(|m| m.live > 0)
                .map(|m| u64::from(m.len))
                .sum()
        };
        let mut t = tier("disk", IoFaultConfig::default(), StorageProfile::default());
        let mut rc = CostReceipt::new();
        let a = t.append_block(body(&[1, 2]), 2, &mut rc).unwrap();
        let b = t.append_block(body(&[3]), 1, &mut rc).unwrap();
        let c = t.append_block(body(&[4, 5, 6]), 3, &mut rc).unwrap();
        assert_eq!(t.disk_bytes(), walk(&t));
        t.note_dropped(a);
        assert_eq!(
            t.disk_bytes(),
            walk(&t),
            "one of two stubs dropped: still live"
        );
        t.note_dropped(a);
        t.note_dropped(a); // already dead: must not be subtracted twice
        assert_eq!(t.disk_bytes(), walk(&t));
        t.mark_dead(b, true);
        t.mark_dead(b, false);
        assert_eq!(t.disk_bytes(), walk(&t));
        assert_eq!(t.disk_bytes(), u64::from(t.block(c).unwrap().len));
        let mut w = SectionWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut twin = tier("disk2", IoFaultConfig::default(), StorageProfile::default());
        twin.restore_from(&mut SectionReader::new(&bytes)).unwrap();
        assert_eq!(twin.disk_bytes(), walk(&twin));
        assert_eq!(twin.disk_bytes(), t.disk_bytes());
    }
}
