//! Out-of-core tiled storage for paper-scale systems.
//!
//! The paper's production systems (10–60 GB benchmarks, ~306 GB in the
//! full AVU-GSR pipeline) do not fit the memory of a single device, so
//! capacity — not FLOPs — is the binding constraint (§V-B's T4-vs-H100
//! capacity gating). This module adds the storage layer that makes that
//! regime measurable on any machine: the observation matrix is split into
//! fixed-size **row tiles** spilled to an on-disk directory
//! (`gaia-tiles/v2`), and solves stream tiles through a bounded,
//! scan-aware cache ([`TileCache`]) whose every load and evict is
//! accounted by a [`CapacityBudget`].
//!
//! Key invariants:
//!
//! * **Tiles align to star boundaries.** Every tile covers a contiguous
//!   star range `star0..star1`, so its observation rows are a contiguous
//!   global row range and its astrometric block is tile-local
//!   block-diagonal. Constraint rows fold into the last tile (their
//!   global rows follow the last tile's observation rows contiguously).
//!   A resident tile is therefore a [`RowBlock`] — the type
//!   [`SparseSystem::row_block`] returns for a distributed rank's rows —
//!   here over storage read from the tile file instead of shared with a
//!   resident parent.
//! * **Bit-exact round trips.** Tile files store raw IEEE-754 bits; a
//!   [`TiledSystem::assemble`] of the tiles equals the source system
//!   array-for-array, and streamed generation
//!   ([`crate::Generator::generate_tiled`]) writes byte-identical files
//!   to [`write_tiles`] over the in-memory generator's output.
//! * **Tamper evidence.** Every tile file carries a four-lane FNV-1a
//!   checksum in the manifest, verified on **every** load; a corrupted
//!   tile is a hard error naming the tile path.
//!   The manifest also records a fingerprint of the *source* arrays, so a
//!   mutate-after-tile-write ([`SparseSystem::scale_column`] and friends)
//!   is detected by [`TileManifest::verify_matches`] instead of silently
//!   solving stale data.
//! * **The budget binds.** The cache evicts *before* loading, so its
//!   ledger never exceeds the budget at any instant; a budget smaller
//!   than a single tile is a typed error
//!   ([`TileError::BudgetTooSmall`]), not a thrash loop. Eviction takes
//!   the tile used last (see [`TileCache`]), so the ledger is the memory
//!   actually held only while callers drop tile `t - 1` before asking for
//!   tile `t` — which every scan in this workspace does.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::constraints::build_constraint_rows;
use crate::footprint::device_bytes;
use crate::generator::{draw_coeff, gaussian, sample_distinct_sorted, GeneratorConfig};
use crate::generator::{AttitudePattern, InstrumentPattern, Rhs};
use crate::io::{
    read_f64_array, read_f64_array_into, read_u32, read_u32_array, read_u64, read_u64_array,
    read_u64_array_into, write_f64_array, write_u32, write_u32_array, write_u64, write_u64_array,
};
use crate::layout::SystemLayout;
use crate::system::{
    RowBlock, SparseSystem, ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW,
};
use crate::ASTRO_PARAMS_PER_STAR;

/// On-disk format identifier recorded in every manifest.
pub const TILE_FORMAT: &str = "gaia-tiles/v2";
/// Magic of a tile file.
pub const TILE_MAGIC: [u8; 4] = *b"GTIL";
/// Magic of the known-terms file.
pub const KNOWN_MAGIC: [u8; 4] = *b"GTKB";
/// Version of the tile container format.
pub const TILE_VERSION: u32 = 2;
/// Name of the manifest file inside a tile directory.
pub const MANIFEST_NAME: &str = "manifest.json";
/// Name of the known-terms file inside a tile directory.
pub const KNOWN_TERMS_NAME: &str = "known_terms.bin";

/// Environment variable overriding the tile directory recorded in
/// checkpoints — set it when the spill directory has been moved between
/// a crash and the resume.
pub const TILES_DIR_ENV: &str = "GAIA_TILES_DIR";

/// Resolve a recorded tile directory, honoring the [`TILES_DIR_ENV`]
/// override (used after the spill directory is relocated).
pub fn resolve_tiles_dir(recorded: &Path) -> PathBuf {
    match std::env::var_os(TILES_DIR_ENV) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => recorded.to_path_buf(),
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failures of the tiled storage layer.
#[derive(Debug)]
pub enum TileError {
    /// Underlying I/O failure, with the offending path.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// Source error.
        source: io::Error,
    },
    /// A file decodes but is not a valid tile container.
    Format {
        /// Offending file.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// A tile file's bytes do not match the manifest checksum.
    ChecksumMismatch {
        /// The corrupted tile file.
        path: PathBuf,
        /// Checksum recorded in the manifest.
        expected: String,
        /// Checksum of the bytes actually on disk.
        actual: String,
    },
    /// The capacity budget cannot hold even one tile.
    BudgetTooSmall {
        /// Budget limit in bytes.
        limit: u64,
        /// Size of the tile that does not fit.
        tile_bytes: u64,
    },
    /// A charge would push resident bytes past the limit — the caller
    /// must evict first (the tile cache always does).
    BudgetExceeded {
        /// Budget limit in bytes.
        limit: u64,
        /// Bytes currently charged.
        used: u64,
        /// Bytes of the rejected charge.
        requested: u64,
    },
    /// The manifest no longer matches the source system (the system was
    /// mutated after the tiles were written).
    StaleManifest {
        /// What diverged.
        message: String,
    },
    /// Tile shapes are inconsistent with the manifest layout.
    InvalidShape {
        /// What diverged.
        message: String,
    },
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileError::Io { path, source } => {
                write!(f, "tile I/O error at {}: {source}", path.display())
            }
            TileError::Format { path, message } => {
                write!(f, "tile format error at {}: {message}", path.display())
            }
            TileError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "tile checksum mismatch at {}: manifest says {expected}, file hashes to {actual}",
                path.display()
            ),
            TileError::BudgetTooSmall { limit, tile_bytes } => write!(
                f,
                "capacity budget of {limit} bytes cannot hold a single {tile_bytes}-byte tile"
            ),
            TileError::BudgetExceeded {
                limit,
                used,
                requested,
            } => write!(
                f,
                "charge of {requested} bytes exceeds capacity budget ({used} of {limit} used)"
            ),
            TileError::StaleManifest { message } => {
                write!(f, "tile manifest is stale: {message}")
            }
            TileError::InvalidShape { message } => {
                write!(f, "tile shape invalid: {message}")
            }
        }
    }
}

impl std::error::Error for TileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TileError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path) -> impl Fn(io::Error) -> TileError + '_ {
    move |source| TileError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// An older spill is refused, not read: spill directories are regenerable
/// (and a checkpoint taken against one is already rejected by its matrix
/// fingerprint), so there is exactly one reader.
fn stale_format(
    path: PathBuf,
    found: impl std::fmt::Debug,
    expected: impl std::fmt::Debug,
) -> TileError {
    TileError::Format {
        path,
        message: format!(
            "format {found:?} (expected {expected:?}): spill directories are \
             regenerable — delete this one and regenerate it"
        ),
    }
}

fn from_io_error(path: &Path, e: crate::io::IoError) -> TileError {
    match e {
        crate::io::IoError::Io(source) => TileError::Io {
            path: path.to_path_buf(),
            source,
        },
        crate::io::IoError::Format(message) | crate::io::IoError::Invalid(message) => {
            TileError::Format {
                path: path.to_path_buf(),
                message,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FNV-1a hashing
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher (same flavor as the checkpoint RHS
/// fingerprint in `gaia-lsqr`).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// One xor-then-multiply step over a whole word. The multiplier is
    /// odd, so for a fixed state the step is a bijection of `word` (and
    /// for a fixed word, of the state): two inputs that differ in one
    /// word can never meet again.
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Bytes per checksum block: one little-endian `u64` word for each lane.
const BLOCK: usize = 32;

/// The `gaia-tiles/v2` file checksum. Byte-at-a-time FNV-1a is one serial
/// multiply chain (0.8 GB/s measured); this runs four independent chains,
/// lane `k` taking word `k` of every 32-byte block, so the multiplies
/// overlap and a file hashes at memory speed. [`TileHasher::finish`]
/// folds the four lane digests word-wise, then the `< 32`-byte tail
/// byte-wise, into one [`Fnv`]. Every step on the way is [`Fnv::mix`], so
/// a file that differs from the recorded one in any single word (hence
/// any single bit or byte) always hashes differently — the detection v1
/// gave per byte. Bytes may arrive in any split: a partial block waits in
/// `carry`.
#[derive(Debug, Clone, Copy)]
struct TileHasher {
    lanes: [Fnv; 4],
    carry: [u8; BLOCK],
    carried: usize,
}

impl TileHasher {
    fn new() -> Self {
        TileHasher {
            lanes: [Fnv::new(); 4],
            carry: [0; BLOCK],
            carried: 0,
        }
    }

    fn write(&mut self, mut bytes: &[u8]) {
        if self.carried > 0 {
            let take = bytes.len().min(BLOCK - self.carried);
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < BLOCK {
                return;
            }
            Self::mix_blocks(&mut self.lanes, &self.carry);
        }
        let tail = Self::mix_blocks(&mut self.lanes, bytes);
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// Mix every whole block of `bytes` into the lanes; returns the rest.
    fn mix_blocks<'a>(lanes: &mut [Fnv; 4], bytes: &'a [u8]) -> &'a [u8] {
        // The lanes enter and leave the loop through `black_box`, one
        // scalar at a time. Left alone, LLVM sees four identical chains
        // between a 32-byte load and a 32-byte store and emits SSE2 vector
        // code, where each 64-bit multiply is three `pmuludq` plus shifts:
        // 9 GB/s measured, against 26 GB/s for four scalar `imul` chains.
        // Only speed depends on the hint.
        let mut local = lanes.map(std::hint::black_box);
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            for (lane, word) in local.iter_mut().zip(block.chunks_exact(8)) {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(word);
                lane.mix(u64::from_le_bytes(raw));
            }
        }
        *lanes = local.map(std::hint::black_box);
        blocks.remainder()
    }

    fn finish(self) -> u64 {
        let mut h = Fnv::new();
        for lane in self.lanes {
            h.mix(lane.finish());
        }
        h.write(&self.carry[..self.carried]);
        h.finish()
    }
}

/// A `Write` adapter that hashes and counts everything written through it.
struct HashingWriter<W: Write> {
    inner: W,
    hash: TileHasher,
    bytes: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: TileHasher::new(),
            bytes: 0,
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.write(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = TileHasher::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Source fingerprint
// ---------------------------------------------------------------------------

/// Per-array hashers combined into one source fingerprint. Streamed
/// generation feeds these incrementally (its phases are array-major, so
/// each array is visited in exactly the in-memory order); the in-memory
/// path feeds whole arrays. Both yield the same digest for the same data.
pub(crate) struct SourceHasher {
    astro: Fnv,
    att: Fnv,
    instr: Fnv,
    glob: Fnv,
    idx_astro: Fnv,
    idx_att: Fnv,
    instr_col: Fnv,
    known: Fnv,
}

impl SourceHasher {
    fn new() -> Self {
        SourceHasher {
            astro: Fnv::new(),
            att: Fnv::new(),
            instr: Fnv::new(),
            glob: Fnv::new(),
            idx_astro: Fnv::new(),
            idx_att: Fnv::new(),
            instr_col: Fnv::new(),
            known: Fnv::new(),
        }
    }

    fn feed_f64(h: &mut Fnv, vals: &[f64]) {
        for &v in vals {
            h.write_f64(v);
        }
    }

    fn feed_u64(h: &mut Fnv, vals: &[u64]) {
        for &v in vals {
            h.write_u64(v);
        }
    }

    fn feed_u32(h: &mut Fnv, vals: &[u32]) {
        for &v in vals {
            h.write(&v.to_le_bytes());
        }
    }

    fn finish(self, layout: &SystemLayout) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(layout.n_stars);
        h.write_u64(layout.obs_per_star);
        h.write_u64(layout.n_deg_freedom_att);
        h.write_u64(layout.n_instr_params);
        h.write_u64(u64::from(layout.n_glob_params));
        h.write_u64(layout.n_constraint_rows);
        for digest in [
            self.astro.finish(),
            self.att.finish(),
            self.instr.finish(),
            self.glob.finish(),
            self.idx_astro.finish(),
            self.idx_att.finish(),
            self.instr_col.finish(),
            self.known.finish(),
        ] {
            h.write_u64(digest);
        }
        h.finish()
    }
}

/// Fingerprint of a system's full content (layout + every array,
/// including the known terms). Matrix index hashing uses the *global*
/// astrometric indices, so the digest is independent of the tiling.
pub fn source_fingerprint(sys: &SparseSystem) -> String {
    let mut src = SourceHasher::new();
    SourceHasher::feed_f64(&mut src.astro, sys.values_astro());
    SourceHasher::feed_f64(&mut src.att, sys.values_att());
    SourceHasher::feed_f64(&mut src.instr, sys.values_instr());
    SourceHasher::feed_f64(&mut src.glob, sys.values_glob());
    SourceHasher::feed_u64(&mut src.idx_astro, sys.matrix_index_astro());
    SourceHasher::feed_u64(&mut src.idx_att, sys.matrix_index_att());
    SourceHasher::feed_u32(&mut src.instr_col, sys.instr_col());
    SourceHasher::feed_f64(&mut src.known, sys.known_terms());
    hex(src.finish(sys.layout()))
}

// ---------------------------------------------------------------------------
// Capacity budget
// ---------------------------------------------------------------------------

/// Byte accountant every tile load and evict goes through.
///
/// The budget is a hard ceiling on *resident* tile bytes: a charge that
/// would exceed it is rejected with a typed error, never silently
/// absorbed. `peak` records the high-water mark, which the capacity
/// harness compares against the configured limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityBudget {
    limit: Option<u64>,
    used: u64,
    peak: u64,
}

impl CapacityBudget {
    /// A budget with no limit (all tiles may stay resident).
    pub fn unbounded() -> Self {
        CapacityBudget {
            limit: None,
            used: 0,
            peak: 0,
        }
    }

    /// A budget capped at `bytes` resident bytes.
    pub fn limited(bytes: u64) -> Self {
        CapacityBudget {
            limit: Some(bytes),
            used: 0,
            peak: 0,
        }
    }

    /// The configured limit (`None` when unbounded).
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Whether a charge of `bytes` would fit right now.
    pub fn fits(&self, bytes: u64) -> bool {
        match self.limit {
            None => true,
            Some(limit) => self.used.saturating_add(bytes) <= limit,
        }
    }

    /// Charge `bytes`. Fails with [`TileError::BudgetTooSmall`] when the
    /// charge can *never* fit and [`TileError::BudgetExceeded`] when the
    /// caller should have evicted first; on either error the accountant
    /// is unchanged.
    pub fn charge(&mut self, bytes: u64) -> Result<(), TileError> {
        if let Some(limit) = self.limit {
            if bytes > limit {
                return Err(TileError::BudgetTooSmall {
                    limit,
                    tile_bytes: bytes,
                });
            }
            if self.used.saturating_add(bytes) > limit {
                return Err(TileError::BudgetExceeded {
                    limit,
                    used: self.used,
                    requested: bytes,
                });
            }
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Release a previous charge of `bytes`.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.used, "releasing more than was charged");
        self.used = self.used.saturating_sub(bytes);
    }
}

// ---------------------------------------------------------------------------
// Scan-aware tile cache
// ---------------------------------------------------------------------------

/// Outcome of one cache access, reported to the caller so telemetry can
/// be recorded outside this crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileAccess {
    /// The tile was already resident.
    pub hit: bool,
    /// Bytes loaded by this access (0 on a hit).
    pub loaded_bytes: u64,
    /// Tiles evicted to make room for this access.
    pub evictions: u64,
    /// Bytes released by those evictions.
    pub evicted_bytes: u64,
    /// High-water mark of resident bytes after this access, read under
    /// the lock the access already holds.
    pub peak_resident_bytes: u64,
}

/// Cumulative counters of a [`TileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCacheStats {
    /// Misses that loaded a tile.
    pub loads: u64,
    /// Accesses served from resident tiles.
    pub hits: u64,
    /// Tiles evicted to stay under budget.
    pub evictions: u64,
    /// Total bytes loaded.
    pub loaded_bytes: u64,
    /// Total bytes evicted.
    pub evicted_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
    /// Bytes resident right now.
    pub resident_bytes: u64,
    /// Tiles resident right now.
    pub resident_tiles: usize,
}

/// Cache of loaded tiles, bounded by a [`CapacityBudget`], that evicts
/// the **most** recently used tile.
///
/// Every caller of [`TiledSystem::tile`] scans `0..n_tiles` ascending,
/// over and over. Under that traffic the resident tile whose next use is
/// farthest away is always the one just used, so evicting it is Belady's
/// optimal choice: with room for `C` of `N` equal tiles a steady-state
/// scan hits `C - 1` times in every `N - 1` accesses, where evicting the
/// least recently used tile never hits at all. The policy only decides
/// *which* tiles are resident, never the order they are visited in.
///
/// Generic over the cached value so the policy can be tested without
/// touching the filesystem.
#[derive(Debug)]
pub struct TileCache<T> {
    budget: CapacityBudget,
    /// Resident tiles, least recently used first.
    entries: VecDeque<(usize, u64, Arc<T>)>,
    loads: u64,
    hits: u64,
    evictions: u64,
    loaded_bytes: u64,
    evicted_bytes: u64,
}

impl<T> TileCache<T> {
    /// An empty cache governed by `budget`.
    pub fn new(budget: CapacityBudget) -> Self {
        TileCache {
            budget,
            entries: VecDeque::new(),
            loads: 0,
            hits: 0,
            evictions: 0,
            loaded_bytes: 0,
            evicted_bytes: 0,
        }
    }

    /// Fetch tile `id`, loading it via `load` on a miss. Eviction happens
    /// *before* the load so the ledger never exceeds the budget, even
    /// transiently. The ledger equals the memory actually held on one
    /// condition: the caller has dropped the `Arc` of its previous access
    /// by now, because the previous tile is the first one evicted. A
    /// failed load leaves the cache unchanged (beyond any evictions
    /// already performed).
    pub fn get_or_load(
        &mut self,
        id: usize,
        bytes: u64,
        load: impl FnOnce() -> Result<T, TileError>,
    ) -> Result<(Arc<T>, TileAccess), TileError> {
        if let Some(pos) = self.entries.iter().position(|e| e.0 == id) {
            // Refresh recency: move to the back (most recently used).
            // `position` guarantees the index is in range; were `remove`
            // ever to miss, the entry falls through to a plain reload
            // rather than panicking mid-solve.
            if let Some(entry) = self.entries.remove(pos) {
                let value = Arc::clone(&entry.2);
                self.entries.push_back(entry);
                self.hits += 1;
                return Ok((
                    value,
                    TileAccess {
                        hit: true,
                        peak_resident_bytes: self.budget.peak(),
                        ..TileAccess::default()
                    },
                ));
            }
        }

        let mut access = TileAccess::default();
        while !self.budget.fits(bytes) {
            let Some((_, evicted, _)) = self.entries.pop_back() else {
                // Nothing left to evict: the tile alone exceeds the limit.
                return Err(TileError::BudgetTooSmall {
                    limit: self.budget.limit().unwrap_or(0),
                    tile_bytes: bytes,
                });
            };
            self.budget.release(evicted);
            self.evictions += 1;
            self.evicted_bytes += evicted;
            access.evictions += 1;
            access.evicted_bytes += evicted;
        }
        let value = Arc::new(load()?);
        self.budget.charge(bytes)?;
        self.loads += 1;
        self.loaded_bytes += bytes;
        access.loaded_bytes = bytes;
        access.peak_resident_bytes = self.budget.peak();
        self.entries.push_back((id, bytes, Arc::clone(&value)));
        Ok((value, access))
    }

    /// The governing budget.
    pub fn budget(&self) -> &CapacityBudget {
        &self.budget
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TileCacheStats {
        TileCacheStats {
            loads: self.loads,
            hits: self.hits,
            evictions: self.evictions,
            loaded_bytes: self.loaded_bytes,
            evicted_bytes: self.evicted_bytes,
            peak_resident_bytes: self.budget.peak(),
            resident_bytes: self.budget.used(),
            resident_tiles: self.entries.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Per-tile metadata recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileMeta {
    /// Tile index (file `tile-{index:05}.bin`).
    pub index: usize,
    /// First star covered by the tile.
    pub star0: u64,
    /// One past the last star covered.
    pub star1: u64,
    /// Constraint rows folded into this tile (non-zero only on the last).
    pub constraint_rows: u64,
    /// Size of the tile file in bytes.
    pub bytes: u64,
    /// Four-lane FNV-1a checksum of the tile file bytes, hex-encoded.
    pub checksum: String,
}

/// The `gaia-tiles/v2` manifest: shape, provenance, and checksums of a
/// tile directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileManifest {
    /// Format identifier, always [`TILE_FORMAT`].
    pub format: String,
    /// Shape of the full (assembled) system.
    pub layout: SystemLayout,
    /// Generator seed when the tiles came from streamed generation.
    pub seed: Option<u64>,
    /// Stars per tile (the last tile may cover fewer).
    pub tile_stars: u64,
    /// Number of tiles.
    pub n_tiles: usize,
    /// Per-tile metadata in tile order.
    pub tiles: Vec<TileMeta>,
    /// Four-lane FNV-1a checksum of the known-terms file, hex-encoded.
    pub known_terms_checksum: String,
    /// Combined fingerprint of all tile checksums + known terms — the
    /// identity of the on-disk matrix, recorded in checkpoints.
    pub matrix_fingerprint: String,
    /// Fingerprint of the source arrays (see [`source_fingerprint`]);
    /// lets [`TileManifest::verify_matches`] detect a source system that
    /// mutated after the tiles were written.
    pub source_fingerprint: String,
}

impl TileManifest {
    /// Check that `sys` still matches the arrays these tiles were written
    /// from; a mutated source (scaled column, permuted rows, replaced
    /// known terms) yields [`TileError::StaleManifest`].
    pub fn verify_matches(&self, sys: &SparseSystem) -> Result<(), TileError> {
        let now = source_fingerprint(sys);
        if now != self.source_fingerprint {
            return Err(TileError::StaleManifest {
                message: format!(
                    "source system fingerprint {now} != recorded {} — \
                     the system was mutated after the tiles were written",
                    self.source_fingerprint
                ),
            });
        }
        Ok(())
    }

    /// File name of tile `index`.
    pub fn tile_file_name(index: usize) -> String {
        format!("tile-{index:05}.bin")
    }
}

fn combine_fingerprint(tiles: &[TileMeta], known_checksum: u64) -> String {
    let mut h = Fnv::new();
    for t in tiles {
        h.write_u64(parse_hex_or_zero(&t.checksum));
    }
    h.write_u64(known_checksum);
    hex(h.finish())
}

fn parse_hex_or_zero(s: &str) -> u64 {
    u64::from_str_radix(s, 16).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Tile geometry
// ---------------------------------------------------------------------------

/// Geometry of one tile within a parent layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileSpan {
    index: usize,
    star0: u64,
    star1: u64,
    constraint_rows: u64,
}

fn tile_spans(layout: &SystemLayout, tile_stars: u64) -> Vec<TileSpan> {
    assert!(tile_stars >= 1, "tile_stars must be at least 1");
    let n_tiles = layout.n_stars.div_ceil(tile_stars) as usize;
    (0..n_tiles)
        .map(|index| {
            let star0 = index as u64 * tile_stars;
            let star1 = (star0 + tile_stars).min(layout.n_stars);
            TileSpan {
                index,
                star0,
                star1,
                constraint_rows: if index + 1 == n_tiles {
                    layout.n_constraint_rows
                } else {
                    0
                },
            }
        })
        .collect()
}

fn local_layout(parent: &SystemLayout, meta: &TileMeta) -> SystemLayout {
    SystemLayout {
        n_stars: meta.star1 - meta.star0,
        n_constraint_rows: meta.constraint_rows,
        ..*parent
    }
}

// ---------------------------------------------------------------------------
// Tile file I/O
// ---------------------------------------------------------------------------

/// Writer of one tile file; shared by [`write_tiles`] and streamed
/// generation so both produce byte-identical files. Sections are
/// appended across generation phases (the file section order *is* the
/// phase order), hashing incrementally — no seeks, no rewrites.
struct TileFileWriter {
    path: PathBuf,
    w: HashingWriter<io::BufWriter<std::fs::File>>,
}

impl TileFileWriter {
    fn create(dir: &Path, span: &TileSpan) -> Result<Self, TileError> {
        let path = dir.join(TileManifest::tile_file_name(span.index));
        let file = std::fs::File::create(&path).map_err(io_err(&path))?;
        let mut w = HashingWriter::new(io::BufWriter::new(file));
        (|| -> io::Result<()> {
            w.write_all(&TILE_MAGIC)?;
            write_u32(&mut w, TILE_VERSION)?;
            write_u64(&mut w, span.index as u64)?;
            write_u64(&mut w, span.star0)?;
            write_u64(&mut w, span.star1)?;
            write_u64(&mut w, span.constraint_rows)?;
            Ok(())
        })()
        .map_err(io_err(&path))?;
        Ok(TileFileWriter { path, w })
    }

    fn write_f64s(&mut self, vals: &[f64]) -> Result<(), TileError> {
        write_f64_array(&mut self.w, vals).map_err(io_err(&self.path))
    }

    fn write_u64s(&mut self, vals: &[u64]) -> Result<(), TileError> {
        write_u64_array(&mut self.w, vals).map_err(io_err(&self.path))
    }

    fn write_u32s(&mut self, vals: &[u32]) -> Result<(), TileError> {
        write_u32_array(&mut self.w, vals).map_err(io_err(&self.path))
    }

    fn finish(mut self, span: &TileSpan) -> Result<TileMeta, TileError> {
        self.w.flush().map_err(io_err(&self.path))?;
        Ok(TileMeta {
            index: span.index,
            star0: span.star0,
            star1: span.star1,
            constraint_rows: span.constraint_rows,
            bytes: self.w.bytes,
            checksum: hex(self.w.hash.finish()),
        })
    }
}

/// Read and checksum-verify one tile file, assembling the tile-local
/// block. A checksum mismatch is a hard error naming the tile path.
fn read_tile(dir: &Path, parent: &SystemLayout, meta: &TileMeta) -> Result<RowBlock, TileError> {
    let path = dir.join(TileManifest::tile_file_name(meta.index));
    let bytes = std::fs::read(&path).map_err(io_err(&path))?;
    let actual = hex(hash_bytes(&bytes));
    if actual != meta.checksum {
        return Err(TileError::ChecksumMismatch {
            path,
            expected: meta.checksum.clone(),
            actual,
        });
    }

    let mut r: &[u8] = &bytes;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err(&path))?;
    if magic != TILE_MAGIC {
        return Err(TileError::Format {
            path,
            message: "bad magic (not a GTIL tile)".into(),
        });
    }
    let version = read_u32(&mut r).map_err(io_err(&path))?;
    if version != TILE_VERSION {
        return Err(stale_format(path, version, TILE_VERSION));
    }
    let index = read_u64(&mut r).map_err(io_err(&path))?;
    let star0 = read_u64(&mut r).map_err(io_err(&path))?;
    let star1 = read_u64(&mut r).map_err(io_err(&path))?;
    let constraint_rows = read_u64(&mut r).map_err(io_err(&path))?;
    if index != meta.index as u64
        || star0 != meta.star0
        || star1 != meta.star1
        || constraint_rows != meta.constraint_rows
    {
        return Err(TileError::Format {
            path,
            message: "tile header disagrees with the manifest entry".into(),
        });
    }

    let local = local_layout(parent, meta);
    let n_rows_local = local.n_rows() as usize;
    // The attitude arrays sit in two sections of the file (observation
    // rows, then the constraint tail): sized once here, filled by both.
    let mut values_att = Vec::with_capacity(n_rows_local * ATT_NNZ_PER_ROW);
    let mut idx_att = Vec::with_capacity(n_rows_local);
    let bad = |e| from_io_error(&path, e);
    let values_astro = read_f64_array(&mut r).map_err(bad)?;
    read_f64_array_into(&mut r, &mut values_att).map_err(bad)?;
    let values_instr = read_f64_array(&mut r).map_err(bad)?;
    let values_glob = read_f64_array(&mut r).map_err(bad)?;
    let idx_astro = read_u64_array(&mut r).map_err(bad)?;
    read_u64_array_into(&mut r, &mut idx_att).map_err(bad)?;
    let instr_col = read_u32_array(&mut r).map_err(bad)?;
    read_f64_array_into(&mut r, &mut values_att).map_err(bad)?;
    read_u64_array_into(&mut r, &mut idx_att).map_err(bad)?;
    let system = SparseSystem::from_parts_shard(
        local,
        values_astro,
        values_att,
        values_instr,
        values_glob,
        idx_astro,
        idx_att,
        instr_col,
        vec![0.0; n_rows_local],
    )
    .map_err(|e| TileError::InvalidShape {
        message: format!("tile {} at {}: {e}", meta.index, path.display()),
    })?;

    let row0 = (star0 * parent.obs_per_star) as usize;
    Ok(RowBlock {
        star0,
        rows: row0..row0 + n_rows_local,
        parent_astro_cols: parent.n_astro_cols(),
        system,
    })
}

fn write_known_terms(dir: &Path, b: &[f64]) -> Result<String, TileError> {
    let path = dir.join(KNOWN_TERMS_NAME);
    let file = std::fs::File::create(&path).map_err(io_err(&path))?;
    let mut w = HashingWriter::new(io::BufWriter::new(file));
    (|| -> io::Result<()> {
        w.write_all(&KNOWN_MAGIC)?;
        write_u32(&mut w, TILE_VERSION)?;
        write_f64_array(&mut w, b)
    })()
    .map_err(io_err(&path))?;
    w.flush().map_err(io_err(&path))?;
    Ok(hex(w.hash.finish()))
}

fn read_known_terms(dir: &Path, expected_checksum: &str) -> Result<Vec<f64>, TileError> {
    let path = dir.join(KNOWN_TERMS_NAME);
    let bytes = std::fs::read(&path).map_err(io_err(&path))?;
    let actual = hex(hash_bytes(&bytes));
    if actual != expected_checksum {
        return Err(TileError::ChecksumMismatch {
            path,
            expected: expected_checksum.to_string(),
            actual,
        });
    }
    let mut r: &[u8] = &bytes;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err(&path))?;
    if magic != KNOWN_MAGIC {
        return Err(TileError::Format {
            path,
            message: "bad magic (not a GTKB known-terms file)".into(),
        });
    }
    let version = read_u32(&mut r).map_err(io_err(&path))?;
    if version != TILE_VERSION {
        return Err(stale_format(path, version, TILE_VERSION));
    }
    read_f64_array(&mut r).map_err(|e| from_io_error(&path, e))
}

fn write_manifest(dir: &Path, manifest: &TileManifest) -> Result<(), TileError> {
    let path = dir.join(MANIFEST_NAME);
    let json = serde_json::to_string_pretty(manifest).map_err(|e| TileError::Format {
        path: path.clone(),
        message: format!("cannot serialize manifest: {e}"),
    })?;
    std::fs::write(&path, json).map_err(io_err(&path))
}

fn read_manifest(dir: &Path) -> Result<TileManifest, TileError> {
    let path = dir.join(MANIFEST_NAME);
    let json = std::fs::read_to_string(&path).map_err(io_err(&path))?;
    let manifest: TileManifest = serde_json::from_str(&json).map_err(|e| TileError::Format {
        path: path.clone(),
        message: format!("cannot parse manifest: {e}"),
    })?;
    if manifest.format != TILE_FORMAT {
        return Err(stale_format(path, manifest.format, TILE_FORMAT));
    }
    if manifest.tiles.len() != manifest.n_tiles {
        return Err(TileError::Format {
            path,
            message: format!(
                "manifest lists {} tiles but declares {}",
                manifest.tiles.len(),
                manifest.n_tiles
            ),
        });
    }
    manifest.layout.validate().map_err(|e| TileError::Format {
        path,
        message: format!("manifest layout invalid: {e}"),
    })?;
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Writing tiles from an in-memory system
// ---------------------------------------------------------------------------

/// Spill an in-memory system into a `gaia-tiles/v2` directory with
/// `tile_stars` stars per tile. Uses the same writer as streamed
/// generation, so the tile files (and their checksums) are byte-identical
/// to what [`crate::Generator::generate_tiled`] would produce for the
/// same system.
pub fn write_tiles(
    sys: &SparseSystem,
    dir: &Path,
    tile_stars: u64,
) -> Result<TileManifest, TileError> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let layout = *sys.layout();
    let spans = tile_spans(&layout, tile_stars);

    let mut metas = Vec::with_capacity(spans.len());
    for span in &spans {
        // A tile's sections are the arrays of the row block it will be
        // read back as; the attitude arrays go out in two pieces, the
        // constraint tail last (empty on every tile but the last).
        let block = sys
            .row_block(span.star0..span.star1, span.constraint_rows > 0)
            .system;
        let n_obs = block.n_obs_rows();
        let (att_obs, att_constr) = block.values_att().split_at(n_obs * ATT_NNZ_PER_ROW);
        let (idx_obs, idx_constr) = block.matrix_index_att().split_at(n_obs);
        let mut w = TileFileWriter::create(dir, span)?;
        w.write_f64s(block.values_astro())?;
        w.write_f64s(att_obs)?;
        w.write_f64s(block.values_instr())?;
        w.write_f64s(block.values_glob())?;
        w.write_u64s(block.matrix_index_astro())?;
        w.write_u64s(idx_obs)?;
        w.write_u32s(block.instr_col())?;
        w.write_f64s(att_constr)?;
        w.write_u64s(idx_constr)?;
        metas.push(w.finish(span)?);
    }

    let known_checksum = write_known_terms(dir, sys.known_terms())?;
    let manifest = TileManifest {
        format: TILE_FORMAT.to_string(),
        layout,
        seed: None,
        tile_stars,
        n_tiles: spans.len(),
        matrix_fingerprint: combine_fingerprint(&metas, parse_hex_or_zero(&known_checksum)),
        source_fingerprint: source_fingerprint(sys),
        tiles: metas,
        known_terms_checksum: known_checksum,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Streamed generation
// ---------------------------------------------------------------------------

/// Streamed (chunk-at-a-time) generation: replay the in-memory
/// generator's RNG stream phase by phase, writing each tile section
/// straight to disk. Only one tile section is buffered at a time, so the
/// full system is never materialized — yet the output is bit-identical
/// to [`write_tiles`] over [`crate::Generator::generate`] for the same
/// configuration, because the generator consumes RNG draws array-major
/// (all astrometric values, then all attitude values, ...) and the tile
/// file section order equals that phase order.
pub(crate) fn generate_tiled_impl(
    config: &GeneratorConfig,
    dir: &Path,
    tile_stars: u64,
) -> Result<TileManifest, TileError> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let layout = config.layout;
    let obs = layout.obs_per_star as usize;
    let glob = layout.n_glob_params as usize;
    let n_obs = layout.n_obs_rows() as usize;
    let n_rows = layout.n_rows() as usize;
    let spans = tile_spans(&layout, tile_stars);

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut src = SourceHasher::new();
    let mut writers: Vec<TileFileWriter> = spans
        .iter()
        .map(|span| TileFileWriter::create(dir, span))
        .collect::<Result<_, _>>()?;

    let tile_obs = |span: &TileSpan| (span.star1 - span.star0) as usize * obs;

    // Phase 1: astrometric coefficients (RNG order = row-major, exactly
    // as the in-memory generator fills `values_astro`).
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let buf: Vec<f64> = (0..tile_obs(span) * ASTRO_NNZ_PER_ROW)
            .map(|_| draw_coeff(&mut rng))
            .collect();
        SourceHasher::feed_f64(&mut src.astro, &buf);
        w.write_f64s(&buf)?;
    }
    // Phase 2: attitude coefficients of the observation rows.
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let buf: Vec<f64> = (0..tile_obs(span) * ATT_NNZ_PER_ROW)
            .map(|_| draw_coeff(&mut rng))
            .collect();
        SourceHasher::feed_f64(&mut src.att, &buf);
        w.write_f64s(&buf)?;
    }
    // Phase 3: instrumental coefficients.
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let buf: Vec<f64> = (0..tile_obs(span) * INSTR_NNZ_PER_ROW)
            .map(|_| draw_coeff(&mut rng))
            .collect();
        SourceHasher::feed_f64(&mut src.instr, &buf);
        w.write_f64s(&buf)?;
    }
    // Phase 4: global coefficients.
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let buf: Vec<f64> = (0..tile_obs(span) * glob)
            .map(|_| draw_coeff(&mut rng))
            .collect();
        SourceHasher::feed_f64(&mut src.glob, &buf);
        w.write_f64s(&buf)?;
    }
    // Phase 5: astrometric indices (no RNG). Files store tile-local
    // indices; the source fingerprint hashes the global ones.
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let mut local = Vec::with_capacity(tile_obs(span));
        let mut global = Vec::with_capacity(tile_obs(span));
        for r in 0..tile_obs(span) {
            let local_star = (r / obs) as u64;
            local.push(local_star * u64::from(ASTRO_PARAMS_PER_STAR));
            global.push((span.star0 + local_star) * u64::from(ASTRO_PARAMS_PER_STAR));
        }
        SourceHasher::feed_u64(&mut src.idx_astro, &global);
        w.write_u64s(&local)?;
    }
    // Phase 6: attitude offsets of the observation rows (time-ordered
    // sweep, one jitter draw per row — base computed from the *global*
    // row index so the traversal matches the in-memory generator).
    let max_off = layout.n_deg_freedom_att - u64::from(crate::ATT_PARAMS_PER_AXIS);
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let row0 = span.star0 as usize * obs;
        let mut buf = Vec::with_capacity(tile_obs(span));
        for r in 0..tile_obs(span) {
            let row = row0 + r;
            let t = if n_obs <= 1 {
                0.0
            } else {
                row as f64 / (n_obs as f64 - 1.0)
            };
            let base = match config.attitude {
                AttitudePattern::LinearSweep => (t * max_off as f64) as u64,
                AttitudePattern::ScanLaw { revolutions } => {
                    let phase = t * f64::from(revolutions.max(1));
                    let tri = 1.0 - (2.0 * (phase - phase.floor()) - 1.0).abs();
                    (tri * max_off as f64) as u64
                }
            };
            let jitter = rng.gen_range(0..=2u64);
            buf.push((base + jitter).min(max_off));
        }
        SourceHasher::feed_u64(&mut src.idx_att, &buf);
        w.write_u64s(&buf)?;
    }
    // Phase 7: instrument columns.
    let n_instr = layout.n_instr_params;
    for (span, w) in spans.iter().zip(writers.iter_mut()) {
        let mut buf = vec![0u32; tile_obs(span) * INSTR_NNZ_PER_ROW];
        for r in 0..tile_obs(span) {
            let slots = &mut buf[r * INSTR_NNZ_PER_ROW..(r + 1) * INSTR_NNZ_PER_ROW];
            match config.instrument {
                InstrumentPattern::Uniform => sample_distinct_sorted(&mut rng, n_instr, slots),
                InstrumentPattern::Grouped => {
                    for (g, slot) in slots.iter_mut().enumerate() {
                        let g = g as u64;
                        let start = g * n_instr / INSTR_NNZ_PER_ROW as u64;
                        let end = (g + 1) * n_instr / INSTR_NNZ_PER_ROW as u64;
                        *slot = rng.gen_range(start..end.max(start + 1)) as u32;
                    }
                }
            }
        }
        SourceHasher::feed_u32(&mut src.instr_col, &buf);
        w.write_u32s(&buf)?;
    }
    // Phase 8: constraint rows (attitude-only; fold into the last tile,
    // empty trailing sections everywhere else).
    let (constr_vals, constr_offs) = build_constraint_rows(&layout, &mut rng);
    SourceHasher::feed_f64(&mut src.att, &constr_vals);
    SourceHasher::feed_u64(&mut src.idx_att, &constr_offs);
    let last = writers.len() - 1;
    for (t, w) in writers.iter_mut().enumerate() {
        if t == last {
            w.write_f64s(&constr_vals)?;
            w.write_u64s(&constr_offs)?;
        } else {
            w.write_f64s(&[])?;
            w.write_u64s(&[])?;
        }
    }
    let metas: Vec<TileMeta> = writers
        .into_iter()
        .zip(spans.iter())
        .map(|(w, span)| w.finish(span))
        .collect::<Result<_, _>>()?;

    // RHS phase. For a consistent right-hand side, each finished tile is
    // re-read (checksum-verified) and its local `row_dot` used — entry
    // order within a row matches the in-memory `row_dot`, so the sums
    // are bit-identical.
    let mut b = vec![0.0f64; n_rows];
    match config.rhs {
        Rhs::Random => {
            for slot in b.iter_mut() {
                *slot = rng.gen_range(-1.0..1.0);
            }
        }
        Rhs::FromTrueSolution { noise_sigma } => {
            let x_true: Vec<f64> = (0..layout.n_cols())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut x_local = Vec::new();
            for (span, meta) in spans.iter().zip(metas.iter()) {
                let block = read_tile(dir, &layout, meta)?;
                block.gather_cols_into(&x_true, &mut x_local);
                let row0 = span.star0 as usize * obs;
                for local_row in 0..block.system.n_rows() {
                    b[row0 + local_row] = block.system.row_dot(local_row, &x_local)
                        + if noise_sigma > 0.0 {
                            noise_sigma * gaussian(&mut rng)
                        } else {
                            0.0
                        };
                }
            }
        }
    }
    SourceHasher::feed_f64(&mut src.known, &b);
    let known_checksum = write_known_terms(dir, &b)?;

    let manifest = TileManifest {
        format: TILE_FORMAT.to_string(),
        layout,
        seed: Some(config.seed),
        tile_stars,
        n_tiles: spans.len(),
        matrix_fingerprint: combine_fingerprint(&metas, parse_hex_or_zero(&known_checksum)),
        source_fingerprint: hex(src.finish(&layout)),
        tiles: metas,
        known_terms_checksum: known_checksum,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// TiledSystem
// ---------------------------------------------------------------------------

/// An on-disk tiled system: manifest + known terms in memory (vectors
/// are small), matrix tiles streamed through a budget-bounded
/// [`TileCache`].
#[derive(Debug)]
pub struct TiledSystem {
    dir: PathBuf,
    manifest: TileManifest,
    known_terms: Vec<f64>,
    cache: Mutex<TileCache<RowBlock>>,
}

impl TiledSystem {
    /// Open a tile directory with an unbounded budget.
    pub fn open(dir: &Path) -> Result<Self, TileError> {
        Self::open_with_budget(dir, CapacityBudget::unbounded())
    }

    /// Open a tile directory with a resident-bytes budget. A budget
    /// smaller than the largest tile is rejected up front with
    /// [`TileError::BudgetTooSmall`] — better than thrashing forever.
    pub fn open_with_budget(dir: &Path, budget: CapacityBudget) -> Result<Self, TileError> {
        let manifest = read_manifest(dir)?;
        if let Some(limit) = budget.limit() {
            let largest = manifest
                .tiles
                .iter()
                .map(|m| Self::tile_resident_bytes_of(&manifest.layout, m))
                .max()
                .unwrap_or(0);
            if largest > limit {
                return Err(TileError::BudgetTooSmall {
                    limit,
                    tile_bytes: largest,
                });
            }
        }
        let known_terms = read_known_terms(dir, &manifest.known_terms_checksum)?;
        if known_terms.len() != manifest.layout.n_rows() as usize {
            return Err(TileError::InvalidShape {
                message: format!(
                    "known terms has {} rows, layout expects {}",
                    known_terms.len(),
                    manifest.layout.n_rows()
                ),
            });
        }
        Ok(TiledSystem {
            dir: dir.to_path_buf(),
            manifest,
            known_terms,
            cache: Mutex::new(TileCache::new(budget)),
        })
    }

    /// In-memory bytes of a resident tile, known a priori from its shape:
    /// this — not the on-disk file size — is what the budget accounts.
    fn tile_resident_bytes_of(layout: &SystemLayout, meta: &TileMeta) -> u64 {
        device_bytes(&local_layout(layout, meta))
    }

    /// The manifest describing this tile directory.
    pub fn manifest(&self) -> &TileManifest {
        &self.manifest
    }

    /// Directory the tiles live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shape of the full (assembled) system.
    pub fn layout(&self) -> &SystemLayout {
        &self.manifest.layout
    }

    /// Total rows of the assembled system.
    pub fn n_rows(&self) -> usize {
        self.manifest.layout.n_rows() as usize
    }

    /// Observation rows of the assembled system.
    pub fn n_obs_rows(&self) -> usize {
        self.manifest.layout.n_obs_rows() as usize
    }

    /// Total unknowns.
    pub fn n_cols(&self) -> usize {
        self.manifest.layout.n_cols() as usize
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.manifest.n_tiles
    }

    /// Known terms `b` (held in memory — vectors are `O(rows)`, only the
    /// matrix is tiled).
    pub fn known_terms(&self) -> &[f64] {
        &self.known_terms
    }

    /// Resident bytes of tile `t` once loaded.
    pub fn tile_bytes(&self, t: usize) -> u64 {
        Self::tile_resident_bytes_of(&self.manifest.layout, &self.manifest.tiles[t])
    }

    /// Total resident bytes of the whole matrix (the "matrix bytes" the
    /// capacity sweep scales its budgets from).
    pub fn matrix_bytes(&self) -> u64 {
        (0..self.n_tiles()).map(|t| self.tile_bytes(t)).sum()
    }

    /// The smallest budget that can hold at least one tile.
    pub fn min_budget(&self) -> u64 {
        (0..self.n_tiles())
            .map(|t| self.tile_bytes(t))
            .max()
            .unwrap_or(0)
    }

    /// Fetch tile `t`, loading (and possibly evicting) through the
    /// budget-bounded cache. The returned [`TileAccess`] reports what
    /// the access cost so callers can record telemetry.
    pub fn tile(&self, t: usize) -> Result<(Arc<RowBlock>, TileAccess), TileError> {
        let bytes = self.tile_bytes(t);
        let mut cache = match self.cache.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        cache.get_or_load(t, bytes, || {
            read_tile(&self.dir, &self.manifest.layout, &self.manifest.tiles[t])
        })
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> TileCacheStats {
        match self.cache.lock() {
            Ok(c) => c.stats(),
            Err(poisoned) => poisoned.into_inner().stats(),
        }
    }

    /// Column 2-norms of the assembled matrix, accumulated tile by tile
    /// in global row order — per column, the additions happen in exactly
    /// the order [`SparseSystem::column_norms`] uses, so the result is
    /// bitwise identical to the in-memory computation.
    pub fn column_norms(&self) -> Result<Vec<f64>, TileError> {
        let mut sq = vec![0.0f64; self.n_cols()];
        for t in 0..self.n_tiles() {
            let (block, _) = self.tile(t)?;
            let astro0 = (block.star0 * u64::from(ASTRO_PARAMS_PER_STAR)) as usize;
            let shared0 = block.parent_astro_cols as usize;
            block.system.add_column_squares(&mut sq, astro0, shared0);
        }
        Ok(sq.iter().map(|&s| s.sqrt()).collect())
    }

    /// Assemble the full in-memory system from the tiles (for round-trip
    /// verification; defeats the point of tiling otherwise).
    pub fn assemble(&self) -> Result<SparseSystem, TileError> {
        let layout = self.manifest.layout;
        let n_obs = layout.n_obs_rows() as usize;
        let n_rows = layout.n_rows() as usize;
        let glob = layout.n_glob_params as usize;
        let mut values_astro = Vec::with_capacity(n_obs * ASTRO_NNZ_PER_ROW);
        let mut values_att = Vec::with_capacity(n_rows * ATT_NNZ_PER_ROW);
        let mut values_instr = Vec::with_capacity(n_obs * INSTR_NNZ_PER_ROW);
        let mut values_glob = Vec::with_capacity(n_obs * glob);
        let mut idx_astro = Vec::with_capacity(n_obs);
        let mut idx_att = Vec::with_capacity(n_rows);
        let mut instr_col = Vec::with_capacity(n_obs * INSTR_NNZ_PER_ROW);
        for t in 0..self.n_tiles() {
            let (block, _) = self.tile(t)?;
            let s = &block.system;
            // Only the last tile has constraint rows, after its observation
            // rows: tile after tile, the attitude arrays come out in parent
            // row order.
            values_astro.extend_from_slice(s.values_astro());
            values_att.extend_from_slice(s.values_att());
            values_instr.extend_from_slice(s.values_instr());
            values_glob.extend_from_slice(s.values_glob());
            idx_astro.extend(
                s.matrix_index_astro()
                    .iter()
                    .map(|&l| l + block.star0 * u64::from(ASTRO_PARAMS_PER_STAR)),
            );
            idx_att.extend_from_slice(s.matrix_index_att());
            instr_col.extend_from_slice(s.instr_col());
        }
        SparseSystem::from_parts(
            layout,
            values_astro,
            values_att,
            values_instr,
            values_glob,
            idx_astro,
            idx_att,
            instr_col,
            self.known_terms.clone(),
        )
        .map_err(|e| TileError::InvalidShape {
            message: format!("assembled system invalid: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gaia-tiled-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_sys(seed: u64) -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(seed)).generate()
    }

    #[test]
    fn write_then_assemble_is_bit_exact() {
        let dir = tmp_dir("round-trip");
        let sys = tiny_sys(11);
        let manifest = write_tiles(&sys, &dir, 2).unwrap();
        assert_eq!(manifest.n_tiles, 3);
        let tiled = TiledSystem::open(&dir).unwrap();
        let back = tiled.assemble().unwrap();
        assert_eq!(back.values_astro(), sys.values_astro());
        assert_eq!(back.values_att(), sys.values_att());
        assert_eq!(back.values_instr(), sys.values_instr());
        assert_eq!(back.values_glob(), sys.values_glob());
        assert_eq!(back.matrix_index_astro(), sys.matrix_index_astro());
        assert_eq!(back.matrix_index_att(), sys.matrix_index_att());
        assert_eq!(back.instr_col(), sys.instr_col());
        assert_eq!(back.known_terms(), sys.known_terms());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uneven_tile_split_covers_every_star() {
        let dir = tmp_dir("uneven");
        let sys = tiny_sys(12);
        // 6 stars into tiles of 4: tiles of 4 and 2 stars.
        let manifest = write_tiles(&sys, &dir, 4).unwrap();
        assert_eq!(manifest.n_tiles, 2);
        assert_eq!(manifest.tiles[0].star1 - manifest.tiles[0].star0, 4);
        assert_eq!(manifest.tiles[1].star1 - manifest.tiles[1].star0, 2);
        assert_eq!(manifest.tiles[1].constraint_rows, 3);
        let back = TiledSystem::open(&dir).unwrap().assemble().unwrap();
        assert_eq!(back.known_terms(), sys.known_terms());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_generation_matches_write_tiles_byte_for_byte() {
        let layout = SystemLayout::tiny();
        for seed in [0u64, 7, 42] {
            let cfg = GeneratorConfig::new(layout).seed(seed);
            let dir_mem = tmp_dir(&format!("mem-{seed}"));
            let dir_str = tmp_dir(&format!("str-{seed}"));
            let sys = Generator::new(cfg).generate();
            let m_mem = write_tiles(&sys, &dir_mem, 2).unwrap();
            let m_str = Generator::new(cfg).generate_tiled(&dir_str, 2).unwrap();
            assert_eq!(m_str.seed, Some(seed));
            for (a, b) in m_mem.tiles.iter().zip(m_str.tiles.iter()) {
                assert_eq!(a.checksum, b.checksum, "tile {} differs", a.index);
                assert_eq!(a.bytes, b.bytes);
            }
            assert_eq!(m_mem.known_terms_checksum, m_str.known_terms_checksum);
            assert_eq!(m_mem.matrix_fingerprint, m_str.matrix_fingerprint);
            assert_eq!(m_mem.source_fingerprint, m_str.source_fingerprint);
            // And the assembled streamed system equals the in-memory one.
            let back = TiledSystem::open(&dir_str).unwrap().assemble().unwrap();
            assert_eq!(back.values_astro(), sys.values_astro());
            assert_eq!(back.known_terms(), sys.known_terms());
            std::fs::remove_dir_all(&dir_mem).ok();
            std::fs::remove_dir_all(&dir_str).ok();
        }
    }

    #[test]
    fn streamed_generation_random_rhs_matches_in_memory() {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(5)
            .rhs(Rhs::Random);
        let dir = tmp_dir("random-rhs");
        let sys = Generator::new(cfg).generate();
        Generator::new(cfg).generate_tiled(&dir, 3).unwrap();
        let back = TiledSystem::open(&dir).unwrap().assemble().unwrap();
        assert_eq!(back.known_terms(), sys.known_terms());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flip one bit of `victim`, load `tile` through a fresh
    /// [`TiledSystem`], restore the file, and return the error.
    fn load_with_flipped_bit(dir: &Path, victim: &Path, byte: usize, tile: usize) -> TileError {
        let good = std::fs::read(victim).unwrap();
        let mut bad = good.clone();
        bad[byte] ^= 0x10;
        std::fs::write(victim, bad).unwrap();
        let err = TiledSystem::open(dir).and_then(|t| t.tile(tile).map(|_| ()));
        std::fs::write(victim, good).unwrap();
        err.expect_err("a flipped bit must not load")
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_tile_file_is_a_checksum_mismatch_naming_the_path() {
        let dir = tmp_dir("corrupt");
        let sys = tiny_sys(13);
        let manifest = write_tiles(&sys, &dir, 2).unwrap();
        // The last tile carries the constraint rows, so none of its nine
        // array sections is empty.
        let last = manifest.n_tiles - 1;
        let victim = dir.join(TileManifest::tile_file_name(last));
        let bytes = std::fs::read(&victim).unwrap();
        let tail = bytes.len() % BLOCK;
        assert!(tail > 0, "fixture must end in a partial checksum block");

        // One byte in the header, then the length prefix and the middle
        // of the payload of every array section, found by walking the file.
        let header = 4 + 4 + 4 * 8;
        let mut targets = vec![("header", 9)];
        let mut at = header;
        for (section, width) in [8, 8, 8, 8, 8, 8, 4, 8, 8].into_iter().enumerate() {
            let mut len = [0u8; 8];
            len.copy_from_slice(&bytes[at..at + 8]);
            let payload = u64::from_le_bytes(len) as usize * width;
            assert!(payload > 0, "section {section} of the last tile is empty");
            targets.push(("length prefix", at));
            targets.push(("payload", at + 8 + payload / 2));
            at += 8 + payload;
        }
        assert_eq!(
            at,
            bytes.len(),
            "section walk must end at the end of the file"
        );
        targets.push(("tail block", bytes.len() - tail));
        targets.push(("last byte", bytes.len() - 1));

        for (what, byte) in targets {
            let err = load_with_flipped_bit(&dir, &victim, byte, last);
            match &err {
                TileError::ChecksumMismatch { path, .. } => {
                    assert_eq!(path, &victim, "{what}: error must name the corrupted tile");
                }
                other => panic!("{what} (byte {byte}): expected ChecksumMismatch, got {other}"),
            }
            assert!(err
                .to_string()
                .contains(&TileManifest::tile_file_name(last)));
        }
        // The file was restored after every flip: it loads again.
        TiledSystem::open(&dir).unwrap().tile(last).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_bit_flip_of_a_tile_file_changes_the_checksum() {
        let dir = tmp_dir("every-bit");
        write_tiles(&tiny_sys(19), &dir, 2).unwrap();
        let mut bytes = std::fs::read(dir.join(TileManifest::tile_file_name(0))).unwrap();
        // Both code paths of the hasher: whole blocks and a byte-wise tail.
        bytes.truncate(bytes.len() - bytes.len() % BLOCK + 7);
        let clean = hash_bytes(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                hash_bytes(&bytes),
                clean,
                "flipping bit {bit} went unnoticed"
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a `gaia-tiles/v1` writer left behind: same manifest shape,
    /// older format string, byte-wise FNV-1a checksums.
    const V1_MANIFEST: &str = r#"{
  "format": "gaia-tiles/v1",
  "layout": {"n_stars": 6, "obs_per_star": 8, "n_deg_freedom_att": 16,
             "n_instr_params": 12, "n_glob_params": 1, "n_constraint_rows": 3},
  "seed": 13,
  "tile_stars": 6,
  "n_tiles": 1,
  "tiles": [{"index": 0, "star0": 0, "star1": 6, "constraint_rows": 3,
             "bytes": 10512, "checksum": "8c1f0a6d2b3e4f50"}],
  "known_terms_checksum": "1d2c3b4a59687766",
  "matrix_fingerprint": "0123456789abcdef",
  "source_fingerprint": "fedcba9876543210"
}"#;

    fn assert_refused_as_stale(err: &TileError, at: &Path, found: &str, expected: &str) {
        match err {
            TileError::Format { path, message } => {
                assert_eq!(path, at, "error must name the stale file");
                for needle in [found, expected, "regenerate"] {
                    assert!(message.contains(needle), "{message:?} lacks {needle:?}");
                }
            }
            other => panic!("expected a Format error, got {other}"),
        }
    }

    #[test]
    fn a_v1_manifest_is_refused_with_a_regenerate_hint() {
        let dir = tmp_dir("v1-manifest");
        let manifest_path = dir.join(MANIFEST_NAME);
        std::fs::write(&manifest_path, V1_MANIFEST).unwrap();
        let err = TiledSystem::open(&dir).unwrap_err();
        assert_refused_as_stale(&err, &manifest_path, "gaia-tiles/v1", TILE_FORMAT);
        assert_eq!(
            std::fs::read_to_string(&manifest_path).unwrap(),
            V1_MANIFEST,
            "a refused spill must be left as it was"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_tile_and_known_terms_files_are_refused_by_version() {
        // A v2 manifest pointing at version-1 containers whose checksums
        // match: the version field, not the checksum, must refuse them.
        fn downgrade(path: &Path) -> String {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(path, &bytes).unwrap();
            hex(hash_bytes(&bytes))
        }
        let dir = tmp_dir("v1-files");
        let mut manifest = write_tiles(&tiny_sys(20), &dir, 2).unwrap();
        let tile_path = dir.join(TileManifest::tile_file_name(0));
        manifest.tiles[0].checksum = downgrade(&tile_path);
        write_manifest(&dir, &manifest).unwrap();
        let err = TiledSystem::open(&dir).unwrap().tile(0).unwrap_err();
        assert_refused_as_stale(&err, &tile_path, "1", "2");

        let known_path = dir.join(KNOWN_TERMS_NAME);
        manifest.known_terms_checksum = downgrade(&known_path);
        write_manifest(&dir, &manifest).unwrap();
        let err = TiledSystem::open(&dir).unwrap_err();
        assert_refused_as_stale(&err, &known_path, "1", "2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undersized_budget_is_a_typed_error_not_a_thrash() {
        let dir = tmp_dir("undersized");
        let sys = tiny_sys(14);
        write_tiles(&sys, &dir, 2).unwrap();
        let err = TiledSystem::open_with_budget(&dir, CapacityBudget::limited(16)).unwrap_err();
        assert!(matches!(err, TileError::BudgetTooSmall { limit: 16, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounded_budget_evicts_and_respects_peak() {
        let dir = tmp_dir("bounded");
        let sys = tiny_sys(15);
        write_tiles(&sys, &dir, 1).unwrap(); // 6 one-star tiles
        let unb = TiledSystem::open(&dir).unwrap();
        let budget = unb.min_budget() * 2; // room for ~2 tiles
        let tiled = TiledSystem::open_with_budget(&dir, CapacityBudget::limited(budget)).unwrap();
        for t in 0..tiled.n_tiles() {
            tiled.tile(t).unwrap();
        }
        let stats = tiled.stats();
        assert!(stats.evictions >= 1, "bounded pass must evict: {stats:?}");
        assert!(
            stats.peak_resident_bytes <= budget,
            "peak {} over budget {budget}",
            stats.peak_resident_bytes
        );
        // Second pass over all tiles: the first pass evicted only the tile
        // it had just used, so the early tiles are still there to be hit,
        // and the peak holds.
        for t in 0..tiled.n_tiles() {
            tiled.tile(t).unwrap();
        }
        let again = tiled.stats();
        assert!(again.hits > stats.hits, "second scan never hit: {again:?}");
        assert!(again.peak_resident_bytes <= budget);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_takes_the_tile_used_last() {
        let mut cache: TileCache<u64> = TileCache::new(CapacityBudget::limited(20));
        cache.get_or_load(0, 10, || Ok(0)).unwrap();
        cache.get_or_load(1, 10, || Ok(1)).unwrap();
        // Loading 2 makes room by dropping 1, the tile used last; 0, whose
        // next use in a cyclic scan is nearest, stays.
        let (_, acc) = cache.get_or_load(2, 10, || Ok(2)).unwrap();
        assert_eq!((acc.evictions, acc.evicted_bytes), (1, 10));
        assert_eq!(acc.peak_resident_bytes, 20);
        // A tile just returned is resident: asking again is a hit.
        let (_, acc2) = cache
            .get_or_load(2, 10, || panic!("2 was just loaded"))
            .unwrap();
        assert!(acc2.hit);
        let (_, acc0) = cache
            .get_or_load(0, 10, || panic!("0 must have survived"))
            .unwrap();
        assert!(acc0.hit);
        // The hit made 0 the tile used last, so reloading 1 drops 0.
        cache.get_or_load(1, 10, || Ok(1)).unwrap();
        let (_, acc0) = cache.get_or_load(0, 10, || Ok(0)).unwrap();
        assert!(!acc0.hit, "0 was the tile used last when 1 came back");
        let stats = cache.stats();
        assert_eq!((stats.loads, stats.hits, stats.evictions), (5, 2, 3));
        assert_eq!(stats.resident_tiles, 2);
        assert!(stats.peak_resident_bytes <= 20);
    }

    #[test]
    fn budget_charge_release_accounting() {
        let mut b = CapacityBudget::limited(100);
        b.charge(60).unwrap();
        assert!(matches!(
            b.charge(50),
            Err(TileError::BudgetExceeded {
                limit: 100,
                used: 60,
                requested: 50
            })
        ));
        assert_eq!(b.used(), 60, "failed charge must not change accounting");
        b.release(60);
        b.charge(50).unwrap();
        assert_eq!(b.peak(), 60);
        assert!(matches!(
            b.charge(101),
            Err(TileError::BudgetTooSmall {
                limit: 100,
                tile_bytes: 101
            })
        ));
        let mut unb = CapacityBudget::unbounded();
        unb.charge(u64::MAX / 2).unwrap();
        assert!(unb.fits(u64::MAX / 4));
    }

    #[test]
    fn stale_manifest_detects_mutation_after_write() {
        let dir = tmp_dir("stale");
        let mut sys = tiny_sys(16);
        let manifest = write_tiles(&sys, &dir, 2).unwrap();
        manifest.verify_matches(&sys).unwrap();
        sys.scale_column(0, 2.0);
        let err = manifest.verify_matches(&sys).unwrap_err();
        assert!(matches!(err, TileError::StaleManifest { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn column_norms_match_in_memory_bitwise() {
        let dir = tmp_dir("norms");
        let sys = tiny_sys(17);
        write_tiles(&sys, &dir, 2).unwrap();
        let tiled = TiledSystem::open_with_budget(&dir, CapacityBudget::limited(u64::MAX)).unwrap();
        let tiled_norms = tiled.column_norms().unwrap();
        let mem_norms = sys.column_norms();
        assert_eq!(tiled_norms, mem_norms);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_gather_scatter_round_trip() {
        let dir = tmp_dir("gather");
        let sys = tiny_sys(18);
        write_tiles(&sys, &dir, 2).unwrap();
        let tiled = TiledSystem::open(&dir).unwrap();
        let (block, _) = tiled.tile(1).unwrap();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| i as f64 + 0.5).collect();
        let mut local = Vec::new();
        block.gather_cols_into(&x, &mut local);
        assert_eq!(local.len(), block.system.n_cols());
        for (l, &v) in local.iter().enumerate() {
            assert_eq!(v, x[block.global_col(l as u64) as usize]);
        }
        let mut back = x.clone();
        block.scatter_cols(&local, &mut back);
        assert_eq!(back, x);
        block.add_cols_into(&local, &mut back);
        for (l, &v) in local.iter().enumerate() {
            assert_eq!(back[block.global_col(l as u64) as usize], 2.0 * v);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        /// Streamed generation writes a tile in many pieces of any size;
        /// a load hashes it in one. Both must produce the same digest
        /// wherever the pieces happen to end.
        #[test]
        fn streamed_checksum_equals_the_one_shot_digest_for_any_write_split(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
            cuts in proptest::collection::vec(0usize..80, 0..40),
        ) {
            let mut w = HashingWriter::new(Vec::new());
            let mut rest: &[u8] = &bytes;
            for cut in cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                w.write_all(piece).unwrap();
                rest = tail;
            }
            w.write_all(rest).unwrap();
            proptest::prop_assert_eq!(w.bytes, bytes.len() as u64);
            proptest::prop_assert_eq!(w.hash.finish(), hash_bytes(&bytes));
            proptest::prop_assert_eq!(&w.inner, &bytes);
        }
    }
}
