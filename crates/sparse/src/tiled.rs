//! Out-of-core tiled storage for paper-scale systems.
//!
//! The paper's production systems (10–60 GB benchmarks, ~306 GB in the
//! full AVU-GSR pipeline) do not fit the memory of a single device, so
//! capacity — not FLOPs — is the binding constraint (§V-B's T4-vs-H100
//! capacity gating). This module adds the storage layer that makes that
//! regime measurable on any machine: the observation matrix is split into
//! fixed-size **row tiles** spilled to an on-disk directory
//! (`gaia-tiles/v4`), and solves stream tiles through a bounded,
//! scan-aware cache ([`TileCache`]) whose every load and evict is
//! accounted by a [`CapacityBudget`].
//!
//! Key invariants:
//!
//! * **Tiles align to star boundaries.** Every tile covers a contiguous
//!   star range `star0..star1`, so its observation rows are a contiguous
//!   global row range and its astrometric columns are the contiguous
//!   `5·star0..5·star1`. Constraint rows fold into the last tile (their
//!   global rows follow the last tile's observation rows contiguously).
//!   A resident tile is therefore a [`RowBlock`] — the type
//!   [`SparseSystem::row_block`] returns for a distributed rank's rows —
//!   here over storage read from the tile file instead of shared with a
//!   resident parent. A tile file stores no astrometric columns: the tile
//!   derives them from its `star0`, as every row block does.
//! * **One container.** A tile file is a GAVU container holding one span
//!   (`io::write_span`), read back through the same function as
//!   a dataset; the known terms are a known-terms container. The manifest
//!   lists exactly the layout's tiles at `tile_stars`, and nothing else
//!   opens.
//! * **Bit-exact round trips.** Tile files store raw IEEE-754 bits; a
//!   [`TiledSystem::assemble`] of the tiles equals the source system
//!   array-for-array, and streamed generation
//!   ([`crate::Generator::generate_tiled`]) writes byte-identical files
//!   to [`write_tiles`] over the in-memory generator's output.
//! * **Tamper evidence.** Every section of a tile file carries its own
//!   digest, verified on **every** load, and the manifest records the fold
//!   of them; a corrupted tile is a hard error naming the tile path and
//!   the section.
//!   A mutate-after-tile-write ([`SparseSystem::scale_column`] and
//!   friends) is detected by [`TileManifest::verify_matches`], which
//!   digests what spilling the system again would write and compares it
//!   with the manifest, instead of silently solving stale data.
//! * **The budget binds.** The cache evicts *before* loading, so its
//!   ledger never exceeds the budget at any instant; a budget smaller
//!   than a single tile is a typed error
//!   ([`TileError::BudgetTooSmall`]), not a thrash loop. Eviction takes
//!   the tile used last (see [`TileCache`]), so the ledger is the memory
//!   actually held only while callers drop tile `t - 1` before asking for
//!   tile `t` — which every scan in this workspace does.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::footprint::resident_bytes;
use crate::generator::par_map;
use crate::io::{
    fnv, read_span, write_span, ContainerReader, ContainerWriter, IoError, Kind, FNV_OFFSET,
};
use crate::layout::SystemLayout;
use crate::system::{RowBlock, SparseSystem};

/// On-disk format identifier recorded in every manifest.
pub const TILE_FORMAT: &str = "gaia-tiles/v4";
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
    /// A file's bytes do not match a recorded digest: a section's own, or
    /// (section `digest fold`) the manifest's for the whole file.
    ChecksumMismatch {
        /// The corrupted file.
        path: PathBuf,
        /// The section whose bytes disagree.
        section: String,
        /// Digest recorded in the file or the manifest.
        expected: String,
        /// Digest of the bytes actually on disk.
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
                section,
                expected,
                actual,
            } => write!(
                f,
                "tile checksum mismatch at {}, section `{section}`: recorded {expected}, \
                 bytes hash to {actual}",
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

fn format_error(path: PathBuf, message: String) -> TileError {
    TileError::Format { path, message }
}

fn from_io_error(path: &Path, e: IoError) -> TileError {
    let path = path.to_path_buf();
    match e {
        IoError::Io(source) => TileError::Io { path, source },
        IoError::Format(message) | IoError::Invalid(message) => TileError::Format { path, message },
        IoError::Checksum {
            section,
            stored,
            computed,
        } => TileError::ChecksumMismatch {
            path,
            section,
            expected: hex(stored),
            actual: hex(computed),
        },
        IoError::File { path, source } => from_io_error(&path, *source),
    }
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
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
    /// Digest of the tile container (the fold of its section digests),
    /// hex-encoded.
    pub checksum: String,
}

/// The `gaia-tiles/v4` manifest: shape, provenance, and digests of a
/// tile directory. Its tiles are exactly the layout's at `tile_stars`.
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
    /// Per-tile metadata in tile order.
    pub tiles: Vec<TileMeta>,
    /// Digest of the known-terms container, hex-encoded.
    pub known_terms_checksum: String,
    /// Fold of every tile digest and the known-terms digest — the
    /// identity of the on-disk matrix, recorded in checkpoints.
    pub matrix_fingerprint: String,
}

impl TileManifest {
    /// Check that `sys` still matches the arrays these tiles were written
    /// from: its layout is the recorded one, and spilling it again at
    /// `tile_stars` — through the tile writer into a hash-only sink, no
    /// files — gives every recorded tile and known-terms digest. A mutated
    /// source (scaled column, permuted rows, replaced known terms) yields
    /// [`TileError::StaleManifest`].
    pub fn verify_matches(&self, sys: &SparseSystem) -> Result<(), TileError> {
        let stale = |what: String| TileError::StaleManifest {
            message: format!("{what} — the system was mutated after the tiles were written"),
        };
        if *sys.layout() != self.layout {
            let (now, recorded) = (sys.layout(), &self.layout);
            return Err(stale(format!(
                "source layout {now:?} != recorded {recorded:?}"
            )));
        }
        for (span, recorded) in tile_spans(&self.layout, self.tile_stars)
            .iter()
            .zip(&self.tiles)
        {
            let block = sys.row_block(span.star0..span.star1, span.constraint_rows > 0);
            let name = PathBuf::from(TileManifest::tile_file_name(span.index));
            let now =
                write_tile(io::sink(), &self.layout, span, &block.system).map_err(io_err(&name))?;
            if now.checksum != recorded.checksum {
                let (i, now, recorded) = (span.index, &now.checksum, &recorded.checksum);
                return Err(stale(format!(
                    "tile {i} checksum {now} != recorded {recorded}"
                )));
            }
        }
        let known = hex(crate::io::known_terms_digest(sys.known_terms()));
        if known != self.known_terms_checksum {
            let recorded = &self.known_terms_checksum;
            return Err(stale(format!(
                "known-terms checksum {known} != recorded {recorded}"
            )));
        }
        Ok(())
    }

    /// File name of tile `index`.
    pub fn tile_file_name(index: usize) -> String {
        format!("tile-{index:05}.bin")
    }
}

/// The matrix fingerprint: the tile digests, then the known-terms digest,
/// folded as a container folds its sections.
fn combine_fingerprint(tiles: &[TileMeta], known_checksum: u64) -> String {
    let tiles = tiles.iter().map(|t| parse_hex_or_zero(&t.checksum));
    hex(tiles.chain([known_checksum]).fold(FNV_OFFSET, fnv))
}

fn parse_hex_or_zero(s: &str) -> u64 {
    u64::from_str_radix(s, 16).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Tile geometry
// ---------------------------------------------------------------------------

/// The tiles of `layout` at `tile_stars` stars each, not yet written (no
/// size, no digest): the only tile list a manifest may hold.
pub(crate) fn tile_spans(layout: &SystemLayout, tile_stars: u64) -> Vec<TileMeta> {
    assert!(tile_stars >= 1, "tile_stars must be at least 1");
    let n_tiles = layout.n_stars.div_ceil(tile_stars) as usize;
    (0..n_tiles)
        .map(|index| {
            let star0 = index as u64 * tile_stars;
            let last = index + 1 == n_tiles;
            TileMeta {
                index,
                star0,
                star1: (star0 + tile_stars).min(layout.n_stars),
                constraint_rows: if last { layout.n_constraint_rows } else { 0 },
                bytes: 0,
                checksum: String::new(),
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

/// Write `block`, the rows of `span` in `parent`, as a tile container
/// into `w`. [`write_tiles`], streamed generation and
/// [`TileManifest::verify_matches`] all write through it, so all three
/// produce byte-identical tiles.
fn write_tile<W: Write>(
    w: W,
    parent: &SystemLayout,
    span: &TileMeta,
    block: &SparseSystem,
) -> io::Result<TileMeta> {
    let mut w = ContainerWriter::new(w, Kind::Tile)?;
    write_span(&mut w, parent, span.star0, block)?;
    let (bytes, digest) = w.finish()?;
    Ok(TileMeta {
        bytes,
        checksum: hex(digest),
        ..span.clone()
    })
}

/// Decode and verify a tile container: every section against its own
/// digest, the span against the manifest entry, and the fold of the
/// digests against the manifest's. The tile is a block in the parent's
/// column space.
fn decode_tile(
    path: &Path,
    bytes: &[u8],
    parent: &SystemLayout,
    meta: &TileMeta,
) -> Result<RowBlock, TileError> {
    let bad = |e| from_io_error(path, e);
    let mut r = ContainerReader::open(bytes, Kind::Tile).map_err(bad)?;
    let (span_parent, system) = read_span(&mut r, None).map_err(bad)?;
    let digest = r.finish().map_err(bad)?;
    // The tile's stars must be the parent's: its astrometric columns are
    // derived from them.
    let place = (span_parent, system.star0(), *system.layout());
    if place != (*parent, meta.star0, local_layout(parent, meta)) {
        let message = format!("tile span {place:?} disagrees with the manifest entry {meta:?}");
        return Err(format_error(path.to_path_buf(), message));
    }
    recorded(path, &meta.checksum, digest)?;
    let row0 = (meta.star0 * parent.obs_per_star) as usize;
    Ok(RowBlock {
        rows: row0..row0 + system.n_rows(),
        system,
    })
}

fn read_tile(dir: &Path, parent: &SystemLayout, meta: &TileMeta) -> Result<RowBlock, TileError> {
    let path = dir.join(TileManifest::tile_file_name(meta.index));
    let bytes = std::fs::read(&path).map_err(io_err(&path))?;
    decode_tile(&path, &bytes, parent, meta)
}

fn write_known_terms(dir: &Path, b: &[f64]) -> Result<String, TileError> {
    let path = dir.join(KNOWN_TERMS_NAME);
    let file = std::fs::File::create(&path).map_err(io_err(&path))?;
    let (_, digest) =
        crate::io::write_known_terms(io::BufWriter::new(file), b).map_err(io_err(&path))?;
    Ok(hex(digest))
}

fn read_known_terms(dir: &Path, expected_checksum: &str) -> Result<Vec<f64>, TileError> {
    let path = dir.join(KNOWN_TERMS_NAME);
    let bytes = std::fs::read(&path).map_err(io_err(&path))?;
    let (b, digest) = crate::io::read_known_terms(&bytes).map_err(|e| from_io_error(&path, e))?;
    recorded(&path, expected_checksum, digest)?;
    Ok(b)
}

/// Every section of a file checked out: its digest must be the one the
/// manifest recorded, or it is some other valid file.
fn recorded(path: &Path, expected: &str, digest: u64) -> Result<(), TileError> {
    if hex(digest) == expected {
        return Ok(());
    }
    Err(TileError::ChecksumMismatch {
        path: path.to_path_buf(),
        section: "digest fold".into(),
        expected: expected.to_string(),
        actual: hex(digest),
    })
}

fn write_manifest(dir: &Path, manifest: &TileManifest) -> Result<(), TileError> {
    let path = dir.join(MANIFEST_NAME);
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| format_error(path.clone(), format!("cannot serialize manifest: {e}")))?;
    std::fs::write(&path, json).map_err(io_err(&path))
}

/// An older spill is refused, not read: spill directories are regenerable
/// (and a checkpoint taken against one is already rejected by its matrix
/// fingerprint), so there is exactly one reader. A manifest must list
/// exactly its layout's tiles at `tile_stars`, in order.
fn read_manifest(dir: &Path) -> Result<TileManifest, TileError> {
    let path = dir.join(MANIFEST_NAME);
    let json = std::fs::read_to_string(&path).map_err(io_err(&path))?;
    let manifest: TileManifest = serde_json::from_str(&json)
        .map_err(|e| format_error(path.clone(), format!("cannot parse manifest: {e}")))?;
    if manifest.format != TILE_FORMAT {
        let found = &manifest.format;
        return Err(format_error(
            path,
            format!(
                "format {found:?} (expected {TILE_FORMAT:?}): spill directories are \
                 regenerable — delete this one and regenerate it"
            ),
        ));
    }
    let layout = &manifest.layout;
    layout
        .validate()
        .map_err(|e| format_error(path.clone(), format!("manifest layout invalid: {e}")))?;
    let place = |m: &TileMeta| (m.index, m.star0, m.star1, m.constraint_rows);
    let (listed, stars) = (manifest.tiles.len(), manifest.tile_stars);
    let own = stars > 0
        && layout.n_stars.div_ceil(stars) == listed as u64
        && (manifest.tiles.iter().map(place)).eq(tile_spans(layout, stars).iter().map(place));
    if !own {
        let msg = format!("{listed} tile entries are not the layout's tiles of {stars} stars");
        return Err(format_error(path, msg));
    }
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Writing a spill
// ---------------------------------------------------------------------------

/// Spill an in-memory system into a `gaia-tiles/v4` directory with
/// `tile_stars` stars per tile. Uses the same writer as streamed
/// generation, so the tile files (and their digests) are byte-identical
/// to what [`crate::Generator::generate_tiled`] would produce for the
/// same system.
pub fn write_tiles(
    sys: &SparseSystem,
    dir: &Path,
    tile_stars: u64,
) -> Result<TileManifest, TileError> {
    let n_stars = sys.layout().n_stars;
    spill(dir, *sys.layout(), tile_stars, None, 1, |stars| {
        sys.row_block(stars.clone(), stars.end == n_stars).system
    })
}

/// Write a `gaia-tiles/v4` spill of `layout` with `tile_stars` stars per
/// tile into `dir`, in waves of `workers` tiles: `rows` gives the rows of
/// a wave's stars — and of the constraint rows when they end the system —
/// as a system in the parent's column space with its known terms, and
/// `workers` threads write the wave's tiles, one per job. The calling
/// thread owns every large buffer, so no worker's allocator keeps a
/// tile's worth of freed memory. The known terms and the manifest follow.
pub(crate) fn spill(
    dir: &Path,
    layout: SystemLayout,
    tile_stars: u64,
    seed: Option<u64>,
    workers: usize,
    mut rows: impl FnMut(Range<u64>) -> SparseSystem,
) -> Result<TileManifest, TileError> {
    if tile_stars == 0 {
        return Err(TileError::InvalidShape {
            message: "tile_stars must be at least 1".to_string(),
        });
    }
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let (mut tiles, mut b) = (Vec::new(), Vec::new());
    for wave in tile_spans(&layout, tile_stars).chunks(workers.max(1)) {
        let (first, last) = (wave[0].star0, wave[wave.len() - 1].star1);
        let block = rows(first..last);
        b.extend_from_slice(block.known_terms());
        let written = par_map(wave.to_vec(), workers, |span| {
            let stars = span.star0 - first..span.star1 - first;
            let view = block.row_block(stars, span.constraint_rows > 0);
            let path = dir.join(TileManifest::tile_file_name(span.index));
            let file = std::fs::File::create(&path).map_err(io_err(&path))?;
            write_tile(io::BufWriter::new(file), &layout, &span, &view.system)
                .map_err(io_err(&path))
        });
        tiles.extend(written.into_iter().collect::<Result<Vec<_>, _>>()?);
    }
    let known_terms_checksum = write_known_terms(dir, &b)?;
    let matrix_fingerprint = combine_fingerprint(&tiles, parse_hex_or_zero(&known_terms_checksum));
    let manifest = TileManifest {
        format: TILE_FORMAT.to_string(),
        layout,
        seed,
        tile_stars,
        matrix_fingerprint,
        tiles,
        known_terms_checksum,
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
        resident_bytes(&local_layout(layout, meta))
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
        self.manifest.tiles.len()
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
            block.system.add_column_squares(&mut sq);
        }
        Ok(sq.iter().map(|&s| s.sqrt()).collect())
    }

    /// Assemble the full in-memory system from the tiles (for round-trip
    /// verification; defeats the point of tiling otherwise).
    pub fn assemble(&self) -> Result<SparseSystem, TileError> {
        // Only the last tile has constraint rows, after its observation
        // rows: tile after tile, the attitude arrays come out in parent row
        // order.
        let invalid = |e| TileError::InvalidShape {
            message: format!("assembled system invalid: {e}"),
        };
        let mut f64s: [Vec<f64>; 4] = Default::default();
        let mut u32s: [Vec<u32>; 2] = Default::default();
        for t in 0..self.n_tiles() {
            let (block, _) = self.tile(t)?;
            let s = &block.system;
            let parts = [
                s.values_astro(),
                s.values_att(),
                s.values_instr(),
                s.values_glob(),
            ];
            f64s.iter_mut()
                .zip(parts)
                .for_each(|(all, part)| all.extend_from_slice(part));
            let parts = [s.matrix_index_att(), s.instr_col()];
            u32s.iter_mut()
                .zip(parts)
                .for_each(|(all, part)| all.extend_from_slice(part));
        }
        let ([astro, att, instr, glob], [offs, cols]) = (f64s, u32s);
        let b = self.known_terms.clone();
        SparseSystem::from_parts(self.manifest.layout, astro, att, instr, glob, offs, cols, b)
            .map_err(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig, Rhs};

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
        assert_eq!(manifest.tiles.len(), 3);
        let tiled = TiledSystem::open(&dir).unwrap();
        let back = tiled.assemble().unwrap();
        assert_eq!(back.values_astro(), sys.values_astro());
        assert_eq!(back.values_att(), sys.values_att());
        assert_eq!(back.values_instr(), sys.values_instr());
        assert_eq!(back.values_glob(), sys.values_glob());
        assert_eq!(back.matrix_index_att(), sys.matrix_index_att());
        assert_eq!(back.instr_col(), sys.instr_col());
        assert_eq!(back.known_terms(), sys.known_terms());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A zero tile height is a typed error from both spill writers, and
    /// it comes before the directory is created.
    #[test]
    fn a_zero_tile_height_is_refused_before_anything_is_created() {
        let root = tmp_dir("zero-height");
        let (mem, streamed) = (root.join("mem"), root.join("streamed"));
        let refused = [
            write_tiles(&tiny_sys(1), &mem, 0),
            Generator::new(GeneratorConfig::new(SystemLayout::tiny())).generate_tiled(&streamed, 0),
        ];
        for (result, dir) in refused.into_iter().zip([&mem, &streamed]) {
            match result {
                Err(TileError::InvalidShape { message }) => {
                    assert!(message.contains("tile_stars"), "{message}")
                }
                other => panic!("expected InvalidShape, got {other:?}"),
            }
            assert!(!dir.exists(), "{} was created", dir.display());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn uneven_tile_split_covers_every_star() {
        let dir = tmp_dir("uneven");
        let sys = tiny_sys(12);
        // 6 stars into tiles of 4: tiles of 4 and 2 stars.
        let manifest = write_tiles(&sys, &dir, 4).unwrap();
        assert_eq!(manifest.tiles.len(), 2);
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

    /// Bytes to flip in a container: two in the header, then the name,
    /// type code, count, mid-payload and last digest byte of every
    /// section, each with the section it belongs to.
    fn targets(bytes: &[u8]) -> Vec<(String, &'static str, usize)> {
        let mut targets = vec![("header".into(), "magic", 0), ("header".into(), "kind", 9)];
        for (name, at) in crate::io::tests::sections(bytes) {
            let parts = [
                ("name", 0),
                ("type", 8),
                ("count", 12),
                ("payload", at.len() / 2),
            ];
            for (what, offset) in parts {
                targets.push((name.clone(), what, at.start + offset));
            }
            targets.push((name, "digest", at.end - 1));
        }
        targets
    }

    /// A flipped bit in a dataset, a tile or the known terms is a typed
    /// error naming the file and the section: a checksum mismatch unless
    /// it hits the header, or makes a length run past the end of the file.
    /// (The checkpoint kind has the same test in `gaia-lsqr`.)
    #[test]
    fn a_flipped_bit_anywhere_in_a_tile_file_is_a_checksum_mismatch_naming_the_path() {
        let dir = tmp_dir("corrupt");
        let sys = tiny_sys(13);
        let manifest = write_tiles(&sys, &dir, 2).unwrap();
        // The last tile carries the constraint rows, so none of its array
        // sections is empty.
        let last = manifest.tiles.len() - 1;
        let tile = dir.join(TileManifest::tile_file_name(last));
        let known = dir.join(KNOWN_TERMS_NAME);
        for victim in [&tile, &known] {
            let bytes = std::fs::read(victim).unwrap();
            for (section, what, byte) in targets(&bytes) {
                let err = load_with_flipped_bit(&dir, victim, byte, last);
                let msg = err.to_string();
                for needle in [victim.display().to_string(), section.clone()] {
                    assert!(
                        msg.contains(&needle),
                        "{what} of {section}: {msg:?} lacks {needle:?}"
                    );
                }
                if section != "header" && what != "count" {
                    match &err {
                        TileError::ChecksumMismatch {
                            path, section: s, ..
                        } => {
                            assert_eq!((path, s), (victim, &section), "{what}");
                        }
                        other => {
                            panic!("{what} of {section}: expected ChecksumMismatch, got {other}")
                        }
                    }
                }
            }
        }
        // The files were restored after every flip: they load again.
        TiledSystem::open(&dir).unwrap().tile(last).unwrap();

        let dataset = dir.join("sys.gavu");
        crate::io::save_system(&sys, &dataset).unwrap();
        let good = std::fs::read(&dataset).unwrap();
        for (section, what, byte) in targets(&good) {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&dataset, &bad).unwrap();
            let msg = crate::io::load_system(&dataset).unwrap_err().to_string();
            for needle in [dataset.display().to_string(), section.clone()] {
                assert!(
                    msg.contains(&needle),
                    "{what} of {section}: {msg:?} lacks {needle:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every single-bit flip of a tile, of the known terms and of a dataset
    /// is refused, by an error that names the section the bit is in. An
    /// unoptimized build gives the dataset (the same sections, read by the
    /// same functions) every bit of its header, section heads and digests
    /// and one bit in every seventh payload byte: all of them take ~40 s
    /// there, and CI runs this crate's tests in release too.
    #[test]
    fn every_single_bit_flip_of_a_tile_file_changes_the_checksum() {
        let dir = tmp_dir("every-bit");
        let sys = tiny_sys(19);
        let manifest = write_tiles(&sys, &dir, 2).unwrap();
        let tile = dir.join(TileManifest::tile_file_name(0));
        let mut dataset = Vec::new();
        crate::io::write_system(&sys, &mut dataset).unwrap();
        type Refuse<'a> = &'a dyn Fn(&[u8]) -> Result<(), String>;
        let kinds: [(Vec<u8>, usize, Refuse); 3] = [
            (std::fs::read(&tile).unwrap(), 1, &|b| {
                let (layout, meta) = (&manifest.layout, &manifest.tiles[0]);
                decode_tile(&tile, b, layout, meta)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
            (
                std::fs::read(dir.join(KNOWN_TERMS_NAME)).unwrap(),
                1,
                &|b| {
                    crate::io::read_known_terms(b)
                        .map(drop)
                        .map_err(|e| e.to_string())
                },
            ),
            (dataset, if cfg!(debug_assertions) { 7 } else { 1 }, &|b| {
                crate::io::read_system(b)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        ];
        for (mut bytes, stride, refuse) in kinds {
            // Each byte's section, and whether it is payload.
            let mut owner = vec![("header".to_string(), false); crate::io::HEADER];
            for (name, at) in crate::io::tests::sections(&bytes) {
                let payload = at.start + crate::io::SECTION_HEAD..at.end - 8;
                owner.extend(at.map(|i| (format!("`{name}`"), payload.contains(&i))));
            }
            assert_eq!(owner.len(), bytes.len(), "the sections cover the file");
            for bit in 0..bytes.len() * 8 {
                let (section, payload) = &owner[bit / 8];
                if *payload && (bit / 8 % stride != 0 || (stride > 1 && bit % 8 != bit / 8 % 8)) {
                    continue;
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
                match refuse(&bytes) {
                    Ok(()) => panic!("flipping bit {bit} went unnoticed"),
                    Err(msg) => assert!(msg.contains(section.as_str()), "bit {bit}: {msg}"),
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest lists exactly its layout's tiles at `tile_stars`: one
    /// that lists tile 0 twice opened at the previous format and assembled
    /// stars 0–1 in place of 2–3; one with `tile_stars: 0` opened and then
    /// panicked on the first check against a system.
    #[test]
    fn a_manifest_that_does_not_list_its_own_tiles_is_refused() {
        let dir = tmp_dir("own-tiles");
        let manifest = write_tiles(&tiny_sys(22), &dir, 2).unwrap();
        let mut twice = manifest.clone();
        twice.tiles[1] = TileMeta {
            index: 1,
            ..twice.tiles[0].clone()
        };
        let zero = TileManifest {
            tile_stars: 0,
            ..manifest.clone()
        };
        for bad in [twice, zero] {
            write_manifest(&dir, &bad).unwrap();
            match TiledSystem::open(&dir).unwrap_err() {
                TileError::Format { path, .. } => assert_eq!(path, dir.join(MANIFEST_NAME)),
                other => panic!("expected a Format error naming the manifest, got {other}"),
            }
        }
        write_manifest(&dir, &manifest).unwrap();
        TiledSystem::open(&dir).unwrap().assemble().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a `gaia-tiles/v1` writer left behind: same manifest shape,
    /// older format string, byte-wise FNV-1a checksums. A `gaia-tiles/v2`
    /// or `/v3` manifest differs only in its format string (and in its
    /// tiles: `GTIL` containers, with `matrixIndexAstro` up to v2).
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
        for old in ["gaia-tiles/v1", "gaia-tiles/v2", "gaia-tiles/v3"] {
            let json = V1_MANIFEST.replace("gaia-tiles/v1", old);
            std::fs::write(&manifest_path, &json).unwrap();
            let err = TiledSystem::open(&dir).unwrap_err();
            assert_refused_as_stale(&err, &manifest_path, old, TILE_FORMAT);
            assert_eq!(
                std::fs::read_to_string(&manifest_path).unwrap(),
                json,
                "a refused spill must be left as it was"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_tile_and_known_terms_files_are_refused_by_version() {
        // A current manifest pointing at older containers: the header, not
        // a digest, must refuse them — GAVU versions 1 and 2, and the
        // `GTIL`/`GTKB` magics of the previous tile and known-terms files.
        fn downgrade(path: &Path, magic: &[u8; 4], version: u32) {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[..4].copy_from_slice(magic);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(path, &bytes).unwrap();
        }
        let expected = crate::io::FORMAT_VERSION.to_string();
        for (magic, version) in [(b"GAVU", 1u32), (b"GAVU", 2), (b"GTIL", 3), (b"GTKB", 3)] {
            let found = match magic {
                b"GAVU" => version.to_string(),
                _ => String::from_utf8_lossy(magic).into_owned(),
            };
            let dir = tmp_dir(&format!("{found}-files"));
            write_tiles(&tiny_sys(20), &dir, 2).unwrap();
            let tile_path = dir.join(TileManifest::tile_file_name(0));
            downgrade(&tile_path, magic, version);
            let err = TiledSystem::open(&dir).unwrap().tile(0).unwrap_err();
            assert_refused_as_stale(&err, &tile_path, &found, &expected);

            let known_path = dir.join(KNOWN_TERMS_NAME);
            downgrade(&known_path, magic, version);
            let err = TiledSystem::open(&dir).unwrap_err();
            assert_refused_as_stale(&err, &known_path, &found, &expected);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A manifest whose layout ends before a tile's last star is refused
    /// typed, not read into columns past the parent's.
    #[test]
    fn a_tile_past_the_layout_is_refused() {
        let dir = tmp_dir("past-layout");
        let mut manifest = write_tiles(&tiny_sys(21), &dir, 2).unwrap();
        manifest.layout.n_stars -= 1;
        let b = vec![0.0; manifest.layout.n_rows() as usize];
        manifest.known_terms_checksum = write_known_terms(&dir, &b).unwrap();
        write_manifest(&dir, &manifest).unwrap();
        let err = TiledSystem::open(&dir).unwrap_err();
        assert!(matches!(err, TileError::Format { .. }), "{err}");
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

    /// A tile read from disk is the resident system's row block: same
    /// star, same rows, same parent-space columns, row for row.
    #[test]
    fn a_tile_is_the_row_block_of_its_stars() {
        let dir = tmp_dir("tile-is-view");
        let sys = tiny_sys(18);
        write_tiles(&sys, &dir, 2).unwrap();
        let tiled = TiledSystem::open(&dir).unwrap();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| i as f64 + 0.5).collect();
        for t in 0..tiled.n_tiles() {
            let (tile, _) = tiled.tile(t).unwrap();
            let meta = &tiled.manifest().tiles[t];
            let view = sys.row_block(meta.star0..meta.star1, meta.constraint_rows > 0);
            assert_eq!(tile.rows, view.rows);
            assert_eq!(tile.system.star0(), meta.star0);
            assert_eq!(tile.system.n_cols(), sys.n_cols());
            for (local, row) in tile.rows.clone().enumerate() {
                let got = tile.system.row_dot(local, &x);
                assert_eq!(got.to_bits(), sys.row_dot(row, &x).to_bits(), "row {row}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The spill bytes of a fixed system, recorded with `gaia-tiles/v4`
    /// (GAVU v3 containers: per-section digests, no astrometric index,
    /// u32 attitude offsets) and the star-keyed draws: streamed generation
    /// and `write_tiles` must keep writing exactly these files.
    #[test]
    fn spill_fingerprints_are_pinned() {
        const PINNED: &str = "07074c70f1eec8c2";
        let cfg = GeneratorConfig::new(SystemLayout::tiny()).seed(2024);
        let (dir_str, dir_mem) = (tmp_dir("pin-streamed"), tmp_dir("pin-mem"));
        let streamed = Generator::new(cfg).generate_tiled(&dir_str, 2).unwrap();
        let sys = Generator::new(cfg).generate();
        let written = write_tiles(&sys, &dir_mem, 2).unwrap();
        assert_eq!(streamed.matrix_fingerprint, PINNED, "generate_tiled");
        assert_eq!(written.matrix_fingerprint, PINNED, "write_tiles");
        let back = TiledSystem::open(&dir_str).unwrap().assemble().unwrap();
        assert_eq!(back.known_terms(), sys.known_terms());
        std::fs::remove_dir_all(&dir_str).ok();
        std::fs::remove_dir_all(&dir_mem).ok();
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
            let mut pieces = crate::io::TileHasher::new();
            let mut rest: &[u8] = &bytes;
            for cut in cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                pieces.write(piece);
                rest = tail;
            }
            pieces.write(rest);
            let mut whole = crate::io::TileHasher::new();
            whole.write(&bytes);
            proptest::prop_assert_eq!(pieces.finish(), whole.finish());
        }
    }
}
