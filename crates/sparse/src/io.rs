//! The one on-disk container: datasets, tiles, known terms and solver
//! checkpoints.
//!
//! The production pipeline materializes the system on disk between the
//! GSR pre-processor and the solver (Fig. 1: "System Generation →
//! Solver"), spills it in tiles when it exceeds memory, and persists the
//! solver state between batch allocations. All of it goes through one
//! little-endian binary container, bit-exact by construction:
//!
//! * a 12-byte header: magic `GAVU`, [`FORMAT_VERSION`] (u32) and the
//!   [`Kind`] (u32) — checked in one place, [`ContainerReader::open`];
//!   any other magic, version or kind is refused with a regenerate hint;
//! * then named, typed sections. Each is an 8-byte name, an element type
//!   code (u32) and an element count (u64), the elements in
//!   `CODEC_CHUNK`-byte runs, and an 8-byte digest of everything before
//!   it in the section (four-lane FNV-1a, `TileHasher`). A reader
//!   knows the sections of its kind in order, so a flipped bit anywhere
//!   is a typed error naming the section;
//! * the container's digest is the fold of its section digests, so every
//!   byte is hashed once on write and once on read. A tile manifest
//!   records it per tile and folds it into the matrix fingerprint.
//!
//! A dataset is its known terms, then one span (`write_span`) covering
//! every star; a tile is one span; a known-terms file is the
//! known-terms section alone; the checkpoint lives in `gaia-lsqr`.
//! [`read_system`] and the tile reader build their [`SparseSystem`]
//! through one function, `read_span`.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::layout::SystemLayout;
use crate::system::{SparseSystem, ATT_NNZ_PER_ROW};

/// File magic.
pub const MAGIC: [u8; 4] = *b"GAVU";
/// Container format version.
pub const FORMAT_VERSION: u32 = 3;
/// Name of the known-terms section, in a dataset and a known-terms file.
const KNOWN_TERMS: &str = "b";

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A whole system: its known terms, then one span over every star.
    Dataset = 1,
    /// One tile of a spill directory: one span.
    Tile = 2,
    /// The known terms of a spill directory.
    KnownTerms = 3,
    /// An LSQR solver state (`gaia-lsqr`'s `Checkpoint`).
    Checkpoint = 4,
}

/// Errors from reading a container.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure; a container that ends early is an
    /// [`io::ErrorKind::UnexpectedEof`] naming the section.
    Io(io::Error),
    /// Not a container of this kind and version, or a section that is not
    /// the one expected.
    Format(String),
    /// A section's bytes do not hash to the digest stored after them.
    Checksum {
        /// The section, by name.
        section: String,
        /// Digest stored in the file.
        stored: u64,
        /// Digest of the bytes actually read.
        computed: u64,
    },
    /// The arrays decode but violate a structural invariant.
    Invalid(String),
    /// One of the above, in the named file.
    File {
        /// The file read.
        path: PathBuf,
        /// What went wrong in it.
        source: Box<IoError>,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "container I/O error: {e}"),
            IoError::Format(m) => write!(f, "container format error: {m}"),
            IoError::Checksum {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section `{section}`: stored {stored:016x}, \
                 bytes hash to {computed:016x}"
            ),
            IoError::Invalid(m) => write!(f, "container invalid: {m}"),
            IoError::File { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::File { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a whole word: xor, then multiply. The multiplier
/// is odd, so for a fixed state the step is a bijection of `word` (and for
/// a fixed word, of the state): two inputs that differ in one word can
/// never meet again.
#[inline]
pub(crate) fn fnv(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

/// Bytes per checksum block: one little-endian `u64` word for each lane.
pub(crate) const BLOCK: usize = 32;

/// The section checksum. Byte-at-a-time FNV-1a is one serial multiply
/// chain (0.8 GB/s measured); this runs four independent chains, lane `k`
/// taking word `k` of every 32-byte block, so the multiplies overlap and a
/// section hashes at memory speed. [`TileHasher::finish`] folds the four
/// lane digests word-wise, then the `< 32`-byte tail byte-wise, into one
/// more FNV-1a state. Every step on the way is [`fnv`], so bytes that differ
/// from the recorded ones in any single word (hence any single bit or
/// byte) always hash differently. Bytes may arrive in any split: a
/// partial block waits in `carry`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileHasher {
    lanes: [u64; 4],
    carry: [u8; BLOCK],
    carried: usize,
}

impl TileHasher {
    pub(crate) fn new() -> Self {
        TileHasher {
            lanes: [FNV_OFFSET; 4],
            carry: [0; BLOCK],
            carried: 0,
        }
    }

    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
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
    fn mix_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
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
                *lane = fnv(*lane, u64::get(word));
            }
        }
        *lanes = local.map(std::hint::black_box);
        blocks.remainder()
    }

    pub(crate) fn finish(self) -> u64 {
        let tail = self.carry[..self.carried].iter().map(|&b| u64::from(b));
        self.lanes.into_iter().chain(tail).fold(FNV_OFFSET, fnv)
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// An element type a section can hold.
pub trait Elem: Copy {
    /// Type code recorded in the section header.
    const CODE: u32;
    /// Bytes per element.
    const WIDTH: usize;
    /// Write the little-endian bytes of `self` into `out` (`WIDTH` long).
    fn put(self, out: &mut [u8]);
    /// The element whose little-endian bytes are `raw` (`WIDTH` long).
    fn get(raw: &[u8]) -> Self;
}

macro_rules! elem {
    ($($t:ty => $code:expr),*) => {$(
        impl Elem for $t {
            const CODE: u32 = $code;
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(raw: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(raw);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}

elem!(u8 => 1, u32 => 2, u64 => 3, f64 => 4);

/// Arrays cross the byte boundary this many bytes at a time: one
/// `write_all` and one `chunks_exact` conversion per chunk instead of one
/// call per element, without ever holding a second copy of a whole array.
/// Small enough that the chunk and the elements it turns into stay in L1
/// together (32 KiB chunks encode a third slower).
const CODEC_CHUNK: usize = 8 * 1024;

/// Largest section payload accepted from a length prefix (64 GiB).
const MAX_ARRAY_BYTES: u64 = 1 << 36;

/// Bytes before a section's payload: name, type code, element count.
pub const SECTION_HEAD: usize = 8 + 4 + 8;
/// How every reader refuses a file of another format or version.
const REGENERATE: &str = "datasets, tiles, known terms and checkpoints of an older format \
                          are refused: regenerate the file or save it again from its source";

/// Bytes of the container header: magic, version, kind.
pub const HEADER: usize = 4 + 4 + 4;

fn section_head(name: &str, code: u32, count: u64) -> [u8; SECTION_HEAD] {
    debug_assert!(name.len() <= 8, "section name {name:?} is over 8 bytes");
    let mut head = [0u8; SECTION_HEAD];
    head[..name.len()].copy_from_slice(name.as_bytes());
    head[8..12].copy_from_slice(&code.to_le_bytes());
    head[12..].copy_from_slice(&count.to_le_bytes());
    head
}

/// The one container writer. Sections are appended in file order,
/// hashing as they go — no seeks, no rewrites.
pub struct ContainerWriter<W: Write> {
    w: W,
    fold: u64,
    bytes: u64,
}

impl<W: Write> ContainerWriter<W> {
    /// Write the header of a `kind` container into `w`.
    pub fn new(mut w: W, kind: Kind) -> io::Result<Self> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(kind as u32).to_le_bytes())?;
        Ok(ContainerWriter {
            w,
            fold: FNV_OFFSET,
            bytes: HEADER as u64,
        })
    }

    /// Append section `name` (at most 8 bytes) holding `v`, then its digest.
    pub fn section<T: Elem>(&mut self, name: &str, v: &[T]) -> io::Result<()> {
        let head = section_head(name, T::CODE, v.len() as u64);
        let mut hash = TileHasher::new();
        hash.write(&head);
        self.w.write_all(&head)?;
        let mut buf = [0u8; CODEC_CHUNK];
        for part in v.chunks(CODEC_CHUNK / T::WIDTH) {
            let bytes = &mut buf[..part.len() * T::WIDTH];
            for (slot, &x) in bytes.chunks_exact_mut(T::WIDTH).zip(part) {
                x.put(slot);
            }
            hash.write(bytes);
            self.w.write_all(bytes)?;
        }
        let digest = hash.finish();
        self.w.write_all(&digest.to_le_bytes())?;
        self.fold = fnv(self.fold, digest);
        self.bytes += (SECTION_HEAD + v.len() * T::WIDTH + 8) as u64;
        Ok(())
    }

    /// Flush; the container's size in bytes and its digest (the fold of
    /// its section digests, its identity).
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.w.flush()?;
        Ok((self.bytes, self.fold))
    }
}

/// The one container reader, over the container's bytes in memory.
pub struct ContainerReader<'a> {
    rest: &'a [u8],
    fold: u64,
}

impl<'a> ContainerReader<'a> {
    /// Check the header — the one place that checks magic, version and
    /// kind — and position the reader at the first section.
    pub fn open(bytes: &'a [u8], kind: Kind) -> Result<Self, IoError> {
        let mut r = ContainerReader {
            rest: bytes,
            fold: FNV_OFFSET,
        };
        let magic = r.take(4, "header")?;
        if magic != MAGIC {
            let found = String::from_utf8_lossy(magic);
            return Err(IoError::Format(format!(
                "header: magic {found:?} is not GAVU v{FORMAT_VERSION}; {REGENERATE}"
            )));
        }
        let head = r.take(HEADER - 4, "header")?;
        let (version, found) = (u32::get(&head[..4]), u32::get(&head[4..]));
        if (version, found) != (FORMAT_VERSION, kind as u32) {
            return Err(IoError::Format(format!(
                "header: format version {version} of kind {found} (expected version \
                 {FORMAT_VERSION} of kind {} for {kind:?}); {REGENERATE}",
                kind as u32
            )));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8], IoError> {
        if n > self.rest.len() {
            let left = self.rest.len();
            let msg = format!("section `{section}`: {n} bytes declared, {left} left");
            return Err(IoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                msg,
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The payload of section `name`, after its digest is verified. The
    /// digest is checked before the name and type, so a flipped bit
    /// anywhere in a section is a checksum mismatch unless it makes the
    /// length run past the end of the container.
    fn payload<T: Elem>(&mut self, name: &str) -> Result<&'a [u8], IoError> {
        let head = self.take(SECTION_HEAD, name)?;
        let count = u64::get(&head[12..]);
        let len = count.checked_mul(T::WIDTH as u64);
        let len = len.filter(|&len| len <= MAX_ARRAY_BYTES);
        let Some(len) = len.and_then(|len| usize::try_from(len).ok()) else {
            let msg = format!("section `{name}`: implausible length {count}");
            return Err(IoError::Format(msg));
        };
        let payload = self.take(len, name)?;
        let stored = u64::get(self.take(8, name)?);
        let mut hash = TileHasher::new();
        hash.write(head);
        hash.write(payload);
        let computed = hash.finish();
        if computed != stored {
            return Err(IoError::Checksum {
                section: name.to_string(),
                stored,
                computed,
            });
        }
        if head[..12] != section_head(name, T::CODE, count)[..12] {
            let (found, code) = (String::from_utf8_lossy(&head[..8]), u32::get(&head[8..12]));
            return Err(IoError::Format(format!(
                "section `{name}` of type {} expected, found {found:?} of type {code}",
                T::CODE
            )));
        }
        self.fold = fnv(self.fold, stored);
        Ok(payload)
    }

    /// The elements of section `name`.
    pub fn read<T: Elem>(&mut self, name: &str) -> Result<Vec<T>, IoError> {
        let payload = self.payload::<T>(name)?;
        Ok(payload.chunks_exact(T::WIDTH).map(T::get).collect())
    }

    /// End of the container: nothing may follow the last section. Returns
    /// the container's digest.
    pub fn finish(self) -> Result<u64, IoError> {
        if !self.rest.is_empty() {
            let n = self.rest.len();
            return Err(IoError::Format(format!("{n} bytes after the last section")));
        }
        Ok(self.fold)
    }
}

// ---------------------------------------------------------------------------
// Spans: datasets and tiles
// ---------------------------------------------------------------------------

/// Write the rows `block` of the stars from `star0` of a `parent` system
/// as one span: its place in the parent, then the arrays of the block.
pub(crate) fn write_span<W: Write>(
    w: &mut ContainerWriter<W>,
    parent: &SystemLayout,
    star0: u64,
    block: &SparseSystem,
) -> io::Result<()> {
    let p = parent;
    let local = block.layout();
    w.section::<u64>(
        "span",
        &[
            p.n_stars,
            p.obs_per_star,
            p.n_deg_freedom_att,
            p.n_instr_params,
            u64::from(p.n_glob_params),
            p.n_constraint_rows,
            star0,
            star0 + local.n_stars,
            local.n_constraint_rows,
        ],
    )?;
    w.section("astro", block.values_astro())?;
    w.section("att", block.values_att())?;
    w.section("instr", block.values_instr())?;
    w.section("glob", block.values_glob())?;
    w.section("att_idx", block.matrix_index_att())?;
    w.section("instrcol", block.instr_col())
}

/// Read a span written by [`write_span`]: the parent's layout, and the
/// span's rows as a system in the parent's column space (its `star0` and
/// layout say which stars and constraint rows it covers), with the known
/// terms `b` when given (zeros otherwise). The parent layout is validated
/// before any count is derived from it.
pub(crate) fn read_span(
    r: &mut ContainerReader<'_>,
    b: Option<Vec<f64>>,
) -> Result<(SystemLayout, SparseSystem), IoError> {
    let s: Vec<u64> = r.read("span")?;
    let [n_stars, obs_per_star, n_deg_freedom_att, n_instr_params, n_glob, n_constraint_rows, star0, star1, constraint_rows] =
        s[..]
    else {
        let msg = format!("section `span` holds {} values (expected 9)", s.len());
        return Err(IoError::Format(msg));
    };
    let parent = SystemLayout {
        n_stars,
        obs_per_star,
        n_deg_freedom_att,
        n_instr_params,
        n_glob_params: u32::try_from(n_glob).unwrap_or(u32::MAX),
        n_constraint_rows,
    };
    parent
        .validate()
        .map_err(|e| IoError::Invalid(format!("section `span`: {e}")))?;
    let folds = constraint_rows == 0 || (star1 == n_stars && constraint_rows == n_constraint_rows);
    if star0 >= star1 || star1 > n_stars || !folds {
        return Err(IoError::Invalid(format!(
            "section `span`: stars {star0}..{star1} with {constraint_rows} constraint rows \
             are not a span of {parent:?}"
        )));
    }
    let local = SystemLayout {
        n_stars: star1 - star0,
        n_constraint_rows: constraint_rows,
        ..parent
    };
    let astro = r.read("astro")?;
    let att = r.read("att")?;
    let instr = r.read("instr")?;
    let glob = r.read("glob")?;
    let att_idx = r.read("att_idx")?;
    let instr_col = r.read("instrcol")?;
    // Zeros sized by the attitude rows read (12 values a row), not by the
    // layout: a layout no array matches must not allocate its row count.
    let b = b.unwrap_or_else(|| vec![0.0; att.len() / ATT_NNZ_PER_ROW]);
    let sys = SparseSystem::from_parts_at(
        parent.columns(),
        star0,
        local,
        astro,
        att,
        instr,
        glob,
        att_idx,
        instr_col,
        b,
    )
    .map_err(|e| IoError::Invalid(e.to_string()))?;
    Ok((parent, sys))
}

/// Write a known-terms container holding `b` into `w`.
pub(crate) fn write_known_terms<W: Write>(w: W, b: &[f64]) -> io::Result<(u64, u64)> {
    let mut w = ContainerWriter::new(w, Kind::KnownTerms)?;
    w.section(KNOWN_TERMS, b)?;
    w.finish()
}

/// Digest of the known-terms container holding `b`: what a tile manifest
/// records for its known terms, and what a checkpoint keys its dataset by.
pub fn known_terms_digest(b: &[f64]) -> u64 {
    // A sink takes every byte, so the writer cannot fail.
    write_known_terms(io::sink(), b).map_or(0, |(_, digest)| digest)
}

/// Read a known-terms container; returns `b` and the container's digest.
pub(crate) fn read_known_terms(bytes: &[u8]) -> Result<(Vec<f64>, u64), IoError> {
    let mut r = ContainerReader::open(bytes, Kind::KnownTerms)?;
    let b = r.read(KNOWN_TERMS)?;
    Ok((b, r.finish()?))
}

/// Serialize a system into a writer.
pub fn write_system<W: Write>(sys: &SparseSystem, w: W) -> Result<(), IoError> {
    let mut w = ContainerWriter::new(w, Kind::Dataset)?;
    w.section(KNOWN_TERMS, sys.known_terms())?;
    write_span(&mut w, sys.layout(), 0, sys)?;
    w.finish()?;
    Ok(())
}

/// Deserialize a system from a reader (read whole, then decoded), every
/// section verified against its digest and every structural invariant
/// re-validated as a tile's is.
pub fn read_system<R: Read>(mut r: R) -> Result<SparseSystem, IoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_system(&bytes)
}

fn decode_system(bytes: &[u8]) -> Result<SparseSystem, IoError> {
    let mut r = ContainerReader::open(bytes, Kind::Dataset)?;
    let b = r.read(KNOWN_TERMS)?;
    let (parent, sys) = read_span(&mut r, Some(b))?;
    if *sys.layout() != parent {
        let span = sys.layout();
        let msg = format!("section `span`: a dataset covers every star, not {span:?}");
        return Err(IoError::Invalid(msg));
    }
    r.finish()?;
    Ok(sys)
}

/// Save to a file path.
pub fn save_system(sys: &SparseSystem, path: &Path) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_system(sys, io::BufWriter::new(file))
}

/// Load from a file path; an error names the file.
pub fn load_system(path: &Path) -> Result<SparseSystem, IoError> {
    std::fs::read(path)
        .map_err(IoError::Io)
        .and_then(|bytes| decode_system(&bytes))
        .map_err(|e| IoError::File {
            path: path.to_path_buf(),
            source: Box::new(e),
        })
}

#[cfg(test)]
pub mod tests {
    //! Container tests, and the section walk the tile tests share.
    use super::*;
    use crate::generator::{mix, Generator, GeneratorConfig};
    use std::ops::Range;

    /// Where each section of a container sits: its name and its bytes
    /// (head, payload and digest), in file order, as far as the section
    /// heads go. Nothing is verified.
    pub fn sections(bytes: &[u8]) -> Vec<(String, Range<usize>)> {
        let mut out = Vec::new();
        let mut at = HEADER;
        while bytes.len().saturating_sub(at) >= SECTION_HEAD {
            let head = &bytes[at..at + SECTION_HEAD];
            let width = match u32::get(&head[8..12]) {
                1 => 1,
                2 => 4,
                _ => 8,
            };
            let len = (u64::get(&head[12..]) as usize).saturating_mul(width);
            let end = (at + SECTION_HEAD).saturating_add(len).saturating_add(8);
            let name = String::from_utf8_lossy(&head[..8]);
            out.push((name.trim_end_matches('\0').to_string(), at..end));
            at = end;
        }
        out
    }

    /// A seeded malformation its digests do not catch: one to four bytes
    /// after the header overwritten at random, then every section whose
    /// bytes are still in the file resealed with the digest of what it now
    /// holds. The reader must refuse it by structure — lengths, spans,
    /// indices — or read a valid container, and never panic.
    fn mangle(bytes: &[u8], seed: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let draw = |k: u64, n: usize| (mix(seed ^ mix(k)) % n.max(1) as u64) as usize;
        for k in 0..1 + draw(0, 4) as u64 {
            if out.len() > HEADER {
                let at = HEADER + draw(2 * k + 1, out.len() - HEADER);
                out[at] = draw(2 * k + 2, 256) as u8;
            }
        }
        for (_, at) in sections(&out) {
            if at.end > out.len() {
                break;
            }
            let mut hash = TileHasher::new();
            hash.write(&out[at.start..at.end - 8]);
            out[at.end - 8..at.end].copy_from_slice(&hash.finish().to_le_bytes());
        }
        out
    }

    fn sys() -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(77)).generate()
    }

    fn dataset(sys: &SparseSystem) -> Vec<u8> {
        let mut buf = Vec::new();
        write_system(sys, &mut buf).unwrap();
        buf
    }

    /// A dataset of `sys` whose `span` section says `span`, digests intact.
    fn with_span(sys: &SparseSystem, span: [u64; 9]) -> Vec<u8> {
        let good = dataset(sys);
        let mut enc = Vec::new();
        let mut w = ContainerWriter::new(&mut enc, Kind::Dataset).unwrap();
        w.section("span", &span).unwrap();
        w.finish().unwrap();
        let (_, at) = sections(&good)
            .into_iter()
            .find(|(n, _)| n == "span")
            .unwrap();
        [&good[..at.start], &enc[HEADER..], &good[at.end..]].concat()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let original = sys();
        let mut buf = Vec::new();
        write_system(&original, &mut buf).unwrap();
        let loaded = read_system(buf.as_slice()).unwrap();
        assert_eq!(loaded.layout(), original.layout());
        assert_eq!(loaded.values_astro(), original.values_astro());
        assert_eq!(loaded.values_att(), original.values_att());
        assert_eq!(loaded.values_instr(), original.values_instr());
        assert_eq!(loaded.values_glob(), original.values_glob());
        assert_eq!(loaded.matrix_index_att(), original.matrix_index_att());
        assert_eq!(loaded.instr_col(), original.instr_col());
        assert_eq!(loaded.known_terms(), original.known_terms());
    }

    #[test]
    fn file_round_trip() {
        let original = sys();
        let dir = std::env::temp_dir().join(format!("gaia-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sys.gavu");
        save_system(&original, &path).unwrap();
        let loaded = load_system(&path).unwrap();
        assert_eq!(loaded.known_terms(), original.known_terms());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// At the previous format a flipped coefficient bit loaded silently:
    /// the dataset had no checksum.
    #[test]
    fn a_flipped_coefficient_bit_is_a_checksum_error_naming_the_file_and_section() {
        let dir = std::env::temp_dir().join(format!("gaia-io-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sys.gavu");
        save_system(&sys(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (_, astro) = sections(&bytes)
            .into_iter()
            .find(|(n, _)| n == "astro")
            .unwrap();
        bytes[astro.start + SECTION_HEAD + 8 * 7 + 2] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        match load_system(&path).unwrap_err() {
            IoError::File { path: at, source } => {
                assert_eq!(at, path);
                assert!(
                    matches!(&*source, IoError::Checksum { section, .. } if section == "astro"),
                    "{source}"
                );
            }
            other => panic!("expected a checksum error in the file, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_system(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let original = sys();
        let mut buf = Vec::new();
        write_system(&original, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_system(buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
    }

    #[test]
    fn corrupted_structure_is_rejected_by_validation() {
        let original = sys();
        let l = *original.layout();
        // One star more than the arrays hold, digests intact.
        let span = [
            l.n_stars + 1,
            l.obs_per_star,
            l.n_deg_freedom_att,
            l.n_instr_params,
            u64::from(l.n_glob_params),
            l.n_constraint_rows,
            0,
            l.n_stars + 1,
            l.n_constraint_rows,
        ];
        let err = read_system(with_span(&original, span).as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::Invalid(_) | IoError::Format(_) | IoError::Io(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn a_header_whose_counts_overflow_is_invalid_not_a_panic() {
        let l = SystemLayout::tiny();
        let huge = 1u64 << 40;
        let span = [
            huge,
            huge,
            l.n_deg_freedom_att,
            l.n_instr_params,
            1,
            3,
            0,
            huge,
            3,
        ];
        let err = read_system(with_span(&sys(), span).as_slice()).unwrap_err();
        assert!(
            matches!(&err, IoError::Invalid(m) if m.contains("overflow")),
            "{err}"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let original = sys();
        let mut buf = Vec::new();
        write_system(&original, &mut buf).unwrap();
        // 99: from the future; 1 and 2: the formats without digests.
        for version in [99u32, 1, 2] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            match read_system(buf.as_slice()).unwrap_err() {
                IoError::Format(m) => {
                    for needle in [&format!("version {version} "), "regenerate"] {
                        assert!(m.contains(needle), "{m:?} lacks {needle:?}");
                    }
                }
                other => panic!("version {version}: expected a Format error, got {other}"),
            }
        }
    }

    /// Seeds replayed before any random one: the vendored proptest does
    /// not shrink, so a failing seed is added here as found.
    const SEEDS: [u64; 8] = [0, 1, 2, 3, 42, 77, 1 << 32, u64::MAX];

    /// Every kind of container this crate reads, as (what, bytes, reader).
    type Decode = fn(&[u8]) -> Result<(), IoError>;
    fn containers() -> Vec<(&'static str, Vec<u8>, Decode)> {
        let sys = sys();
        let block = sys.row_block(4..6, true).system;
        let mut tile = ContainerWriter::new(Vec::new(), Kind::Tile).unwrap();
        write_span(&mut tile, sys.layout(), 4, &block).unwrap();
        let mut known = Vec::new();
        write_known_terms(&mut known, sys.known_terms()).unwrap();
        let decode_tile: Decode = |b| {
            let mut r = ContainerReader::open(b, Kind::Tile)?;
            read_span(&mut r, None)?;
            r.finish().map(drop)
        };
        vec![
            ("dataset", dataset(&sys), |b| decode_system(b).map(drop)),
            ("tile", tile.w, decode_tile),
            ("known terms", known, |b| read_known_terms(b).map(drop)),
        ]
    }

    /// Truncation at every byte, section lengths of 0, 1, `u64::MAX` and
    /// just past [`MAX_ARRAY_BYTES`], and swapped kind and version fields
    /// are each an `Err`; seeded malformations with intact digests may
    /// load (a changed value is a valid container) but never panic.
    #[test]
    fn malformed_containers_are_refused_without_a_panic() {
        for (what, good, decode) in containers() {
            decode(&good).unwrap();
            for n in 0..good.len() {
                assert!(decode(&good[..n]).is_err(), "{what} cut at {n}");
            }
            for (name, at) in sections(&good) {
                let count = at.start + 12..at.start + SECTION_HEAD;
                for len in [0, 1, u64::MAX, MAX_ARRAY_BYTES + 1] {
                    let mut bad = good.clone();
                    bad[count.clone()].copy_from_slice(&len.to_le_bytes());
                    assert!(decode(&bad).is_err(), "{what} `{name}` of length {len}");
                    let resealed = mangle(&bad, 0);
                    let _ = decode(&resealed);
                }
            }
            let mut swapped = good.clone();
            swapped[4..12].rotate_left(4);
            // A known-terms file is kind 3 of version 3: the swap is a no-op.
            let same = swapped == good;
            assert_eq!(
                decode(&swapped).is_ok(),
                same,
                "{what}: kind and version swapped"
            );
            for kind in [
                Kind::Dataset,
                Kind::Tile,
                Kind::KnownTerms,
                Kind::Checkpoint,
            ] {
                let mut other = good.clone();
                other[8..12].copy_from_slice(&(kind as u32).to_le_bytes());
                assert_eq!(decode(&other).is_ok(), other == good, "{what} as {kind:?}");
            }
            let seeds = SEEDS.into_iter().chain((0..200).map(mix));
            // A resealed value is a valid container: only a panic fails.
            for seed in seeds {
                let _ = decode(&mangle(&good, seed));
            }
        }
    }
}
