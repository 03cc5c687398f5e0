//! Binary dataset serialization.
//!
//! The production pipeline materializes the system on disk between the
//! GSR pre-processor and the solver (Fig. 1: "System Generation →
//! Solver"); the artifact's solver can also read pre-generated datasets.
//! This module provides the equivalent: a compact little-endian binary
//! container for a [`SparseSystem`], bit-exact by construction.
//!
//! Layout: magic `GAVU`, format version (u32), the eight [`SystemLayout`]
//! scalars, then each array prefixed with its element count. Everything is
//! written through a `Write` and read back through a `Read`, so files,
//! sockets, and in-memory buffers all work.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::layout::SystemLayout;
use crate::system::SparseSystem;

/// File magic.
pub const MAGIC: [u8; 4] = *b"GAVU";
/// Container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from reading a dataset container.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a GAVU container or unsupported version.
    Format(String),
    /// The arrays decode but violate a structural invariant.
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "dataset I/O error: {e}"),
            IoError::Format(m) => write!(f, "dataset format error: {m}"),
            IoError::Invalid(m) => write!(f, "dataset invalid: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Arrays cross the byte boundary this many bytes at a time: one
/// `read_exact`/`write_all` and one `chunks_exact` conversion per chunk
/// instead of one call per element, without ever holding a second copy of
/// a whole array. Small enough that the chunk and the elements it turns
/// into stay in L1 together (32 KiB chunks decode a third slower).
const CODEC_CHUNK: usize = 8 * 1024;

/// Largest array payload accepted from a length prefix (64 GiB).
const MAX_ARRAY_BYTES: u64 = 1 << 36;

/// Write `v` as a `u64` element count followed by the little-endian
/// elements, [`CODEC_CHUNK`] bytes per `write_all`.
fn write_array<W: Write, T: Copy, const N: usize>(
    w: &mut W,
    v: &[T],
    encode: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    write_u64(w, v.len() as u64)?;
    let mut buf = [0u8; CODEC_CHUNK];
    for part in v.chunks(CODEC_CHUNK / N) {
        let bytes = &mut buf[..part.len() * N];
        for (slot, &x) in bytes.chunks_exact_mut(N).zip(part) {
            slot.copy_from_slice(&encode(x));
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Read an array written by [`write_array`], appending to `out` (so a
/// caller that knows the final size can reserve once and fill it from
/// several sections).
fn read_array_into<R: Read, T, const N: usize>(
    r: &mut R,
    out: &mut Vec<T>,
    decode: impl Fn([u8; N]) -> T,
) -> Result<(), IoError> {
    let len = read_u64(r)?;
    if len > MAX_ARRAY_BYTES / N as u64 {
        return Err(IoError::Format(format!("implausible array length {len}")));
    }
    let mut left = len as usize;
    out.try_reserve(left)
        .map_err(|e| IoError::Format(format!("cannot hold an array of {len} elements: {e}")))?;
    let mut buf = [0u8; CODEC_CHUNK];
    while left > 0 {
        let n = left.min(CODEC_CHUNK / N);
        let bytes = &mut buf[..n * N];
        r.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(N).map(|c| {
            let mut raw = [0u8; N];
            raw.copy_from_slice(c);
            decode(raw)
        }));
        left -= n;
    }
    Ok(())
}

/// [`read_array_into`] a fresh vector.
fn read_array<R: Read, T, const N: usize>(
    r: &mut R,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, IoError> {
    let mut out = Vec::new();
    read_array_into(r, &mut out, decode)?;
    Ok(out)
}

pub(crate) fn write_f64_array<W: Write>(w: &mut W, v: &[f64]) -> io::Result<()> {
    write_array(w, v, f64::to_le_bytes)
}

pub(crate) fn read_f64_array_into<R: Read>(r: &mut R, out: &mut Vec<f64>) -> Result<(), IoError> {
    read_array_into(r, out, f64::from_le_bytes)
}

pub(crate) fn read_f64_array<R: Read>(r: &mut R) -> Result<Vec<f64>, IoError> {
    read_array(r, f64::from_le_bytes)
}

pub(crate) fn write_u64_array<W: Write>(w: &mut W, v: &[u64]) -> io::Result<()> {
    write_array(w, v, u64::to_le_bytes)
}

pub(crate) fn read_u64_array_into<R: Read>(r: &mut R, out: &mut Vec<u64>) -> Result<(), IoError> {
    read_array_into(r, out, u64::from_le_bytes)
}

pub(crate) fn read_u64_array<R: Read>(r: &mut R) -> Result<Vec<u64>, IoError> {
    read_array(r, u64::from_le_bytes)
}

pub(crate) fn write_u32_array<W: Write>(w: &mut W, v: &[u32]) -> io::Result<()> {
    write_array(w, v, u32::to_le_bytes)
}

pub(crate) fn read_u32_array<R: Read>(r: &mut R) -> Result<Vec<u32>, IoError> {
    read_array(r, u32::from_le_bytes)
}

/// Serialize a system into a writer.
pub fn write_system<W: Write>(sys: &SparseSystem, mut w: W) -> Result<(), IoError> {
    w.write_all(&MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    let l = sys.layout();
    write_u64(&mut w, l.n_stars)?;
    write_u64(&mut w, l.obs_per_star)?;
    write_u64(&mut w, l.n_deg_freedom_att)?;
    write_u64(&mut w, l.n_instr_params)?;
    write_u32(&mut w, l.n_glob_params)?;
    write_u64(&mut w, l.n_constraint_rows)?;
    write_f64_array(&mut w, sys.values_astro())?;
    write_f64_array(&mut w, sys.values_att())?;
    write_f64_array(&mut w, sys.values_instr())?;
    write_f64_array(&mut w, sys.values_glob())?;
    write_u64_array(&mut w, sys.matrix_index_astro())?;
    write_u64_array(&mut w, sys.matrix_index_att())?;
    write_u32_array(&mut w, sys.instr_col())?;
    write_f64_array(&mut w, sys.known_terms())?;
    w.flush()?;
    Ok(())
}

/// Deserialize a system from a reader, re-validating every structural
/// invariant via [`SparseSystem::from_parts`].
pub fn read_system<R: Read>(mut r: R) -> Result<SparseSystem, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(IoError::Format("bad magic (not a GAVU dataset)".into()));
    }
    let version = read_u32(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(IoError::Format(format!(
            "format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let layout = SystemLayout {
        n_stars: read_u64(&mut r)?,
        obs_per_star: read_u64(&mut r)?,
        n_deg_freedom_att: read_u64(&mut r)?,
        n_instr_params: read_u64(&mut r)?,
        n_glob_params: read_u32(&mut r)?,
        n_constraint_rows: read_u64(&mut r)?,
    };
    let values_astro = read_f64_array(&mut r)?;
    let values_att = read_f64_array(&mut r)?;
    let values_instr = read_f64_array(&mut r)?;
    let values_glob = read_f64_array(&mut r)?;
    let matrix_index_astro = read_u64_array(&mut r)?;
    let matrix_index_att = read_u64_array(&mut r)?;
    let instr_col = read_u32_array(&mut r)?;
    let known_terms = read_f64_array(&mut r)?;
    SparseSystem::from_parts(
        layout,
        values_astro,
        values_att,
        values_instr,
        values_glob,
        matrix_index_astro,
        matrix_index_att,
        instr_col,
        known_terms,
    )
    .map_err(|e| IoError::Invalid(e.to_string()))
}

/// Save to a file path.
pub fn save_system(sys: &SparseSystem, path: &Path) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_system(sys, io::BufWriter::new(file))
}

/// Load from a file path.
pub fn load_system(path: &Path) -> Result<SparseSystem, IoError> {
    let file = std::fs::File::open(path)?;
    read_system(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    fn sys() -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(77)).generate()
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
        assert_eq!(loaded.matrix_index_astro(), original.matrix_index_astro());
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
        let mut buf = Vec::new();
        write_system(&original, &mut buf).unwrap();
        // Flip the star count: array lengths no longer match the layout.
        let magic_and_version = 4 + 4;
        buf[magic_and_version] ^= 0xff;
        let err = read_system(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::Invalid(_) | IoError::Format(_) | IoError::Io(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let original = sys();
        let mut buf = Vec::new();
        write_system(&original, &mut buf).unwrap();
        buf[4] = 99; // version field
        let err = read_system(buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }
}
