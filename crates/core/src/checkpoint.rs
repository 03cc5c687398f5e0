//! Solver checkpoint/restart.
//!
//! Production AVU-GSR runs at CINECA span multiple batch allocations, so
//! the pipeline persists the solver state between jobs and resumes. This
//! module provides the same facility for [`crate::lsqr::LsqrState`]: a
//! GAVU container of kind checkpoint ([`gaia_sparse::io`]) carrying the
//! full Golub–Kahan state plus integrity metadata, so a checkpoint cannot
//! silently be resumed against a different system.
//!
//! There is one capture and one validating restore,
//! [`Checkpoint::capture_operator`] / [`Checkpoint::restore_operator`],
//! keyed by what every [`Operator`] exposes: its shape, a digest of its
//! known terms and, for a tiled operator, the provenance of its spill
//! directory. [`Checkpoint::capture`] / [`Checkpoint::restore`] are the
//! same pair over a resident [`SparseSystem`]. A restored state resumes
//! through [`crate::lsqr::OperatorLsqr::try_drive`], which also extends
//! a run stopped by its iteration limit when the new limit is larger.
//!
//! Vectors and scalars are stored as raw little-endian `f64` sections,
//! each with its own digest: a resumed solve must be *bit-identical* to
//! an uninterrupted one, and the tests assert bit-exactness end-to-end.
//! The reader refuses a file whose vectors do not have the lengths its
//! shape section gives, naming the section.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use gaia_backends::SeqBackend;
use gaia_sparse::io::{ContainerReader, ContainerWriter, Elem, IoError, Kind};
use gaia_sparse::SparseSystem;

use crate::config::LsqrConfig;
use crate::lsqr::LsqrState;
use crate::operator::{Operator, SystemOperator};
use crate::solution::IterationStats;

/// Provenance of the on-disk tile set an out-of-core solve streamed from,
/// recorded into checkpoints so a resume verifies it reads the *same
/// matrix* (the spill directory may have been moved — the path is a hint,
/// overridable via `GAIA_TILES_DIR`; the fingerprint is the authority).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileProvenance {
    /// Spill directory the run streamed tiles from, stored as UTF-8
    /// (resolve through [`gaia_sparse::resolve_tiles_dir`] before
    /// reopening).
    pub dir: String,
    /// `matrix_fingerprint` of the tile manifest (the fold of every tile
    /// digest and the known-terms digest).
    pub matrix_fingerprint: String,
}

impl TileProvenance {
    /// The recorded spill directory as a path, after applying the
    /// `GAIA_TILES_DIR` override.
    pub fn resolved_dir(&self) -> PathBuf {
        gaia_sparse::resolve_tiles_dir(Path::new(&self.dir))
    }
}

/// A snapshot of an in-flight solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Rows of the system the state belongs to.
    pub n_rows: usize,
    /// Columns of the system the state belongs to.
    pub n_cols: usize,
    /// Digest of the known terms (defends against resuming on the wrong
    /// dataset).
    pub rhs_fingerprint: u64,
    /// Whether the run was preconditioned (the state lives in the scaled
    /// space, so this must match on resume).
    pub preconditioned: bool,
    /// The solver state, bit-exact.
    pub state: LsqrState,
    /// Tile-set provenance for out-of-core solves (`None` for resident
    /// runs).
    pub tiles: Option<TileProvenance>,
}

/// Errors raised when reading or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// I/O failure of the file system.
    Io(std::io::Error),
    /// Not a checkpoint container of this version, or a section that is
    /// cut short, fails its digest or does not parse.
    Format(IoError),
    /// The checkpoint is inconsistent with itself (a section whose length
    /// is not the shape's) or does not belong to the given system/config.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<IoError> for CheckpointError {
    fn from(e: IoError) -> Self {
        CheckpointError::Format(e)
    }
}

/// Digest of the known terms: the digest of the known-terms container
/// holding them, the container's own checksum.
pub fn rhs_fingerprint(known: &[f64]) -> u64 {
    gaia_sparse::io::known_terms_digest(known)
}

/// Read section `name`, refusing it unless it holds one of `lens` values.
fn sized<T: Elem>(
    r: &mut ContainerReader<'_>,
    name: &str,
    lens: &[usize],
) -> Result<Vec<T>, CheckpointError> {
    let v = r.read(name)?;
    if !lens.contains(&v.len()) {
        return Err(CheckpointError::Mismatch(format!(
            "section `{name}` holds {} values, the shape needs {lens:?}",
            v.len()
        )));
    }
    Ok(v)
}

impl Checkpoint {
    /// Capture a snapshot of `state` for a resident `sys`/`config`.
    pub fn capture(sys: &SparseSystem, config: &LsqrConfig, state: &LsqrState) -> Self {
        Self::capture_operator(&SystemOperator::new(sys, &SeqBackend), config, state)
    }

    /// Validate against a resident system/config and hand back the state.
    pub fn restore(
        self,
        sys: &SparseSystem,
        config: &LsqrConfig,
    ) -> Result<LsqrState, CheckpointError> {
        self.restore_operator(&SystemOperator::new(sys, &SeqBackend), config)
    }

    /// Capture a snapshot of `state` for a solve over `op`, keyed by its
    /// shape and known terms, with its tile provenance when the operator
    /// streams a spill directory.
    pub fn capture_operator<O: Operator + ?Sized>(
        op: &O,
        config: &LsqrConfig,
        state: &LsqrState,
    ) -> Self {
        Checkpoint {
            n_rows: op.n_rows(),
            n_cols: op.n_cols(),
            rhs_fingerprint: rhs_fingerprint(op.known_terms()),
            preconditioned: config.precondition,
            state: state.clone(),
            tiles: op.provenance(),
        }
    }

    /// Validate against the operator and config a resume will run on and
    /// hand back the state: shape, known terms, preconditioning and the
    /// `var` accumulator must match, and when both sides stream tiles, so
    /// must the matrix fingerprint — a checkpoint taken against one tile
    /// set must not resume against a regenerated or mutated one, even at
    /// the same path.
    pub fn restore_operator<O: Operator + ?Sized>(
        self,
        op: &O,
        config: &LsqrConfig,
    ) -> Result<LsqrState, CheckpointError> {
        if self.n_rows != op.n_rows() || self.n_cols != op.n_cols() {
            return Err(CheckpointError::Mismatch(format!(
                "shape {}x{} vs system {}x{}",
                self.n_rows,
                self.n_cols,
                op.n_rows(),
                op.n_cols()
            )));
        }
        if self.rhs_fingerprint != rhs_fingerprint(op.known_terms()) {
            return Err(CheckpointError::Mismatch(
                "known-terms fingerprint differs — wrong dataset".into(),
            ));
        }
        if self.preconditioned != config.precondition {
            return Err(CheckpointError::Mismatch(
                "preconditioning setting differs — state space mismatch".into(),
            ));
        }
        let var = if config.compute_var { self.n_cols } else { 0 };
        if self.state.var.len() != var {
            return Err(CheckpointError::Mismatch(format!(
                "section `var` holds {} values, compute_var = {} needs {var}",
                self.state.var.len(),
                config.compute_var
            )));
        }
        if let (Some(taken), Some(now)) = (&self.tiles, op.provenance()) {
            if taken.matrix_fingerprint != now.matrix_fingerprint {
                return Err(CheckpointError::Mismatch(format!(
                    "tile matrix fingerprint {} differs from manifest {} — \
                     the spill directory holds a different matrix",
                    taken.matrix_fingerprint, now.matrix_fingerprint
                )));
            }
        }
        Ok(self.state)
    }

    /// Serialize to a writer: a checkpoint container, vectors and scalars
    /// as raw `f64` sections.
    pub fn write_to<W: Write>(&self, w: W) -> Result<(), CheckpointError> {
        let s = &self.state;
        // The stop reason by name, as its serde derive spells it (a unit
        // variant always serializes).
        let stopped = s
            .stopped
            .map(|r| serde_json::to_string(r).unwrap_or_default());
        let tiles = self.tiles.as_ref();
        let dir = tiles.map_or("", |t| &t.dir);
        let fingerprint = tiles.map_or("", |t| &t.matrix_fingerprint);
        let mut w = ContainerWriter::new(w, Kind::Checkpoint)?;
        let (n_rows, n_cols, itn) = (self.n_rows as u64, self.n_cols as u64, s.itn as u64);
        let preconditioned = u64::from(self.preconditioned);
        w.section(
            "shape",
            &[n_rows, n_cols, itn, self.rhs_fingerprint, preconditioned],
        )?;
        let vectors = [&s.x, &s.v, &s.w, &s.u, &s.var];
        for (name, v) in ["x", "v", "w", "u", "var"].into_iter().zip(vectors) {
            w.section(name, v)?;
        }
        let scalars = [
            s.alfa, s.beta, s.rhobar, s.phibar, s.anorm, s.acond, s.ddnorm, s.res2, s.rnorm,
            s.arnorm, s.xnorm, s.xxnorm, s.z, s.bnorm, s.cs2, s.sn2,
        ];
        w.section("scalars", &scalars)?;
        let iterations: Vec<u64> = s.history.iter().map(|h| h.iteration as u64).collect();
        let history: Vec<f64> = (s.history.iter())
            .flat_map(|h| [h.rnorm, h.arnorm, h.anorm, h.acond, h.xnorm, h.seconds])
            .collect();
        w.section("hist_itn", &iterations)?;
        w.section("history", &history)?;
        w.section("stopped", stopped.unwrap_or_default().as_bytes())?;
        w.section("tile_dir", dir.as_bytes())?;
        w.section("tile_fp", fingerprint.as_bytes())?;
        w.finish()?;
        Ok(())
    }

    /// Deserialize from a reader (read whole, then decoded).
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ContainerReader::open(bytes, Kind::Checkpoint)?;
        let shape: Vec<u64> = sized(&mut r, "shape", &[5])?;
        // A count past `usize` fails the lengths below.
        let [n_rows, n_cols, itn] =
            [0, 1, 2].map(|i| usize::try_from(shape[i]).unwrap_or(usize::MAX));
        let x = sized(&mut r, "x", &[n_cols])?;
        let v = sized(&mut r, "v", &[n_cols])?;
        let w = sized(&mut r, "w", &[n_cols])?;
        let u = sized(&mut r, "u", &[n_rows])?;
        let var = sized(&mut r, "var", &[0, n_cols])?;
        let sc: Vec<f64> = sized(&mut r, "scalars", &[16])?;
        let iterations: Vec<u64> = r.read("hist_itn")?;
        let history: Vec<f64> = sized(&mut r, "history", &[6 * iterations.len()])?;
        let mut text = |name: &str| -> Result<String, CheckpointError> {
            let bad = |_| IoError::Format(format!("section `{name}` is not UTF-8"));
            Ok(String::from_utf8(r.read(name)?).map_err(bad)?)
        };
        let (stopped, dir, matrix_fingerprint) =
            (text("stopped")?, text("tile_dir")?, text("tile_fp")?);
        r.finish()?;
        let stopped = (!stopped.is_empty()).then(|| serde_json::from_str(&stopped));
        let stopped = stopped
            .transpose()
            .map_err(|e| IoError::Format(format!("section `stopped`: {e}")))?;
        let history = (iterations.iter().zip(history.chunks_exact(6)))
            .map(|(&iteration, f)| IterationStats {
                iteration: iteration as usize,
                rnorm: f[0],
                arnorm: f[1],
                anorm: f[2],
                acond: f[3],
                xnorm: f[4],
                seconds: f[5],
            })
            .collect();
        Ok(Checkpoint {
            n_rows,
            n_cols,
            rhs_fingerprint: shape[3],
            preconditioned: shape[4] != 0,
            tiles: (!matrix_fingerprint.is_empty()).then_some(TileProvenance {
                dir,
                matrix_fingerprint,
            }),
            state: LsqrState {
                itn,
                x,
                v,
                w,
                u,
                var,
                alfa: sc[0],
                beta: sc[1],
                rhobar: sc[2],
                phibar: sc[3],
                anorm: sc[4],
                acond: sc[5],
                ddnorm: sc[6],
                res2: sc[7],
                rnorm: sc[8],
                arnorm: sc[9],
                xnorm: sc[10],
                xxnorm: sc[11],
                z: sc[12],
                bnorm: sc[13],
                cs2: sc[14],
                sn2: sc[15],
                stopped,
                history,
            },
        })
    }

    /// Write to a file path (atomic: temp file + rename, the pattern the
    /// production restart files use so a job killed mid-write never
    /// corrupts the previous checkpoint).
    ///
    /// The temp name *appends* `.tmp` to the full filename rather than
    /// replacing the extension, so `run.json` and `run.ckpt` saved in one
    /// directory get distinct temp files (`run.json.tmp` / `run.ckpt.tmp`)
    /// instead of colliding on `run.tmp`. A failed serialization removes
    /// its temp file instead of leaving it behind.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp_name = path
            .file_name()
            .ok_or_else(|| {
                CheckpointError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("checkpoint path {} has no filename", path.display()),
                ))
            })?
            .to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let file = std::fs::File::create(&tmp)?;
        // The bytes reach the disk before the rename publishes them, so a
        // power cut can never leave an empty file under the final name.
        let durable = self
            .write_to(std::io::BufWriter::new(&file))
            .and_then(|()| Ok(file.sync_all()?));
        if let Err(e) = durable {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        sync_parent_dir(path)?;
        Ok(())
    }

    /// Read from a file path; a format error names the file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes).map_err(|e| match e {
            CheckpointError::Format(e) => CheckpointError::Format(IoError::File {
                path: path.to_path_buf(),
                source: Box::new(e),
            }),
            e => e,
        })
    }
}

/// Sync the directory holding `path`, so a rename into it survives a
/// power cut. Directories cannot be opened for syncing off Unix.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Retain-last-K rotation of periodic checkpoints, mirroring the restart
/// chains the production pipeline keeps across CINECA batch allocations:
/// each snapshot lands at `stem.<iteration>.ckpt` next to `stem`, older
/// snapshots beyond `retain` are pruned, and [`CheckpointRotation::latest`]
/// walks the chain newest-first, skipping files that fail to load — a
/// checkpoint corrupted by a crash mid-write costs one save interval, not
/// the run.
pub struct CheckpointRotation {
    stem: std::path::PathBuf,
    retain: usize,
}

impl CheckpointRotation {
    /// Rotation keyed on `stem` (any path; `.<iteration>.ckpt` is appended
    /// to its filename), keeping the newest `retain` snapshots.
    pub fn new(stem: impl Into<std::path::PathBuf>, retain: usize) -> Self {
        CheckpointRotation {
            stem: stem.into(),
            retain: retain.max(1),
        }
    }

    fn slot(&self, iteration: usize) -> std::path::PathBuf {
        let mut name = self
            .stem
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        name.push(format!(".{iteration:08}.ckpt"));
        self.stem.with_file_name(name)
    }

    /// Every existing snapshot in the chain, oldest first.
    pub fn slots(&self) -> Vec<(usize, std::path::PathBuf)> {
        let Some(dir) = self.stem.parent().filter(|d| !d.as_os_str().is_empty()) else {
            return self.scan(Path::new("."));
        };
        self.scan(dir)
    }

    fn scan(&self, dir: &Path) -> Vec<(usize, std::path::PathBuf)> {
        let Some(stem_name) = self.stem.file_name().and_then(|n| n.to_str()) else {
            return Vec::new();
        };
        let prefix = format!("{stem_name}.");
        let mut found = Vec::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(digits) = rest.strip_suffix(".ckpt") else {
                continue;
            };
            if let Ok(iteration) = digits.parse::<usize>() {
                found.push((iteration, entry.path()));
            }
        }
        found.sort();
        found
    }

    /// Save `ckpt` as the snapshot for `iteration` and prune snapshots
    /// beyond the newest `retain`.
    pub fn save(&self, iteration: usize, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        ckpt.save(&self.slot(iteration))?;
        let slots = self.slots();
        if slots.len() > self.retain {
            for (_, path) in &slots[..slots.len() - self.retain] {
                std::fs::remove_file(path).ok();
            }
        }
        Ok(())
    }

    /// Load the newest snapshot that parses, together with its iteration
    /// number; corrupt or unreadable files are skipped.
    pub fn latest(&self) -> Option<(usize, Checkpoint)> {
        for (iteration, path) in self.slots().into_iter().rev() {
            if let Ok(ckpt) = Checkpoint::load(&path) {
                return Some((iteration, ckpt));
            }
        }
        None
    }

    /// Remove every snapshot in the chain.
    pub fn clear(&self) {
        for (_, path) in self.slots() {
            std::fs::remove_file(path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::Lsqr;
    use gaia_backends::SeqBackend;
    use gaia_sparse::io::{HEADER, SECTION_HEAD};

    /// Name and byte range of each section of a well-formed container.
    fn sections(bytes: &[u8]) -> Vec<(String, std::ops::Range<usize>)> {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (mut out, mut at) = (Vec::new(), HEADER);
        while at < bytes.len() {
            let width = [1, 1, 4, 8, 8][word(at + 8) as u32 as usize];
            let end = at + SECTION_HEAD + word(at + 12) as usize * width + 8;
            let name = String::from_utf8_lossy(&bytes[at..at + 8]);
            out.push((name.trim_end_matches('\0').to_string(), at..end));
            at = end;
        }
        out
    }
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn system(seed: u64) -> SparseSystem {
        Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate()
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        let sys = system(401);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let direct = solver.run();

        // Interrupt after 5 iterations, round-trip through a container, resume.
        let mut state = solver.init_state();
        for _ in 0..5 {
            solver.step(&mut state);
        }
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let restored = Checkpoint::read_from(buf.as_slice())
            .unwrap()
            .restore(&sys, &cfg)
            .unwrap();
        let resumed = solver.run_from(restored);

        assert_eq!(resumed.x, direct.x, "resumed solve must be bit-identical");
        assert_eq!(resumed.iterations, direct.iterations);
        assert_eq!(resumed.stop, direct.stop);
    }

    #[test]
    fn state_round_trip_preserves_every_bit() {
        let sys = system(408);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let mut state = solver.init_state();
        for _ in 0..3 {
            solver.step(&mut state);
        }
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let restored = Checkpoint::read_from(buf.as_slice())
            .unwrap()
            .restore(&sys, &cfg)
            .unwrap();
        assert_eq!(restored, state);
    }

    #[test]
    fn file_round_trip_with_atomic_rename() {
        let sys = system(402);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let mut state = solver.init_state();
        solver.step(&mut state);
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);

        let dir = std::env::temp_dir().join(format!("gaia-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        ckpt.save(&path).unwrap();
        assert!(
            !dir.join("state.json.tmp").exists(),
            "temp file renamed away"
        );
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.restore(&sys, &cfg).unwrap(), state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_names_do_not_collide_across_extensions() {
        // Regression: `path.with_extension("tmp")` mapped both `run.json`
        // and `run.ckpt` to `run.tmp`, so concurrent saves in one
        // directory raced on the same temp file.
        let sys = system(409);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let mut state = solver.init_state();
        solver.step(&mut state);
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);

        let dir = std::env::temp_dir().join(format!("gaia-ckpt-collide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A leftover temp from a crashed writer with the *old* colliding
        // name must survive saves of differently-extensioned siblings.
        std::fs::write(dir.join("run.tmp"), b"leftover").unwrap();
        ckpt.save(&dir.join("run.json")).unwrap();
        ckpt.save(&dir.join("run.ckpt")).unwrap();
        assert_eq!(std::fs::read(dir.join("run.tmp")).unwrap(), b"leftover");
        assert!(Checkpoint::load(&dir.join("run.json")).is_ok());
        assert!(Checkpoint::load(&dir.join("run.ckpt")).is_ok());
        assert!(!dir.join("run.json.tmp").exists());
        assert!(!dir.join("run.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_retains_last_k_and_skips_corrupt() {
        let sys = system(410);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let mut state = solver.init_state();

        let dir = std::env::temp_dir().join(format!("gaia-ckpt-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rot = CheckpointRotation::new(dir.join("solve"), 2);

        for k in 1..=4 {
            solver.step(&mut state);
            rot.save(k, &Checkpoint::capture(&sys, &cfg, &state))
                .unwrap();
        }
        let slots = rot.slots();
        assert_eq!(
            slots.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![3, 4],
            "only the newest 2 retained"
        );

        // Newest wins...
        let (k, ckpt) = rot.latest().unwrap();
        assert_eq!(k, 4);
        assert_eq!(ckpt.restore(&sys, &cfg).unwrap().itn, 4);
        // ...unless corrupt, in which case the chain falls back.
        std::fs::write(&slots[1].1, b"garbage").unwrap();
        let (k, ckpt) = rot.latest().unwrap();
        assert_eq!(k, 3);
        assert_eq!(ckpt.restore(&sys, &cfg).unwrap().itn, 3);

        rot.clear();
        assert!(rot.latest().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_dataset_is_rejected() {
        let sys_a = system(403);
        let sys_b = system(404);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys_a, &SeqBackend, cfg);
        let mut state = solver.init_state();
        solver.step(&mut state);
        let ckpt = Checkpoint::capture(&sys_a, &cfg, &state);
        let err = ckpt.restore(&sys_b, &cfg).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn wrong_preconditioning_is_rejected() {
        let sys = system(405);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let state = solver.init_state();
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);
        let other = LsqrConfig::new().precondition(false);
        assert!(ckpt.restore(&sys, &other).is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let sys = system(406);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let state = solver.init_state();
        let mut buf = Vec::new();
        Checkpoint::capture(&sys, &cfg, &state)
            .write_to(&mut buf)
            .unwrap();
        buf[4..8].copy_from_slice(&999u32.to_le_bytes());
        let err = Checkpoint::read_from(buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        assert!(err.to_string().contains("version 999"), "{err}");
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let sys = system(407);
        let mut swapped = sys.clone();
        let mut b = swapped.known_terms().to_vec();
        b.swap(0, 1);
        swapped.set_known_terms(b);
        assert_ne!(
            rhs_fingerprint(sys.known_terms()),
            rhs_fingerprint(swapped.known_terms())
        );
    }

    #[test]
    fn corrupted_payload_is_a_parse_error() {
        let err = Checkpoint::read_from("not json".as_bytes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    /// A tiny mid-solve checkpoint with its history, as a container.
    fn checkpoint_bytes() -> (Checkpoint, Vec<u8>) {
        let sys = system(411);
        let cfg = LsqrConfig::new();
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let mut state = solver.init_state();
        for _ in 0..3 {
            solver.step(&mut state);
        }
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        (ckpt, buf)
    }

    /// `buf` with section `name` re-encoded to hold `v`.
    fn resection(buf: &[u8], name: &str, v: &[f64]) -> Vec<u8> {
        let mut enc = Vec::new();
        let mut w = ContainerWriter::new(&mut enc, Kind::Checkpoint).unwrap();
        w.section(name, v).unwrap();
        w.finish().unwrap();
        let (_, at) = sections(buf).into_iter().find(|(n, _)| n == name).unwrap();
        [&buf[..at.start], &enc[HEADER..], &buf[at.end..]].concat()
    }

    /// A checkpoint whose vectors or records disagree with its shape is
    /// refused by the reader, naming the section, before a resume can
    /// index past the end of one.
    #[test]
    fn a_section_of_the_wrong_length_is_a_mismatch_naming_it() {
        let (ckpt, good) = checkpoint_bytes();
        type Cut = fn(&mut LsqrState);
        let cut: [(&str, Cut); 5] = [
            ("x", |s| {
                s.x.pop();
            }),
            ("v", |s| s.v.push(0.0)),
            ("w", |s| {
                s.w.pop();
            }),
            ("u", |s| {
                s.u.pop();
            }),
            ("var", |s| {
                s.var.pop();
            }),
        ];
        let mut cases: Vec<(&str, Vec<u8>)> = cut
            .into_iter()
            .map(|(section, cut)| {
                let mut bad = ckpt.clone();
                cut(&mut bad.state);
                let mut buf = Vec::new();
                bad.write_to(&mut buf).unwrap();
                (section, buf)
            })
            .collect();
        cases.push(("scalars", resection(&good, "scalars", &[0.0; 15])));
        let history = vec![1.0; 6 * ckpt.state.history.len() + 1];
        cases.push(("history", resection(&good, "history", &history)));
        for (section, buf) in cases {
            match Checkpoint::read_from(buf.as_slice()) {
                Err(CheckpointError::Mismatch(m)) => {
                    assert!(m.contains(&format!("`{section}`")), "{section}: {m}");
                }
                other => panic!("{section}: expected a Mismatch, got {other:?}"),
            }
        }
        assert_eq!(Checkpoint::read_from(good.as_slice()).unwrap(), ckpt);
    }

    /// A state taken without the `var` accumulator is refused by a config
    /// that computes it (the resume would index past its end), and the
    /// other way round.
    #[test]
    fn a_var_accumulator_that_the_config_does_not_match_is_refused() {
        let sys = system(412);
        for compute_var in [false, true] {
            let cfg = LsqrConfig::new().compute_var(compute_var);
            let solver = Lsqr::new(&sys, &SeqBackend, cfg);
            let mut state = solver.init_state();
            solver.step(&mut state);
            let ckpt = Checkpoint::capture(&sys, &cfg, &state);
            let other = cfg.compute_var(!compute_var);
            match ckpt.restore(&sys, &other) {
                Err(CheckpointError::Mismatch(m)) => assert!(m.contains("`var`"), "{m}"),
                other => panic!("compute_var {compute_var}: expected a Mismatch, got {other:?}"),
            }
        }
    }

    /// The stop reason travels by name, and `None` as an empty section.
    #[test]
    fn a_finished_state_round_trips_with_its_stop_reason() {
        use crate::solution::StopReason;
        let (ckpt, _) = checkpoint_bytes();
        for stop in [
            None,
            Some(StopReason::IterationLimit),
            Some(StopReason::Cancelled),
        ] {
            let mut done = ckpt.clone();
            done.state.stopped = stop;
            let mut buf = Vec::new();
            done.write_to(&mut buf).unwrap();
            assert_eq!(Checkpoint::read_from(buf.as_slice()).unwrap(), done);
        }
    }

    /// Truncation at every byte, and every section's count set to 0, 1,
    /// `u64::MAX` and one element past 64 GiB: each is an `Err`, never a
    /// panic (the container reader's own fuzzing is in `gaia-sparse`).
    #[test]
    fn malformed_checkpoints_are_refused_without_a_panic() {
        let (_, good) = checkpoint_bytes();
        for n in 0..good.len() {
            assert!(Checkpoint::read_from(&good[..n]).is_err(), "cut at {n}");
        }
        for (name, at) in sections(&good) {
            for count in [0, 1, u64::MAX, (1 << 36) / 8 + 1] {
                let mut bad = good.clone();
                bad[at.start + 12..at.start + SECTION_HEAD].copy_from_slice(&count.to_le_bytes());
                let refused = Checkpoint::read_from(bad.as_slice()).is_err();
                assert!(refused || bad == good, "`{name}` of count {count}");
            }
        }
    }

    /// A flipped bit in the header, or in the head, payload or digest of
    /// any section, is a typed error naming the file and the section.
    #[test]
    fn a_flipped_bit_anywhere_in_a_checkpoint_names_the_file_and_the_section() {
        let (_, good) = checkpoint_bytes();
        let dir = std::env::temp_dir().join(format!("gaia-ckpt-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut targets = vec![("header".to_string(), 0), ("header".to_string(), 9)];
        for (name, at) in sections(&good) {
            // Name, type code, count, mid-payload and digest.
            for byte in [
                at.start,
                at.start + 8,
                at.start + 12,
                at.start + at.len() / 2,
            ] {
                targets.push((name.clone(), byte));
            }
            targets.push((name, at.end - 1));
        }
        for (section, byte) in targets {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            let msg = err.to_string();
            for needle in [path.display().to_string(), section.clone()] {
                assert!(
                    msg.contains(&needle),
                    "byte {byte}: {msg:?} lacks {needle:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_bit_flip_of_a_checkpoint_is_refused_naming_its_section() {
        let (_, mut bytes) = checkpoint_bytes();
        let owner: Vec<String> = {
            let mut owner = vec!["header".to_string(); HEADER];
            for (name, at) in sections(&bytes) {
                owner.extend(std::iter::repeat_n(format!("`{name}`"), at.len()));
            }
            owner
        };
        assert_eq!(owner.len(), bytes.len(), "the sections cover the file");
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let msg = match Checkpoint::read_from(bytes.as_slice()) {
                Ok(_) => panic!("flipping bit {bit} went unnoticed"),
                Err(e) => e.to_string(),
            };
            assert!(msg.contains(&owner[bit / 8]), "bit {bit}: {msg}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
