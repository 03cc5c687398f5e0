//! Solver checkpoint/restart.
//!
//! Production AVU-GSR runs at CINECA span multiple batch allocations, so
//! the pipeline persists the solver state between jobs and resumes. This
//! module provides the same facility for [`crate::lsqr::LsqrState`]:
//! a self-describing JSON envelope carrying the full Golub–Kahan state
//! plus integrity metadata, so a checkpoint cannot silently be resumed
//! against a different system.
//!
//! There is one capture and one validating restore,
//! [`Checkpoint::capture_operator`] / [`Checkpoint::restore_operator`],
//! keyed by what every [`Operator`] exposes: its shape, a fingerprint of
//! its known terms and, for a tiled operator, the provenance of its spill
//! directory. [`Checkpoint::capture`] / [`Checkpoint::restore`] are the
//! same pair over a resident [`SparseSystem`]. A restored state resumes
//! through [`crate::lsqr::OperatorLsqr::try_drive`], which also extends
//! a run stopped by its iteration limit when the new limit is larger.
//!
//! Floats are stored as IEEE-754 **bit patterns** (integers), not decimal
//! strings: a resumed solve must be *bit-identical* to an uninterrupted
//! one, and decimal round-trips through the JSON float parser can lose
//! the last ulp (observed with the vendored `serde_json`). The tests
//! assert bit-exactness end-to-end.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use gaia_backends::SeqBackend;
use gaia_sparse::SparseSystem;
use serde::{Deserialize, Serialize};

use crate::config::LsqrConfig;
use crate::lsqr::LsqrState;
use crate::operator::{Operator, SystemOperator};
use crate::solution::{IterationStats, StopReason};

/// Envelope format version (bump on layout changes).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Bit-exact wire form of [`LsqrState`]: every `f64` as `u64` bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateBits {
    itn: usize,
    x: Vec<u64>,
    v: Vec<u64>,
    w: Vec<u64>,
    u: Vec<u64>,
    var: Vec<u64>,
    scalars: Vec<u64>,
    stopped: Option<StopReason>,
    history: Vec<(usize, Vec<u64>)>,
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn from_bits(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| f64::from_bits(x)).collect()
}

const N_SCALARS: usize = 14;

impl From<&LsqrState> for StateBits {
    fn from(s: &LsqrState) -> Self {
        StateBits {
            itn: s.itn,
            x: to_bits(&s.x),
            v: to_bits(&s.v),
            w: to_bits(&s.w),
            u: to_bits(&s.u),
            var: to_bits(&s.var),
            scalars: to_bits(&[
                s.alfa, s.beta, s.rhobar, s.phibar, s.anorm, s.acond, s.ddnorm, s.res2, s.rnorm,
                s.arnorm, s.xnorm, s.xxnorm, s.z, s.bnorm,
            ])
            .into_iter()
            .chain([s.cs2.to_bits(), s.sn2.to_bits()])
            .collect(),
            stopped: s.stopped,
            history: s
                .history
                .iter()
                .map(|h| {
                    (
                        h.iteration,
                        to_bits(&[h.rnorm, h.arnorm, h.anorm, h.acond, h.xnorm, h.seconds]),
                    )
                })
                .collect(),
        }
    }
}

impl StateBits {
    fn into_state(self) -> Result<LsqrState, CheckpointError> {
        if self.scalars.len() != N_SCALARS + 2 {
            return Err(CheckpointError::Mismatch(format!(
                "{} scalar slots (expected {})",
                self.scalars.len(),
                N_SCALARS + 2
            )));
        }
        let sc = from_bits(&self.scalars);
        let history = self
            .history
            .into_iter()
            .map(|(iteration, vals)| {
                if vals.len() != 6 {
                    return Err(CheckpointError::Mismatch(
                        "history record has wrong arity".into(),
                    ));
                }
                let f = from_bits(&vals);
                Ok(IterationStats {
                    iteration,
                    rnorm: f[0],
                    arnorm: f[1],
                    anorm: f[2],
                    acond: f[3],
                    xnorm: f[4],
                    seconds: f[5],
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LsqrState {
            itn: self.itn,
            x: from_bits(&self.x),
            v: from_bits(&self.v),
            w: from_bits(&self.w),
            u: from_bits(&self.u),
            var: from_bits(&self.var),
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
            stopped: self.stopped,
            history,
        })
    }
}

/// Provenance of the on-disk tile set an out-of-core solve streamed from,
/// recorded into checkpoints so a resume verifies it reads the *same
/// matrix* (the spill directory may have been moved — the path is a hint,
/// overridable via `GAIA_TILES_DIR`; the fingerprint is the authority).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileProvenance {
    /// Spill directory the run streamed tiles from, stored as UTF-8 (the
    /// vendored serde has no `PathBuf` impls; resolve through
    /// [`gaia_sparse::resolve_tiles_dir`] before reopening).
    pub dir: String,
    /// `matrix_fingerprint` of the tile manifest (FNV over every tile
    /// checksum plus the known-terms checksum).
    pub matrix_fingerprint: String,
}

impl TileProvenance {
    /// The recorded spill directory as a path, after applying the
    /// `GAIA_TILES_DIR` override.
    pub fn resolved_dir(&self) -> PathBuf {
        gaia_sparse::resolve_tiles_dir(Path::new(&self.dir))
    }
}

/// A serializable snapshot of an in-flight solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Envelope version.
    pub version: u32,
    /// Rows of the system the state belongs to.
    pub n_rows: usize,
    /// Columns of the system the state belongs to.
    pub n_cols: usize,
    /// Fingerprint of the known terms (defends against resuming on the
    /// wrong dataset).
    pub rhs_fingerprint: u64,
    /// Whether the run was preconditioned (the state lives in the scaled
    /// space, so this must match on resume).
    pub preconditioned: bool,
    /// The solver state, bit-exact.
    pub state: StateBits,
    /// Tile-set provenance for out-of-core solves (`None` for resident
    /// runs; absent in pre-tiling checkpoints, hence the serde default).
    #[serde(default)]
    pub tiles: Option<TileProvenance>,
}

/// Errors raised when restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// I/O failure.
    Io(std::io::Error),
    /// Malformed JSON.
    Parse(serde_json::Error),
    /// The checkpoint does not belong to the given system/config.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
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

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Parse(e)
    }
}

/// FNV-1a over the bit patterns of the known terms — cheap, stable, and
/// order-sensitive, which is what the integrity check needs.
pub fn rhs_fingerprint(known: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in known {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
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
            version: CHECKPOINT_VERSION,
            n_rows: op.n_rows(),
            n_cols: op.n_cols(),
            rhs_fingerprint: rhs_fingerprint(op.known_terms()),
            preconditioned: config.precondition,
            state: StateBits::from(state),
            tiles: op.provenance(),
        }
    }

    /// Validate against the operator and config a resume will run on and
    /// hand back the state: version, shape, known terms and preconditioning
    /// must match, and when both sides stream tiles, so must the matrix
    /// fingerprint — a checkpoint taken against one tile set must not
    /// resume against a regenerated or mutated one, even at the same path.
    pub fn restore_operator<O: Operator + ?Sized>(
        self,
        op: &O,
        config: &LsqrConfig,
    ) -> Result<LsqrState, CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "version {} (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
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
        if let (Some(taken), Some(now)) = (&self.tiles, op.provenance()) {
            if taken.matrix_fingerprint != now.matrix_fingerprint {
                return Err(CheckpointError::Mismatch(format!(
                    "tile matrix fingerprint {} differs from manifest {} — \
                     the spill directory holds a different matrix",
                    taken.matrix_fingerprint, now.matrix_fingerprint
                )));
            }
        }
        self.state.into_state()
    }

    /// Serialize to a writer (JSON, floats as bit patterns).
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), CheckpointError> {
        serde_json::to_writer(&mut w, self)?;
        w.flush()?;
        Ok(())
    }

    /// Deserialize from a reader.
    pub fn read_from<R: Read>(r: R) -> Result<Self, CheckpointError> {
        Ok(serde_json::from_reader(r)?)
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

    /// Read from a file path.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let file = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(file))
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

        // Interrupt after 5 iterations, round-trip through JSON, resume.
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
        let mut ckpt = Checkpoint::capture(&sys, &cfg, &state);
        ckpt.version = 999;
        assert!(matches!(
            ckpt.restore(&sys, &cfg),
            Err(CheckpointError::Mismatch(_))
        ));
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
        assert!(matches!(err, CheckpointError::Parse(_)));
    }
}
