//! The simulated studies are deterministic, so their output is pinned:
//! an FNV-1a fingerprint of each one's stdout (minus the `[artifact]`
//! path lines) and of every artifact it writes (sorted relative path,
//! NUL, bytes). A harness refactor cannot change a table, figure or JSON
//! unseen; a deliberate output change updates the pin it names.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(study, stdout fingerprint, artifacts fingerprint)`.
const PINS: &[(&str, u64, u64)] = &[
    ("fig3", 0x3b631ef4db20a1dc, 0x1c6e6851b05ddc28),
    ("fig4", 0x7983276bfeb35f6b, 0x8a9d9b5c9a36178d),
    ("fig5", 0x16d404777d36de68, 0xe327878b1e2205aa),
    ("normalization_study", 0x3d7c3c0a6bcfa661, NO_ARTIFACTS),
    ("whatif", 0xa8ba6a803256f4f7, NO_ARTIFACTS),
    (
        "executors_projection",
        0x5e55ddaa3398189d,
        0x5d44f1b7b752508a,
    ),
    ("sensitivity", 0x74b5e4e76c41435d, 0x8968de2eb213dbb9),
    ("table_flags", 0x67073c66ead882f9, NO_ARTIFACTS),
    ("roofline", 0xad9bbd5659a284c8, 0x756362604ea53d9b),
    ("energy", 0x73b2680dca726ebf, 0xcd0edcf984035a05),
    ("weak_scaling", 0xd6c34586ca49a859, 0x2f135e2c06819341),
    ("speedup_production", 0x4dddc1c6a2a3159c, 0x159fe890f3813968),
    ("tuning_ablation", 0x1cda29d934bf27c0, 0xa9c9dc40e0983065),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The fingerprint of nothing: a study that writes no artifact.
const NO_ARTIFACTS: u64 = FNV_OFFSET;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read results dir").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn fingerprints(study: &str) -> (u64, u64) {
    let results =
        std::env::temp_dir().join(format!("gaia-bench-pins-{}-{study}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_gaia-bench"))
        .arg(study)
        .env("GAIA_RESULTS_DIR", &results)
        .output()
        .expect("spawn gaia-bench");
    assert!(
        out.status.success(),
        "{study}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = out
        .stdout
        .split_inclusive(|&b| b == b'\n')
        .filter(|line| !line.starts_with(b"[artifact]"))
        .fold(FNV_OFFSET, fnv1a);
    let mut files = Vec::new();
    files_under(&results, &mut files);
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|f| {
            let rel = f.strip_prefix(&results).expect("under results");
            (rel.to_string_lossy().replace('\\', "/"), f)
        })
        .collect();
    named.sort();
    let artifacts = named.iter().fold(FNV_OFFSET, |h, (rel, path)| {
        let h = fnv1a(fnv1a(h, rel.as_bytes()), b"\0");
        fnv1a(h, &std::fs::read(path).expect("read artifact"))
    });
    let _ = std::fs::remove_dir_all(&results);
    (stdout, artifacts)
}

#[test]
fn simulated_study_outputs_are_pinned() {
    let changed: Vec<String> = PINS
        .iter()
        .filter_map(|&(study, stdout, artifacts)| {
            let got = fingerprints(study);
            (got != (stdout, artifacts))
                .then(|| format!("    (\"{study}\", {:#018x}, {:#018x}),", got.0, got.1))
        })
        .collect();
    assert!(
        changed.is_empty(),
        "output changed:\n{}",
        changed.join("\n")
    );
}
