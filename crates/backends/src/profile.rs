//! Persisted launch profiles — the `gaia-tune-profile/v3` schema.
//!
//! The paper's §V-B tuning study ("up to 40 % reduction in iteration
//! time") is a *search* over launch configurations followed by pinning the
//! winner per platform. [`LaunchProfile`] is the pinned winner: a JSON
//! record mapping one problem layout to the [`LaunchPlan`] the tuner
//! selected for it, together with the measurements that justified the
//! selection. `gaia-bench tune` writes these under
//! `results/tuning/<layout>.json`; the `tuned` registry backend loads them
//! back and falls through to the default plan when no profile matches.
//!
//! Every field a plan needs is stored as a stable *string* (the same
//! grammar the CLI flags use), so a profile survives enum reshuffles and a
//! hand-edited file fails loudly in [`LaunchProfile::to_plan`] rather than
//! silently deserializing into a different strategy. A loaded plan is
//! additionally proven sound against the canonical shape battery before it
//! is ever handed to a backend — an unsound profile on disk must never
//! become a racing launch.
//!
//! v2 dropped v1's `variant` field (the kernel interior axis is gone), and
//! v3 dropped v2's value-layout field (the ELL layout is gone: with the
//! tuner scoring a whole Golub–Kahan pass, no preset picked it). An older
//! file is refused with [`ProfileError::Schema`], never read silently:
//! re-run the tuner.

use std::fmt;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use gaia_sparse::SystemLayout;

use crate::launch::{Aprod2Spec, Aprod2Strategy, LaunchPlan, WorkerBudget};
use crate::tuning::Tuning;

/// Schema tag stamped into every profile artifact.
pub const PROFILE_SCHEMA: &str = "gaia-tune-profile/v3";

/// Environment variable overriding the profile directory (mirrors
/// `GAIA_RESULTS_DIR` for bench artifacts).
pub const TUNING_DIR_ENV: &str = "GAIA_TUNING_DIR";

/// Stable name of a conflict strategy: `owner`, `atomic`, `casloop`,
/// `replicated`, or `striped:<stripes>`.
pub fn strategy_name(s: Aprod2Strategy) -> String {
    match s {
        Aprod2Strategy::OwnerComputes => "owner".to_string(),
        Aprod2Strategy::Atomic => "atomic".to_string(),
        Aprod2Strategy::CasLoop => "casloop".to_string(),
        Aprod2Strategy::Replicated => "replicated".to_string(),
        Aprod2Strategy::LockStriped { stripes } => format!("striped:{stripes}"),
    }
}

/// Parse [`strategy_name`]'s grammar back to a strategy.
pub fn parse_strategy(name: &str) -> Option<Aprod2Strategy> {
    match name {
        "owner" => Some(Aprod2Strategy::OwnerComputes),
        "atomic" => Some(Aprod2Strategy::Atomic),
        "casloop" => Some(Aprod2Strategy::CasLoop),
        "replicated" => Some(Aprod2Strategy::Replicated),
        _ => {
            let stripes: usize = name.strip_prefix("striped:")?.parse().ok()?;
            (stripes > 0).then_some(Aprod2Strategy::LockStriped { stripes })
        }
    }
}

/// Stable name of a worker budget: `uniform` or `streamed`.
pub fn budget_name(b: WorkerBudget) -> &'static str {
    match b {
        WorkerBudget::Uniform => "uniform",
        WorkerBudget::Streamed => "streamed",
    }
}

/// Parse [`budget_name`]'s grammar back to a budget.
pub fn parse_budget(name: &str) -> Option<WorkerBudget> {
    match name {
        "uniform" => Some(WorkerBudget::Uniform),
        "streamed" => Some(WorkerBudget::Streamed),
        _ => None,
    }
}

/// One pinned tuning result: layout → plan, plus the evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchProfile {
    /// Always [`PROFILE_SCHEMA`]; a mismatch rejects the file.
    pub schema: String,
    /// Layout preset name the profile was tuned on (`tiny`/`small`/...).
    pub layout: String,
    /// The exact problem shape, so runtime matching is structural, not
    /// name-based — a renamed preset cannot silently misapply a profile.
    pub shape: SystemLayout,
    /// Worker threads the winning plan was tuned for.
    pub threads: usize,
    /// Chunks per thread of the winning plan.
    pub chunks_per_thread: usize,
    /// Attitude-block strategy ([`strategy_name`] grammar).
    pub att: String,
    /// Instrumental-block strategy.
    pub instr: String,
    /// Global-block strategy.
    pub glob: String,
    /// Worker budget (`uniform`/`streamed`).
    pub budget: String,
    /// Median seconds of one Golub–Kahan pass under the winning
    /// configuration.
    #[serde(default)]
    pub tuned_median_s: f64,
    /// Median seconds of one pass under the default (`chunked`)
    /// configuration on the same layout, same run.
    #[serde(default)]
    pub baseline_median_s: f64,
    /// Fractional improvement over the baseline:
    /// `(baseline − tuned) / baseline`.
    #[serde(default)]
    pub improvement: f64,
    /// How many configurations the search measured before pinning this one.
    #[serde(default)]
    pub configs_explored: u64,
}

/// Why a profile failed to load or lower to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The `schema` field is not [`PROFILE_SCHEMA`].
    Schema(String),
    /// A string field does not parse under its grammar.
    Field {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: String,
    },
    /// The lowered plan failed [`LaunchPlan::analyze_canonical`].
    Unsound(String),
    /// The file exists but could not be read or parsed as JSON.
    Malformed(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Schema(got) => {
                write!(f, "schema `{got}` is not `{PROFILE_SCHEMA}`")
            }
            ProfileError::Field { field, value } => {
                write!(f, "field `{field}` has unparseable value `{value}`")
            }
            ProfileError::Unsound(e) => write!(f, "profile lowers to an unsound plan: {e}"),
            ProfileError::Malformed(e) => write!(f, "unreadable profile: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl LaunchProfile {
    /// Record a plan as a profile for `layout` named `name`. Measurement
    /// fields start zeroed; the tuner fills them in.
    pub fn from_plan(name: &str, shape: SystemLayout, plan: &LaunchPlan) -> Self {
        LaunchProfile {
            schema: PROFILE_SCHEMA.to_string(),
            layout: name.to_string(),
            shape,
            threads: plan.tuning.threads,
            chunks_per_thread: plan.tuning.chunks_per_thread,
            att: strategy_name(plan.spec.att),
            instr: strategy_name(plan.spec.instr),
            glob: strategy_name(plan.spec.glob),
            budget: budget_name(plan.spec.budget).to_string(),
            tuned_median_s: 0.0,
            baseline_median_s: 0.0,
            improvement: 0.0,
            configs_explored: 0,
        }
    }

    /// Lower the profile back to the plan it pins, verifying the schema
    /// tag, every string field, and — via the canonical shape battery —
    /// the plan's soundness.
    pub fn to_plan(&self) -> Result<LaunchPlan, ProfileError> {
        if self.schema != PROFILE_SCHEMA {
            return Err(ProfileError::Schema(self.schema.clone()));
        }
        let field = |field: &'static str, value: &str| ProfileError::Field {
            field,
            value: value.to_string(),
        };
        let att = parse_strategy(&self.att).ok_or_else(|| field("att", &self.att))?;
        let instr = parse_strategy(&self.instr).ok_or_else(|| field("instr", &self.instr))?;
        let glob = parse_strategy(&self.glob).ok_or_else(|| field("glob", &self.glob))?;
        let budget = parse_budget(&self.budget).ok_or_else(|| field("budget", &self.budget))?;
        if self.threads == 0 {
            return Err(field("threads", "0"));
        }
        if self.chunks_per_thread == 0 {
            return Err(field("chunks_per_thread", "0"));
        }
        let plan = LaunchPlan::new(
            Tuning {
                threads: self.threads,
                chunks_per_thread: self.chunks_per_thread,
            },
            Aprod2Spec {
                att,
                instr,
                glob,
                budget,
            },
        );
        plan.analyze_canonical()
            .map_err(|e| ProfileError::Unsound(e.to_string()))?;
        Ok(plan)
    }

    /// Whether the pinned plan differs from the default chunked plan at
    /// the same tuning (the acceptance question: did the tuner actually
    /// pick something non-default?).
    pub fn is_non_default(&self) -> bool {
        let default = LaunchPlan::new(
            Tuning {
                threads: self.threads.max(1),
                chunks_per_thread: self.chunks_per_thread.max(1),
            },
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
        );
        match self.to_plan() {
            Ok(plan) => plan != default,
            Err(_) => false,
        }
    }
}

/// The directory profiles are persisted in: `GAIA_TUNING_DIR` when set,
/// else `<results root>/tuning` (anchored at the workspace root like every
/// other artifact, never CWD-relative).
pub fn tuning_dir() -> PathBuf {
    match std::env::var_os(TUNING_DIR_ENV) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => gaia_telemetry::report::results_root().join("tuning"),
    }
}

/// Load every valid profile from [`tuning_dir`]. Unreadable or invalid
/// files are skipped (returned in the error list for diagnostics); an
/// absent directory is simply zero profiles — the `tuned` backend then
/// runs its default plan everywhere.
pub fn load_profiles() -> (Vec<LaunchProfile>, Vec<(PathBuf, ProfileError)>) {
    load_profiles_from(&tuning_dir())
}

/// [`load_profiles`] against an explicit directory.
pub fn load_profiles_from(
    dir: &std::path::Path,
) -> (Vec<LaunchProfile>, Vec<(PathBuf, ProfileError)>) {
    let mut profiles = Vec::new();
    let mut rejected = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (profiles, rejected);
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        match load_profile_file(&path) {
            Ok(p) => profiles.push(p),
            Err(e) => rejected.push((path, e)),
        }
    }
    gaia_telemetry::record(|t| {
        t.tune.profiles_loaded += profiles.len() as u64;
        t.tune.profiles_rejected += rejected.len() as u64;
    });
    (profiles, rejected)
}

/// Load and fully validate one profile file (schema, field grammars, and
/// plan soundness).
pub fn load_profile_file(path: &std::path::Path) -> Result<LaunchProfile, ProfileError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Malformed(e.to_string()))?;
    let profile: LaunchProfile =
        serde_json::from_str(&text).map_err(|e| ProfileError::Malformed(e.to_string()))?;
    profile.to_plan()?;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> LaunchPlan {
        LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 2,
            },
            Aprod2Spec {
                att: Aprod2Strategy::Replicated,
                instr: Aprod2Strategy::LockStriped { stripes: 16 },
                glob: Aprod2Strategy::Atomic,
                budget: WorkerBudget::Streamed,
            },
        )
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [
            Aprod2Strategy::OwnerComputes,
            Aprod2Strategy::Atomic,
            Aprod2Strategy::CasLoop,
            Aprod2Strategy::Replicated,
            Aprod2Strategy::LockStriped { stripes: 7 },
        ] {
            assert_eq!(parse_strategy(&strategy_name(s)), Some(s));
        }
        assert_eq!(parse_strategy("striped:0"), None);
        assert_eq!(parse_strategy("striped:x"), None);
        assert_eq!(parse_strategy("cuda"), None);
        for b in [WorkerBudget::Uniform, WorkerBudget::Streamed] {
            assert_eq!(parse_budget(budget_name(b)), Some(b));
        }
    }

    #[test]
    fn profile_round_trips_through_json() {
        let plan = sample_plan();
        let profile = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan);
        let json = serde_json::to_string(&profile).unwrap();
        let back: LaunchProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
        assert_eq!(back.to_plan().unwrap(), plan);
        assert!(back.is_non_default());
    }

    #[test]
    fn default_plan_is_reported_as_default() {
        let plan = LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 1,
            },
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
        );
        let profile = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan);
        assert!(!profile.is_non_default());
    }

    #[test]
    fn bad_fields_are_rejected_by_name() {
        let plan = sample_plan();
        let mut p = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan);
        p.schema = "gaia-tune-profile/v0".into();
        assert!(matches!(p.to_plan(), Err(ProfileError::Schema(_))));

        let mut p = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan);
        p.att = "owner-computes".into();
        assert!(
            matches!(p.to_plan(), Err(ProfileError::Field { field: "att", .. })),
            "{:?}",
            p.to_plan()
        );

        let mut p = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan);
        p.threads = 0;
        assert!(matches!(
            p.to_plan(),
            Err(ProfileError::Field {
                field: "threads",
                ..
            })
        ));
    }

    /// Write the current profile stamped with an older schema `version`,
    /// with `extra` spliced in before `tuned_median_s`, and load it back.
    fn load_older(version: &str, extra: &str) -> ProfileError {
        let dir = std::env::temp_dir().join(format!(
            "gaia-tune-profile-{version}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let current = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &sample_plan());
        let old = serde_json::to_string_pretty(&current)
            .unwrap()
            .replace(PROFILE_SCHEMA, &format!("gaia-tune-profile/{version}"))
            .replace("\"tuned_median_s\"", &format!("{extra} \"tuned_median_s\""));
        let path = dir.join("tiny.json");
        std::fs::write(&path, old).unwrap();
        let err = load_profile_file(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        err
    }

    /// A v1 file (which still carries the dropped `variant` field) is
    /// refused by schema, and the message names both versions.
    #[test]
    fn v1_profile_file_is_refused_by_schema() {
        let err = load_older("v1", "\"variant\": \"blocked\",");
        assert!(matches!(err, ProfileError::Schema(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("gaia-tune-profile/v1"), "{msg}");
        assert!(msg.contains(PROFILE_SCHEMA), "{msg}");
    }

    /// A v2 file is refused by its schema tag alone: every other field of
    /// this one is a valid v3 field, and lowers to a sound plan once the
    /// tag is current. Whether it still carries v2's value-layout field is
    /// no matter, since unknown fields are ignored.
    #[test]
    fn v2_profile_file_is_refused_by_schema() {
        let err = load_older("v2", "");
        assert!(matches!(err, ProfileError::Schema(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("gaia-tune-profile/v2"), "{msg}");
        assert!(msg.contains("gaia-tune-profile/v3"), "{msg}");
        let current = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &sample_plan());
        assert_eq!(current.to_plan(), Ok(sample_plan()));
    }

    #[test]
    fn directory_loading_skips_invalid_files() {
        let dir =
            std::env::temp_dir().join(format!("gaia-tune-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let good = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &sample_plan());
        std::fs::write(
            dir.join("tiny.json"),
            serde_json::to_string_pretty(&good).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        let mut bad = good.clone();
        bad.budget = "overlapped".into();
        std::fs::write(dir.join("bad.json"), serde_json::to_string(&bad).unwrap()).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let (profiles, rejected) = load_profiles_from(&dir);
        assert_eq!(profiles, vec![good]);
        assert_eq!(rejected.len(), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_zero_profiles() {
        let (profiles, rejected) =
            load_profiles_from(std::path::Path::new("/nonexistent/gaia-tuning"));
        assert!(profiles.is_empty());
        assert!(rejected.is_empty());
    }
}
