//! One lowering: the launches run the job list `LaunchPlan::jobs` gives,
//! and the plan checker proves that same list, the one-launch
//! Golub–Kahan pass included. If the executor and the list drift apart,
//! the pool's counters disagree with the list; if a plan's list is
//! unsound, the checker says so before anything runs.

use std::path::Path;

use gaia_backends::launch::{JobSpec, Launch, LaunchPlan};
use gaia_backends::plan_check::section_models;
use gaia_backends::profile::load_profile_file;
use gaia_backends::{backend_by_name, backend_names, ExecutorPool, PlanDims};
use gaia_sparse::{Generator, GeneratorConfig, SparseSystem, SystemLayout};

/// Every plan-driven registry name at `threads`, with its plan.
fn registry_plans(threads: usize) -> Vec<(String, LaunchPlan)> {
    backend_names()
        .iter()
        .map(|name| format!("{name}-t{threads}"))
        .filter_map(|name| {
            let plan = backend_by_name(&name, threads)?.launch_plan()?;
            Some((name, plan))
        })
        .collect()
}

/// `(waves, jobs)` of a job list: one pool launch per wave that has jobs.
fn waves_and_jobs(jobs: &[JobSpec]) -> (u64, u64) {
    let mut waves: Vec<u8> = jobs.iter().map(|job| job.wave).collect();
    waves.dedup();
    (waves.len() as u64, jobs.len() as u64)
}

fn system(n_stars: u64, seed: u64) -> SparseSystem {
    let layout = SystemLayout {
        n_stars,
        ..SystemLayout::tiny()
    };
    Generator::new(GeneratorConfig::new(layout).seed(seed)).generate()
}

#[test]
fn each_launch_runs_the_waves_and_jobs_of_its_list() {
    // Star counts the thread counts do and do not divide, and a row block
    // whose first star is not the parent's.
    let parent = system(13, 17);
    let systems = [system(7, 5), parent.row_block(4..13, true).system, parent];
    for threads in [1usize, 2, 3, 8] {
        let plans = registry_plans(threads);
        assert_eq!(plans.len(), 12, "every name but seq and rayon has a plan");
        let pool = ExecutorPool::new(threads);
        for (name, plan) in &plans {
            for sys in &systems {
                let dims = PlanDims::for_system(sys);
                let x = vec![0.5; sys.n_cols()];
                let (mut u, mut out) = (vec![1.0; sys.n_rows()], vec![0.0; sys.n_cols()]);
                for launch in [Launch::Aprod1, Launch::Aprod2, Launch::Pass] {
                    let before = (pool.launch_count(), pool.jobs_run_count());
                    match launch {
                        Launch::Aprod1 => plan.aprod1(&pool, sys, &x, &mut u),
                        Launch::Aprod2 => plan.aprod2(&pool, sys, &u, &mut out),
                        Launch::Pass => plan.gk_products(&pool, sys, &x, 0.5, &mut u, &mut out),
                    }
                    let ran = (
                        pool.launch_count() - before.0,
                        pool.jobs_run_count() - before.1,
                    );
                    let listed = waves_and_jobs(&plan.jobs(&dims, launch));
                    assert_eq!(ran, listed, "{name} {launch:?} on {:?}", sys.layout());
                }
            }
        }
    }
}

#[test]
fn registry_plans_and_committed_profiles_check_clean_pass_included() {
    let mut plans: Vec<(String, LaunchPlan)> = [1usize, 2, 4, 64]
        .into_iter()
        .flat_map(registry_plans)
        .collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/tuning");
    let mut profiles = 0;
    for entry in std::fs::read_dir(&dir).expect("committed tuning profiles") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let profile = load_profile_file(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let plan = profile
                .to_plan()
                .unwrap_or_else(|e| panic!("{path:?}: {e}"));
            plans.push((path.display().to_string(), plan));
            profiles += 1;
        }
    }
    assert_eq!(profiles, 3, "tiny, small and medium");
    let mut passes = 0;
    for (what, plan) in &plans {
        for dims in PlanDims::canonical() {
            let proof = plan
                .analyze(&dims)
                .unwrap_or_else(|e| panic!("{what} on {dims:?}: {e}"));
            let mut sections = plan.write_model(&dims).len();
            if plan.gk_in_one_launch() {
                let pass = section_models(&plan.jobs(&dims, Launch::Pass), &dims);
                assert!(pass.len() >= 2, "{what}: the pass owns u and stars");
                sections += pass.len();
                passes += 1;
            }
            assert_eq!(proof.sections, sections, "{what} on {dims:?}");
        }
    }
    // atomic, casloop and tuned at four thread counts, and the three
    // profiles, on each canonical shape.
    assert_eq!(passes, (3 * 4 + 3) * PlanDims::canonical().len());
}
