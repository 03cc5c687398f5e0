//! The names and units of every metric the benchmark prints, and the
//! result object it ends its output with. `BENCHMARK.json` declares the
//! same names with their bounds; a test holds the two lists together.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

/// Every workload, in the order the whole-set command runs them.
pub const WORKLOADS: [&str; 5] = [
    "resident-seq",
    "resident-atomic",
    "tiled-0.75x",
    "dist-2rank",
    "served-mix",
];

/// `(name, unit)` of the end-to-end metrics; all five workloads print all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iter_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The strategies of the thread-scaling panel.
pub const PANEL: [&str; 12] = [
    "seq",
    "chunked",
    "atomic",
    "casloop",
    "replicated",
    "striped",
    "streamed",
    "hybrid",
    "rayon",
    "unrolled",
    "blocked",
    "ell",
];

const KERNELS: [&str; 6] = [
    "aprod1_astro",
    "aprod1_att",
    "aprod1_instr",
    "aprod2_astro",
    "aprod2_att",
    "aprod2_instr",
];

const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.llc_mb", "MB"),
    ("host.triad_gbps", "GB/s"),
    ("host.triad_array_mb", "MB"),
    ("host.triad_ws_gbps", "GB/s"),
    ("sparse.generate_s", "s"),
    ("sparse.generate_mrows_per_s", "Mrows/s"),
    ("sparse.matrix_mb", "MB"),
    ("sparse.spill_s", "s"),
    ("sparse.spill_mb_per_s", "MB/s"),
    ("sparse.tile_load_ms", "ms"),
    ("sparse.tile_load_mb_per_s", "MB/s"),
    ("sparse.tile_loads", "count"),
    ("sparse.tile_hits", "count"),
    ("sparse.tile_evictions", "count"),
    ("sparse.tile_hit_ratio", "ratio"),
    ("sparse.tile_loaded_mb", "MB"),
    ("sparse.tile_peak_resident_mb", "MB"),
    ("sparse.tile_load_share", "ratio"),
    ("backends.aprod1_ms", "ms"),
    ("backends.aprod2_ms", "ms"),
    ("backends.blas_ms", "ms"),
    ("backends.aprod1_share", "ratio"),
    ("backends.aprod2_share", "ratio"),
    ("backends.blas_share", "ratio"),
    ("backends.exec.launch_us", "us"),
    ("backends.exec.launches_per_iter", "count"),
    ("backends.exec.jobs_per_iter", "count"),
    ("core.iterations", "count"),
    ("core.rel_residual", "ratio"),
    ("core.max_abs_diff_vs_ref", "rad"),
    ("core.within_1sigma_frac", "ratio"),
    ("core.precond_s", "s"),
    ("core.lsqr_self_ms", "ms"),
    ("core.lsqr_self_share", "ratio"),
    ("core.iter_p95_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_load_ms", "ms"),
    ("core.checkpoint_mb", "MB"),
    ("core.ooc_nonkernel_ms", "ms"),
    ("core.ooc_nonkernel_share", "ratio"),
    ("core.dist_compute_ms", "ms"),
    ("core.dist_noncompute_ms", "ms"),
    ("core.dist_noncompute_share", "ratio"),
    ("core.dist_rank_imbalance", "ratio"),
    ("core.dist_speedup", "ratio"),
    ("mpi-sim.allreduce_vec_us", "us"),
    ("mpi-sim.allreduce_scalar_us", "us"),
    ("mpi-sim.allreduce_kb_per_iter", "KB"),
    ("serve.submit_us", "us"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p90_ms", "ms"),
    ("serve.nonsolve_p50_ms", "ms"),
    ("serve.nonsolve_p90_ms", "ms"),
    ("serve.nonsolve_share", "ratio"),
    ("serve.solo_p50_ms", "ms"),
    ("serve.contention_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.retries", "count"),
    ("serve.outcome.converged", "count"),
    ("serve.outcome.degraded", "count"),
    ("serve.outcome.shed", "count"),
    ("serve.outcome.deadline", "count"),
    ("serve.outcome.faulted", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.spans", "count"),
];

/// `(name, unit)` of every per-layer metric, in printing order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in KERNELS {
        out.push((format!("backends.kernel.{k}_ms"), "ms"));
        out.push((format!("backends.kernel.{k}_bw_frac"), "ratio"));
    }
    for p in PANEL {
        out.push((format!("backends.{p}.iter_ms"), "ms"));
        out.push((format!("backends.{p}.scaling_eff"), "ratio"));
    }
    out
}

/// Whether the layer behind `metric` runs on `workload`. A per-layer
/// metric of a layer the workload never enters is printed as 0: no calls
/// were made and no time was spent there.
pub fn applies(metric: &str, workload: &str) -> bool {
    let only = |w: &str| workload == w;
    if metric.starts_with("sparse.tile_")
        || metric.starts_with("sparse.spill_")
        || metric.starts_with("core.ooc_")
    {
        only("tiled-0.75x")
    } else if metric.starts_with("core.dist_") || metric == "mpi-sim.allreduce_kb_per_iter" {
        only("dist-2rank")
    } else if metric.starts_with("serve.") {
        only("served-mix")
    } else if metric.starts_with("core.lsqr_self_") {
        // Where the recurrence runs on the calling thread, between
        // backend calls. Inside simulated ranks it cannot be told from
        // waiting for the other rank (see core.dist_noncompute_*).
        !only("served-mix") && !only("dist-2rank")
    } else if metric.starts_with("backends.aprod") {
        // The service builds its own backends: nothing to wrap.
        !only("served-mix")
    } else if metric.starts_with("backends.blas_") {
        // The distributed recurrence calls BLAS-1 directly, not through
        // its backend.
        !only("served-mix") && !only("dist-2rank")
    } else {
        true
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `value` under `name`; a name is recorded once.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.0.insert(name.clone(), value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// Record every `(name, value)` of `pairs`.
    pub fn set_all(&mut self, pairs: &[(&str, f64)]) {
        for &(name, value) in pairs {
            self.set(name, value);
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every solution passed the Fig. 6 check and converged.
    pub correct: bool,
    /// Timed solves or requests.
    pub attempted: u64,
    /// Those that errored, were shed, did not converge or failed the check.
    pub failed: u64,
    /// The metrics of this run's mode (end-to-end or per-layer).
    pub metrics: Metrics,
}

impl RunResult {
    /// `(name, unit, value)` of the declared metrics of this mode, in
    /// declaration order. Panics when the run recorded a name that is
    /// not declared, or missed one that applies to the workload.
    pub fn declared(&self, workload: &str, traced: bool) -> Vec<(String, &'static str, f64)> {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for recorded in self.metrics.0.keys() {
            assert!(
                names.iter().any(|(n, _)| n == recorded),
                "metric {recorded} is not declared"
            );
        }
        names
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(&name) {
                    Some(v) => v,
                    None if traced && !applies(&name, workload) => 0.0,
                    None => panic!("metric {name} applies to {workload} but was not measured"),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The result object the driver reads from the last line of output.
    pub fn to_json(&self, workload: &str, traced: bool) -> Value {
        let mut metrics = Map::new();
        for (name, unit, value) in self.declared(workload, traced) {
            metrics.insert(name, json!({"value": value, "unit": unit}));
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}
