//! Direct timed calls of public functions, one layer at a time. These
//! run only in a traced run, on the workload's own system, and give the
//! per-layer numbers no wrapper can: the bandwidth denominators, the six
//! per-block kernels, the pool round trip, the thread-scaling panel, the
//! preconditioner, checkpoints, allreduce and tile loads.

use std::path::Path;

use gaia_backends::exec::Job;
use gaia_backends::{backend_by_name, kernels, ExecutorPool, SeqBackend};
use gaia_lsqr::{solve, Checkpoint, ColumnScaling, Lsqr, LsqrConfig};
use gaia_mpi_sim::ReduceOp;
use gaia_sparse::footprint::{aprod1_traffic_bytes, aprod2_traffic_bytes};
use gaia_sparse::{BlockKind, CapacityBudget, SparseSystem, TiledSystem};

use crate::host;
use crate::metrics::{Metrics, PANEL};
use crate::stats::median;

const MB: f64 = 1024.0 * 1024.0;

/// Seconds each of `reps` calls of `f` took.
fn time_calls(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = host::now();
            f();
            host::secs_since(t0)
        })
        .collect()
}

/// Median seconds of `reps` calls of `f`.
fn median_of(reps: usize, f: impl FnMut()) -> f64 {
    median(&time_calls(reps, f))
}

/// STREAM triad `a = b + s·c` over three arrays of `len` doubles on
/// `threads` pool lanes; GB/s of the best of `reps` passes, counting 24
/// bytes per element as STREAM does.
fn triad_gbps(len: usize, threads: usize, reps: usize) -> f64 {
    let pool = ExecutorPool::shared(threads);
    let chunk = len.div_ceil(threads).max(1);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    // First touch in parallel, as the triad passes will read and write.
    let init: Vec<Job<'_>> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk).zip(c.chunks_mut(chunk)))
        .map(|(a, (b, c))| {
            Box::new(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            }) as Job<'_>
        })
        .collect();
    pool.run(init);
    let passes = time_calls(reps, || {
        let jobs: Vec<Job<'_>> = a
            .chunks_mut(chunk)
            .zip(b.chunks(chunk).zip(c.chunks(chunk)))
            .map(|(a, (b, c))| {
                Box::new(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                }) as Job<'_>
            })
            .collect();
        pool.run(jobs);
        std::hint::black_box(&mut a);
    });
    let best = passes.into_iter().fold(f64::INFINITY, f64::min);
    24.0 * len as f64 / best / 1e9
}

/// The denominators: cores, last-level cache, and STREAM-triad bandwidth
/// both far outside the cache (arrays of at least 4 × LLC each, or as
/// large as memory allows) and at the size of the workload's matrix.
pub fn host_denominators(m: &mut Metrics, matrix_bytes: u64, smoke: bool) -> f64 {
    let threads = host::nproc();
    let llc = host::llc_mb();
    m.set("host.nproc", threads as f64);
    m.set("host.llc_mb", llc);
    // Three arrays must fit in half of what is available; a smoke run
    // keeps the arrays small, it only shows the path works.
    let cap_mb = if smoke {
        16.0
    } else {
        host::mem_available_mb() / 6.0
    };
    let array_mb = (4.0 * llc).min(cap_mb);
    let len = (array_mb * MB / 8.0) as usize;
    m.set("host.triad_array_mb", len as f64 * 8.0 / MB);
    m.set("host.triad_gbps", triad_gbps(len, threads, 3));
    // One thread, three arrays that together are as large as the matrix:
    // what the sequential kernels' bandwidth fractions are divided by.
    let ws_len = (matrix_bytes as usize / 24).max(1024);
    let ws = triad_gbps(ws_len, 1, 7);
    m.set("host.triad_ws_gbps", ws);
    ws
}

/// The six per-block kernels, sequential, over their full range. The
/// bandwidth fraction divides *computed* bytes (from the layout, ignoring
/// cache misses) by the time and by `triad_ws_gbps`.
pub fn block_kernels(m: &mut Metrics, sys: &SparseSystem, triad_ws_gbps: f64) {
    let layout = *sys.layout();
    let c = sys.columns();
    let (n_obs, n_rows) = (sys.n_obs_rows(), sys.n_rows());
    let x: Vec<f64> = (0..sys.n_cols()).map(|i| 1.0 + (i % 7) as f64).collect();
    let y: Vec<f64> = (0..n_rows).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut rows_out = vec![0.0f64; n_rows];
    let mut cols_out = vec![0.0f64; sys.n_cols()];
    let mut probe = |name: &str, bytes: u64, f: &mut dyn FnMut(&mut [f64], &mut [f64])| {
        let secs = median_of(7, || f(&mut rows_out, &mut cols_out));
        m.set(format!("backends.kernel.{name}_ms"), secs * 1e3);
        m.set(
            format!("backends.kernel.{name}_bw_frac"),
            bytes as f64 / secs / 1e9 / triad_ws_gbps,
        );
    };
    use BlockKind::{Astrometric, Attitude, Instrumental};
    probe(
        "aprod1_astro",
        aprod1_traffic_bytes(&layout, Astrometric),
        &mut |r, _| kernels::aprod1_astro(sys, &x, 0..n_obs, &mut r[..n_obs]),
    );
    probe(
        "aprod1_att",
        aprod1_traffic_bytes(&layout, Attitude),
        &mut |r, _| kernels::aprod1_att(sys, &x, 0..n_rows, r),
    );
    probe(
        "aprod1_instr",
        aprod1_traffic_bytes(&layout, Instrumental),
        &mut |r, _| kernels::aprod1_instr(sys, &x, 0..n_obs, &mut r[..n_obs]),
    );
    let (att, instr, glob) = (c.att as usize, c.instr as usize, c.glob as usize);
    probe(
        "aprod2_astro",
        aprod2_traffic_bytes(&layout, Astrometric),
        &mut |_, o| kernels::aprod2_astro(sys, &y, 0..layout.n_stars as usize, &mut o[..att]),
    );
    probe(
        "aprod2_att",
        aprod2_traffic_bytes(&layout, Attitude),
        &mut |_, o| kernels::aprod2_att(sys, &y, 0..n_rows, &mut o[att..instr]),
    );
    probe(
        "aprod2_instr",
        aprod2_traffic_bytes(&layout, Instrumental),
        &mut |_, o| kernels::aprod2_instr(sys, &y, 0..n_obs, &mut o[instr..glob]),
    );
}

/// Round trip of one launch of `threads` empty jobs on the shared pool.
pub fn exec_launch(m: &mut Metrics, threads: usize) {
    let pool = ExecutorPool::shared(threads);
    let launch = || {
        let jobs: Vec<Job<'_>> = (0..threads).map(|_| Box::new(|| {}) as Job<'_>).collect();
        pool.run(jobs);
    };
    (0..200).for_each(|_| launch());
    m.set("backends.exec.launch_us", median_of(2000, launch) * 1e6);
}

/// Ten fixed iterations of every strategy at one thread and at `threads`:
/// iteration time at `threads`, and `t1 / (threads · tT)` beside it.
pub fn strategy_panel(m: &mut Metrics, sys: &SparseSystem, threads: usize) {
    let cfg = LsqrConfig::fixed_iterations(10);
    let iter_ms = |name: &str, t: usize| {
        let backend =
            backend_by_name(&format!("{name}-t{t}"), t).expect("panel names are registered");
        let sol = solve(sys, backend.as_ref(), &cfg);
        let secs: Vec<f64> = sol.history.iter().map(|h| h.seconds).collect();
        median(&secs) * 1e3
    };
    for name in PANEL {
        let t1 = iter_ms(name, 1);
        let tt = if threads == 1 {
            t1
        } else {
            iter_ms(name, threads)
        };
        m.set(format!("backends.{name}.iter_ms"), tt);
        m.set(
            format!("backends.{name}.scaling_eff"),
            t1 / (threads as f64 * tt),
        );
    }
}

/// The Jacobi preconditioner's set-up, and a checkpoint of a mid-solve
/// state written to and read back from `dir`.
pub fn precond_and_checkpoint(m: &mut Metrics, sys: &SparseSystem, dir: &Path) {
    m.set(
        "core.precond_s",
        median_of(3, || {
            std::hint::black_box(ColumnScaling::from_system(sys));
        }),
    );
    let cfg = LsqrConfig::new();
    let lsqr = Lsqr::new(sys, &SeqBackend, cfg);
    let mut state = lsqr.init_state();
    for _ in 0..5 {
        lsqr.step(&mut state);
    }
    let ckpt = Checkpoint::capture(sys, &cfg, &state);
    let path = dir.join("probe.ckpt");
    let save = median_of(3, || ckpt.save(&path).expect("checkpoint save"));
    let load = median_of(3, || {
        std::hint::black_box(Checkpoint::load(&path).expect("checkpoint load"));
    });
    let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    m.set("core.checkpoint_save_ms", save * 1e3);
    m.set("core.checkpoint_load_ms", load * 1e3);
    m.set("core.checkpoint_mb", bytes as f64 / MB);
}

/// Two simulated ranks summing an `n_cols` vector, and a scalar.
pub fn allreduce(m: &mut Metrics, n_cols: usize) {
    let per_call_us = |reps: usize, len: usize| {
        let secs = gaia_mpi_sim::run(2, |comm| {
            let mut buf = vec![0.5f64; len];
            comm.barrier();
            let t0 = host::now();
            for _ in 0..reps {
                comm.allreduce(ReduceOp::Sum, &mut buf);
                buf.fill(0.5);
            }
            host::secs_since(t0)
        });
        secs[0] / reps as f64 * 1e6
    };
    m.set("mpi-sim.allreduce_vec_us", per_call_us(200, n_cols));
    m.set("mpi-sim.allreduce_scalar_us", per_call_us(2000, 1));
}

/// Direct `TiledSystem::tile` misses: a second handle on the spill
/// directory whose budget holds one tile, so every access loads.
/// Returns the median milliseconds of one load.
pub fn tile_load(m: &mut Metrics, dir: &Path) -> f64 {
    let probe = TiledSystem::open(dir).expect("open spill directory");
    let budget = CapacityBudget::limited(probe.min_budget());
    let tiles = TiledSystem::open_with_budget(dir, budget).expect("open with one-tile budget");
    let mut secs = Vec::new();
    let mut bytes = 0u64;
    for pass in 0..3 {
        for t in 0..tiles.n_tiles() {
            let t0 = host::now();
            let (_, access) = tiles.tile(t).expect("tile load");
            let dt = host::secs_since(t0);
            assert!(
                !access.hit || tiles.n_tiles() == 1,
                "one-tile budget must miss"
            );
            if pass > 0 {
                secs.push(dt);
                bytes += access.loaded_bytes;
            }
        }
    }
    let ms = median(&secs) * 1e3;
    m.set("sparse.tile_load_ms", ms);
    m.set(
        "sparse.tile_load_mb_per_s",
        bytes as f64 / MB / secs.iter().sum::<f64>(),
    );
    ms
}
