//! Distributed (observation-sharded) LSQR — the MPI + accelerator shape
//! of the production solver.
//!
//! Mirrors the production decomposition (§IV): each rank owns a
//! star-aligned block of the rows as a [`RowBlock`] — a [`SparseSystem`]
//! any [`Backend`] (the per-rank "GPU") can drive, exactly the MPI+CUDA
//! hybrid of the paper, that is a *view* of the caller's matrix: it shares
//! the coefficient, index and known-term storage and allocates only its
//! renumbered astrometric index (8 B a row), so a solve holds the matrix
//! once however many ranks run it. The unknown-sized vectors `v`, `w`,
//! `x` are replicated. There is no distributed copy of the LSQR
//! iteration: a rank runs [`OperatorLsqr`] — the recurrence, stop rules,
//! health guards and cancellation of [`crate::lsqr`] — over a private
//! [`Operator`] of its block, and this file adds only that operator and
//! the checkpoint assembly. Per iteration the operator computes one
//! local product and makes three collectives:
//!
//! * `aprod1` is purely local (each rank computes its own rows on its
//!   backend);
//! * `aprod2` produces a local partial of the unknown vector which is
//!   `MPI_Allreduce`-summed — the deterministic rank-ordered reduction of
//!   [`gaia_mpi_sim`] makes the replicated state bit-identical on every
//!   rank;
//! * the norm of the sharded `u` is an allreduce of local sums of squares;
//! * the iteration's wall time and stop verdict are max-allreduced, so
//!   every rank records "the iteration time maximized among all MPI
//!   processes" and stops at the same iteration for the same reason.
//!
//! Blocks renumber the astrometric columns locally (stars are
//! partitioned), so the only index translation is a fixed offset for the
//! astro section; the attitude / instrumental / global columns are shared
//! verbatim. Because the collectives are deterministic, a distributed
//! solve on any rank count equals the single-rank solve to
//! reduction-order noise — the integration tests assert this.

use std::cell::RefCell;
use std::sync::OnceLock;

use gaia_backends::{blas, Backend, SeqBackend};
use gaia_mpi_sim::{try_run, AbortCause, Communicator, FaultError, ReduceOp, WorldOptions};
use gaia_sparse::{RowBlock, RowPartition, SparseSystem};

use crate::cancel::CancellationToken;
use crate::config::LsqrConfig;
use crate::lsqr::{LsqrState, OperatorLsqr};
use crate::operator::{Operator, OperatorError};
use crate::solution::{Solution, StopReason};

/// Rank `rank`'s rows under `partition`: a [`RowBlock`] that shares
/// `full`'s storage. The last rank's block ends with the constraint rows.
///
/// # Panics
/// If the partition gives the rank no star (more ranks than stars), which
/// [`try_solve_hybrid`] refuses before it launches anything.
pub fn rank_block(full: &SparseSystem, partition: &RowPartition, rank: usize) -> RowBlock {
    let range = partition.range(rank);
    let obs_per_star = full.layout().obs_per_star;
    // The last rank's range runs on over the constraint rows.
    let obs_end = range.end.min(full.n_obs_rows() as u64);
    full.row_block(
        range.start / obs_per_star..obs_end / obs_per_star,
        rank + 1 == partition.n_ranks(),
    )
}

/// Checkpoint sink invoked on rank 0 with the assembled global state.
pub type CheckpointSink<'a> = &'a (dyn Fn(&LsqrState) + Sync);

/// Options of a fault-aware / resumable distributed solve.
#[derive(Default)]
pub struct DistOptions<'a> {
    /// Fault-injection plan and collective timeout for the simulated
    /// world; defaults to a fault-free world.
    pub world: WorldOptions,
    /// Resume from a (checkpoint-restored) global state instead of
    /// starting fresh. The state must belong to the same system/config
    /// (use [`crate::checkpoint::Checkpoint::restore`] to enforce that).
    pub resume: Option<&'a LsqrState>,
    /// Assemble the replicated state (plus an allgather of the sharded
    /// `u`) every this many iterations and hand it to `checkpoint_sink`
    /// on rank 0. `0` disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Receiver of the periodic snapshots (rank 0 only).
    pub checkpoint_sink: Option<CheckpointSink<'a>>,
    /// Cooperative cancellation (deadline or explicit). Each rank reads
    /// the token locally, but the stop decision is collective: the
    /// cancel flag rides the per-iteration Max-allreduce, so every rank
    /// stops at the same iteration with identical replicated state. When
    /// periodic checkpointing is on, a final checkpoint is taken at the
    /// cancellation iteration before returning.
    pub cancel: Option<CancellationToken>,
}

/// Solve `sys` on `n_ranks` simulated MPI ranks, each running the
/// sequential reference backend on its rows; returns rank 0's solution
/// (all ranks produce identical results by construction).
pub fn solve_distributed(sys: &SparseSystem, n_ranks: usize, config: &LsqrConfig) -> Solution {
    solve_hybrid(sys, n_ranks, config, |_| Box::new(SeqBackend))
}

/// Hybrid MPI+X solve: `backend_for(rank)` supplies each rank's compute
/// backend (the per-rank "GPU"), mirroring the production MPI+CUDA
/// structure. All ranks produce identical replicated state; rank 0's
/// solution is returned.
pub fn solve_hybrid<F>(
    sys: &SparseSystem,
    n_ranks: usize,
    config: &LsqrConfig,
    backend_for: F,
) -> Solution
where
    F: Fn(usize) -> Box<dyn Backend> + Sync,
{
    try_solve_hybrid(sys, n_ranks, config, backend_for, &DistOptions::default())
        .expect("distributed solve failed")
}

/// Fault-aware hybrid solve: run under `opts` (fault plan, collective
/// timeout, resume state, periodic checkpoint sink). Rank failures and
/// collective timeouts — injected or real — surface as `Err(FaultError)`
/// instead of hanging or crashing the caller; the resilient supervisor
/// ([`crate::resilient`]) builds its retry loop on this. A rank owns whole
/// stars, so more ranks than stars is refused before any rank is spawned
/// ([`AbortCause::WorldTooLarge`]): no retry of that launch can succeed.
pub fn try_solve_hybrid<F>(
    sys: &SparseSystem,
    n_ranks: usize,
    config: &LsqrConfig,
    backend_for: F,
    opts: &DistOptions<'_>,
) -> Result<Solution, FaultError>
where
    F: Fn(usize) -> Box<dyn Backend> + Sync,
{
    config.validate().expect("invalid LSQR configuration");
    let max_ranks = sys.layout().n_stars as usize;
    if n_ranks > max_ranks {
        return Err(FaultError {
            cause: Some(AbortCause::WorldTooLarge {
                ranks: n_ranks,
                max_ranks,
            }),
            panicked: Vec::new(),
            message: format!("{n_ranks} ranks cannot each own one of {max_ranks} star(s)"),
        });
    }
    let partition = RowPartition::new(sys.layout(), n_ranks);
    // One scan of the full matrix, shared by every rank that asks.
    let column_norms = OnceLock::new();
    let mut results = try_run(n_ranks, opts.world.clone(), |comm| {
        let backend = backend_for(comm.rank());
        let op = ShardOperator {
            full: sys,
            column_norms: &column_norms,
            block: rank_block(sys, &partition, comm.rank()),
            backend: backend.as_ref(),
            comm,
            scratch: RefCell::default(),
        };
        rank_solve(op, config, opts)
    })?;
    Ok(results.swap_remove(0))
}

/// One rank's view of the full system as an [`Operator`]: the rows of its
/// block — borrowed from `full`, never copied — and the columns of the
/// whole system. Row-space vectors (`u`, `b`)
/// are sharded, column-space vectors replicated; the three methods that
/// cross the shard boundary — `aprod2`, `row_nrm2`, `agree` — are the
/// three collectives of an iteration. The rank-ordered reductions of
/// [`gaia_mpi_sim`] return the same bits on every rank, so the replicated
/// state never diverges.
struct ShardOperator<'a> {
    full: &'a SparseSystem,
    column_norms: &'a OnceLock<Vec<f64>>,
    block: RowBlock,
    backend: &'a dyn Backend,
    comm: Communicator,
    scratch: RefCell<Scratch>,
}

/// Buffers reused by every product of a [`ShardOperator`].
#[derive(Default)]
struct Scratch {
    /// A vector over the block's own columns.
    local: Vec<f64>,
    /// This rank's `Aᵀy` over the full column space, then the sum of all.
    partial: Vec<f64>,
}

impl Operator for ShardOperator<'_> {
    fn n_rows(&self) -> usize {
        self.block.system.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.full.n_cols()
    }

    fn known_terms(&self) -> &[f64] {
        self.block.system.known_terms()
    }

    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        Ok(self
            .column_norms
            .get_or_init(|| self.full.column_norms())
            .clone())
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let local = &mut self.scratch.borrow_mut().local;
        self.block.gather_cols_into(x, local);
        self.backend.aprod1(&self.block.system, local, out);
        Ok(())
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let Scratch { local, partial } = &mut *self.scratch.borrow_mut();
        local.clear();
        local.resize(self.block.system.n_cols(), 0.0);
        partial.clear();
        partial.resize(self.full.n_cols(), 0.0);
        self.backend.aprod2(&self.block.system, y, local);
        self.block.add_cols_into(local, partial);
        {
            let mut t = gaia_telemetry::collective_scope();
            t.add_bytes(partial.len() as u64 * 8);
            self.comm.allreduce(ReduceOp::Sum, partial);
        }
        blas::axpy(out, 1.0, partial);
        Ok(())
    }

    fn row_nrm2(&self, u: &[f64]) -> f64 {
        let local_sq: f64 = u.iter().map(|x| x * x).sum();
        let _t = gaia_telemetry::collective_scope();
        self.comm.allreduce_scalar(ReduceOp::Sum, local_sq).sqrt()
    }

    fn agree(&self, seconds: f64, flag: f64) -> (f64, f64) {
        let mut payload = [seconds, flag];
        let _t = gaia_telemetry::collective_scope();
        self.comm.allreduce(ReduceOp::Max, &mut payload);
        (payload[0], payload[1])
    }
}

/// Drive the shared recurrence on one rank: start or resume, step, and
/// assemble a global checkpoint when one is due.
fn rank_solve(op: ShardOperator<'_>, cfg: &LsqrConfig, opts: &DistOptions<'_>) -> Solution {
    const INFALLIBLE: &str = "a rank's operator cannot fail";
    let m = op.full.n_rows();
    let rows = op.block.rows.clone();
    let mut solver = OperatorLsqr::new(op, *cfg).expect(INFALLIBLE);
    if let Some(token) = &opts.cancel {
        solver = solver.with_cancel(token.clone());
    }
    let mut state = match opts.resume {
        // Resume a checkpoint-restored global state: slice the sharded u,
        // keep the replicated rest. Because the reductions are rank-ordered
        // deterministic, the resumed trajectory is bit-identical to the
        // uninterrupted one at the same rank count.
        Some(st) => {
            debug_assert_eq!(st.u.len(), m, "resume state must carry the full u");
            LsqrState {
                u: st.u[rows].to_vec(),
                ..st.clone()
            }
        }
        None => solver.try_init_state().expect(INFALLIBLE),
    };
    while !state.is_done() {
        let stop = solver.try_step(&mut state).expect(INFALLIBLE);
        // A checkpoint is due every `checkpoint_every` iterations that go
        // on, and at the iteration a cancellation stops, so that recovery
        // resumes exactly where the deadline struck. The allgather is a
        // collective and every rank holds the same `stop`, so every rank
        // takes part whether or not it consumes the snapshot.
        let every = opts.checkpoint_every;
        let due = every > 0
            && match stop {
                None => state.itn % every == 0,
                Some(reason) => reason == StopReason::Cancelled,
            };
        if due {
            let comm = &solver.operator().comm;
            let gathered = {
                let mut t = gaia_telemetry::collective_scope();
                t.add_bytes(state.u.len() as u64 * 8);
                comm.allgather(&state.u)
            };
            if let (0, Some(sink)) = (comm.rank(), opts.checkpoint_sink) {
                let u = gathered.concat();
                debug_assert_eq!(u.len(), m);
                sink(&LsqrState {
                    u,
                    stopped: None,
                    ..state.clone()
                });
            }
        }
    }
    Solution {
        n_rows: m,
        ..solver.finish(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::solve;
    use gaia_backends::{backend_by_name, SeqBackend};
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn system(seed: u64) -> SparseSystem {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 });
        Generator::new(cfg).generate()
    }

    #[test]
    fn rank_blocks_tile_the_full_system_without_copying_it() {
        let sys = system(300);
        let partition = RowPartition::new(sys.layout(), 3);
        let mut covered_rows = 0usize;
        let mut covered_stars = 0u64;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut local_x = Vec::new();
        for rank in 0..3 {
            let block = rank_block(&sys, &partition, rank);
            assert!(block.system.shares_storage_with(&sys), "rank {rank}");
            assert_eq!(block.rows.start, covered_rows);
            covered_rows += block.system.n_rows();
            covered_stars += block.system.layout().n_stars;
            // The block's rows reproduce the full system's row dots.
            block.gather_cols_into(&x, &mut local_x);
            for (li, gi) in block.rows.clone().enumerate() {
                let want = sys.row_dot(gi, &x);
                let got = block.system.row_dot(li, &local_x);
                assert_eq!(want.to_bits(), got.to_bits(), "rank {rank} row {gi}");
                assert_eq!(block.system.known_terms()[li], sys.known_terms()[gi]);
            }
        }
        assert_eq!(covered_rows, sys.n_rows());
        assert_eq!(covered_stars, sys.layout().n_stars);
    }

    #[test]
    fn per_block_aprod2_sums_to_the_full_product() {
        let sys = system(301);
        let partition = RowPartition::new(sys.layout(), 4);
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut want = vec![0.0; sys.n_cols()];
        SeqBackend.aprod2(&sys, &y, &mut want);
        let mut got = vec![0.0; sys.n_cols()];
        for rank in 0..4 {
            let block = rank_block(&sys, &partition, rank);
            let mut local = vec![0.0; block.system.n_cols()];
            SeqBackend.aprod2(&block.system, &y[block.rows.clone()], &mut local);
            block.add_cols_into(&local, &mut got);
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-11);
        }
    }

    #[test]
    fn more_ranks_than_stars_is_refused_before_any_rank_is_spawned() {
        let sys = system(307);
        let n_stars = sys.layout().n_stars as usize;
        let err = try_solve_hybrid(
            &sys,
            n_stars + 1,
            &LsqrConfig::new(),
            |rank| -> Box<dyn Backend> { panic!("rank {rank} was spawned") },
            &DistOptions::default(),
        )
        .expect_err("a rank without a star has nothing to run");
        assert_eq!(
            err.cause,
            Some(AbortCause::WorldTooLarge {
                ranks: n_stars + 1,
                max_ranks: n_stars
            })
        );
        assert!(err.panicked.is_empty(), "{err}");
        assert!(err.message.contains("star"), "{err}");
        // One star per rank is the largest world that runs.
        let sol = solve_distributed(&sys, n_stars, &LsqrConfig::new());
        assert!(sol.stop.converged(), "{:?}", sol.stop);
    }

    #[test]
    fn distributed_matches_single_rank_reference() {
        let sys = system(302);
        let reference = solve(&sys, &SeqBackend, &LsqrConfig::new());
        for n_ranks in [1usize, 2, 3, 5] {
            let dist = solve_distributed(&sys, n_ranks, &LsqrConfig::new());
            assert_eq!(dist.stop.converged(), reference.stop.converged());
            let max_diff = dist
                .x
                .iter()
                .zip(&reference.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                max_diff < 1e-6,
                "{n_ranks} ranks deviate by {max_diff} (stop {:?})",
                dist.stop
            );
        }
    }

    #[test]
    fn hybrid_ranks_with_parallel_backends_agree() {
        // MPI + threads: each rank drives its shard with a different
        // parallel backend — heterogeneity must not change the solution
        // beyond float noise. Iteration counts are compared only within
        // a noise window, not for equality: the parallel backends sum
        // `aprod2` contributions in different (for `atomic`,
        // scheduling-dependent — see tests/restart_props.rs) orders, so
        // the iteration at which the convergence test first trips may
        // legitimately shift by one or two around the sequential
        // reference's crossing.
        let sys = system(303);
        let reference = solve_distributed(&sys, 3, &LsqrConfig::new());
        let hybrid = solve_hybrid(&sys, 3, &LsqrConfig::new(), |rank| {
            let names = ["atomic", "replicated", "streamed"];
            backend_by_name(names[rank % 3], 2).unwrap()
        });
        assert!(
            reference.stop.converged(),
            "reference must converge, stopped with {:?}",
            reference.stop
        );
        assert!(
            hybrid.stop.converged(),
            "hybrid must converge, stopped with {:?}",
            hybrid.stop
        );
        let max_diff = hybrid
            .x
            .iter()
            .zip(&reference.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-8, "hybrid deviates by {max_diff}");
        let delta = hybrid.iterations.abs_diff(reference.iterations);
        assert!(
            delta <= 2,
            "hybrid took {} iterations vs reference {} — beyond \
             summation-order noise, likely an aprod defect",
            hybrid.iterations,
            reference.iterations
        );
    }

    #[test]
    fn cancelled_distributed_solve_stops_consistently_and_checkpoints() {
        use crate::cancel::CancellationToken;
        use std::sync::Mutex;
        let sys = system(305);
        let token = CancellationToken::new();
        token.cancel();
        let taken: Mutex<Option<LsqrState>> = Mutex::new(None);
        let sink = |st: &LsqrState| {
            *taken.lock().unwrap() = Some(st.clone());
        };
        let sol = try_solve_hybrid(
            &sys,
            3,
            &LsqrConfig::new(),
            |_| Box::new(SeqBackend),
            &DistOptions {
                checkpoint_every: 2,
                checkpoint_sink: Some(&sink),
                cancel: Some(token),
                ..Default::default()
            },
        )
        .expect("cancellation is a clean stop, not a fault");
        // A token cancelled before launch stops every rank at the first
        // iteration boundary — one complete iteration, then Cancelled.
        assert_eq!(sol.stop, StopReason::Cancelled);
        assert_eq!(sol.iterations, 1);
        // The cancellation checkpoint exists and resumes to convergence.
        let st = taken.lock().unwrap().clone().expect("cancel checkpoint");
        assert_eq!(st.itn, 1);
        let resumed = try_solve_hybrid(
            &sys,
            3,
            &LsqrConfig::new(),
            |_| Box::new(SeqBackend),
            &DistOptions {
                resume: Some(&st),
                ..Default::default()
            },
        )
        .unwrap();
        let reference = solve_distributed(&sys, 3, &LsqrConfig::new());
        assert!(resumed.stop.converged(), "{:?}", resumed.stop);
        assert_eq!(resumed.x, reference.x, "resume must be bit-identical");
    }

    /// Run `f` on each of three ranks' operators; results in rank order.
    fn on_three_ranks<R: Send>(
        sys: &SparseSystem,
        f: impl Fn(ShardOperator<'_>) -> R + Sync,
    ) -> Vec<R> {
        let partition = RowPartition::new(sys.layout(), 3);
        let column_norms = OnceLock::new();
        gaia_mpi_sim::run(3, |comm| {
            f(ShardOperator {
                full: sys,
                column_norms: &column_norms,
                block: rank_block(sys, &partition, comm.rank()),
                backend: &SeqBackend,
                comm,
                scratch: RefCell::default(),
            })
        })
    }

    #[test]
    fn shard_operator_aprod2_accumulates_the_reduced_product_on_every_rank() {
        let sys = system(306);
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let out0: Vec<f64> = (0..sys.n_cols()).map(|i| 1.0 + i as f64 * 0.5).collect();
        let mut want = out0.clone();
        SeqBackend.aprod2(&sys, &y, &mut want);

        let outs = on_three_ranks(&sys, |op| {
            let mut out = out0.clone();
            // Twice over, so a partial left over from the first product
            // would show in the second.
            for _ in 0..2 {
                out.copy_from_slice(&out0);
                op.aprod2(&y[op.block.rows.clone()], &mut out).unwrap();
            }
            out
        });
        for (g, w) in outs[0].iter().zip(&want) {
            assert!((g - w).abs() < 1e-11, "{g} vs {w}");
        }
        assert_eq!(outs[1], outs[0], "ranks must hold identical bits");
        assert_eq!(outs[2], outs[0], "ranks must hold identical bits");
    }

    #[test]
    fn every_rank_records_the_max_rank_time_and_the_full_row_count() {
        let sys = system(304);
        let cfg = LsqrConfig::fixed_iterations(5);
        let sols = on_three_ranks(&sys, |op| rank_solve(op, &cfg, &DistOptions::default()));
        for sol in &sols {
            assert_eq!(sol.iterations, 5);
            assert_eq!(sol.n_rows, sys.n_rows());
            assert!(sol.history.iter().all(|s| s.seconds > 0.0));
            // Equal on every rank because it is the reduced maximum.
            assert_eq!(sol.history, sols[0].history);
            assert_eq!(sol.x, sols[0].x);
        }
    }
}
