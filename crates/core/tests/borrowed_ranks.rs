//! Ranks borrow their rows: a distributed solve allocates vectors and
//! nothing matrix-sized, at any rank count, on a first launch and on a
//! supervised relaunch alike.
//!
//! A counting global allocator tracks the bytes live at any instant; the
//! high-water mark above what was live when the solve began is what the
//! solve itself held. A rank that copied its rows (as every rank did
//! before `SparseSystem::row_block`) holds its share of the matrix, so all
//! ranks together hold one more matrix: ≥ 1 × `device_bytes`. Per-rank
//! vectors, the renumbered astrometric index (8 B of a 240 B row) and the
//! collectives' payloads stay well under half of that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gaia_backends::{Backend, SeqBackend};
use gaia_lsqr::distributed::{rank_block, DistOptions};
use gaia_lsqr::resilient::{AttemptOutcome, ResilienceOptions};
use gaia_lsqr::{solve_resilient, try_solve_hybrid, LsqrConfig, RecoveryPolicy};
use gaia_mpi_sim::{install_quiet_panic_hook, FaultKind, FaultPlan};
use gaia_sparse::footprint::device_bytes;
use gaia_sparse::{Generator, GeneratorConfig, Rhs, RowPartition, SparseSystem, SystemLayout};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// ORDERING: `Relaxed` throughout. The counters publish no other data, and
// the one read that matters follows the join of every thread the measured
// solve spawned, which orders all their updates before it.
//
// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` held at once beyond what was live when it started.
/// The counters are process-wide, which is why this file is one `#[test]`.
fn peak_bytes_held_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

fn seq_backends() -> impl Fn(usize) -> Box<dyn Backend> + Sync {
    |_| Box::new(SeqBackend) as Box<dyn Backend>
}

#[test]
fn a_distributed_solve_allocates_nothing_matrix_sized() {
    let layout = SystemLayout::small();
    let sys: SparseSystem = Generator::new(
        GeneratorConfig::new(layout)
            .seed(2201)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate();
    let bound = device_bytes(&layout) as usize / 2;
    let cfg = LsqrConfig::new();

    for n_ranks in [1usize, 2, 4] {
        let partition = RowPartition::new(&layout, n_ranks);
        for rank in 0..n_ranks {
            let block = rank_block(&sys, &partition, rank);
            assert!(
                block.system.shares_storage_with(&sys),
                "rank {rank} of {n_ranks} copied its rows"
            );
        }
        let (sol, held) = peak_bytes_held_by(|| {
            try_solve_hybrid(&sys, n_ranks, &cfg, seq_backends(), &DistOptions::default())
                .expect("fault-free world")
        });
        assert!(sol.stop.converged(), "{n_ranks} ranks: {:?}", sol.stop);
        assert!(
            held < bound,
            "{n_ranks} rank(s) held {held} B at once, bound {bound} B"
        );
    }

    // One scripted rank death: the failed launch and the relaunch both run
    // inside the measured call, so its high-water mark bounds each of them.
    // Periodic checkpoints are off: the half-dozen state-sized copies one
    // costs (`u` alone is a thirtieth of this small matrix) are the
    // supervisor's, and what is measured here is what a launch holds.
    install_quiet_panic_hook();
    let plan = Arc::new(FaultPlan::scripted(7).with_event(0, 1, 40, FaultKind::RankPanic));
    let (report, held) = peak_bytes_held_by(|| {
        solve_resilient(
            &sys,
            2,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: RecoveryPolicy {
                    backoff: Duration::ZERO,
                    checkpoint_every: 0,
                    ..RecoveryPolicy::default()
                },
                faults: Some(plan),
                collective_timeout: Some(Duration::from_secs(5)),
                ..Default::default()
            },
        )
        .expect("one rank death is recoverable")
    });
    assert_eq!(report.attempts.len(), 2, "{:?}", report.attempts);
    assert!(matches!(
        report.attempts[0].outcome,
        AttemptOutcome::Failed { .. }
    ));
    assert!(report.solution.stop.converged());
    assert!(
        held < bound,
        "a supervised solve with one relaunch held {held} B at once, bound {bound} B"
    );
}
