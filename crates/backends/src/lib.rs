//! # gaia-backends
//!
//! Parallel compute backends for the AVU-GSR `aprod` kernels.
//!
//! The paper ports the same two sparse products — `aprod1` (`b̃ += A x̃`) and
//! `aprod2` (`x̃ += Aᵀ b̃`) — to CUDA, HIP, SYCL, OpenMP-GPU, and C++ PSTL,
//! and studies how each framework's *properties* (explicit kernel tuning,
//! atomic-update code generation, asynchronous streams) interact with the
//! hardware. Rust has no production GPU-offload story, so this crate
//! reproduces the framework axis on the CPU with strategies that exercise
//! the same algorithmic trade-offs the paper discusses in §IV:
//!
//! | Registry name | Paper analogue | `aprod2` conflict strategy |
//! |---|---|---|
//! | `seq` | reference / oracle | none (serial) |
//! | `chunked` | OpenMP target teams (owner-computes) | column-range ownership |
//! | `atomic` | CUDA/HIP atomicAdd (RMW) | each job combines its rows privately, then one relaxed atomic `f64` add per touched column into the shared section, unordered, no reduction wave |
//! | `casloop` | compilers that emit CAS loops instead of RMW (§V-B, MI250X discussion) | as `atomic`, publishing with SeqCst compare-and-swap retry loops |
//! | `replicated` | privatization + reduction | per-chunk buffers kept across a barrier, summed in fixed order in a second wave |
//! | `striped` | lock-based fallback | striped mutexes |
//! | `rayon` | C++ PSTL (the runtime picks the chunking; only the thread count is set) | as `replicated`, frozen at 4 chunks per thread: a `-t` suffix and no `-c` |
//! | `streamed` | CUDA streams overlapping the four `aprod2` kernels | disjoint block sections on concurrent threads |
//! | `hybrid` | the production composition: per-block strategy mix in streams | star-chunks + privatized attitude + owner-computes instrumental |
//! | `unrolled` / `blocked` / `ell` | aliases of `chunked`, kept for the names of a deleted kernel-interior axis and of the deleted slot-major (ELL) value layout | as `chunked` |
//! | `tiled` | the out-of-core launch shape, one row tile at a time | as `chunked` |
//! | `tuned` | the launch configuration pinned per platform after the §V-B search | whatever the persisted profile for the system's shape says; `atomic`'s where none does |
//!
//! Every name but `seq` ([`SeqBackend`], the oracle) is one
//! [`PlannedBackend`] over the [`LaunchPlan`] in its row of the
//! [`registry`] table, run on the shared [`ExecutorPool`];
//! [`backend_by_name`] builds them.
//!
//! All backends implement [`Backend`] and are validated against each other
//! and against a dense oracle; the astrometric part of `aprod2` is always
//! parallelized over *stars* (collision-free thanks to the block-diagonal
//! structure, exactly as in the production CUDA code), while the attitude,
//! instrumental, and global parts need a conflict strategy.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomicf64;
pub mod blas;
pub mod chaos;
pub mod exec;
pub mod instrumented;
pub mod kernels;
pub mod launch;
pub mod plan_check;
pub mod profile;
pub mod registry;
pub mod traits;
pub mod tuning;

mod backend_planned;
mod backend_seq;

pub use backend_planned::PlannedBackend;
pub use backend_seq::SeqBackend;
pub use chaos::{ChaosBackend, ChaosMode, ChaosTarget};
pub use exec::ExecutorPool;
pub use instrumented::InstrumentedBackend;
pub use launch::{Aprod2Spec, Aprod2Strategy, AtomicFlavor, LaunchPlan, WorkerBudget};
pub use plan_check::{
    check_sections, PlanDims, PlanError, PlanProof, PlanViolation, ReadAccess, ReadSync, SectionId,
    SectionModel, WriteAccess,
};
pub use profile::{LaunchProfile, ProfileError, PROFILE_SCHEMA};
pub use registry::{
    all_backends, backend_by_name, backend_names, grid_backends, instrumented_by_name,
};
pub use traits::Backend;
pub use tuning::Tuning;
