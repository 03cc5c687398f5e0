//! # gaia-mpi-sim
//!
//! An in-process, thread-backed stand-in for the MPI layer of the
//! production AVU-GSR solver ("the Gaia AVU-GSR code leverages distributed
//! systems via MPI, where each MPI rank processes a subset of the
//! observations", §IV).
//!
//! Ranks are OS threads sharing a [`World`]; collectives follow MPI
//! semantics (every rank calls the same collective in the same order) and
//! reductions are applied in **rank order**, so results are bit-for-bit
//! deterministic regardless of thread scheduling — a property the tests
//! rely on when comparing a distributed solve against a single-rank solve.
//!
//! ```
//! use gaia_mpi_sim::{run, ReduceOp};
//!
//! let results = run(4, |comm| {
//!     let mut buf = vec![comm.rank() as f64 + 1.0];
//!     comm.allreduce(ReduceOp::Sum, &mut buf);
//!     buf[0]
//! });
//! assert_eq!(results, vec![10.0; 4]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod collectives;
pub mod comm;
pub mod fault;

pub use collectives::ReduceOp;
pub use comm::{
    run, try_run, AbortCause, Communicator, FaultError, InjectedPanic, World, WorldAborted,
    WorldOptions,
};
pub use fault::{install_quiet_panic_hook, FaultEvent, FaultKind, FaultPlan, FaultSpec};
