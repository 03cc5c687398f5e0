//! A step allocates nothing the size of the system: the Golub–Kahan
//! step's two column-space buffers belong to the solver, and the health
//! guards scan in place.
//!
//! A counting global allocator adds up every byte requested; the counter
//! is process-wide, which is why this file is one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gaia_backends::SeqBackend;
use gaia_lsqr::{LsqrConfig, OperatorLsqr, SystemOperator};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// ORDERING: `Relaxed`. The counter publishes no other data, and it is read
// on the thread that made every allocation it measures.
//
// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn twenty_steps_allocate_less_than_one_column_vector() {
    const STEPS: usize = 20;
    let sys = Generator::new(
        GeneratorConfig::new(SystemLayout::small())
            .seed(2301)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate();
    let cfg = LsqrConfig::fixed_iterations(STEPS);
    let solver = OperatorLsqr::new(SystemOperator::new(&sys, &SeqBackend), cfg).expect("resident");
    let mut state = solver.try_init_state().expect("resident");
    // The history grows by one entry a step: room for it is not the step's.
    state.history.reserve(STEPS);

    let before = ALLOCATED.load(Ordering::Relaxed);
    for _ in 0..STEPS {
        solver.try_step(&mut state).expect("resident");
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(state.itn, STEPS);
    let column_vector = sys.n_cols() * std::mem::size_of::<f64>();
    assert!(
        allocated < column_vector,
        "{STEPS} steps allocated {allocated} B, one column vector is {column_vector} B"
    );
}
