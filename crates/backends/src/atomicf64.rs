//! Atomic `f64` accumulation.
//!
//! GPUs expose `atomicAdd(double*, double)` as a single read-modify-write
//! (RMW) instruction; compilers that cannot emit it fall back to a
//! compare-and-swap (CAS) retry loop, which the paper identifies as the
//! cause of the MI250X slowdowns for SYCL+DPC++ and OpenMP+clang (§V-B,
//! the `-munsafe-fp-atomics` discussion). CPUs have no native `f64`
//! fetch-add either, so *every* strategy here is a CAS loop — but we provide
//! two variants with measurably different contention behaviour so the
//! RMW-vs-CAS axis of the study stays observable:
//!
//! * [`add_relaxed`] — a single `compare_exchange_weak` loop with a plain
//!   reload on failure (the "RMW-like" fast path);
//! * [`add_seqcst_spin`] — a deliberately conservative loop using
//!   sequentially-consistent ordering and a full `compare_exchange`,
//!   modelling the slower codegen.
//!
//! A GPU can afford one such add per matrix non-zero because its L2
//! combines them; here each one is a `lock cmpxchg` (≈ 6 ns uncontended,
//! and 5.4 M of them per `aprod2` on the 10 000-star system: 32 ms on top
//! of a 13 ms sequential iteration). The launch layer therefore combines in
//! software first: an `Atomic` / `CasLoop` job sums its row chunk into a
//! job-private copy of the section and calls these once per column it
//! touched, publishing straight into the shared `x̃` while other jobs do
//! the same. The conflict is still resolved by concurrent FP64 atomic adds
//! in schedule order — no barrier, no second wave, which is what
//! distinguishes it from `Replicated` — and the two flavors still differ
//! exactly where the paper's code generators do.
//!
//! ORDERING: both variants are pure read-modify-write accumulations into
//! independent slots with no cross-location protocol — the CAS itself
//! guarantees each update lands exactly once, so `Relaxed` is correct for
//! the fast path; the `SeqCst` variant is *deliberately* over-ordered to
//! model conservative compiler fallbacks (see above).

use std::sync::atomic::{AtomicU64, Ordering};

/// Reinterpret an exclusively borrowed `f64` slice as atomic words.
///
/// # Safety rationale (encapsulated; the function itself is safe)
///
/// * `AtomicU64` has the same size and alignment as `u64`/`f64` on every
///   platform with 64-bit atomics (checked by a const assertion).
/// * The `&mut` borrow guarantees no other live references; downgrading the
///   exclusive borrow to a shared slice of atomics is the standard
///   `from_mut_slice` pattern (stabilized upstream as
///   `AtomicU64::from_mut_slice` on nightly; reimplemented here).
/// * All access during the borrow goes through atomic operations.
pub fn as_atomic(slice: &mut [f64]) -> &[AtomicU64] {
    const _: () = assert!(std::mem::size_of::<AtomicU64>() == std::mem::size_of::<f64>());
    const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<f64>());
    let len = slice.len();
    let ptr = slice.as_mut_ptr() as *const AtomicU64;
    // SAFETY: size/align asserted above; exclusive borrow rules out aliasing
    // non-atomic access for the lifetime of the returned slice.
    unsafe { std::slice::from_raw_parts(ptr, len) }
}

/// Atomically `slot += v` with relaxed ordering and a weak CAS
/// (the fast, RMW-like variant).
#[inline]
pub fn add_relaxed(slot: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(cur) + v;
        match slot.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically `slot += v` with sequentially-consistent ordering, a strong
/// CAS, and a fresh load per retry (the slow, CAS-loop-codegen variant).
#[inline]
pub fn add_seqcst_spin(slot: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    loop {
        // ORDERING: SeqCst is the point of this variant — it reproduces the
        // fully-fenced CAS loop conservative compilers emit for f64
        // atomicAdd fallbacks; correctness only needs Relaxed (see
        // add_relaxed above).
        let cur = slot.load(Ordering::SeqCst);
        let new = f64::from_bits(cur) + v;
        // ORDERING: deliberately fully fenced, see the loop comment above.
        if slot
            .compare_exchange(cur, new.to_bits(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_view_round_trips() {
        let mut v = vec![1.5f64, -2.25, 0.0];
        {
            let a = as_atomic(&mut v);
            assert_eq!(f64::from_bits(a[0].load(Ordering::Relaxed)), 1.5);
            add_relaxed(&a[1], 1.0);
            add_seqcst_spin(&a[2], 4.5);
        }
        assert_eq!(v, vec![1.5, -1.25, 4.5]);
    }

    #[test]
    fn concurrent_adds_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let mut target = vec![0.0f64; 4];
        {
            let a = as_atomic(&mut target);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let a = &a;
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            let slot = (t + i) % 4;
                            if t % 2 == 0 {
                                add_relaxed(&a[slot], 1.0);
                            } else {
                                add_seqcst_spin(&a[slot], 1.0);
                            }
                        }
                    });
                }
            });
        }
        let total: f64 = target.iter().sum();
        assert_eq!(total, (THREADS * PER_THREAD) as f64);
    }

    #[test]
    fn zero_add_is_a_noop_fast_path() {
        let mut v = vec![3.0f64];
        let a = as_atomic(&mut v);
        add_relaxed(&a[0], 0.0);
        add_seqcst_spin(&a[0], 0.0);
        assert_eq!(f64::from_bits(a[0].load(Ordering::Relaxed)), 3.0);
    }
}
