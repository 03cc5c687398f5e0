//! Execution tuning parameters.
//!
//! CUDA, HIP, and SYCL let the programmer pick the number of blocks and
//! threads per block for each kernel, and the paper reports "up to 40 %
//! reduction in iteration time" from such tuning (§V-B). The CPU analogue
//! is the thread count and the row-chunk granularity, which [`Tuning`]
//! captures. Backends that model tuning-oblivious frameworks (rayon / PSTL)
//! ignore it.

/// Thread count and chunking for a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuning {
    /// Worker threads to use.
    pub threads: usize,
    /// Target number of chunks per thread (finer chunks improve load
    /// balance, coarser chunks reduce scheduling overhead — the CPU mirror
    /// of the blocks × threads-per-block trade-off).
    pub chunks_per_thread: usize,
}

impl Tuning {
    /// One chunk per thread, `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Tuning {
            threads: threads.max(1),
            chunks_per_thread: 1,
        }
    }

    /// Use all available parallelism.
    pub fn auto() -> Self {
        Tuning::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Total chunk count for a work size of `n` items (never exceeds `n`).
    pub fn chunk_count(&self, n: usize) -> usize {
        self.effective_chunks(n)
    }

    /// The clamp behind [`Tuning::chunk_count`], spelled out: the raw
    /// budget is `threads × chunks_per_thread`, saturating — a registry
    /// suffix like `-c18446744073709551615` must clamp to the work count,
    /// not overflow (the old `*` panicked in debug builds and wrapped to
    /// a tiny chunk count in release) — and the result always lies in
    /// `1..=n.max(1)` so empty work still yields one (empty) chunk.
    pub fn effective_chunks(&self, n: usize) -> usize {
        self.threads
            .max(1)
            .saturating_mul(self.chunks_per_thread.max(1))
            .clamp(1, n.max(1))
    }
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_is_bounded_by_work() {
        let t = Tuning {
            threads: 8,
            chunks_per_thread: 4,
        };
        assert_eq!(t.chunk_count(1000), 32);
        assert_eq!(t.chunk_count(3), 3);
        assert_eq!(t.chunk_count(0), 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Tuning::with_threads(0).threads, 1);
    }

    /// Boundary audit: n = 0, n < threads, and budgets that would
    /// overflow `threads × chunks_per_thread`.
    #[test]
    fn effective_chunks_boundaries() {
        // n = 0: one empty chunk, never zero.
        for t in [1usize, 7, 64] {
            for c in [1usize, 16, usize::MAX] {
                let tuning = Tuning {
                    threads: t,
                    chunks_per_thread: c,
                };
                assert_eq!(tuning.effective_chunks(0), 1, "t={t} c={c}");
            }
        }
        // n < threads: clamp to n.
        let t = Tuning {
            threads: 16,
            chunks_per_thread: 1,
        };
        assert_eq!(t.effective_chunks(5), 5);
        assert_eq!(t.effective_chunks(1), 1);
        // Huge chunks_per_thread: saturate, then clamp to the work count
        // (the old unchecked multiply overflowed here).
        let huge = Tuning {
            threads: 8,
            chunks_per_thread: usize::MAX,
        };
        assert_eq!(huge.effective_chunks(1000), 1000);
        assert_eq!(huge.effective_chunks(1), 1);
        // Degenerate zero fields behave like 1.
        let zeroed = Tuning {
            threads: 0,
            chunks_per_thread: 0,
        };
        assert_eq!(zeroed.effective_chunks(10), 1);
        // chunk_count stays an alias of effective_chunks.
        assert_eq!(huge.chunk_count(42), huge.effective_chunks(42));
    }
}
