//! Property tests over the capacity accountant and the scan-aware tile
//! cache: under adversarial charge/release and access interleavings the
//! budget is never exceeded, errors never corrupt the ledger, eviction
//! happens exactly when (and only when) an access would go over budget,
//! and a cyclic scan — the only traffic the solvers generate — misses as
//! rarely as any policy can.

use gaia_sparse::{fuzz, CapacityBudget, Generator, TileCache, TileError, TiledSystem};
use proptest::prelude::*;

/// One accountant operation: `Charge(bytes)` or `Release` (of the most
/// recent outstanding charge — releasing only what was charged, as the
/// cache does).
#[derive(Debug, Clone, Copy)]
enum Op {
    Charge(u64),
    Release,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..4, 0u64..600).prop_map(|(kind, bytes)| {
            if kind == 3 {
                Op::Release
            } else {
                Op::Charge(bytes)
            }
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accountant never reports more than the limit as used, its peak
    /// never exceeds the limit, failed charges leave the ledger untouched,
    /// and `used` always equals the sum of outstanding charges.
    #[test]
    fn budget_never_exceeds_limit_under_adversarial_interleavings(
        limit in 1u64..2000,
        ops in ops(),
    ) {
        let mut budget = CapacityBudget::limited(limit);
        let mut outstanding: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Charge(bytes) => {
                    let before = (budget.used(), budget.peak());
                    match budget.charge(bytes) {
                        Ok(()) => outstanding.push(bytes),
                        Err(TileError::BudgetTooSmall { .. }) => {
                            prop_assert!(bytes > limit, "BudgetTooSmall for a fitting charge");
                            prop_assert_eq!((budget.used(), budget.peak()), before);
                        }
                        Err(TileError::BudgetExceeded { .. }) => {
                            prop_assert!(
                                before.0 + bytes > limit,
                                "BudgetExceeded though {} + {bytes} fits {limit}",
                                before.0
                            );
                            prop_assert_eq!((budget.used(), budget.peak()), before);
                        }
                        Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                    }
                }
                Op::Release => {
                    if let Some(bytes) = outstanding.pop() {
                        budget.release(bytes);
                    }
                }
            }
            prop_assert!(budget.used() <= limit, "used {} > limit {limit}", budget.used());
            prop_assert!(budget.peak() <= limit, "peak {} > limit {limit}", budget.peak());
            prop_assert_eq!(budget.used(), outstanding.iter().sum::<u64>());
            prop_assert!(budget.fits(limit - budget.used()));
        }
    }

    /// Against a real spilled system: any access sequence keeps resident
    /// and peak bytes within the budget, hits never load or evict, and a
    /// miss evicts **iff** the incoming tile would not have fit — the
    /// cache evicts exactly when over budget, never preemptively. The
    /// tile just returned is always still resident afterwards.
    #[test]
    fn cache_evicts_exactly_when_an_access_would_exceed_the_budget(
        seed in 0u64..64,
        slack_pct in 0u64..100,
        accesses in proptest::collection::vec(0usize..32usize, 1..40),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gaia-tile-props-{}-{seed}-{slack_pct}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Generator::new(fuzz::config_from_seed(seed))
            .generate_tiled(&dir, 1)
            .expect("streamed generation");
        let probe = TiledSystem::open(&dir).expect("probe");
        let (min, matrix) = (probe.min_budget(), probe.matrix_bytes());
        drop(probe);
        // From "barely holds the largest tile" up to "holds everything".
        let limit = min + (matrix - min.min(matrix)) * slack_pct / 100;
        let tiles =
            TiledSystem::open_with_budget(&dir, CapacityBudget::limited(limit)).expect("open");

        for idx in accesses {
            let t = idx % tiles.n_tiles();
            let pre = tiles.stats();
            let (_, access) = tiles.tile(t).expect("access within budget");
            let post = tiles.stats();

            prop_assert!(post.resident_bytes <= limit);
            prop_assert!(post.peak_resident_bytes <= limit);
            let loaded = post.loaded_bytes - pre.loaded_bytes;
            let evicted = post.evictions - pre.evictions;
            if access.hit {
                prop_assert_eq!(loaded, 0, "hit loaded bytes");
                prop_assert_eq!(evicted, 0, "hit evicted");
            } else {
                prop_assert!(loaded > 0, "miss loaded nothing");
                prop_assert_eq!(
                    evicted > 0,
                    pre.resident_bytes + loaded > limit,
                    "evicted {evicted} with resident {} + load {loaded} vs limit {limit}",
                    pre.resident_bytes
                );
            }
            // The tile just returned must still be resident.
            let (_, again) = tiles.tile(t).expect("re-access");
            prop_assert!(again.hit, "tile {t} was evicted by its own access");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `N` equal tiles, room for `1 <= C < N`, scanned `0..N` over and
    /// over. Evicting the tile used last is Belady's choice for this
    /// traffic: once warm, every run of `N - 1` accesses holds exactly
    /// `N - C` misses (one evicted tile per miss, and each comes due
    /// `N - 1` accesses later), so a scan misses `N - C` or `N - C + 1`
    /// times where evicting the least recently used tile misses `N`
    /// times. The ledger never passes the limit, and a tile just
    /// returned is still there when asked for again.
    #[test]
    fn cyclic_scan_misses_only_the_tiles_that_cannot_fit(
        n_tiles in 2usize..24,
        capacity_pick in 0usize..23,
        tile_bytes in 1u64..1000,
    ) {
        let capacity = 1 + capacity_pick % (n_tiles - 1);
        let limit = capacity as u64 * tile_bytes + tile_bytes / 2;
        let mut cache: TileCache<usize> = TileCache::new(CapacityBudget::limited(limit));
        let mut misses_per_scan = Vec::new();
        for _scan in 0..2 * n_tiles {
            let mut misses = 0usize;
            for t in 0..n_tiles {
                let (value, access) = cache.get_or_load(t, tile_bytes, || Ok(t)).expect("fits");
                prop_assert_eq!(*value, t);
                misses += usize::from(!access.hit);
                prop_assert!(access.peak_resident_bytes <= limit);
                prop_assert!(cache.stats().resident_bytes <= limit);
                let (_, again) = cache
                    .get_or_load(t, tile_bytes, || Ok(usize::MAX))
                    .expect("re-access");
                prop_assert!(again.hit, "tile {t} was evicted by its own access");
            }
            misses_per_scan.push(misses);
        }
        prop_assert_eq!(misses_per_scan[0], n_tiles, "a cold scan loads every tile");
        let warm = &misses_per_scan[1..];
        for &m in warm {
            prop_assert!(
                m == n_tiles - capacity || m == n_tiles - capacity + 1,
                "{m} misses in a warm scan of {n_tiles} tiles with room for {capacity}"
            );
        }
        // The miss pattern repeats every N - 1 scans, holding N misses
        // for each of the N - C tiles that cannot stay.
        let period: usize = warm[..n_tiles - 1].iter().sum();
        prop_assert_eq!(period, n_tiles * (n_tiles - capacity));
        prop_assert_eq!(cache.stats().peak_resident_bytes, capacity as u64 * tile_bytes);
    }
}
