//! The counts the benchmark reports as exact must repeat exactly: two
//! set-ups with the same seed see identical kernel work (the solve_mix
//! warm-up sends seeded exact-disk queries) and identical warm-up cache
//! counters (cached_zipf warms all 256 pool entries once).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mrs_perfbench::{Workload, WorkloadName};

/// `(candidates, grid cells, cache hits, cache misses)` over one warm-up.
fn warm_counts(name: WorkloadName, seed: u64) -> (u64, u64, u64, u64) {
    let mut workload = Workload::new(name, seed);
    let mut setup = workload.setup(false).expect("set-up succeeds");
    let warm = setup.warm;
    setup.shutdown();
    (warm.candidates, warm.cells, warm.cache.hits, warm.cache.misses)
}

#[test]
fn solve_mix_kernel_counts_repeat_exactly() {
    let first = warm_counts(WorkloadName::SolveMix, 7);
    assert!(first.0 > 0 && first.1 > 0, "the warm-up must reach the grid kernels: {first:?}");
    assert_eq!(first, warm_counts(WorkloadName::SolveMix, 7));
}

#[test]
fn cached_zipf_warmup_cache_counts_repeat_exactly() {
    let first = warm_counts(WorkloadName::CachedZipf, 7);
    assert_eq!((first.2, first.3), (0, 256), "every pool entry is one miss: {first:?}");
    assert_eq!(first, warm_counts(WorkloadName::CachedZipf, 7));
}
