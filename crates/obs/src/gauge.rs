//! Allocation gauges, re-exported from the `dlog-alloc` counting
//! allocator shim.
//!
//! The zero-copy wire path (PR 8) is validated by *counting*, not by
//! inspection: `dlog-alloc` installs a `#[global_allocator]` that
//! forwards to `std`'s `System` allocator while keeping per-process and
//! per-thread allocation tallies. Components read a gauge before and
//! after a hot-path section and report the delta — the server's
//! `allocs_per_write`, the bench harness's per-scenario column, and the
//! differential wire tests' "no allocation blow-up on malformed input"
//! assertion all come from these three functions.
//!
//! Deltas, not absolutes: the counters are monotone and process-global
//! (or thread-global), so callers must subtract a starting sample with
//! wrapping arithmetic.

pub use dlog_alloc::{process_alloc_bytes, process_allocs, thread_allocs};

#[cfg(test)]
mod tests {
    #[test]
    fn thread_gauge_counts_an_allocation() {
        let before = super::thread_allocs();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = super::thread_allocs();
        assert!(after.wrapping_sub(before) >= 1, "vec alloc not counted");
        drop(v);
    }

    #[test]
    fn process_gauge_is_monotone() {
        let a = super::process_allocs();
        let _boxed = Box::new([0u8; 128]);
        let b = super::process_allocs();
        assert!(b >= a);
        assert!(super::process_alloc_bytes() > 0);
    }
}
