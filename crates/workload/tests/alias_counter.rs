//! Exact-count checks on the process-global [`alias_builds`] counter.
//!
//! The counter is shared by every thread in the process, and the libtest
//! harness runs a binary's tests in parallel, so an exact-count check
//! sitting beside other table-building tests sees their builds too.
//! This binary holds only the check below, so nothing else builds a
//! table while it runs.

use memlat_workload::{alias_builds, RoutedKeyspace, ZipfPopularity};

#[test]
fn routed_cells_skip_the_build_counter() {
    // The counter audits full-keyspace Zipf tables; the per-server
    // conditional samplers of a routed keyspace must not pollute it.
    let pop = ZipfPopularity::new(1_000, 1.0).unwrap();
    let before = alias_builds();
    let _routed = RoutedKeyspace::new(&pop, 4, 16).unwrap();
    assert_eq!(alias_builds(), before);
}
