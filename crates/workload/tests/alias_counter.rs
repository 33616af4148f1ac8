//! Exact-count checks on the process-global [`alias_builds`] counter.
//!
//! The counter is shared by every thread in the process, and the libtest
//! harness runs a binary's tests in parallel, so an exact-count check
//! sitting beside other table-building tests sees their builds too.
//! This binary holds only the check below, so nothing else builds a
//! table while it runs.

use memlat_workload::{alias_builds, WeightedAlias};

#[test]
fn weighted_alias_skips_the_build_counter() {
    // The counter audits full-keyspace Zipf tables; subset samplers
    // (one per server per routed config) must not pollute it.
    let before = alias_builds();
    let _t = WeightedAlias::new(&[1.0, 2.0, 3.0]).unwrap();
    assert_eq!(alias_builds(), before);
}
