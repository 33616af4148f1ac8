//! Criterion micro-benchmarks for the memlat workspace.
//!
//! Run with `cargo bench --workspace`. Benches:
//!
//! * `solver` — the GI/M/1 `δ` fixed point across arrival laws (closed
//!   form vs numeric Laplace), the cliff-utilization search, Theorem 1
//!   end-to-end.
//! * `distributions` — sampling and transform throughput.
//! * `simulator` — keys/second through the single-server queue and
//!   requests/second through the request-level `e2e` simulator.
//! * `cache` — slab/LRU store get/set throughput and eviction pressure.
//! * `stats` — ECDF construction, Welford pushes, quantile-sketch folds.
//! * `experiments` — scaled-down regenerations of representative paper
//!   artifacts (Table 3, Fig. 7 point, Table 4 row), the ablation of
//!   product-form vs closed-form estimators, and eq. 23 vs the exact
//!   database estimator.
//!
//! End-to-end and per-layer speed (the full cluster in each feature
//! mode, request assembly, the live server) is measured by `perfbench`
//! at the repository root, which `BENCHMARK.json` declares; these
//! suites time only the kernels it does not see.

#![forbid(unsafe_code)]

use memlat_model::ModelParams;

/// The paper's base configuration, shared by benches.
#[must_use]
pub fn base_params() -> ModelParams {
    ModelParams::builder()
        .build()
        .expect("paper defaults are valid")
}
