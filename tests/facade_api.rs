//! Integration: the `memlat` facade exposes every subsystem under stable
//! paths, and the crate-level quickstart actually works.

use memlat::dist::{Continuous, GeneralizedPareto};
use memlat::model::{ArrivalPattern, ModelParams};
use memlat::queueing::GixM1;
use memlat::stats::Ecdf;

#[test]
fn facade_paths_compose() {
    // distributions → queueing → model, through the re-exports only.
    let gaps = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
    assert!(gaps.mean() > 0.0);
    let queue = GixM1::new(&gaps, 0.1, 80_000.0).unwrap();
    assert!(queue.delta() > 0.7);

    let params = ModelParams::builder()
        .arrival(ArrivalPattern::GeneralizedPareto { xi: 0.15 })
        .build()
        .unwrap();
    let est = params.estimate().unwrap();
    assert!(est.total.upper > est.total.lower);

    let e = Ecdf::from_samples(&[1.0, 2.0, 3.0]);
    assert_eq!(e.quantile(0.5), 2.0);

    // DES + workload + cache crates are reachable too.
    let _ = memlat::des::FcfsStation::new();
    let _ = memlat::workload::facebook::KEY_RATE;
    let _ = memlat::cache::StoreConfig::default();
    let _ = memlat::numerics::KahanSum::new();
}

#[test]
fn error_types_are_std_errors() {
    fn takes_error<E: std::error::Error>(_: &E) {}
    let model_err = ModelParams::builder().servers(0).build().unwrap_err();
    takes_error(&model_err);
    let overloaded = memlat::dist::Exponential::new(2.0).unwrap();
    let queue_err = memlat::queueing::GiM1::solve(&overloaded, 1.0).unwrap_err();
    takes_error(&queue_err);
    let dist_err = GeneralizedPareto::new(2.0, 1.0).unwrap_err();
    takes_error(&dist_err);
}

#[test]
fn unstable_configurations_fail_consistently() {
    // λ ≥ μ_S: the model refuses (no stationary regime) rather than
    // returning garbage — at the queue level…
    let gaps = memlat::dist::Exponential::new(90_000.0).unwrap();
    assert!(matches!(
        memlat::queueing::solve_delta(&gaps, 80_000.0),
        Err(memlat::queueing::QueueError::Unstable { .. })
    ));
    // …and at the model level.
    let params = ModelParams::builder()
        .key_rate_per_server(85_000.0)
        .build()
        .unwrap();
    assert!(params.estimate().is_err());
    // …and in the simulator's model-validation path.
    let cfg = memlat::cluster::SimConfig::new(params);
    assert!(memlat::cluster::ClusterSim::run(&cfg).is_err());
}
