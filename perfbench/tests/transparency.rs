//! The benchmark's instrumentation must not change what it measures: a
//! decorated or observed run reproduces the bare run's report bit for bit.

use std::sync::{Arc, Mutex};

use gpu_sim::probe::MetricsSampler;
use lax_bench::cluster::ClusterScenario;
use lax_bench::sweep::{run_cell, RunOptions, Scenario};
use perfbench::cells::{run_device, run_fleet, Probes};
use perfbench::layers::{LayerTally, ProbeCounts, TimedObserver};
use workloads::spec::{ArrivalRate, Benchmark};

fn scenario(scheduler: &str) -> Scenario {
    Scenario::new(scheduler, Benchmark::Cuckoo, ArrivalRate::High, 6, 7)
}

/// Runs `scheduler` through the decorated replica and checks it against
/// `run_cell`; returns what the decorators recorded.
fn decorated_run(scheduler: &str, sampler: bool) -> Arc<LayerTally> {
    let s = scenario(scheduler);
    let tally = Arc::new(LayerTally::default());
    let probes = Probes { tally: Some(Arc::clone(&tally)), sampler, counts: None };
    let decorated = run_device(&s, &probes).expect("decorated run");
    let bare = run_cell(&s, &RunOptions::default()).expect("bare run");
    assert_eq!(decorated.report, bare, "{s}: decorated report differs");
    tally
}

#[test]
fn cp_decorator_is_transparent() {
    let tally = decorated_run("LAX", false);
    assert!(tally.cp[1].calls() > 0, "LAX admission was never timed");
    assert_eq!(tally.host_react.calls(), 0);
}

#[test]
fn host_decorator_is_transparent() {
    let tally = decorated_run("PRO", false);
    assert!(tally.host_react.calls() > 0, "PRO reactions were never timed");
    assert!(tally.cp.iter().all(|c| c.calls() == 0));
}

#[test]
fn wrapped_sampler_is_transparent() {
    let tally = decorated_run("LAX", true);
    assert!(tally.observer.calls() > 0, "the sampler saw no events");

    // The wrapper forwards every event: the sampler fills identically.
    let s = scenario("RR");
    let bare = Arc::new(Mutex::new(MetricsSampler::new()));
    let inner = Arc::new(Mutex::new(MetricsSampler::new()));
    let wrapped = Arc::new(Mutex::new(TimedObserver::new(Arc::clone(&inner), &tally)));
    let a = run_cell(&s, &RunOptions::default().observe(bare.clone())).expect("bare sampler");
    let b = run_cell(&s, &RunOptions::default().observe(wrapped)).expect("wrapped sampler");
    assert_eq!(a, b);
    assert_eq!(bare.lock().unwrap().to_csv(), inner.lock().unwrap().to_csv());
}

#[test]
fn counting_observer_is_transparent_on_a_fleet() {
    let s: ClusterScenario = "RR:HYBRID:high:d4:j2000:s7:f1".parse().expect("scenario");
    let counts = Arc::new(Mutex::new(ProbeCounts::default()));
    let (counted, _) = run_fleet(&s, Some(counts.clone())).expect("counted run");
    let (bare, _) = run_fleet(&s, None).expect("bare run");
    assert_eq!(counted, bare);
    assert!(counts.lock().unwrap().events >= bare.total, "every job fires a fleet event");
}
