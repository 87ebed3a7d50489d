//! Layer replays: each drives one public layer API in a loop at a shape
//! taken from the workload, so a per-layer cost is measured where the
//! simulator cannot be split from outside (its engine and memory system
//! are private). Inputs are fixed seeds, so every replay does the same
//! work on every run.

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gpu_sim::dram::Dram;
use gpu_sim::fleet::{run_fast_device, FastDeviceParams, FleetJob};
use gpu_sim::memory::MemoryHierarchy;
use schedulers::routing::{RouteDecision, RoutePolicy, RouteRequest, Router};
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::stats::StreamingQuantiles;
use sim_core::time::{Cycle, Duration};
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

use crate::cells::FLEET_DEVICES;

/// Memory traffic shape of a workload: lines per bundle and the share of
/// L1 misses L2 served.
#[derive(Debug, Clone, Copy)]
pub struct MemShape {
    /// Mean lines per bundle, 1 to 32.
    pub lines: u32,
    /// L2 hit rate to reproduce.
    pub l2_hit: f64,
}

/// Nanoseconds per operation of `f(n)` doing `n` operations, taking the
/// median of `reps` repetitions after one warm-up.
fn ns_per_op(reps: usize, n: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `EventQueue` in steady state: a 1024-event backlog, each op one pop
/// plus one schedule a pseudo-random delay ahead.
pub fn event_queue() -> f64 {
    const BACKLOG: u64 = 1024;
    const OPS: u64 = 200_000;
    ns_per_op(5, 2 * OPS, || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from(1);
        for i in 0..BACKLOG {
            q.schedule(Cycle::from_cycles(rng.below(10_000)), i);
        }
        let mut sum = 0u64;
        for _ in 0..OPS {
            let (at, v) = q.pop().expect("backlog never drains");
            sum = sum.wrapping_add(v);
            q.schedule(at + Duration::from_cycles(1 + rng.below(10_000)), v);
        }
        sum
    })
}

/// Bundles of `shape.lines` consecutive lines at random line-aligned bases
/// inside a footprint of `L2 size / l2_hit`, so a warmed L2 serves about
/// `l2_hit` of the L1 misses. Returns `(cu, base address)` pairs.
fn bundles(shape: MemShape, cfg: &GpuConfig, count: usize) -> Vec<(usize, u64)> {
    let line = u64::from(cfg.mem.line_bytes);
    let footprint_lines =
        (f64::from(cfg.mem.l2_bytes) / line as f64 / shape.l2_hit.max(0.02)) as u64;
    let mut rng = SimRng::seed_from(2);
    (0..count)
        .map(|_| {
            let cu = rng.below(u64::from(cfg.num_cus)) as usize;
            (cu, rng.below(footprint_lines.max(1)) * line)
        })
        .collect()
}

fn hierarchy_replay(shape: MemShape, run: bool) -> f64 {
    const BUNDLES: usize = 50_000;
    let cfg = GpuConfig::default();
    let stream = bundles(shape, &cfg, BUNDLES);
    let lines = u64::from(shape.lines) * BUNDLES as u64;
    // One hierarchy across repetitions: the warm-up pass fills the caches.
    let mut mem = MemoryHierarchy::new(cfg.num_cus, &cfg.mem);
    let mut now = Cycle::ZERO;
    ns_per_op(5, lines, || {
        let mut last = Cycle::ZERO;
        for &(cu, base) in &stream {
            now += Duration::from_cycles(4);
            let (done, _) = if run {
                mem.access_run(cu, base, shape.lines, now)
            } else {
                mem.access_bundle(cu, base, shape.lines, now)
            };
            last = last.max(done);
        }
        last.as_cycles()
    })
}

/// `MemoryHierarchy::access_run` (the batched fast path), ns per line.
pub fn memsys_run(shape: MemShape) -> f64 {
    hierarchy_replay(shape, true)
}

/// `MemoryHierarchy::access_bundle` (the per-access reference walk that
/// observed runs take), ns per line.
pub fn memsys_walk(shape: MemShape) -> f64 {
    hierarchy_replay(shape, false)
}

/// `Dram::access_run` over full `shape.lines`-line streaming bundles, ns
/// per line.
pub fn dram_run(shape: MemShape) -> f64 {
    const BUNDLES: u64 = 100_000;
    let cfg = GpuConfig::default().mem;
    let mask = if shape.lines >= 32 { u32::MAX } else { (1u32 << shape.lines) - 1 };
    let mut dram = Dram::new(cfg.dram_channels, cfg.dram_latency_cycles, cfg.dram_service_cycles);
    let line = u64::from(cfg.line_bytes);
    let mut now = Cycle::ZERO;
    ns_per_op(5, BUNDLES * u64::from(shape.lines), || {
        let mut last = Cycle::ZERO;
        for b in 0..BUNDLES {
            now += Duration::from_cycles(8);
            last = last.max(dram.access_run(b * 32 * line, line, mask, now));
        }
        last.as_cycles()
    })
}

/// The arrival stream of one `fleet` cell (HYBRID at high rate on
/// [`FLEET_DEVICES`] devices), rebuilt from the public spec because the
/// cluster's own generator is private: exponential arrivals at
/// `Benchmark::Hybrid.rate_jobs_per_sec(High)` per device, the HYBRID
/// deadline, and as service estimate each job's chain cost, the summed
/// calibrated kernel times of `BenchmarkSuite::job_kernels` (alternating
/// LSTM-128 / GRU-256 chains of sampled length), as the cluster computes
/// it. At this rate the fleet is several times over capacity, as the
/// committed chaos grid shows.
fn fleet_stream(n: u32) -> Vec<FleetJob> {
    let suite = BenchmarkSuite::calibrated();
    let rate = Benchmark::Hybrid.rate_jobs_per_sec(ArrivalRate::High) * FLEET_DEVICES as f64;
    let deadline = Benchmark::Hybrid.deadline();
    let mut rng = SimRng::seed_from(3);
    let mut now = Cycle::ZERO;
    (0..n)
        .map(|id| {
            now += rng.exp_interarrival(rate);
            let kernels = suite.job_kernels(Benchmark::Hybrid, id as usize, &mut rng);
            let us = kernels.iter().map(|k| suite.calibration(&k.name).measured_us).sum();
            FleetJob { id, arrival: now, service_est: Duration::from_us_f64(us), deadline }
        })
        .collect()
}

/// Service slots per fleet device: `ClusterBuilder`'s default, one per CU.
fn fleet_slots() -> usize {
    GpuConfig::default().num_cus as usize
}

/// `Router::route` over the fleet stream under each policy, ns per route.
pub fn routing() -> f64 {
    const JOBS: u32 = 50_000;
    let stream = fleet_stream(JOBS);
    ns_per_op(5, u64::from(JOBS) * RoutePolicy::ALL.len() as u64, || {
        let mut placed = 0u64;
        for policy in RoutePolicy::ALL {
            let mut router = Router::new(policy, FLEET_DEVICES, fleet_slots(), 4);
            for job in &stream {
                let req = RouteRequest {
                    arrival: job.arrival,
                    service_est: job.service_est,
                    deadline: job.deadline,
                };
                placed += u64::from(matches!(router.route(&req), RouteDecision::Route { .. }));
            }
        }
        placed
    })
}

/// `run_fast_device` over one device's share of the fleet stream (every
/// [`FLEET_DEVICES`]th job, as round-robin routing deals it), with the
/// cluster's default 2% service jitter, ns per job.
pub fn fast_device() -> f64 {
    const JOBS: u32 = 200_000;
    let share: Vec<FleetJob> = fleet_stream(JOBS).into_iter().step_by(FLEET_DEVICES).collect();
    let params = FastDeviceParams { slots: fleet_slots(), jitter: 0.02, seed: 5 };
    ns_per_op(5, share.len() as u64, || run_fast_device(&share, &params).events)
}

/// `StreamingQuantiles::push` of heavy-tailed latencies, ns per push.
pub fn quantile_push() -> f64 {
    const PUSHES: u64 = 500_000;
    let mut rng = SimRng::seed_from(6);
    let values: Vec<f64> =
        (0..PUSHES).map(|_| 1_000.0 * (1.0 / (1.0 - rng.uniform_f64())).powf(1.5)).collect();
    ns_per_op(5, PUSHES, || {
        let mut q = StreamingQuantiles::new();
        for &v in &values {
            q.push(v);
        }
        q.len() as u64
    })
}
