//! The four workloads and the code that runs one of their cells through the
//! simulator's public API, timing each layer call from the outside.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration as WallDuration, Instant};

use gpu_sim::job::JobFate;
use gpu_sim::metrics::SimReport;
use gpu_sim::probe::{MetricsSampler, ProbeEvent};
use gpu_sim::sim::Simulation;
use lax_bench::cluster::{ClusterBuilder, ClusterReport, ClusterScenario};
use lax_bench::sweep::{BenchError, Scenario};
use schedulers::registry;
use sim_core::probe::Observer;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

use crate::layers::{self, LayerTally, ProbeCounts, TimedObserver};

/// Base seed of the committed `results/` grids; cells built from it
/// coincide with committed rows.
pub const GRID_SEED: u64 = 20210301;

/// A seed no cell was tuned on. A speed claim measured on the default
/// seeds is rechecked on this one.
pub const HELD_OUT_SEED: u64 = 1904064;

/// A cell whose median host time falls below this is noise, not work
/// (a 172-event BAY:IPV6 cell runs in about 1 ms), so the benchmark refuses
/// to define it as a workload cell.
pub const MIN_CELL_HOST: WallDuration = WallDuration::from_millis(5);

/// Untimed runs of a workload's first cells before the timed pass: the
/// first fleet replica, cold, ran about a quarter slower than the rest.
pub const WARM_UP: WallDuration = WallDuration::from_millis(1500);

/// Fleet cells fan their devices over one worker: the benchmark computes on
/// one thread at a time, so its timings do not depend on how many cores
/// the machine lends it.
pub const FLEET_WORKERS: usize = 1;

/// A named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HYBRID and LSTM chains at high and medium rate under RR, EDF and LAX
    /// (CP side) and BAT and LAX-CPU (host side). Multi-kernel jobs with a
    /// cache-resident working set (L2 hit rate about 0.96) put host time in
    /// the engine, exec, dispatch and the `access_run` fast path; HYBRID
    /// cells are the slowest of the full evaluation.
    DeviceRnn,
    /// IPV6 and CUCKOO single-kernel jobs at high rate under RR, LAX and
    /// PREMA (CP side) and PRO and LAX-CPU (host side). Every job streams
    /// from DRAM, so time goes to DRAM channel booking and per-job
    /// admission; an engine or dispatch change should barely move it and a
    /// memsys or DRAM change should.
    DevicePacket,
    /// LAX and RR on HYBRID and CUCKOO with a `MetricsSampler` attached, as
    /// fig10 and the `trace` binary run them. An observer routes every
    /// bundle through the per-access reference walk and builds probe
    /// payloads, so this is the only workload where that path and the
    /// probe bus do work: it catches a change that speeds unobserved runs
    /// by slowing observed ones. The low rate keeps its simulated metrics
    /// steady across seeds at the few jobs a run can afford; the probe work
    /// per job does not depend on the rate.
    DeviceObserved,
    /// Fast-tier HYBRID fleet cells of the committed chaos grid (8 devices,
    /// 200k jobs) under RR, LOW, P2C and LL routing, fault-free and at
    /// fault intensity 1 and 2. No detailed device runs: time goes to the
    /// router, fast-tier booking, retry/shed and the latency sketch, and
    /// both the plain and the chaos fleet engines run.
    Fleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::DeviceRnn, Workload::DevicePacket, Workload::DeviceObserved, Workload::Fleet];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeviceRnn => "device-rnn",
            Workload::DevicePacket => "device-packet",
            Workload::DeviceObserved => "device-observed",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether device cells run with a `MetricsSampler` attached.
    pub fn observed(self) -> bool {
        self == Workload::DeviceObserved
    }

    /// Seconds of `--seconds` each replica of the workload's grid stands
    /// for. A run covers `--seconds` divided by this many replicas (rounded
    /// down), so its simulated work is fixed by its arguments. The values
    /// were set on a shared 2-core VM at its slowest: a replica took about
    /// this long there (`device-observed` with the untimed reference runs
    /// it checks against), so the replicas fit in `--seconds` and the time
    /// left is spent timing them again.
    fn nominal_replica_s(self) -> f64 {
        match self {
            Workload::DeviceRnn => 10.0,
            Workload::DevicePacket => 6.5,
            Workload::DeviceObserved => 6.5,
            Workload::Fleet => 1.0,
        }
    }

    /// Replicas of the grid a run of `seconds` covers (at least one).
    pub fn replicas(self, seconds: f64) -> usize {
        ((seconds / self.nominal_replica_s()) as usize).max(1)
    }

    /// The workload's cells: `replicas` copies of its grid.
    ///
    /// Every device cell draws its own job trace ([`derive_seed`]), so the
    /// simulated metrics average over as many independent traces as there
    /// are cells; the benchmark compares runs of one cell, never
    /// schedulers, so it does not need the grids' paired traces. Fleet
    /// replica `r` runs the twelve chaos-grid rows at `derive_seed(seed, r)`;
    /// replica 0 keeps `seed` itself.
    pub fn cells(self, seed: u64, replicas: usize) -> Vec<Cell> {
        use ArrivalRate::{High, Low, Medium};
        use Benchmark::{Cuckoo, Hybrid, Ipv6, Lstm};
        let mut cells = Vec::new();
        for replica in 0..replicas {
            let mut device = |bench: Benchmark, rates: &[ArrivalRate], scheds: &[&str], n_jobs| {
                for &rate in rates {
                    for sched in scheds {
                        let s = derive_seed(seed, cells.len());
                        cells.push(Cell::Device(Scenario::new(sched, bench, rate, n_jobs, s)));
                    }
                }
            };
            match self {
                Workload::DeviceRnn => {
                    let scheds = ["RR", "EDF", "LAX", "BAT", "LAX-CPU"];
                    device(Hybrid, &[High, Medium], &scheds, 8);
                    device(Lstm, &[High, Medium], &scheds, 8);
                }
                Workload::DevicePacket => {
                    let scheds = ["RR", "LAX", "PREMA", "PRO", "LAX-CPU"];
                    device(Ipv6, &[High], &scheds, 48);
                    device(Cuckoo, &[High], &scheds, 16);
                }
                Workload::DeviceObserved => {
                    // Two short cells per pair rather than one long one: a
                    // cell's p99 is its longest RNN chain, so more cells
                    // steady `sim_p99_ms`.
                    for _ in 0..2 {
                        device(Hybrid, &[Low], &["LAX", "RR"], 6);
                        device(Cuckoo, &[Low], &["LAX", "RR"], 6);
                    }
                }
                Workload::Fleet => {
                    for fault_milli in [0, 1000, 2000] {
                        for policy in schedulers::routing::names() {
                            let s = derive_seed(seed, replica);
                            let scenario = ClusterScenario::new(
                                policy,
                                Hybrid,
                                High,
                                FLEET_DEVICES,
                                FLEET_JOBS,
                                s,
                            );
                            cells.push(Cell::Fleet(scenario.with_fault_milli(fault_milli)));
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The committed chaos grid's job count, so fleet cells match its rows.
const FLEET_JOBS: usize = 200_000;

/// The committed chaos grid's device count.
pub const FLEET_DEVICES: usize = 8;

/// The `k`th seed derived from a base seed; `k = 0` is the base itself.
pub fn derive_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One cell of a workload.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A single-device simulation.
    Device(Scenario),
    /// A fleet run.
    Fleet(ClusterScenario),
}

impl Cell {
    /// The cell's scenario string.
    pub fn label(&self) -> String {
        match self {
            Cell::Device(s) => s.to_string(),
            Cell::Fleet(s) => s.to_string(),
        }
    }
}

/// How a device cell is instrumented.
#[derive(Default)]
pub struct Probes {
    /// Decorate the scheduler, and the sampler when one is attached.
    pub tally: Option<Arc<LayerTally>>,
    /// Attach a `MetricsSampler`, as the observed workload does.
    pub sampler: bool,
    /// Attach a counting observer.
    pub counts: Option<Arc<Mutex<ProbeCounts>>>,
}

/// When one layer call started and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Start instant.
    pub start: Instant,
    /// Host time.
    pub dur: WallDuration,
}

impl Interval {
    /// The interval from `start` to now.
    pub fn since(start: Instant) -> Interval {
        Interval { start, dur: start.elapsed() }
    }
}

/// The host time of each layer call one device cell made.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// The simulation's report.
    pub report: SimReport,
    /// `BenchmarkSuite::generate_jobs`.
    pub generate: Interval,
    /// `SimBuilder::build`.
    pub build: Interval,
    /// `Simulation::try_run`.
    pub run: Interval,
}

impl DeviceRun {
    /// The cell's host time, set-up excluded.
    pub fn total(&self) -> WallDuration {
        self.generate.dur + self.build.dur + self.run.dur
    }
}

/// Runs one device cell the way `lax_bench::run_cell` does (fault-free),
/// calling each layer directly so its host time can be taken apart.
pub fn run_device(scenario: &Scenario, probes: &Probes) -> Result<DeviceRun, BenchError> {
    let suite = BenchmarkSuite::calibrated();
    let t0 = Instant::now();
    let jobs =
        suite.generate_jobs(scenario.bench, scenario.rate, scenario.n_jobs, scenario.cell_seed());
    let generate = Interval::since(t0);
    let mut mode = registry::try_build(&scenario.scheduler)?;
    if let Some(tally) = &probes.tally {
        mode = layers::instrument(mode, tally);
    }
    let t1 = Instant::now();
    let mut builder =
        Simulation::builder().offline_rates(suite.offline_rates()).jobs(jobs).scheduler(mode);
    if probes.sampler {
        let sampler = MetricsSampler::new();
        builder = builder.observe(match &probes.tally {
            Some(tally) => Box::new(TimedObserver::new(sampler, tally)),
            None => Box::new(sampler),
        });
    }
    if let Some(counts) = &probes.counts {
        builder = builder.observe(Box::new(Arc::clone(counts)));
    }
    let mut sim = builder.build()?;
    let build = Interval::since(t1);
    let t2 = Instant::now();
    let report = sim.try_run()?;
    let run = Interval::since(t2);
    Ok(DeviceRun { report, generate, build, run })
}

/// Runs one fleet cell, returning its report and the `ClusterBuilder::run`
/// call's interval.
pub fn run_fleet(
    scenario: &ClusterScenario,
    observer: Option<Arc<Mutex<dyn Observer<ProbeEvent> + Send>>>,
) -> Result<(ClusterReport, Interval), BenchError> {
    let mut builder = ClusterBuilder::new(scenario.clone()).workers(FLEET_WORKERS);
    if let Some(obs) = observer {
        builder = builder.observe(obs);
    }
    let t0 = Instant::now();
    let report = builder.run()?;
    Ok((report, Interval::since(t0)))
}

/// Met counts of the committed fleet grids (`results/cluster.txt`,
/// `results/chaos.txt`), keyed by cluster-scenario string. Rows are read
/// by header name; a missing file contributes no rows.
pub fn committed_fleet_met() -> BTreeMap<String, u64> {
    let mut met = BTreeMap::new();
    for path in ["results/cluster.txt", "results/chaos.txt"] {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let mut header: Option<Vec<&str>> = None;
        for line in text.lines() {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.is_empty() || line.starts_with(['#', '-']) {
                continue;
            }
            let Some(h) = &header else {
                header = Some(cols);
                continue;
            };
            let get = |name: &str| h.iter().position(|c| *c == name).and_then(|i| cols.get(i));
            let parsed = (|| {
                let (bench, rate) = get("cell")?.split_once(':')?;
                let scenario = ClusterScenario::new(
                    get("policy")?,
                    bench.parse().ok()?,
                    rate.parse().ok()?,
                    get("devices")?.parse().ok()?,
                    get("jobs")?.parse().ok()?,
                    GRID_SEED,
                )
                .with_fault_milli(get("f").map_or(Some(0), |f| f.parse::<u32>().ok())? * 1000);
                Some((scenario.to_string(), get("met")?.parse().ok()?))
            })();
            if let Some((key, m)) = parsed {
                met.insert(key, m);
            }
        }
    }
    met
}

/// The output check for one fleet report: misses conserve against the
/// totals, and a cell the committed grids hold reproduces its met count.
pub fn check_fleet(
    report: &ClusterReport,
    committed: &BTreeMap<String, u64>,
) -> Result<(), String> {
    if report.misses.total() != report.total - report.met {
        return Err(format!(
            "misses {} != total {} - met {}",
            report.misses.total(),
            report.total,
            report.met
        ));
    }
    match committed.get(&report.scenario.to_string()) {
        Some(&met) if met != report.met => Err(format!("met {} != committed {met}", report.met)),
        None if report.scenario.seed == GRID_SEED => {
            Err("cell is missing from the committed fleet grids".to_string())
        }
        _ => Ok(()),
    }
}

/// The output check every device report must pass: each offered job
/// reached a fate before the horizon.
pub fn check_device(report: &SimReport, scenario: &Scenario) -> Result<(), String> {
    if report.records.len() != scenario.n_jobs {
        return Err(format!("{} records for {} jobs", report.records.len(), scenario.n_jobs));
    }
    match report.records.iter().find(|r| r.fate == JobFate::Unfinished) {
        Some(r) => Err(format!("job {} never finished", r.id.0)),
        None => Ok(()),
    }
}
