//! Fleet-scale cluster simulation behind one unified run API.
//!
//! The paper evaluates one accelerator; a serving fleet fronts N of them
//! with a router that decides, per arriving job, *which* device runs it —
//! or whether any device can still make the deadline at all. This module
//! generalizes the paper's command-processor admission test to that front
//! door:
//!
//! * [`ClusterScenario`] — the cluster experiment cell (routing policy ×
//!   benchmark × arrival rate × device count × job count × seed), with the
//!   same lossless string round trip as [`crate::sweep::Scenario`].
//! * [`ClusterBuilder`] — mirrors `gpu_sim`'s `SimBuilder`: fidelity tier,
//!   per-device scheduler, slot count, jitter, worker count, probe
//!   observers; [`ClusterBuilder::run`] produces a [`ClusterReport`].
//! * One engine runs every cell: a time-ordered pass over fault
//!   transitions, arrivals and retries. Per-device RNG seeds hash from the
//!   workload cell and device index — never the routing policy — so policy
//!   comparisons are paired and the report is bit-identical for any worker
//!   count.
//! * Latency tails stream through [`StreamingQuantiles`] (p50/p99/p999),
//!   merged across devices in device-index order, so a million-job run
//!   reports SLO attainment without holding a million samples.
//! * [`ClusterCheckpoint`] persists finished cells (summary + sketch) with
//!   the same crash-safe atomic-rename discipline as [`crate::Checkpoint`],
//!   so an interrupted grid resumes byte-identically.
//!
//! # Fidelity tiers
//!
//! The **fast** tier (default) runs each device as the calibrated queueing
//! model in [`gpu_sim::fleet`] ([`SlotModel`]), executed inline as jobs
//! are booked; a 16-device, million-job grid completes in seconds. The
//! **detailed** tier materializes every surviving booking's kernel chain
//! and runs a full [`gpu_sim::sim::Simulation`] per device under a
//! registry scheduler (default LAX), devices fanned out on the sweep
//! engine's [`crate::sweep::par_map`] pool — used for smokes and fidelity
//! cross-checks at small job counts.
//!
//! # Failure domains
//!
//! A [`FleetFaultPlan`] (from [`ClusterScenario::fault_seed`] at intensity
//! `:fI`, or injected via [`ClusterBuilder::fleet_faults`]) feeds the
//! engine's fault transitions and deadline-aware retries; a fault-free
//! cell runs with the empty plan.
//! Crashes lose in-flight work (recovered through the front door while
//! some survivor's predicted laxity admits it, bounded by
//! [`ClusterBuilder::retry_budget`]); drains stop new placements; straggler
//! windows stretch service; correlated outages down whole device blocks.
//! Every job ends completed, rejected, shed or lost, and the probe bus
//! narrates `DeviceDown`/`DeviceRestored`/`JobRetried`/`JobShed`. A no-op
//! plan is bit-identical to the empty one, and reports remain
//! bit-identical for any worker count. A booking is held only while a
//! later crash of its device could still claim it; once no crash is
//! ahead, it resolves as it is made, so a fault-free run holds none.
//!
//! # Observability
//!
//! The engine narrates itself over the probe bus: routing verdicts
//! live in arrival order, then — after devices execute — one
//! `JobCompleted` per finished job and exactly one `JobMissed` (typed by
//! [`MissCause`]) per job that did not make its deadline, merged into one
//! stream sorted by instant and job id so the delivery order is
//! independent of worker count. [`FleetSampler`] turns the stream into
//! windowed SLO time series and [`FleetTraceWriter`] into Perfetto traces
//! (the `fleet-trace` binary). The [`ClusterReport::misses`] breakdown is
//! computed on every run — observed or not — and conserves exactly against
//! the report's totals; attaching observers never changes any report byte.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use gpu_sim::fleet::FleetFaultAction;
use gpu_sim::prelude::*;
use schedulers::registry;
use schedulers::routing::{self, RouteDecision, RouteRequest, Router};
use sim_core::rng::SimRng;
use sim_core::stats::StreamingQuantiles;
use sim_core::table::Table;
use workloads::dag::{fanout_graph, ipa_graph, sample_fanout_width, IPA_WIDTH};
use workloads::rnn::{build_chain, sample_seq_len, Hidden, RnnCell};
use workloads::spec::{ArrivalRate, Benchmark, ParseSpecError};
use workloads::suite::BenchmarkSuite;

use crate::sweep::{default_jobs, par_map, BenchError, SharedObserver};

/// One cluster experiment cell: a routing policy placing an open-loop
/// arrival stream across `devices` accelerators. Self-describing, totally
/// ordered, and stringifiable for CLIs — the cluster counterpart of
/// [`crate::sweep::Scenario`].
///
/// # Examples
///
/// ```
/// use lax_bench::cluster::ClusterScenario;
/// use workloads::spec::{ArrivalRate, Benchmark};
///
/// let s = ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 16, 1_000_000, 42);
/// assert_eq!(s.to_string(), "LL:HYBRID:high:d16:j1000000:s42");
/// assert_eq!("LL:HYBRID:high:d16:j1000000:s42".parse::<ClusterScenario>().unwrap(), s);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterScenario {
    /// Routing policy name (see [`schedulers::routing`]). Must not contain
    /// `':'`, the string-form separator.
    pub policy: String,
    /// Benchmark every job is drawn from.
    pub bench: Benchmark,
    /// Per-device arrival-rate level; the cluster stream runs at
    /// `devices ×` the Table 4 rate, so per-device load is comparable to
    /// the single-device experiments.
    pub rate: ArrivalRate,
    /// Number of devices behind the router (≥ 1).
    pub devices: usize,
    /// Jobs in the arrival stream.
    pub n_jobs: usize,
    /// Base RNG seed; the workload stream uses [`ClusterScenario::cell_seed`].
    pub seed: u64,
    /// Fleet-fault intensity in milli-units (`1000` = intensity 1.0),
    /// stored fixed-point so the scenario stays totally ordered and
    /// hashable. `0` (the default) injects nothing and is omitted from the
    /// string form, so fault-free scenario strings are unchanged.
    pub fault_milli: u32,
}

impl ClusterScenario {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `policy` contains `':'` (which would break the string
    /// round trip) or if `devices` is zero.
    pub fn new(
        policy: &str,
        bench: Benchmark,
        rate: ArrivalRate,
        devices: usize,
        n_jobs: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !policy.contains(':'),
            "policy name {policy:?} contains ':', the ClusterScenario string-form separator"
        );
        assert!(devices > 0, "a cluster needs at least one device");
        ClusterScenario { policy: policy.to_string(), bench, rate, devices, n_jobs, seed, fault_milli: 0 }
    }

    /// The same cell with a fleet-fault intensity (in milli-units; `1000` =
    /// intensity 1.0). String form gains a `:fI` suffix when non-zero.
    pub fn with_fault_milli(mut self, fault_milli: u32) -> Self {
        self.fault_milli = fault_milli;
        self
    }

    /// Fleet-fault intensity as the float [`gpu_sim::fleet::FleetFaultPlan::seeded`]
    /// consumes.
    pub fn fault_intensity(&self) -> f64 {
        f64::from(self.fault_milli) / 1000.0
    }

    /// The seed feeding the cluster workload generator: an FNV-1a hash of
    /// the base seed and the workload-identifying fields. The routing
    /// policy is deliberately **not** mixed in — every policy compared at
    /// one `(bench, rate, devices, n_jobs, seed)` cell must route the
    /// identical arrival stream, or policy comparisons would pick up
    /// sampling noise. The same contract as [`crate::sweep::Scenario::cell_seed`],
    /// lifted to the fleet.
    pub fn cell_seed(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.seed.to_le_bytes());
        h.eat(self.bench.name().as_bytes());
        h.eat(b":");
        h.eat(self.rate.name().as_bytes());
        h.eat(&(self.devices as u64).to_le_bytes());
        h.eat(&(self.n_jobs as u64).to_le_bytes());
        h.finish()
    }

    /// The jitter-stream seed of device `d`: hashed from the cell seed and
    /// the device index, so devices are not clones of each other yet stay
    /// identical across routing policies and worker counts.
    pub fn device_seed(&self, d: usize) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.cell_seed().to_le_bytes());
        h.eat(b"device");
        h.eat(&(d as u64).to_le_bytes());
        h.finish()
    }

    /// The seed feeding [`gpu_sim::fleet::FleetFaultPlan::seeded`]: hashed
    /// from the cell seed and the fault intensity, never the policy, so
    /// every policy compared at one faulted cell replays the identical
    /// failure schedule against the identical arrival stream. Deliberately
    /// **not** part of [`ClusterScenario::cell_seed`] — arrival streams
    /// must pair across intensities too (intensity 0 vs 2 differ only in
    /// the faults, not the offered load).
    pub fn fault_seed(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.cell_seed().to_le_bytes());
        h.eat(b"fleet-faults");
        h.eat(&u64::from(self.fault_milli).to_le_bytes());
        h.finish()
    }
}

/// Incremental FNV-1a, shared by the cell/device seed derivations.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for ClusterScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:d{}:j{}:s{}",
            self.policy, self.bench, self.rate, self.devices, self.n_jobs, self.seed
        )?;
        if self.fault_milli > 0 {
            // f64 Display prints the shortest round-tripping form, so
            // `(printed * 1000).round()` in the parser recovers the exact
            // milli value.
            write!(f, ":f{}", self.fault_intensity())?;
        }
        Ok(())
    }
}

/// Error parsing a [`ClusterScenario`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseClusterScenarioError {
    input: String,
    reason: String,
}

impl fmt::Display for ParseClusterScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cluster scenario `{}`: {} (expected POLICY:BENCH:RATE:dD:jN:sSEED[:fI], e.g. LL:HYBRID:high:d16:j1000000:s42:f1.5)",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseClusterScenarioError {}

impl FromStr for ClusterScenario {
    type Err = ParseClusterScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: String| ParseClusterScenarioError { input: s.to_string(), reason };
        let parts: Vec<&str> = s.split(':').collect();
        let (core, fault) = match parts.as_slice() {
            [p @ .., f] if parts.len() == 7 => (p, Some(*f)),
            p => (p, None),
        };
        let [policy, bench, rate, devices, jobs, seed] = core else {
            return Err(bad(format!("{} fields, expected 6 or 7", parts.len())));
        };
        let bench: Benchmark = bench.parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let rate: ArrivalRate = rate.parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let devices: usize = devices
            .strip_prefix('d')
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| bad(format!("bad device count `{devices}`")))?;
        let n_jobs = jobs
            .strip_prefix('j')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad job count `{jobs}`")))?;
        let seed = seed
            .strip_prefix('s')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad seed `{seed}`")))?;
        if policy.is_empty() {
            return Err(bad("empty policy name".to_string()));
        }
        let fault_milli = match fault {
            None => 0,
            Some(f) => f
                .strip_prefix('f')
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|&v| v.is_finite() && v > 0.0)
                .map(|v| (v * 1000.0).round())
                .filter(|&m| m <= f64::from(u32::MAX))
                .map(|m| m as u32)
                .filter(|&m| m > 0)
                .ok_or_else(|| bad(format!("bad fault intensity `{f}`")))?,
        };
        Ok(ClusterScenario::new(policy, bench, rate, devices, n_jobs, seed)
            .with_fault_milli(fault_milli))
    }
}

/// What one generated job materializes into, kept symbolic so the fast
/// tier never builds kernel chains and the detailed tier can rebuild the
/// exact chain or graph from the stored parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainSpec {
    /// An RNN chain (`build_chain` parameters).
    Rnn { cell: RnnCell, hidden: Hidden, seq_len: u32 },
    /// The benchmark's single calibrated kernel.
    Single,
    /// The benchmark's kernel DAG at a sampled fan-out width
    /// ([`fanout_graph`] / [`ipa_graph`]).
    Dag { width: u32 },
}

/// One job of the cluster arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClusterJob {
    id: u32,
    arrival: Cycle,
    /// Calibrated isolated service time of the job's chain — what the
    /// router predicts with and what the fast tier serves at.
    service_est: Duration,
    spec: ChainSpec,
}

/// The single calibrated kernel of a few-kernel benchmark.
fn single_kernel_name(bench: Benchmark) -> &'static str {
    match bench {
        Benchmark::Ipv6 => "ipv6",
        Benchmark::Cuckoo => "cuckoo",
        Benchmark::Gmm => "gmm",
        Benchmark::Stem => "stem",
        other => panic!("{other} is a many-kernel benchmark"),
    }
}

/// Stable cache key for an RNN chain variant.
fn variant_key(cell: RnnCell, hidden: Hidden) -> u8 {
    let c = match cell {
        RnnCell::Lstm => 0,
        RnnCell::Gru => 1,
        RnnCell::Vanilla => 2,
    };
    let h = match hidden {
        Hidden::H128 => 0,
        Hidden::H256 => 1,
    };
    c * 2 + h
}

/// Isolated service time of one job: the sum of its kernels' calibrated
/// isolated times for chains (chains execute sequentially), and the
/// critical path of those times for DAGs (parallel arms overlap).
fn chain_service(suite: &BenchmarkSuite, spec: ChainSpec, bench: Benchmark) -> Duration {
    let us = match spec {
        ChainSpec::Single => suite.calibration(single_kernel_name(bench)).measured_us,
        ChainSpec::Rnn { cell, hidden, seq_len } => build_chain(cell, hidden, seq_len, suite)
            .iter()
            .map(|k| suite.calibration(&k.name).measured_us)
            .sum(),
        ChainSpec::Dag { width } => graph_critical_us(suite, &dag_graph(suite, bench, width)),
    };
    Duration::from_us_f64(us)
}

/// Builds the benchmark's kernel DAG at the stored width.
fn dag_graph(suite: &BenchmarkSuite, bench: Benchmark, width: u32) -> JobGraph {
    match bench {
        Benchmark::FanOut => fanout_graph(suite, width as usize),
        Benchmark::Ipa => ipa_graph(suite, width as usize),
        other => panic!("{other} is not a DAG benchmark"),
    }
}

/// Critical path of a graph under calibrated isolated kernel times: the
/// longest finish time over a topological walk, which a chain degenerates
/// to its plain sum.
fn graph_critical_us(suite: &BenchmarkSuite, graph: &JobGraph) -> f64 {
    let stages = graph.stages();
    let mut finish = vec![0.0f64; stages.len()];
    let mut best = 0.0f64;
    for &i in graph.topo_order() {
        let i = i as usize;
        let start = graph
            .preds(i)
            .iter()
            .fold(0.0f64, |acc, &p| acc.max(finish[p as usize]));
        finish[i] = start + suite.calibration(&stages[i].name).measured_us;
        best = best.max(finish[i]);
    }
    best
}

/// Materializes one symbolic job spec as the full [`JobDesc`] the detailed
/// tier simulates: the stored chain parameters, or the benchmark's DAG at
/// the stored width.
fn materialize_job(
    suite: &BenchmarkSuite,
    bench: Benchmark,
    spec: ChainSpec,
    id: u32,
    deadline: Duration,
    arrival: Cycle,
) -> JobDesc {
    let label = job_label(bench, spec);
    match spec {
        ChainSpec::Single => JobDesc::chain(
            JobId(id),
            label,
            vec![suite.calibration(single_kernel_name(bench)).desc.clone()],
            deadline,
            arrival,
        ),
        ChainSpec::Rnn { cell, hidden, seq_len } => JobDesc::chain(
            JobId(id),
            label,
            build_chain(cell, hidden, seq_len, suite),
            deadline,
            arrival,
        ),
        ChainSpec::Dag { width } => JobDesc::from_graph(
            JobId(id),
            label,
            dag_graph(suite, bench, width),
            deadline,
            arrival,
        ),
    }
    .expect("calibrated specs materialize into valid jobs")
}

/// Generates the cluster arrival stream: `n_jobs` open-loop arrivals at
/// `devices ×` the benchmark's Table 4 rate, each with a calibrated
/// service estimate. Seeded by [`ClusterScenario::cell_seed`] only — the
/// routing policy never perturbs the stream.
fn generate_cluster_jobs(scenario: &ClusterScenario, suite: &BenchmarkSuite) -> Vec<ClusterJob> {
    let mut rng = SimRng::seed_from(scenario.cell_seed());
    let rate = scenario.bench.rate_jobs_per_sec(scenario.rate) * scenario.devices as f64;
    // (variant, seq_len) -> service; at most a few dozen distinct chains.
    let mut costs: BTreeMap<(u8, u32), Duration> = BTreeMap::new();
    let mut now = Cycle::ZERO;
    let mut out = Vec::with_capacity(scenario.n_jobs);
    for i in 0..scenario.n_jobs {
        now += rng.exp_interarrival(rate);
        let spec = match scenario.bench {
            Benchmark::Lstm => rnn_spec(RnnCell::Lstm, Hidden::H128, &mut rng),
            Benchmark::Gru => rnn_spec(RnnCell::Gru, Hidden::H128, &mut rng),
            Benchmark::Van => rnn_spec(RnnCell::Vanilla, Hidden::H256, &mut rng),
            Benchmark::Hybrid => {
                if i % 2 == 0 {
                    rnn_spec(RnnCell::Lstm, Hidden::H128, &mut rng)
                } else {
                    rnn_spec(RnnCell::Gru, Hidden::H256, &mut rng)
                }
            }
            Benchmark::FanOut => ChainSpec::Dag { width: sample_fanout_width(&mut rng) as u32 },
            Benchmark::Ipa => ChainSpec::Dag { width: IPA_WIDTH as u32 },
            _ => ChainSpec::Single,
        };
        let key = match spec {
            ChainSpec::Single => (u8::MAX, 0),
            ChainSpec::Rnn { cell, hidden, seq_len } => (variant_key(cell, hidden), seq_len),
            ChainSpec::Dag { width } => (u8::MAX - 1, width),
        };
        let service_est = *costs
            .entry(key)
            .or_insert_with(|| chain_service(suite, spec, scenario.bench));
        out.push(ClusterJob { id: i as u32, arrival: now, service_est, spec });
    }
    out
}

fn rnn_spec(cell: RnnCell, hidden: Hidden, rng: &mut SimRng) -> ChainSpec {
    ChainSpec::Rnn { cell, hidden, seq_len: sample_seq_len(rng) }
}

/// Display label of one job in the detailed tier, matching what
/// [`workloads::suite::BenchmarkSuite::generate_jobs`] would emit.
fn job_label(bench: Benchmark, spec: ChainSpec) -> &'static str {
    match (bench, spec) {
        (Benchmark::Hybrid, ChainSpec::Rnn { cell: RnnCell::Lstm, .. }) => "HYBRID/LSTM128",
        (Benchmark::Hybrid, ChainSpec::Rnn { .. }) => "HYBRID/GRU256",
        (b, _) => b.name(),
    }
}

/// Builds a cluster run, mirroring `gpu_sim`'s `SimBuilder`: construct
/// with [`ClusterBuilder::new`], chain option setters, then
/// [`ClusterBuilder::run`].
#[derive(Clone)]
pub struct ClusterBuilder {
    scenario: ClusterScenario,
    fidelity: Fidelity,
    device_scheduler: String,
    slots: usize,
    jitter: f64,
    workers: usize,
    observers: Vec<SharedObserver>,
    fleet_faults: Option<FleetFaultPlan>,
    retry_budget: u32,
    retry_backoff: Duration,
    shed_degraded: bool,
}

impl fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("scenario", &self.scenario)
            .field("fidelity", &self.fidelity)
            .field("device_scheduler", &self.device_scheduler)
            .field("slots", &self.slots)
            .field("jitter", &self.jitter)
            .field("workers", &self.workers)
            .field("observers", &self.observers.len())
            .field("fleet_faults", &self.fleet_faults)
            .field("retry_budget", &self.retry_budget)
            .field("retry_backoff", &self.retry_backoff)
            .field("shed_degraded", &self.shed_degraded)
            .finish()
    }
}

impl ClusterBuilder {
    /// A builder with the defaults: fast fidelity, LAX device scheduler
    /// (detailed tier only), one service slot per compute unit of the
    /// Table 2 machine, 2% service jitter, [`default_jobs`] workers.
    pub fn new(scenario: ClusterScenario) -> Self {
        ClusterBuilder {
            scenario,
            fidelity: Fidelity::Fast,
            device_scheduler: "LAX".to_string(),
            slots: GpuConfig::default().num_cus as usize,
            jitter: 0.02,
            workers: default_jobs(),
            observers: Vec::new(),
            fleet_faults: None,
            retry_budget: 3,
            retry_backoff: Duration::from_us(100),
            shed_degraded: false,
        }
    }

    /// Selects the device fidelity tier.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Scheduler each detailed-tier device runs (registry name; the fast
    /// tier has no scheduler — it is a FIFO queueing model).
    pub fn device_scheduler(mut self, name: &str) -> Self {
        self.device_scheduler = name.to_string();
        self
    }

    /// Concurrent service slots per device, for the router's free-time
    /// model and the fast tier's servers. Must be at least 1
    /// ([`ClusterBuilder::run`] fails with [`BenchError::FleetConfig`]).
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Half-width of the fast tier's uniform service-jitter multiplier.
    /// Must lie in `[0, 1)` ([`ClusterBuilder::run`] fails with
    /// [`BenchError::FleetConfig`]).
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Worker threads detailed-tier devices are fanned across (fast-tier
    /// devices execute inline in the engine's single pass). The report is
    /// bit-identical for any value (device seeds never depend on workers).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an observer to the cluster's probe bus.
    ///
    /// Event vocabulary, per run: one [`ProbeEvent::JobRouted`],
    /// [`ProbeEvent::JobRejected`] or [`ProbeEvent::JobShed`] per arrival
    /// and one [`ProbeEvent::JobRetried`] per recovered placement,
    /// delivered live in arrival order; [`ProbeEvent::DeviceDown`] /
    /// [`ProbeEvent::DeviceRestored`] at each fleet health transition;
    /// then, once devices have executed, one
    /// [`ProbeEvent::JobCompleted`] per run-to-completion job and exactly
    /// one [`ProbeEvent::JobMissed`] (typed by [`MissCause`]) per job that
    /// did not make its deadline, merged across devices into a single
    /// stream sorted by instant, then job id, with a job's completion
    /// before its miss.
    ///
    /// Determinism contract: observers are read-only taps. The returned
    /// [`ClusterReport`] is bit-identical with or without them for any
    /// worker count, the sorted outcome stream makes the *event order*
    /// worker-count-independent too, and with no observer attached the
    /// event payloads are never even built
    /// ([`sim_core::probe::ProbeHub::emit_with`]).
    pub fn observe(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Overrides the fleet fault plan. Without this, the plan derives from
    /// the scenario's fault intensity via [`ClusterScenario::fault_seed`]
    /// ([`FleetFaultPlan::none`] at intensity 0).
    pub fn fleet_faults(mut self, plan: FleetFaultPlan) -> Self {
        self.fleet_faults = Some(plan);
        self
    }

    /// Maximum times one job lost to a device crash (or stalled with no
    /// device in rotation) re-enters the front door. `0` disables retry:
    /// every crash-lost job counts as lost. Default 3.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Base sim-time backoff before a lost job's first retry; doubles per
    /// subsequent attempt. Deterministic — no wall-clock. Default 100 µs.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Enables load shedding under degraded capacity: while any device is
    /// out of rotation, an arriving job whose best predicted laxity across
    /// the survivors is already negative is shed at the front door
    /// (counted separately from policy rejections). Off by default.
    pub fn shed_degraded(mut self, shed: bool) -> Self {
        self.shed_degraded = shed;
        self
    }

    /// Routes the arrival stream and executes every device, returning the
    /// merged [`ClusterReport`].
    ///
    /// One engine serves every cell: a time-ordered pass interleaving the
    /// fleet fault plan's transitions, arrivals and retries. A fault-free
    /// cell runs it with the empty plan, so an intensity-0 scenario is
    /// bit-identical to one that never mentions faults. Fast-tier devices
    /// execute inline as jobs are booked; detailed-tier devices then
    /// simulate their surviving bookings on the worker pool.
    ///
    /// # Errors
    ///
    /// [`BenchError::UnknownPolicy`] for routing policies outside the
    /// registry; [`BenchError::FleetConfig`] for zero
    /// [`slots`](Self::slots) or a [`jitter`](Self::jitter) outside
    /// `[0, 1)`; [`BenchError::FleetFault`] for an ill-formed fault plan;
    /// [`BenchError::UnknownScheduler`] / [`BenchError::Sim`] from
    /// detailed-tier devices.
    pub fn run(&self) -> Result<ClusterReport, BenchError> {
        let policy = routing::try_build(&self.scenario.policy)?;
        // The per-device seed is filled in by the engine.
        let params = FastDeviceParams { slots: self.slots, jitter: self.jitter, seed: 0 };
        params.validate()?;
        let suite = BenchmarkSuite::calibrated();
        let jobs = generate_cluster_jobs(&self.scenario, suite);
        let plan = match &self.fleet_faults {
            Some(p) => p.clone(),
            None if self.scenario.fault_milli > 0 => {
                // Fault windows span the arrival stream; the span is a pure
                // function of the cell (arrivals are policy-blind), so the
                // plan is too.
                let span = jobs
                    .last()
                    .map_or(Duration::ZERO, |j| j.arrival.saturating_since(Cycle::ZERO));
                FleetFaultPlan::seeded(
                    self.scenario.fault_seed(),
                    self.scenario.fault_intensity(),
                    span,
                    self.scenario.devices as u32,
                )
            }
            None => FleetFaultPlan::none(),
        };
        plan.validate(self.scenario.devices as u32)?;
        self.run_fleet(policy, params, jobs, suite, &plan)
    }

    /// The fleet engine: one time-ordered pass interleaving fleet fault
    /// transitions, job arrivals and retries. Deterministic global order:
    /// by instant, then kind (fault transitions < arrivals < retries),
    /// then stream/schedule position — so the run is a pure function of
    /// the cell and plan, independent of worker count.
    ///
    /// Every device books through a [`SlotModel`]. The fast tier executes
    /// bookings inline, jittered and straggler-stretched. The detailed tier
    /// uses the model (un-jittered) only to decide crash losses, then
    /// materializes each device's surviving bookings as a full
    /// [`Simulation`] with the device's straggler windows translated to
    /// [`Slowdown`] faults.
    fn run_fleet(
        &self,
        policy: routing::RoutePolicy,
        params: FastDeviceParams,
        jobs: Vec<ClusterJob>,
        suite: &BenchmarkSuite,
        plan: &FleetFaultPlan,
    ) -> Result<ClusterReport, BenchError> {
        let deadline = self.scenario.bench.deadline();
        let n = self.scenario.devices;
        let detailed = self.fidelity == Fidelity::Detailed;
        // P2C's sampling stream is seeded from the cell, not the policy
        // string, so the job trace and all derived seeds stay paired.
        let mut router = Router::new(policy, n, self.slots, self.scenario.cell_seed());
        let mut hub: ProbeHub<ProbeEvent> = ProbeHub::new();
        for obs in &self.observers {
            hub.attach(Box::new(Arc::clone(obs)));
        }
        let collect = hub.is_active();
        let mut devs: Vec<FleetDevice> = (0..n)
            .map(|d| {
                let params = FastDeviceParams {
                    jitter: if detailed { 0.0 } else { params.jitter },
                    seed: self.scenario.device_seed(d),
                    ..params
                };
                FleetDevice::new(d as u16, &params, detailed, collect)
            })
            .collect();
        // Straggler windows per device, scanned statically at booking time
        // (the schedule is known a priori, so no transition state needed).
        for w in &plan.stragglers {
            devs[w.device as usize].windows.push((w.at, w.until, w.factor));
        }
        // Health transitions, expanded so correlated outages become one
        // event per member device; `transitions()` order (ends before
        // starts at equal instants) is preserved.
        let mut fleet_events: Vec<(Cycle, DevAction)> = Vec::new();
        for (t, action) in plan.transitions() {
            match action {
                FleetFaultAction::CrashStart(i) => {
                    fleet_events.push((t, DevAction::Down(plan.crashes[i].device as usize)));
                }
                FleetFaultAction::CrashEnd(i) => {
                    fleet_events.push((t, DevAction::Up(plan.crashes[i].device as usize)));
                }
                FleetFaultAction::OutageStart(i) => {
                    let o = &plan.outages[i];
                    for d in o.first..o.first + o.count {
                        fleet_events.push((t, DevAction::Down(d as usize)));
                    }
                }
                FleetFaultAction::OutageEnd(i) => {
                    let o = &plan.outages[i];
                    for d in o.first..o.first + o.count {
                        fleet_events.push((t, DevAction::Up(d as usize)));
                    }
                }
                FleetFaultAction::DrainStart(i) => {
                    fleet_events.push((t, DevAction::DrainOn(plan.drains[i].device as usize)));
                }
                FleetFaultAction::DrainEnd(i) => {
                    fleet_events.push((t, DevAction::DrainOff(plan.drains[i].device as usize)));
                }
                FleetFaultAction::StragglerStart(_) | FleetFaultAction::StragglerEnd(_) => {}
            }
        }
        for &(_, action) in &fleet_events {
            if let DevAction::Down(d) = action {
                devs[d].downs_ahead += 1;
            }
        }
        let mut ei = 0usize;
        let mut retries: std::collections::BinaryHeap<std::cmp::Reverse<RetryEntry>> =
            std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut lost = 0u64;
        let mut retried = 0u64;
        let mut misses = MissBreakdown::default();
        let mut outcome_events: Vec<OutcomeEvent> = Vec::new();

        // One job's loss becoming final at the retry layer (budget out, or
        // no surviving device can make the deadline).
        macro_rules! lose_exhausted {
            ($at:expr, $id:expr) => {{
                lost += 1;
                misses.add(MissCause::RetryExhausted);
                if collect {
                    outcome_events.push(OutcomeEvent {
                        at: $at,
                        job: $id,
                        kind: 1,
                        event: ProbeEvent::JobMissed {
                            job: JobId($id),
                            device: None,
                            cause: MissCause::RetryExhausted,
                        },
                    });
                }
            }};
        }

        // One fleet event: flush/restore device state and drive health.
        macro_rules! apply_fleet_event {
            ($t:expr, $action:expr) => {{
                let t = $t;
                match $action {
                    DevAction::Down(d) => {
                        let dev = &mut devs[d];
                        dev.downs_ahead -= 1;
                        dev.down += 1;
                        if dev.down == 1 {
                            let bookings = std::mem::take(&mut dev.bookings);
                            let mut lost_here = 0u32;
                            for b in bookings {
                                if b.completion <= t {
                                    // Done before the crash hit.
                                    dev.resolve(b);
                                } else {
                                    // In flight or queued: gone with the
                                    // device; retry if budget remains.
                                    lost_here += 1;
                                    if !detailed {
                                        dev.events += 1;
                                    }
                                    let id = b.id;
                                    if chaos_lose(
                                        b,
                                        t,
                                        self.retry_budget,
                                        self.retry_backoff,
                                        &mut retries,
                                        &mut seq,
                                        &mut lost,
                                    ) {
                                        misses.add(MissCause::CrashLoss);
                                        if collect {
                                            outcome_events.push(OutcomeEvent {
                                                at: t,
                                                job: id,
                                                kind: 1,
                                                event: ProbeEvent::JobMissed {
                                                    job: JobId(id),
                                                    device: Some(d as u16),
                                                    cause: MissCause::CrashLoss,
                                                },
                                            });
                                        }
                                    }
                                }
                            }
                            hub.emit_with(t, || ProbeEvent::DeviceDown {
                                device: d as u16,
                                crashed: true,
                                lost: lost_here,
                            });
                            router.set_health(d, DeviceHealth::Down);
                        }
                    }
                    DevAction::Up(d) => {
                        let dev = &mut devs[d];
                        dev.down -= 1;
                        if dev.down == 0 {
                            // Restored with an empty queue: both the actual
                            // model and the router's predictions restart at
                            // the restore instant.
                            dev.model.reset(t);
                            router.reset_device(d, t);
                            let h = if dev.draining > 0 {
                                DeviceHealth::Draining
                            } else {
                                DeviceHealth::Up
                            };
                            router.set_health(d, h);
                            if h == DeviceHealth::Up {
                                hub.emit_with(t, || ProbeEvent::DeviceRestored {
                                    device: d as u16,
                                });
                            }
                        }
                    }
                    DevAction::DrainOn(d) => {
                        let dev = &mut devs[d];
                        dev.draining += 1;
                        if dev.draining == 1 && dev.down == 0 {
                            // In-flight work keeps running; only new
                            // placements stop.
                            hub.emit_with(t, || ProbeEvent::DeviceDown {
                                device: d as u16,
                                crashed: false,
                                lost: 0,
                            });
                            router.set_health(d, DeviceHealth::Draining);
                        }
                    }
                    DevAction::DrainOff(d) => {
                        let dev = &mut devs[d];
                        dev.draining -= 1;
                        if dev.draining == 0 && dev.down == 0 {
                            router.set_health(d, DeviceHealth::Up);
                            hub.emit_with(t, || ProbeEvent::DeviceRestored { device: d as u16 });
                        }
                    }
                }
            }};
        }

        // One retry firing: deadline-aware re-admission for every policy.
        macro_rules! fire_retry {
            ($entry:expr) => {{
                let RetryEntry { at, job, .. } = $entry;
                let req = RouteRequest {
                    arrival: at,
                    service_est: job.service_est,
                    deadline: job.deadline_abs.saturating_since(at),
                };
                match router.best_laxity(&req) {
                    None => {
                        // Still nothing in rotation; back off again until
                        // the budget runs out.
                        if job.attempt < self.retry_budget {
                            seq += 1;
                            retries.push(std::cmp::Reverse(RetryEntry {
                                at: at + backoff_for(self.retry_backoff, job.attempt),
                                seq,
                                job: RetryJob { attempt: job.attempt + 1, ..job },
                            }));
                        } else {
                            lose_exhausted!(at, job.id);
                        }
                    }
                    Some(lax) if lax < 0.0 => {
                        // The laxity gate: no survivor can make the
                        // remaining deadline, so re-placing would only
                        // burn capacity on a guaranteed miss.
                        lose_exhausted!(at, job.id);
                    }
                    Some(_) => match router.route(&req) {
                        RouteDecision::Route { device, .. } => {
                            retried += 1;
                            hub.emit_with(at, || ProbeEvent::JobRetried {
                                job: JobId(job.id),
                                attempt: job.attempt,
                                device: device as u16,
                            });
                            devs[device].book(at, &job);
                        }
                        // best_laxity was non-negative, so LL admits and
                        // some device is Up; defensive completeness.
                        RouteDecision::Reject { .. } | RouteDecision::NoDevice => {
                            lose_exhausted!(at, job.id);
                        }
                    },
                }
            }};
        }

        for job in &jobs {
            let t_arr = job.arrival;
            // Replay fault transitions (≤ arrival) and retries (< arrival)
            // in merged time order; equal-instant ties go to transitions.
            loop {
                let next_ev = fleet_events.get(ei).map(|e| e.0);
                let next_re = retries.peek().map(|r| r.0.at);
                let ev_ok = next_ev.is_some_and(|te| te <= t_arr);
                let re_ok = next_re.is_some_and(|tr| tr < t_arr);
                if ev_ok && (!re_ok || next_ev <= next_re) {
                    let (t, action) = fleet_events[ei];
                    ei += 1;
                    apply_fleet_event!(t, action);
                } else if re_ok {
                    let std::cmp::Reverse(entry) = retries.pop().expect("peeked");
                    fire_retry!(entry);
                } else {
                    break;
                }
            }
            let deadline_abs = t_arr + deadline;
            let req =
                RouteRequest { arrival: t_arr, service_est: job.service_est, deadline };
            if self.shed_degraded && (0..n).any(|d| router.health(d) != DeviceHealth::Up) {
                if let Some(lax) = router.best_laxity(&req) {
                    if lax < 0.0 {
                        shed += 1;
                        hub.emit_with(t_arr, || ProbeEvent::JobShed {
                            job: JobId(job.id),
                            laxity_us: lax,
                        });
                        hub.emit_with(t_arr, || ProbeEvent::JobMissed {
                            job: JobId(job.id),
                            device: None,
                            cause: MissCause::Shed,
                        });
                        continue;
                    }
                }
            }
            match router.route(&req) {
                RouteDecision::Route { device, predicted_wait, laxity_us } => {
                    hub.emit_with(t_arr, || ProbeEvent::JobRouted {
                        job: JobId(job.id),
                        device: device as u16,
                        predicted_wait_us: predicted_wait.as_us_f64(),
                        laxity_us,
                    });
                    let retry = RetryJob {
                        id: job.id,
                        original_arrival: t_arr,
                        service_est: job.service_est,
                        deadline_abs,
                        attempt: 0,
                        spec: job.spec,
                    };
                    devs[device].book(t_arr, &retry);
                }
                RouteDecision::Reject { laxity_us } => {
                    hub.emit_with(t_arr, || ProbeEvent::JobRejected {
                        job: JobId(job.id),
                        laxity_us,
                    });
                    hub.emit_with(t_arr, || ProbeEvent::JobMissed {
                        job: JobId(job.id),
                        device: None,
                        cause: MissCause::FrontDoorReject,
                    });
                    rejected += 1;
                }
                RouteDecision::NoDevice => {
                    // Whole fleet out of rotation: hold the job and retry
                    // once capacity returns, budget permitting.
                    if self.retry_budget > 0 {
                        seq += 1;
                        retries.push(std::cmp::Reverse(RetryEntry {
                            at: t_arr + backoff_for(self.retry_backoff, 0),
                            seq,
                            job: RetryJob {
                                id: job.id,
                                original_arrival: t_arr,
                                service_est: job.service_est,
                                deadline_abs,
                                attempt: 1,
                                spec: job.spec,
                            },
                        }));
                    } else {
                        lose_exhausted!(t_arr, job.id);
                    }
                }
            }
        }
        drop(jobs);
        // Drain what remains: the tail of the fault schedule and every
        // pending retry, still in merged time order.
        loop {
            let next_ev = fleet_events.get(ei).map(|e| e.0);
            let next_re = retries.peek().map(|r| r.0.at);
            match (next_ev, next_re) {
                (Some(te), Some(tr)) if te <= tr => {
                    let (t, action) = fleet_events[ei];
                    ei += 1;
                    apply_fleet_event!(t, action);
                }
                (Some(_), None) => {
                    let (t, action) = fleet_events[ei];
                    ei += 1;
                    apply_fleet_event!(t, action);
                }
                (_, Some(_)) => {
                    let std::cmp::Reverse(entry) = retries.pop().expect("peeked");
                    fire_retry!(entry);
                }
                (None, None) => break,
            }
        }
        // A held booking waits for its device's next crash, and that crash
        // resolves it, so the replayed schedule leaves none behind.
        debug_assert!(devs.iter().all(|dev| dev.bookings.is_empty()));

        let mut latency_us = StreamingQuantiles::new();
        let mut completed = 0u64;
        let mut met = 0u64;
        let mut device_rejected = 0u64;
        let mut makespan = Duration::ZERO;
        let mut events = 0u64;
        let mut per_device_jobs = Vec::with_capacity(n);
        if detailed {
            let survivor_lists: Vec<Vec<Booking>> =
                devs.iter_mut().map(|dev| std::mem::take(&mut dev.survivors)).collect();
            let indices: Vec<usize> = (0..n).collect();
            let slices = par_map(&indices, self.workers, |&d| {
                self.run_detailed_survivors(d, &survivor_lists[d], &devs[d].windows, suite, collect)
            });
            // Merge in device-index order: StreamingQuantiles counts merge
            // order-independently but the mean's f64 sum does not, and the
            // report must be bit-identical across worker counts.
            for (d, slice) in slices.into_iter().enumerate() {
                let s = slice?;
                latency_us.merge(&s.latency_us);
                completed += s.completed;
                met += s.met;
                device_rejected += s.device_rejected;
                makespan = makespan.max(s.makespan);
                events += s.events;
                misses.merge(&s.misses);
                outcome_events.extend(s.outcomes);
                per_device_jobs.push(devs[d].booked);
            }
        } else {
            for dev in &mut devs {
                latency_us.merge(&dev.sketch);
                completed += dev.completed;
                met += dev.met;
                makespan = makespan.max(dev.makespan.saturating_since(Cycle::ZERO));
                events += dev.events;
                misses.merge(&dev.misses);
                outcome_events.append(&mut dev.outcomes);
                per_device_jobs.push(dev.booked);
            }
        }
        misses.add_n(MissCause::FrontDoorReject, rejected);
        misses.add_n(MissCause::Shed, shed);
        emit_outcomes(&mut hub, outcome_events);
        Ok(ClusterReport {
            scenario: self.scenario.clone(),
            fidelity: self.fidelity,
            total: self.scenario.n_jobs as u64,
            rejected,
            device_rejected,
            completed,
            met,
            lost,
            retried,
            shed,
            misses,
            latency_us,
            per_device_jobs,
            makespan,
            events,
        })
    }

    /// Detailed-tier execution: materialize one device's surviving
    /// bookings (entry order, deadlines measured from the original
    /// arrival) as a full simulation, with the device's straggler windows
    /// applied as whole-device [`Slowdown`] faults.
    fn run_detailed_survivors(
        &self,
        d: usize,
        survivors: &[Booking],
        windows: &[(Cycle, Cycle, f64)],
        suite: &BenchmarkSuite,
        collect: bool,
    ) -> Result<DeviceSlice, BenchError> {
        if survivors.is_empty() {
            return Ok(DeviceSlice::default());
        }
        let bench = self.scenario.bench;
        let descs: Vec<JobDesc> = survivors
            .iter()
            .enumerate()
            .map(|(i, b)| {
                // A retried booking enters at its retry instant but is
                // held to its original deadline: the relative deadline
                // shrinks by the time already burned.
                materialize_job(
                    suite,
                    bench,
                    b.spec,
                    i as u32,
                    b.deadline_abs.saturating_since(b.entry),
                    b.entry,
                )
            })
            .collect();
        let mode = registry::try_build(&self.device_scheduler)?;
        let faults = FaultPlan {
            slowdowns: windows
                .iter()
                .map(|&(at, until, factor)| Slowdown { at, until, factor })
                .collect(),
            ..FaultPlan::none()
        };
        let mut sim = Simulation::builder()
            .offline_rates(suite.offline_rates())
            .jobs(descs)
            .scheduler(mode)
            .faults(faults)
            .build()?;
        let report = sim.try_run().map_err(BenchError::Sim)?;
        let mut slice = DeviceSlice {
            completed: report.completed() as u64,
            met: report.deadlines_met() as u64,
            device_rejected: report.rejected() as u64,
            makespan: report.makespan,
            events: report.events,
            ..DeviceSlice::default()
        };
        for r in &report.records {
            // Local ids were assigned by enumeration, so the record maps
            // straight back to its booking.
            attribute_detailed(r, &survivors[r.id.0 as usize], d as u16, &mut slice, collect);
        }
        Ok(slice)
    }
}

/// One expanded fleet-fault transition targeting a single device.
#[derive(Debug, Clone, Copy)]
enum DevAction {
    /// Device crashes (crash or outage-member start).
    Down(usize),
    /// Crash/outage window ends.
    Up(usize),
    /// Drain window opens.
    DrainOn(usize),
    /// Drain window closes.
    DrainOff(usize),
}

/// A job (re-)entering the front door: either an original arrival held
/// back by a fleet-wide outage or a booking lost to a device crash.
#[derive(Debug, Clone, Copy)]
struct RetryJob {
    id: u32,
    original_arrival: Cycle,
    service_est: Duration,
    deadline_abs: Cycle,
    /// Which retry generation this is (0 = the initial placement).
    attempt: u32,
    spec: ChainSpec,
}

/// A scheduled retry, ordered by (fire instant, schedule sequence) — the
/// payload never participates in the ordering.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    at: Cycle,
    seq: u64,
    job: RetryJob,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Exponential sim-time backoff: `base << attempt`, saturating (the shift
/// is capped well past any realistic budget).
fn backoff_for(base: Duration, attempt: u32) -> Duration {
    Duration::from_cycles(base.as_cycles().saturating_mul(1u64 << attempt.min(20)))
}

/// Requeues a crash-lost booking if its retry budget allows, else counts
/// it lost. Returns `true` when the loss became final (the caller
/// attributes it as a crash loss).
fn chaos_lose(
    b: Booking,
    now: Cycle,
    budget: u32,
    backoff: Duration,
    retries: &mut std::collections::BinaryHeap<std::cmp::Reverse<RetryEntry>>,
    seq: &mut u64,
    lost: &mut u64,
) -> bool {
    if b.attempt < budget {
        *seq += 1;
        retries.push(std::cmp::Reverse(RetryEntry {
            at: now + backoff_for(backoff, b.attempt),
            seq: *seq,
            job: RetryJob {
                id: b.id,
                original_arrival: b.original_arrival,
                service_est: b.service_est,
                deadline_abs: b.deadline_abs,
                attempt: b.attempt + 1,
                spec: b.spec,
            },
        }));
        false
    } else {
        *lost += 1;
        true
    }
}

/// One placement on a fleet device, held until no crash can claim it.
#[derive(Debug, Clone, Copy)]
struct Booking {
    id: u32,
    original_arrival: Cycle,
    /// When this placement entered the device (> original arrival for
    /// retries).
    entry: Cycle,
    /// Service start instant (first slot grab; `start == completion -
    /// stretched service`), for splitting a late completion into queueing
    /// delay vs service time.
    start: Cycle,
    /// Model completion instant (fast: jittered and straggler-stretched;
    /// detailed: calibrated estimate).
    completion: Cycle,
    deadline_abs: Cycle,
    service_est: Duration,
    attempt: u32,
    spec: ChainSpec,
}

/// Mutable per-device state of the fleet engine.
#[derive(Debug)]
struct FleetDevice {
    /// This device's fleet index, stamped into outcome events.
    index: u16,
    /// The executing service model, distinct from the router's
    /// predictions. Detailed-tier devices run it un-jittered, only to
    /// decide which bookings a crash claims.
    model: SlotModel,
    detailed: bool,
    /// Whether to buffer outcome events (an observer is attached).
    collect: bool,
    /// Straggler windows `(at, until, factor)` of this device.
    windows: Vec<(Cycle, Cycle, f64)>,
    /// `Down` transitions still ahead in the fault plan. At zero no crash
    /// can claim a booking, so it resolves as it is made: a fault-free run
    /// never holds one.
    downs_ahead: u32,
    /// Placements a later crash may still claim, in booking order.
    bookings: Vec<Booking>,
    /// Detailed tier: resolved bookings, in booking order, awaiting the
    /// device's simulation.
    survivors: Vec<Booking>,
    sketch: StreamingQuantiles,
    completed: u64,
    met: u64,
    booked: u64,
    events: u64,
    makespan: Cycle,
    /// Open crash/outage windows (health `Down` while > 0).
    down: u32,
    /// Open drain windows (health `Draining` while > 0 and not down).
    draining: u32,
    /// Fast tier: typed causes of this device's late completions.
    misses: MissBreakdown,
    /// Fast tier: buffered completion/miss events (only when collecting).
    outcomes: Vec<OutcomeEvent>,
}

impl FleetDevice {
    fn new(index: u16, params: &FastDeviceParams, detailed: bool, collect: bool) -> Self {
        FleetDevice {
            index,
            model: SlotModel::new(params),
            detailed,
            collect,
            windows: Vec::new(),
            downs_ahead: 0,
            bookings: Vec::new(),
            survivors: Vec::new(),
            sketch: StreamingQuantiles::new(),
            completed: 0,
            met: 0,
            booked: 0,
            events: 0,
            makespan: Cycle::ZERO,
            down: 0,
            draining: 0,
            misses: MissBreakdown::default(),
            outcomes: Vec::new(),
        }
    }

    /// Books one placement entering at `entry`. On the fast tier, active
    /// straggler windows at the start instant stretch the service time.
    fn book(&mut self, entry: Cycle, job: &RetryJob) {
        let windows = if self.detailed { &[][..] } else { &self.windows[..] };
        let (start, completion) = self.model.book(entry, job.service_est, |start| {
            windows
                .iter()
                .filter(|&&(at, until, _)| at <= start && start < until)
                .map(|&(_, _, f)| f)
                .product()
        });
        self.booked += 1;
        let b = Booking {
            id: job.id,
            original_arrival: job.original_arrival,
            entry,
            start,
            completion,
            deadline_abs: job.deadline_abs,
            service_est: job.service_est,
            attempt: job.attempt,
            spec: job.spec,
        };
        if self.downs_ahead == 0 {
            self.resolve(b);
        } else {
            self.bookings.push(b);
        }
    }

    /// Resolves a booking no crash can claim: the fast tier completes it,
    /// the detailed tier keeps it for the device's simulation.
    fn resolve(&mut self, b: Booking) {
        if self.detailed {
            self.survivors.push(b);
        } else {
            self.complete(&b);
        }
    }

    /// Resolves one fast-tier booking as completed, attributing a typed
    /// cause when it blew its deadline (and, when collecting, buffering
    /// the completion/miss events).
    fn complete(&mut self, b: &Booking) {
        let latency = b.completion.saturating_since(b.original_arrival);
        let met = b.completion <= b.deadline_abs;
        self.sketch.push(latency.as_us_f64());
        self.met += u64::from(met);
        self.completed += 1;
        self.makespan = self.makespan.max(b.completion);
        self.events += 2;
        if !met {
            // Late although the (stretched) service alone fit the deadline
            // budget means the job died waiting for a slot.
            let cause = if b.completion.saturating_since(b.start)
                <= b.deadline_abs.saturating_since(b.original_arrival)
            {
                MissCause::QueueingDelay
            } else {
                MissCause::ServiceTime
            };
            self.misses.add(cause);
            if self.collect {
                self.outcomes.push(OutcomeEvent {
                    at: b.completion,
                    job: b.id,
                    kind: 1,
                    event: ProbeEvent::JobMissed {
                        job: JobId(b.id),
                        device: Some(self.index),
                        cause,
                    },
                });
            }
        }
        if self.collect {
            self.outcomes.push(OutcomeEvent {
                at: b.completion,
                job: b.id,
                kind: 0,
                event: ProbeEvent::JobCompleted {
                    job: JobId(b.id),
                    device: self.index,
                    latency_us: latency.as_us_f64(),
                    met,
                },
            });
        }
    }
}

/// One buffered completion/miss probe event. Devices execute in pool
/// order, so their outcome events are collected per device and merged
/// into a single sorted stream before any observer sees them.
#[derive(Debug, Clone)]
struct OutcomeEvent {
    at: Cycle,
    /// Cluster-wide job id (sort key after the instant).
    job: u32,
    /// Final tie-break: a job's completion (0) sorts before its miss (1).
    kind: u8,
    event: ProbeEvent,
}

/// Delivers buffered outcome events in one deterministic order — by
/// instant, then job id, then completion-before-miss — so the stream an
/// observer sees is independent of worker count and device merge order.
fn emit_outcomes(hub: &mut ProbeHub<ProbeEvent>, mut outcomes: Vec<OutcomeEvent>) {
    outcomes.sort_by_key(|o| (o.at, o.job, o.kind));
    for o in outcomes {
        hub.emit(o.at, o.event);
    }
}

/// Classifies one detailed-tier job record of booking `b` on `device` into
/// `slice`: its latency, a `JobCompleted` event for a finished job, and
/// exactly one typed miss for a job that did not make its deadline. Late
/// completions (and scheduler aborts) split on whether the calibrated
/// service estimate alone fit the relative deadline — queueing delay if it
/// did, service time if not; admission rejections are `DeviceReject`.
///
/// Latency is arrival-to-completion of the *original* job, so a retry pays
/// for its first, doomed placement too.
fn attribute_detailed(
    r: &JobRecord,
    b: &Booking,
    device: u16,
    slice: &mut DeviceSlice,
    collect: bool,
) {
    let requeue = b.entry.saturating_since(b.original_arrival);
    let deadline = b.deadline_abs.saturating_since(b.original_arrival);
    if let Some(lat) = r.latency() {
        slice.latency_us.push(lat.saturating_add(requeue).as_us_f64());
    }
    let slow = if b.service_est <= deadline {
        MissCause::QueueingDelay
    } else {
        MissCause::ServiceTime
    };
    let (at, completion, cause) = match r.fate {
        JobFate::Completed(t) => (t, Some(t), (!r.met_deadline()).then_some(slow)),
        JobFate::Rejected(t) => (t, None, Some(MissCause::DeviceReject)),
        JobFate::Aborted(t) => (t, None, Some(slow)),
        JobFate::Unfinished => (r.deadline_abs, None, Some(slow)),
    };
    if let Some(cause) = cause {
        slice.misses.add(cause);
    }
    if !collect {
        return;
    }
    if let Some(t) = completion {
        slice.outcomes.push(OutcomeEvent {
            at: t,
            job: b.id,
            kind: 0,
            event: ProbeEvent::JobCompleted {
                job: JobId(b.id),
                device,
                latency_us: t.saturating_since(r.arrival).saturating_add(requeue).as_us_f64(),
                met: r.met_deadline(),
            },
        });
    }
    if let Some(cause) = cause {
        slice.outcomes.push(OutcomeEvent {
            at,
            job: b.id,
            kind: 1,
            event: ProbeEvent::JobMissed { job: JobId(b.id), device: Some(device), cause },
        });
    }
}

/// What one detailed-tier device contributes to the merged report.
#[derive(Debug, Clone, Default)]
struct DeviceSlice {
    latency_us: StreamingQuantiles,
    completed: u64,
    met: u64,
    device_rejected: u64,
    makespan: Duration,
    events: u64,
    misses: MissBreakdown,
    /// Buffered completion/miss events; empty unless the run collected
    /// them (an observer was attached).
    outcomes: Vec<OutcomeEvent>,
}

/// Merged outcome of one cluster cell. Compares bit-exactly (`PartialEq`),
/// which the worker-count determinism tests and checkpoint round trip rely
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The cell that produced this report.
    pub scenario: ClusterScenario,
    /// Fidelity tier the devices ran at.
    pub fidelity: Fidelity,
    /// Jobs in the arrival stream.
    pub total: u64,
    /// Jobs the router rejected at the front door (LL admission).
    pub rejected: u64,
    /// Jobs a device's own admission control rejected (detailed tier).
    pub device_rejected: u64,
    /// Jobs that completed on some device.
    pub completed: u64,
    /// Completed jobs that made their deadline.
    pub met: u64,
    /// Jobs lost to device crashes (in flight when the device went down
    /// and not recovered within the retry budget). Zero without faults.
    pub lost: u64,
    /// Successful re-placements of crash-lost (or outage-stalled) jobs.
    pub retried: u64,
    /// Jobs shed at the front door under degraded capacity
    /// ([`ClusterBuilder::shed_degraded`]). Zero without faults.
    pub shed: u64,
    /// Per-cause breakdown of every job that did not make its deadline.
    /// Conserves exactly against the counters above — see
    /// [`MissBreakdown`] for the identities, the headline one being
    /// `misses.total() == total - met`. Computed on every run, observed or
    /// not.
    pub misses: MissBreakdown,
    /// Arrival-to-completion latency sketch over completed jobs,
    /// microseconds (p50/p99/p999 within 0.5% relative error).
    pub latency_us: StreamingQuantiles,
    /// Jobs routed to each device, in device-index order.
    pub per_device_jobs: Vec<u64>,
    /// Latest device makespan.
    pub makespan: Duration,
    /// Model events processed, summed over devices.
    pub events: u64,
}

impl ClusterReport {
    /// Deadline attainment: the fraction of *all* offered jobs that
    /// completed by their deadline. Rejected jobs — at the front door or a
    /// device — count as misses, so admission cannot inflate the score.
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.met as f64 / self.total as f64
    }
}

/// Renders the per-policy SLO-attainment table the `cluster` binary writes:
/// one row per report, with streaming p50/p99/p999 latency tails and the
/// miss attribution split (`m_queue`/`m_serv`: late completions that died
/// waiting for a slot vs. ones whose service alone blew the deadline).
pub fn cluster_table(reports: &[ClusterReport]) -> Table {
    let mut table = Table::with_columns(&[
        "cell",
        "policy",
        "devices",
        "jobs",
        "routed",
        "rejected",
        "met",
        "m_queue",
        "m_serv",
        "attain",
        "p50_us",
        "p99_us",
        "p999_us",
        "mean_us",
        "makespan_ms",
    ]);
    for r in reports {
        let s = &r.scenario;
        table.row(vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            s.devices.to_string(),
            r.total.to_string(),
            (r.total - r.rejected).to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.met.to_string(),
            r.misses.count(MissCause::QueueingDelay).to_string(),
            r.misses.count(MissCause::ServiceTime).to_string(),
            format!("{:.4}", r.attainment()),
            format!("{:.1}", r.latency_us.p50()),
            format!("{:.1}", r.latency_us.p99()),
            format!("{:.1}", r.latency_us.p999()),
            format!("{:.1}", r.latency_us.mean()),
            format!("{:.2}", r.makespan.as_us_f64() / 1000.0),
        ]);
    }
    table
}

/// Renders the robustness table the `chaos` binary writes: one row per
/// report with the failure-domain counters (shed/lost/retried) alongside
/// the attainment and latency tails, plus the typed miss attribution
/// (`m_queue`/`m_serv` split late completions, `m_crash`/`m_retry` split
/// final losses). [`cluster_table`] stays unchanged so fault-free results
/// files are byte-stable.
pub fn chaos_table(reports: &[ClusterReport]) -> Table {
    let mut table = Table::with_columns(&[
        "cell",
        "policy",
        "f",
        "devices",
        "jobs",
        "rejected",
        "shed",
        "lost",
        "retried",
        "done",
        "met",
        "m_queue",
        "m_serv",
        "m_crash",
        "m_retry",
        "attain",
        "p50_us",
        "p99_us",
        "p999_us",
        "mean_us",
        "makespan_ms",
    ]);
    for r in reports {
        let s = &r.scenario;
        table.row(vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            format!("{}", s.fault_intensity()),
            s.devices.to_string(),
            r.total.to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.shed.to_string(),
            r.lost.to_string(),
            r.retried.to_string(),
            r.completed.to_string(),
            r.met.to_string(),
            r.misses.count(MissCause::QueueingDelay).to_string(),
            r.misses.count(MissCause::ServiceTime).to_string(),
            r.misses.count(MissCause::CrashLoss).to_string(),
            r.misses.count(MissCause::RetryExhausted).to_string(),
            format!("{:.4}", r.attainment()),
            format!("{:.1}", r.latency_us.p50()),
            format!("{:.1}", r.latency_us.p99()),
            format!("{:.1}", r.latency_us.p999()),
            format!("{:.1}", r.latency_us.mean()),
            format!("{:.2}", r.makespan.as_us_f64() / 1000.0),
        ]);
    }
    table
}

// v2 added `lost retried shed` to the summary line; v3 added the `misses`
// line. Older files are treated as foreign (resume restarts from scratch,
// which is always safe).
const CLUSTER_CKPT_HEADER: &str = "lax-bench-cluster-checkpoint v3";

/// Crash-safe store of finished cluster cells, keyed by the scenario's
/// string form — the fleet counterpart of [`crate::Checkpoint`]. Reports
/// persist as their summary scalars plus the latency sketch's raw buckets,
/// so a resumed grid reproduces its output byte-identically without
/// storing a million per-job records.
///
/// Every [`ClusterCheckpoint::record`] rewrites the file via
/// write-to-temporary + atomic rename, so a crash mid-write leaves the
/// previous consistent snapshot.
#[derive(Debug)]
pub struct ClusterCheckpoint {
    path: PathBuf,
    cells: BTreeMap<String, ClusterReport>,
}

impl ClusterCheckpoint {
    /// Opens (or starts) a checkpoint at `path`. A missing, foreign or
    /// corrupt file yields an empty checkpoint — resuming is best-effort,
    /// never an error.
    pub fn open(path: impl Into<PathBuf>) -> ClusterCheckpoint {
        let path = path.into();
        let cells = fs::read_to_string(&path)
            .ok()
            .and_then(|text| parse_checkpoint(&text))
            .unwrap_or_default();
        ClusterCheckpoint { path, cells }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stored report for a scenario key, if present.
    pub fn get(&self, key: &str) -> Option<&ClusterReport> {
        self.cells.get(key)
    }

    /// Whether `key` is already stored.
    pub fn contains(&self, key: &str) -> bool {
        self.cells.contains_key(key)
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Stores one finished cell and flushes the file atomically.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] if the file cannot be written.
    pub fn record(&mut self, key: &str, report: &ClusterReport) -> Result<(), BenchError> {
        self.cells.insert(key.to_string(), report.clone());
        self.flush()
    }

    /// Removes the backing file (kept-state is gone; the in-memory cells
    /// survive). Used after a grid completes successfully.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] on filesystem failure other than the file already
    /// being gone.
    pub fn discard_file(&self) -> Result<(), BenchError> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(BenchError::Io(e.to_string())),
        }
    }

    fn flush(&self) -> Result<(), BenchError> {
        let io = |e: std::io::Error| BenchError::Io(e.to_string());
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let mut text = String::new();
        text.push_str(CLUSTER_CKPT_HEADER);
        text.push('\n');
        for (key, report) in &self.cells {
            write_cell(&mut text, key, report);
        }
        let tmp = self.path.with_extension("tmp");
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(text.as_bytes()).map_err(io)?;
        f.sync_all().map_err(io)?;
        fs::rename(&tmp, &self.path).map_err(io)
    }
}

fn f64_hex(x: f64) -> String {
    format!("{:x}", x.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Appends formatted text to a `String`. `fmt::Write` on `String` cannot
/// fail, so this absorbs the `fmt::Result` that would otherwise demand an
/// `.unwrap()` per line of checkpoint output.
fn push_fmt(text: &mut String, args: fmt::Arguments<'_>) {
    use fmt::Write as _;
    let _ = text.write_fmt(args);
}

fn write_cell(text: &mut String, key: &str, r: &ClusterReport) {
    let (counts, zeros, sum, min, max) = r.latency_us.raw_parts();
    push_fmt(text, format_args!("cell {key}\n"));
    push_fmt(text, format_args!("fidelity {}\n", r.fidelity));
    push_fmt(
        text,
        format_args!(
            "summary {} {} {} {} {} {} {} {} {} {}\n",
            r.total,
            r.rejected,
            r.device_rejected,
            r.completed,
            r.met,
            r.lost,
            r.retried,
            r.shed,
            r.makespan.as_cycles(),
            r.events
        ),
    );
    text.push_str("misses");
    for cause in MissCause::ALL {
        push_fmt(text, format_args!(" {}", r.misses.count(cause)));
    }
    text.push('\n');
    text.push_str("devices");
    for c in &r.per_device_jobs {
        push_fmt(text, format_args!(" {c}"));
    }
    text.push('\n');
    push_fmt(
        text,
        format_args!("sketch {} {} {} {}\n", zeros, f64_hex(sum), f64_hex(min), f64_hex(max)),
    );
    text.push_str("buckets");
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            push_fmt(text, format_args!(" {i}:{c}"));
        }
    }
    text.push('\n');
    text.push_str("end\n");
}

fn parse_checkpoint(text: &str) -> Option<BTreeMap<String, ClusterReport>> {
    let mut lines = text.lines();
    if lines.next()? != CLUSTER_CKPT_HEADER {
        return None;
    }
    let mut cells = BTreeMap::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let key = line.strip_prefix("cell ")?;
        let scenario: ClusterScenario = key.parse().ok()?;
        let fidelity: Fidelity = lines.next()?.strip_prefix("fidelity ")?.parse().ok()?;
        let mut summary = lines.next()?.strip_prefix("summary ")?.split(' ');
        let total: u64 = summary.next()?.parse().ok()?;
        let rejected: u64 = summary.next()?.parse().ok()?;
        let device_rejected: u64 = summary.next()?.parse().ok()?;
        let completed: u64 = summary.next()?.parse().ok()?;
        let met: u64 = summary.next()?.parse().ok()?;
        let lost: u64 = summary.next()?.parse().ok()?;
        let retried: u64 = summary.next()?.parse().ok()?;
        let shed: u64 = summary.next()?.parse().ok()?;
        let makespan = Duration::from_cycles(summary.next()?.parse().ok()?);
        let events: u64 = summary.next()?.parse().ok()?;
        let mut misses_parts = lines.next()?.strip_prefix("misses ")?.split(' ');
        let mut misses = MissBreakdown::default();
        for cause in MissCause::ALL {
            misses.add_n(cause, misses_parts.next()?.parse().ok()?);
        }
        let devices_line = lines.next()?.strip_prefix("devices")?;
        let per_device_jobs: Vec<u64> = devices_line
            .split_whitespace()
            .map(|c| c.parse().ok())
            .collect::<Option<_>>()?;
        let mut sk = lines.next()?.strip_prefix("sketch ")?.split(' ');
        let zeros: u64 = sk.next()?.parse().ok()?;
        let sum = f64_from_hex(sk.next()?)?;
        let min = f64_from_hex(sk.next()?)?;
        let max = f64_from_hex(sk.next()?)?;
        let buckets_line = lines.next()?.strip_prefix("buckets")?;
        let mut counts = Vec::new();
        for pair in buckets_line.split_whitespace() {
            let (i, c) = pair.split_once(':')?;
            let i: usize = i.parse().ok()?;
            let c: u64 = c.parse().ok()?;
            if i >= counts.len() {
                counts.resize(i + 1, 0);
            }
            counts[i] = c;
        }
        if lines.next()? != "end" {
            return None;
        }
        let latency_us = StreamingQuantiles::from_raw_parts(counts, zeros, sum, min, max);
        cells.insert(
            key.to_string(),
            ClusterReport {
                scenario,
                fidelity,
                total,
                rejected,
                device_rejected,
                completed,
                met,
                lost,
                retried,
                shed,
                misses,
                latency_us,
                per_device_jobs,
                makespan,
                events,
            },
        );
    }
    Some(cells)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    fn scen(policy: &str) -> ClusterScenario {
        ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 400, 7)
    }

    #[test]
    fn cluster_scenario_round_trips_through_strings() {
        for s in [
            ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 16, 1_000_000, 20210301),
            ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 1, 1, 0),
            ClusterScenario::new("P2C", Benchmark::Stem, ArrivalRate::Medium, 64, 12, u64::MAX),
        ] {
            let text = s.to_string();
            assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
        }
    }

    #[test]
    fn cluster_scenario_parse_rejects_malformed_input() {
        for (bad, why) in [
            ("", "1 fields"),
            ("LL", "1 fields"),
            ("LL:HYBRID:high:d16:j128", "5 fields"),
            ("LL:HYBRID:high:d16:j128:s42:f1:x", "8 fields"),
            ("LL:HYBRID:high:d16:j128:s42:x", "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f0", "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f-1", "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:fx", "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:fnan", "bad fault intensity"),
            ("LL:WARP9:high:d16:j128:s42", "WARP9"),
            ("LL:HYBRID:sometimes:d16:j128:s42", "sometimes"),
            ("LL:HYBRID:high:16:j128:s42", "bad device count"),
            ("LL:HYBRID:high:d0:j128:s42", "bad device count"),
            ("LL:HYBRID:high:dx:j128:s42", "bad device count"),
            ("LL:HYBRID:high:d16:128:s42", "bad job count"),
            ("LL:HYBRID:high:d16:j128:42", "bad seed"),
            (":HYBRID:high:d16:j128:s42", "empty policy"),
        ] {
            let err = bad.parse::<ClusterScenario>();
            assert!(err.is_err(), "`{bad}` should not parse");
            let msg = err.unwrap_err().to_string();
            assert!(msg.contains("invalid cluster scenario"), "{msg}");
            assert!(msg.contains(why), "`{bad}` should diagnose `{why}`, got: {msg}");
            assert!(msg.contains(bad), "the error must echo the input: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "contains ':'")]
    fn cluster_scenario_rejects_colon_in_policy() {
        let _ = ClusterScenario::new("LL:EVIL", Benchmark::Ipv6, ArrivalRate::High, 1, 1, 1);
    }

    #[test]
    fn cell_seeds_pair_policies_but_differ_across_workloads() {
        let a = scen("RR");
        let b = scen("LL");
        assert_eq!(
            a.cell_seed(),
            b.cell_seed(),
            "policies compared on one cell must route identical streams"
        );
        assert_ne!(a.cell_seed(), ClusterScenario { devices: 8, ..a.clone() }.cell_seed());
        assert_ne!(a.cell_seed(), ClusterScenario { n_jobs: 401, ..a.clone() }.cell_seed());
        assert_ne!(a.cell_seed(), ClusterScenario { seed: 8, ..a.clone() }.cell_seed());
        assert_ne!(
            a.cell_seed(),
            ClusterScenario { bench: Benchmark::Gmm, ..a.clone() }.cell_seed()
        );
        assert_ne!(a.device_seed(0), a.device_seed(1));
        assert_eq!(a.device_seed(3), b.device_seed(3), "device seeds are policy-blind");
    }

    #[test]
    fn fast_cluster_is_bit_identical_across_worker_counts() {
        for policy in routing::names() {
            let s = scen(policy);
            let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
            let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
            assert_eq!(one, eight, "{policy}: reports must not depend on worker count");
        }
    }

    #[test]
    fn fast_tier_accounting_identity_holds() {
        let r = ClusterBuilder::new(scen("LL")).run().unwrap();
        assert_eq!(r.completed + r.rejected, r.total);
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert_eq!(r.per_device_jobs.iter().sum::<u64>() + r.rejected, r.total);
        assert_eq!(r.per_device_jobs.len(), r.scenario.devices);
        assert!(r.met <= r.completed);
        assert!((0.0..=1.0).contains(&r.attainment()));
        assert!(r.events > 0);
    }

    /// An overloaded fleet (one slot per device at the high HYBRID rate):
    /// deadline-aware routing must beat deadline-blind round-robin, and its
    /// admission test must actually fire. This is the paper's claim at
    /// cluster scope.
    #[test]
    fn least_laxity_beats_round_robin_when_overloaded() {
        let run = |policy: &str| {
            let s = ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
            ClusterBuilder::new(s).slots(1).run().unwrap()
        };
        let rr = run("RR");
        let ll = run("LL");
        assert!(ll.rejected > 0, "LL's front-door admission must fire under overload");
        assert!(
            ll.met > rr.met,
            "LL ({} met) must beat RR ({} met) under overload",
            ll.met,
            rr.met
        );
    }

    struct DecisionCounter {
        routed: u64,
        rejected: u64,
    }

    impl Observer<ProbeEvent> for DecisionCounter {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::JobRouted { .. } => self.routed += 1,
                ProbeEvent::JobRejected { .. } => self.rejected += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn router_probes_cover_every_job_and_do_not_perturb() {
        let s = scen("LL");
        let plain = ClusterBuilder::new(s.clone()).run().unwrap();
        let counter = Arc::new(Mutex::new(DecisionCounter { routed: 0, rejected: 0 }));
        let observed = ClusterBuilder::new(s).observe(counter.clone()).run().unwrap();
        assert_eq!(plain, observed, "observers must not perturb the cluster report");
        let c = counter.lock().unwrap();
        assert_eq!(c.routed + c.rejected, observed.total);
        assert_eq!(c.rejected, observed.rejected);
    }

    #[test]
    fn detailed_tier_runs_full_simulations_per_device() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 12, 3);
        let r = ClusterBuilder::new(s).fidelity(Fidelity::Detailed).run().unwrap();
        assert_eq!(r.fidelity, Fidelity::Detailed);
        assert_eq!(r.completed + r.rejected + r.device_rejected, r.total);
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.met > 0, "a low-rate IPV6 cell must meet deadlines");
        assert!(
            r.events > 2 * r.total,
            "detailed devices process real event streams, got {}",
            r.events
        );
    }

    #[test]
    fn unknown_policy_and_scheduler_are_typed_errors() {
        let err = ClusterBuilder::new(scen("WARP")).run().unwrap_err();
        match &err {
            BenchError::UnknownPolicy(e) => assert_eq!(e.name(), "WARP"),
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
        assert!(err.to_string().contains("WARP"));
        let s = ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 2, 4, 3);
        let err = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .device_scheduler("NOPE")
            .run()
            .unwrap_err();
        assert!(matches!(err, BenchError::UnknownScheduler(_)), "{err:?}");
    }

    #[test]
    fn cluster_table_reports_policies_and_tail_tiers() {
        let reports: Vec<ClusterReport> =
            ["RR", "LL"].iter().map(|p| ClusterBuilder::new(scen(p)).run().unwrap()).collect();
        let text = cluster_table(&reports).render();
        for needle in ["policy", "attain", "p99_us", "p999_us", "RR", "LL", "HYBRID:high"] {
            assert!(text.contains(needle), "table must mention {needle}:\n{text}");
        }
    }

    #[test]
    fn checkpoint_round_trips_reports_exactly() {
        let dir = std::env::temp_dir().join(format!("lax-cluster-ckpt-{}", std::process::id()));
        let path = dir.join("cluster.ckpt");
        let _ = fs::remove_file(&path);
        let mut ckpt = ClusterCheckpoint::open(&path);
        assert!(ckpt.is_empty());
        let reports: Vec<ClusterReport> =
            ["RR", "LL"].iter().map(|p| ClusterBuilder::new(scen(p)).run().unwrap()).collect();
        for r in &reports {
            ckpt.record(&r.scenario.to_string(), r).unwrap();
        }
        let reopened = ClusterCheckpoint::open(&path);
        assert_eq!(reopened.len(), 2);
        for r in &reports {
            let key = r.scenario.to_string();
            assert!(reopened.contains(&key));
            assert_eq!(reopened.get(&key).unwrap(), r, "{key} must round-trip bit-exactly");
        }
        ckpt.discard_file().unwrap();
        assert!(ClusterCheckpoint::open(&path).is_empty());
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn fault_scenarios_round_trip_through_strings() {
        for (milli, text) in [
            (1000, "LL:HYBRID:high:d4:j400:s7:f1"),
            (1500, "LL:HYBRID:high:d4:j400:s7:f1.5"),
            (1, "LL:HYBRID:high:d4:j400:s7:f0.001"),
            (2000, "LL:HYBRID:high:d4:j400:s7:f2"),
        ] {
            let s = scen("LL").with_fault_milli(milli);
            assert_eq!(s.to_string(), text);
            assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
        }
        // Intensity is part of the cell identity for the *fault* seed but
        // not the workload seed: arrival streams stay paired across
        // intensities so robustness comparisons isolate the faults.
        let base = scen("LL");
        let faulty = scen("LL").with_fault_milli(1000);
        assert_eq!(base.cell_seed(), faulty.cell_seed());
        assert_ne!(faulty.fault_seed(), scen("LL").with_fault_milli(2000).fault_seed());
        assert_eq!(faulty.fault_seed(), scen("RR").with_fault_milli(1000).fault_seed());
    }

    /// A plan whose only entry is a factor-1.0 straggler forces the chaos
    /// engine (the plan is non-empty) while perturbing nothing — the
    /// strictest check that the engine's arithmetic mirrors the fault-free
    /// path bit for bit.
    #[test]
    fn noop_fault_plan_is_bit_identical_to_fault_free_run() {
        let noop = FleetFaultPlan {
            stragglers: vec![StragglerWindow {
                device: 0,
                at: Cycle::ZERO,
                until: Cycle::MAX,
                factor: 1.0,
            }],
            ..FleetFaultPlan::none()
        };
        for policy in routing::names() {
            let s = scen(policy);
            let plain = ClusterBuilder::new(s.clone()).run().unwrap();
            let chaos = ClusterBuilder::new(s).fleet_faults(noop.clone()).run().unwrap();
            assert_eq!(plain, chaos, "{policy}: a no-op plan must not change the report");
        }
    }

    /// An explicit zero fault intensity derives the empty plan, so the
    /// report equals that of a scenario that never mentions faults.
    #[test]
    fn intensity_zero_matches_a_scenario_without_faults() {
        let s = scen("LL").with_fault_milli(0);
        assert_eq!(
            ClusterBuilder::new(s).run().unwrap(),
            ClusterBuilder::new(scen("LL")).run().unwrap()
        );
    }

    /// Records which device each arrival was routed to, in arrival order.
    #[derive(Default)]
    struct RouteLog(Vec<(u32, usize)>);

    impl Observer<ProbeEvent> for RouteLog {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            if let ProbeEvent::JobRouted { job, device, .. } = event {
                self.0.push((job.0, usize::from(*device)));
            }
        }
    }

    /// The engine's inline fast tier against the reference device model:
    /// replay each device's routed stream through [`run_fast_device`] with
    /// the same slots, jitter and device seed, and merge the per-device
    /// results in device order as the report does. Two slots per device at
    /// the high rate keep queues long and LL's admission test firing.
    #[test]
    fn fast_tier_matches_run_fast_device_for_every_policy() {
        for policy in routing::names() {
            let s = ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
            let builder = ClusterBuilder::new(s.clone()).slots(2);
            let log = Arc::new(Mutex::new(RouteLog::default()));
            let report = builder.clone().observe(log.clone()).run().unwrap();
            let jobs = generate_cluster_jobs(&s, BenchmarkSuite::calibrated());
            let deadline = s.bench.deadline();
            let mut streams: Vec<Vec<FleetJob>> = vec![Vec::new(); s.devices];
            for &(id, device) in &log.lock().unwrap().0 {
                let j = &jobs[id as usize];
                streams[device].push(FleetJob {
                    id,
                    arrival: j.arrival,
                    service_est: j.service_est,
                    deadline,
                });
            }
            let mut latency_us = StreamingQuantiles::new();
            let (mut completed, mut met, mut events) = (0u64, 0u64, 0u64);
            let mut makespan = Duration::ZERO;
            for (d, stream) in streams.iter().enumerate() {
                let params =
                    FastDeviceParams { slots: 2, jitter: builder.jitter, seed: s.device_seed(d) };
                let r = run_fast_device(stream, &params);
                let mut sketch = StreamingQuantiles::new();
                for o in &r.outcomes {
                    sketch.push(o.latency.as_us_f64());
                    met += u64::from(o.met);
                }
                latency_us.merge(&sketch);
                completed += r.outcomes.len() as u64;
                makespan = makespan.max(r.makespan.saturating_since(Cycle::ZERO));
                events += r.events;
            }
            if policy == "LL" {
                assert!(report.rejected > 0, "LL's admission test must fire");
            }
            assert_eq!(completed + report.rejected, report.total, "{policy}");
            assert_eq!(report.completed, completed, "{policy}: completed");
            assert_eq!(report.met, met, "{policy}: met");
            assert_eq!(report.makespan, makespan, "{policy}: makespan");
            assert_eq!(report.events, events, "{policy}: events");
            assert_eq!(report.latency_us, latency_us, "{policy}: latency sketch");
            let routed: Vec<u64> = streams.iter().map(|st| st.len() as u64).collect();
            assert_eq!(report.per_device_jobs, routed, "{policy}: per-device jobs");
        }
    }

    #[test]
    fn zero_slots_is_a_typed_error() {
        let err = ClusterBuilder::new(scen("LL")).slots(0).run().unwrap_err();
        assert_eq!(err, BenchError::FleetConfig(FastDeviceError::NoSlots));
        assert!(err.to_string().contains("at least one service slot"), "{err}");
    }

    #[test]
    fn out_of_range_jitter_is_a_typed_error() {
        let s = scen("RR").with_fault_milli(1000);
        let err = ClusterBuilder::new(s).jitter(1.5).run().unwrap_err();
        assert_eq!(err, BenchError::FleetConfig(FastDeviceError::Jitter(1.5)));
        assert!(err.to_string().contains("jitter must be in [0, 1), got 1.5"), "{err}");
    }

    /// A crash window over the middle of the stream on half the fleet.
    /// Spans derive from the actual arrival stream so losses are
    /// guaranteed, not luck.
    fn mid_stream_crash(s: &ClusterScenario) -> FleetFaultPlan {
        let jobs = generate_cluster_jobs(s, BenchmarkSuite::calibrated());
        let span = jobs.last().unwrap().arrival;
        let at = Cycle::from_cycles(span.as_cycles() / 4);
        let until = Cycle::from_cycles(span.as_cycles() / 2);
        FleetFaultPlan {
            crashes: vec![
                DeviceCrash { device: 0, at, until },
                DeviceCrash { device: 1, at, until },
            ],
            ..FleetFaultPlan::none()
        }
    }

    #[test]
    fn crashes_conserve_jobs_and_retries_recover_work() {
        let s = scen("RR");
        let plan = mid_stream_crash(&s);
        let r = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
        assert_eq!(
            r.completed + r.rejected + r.shed + r.lost,
            r.total,
            "every job must be completed, rejected, shed or lost"
        );
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.retried > 0, "crash-lost jobs must re-enter the front door");
        assert!(r.met < r.total, "losing half the fleet mid-stream must cost deadlines");

        // Retry disabled: the same crashes turn recoveries into losses.
        let no_retry =
            ClusterBuilder::new(s).fleet_faults(plan).retry_budget(0).run().unwrap();
        assert_eq!(no_retry.retried, 0);
        assert!(no_retry.lost > 0, "with no retry budget, crash-lost jobs stay lost");
        assert_eq!(
            no_retry.completed + no_retry.rejected + no_retry.shed + no_retry.lost,
            no_retry.total
        );
        assert!(no_retry.completed < r.completed, "retries must recover real work");
    }

    #[test]
    fn chaos_runs_are_bit_identical_across_worker_counts() {
        for policy in routing::names() {
            let s = scen(policy).with_fault_milli(1500);
            let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
            let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
            assert_eq!(one, eight, "{policy}: chaos reports must not depend on worker count");
        }
    }

    #[derive(Default)]
    struct ChaosCounter {
        down: u64,
        crashed: u64,
        restored: u64,
        retried: u64,
        shed: u64,
        rejected: u64,
    }

    impl Observer<ProbeEvent> for ChaosCounter {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::DeviceDown { crashed, .. } => {
                    self.down += 1;
                    self.crashed += u64::from(*crashed);
                }
                ProbeEvent::DeviceRestored { .. } => self.restored += 1,
                ProbeEvent::JobRetried { .. } => self.retried += 1,
                ProbeEvent::JobShed { .. } => self.shed += 1,
                ProbeEvent::JobRejected { .. } => self.rejected += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn chaos_probes_cover_failure_events_and_do_not_perturb() {
        let s = scen("LL");
        let plan = mid_stream_crash(&s);
        let plain = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
        let counter = Arc::new(Mutex::new(ChaosCounter::default()));
        let observed = ClusterBuilder::new(s)
            .fleet_faults(plan)
            .observe(counter.clone())
            .run()
            .unwrap();
        assert_eq!(plain, observed, "observers must not perturb the chaos report");
        let c = counter.lock().unwrap();
        assert_eq!(c.down, 2, "both crash windows must be announced");
        assert_eq!(c.crashed, 2);
        assert_eq!(c.restored, 2, "both devices must return to rotation");
        assert_eq!(c.retried, observed.retried);
        assert_eq!(c.shed, observed.shed);
        assert_eq!(c.rejected, observed.rejected);
    }

    /// RR never rejects, so under a 3-of-4-devices-down window with one
    /// slot each, shedding is the only pressure valve — and it must fire
    /// only when enabled.
    #[test]
    fn shedding_under_degraded_capacity_is_opt_in() {
        let s = ClusterScenario::new("RR", Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
        let jobs = generate_cluster_jobs(&s, BenchmarkSuite::calibrated());
        let span = jobs.last().unwrap().arrival;
        let at = Cycle::from_cycles(span.as_cycles() / 8);
        let until = Cycle::from_cycles(span.as_cycles() * 7 / 8);
        let plan = FleetFaultPlan {
            outages: vec![CorrelatedOutage { first: 1, count: 3, at, until }],
            ..FleetFaultPlan::none()
        };
        let build = |shed| {
            ClusterBuilder::new(s.clone())
                .slots(1)
                .fleet_faults(plan.clone())
                .shed_degraded(shed)
                .run()
                .unwrap()
        };
        let keep = build(false);
        assert_eq!(keep.shed, 0);
        let shedding = build(true);
        assert!(shedding.shed > 0, "an overloaded survivor must shed hopeless jobs");
        assert_eq!(
            shedding.completed + shedding.rejected + shedding.shed + shedding.lost,
            shedding.total
        );
    }

    #[test]
    fn detailed_chaos_conserves_jobs_across_both_phases() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = generate_cluster_jobs(&s, BenchmarkSuite::calibrated());
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let r = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .fleet_faults(plan)
            .run()
            .unwrap();
        assert_eq!(r.fidelity, Fidelity::Detailed);
        assert_eq!(
            r.completed + r.rejected + r.device_rejected + r.shed + r.lost,
            r.total,
            "phase-2 simulations must account for every surviving booking"
        );
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.completed > 0);
    }

    #[test]
    fn chaos_checkpoint_round_trips_failure_counters() {
        let dir = std::env::temp_dir().join(format!("lax-chaos-ckpt-{}", std::process::id()));
        let path = dir.join("chaos.ckpt");
        let _ = fs::remove_file(&path);
        let s = scen("RR").with_fault_milli(1500);
        let r = ClusterBuilder::new(s).run().unwrap();
        let mut ckpt = ClusterCheckpoint::open(&path);
        ckpt.record(&r.scenario.to_string(), &r).unwrap();
        let reopened = ClusterCheckpoint::open(&path);
        assert_eq!(
            reopened.get(&r.scenario.to_string()).unwrap(),
            &r,
            "lost/retried/shed must survive the checkpoint round trip"
        );
        ckpt.discard_file().unwrap();
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn chaos_table_reports_failure_columns() {
        let s = scen("RR");
        let plan = mid_stream_crash(&s);
        let r = ClusterBuilder::new(s.clone()).fleet_faults(plan).run().unwrap();
        let text = chaos_table(&[r]).render();
        for needle in ["shed", "lost", "retried", "attain", "RR", "HYBRID:high"] {
            assert!(text.contains(needle), "table must mention {needle}:\n{text}");
        }
        // The intensity column reflects the scenario, not the override.
        let seeded = ClusterBuilder::new(s.with_fault_milli(1500)).run().unwrap();
        assert!(chaos_table(&[seeded]).render().contains("1.5"));
    }

    #[test]
    fn foreign_checkpoint_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!("lax-cluster-foreign-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        fs::write(&path, "not a checkpoint\ncell garbage\n").unwrap();
        assert!(ClusterCheckpoint::open(&path).is_empty());
        // Pre-miss-attribution files (v2 header) are foreign too: the
        // parser must not guess at a missing `misses` line.
        fs::write(&path, "lax-bench-cluster-checkpoint v2\ncell LL:HYBRID:high:d4:j400:s7\n")
            .unwrap();
        assert!(ClusterCheckpoint::open(&path).is_empty(), "v2 files must restart from scratch");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    /// Checks every conservation identity [`MissBreakdown`] documents
    /// against the report's own counters.
    fn assert_attribution_conserves(r: &ClusterReport) {
        let m = &r.misses;
        assert_eq!(m.count(MissCause::FrontDoorReject), r.rejected, "front-door identity");
        assert_eq!(m.count(MissCause::DeviceReject), r.device_rejected, "device-reject identity");
        assert_eq!(
            m.count(MissCause::QueueingDelay) + m.count(MissCause::ServiceTime),
            r.completed - r.met,
            "every late completion splits into queueing vs service"
        );
        assert_eq!(
            m.count(MissCause::CrashLoss) + m.count(MissCause::RetryExhausted),
            r.lost,
            "every final loss is a crash loss or a retry exhaustion"
        );
        assert_eq!(m.count(MissCause::Shed), r.shed, "shed identity");
        assert_eq!(m.total(), r.total - r.met, "exactly one cause per non-met job");
    }

    #[test]
    fn miss_attribution_conserves_exactly_in_fast_tier() {
        for policy in routing::names() {
            let plain = ClusterBuilder::new(scen(policy)).run().unwrap();
            assert_attribution_conserves(&plain);
            let chaos = ClusterBuilder::new(scen(policy).with_fault_milli(1500))
                .retry_budget(1)
                .shed_degraded(true)
                .run()
                .unwrap();
            assert_attribution_conserves(&chaos);
            assert!(
                chaos.misses.total() > 0,
                "{policy}: heavy faults at the high rate must cost deadlines"
            );
        }
    }

    #[test]
    fn miss_attribution_conserves_exactly_in_detailed_tier() {
        let plain = ClusterBuilder::new(ClusterScenario::new(
            "LL",
            Benchmark::Ipv6,
            ArrivalRate::High,
            2,
            24,
            3,
        ))
        .fidelity(Fidelity::Detailed)
        .run()
        .unwrap();
        assert_attribution_conserves(&plain);
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = generate_cluster_jobs(&s, BenchmarkSuite::calibrated());
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let chaos = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .fleet_faults(plan)
            .run()
            .unwrap();
        assert_attribution_conserves(&chaos);
    }

    /// Counts outcome events and checks the post-merge stream's ordering
    /// contract (completion timestamps non-decreasing).
    #[derive(Default)]
    struct OutcomeAudit {
        completed: u64,
        met: u64,
        misses: MissBreakdown,
        prev_completion: Option<Cycle>,
        unsorted: bool,
    }

    impl Observer<ProbeEvent> for OutcomeAudit {
        fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::JobCompleted { met, .. } => {
                    self.completed += 1;
                    self.met += u64::from(*met);
                    if self.prev_completion.is_some_and(|prev| at < prev) {
                        self.unsorted = true;
                    }
                    self.prev_completion = Some(at);
                }
                ProbeEvent::JobMissed { cause, .. } => self.misses.add(*cause),
                _ => {}
            }
        }
    }

    #[test]
    fn fleet_observers_never_perturb_and_outcome_events_reconcile() {
        for policy in routing::names() {
            for fault in [0, 1500] {
                let s = scen(policy).with_fault_milli(fault);
                let build = || {
                    ClusterBuilder::new(s.clone()).retry_budget(1).shed_degraded(true)
                };
                let bare = build().workers(1).run().unwrap();
                let sampler = Arc::new(Mutex::new(FleetSampler::new()));
                let tracer = Arc::new(Mutex::new(FleetTraceWriter::new()));
                let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
                let observed = build()
                    .workers(8)
                    .observe(sampler.clone())
                    .observe(tracer.clone())
                    .observe(audit.clone())
                    .run()
                    .unwrap();
                assert_eq!(
                    bare, observed,
                    "{policy}/f{fault}: observers and worker count must not change the report"
                );
                let a = audit.lock().unwrap();
                assert!(!a.unsorted, "{policy}/f{fault}: completions must arrive time-sorted");
                assert_eq!(a.completed, observed.completed);
                assert_eq!(a.met, observed.met);
                assert_eq!(
                    a.misses, observed.misses,
                    "{policy}/f{fault}: probe misses must mirror the report breakdown"
                );
                let sam = sampler.lock().unwrap();
                assert_eq!(sam.misses(), &observed.misses);
                assert!(sam.to_csv().lines().count() > 1);
                sim_core::json::validate(&sam.to_json()).unwrap();
                sim_core::json::validate(&tracer.lock().unwrap().finish()).unwrap();
            }
        }
    }

    #[test]
    fn detailed_chaos_outcome_events_match_both_phases() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = generate_cluster_jobs(&s, BenchmarkSuite::calibrated());
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let build = || {
            ClusterBuilder::new(s.clone()).fidelity(Fidelity::Detailed).fleet_faults(plan.clone())
        };
        let bare = build().run().unwrap();
        let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
        let observed = build().observe(audit.clone()).run().unwrap();
        assert_eq!(bare, observed, "detailed-tier observers must not perturb either phase");
        let a = audit.lock().unwrap();
        assert_eq!(a.completed, observed.completed, "one JobCompleted per phase-2 completion");
        assert_eq!(a.misses, observed.misses);
    }
}
