//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of `BENCHMARK.json`,
//! with `--trace 1` the per-layer ones; see `perfbench/README.md`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpu_sim::config::GpuConfig;
use gpu_sim::metrics::SimReport;
use gpu_sim::probe::MetricsSampler;
use lax_bench::cluster::ClusterReport;
use lax_bench::sweep::{run_cell, RunOptions};
use perfbench::cells::{self, Cell, DeviceRun, Interval, Probes, Workload};
use perfbench::layers::{ratio, LayerTally, ProbeCounts, CP_CALLBACKS};
use perfbench::replay::{self, MemShape};
use perfbench::trace::Trace;
use workloads::suite::BenchmarkSuite;

const USAGE: &str = "usage: perfbench --workload device-rnn|device-packet|device-observed|fleet \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up is timed this many times per run and reported as the median.
const SETUP_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cells::GRID_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let setup = measure_setup();
    // A traced run reports per replica, so one replica is enough.
    let replicas = if args.trace { 1 } else { args.workload.replicas(args.seconds) };
    let cells = args.workload.cells(args.seed, replicas);
    eprintln!(
        "[perfbench] {} seed {}: {replicas} replicas, {} cells, trace {}",
        args.workload.name(),
        args.seed,
        cells.len(),
        u8::from(args.trace)
    );
    let mut sweep = Sweep::new(&cells);
    let result = if args.trace {
        traced(&args, &mut sweep, &setup, replicas)
    } else {
        untraced(&args, &mut sweep, &setup, replicas)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(3);
        }
    };
    let failed = sweep.failed.iter().filter(|f| **f).count();
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        cells.len()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("[perfbench] metric {name} is not finite: {value}");
            return ExitCode::from(3);
        }
        let sep = if i == 0 { "" } else { ", " };
        line.push_str(&format!("{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Times the per-kernel calibration fit: the first sample is the process's
/// own `BenchmarkSuite::calibrated()`, which warms the shared suite before
/// any cell runs; the rest rebuild it with `BenchmarkSuite::build`.
fn measure_setup() -> Vec<f64> {
    let t0 = Instant::now();
    black_box(BenchmarkSuite::calibrated());
    let mut samples = vec![t0.elapsed().as_secs_f64()];
    for _ in 1..SETUP_SAMPLES {
        let t = Instant::now();
        black_box(BenchmarkSuite::build(GpuConfig::default()));
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean; 0 for no values.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How a cell is executed.
#[derive(Clone, Copy)]
enum How<'p> {
    /// Through `lax_bench::run_cell`, the harness's own entry point, with a
    /// `MetricsSampler` attached when `observed`.
    RunCell { observed: bool },
    /// Through the layer-by-layer replica of `run_cell`, instrumented.
    Replica(&'p Probes),
}

/// The result of one cell execution.
enum CellRun {
    /// A `run_cell` call.
    Whole(SimReport, Interval),
    /// A replica call, timed per layer.
    Layered(DeviceRun),
    /// A `ClusterBuilder::run` call.
    Fleet(ClusterReport, Interval),
}

impl CellRun {
    fn host(&self) -> Duration {
        match self {
            CellRun::Whole(_, t) | CellRun::Fleet(_, t) => t.dur,
            CellRun::Layered(r) => r.total(),
        }
    }

    fn device_report(&self) -> Option<&SimReport> {
        match self {
            CellRun::Whole(r, _) => Some(r),
            CellRun::Layered(r) => Some(&r.report),
            CellRun::Fleet(..) => None,
        }
    }

    /// Jobs met, jobs offered and the p99 simulated latency in ms.
    fn outcome(&self) -> (u64, u64, f64) {
        match self {
            CellRun::Fleet(r, _) => (r.met, r.total, r.latency_us.p99() / 1e3),
            _ => {
                let r = self.device_report().expect("a device cell yields a device report");
                (r.deadlines_met() as u64, r.records.len() as u64, r.p99_latency_ms())
            }
        }
    }
}

fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

fn execute(cell: &Cell, how: How) -> Result<CellRun, String> {
    let outcome = catch(|| match (cell, how) {
        (Cell::Device(s), How::RunCell { observed }) => {
            let mut opts = RunOptions::default();
            if observed {
                opts = opts.observe(Arc::new(Mutex::new(MetricsSampler::new())));
            }
            let t0 = Instant::now();
            run_cell(s, &opts).map(|r| CellRun::Whole(r, Interval::since(t0)))
        }
        (Cell::Device(s), How::Replica(probes)) => {
            cells::run_device(s, probes).map(CellRun::Layered)
        }
        (Cell::Fleet(s), _) => cells::run_fleet(s, None).map(|(r, t)| CellRun::Fleet(r, t)),
    });
    match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(format!("panicked: {p}")),
    }
}

/// Runs cells, checks every report and keeps the failure flags.
struct Sweep<'a> {
    cells: &'a [Cell],
    /// What later runs of a device cell must reproduce: its unobserved
    /// `run_cell` report.
    reference: Vec<Option<SimReport>>,
    /// What later runs of a fleet cell must reproduce: its first report.
    fleet_reference: Vec<Option<ClusterReport>>,
    committed: BTreeMap<String, u64>,
    failed: Vec<bool>,
}

impl<'a> Sweep<'a> {
    fn new(cells: &'a [Cell]) -> Self {
        Sweep {
            cells,
            reference: cells.iter().map(|_| None).collect(),
            fleet_reference: cells.iter().map(|_| None).collect(),
            committed: cells::committed_fleet_met(),
            failed: vec![false; cells.len()],
        }
    }

    /// Runs cell `i` and checks its report; `None` marks the cell failed.
    /// A device cell without a reference yet gets one first (untimed),
    /// unless this run is itself an unobserved `run_cell`.
    fn run(&mut self, i: usize, how: How) -> Option<CellRun> {
        let cell = &self.cells[i];
        let unobserved = matches!(how, How::RunCell { observed: false });
        if matches!(cell, Cell::Device(_)) && self.reference[i].is_none() && !unobserved {
            match execute(cell, How::RunCell { observed: false }) {
                Ok(run) => {
                    let report = run.device_report().expect("a device cell yields a device report");
                    self.reference[i] = Some(report.clone());
                }
                Err(e) => return self.fail(i, &format!("run_cell: {e}")),
            }
        }
        let run = match execute(cell, how) {
            Ok(run) => run,
            Err(e) => return self.fail(i, &e),
        };
        let check = match (cell, &run) {
            (_, CellRun::Fleet(r, _)) => match &self.fleet_reference[i] {
                Some(first) if first != r => {
                    Err("report differs from the cell's first run".to_string())
                }
                _ => cells::check_fleet(r, &self.committed),
            },
            (Cell::Device(s), _) => {
                let report = run.device_report().expect("a device cell yields a device report");
                match &self.reference[i] {
                    Some(r) if r != report => {
                        Err("report differs from the unobserved lax_bench::run_cell".to_string())
                    }
                    _ => cells::check_device(report, s),
                }
            }
            (Cell::Fleet(_), _) => unreachable!("fleet cells yield fleet runs"),
        };
        if let Err(e) = check {
            return self.fail(i, &e);
        }
        if let (None, Some(report)) = (&self.reference[i], run.device_report()) {
            self.reference[i] = Some(report.clone());
        }
        if let (None, CellRun::Fleet(report, _)) = (&self.fleet_reference[i], &run) {
            self.fleet_reference[i] = Some(report.clone());
        }
        Some(run)
    }

    fn fail<T>(&mut self, i: usize, why: &str) -> Option<T> {
        eprintln!("[perfbench] FAILED {}: {why}", self.cells[i].label());
        self.failed[i] = true;
        None
    }

    /// Runs every cell once the same way; returns the good runs in cell
    /// order.
    fn pass(&mut self, how: How) -> Vec<(usize, CellRun)> {
        (0..self.cells.len()).filter_map(|i| self.run(i, how).map(|r| (i, r))).collect()
    }
}

/// Total host time of a pass.
fn host_s(runs: &[(usize, CellRun)]) -> f64 {
    runs.iter().map(|(_, r)| r.host().as_secs_f64()).sum()
}

/// Refuses cells too short to time: they would measure noise.
fn check_floor(sweep: &Sweep, runs: &[(usize, CellRun)]) -> Result<(), String> {
    match runs.iter().find(|(_, r)| r.host() < cells::MIN_CELL_HOST) {
        Some((i, r)) => Err(format!(
            "cell {} ran {:.2} ms, below the {:?} floor: not a workload cell",
            sweep.cells[*i].label(),
            r.host().as_secs_f64() * 1e3,
            cells::MIN_CELL_HOST
        )),
        None => Ok(()),
    }
}

/// Runs the first cells untimed, in order, until `cells::WARM_UP` of host
/// time has passed, so the timed pass starts on a warm allocator and warm
/// caches. Each warm-up report becomes the one its timed run must equal.
fn warm_up(sweep: &mut Sweep, how: How) {
    let t0 = Instant::now();
    for i in 0..sweep.cells.len() {
        if t0.elapsed() >= cells::WARM_UP {
            break;
        }
        sweep.run(i, how);
    }
}

/// Runs replica `r` of the grid once; returns its good runs.
fn replica_pass(sweep: &mut Sweep, how: How, r: usize, grid: usize) -> Vec<(usize, CellRun)> {
    (r * grid..(r + 1) * grid).filter_map(|i| sweep.run(i, how).map(|run| (i, run))).collect()
}

/// The untraced run. Every replica of the grid is run once; those runs
/// give the simulated metrics, so these are exact functions of
/// `(--workload, --seed, --seconds)`. Then, while the next pass still fits
/// in `--seconds`, replicas are run again in turn (each rerun must
/// reproduce its first report). `jobs_per_s` is the median over all passes
/// of a pass's offered jobs per host second, so a pass timed while the
/// machine was briefly slow does not move the run's figure.
fn untraced(
    args: &Args,
    sweep: &mut Sweep,
    setup: &[f64],
    replicas: usize,
) -> Result<Metrics, String> {
    let how = How::RunCell { observed: args.workload.observed() };
    warm_up(sweep, how);
    let grid = sweep.cells.len() / replicas;
    let (mut offered, mut met) = (0u64, 0u64);
    let mut cell_p99_ms = Vec::new();
    let mut pass_jobs_per_s = Vec::new();
    let t0 = Instant::now();
    for pass in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        if pass >= replicas && elapsed * (pass + 1) as f64 / pass as f64 > args.seconds {
            break;
        }
        let runs = replica_pass(sweep, how, pass % replicas, grid);
        check_floor(sweep, &runs)?;
        let mut jobs = 0;
        for (i, run) in &runs {
            let (cell_met, cell_offered, p99_ms) = run.outcome();
            jobs += cell_offered;
            if pass < replicas {
                met += cell_met;
                offered += cell_offered;
                cell_p99_ms.push(p99_ms);
            }
            eprintln!(
                "[perfbench]   {:<44} {:>9.2} ms host  met {cell_met}/{cell_offered}  p99 {p99_ms:.4} ms",
                sweep.cells[*i].label(),
                run.host().as_secs_f64() * 1e3
            );
        }
        if !runs.is_empty() {
            pass_jobs_per_s.push(jobs as f64 / host_s(&runs));
        }
    }
    eprintln!("[perfbench] {} passes", pass_jobs_per_s.len());
    // The geometric mean over cells of each cell's p99, so a relative change
    // in any one cell moves it alike, whatever the cell's scale: a fleet
    // cell's p99 runs from 7 ms (fault-free LL) to 12 s (overloaded RR). A
    // pooled p99 would be a few short device cells' slowest jobs, and the
    // fleet's merged sketch would read one bucket on every seed.
    let sim_p99_ms = geomean(&cell_p99_ms);
    let suite = BenchmarkSuite::calibrated();
    let model_err = suite.calibrations().map(|c| c.rel_error()).fold(0.0, f64::max);
    Ok(vec![
        ("setup_s".into(), median(setup), "s"),
        ("jobs_per_s".into(), median(&pass_jobs_per_s), "jobs/s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ("met_frac".into(), ratio(met as f64, offered as f64), "fraction"),
        ("sim_p99_ms".into(), sim_p99_ms, "ms"),
        ("model_err_pct".into(), model_err * 100.0, "%"),
    ])
}

/// Process high-water resident set size.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What the decorated pass recorded, summed over cells.
#[derive(Default)]
struct LayerSums {
    generate: f64,
    build: f64,
    run: f64,
    fleet_run: f64,
    cp_calls: [u64; 6],
    cp_ns: [u64; 6],
    accepts: u64,
    react_calls: u64,
    react_ns: u64,
    observer_ns: u64,
    /// Host ns inside every scheduler and observer callback.
    callback_ns: u64,
}

/// Records the spans of one decorated device run and adds it to `sums`.
fn record_device(
    trace: &mut Trace,
    sums: &mut LayerSums,
    (root, i): (usize, usize),
    r: &DeviceRun,
    tally: &LayerTally,
) {
    let end = r.run.start + r.run.dur;
    let cell = trace.add("cell", i, Some(root), r.generate.start, end - r.generate.start);
    trace.add("generate_jobs", i, Some(cell), r.generate.start, r.generate.dur);
    trace.add("build", i, Some(cell), r.build.start, r.build.dur);
    let try_run = trace.add("try_run", i, Some(cell), r.run.start, r.run.dur);
    for (k, name) in CP_CALLBACKS.iter().enumerate() {
        let c = &tally.cp[k];
        trace.add_calls(name, try_run, c.calls(), c.ns());
        sums.cp_calls[k] += c.calls();
        sums.cp_ns[k] += c.ns();
    }
    let (react, obs) = (&tally.host_react, &tally.observer);
    trace.add_calls("react", try_run, react.calls(), react.ns());
    trace.add_calls("on_event", try_run, obs.calls(), obs.ns());
    sums.accepts += tally.accepts.load(Relaxed);
    sums.react_calls += react.calls();
    sums.react_ns += react.ns();
    sums.observer_ns += obs.ns();
    sums.callback_ns += tally.callback_ns();
    sums.generate += r.generate.dur.as_secs_f64();
    sums.build += r.build.dur.as_secs_f64();
    sums.run += r.run.dur.as_secs_f64();
}

fn traced(
    args: &Args,
    sweep: &mut Sweep,
    setup: &[f64],
    replicas: usize,
) -> Result<Metrics, String> {
    let w = args.workload;
    let n = sweep.cells.len();
    let device = w != Workload::Fleet;
    let mut trace = Trace::default();
    let root = trace.add("workload", n, None, Instant::now(), Duration::ZERO);
    let mut sums = LayerSums::default();

    // Untraced: the unobserved `run_cell` pass (the reference every later
    // report must equal), then for the observed workload the same cells
    // with the sampler. The last of these is the workload as users run it.
    let bare = sweep.pass(How::RunCell { observed: false });
    let observed =
        if w.observed() { sweep.pass(How::RunCell { observed: true }) } else { Vec::new() };
    let plain = if w.observed() { &observed } else { &bare };
    let events: u64 = plain.iter().filter_map(|(_, r)| r.device_report()).map(|r| r.events).sum();

    // Decorated: the replica with timed scheduler and observer, spans kept.
    // A fleet cell has no scheduler or observer to decorate, so its spans
    // are the bare pass's `ClusterBuilder::run` calls.
    let mut decorated_host = 0.0;
    if device {
        for i in 0..n {
            let tally = Arc::new(LayerTally::default());
            let probes =
                Probes { tally: Some(Arc::clone(&tally)), sampler: w.observed(), counts: None };
            if let Some(CellRun::Layered(r)) = sweep.run(i, How::Replica(&probes)) {
                decorated_host += r.total().as_secs_f64();
                record_device(&mut trace, &mut sums, (root, i), &r, &tally);
            }
        }
    } else {
        for (i, run) in &bare {
            if let CellRun::Fleet(_, t) = run {
                let cell = trace.add("cell", *i, Some(root), t.start, t.dur);
                trace.add("ClusterBuilder::run", *i, Some(cell), t.start, t.dur);
                sums.fleet_run += t.dur.as_secs_f64();
            }
        }
    }

    // Counting: counts only, since any observer moves bundles onto the
    // per-access reference walk.
    let mut counts = ProbeCounts::default();
    if device {
        for i in 0..n {
            let c = Arc::new(Mutex::new(ProbeCounts::default()));
            let probes = Probes { counts: Some(Arc::clone(&c)), ..Probes::default() };
            if sweep.run(i, How::Replica(&probes)).is_some() {
                counts.add(&c.lock().expect("counting observer mutex poisoned"));
            }
        }
    }
    trace.close(root);

    let mut fleet = [0u64; 5];
    for (_, run) in &bare {
        if let CellRun::Fleet(r, _) = run {
            for (sum, v) in fleet.iter_mut().zip([r.events, r.rejected, r.retried, r.lost, r.shed])
            {
                *sum += v;
            }
        }
    }

    // The memory replays run at the workload's own bundle shape.
    let shape = (counts.bundles > 0).then(|| {
        let lines = counts.l1_lines + counts.l2_lines + counts.dram_lines;
        let per_bundle = (lines as f64 / counts.bundles as f64).round() as u32;
        MemShape { lines: per_bundle.clamp(1, 32), l2_hit: counts.l2_hit_rate() }
    });
    // A replay runs only on the workloads whose layer it stands for, and
    // reads 0 elsewhere.
    let mem = |f: fn(MemShape) -> f64| shape.map_or(0.0, f);
    let only = |on: bool, f: fn() -> f64| if on { f() } else { 0.0 };

    let mut labels: Vec<String> = sweep.cells.iter().map(Cell::label).collect();
    labels.push(w.name().to_string());
    let path = trace_path(args);
    match std::fs::create_dir_all(path.parent().expect("trace path has a directory"))
        .and_then(|()| std::fs::write(&path, trace.to_chrome_json(&labels)))
    {
        Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
        Err(e) => eprintln!("[perfbench] warning: cannot write {}: {e}", path.display()),
    }

    // Counts and times below are per replica of the workload's grid.
    let per = |x: f64| x / replicas as f64;
    let per_u = |x: u64| x as f64 / replicas as f64;
    let cp_ns: u64 = sums.cp_ns.iter().sum();
    let self_s = sums.run - sums.callback_ns as f64 * 1e-9;
    let mut m: Metrics = vec![
        ("workloads.calibrate_s".into(), median(setup), "s"),
        ("workloads.generate_ms".into(), per(sums.generate) * 1e3, "ms"),
        ("sim.build_ms".into(), per(sums.build) * 1e3, "ms"),
        ("sim.run_s".into(), per(sums.run), "s"),
        ("sim.self_s".into(), per(self_s), "s"),
        ("engine.events".into(), per_u(events), "count"),
        ("engine.ns_per_event".into(), ratio(host_s(plain) * 1e9, events as f64), "ns"),
        ("exec.waves".into(), per_u(counts.waves), "count"),
        ("dispatch.wgs".into(), per_u(counts.wgs), "count"),
        ("cp_frontend.kernels".into(), per_u(counts.kernels), "count"),
        ("memsys.bundles".into(), per_u(counts.bundles), "count"),
        ("memsys.l1_lines".into(), per_u(counts.l1_lines), "count"),
        ("memsys.l2_lines".into(), per_u(counts.l2_lines), "count"),
        ("memsys.dram_lines".into(), per_u(counts.dram_lines), "count"),
        ("memsys.l2_hit_rate".into(), counts.l2_hit_rate(), "fraction"),
        ("memsys.run_ns_per_line".into(), mem(replay::memsys_run), "ns"),
        ("memsys.walk_ns_per_line".into(), mem(replay::memsys_walk), "ns"),
        ("dram.ns_per_line".into(), mem(replay::dram_run), "ns"),
    ];
    for (k, name) in CP_CALLBACKS.iter().enumerate() {
        m.push((format!("cp.{name}.calls"), per_u(sums.cp_calls[k]), "count"));
        m.push((format!("cp.{name}.ns"), per_u(sums.cp_ns[k]), "ns"));
    }
    let observed_slowdown = if w.observed() { ratio(host_s(plain), host_s(&bare)) } else { 0.0 };
    let overhead = if device { ratio(decorated_host, host_s(plain)) - 1.0 } else { 0.0 };
    m.extend([
        ("cp.share".into(), ratio(cp_ns as f64 * 1e-9, sums.run), "fraction"),
        ("cp.accept_frac".into(), ratio(sums.accepts as f64, sums.cp_calls[1] as f64), "fraction"),
        ("host.react.calls".into(), per_u(sums.react_calls), "count"),
        ("host.react.ns".into(), per_u(sums.react_ns), "ns"),
        ("probe.events".into(), per_u(counts.events), "count"),
        ("probe.observer_ns".into(), per_u(sums.observer_ns), "ns"),
        ("probe.observed_slowdown".into(), observed_slowdown, "ratio"),
        ("fleet.run_s".into(), per(sums.fleet_run), "s"),
        ("fleet.events".into(), per_u(fleet[0]), "count"),
        ("fleet.rejected".into(), per_u(fleet[1]), "count"),
        ("fleet.retried".into(), per_u(fleet[2]), "count"),
        ("fleet.lost".into(), per_u(fleet[3]), "count"),
        ("fleet.shed".into(), per_u(fleet[4]), "count"),
        ("routing.ns_per_route".into(), only(!device, replay::routing), "ns"),
        ("fleet.fast_ns_per_job".into(), only(!device, replay::fast_device), "ns"),
        ("stats.ns_per_push".into(), only(!device, replay::quantile_push), "ns"),
        ("event.ns_per_op".into(), only(device, replay::event_queue), "ns"),
        ("sweep.cells".into(), n as f64, "count"),
        ("sweep.failed".into(), sweep.failed.iter().filter(|f| **f).count() as f64, "count"),
        ("trace.overhead_frac".into(), overhead, "fraction"),
    ]);
    Ok(m)
}

/// Where the spans of a traced run go: beside the build output, which the
/// repository ignores.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::PathBuf::from(dir).join("perfbench").join(format!(
        "trace-{}-s{}.json",
        args.workload.name(),
        args.seed
    ))
}
