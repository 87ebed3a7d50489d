//! Crash-safe incremental checkpointing of finished grid cells: one store
//! and one resume loop for every grid.
//!
//! Long grids (`bin/all`, `faults`, `dag`, `cluster`, `chaos`) record every
//! finished cell to a checkpoint file as they go; an interrupted run
//! restarted with `--resume` reloads the file and re-runs only the missing
//! cells. [`Checkpoint`] is generic over the report it holds: a
//! [`CellReport`] supplies only its body lines, and the store owns
//! everything else.
//!
//! * **One header per kind.** The first line is
//!   `lax-bench-checkpoint v3 <kind>` ([`CellReport::KIND`]). A file of
//!   another kind or version — a fleet file opened as a sweep store, or a
//!   pre-v3 file — restarts its cells instead of being misread.
//! * **Exact round-trip.** Resumed runs must stay byte-identical to
//!   uninterrupted ones, so every `f64` is stored as the hex of its IEEE
//!   bits — never through decimal formatting, which rounds.
//! * **Self-checking blocks.** Each cell is framed `cell KEY` … `end SUM`,
//!   where `SUM` is an FNV-1a hash of the block's text. A truncated,
//!   bit-flipped or otherwise unparsable block is dropped on open; every
//!   other cell is kept. The worst case is re-running work.
//! * **Crash atomicity.** Each update rewrites the whole file to
//!   `<path>.tmp`, `sync_all`s it and renames it into place, so a `SIGKILL`
//!   or power loss at any instant leaves either the previous complete
//!   snapshot or the new one, never a torn file. (Snapshots are small — a
//!   full evaluation is a few hundred cells of ~130 lines — so
//!   rewrite-per-cell is cheap.)
//! * **The artifact never depends on the checkpoint.** A failed write or
//!   delete is reported on stderr with the path, and the grid carries on.
//!
//! Cells are keyed by caller-chosen strings (a scenario's string form,
//! optionally suffixed, e.g. `LAX:IPV6:high:j128:s42:f0.5` for a fault
//! cell). [`restore_or_run`] is the loop every grid binary runs over them.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration as WallDuration;

use gpu_sim::prelude::*;

use crate::sweep::{par_map_with, BenchError, Fnv};

/// First words of every header line; the report kind follows. v3 unified
/// the sweep (v2) and fleet (`lax-bench-cluster-checkpoint v3`) formats
/// and added the block checksum — older files restart their cells.
const MAGIC: &str = "lax-bench-checkpoint v3";

/// A report the checkpoint store can hold. Implementors write and parse
/// only their body lines; the store adds the header, the `cell`/`end`
/// framing and the atomic write.
pub trait CellReport: Clone {
    /// The header's kind word; a file of another kind opens empty.
    const KIND: &'static str;

    /// Appends the body lines, each ending in `\n`. Body lines must not
    /// start with `cell ` or `end `.
    fn write_body(&self, out: &mut String);

    /// Parses the body lines [`CellReport::write_body`] wrote for the cell
    /// keyed `key`; `None` drops the cell.
    fn parse_body(key: &str, body: &[&str]) -> Option<Self>;
}

/// An `f64` rendered as the 16 hex digits of its IEEE bits: the store's
/// one float codec, read back by [`f64_from_hex`].
pub(crate) struct F64Hex(pub f64);

impl fmt::Display for F64Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

/// Inverse of [`F64Hex`].
pub(crate) fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A checkpoint file plus its in-memory view: a map from cell key to the
/// finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<R> {
    path: PathBuf,
    cells: BTreeMap<String, R>,
}

impl<R: CellReport> Checkpoint<R> {
    /// Opens (or prepares to create) the checkpoint at `path`, loading any
    /// intact cells a previous run left behind. A missing, unreadable or
    /// foreign file simply yields an empty checkpoint.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let cells = match fs::read(&path) {
            Ok(bytes) => parse_file(&String::from_utf8_lossy(&bytes)),
            Err(_) => BTreeMap::new(),
        };
        Checkpoint { path, cells }
    }

    /// Opens the store a grid binary runs against. Without `resume` a stale
    /// file from an earlier run is deleted first, so a fresh run never
    /// adopts its cells; with it, the restored cell count is reported.
    /// `tag` names the binary in the stderr lines (`[faults] ...`).
    pub fn resume(path: impl Into<PathBuf>, resume: bool, tag: &str) -> Self {
        let path = path.into();
        if !resume && fs::remove_file(&path).is_ok() {
            eprintln!(
                "[{tag}] discarded stale checkpoint {} (run with --resume to keep it)",
                path.display()
            );
        }
        let store = Self::open(path);
        if !store.is_empty() {
            eprintln!(
                "[{tag}] resuming: {} cell(s) restored from {}",
                store.len(),
                store.path.display()
            );
        }
        store
    }

    /// The file this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The report recorded for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&R> {
        self.cells.get(key)
    }

    /// `true` if `key` has a recorded report.
    pub fn contains(&self, key: &str) -> bool {
        self.cells.contains_key(key)
    }

    /// Iterates over all recorded `(key, report)` cells in key order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &R)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Records one finished cell and atomically persists the snapshot. A
    /// failed write is reported on stderr with the path; the cell stays in
    /// memory either way, so the grid finishes regardless.
    pub fn record(&mut self, key: &str, report: &R) {
        self.cells.insert(key.to_string(), report.clone());
        if let Err(e) = self.flush() {
            eprintln!("warning: checkpoint write to {} failed: {e}", self.path.display());
        }
    }

    /// Deletes the checkpoint file (kept cells stay in memory). Used once
    /// a run completes so a later fresh run does not resume by accident. A
    /// missing file is fine; any other failure is reported on stderr.
    pub fn discard_file(&self) {
        match fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                eprintln!("warning: cannot remove checkpoint {}: {e}", self.path.display());
            }
            _ => {}
        }
    }

    /// Rewrites the snapshot: serialize everything to `<path>.tmp`, sync it
    /// to disk, then rename over the real file so readers (and crashes)
    /// only ever see a complete snapshot.
    fn flush(&self) -> std::io::Result<()> {
        let mut text = format!("{MAGIC} {}\n", R::KIND);
        for (key, report) in &self.cells {
            let start = text.len();
            let _ = writeln!(text, "cell {key}");
            report.write_body(&mut text);
            let sum = checksum(&text[start..]);
            let _ = writeln!(text, "end {sum:016x}");
        }
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, &self.path)
    }
}

fn checksum(block: &str) -> u64 {
    let mut h = Fnv::new();
    h.eat(block.as_bytes());
    h.finish()
}

/// Parses a whole file; blocks that are unterminated, fail their checksum
/// or fail to parse are dropped, everything else is kept. Returns empty on
/// a foreign header.
fn parse_file<R: CellReport>(text: &str) -> BTreeMap<String, R> {
    let mut cells = BTreeMap::new();
    let mut lines = text.split('\n');
    if lines.next() != Some(format!("{MAGIC} {}", R::KIND).as_str()) {
        return cells;
    }
    let mut block: Option<(&str, Vec<&str>, Fnv)> = None;
    for line in lines {
        if let Some(key) = line.strip_prefix("cell ") {
            // A `cell` line inside an unterminated block abandons it.
            let mut sum = Fnv::new();
            sum.eat(line.as_bytes());
            sum.eat(b"\n");
            block = Some((key, Vec::new(), sum));
        } else if let Some(check) = line.strip_prefix("end ") {
            if let Some((key, body, sum)) = block.take() {
                if check == format!("{:016x}", sum.finish()) {
                    if let Some(report) = R::parse_body(key, &body) {
                        cells.insert(key.to_string(), report);
                    }
                }
            }
        } else if let Some((_, body, sum)) = block.as_mut() {
            sum.eat(line.as_bytes());
            sum.eat(b"\n");
            body.push(line);
        }
    }
    cells
}

/// The one resume loop every grid binary runs. Each of `keys` the store
/// already holds is restored; the rest run as `run(index)` on `workers`
/// threads, and each finished cell is recorded the moment it lands (so a
/// kill one cell before the end loses one cell, not the grid), then
/// handed to `on_done` with its index and wall time. Returns one result
/// per key, in key order; a failed cell does not stop the others.
pub fn restore_or_run<R, F>(
    mut store: Option<&mut Checkpoint<R>>,
    keys: &[String],
    workers: usize,
    run: F,
    mut on_done: impl FnMut(usize, &Result<R, BenchError>, WallDuration),
) -> Vec<Result<R, BenchError>>
where
    R: CellReport + Send,
    F: Fn(usize) -> Result<R, BenchError> + Sync,
{
    let mut results: Vec<Option<Result<R, BenchError>>> =
        keys.iter().map(|k| store.as_ref().and_then(|s| s.get(k)).cloned().map(Ok)).collect();
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
    let ran = par_map_with(
        &missing,
        workers,
        |&i| run(i),
        |j, result, wall| {
            let i = missing[j];
            if let (Ok(report), Some(store)) = (result, store.as_deref_mut()) {
                store.record(&keys[i], report);
            }
            on_done(i, result, wall);
        },
    );
    for (&i, result) in missing.iter().zip(ran) {
        results[i] = Some(result);
    }
    results.into_iter().map(|r| r.expect("every cell restored or ran")).collect()
}

/// Per-cell execution profile: how long the cell took to simulate and how
/// many fault-injected retries it needed. Persisted alongside the report so
/// a resumed sweep can still render the slowest-cells table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellProfile {
    /// Wall-clock time spent simulating the cell (including retries).
    pub wall: WallDuration,
    /// Extra attempts beyond the first (0 for a clean first run).
    pub retries: u32,
}

impl CellProfile {
    /// Simulated events per wall-clock second, given the cell's report.
    pub fn events_per_sec(&self, report: &SimReport) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            report.events as f64 / secs
        }
    }
}

/// A finished single-device cell as the sweep store keeps it: the report
/// and, when the run was timed, its execution profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The cell's report.
    pub report: SimReport,
    /// How the cell ran, when it was profiled.
    pub profile: Option<CellProfile>,
}

impl From<SimReport> for SweepCell {
    fn from(report: SimReport) -> Self {
        SweepCell { report, profile: None }
    }
}

/// Body grammar: `scheduler NAME`, `summary ...`, an optional
/// `profile WALL_NS_HEX RETRIES`, then one `job` line per record. Free-text
/// fields (the scheduler name, each job's benchmark label) end their lines
/// so embedded spaces survive.
impl CellReport for SweepCell {
    const KIND: &'static str = "sweep";

    fn write_body(&self, out: &mut String) {
        let r = &self.report;
        let _ = writeln!(out, "scheduler {}", r.scheduler);
        let _ = writeln!(
            out,
            "summary {} {} {} {} {} {} {}",
            r.makespan.as_cycles(),
            F64Hex(r.energy_mj),
            r.total_wgs,
            F64Hex(r.l1_hit_rate),
            F64Hex(r.l2_hit_rate),
            r.events,
            r.records.len()
        );
        if let Some(p) = self.profile {
            // Wall-clock as exact nanoseconds so resumed runs reload the
            // same profile the original run measured.
            let _ = writeln!(out, "profile {:x} {}", p.wall.as_nanos(), p.retries);
        }
        for rec in &r.records {
            let fate = match rec.fate {
                JobFate::Completed(t) => format!("C{}", t.as_cycles()),
                JobFate::Rejected(t) => format!("R{}", t.as_cycles()),
                JobFate::Aborted(t) => format!("A{}", t.as_cycles()),
                JobFate::Unfinished => "U".to_string(),
            };
            let _ = writeln!(
                out,
                "job {} {} {} {} {} {}",
                rec.id.0,
                rec.arrival.as_cycles(),
                rec.deadline_abs.as_cycles(),
                fate,
                F64Hex(rec.wgs_executed),
                rec.bench
            );
        }
    }

    fn parse_body(_key: &str, body: &[&str]) -> Option<Self> {
        let mut lines = body.iter().peekable();
        let scheduler = lines.next()?.strip_prefix("scheduler ")?.to_string();
        let mut s = lines.next()?.strip_prefix("summary ")?.split(' ');
        let makespan = Duration::from_cycles(s.next()?.parse().ok()?);
        let energy_mj = f64_from_hex(s.next()?)?;
        let total_wgs = s.next()?.parse().ok()?;
        let l1_hit_rate = f64_from_hex(s.next()?)?;
        let l2_hit_rate = f64_from_hex(s.next()?)?;
        let events = s.next()?.parse().ok()?;
        let n_records: usize = s.next()?.parse().ok()?;
        if s.next().is_some() {
            return None;
        }
        let profile = match lines.peek().and_then(|l| l.strip_prefix("profile ")) {
            Some(rest) => {
                lines.next();
                let mut p = rest.split(' ');
                let nanos = u64::from_str_radix(p.next()?, 16).ok()?;
                let retries = p.next()?.parse().ok()?;
                if p.next().is_some() {
                    return None;
                }
                Some(CellProfile { wall: WallDuration::from_nanos(nanos), retries })
            }
            None => None,
        };
        let mut records = Vec::new();
        for line in lines {
            // The benchmark label is free text: split off the 5 fixed
            // fields, keep the rest of the line verbatim.
            let mut f = line.strip_prefix("job ")?.splitn(6, ' ');
            let id = JobId(f.next()?.parse().ok()?);
            let arrival = Cycle::from_cycles(f.next()?.parse().ok()?);
            let deadline_abs = Cycle::from_cycles(f.next()?.parse().ok()?);
            let fate = parse_fate(f.next()?)?;
            let wgs_executed = f64_from_hex(f.next()?)?;
            let bench: Arc<str> = Arc::from(f.next()?);
            records.push(JobRecord { id, bench, arrival, deadline_abs, fate, wgs_executed });
        }
        if records.len() != n_records {
            return None;
        }
        let report = SimReport {
            scheduler,
            records,
            makespan,
            energy_mj,
            total_wgs,
            l1_hit_rate,
            l2_hit_rate,
            events,
        };
        Some(SweepCell { report, profile })
    }
}

fn parse_fate(s: &str) -> Option<JobFate> {
    if s == "U" {
        return Some(JobFate::Unfinished);
    }
    let tag = s.get(..1)?;
    let t = Cycle::from_cycles(s[1..].parse().ok()?);
    match tag {
        "C" => Some(JobFate::Completed(t)),
        "R" => Some(JobFate::Rejected(t)),
        "A" => Some(JobFate::Aborted(t)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use workloads::spec::{ArrivalRate, Benchmark};

    use super::*;
    use crate::cluster::{ClusterBuilder, ClusterReport, ClusterScenario};
    use crate::sweep::{run_cell, RunOptions, Scenario};

    fn report(scheduler: &str, jobs: usize) -> SimReport {
        let records = (0..jobs)
            .map(|i| JobRecord {
                id: JobId(i as u32),
                bench: Arc::from("IPV6 mixed"),
                arrival: Cycle::from_cycles(i as u64 * 1000),
                deadline_abs: Cycle::from_cycles(i as u64 * 1000 + 777),
                fate: match i % 4 {
                    0 => JobFate::Completed(Cycle::from_cycles(i as u64 * 1000 + 500)),
                    1 => JobFate::Rejected(Cycle::from_cycles(i as u64 * 1000)),
                    2 => JobFate::Aborted(Cycle::from_cycles(i as u64 * 1000 + 900)),
                    _ => JobFate::Unfinished,
                },
                // Deliberately awkward floats: non-terminating binary
                // fractions and a subnormal — decimal formatting would
                // corrupt them, to_bits must not.
                wgs_executed: 0.1 + 0.2 + i as f64 * 1e-17,
            })
            .collect();
        SimReport {
            scheduler: scheduler.to_string(),
            records,
            makespan: Duration::from_cycles(123_456_789),
            energy_mj: std::f64::consts::PI * 1e3,
            total_wgs: 42,
            l1_hit_rate: 2.0 / 3.0,
            l2_hit_rate: f64::MIN_POSITIVE / 2.0,
            events: 1_234_567,
        }
    }

    fn cell(scheduler: &str, jobs: usize) -> SweepCell {
        SweepCell::from(report(scheduler, jobs))
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lax-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn restores_reports_bit_exactly() {
        let path = tmp_path("roundtrip");
        let mut ck = Checkpoint::open(&path);
        let a = cell("LAX", 7);
        let b = cell("RR with spaces", 3);
        ck.record("LAX:IPV6:high:j128:s42", &a);
        ck.record("RR:IPV6:high:j128:s42:f0.5", &b);
        let reloaded = Checkpoint::<SweepCell>::open(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("LAX:IPV6:high:j128:s42"), Some(&a));
        assert_eq!(reloaded.get("RR:IPV6:high:j128:s42:f0.5"), Some(&b));
        ck.discard_file();
        assert!(!path.exists());
    }

    #[test]
    fn recording_twice_overwrites_in_place() {
        let path = tmp_path("overwrite");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", &cell("A", 2));
        ck.record("k", &cell("B", 1));
        let reloaded = Checkpoint::<SweepCell>::open(&path);
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.get("k").unwrap().report.scheduler, "B");
        ck.discard_file();
    }

    #[test]
    fn missing_file_and_garbage_files_read_as_empty() {
        assert!(Checkpoint::<SweepCell>::open(tmp_path("nonexistent")).is_empty());
        let path = tmp_path("garbage");
        fs::write(&path, "this is not a checkpoint\ncell x\nend\n").unwrap();
        assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "bad header rejects the file");
        fs::write(&path, [0xff, 0xfe, 0x00, 0x80]).unwrap();
        assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "binary junk reads as empty");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_or_corrupt_cells_are_dropped_without_losing_good_ones() {
        let path = tmp_path("torn");
        let mut ck = Checkpoint::open(&path);
        ck.record("good", &cell("LAX", 2));
        // Simulate a corrupted tail: a correctly framed cell whose job
        // count lies, a cell whose checksum does not match, then an
        // unterminated block (as if truncated mid-write).
        let mut text = fs::read_to_string(&path).unwrap();
        let bad = "cell bad\nscheduler X\nsummary 1 0 0 0 0 0 5\njob 0 0 0 U 0 b\n";
        text.push_str(&format!("{bad}end {:016x}\n", checksum(bad)));
        text.push_str("cell flipped\nscheduler X\nsummary 1 0 0 0 0 0 0\nend 0000000000000000\n");
        text.push_str("cell truncated\nscheduler Y\n");
        fs::write(&path, &text).unwrap();
        let reloaded = Checkpoint::<SweepCell>::open(&path);
        assert_eq!(reloaded.len(), 1, "only the intact cell survives");
        assert!(reloaded.contains("good"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn profiles_round_trip_and_are_optional() {
        let path = tmp_path("profiles");
        let mut ck = Checkpoint::open(&path);
        let r = report("LAX", 2);
        let p = CellProfile { wall: WallDuration::from_nanos(1_234_567_891), retries: 3 };
        ck.record("with", &SweepCell { report: r.clone(), profile: Some(p) });
        ck.record("without", &SweepCell::from(r.clone()));
        let reloaded = Checkpoint::<SweepCell>::open(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("with").unwrap().report, r);
        assert_eq!(reloaded.get("with").unwrap().profile, Some(p));
        assert_eq!(reloaded.get("without").unwrap().profile, None);
        assert!(p.events_per_sec(&r) > 0.0);
        ck.discard_file();
    }

    #[test]
    fn v1_files_are_rejected_wholesale() {
        let path = tmp_path("v1");
        fs::write(
            &path,
            "lax-bench-checkpoint v1\ncell k\nscheduler A\nsummary 1 0 0 0 0 0\nend\n",
        )
        .unwrap();
        assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "v1 header reads as absent");
        // The pre-v3 sweep and fleet formats restart their cells too.
        for header in ["lax-bench-checkpoint v2", "lax-bench-cluster-checkpoint v3"] {
            let mut ck = Checkpoint::open(&path);
            ck.record("k", &cell("A", 1));
            let text = fs::read_to_string(&path).unwrap();
            let (_, body) = text.split_once('\n').unwrap();
            fs::write(&path, format!("{header}\n{body}")).unwrap();
            assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "{header} reads as absent");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let path = tmp_path("tmpclean.ckpt");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", &cell("A", 1));
        assert!(path.exists());
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the snapshot is renamed, not left as {tmp:?}");
        ck.discard_file();
    }

    #[test]
    fn unwritable_path_keeps_cells_in_memory() {
        // The parent "directory" is a regular file, so every write fails.
        let parent = tmp_path("unwritable");
        fs::write(&parent, "a file, not a directory").unwrap();
        let path = parent.join("store.ckpt");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", &cell("A", 1));
        assert_eq!(ck.get("k"), Some(&cell("A", 1)), "the cell is still served");
        assert!(!path.exists());
        ck.discard_file();
        fs::remove_file(&parent).unwrap();
    }

    /// Real cells of both kinds: small single-device sweeps and fast-tier
    /// fleet runs, faulted and not.
    fn sweep_cells() -> Vec<(String, SweepCell)> {
        ["RR", "LAX"]
            .iter()
            .map(|s| {
                let scenario = Scenario::new(s, Benchmark::Ipv6, ArrivalRate::High, 6, 3);
                let report = run_cell(&scenario, &RunOptions::default()).unwrap();
                let profile = CellProfile { wall: WallDuration::from_nanos(987_654_321), retries: 1 };
                (scenario.to_string(), SweepCell { report, profile: Some(profile) })
            })
            .collect()
    }

    fn fleet_cells() -> Vec<(String, ClusterReport)> {
        ["RR:HYBRID:high:d4:j300:s7", "LL:HYBRID:high:d4:j300:s7:f1"]
            .iter()
            .map(|s| {
                let scenario: ClusterScenario = s.parse().unwrap();
                (scenario.to_string(), ClusterBuilder::new(scenario).run().unwrap())
            })
            .collect()
    }

    /// Opens `bytes` as a store and checks that every restored cell equals
    /// its original bit for bit; returns how many were restored.
    fn restored<R: CellReport + PartialEq + Debug>(
        path: &Path,
        bytes: &[u8],
        originals: &BTreeMap<String, R>,
    ) -> usize {
        fs::write(path, bytes).unwrap();
        let ck = Checkpoint::<R>::open(path);
        for (key, report) in ck.cells() {
            assert_eq!(originals.get(key), Some(report), "{key} restored wrong");
        }
        ck.len()
    }

    /// Writes `cells` through the store, then damages the file every way a
    /// crash or a bad disk might: truncation at every line boundary and a
    /// spread of byte offsets, and a flipped byte at every offset.
    fn damaged_files_restore_only_intact_cells<R: CellReport + PartialEq + Debug>(
        name: &str,
        cells: Vec<(String, R)>,
    ) {
        let path = tmp_path(name);
        let mut ck = Checkpoint::open(&path);
        for (key, report) in &cells {
            ck.record(key, report);
        }
        let bytes = fs::read(&path).unwrap();
        let originals: BTreeMap<String, R> = cells.into_iter().collect();
        assert_eq!(restored(&path, &bytes, &originals), originals.len());

        let newlines = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1);
        let spread = (0..bytes.len()).step_by(bytes.len() / 97 + 1);
        for cut in newlines.chain(spread) {
            let prefix = &bytes[..cut];
            // A cell survives iff its whole `end` line (20 bytes) made it.
            let text = String::from_utf8_lossy(prefix);
            let complete = text.match_indices("\nend ").filter(|(i, _)| i + 21 <= cut).count();
            assert_eq!(restored(&path, prefix, &originals), complete, "cut at {cut}");
        }

        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap();
        for at in 0..bytes.len() {
            for flip in [0x01, 0x20, 0x80] {
                let mut damaged = bytes.clone();
                damaged[at] ^= flip;
                let n = restored(&path, &damaged, &originals);
                if at <= header_len {
                    assert_eq!(n, 0, "a damaged header restarts every cell");
                } else {
                    // A flipped newline after an `end` line also takes the
                    // next block's `cell` line with it.
                    let lost = if bytes[at] == b'\n' { 2 } else { 1 };
                    assert!(n + lost >= originals.len(), "flip at {at} lost {n} cell(s)");
                }
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_sweep_checkpoints_restore_only_intact_cells() {
        damaged_files_restore_only_intact_cells("damaged-sweep", sweep_cells());
    }

    #[test]
    fn damaged_fleet_checkpoints_restore_only_intact_cells() {
        damaged_files_restore_only_intact_cells("damaged-fleet", fleet_cells());
    }

    #[test]
    fn a_file_of_the_other_kind_restarts_its_cells() {
        let path = tmp_path("kinds");
        let mut sweep = Checkpoint::open(&path);
        for (key, report) in sweep_cells() {
            sweep.record(&key, &report);
        }
        assert!(Checkpoint::<ClusterReport>::open(&path).is_empty(), "sweep file as fleet store");
        let mut fleet = Checkpoint::open(&path);
        for (key, report) in fleet_cells() {
            fleet.record(&key, &report);
        }
        assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "fleet file as sweep store");
        // Swapping only the header's kind word is caught by the body parser.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen(" v3 fleet\n", " v3 sweep\n", 1)).unwrap();
        assert!(Checkpoint::<SweepCell>::open(&path).is_empty(), "swapped kind word");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn restore_or_run_restores_recorded_cells_and_records_the_rest() {
        let path = tmp_path("loop");
        let mut ck = Checkpoint::open(&path);
        ck.record("b", &cell("restored", 1));
        let keys: Vec<String> = ["a", "b", "c"].iter().map(|k| k.to_string()).collect();
        let mut ran = Vec::new();
        let results = restore_or_run(
            Some(&mut ck),
            &keys,
            2,
            |i| match i {
                2 => Err(BenchError::Io("cell c fails".into())),
                _ => Ok(cell("ran", i + 1)),
            },
            |i, _, _| ran.push(i),
        );
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 2], "only missing cells run");
        assert_eq!(results[0].as_ref().unwrap(), &cell("ran", 1));
        assert_eq!(results[1].as_ref().unwrap(), &cell("restored", 1));
        assert!(results[2].is_err());
        let reopened = Checkpoint::<SweepCell>::open(&path);
        assert_eq!(reopened.len(), 2, "the good new cell was recorded, the failed one not");
        assert_eq!(reopened.get("a"), Some(&cell("ran", 1)));
        ck.discard_file();
    }
}
