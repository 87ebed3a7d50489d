//! Timing and counting decorators around the simulator's public extension
//! points. They forward every call unchanged, so a decorated run produces
//! the same report as a bare one (`tests/transparency.rs` checks this).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::host::{HostCmd, HostEvent, HostScheduler, HostView};
use gpu_sim::probe::ProbeEvent;
use gpu_sim::scheduler::{Admission, CpContext, CpScheduler};
use gpu_sim::sim::SchedulerMode;
use sim_core::probe::Observer;
use sim_core::time::{Cycle, Duration};

/// Calls into one callback and the host nanoseconds spent inside them.
/// Plain statistics, so relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct CallTally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallTally {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Host nanoseconds spent inside the calls so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// The CP scheduler callbacks, in [`LayerTally::cp`] order.
pub const CP_CALLBACKS: [&str; 6] =
    ["tick", "admit", "job_enqueued", "wg_complete", "kernel_complete", "job_complete"];

/// Everything the decorators of one run record.
#[derive(Debug, Default)]
pub struct LayerTally {
    /// One tally per entry of [`CP_CALLBACKS`].
    pub cp: [CallTally; 6],
    /// Admission queries answered `Accept`.
    pub accepts: AtomicU64,
    /// `HostScheduler::react`.
    pub host_react: CallTally,
    /// `Observer::on_event` of a wrapped observer.
    pub observer: CallTally,
}

impl LayerTally {
    /// Host nanoseconds spent inside scheduler and observer callbacks.
    pub fn callback_ns(&self) -> u64 {
        self.cp.iter().map(CallTally::ns).sum::<u64>() + self.host_react.ns() + self.observer.ns()
    }
}

/// Wraps the scheduler a registry returned so each callback is timed.
pub fn instrument(mode: SchedulerMode, tally: &Arc<LayerTally>) -> SchedulerMode {
    match mode {
        SchedulerMode::Cp(inner) => {
            SchedulerMode::Cp(Box::new(TimedCp { inner, tally: Arc::clone(tally) }))
        }
        SchedulerMode::Host(inner) => {
            SchedulerMode::Host(Box::new(TimedHost { inner, tally: Arc::clone(tally) }))
        }
    }
}

struct TimedCp {
    inner: Box<dyn CpScheduler>,
    tally: Arc<LayerTally>,
}

impl CpScheduler for TimedCp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn requires_inspection(&self) -> bool {
        self.inner.requires_inspection()
    }

    fn tick_period(&self) -> Option<Duration> {
        self.inner.tick_period()
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        self.tally.cp[0].time(|| self.inner.on_tick(ctx));
    }

    fn admit(&mut self, ctx: &mut CpContext<'_>, q: usize) -> Admission {
        let verdict = self.tally.cp[1].time(|| self.inner.admit(ctx, q));
        if verdict == Admission::Accept {
            self.tally.accepts.fetch_add(1, Relaxed);
        }
        verdict
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.tally.cp[2].time(|| self.inner.on_job_enqueued(ctx, q));
    }

    fn on_wg_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.tally.cp[3].time(|| self.inner.on_wg_complete(ctx, q));
    }

    fn on_kernel_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.tally.cp[4].time(|| self.inner.on_kernel_complete(ctx, q));
    }

    fn on_job_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.tally.cp[5].time(|| self.inner.on_job_complete(ctx, q));
    }
}

struct TimedHost {
    inner: Box<dyn HostScheduler>,
    tally: Arc<LayerTally>,
}

impl HostScheduler for TimedHost {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_period(&self) -> Option<Duration> {
        self.inner.tick_period()
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        self.tally.host_react.time(|| self.inner.react(event, view, out));
    }
}

/// Times every `on_event` of the observer it wraps.
pub struct TimedObserver<O> {
    inner: O,
    tally: Arc<LayerTally>,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, recording into `tally.observer`.
    pub fn new(inner: O, tally: &Arc<LayerTally>) -> Self {
        TimedObserver { inner, tally: Arc::clone(tally) }
    }
}

impl<O: Observer<ProbeEvent>> Observer<ProbeEvent> for TimedObserver<O> {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        self.tally.observer.time(|| self.inner.on_event(at, event));
    }
}

/// Counts probe events by the subsystem that fires them. Attaching any
/// observer routes memory bundles through the per-access reference walk,
/// so a counting pass yields counts, never timings.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProbeCounts {
    /// Every event delivered.
    pub events: u64,
    /// `WaveIssued` (exec).
    pub waves: u64,
    /// `WgDispatched` (dispatch).
    pub wgs: u64,
    /// `KernelStarted` (CP frontend).
    pub kernels: u64,
    /// `MemAccess` (memsys bundles) and the lines each level served.
    pub bundles: u64,
    /// Lines served by L1.
    pub l1_lines: u64,
    /// Lines served by L2.
    pub l2_lines: u64,
    /// Lines served by DRAM.
    pub dram_lines: u64,
}

impl ProbeCounts {
    /// Adds another pass's counts.
    pub fn add(&mut self, o: &ProbeCounts) {
        self.events += o.events;
        self.waves += o.waves;
        self.wgs += o.wgs;
        self.kernels += o.kernels;
        self.bundles += o.bundles;
        self.l1_lines += o.l1_lines;
        self.l2_lines += o.l2_lines;
        self.dram_lines += o.dram_lines;
    }

    /// Share of L1 misses that L2 served.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_lines as f64, (self.l2_lines + self.dram_lines) as f64)
    }
}

impl Observer<ProbeEvent> for ProbeCounts {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        self.events += 1;
        match event {
            ProbeEvent::WaveIssued { .. } => self.waves += 1,
            ProbeEvent::WgDispatched { .. } => self.wgs += 1,
            ProbeEvent::KernelStarted { .. } => self.kernels += 1,
            ProbeEvent::MemAccess { mix, .. } => {
                self.bundles += 1;
                self.l1_lines += mix.l1;
                self.l2_lines += mix.l2;
                self.dram_lines += mix.dram;
            }
            _ => {}
        }
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
