//! Per-job execution timelines: a probe [`Observer`] that captures when
//! each job arrived, was admitted or rejected, started and finished each
//! kernel, and completed — plus a text Gantt renderer for eyeballing
//! scheduler behaviour.
//!
//! Attach one through the probe bus and read it back after the run:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use gpu_sim::prelude::*;
//! use gpu_sim::timeline::Timeline;
//!
//! let timeline = Arc::new(Mutex::new(Timeline::new()));
//! let mut sim = Simulation::builder()
//!     .observe(Box::new(Arc::clone(&timeline)))
//!     .build()
//!     .unwrap();
//! sim.run();
//! assert!(timeline.lock().unwrap().events().is_empty(), "no jobs, no events");
//! ```

use std::fmt::Write as _;

use sim_core::probe::Observer;
use sim_core::time::{Cycle, Duration};

use crate::job::{JobFate, JobId};
use crate::probe::ProbeEvent;

/// What happened to a job at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// Job arrived at the host.
    Arrived,
    /// Job was admitted (became dispatchable).
    Admitted,
    /// Job was rejected by admission control.
    Rejected,
    /// Kernel `idx` dispatched its first workgroup.
    KernelStart(usize),
    /// Kernel `idx` completed.
    KernelEnd(usize),
    /// The whole job completed.
    Completed,
    /// The job was aborted mid-flight (LAX-DROP extension).
    Aborted,
}

/// One timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// When it happened.
    pub at: Cycle,
    /// Which job.
    pub job: JobId,
    /// What happened.
    pub kind: TimelineKind,
}

/// Default event cap for [`Timeline::new`]: generous for any single-cell
/// run, small enough that a runaway fault sweep cannot balloon memory.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 20;

/// An append-only event recorder with a bounded capacity.
///
/// Mirrors the guard pattern of [`sim_core::trace::TraceSeries`]: once the
/// cap is reached further events are dropped and counted rather than
/// growing without bound during long fault sweeps.
#[derive(Debug, Clone)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }
}

impl Timeline {
    /// Creates an empty timeline with [`DEFAULT_TIMELINE_CAPACITY`].
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Creates an empty timeline keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "timeline capacity must be positive");
        Timeline {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event; dropped (and counted) once the capacity is reached.
    pub fn record(&mut self, at: Cycle, job: JobId, kind: TimelineKind) {
        if self.events.len() < self.capacity {
            self.events.push(TimelineEvent { at, job, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// `true` if the capacity has been reached.
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.capacity
    }

    /// Number of events discarded because the timeline was already full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All events in record order (chronological: the simulator only moves
    /// forward).
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Events of one job.
    pub fn job_events(&self, job: JobId) -> impl Iterator<Item = &TimelineEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }

    /// The span `[first kernel start, completion]` of a job, if both ends
    /// were recorded.
    pub fn execution_span(&self, job: JobId) -> Option<(Cycle, Cycle)> {
        let start = self
            .job_events(job)
            .find(|e| matches!(e.kind, TimelineKind::KernelStart(_)))?
            .at;
        let end = self
            .job_events(job)
            .find(|e| e.kind == TimelineKind::Completed)?
            .at;
        Some((start, end))
    }

    /// Renders a text Gantt chart of up to `max_jobs` jobs, `per_char`
    /// simulated time per character column.
    ///
    /// Legend: `.` waiting (arrived, not yet executing), `=` executing
    /// (between first kernel start and completion), `X` rejected.
    ///
    /// # Panics
    ///
    /// Panics if `per_char` is zero.
    pub fn render_gantt(&self, max_jobs: usize, per_char: Duration) -> String {
        assert!(!per_char.is_zero(), "per_char must be positive");
        let mut jobs: Vec<JobId> = Vec::new();
        for e in &self.events {
            if !jobs.contains(&e.job) {
                jobs.push(e.job);
                if jobs.len() >= max_jobs {
                    break;
                }
            }
        }
        let horizon = self.events.last().map(|e| e.at).unwrap_or(Cycle::ZERO);
        let cols = (horizon.as_cycles() / per_char.as_cycles() + 1).min(500) as usize;
        let col = |t: Cycle| ((t.as_cycles() / per_char.as_cycles()) as usize).min(cols - 1);
        let mut out = String::new();
        let _ = writeln!(out, "gantt: one column = {per_char} ('.' waiting, '=' running, 'X' rejected)");
        for job in jobs {
            let mut lane = vec![b' '; cols];
            let arrived = self.job_events(job).find(|e| e.kind == TimelineKind::Arrived).map(|e| e.at);
            let rejected = self
                .job_events(job)
                .find(|e| matches!(e.kind, TimelineKind::Rejected | TimelineKind::Aborted))
                .map(|e| e.at);
            let span = self.execution_span(job);
            // A job whose kernels ran under synthetic host-launch ids has no
            // kernel span; its wait still ends when it completes.
            let completed =
                self.job_events(job).find(|e| e.kind == TimelineKind::Completed).map(|e| e.at);
            if let Some(a) = arrived {
                let wait_end =
                    span.map(|(s, _)| s).or(rejected).or(completed).unwrap_or(horizon);
                for c in &mut lane[col(a)..=col(wait_end)] {
                    *c = b'.';
                }
            }
            if let Some((s, e)) = span {
                for c in &mut lane[col(s)..=col(e)] {
                    *c = b'=';
                }
            }
            if let Some(r) = rejected {
                lane[col(r)] = b'X';
            }
            let _ = writeln!(
                out,
                "job {:>4} |{}|",
                job.0,
                String::from_utf8(lane).expect("ascii lane")
            );
        }
        out
    }
}

/// Maps the job-lifecycle probe events to timeline entries. Host-side
/// schedulers launch kernels under synthetic job ids (2^30 and up); those
/// are skipped, so every entry belongs to a real job.
impl Observer<ProbeEvent> for Timeline {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let (job, kind) = match *event {
            ProbeEvent::JobArrived { job } => (job, TimelineKind::Arrived),
            ProbeEvent::CpDecision { job, admitted: true, .. } => (job, TimelineKind::Admitted),
            ProbeEvent::KernelStarted { job, kernel, .. } => (job, TimelineKind::KernelStart(kernel)),
            ProbeEvent::KernelCompleted { job, kernel, .. } => (job, TimelineKind::KernelEnd(kernel)),
            ProbeEvent::JobResolved { job, fate } => match fate {
                JobFate::Completed(_) => (job, TimelineKind::Completed),
                JobFate::Rejected(_) => (job, TimelineKind::Rejected),
                JobFate::Aborted(_) => (job, TimelineKind::Aborted),
                JobFate::Unfinished => return,
            },
            _ => return,
        };
        if job.0 < crate::host::SYNTH_BASE {
            self.record(at, job, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Cycle {
        Cycle::ZERO + Duration::from_us(us)
    }

    #[test]
    fn records_and_filters_by_job() {
        let mut tl = Timeline::new();
        tl.record(t(0), JobId(0), TimelineKind::Arrived);
        tl.record(t(1), JobId(1), TimelineKind::Arrived);
        tl.record(t(2), JobId(0), TimelineKind::KernelStart(0));
        tl.record(t(5), JobId(0), TimelineKind::Completed);
        assert_eq!(tl.events().len(), 4);
        assert_eq!(tl.job_events(JobId(0)).count(), 3);
        assert_eq!(tl.execution_span(JobId(0)), Some((t(2), t(5))));
        assert_eq!(tl.execution_span(JobId(1)), None);
    }

    #[test]
    fn gantt_shows_waiting_and_running() {
        let mut tl = Timeline::new();
        tl.record(t(0), JobId(0), TimelineKind::Arrived);
        tl.record(t(3), JobId(0), TimelineKind::KernelStart(0));
        tl.record(t(6), JobId(0), TimelineKind::Completed);
        let g = tl.render_gantt(4, Duration::from_us(1));
        assert!(g.contains("job    0"));
        assert!(g.contains('.'), "waiting period shown");
        assert!(g.contains('='), "running period shown");
    }

    #[test]
    fn gantt_marks_rejections() {
        let mut tl = Timeline::new();
        tl.record(t(0), JobId(2), TimelineKind::Arrived);
        tl.record(t(2), JobId(2), TimelineKind::Rejected);
        let g = tl.render_gantt(4, Duration::from_us(1));
        assert!(g.contains('X'));
    }

    #[test]
    fn gantt_ends_waiting_at_completion_without_a_kernel_span() {
        // Host launches record no kernel span for the real job; its lane
        // must still stop at completion, not run on to the horizon.
        let mut tl = Timeline::new();
        tl.record(t(0), JobId(0), TimelineKind::Arrived);
        tl.record(t(0), JobId(1), TimelineKind::Arrived);
        tl.record(t(3), JobId(0), TimelineKind::Completed);
        tl.record(t(9), JobId(1), TimelineKind::Completed);
        let g = tl.render_gantt(4, Duration::from_us(1));
        assert!(g.contains("job    0 |....      |"), "{g}");
        assert!(g.contains("job    1 |..........|"), "{g}");
    }

    #[test]
    fn capacity_is_enforced_with_drop_count() {
        let mut tl = Timeline::with_capacity(3);
        for i in 0..10 {
            tl.record(t(i), JobId(i as u32), TimelineKind::Arrived);
        }
        assert_eq!(tl.events().len(), 3);
        assert!(tl.is_full());
        assert_eq!(tl.dropped(), 7);
        // The retained prefix is the chronologically earliest events.
        assert_eq!(tl.events()[2].at, t(2));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        Timeline::with_capacity(0);
    }

    #[test]
    fn gantt_caps_jobs_and_columns() {
        let mut tl = Timeline::new();
        for i in 0..50 {
            tl.record(t(i), JobId(i as u32), TimelineKind::Arrived);
        }
        let g = tl.render_gantt(5, Duration::from_us(1));
        assert_eq!(g.lines().count(), 6, "header plus five lanes");
    }
}
