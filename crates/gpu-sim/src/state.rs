//! Shared simulation state and the typed context interfaces that tie the
//! subsystems together.
//!
//! [`SimState`] aggregates one struct per subsystem (command-processor
//! frontend, dispatcher, execution, memory, host) plus [`Shared`] — the
//! cross-cutting context every subsystem may read: machine config, compute
//! queues, counters, job records, probes. Subsystems own their struct's
//! fields privately; cross-subsystem interaction goes through the
//! `pub(crate)` functions each module exports and the
//! [`crate::engine::Effects`] buffer for future events.

use std::collections::HashMap;
use std::sync::Arc;

use sim_core::probe::ProbeHub;
use sim_core::time::{Cycle, CYCLES_PER_US};

use crate::config::GpuConfig;
use crate::counters::Counters;
use crate::cp_frontend::CpFrontend;
use crate::dispatch::Dispatch;
use crate::energy::EnergyMeter;
use crate::exec::Exec;
use crate::faults::FaultInjector;
use crate::host::HostModel;
use crate::job::{JobDesc, JobFate, JobId, JobState};
use crate::memsys::MemSys;
use crate::metrics::JobRecord;
use crate::probe::{MetricsSnapshot, ProbeEvent};
use crate::queue::ComputeQueue;
use crate::scheduler::{CpContext, CpScheduler, Occupancy};
use crate::sim::{SchedulerMode, SimError};

/// Cross-cutting state every subsystem may use: the machine description,
/// the compute queues, accounting, and observability. Not a subsystem —
/// this *is* the shared context interface.
pub(crate) struct Shared {
    pub(crate) cfg: GpuConfig,
    pub(crate) queues: Vec<ComputeQueue>,
    pub(crate) counters: Counters,
    pub(crate) energy: EnergyMeter,
    pub(crate) mode: SchedulerMode,
    pub(crate) jobs: Vec<Arc<JobDesc>>,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) resolved: usize,
    pub(crate) queue_of_job: HashMap<JobId, usize>,
    pub(crate) probes: ProbeHub<ProbeEvent>,
    pub(crate) total_wgs: u64,
    pub(crate) last_resolution: Cycle,
    pub(crate) max_backlog: Option<usize>,
    pub(crate) fatal: Option<SimError>,
    pub(crate) injector: FaultInjector,
}

impl Shared {
    /// Seals a job's fate exactly once, advances the resolution count and
    /// announces it on the probe bus.
    pub(crate) fn resolve(&mut self, id: JobId, fate: JobFate, now: Cycle) {
        let rec = &mut self.records[id.index()];
        debug_assert!(matches!(rec.fate, JobFate::Unfinished), "double resolution of {id:?}");
        rec.fate = fate;
        self.resolved += 1;
        self.last_resolution = now;
        self.probes.emit_with(now, || ProbeEvent::JobResolved { job: id, fate });
    }

    /// Current compute/memory slowdown factor (1.0 outside fault windows).
    #[inline]
    pub(crate) fn fault_scale(&self) -> f64 {
        self.injector.slowdown_factor()
    }
}

/// All simulation state, decomposed by subsystem. The engine threads this
/// through every handler; no subsystem holds a reference to another.
pub(crate) struct SimState {
    pub(crate) shared: Shared,
    pub(crate) cp: CpFrontend,
    pub(crate) dispatch: Dispatch,
    pub(crate) exec: Exec,
    pub(crate) mem: MemSys,
    pub(crate) host: HostModel,
}

/// Device occupancy seen by CP schedulers.
pub(crate) fn occupancy(st: &SimState) -> Occupancy {
    let (free, resident) = st.exec.wave_slot_totals();
    Occupancy {
        free_wave_slots: free,
        resident_waves: resident,
        busy_queues: st.shared.queues.iter().filter(|q| !q.is_free()).count() as u32,
    }
}

/// Runs `f` against the CP scheduler with a fully assembled [`CpContext`];
/// `None` when the scheduler runs host-side (checked before the occupancy
/// scan, so host-mode callers pay nothing).
pub(crate) fn with_cp<R>(
    st: &mut SimState,
    now: Cycle,
    f: impl FnOnce(&mut dyn CpScheduler, &mut CpContext<'_>) -> R,
) -> Option<R> {
    if !matches!(st.shared.mode, SchedulerMode::Cp(_)) {
        return None;
    }
    let occupancy = occupancy(st);
    let sh = &mut st.shared;
    let SchedulerMode::Cp(sched) = &mut sh.mode else {
        return None;
    };
    let mut ctx = CpContext {
        now,
        queues: &mut sh.queues,
        counters: &mut sh.counters,
        occupancy,
        config: &sh.cfg,
        probes: &mut sh.probes,
    };
    Some(f(sched.as_mut(), &mut ctx))
}

/// Arms the fatal-error latch when the queue backlog (CP backlog plus
/// pending host deliveries) exceeds the configured limit; the engine loop
/// surfaces it before the next event.
pub(crate) fn check_backlog_limit(st: &mut SimState) {
    let Some(limit) = st.shared.max_backlog else { return };
    let pending = st.cp.backlog_len() + st.host.pending_len();
    if pending > limit && st.shared.fatal.is_none() {
        st.shared.fatal = Some(SimError::QueueOverflow { pending, limit });
    }
}

/// Assembles the periodic device-state snapshot fired to observers on each
/// counter-refresh tick. Read-only: never touches machine state.
pub(crate) fn metrics_snapshot(st: &SimState, now: Cycle) -> MetricsSnapshot {
    let cus = st.exec.cus();
    let mut cu_occupancy = Vec::with_capacity(cus.len());
    let mut resident = 0u32;
    let mut free = 0u32;
    for cu in cus {
        let r = cu.resident_waves();
        let f = cu.free_wave_slots();
        resident += r;
        free += f;
        let slots = r + f;
        cu_occupancy.push(if slots == 0 { 0.0 } else { r as f64 / slots as f64 });
    }
    let mut laxities: Vec<f64> = Vec::new();
    let mut busy_queues = 0u32;
    for q in &st.shared.queues {
        if let Some(a) = &q.active {
            busy_queues += 1;
            if a.state != JobState::Init {
                let lax_cycles = a.deadline_abs().as_cycles() as f64 - now.as_cycles() as f64;
                laxities.push(lax_cycles / CYCLES_PER_US as f64);
            }
        }
    }
    laxities.sort_by(f64::total_cmp);
    let laxity_min_us = laxities.first().copied();
    let laxity_median_us = (!laxities.is_empty()).then(|| laxities[laxities.len() / 2]);
    MetricsSnapshot {
        cu_occupancy,
        resident_waves: resident,
        free_wave_slots: free,
        busy_queues,
        host_pending: (st.cp.backlog_len() + st.host.pending_len()) as u32,
        laxity_min_us,
        laxity_median_us,
        dram_accesses: st.mem.dram_accesses(),
        dram_busy_cycles: st.mem.dram_busy_cycles(),
        dram_channels: st.mem.dram_channels() as u32,
        l1_hit_rate: st.mem.l1_hit_rate(),
        l2_hit_rate: st.mem.l2_hit_rate(),
        energy_mj: st.shared.energy.dynamic_mj(),
        total_wgs: st.shared.total_wgs,
    }
}
