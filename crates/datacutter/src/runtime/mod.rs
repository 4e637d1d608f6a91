//! The layered filter runtime: instantiates an [`AppGraph`] on a
//! [`Topology`] and executes units of work on a pluggable substrate.
//!
//! * [`exec`] — the `Clock` / `Transport` / `Executor` trait family and
//!   the virtual-time [`SimExecutor`],
//! * [`native`] — the wall-clock [`NativeExecutor`] (real OS threads),
//! * [`park`] — the parking seam: how a runtime process blocks
//!   (condvar-parked thread vs waker-parked task),
//! * [`tasked`] — the cooperative [`TaskedExecutor`] (waker-parked tasks
//!   multiplexed over a worker pool, for 4096-copy graphs on one machine),
//! * [`spawn`] — copy instantiation and stream wiring,
//! * [`delivery`] — outbox senders, ack couriers, retransmission,
//! * [`eow`] — end-of-work gates (UOW cycle separation),
//! * [`reaper`] — dead-set salvage and demand-driven replay,
//! * [`retain`] — lossless-recovery retention rings and seq-number dedup,
//! * [`supervisor`] — wedge detection and eviction for supervised runs.
//!
//! Runs are configured with the [`Run`] builder:
//!
//! ```ignore
//! let report = Run::new(graph)
//!     .uows(3)
//!     .trace(trace)
//!     .go(&topo)?;
//! ```
//!
//! End-of-work markers flow in-band: when a producer copy finishes its
//! work cycle, an EOW marker is broadcast to every consumer copy set; once
//! a copy set has seen the marker from every producer copy, each consumer
//! copy's next read returns `None`. Multi-UOW runs repeat the cycle with a
//! global barrier in between.

pub mod delivery;
pub mod eow;
pub mod exec;
pub mod native;
pub mod park;
pub mod reaper;
pub mod retain;
pub mod spawn;
pub mod supervisor;
pub mod tasked;

use std::sync::Arc;

use hetsim::{SimDuration, SimTime, Simulation, Topology};
use parking_lot::Mutex;

pub use exec::{
    ChanRx, ChanTx, Clock, ExecBarrier, ExecEnv, ExecStats, Executor, SimExecutor, SimTransport,
    Transport,
};
pub use native::{CancelScope, NativeEnv, NativeExecutor, NativeTransport};
pub use tasked::TaskedExecutor;

use crate::fault::{ErrorCell, FaultCtl, FaultOptions, KilledMarker, RunError};
use crate::graph::AppGraph;
use crate::metrics::{CopyReport, FaultReport, RunReport, StreamReport};

/// Default capacity of each per-copy outbox (models the kernel socket
/// buffer that lets a filter keep computing while a previous buffer is on
/// the wire).
pub const DEFAULT_OUTBOX_CAPACITY: usize = 2;

/// Default capacity of ack courier queues. Consumers block on a full
/// courier queue, but under the demand-driven policy the queue can never
/// hold more acks than the producer side has window credit (each queued
/// ack is an unacknowledged buffer), so with the default windows this
/// bound is never reached; RR/WRR generate no acks at all. Raise it via
/// [`Run::courier_capacity`] for graphs with very large DD windows.
pub const DEFAULT_COURIER_CAPACITY: usize = 1024;

/// Default back-off before re-sending a message the fault plan dropped.
pub const DEFAULT_RETRANSMIT_DELAY: SimDuration = SimDuration::from_millis(1);

/// Default deadline for handing an acknowledgment to a full courier
/// queue; exceeding it fails the run with [`RunError::CourierStall`]
/// instead of blocking forever. Enforced on the native executor (the
/// deterministic substrate keeps the original blocking send so virtual
/// timelines stay bit-identical).
pub const DEFAULT_COURIER_DEADLINE: SimDuration = SimDuration::from_millis(5_000);

/// Runtime tuning knobs carried from the [`Run`] builder into the wiring.
#[derive(Clone, Copy)]
pub(crate) struct Tuning {
    pub outbox_capacity: usize,
    pub courier_capacity: usize,
    pub retransmit_delay: SimDuration,
    pub courier_deadline: SimDuration,
    /// Byte budget for in-flight stream payloads (0 = unlimited; the
    /// out-of-core spill path is off and runs are untouched).
    pub memory_budget_bytes: u64,
    /// Retries granted to a failing spill write or fault-in read before
    /// the degradation ladder takes over.
    pub storage_retry_budget: u32,
    /// Seal every spill frame with an FNV-64 checksum verified on
    /// fault-in (8 bytes per frame; detects any single-bit corruption).
    pub checksum_spills: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            outbox_capacity: DEFAULT_OUTBOX_CAPACITY,
            courier_capacity: DEFAULT_COURIER_CAPACITY,
            retransmit_delay: DEFAULT_RETRANSMIT_DELAY,
            courier_deadline: DEFAULT_COURIER_DEADLINE,
            memory_budget_bytes: 0,
            storage_retry_budget: crate::storage::DEFAULT_STORAGE_RETRY_BUDGET,
            checksum_spills: true,
        }
    }
}

/// The executor a [`Run`] uses, chosen at configuration time. Every
/// variant converts via `From`, so `Run::executor` accepts any executor
/// value directly.
pub enum ExecutorChoice {
    /// Deterministic virtual-time execution on the hetsim engine.
    Sim(SimExecutor),
    /// Wall-clock execution on real OS threads, one per copy.
    Native(NativeExecutor),
    /// Wall-clock execution on waker-parked tasks multiplexed over a
    /// small worker pool (the massive fan-out substrate).
    Tasked(TaskedExecutor),
}

impl From<SimExecutor> for ExecutorChoice {
    fn from(e: SimExecutor) -> Self {
        ExecutorChoice::Sim(e)
    }
}

impl From<NativeExecutor> for ExecutorChoice {
    fn from(e: NativeExecutor) -> Self {
        ExecutorChoice::Native(e)
    }
}

impl From<TaskedExecutor> for ExecutorChoice {
    fn from(e: TaskedExecutor) -> Self {
        ExecutorChoice::Tasked(e)
    }
}

/// A deferred simulation-setup hook (the `Run::setup` option).
type SetupFn = Box<dyn FnOnce(&mut Simulation)>;

/// Builder for one pipeline run: the one entry point, in which every
/// option can be combined (e.g. trace + faults + custom setup in the same
/// run).
///
/// Defaults: one unit of work, the virtual-time [`SimExecutor`], no trace,
/// no faults, and the documented default capacities.
pub struct Run {
    graph: AppGraph,
    uows: u32,
    trace: Option<hetsim::Trace>,
    faults: Option<FaultOptions>,
    setup: Option<SetupFn>,
    executor: ExecutorChoice,
    tuning: Tuning,
}

impl Run {
    /// Configure a run of `graph` with the defaults above.
    pub fn new(graph: AppGraph) -> Self {
        Run {
            graph,
            uows: 1,
            trace: None,
            faults: None,
            setup: None,
            executor: ExecutorChoice::Sim(SimExecutor::new()),
            tuning: Tuning::default(),
        }
    }

    /// Execute `n` consecutive units of work. Every filter copy runs the
    /// full `init` → `process` → `finalize` cycle once per UOW (selecting
    /// its work via [`crate::context::FilterCtx::uow`]); end-of-work
    /// markers flow in-band on the streams, and a global barrier separates
    /// cycles (the next UOW starts only after every copy finished the
    /// previous one, like the paper's per-query execution).
    pub fn uows(mut self, n: u32) -> Self {
        self.uows = n;
        self
    }

    /// Record per-copy compute and read-wait spans into `trace` for
    /// timeline inspection. Works on both substrates (wall-clock spans
    /// under the native executor).
    pub fn trace(mut self, trace: hetsim::Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Inject the faults scheduled in `opts` and run the recovery
    /// machinery: liveness-timeout death detection, writer-side eviction
    /// of dead consumer hosts, end-of-work accounting that tolerates dead
    /// producer copies, and replay of unacknowledged demand-driven buffers
    /// from dead copy sets to survivors. The returned report's
    /// [`RunReport::faults`] records what was injected and repaired.
    ///
    /// Works on both substrates: the same plan runs bit-reproducibly on
    /// the virtual-time executor and in wall-clock time on the native
    /// executor (use [`crate::fault::NativeFaultPlan`] to build options
    /// for the latter). NIC degradation (`degrade_nic`) uses the
    /// simulation's bandwidth drivers under virtual time; the native
    /// executor emulates the same windows by stalling senders for the
    /// degraded fraction of each message's serialization time.
    ///
    /// With [`crate::fault::Recovery::Lossless`] the runtime additionally
    /// retains sent buffers until consumers settle them, replays retained
    /// replicas after crashes and supervised restarts, and dedups
    /// redeliveries by sequence number — a crashed-and-recovered run then
    /// reports `buffers_lost == 0` and produces output identical to a
    /// fault-free run.
    ///
    /// Two caveats on the reported `elapsed` under a plan with crashes: a
    /// crash scheduled after the pipeline naturally finishes extends the
    /// run to roughly the crash time (the reaper waits for it), and even a
    /// triggered crash adds up to one liveness-timeout of teardown.
    pub fn faults(mut self, opts: FaultOptions) -> Self {
        self.faults = Some(opts);
        self
    }

    /// Spawn auxiliary processes into the pipeline's simulation before it
    /// starts — e.g. a [`hetsim::spawn_load_generator`] storming a host
    /// *while the pipeline runs*, the "varying resource availability"
    /// scenario of the paper. Virtual-time only.
    ///
    /// Note: the run ends when every process — including auxiliaries — has
    /// finished, so an auxiliary outliving the pipeline extends the
    /// reported `elapsed`.
    pub fn setup(mut self, setup: impl FnOnce(&mut Simulation) + 'static) -> Self {
        self.setup = Some(Box::new(setup));
        self
    }

    /// Choose the execution substrate (accepts a [`SimExecutor`] or
    /// [`NativeExecutor`] value directly).
    pub fn executor(mut self, executor: impl Into<ExecutorChoice>) -> Self {
        self.executor = executor.into();
        self
    }

    /// Capacity of each per-copy outbox (default
    /// [`DEFAULT_OUTBOX_CAPACITY`]).
    pub fn outbox_capacity(mut self, capacity: usize) -> Self {
        self.tuning.outbox_capacity = capacity;
        self
    }

    /// Capacity of the per-copy-set ack courier queues (default
    /// [`DEFAULT_COURIER_CAPACITY`]).
    pub fn courier_capacity(mut self, capacity: usize) -> Self {
        self.tuning.courier_capacity = capacity;
        self
    }

    /// Back-off before re-sending a message the fault plan dropped
    /// (default [`DEFAULT_RETRANSMIT_DELAY`]).
    pub fn retransmit_delay(mut self, delay: SimDuration) -> Self {
        self.tuning.retransmit_delay = delay;
        self
    }

    /// Deadline for handing an acknowledgment to a full courier queue
    /// before the run fails with [`RunError::CourierStall`] (default
    /// [`DEFAULT_COURIER_DEADLINE`]; native executor only — the
    /// deterministic substrate keeps the original blocking send).
    pub fn courier_deadline(mut self, deadline: SimDuration) -> Self {
        self.tuning.courier_deadline = deadline;
        self
    }

    /// Bound the bytes of in-flight stream payloads to `bytes`, split
    /// evenly across the graph's streams (TPIE-style explicit memory
    /// management). A stream whose queued spillable payloads exceed its
    /// share parks the overflow in a run-wide spill ring (one unlinked
    /// temp file) and faults it back in at the reader; under the
    /// virtual-time executor both directions are charged to the host's
    /// disk model. Only payloads built with
    /// [`crate::BufferSlab::make_spillable`] participate — everything
    /// else stays resident. `0` (the default) disables the out-of-core
    /// path entirely; results are bit-identical either way, only timing
    /// and the [`RunReport::ooc`](crate::RunReport) tallies change.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.tuning.memory_budget_bytes = bytes;
        self
    }

    /// Retries granted to a failing spill write or fault-in read before
    /// the storage degradation ladder takes over (default
    /// [`crate::storage::DEFAULT_STORAGE_RETRY_BUDGET`]). Each retry
    /// sleeps a seeded, jittered, exponentially growing backoff; under
    /// the virtual-time executor the sleeps are deterministic virtual
    /// delays.
    pub fn storage_retries(mut self, budget: u32) -> Self {
        self.tuning.storage_retry_budget = budget;
        self
    }

    /// Seal every spill frame with an FNV-64 checksum verified on
    /// fault-in (default `true`). Costs 8 bytes per spilled frame and a
    /// linear scan each way; guarantees any single-bit corruption of a
    /// parked frame is detected rather than silently decoded.
    pub fn checksum_spills(mut self, on: bool) -> Self {
        self.tuning.checksum_spills = on;
        self
    }

    /// Execute the run on `topo` and harvest the report.
    pub fn go(self, topo: &Topology) -> Result<RunReport, RunError> {
        assert!(self.uows >= 1, "at least one unit of work");
        assert!(
            self.tuning.outbox_capacity >= 1 && self.tuning.courier_capacity >= 1,
            "channel capacities must be at least 1"
        );
        if self.setup.is_some() && !matches!(self.executor, ExecutorChoice::Sim(_)) {
            return Err(RunError::Unsupported {
                what: "simulation setup hooks require the virtual-time SimExecutor".into(),
            });
        }
        silence_sentinel_panics();
        let opts = RunOpts {
            graph: Arc::new(self.graph),
            uows: self.uows,
            trace: self.trace,
            fault_ctl: self.faults.as_ref().map(FaultCtl::new),
            tuning: self.tuning,
        };
        // Crashes, stalls, drops, delays, degradation windows and
        // supervision are pure time-indexed queries consulted by the
        // runtime machinery, so they work on wall-clock time too
        // (degradation is emulated by sender-side stalls — see
        // `delivery::spawn_sender`). Only the prep below is per executor.
        match self.executor {
            ExecutorChoice::Sim(mut exec) => {
                if let Some(setup) = self.setup {
                    setup(exec.simulation_mut());
                }
                if let Some(ctl) = &opts.fault_ctl {
                    // Spawns the NIC-degradation drivers.
                    ctl.plan.install(exec.simulation_mut(), topo);
                }
                drive(exec, topo, opts)
            }
            ExecutorChoice::Native(exec) => drive(exec, topo, opts),
            ExecutorChoice::Tasked(mut exec) => {
                if let Some(cap) = exec.task_cap() {
                    let copies: usize = opts
                        .graph
                        .filters
                        .iter()
                        .map(|f| f.placement.total_copies() as usize)
                        .sum();
                    if copies > cap {
                        return Err(RunError::Unsupported {
                            what: format!(
                                "graph places {copies} filter copies, max_task_copies is {cap}"
                            ),
                        });
                    }
                    // The knob is measured in *filter copies*; the wiring
                    // below also registers per-stream senders, couriers and
                    // reapers, so the raw task-count guard in
                    // `Executor::run` (meant for direct executor users)
                    // must not re-count those against the same cap.
                    exec.clear_task_cap();
                }
                drive(exec, topo, opts)
            }
        }
    }
}

/// The executor-independent options of a [`Run`], as [`drive`] uses them.
struct RunOpts {
    graph: Arc<AppGraph>,
    uows: u32,
    trace: Option<hetsim::Trace>,
    fault_ctl: Option<Arc<FaultCtl>>,
    tuning: Tuning,
}

/// Wire, run, and harvest on any executor.
fn drive<E: Executor>(mut exec: E, topo: &Topology, opts: RunOpts) -> Result<RunReport, RunError> {
    let RunOpts {
        graph,
        uows,
        trace,
        fault_ctl,
        tuning,
    } = opts;
    let error_cell: ErrorCell = Arc::new(Mutex::new(None));
    // Out-of-core context: one ledger + one storage controller for the
    // whole run, created only when a budget was configured (the
    // zero-budget fast path allocates nothing). The controller creates
    // the spill ring lazily on the first actual spill, so a budgeted run
    // that never exceeds its shares touches no temp file — and a run
    // whose temp filesystem is unusable only finds out (and degrades
    // through the storage ladder, not an abort) if it really spills.
    let ooc: Option<(
        Arc<crate::budget::MemoryBudget>,
        Arc<crate::storage::StorageCtl>,
    )> = if tuning.memory_budget_bytes > 0 {
        Some((
            crate::budget::MemoryBudget::new(tuning.memory_budget_bytes),
            crate::storage::StorageCtl::new(
                fault_ctl.as_ref().map(|c| c.plan.clone()),
                tuning.storage_retry_budget,
                tuning.checksum_spills,
            ),
        ))
    } else {
        None
    };
    let wiring = spawn::build(
        &mut exec,
        topo,
        &graph,
        uows,
        trace,
        fault_ctl.clone(),
        error_cell.clone(),
        &tuning,
        ooc.clone(),
    );

    let stats = match exec.run() {
        Ok(stats) => stats,
        Err(e) => {
            // A process that recorded a structured error aborts the run
            // with a sentinel panic; surface the recorded error instead of
            // the raw substrate failure.
            if let Some(recorded) = error_cell.lock().take() {
                return Err(recorded);
            }
            return Err(RunError::Sim(e));
        }
    };

    let copies = wiring
        .copy_cells
        .into_iter()
        .map(|(filter, filter_name, copy_index, host, cell)| CopyReport {
            filter,
            filter_name,
            copy_index,
            host,
            counters: cell.lock().clone(),
        })
        .collect();

    let streams = wiring
        .stream_sets
        .into_iter()
        .enumerate()
        .map(|(i, sets)| StreamReport {
            stream: crate::graph::StreamId(i as u32),
            stream_name: graph.streams[i].name.clone(),
            copysets: sets
                .into_iter()
                .map(|(h, c)| (h, c.lock().clone()))
                .collect(),
        })
        .collect();

    let mut boundaries = std::mem::take(&mut *wiring.uow_boundaries.lock());
    boundaries.sort_unstable();

    let mut faults_report = match &fault_ctl {
        Some(ctl) => {
            let t = ctl.tallies.lock();
            FaultReport {
                injected: ctl.plan.describe(),
                copies_killed: t.copies_killed,
                buffers_replayed: t.buffers_replayed,
                bytes_replayed: t.bytes_replayed,
                buffers_lost: t.buffers_lost,
                bytes_lost: t.bytes_lost,
                retransmits: t.retransmits,
                restarts: t.restarts,
                copies_wedged: t.copies_wedged,
                messages_delayed: t.messages_delayed,
                buffers_redelivered: t.buffers_redelivered,
                bytes_redelivered: t.bytes_redelivered,
                duplicates_suppressed: t.duplicates_suppressed,
                retention_evicted: t.retention_evicted,
                restart_events: t.restart_events.clone(),
                degraded: t.buffers_lost > 0 || t.copies_wedged > 0,
                ..FaultReport::default()
            }
        }
        None => FaultReport::default(),
    };
    if let Some((_, storage)) = &ooc {
        // The storage plane tallies independently of the fault machinery
        // — retries and denials fire (and report) even on plan-free runs
        // where the temp filesystem itself misbehaves.
        faults_report.disk_errors_injected = storage.disk_errors_injected();
        faults_report.storage_retries = storage.storage_retries();
        faults_report.spills_denied = storage.spills_denied();
        faults_report.corruptions_detected = storage.corruptions_detected();
        faults_report.storage_events = storage.events();
    }

    let ooc_report = match &ooc {
        Some((ledger, storage)) => crate::metrics::OocReport {
            memory_budget_bytes: ledger.total(),
            spills: storage.spills(),
            spill_bytes: storage.spill_bytes(),
            faults: storage.faults(),
            fault_bytes: storage.fault_bytes(),
            granted_bytes: ledger.granted(),
            released_bytes: ledger.released(),
        },
        None => crate::metrics::OocReport::default(),
    };

    Ok(RunReport {
        elapsed: stats.end_time - SimTime::ZERO,
        events: stats.events,
        deferred_wakes: stats.deferred_wakes,
        uow_boundaries: boundaries,
        copies,
        streams,
        faults: faults_report,
        ooc: ooc_report,
    })
}

/// Keep the process-wide panic hook from printing "thread panicked"
/// noise for panics the runtime handles itself: the two *sentinel*
/// panics — the [`KilledMarker`] unwinding a crashed filter copy (caught
/// at the copy's spawn wrapper) and the [`crate::fault::ABORT_MSG`]
/// abort after a structured [`RunError`] was recorded (mapped back to
/// the cell's contents) — plus any panic raised inside a filter-callback
/// containment scope, which the copy wrapper converts to a structured
/// error or a supervised restart. Real panics elsewhere still reach the
/// previous hook untouched.
fn silence_sentinel_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let sentinel = payload.is::<KilledMarker>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s == crate::fault::ABORT_MSG)
                || crate::fault::panics_contained();
            if !sentinel {
                prev(info);
            }
        }));
    });
}
