//! The cooperative [`datacutter::TaskedExecutor`] against the simulator
//! and the thread-per-copy native executor: the same application graph,
//! multiplexed as waker-parked tasks over a deliberately tiny worker
//! pool, must produce bit-identical rendered images under every writer
//! policy — and recover losslessly from seeded crashes. The pool sizes
//! here (1–2 workers) are chosen to force heavy oversubscription: every
//! blocking read/write must release its admission slot, or the suite
//! deadlocks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datacutter::{
    DataBuffer, FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, NativeFaultPlan,
    Placement, Run, RunError, SimExecutor, SupervisorPolicy, TaskedExecutor, WritePolicy,
};
use dcapp::{
    lossless_options, reference_image, run_pipeline_exec, Algorithm, Grouping, PipelineSpec,
};
use hetsim::{FaultPlan, SimDuration, SimTime};
use integration_tests::{cluster, recovery_digest, test_cfg, test_dataset};
use parking_lot::Mutex;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn spec(hosts: &[hetsim::HostId], policy: WritePolicy, alg: Algorithm) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(hosts),
        },
        algorithm: alg,
        policy,
        merge_host: hosts[0],
    }
}

/// `R–E–Ra–M` with the extract stage replicated on hosts 1 and 2, the
/// same shape as the `recovery.rs` lossless matrix.
fn recovery_spec(hosts: &[hetsim::HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&[hosts[1], hosts[2]]),
            raster: Placement::on_host(hosts[3], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy,
        merge_host: hosts[4],
    }
}

/// The equivalence property on the cooperative substrate: for each
/// writer policy and both rendering algorithms, the pipeline renders the
/// exact same image on the simulator and on a two-worker task pool, and
/// both match the sequential reference.
#[test]
fn sim_and_tasked_render_identical_images_all_policies() {
    let (topo, hosts) = cluster(3);
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let reference = reference_image(&cfg);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
            let s = spec(&hosts, policy, alg);
            let sim = run_pipeline_exec(&topo, &cfg, &s, SimExecutor::new()).unwrap();
            let tasked =
                run_pipeline_exec(&topo, &cfg, &s, TaskedExecutor::with_workers(2)).unwrap();
            assert_eq!(
                sim.image.diff_pixels(&reference),
                0,
                "sim image diverged from reference ({} {alg:?})",
                policy.label()
            );
            assert_eq!(
                tasked.image.diff_pixels(&reference),
                0,
                "tasked image diverged from reference ({} {alg:?})",
                policy.label()
            );
            assert_eq!(
                tasked.image.diff_pixels(&sim.image),
                0,
                "tasked vs sim pixels differ ({} {alg:?})",
                policy.label()
            );
            // Tasked runs report wall-clock elapsed and no virtual events.
            assert_eq!(tasked.report.events, 0);
            assert!(sim.report.events > 0);
        }
    }
}

/// Oversubscription stress: 8 transparent raster copies plus read and
/// merge stages — well over a dozen tasks — multiplexed over a single
/// admission slot, repeatedly. Progress requires that every parked task
/// hands its slot to a runnable one.
#[test]
fn tasked_stress_many_copies_on_one_worker() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(13), hosts.clone(), 96);
    let reference = reference_image(&cfg);
    // 4 hosts x 2 copies = 8 raster copies.
    let s = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement {
                per_host: hosts.iter().map(|&h| (h, 2)).collect(),
            },
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };
    for round in 0..3 {
        let r = run_pipeline_exec(&topo, &cfg, &s, TaskedExecutor::with_workers(1)).unwrap();
        assert_eq!(
            r.image.diff_pixels(&reference),
            0,
            "stress round {round} diverged"
        );
    }
}

/// Multi-UOW cycles (global barrier between units of work) on the task
/// pool: the barrier parks tasks across UOW boundaries, so every cycle's
/// data stays within its cycle even when parties outnumber workers.
#[test]
fn tasked_multi_uow_barrier_cycles() {
    let (topo, hosts) = cluster(2);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    struct UowSrc;
    impl Filter for UowSrc {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..8u32 {
                ctx.write(0, DataBuffer::new(ctx.uow() * 100 + i, 64));
            }
            Ok(())
        }
    }
    struct Gather {
        out: Arc<Mutex<Vec<u32>>>,
    }
    impl Filter for Gather {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                self.out.lock().push(b.downcast::<u32>());
            }
            Ok(())
        }
    }
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| UowSrc);
    let out2 = out.clone();
    let k = g.add_filter("snk", Placement::on_host(hosts[1], 2), move |_| Gather {
        out: out2.clone(),
    });
    g.connect(s, k, WritePolicy::demand_driven());
    let report = Run::new(g.build())
        .uows(3)
        .executor(TaskedExecutor::with_workers(2))
        .go(&topo)
        .unwrap();
    let mut v = out.lock().clone();
    v.sort_unstable();
    let mut want: Vec<u32> = (0..3u32)
        .flat_map(|u| (0..8u32).map(move |i| u * 100 + i))
        .collect();
    want.sort_unstable();
    assert_eq!(v, want);
    // Two inter-UOW barrier boundaries on the wall clock.
    assert_eq!(report.uow_boundaries.len(), 2);
    assert!(report.uow_boundaries[0] <= report.uow_boundaries[1]);
}

/// A failing filter on the task pool surfaces the same structured error
/// a simulated or native run would.
#[test]
fn tasked_filter_error_is_structured() {
    let (topo, hosts) = cluster(1);
    struct Bad;
    impl Filter for Bad {
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            Err(FilterError("tasked boom".into()))
        }
    }
    let mut g = GraphBuilder::new();
    g.add_filter("bad", Placement::on_host(hosts[0], 1), |_| Bad);
    match Run::new(g.build())
        .executor(TaskedExecutor::with_workers(1))
        .go(&topo)
    {
        Err(RunError::Filter {
            filter, message, ..
        }) => {
            assert_eq!(filter, "bad");
            assert!(message.contains("tasked boom"));
        }
        other => panic!("expected structured filter error, got {other:?}"),
    }
}

/// Setup hooks (which need the simulation object) are rejected up front
/// with a structured error, and a graph exceeding the executor's task
/// cap is rejected before anything spawns.
#[test]
fn tasked_rejects_setup_and_oversized_graphs() {
    let (topo, hosts) = cluster(2);
    let mk = || {
        let mut g = GraphBuilder::new();
        struct Quiet;
        impl Filter for Quiet {
            fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
                Ok(())
            }
        }
        g.add_filter("quiet", Placement::on_host(hosts[0], 4), |_| Quiet);
        g.build()
    };
    match Run::new(mk())
        .executor(TaskedExecutor::new())
        .setup(|_sim| {})
        .go(&topo)
    {
        Err(RunError::Unsupported { what }) => assert!(what.contains("setup")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // 4 copies against a cap of 3: structured rejection naming the knob.
    match Run::new(mk())
        .executor(TaskedExecutor::new().max_tasks(3))
        .go(&topo)
    {
        Err(RunError::Unsupported { what }) => {
            assert!(what.contains("max_task_copies"), "got: {what}");
            assert!(what.contains('4'), "got: {what}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// Lossless recovery on the cooperative substrate: a dead-from-start
/// crash of one extract host under RR, WRR, and DD completes with
/// `lost == 0` and pixels bit-identical to the fault-free tasked run —
/// the supervised-restart/reaper machinery works when the restarted
/// incarnation is a task, not a dedicated thread.
#[test]
fn tasked_lossless_dead_start_crash_all_policies() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let spec = recovery_spec(&hosts, policy);
        let plan = FaultPlan::new().crash_host(hosts[2], SimTime::ZERO);
        let opts = lossless_options(&cfg, FaultOptions::new(plan).liveness_timeout(ms(2)));
        let clean = dcapp::run_pipeline_exec(&topo, &cfg, &spec, TaskedExecutor::with_workers(2))
            .expect("fault-free tasked run");
        let faulted = dcapp::run_pipeline_faulted_exec(
            &topo,
            &cfg,
            &spec,
            opts,
            TaskedExecutor::with_workers(2),
        )
        .expect("lossless tasked run completes");
        let label = format!("tasked/{}", policy.label());
        let f = &faulted.report.faults;
        assert!(f.copies_killed >= 1, "{label}: the victim must die: {f}");
        assert_eq!(f.buffers_lost, 0, "{label}: lossless loses nothing: {f}");
        assert_eq!(f.bytes_lost, 0, "{label}: {f}");
        assert!(!f.degraded, "{label}: zero loss is not degraded: {f}");
        assert_eq!(
            faulted.image.diff_pixels(&clean.image),
            0,
            "{label}: recovered image must be bit-identical to fault-free"
        );
        assert_eq!(
            recovery_digest(&faulted),
            recovery_digest(&clean),
            "{label}: image+loss digest must match fault-free"
        );
    }
}

/// Mid-run crash on the task pool: the victim extract copy dies a
/// quarter of the way through (scaled from a fault-free run's wall
/// clock), its consumed-but-unsettled buffers are replayed or
/// redelivered to the survivor, and the image stays bit-identical with
/// nothing lost. Wall-clock crash instants are inexact, so unlike the
/// simulator matrix this does not pin the replay tallies — only the
/// lossless contract.
#[test]
fn tasked_lossless_mid_run_crash_recovers() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = recovery_spec(&hosts, WritePolicy::demand_driven());
    // Time the crash off a warm run. The first run also generates the
    // dataset's fields, which made it about 2.7x as long as a warm run on
    // a 2-vCPU host, so a quarter of it can land near the end of the
    // faulted run: after the victim drained its queue (nothing to kill)
    // or after the surviving extract copy finished (no live consumer left
    // for the victim's backlog). Neither is the mid-run crash this test is
    // about.
    dcapp::run_pipeline_exec(&topo, &cfg, &spec, TaskedExecutor::with_workers(2))
        .expect("warm-up tasked run");
    let clean = dcapp::run_pipeline_exec(&topo, &cfg, &spec, TaskedExecutor::with_workers(2))
        .expect("fault-free tasked run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.25);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let opts = lossless_options(&cfg, FaultOptions::new(plan).liveness_timeout(ms(2)));
    let faulted =
        dcapp::run_pipeline_faulted_exec(&topo, &cfg, &spec, opts, TaskedExecutor::with_workers(2))
            .expect("lossless tasked mid-run crash completes");
    let f = &faulted.report.faults;
    assert!(f.copies_killed >= 1, "the victim must die: {f}");
    assert_eq!(f.buffers_lost, 0, "lossless loses nothing: {f}");
    assert_eq!(f.bytes_lost, 0, "{f}");
    assert!(!f.degraded, "zero loss is not degraded: {f}");
    assert_eq!(
        faulted.image.diff_pixels(&clean.image),
        0,
        "recovered image must be bit-identical to fault-free"
    );
    assert_eq!(recovery_digest(&faulted), recovery_digest(&clean));
}

/// The restart timeline labels tasked-substrate incarnations as tasks
/// (not threads): a sink copy panics once, the supervisor restarts it in
/// place on the pool, and the `FaultReport` restart event carries the
/// `task` substrate label instead of the OS-thread default.
#[test]
fn tasked_restart_timeline_labels_tasks() {
    let (topo, hosts) = cluster(2);
    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..16u32 {
                ctx.write(0, DataBuffer::new(i, 64));
            }
            Ok(())
        }
    }
    struct PanicOnce {
        armed: Arc<AtomicBool>,
    }
    impl Filter for PanicOnce {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("seeded one-shot panic");
            }
            while ctx.read(0).is_some() {}
            Ok(())
        }
    }
    let armed = Arc::new(AtomicBool::new(true));
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| Src);
    let armed2 = armed.clone();
    let k = g.add_filter("snk", Placement::on_host(hosts[1], 1), move |_| PanicOnce {
        armed: armed2.clone(),
    });
    g.connect(s, k, WritePolicy::demand_driven());
    let policy = SupervisorPolicy::new()
        .max_restarts(2)
        .backoff(SimDuration::from_micros(50), ms(1));
    let report = Run::new(g.build())
        .executor(TaskedExecutor::with_workers(2))
        .faults(
            NativeFaultPlan::new()
                .supervise(policy)
                .options()
                .liveness_timeout(ms(2)),
        )
        .go(&topo)
        .expect("supervised tasked run completes");
    let f = &report.faults;
    assert_eq!(f.restarts, 1, "{f}");
    assert_eq!(f.copies_killed, 0, "restart rescued the copy: {f}");
    assert!(!f.restart_events.is_empty());
    for e in &f.restart_events {
        assert_eq!(
            e.worker, "task",
            "tasked-substrate restarts must be labelled as tasks: {f}"
        );
    }
}
