//! The [`datacutter::Run`] builder: option composition (trace + faults +
//! setup in one run), the promoted tuning knobs, and defaults that match
//! the same options spelled out.

use std::sync::Arc;

use datacutter::{
    DataBuffer, FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run,
    SimExecutor, WritePolicy, DEFAULT_COURIER_CAPACITY, DEFAULT_OUTBOX_CAPACITY,
    DEFAULT_RETRANSMIT_DELAY,
};
use hetsim::{spawn_load_generator, FaultPlan, LoadProfile, SimDuration, SimTime, Topology, Trace};
use integration_tests::cluster;
use parking_lot::Mutex;

struct Src {
    n: u32,
}
impl Filter for Src {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            ctx.compute(SimDuration::from_millis(2));
            ctx.write(0, DataBuffer::new(i, 1024));
        }
        Ok(())
    }
}

struct Work;
impl Filter for Work {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            let v = b.downcast::<u32>();
            ctx.compute(SimDuration::from_millis(6));
            ctx.write(0, DataBuffer::new(v, 1024));
        }
        Ok(())
    }
}

struct Snk {
    out: Arc<Mutex<Vec<u32>>>,
}
impl Filter for Snk {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            self.out.lock().push(b.downcast::<u32>());
        }
        Ok(())
    }
}

fn workload(
    topo: &Topology,
    hosts: &[hetsim::HostId],
    n: u32,
) -> (datacutter::AppGraph, Arc<Mutex<Vec<u32>>>) {
    let _ = topo;
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Src { n });
    let w = g.add_filter(
        "work",
        Placement::one_per_host(&[hosts[1], hosts[2]]),
        |_| Work,
    );
    let out2 = out.clone();
    let k = g.add_filter("snk", Placement::on_host(hosts[0], 1), move |_| Snk {
        out: out2.clone(),
    });
    g.connect(s, w, WritePolicy::demand_driven());
    g.connect(w, k, WritePolicy::RoundRobin);
    (g.build(), out)
}

/// One run combining a trace, an injected host crash, AND a custom setup
/// hook (a mid-run CPU storm).
#[test]
fn trace_faults_and_setup_combine_in_one_run() {
    let (topo, hosts) = cluster(3);
    let (graph, out) = workload(&topo, &hosts, 40);
    let trace = Trace::new();
    let crash_at = SimTime::ZERO + SimDuration::from_millis(40);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let storm_cpu = topo.host(hosts[1]).cpu.clone();
    let report = Run::new(graph)
        .trace(trace.clone())
        .faults(FaultOptions::new(plan))
        .setup(move |sim| {
            let profile = LoadProfile {
                steps: vec![
                    (SimDuration::from_millis(20), 0),
                    (SimDuration::from_millis(100), 8),
                ],
            };
            spawn_load_generator(sim, "storm", storm_cpu, profile);
        })
        .go(&topo)
        .unwrap();
    // The crash happened and was recovered (DD replay loses nothing).
    let f = &report.faults;
    assert!(!f.injected.is_empty());
    assert!(f.copies_killed >= 1, "{f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    // Every item was still delivered exactly once.
    let mut v = out.lock().clone();
    v.sort_unstable();
    assert_eq!(v, (0..40).collect::<Vec<u32>>());
    // And the trace saw the copies working.
    let busy = trace.busy_by_label();
    let labels: Vec<&str> = busy.iter().map(|(l, _)| l.as_str()).collect();
    assert!(labels.contains(&"compute"), "{labels:?}");
    assert!(labels.contains(&"read-wait"), "{labels:?}");
}

/// The courier queue bound (formerly a silent `1 << 16`) is behaviourally
/// inert: DD windows cap outstanding acks far below the default bound, so
/// tightening or widening it leaves the run bit-identical.
#[test]
fn courier_capacity_default_is_behaviour_neutral() {
    let run = |cap: usize| {
        let (topo, hosts) = cluster(3);
        let (graph, _out) = workload(&topo, &hosts, 30);
        Run::new(graph).courier_capacity(cap).go(&topo).unwrap()
    };
    let tight = run(DEFAULT_COURIER_CAPACITY);
    let wide = run(1 << 16);
    assert_eq!(tight.elapsed, wide.elapsed);
    assert_eq!(tight.events, wide.events);
}

/// A larger outbox deepens the compute/transfer overlap; the run must
/// still deliver everything and never run slower.
#[test]
fn outbox_capacity_is_tunable() {
    let run = |cap: usize| {
        let (topo, hosts) = cluster(3);
        let (graph, out) = workload(&topo, &hosts, 30);
        let report = Run::new(graph).outbox_capacity(cap).go(&topo).unwrap();
        let delivered = out.lock().len();
        (report, delivered)
    };
    let (small, n_small) = run(1);
    let (big, n_big) = run(8);
    assert_eq!(n_small, 30);
    assert_eq!(n_big, 30);
    assert!(big.elapsed <= small.elapsed);
}

/// A run on the builder's defaults equals the same run with every default
/// spelled out: virtual-time determinism makes the equivalence exact.
#[test]
fn explicit_defaults_match_builder_defaults() {
    let run_defaults = || {
        let (topo, hosts) = cluster(3);
        let (graph, _) = workload(&topo, &hosts, 25);
        Run::new(graph).uows(2).go(&topo).unwrap()
    };
    let run_explicit = || {
        let (topo, hosts) = cluster(3);
        let (graph, _) = workload(&topo, &hosts, 25);
        Run::new(graph)
            .uows(2)
            .executor(SimExecutor::new())
            .outbox_capacity(DEFAULT_OUTBOX_CAPACITY)
            .courier_capacity(DEFAULT_COURIER_CAPACITY)
            .retransmit_delay(DEFAULT_RETRANSMIT_DELAY)
            .go(&topo)
            .unwrap()
    };
    let a = run_defaults();
    let b = run_explicit();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events, b.events);
    assert_eq!(a.uow_boundaries, b.uow_boundaries);
}
