//! Property-based tests on the emulation engine and the filter framework:
//! message integrity, FIFO ordering, policy accounting, and determinism
//! under randomized workloads.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use datacutter::{
    DataBuffer, FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run,
    WritePolicy,
};
use hetsim::{
    channel, ClusterSpec, FaultPlan, HostId, HostSpec, SimDuration, SimTime, Simulation,
    TopologyBuilder,
};

fn topology(n: usize) -> (hetsim::Topology, Vec<HostId>) {
    let mut b = TopologyBuilder::new();
    let c = b.add_cluster(ClusterSpec {
        name: "c".into(),
        nic_bandwidth_bps: 50.0e6,
        nic_latency: SimDuration::from_micros(80),
    });
    let hosts = (0..n)
        .map(|i| {
            b.add_host(
                c,
                HostSpec {
                    name: format!("h{i}"),
                    cores: 1 + (i as u32 % 2),
                    speed: 0.5 + 0.25 * (i as f64 % 3.0),
                    mem_mb: 256,
                    disks: 1,
                    disk_bandwidth_bps: 25.0e6,
                    disk_seek: SimDuration::from_millis(5),
                },
            )
        })
        .collect();
    (b.build(), hosts)
}

struct Numbers {
    n: u32,
    delay_us: u64,
}
impl Filter for Numbers {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            ctx.compute(SimDuration::from_micros(self.delay_us));
            ctx.write(0, DataBuffer::new(i, 128));
        }
        Ok(())
    }
}

struct Relay {
    work_us: u64,
}
impl Filter for Relay {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            ctx.compute(SimDuration::from_micros(self.work_us));
            let v = b.downcast::<u32>();
            ctx.write(0, DataBuffer::new(v, 128));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No message is lost or duplicated through a randomized two-stage
    /// pipeline, for any policy / copy-count / host-count combination.
    #[test]
    fn pipelines_never_lose_or_duplicate(
        n_hosts in 2usize..5,
        copies in 1u32..4,
        n_items in 1u32..60,
        policy_sel in 0u8..3,
        src_delay in 0u64..200,
        work in 0u64..400,
    ) {
        let (topo, hosts) = topology(n_hosts);
        let policy = match policy_sel {
            0 => WritePolicy::RoundRobin,
            1 => WritePolicy::WeightedRoundRobin,
            _ => WritePolicy::demand_driven(),
        };
        let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut g = GraphBuilder::new();
        let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Numbers {
            n: n_items,
            delay_us: src_delay,
        });
        let relay_hosts: Vec<HostId> = hosts[1..].to_vec();
        let relay = g.add_filter(
            "relay",
            Placement { per_host: relay_hosts.iter().map(|&h| (h, copies)).collect() },
            move |_| Relay { work_us: work },
        );
        let out2 = out.clone();
        let sink = g.add_filter("sink", Placement::on_host(hosts[0], 1), move |_| Gather {
            out: out2.clone(),
        });
        g.connect(src, relay, policy);
        g.connect(relay, sink, WritePolicy::RoundRobin);
        Run::new(g.build()).go(&topo).unwrap();
        let mut got = out.lock().clone();
        got.sort_unstable();
        let want: Vec<u32> = (0..n_items).collect();
        prop_assert_eq!(got, want);
    }

    /// A single-copy consumer observes each producer's items in FIFO
    /// order regardless of timing.
    #[test]
    fn streams_are_fifo_per_producer(
        n_items in 1u32..50,
        src_delay in 0u64..300,
        work in 0u64..300,
    ) {
        let (topo, hosts) = topology(2);
        let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut g = GraphBuilder::new();
        let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Numbers {
            n: n_items,
            delay_us: src_delay,
        });
        let out2 = out.clone();
        let sink = g.add_filter("sink", Placement::on_host(hosts[1], 1), move |_| Gather {
            out: out2.clone(),
        });
        g.connect(src, sink, WritePolicy::RoundRobin);
        let _ = work;
        Run::new(g.build()).go(&topo).unwrap();
        let got = out.lock().clone();
        let want: Vec<u32> = (0..n_items).collect();
        prop_assert_eq!(got, want); // in order, not just same multiset
    }

    /// The whole framework is deterministic: any random configuration run
    /// twice yields identical virtual end times and event counts.
    #[test]
    fn random_pipelines_are_deterministic(
        n_hosts in 2usize..5,
        copies in 1u32..3,
        n_items in 1u32..40,
        work in 0u64..500,
    ) {
        let run = || {
            let (topo, hosts) = topology(n_hosts);
            let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
            let mut g = GraphBuilder::new();
            let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Numbers {
                n: n_items,
                delay_us: 50,
            });
            let relay = g.add_filter(
                "relay",
                Placement { per_host: hosts[1..].iter().map(|&h| (h, copies)).collect() },
                move |_| Relay { work_us: work },
            );
            let out2 = out.clone();
            let sink = g.add_filter("sink", Placement::on_host(hosts[0], 1), move |_| Gather {
                out: out2.clone(),
            });
            g.connect(src, relay, WritePolicy::demand_driven());
            g.connect(relay, sink, WritePolicy::RoundRobin);
            let report = Run::new(g.build()).go(&topo).unwrap();
            let collected = out.lock().clone();
            (report.elapsed.as_nanos(), report.events, collected)
        };
        prop_assert_eq!(run(), run());
    }

    /// Raw channels: random send/recv interleavings conserve items and
    /// preserve order.
    #[test]
    fn raw_channels_conserve_items(
        cap in 1usize..8,
        n in 1u32..100,
        send_gap in 0u64..50,
        recv_gap in 0u64..50,
    ) {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), cap);
        sim.spawn("tx", move |env| {
            for i in 0..n {
                if send_gap > 0 {
                    env.delay(SimDuration::from_micros(send_gap));
                }
                tx.send(&env, i).unwrap();
            }
        });
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        sim.spawn("rx", move |env| {
            while let Some(v) = rx.recv(&env) {
                if recv_gap > 0 {
                    env.delay(SimDuration::from_micros(recv_gap));
                }
                g2.lock().push(v);
            }
        });
        sim.run().unwrap();
        let want: Vec<u32> = (0..n).collect();
        prop_assert_eq!(got.lock().clone(), want);
    }

    /// CPU conservation: elapsed time for a batch of computations is never
    /// less than total work divided by total capacity.
    #[test]
    fn cpu_elapsed_respects_capacity(
        cores in 1u32..4,
        speed_pct in 25u32..200,
        n_threads in 1usize..5,
        work_ms in 1u64..50,
    ) {
        let speed = speed_pct as f64 / 100.0;
        let cpu = hetsim::Cpu::new(cores, speed);
        let mut sim = Simulation::new();
        for i in 0..n_threads {
            let cpu = cpu.clone();
            sim.spawn(format!("t{i}"), move |env| {
                cpu.compute(&env, SimDuration::from_millis(work_ms));
            });
        }
        let stats = sim.run().unwrap();
        let total_work = work_ms as f64 / 1e3 * n_threads as f64;
        let capacity = cores as f64 * speed;
        let lower_bound = total_work / capacity;
        let elapsed = stats.end_time.as_secs_f64();
        prop_assert!(
            elapsed >= lower_bound * 0.999,
            "elapsed {elapsed} < floor {lower_bound}"
        );
        // And not absurdly more than the serial worst case.
        let upper = total_work / speed + 1e-6;
        prop_assert!(elapsed <= upper * 1.001, "elapsed {elapsed} > ceiling {upper}");
    }
}

/// Case count for the crash-recovery property; the scheduled `fault-heavy`
/// CI job turns the dial up.
#[cfg(feature = "fault-heavy")]
const CRASH_CASES: u32 = 96;
#[cfg(not(feature = "fault-heavy"))]
const CRASH_CASES: u32 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CRASH_CASES))]

    /// Crashing one relay host at a random virtual time under the
    /// demand-driven policy never deadlocks the run, never delivers an
    /// item twice, and — because unacknowledged buffers are replayed to
    /// the surviving copy sets and a dying copy flushes its in-flight
    /// item — never loses one either.
    #[test]
    fn random_crash_never_deadlocks_or_double_delivers(
        n_hosts in 3usize..6,
        copies in 1u32..3,
        n_items in 1u32..60,
        src_delay in 0u64..200,
        work in 50u64..600,
        crash_ms in 0u64..80,
        victim_sel in 0usize..8,
    ) {
        let (topo, hosts) = topology(n_hosts);
        let relay_hosts: Vec<HostId> = hosts[1..].to_vec();
        let victim = relay_hosts[victim_sel % relay_hosts.len()];
        let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut g = GraphBuilder::new();
        let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Numbers {
            n: n_items,
            delay_us: src_delay,
        });
        let relay = g.add_filter(
            "relay",
            Placement { per_host: relay_hosts.iter().map(|&h| (h, copies)).collect() },
            move |_| Relay { work_us: work },
        );
        let out2 = out.clone();
        let sink = g.add_filter("sink", Placement::on_host(hosts[0], 1), move |_| Gather {
            out: out2.clone(),
        });
        g.connect(src, relay, WritePolicy::demand_driven());
        g.connect(relay, sink, WritePolicy::RoundRobin);
        let plan = FaultPlan::new()
            .crash_host(victim, SimTime::ZERO + SimDuration::from_millis(crash_ms));
        let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(10));
        let report = match Run::new(g.build()).faults(opts).go(&topo) {
            Ok(r) => r,
            Err(e) => return Err(format!("faulted run did not complete: {e}")),
        };
        let mut got = out.lock().clone();
        got.sort_unstable();
        let want: Vec<u32> = (0..n_items).collect();
        prop_assert_eq!(
            got,
            want,
            "crash of {:?} at {}ms: replayed {} lost {}",
            victim,
            crash_ms,
            report.faults.buffers_replayed,
            report.faults.buffers_lost
        );
        prop_assert_eq!(report.faults.buffers_lost, 0);
    }
}

// ---- BufferSlab properties -------------------------------------------------

proptest! {
    /// Random interleavings of `make` and `recycle` never alias live
    /// payloads: every outstanding buffer keeps exactly the value it was
    /// built with, even as boxes cycle through the slab's free lists
    /// underneath.
    #[test]
    fn buffer_slab_never_aliases_live_payloads(
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 1..200),
    ) {
        let slab = datacutter::BufferSlab::new();
        let mut live: Vec<(DataBuffer, u64)> = Vec::new();
        let mut token = 0u64;
        for (do_recycle, sel) in ops {
            if do_recycle && !live.is_empty() {
                let (buf, expect) = live.remove(sel as usize % live.len());
                let got: Vec<u64> = slab.recycle(buf);
                prop_assert_eq!(got, vec![expect; 3]);
            } else {
                token += 1;
                live.push((slab.make(vec![token; 3], token), token));
            }
            // If a recycled box were handed out while its previous owner
            // was still live, the overwrite above would corrupt one of
            // these payloads.
            for (buf, expect) in &live {
                prop_assert_eq!(buf.peek::<Vec<u64>>(), Some(&vec![*expect; 3]));
                prop_assert_eq!(buf.wire_bytes(), *expect);
            }
        }
        // Free-list bookkeeping: allocations are bounded by the peak number
        // of simultaneously live buffers, not by the number of makes.
        prop_assert!(slab.allocated() <= token);
    }

    /// Buffers built from recycled boxes carry fresh diagnostics — the new
    /// `wire_bytes` and the new payload's type name, not the previous
    /// occupant's.
    #[test]
    fn buffer_slab_recycled_buffers_keep_diagnostics(wires in prop::collection::vec(1u64..10_000, 1..40)) {
        let slab = datacutter::BufferSlab::new();
        // Seed the free list so every subsequent make reuses a box.
        let seed = slab.make(vec![0u8], 1);
        let _: Vec<u8> = slab.recycle(seed);
        for &w in &wires {
            let b = slab.make(vec![7u8, 8], w);
            prop_assert_eq!(b.wire_bytes(), w);
            prop_assert_eq!(b.peek::<Vec<u8>>(), Some(&vec![7u8, 8]));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                slab.recycle_ctx::<String>(b, "diag probe")
            }))
            .expect_err("mismatched recycle must panic");
            let msg = err.downcast_ref::<String>().expect("string panic payload");
            prop_assert!(msg.contains("diag probe"), "missing context: {}", msg);
            prop_assert!(msg.contains("alloc::vec::Vec<u8>"), "missing actual type: {}", msg);
            prop_assert!(msg.contains(&format!("{w} wire bytes")), "missing wire size: {}", msg);
            // The panicking recycle consumed the box; reseed for the next
            // iteration.
            let seed = slab.make(vec![0u8], 1);
            let _: Vec<u8> = slab.recycle(seed);
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-core data plane properties: the shared chunk cache, the spill
// ring, and the memory-budget ledger. These pin the accounting invariants
// the budgeted pipeline leans on — a cache that overshoots its capacity or
// a ledger that leaks grants would silently defeat the whole budget.

use datacutter::{MemoryBudget, SpillCodec, SpillRing, SpillTicket, StreamOoc};
use volume::{CacheKey, ChunkCache, ChunkId, Dims, RectGrid};

/// Minimal xorshift so scrambled orders derive from one proptest input.
fn scramble(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunk-cache accounting holds after EVERY operation for random
    /// interleavings of inserts (including same-key refreshes that grow or
    /// shrink the entry) and lookups: the hit/miss counters sum to exactly
    /// the lookups we issued, resident bytes never exceed capacity, and a
    /// hit always returns the grid most recently inserted under its key —
    /// never a stale refresh victim or another key's data.
    #[test]
    fn chunk_cache_accounting_holds_after_every_op(
        cap_units in 1u64..5,
        ops in prop::collection::vec((any::<bool>(), 0u32..10, 2u32..7), 1..120),
    ) {
        // Capacity in units of the largest possible entry, so any entry
        // fits alone but small capacities force constant CLOCK churn.
        let unit = Dims::new(6, 6, 6).byte_size();
        let cache = ChunkCache::new(cap_units * unit);
        // Model: last fill value inserted under each key. The cache may
        // hold a subset of the model (evictions), never a superset.
        let mut model: std::collections::HashMap<CacheKey, f32> = Default::default();
        let mut lookups = 0u64;
        for (i, (is_insert, key_sel, side)) in ops.into_iter().enumerate() {
            let key = CacheKey {
                species: key_sel % 2,
                timestep: key_sel / 5,
                chunk: ChunkId(key_sel % 5),
            };
            if is_insert {
                let fill = i as f32;
                let grid = Arc::new(RectGrid::filled(Dims::new(side, side, side), fill));
                prop_assert!(cache.insert(key, grid), "entry sized to fit was rejected");
                model.insert(key, fill);
            } else {
                lookups += 1;
                if let Some(g) = cache.get(key) {
                    prop_assert_eq!(
                        Some(g.data[0]),
                        model.get(&key).copied(),
                        "hit returned a stale or foreign grid"
                    );
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.hits + s.misses, lookups);
            prop_assert!(
                s.resident_bytes <= s.capacity_bytes,
                "resident {} exceeds capacity {}",
                s.resident_bytes,
                s.capacity_bytes
            );
        }
    }

    /// Spill-ring round trips are bit-identical for random payload sizes
    /// and contents, across out-of-order redemption and slot reuse, and
    /// the byte counters conserve (everything spilled is faulted back).
    /// After full drain the coalesced free list must satisfy any
    /// frontier-sized allocation without growing the file.
    #[test]
    fn spill_ring_round_trips_bit_identical(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 1..32),
        order_seed in any::<u64>(),
    ) {
        let mut order_seed = order_seed | 1; // xorshift must not start at 0
        let ring = SpillRing::create().expect("spill ring");
        let mut parked: Vec<(SpillTicket, Vec<u8>)> = payloads
            .iter()
            .map(|p| (ring.spill(p).expect("spill"), p.clone()))
            .collect();
        while !parked.is_empty() {
            let i = (scramble(&mut order_seed) >> 16) as usize % parked.len();
            let (ticket, want) = parked.swap_remove(i);
            prop_assert_eq!(ticket.len() as usize, want.len());
            let got = ring.fault(ticket).expect("fault");
            prop_assert_eq!(got, want, "spilled bytes came back different");
        }
        prop_assert_eq!(ring.spill_bytes(), ring.fault_bytes());
        prop_assert_eq!(ring.spills(), ring.faults());
        // Everything was freed: one more spill of frontier size must slot
        // into the coalesced free space, not extend the file.
        let frontier = ring.frontier_bytes();
        if frontier > 0 {
            let refill = vec![0xA5u8; frontier as usize];
            let t = ring.spill(&refill).expect("refill spill");
            prop_assert_eq!(ring.frontier_bytes(), frontier, "free list failed to coalesce");
            ring.discard(t);
        }
    }

    /// The chunk spill codec survives arbitrary `f32` bit patterns —
    /// NaNs, infinities, negative zero — through a full encode → spill →
    /// fault → decode round trip, bit for bit.
    #[test]
    fn chunk_payload_spill_codec_is_bit_exact(
        origin in (any::<u32>(), any::<u32>(), any::<u32>()),
        nx in 1u32..5,
        ny in 1u32..5,
        nz in 1u32..5,
        bit_seed in any::<u64>(),
    ) {
        let mut bit_seed = bit_seed | 1;
        let n = (nx * ny * nz) as usize;
        let data: Vec<f32> = (0..n)
            .map(|_| f32::from_bits(scramble(&mut bit_seed) as u32))
            .collect();
        let payload = dcapp::ChunkPayload {
            origin,
            grid: RectGrid { dims: Dims { nx, ny, nz }, data },
        };
        let mut bytes = Vec::new();
        payload.spill_encode(&mut bytes);
        let ring = SpillRing::create().expect("spill ring");
        let ticket = ring.spill(&bytes).expect("spill");
        let back = ring.fault(ticket).expect("fault");
        let decoded = dcapp::ChunkPayload::spill_decode(&back).expect("decode");
        prop_assert_eq!(decoded.origin, payload.origin);
        prop_assert_eq!(decoded.grid.dims, payload.grid.dims);
        let want: Vec<u32> = payload.grid.data.iter().map(|f| f.to_bits()).collect();
        let got: Vec<u32> = decoded.grid.data.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(got, want, "f32 bit patterns drifted through the spill path");
    }

    /// Ledger conservation: for any interleaving of charges and
    /// discharges, `granted − released == resident` on the run-wide
    /// ledger, the stream's resident count matches its outstanding
    /// payloads exactly, and the spill verdict flips precisely when the
    /// stream crosses its share.
    #[test]
    fn memory_budget_conserves_bytes(
        share in 1u64..10_000,
        ops in prop::collection::vec((any::<bool>(), 1u64..5_000), 1..200),
    ) {
        let ledger = MemoryBudget::new(share * 4);
        let stream = StreamOoc::new(ledger.clone(), datacutter::StorageCtl::healthy(), share);
        let mut outstanding: Vec<u64> = Vec::new();
        for (is_charge, bytes) in ops {
            if is_charge || outstanding.is_empty() {
                let over = stream.charge(bytes);
                outstanding.push(bytes);
                let resident: u64 = outstanding.iter().sum();
                prop_assert_eq!(over, resident > share, "spill verdict disagrees with share");
            } else {
                let bytes = outstanding.pop().expect("non-empty");
                stream.discharge(bytes);
            }
            let expect: u64 = outstanding.iter().sum();
            prop_assert_eq!(stream.resident(), expect);
            prop_assert_eq!(ledger.resident(), expect);
            prop_assert_eq!(ledger.granted() - ledger.released(), ledger.resident());
        }
        // Drain: a balanced ledger ends exactly where it started.
        for bytes in outstanding.drain(..) {
            stream.discharge(bytes);
        }
        prop_assert_eq!(stream.resident(), 0);
        prop_assert_eq!(ledger.granted(), ledger.released());
    }
}

// ---------------------------------------------------------------------------
// Self-healing storage plane properties: every spill frame the budgeted
// pipeline parks is sealed with an 8-byte FNV-1a trailer. The contract the
// recovery ladder leans on is that *any* single bit flip anywhere in a
// sealed frame — payload or trailer — is detected at fault-in (FNV-1a's
// xor-then-odd-multiply step is injective, so one changed byte can never
// cancel out), and that sealing is stable under re-spill: fault a frame
// in, decode it, encode and seal it again, and the bytes are identical.

use datacutter::{open_frame, seal_frame};
use dcapp::{ChunkPayload, RaOut, TriBatch};
use isosurf::{Triangle, WinningPixel};

/// Encode `p` with its spill codec and seal the checksum trailer on —
/// exactly what `DataBuffer::spill_frame` produces for the ring.
fn sealed<T: SpillCodec>(p: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    p.spill_encode(&mut frame);
    seal_frame(&mut frame);
    frame
}

/// A chunk payload whose voxels carry arbitrary `f32` bit patterns.
fn chunk_payload(dims: Dims, bit_seed: &mut u64) -> ChunkPayload {
    let n = (dims.nx * dims.ny * dims.nz) as usize;
    ChunkPayload {
        origin: (1, 2, 3),
        grid: RectGrid {
            dims,
            data: (0..n)
                .map(|_| f32::from_bits(scramble(bit_seed) as u32))
                .collect(),
        },
    }
}

/// A triangle batch with arbitrary vertex/normal bit patterns.
fn tri_batch(ntris: usize, bit_seed: &mut u64) -> TriBatch {
    let f = |s: &mut u64| f32::from_bits(scramble(s) as u32);
    let tris: Vec<Triangle> = (0..ntris)
        .map(|_| Triangle {
            v: [
                isosurf::vec3(f(bit_seed), f(bit_seed), f(bit_seed)),
                isosurf::vec3(f(bit_seed), f(bit_seed), f(bit_seed)),
                isosurf::vec3(f(bit_seed), f(bit_seed), f(bit_seed)),
            ],
            normal: isosurf::vec3(f(bit_seed), f(bit_seed), f(bit_seed)),
        })
        .collect();
    TriBatch { tris: tris.into() }
}

/// A raster-output payload in either variant.
fn ra_out(band: bool, entries: usize, bit_seed: &mut u64) -> RaOut {
    if band {
        RaOut::Band {
            y0: (scramble(bit_seed) % 97) as u32,
            width: entries as u32,
            depth: (0..entries)
                .map(|_| f32::from_bits(scramble(bit_seed) as u32))
                .collect::<Vec<_>>()
                .into(),
            color: (0..entries)
                .map(|_| {
                    let b = scramble(bit_seed);
                    [b as u8, (b >> 8) as u8, (b >> 16) as u8]
                })
                .collect::<Vec<_>>()
                .into(),
        }
    } else {
        RaOut::Wpa(
            (0..entries)
                .map(|_| {
                    let b = scramble(bit_seed);
                    WinningPixel {
                        x: b as u16,
                        y: (b >> 16) as u16,
                        depth: f32::from_bits((b >> 32) as u32),
                        rgb: [b as u8, (b >> 8) as u8, (b >> 24) as u8],
                    }
                })
                .collect::<Vec<_>>()
                .into(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip in a sealed `ChunkPayload` frame is detected,
    /// and the untampered frame opens to the exact encoded bits.
    #[test]
    fn sealed_chunk_frames_detect_any_single_bit_flip(
        nx in 1u32..4, ny in 1u32..4, nz in 1u32..4,
        bit_seed in any::<u64>(),
        flip_sel in any::<u64>(),
    ) {
        let mut s = bit_seed | 1;
        let p = chunk_payload(Dims { nx, ny, nz }, &mut s);
        let frame = sealed(&p);
        let body = open_frame(&frame).expect("untampered frame opens");
        let q = ChunkPayload::spill_decode(body).expect("decode");
        let want: Vec<u32> = p.grid.data.iter().map(|f| f.to_bits()).collect();
        let got: Vec<u32> = q.grid.data.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(got, want);
        let bit = flip_sel % (frame.len() as u64 * 8);
        let mut bad = frame.clone();
        bad[(bit / 8) as usize] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&bad).is_err(),
            "flip of bit {} in a {}-byte chunk frame went undetected",
            bit, frame.len()
        );
    }

    /// Any single bit flip in a sealed `TriBatch` frame is detected —
    /// including the empty batch, whose sealed frame is trailer-only.
    #[test]
    fn sealed_tri_frames_detect_any_single_bit_flip(
        ntris in 0usize..5,
        bit_seed in any::<u64>(),
        flip_sel in any::<u64>(),
    ) {
        let mut s = bit_seed | 1;
        let b = tri_batch(ntris, &mut s);
        let frame = sealed(&b);
        let body = open_frame(&frame).expect("untampered frame opens");
        prop_assert_eq!(TriBatch::spill_decode(body).expect("decode").tris.len(), ntris);
        let bit = flip_sel % (frame.len() as u64 * 8);
        let mut bad = frame.clone();
        bad[(bit / 8) as usize] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&bad).is_err(),
            "flip of bit {} in a {}-byte tri frame went undetected",
            bit, frame.len()
        );
    }

    /// Any single bit flip in a sealed `RaOut` frame — either variant —
    /// is detected.
    #[test]
    fn sealed_raout_frames_detect_any_single_bit_flip(
        band in any::<bool>(),
        entries in 0usize..8,
        bit_seed in any::<u64>(),
        flip_sel in any::<u64>(),
    ) {
        let mut s = bit_seed | 1;
        let r = ra_out(band, entries, &mut s);
        let frame = sealed(&r);
        let body = open_frame(&frame).expect("untampered frame opens");
        prop_assert!(RaOut::spill_decode(body).is_some(), "decode");
        let bit = flip_sel % (frame.len() as u64 * 8);
        let mut bad = frame.clone();
        bad[(bit / 8) as usize] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&bad).is_err(),
            "flip of bit {} in a {}-byte raout frame went undetected",
            bit, frame.len()
        );
    }

    /// Re-spill stability for all three codecs: open a sealed frame,
    /// decode it, encode and seal the decoded payload again — the second
    /// sealed frame must be byte-identical to the first, so a payload
    /// that spills, faults in, and spills again never drifts (and its
    /// checksum never changes).
    #[test]
    fn sealing_is_stable_under_re_spill(
        nx in 1u32..4, ny in 1u32..4, nz in 1u32..4,
        ntris in 0usize..5,
        band in any::<bool>(),
        entries in 0usize..8,
        bit_seed in any::<u64>(),
    ) {
        let mut s = bit_seed | 1;
        let chunk = sealed(&chunk_payload(Dims { nx, ny, nz }, &mut s));
        let re = sealed(
            &ChunkPayload::spill_decode(open_frame(&chunk).expect("open")).expect("decode"),
        );
        prop_assert_eq!(&re, &chunk, "chunk frame drifted across a re-spill");
        let tri = sealed(&tri_batch(ntris, &mut s));
        let re = sealed(&TriBatch::spill_decode(open_frame(&tri).expect("open")).expect("decode"));
        prop_assert_eq!(&re, &tri, "tri frame drifted across a re-spill");
        let ra = sealed(&ra_out(band, entries, &mut s));
        let re = sealed(&RaOut::spill_decode(open_frame(&ra).expect("open")).expect("decode"));
        prop_assert_eq!(&re, &ra, "raout frame drifted across a re-spill");
    }
}
