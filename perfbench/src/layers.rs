//! Serial replays of each layer on a workload's own inputs, timed from
//! outside through the crates' public functions, plus three stand-alone
//! layer probes: a no-op filter graph, a checksummed disk store, and the
//! simulator on the paper's Figure 5 set-up.

use std::path::Path;
use std::time::Instant;

use datacutter::{DataBuffer, Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run};
use datacutter::{TaskedExecutor, WritePolicy};
use dcapp::Algorithm;
use isosurf::{ActivePixelBuffer, Triangle, WinningPixel, ZBuffer};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use volume::FileId;

use crate::workload::{self, digest, nproc, Bench};

/// What the serial replay of one render did.
pub struct Replay {
    /// Bytes `Dataset::read_chunk` returned, as the disk model counts them.
    pub bytes_read: u64,
    /// Cells extracted.
    pub cells: u64,
    /// Triangles extracted.
    pub triangles: u64,
    /// Pixel candidates rasterized.
    pub pixels: u64,
    /// Whether the replayed image matches the reference image.
    pub image_ok: bool,
}

/// Replay the query serially, one span per call: read and extract every
/// chunk in the read filters' order, rasterize the triangles in
/// `tri_batch` batches dealt round-robin over the workload's raster
/// copies, then merge each copy's partial into one image.
pub fn replay(b: &Bench, tr: &mut Tracer) -> Replay {
    let cfg = &b.cfg;
    let selected = cfg.selected_chunks();
    let mut out = Replay {
        bytes_read: 0,
        cells: 0,
        triangles: 0,
        pixels: 0,
        image_ok: false,
    };
    let root = tr.begin("replay", None);
    let mut tris: Vec<Triangle> = Vec::new();
    for node in 0..cfg.storage_hosts.len() {
        for (chunk, _) in cfg.chunks_for_node(node) {
            if !selected.contains(&chunk) {
                continue;
            }
            let grid = tr.span("volume.read_chunk", |_| {
                cfg.dataset.read_chunk(cfg.species, cfg.timestep, chunk)
            });
            out.bytes_read += cfg.dataset.chunk_bytes(chunk);
            let origin = cfg.dataset.chunk_info(chunk).cell_origin;
            let stats = tr.span("isosurf.extract", |_| {
                isosurf::extract(&grid, origin, cfg.iso, &mut tris)
            });
            out.cells += stats.cells;
        }
    }
    out.triangles = tris.len() as u64;

    let (w, h) = (cfg.camera.width, cfg.camera.height);
    let proj = cfg.camera.projector();
    let copies = b.w.raster_copies(b.hosts);
    let mut fin = ZBuffer::new(w, h);
    match b.w.algorithm {
        Algorithm::ActivePixel => {
            let mut aps: Vec<ActivePixelBuffer> = (0..copies)
                .map(|_| ActivePixelBuffer::new(w, cfg.wpa_capacity))
                .collect();
            let mut batches: Vec<Vec<WinningPixel>> = Vec::new();
            for (i, batch) in tris.chunks(cfg.tri_batch).enumerate() {
                let ap = &mut aps[i % copies];
                tr.span("isosurf.raster", |_| {
                    let mut flush = |v: Vec<WinningPixel>| batches.push(v);
                    for t in batch {
                        let plot = |x, y, d, rgb| ap.plot(x, y, d, rgb, &mut flush);
                        out.pixels += isosurf::raster_triangle(&proj, w, h, &cfg.material, t, plot)
                            .unwrap_or(0);
                    }
                });
            }
            for ap in &mut aps {
                ap.force_flush(&mut |v| batches.push(v));
            }
            for batch in &batches {
                tr.span("isosurf.merge", |_| isosurf::merge_batch(&mut fin, batch));
            }
        }
        Algorithm::ZBuffer => {
            let mut zbs: Vec<ZBuffer> = (0..copies).map(|_| ZBuffer::new(w, h)).collect();
            for (i, batch) in tris.chunks(cfg.tri_batch).enumerate() {
                let zb = &mut zbs[i % copies];
                tr.span("isosurf.raster", |_| {
                    for t in batch {
                        let plot = |x, y, d, rgb| {
                            zb.plot(x, y, d, rgb);
                        };
                        out.pixels += isosurf::raster_triangle(&proj, w, h, &cfg.material, t, plot)
                            .unwrap_or(0);
                    }
                });
            }
            for zb in &zbs {
                tr.span("isosurf.merge", |_| {
                    isosurf::merge_rows(&mut fin, 0, &zb.depth, &zb.color)
                });
            }
        }
    }
    out.image_ok = digest(&fin.to_image(isosurf::BACKGROUND)) == b.reference;
    tr.end(root);
    out
}

/// Buffers each source copy of the no-op graph writes.
const PASSTHROUGH_BUFFERS_PER_SOURCE: u64 = 256;
/// Timed runs of the no-op graph; the median is reported.
const PASSTHROUGH_RUNS: usize = 5;
/// Raster copies per host in the no-op graph (`fanout-tasked`'s shape).
const PASSTHROUGH_FANOUT: u32 = 64;
/// Tiles the no-op graph's tile-hash stream spreads buffers over.
const PASSTHROUGH_TILES: u64 = 8;

struct Source;
impl Filter for Source {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..PASSTHROUGH_BUFFERS_PER_SOURCE {
            ctx.write(0, DataBuffer::new(i, 64));
        }
        Ok(())
    }
}

struct ToTile;
impl Filter for ToTile {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            let i = b.downcast::<u64>();
            ctx.write_tile(0, i % PASSTHROUGH_TILES, DataBuffer::new(i, 64));
        }
        Ok(())
    }
}

struct Forward;
impl Filter for Forward {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            ctx.write(0, b);
        }
        Ok(())
    }
}

struct Sink;
impl Filter for Sink {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while ctx.read(0).is_some() {}
        Ok(())
    }
}

/// Delivery cost of the runtime alone: a `RE–Ra–Mt–A`-shaped graph of
/// no-op filters (64 middle copies per host, DD then tile-hash then
/// round-robin streams) on the tasked executor with `nproc` workers.
/// Returns microseconds of `Run::go` wall time per buffer delivered, or
/// an error when a run fails or loses buffers.
pub fn passthrough_us_per_buffer(tr: &mut Tracer) -> Result<f64, String> {
    let root = tr.begin("datacutter.passthrough", None);
    let (topo, hosts) = hetsim::presets::rogue_cluster(nproc());
    let sources = hosts.len() as u64;
    let expected = 3 * sources * PASSTHROUGH_BUFFERS_PER_SOURCE;
    let mut samples = Vec::with_capacity(PASSTHROUGH_RUNS);
    let mut result = Ok(());
    for _ in 0..PASSTHROUGH_RUNS {
        let mut g = GraphBuilder::new();
        let everywhere = Placement::one_per_host(&hosts);
        let fan = Placement {
            per_host: hosts.iter().map(|&h| (h, PASSTHROUGH_FANOUT)).collect(),
        };
        let re = g.add_filter("RE", everywhere.clone(), |_| Source);
        let ra = g.add_filter("Ra", fan, |_| ToTile);
        let mt = g.add_filter("Mt", everywhere, |_| Forward);
        let a = g.add_filter("A", Placement::on_host(hosts[0], 1), |_| Sink);
        g.connect(re, ra, WritePolicy::demand_driven());
        g.connect(ra, mt, WritePolicy::TileHash);
        g.connect(mt, a, WritePolicy::RoundRobin);
        let graph = g.build();
        let t0 = Instant::now();
        let report = tr.span("datacutter.run", |_| {
            Run::new(graph)
                .executor(TaskedExecutor::with_workers(nproc()))
                .go(&topo)
        });
        let secs = t0.elapsed().as_secs_f64();
        match report {
            Ok(r) => {
                let moved: u64 = r.streams.iter().map(|s| s.total_buffers()).sum();
                if moved != expected {
                    result = Err(format!(
                        "no-op graph moved {moved} buffers, expected {expected}"
                    ));
                }
                samples.push(secs * 1e6 / expected as f64);
            }
            Err(e) => result = Err(format!("no-op graph failed: {e}")),
        }
    }
    tr.end(root);
    result.map(|()| median(&samples))
}

/// Slab budget of the disk-store cursors (bytes materialized at a time).
const CURSOR_SLAB_BYTES: usize = 64 * 1024;
/// Timed passes over the disk store; the median rate is reported.
const DISKSTORE_PASSES: usize = 3;

/// Read rate of the `.dcvf` store: write the query's timestep under
/// `dir`, then stream every file back through `ChunkCursor` with record
/// checksums verified. The files were just written, so this is a
/// page-cache-warm rate, not a disk rate. `dir` is removed afterwards.
pub fn diskstore_read_mb_s(b: &Bench, dir: &Path, tr: &mut Tracer) -> Result<f64, String> {
    let root = tr.begin("volume.diskstore", None);
    let result = diskstore_passes(b, dir, tr);
    let _ = std::fs::remove_dir_all(dir);
    tr.end(root);
    result.map_err(|e| format!("disk store: {e}"))
}

fn diskstore_passes(b: &Bench, dir: &Path, tr: &mut Tracer) -> std::io::Result<f64> {
    let cfg = &b.cfg;
    let store = tr.span("volume.diskstore_write", |_| {
        volume::write_dataset(dir, &cfg.dataset, cfg.species, cfg.timestep)
    })?;
    let mut rates = Vec::with_capacity(DISKSTORE_PASSES);
    for _ in 0..DISKSTORE_PASSES {
        let t0 = Instant::now();
        let bytes = tr.span("volume.diskstore_read", |_| -> std::io::Result<u64> {
            let mut bytes = 0u64;
            for f in 0..store.n_files() {
                let mut cursor = store.cursor(FileId(f), CURSOR_SLAB_BYTES)?;
                while cursor.next_chunk()?.is_some() {
                    if let Some((_, grid)) = cursor.assemble_chunk()? {
                        bytes += grid.data.len() as u64 * 4;
                    }
                }
            }
            Ok(bytes)
        })?;
        rates.push(bytes as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    Ok(median(&rates))
}

/// Simulated renders the `hetsim` probe times.
const HETSIM_PROBE_RENDERS: usize = 3;

/// What the `hetsim` probe measured.
pub struct HetsimProbe {
    /// Engine events per render.
    pub events_per_render: f64,
    /// Wall microseconds of `Run::go` per engine event.
    pub us_per_event: f64,
    /// The model's virtual makespan: model output, not a speed.
    pub makespan_s: f64,
}

/// The event engine on its own workload: set up `paper-sim` (the paper's
/// Figure 5 set-up on the simulator) from `seed` and time a few renders,
/// each checked like a timed render (image digest, unchanged makespan).
pub fn hetsim_probe(seed: u64, tr: &mut Tracer) -> Result<HetsimProbe, String> {
    let w = workload::find("paper-sim").expect("paper-sim is a defined workload");
    let root = tr.begin("hetsim.probe", None);
    let mut off = Tracer::new(false);
    let result = workload::setup(w, seed, &mut off).and_then(|b| {
        let (mut events, mut go_s) = (0u64, 0.0);
        let mut failures = b.warmup_failures.clone();
        for _ in 0..HETSIM_PROBE_RENDERS {
            let r = workload::render(&b, &mut off, None);
            failures.extend(r.failures);
            events += r.report.map_or(0, |rep| rep.events);
            go_s += r.go_s;
        }
        if let Some(f) = failures.first() {
            return Err(format!("hetsim probe: {f}"));
        }
        Ok(HetsimProbe {
            events_per_render: events as f64 / HETSIM_PROBE_RENDERS as f64,
            us_per_event: go_s * 1e6 / events.max(1) as f64,
            makespan_s: b.model_makespan.map_or(0.0, |d| d.as_secs_f64()),
        })
    });
    tr.end(root);
    result
}
