//! The four workloads, their set-up, and one checked render.

use std::sync::Arc;
use std::time::Instant;

use datacutter::{Placement, Run, RunReport, WritePolicy};
use dcapp::{
    build_pipeline, Algorithm, AppConfig, ExecutorKind, Grouping, Pipeline, PipelineSpec,
    SharedConfig,
};
use hetsim::{HostId, SimDuration, Topology};
use perfbench::stats::Failure;
use perfbench::trace::Tracer;
use volume::{Dataset, Dims, RectGrid};

/// Declustered files per dataset, as in the paper.
const N_FILES: u32 = 64;
/// Grid stride of the subsampled field the isovalue is calibrated on.
const CALIBRATION_STRIDE: u32 = 4;
/// Bisection steps of the isovalue calibration.
const CALIBRATION_STEPS: u32 = 16;
/// Background jobs on each Rogue host of the `paper-sim` topology.
const PAPER_SIM_BG_JOBS: u32 = 4;
/// Untimed renders at the end of set-up: they fill the chunk cache and
/// touch the spill path before the timed loop starts.
const WARMUP_RENDERS: u64 = 2;

/// How the workload's pipeline is grouped and placed.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `RE–Ra–M`, one raster copy per host.
    ReRaM,
    /// `RE–Ra–Mt–A` tile-hash compositing, `raster_per_host` raster copies
    /// per host and one tile-merge copy per host.
    TileFanout { raster_per_host: u32 },
    /// `R–ERa–M`, one extract+raster copy per host.
    REraM,
}

/// One benchmark workload: a fixed query over a generated dataset.
#[derive(Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Grid cells per axis.
    pub grid: u32,
    /// Chunks per axis.
    pub chunks_per_axis: u32,
    /// Image width and height.
    pub image: u32,
    /// Triangles the query's isosurface should have (see [`calibrate_iso`]).
    pub triangles: u64,
    /// Grouping and placement.
    pub shape: Shape,
    /// Hidden-surface algorithm.
    pub algorithm: Algorithm,
    /// Execution substrate.
    pub executor: ExecutorKind,
    /// Memory budget, in chunks per stream; 0 leaves the budget off.
    pub budget_chunks_per_stream: u64,
    /// Size the chunk cache to one full timestep; otherwise no cache.
    pub cache_one_timestep: bool,
    /// Run on the half-Rogue/half-Blue mix of the paper's Figure 5 with
    /// background jobs on the Rogue hosts, instead of `nproc` Rogue hosts.
    pub paper_topology: bool,
}

/// Every workload. `BENCHMARK.json` lists the first three, in this order;
/// `paper-sim` runs by hand and as the traced runs' `hetsim` probe.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "render-native",
        grid: 256,
        chunks_per_axis: 16,
        image: 512,
        triangles: 400_000,
        shape: Shape::ReRaM,
        algorithm: Algorithm::ActivePixel,
        executor: ExecutorKind::Native,
        budget_chunks_per_stream: 0,
        cache_one_timestep: false,
        paper_topology: false,
    },
    Workload {
        name: "fanout-tasked",
        grid: 128,
        chunks_per_axis: 16,
        image: 128,
        triangles: 112_000,
        shape: Shape::TileFanout {
            raster_per_host: 64,
        },
        algorithm: Algorithm::ZBuffer,
        executor: ExecutorKind::Tasked,
        budget_chunks_per_stream: 0,
        cache_one_timestep: false,
        paper_topology: false,
    },
    Workload {
        name: "outofcore-native",
        grid: 256,
        chunks_per_axis: 16,
        image: 512,
        triangles: 400_000,
        shape: Shape::REraM,
        algorithm: Algorithm::ActivePixel,
        executor: ExecutorKind::Native,
        budget_chunks_per_stream: 2,
        cache_one_timestep: true,
        paper_topology: false,
    },
    Workload {
        name: "paper-sim",
        grid: 128,
        chunks_per_axis: 16,
        image: 512,
        triangles: 112_000,
        shape: Shape::ReRaM,
        algorithm: Algorithm::ActivePixel,
        executor: ExecutorKind::Sim,
        budget_chunks_per_stream: 0,
        cache_one_timestep: false,
        paper_topology: true,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Logical CPUs of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// Grid cells one render covers.
    pub fn cells(&self) -> u64 {
        u64::from(self.grid).pow(3)
    }

    /// Raster copies (Ra or ERa) the pipeline runs on `hosts` hosts.
    pub fn raster_copies(&self, hosts: usize) -> usize {
        match self.shape {
            Shape::TileFanout { raster_per_host } => hosts * raster_per_host as usize,
            Shape::ReRaM | Shape::REraM => hosts,
        }
    }

    /// Topology, with the hosts holding data and copies and the merge host.
    fn topology(&self) -> (Topology, Vec<HostId>, HostId) {
        if self.paper_topology {
            let (topo, rogues, blues) = hetsim::presets::rogue_blue_mix(2);
            for &h in &rogues {
                topo.host(h).cpu.set_bg_jobs(PAPER_SIM_BG_JOBS);
            }
            let merge = blues[0];
            let mut hosts = rogues;
            hosts.extend(blues);
            (topo, hosts, merge)
        } else {
            let (topo, hosts) = hetsim::presets::rogue_cluster(nproc());
            let merge = hosts[0];
            (topo, hosts, merge)
        }
    }

    fn spec(&self, hosts: &[HostId], merge_host: HostId) -> PipelineSpec {
        let everywhere = Placement::one_per_host(hosts);
        let grouping = match self.shape {
            Shape::ReRaM => Grouping::RERaSplit { raster: everywhere },
            Shape::REraM => Grouping::REraSplit { era: everywhere },
            Shape::TileFanout { raster_per_host } => Grouping::TileComposite {
                raster: Placement {
                    per_host: hosts.iter().map(|&h| (h, raster_per_host)).collect(),
                },
                merge: everywhere,
            },
        };
        PipelineSpec {
            grouping,
            algorithm: self.algorithm,
            policy: WritePolicy::demand_driven(),
            merge_host,
        }
    }
}

/// A set-up workload, ready for timed renders.
pub struct Bench {
    /// The workload.
    pub w: &'static Workload,
    /// Cluster the pipeline is placed on.
    pub topo: Topology,
    /// Shared application config (dataset, query, knobs).
    pub cfg: SharedConfig,
    /// Grouping, placement and policy.
    pub spec: PipelineSpec,
    /// FNV digest of `dcapp::reference_image`.
    pub reference: u64,
    /// Hosts of the pipeline.
    pub hosts: usize,
    /// The simulator's makespan for the query (sim executor only), taken
    /// from the first warm-up render; every later render must match it.
    pub model_makespan: Option<SimDuration>,
    /// Failures of the warm-up renders.
    pub warmup_failures: Vec<Failure>,
}

/// Build the dataset and config, force the field the query reads, build
/// the reference image, and run the untimed warm-up renders.
pub fn setup(w: &'static Workload, seed: u64, tr: &mut Tracer) -> Result<Bench, String> {
    let root = tr.begin("setup", None);
    let (topo, hosts, merge_host) = w.topology();
    let mut cfg = tr.span("volume.generate", |_| {
        let n = w.grid + 1;
        let per = w.chunks_per_axis;
        let dataset = Dataset::generate(Dims::new(n, n, n), (per, per, per), N_FILES, seed);
        let cfg = AppConfig::new(dataset, hosts.clone(), 2, w.image, w.image);
        // Generate the field now: left lazy, the first read of the first
        // render would generate it under the dataset's lock.
        cfg.dataset.field(cfg.species, cfg.timestep);
        cfg
    });
    cfg.iso = tr.span("calibrate_iso", |_| {
        calibrate_iso(&cfg.dataset.field(cfg.species, cfg.timestep), w.triangles)
    });
    let cfg = configure(w, cfg)?;
    let spec = w.spec(&hosts, merge_host);
    let reference = tr.span("dcapp.reference_image", |_| {
        digest(&dcapp::reference_image(&cfg))
    });
    let mut b = Bench {
        w,
        topo,
        cfg,
        spec,
        reference,
        hosts: hosts.len(),
        model_makespan: None,
        warmup_failures: Vec::new(),
    };
    let warm = tr.begin("warmup", None);
    for _ in 0..WARMUP_RENDERS {
        let r = render(&b, tr, None);
        if b.model_makespan.is_none() && w.executor == ExecutorKind::Sim {
            b.model_makespan = r.report.as_ref().map(|r| r.elapsed);
        }
        b.warmup_failures.extend(r.failures);
    }
    tr.end(warm);
    tr.end(root);
    Ok(b)
}

/// The isovalue at which the surface of `field`, extracted on every
/// [`CALIBRATION_STRIDE`]th point, has `triangles` scaled down to that
/// grid. The seed draws plume sizes, so a fixed isovalue would make the
/// surface (and every render's work) vary several-fold between seeds;
/// calibrating holds the triangle count of the full-resolution surface
/// within about 1% of `triangles`, and the seed still decides its shape.
fn calibrate_iso(field: &RectGrid, triangles: u64) -> f32 {
    let k = CALIBRATION_STRIDE;
    let d = field.dims;
    let coarse = RectGrid::from_fn(
        Dims::new((d.nx - 1) / k + 1, (d.ny - 1) / k + 1, (d.nz - 1) / k + 1),
        |x, y, z| field.at(x * k, y * k, z * k),
    );
    let target = triangles / u64::from(k * k);
    let (mut lo, mut hi) = (0.0f32, 1.0f32);
    let mut tris = Vec::new();
    for _ in 0..CALIBRATION_STEPS {
        let mid = (lo + hi) / 2.0;
        tris.clear();
        isosurf::extract_serial(&coarse, (0, 0, 0), mid, &mut tris);
        // Fewer points lie above a higher isovalue: the surface shrinks.
        if tris.len() as u64 > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Apply the workload's knobs to a fresh config and validate it.
fn configure(w: &Workload, mut cfg: AppConfig) -> Result<SharedConfig, String> {
    cfg.executor = w.executor;
    cfg.worker_threads = nproc();
    if w.budget_chunks_per_stream > 0 {
        let largest = (0..cfg.dataset.layout().count())
            .map(|i| cfg.dataset.chunk_bytes(volume::ChunkId(i)))
            .max()
            .unwrap_or(0);
        // The run splits the budget evenly across the pipeline's streams.
        let streams = match w.shape {
            Shape::TileFanout { .. } => 3,
            Shape::ReRaM | Shape::REraM => 2,
        };
        cfg.memory_budget_bytes = w.budget_chunks_per_stream * largest * streams;
    }
    if w.cache_one_timestep {
        cfg.cache_capacity = cfg.dataset.timestep_bytes();
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(Arc::new(cfg))
}

/// One render: its wall time, the run's report, and what its checks found.
pub struct Rendered {
    /// Wall time of `build_pipeline` plus `Run::go`, in milliseconds.
    pub ms: f64,
    /// Wall time of `Run::go` alone, in seconds.
    pub go_s: f64,
    /// The run's report, unless the run failed.
    pub report: Option<RunReport>,
    /// Checks that failed (empty for a good render).
    pub failures: Vec<Failure>,
}

/// Build the pipeline, run it once, and check the image and ledgers.
/// `id` tags the render's spans when tracing.
pub fn render(b: &Bench, tr: &mut Tracer, id: Option<u64>) -> Rendered {
    let root = tr.begin("render", id);
    let t0 = Instant::now();
    let Pipeline { graph, image, .. } =
        tr.span("dcapp.build_pipeline", |_| build_pipeline(&b.cfg, &b.spec));
    let t1 = Instant::now();
    let result = tr.span("datacutter.run", |_| {
        Run::new(graph)
            .memory_budget(b.cfg.memory_budget_bytes)
            .storage_retries(b.cfg.storage_retry_budget)
            .checksum_spills(b.cfg.checksum_spills)
            .executor(dcapp::executor_for(&b.cfg))
            .go(&b.topo)
    });
    let images = std::mem::take(&mut *image.lock());
    let t2 = Instant::now();
    let failures = tr.span("check", |_| check(b, &result, &images));
    tr.end(root);
    Rendered {
        ms: (t2 - t0).as_secs_f64() * 1e3,
        go_s: (t2 - t1).as_secs_f64(),
        report: result.ok(),
        failures,
    }
}

fn check(
    b: &Bench,
    result: &Result<RunReport, datacutter::RunError>,
    images: &[isosurf::Image],
) -> Vec<Failure> {
    let report = match result {
        Ok(r) => r,
        Err(e) => return vec![Failure::Run(e.to_string())],
    };
    let mut out = Vec::new();
    match images {
        [img] => {
            let got = digest(img);
            if got != b.reference {
                out.push(Failure::Image {
                    got,
                    want: b.reference,
                });
            }
        }
        _ => out.push(Failure::Run(format!(
            "run deposited {} images, expected 1",
            images.len()
        ))),
    }
    let ooc = &report.ooc;
    if b.cfg.memory_budget_bytes > 0 {
        if ooc.spills != ooc.faults {
            out.push(Failure::Ledger(format!(
                "{} spills but {} fault-ins",
                ooc.spills, ooc.faults
            )));
        }
        if ooc.resident_bytes() != 0 {
            out.push(Failure::Ledger(format!(
                "{} budget bytes still resident after the run",
                ooc.resident_bytes()
            )));
        }
    }
    if let Some(want) = b.model_makespan {
        if report.elapsed != want {
            out.push(Failure::Ledger(format!(
                "model makespan {:?}, first render {:?}",
                report.elapsed, want
            )));
        }
    }
    out
}

/// FNV-1a over an image's dimensions and pixels (the fold the repository's
/// bit-identity tests pin).
pub fn digest(img: &isosurf::Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &x in bytes {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&u64::from(img.width).to_le_bytes());
    eat(&u64::from(img.height).to_le_bytes());
    for px in &img.data {
        eat(px);
    }
    h
}
