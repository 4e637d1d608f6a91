//! `dcrender` — command-line isosurface renderer on the emulated cluster.
//!
//! ```text
//! cargo run --release -p dcapp --bin dcrender -- \
//!     --nodes 4 --grid 64 --image 512 --iso 0.5 --species 0 --timestep 2 \
//!     --grouping re-ra-m --policy dd --algorithm ap --out render.ppm
//! ```
//!
//! Run with `--help` for the full flag list. `--plan` lets the automatic
//! planner pick grouping/placement/policy instead.

use std::process::exit;
use std::sync::Arc;

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, AppConfig, Grouping, PipelineSpec};
use hetsim::presets::rogue_cluster;
use volume::{Dataset, Dims};

struct Args {
    nodes: usize,
    grid: u32,
    image: u32,
    iso: f32,
    species: u32,
    timestep: u32,
    seed: u64,
    grouping: String,
    policy: String,
    algorithm: String,
    executor: String,
    workers: usize,
    memory_budget: u64,
    cache_capacity: u64,
    prefetch_depth: u32,
    storage_faults: Option<u64>,
    storage_retries: Option<u32>,
    out: String,
    plan: bool,
    verbose: bool,
}

const HELP: &str = "dcrender — isosurface rendering on an emulated heterogeneous cluster

USAGE: dcrender [FLAGS]

  --nodes N        cluster size, at least 1 (default 4)
  --grid N         volume cells per axis, 1..=1024 (default 64)
  --image N        output image width=height (default 512)
  --iso V          isosurface value (default 0.5)
  --species N      chemical species 0..3 (default 0)
  --timestep N     stored timestep 0..9 (default 0)
  --seed N         dataset seed (default 42)
  --grouping G     rera-m | re-ra-m | r-era-m | part (default re-ra-m)
  --policy P       rr | wrr | dd (default dd)
  --algorithm A    zb | ap (default ap)
  --executor E     sim | native | tasked (default sim)
  --workers N      tasked worker-pool size, 0 = core count (default 0)
  --memory-budget B   in-flight stream-buffer byte budget; over-budget
                      streams spill to a temp-file ring, 0 = off (default 0)
  --cache-capacity B  shared decoded-chunk cache bytes, 0 = off (default 0)
  --prefetch-depth N  read-ahead chunks in flight, sim executor only,
                      0 = off (default 0)
  --storage-faults S  inject seeded transient disk errors into the spill
                      ring (seed S); the run retries/degrades through the
                      storage ladder and prints its fault report
  --storage-retries N retry budget per storage op before degrading
                      (default 8, max 64)
  --out PATH       output PPM path (default render.ppm)
  --plan           let the planner choose grouping/placement/policy
  --verbose        print per-copy metrics, plus modelled host
                   utilization under --executor sim
  --help           this text";

/// Largest `--grid`: 1025³ points are already 4.3 GB per generated field.
const MAX_GRID: u32 = 1024;

const USAGE: &str = "usage: dcrender [FLAGS] (dcrender --help lists them)";

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 4,
        grid: 64,
        image: 512,
        iso: 0.5,
        species: 0,
        timestep: 0,
        seed: 42,
        grouping: "re-ra-m".into(),
        policy: "dd".into(),
        algorithm: "ap".into(),
        executor: "sim".into(),
        workers: 0,
        memory_budget: 0,
        cache_capacity: 0,
        prefetch_depth: 0,
        storage_faults: None,
        storage_retries: None,
        out: "render.ppm".into(),
        plan: false,
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            exit(2);
        })
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--nodes" => a.nodes = parse_flag(flag, next(&mut i)),
            "--grid" => a.grid = parse_flag(flag, next(&mut i)),
            "--image" => a.image = parse_flag(flag, next(&mut i)),
            "--iso" => a.iso = parse_flag(flag, next(&mut i)),
            "--species" => a.species = parse_flag(flag, next(&mut i)),
            "--timestep" => a.timestep = parse_flag(flag, next(&mut i)),
            "--seed" => a.seed = parse_flag(flag, next(&mut i)),
            "--grouping" => a.grouping = next(&mut i),
            "--policy" => a.policy = next(&mut i),
            "--algorithm" => a.algorithm = next(&mut i),
            "--executor" => a.executor = next(&mut i),
            "--workers" => a.workers = parse_flag(flag, next(&mut i)),
            "--memory-budget" => a.memory_budget = parse_flag(flag, next(&mut i)),
            "--cache-capacity" => a.cache_capacity = parse_flag(flag, next(&mut i)),
            "--prefetch-depth" => a.prefetch_depth = parse_flag(flag, next(&mut i)),
            "--storage-faults" => a.storage_faults = Some(parse_flag(flag, next(&mut i))),
            "--storage-retries" => a.storage_retries = Some(parse_flag(flag, next(&mut i))),
            "--out" => a.out = next(&mut i),
            "--plan" => a.plan = true,
            "--verbose" => a.verbose = true,
            "--help" | "-h" => {
                println!("{HELP}");
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n\n{HELP}");
                exit(2);
            }
        }
        i += 1;
    }
    // Values that parse but that the cluster and dataset builders reject.
    if a.nodes == 0 {
        invalid("--nodes", "0");
    }
    if !(1..=MAX_GRID).contains(&a.grid) {
        invalid("--grid", &a.grid.to_string());
    }
    a
}

/// Parse `value` given for `flag`, or reject it through [`invalid`].
fn parse_flag<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| invalid(flag, &value))
}

/// Report the flag, its bad value and a usage line, and exit with status 2.
fn invalid(flag: &str, value: &str) -> ! {
    eprintln!("invalid value {value:?} for {flag}\n{USAGE}");
    exit(2);
}

fn main() {
    let args = parse_args();
    let (topo, hosts) = rogue_cluster(args.nodes);

    // Chunk the volume ~16 cells per axis per chunk.
    let per_axis = (args.grid / 16).max(1);
    let dataset = Dataset::generate(
        Dims::new(args.grid + 1, args.grid + 1, args.grid + 1),
        (per_axis, per_axis, per_axis),
        64.min(per_axis.pow(3)).max(1),
        args.seed,
    );
    let mut cfg = AppConfig::new(dataset, hosts.clone(), 2, args.image, args.image);
    cfg.iso = args.iso;
    cfg.species = args.species % volume::SPECIES_COUNT;
    cfg.timestep = args.timestep % volume::TIMESTEPS;
    cfg.material = isosurf::species_material(cfg.species);
    cfg.executor = args.executor.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    cfg.worker_threads = args.workers;
    cfg.memory_budget_bytes = args.memory_budget;
    cfg.cache_capacity = args.cache_capacity;
    cfg.prefetch_depth = args.prefetch_depth;
    if let Some(budget) = args.storage_retries {
        cfg.storage_retry_budget = budget;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        exit(2);
    }
    let cfg = Arc::new(cfg);

    let spec = if args.plan {
        let plan = dcapp::plan(&topo, &cfg, &hosts);
        println!("planner: {}", plan.rationale);
        plan.spec
    } else {
        let everywhere = Placement::one_per_host(&hosts);
        PipelineSpec {
            grouping: match args.grouping.as_str() {
                "rera-m" => Grouping::RERaM,
                "re-ra-m" => Grouping::RERaSplit { raster: everywhere },
                "r-era-m" => Grouping::REraSplit { era: everywhere },
                "part" => Grouping::ImagePartitioned { raster: everywhere },
                g => {
                    eprintln!("unknown grouping {g}");
                    exit(2);
                }
            },
            algorithm: match args.algorithm.as_str() {
                "zb" => Algorithm::ZBuffer,
                "ap" => Algorithm::ActivePixel,
                x => {
                    eprintln!("unknown algorithm {x}");
                    exit(2);
                }
            },
            policy: match args.policy.as_str() {
                "rr" => WritePolicy::RoundRobin,
                "wrr" => WritePolicy::WeightedRoundRobin,
                "dd" => WritePolicy::demand_driven(),
                p => {
                    eprintln!("unknown policy {p}");
                    exit(2);
                }
            },
            merge_host: hosts[0],
        }
    };

    println!(
        "rendering {}^3 cells at {}x{} on {} nodes: {} + {} + {} [{}]",
        args.grid,
        args.image,
        args.image,
        args.nodes,
        spec.grouping.label(),
        spec.policy.label(),
        spec.algorithm.label(),
        cfg.executor
    );
    let r = if let Some(seed) = args.storage_faults {
        // Seeded transient disk errors on every host's spill ring for the
        // whole run window; the storage ladder retries through them, so the
        // image stays bit-identical to a fault-free run.
        let window = hetsim::SimDuration::from_secs(3600);
        let mut chaos = datacutter::NativeFaultPlan::new().storage_seed(seed);
        for &h in &hosts {
            chaos = chaos
                .disk_error(
                    h,
                    hetsim::SimTime::ZERO,
                    window,
                    0.2,
                    hetsim::DiskFaultKind::Write,
                )
                .disk_error(
                    h,
                    hetsim::SimTime::ZERO,
                    window,
                    0.2,
                    hetsim::DiskFaultKind::Read,
                );
        }
        dcapp::run_pipeline_faulted_exec(
            &topo,
            &cfg,
            &spec,
            chaos.options(),
            dcapp::executor_for(&cfg),
        )
    } else {
        dcapp::run_pipeline_exec(&topo, &cfg, &spec, dcapp::executor_for(&cfg))
    }
    .unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1);
    });
    println!(
        "done in {:.3} {} seconds ({} engine events, {} surface pixels)",
        r.elapsed.as_secs_f64(),
        if cfg.executor == dcapp::ExecutorKind::Sim {
            "virtual"
        } else {
            "wall-clock"
        },
        r.report.events,
        r.image.coverage(isosurf::BACKGROUND)
    );
    if cfg.memory_budget_bytes > 0 {
        let ooc = r.report.ooc;
        println!(
            "out-of-core: budget {} B, {} spills ({} B), {} faults ({} B)",
            ooc.memory_budget_bytes, ooc.spills, ooc.spill_bytes, ooc.faults, ooc.fault_bytes
        );
    }
    if args.storage_faults.is_some() {
        println!("{}", r.report.faults);
    }
    if let Some(cache) = cfg.chunk_cache() {
        let s = cache.stats();
        println!(
            "chunk cache: {}/{} lookups hit ({:.0}%), {} B resident of {} B",
            s.hits,
            s.lookups(),
            s.hit_rate() * 100.0,
            s.resident_bytes,
            s.capacity_bytes
        );
    }
    if args.verbose {
        for c in &r.report.copies {
            println!(
                "  {:>6} #{} @h{:<2} in {:>5} out {:>5} work {:>8.4}s stall {:>8.4}s",
                c.filter_name,
                c.copy_index,
                c.host.0,
                c.counters.buffers_in,
                c.counters.buffers_out,
                c.counters.work.as_secs_f64(),
                (c.counters.read_wait + c.counters.write_wait).as_secs_f64()
            );
        }
        // Host utilization is filled in only by the virtual-time model.
        if cfg.executor == dcapp::ExecutorKind::Sim {
            for u in topo.utilization(r.elapsed) {
                println!("  {u}");
            }
        }
    }
    r.image.save_ppm(&args.out).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        exit(1);
    });
    println!("wrote {}", args.out);
}
