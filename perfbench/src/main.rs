//! `perfbench` — closed-loop wall-clock benchmark of the isosurface
//! renderer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload render-native --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client in one process renders one fixed query over and over, each
//! render sent when the previous one returns. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the loop with spans around every
//! layer call, replays each layer serially on the workload's inputs, and
//! prints the per-layer metrics. The last line of standard output is the
//! JSON result; a Chrome trace and a fingerprinted result file go to
//! `perfbench/out/`.

mod layers;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};

use perfbench::stats::{median, tail, Failure, Tally, MIN_SAMPLES};
use perfbench::trace::Tracer;
use perfbench::{end_to_end, per_layer, result_line, FILTERS, STREAMS};

use workload::{Bench, Rendered, Workload};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Output directory, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(workload::find(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

/// Timed renders of one loop.
#[derive(Default)]
struct Loop {
    /// Wall ms of each render that passed its checks.
    ok_ms: Vec<f64>,
    /// Reports of renders whose run completed.
    reports: Vec<datacutter::RunReport>,
    /// Wall seconds of `Run::go` over those reports.
    go_s: f64,
}

impl Loop {
    /// Keep `r`'s timing and report; hand back its failures for the tally.
    fn record(&mut self, r: Rendered) -> Vec<Failure> {
        if r.failures.is_empty() {
            self.ok_ms.push(r.ms);
        }
        if let Some(rep) = r.report {
            self.reports.push(rep);
            self.go_s += r.go_s;
        }
        r.failures
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(OUT_DIR);
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    // Spill rings are temp files: keep them inside the checkout.
    std::env::set_var("TMPDIR", &tmp);
    let result = if args.trace {
        traced(args, &out_dir, &tmp)
    } else {
        untraced(args)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let (report, line) = result?;
    let stamp = host_fingerprint();
    println!("{}", stamp.line(args));
    print!("{report}");
    let file = out_dir.join(format!(
        "result-{}-s{}-t{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    let stamped = format!(
        "{{\"fingerprint\": {}, \"result\": {line}}}\n",
        stamp.json(args)
    );
    std::fs::write(&file, stamped).map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{line}");
    Ok(())
}

/// Run `body` until `seconds` have passed and at least [`MIN_SAMPLES`]
/// renders were attempted.
fn timed_loop(seconds: f64, mut body: impl FnMut(u64)) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || (i as usize) < MIN_SAMPLES {
        body(i);
        i += 1;
    }
}

/// End-to-end metrics: a timed set-up, the timed loop, then
/// [`SETUPS`]` - 1` more timed set-ups. Peak RSS is read before the extra
/// set-ups, so it covers one set-up and the loop, as a user would run them.
fn untraced(args: &Args) -> Result<(String, String), String> {
    let w = args.workload;
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let t0 = Instant::now();
    let b = workload::setup(w, args.seed, &mut off)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let (mut lp, mut tally) = (Loop::default(), Tally::default());
    timed_loop(args.seconds, |_| {
        tally.record(lp.record(workload::render(&b, &mut off, None)))
    });
    let peak_rss = peak_rss_mb()?;
    let makespan = b.model_makespan;
    let mut warmup_failures = b.warmup_failures.clone();
    drop(b);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let again = workload::setup(w, args.seed, &mut off)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        warmup_failures.extend(again.warmup_failures);
    }

    let t = tail(&lp.ok_ms);
    let mut v = Values::new();
    v.set("render_ms_p50", median(&lp.ok_ms));
    // Fewer than MIN_SAMPLES good renders means some failed, so the result
    // is already marked incorrect: fall back to the slowest good render.
    let slowest = lp.ok_ms.iter().copied().fold(0.0, f64::max);
    v.set("render_ms_tail", t.map_or(slowest, |t| t.value));
    // Throughput of the median render: a mean over the loop would carry
    // every render another tenant of the host slowed down.
    let p50_s = median(&lp.ok_ms) / 1e3;
    v.set(
        "mcells_per_s",
        if p50_s > 0.0 {
            w.cells() as f64 / p50_s / 1e6
        } else {
            0.0
        },
    );
    v.set("setup_s", median(&setup_s));
    v.set("peak_rss_mb", peak_rss);
    let defs = end_to_end();
    let mut report = String::new();
    for d in &defs {
        report.push_str(&format!(
            "{:<16} {:>12.4} {}",
            d.name,
            v.get(&d.name),
            d.unit
        ));
        if let (Some(t), "render_ms_tail") = (t, d.name.as_str()) {
            report.push_str(&format!(
                "  (p{:.1} of {} renders, {} beyond)",
                t.percentile, t.samples, t.beyond
            ));
        }
        report.push('\n');
    }
    report.push_str(&gates(&tally, &warmup_failures, makespan, &[]));
    let correct = tally.failed == 0 && warmup_failures.is_empty();
    let line = result_line(correct, tally.attempted, tally.failed, &defs, &v.0)?;
    Ok((report, line))
}

/// Per-layer metrics: one traced set-up, a loop alternating untraced and
/// traced renders, serial layer replays, and the three layer probes.
fn traced(args: &Args, out_dir: &Path, tmp: &Path) -> Result<(String, String), String> {
    let w = args.workload;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let b = workload::setup(w, args.seed, &mut tr)?;
    let cache0 = b.cfg.chunk_cache().map(|c| c.stats()).unwrap_or_default();

    let (mut plain, mut spanned) = (Loop::default(), Loop::default());
    let mut tally = Tally::default();
    timed_loop(args.seconds, |i| {
        let failures = if i % 2 == 0 {
            plain.record(workload::render(&b, &mut off, None))
        } else {
            spanned.record(workload::render(&b, &mut tr, Some(i)))
        };
        tally.record(failures);
    });
    let cache1 = b.cfg.chunk_cache().map(|c| c.stats()).unwrap_or_default();
    let replay = layers::replay(&b, &mut tr);
    let passthrough = layers::passthrough_us_per_buffer(&mut tr);
    let disk = layers::diskstore_read_mb_s(&b, &tmp.join("diskstore"), &mut tr);
    let hetsim = layers::hetsim_probe(args.seed, &mut tr);

    let mut v = Values::new();
    let ms = |name: &str| tr.self_secs(name) * 1e3;
    v.set("volume.generate_s", tr.self_secs("volume.generate"));
    v.set("volume.read_chunk_ms", ms("volume.read_chunk"));
    v.set("volume.bytes_read_mb", replay.bytes_read as f64 / 1e6);
    let (hits, lookups) = (
        cache1.hits - cache0.hits,
        cache1.lookups() - cache0.lookups(),
    );
    v.set(
        "volume.cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    v.set(
        "volume.cache_evictions",
        (cache1.evictions - cache0.evictions) as f64,
    );
    v.set("volume.diskstore_read_mb_s", *disk.as_ref().unwrap_or(&0.0));
    v.set("isosurf.extract_ms", ms("isosurf.extract"));
    v.set(
        "isosurf.extract_mcells_s",
        replay.cells as f64 / tr.self_secs("isosurf.extract") / 1e6,
    );
    v.set("isosurf.triangles", replay.triangles as f64);
    v.set("isosurf.raster_ms", ms("isosurf.raster"));
    v.set("isosurf.pixels", replay.pixels as f64);
    v.set("isosurf.merge_ms", ms("isosurf.merge"));
    let both: Vec<&datacutter::RunReport> = plain.reports.iter().chain(&spanned.reports).collect();
    set_run_counters(&mut v, &both, plain.go_s + spanned.go_s, &b);
    v.set(
        "datacutter.passthrough_us_per_buffer",
        *passthrough.as_ref().unwrap_or(&0.0),
    );
    let probe = hetsim.as_ref().ok();
    v.set("hetsim.events", probe.map_or(0.0, |p| p.events_per_render));
    v.set("hetsim.us_per_event", probe.map_or(0.0, |p| p.us_per_event));
    v.set(
        "hetsim.model_makespan_s",
        probe.map_or(0.0, |p| p.makespan_s),
    );
    let renders = tr.count("render").max(1) as f64;
    v.set(
        "dcapp.build_pipeline_ms",
        ms("dcapp.build_pipeline") / renders,
    );
    v.set("dcapp.reference_ms", ms("dcapp.reference_image"));
    let (p_plain, p_spanned) = (median(&plain.ok_ms), median(&spanned.ok_ms));
    v.set("trace.render_ms_p50_untraced", p_plain);
    v.set("trace.render_ms_p50_traced", p_spanned);
    v.set("trace.overhead_ms", p_spanned - p_plain);

    let trace_file = out_dir.join(format!("trace-{}-s{}.json", w.name, args.seed));
    std::fs::write(&trace_file, tr.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let defs = per_layer();
    let mut report = String::new();
    for d in &defs {
        report.push_str(&format!(
            "{:<40} {:>14.4} {}\n",
            d.name,
            v.get(&d.name),
            d.unit
        ));
    }
    let mut probes = Vec::new();
    if !replay.image_ok {
        probes.push("serial replay image differs from the reference".to_string());
    }
    probes.extend(passthrough.err());
    probes.extend(disk.err());
    probes.extend(hetsim.err());
    report.push_str(&gates(
        &tally,
        &b.warmup_failures,
        b.model_makespan,
        &probes,
    ));
    report.push_str(&format!(
        "trace: {} spans written to {}\n",
        tr.spans().len(),
        trace_file.display()
    ));
    let correct = tally.failed == 0 && b.warmup_failures.is_empty() && probes.is_empty();
    let line = result_line(correct, tally.attempted, tally.failed, &defs, &v.0)?;
    Ok((report, line))
}

/// Per-render means of the runtime's own counters over `reports`. Wait
/// and disk times are wall-clock only on the native and tasked executors;
/// under the simulator they are virtual time, so they read 0 there.
fn set_run_counters(v: &mut Values, reports: &[&datacutter::RunReport], go_s: f64, b: &Bench) {
    let n = reports.len().max(1) as f64;
    let mean =
        |f: &dyn Fn(&datacutter::RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n;
    let sim = b.w.executor == dcapp::ExecutorKind::Sim;
    let ms = |d: hetsim::SimDuration| if sim { 0.0 } else { d.as_secs_f64() * 1e3 };
    for &f in FILTERS {
        let wait = |pick: fn(&datacutter::CopyCounters) -> hetsim::SimDuration| {
            mean(&|r| {
                r.copies
                    .iter()
                    .filter(|c| c.filter_name == f)
                    .map(|c| ms(pick(&c.counters)))
                    .sum()
            })
        };
        v.set(
            format!("datacutter.{f}.read_wait_ms"),
            wait(|c| c.read_wait),
        );
        v.set(
            format!("datacutter.{f}.write_wait_ms"),
            wait(|c| c.write_wait),
        );
    }
    for &s in STREAMS {
        let arrow = s.replace('-', "->");
        let of = |r: &datacutter::RunReport| {
            r.streams
                .iter()
                .find(|x| x.stream_name == arrow)
                .map_or((0, 0), |x| (x.total_buffers(), x.total_bytes()))
        };
        v.set(format!("datacutter.{s}.buffers"), mean(&|r| of(r).0 as f64));
        v.set(
            format!("datacutter.{s}.mb"),
            mean(&|r| of(r).1 as f64 / 1e6),
        );
    }
    v.set(
        "datacutter.deferred_wakes",
        mean(&|r| r.deferred_wakes as f64),
    );
    v.set("datacutter.spills", mean(&|r| r.ooc.spills as f64));
    v.set(
        "datacutter.spill_mb",
        mean(&|r| r.ooc.spill_bytes as f64 / 1e6),
    );
    v.set("datacutter.fault_ins", mean(&|r| r.ooc.faults as f64));
    v.set(
        "datacutter.spill_io_ms",
        mean(&|r| r.copies.iter().map(|c| ms(c.counters.disk_elapsed)).sum()),
    );
    v.set("datacutter.run_ms", go_s * 1e3 / n);
}

/// Measured values by metric name.
struct Values(BTreeMap<String, f64>);

impl Values {
    fn new() -> Values {
        Values(BTreeMap::new())
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.0.insert(name.into(), value + 0.0);
    }

    /// The value of `name`; NaN when it was not measured, which
    /// `result_line` then refuses.
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// The correctness lines of the report.
fn gates(
    tally: &Tally,
    warmup_failures: &[Failure],
    model_makespan: Option<hetsim::SimDuration>,
    probes: &[String],
) -> String {
    let mut s = format!(
        "failed_frac      {:>12.4} ({} of {} renders failed)\n",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    if let Some(f) = &tally.first_failure {
        s.push_str(&format!("first failure: {f}\n"));
    }
    for f in warmup_failures {
        s.push_str(&format!("warm-up failure: {f}\n"));
    }
    for p in probes {
        s.push_str(&format!("probe failure: {p}\n"));
    }
    if let Some(d) = model_makespan {
        s.push_str(&format!(
            "model_makespan   {:>12.6} s (hetsim virtual time: model output, not a speed)\n",
            d.as_secs_f64()
        ));
    }
    s
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `nproc`, `rustc -V`, source revision and seed: results compare only
/// when these match.
struct Fingerprint {
    nproc: usize,
    rustc: String,
    rev: String,
    src: u64,
}

fn host_fingerprint() -> Fingerprint {
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Fingerprint {
        nproc: workload::nproc(),
        rustc,
        rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        src: source_digest(),
    }
}

/// Sources the benchmark builds from, relative to the checkout root.
const SOURCES: &[&str] = &[
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "shims",
    "perfbench/Cargo.toml",
    "perfbench/src",
];

/// FNV-1a over the path and bytes of every file under [`SOURCES`], in
/// path order: names the code that ran even where there is no git
/// metadata to read a revision from.
fn source_digest() -> u64 {
    fn walk(p: &Path, out: &mut Vec<std::path::PathBuf>) {
        match std::fs::read_dir(p) {
            Ok(dir) => dir.flatten().for_each(|e| walk(&e.path(), out)),
            Err(_) if p.is_file() => out.push(p.to_path_buf()),
            Err(_) => {}
        }
    }
    let mut files = Vec::new();
    for s in SOURCES {
        walk(Path::new(s), &mut files);
    }
    files.sort();
    let mut h = volume::Fnv64::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// The commit `.git/HEAD` names, read without running git; `None` outside
/// a git checkout.
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == r).then(|| id.to_string())
    })
}

impl Fingerprint {
    /// One human-readable line.
    fn line(&self, args: &Args) -> String {
        format!(
            "perfbench workload={} seed={} seconds={} trace={} | nproc={} rustc=\"{}\" rev={} src={:#018x}",
            args.workload.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.nproc,
            self.rustc,
            self.rev,
            self.src
        )
    }

    /// The same fields as a JSON object.
    fn json(&self, args: &Args) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"rev\": \"{}\", \"src\": \"{:#018x}\"}}",
            args.workload.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.nproc,
            self.rustc.replace(['"', '\\'], "'"),
            self.rev,
            self.src
        )
    }
}
