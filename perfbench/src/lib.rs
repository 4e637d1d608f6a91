//! Wall-clock benchmark of the DataCutter isosurface renderer: the pieces
//! that do not need the renderer (statistics, the metric catalogue, the
//! result line, span tracing), kept in a library so the self-tests can
//! reach them.

pub mod stats;
pub mod trace;

/// A reported metric: name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
    }
}

/// Metrics of an untraced run (`--trace 0`), in print order.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        m("render_ms_p50", "ms"),
        m("render_ms_tail", "ms"),
        m("mcells_per_s", "Mcells/s"),
        m("setup_s", "s"),
        m("peak_rss_mb", "MB"),
    ]
}

/// Filters of every workload's pipeline, in pipeline order.
pub const FILTERS: &[&str] = &["R", "RE", "ERa", "Ra", "Mt", "A", "M"];

/// Streams of every workload's pipeline, named `<producer>-<consumer>`.
pub const STREAMS: &[&str] = &["R-ERa", "RE-Ra", "ERa-M", "Ra-M", "Ra-Mt", "Mt-A"];

/// Metrics of a traced run (`--trace 1`), in print order. A layer a
/// workload does not use reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        m("volume.generate_s", "s"),
        m("volume.read_chunk_ms", "ms"),
        m("volume.bytes_read_mb", "MB"),
        m("volume.cache_hit_rate", "ratio"),
        m("volume.cache_evictions", "count"),
        m("volume.diskstore_read_mb_s", "MB/s"),
        m("isosurf.extract_ms", "ms"),
        m("isosurf.extract_mcells_s", "Mcells/s"),
        m("isosurf.triangles", "count"),
        m("isosurf.raster_ms", "ms"),
        m("isosurf.pixels", "count"),
        m("isosurf.merge_ms", "ms"),
    ];
    for f in FILTERS {
        v.push(m(format!("datacutter.{f}.read_wait_ms"), "ms"));
        v.push(m(format!("datacutter.{f}.write_wait_ms"), "ms"));
    }
    for s in STREAMS {
        v.push(m(format!("datacutter.{s}.buffers"), "count"));
        v.push(m(format!("datacutter.{s}.mb"), "MB"));
    }
    v.extend([
        m("datacutter.deferred_wakes", "count"),
        m("datacutter.spills", "count"),
        m("datacutter.spill_mb", "MB"),
        m("datacutter.fault_ins", "count"),
        m("datacutter.spill_io_ms", "ms"),
        m("datacutter.run_ms", "ms"),
        m("datacutter.passthrough_us_per_buffer", "us"),
        m("hetsim.events", "count"),
        m("hetsim.us_per_event", "us"),
        m("hetsim.model_makespan_s", "s"),
        m("dcapp.build_pipeline_ms", "ms"),
        m("dcapp.reference_ms", "ms"),
        m("trace.render_ms_p50_untraced", "ms"),
        m("trace.render_ms_p50_traced", "ms"),
        m("trace.overhead_ms", "ms"),
    ]);
    v
}

/// Whether `s` is a usable metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// Whether `s` is a usable unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `defs`, each looked up in `values` (a metric
/// missing there, or not finite, is an error: the run must not print a
/// partial result).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &std::collections::BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
