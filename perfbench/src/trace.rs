//! Spans recorded around calls into the renderer's layers, kept in memory
//! and written once at exit as Chrome trace-event JSON (Perfetto and
//! `chrome://tracing` open it).

use std::time::Instant;

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A closed (or still open, `end_ns == None`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `isosurf.extract`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The render this span belongs to; inherited from the parent.
    pub render: Option<u64>,
}

/// Single-threaded span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name` inside the innermost open span. `render`
    /// tags the span (and its children) with a render id.
    pub fn begin(&mut self, name: &'static str, render: Option<u64>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let parent = self.open.last().copied();
        let render = render.or_else(|| parent.and_then(|p| self.spans[p].render));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            render,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = Some(now);
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name, None);
        let out = f(self);
        self.end(id);
        out
    }

    /// Recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of every closed span named `name`: each span's
    /// duration less the part its child spans cover, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
                child_ns[p] += end - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .filter_map(|(s, &c)| s.end_ns.map(|e| (e - s.start_ns).saturating_sub(c)))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of closed spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
            .count()
    }

    /// The closed spans as a Chrome trace-event JSON document of complete
    /// (`"ph": "X"`) events, times in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end_ns else { continue };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {}, \"parent\": {}, \"render\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (end - s.start_ns) as f64 / 1e3,
                i,
                opt(s.parent.map(|p| p as u64)),
                opt(s.render),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
