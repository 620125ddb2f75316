//! In-memory spans recorded by the benchmark around its calls into the
//! program, per-layer self time, and Chrome trace-event export (the JSON
//! format Perfetto opens).
//!
//! A disabled [`Tracer`] records nothing, so the timed runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans written to a trace file at most, so a long traced serve run
/// stays a file Perfetto opens quickly.
pub const MAX_EXPORTED_SPANS: usize = 50_000;

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `compress.zv.decompress`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id, for spans of one served request.
    pub req: Option<u64>,
}

/// Span recorder. Spans opened with [`Tracer::enter`] nest by a stack;
/// spans added with [`Tracer::record`] carry explicit times and parents.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock origin spans are measured from.
    #[cfg(test)]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: None,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.ns(Instant::now());
    }

    /// Adds a span with explicit times under `parent` (or under the
    /// innermost open span when `parent` is `None`); returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: parent.or(self.stack.last().copied()),
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time in nanoseconds: each span's duration minus
    /// the part of it its children cover (children of one span do not
    /// overlap: they run on the span's own thread or are consecutive
    /// stages of one request).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Share of all self time in each module group, as
    /// `(metric name, share)`: codec (`compress.*`, `core.*`), sim
    /// (`gpusim.*`, `vdnn.*`), serve and the benchmark's own `bench.*`.
    pub fn module_shares(&self) -> [(&'static str, f64); 4] {
        let own = self.self_ns();
        let all = own.values().sum::<u64>().max(1) as f64;
        let share = |prefixes: &[&str]| {
            own.iter()
                .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
                .map(|(_, &v)| v)
                .sum::<u64>() as f64
                / all
        };
        [
            ("selftime.codec_share", share(&["compress.", "core."])),
            ("selftime.sim_share", share(&["gpusim.", "vdnn."])),
            ("selftime.serve_share", share(&["serve."])),
            ("selftime.bench_share", share(&["bench."])),
        ]
    }

    /// Total and count of spans named `name`.
    pub fn total_ns(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.end_ns - s.start_ns, n + 1))
    }

    /// The first `MAX_EXPORTED_SPANS` spans as Chrome trace-event JSON
    /// ("X" complete events, µs); self times use every span.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut ev = ChromeTrace::new();
        ev.process(1, process);
        for s in self.spans.iter().take(MAX_EXPORTED_SPANS) {
            let args = match s.req {
                Some(r) => format!("{{\"req\":{r}}}"),
                None => String::from("{}"),
            };
            // Serve spans go on their own track so one request's stages
            // line up beside the host thread's calls.
            let tid = if s.req.is_some() { 2 } else { 1 };
            ev.complete(
                1,
                tid,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                &args,
            );
        }
        ev.finish()
    }
}

/// A Chrome trace-event JSON document under construction.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    body: String,
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    fn push(&mut self, event: &str) {
        if !self.body.is_empty() {
            self.body.push_str(",\n");
        }
        self.body.push_str(event);
    }

    /// Names process `pid`.
    pub fn process(&mut self, pid: u32, name: &str) {
        self.push(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Names thread `tid` of process `pid`.
    pub fn thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.push(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// A complete event; `ts` and `dur` in microseconds, `args` a JSON
    /// object.
    pub fn complete(&mut self, pid: u32, tid: u32, name: &str, ts: f64, dur: f64, args: &str) {
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}",
            escape(name)
        );
        self.push(&e);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            self.body
        )
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a");
        t.exit();
        assert!(t.spans().is_empty());
        assert!(t.self_ns().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let o = t.origin();
        let at = |us: u64| o + Duration::from_micros(us);
        let root = t.record("root", at(0), at(100), None, None);
        t.record("child", at(10), at(40), root, Some(7));
        t.record("child", at(50), at(60), root, Some(8));
        let own = t.self_ns();
        assert_eq!(own["root"], 60_000);
        assert_eq!(own["child"], 40_000);
        assert_eq!(t.total_ns("child"), (40_000, 2));
        let json = t.chrome_json("bench");
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("{\"req\":7}"));
    }

    #[test]
    fn nested_spans_take_the_open_parent() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.exit();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
