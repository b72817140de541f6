//! Span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's public functions; nothing inside the program is instrumented.
//! Spans are kept in memory and written out once, at the end, as Chrome
//! trace-event JSON (opens in Perfetto and `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Static region name, `<layer>.<call>` for layer calls.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 = set-up and post-phase work).
    pub op: u64,
    /// Counters recorded at the span's boundary.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The counter `key`, or 0 when the span did not record it.
    pub fn arg(&self, key: &str) -> f64 {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    last: Option<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            last: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
        self.last = None;
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            args: Vec::new(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.last = Some(idx);
        out
    }

    /// Attaches a counter to the most recently closed span.
    pub fn note(&mut self, key: &'static str, value: f64) {
        if let (true, Some(idx)) = (self.on, self.last) {
            self.spans[idx].args.push((key, value));
        }
    }

    /// Duration of the most recently closed span, in milliseconds (0 when
    /// not recording).
    pub fn last_ms(&self) -> f64 {
        self.last
            .filter(|_| self.on)
            .map_or(0.0, |idx| self.spans[idx].ms())
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON of every span: complete (`"ph": "X"`)
    /// events on one thread, with the op id, span id and parent id in
    /// `args` next to the recorded counters.
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_parent_op_and_counters() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let v = tr.span("op", |tr| {
            tr.span("lang.compile", |_| ());
            tr.note("insts", 12.0);
            3
        });
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].arg("insts"), 12.0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tr.to_chrome_json(&[("workload", "w".into())]);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"insts\":12"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |_| 5), 5);
        tr.note("x", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.last_ms(), 0.0);
    }
}
