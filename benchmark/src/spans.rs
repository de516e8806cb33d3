//! Harness spans: one record around each call into a layer, kept in
//! memory and written as Chrome trace-event JSON (Perfetto opens it) when
//! the workload ends. Every layer is timed from outside, by this file's
//! callers; nothing inside the program under test is instrumented.

use std::time::Instant;

/// One closed span. `parent` indexes the enclosing span in the same list;
/// `op` is the op the span belongs to.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

pub struct Spans {
    epoch: Instant,
    /// Off in the measured pass: calls are still timed, nothing is kept.
    keep: bool,
    op: usize,
    open: Vec<usize>,
    pub recs: Vec<SpanRec>,
}

impl Spans {
    pub fn new(keep: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            keep,
            op: 0,
            open: Vec::new(),
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) {
        if self.keep {
            let start_ns = self.now_ns();
            self.recs.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.recs.len() - 1);
        }
    }

    fn close_span(&mut self) {
        if self.keep {
            let i = self.open.pop().expect("a span is open");
            self.recs[i].end_ns = self.now_ns();
        }
    }

    /// Open the root span of op number `op`; layer spans nest inside it.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
        self.open_span("op");
    }

    pub fn end_op(&mut self) {
        self.close_span();
    }

    /// Run `f` inside a span called `name`; returns its result and its
    /// wall seconds (measured whether or not spans are kept).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open_span(name);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.close_span();
        (out, dt)
    }

    /// Self seconds per span: its duration minus the part its child spans
    /// cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .recs
            .iter()
            .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-9)
            .collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] -= (r.end_ns - r.start_ns) as f64 * 1e-9;
            }
        }
        own
    }

    /// Share of the ops' wall that no layer span covers (the harness's own
    /// bookkeeping between calls).
    pub fn uncovered_share(&self) -> f64 {
        let own = self.self_seconds();
        let (mut root_self, mut root_total) = (0.0, 0.0);
        for (r, s) in self.recs.iter().zip(&own) {
            if r.parent.is_none() {
                root_self += s;
                root_total += (r.end_ns - r.start_ns) as f64 * 1e-9;
            }
        }
        if root_total > 0.0 {
            root_self / root_total
        } else {
            0.0
        }
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// microsecond timestamps, the op number and parent index in `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(&format!(
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"benchmark {workload}\"}}}}"
        ));
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"{}\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.begin_op(7);
        s.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.time("b", || ());
        s.end_op();
        assert_eq!(s.recs.len(), 3);
        assert_eq!(s.recs[1].parent, Some(0));
        assert_eq!(s.recs[1].op, 7);
        let own = s.self_seconds();
        let total = (s.recs[0].end_ns - s.recs[0].start_ns) as f64 * 1e-9;
        assert!((own[0] + own[1] + own[2] - total).abs() < 1e-9);
        assert!(own[1] >= 0.005 && own[0] < total - 0.005);
        assert!(s.uncovered_share() < 0.5);
        let doc = crate::json::parse(&s.chrome_trace("t")).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn measured_pass_keeps_nothing() {
        let mut s = Spans::new(false);
        s.begin_op(0);
        let (v, dt) = s.time("a", || 3);
        s.end_op();
        assert_eq!(v, 3);
        assert!(dt >= 0.0 && s.recs.is_empty());
    }
}
