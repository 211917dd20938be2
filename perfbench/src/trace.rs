//! Outside-in tracing: spans the benchmark records around its own calls
//! into each layer's public functions. Spans are kept in memory and
//! written once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use lsi_linalg::LinearOperator;

use crate::measure::median;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request the span belongs to; all spans of one probe share it.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name (`linalg.svd`, `serve.engine.query`, …).
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }
}

impl Tracer {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a call that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as span `name`; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(req, parent, name, start, Instant::now());
        (out, id)
    }

    /// Opens a span that will enclose later ones; see [`Tracer::close`].
    pub fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = Instant::now();
        self.record(req, parent, name, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Span `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Median duration in milliseconds of the spans named `name`, or 0
    /// when none ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        }
    }

    /// Self time of span `id` in milliseconds: its duration less the time
    /// its direct children cover (children of one span never overlap).
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"req\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"dur_us\": {:.1}}}",
                s.req,
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6
            )?;
        }
        out.flush()
    }
}

/// Forwards every product to `inner` and logs when it ran: the probe that
/// splits a truncated SVD into sparse matvecs and the solver's own work.
pub struct CountingOp<'a, A: ?Sized> {
    inner: &'a A,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a, A: LinearOperator + ?Sized> CountingOp<'a, A> {
    /// Wraps `inner`.
    pub fn new(inner: &'a A) -> Self {
        CountingOp {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls
            .lock()
            .expect("the call log is never held across a panic")
            .push((start, end));
        out
    }

    /// Start and end of every product, in call order.
    pub fn into_calls(self) -> Vec<(Instant, Instant)> {
        self.calls
            .into_inner()
            .expect("the call log is never held across a panic")
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for CountingOp<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&self, x: &[f64]) -> lsi_linalg::Result<Vec<f64>> {
        self.timed(|| self.inner.apply(x))
    }

    fn apply_transpose(&self, x: &[f64]) -> lsi_linalg::Result<Vec<f64>> {
        self.timed(|| self.inner.apply_transpose(x))
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64]) -> lsi_linalg::Result<()> {
        self.timed(|| self.inner.apply_into(x, out))
    }

    fn apply_transpose_into(&self, x: &[f64], out: &mut [f64]) -> lsi_linalg::Result<()> {
        self.timed(|| self.inner.apply_transpose_into(x, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_linalg::CsrMatrix;

    #[test]
    fn counting_op_forwards_bits_and_logs_every_product() {
        let a = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.5), (1, 1, -2.0), (2, 0, 0.25)])
            .expect("valid triplets");
        let op = CountingOp::new(&a);
        let x = [0.3, 0.7];
        assert_eq!(op.apply(&x).expect("apply"), a.apply(&x).expect("apply"));
        let mut out = [0.0; 2];
        op.apply_transpose_into(&[1.0, 2.0, 3.0], &mut out)
            .expect("apply_transpose_into");
        assert_eq!(
            out.to_vec(),
            a.apply_transpose(&[1.0, 2.0, 3.0]).expect("apply")
        );
        assert_eq!(op.into_calls().len(), 2);
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tr = Tracer::default();
        let req = tr.request();
        let root = tr.open(req, None, "root");
        let (_, child) = tr.time(req, Some(root), "child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.close(root);
        let (root_ms, child_ms) = (tr.span(root).ms(), tr.span(child).ms());
        assert!(child_ms >= 5.0 && root_ms >= child_ms);
        assert!((tr.self_ms(root) - (root_ms - child_ms)).abs() < 1e-9);
        assert_eq!(tr.median_ms("child"), child_ms);
        assert_eq!(tr.median_ms("absent"), 0.0);
    }
}
