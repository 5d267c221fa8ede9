//! Bench-side tracing: spans recorded around the calls into each layer from
//! outside the library, through timing wrappers of the public
//! [`WorldEngine`] and [`Oracle`] traits.
//!
//! Spans nest op → `core.driver` → `sampling.oracle.*` →
//! `sampling.engine.*`; the `metrics.*` spans are siblings of the driver
//! span under the op. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use ugraph_graph::{NodeId, UncertainGraph};
use ugraph_sampling::{
    EngineStats, MemoryBudget, MemoryStats, Oracle, RowCacheStats, RunState, SamplingError,
    WorldEngine,
};

/// The call boundary a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark operation (solve plus evaluation).
    Op,
    /// `mcp_with_oracle` / `acp_with_oracle`.
    Driver,
    /// `Oracle::prepare`.
    OraclePrepare,
    /// `Oracle::center_probs` / `Oracle::center_probs_batch`.
    OracleRows,
    /// `Oracle::pair_prob`.
    OraclePair,
    /// `WorldEngine::ensure`.
    EngineEnsure,
    /// Every count, range and batch method of `WorldEngine`.
    EngineCount,
    /// The pair-count methods of `WorldEngine`.
    EnginePair,
    /// `UgraphSession::evaluate` / `evaluate_depth`.
    Evaluate,
    /// `ugraph_metrics::avpr`.
    Avpr,
    /// One served call, from send to decoded answer (client side).
    Call,
    /// The server's solve inside a call, sized by `WireSolve::elapsed_micros`.
    ServerSolve,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 12;

impl Layer {
    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Driver => "core.driver",
            Layer::OraclePrepare => "sampling.oracle.prepare",
            Layer::OracleRows => "sampling.oracle.rows",
            Layer::OraclePair => "sampling.oracle.pair",
            Layer::EngineEnsure => "sampling.engine.ensure",
            Layer::EngineCount => "sampling.engine.count",
            Layer::EnginePair => "sampling.engine.pair",
            Layer::Evaluate => "metrics.evaluate",
            Layer::Avpr => "metrics.avpr",
            Layer::Call => "client.call",
            Layer::ServerSolve => "server.solve",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The boundary it times.
    pub layer: Layer,
    /// Identifier shared by every span of one operation.
    pub op: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace began.
    pub start: u64,
    /// End, in nanoseconds since the trace began.
    pub end: u64,
    /// Work the call did: rows counted or requested, worlds generated.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// A recorder shared by the wrappers of one pass (calls are sequential on
/// the driving thread).
pub type Tracer = Rc<RefCell<Trace>>;

impl Trace {
    /// A fresh recorder.
    pub fn new() -> Tracer {
        Rc::new(RefCell::new(Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op += 1;
        self.enter(Layer::Op)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) -> usize {
        let start = self.now();
        let span = Span {
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
            work: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize, work: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.work = work;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span of `layer` doing `work`. The recorder is not
/// borrowed while `f` runs, so nested wrappers can record their own spans.
pub fn span<R>(tracer: &Tracer, layer: Layer, work: u64, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().enter(layer);
    let out = f();
    tracer.borrow_mut().exit(id, work);
    out
}

/// [`span`] when tracing, a plain call otherwise.
pub fn maybe_span<R>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => span(t, layer, 0, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span never overlap — calls are sequential).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration());
        }
    }
    out
}

/// Per-layer sums over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed durations (ns).
    pub time: [u64; LAYERS],
    /// Summed self times (ns).
    pub own: [u64; LAYERS],
    /// Calls.
    pub calls: [u64; LAYERS],
    /// Summed work.
    pub work: [u64; LAYERS],
}

impl Totals {
    /// Aggregates `spans` by layer.
    pub fn of(spans: &[Span]) -> Totals {
        let own = self_times(spans);
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(own) {
            let i = s.layer as usize;
            t.time[i] += s.duration();
            t.own[i] += own;
            t.calls[i] += 1;
            t.work[i] += s.work;
        }
        t
    }

    /// Summed duration of `layer`, in seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.time[layer as usize] as f64 / 1e9
    }

    /// Summed self time of `layers`, in seconds.
    pub fn own_secs(&self, layers: &[Layer]) -> f64 {
        layers.iter().map(|&l| self.own[l as usize]).sum::<u64>() as f64 / 1e9
    }
}

/// Writes `spans` as tab-separated rows (one per span, self time included).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tspan\tparent\tlayer\tstart_ns\tend_ns\tself_ns\twork")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}\t{}",
            s.op,
            s.layer.name(),
            s.start,
            s.end,
            s.work
        )?;
    }
    out.flush()
}

/// A [`WorldEngine`] that forwards every method — defaulted ones included,
/// so the inner engine's own batch and range implementations still run —
/// and times the generation, count and pair calls.
pub struct TimedEngine<E> {
    inner: E,
    tracer: Tracer,
}

impl<E: WorldEngine> TimedEngine<E> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: E, tracer: Tracer) -> Self {
        TimedEngine { inner, tracer }
    }

    fn count<R>(&mut self, rows: usize, f: impl FnOnce(&mut E) -> R) -> R {
        span(&self.tracer, Layer::EngineCount, rows as u64, || f(&mut self.inner))
    }

    fn pair<R>(&mut self, f: impl FnOnce(&mut E) -> R) -> R {
        span(&self.tracer, Layer::EnginePair, 1, || f(&mut self.inner))
    }
}

impl<E: WorldEngine> WorldEngine for TimedEngine<E> {
    fn graph(&self) -> &UncertainGraph {
        self.inner.graph()
    }

    fn supports_finite_depths(&self) -> bool {
        self.inner.supports_finite_depths()
    }

    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }

    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }

    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        self.inner.set_memory_budget(budget);
    }

    fn set_run_state(&mut self, run: RunState) {
        self.inner.set_run_state(run);
    }

    fn memory_stats(&self) -> MemoryStats {
        self.inner.memory_stats()
    }

    fn ensure(&mut self, r: usize) {
        let before = self.inner.num_samples();
        let id = self.tracer.borrow_mut().enter(Layer::EngineEnsure);
        self.inner.ensure(r);
        let grown = self.inner.num_samples().saturating_sub(before);
        self.tracer.borrow_mut().exit(id, grown as u64);
    }

    fn counts_from_center(&mut self, center: NodeId, out: &mut [u32]) {
        self.count(1, |e| e.counts_from_center(center, out));
    }

    fn counts_from_centers(&mut self, centers: &[NodeId], out: &mut [u32]) {
        self.count(centers.len(), |e| e.counts_from_centers(centers, out));
    }

    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        self.count(1, |e| e.counts_from_center_range(center, lo, hi, out));
    }

    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        self.count(centers.len(), |e| e.counts_from_centers_range(centers, lo, hi, out));
    }

    fn pair_count(&mut self, u: NodeId, v: NodeId) -> usize {
        self.pair(|e| e.pair_count(u, v))
    }

    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        self.pair(|e| e.pair_count_range(u, v, lo, hi))
    }

    fn counts_within_depths(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        self.count(1, |e| e.counts_within_depths(center, d_select, d_cover, out_select, out_cover));
    }

    fn counts_within_depths_batch(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        self.count(centers.len(), |e| {
            e.counts_within_depths_batch(centers, d_select, d_cover, out_select, out_cover)
        });
    }

    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        self.count(1, |e| {
            e.counts_within_depths_range(center, d_select, d_cover, lo, hi, out_select, out_cover)
        });
    }

    fn counts_within_depths_batch_range(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        self.count(centers.len(), |e| {
            e.counts_within_depths_batch_range(
                centers, d_select, d_cover, lo, hi, out_select, out_cover,
            )
        });
    }

    fn pair_count_within(&mut self, u: NodeId, v: NodeId, depth: u32) -> usize {
        self.pair(|e| e.pair_count_within(u, v, depth))
    }

    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        self.pair(|e| e.pair_count_within_range(u, v, depth, lo, hi))
    }

    fn pair_estimate(&mut self, u: NodeId, v: NodeId) -> f64 {
        self.pair(|e| e.pair_estimate(u, v))
    }

    fn pair_estimate_within(&mut self, u: NodeId, v: NodeId, depth: u32) -> f64 {
        self.pair(|e| e.pair_estimate_within(u, v, depth))
    }
}

/// An [`Oracle`] that forwards every method to the oracle it wraps and
/// times `prepare`, the row queries and the pair query.
pub struct TimedOracle<'g> {
    inner: Box<dyn Oracle + 'g>,
    tracer: Tracer,
}

impl<'g> TimedOracle<'g> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Oracle + 'g>, tracer: Tracer) -> Self {
        TimedOracle { inner, tracer }
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn prepare(&mut self, q: f64) -> Result<(), SamplingError> {
        span(&self.tracer, Layer::OraclePrepare, 1, || self.inner.prepare(q))
    }

    fn set_run_state(&mut self, run: RunState) {
        self.inner.set_run_state(run);
    }

    fn begin_request(&mut self) {
        self.inner.begin_request();
    }

    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }

    fn pool_samples(&self) -> usize {
        self.inner.pool_samples()
    }

    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        span(&self.tracer, Layer::OracleRows, 1, || self.inner.center_probs(center, select, cover))
    }

    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError> {
        span(&self.tracer, Layer::OraclePair, 1, || self.inner.pair_prob(u, v))
    }

    fn identical_rows(&self) -> bool {
        self.inner.identical_rows()
    }

    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        span(&self.tracer, Layer::OracleRows, centers.len() as u64, || {
            self.inner.center_probs_batch(centers, select, cover)
        })
    }

    fn cache_stats(&self) -> RowCacheStats {
        self.inner.cache_stats()
    }

    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }

    fn memory_stats(&self) -> MemoryStats {
        self.inner.memory_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { layer, op: 1, parent, start, end, work: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) ⊃ driver [10, 70) ⊃ rows [20, 50) ⊃ count [25, 45);
        // evaluate [70, 95) is the driver's sibling.
        let spans = [
            s(Layer::Op, None, 0, 100),
            s(Layer::Driver, Some(0), 10, 70),
            s(Layer::OracleRows, Some(1), 20, 50),
            s(Layer::EngineCount, Some(2), 25, 45),
            s(Layer::Evaluate, Some(0), 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 30, 10, 20, 25]);
        let t = Totals::of(&spans);
        assert_eq!(t.time[Layer::Driver as usize], 60);
        assert_eq!(t.own[Layer::Driver as usize], 30);
        assert_eq!(t.own_secs(&[Layer::OracleRows, Layer::EngineCount]), 30e-9);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_under_one_op_id() {
        let tracer = Trace::new();
        let op = tracer.borrow_mut().begin_op();
        let inner = span(&tracer, Layer::Driver, 0, || span(&tracer, Layer::EngineCount, 3, || 7));
        tracer.borrow_mut().exit(op, 0);
        assert_eq!(inner, 7);
        let t = tracer.borrow();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].work, 3);
        assert!(spans.iter().all(|s| s.op == 1 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
