//! In-memory span tracer and the timing decorators that reach layers
//! only callable from inside another layer.
//!
//! Spans are recorded from the benchmark's own code only: around the
//! calls its stepping loops make into each layer, and inside decorators
//! wrapping the trait objects a layer takes (`InstrSource`,
//! `LoadCriticalityPredictor`, `CommandScheduler`, `RequestSource`).
//!
//! A timer read costs tens of nanoseconds, close to the cost of the
//! smallest calls, so spans are recorded only on a deterministic 1-in-N
//! subset of loop iterations (every [`SAMPLE_EVERY`]-th, starting with
//! the first). Inside a sampled iteration every call is a span, with
//! its parent, so self times nest exactly; outside, only the per-layer
//! call counters advance. Call counts are therefore exact, and shares
//! are self time over the wall time of the sampled iterations.
//!
//! The tracer's own cost is measured when it is installed (an empty
//! span's recorded duration, and what each child span adds to its
//! parent) and subtracted from every self time, so the loop's own
//! bookkeeping is not charged with the timer reads of its children.

use critmem_common::{CpuCycle, Criticality, DramCycle, MetricVisitor, Pc};
use critmem_cpu::{Instr, InstrSource, LoadCriticalityPredictor};
use critmem_dram::{Candidate, CommandScheduler, SchedContext, Transaction};
use critmem_trace::{Fingerprint, RequestSource, TraceError, TraceRecord};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One loop iteration in this many is traced.
pub const SAMPLE_EVERY: u64 = 256;

/// The span names: one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One iteration of the bench-side `System` loop (root span; its
    /// self time is the loop's own bookkeeping).
    SystemLoop,
    /// One iteration of the bench-side trace-replay loop (root span).
    ReplayLoop,
    CpuStep,
    NextInstr,
    Predict,
    MemCompleted,
    CachePop,
    CacheDramCompleted,
    Horizon,
    Skip,
    DramTick,
    DramEnqueue,
    SchedSelect,
    AgentsGenerate,
    TraceSource,
    /// The plan and render passes of `Runner::run_parallel`, timed
    /// around the benchmark's own sweep closure (no spans: it is timed
    /// per pass, outside the stepping loops).
    RunnerOverhead,
}

impl Layer {
    pub const ALL: [Layer; 16] = [
        Layer::SystemLoop,
        Layer::ReplayLoop,
        Layer::CpuStep,
        Layer::NextInstr,
        Layer::Predict,
        Layer::MemCompleted,
        Layer::CachePop,
        Layer::CacheDramCompleted,
        Layer::Horizon,
        Layer::Skip,
        Layer::DramTick,
        Layer::DramEnqueue,
        Layer::SchedSelect,
        Layer::AgentsGenerate,
        Layer::TraceSource,
        Layer::RunnerOverhead,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SystemLoop => "host.system.loop",
            Layer::ReplayLoop => "host.trace.replay",
            Layer::CpuStep => "host.cpu.step",
            Layer::NextInstr => "host.workloads.next_instr",
            Layer::Predict => "host.predict.cbp",
            Layer::MemCompleted => "host.cpu.mem_completed",
            Layer::CachePop => "host.cache.pop_request",
            Layer::CacheDramCompleted => "host.cache.dram_completed",
            Layer::Horizon => "host.horizon",
            Layer::Skip => "host.skip",
            Layer::DramTick => "host.dram.tick",
            Layer::DramEnqueue => "host.dram.enqueue",
            Layer::SchedSelect => "host.sched.select",
            Layer::AgentsGenerate => "host.agents.generate",
            Layer::TraceSource => "host.trace.source",
            Layer::RunnerOverhead => "host.runner.overhead",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    layer: Layer,
    parent: u32,
    cell: u32,
    start: u64,
    end: u64,
}

struct Tracer {
    epoch: Instant,
    sampled: bool,
    iteration: u64,
    cell: u32,
    calls: [u64; Layer::ALL.len()],
    stack: Vec<u32>,
    spans: Vec<Span>,
    cost: SpanCost,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread, discarding any earlier trace, and
/// measures the tracer's own cost.
pub fn install() {
    let fresh = || Tracer {
        epoch: Instant::now(),
        sampled: false,
        iteration: 0,
        cell: 0,
        calls: [0; Layer::ALL.len()],
        stack: Vec::new(),
        spans: Vec::new(),
        cost: SpanCost::default(),
    };
    TRACER.with(|t| *t.borrow_mut() = Some(fresh()));
    let cost = calibrate();
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer { cost, ..fresh() }));
}

/// Per-span tracing cost in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// Recorded duration of an empty span.
    pub inner: u64,
    /// Time a child span adds to its parent outside its own duration.
    pub outer: u64,
}

/// Times empty spans nested in a parent, in rounds, and takes the
/// median of each estimate.
fn calibrate() -> SpanCost {
    const ROUNDS: usize = 31;
    const CHILDREN: usize = 100;
    let mut inner = Vec::with_capacity(ROUNDS);
    let mut outer = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans.clear();
                t.sampled = true;
            }
        });
        let root = enter(Layer::SystemLoop);
        for _ in 0..CHILDREN {
            timed(Layer::Predict, || ());
        }
        exit(root);
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                let dur = |s: &Span| s.end - s.start;
                let children: u64 = t.spans[1..].iter().map(dur).sum();
                inner.push(children as f64 / CHILDREN as f64);
                outer.push(dur(&t.spans[0]).saturating_sub(children) as f64 / CHILDREN as f64);
            }
        });
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2] as u64
    };
    SpanCost {
        inner: median(&mut inner),
        outer: median(&mut outer),
    }
}

/// Tags the spans that follow with a cell id.
pub fn set_cell(cell: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.cell = cell;
        }
    });
}

/// Opens a span if this iteration is sampled; always counts the call.
#[inline]
pub fn enter(layer: Layer) -> Option<u32> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut()?;
        t.calls[layer.index()] += 1;
        if !t.sampled {
            return None;
        }
        let idx = t.spans.len() as u32;
        let span = Span {
            layer,
            parent: t.stack.last().copied().unwrap_or(NO_PARENT),
            cell: t.cell,
            start: t.now(),
            end: 0,
        };
        t.spans.push(span);
        t.stack.push(idx);
        Some(idx)
    })
}

/// Closes a span opened by [`enter`].
#[inline]
pub fn exit(token: Option<u32>) {
    if let Some(idx) = token {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                let end = t.now();
                t.spans[idx as usize].end = end;
                t.stack.pop();
            }
        });
    }
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let token = enter(layer);
    let r = f();
    exit(token);
    r
}

/// Starts one loop iteration: decides whether it is sampled and opens
/// its root span.
#[inline]
pub fn begin_iteration(root: Layer) -> Option<u32> {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.sampled = t.iteration % SAMPLE_EVERY == 0;
            t.iteration += 1;
        }
    });
    enter(root)
}

/// Ends a loop iteration started by [`begin_iteration`].
#[inline]
pub fn end_iteration(token: Option<u32>) {
    exit(token);
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.sampled = false;
        }
    });
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Exact number of calls, sampled or not.
    pub calls: u64,
    /// Calls that were recorded as spans.
    pub sampled_calls: u64,
    /// Self time of the recorded spans, in nanoseconds, less the
    /// tracer's measured cost.
    pub self_ns: u64,
}

/// A finished trace.
pub struct Trace {
    pub spans: Vec<Span>,
    pub layers: Vec<LayerTotals>,
    /// Self time of every span recorded inside the loops: the sampled
    /// iterations' wall time less the tracer's cost.
    pub sampled_loop_ns: u64,
    pub cost: SpanCost,
}

impl Trace {
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer.index()]
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "span,layer,parent,cell,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{},{parent},{},{},{}",
                s.layer.name(),
                s.cell,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// Stops tracing on this thread and aggregates the spans.
///
/// # Panics
///
/// Panics if [`install`] was not called on this thread.
pub fn finish() -> Trace {
    let t = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracer installed on this thread");
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start + t.cost.outer;
        }
    }
    let mut layers = vec![LayerTotals::default(); Layer::ALL.len()];
    let mut sampled_loop_ns = 0;
    for (s, child) in t.spans.iter().zip(&child_ns) {
        let own = (s.end - s.start).saturating_sub(*child + t.cost.inner);
        let l = &mut layers[s.layer.index()];
        l.sampled_calls += 1;
        l.self_ns += own;
        sampled_loop_ns += own;
    }
    for (l, calls) in layers.iter_mut().zip(t.calls) {
        l.calls = calls;
    }
    Trace {
        spans: t.spans,
        layers,
        sampled_loop_ns,
        cost: t.cost,
    }
}

/// Times `InstrSource::next_instr`, called from inside `Core::step`.
pub struct TimedSource(pub Box<dyn InstrSource>);

impl InstrSource for TimedSource {
    fn next_instr(&mut self) -> Instr {
        timed(Layer::NextInstr, || self.0.next_instr())
    }
}

/// Times every `LoadCriticalityPredictor` call a core makes.
pub struct TimedPredictor(pub Box<dyn LoadCriticalityPredictor>);

impl LoadCriticalityPredictor for TimedPredictor {
    fn predict(&mut self, pc: Pc) -> Criticality {
        timed(Layer::Predict, || self.0.predict(pc))
    }

    fn on_block_commit(&mut self, pc: Pc, stall_cycles: u64) {
        timed(Layer::Predict, || self.0.on_block_commit(pc, stall_cycles));
    }

    fn on_load_commit(&mut self, pc: Pc, consumers: u32) {
        timed(Layer::Predict, || self.0.on_load_commit(pc, consumers));
    }

    fn tick(&mut self, now: CpuCycle) {
        timed(Layer::Predict, || self.0.tick(now));
    }

    fn next_event_cycle(&self, now: CpuCycle) -> CpuCycle {
        timed(Layer::Predict, || self.0.next_event_cycle(now))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn observed_extremes(&self) -> Option<(u64, u32)> {
        self.0.observed_extremes()
    }

    fn observe_metrics(&self, v: &mut dyn MetricVisitor) {
        self.0.observe_metrics(v);
    }
}

/// Times every `CommandScheduler` call a channel controller makes.
pub struct TimedScheduler(pub Box<dyn CommandScheduler>);

impl CommandScheduler for TimedScheduler {
    fn select(&mut self, ctx: &SchedContext<'_>, candidates: &[Candidate]) -> Option<usize> {
        timed(Layer::SchedSelect, || self.0.select(ctx, candidates))
    }

    fn on_enqueue(&mut self, txn: &Transaction, now: DramCycle) {
        timed(Layer::SchedSelect, || self.0.on_enqueue(txn, now));
    }

    fn on_complete(&mut self, txn: &Transaction, now: DramCycle) {
        timed(Layer::SchedSelect, || self.0.on_complete(txn, now));
    }

    fn on_tick(&mut self, ctx: &SchedContext<'_>) {
        timed(Layer::SchedSelect, || self.0.on_tick(ctx));
    }

    fn next_event_cycle(&self, now: DramCycle, queue_len: usize) -> DramCycle {
        timed(Layer::SchedSelect, || {
            self.0.next_event_cycle(now, queue_len)
        })
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn observe_metrics(&self, v: &mut dyn MetricVisitor) {
        self.0.observe_metrics(v);
    }
}

/// Times `RequestSource::next_record` on the replayed stream.
pub struct TimedRequests<S>(pub S);

impl<S: RequestSource> RequestSource for TimedRequests<S> {
    fn fingerprint(&self) -> &Fingerprint {
        self.0.fingerprint()
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        timed(Layer::TraceSource, || self.0.next_record())
    }

    fn len_hint(&self) -> Option<u64> {
        self.0.len_hint()
    }
}
