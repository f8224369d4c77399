//! In-memory span tracing for the traced runs.
//!
//! Spans are recorded only by the benchmark's own wrappers (see
//! `wrap.rs`) around calls into the program's layers; nothing inside the
//! program is instrumented. A span is `(id, parent, layer, start, end)`.
//! Self time of a layer is its spans' total duration minus the part
//! covered by their direct child spans, corrected by the calibrated cost
//! of recording a span (see [`calibrate`]).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the wrappers record, named by the module whose
/// entry point the span encloses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The engine entry point: `Switch::run`, `run_port` or
    /// `LosslessFabric::run`.
    Run,
    /// `TrafficSource::next_packet`.
    Traffic,
    /// The fabric's `PortClassifier`.
    Classify,
    /// `PortScheduler::enqueue` on a `TreeScheduler` (a tree enqueue).
    TreeEnqueue,
    /// `PortScheduler::dequeue` on a `TreeScheduler` (a tree dequeue).
    TreeDequeue,
    /// `SchedulingTransaction::rank`.
    Rank,
    /// `SchedulingTransaction::on_dequeue`.
    OnDequeue,
}

const LAYERS: usize = 7;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Traffic => "sim.traffic.next_packet",
            Layer::Classify => "sim.switch.classify",
            Layer::TreeEnqueue => "core.tree.enqueue",
            Layer::TreeDequeue => "core.tree.dequeue",
            Layer::Rank => "algos.rank",
            Layer::OnDequeue => "algos.on_dequeue",
        }
    }

    /// Layers whose per-call durations are kept for percentiles.
    fn keeps_samples(self) -> bool {
        matches!(self, Layer::TreeEnqueue | Layer::TreeDequeue)
    }
}

/// Spans kept in memory for the written trace. Aggregates cover every
/// span; only the first `SPAN_CAP` are kept verbatim.
const SPAN_CAP: usize = 200_000;

struct Span {
    id: u32,
    /// `u32::MAX` for a root span.
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    start: Instant,
    child_ns: u64,
    children: u32,
}

/// Everything one traced rep recorded.
pub struct Tracer {
    origin: Instant,
    /// Calibration in force when recording began: what recording one
    /// child span adds to its parent, and what an empty span measures.
    child_cost_ns: f64,
    span_cost_ns: f64,
    stack: Vec<Open>,
    next_id: u32,
    spans: Vec<Span>,
    /// Per layer: completed spans, their inclusive time, the time their
    /// direct children covered, and how many direct children they had.
    pub calls: [u64; LAYERS],
    total_ns: [u64; LAYERS],
    child_ns: [u64; LAYERS],
    children: [u64; LAYERS],
    /// Per-call self times, for the layers that keep them.
    samples: [Vec<u32>; LAYERS],
}

impl Tracer {
    fn new() -> Self {
        let (child_cost_ns, span_cost_ns) = CALIBRATION.with(Cell::get);
        Tracer {
            origin: Instant::now(),
            child_cost_ns,
            span_cost_ns,
            stack: Vec::with_capacity(16),
            next_id: 0,
            spans: Vec::new(),
            calls: [0; LAYERS],
            total_ns: [0; LAYERS],
            child_ns: [0; LAYERS],
            children: [0; LAYERS],
            samples: Default::default(),
        }
    }

    fn enter(&mut self, layer: Layer) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            id,
            layer,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let l = open.layer as usize;
        self.calls[l] += 1;
        self.total_ns[l] += dur;
        self.child_ns[l] += open.child_ns;
        if open.layer.keeps_samples() {
            let own = dur as f64
                - open.child_ns as f64
                - open.children as f64 * self.child_cost_ns
                - self.span_cost_ns;
            self.samples[l].push(own.clamp(0.0, u32::MAX as f64) as u32);
        }
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.children += 1;
                self.children[p.layer as usize] += 1;
                p.id
            }
            None => u32::MAX,
        };
        if self.spans.len() < SPAN_CAP {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    /// Total self time of `layer`: inclusive time minus direct children,
    /// minus the recording cost of those children and of its own spans.
    /// Not clamped: a layer cheaper than the timing resolution can read
    /// slightly below zero.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let l = layer as usize;
        let own = self.total_ns[l] as f64 - self.child_ns[l] as f64;
        own - self.children[l] as f64 * self.child_cost_ns
            - self.calls[l] as f64 * self.span_cost_ns
    }

    /// Nearest-rank percentile of one layer's per-call self times.
    pub fn percentile_ns(&mut self, layer: Layer, p: f64) -> f64 {
        let v = &mut self.samples[layer as usize];
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, v.len()) - 1;
        *v.select_nth_unstable(idx).1 as f64
    }

    /// The kept spans as tab-separated lines with a header.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static CALIBRATION: Cell<(f64, f64)> = const { Cell::new((0.0, 0.0)) };
}

/// Start recording on this thread (replacing any earlier recording).
pub fn begin() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stop recording and return what was recorded.
pub fn finish() -> Tracer {
    TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without trace::begin")
}

/// Run `f` inside a span of `layer`. Without an active recording this
/// just calls `f`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let active = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.enter(layer);
            true
        }
        None => false,
    });
    let r = f();
    if active {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.exit();
            }
        });
    }
    r
}

/// Measure what recording costs and apply it to later recordings: a
/// parent span holding `K` empty child spans gives both the cost one
/// child adds to its parent (`(parent − children) / K`) and what an
/// empty span measures (`children / K`); each is the minimum of a few
/// trials.
pub fn calibrate() -> (f64, f64) {
    const K: u64 = 20_000;
    CALIBRATION.with(|c| c.set((0.0, 0.0)));
    let (mut child_cost, mut span_cost) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        begin();
        span(Layer::Run, || {
            for i in 0..K {
                span(Layer::Rank, || std::hint::black_box(i));
            }
        });
        let tr = finish();
        let (run, rank) = (Layer::Run as usize, Layer::Rank as usize);
        child_cost = child_cost.min((tr.total_ns[run] - tr.child_ns[run]) as f64 / K as f64);
        span_cost = span_cost.min(tr.total_ns[rank] as f64 / K as f64);
    }
    CALIBRATION.with(|c| c.set((child_cost, span_cost)));
    (child_cost, span_cost)
}
