//! The three workloads. Each derives its parameters from the seed, builds
//! its inputs and the program's objects (set-up), and makes one call into
//! a public entry point of `pifo-sim` (the run). README.md says why each
//! exists and which layers it bypasses.

use crate::trace::{self, span, Layer, Tracer};
use crate::util::Rng;
use crate::wrap::{self, TracedScheduler};
use pifo_algos::{Hierarchy, Stfq, WeightTable};
use pifo_core::prelude::*;
use pifo_sim::{
    merge, renumber, run_port, DrainMode, IncastSource, LosslessConfig, LosslessFabric,
    PauseAction, PoissonSource, PortConfig, PortTrace, SwitchBuilder, TrafficSource, TreeScheduler,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const RATE_BPS: u64 = 10_000_000_000;
pub const NAMES: [&str; 3] = ["incast16", "hpfq_backlog", "lossless_pfc16"];

/// The lossless fabric's own counters after a run.
#[derive(Debug)]
pub struct LosslessReport {
    pub rounds: u64,
    pub pauses: usize,
    pub resumes: usize,
    pub peak_skid: usize,
    pub skid_overflow: u64,
    pub max_pool_live: usize,
    pub min_pool_capacity: usize,
    pub stall: Option<String>,
    pub events_recorded: u64,
}

/// What one run produced, as read through the public API.
pub struct Outcome {
    /// Packets offered to the program, known before the run.
    pub offered: u64,
    pub ports: Vec<PortTrace>,
    pub misrouted: u64,
    /// The open-loop input, indexed by packet id.
    pub arrivals: Option<Vec<Packet>>,
    pub pool_admitted: u64,
    pub pool_rejected: u64,
    /// Pool accounting violations found after the run.
    pub pool_errors: Vec<String>,
    pub lossless: Option<LosslessReport>,
}

impl Outcome {
    pub fn departed(&self) -> u64 {
        self.ports.iter().map(|p| p.departures.len() as u64).sum()
    }

    pub fn dropped(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }
}

pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub outcome: Outcome,
    pub trace: Option<Tracer>,
}

pub enum Workload {
    Incast16(Incast16),
    HpfqBacklog(HpfqBacklog),
    LosslessPfc16(LosslessPfc16),
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "incast16" => Workload::Incast16(Incast16::new(seed)),
            "hpfq_backlog" => Workload::HpfqBacklog(HpfqBacklog::new(seed)),
            "lossless_pfc16" => Workload::LosslessPfc16(LosslessPfc16::new(seed)),
            _ => return None,
        })
    }

    /// Set up and run once, handing the program either the bare objects
    /// (what the end-to-end metrics time) or span-recording wrappers.
    /// Set-up and run are timed separately; when traced, the spans of
    /// both land in `Rep::trace`.
    pub fn rep(&self, traced: bool) -> Rep {
        if traced {
            trace::begin();
        }
        let t0 = Instant::now();
        let (run_start, run_end, outcome) = match self {
            Workload::Incast16(w) => w.rep(traced),
            Workload::HpfqBacklog(w) => w.rep(traced),
            Workload::LosslessPfc16(w) => w.rep(traced),
        };
        Rep {
            setup_s: run_start.duration_since(t0).as_secs_f64(),
            run_s: run_end.duration_since(run_start).as_secs_f64(),
            outcome,
            trace: traced.then(trace::finish),
        }
    }
}

/// Accounting violations of one pool after a drained run.
fn pool_errors(pool: &SharedPacketPool, what: &str, errors: &mut Vec<String>) {
    if pool.accounting_errors() != 0 {
        errors.push(format!(
            "{what}: {} accounting errors",
            pool.accounting_errors()
        ));
    }
    if pool.live() != 0 {
        errors.push(format!("{what}: {} packets still resident", pool.live()));
    }
    if let Err(e) = catch_unwind(AssertUnwindSafe(|| pool.assert_coherent())) {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        errors.push(format!("{what}: incoherent: {msg}"));
    }
}

fn stfq_root(traced: bool) -> (TreeBuilder, NodeId) {
    let mut b = TreeBuilder::new();
    let root = b.add_root("stfq", wrap::tx(Box::new(Stfq::unweighted()), traced));
    (b, root)
}

fn open_loop_input(sources: Vec<Box<dyn TrafficSource>>, traced: bool) -> Vec<Packet> {
    let sources = sources
        .into_iter()
        .map(|s| wrap::source(s, traced))
        .collect();
    let mut arrivals = merge(sources);
    renumber(&mut arrivals);
    arrivals
}

// ---------------------------------------------------------------------------
// incast16
// ---------------------------------------------------------------------------

const INCAST_PORTS: u32 = 16;
const INCAST_FANIN: u32 = 64;
const INCAST_WAVES: u64 = 250;
const INCAST_BUFFER: usize = 1_024;

/// 16 private-slab ports, one flat STFQ tree each on the default
/// (`sorted`) backend; every port takes 64-sender incast waves.
pub struct Incast16 {
    /// Per port: packet length and wave period.
    ports: Vec<(u32, Nanos)>,
}

impl Incast16 {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let ports = (0..INCAST_PORTS)
            .map(|_| {
                let len = rng.range(900, 1_101) as u32;
                let load = 0.6 + 0.1 * rng.unit();
                let busy = INCAST_FANIN as u64 * tx_time(len as u64, RATE_BPS).as_nanos();
                (len, Nanos((busy as f64 / load) as u64))
            })
            .collect();
        Incast16 { ports }
    }

    fn rep(&self, traced: bool) -> (Instant, Instant, Outcome) {
        let sources = self
            .ports
            .iter()
            .enumerate()
            .map(|(p, &(len, period))| {
                Box::new(IncastSource::new(
                    FlowId(p as u32 * INCAST_FANIN),
                    INCAST_FANIN,
                    len,
                    1,
                    RATE_BPS,
                    period,
                    Nanos(period.as_nanos() * INCAST_WAVES),
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let arrivals = open_loop_input(sources, traced);
        let mut sb = SwitchBuilder::new(RATE_BPS);
        for _ in 0..INCAST_PORTS {
            let (mut b, root) = stfq_root(traced);
            b.buffer_limit(INCAST_BUFFER);
            sb.add_port(b.build(Box::new(move |_| root)).expect("flat STFQ tree"));
        }
        let classify = Box::new(|p: &Packet| (p.flow.0 / INCAST_FANIN) as usize);
        let mut sw = sb.build(wrap::classifier(classify, traced));

        let run_start = Instant::now();
        let run = span(Layer::Run, || sw.run(&arrivals, DrainMode::PerPacket));
        let run_end = Instant::now();

        let mut pool_errs = Vec::new();
        let (mut admitted, mut rejected) = (0, 0);
        for i in 0..sw.num_ports() {
            let pool = sw.port(i).packet_buffer();
            admitted += pool.port_admitted(0);
            rejected += pool.port_rejected(0);
            pool_errors(pool, &format!("port {i} slab"), &mut pool_errs);
        }
        let outcome = Outcome {
            offered: arrivals.len() as u64,
            ports: run.ports,
            misrouted: run.misrouted,
            arrivals: Some(arrivals),
            pool_admitted: admitted,
            pool_rejected: rejected,
            pool_errors: pool_errs,
            lossless: None,
        };
        (run_start, run_end, outcome)
    }
}

// ---------------------------------------------------------------------------
// hpfq_backlog
// ---------------------------------------------------------------------------

const HPFQ_CLASSES: u32 = 4;
const HPFQ_LEAVES: u32 = 4;
const HPFQ_FLOWS_PER_LEAF: u32 = 4;
const HPFQ_LOAD: f64 = 1.1;
/// Expected packets per rep; the input duration follows from the rates.
const HPFQ_PKTS: f64 = 400_000.0;

struct PoissonFlow {
    flow: FlowId,
    len: u32,
    rate_pps: f64,
    seed: u64,
}

/// One port through `run_port`: a 3-level HPFQ hierarchy (root → 4
/// classes → 16 leaves → 64 weighted flows) on the `heap` backend, fed
/// Poisson traffic at 1.1× line rate. Each flow offers 1.1× its
/// hierarchical fair share, so every queue grows at the same relative
/// rate and the wait percentiles depend little on the seed.
pub struct HpfqBacklog {
    hierarchy: Hierarchy,
    flows: Vec<PoissonFlow>,
    end: Nanos,
}

impl HpfqBacklog {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let bytes_per_s = HPFQ_LOAD * RATE_BPS as f64 / 8.0;
        let mut flows = Vec::new();
        let mut weights = |n: u32| -> Vec<(u64, f64)> {
            let w: Vec<u64> = (0..n).map(|_| rng.range(1, 4)).collect();
            let sum: u64 = w.iter().sum();
            w.iter().map(|&x| (x, x as f64 / sum as f64)).collect()
        };
        let class_w = weights(HPFQ_CLASSES);
        let leaf_w: Vec<Vec<(u64, f64)>> =
            (0..HPFQ_CLASSES).map(|_| weights(HPFQ_LEAVES)).collect();
        let flow_w: Vec<Vec<(u64, f64)>> = (0..HPFQ_CLASSES * HPFQ_LEAVES)
            .map(|_| weights(HPFQ_FLOWS_PER_LEAF))
            .collect();
        let mut classes = Vec::new();
        for (c, &(cw, cshare)) in class_w.iter().enumerate() {
            let mut leaves = Vec::new();
            for (l, &(lw, lshare)) in leaf_w[c].iter().enumerate() {
                let leaf = c * HPFQ_LEAVES as usize + l;
                let mut members = Vec::new();
                for (f, &(fw, fshare)) in flow_w[leaf].iter().enumerate() {
                    let flow = FlowId((leaf * HPFQ_FLOWS_PER_LEAF as usize + f) as u32);
                    members.push((flow, fw));
                    let len = rng.range(700, 1_301) as u32;
                    flows.push(PoissonFlow {
                        flow,
                        len,
                        rate_pps: cshare * lshare * fshare * bytes_per_s / len as f64,
                        seed: rng.next_u64(),
                    });
                }
                leaves.push((lw, Hierarchy::leaf(&format!("leaf{c}.{l}"), members)));
            }
            classes.push((cw, Hierarchy::class(&format!("class{c}"), leaves)));
        }
        let pkts_per_s: f64 = flows.iter().map(|f| f.rate_pps).sum();
        HpfqBacklog {
            hierarchy: Hierarchy::class("root", classes),
            flows,
            end: Nanos((HPFQ_PKTS / pkts_per_s * 1e9) as u64),
        }
    }

    fn rep(&self, traced: bool) -> (Instant, Instant, Outcome) {
        let sources = self
            .flows
            .iter()
            .map(|f| {
                Box::new(PoissonSource::new(
                    f.flow, f.len, f.rate_pps, self.end, f.seed,
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let arrivals = open_loop_input(sources, traced);
        let cfg = PortConfig::new(RATE_BPS);

        let (run_start, run_end, departures, sched) = if traced {
            let tree = mirror_hierarchy(&self.hierarchy);
            let mut sched = TracedScheduler(TreeScheduler::new("hpfq", tree));
            let run_start = Instant::now();
            let departures = span(Layer::Run, || run_port(&arrivals, &mut sched, &cfg));
            (run_start, Instant::now(), departures, sched.0)
        } else {
            let (tree, _) = self.hierarchy.build_with_backend(PifoBackend::Heap);
            let mut sched = TreeScheduler::new("hpfq", tree);
            let run_start = Instant::now();
            let departures = run_port(&arrivals, &mut sched, &cfg);
            (run_start, Instant::now(), departures, sched)
        };

        let pool = sched.tree().packet_buffer();
        let mut pool_errs = Vec::new();
        pool_errors(pool, "hpfq slab", &mut pool_errs);
        let outcome = Outcome {
            offered: arrivals.len() as u64,
            ports: vec![PortTrace {
                departures,
                drops: sched.drops(),
                ..PortTrace::default()
            }],
            misrouted: 0,
            arrivals: Some(arrivals),
            pool_admitted: pool.port_admitted(0),
            pool_rejected: pool.port_rejected(0),
            pool_errors: pool_errs,
            lossless: None,
        };
        (run_start, run_end, outcome)
    }
}

/// The tree `Hierarchy::build_with_backend(Heap)` builds — same nodes in
/// the same (preorder) id order, same STFQ weight tables, same flow→leaf
/// classifier — with every transaction wrapped for tracing. The gate
/// checks that its departures equal the `Hierarchy`-built tree's.
fn mirror_hierarchy(h: &Hierarchy) -> ScheduleTree {
    fn size(h: &Hierarchy) -> u32 {
        match h {
            Hierarchy::Leaf { .. } => 1,
            Hierarchy::Class { children, .. } => {
                1 + children.iter().map(|(_, c)| size(c)).sum::<u32>()
            }
        }
    }
    fn add(
        h: &Hierarchy,
        parent: Option<NodeId>,
        b: &mut TreeBuilder,
        next: &mut u32,
        leaf_of: &mut HashMap<FlowId, NodeId>,
    ) {
        let my_id = *next;
        *next += 1;
        let (name, table) = match h {
            Hierarchy::Leaf { name, flows } => {
                (name, WeightTable::from_pairs(flows.iter().copied()))
            }
            Hierarchy::Class { name, children } => {
                let mut table = WeightTable::new();
                let mut child_id = my_id + 1;
                for (w, c) in children {
                    table.set(FlowId(child_id), *w);
                    child_id += size(c);
                }
                (name, table)
            }
        };
        let tx = wrap::tx(Box::new(Stfq::new(table)), true);
        let id = match parent {
            None => b.add_root(name, tx),
            Some(p) => b.add_child(p, name, tx),
        };
        match h {
            Hierarchy::Leaf { flows, .. } => {
                for (f, _) in flows {
                    leaf_of.insert(*f, id);
                }
            }
            Hierarchy::Class { children, .. } => {
                for (_, c) in children {
                    add(c, Some(id), b, next, leaf_of);
                }
            }
        }
    }
    let mut b = TreeBuilder::new();
    b.with_backend(PifoBackend::Heap);
    let mut leaf_of = HashMap::new();
    add(h, None, &mut b, &mut 0, &mut leaf_of);
    b.build(Box::new(move |p: &Packet| {
        leaf_of.get(&p.flow).copied().unwrap_or(NodeId::INVALID)
    }))
    .expect("mirrored hierarchy")
}

// ---------------------------------------------------------------------------
// lossless_pfc16
// ---------------------------------------------------------------------------

const LOSSLESS_PORTS: u32 = 16;
/// Senders per port: flow ids `port * FANIN ..`, so the classifier is
/// `flow / FANIN`.
const LOSSLESS_FANIN: u32 = 192;
const LOSSLESS_WAVES: u64 = 80;
const XOFF: usize = 32;
const XON: usize = 8;
const HEADROOM: usize = 32;
/// Per-flow cap of the port×flow admission ledger.
const FLOW_CAP: usize = 8;

struct LosslessPort {
    len: u32,
    period: Nanos,
}

/// A `LosslessFabric` over a 16-port shared pool under port×flow
/// admission, fed live incast sources (3 072 flows), with telemetry
/// recorder and path records on. Each source stops after a fixed number
/// of waves, so the offered load is known before the run however long
/// the pauses stretch it.
pub struct LosslessPfc16 {
    ports: Vec<LosslessPort>,
}

/// The first `left` packets of a source (pause and resume forwarded).
struct Take {
    inner: IncastSource,
    left: u64,
}

impl TrafficSource for Take {
    fn next_packet(&mut self) -> Option<Packet> {
        self.left = self.left.checked_sub(1)?;
        self.inner.next_packet()
    }

    fn pause(&mut self, now: Nanos) {
        self.inner.pause(now)
    }

    fn resume(&mut self, now: Nanos) {
        self.inner.resume(now)
    }
}

impl LosslessPfc16 {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let ports = (0..LOSSLESS_PORTS)
            .map(|_| {
                let len = rng.range(900, 1_101) as u32;
                let load = 0.5 + 0.2 * rng.unit();
                let busy = LOSSLESS_FANIN as u64 * tx_time(len as u64, RATE_BPS).as_nanos();
                LosslessPort {
                    len,
                    period: Nanos((busy as f64 / load) as u64),
                }
            })
            .collect();
        LosslessPfc16 { ports }
    }

    fn rep(&self, traced: bool) -> (Instant, Instant, Outcome) {
        let per_source = LOSSLESS_WAVES * LOSSLESS_FANIN as u64;
        let sources: Vec<Box<dyn TrafficSource>> = self
            .ports
            .iter()
            .enumerate()
            .map(|(p, lp)| {
                let incast = IncastSource::new(
                    FlowId(p as u32 * LOSSLESS_FANIN),
                    LOSSLESS_FANIN,
                    lp.len,
                    1,
                    RATE_BPS,
                    lp.period,
                    Nanos(u64::MAX),
                );
                let take = Take {
                    inner: incast,
                    left: per_source,
                };
                wrap::source(Box::new(take), traced)
            })
            .collect();
        let cfg = LosslessConfig::new(XOFF, XON).with_headroom(HEADROOM);
        let capacity = cfg.min_pool_capacity(LOSSLESS_PORTS as usize);
        let mut sb = SwitchBuilder::new(RATE_BPS);
        sb.with_telemetry(TelemetryConfig::with_paths());
        sb.with_shared_pool(
            capacity,
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(XOFF + HEADROOM),
                flow: Threshold::Static(FLOW_CAP),
            },
        );
        for _ in 0..LOSSLESS_PORTS {
            sb.add_shared_port(|pool| {
                let (b, root) = stfq_root(traced);
                b.build_in_pool(Box::new(move |_| root), pool)
                    .expect("flat STFQ tree in the shared pool")
            });
        }
        let classify = Box::new(|p: &Packet| (p.flow.0 / LOSSLESS_FANIN) as usize);
        let mut fabric = LosslessFabric::new(sb.build(wrap::classifier(classify, traced)), cfg);

        let run_start = Instant::now();
        let run = span(Layer::Run, || fabric.run(sources, DrainMode::PerPacket));
        let run_end = Instant::now();

        let pool = fabric
            .switch()
            .shared_pool()
            .expect("the fabric was built with a shared pool");
        let stats = pool.stats();
        let mut pool_errs = Vec::new();
        pool_errors(pool.borrow(), "shared pool", &mut pool_errs);
        let report = LosslessReport {
            rounds: run.rounds,
            pauses: run.count_events(PauseAction::Pause),
            resumes: run.count_events(PauseAction::Resume),
            peak_skid: run.peak_skid.iter().copied().max().unwrap_or(0),
            skid_overflow: run.skid_overflow,
            max_pool_live: run.max_pool_live,
            min_pool_capacity: capacity,
            stall: run.stall.map(|s| s.to_string()),
            events_recorded: run.telemetry.as_ref().map_or(0, |t| t.events_recorded),
        };
        let outcome = Outcome {
            offered: per_source * LOSSLESS_PORTS as u64,
            ports: run.run.ports,
            misrouted: run.run.misrouted,
            arrivals: None,
            pool_admitted: stats.ports.iter().map(|p| p.admitted).sum(),
            pool_rejected: stats.ports.iter().map(|p| p.rejected).sum(),
            pool_errors: pool_errs,
            lossless: Some(report),
        };
        (run_start, run_end, outcome)
    }
}
