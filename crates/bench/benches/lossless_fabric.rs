//! Lossless-fabric sweep: what PFC-style backpressure costs — and buys —
//! against the drop-based admission policies on the §5.1 incast storm.
//!
//! A 16-port fabric takes the shared-pool incast workload under four
//! buffer disciplines:
//!
//! * `drop_only`    — one pool, global capacity only
//!   (`AdmissionPolicy::Unlimited`): the storm pins the pool and the
//!   fabric sheds load by tail-dropping;
//! * `static`       — fixed per-port thresholds: fenced, still dropping;
//! * `dynamic`      — Choudhury–Hahne thresholds (`alpha = 1`): victims
//!   protected, hog drops continue;
//! * `pfc_lossless` — port×flow admission wired into watermark-driven
//!   pause/resume ([`LosslessFabric`]): **zero drops, asserted** — the
//!   hog is paced to its drain rate instead of shedding.
//!
//! Every discipline runs on every exact PIFO backend; the lossless leg
//! also reports pause counts and peak pool occupancy. Cells are timed
//! through [`pifo_bench::measure`]; results land in
//! `BENCH_lossless.json`, and `--smoke` shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Clock, Row};
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use pifo_sim::{IncastSource, LosslessConfig, LosslessFabric, TrafficSource};

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;
const XOFF: usize = 32;
const XON: usize = 8;
const HEADROOM: usize = 32;

#[derive(Clone, Copy, PartialEq)]
enum Discipline {
    DropOnly,
    Static,
    Dynamic,
    PfcLossless,
}

impl Discipline {
    const ALL: [Discipline; 4] = [
        Discipline::DropOnly,
        Discipline::Static,
        Discipline::Dynamic,
        Discipline::PfcLossless,
    ];

    fn label(self) -> &'static str {
        match self {
            Discipline::DropOnly => "drop_only",
            Discipline::Static => "static",
            Discipline::Dynamic => "dynamic",
            Discipline::PfcLossless => "pfc_lossless",
        }
    }

    fn policy(self) -> AdmissionPolicy {
        match self {
            Discipline::DropOnly => AdmissionPolicy::Unlimited,
            Discipline::Static => AdmissionPolicy::Static {
                per_port: XOFF + HEADROOM,
            },
            Discipline::Dynamic => AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
            Discipline::PfcLossless => AdmissionPolicy::PortFlow {
                port: Threshold::Static(XOFF + HEADROOM),
                flow: Threshold::Unlimited,
            },
        }
    }
}

/// What one run of a cell moved, dropped and paused.
struct Outcome {
    packets: u64,
    departed: u64,
    drops: u64,
    pauses: usize,
    peak_pool: usize,
}

/// The drop-based runs replay a pre-generated arrival trace (open loop:
/// the storm does not react to drops).
fn arrivals(waves: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..WAVE_PKTS {
            out.push(Packet::new(
                id,
                FlowId((k % 64) as u32),
                1_000,
                Nanos(wave * WAVE_PERIOD_NS),
            ));
            id += 1;
        }
    }
    out
}

/// The lossless run needs live sources (backpressure closes the loop):
/// the same 64-sender incast, emitted reactively.
fn hog_source(waves: u64) -> Vec<Box<dyn TrafficSource>> {
    vec![Box::new(IncastSource::new(
        FlowId(0),
        64,
        1_000,
        (WAVE_PKTS / 64) as u32,
        RATE_BPS,
        Nanos(WAVE_PERIOD_NS),
        Nanos(waves * WAVE_PERIOD_NS),
    )) as Box<dyn TrafficSource>]
}

// Every storm flow lands on port 0; ports 1..15 stand by (their share
// of the pool is what the sizing rule reserves).
fn classify(_: &Packet) -> usize {
    0
}

fn build_switch(discipline: Discipline, backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(32);
    sb.with_shared_pool(POOL_CAPACITY, discipline.policy());
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(classify))
}

fn run_drop_based(
    discipline: Discipline,
    backend: PifoBackend,
    arr: &[Packet],
    clock: &mut Clock,
) -> Outcome {
    let mut sw = build_switch(discipline, backend);
    let run = clock.time(|| sw.run(arr, DrainMode::PerPacket));
    let handled = run.total_departures() as u64 + run.total_drops();
    assert_eq!(handled, arr.len() as u64, "every packet accounted");
    Outcome {
        packets: handled,
        departed: run.total_departures() as u64,
        drops: run.total_drops(),
        pauses: 0,
        peak_pool: 0,
    }
}

fn run_lossless(backend: PifoBackend, waves: u64, clock: &mut Clock) -> Outcome {
    let cfg = LosslessConfig::new(XOFF, XON).with_headroom(HEADROOM);
    let mut fabric = LosslessFabric::new(build_switch(Discipline::PfcLossless, backend), cfg);
    let sources = hog_source(waves);
    let run = clock.time(|| fabric.run(sources, DrainMode::PerPacket));

    // The zero-drop contract is a bench invariant, not just a column.
    assert!(run.stall.is_none(), "lossless run stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "the lossless leg must not drop");
    assert_eq!(run.skid_overflow, 0, "headroom must never overflow");
    assert_eq!(
        run.count_events(pifo_sim::PauseAction::Pause),
        run.count_events(pifo_sim::PauseAction::Resume),
        "every pause must resolve"
    );
    assert!(
        run.max_pool_live <= cfg.min_pool_capacity(PORTS),
        "pool peak {} exceeds the sizing rule {}",
        run.max_pool_live,
        cfg.min_pool_capacity(PORTS)
    );

    let departed = run.total_departures() as u64;
    Outcome {
        packets: departed,
        departed,
        drops: 0,
        pauses: run.count_events(pifo_sim::PauseAction::Pause),
        peak_pool: run.max_pool_live,
    }
}

fn main() {
    let mut bench = Bench::from_args("lossless_fabric");
    for (key, value) in [
        ("ports", PORTS),
        ("pool_capacity", POOL_CAPACITY),
        ("xoff", XOFF),
        ("xon", XON),
        ("headroom", HEADROOM),
    ] {
        bench.config(key, value);
    }
    let waves: u64 = if bench.smoke() { 25 } else { 400 };
    let arr = arrivals(waves);
    bench.config("waves", waves);
    bench.config("storm_packets", arr.len());

    let cells: Vec<(Discipline, PifoBackend)> = Discipline::ALL
        .into_iter()
        .flat_map(|d| PifoBackend::EXACT.map(|backend| (d, backend)))
        .collect();
    let measured = bench.measure(&cells, |&(discipline, backend), clock| match discipline {
        Discipline::PfcLossless => run_lossless(backend, waves, clock),
        _ => run_drop_based(discipline, backend, &arr, clock),
    });

    for (&(discipline, backend), m) in cells.iter().zip(&measured) {
        let r = &m.out;
        bench.row(
            Row::new()
                .field("discipline", discipline.label())
                .field("backend", backend.label())
                .field("departed", r.departed)
                .field("drops", r.drops)
                .field("pauses", r.pauses)
                .field("peak_pool", r.peak_pool)
                .timed(&m.elapsed, r.packets),
        );
    }

    // The sweep's comparative claims, asserted:
    let drops_of = |d: Discipline| -> u64 {
        cells
            .iter()
            .zip(&measured)
            .filter(|((c, _), _)| *c == d)
            .map(|(_, m)| m.out.drops)
            .sum()
    };
    assert!(
        drops_of(Discipline::DropOnly) > 0,
        "the storm must overwhelm the naive pool"
    );
    assert_eq!(drops_of(Discipline::PfcLossless), 0, "lossless is lossless");
    bench.write("BENCH_lossless.json");
}
