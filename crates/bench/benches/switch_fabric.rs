//! Multi-port switch-fabric throughput: the shared-classifier → N-port →
//! line-rate-drain pipeline of `pifo_sim::switch`, swept over ports ×
//! PIFO backends × traffic patterns.
//!
//! One arrival stream per traffic pattern (incast, Markov on/off,
//! heavy-tailed flow workload; 1M+ packets each in full mode) is
//! classified across 1/4/16 ports and drained with
//! `DrainMode::PerPacket`, timed through [`pifo_bench::measure`].
//! Results land in `BENCH_switch.json`; `--smoke` shrinks the sweep for
//! CI.

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use pifo_sim::traffic::{
    flow_workload, merge, renumber, IncastSource, MarkovOnOffSource, SizeDistribution,
    TrafficSource,
};

/// One measured configuration: a pattern's arrival stream, a port
/// count and a backend.
struct Cell<'a> {
    pattern: &'static str,
    arrivals: &'a [Packet],
    ports: usize,
    backend: PifoBackend,
}

/// A flat single-node STFQ scheduler — the common per-port program.
fn port_tree(backend: PifoBackend, buffer: usize) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    b.buffer_limit(buffer);
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    b.build(Box::new(move |_| root)).expect("single-node tree")
}

/// Incast: 64 synchronized senders per wave, bursting every 20 µs.
fn incast_arrivals(target_pkts: usize) -> Vec<Packet> {
    const FANIN: u32 = 64;
    const PKTS_PER_SENDER: u32 = 16;
    let per_epoch = (FANIN * PKTS_PER_SENDER) as usize;
    let epochs = target_pkts.div_ceil(per_epoch) as u64;
    let period = Nanos::from_micros(20);
    let mut src = IncastSource::new(
        FlowId(0),
        FANIN,
        1_000,
        PKTS_PER_SENDER,
        40_000_000_000,
        period,
        Nanos(period.as_nanos() * epochs),
    );
    let mut out: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
    renumber(&mut out);
    out
}

/// Markov on/off: 64 independently bursting flows.
fn onoff_arrivals(target_pkts: usize) -> Vec<Packet> {
    const FLOWS: u32 = 64;
    // Mean cycle: 16 packets * 1 µs on-rate + 10 µs idle ≈ 26 µs per
    // flow, so packets/flow ≈ horizon / 1.6 µs.
    let horizon = Nanos((target_pkts as u64 / FLOWS as u64) * 1_650);
    let sources: Vec<Box<dyn TrafficSource>> = (0..FLOWS)
        .map(|f| {
            Box::new(MarkovOnOffSource::new(
                FlowId(f),
                1_000,
                16.0,
                8_000_000_000,
                Nanos::from_micros(10),
                horizon,
                0xC0FFEE + f as u64,
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let mut out = merge(sources);
    renumber(&mut out);
    out
}

/// Heavy-tailed flow workload: bounded-Pareto sizes, Poisson flow
/// arrivals, packets injected at access-link rate.
fn heavytail_arrivals(target_pkts: usize) -> Vec<Packet> {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 10_000_000);
    // Discretized mean ≈ 5 KB ≈ 3.3 MTU packets per flow.
    let n_flows = (target_pkts / 3).max(1);
    let (pkts, _) = flow_workload(n_flows, 2_000_000.0, &dist, 10_000_000_000, 1_500, 7);
    pkts
}

/// The fabric of one cell: `ports` flat STFQ ports behind a flow-hash
/// classifier.
fn build_switch(ports: usize, backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    for _ in 0..ports {
        sb.add_port(port_tree(backend, 60_000));
    }
    sb.with_burst(64);
    sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
}

fn main() {
    let mut bench = Bench::from_args("switch_fabric");
    let (target_pkts, port_counts, patterns): (usize, &[usize], &[&str]) = if bench.smoke() {
        (60_000, &[4], &["incast"])
    } else {
        (1_200_000, &[1, 4, 16], &["incast", "onoff", "heavytail"])
    };

    let streams: Vec<(&'static str, Vec<Packet>)> = patterns
        .iter()
        .map(|&pattern| {
            let arrivals = match pattern {
                "incast" => incast_arrivals(target_pkts),
                "onoff" => onoff_arrivals(target_pkts),
                "heavytail" => heavytail_arrivals(target_pkts),
                other => unreachable!("unknown pattern {other}"),
            };
            if !bench.smoke() {
                assert!(
                    arrivals.len() >= 1_000_000,
                    "{pattern}: full mode must sweep 1M+ packets (got {})",
                    arrivals.len()
                );
            }
            (pattern, arrivals)
        })
        .collect();
    let sizes = streams.iter().fold(Row::new(), |row, (pattern, arrivals)| {
        row.field(pattern, arrivals.len())
    });
    bench.config("arrival_packets", sizes);

    // ---- Fabric sweep: pattern × ports × backend -----------------------
    let mut cells = Vec::new();
    for (pattern, arrivals) in &streams {
        for &ports in port_counts {
            for backend in PifoBackend::ALL {
                cells.push(Cell {
                    pattern,
                    arrivals,
                    ports,
                    backend,
                });
            }
        }
    }
    let measured = bench.measure(&cells, |c, clock| {
        let mut sw = build_switch(c.ports, c.backend);
        let run = clock.time(|| sw.run(c.arrivals, DrainMode::PerPacket));
        let handled = run.total_departures() as u64 + run.total_drops();
        assert!(handled > 0, "{}: fabric must move packets", c.pattern);
        handled
    });

    for (c, m) in cells.iter().zip(&measured) {
        bench.row(
            Row::new()
                .field("pattern", c.pattern)
                .field("ports", c.ports)
                .field("backend", c.backend.label())
                .timed(&m.elapsed, m.out),
        );
    }
    bench.write("BENCH_switch.json");
}
