//! Multi-core fabric drain sweep: a 16-port incast fabric with private
//! per-port slabs (the embarrassingly-parallel configuration) drained
//! sequentially (`PerPacket`) and with [`DrainMode::Parallel`] at 1, 2,
//! 4, and 8 workers.
//!
//! Every leg's per-port departure traces are cross-checked
//! byte-identical to a sequential per-packet reference run made before
//! timing — the sweep measures a drain that is *provably* the same
//! schedule, not a relaxed one. Legs are timed through
//! [`pifo_bench::measure`]; results land in `BENCH_parallel.json`, and
//! `--smoke` shrinks the sweep for CI.
//!
//! The JSON header records `available_parallelism` so the numbers are
//! interpretable: on a 1-core box the parallel legs can only tie the
//! sequential drain (worker threads time-slice one core), so the ≥2×
//! speedup check is asserted only when ≥4 cores are actually available
//! (and not in smoke mode, where the workload is too small to amortise
//! thread startup).

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder, SwitchRun};

const PORTS: usize = 16;
/// Incast fan-in per port: 16 flows converge on every output port.
const FANIN: u64 = 16;
const WAVE_PERIOD_NS: u64 = 20_000;
const PORT_BUFFER: usize = 512;

/// Synchronized incast onto all 16 ports: every wave lands `FANIN`
/// packets on every port simultaneously, so each port carries the same
/// heavy load and the parallel drain has 16 equal shards to spread.
fn arrivals(waves: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..FANIN {
            for port in 0..PORTS as u64 {
                // classify() routes flow f to port f % PORTS.
                let flow = (port + PORTS as u64 * k) as u32;
                out.push(Packet::new(
                    id,
                    FlowId(flow),
                    1_000,
                    Nanos(wave * WAVE_PERIOD_NS),
                ));
                id += 1;
            }
        }
    }
    out
}

fn classify(p: &Packet) -> usize {
    p.flow.0 as usize % PORTS
}

fn build_switch() -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_burst(32);
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        b.buffer_limit(PORT_BUFFER);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
    }
    sb.build(Box::new(classify))
}

fn assert_same_schedule(label: &str, reference: &SwitchRun, candidate: &SwitchRun) {
    for (port, (a, b)) in reference.ports.iter().zip(&candidate.ports).enumerate() {
        assert_eq!(a.drops, b.drops, "[{label}] port {port} drops diverge");
        assert_eq!(
            a.departures, b.departures,
            "[{label}] port {port} trace diverges from sequential"
        );
    }
}

fn main() {
    let mut bench = Bench::from_args("parallel_drain");
    bench.config("ports", PORTS);
    bench.config("fan_in", FANIN);

    // Full mode: ~1.3 M packets (5 000 waves x 16 ports x 16 fan-in).
    // Smoke: ~5 K.
    let waves: u64 = if bench.smoke() { 20 } else { 5_000 };
    let arr = arrivals(waves);
    bench.config("waves", waves);
    bench.config("arrival_packets", arr.len());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let reference = build_switch().run(&arr, DrainMode::PerPacket);
    let modes: Vec<DrainMode> = std::iter::once(DrainMode::PerPacket)
        .chain([1, 2, 4, 8].map(|workers| DrainMode::Parallel { workers }))
        .collect();
    let measured = bench.measure(&modes, |&mode, clock| {
        let mut sw = build_switch();
        let run = clock.time(|| sw.run(&arr, mode));
        let handled = run.total_departures() as u64 + run.total_drops() + run.misrouted;
        assert_eq!(handled, arr.len() as u64, "every packet accounted");
        assert_same_schedule(mode.label(), &reference, &run);
        handled
    });

    let baseline_pps = measured[0].elapsed.per_sec(measured[0].out);
    let mut speedup_at_4 = 0.0f64;
    for (&mode, m) in modes.iter().zip(&measured) {
        let pps = m.elapsed.per_sec(m.out);
        let speedup = pps / baseline_pps;
        let workers = match mode {
            DrainMode::Parallel { workers } => Some(workers),
            DrainMode::PerPacket => None,
        };
        if workers == Some(4) {
            speedup_at_4 = speedup;
        }
        bench.row(
            Row::new()
                .field("drain", mode.label())
                .field("workers", workers)
                .timed(&m.elapsed, m.out)
                .num("speedup_vs_per_packet", speedup, 3),
        );
    }

    // The acceptance check needs real cores under the workers and a
    // workload large enough to amortise thread startup; on fewer than 4
    // cores (or in smoke mode) the numbers are still recorded but not
    // asserted.
    if !bench.smoke() && cores >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "expected >= 2x per-packet throughput at 4 workers on {cores} cores, got {speedup_at_4:.2}x"
        );
    }
    bench.write("BENCH_parallel.json");
}
