//! Shared-pool admission sweep: the §5.1/§6.1 memory system under an
//! incast storm, comparing three buffer organisations on a 16-port
//! fabric —
//!
//! * `private`    — every port owns a private slab (the pre-pool design:
//!   ports are embarrassingly independent, the storm cannot touch the
//!   victims and the victims cannot borrow the storm's idle memory);
//! * `shared_naive` — one pool, global capacity only
//!   (`AdmissionPolicy::Unlimited`): the storm pins the pool and locks
//!   the victim ports out;
//! * `shared_dynamic` — one pool behind Choudhury–Hahne dynamic
//!   thresholds (`alpha = 1`): the storm is fenced to a fraction of the
//!   pool and victim drops return to zero.
//!
//! Every configuration drains with `DrainMode::PerPacket`, timed through
//! [`pifo_bench::measure`]. Results land in `BENCH_pool.json`; `--smoke`
//! shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};

const PORTS: usize = 16;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;
const VICTIM_BURST: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Private,
    SharedNaive,
    SharedDynamic,
}

impl Config {
    const ALL: [Config; 3] = [Config::Private, Config::SharedNaive, Config::SharedDynamic];

    fn label(self) -> &'static str {
        match self {
            Config::Private => "private",
            Config::SharedNaive => "shared_naive",
            Config::SharedDynamic => "shared_dynamic",
        }
    }
}

/// What one run of a cell moved and dropped.
struct Outcome {
    packets: u64,
    hog_drops: u64,
    victim_drops: u64,
}

/// The storm + victims workload: `waves` incast waves of 1 024 packets
/// into port 0 (8× the port drain rate, so the pool stays pinned), and a
/// 64-packet victim burst per port 1..15 every 500 µs, staggered.
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
    let horizon = waves * WAVE_PERIOD_NS;
    for port in 1..PORTS as u64 {
        let mut t = 50_000 + 30_000 * (port - 1);
        while t < horizon {
            for _ in 0..VICTIM_BURST {
                out.push(Packet::new(id, FlowId(100 + port as u32), 1_000, Nanos(t)));
                id += 1;
            }
            t += 500_000;
        }
    }
    out.sort_by_key(|p| p.arrival);
    out
}

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

fn build_switch(config: Config, backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_burst(32);
    match config {
        Config::Private => {
            for port in 0..PORTS {
                let mut b = TreeBuilder::new();
                b.with_backend(backend);
                if port == 0 {
                    b.buffer_limit(POOL_CAPACITY);
                }
                let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
            }
        }
        Config::SharedNaive | Config::SharedDynamic => {
            let policy = if config == Config::SharedNaive {
                AdmissionPolicy::Unlimited
            } else {
                AdmissionPolicy::DynamicThreshold { num: 1, den: 1 }
            };
            sb.with_shared_pool(POOL_CAPACITY, policy);
            for _ in 0..PORTS {
                sb.add_shared_port(|pool| {
                    let mut b = TreeBuilder::new();
                    b.with_backend(backend);
                    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                    b.build_in_pool(Box::new(move |_| root), pool)
                        .expect("tree")
                });
            }
        }
    }
    sb.build(Box::new(classify))
}

fn main() {
    let mut bench = Bench::from_args("shared_pool");
    bench.config("ports", PORTS);
    bench.config("pool_capacity", POOL_CAPACITY);

    // Full mode: ~1.2 M storm packets (+ victim bursts). Smoke: ~60 K.
    let waves: u64 = if bench.smoke() { 58 } else { 1_200 };
    let arr = arrivals(waves);
    bench.config("waves", waves);
    bench.config("arrival_packets", arr.len());

    let cells: Vec<(Config, PifoBackend)> = Config::ALL
        .into_iter()
        .flat_map(|config| PifoBackend::ALL.map(|backend| (config, backend)))
        .collect();
    let measured = bench.measure(&cells, |&(config, backend), clock| {
        let mut sw = build_switch(config, backend);
        let run = clock.time(|| sw.run(&arr, DrainMode::PerPacket));
        let handled = run.total_departures() as u64 + run.total_drops();
        assert_eq!(handled, arr.len() as u64, "every packet accounted");
        Outcome {
            packets: handled,
            hog_drops: run.ports[0].drops,
            victim_drops: run.ports[1..].iter().map(|p| p.drops).sum(),
        }
    });

    for (&(config, backend), m) in cells.iter().zip(&measured) {
        let r = &m.out;
        bench.row(
            Row::new()
                .field("config", config.label())
                .field("backend", backend.label())
                .field("hog_drops", r.hog_drops)
                .field("victim_drops", r.victim_drops)
                .timed(&m.elapsed, r.packets),
        );
    }

    // Admission behaviour is a correctness claim of the sweep, not just
    // a number: victims must drop under the naive cap and must not under
    // dynamic thresholds (or private slabs).
    for config in Config::ALL {
        let victim_drops: u64 = cells
            .iter()
            .zip(&measured)
            .filter(|((c, _), _)| *c == config)
            .map(|(_, m)| m.out.victim_drops)
            .sum();
        match config {
            Config::SharedNaive => {
                assert!(victim_drops > 0, "naive shared cap must lock victims out")
            }
            Config::Private | Config::SharedDynamic => assert_eq!(
                victim_drops,
                0,
                "{} must not drop victim packets",
                config.label()
            ),
        }
    }
    bench.write("BENCH_pool.json");
}
