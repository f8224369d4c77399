//! Scheduler-vs-baseline benchmarks: the software cost of a programmable
//! PIFO/STFQ port against the fixed-function DRR, strict-priority and
//! FIFO schedulers it replaces, on the same 10 000-packet arrival
//! stream through [`run_port`].
//!
//! Schedulers are built untimed; the port run is timed through
//! [`pifo_bench::measure`]. Results land in `BENCH_baselines.json`.

use pifo_algos::{Stfq, WeightTable};
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;
use pifo_sim::{
    run_port, DrrSched, FifoSched, PortConfig, PortScheduler, StrictPrioritySched, TreeScheduler,
};

const PACKETS: u64 = 10_000;

fn arrivals(n: u64) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            Packet::new(i, FlowId((i % 64) as u32), 1_000, Nanos(i * 100)).with_class((i % 4) as u8)
        })
        .collect()
}

fn scheduler(name: &str) -> Box<dyn PortScheduler> {
    match name {
        "pifo_stfq" => {
            let mut tb = TreeBuilder::new();
            let root = tb.add_root("wfq", Box::new(Stfq::new(WeightTable::new())));
            let tree = tb.build(Box::new(move |_| root)).expect("valid");
            Box::new(TreeScheduler::new("stfq", tree))
        }
        "drr" => Box::new(DrrSched::new(1_500, 1_000_000)),
        "strict_priority" => Box::new(StrictPrioritySched::new(4, 1_000_000)),
        _ => Box::new(FifoSched::new(1_000_000)),
    }
}

fn main() {
    let mut bench = Bench::from_args("baselines");
    let pkts = arrivals(PACKETS);
    let cfg = PortConfig::new(10_000_000_000);
    let cells = ["pifo_stfq", "drr", "strict_priority", "fifo"];

    let measured = bench.measure(&cells, |&name, clock| {
        let mut s = scheduler(name);
        let departures = clock.time(|| run_port(&pkts, s.as_mut(), &cfg));
        assert_eq!(
            departures.len() as u64,
            PACKETS,
            "{name}: every packet departs"
        );
    });

    for (&name, m) in cells.iter().zip(&measured) {
        bench.row(
            Row::new()
                .field("scheduler", name)
                .timed(&m.elapsed, PACKETS),
        );
    }
    bench.write("BENCH_baselines.json");
}
