//! Rank-computation benchmarks: native Rust transactions vs the same
//! algorithms interpreted from domino-lite source — the cost of
//! programmability in the software model.
//!
//! Each cell ranks (or shapes) the same 10 000 packets; the transaction
//! and the packets are built untimed. Timed through
//! [`pifo_bench::measure`]; results land in `BENCH_transactions.json`.

use domino_lite::{figures, DominoScheduling, DominoShaping};
use pifo_algos::{Stfq, TokenBucketFilter, WeightTable};
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;

const PACKETS: u64 = 10_000;

const CELLS: [(&str, &str); 4] = [
    ("stfq", "native"),
    ("stfq", "domino_interpreted"),
    ("tbf", "native"),
    ("tbf", "domino_interpreted"),
];

fn ctx(p: &Packet) -> EnqCtx<'_> {
    EnqCtx {
        packet: p,
        now: p.arrival,
        flow: p.flow,
    }
}

fn rank_all(tx: &mut impl SchedulingTransaction, pkts: &[Packet]) {
    for p in pkts {
        std::hint::black_box(tx.rank(&ctx(p)));
    }
}

fn shape_all(tx: &mut impl ShapingTransaction, pkts: &[Packet]) {
    for p in pkts {
        std::hint::black_box(tx.send_time(&ctx(p)));
    }
}

fn main() {
    let mut bench = Bench::from_args("transactions");
    // STFQ: 16 flows back to back; TBF: one flow every 100 ns.
    let stfq_pkts: Vec<Packet> = (0..PACKETS)
        .map(|i| Packet::new(i, FlowId((i % 16) as u32), 1_000, Nanos(i)))
        .collect();
    let tbf_pkts: Vec<Packet> = (0..PACKETS)
        .map(|i| Packet::new(i, FlowId(0), 1_000, Nanos(i * 100)))
        .collect();

    let measured = bench.measure(&CELLS, |&cell, clock| match cell {
        ("stfq", "native") => {
            let mut tx = Stfq::new(WeightTable::new());
            clock.time(|| rank_all(&mut tx, &stfq_pkts))
        }
        ("stfq", _) => {
            let mut tx = DominoScheduling::new("stfq", figures::stfq());
            clock.time(|| rank_all(&mut tx, &stfq_pkts))
        }
        (_, "native") => {
            let mut tx = TokenBucketFilter::new(10_000_000, 15_000);
            clock.time(|| shape_all(&mut tx, &tbf_pkts))
        }
        _ => {
            let mut tx = DominoShaping::new("tbf", figures::tbf(10_000_000, 15_000));
            clock.time(|| shape_all(&mut tx, &tbf_pkts))
        }
    });

    for (&(transaction, imp), m) in CELLS.iter().zip(&measured) {
        bench.row(
            Row::new()
                .field("transaction", transaction)
                .field("impl", imp)
                .timed(&m.elapsed, PACKETS),
        );
    }
    bench.write("BENCH_transactions.json");
}
