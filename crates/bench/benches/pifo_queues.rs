//! PIFO data-structure benchmarks: every registered software backend
//! (sorted-array reference, binary heap, FFS bucket calendar and the
//! approximate family), fill-then-drain of uniform ranks at occupancies
//! up to the Trident-scale 60 K elements of §5.1. The sweep runs each
//! backend through the [`PifoBackend::make`] path — the same statically
//! dispatched [`EnumPifo`] the scheduling tree stores per node — so the
//! numbers reflect what trees actually pay.
//!
//! Cells are timed through [`pifo_bench::measure`] (the rank stream is
//! generated untimed); results land in `BENCH_queues.json`, and
//! `--smoke` drops the 60 K occupancy.

use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;

/// Deterministic xorshift for rank streams.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn main() {
    let mut bench = Bench::from_args("pifo_queues");
    let occupancies: &[usize] = if bench.smoke() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 60_000]
    };
    let mut rng = Rng(42);
    let streams: Vec<Vec<u64>> = occupancies
        .iter()
        .map(|&n| (0..n).map(|_| rng.next() % 1_000_000).collect())
        .collect();
    let cells: Vec<(&[u64], PifoBackend)> = streams
        .iter()
        .flat_map(|ranks| PifoBackend::ALL.map(|backend| (ranks.as_slice(), backend)))
        .collect();

    let measured = bench.measure(&cells, |&(ranks, backend), clock| {
        let mut q: EnumPifo<u64> = backend.make();
        let popped = clock.time(|| {
            for (i, &r) in ranks.iter().enumerate() {
                q.push(Rank(r), i as u64);
            }
            std::iter::from_fn(|| q.pop()).count()
        });
        assert_eq!(popped, ranks.len(), "{backend}: every element pops");
        popped as u64
    });

    for (&(ranks, backend), m) in cells.iter().zip(&measured) {
        bench.row(
            Row::new()
                .field("backend", backend.to_string())
                .field("occupancy", ranks.len())
                .timed(&m.elapsed, m.out),
        );
    }
    bench.write("BENCH_queues.json");
}
