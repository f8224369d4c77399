//! End-to-end scheduling-tree hot-path throughput: enqueue → (shape) →
//! dequeue for every packet, measured as whole-lifetime packets/second.
//!
//! Five tree shapes stress different parts of the walk:
//!
//! * `hpfq_fig3`   — the paper's Fig 3 HPFQ (2 levels, 4 flows): short
//!   walks, deep PIFOs.
//! * `wide_256`    — one WFQ root fanned out to 256 leaves: a root PIFO
//!   holding one reference per buffered packet.
//! * `shaped_tbf`  — Fig 3's shape with a token-bucket shaper on every
//!   leaf, driven over-rate so a shaping backlog builds up and the
//!   release path (agenda vs. scan) is on the measured path.
//! * `flat_wfq`    — one STFQ node, 64 flows: the walk-free baseline.
//! * `hier_5level` — a chain of five classes ending in one 64-flow leaf:
//!   the longest walk per packet.
//!
//! Each scenario runs at several standing occupancies (fill → churn →
//! drain) through [`pifo_bench::measure`]; the results are printed and
//! written to `BENCH_tree.json`. `--smoke` skips the largest occupancy.

use pifo_algos::{fig3_hpfq_with_backend, Hierarchy, Stfq, TokenBucketFilter, WeightTable};
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;

/// A scenario constructor: backend in, (tree, flow-count) out.
type BuildFn = fn(PifoBackend) -> (ScheduleTree, u32);

/// One measured configuration.
struct Cell {
    scenario: &'static str,
    build: BuildFn,
    backend: PifoBackend,
    occupancy: usize,
}

fn fig3(backend: PifoBackend) -> (ScheduleTree, u32) {
    let (tree, _) = fig3_hpfq_with_backend(backend);
    (tree, 4)
}

fn wide_256(backend: PifoBackend) -> (ScheduleTree, u32) {
    const LEAVES: u32 = 256;
    let children = (0..LEAVES)
        .map(|l| {
            (
                1u64,
                Hierarchy::leaf(&format!("leaf{l}"), vec![(FlowId(l), 1)]),
            )
        })
        .collect();
    let (tree, _) = Hierarchy::class("root", children).build_with_backend(backend);
    (tree, LEAVES)
}

/// Fig 3's hierarchy with an 8 Gb/s one-packet-burst token bucket on each
/// leaf. Arrivals outpace the shapers (a 1000 B packet needs 1 µs of
/// tokens, arrivals come every 10 ns), so suspended references accumulate
/// and the release machinery carries real load.
fn shaped_tbf(backend: PifoBackend) -> (ScheduleTree, u32) {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    // Child ids are assigned densely: left = n1, right = n2.
    let root = b.add_root(
        "WFQ_Root",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(1), 1),
            (FlowId(2), 9),
        ]))),
    );
    let left = b.add_child(
        root,
        "WFQ_Left",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(0), 3),
            (FlowId(1), 7),
        ]))),
    );
    let right = b.add_child(
        root,
        "WFQ_Right",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(2), 4),
            (FlowId(3), 6),
        ]))),
    );
    b.set_shaper(left, Box::new(TokenBucketFilter::new(8_000_000_000, 1_000)));
    b.set_shaper(
        right,
        Box::new(TokenBucketFilter::new(8_000_000_000, 1_000)),
    );
    let tree = b
        .build(Box::new(
            move |p: &Packet| {
                if p.flow.0 < 2 {
                    left
                } else {
                    right
                }
            },
        ))
        .expect("valid shaped tree");
    (tree, 4)
}

fn flat_wfq(backend: PifoBackend) -> (ScheduleTree, u32) {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    let root = b.add_root("wfq", Box::new(Stfq::new(WeightTable::new())));
    (b.build(Box::new(move |_| root)).expect("valid"), 64)
}

fn hier_5level(backend: PifoBackend) -> (ScheduleTree, u32) {
    let mut h = Hierarchy::leaf("L5", (0..64u32).map(|f| (FlowId(f), 1u64)).collect());
    for lvl in (1..5).rev() {
        h = Hierarchy::class(&format!("L{lvl}"), vec![(1, h)]);
    }
    let (tree, _) = h.build_with_backend(backend);
    (tree, 64)
}

/// Fill to `occupancy`, churn `churn` enqueue+dequeue pairs at that
/// standing occupancy, then drain. Returns the packets pushed through
/// and the packets the final drain took out.
fn lifetime(tree: &mut ScheduleTree, nflows: u32, occupancy: usize, churn: usize) -> (u64, u64) {
    let mut id = 0u64;
    let mut t = 0u64;
    // 10 ns between arrivals: over-rate for the shaped scenario,
    // irrelevant for the others.
    const GAP: u64 = 10;
    for _ in 0..occupancy {
        tree.enqueue(
            Packet::new(id, FlowId((id % nflows as u64) as u32), 1_000, Nanos(t)),
            Nanos(t),
        )
        .expect("unbounded enqueue");
        id += 1;
        t += GAP;
    }
    for _ in 0..churn {
        tree.enqueue(
            Packet::new(id, FlowId((id % nflows as u64) as u32), 1_000, Nanos(t)),
            Nanos(t),
        )
        .expect("unbounded enqueue");
        id += 1;
        t += GAP;
        // May be None in the shaped scenario while the backlog is gated.
        let _ = tree.dequeue(Nanos(t));
    }
    // Drain fully, hopping to shaping releases when gated.
    let mut drained = 0u64;
    let mut now = Nanos(t);
    loop {
        match tree.dequeue(now) {
            Some(_) => drained += 1,
            None => match tree.next_shaping_event() {
                Some(next) => now = Nanos(next.as_nanos().max(now.as_nanos() + 1)),
                None => break,
            },
        }
    }
    (id, drained)
}

fn main() {
    let mut bench = Bench::from_args("tree_hotpath");
    let occupancies: &[usize] = if bench.smoke() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 60_000]
    };
    let scenarios: &[(&'static str, BuildFn)] = &[
        ("hpfq_fig3", fig3),
        ("wide_256", wide_256),
        ("shaped_tbf", shaped_tbf),
        ("flat_wfq", flat_wfq),
        ("hier_5level", hier_5level),
    ];

    let mut cells = Vec::new();
    for &(scenario, build) in scenarios {
        for &occupancy in occupancies {
            cells.push(Cell {
                scenario,
                build,
                backend: PifoBackend::SortedArray,
                occupancy,
            });
        }
    }
    // Backend sweep at the headline occupancy for the headline scenario.
    for backend in [PifoBackend::Heap, PifoBackend::Bucket] {
        cells.push(Cell {
            scenario: "hpfq_fig3",
            build: fig3,
            backend,
            occupancy: 10_000,
        });
    }

    let measured = bench.measure(&cells, |c, clock| {
        let (mut tree, nflows) = (c.build)(c.backend);
        let churn = c.occupancy.min(10_000);
        let (packets, drained) = clock.time(|| lifetime(&mut tree, nflows, c.occupancy, churn));
        assert!(
            tree.is_empty() && tree.shaped_len() == 0,
            "{}/{}: tree must drain (left {} buffered, {} shaped)",
            c.scenario,
            c.backend,
            tree.len(),
            tree.shaped_len()
        );
        assert!(drained > 0);
        packets
    });
    for (c, m) in cells.iter().zip(&measured) {
        bench.row(
            Row::new()
                .field("scenario", c.scenario)
                .field("backend", c.backend.label())
                .field("occupancy", c.occupancy)
                .timed(&m.elapsed, m.out),
        );
    }
    bench.write("BENCH_tree.json");
}
