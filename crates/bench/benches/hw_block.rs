//! Hardware-model benchmarks: the pipelined flow-scheduler op rate,
//! cycle-level mesh throughput, and the §5.2 scaling argument measured —
//! pushing 60 K elements through the PIFO block only ever sorts its
//! ~1 K flow heads.
//!
//! Models are built untimed; the cycle or enqueue/dequeue loop is timed
//! through [`pifo_bench::measure`]. Results land in `BENCH_hw.json`, one
//! row per `(cell, param)`: pipeline cycles, mesh levels or block flows;
//! `packets` counts flow entries pushed or packets transmitted.

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Row};
use pifo_compiler::{compile, instantiate, TreeSpec};
use pifo_core::prelude::*;
use pifo_hw::{BlockConfig, FlowEntry, LogicalPifoId, PifoBlock, PipelinedFlowScheduler};

const CELLS: [(&str, u64); 5] = [
    ("flow_sched_pipeline", 1_000),
    ("mesh", 2),
    ("mesh", 5),
    ("block_60k", 256),
    ("block_60k", 1_024),
];

/// `cycles` cycles of two pushes and one pop. Returns the pushes.
fn pipeline(pipe: &mut PipelinedFlowScheduler, cycles: u64) -> u64 {
    let l = LogicalPifoId(0);
    for cyc in 0..cycles {
        for (rank, flow) in [(cyc * 2, cyc % 1_000), (cyc * 2 + 1, (cyc + 7) % 1_000)] {
            let (rank, flow) = (Rank(rank), FlowId(flow as u32));
            let entry = FlowEntry {
                rank,
                lpifo: l,
                flow,
                meta: 0,
            };
            pipe.push(entry).expect("push");
        }
        std::hint::black_box(pipe.pop(l).expect("pop"));
        pipe.tick();
    }
    2 * cycles
}

/// A `levels`-deep linear STFQ tree compiled onto the mesh.
fn mesh_tree(levels: usize) -> pifo_hw::Mesh {
    let layout = compile(&TreeSpec::linear(levels)).expect("valid");
    let n = layout.placements.len();
    let sched = (0..n)
        .map(|_| Box::new(Stfq::unweighted()) as Box<dyn SchedulingTransaction>)
        .collect();
    let shape = (0..n).map(|_| None).collect();
    let classify = Box::new(move |_: &Packet| n - 1);
    instantiate(&layout, sched, shape, classify, BlockConfig::default(), 1)
}

/// Offer 5 000 packets, transmitting every fifth cycle. Returns the
/// packets transmitted.
fn mesh_run(mesh: &mut pifo_hw::Mesh) -> u64 {
    const PACKETS: u64 = 5_000;
    let (mut sent, mut got, mut cycle) = (0u64, 0u64, 0u64);
    while got < PACKETS {
        let p = Packet::new(sent, FlowId((sent % 512) as u32), 64, mesh.now());
        if sent < PACKETS && mesh.enqueue_packet(p).is_ok() {
            sent += 1;
        }
        if cycle % 5 == 4 {
            if let Ok(Some(p)) = mesh.transmit() {
                std::hint::black_box(p);
                got += 1;
            }
        }
        mesh.tick();
        cycle += 1;
    }
    got
}

/// 60 K per-flow increasing ranks over `flows` flows.
fn block_entries(flows: u64) -> Vec<(FlowId, Rank)> {
    let mut x = 7u64;
    let mut next = vec![0u64; flows as usize];
    (0..60_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % flows;
            next[f as usize] += 1 + (x >> 32) % 16;
            (FlowId(f as u32), Rank(next[f as usize] * 4096 + f))
        })
        .collect()
}

/// Enqueue every entry, then drain. Returns the elements dequeued.
fn block_run(blk: &mut PifoBlock, entries: &[(FlowId, Rank)]) -> u64 {
    let l = LogicalPifoId(0);
    for (i, &(flow, rank)) in entries.iter().enumerate() {
        blk.enqueue(l, flow, rank, i as u64).expect("capacity");
    }
    std::iter::from_fn(|| blk.dequeue(l)).count() as u64
}

fn main() {
    let mut bench = Bench::from_args("hw_block");
    let measured = bench.measure(&CELLS, |&(cell, param), clock| match cell {
        "flow_sched_pipeline" => {
            let mut pipe = PipelinedFlowScheduler::new(2_048);
            clock.time(|| pipeline(&mut pipe, param))
        }
        "mesh" => {
            let mut mesh = mesh_tree(param as usize);
            clock.time(|| mesh_run(&mut mesh))
        }
        _ => {
            let entries = block_entries(param);
            let cfg = BlockConfig {
                n_flows: param as usize,
                ..BlockConfig::default()
            };
            let mut blk = PifoBlock::new(cfg);
            let popped = clock.time(|| block_run(&mut blk, &entries));
            assert_eq!(popped, entries.len() as u64, "every element pops");
            popped
        }
    });

    for (&(cell, param), m) in CELLS.iter().zip(&measured) {
        let row = Row::new().field("cell", cell).field("param", param);
        bench.row(row.timed(&m.elapsed, m.out));
    }
    bench.write("BENCH_hw.json");
}
