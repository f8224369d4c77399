//! §6.1 end-to-end: buffer management composes with (and is orthogonal
//! to) programmable scheduling.
//!
//! The scenario is the classic tail-drop lockout: with a small shared
//! buffer and phase-aligned arrivals, the
//! slowest-draining flow can monopolise freed buffer slots and starve
//! the others *before the scheduler ever sees their packets*. The
//! paper's answer (§6.1) is per-flow thresholds in front of the
//! scheduler; the dynamic Choudhury–Hahne variant \[14\] restores the
//! scheduler's weighted shares without retuning.

use pifo_algos::{Stfq, WeightTable};
use pifo_core::prelude::*;
use pifo_sim::{
    run_port, throughput, CbrSource, PortConfig, PortScheduler, TrafficSource, TreeScheduler,
};

const LINK: u64 = 10_000_000_000;

fn arrivals(end: Nanos) -> Vec<Packet> {
    let sources: Vec<Box<dyn TrafficSource>> = (1..=3u32)
        .map(|f| {
            Box::new(CbrSource::new(FlowId(f), 1_500, LINK, Nanos::ZERO, end))
                as Box<dyn TrafficSource>
        })
        .collect();
    let mut pkts = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut pkts);
    pkts
}

/// The WFQ tree in a 256-packet pool that admits on per-flow thresholds
/// before the tree ranks: admission control in front of the scheduler.
fn flow_gated_stfq_tree(flow: Threshold) -> ScheduleTree {
    let pool = SharedPacketPool::new(
        256,
        AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow,
        },
    )
    .into_shared();
    let mut b = TreeBuilder::new();
    let root = b.add_root(
        "wfq",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(1), 1),
            (FlowId(2), 2),
            (FlowId(3), 4),
        ]))),
    );
    b.build_in_pool(Box::new(move |_| root), pool.register_port())
        .expect("valid")
}

fn run(threshold: Option<Threshold>) -> [f64; 3] {
    let end = Nanos::from_millis(10);
    let pkts = arrivals(end);
    let cfg = PortConfig::new(LINK).with_horizon(end);
    let deps = match threshold {
        None => {
            // Plain shared tail drop: tiny buffer inside the tree.
            let mut b = TreeBuilder::new();
            let root = b.add_root(
                "wfq",
                Box::new(Stfq::new(WeightTable::from_pairs([
                    (FlowId(1), 1),
                    (FlowId(2), 2),
                    (FlowId(3), 4),
                ]))),
            );
            b.buffer_limit(256);
            let tree = b.build(Box::new(move |_| root)).expect("valid");
            let mut sched = TreeScheduler::new("taildrop", tree);
            run_port(&pkts, &mut sched, &cfg)
        }
        Some(t) => {
            let mut sched = TreeScheduler::new("managed", flow_gated_stfq_tree(t));
            run_port(&pkts, &mut sched, &cfg)
        }
    };
    let (lo, hi) = (Nanos::from_millis(5), end);
    let rep = throughput(&deps, lo, hi);
    [
        rep.rate_bps(FlowId(1)) / 1e6,
        rep.rate_bps(FlowId(2)) / 1e6,
        rep.rate_bps(FlowId(3)) / 1e6,
    ]
}

/// Without admission control, the phase-aligned pattern lets flow 1
/// (lowest weight, slowest drain) capture every freed slot: lockout.
#[test]
fn tail_drop_lockout_reproduces() {
    let rates = run(None);
    assert!(rates[0] > 9_000.0, "flow 1 monopolises the link: {rates:?}");
    assert!(
        rates[1] < 500.0 && rates[2] < 500.0,
        "others starved: {rates:?}"
    );
}

/// Dynamic per-flow thresholds (alpha = 1) in front of the same
/// scheduler restore the 1:2:4 weighted shares with the same 256-packet
/// buffer.
#[test]
fn dynamic_thresholds_restore_fair_shares() {
    let rates = run(Some(Threshold::Dynamic { num: 1, den: 1 }));
    let ideal = [10_000.0 / 7.0, 20_000.0 / 7.0, 40_000.0 / 7.0];
    for (got, want) in rates.iter().zip(ideal) {
        let rel = (got - want).abs() / want;
        assert!(
            rel < 0.15,
            "shares must track weights within 15%: got {rates:?}"
        );
    }
}

/// Static thresholds also break the lockout (a third of the buffer per
/// flow), though they need manual sizing.
#[test]
fn static_thresholds_also_work() {
    let rates = run(Some(Threshold::Static(85)));
    assert!(rates[1] > 1_000.0, "flow 2 served: {rates:?}");
    assert!(rates[2] > 2_000.0, "flow 3 served: {rates:?}");
}

fn pkt(id: u64, flow: u32) -> Packet {
    Packet::new(id, FlowId(flow), 1_000, Nanos(id))
}

/// A FIFO port behind per-flow thresholds: a one-node tree in a
/// `PortFlow { port: Unlimited, flow }` pool of `capacity` packets.
fn flow_gated_fifo(capacity: usize, flow: Threshold) -> TreeScheduler {
    let handle = SharedPacketPool::new(
        capacity,
        AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow,
        },
    )
    .into_shared()
    .register_port();
    let mut b = TreeBuilder::new();
    let root = b.add_root(
        "fifo",
        Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
            Rank(ctx.now.as_nanos())
        })),
    );
    let tree = b
        .build_in_pool(Box::new(move |_| root), handle)
        .expect("valid");
    TreeScheduler::new("fifo", tree)
}

#[test]
fn static_threshold_caps_each_flow() {
    let mut s = flow_gated_fifo(100, Threshold::Static(2));
    assert!(s.enqueue(pkt(0, 1), Nanos(0)));
    assert!(s.enqueue(pkt(1, 1), Nanos(0)));
    assert!(!s.enqueue(pkt(2, 1), Nanos(0)), "third of flow 1 dropped");
    assert!(s.enqueue(pkt(3, 2), Nanos(0)), "other flows unaffected");
    assert_eq!(s.drops(), 1);
    assert_eq!(s.tree().packet_buffer().flow_occupancy(FlowId(1)), 2);
}

#[test]
fn dequeue_frees_headroom() {
    let mut s = flow_gated_fifo(100, Threshold::Static(1));
    assert!(s.enqueue(pkt(0, 1), Nanos(0)));
    assert!(!s.enqueue(pkt(1, 1), Nanos(0)));
    s.dequeue(Nanos(1)).expect("packet");
    assert!(s.enqueue(pkt(2, 1), Nanos(2)), "freed by the dequeue");
}

#[test]
fn dynamic_threshold_prevents_monopoly_lockout() {
    // The classic tail-drop pathology: one flow owning the whole
    // buffer. With dynamic thresholds a second flow always finds
    // room.
    let mut s = flow_gated_fifo(64, Threshold::Dynamic { num: 1, den: 1 });
    let mut id = 0;
    for _ in 0..200 {
        let _ = s.enqueue(pkt(id, 1), Nanos(id));
        id += 1;
    }
    assert!(
        s.tree().packet_buffer().flow_occupancy(FlowId(1)) <= 32,
        "hog capped at half"
    );
    assert!(s.enqueue(pkt(id, 2), Nanos(id)), "victim admitted");
}
