//! Fixed-function baseline schedulers — the "menu" a conventional switch
//! offers (§1): FIFO, Deficit Round Robin \[34\] and strict priorities.
//! These are *not* built on PIFOs; they are the comparison points the
//! paper's programmable scheduler replaces.

use crate::scheduler::PortScheduler;
use pifo_core::prelude::*;
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// Plain tail-drop FIFO.
#[derive(Debug)]
pub struct FifoSched {
    q: VecDeque<Packet>,
    limit: usize,
    drops: u64,
}

impl FifoSched {
    /// FIFO with space for `limit` packets.
    pub fn new(limit: usize) -> Self {
        FifoSched {
            q: VecDeque::new(),
            limit,
            drops: 0,
        }
    }

    /// Packets dropped at the tail so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for FifoSched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.q.len() >= self.limit {
            self.drops += 1;
            return false;
        }
        self.q.push_back(pkt);
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        self.q.pop_front()
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None // work-conserving: ready iff non-empty, never "later"
    }

    fn backlog(&self) -> usize {
        self.q.len()
    }

    fn name(&self) -> &str {
        "FIFO"
    }
}

// ---------------------------------------------------------------------------
// Deficit Round Robin
// ---------------------------------------------------------------------------

/// Deficit Round Robin \[34\]: the classic line-rate approximation of fair
/// queueing found in today's switches.
#[derive(Debug)]
pub struct DrrSched {
    queues: HashMap<FlowId, VecDeque<Packet>>,
    /// Active list: flows with backlog, in round-robin order.
    active: VecDeque<FlowId>,
    deficit: HashMap<FlowId, u64>,
    quantum: HashMap<FlowId, u64>,
    default_quantum: u64,
    backlog: usize,
    limit: usize,
    drops: u64,
}

impl DrrSched {
    /// DRR with the given default quantum (bytes added to a flow's deficit
    /// each round) and a shared buffer of `limit` packets.
    pub fn new(default_quantum: u64, limit: usize) -> Self {
        assert!(default_quantum > 0, "quantum must be positive");
        DrrSched {
            queues: HashMap::new(),
            active: VecDeque::new(),
            deficit: HashMap::new(),
            quantum: HashMap::new(),
            default_quantum,
            backlog: 0,
            limit,
            drops: 0,
        }
    }

    /// Give `flow` a custom quantum (weighted DRR).
    pub fn set_quantum(&mut self, flow: FlowId, quantum: u64) {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum.insert(flow, quantum);
    }

    fn quantum_of(&self, flow: FlowId) -> u64 {
        self.quantum
            .get(&flow)
            .copied()
            .unwrap_or(self.default_quantum)
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for DrrSched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.backlog >= self.limit {
            self.drops += 1;
            return false;
        }
        let flow = pkt.flow;
        let q = self.queues.entry(flow).or_default();
        let was_empty = q.is_empty();
        q.push_back(pkt);
        self.backlog += 1;
        if was_empty {
            self.active.push_back(flow);
            self.deficit.insert(flow, 0);
        }
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        if self.backlog == 0 {
            return None;
        }
        // Visit flows round-robin; a flow sends while its deficit covers
        // the head packet, then moves to the back of the list.
        loop {
            let flow = *self.active.front().expect("backlog>0 implies active");
            let head_len = self.queues[&flow].front().expect("active flow").length as u64;
            let quantum = self.quantum_of(flow);
            let d = self.deficit.get_mut(&flow).expect("active flow");
            if *d >= head_len {
                *d -= head_len;
                let pkt = self
                    .queues
                    .get_mut(&flow)
                    .and_then(|q| q.pop_front())
                    .expect("head exists");
                self.backlog -= 1;
                if self.queues[&flow].is_empty() {
                    // Flow done: leave the round and forfeit its deficit.
                    self.active.pop_front();
                    self.deficit.remove(&flow);
                }
                return Some(pkt);
            }
            // Grant a quantum and rotate.
            *d += quantum;
            self.active.rotate_left(1);
        }
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    fn backlog(&self) -> usize {
        self.backlog
    }

    fn name(&self) -> &str {
        "DRR"
    }
}

// ---------------------------------------------------------------------------
// Strict priority bank
// ---------------------------------------------------------------------------

/// A bank of FIFO queues served in strict priority order of the packet's
/// `class` field (0 = highest).
#[derive(Debug)]
pub struct StrictPrioritySched {
    queues: Vec<VecDeque<Packet>>,
    backlog: usize,
    limit: usize,
    drops: u64,
}

impl StrictPrioritySched {
    /// `levels` priority classes sharing a buffer of `limit` packets.
    pub fn new(levels: usize, limit: usize) -> Self {
        assert!(levels > 0, "need at least one priority level");
        StrictPrioritySched {
            queues: (0..levels).map(|_| VecDeque::new()).collect(),
            backlog: 0,
            limit,
            drops: 0,
        }
    }

    /// Packets dropped so far (buffer full or class out of range).
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for StrictPrioritySched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        let class = pkt.class as usize;
        if self.backlog >= self.limit || class >= self.queues.len() {
            self.drops += 1;
            return false;
        }
        self.queues[class].push_back(pkt);
        self.backlog += 1;
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        for q in &mut self.queues {
            if let Some(p) = q.pop_front() {
                self.backlog -= 1;
                return Some(p);
            }
        }
        None
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    fn backlog(&self) -> usize {
        self.backlog
    }

    fn name(&self) -> &str {
        "StrictPriority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: u32, len: u32) -> Packet {
        Packet::new(id, FlowId(flow), len, Nanos::ZERO)
    }

    #[test]
    fn fifo_is_fifo_and_tail_drops() {
        let mut s = FifoSched::new(2);
        assert!(s.enqueue(pkt(0, 0, 100), Nanos(0)));
        assert!(s.enqueue(pkt(1, 0, 100), Nanos(0)));
        assert!(!s.enqueue(pkt(2, 0, 100), Nanos(0)));
        assert_eq!(s.drops(), 1);
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 0);
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 1);
        assert!(s.dequeue(Nanos(1)).is_none());
    }

    #[test]
    fn drr_equal_quanta_split_evenly() {
        let mut s = DrrSched::new(1_500, 1_000);
        for i in 0..100 {
            s.enqueue(pkt(i, (i % 2) as u32, 1_000), Nanos(0));
        }
        let mut count = [0u32; 2];
        for _ in 0..40 {
            let p = s.dequeue(Nanos(1)).unwrap();
            count[p.flow.0 as usize] += 1;
        }
        assert!((count[0] as i32 - count[1] as i32).abs() <= 2, "{count:?}");
    }

    #[test]
    fn drr_weighted_quanta_split_proportionally() {
        let mut s = DrrSched::new(1_000, 1_000);
        s.set_quantum(FlowId(0), 1_000);
        s.set_quantum(FlowId(1), 3_000);
        for i in 0..200 {
            s.enqueue(pkt(i, (i % 2) as u32, 1_000), Nanos(0));
        }
        let mut count = [0u32; 2];
        for _ in 0..80 {
            let p = s.dequeue(Nanos(1)).unwrap();
            count[p.flow.0 as usize] += 1;
        }
        let ratio = count[1] as f64 / count[0] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "want ~3.0, got {ratio:.2}");
    }

    #[test]
    fn drr_large_packets_accumulate_deficit() {
        // Quantum 500 < packet 1000: a flow needs two rounds per packet
        // but still progresses (no starvation).
        let mut s = DrrSched::new(500, 100);
        s.enqueue(pkt(0, 0, 1_000), Nanos(0));
        s.enqueue(pkt(1, 1, 1_000), Nanos(0));
        let a = s.dequeue(Nanos(1)).unwrap();
        let b = s.dequeue(Nanos(1)).unwrap();
        assert_ne!(a.flow, b.flow);
        assert!(s.dequeue(Nanos(1)).is_none());
    }

    #[test]
    fn drr_flow_leaving_forfeits_deficit() {
        let mut s = DrrSched::new(1_500, 100);
        s.enqueue(pkt(0, 0, 100), Nanos(0));
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 0);
        // Flow 0 re-arrives: deficit must restart at 0, not carry over.
        s.enqueue(pkt(1, 0, 100), Nanos(2));
        assert_eq!(s.dequeue(Nanos(3)).unwrap().id.0, 1);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn strict_priority_orders_classes() {
        let mut s = StrictPrioritySched::new(4, 100);
        s.enqueue(pkt(0, 0, 100).with_class(3), Nanos(0));
        s.enqueue(pkt(1, 0, 100).with_class(1), Nanos(0));
        s.enqueue(pkt(2, 0, 100).with_class(2), Nanos(0));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(Nanos(1)).map(|p| p.id.0)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn strict_priority_rejects_out_of_range_class() {
        let mut s = StrictPrioritySched::new(2, 100);
        assert!(!s.enqueue(pkt(0, 0, 100).with_class(5), Nanos(0)));
        assert_eq!(s.drops(), 1);
    }
}
