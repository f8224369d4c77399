//! Span-recording wrappers around the trait objects the program already
//! accepts. Each forwards every call unchanged, so a traced run makes the
//! same decisions as an untraced one (the gate compares their digests).

use crate::trace::{span, Layer};
use pifo_core::prelude::*;
use pifo_sim::{PortClassifier, PortScheduler, TrafficSource};

struct TracedSource(Box<dyn TrafficSource>);

impl TrafficSource for TracedSource {
    fn next_packet(&mut self) -> Option<Packet> {
        span(Layer::Traffic, || self.0.next_packet())
    }

    fn pause(&mut self, now: Nanos) {
        self.0.pause(now)
    }

    fn resume(&mut self, now: Nanos) {
        self.0.resume(now)
    }
}

struct TracedTx(Box<dyn SchedulingTransaction>);

impl SchedulingTransaction for TracedTx {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        span(Layer::Rank, || self.0.rank(ctx))
    }

    fn on_dequeue(&mut self, rank: Rank, ctx: &DeqCtx) {
        span(Layer::OnDequeue, || self.0.on_dequeue(rank, ctx))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

pub struct TracedScheduler<S>(pub S);

impl<S: PortScheduler> PortScheduler for TracedScheduler<S> {
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool {
        span(Layer::TreeEnqueue, || self.0.enqueue(pkt, now))
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        span(Layer::TreeDequeue, || self.0.dequeue(now))
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.0.next_ready(now)
    }

    fn backlog(&self) -> usize {
        self.0.backlog()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Optionally wrap: the untraced runs hand the program the bare objects.
pub fn tx(inner: Box<dyn SchedulingTransaction>, traced: bool) -> Box<dyn SchedulingTransaction> {
    if traced {
        Box::new(TracedTx(inner))
    } else {
        inner
    }
}

pub fn source(inner: Box<dyn TrafficSource>, traced: bool) -> Box<dyn TrafficSource> {
    if traced {
        Box::new(TracedSource(inner))
    } else {
        inner
    }
}

pub fn classifier(inner: PortClassifier, traced: bool) -> PortClassifier {
    if traced {
        Box::new(move |p: &Packet| span(Layer::Classify, || inner(p)))
    } else {
        inner
    }
}
