//! A single switch output port: the event loop that drives a
//! [`PortScheduler`] against a link of fixed rate.
//!
//! The port is the boundary between *scheduling decisions* (the
//! scheduler's job) and *transmission* (the link's): it enqueues arrivals
//! at their arrival times, asks the scheduler for the next packet whenever
//! the link is free, and accounts each transmission at the link rate.
//! The round body that does this is shared: [`run_port`], the
//! [`switch`](crate::switch) fabric and the [`lossless`](crate::lossless)
//! fabric all transmit through the same crate-private engine.

use crate::scheduler::PortScheduler;
use crate::switch::PortTrace;
use pifo_core::prelude::*;
use std::iter::Peekable;

/// One transmitted packet with its port-level timing.
///
/// Equality is full-struct (packet, start, finish, wait) — what the
/// trace bit-identity tests compare departure for departure. That
/// contract is why telemetry never adds fields here: per-packet path
/// records live in a side channel
/// ([`PortTrace::paths`](crate::switch::PortTrace::paths),
/// index-aligned with the departures), so a telemetry-on trace stays
/// byte-comparable to a telemetry-off one. `wait` reconciles exactly
/// with the telemetry layer's
/// [`PathRecord::wait`](pifo_core::telemetry::PathRecord::wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// The packet as it left (fields may have been updated, e.g. LSTF
    /// slack charging).
    pub packet: Packet,
    /// When transmission began.
    pub start: Nanos,
    /// When the last bit left (start + length/rate).
    pub finish: Nanos,
    /// Queueing wait: `start - packet.arrival`.
    pub wait: Nanos,
}

/// Configuration for a port run.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Link rate in bits/second.
    pub rate_bps: u64,
    /// Simulation horizon: packets not transmitted by then stay queued.
    pub horizon: Nanos,
    /// Charge LSTF slack (Fig 6: `slack -= wait`) on each departure.
    pub charge_lstf_slack: bool,
}

impl PortConfig {
    /// A work-conserving port at `rate_bps` with a long horizon.
    pub fn new(rate_bps: u64) -> Self {
        PortConfig {
            rate_bps,
            horizon: Nanos::from_secs(3_600),
            charge_lstf_slack: false,
        }
    }

    /// Set the simulation horizon.
    pub fn with_horizon(mut self, horizon: Nanos) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enable LSTF slack charging at departure.
    pub fn with_lstf_charging(mut self) -> Self {
        self.charge_lstf_slack = true;
        self
    }
}

/// Run `arrivals` (sorted by arrival time) through `sched` on a link
/// described by `cfg`. Returns the departures in transmission order.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted by arrival time.
pub fn run_port(
    arrivals: &[Packet],
    sched: &mut dyn PortScheduler,
    cfg: &PortConfig,
) -> Vec<Departure> {
    assert!(
        arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "arrivals must be time-sorted"
    );
    // One packet per round: every dequeue is decided when the link frees.
    let mut engine = PortEngine::new(cfg.rate_bps, 1);
    engine.trace.departures.reserve(arrivals.len());
    let mut pending = arrivals.iter().cloned().peekable();
    let mut next = Some(arrivals.first().map_or(Nanos::ZERO, |p| p.arrival));
    while let Some(now) = next.filter(|&t| t < cfg.horizon) {
        next = engine.step(sched, &mut pending, now);
    }
    let mut out = engine.trace.departures;
    if cfg.charge_lstf_slack {
        for d in &mut out {
            d.packet.slack -= d.wait.as_nanos() as i64;
        }
    }
    out
}

/// The one round engine behind every port driver: [`run_port`],
/// [`Switch`](crate::switch::Switch) and
/// [`LosslessFabric`](crate::lossless::LosslessFabric). A round makes up
/// to `burst` dequeues, all decided at one instant, and transmits them
/// back-to-back at the port's rate; the engine accumulates the port's
/// trace. Callers own the rest: when rounds run, horizons, and any
/// admission control or faults around them.
pub(crate) struct PortEngine {
    /// Departures, drops and path records so far.
    pub(crate) trace: PortTrace,
    rate_bps: u64,
    burst: usize,
}

impl PortEngine {
    /// An engine transmitting at `rate_bps`, `burst` packets per round.
    pub(crate) fn new(rate_bps: u64, burst: usize) -> Self {
        PortEngine {
            trace: PortTrace::default(),
            rate_bps,
            burst,
        }
    }

    /// One round decided at `now`: up to `burst` dequeues, transmitted
    /// back-to-back from `now`, then the round's path records. Returns
    /// the instant the round's last bit leaves, or `None` when `q` had
    /// nothing to send.
    pub(crate) fn serve<S: PortScheduler + ?Sized>(
        &mut self,
        q: &mut S,
        now: Nanos,
    ) -> Option<Nanos> {
        let deps = &mut self.trace.departures;
        let first = deps.len();
        let mut t = now;
        for _ in 0..self.burst {
            let Some(packet) = q.dequeue(now) else { break };
            let finish = t + tx_time(packet.length as u64, self.rate_bps);
            deps.push(Departure {
                wait: t.saturating_sub(packet.arrival),
                start: t,
                finish,
                packet,
            });
            t = finish;
        }
        if deps.len() == first {
            return None;
        }
        // One record completed per packet dequeued this round, in
        // dequeue order — the departures just pushed. Stamp `departed`
        // with the transmit start so telemetry waits reconcile with
        // `Departure::wait`.
        let mut recs = q.completed_paths();
        let base = deps.len() - recs.len();
        for (r, d) in recs.iter_mut().zip(&deps[base..]) {
            r.departed = d.start;
        }
        self.trace.paths.append(&mut recs);
        Some(t)
    }

    /// One round at `now` for a port fed from `pending` (time-sorted):
    /// admit every packet due by `now`, each at its own arrival instant
    /// (a refusal counts as a drop), then [`serve`](Self::serve). Returns
    /// the next round's decision time: the round's end, or when idle the
    /// next arrival or scheduler release — `None` when there is neither.
    pub(crate) fn step<S, I>(
        &mut self,
        q: &mut S,
        pending: &mut Peekable<I>,
        now: Nanos,
    ) -> Option<Nanos>
    where
        S: PortScheduler + ?Sized,
        I: Iterator<Item = Packet>,
    {
        while let Some(p) = pending.next_if(|p| p.arrival <= now) {
            let at = p.arrival;
            if !q.enqueue(p, at) {
                self.trace.drops += 1;
            }
        }
        if let Some(end) = self.serve(q, now) {
            return Some(end);
        }
        // Idle: everything due by `now` was admitted and released, so
        // the next cause lies in the future.
        let next_arrival = pending.peek().map(|p| p.arrival);
        let next = next_arrival.into_iter().chain(q.next_ready(now)).min()?;
        debug_assert!(next > now, "port must make progress (t={now}, next={next})");
        Some(next.max(now + Nanos(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FifoSched;

    fn pkts(times_lens: &[(u64, u32)]) -> Vec<Packet> {
        times_lens
            .iter()
            .enumerate()
            .map(|(i, &(t, l))| Packet::new(i as u64, FlowId(0), l, Nanos(t)))
            .collect()
    }

    #[test]
    fn back_to_back_transmissions_pack_the_link() {
        // 1000 B at 8 Gb/s = 1000 ns each; both arrive at t=0.
        let arr = pkts(&[(0, 1_000), (0, 1_000)]);
        let mut s = FifoSched::new(10);
        let out = run_port(&arr, &mut s, &PortConfig::new(8_000_000_000));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].start, Nanos(0));
        assert_eq!(out[0].finish, Nanos(1_000));
        assert_eq!(out[1].start, Nanos(1_000));
        assert_eq!(out[1].finish, Nanos(2_000));
        assert_eq!(out[1].wait, Nanos(1_000));
    }

    #[test]
    fn idle_link_waits_for_arrivals() {
        let arr = pkts(&[(0, 1_000), (10_000, 1_000)]);
        let mut s = FifoSched::new(10);
        let out = run_port(&arr, &mut s, &PortConfig::new(8_000_000_000));
        assert_eq!(out[1].start, Nanos(10_000), "link idles until arrival");
        assert_eq!(out[1].wait, Nanos::ZERO);
    }

    #[test]
    fn horizon_cuts_off() {
        let arr = pkts(&[(0, 1_000), (0, 1_000), (0, 1_000)]);
        let mut s = FifoSched::new(10);
        let cfg = PortConfig::new(8_000_000_000).with_horizon(Nanos(1_500));
        let out = run_port(&arr, &mut s, &cfg);
        assert_eq!(out.len(), 2, "third packet would start at 2000 > horizon");
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn lstf_charging_updates_slack() {
        let mut arr = pkts(&[(0, 1_000), (0, 1_000)]);
        arr[0].slack = 10_000;
        arr[1].slack = 10_000;
        let mut s = FifoSched::new(10);
        let cfg = PortConfig::new(8_000_000_000).with_lstf_charging();
        let out = run_port(&arr, &mut s, &cfg);
        assert_eq!(out[0].packet.slack, 10_000, "no wait, no charge");
        assert_eq!(out[1].packet.slack, 10_000 - 1_000, "charged 1000 ns wait");
    }

    #[test]
    fn utilisation_accounts_every_byte() {
        // 100 packets of 1500 B at 10 Gb/s, all at t=0: the link must
        // finish at exactly 100 * 1200 ns.
        let arr: Vec<Packet> = (0..100)
            .map(|i| Packet::new(i, FlowId(0), 1_500, Nanos(0)))
            .collect();
        let mut s = FifoSched::new(1_000);
        let out = run_port(&arr, &mut s, &PortConfig::new(10_000_000_000));
        assert_eq!(out.last().unwrap().finish, Nanos(100 * 1_200));
    }

    /// `run_port` is the engine at one packet per round, so it agrees
    /// exactly with a one-port `Switch` at `with_burst(1)`: the same
    /// departures and drops on every exact backend, for a flat STFQ tree
    /// and a TBF-shaped leaf, with and without a horizon cutoff.
    #[test]
    fn run_port_matches_one_port_switch_at_burst_one() {
        use crate::scheduler::TreeScheduler;
        use crate::switch::{DrainMode, SwitchBuilder};
        use crate::traffic::{merge, renumber, IncastSource, PoissonSource, TrafficSource};
        use pifo_algos::{Stfq, TokenBucketFilter};

        const RATE: u64 = 10_000_000_000;
        let end = Nanos::from_micros(400);
        let mut sources: Vec<Box<dyn TrafficSource>> = (0..4u32)
            .map(|f| {
                Box::new(PoissonSource::new(
                    FlowId(f),
                    1_000,
                    250_000.0,
                    end,
                    11 + f as u64,
                )) as Box<dyn TrafficSource>
            })
            .collect();
        sources.push(Box::new(IncastSource::new(
            FlowId(4),
            16,
            1_000,
            4,
            RATE,
            Nanos::from_micros(100),
            end,
        )));
        let mut arrivals = merge(sources);
        renumber(&mut arrivals);

        let tree = |backend: PifoBackend, shaped: bool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend).buffer_limit(64);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            let leaf = if shaped {
                let leaf = b.add_child(root, "shaped", Box::new(Stfq::unweighted()));
                b.set_shaper(leaf, Box::new(TokenBucketFilter::new(RATE / 2, 4_000)));
                leaf
            } else {
                root
            };
            b.build(Box::new(move |_| leaf)).unwrap()
        };
        for backend in PifoBackend::EXACT {
            for shaped in [false, true] {
                for horizon in [None, Some(Nanos::from_micros(250))] {
                    let label = format!("{backend} shaped={shaped} horizon={horizon:?}");
                    let mut cfg = PortConfig::new(RATE);
                    let mut sb = SwitchBuilder::new(RATE);
                    sb.add_port(tree(backend, shaped));
                    sb.with_burst(1);
                    if let Some(h) = horizon {
                        cfg = cfg.with_horizon(h);
                        sb.with_horizon(h);
                    }
                    let mut sched = TreeScheduler::new("port", tree(backend, shaped));
                    let deps = run_port(&arrivals, &mut sched, &cfg);
                    let run = sb
                        .build(Box::new(|_: &Packet| 0))
                        .run(&arrivals, DrainMode::PerPacket);
                    assert!(sched.drops() > 0, "[{label}] drops must be in play");
                    assert_eq!(sched.drops(), run.ports[0].drops, "[{label}] drops");
                    assert_eq!(deps, run.ports[0].departures, "[{label}] departures");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_arrivals_rejected() {
        let arr = pkts(&[(100, 100), (0, 100)]);
        let mut s = FifoSched::new(10);
        let _ = run_port(&arr, &mut s, &PortConfig::new(1_000_000));
    }
}
