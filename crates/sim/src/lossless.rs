//! The lossless fabric: PFC-style backpressure instead of drops.
//!
//! §6.2 of the paper names priority flow control pause/resume as a
//! concern the programmable scheduler must absorb; §5.1's shared buffer
//! computes admission from "occupancies of various flows and ports".
//! This module combines both into a closed-loop fabric: instead of
//! letting [`AdmissionPolicy`] *drop*
//! a packet the thresholds reject, a [`LosslessFabric`] **pauses the
//! traffic sources that feed the congested port** and resumes them once
//! the buffer drains — the discipline RDMA-class datacenter fabrics
//! run, where a single lost packet costs a transport-level recovery.
//!
//! # The control loop
//!
//! Per `(port, class)` pair the fabric keeps a two-watermark hysteresis
//! ([`Watermarks`]): when the pair's buffered pressure (packets resident
//! in the port tree plus packets held at ingress) reaches `xoff` — or
//! the pool-side [`PoolHandle::would_admit`] probe goes false — a
//! **pause** is asserted; once pressure falls back to `xon` *and* the
//! pool admits again, a **resume** follows. `xon < xoff` keeps the
//! signal from chattering. Pause/resume control frames reach the
//! sources after [`LosslessConfig::wire_delay`]; packets already in
//! flight during that window land in a bounded per-port **headroom
//! (skid) buffer**, sized exactly like a real PFC skid buffer absorbs
//! the round-trip worth of line-rate traffic. Sources receive the
//! signal through [`TrafficSource::pause`]/[`TrafficSource::resume`]:
//! clock-driven sources shift their schedule; oblivious sources keep
//! their timestamps and the fabric simply holds their packets back.
//!
//! Ingress admission into a port tree is gated on the **full port ×
//! flow verdict** ([`PoolHandle::would_admit_flow`]): a packet whose
//! flow or port threshold would reject it waits in the skid buffer
//! instead of being dropped, and the resulting pressure is what trips
//! the pause watermark — drops become backpressure.
//!
//! # Determinism
//!
//! The driver executes one global event loop over one ordered queue of
//! `(time, event)` entries. The event type's derived order is the
//! loop's `(time, kind, index)` order — control-frame deliveries before
//! emissions before scheduling rounds at equal instants, index-ordered
//! within a kind — and each round calls the same round engine as
//! [`Switch`] (`burst` dequeues decided at the round time,
//! back-to-back transmit at the port's rate, path records), after the
//! driver's own skid admission at each packet's arrival instant. All
//! decisions read tree/pool state that is identical across the exact
//! engines, so departure traces *and* the pause/resume event log are
//! bit-identical across backends and [`DrainMode`]s.
//! `DrainMode::Parallel` runs the same sequential per-packet loop as
//! `DrainMode::PerPacket`: a lossless fabric is globally coupled
//! through the pause wire, the same serial dependency chain that
//! already forces shared-pool fabrics onto the sequential path.
//!
//! # Faults and the watchdog
//!
//! A [`FaultPlan`] injects the classic lossless-fabric failure modes —
//! dead egress port, slow drain, a pool stuck full, delayed resume
//! frames — and the **pause watchdog** turns what would be a silent
//! hang into a typed [`FabricStall`]: any `(port, class)` pause held
//! longer than [`LosslessConfig::max_pause`], a scheduling-round budget
//! blowout, or a quiescent fabric with packets still trapped
//! (circular wait) stops the run with a diagnosis instead of looping.

use crate::port::PortEngine;
use crate::switch::{DrainMode, Switch, SwitchRun};
use crate::traffic::TrafficSource;
use pifo_core::prelude::*;
use pifo_core::telemetry::NO_NODE;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The two-watermark pause hysteresis: assert pause at `xoff`, release
/// at `xon`, with `xon < xoff` so the signal cannot chatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Pause when a `(port, class)` pair's pressure reaches this many
    /// packets.
    pub xoff: usize,
    /// Resume once pressure has drained back to this many packets.
    pub xon: usize,
}

impl Watermarks {
    /// Watermarks with `xon < xoff` hysteresis.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xoff` and `xon < xoff`.
    pub fn new(xoff: usize, xon: usize) -> Self {
        assert!(
            xoff > 0 && xon < xoff,
            "watermarks need 0 < xoff and xon < xoff (got xoff={xoff}, xon={xon})"
        );
        Watermarks { xoff, xon }
    }
}

/// Everything that sizes the lossless control loop. Build with
/// [`LosslessConfig::new`] and adjust with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LosslessConfig {
    /// The pause/resume hysteresis per `(port, class)`.
    pub watermarks: Watermarks,
    /// Per-port skid-buffer slots beyond the trees: in-flight packets
    /// that arrive while pause propagates (or whose admission is gated)
    /// wait here. Overflowing the headroom is the only way a lossless
    /// fabric drops, and a correctly sized headroom — at least the
    /// packets a source can emit in one pause round trip — never does.
    pub headroom: usize,
    /// Propagation delay of pause/resume control frames from the switch
    /// to the sources (one way). Zero models an on-die wire.
    pub wire_delay: Nanos,
    /// Watchdog bound: a `(port, class)` pause continuously asserted
    /// longer than this is diagnosed as a [`FabricStall`] instead of
    /// being allowed to wedge the run.
    pub max_pause: Nanos,
    /// Watchdog bound on total scheduling rounds — the formal guarantee
    /// that any run (any fault plan) terminates.
    pub round_budget: u64,
}

impl LosslessConfig {
    /// A config with `Watermarks::new(xoff, xon)`, headroom sized to one
    /// `xoff` worth of packets (min 16), an on-die pause wire, a 10 ms
    /// watchdog, and a 10-million-round budget.
    pub fn new(xoff: usize, xon: usize) -> Self {
        LosslessConfig {
            watermarks: Watermarks::new(xoff, xon),
            headroom: xoff.max(16),
            wire_delay: Nanos::ZERO,
            max_pause: Nanos::from_millis(10),
            round_budget: 10_000_000,
        }
    }

    /// Set the per-port skid-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is zero — a lossless fabric needs somewhere
    /// to put the in-flight packets.
    pub fn with_headroom(mut self, headroom: usize) -> Self {
        assert!(headroom > 0, "headroom must be positive");
        self.headroom = headroom;
        self
    }

    /// Set the pause-frame propagation delay.
    pub fn with_wire_delay(mut self, delay: Nanos) -> Self {
        self.wire_delay = delay;
        self
    }

    /// Set the pause watchdog bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_pause` is zero.
    pub fn with_max_pause(mut self, max_pause: Nanos) -> Self {
        assert!(max_pause > Nanos::ZERO, "max_pause must be positive");
        self.max_pause = max_pause;
        self
    }

    /// Set the scheduling-round budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_round_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "round budget must be positive");
        self.round_budget = budget;
        self
    }

    /// The pool capacity below which `ports` ports could overrun the
    /// buffer even with every pause honored: each port may legitimately
    /// hold up to `xoff` packets in its tree (the pause only asserts at
    /// the watermark) plus a skid buffer of in-flight packets, so a
    /// shared pool of at least `ports × (xoff + headroom)` can never be
    /// forced over capacity by admitted traffic.
    pub fn min_pool_capacity(&self, ports: usize) -> usize {
        ports * (self.watermarks.xoff + self.headroom)
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// Injected faults for robustness testing — the lossless-fabric failure
/// modes a pause watchdog exists to survive. Compose with the chainable
/// constructors; [`FaultPlan::default`] injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Ports whose transmitter is dead: they admit and buffer but never
    /// dequeue — the classic PFC head-of-line victim maker.
    pub dead_ports: Vec<usize>,
    /// `(port, k)` pairs: the port drains at `1/k` of the fabric line
    /// rate.
    pub slow_drain: Vec<(usize, u32)>,
    /// From this instant on, the pool admits nothing — as if another
    /// tenant wedged the shared buffer full.
    pub stuck_pool_at: Option<Nanos>,
    /// Extra delay added to **resume** frames only (pause frames stay
    /// prompt) — the asymmetry that turns transient congestion into
    /// pause storms.
    pub resume_delay: Nanos,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Kill `port`'s transmitter.
    pub fn dead_port(mut self, port: usize) -> Self {
        self.dead_ports.push(port);
        self
    }

    /// Drain `port` at `1/k` of the line rate.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn slow_port(mut self, port: usize, k: u32) -> Self {
        assert!(k > 0, "slow-drain factor must be >= 1");
        self.slow_drain.push((port, k));
        self
    }

    /// Wedge the pool full from `at` onward.
    pub fn stuck_pool(mut self, at: Nanos) -> Self {
        self.stuck_pool_at = Some(at);
        self
    }

    /// Delay every resume frame by `delay`.
    pub fn delayed_resume(mut self, delay: Nanos) -> Self {
        self.resume_delay = delay;
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }
}

// ---------------------------------------------------------------------------
// Diagnoses and reports
// ---------------------------------------------------------------------------

/// Why a lossless run stalled (see [`FabricStall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A dead egress port is sitting on trapped packets.
    DeadPort {
        /// The dead port.
        port: usize,
    },
    /// The shared pool stopped admitting and never recovered.
    StuckPool,
    /// A pause stayed asserted past the watchdog bound with no dead
    /// port or stuck pool to blame — a pause storm.
    PauseStorm {
        /// The port whose pause exceeded the bound.
        port: usize,
    },
    /// The scheduling-round budget ran out before the fabric drained.
    RoundBudget {
        /// Rounds executed when the budget tripped.
        rounds: u64,
    },
    /// The fabric went quiescent — no deliverable control frame, no
    /// eligible emission, no runnable round — with packets still
    /// trapped: a circular wait between paused sources and gated
    /// ingress.
    CircularWait,
}

/// A typed stall diagnosis: what a lossless fabric reports **instead of
/// hanging** when a fault (or a misconfiguration) makes progress
/// impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStall {
    /// What wedged.
    pub kind: StallKind,
    /// Simulated time of the diagnosis.
    pub at: Nanos,
    /// The longest pause still asserted at the diagnosis instant.
    pub paused_for: Nanos,
}

impl core::fmt::Display for FabricStall {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            StallKind::DeadPort { port } => write!(f, "dead port {port}")?,
            StallKind::StuckPool => write!(f, "stuck pool")?,
            StallKind::PauseStorm { port } => write!(f, "pause storm on port {port}")?,
            StallKind::RoundBudget { rounds } => {
                write!(f, "round budget exhausted after {rounds} rounds")?
            }
            StallKind::CircularWait => write!(f, "circular wait")?,
        }
        write!(
            f,
            " (stalled at {}, longest pause {})",
            self.at, self.paused_for
        )
    }
}

/// Pause or resume, as logged in [`PauseEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PauseAction {
    /// The watermark (or the pool probe) tripped: stop sending.
    Pause,
    /// Pressure drained: send again.
    Resume,
}

/// One switch-side pause-signal transition, logged at the instant the
/// watermark decision was made (frames reach sources `wire_delay`
/// later). The log is deterministic: identical runs produce identical
/// event sequences, across backends and drain modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseEvent {
    /// Decision instant.
    pub time: Nanos,
    /// Egress port asserting the signal.
    pub port: usize,
    /// Priority class the signal covers.
    pub class: u8,
    /// Pause or resume.
    pub action: PauseAction,
}

/// Per-source pause accounting for a lossless run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourcePauseStats {
    /// Pause notifications delivered to this source.
    pub pauses: u64,
    /// Resume notifications delivered to this source.
    pub resumes: u64,
    /// Total time spent paused.
    pub total_paused: Nanos,
    /// The longest single pause.
    pub max_pause: Nanos,
}

/// Everything a [`LosslessFabric`] run produced.
#[derive(Debug)]
pub struct LosslessRun {
    /// The per-port departure traces and misroute counter, exactly like
    /// a [`Switch::run`] (drops here count skid-buffer overflows — zero
    /// on a correctly sized fabric).
    pub run: SwitchRun,
    /// Every switch-side pause/resume transition, in decision order.
    pub pause_events: Vec<PauseEvent>,
    /// The stall diagnosis, if the watchdog stopped the run.
    pub stall: Option<FabricStall>,
    /// Pause accounting per source, indexed like the input sources.
    pub sources: Vec<SourcePauseStats>,
    /// Total switch-side pause-asserted time per port (summed across
    /// classes).
    pub port_paused: Vec<Nanos>,
    /// Peak skid-buffer occupancy per port.
    pub peak_skid: Vec<usize>,
    /// Packets lost to skid-buffer overflow (== `run.total_drops()`).
    pub skid_overflow: u64,
    /// Peak pool occupancy observed across the run.
    pub max_pool_live: usize,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// The merged telemetry of the run — tree-level trace events plus
    /// synthesized pause/resume/fault events and fabric-level gauges
    /// (`fabric.pool_live`, `fabric.paused_classes`,
    /// `fabric.skid_occupancy`). `None` unless the wrapped switch was
    /// built with [`crate::switch::SwitchBuilder::with_telemetry`].
    pub telemetry: Option<TelemetrySnapshot>,
}

impl LosslessRun {
    /// Total packets transmitted.
    pub fn total_departures(&self) -> usize {
        self.run.total_departures()
    }

    /// Total packets lost anywhere in the fabric (skid overflows; tree
    /// admission is gated, so trees never drop). Zero is the lossless
    /// contract.
    pub fn total_drops(&self) -> u64 {
        self.run.total_drops()
    }

    /// Switch-side pause events of one action kind.
    pub fn count_events(&self, action: PauseAction) -> usize {
        self.pause_events
            .iter()
            .filter(|e| e.action == action)
            .count()
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// One entry of the driver's event queue. Paired with its time as
/// `(Nanos, Event)`, the derived order is the loop's `(time, kind,
/// index)` order: control-frame deliveries before emissions before
/// scheduling rounds at equal instants, index-ordered within a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The control frame of pause-log entry `k` reaches the sources
    /// (frames are issued in log order).
    Frame(usize),
    /// A source emits its head packet.
    Emit(usize),
    /// A port runs a scheduling round.
    Round(usize),
}

/// Per-`(port, class)` pressure and pause state.
#[derive(Debug, Default)]
struct ClassState {
    /// Packets of this class resident in the port's tree.
    occ: usize,
    /// Packets of this class waiting in the port's skid buffer.
    skid: usize,
    /// Switch-side pause assertion time, when asserted.
    paused_since: Option<Nanos>,
    /// True while a delivered pause frame covers this pair at the
    /// sources (the source-side view, `wire_delay` behind the switch).
    visible: bool,
}

/// Per-port driver state (the tree itself stays in the switch, borrowed
/// per round exactly like `Switch::run`).
struct PortState {
    /// Decision time of the next scheduling round; `None` = parked
    /// (woken by emissions or by other ports' progress).
    t: Option<Nanos>,
    /// The transmitter is committed until this instant: arrivals may
    /// wake a parked or idle-hopping port but never rewind one
    /// mid-transmit.
    busy_until: Nanos,
    /// Horizon reached: no further rounds start.
    done: bool,
    /// The round engine: the port's trace, at its fault-slowed rate.
    engine: PortEngine,
    /// The PFC skid buffer: packets held at ingress, FIFO.
    skid: VecDeque<Packet>,
    /// Per-class pressure/pause state (BTreeMap for deterministic
    /// iteration order).
    classes: BTreeMap<u8, ClassState>,
    peak_skid: usize,
    paused_total: Nanos,
}

/// Per-source driver state.
struct SourceState {
    src: Box<dyn TrafficSource>,
    /// The next packet pulled from the source (its head of line).
    next: Option<Packet>,
    /// Classified target of `next`: `Some((port, class))`, or `None`
    /// for a misroute.
    target: Option<(usize, u8)>,
    /// True while the source-visible pause covers `next`'s target.
    blocked: bool,
    blocked_since: Nanos,
    /// Emissions may not precede this instant (set by resume delivery):
    /// packets stamped earlier are in-flight work released now.
    gate: Nanos,
    stats: SourcePauseStats,
}

impl SourceState {
    /// When the head packet may be emitted: `None` while blocked or
    /// exhausted.
    fn emit_at(&self) -> Option<Nanos> {
        match &self.next {
            Some(p) if !self.blocked => Some(p.arrival.max(self.gate)),
            _ => None,
        }
    }

    /// A pause covering the head's target reached this source at `now`.
    fn block(&mut self, now: Nanos) {
        self.blocked = true;
        self.blocked_since = now;
        self.stats.pauses += 1;
        self.src.pause(now);
    }

    /// The pause ends at `now`: account its duration. The caller decides
    /// whether the source itself hears a resume.
    fn unblock(&mut self, now: Nanos) {
        self.blocked = false;
        let dur = now.saturating_sub(self.blocked_since);
        self.stats.resumes += 1;
        self.stats.total_paused += dur;
        self.stats.max_pause = self.stats.max_pause.max(dur);
    }
}

/// Packets currently resident across the fabric's buffers: the shared
/// pool when one is attached, else the sum of the private slabs.
fn fabric_live(switch: &Switch) -> usize {
    match &switch.pool {
        Some(pool) => pool.borrow().live(),
        None => switch.ports.iter().map(|t| t.packet_buffer().live()).sum(),
    }
}

/// A [`Switch`] driven closed-loop: watermark-triggered PFC pause and
/// resume to the traffic sources instead of admission drops. Build the
/// switch as usual (a shared pool under
/// [`AdmissionPolicy::PortFlow`](pifo_core::pool::AdmissionPolicy) is
/// the intended configuration), wrap it, and [`run`](Self::run) it
/// against live [`TrafficSource`]s.
pub struct LosslessFabric {
    switch: Switch,
    cfg: LosslessConfig,
}

impl LosslessFabric {
    /// Wrap `switch` in the lossless control loop under `cfg`.
    pub fn new(switch: Switch, cfg: LosslessConfig) -> Self {
        LosslessFabric { switch, cfg }
    }

    /// The wrapped switch (tree/pool inspection after a run).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// The control-loop configuration.
    pub fn config(&self) -> &LosslessConfig {
        &self.cfg
    }

    /// Run `sources` through the fabric with no injected faults.
    pub fn run(&mut self, sources: Vec<Box<dyn TrafficSource>>, mode: DrainMode) -> LosslessRun {
        self.run_with_faults(sources, mode, &FaultPlan::none())
    }

    /// Run `sources` through the fabric under `faults`.
    ///
    /// Sources are polled lazily — a paused source is simply not asked
    /// for packets — and every decision happens in one deterministic
    /// global `(time, kind, index)` event order: control-frame
    /// deliveries, then emissions, then scheduling rounds at equal
    /// times, index-ordered within a kind. That order is the derived
    /// order of the queue's `(time, event)` entries. An entry is pushed
    /// whenever a source's emission time or a port's next round moves;
    /// one whose key has moved on since is skipped when popped, so the
    /// first live entry is always the next event. Every [`DrainMode`]
    /// runs this one sequential loop ([`DrainMode::Parallel`] included
    /// — the pause wire couples every port, see the module docs), so
    /// traces and pause logs are identical in both modes.
    pub fn run_with_faults(
        &mut self,
        sources: Vec<Box<dyn TrafficSource>>,
        _mode: DrainMode,
        faults: &FaultPlan,
    ) -> LosslessRun {
        let n = self.switch.ports.len();
        let (xoff, xon) = (self.cfg.watermarks.xoff, self.cfg.watermarks.xon);
        // Resume frames alone carry the injected delay.
        let pause_delay = self.cfg.wire_delay;
        let resume_delay = pause_delay + faults.resume_delay;

        let dead = |i: usize| faults.dead_ports.contains(&i);
        let stuck = |now: Nanos| faults.stuck_pool_at.is_some_and(|t| now >= t);
        // The classified target of a source's next packet: `Some((port,
        // class))`, or `None` for a misroute.
        let classifier = &self.switch.classifier;
        let classify = |p: &Packet| {
            let port = classifier(p);
            (port < n).then_some((port, p.class))
        };

        let mut ports: Vec<PortState> = (0..n)
            .map(|i| {
                // The port drains at its slow-drain fault's rate, if any.
                let k = faults
                    .slow_drain
                    .iter()
                    .rev()
                    .find(|&&(p, _)| p == i)
                    .map_or(1, |&(_, k)| k.max(1));
                let rate = (self.switch.rate_bps / k as u64).max(1);
                PortState {
                    t: None,
                    busy_until: Nanos::ZERO,
                    done: false,
                    engine: PortEngine::new(rate, self.switch.burst),
                    skid: VecDeque::new(),
                    classes: BTreeMap::new(),
                    peak_skid: 0,
                    paused_total: Nanos::ZERO,
                }
            })
            .collect();

        let mut srcs: Vec<SourceState> = sources
            .into_iter()
            .map(|mut src| {
                let next = src.next_packet();
                SourceState {
                    src,
                    target: next.as_ref().and_then(classify),
                    next,
                    blocked: false,
                    blocked_since: Nanos::ZERO,
                    gate: Nanos::ZERO,
                    stats: SourcePauseStats::default(),
                }
            })
            .collect();

        // The one event queue, seeded with the first emissions.
        let mut events: BinaryHeap<Reverse<(Nanos, Event)>> = srcs
            .iter()
            .enumerate()
            .filter_map(|(si, s)| Some(Reverse((s.emit_at()?, Event::Emit(si)))))
            .collect();
        // Asserted switch-side pauses as `(since, port, class)`: the
        // watchdog reads the oldest, the gauge the count.
        let mut paused: BTreeSet<(Nanos, usize, u8)> = BTreeSet::new();
        let mut pause_events: Vec<PauseEvent> = Vec::new();
        let mut misrouted = 0u64;
        let mut skid_overflow = 0u64;
        let mut max_pool_live = 0usize;
        let mut rounds = 0u64;
        let mut next_id = 0u64;
        let mut stall: Option<FabricStall> = None;
        // Fabric-level gauge sampling rides the global round counter —
        // identical round order in both modes keeps the series
        // bit-reproducible.
        let sample_every = self.switch.sample_every();
        let mut g_pool = GaugeSeries::new("fabric.pool_live");
        let mut g_paused = GaugeSeries::new("fabric.paused_classes");
        let mut g_skid = GaugeSeries::new("fabric.skid_occupancy");

        // The switch-side pause evaluation for one port at `now`:
        // compare every class's pressure against the watermarks, emit
        // transitions, and schedule the control frames.
        macro_rules! eval_pause {
            ($i:expr, $now:expr) => {{
                let i: usize = $i;
                let now: Nanos = $now;
                let pool_ok = !stuck(now) && self.switch.ports[i].pool_handle().would_admit();
                let ps = &mut ports[i];
                for (&class, cs) in ps.classes.iter_mut() {
                    let pressure = cs.occ + cs.skid;
                    let (action, delay) = match cs.paused_since {
                        None if pressure >= xoff || !pool_ok => {
                            cs.paused_since = Some(now);
                            paused.insert((now, i, class));
                            (PauseAction::Pause, pause_delay)
                        }
                        Some(since) if pressure <= xon && pool_ok => {
                            cs.paused_since = None;
                            paused.remove(&(since, i, class));
                            ps.paused_total += now.saturating_sub(since);
                            (PauseAction::Resume, resume_delay)
                        }
                        _ => continue,
                    };
                    let frame = Event::Frame(pause_events.len());
                    events.push(Reverse((now + delay, frame)));
                    pause_events.push(PauseEvent {
                        time: now,
                        port: i,
                        class,
                        action,
                    });
                }
            }};
        }

        loop {
            // --- the next event: skip stale entries ------------------
            while let Some(&Reverse((t, ev))) = events.peek() {
                let live = match ev {
                    Event::Frame(_) => true,
                    Event::Emit(si) => srcs[si].emit_at() == Some(t),
                    // A done port's `t` is `None`.
                    Event::Round(i) => ports[i].t == Some(t),
                };
                if live {
                    break;
                }
                events.pop();
            }
            let next = events.peek().map(|r| r.0);

            // --- watchdog: the oldest asserted pause must not outlive
            // max_pause before the next event runs --------------------
            let oldest_pause = paused.first().map(|&(since, port, _)| (since, port));
            if let (Some((since, port)), Some((tev, _))) = (oldest_pause, next) {
                let deadline = since + self.cfg.max_pause;
                if tev > deadline {
                    let kind = if dead(port) {
                        StallKind::DeadPort { port }
                    } else if faults.stuck_pool_at.is_some_and(|t| deadline >= t) {
                        StallKind::StuckPool
                    } else {
                        StallKind::PauseStorm { port }
                    };
                    stall = Some(FabricStall {
                        kind,
                        at: deadline,
                        paused_for: self.cfg.max_pause,
                    });
                    break;
                }
            }

            let Some((now, ev)) = next else {
                // Quiescent. Complete drain, or a wait nothing can break?
                let trapped = srcs.iter().any(|s| s.next.is_some())
                    || ports.iter().enumerate().any(|(i, ps)| {
                        !ps.skid.is_empty()
                            || (!ps.done
                                && (!self.switch.ports[i].is_empty()
                                    || self.switch.ports[i].shaped_len() > 0))
                    });
                if trapped {
                    // With a pause still asserted and no event left, the
                    // pause outlives any bound: report the watchdog
                    // deadline. Otherwise stamp the last event time.
                    let (at, paused_for) = match oldest_pause {
                        Some((since, _)) => (since + self.cfg.max_pause, self.cfg.max_pause),
                        None => (
                            pause_events.last().map_or(Nanos::ZERO, |e| e.time),
                            Nanos::ZERO,
                        ),
                    };
                    let kind = if let Some(&p) = faults.dead_ports.iter().find(|&&p| {
                        p < n && (!self.switch.ports[p].is_empty() || !ports[p].skid.is_empty())
                    }) {
                        StallKind::DeadPort { port: p }
                    } else if faults.stuck_pool_at.is_some() {
                        StallKind::StuckPool
                    } else {
                        StallKind::CircularWait
                    };
                    stall = Some(FabricStall {
                        kind,
                        at,
                        paused_for,
                    });
                }
                break;
            };
            events.pop();

            match ev {
                // --- control-frame delivery --------------------------
                Event::Frame(k) => {
                    let PauseEvent { port, class, .. } = pause_events[k];
                    let pause = pause_events[k].action == PauseAction::Pause;
                    let cs = ports[port].classes.get_mut(&class).expect("frame's class");
                    cs.visible = pause;
                    for (si, s) in srcs.iter_mut().enumerate() {
                        if s.blocked == pause || s.target != Some((port, class)) {
                            continue;
                        }
                        if pause {
                            s.block(now);
                        } else {
                            s.unblock(now);
                            s.src.resume(now);
                            s.gate = now;
                            if let Some(t) = s.emit_at() {
                                events.push(Reverse((t, Event::Emit(si))));
                            }
                        }
                    }
                }

                // --- emission ----------------------------------------
                Event::Emit(si) => {
                    let s = &mut srcs[si];
                    let mut p = s.next.take().expect("eligible emission");
                    let target = s.target.take();
                    // Stamp the true emission instant (a gated release
                    // happens at the gate, not the original stamp) and a
                    // globally unique id.
                    p.arrival = now;
                    p.id = PacketId(next_id);
                    next_id += 1;

                    match target {
                        None => misrouted += 1,
                        Some((i, class)) => {
                            let ps = &mut ports[i];
                            ps.classes.entry(class).or_default();
                            // Direct admission keeps arrival order: only
                            // when nothing is already held back may this
                            // packet bypass the skid queue.
                            let gate_open = !stuck(now)
                                && ps.skid.is_empty()
                                && self.switch.ports[i].pool_handle().would_admit_flow(p.flow);
                            if gate_open {
                                match self.switch.ports[i].enqueue(p, now) {
                                    Ok(()) => {
                                        let cs = ps.classes.get_mut(&class).expect("entry above");
                                        cs.occ += 1;
                                    }
                                    Err(_) => {
                                        // would_admit_flow said yes and
                                        // nothing ran in between; a
                                        // reject here is a tree-level
                                        // refusal (unknown flow etc.).
                                        ps.engine.trace.drops += 1;
                                    }
                                }
                            } else if ps.skid.len() < self.cfg.headroom {
                                let cs = ps.classes.get_mut(&class).expect("entry above");
                                cs.skid += 1;
                                ps.skid.push_back(p);
                                ps.peak_skid = ps.peak_skid.max(ps.skid.len());
                            } else {
                                // Headroom overflow: the one loss mode.
                                ps.engine.trace.drops += 1;
                                skid_overflow += 1;
                            }
                            // Wake the port (no earlier than its
                            // transmitter allows) and re-evaluate its
                            // pause signal at the arrival instant.
                            let wake = now.max(ps.busy_until);
                            if !ps.done && ps.t.map_or(true, |t| t > wake) {
                                ps.t = Some(wake);
                                events.push(Reverse((wake, Event::Round(i))));
                            }
                            eval_pause!(i, now);
                            // The pool peaks at admission instants (a
                            // round's burst may drain it before the
                            // round-end sample).
                            max_pool_live = max_pool_live.max(fabric_live(&self.switch));
                        }
                    }

                    // Pull the next packet, classify it, and block at
                    // once if a delivered pause already covers it.
                    let s = &mut srcs[si];
                    s.next = s.src.next_packet();
                    s.target = s.next.as_ref().and_then(classify);
                    if let Some((i, class)) = s.target {
                        if ports[i].classes.get(&class).is_some_and(|c| c.visible) {
                            s.block(now);
                        }
                    }
                    if let Some(t) = s.emit_at() {
                        events.push(Reverse((t, Event::Emit(si))));
                    }
                }

                // --- scheduling round --------------------------------
                Event::Round(i) => {
                    rounds += 1;
                    if rounds > self.cfg.round_budget {
                        stall = Some(FabricStall {
                            kind: StallKind::RoundBudget { rounds },
                            at: now,
                            paused_for: oldest_pause
                                .map_or(Nanos::ZERO, |(s, _)| now.saturating_sub(s)),
                        });
                        break;
                    }
                    if now >= self.switch.horizon {
                        ports[i].done = true;
                        ports[i].t = None;
                        continue;
                    }
                    // Admit gated skid packets, oldest first, each at
                    // its own arrival instant — stop at the first the
                    // pool still refuses (head-of-line, not reorder).
                    while let Some(front) = ports[i].skid.front() {
                        if front.arrival > now
                            || stuck(now)
                            || !self.switch.ports[i]
                                .pool_handle()
                                .would_admit_flow(front.flow)
                        {
                            break;
                        }
                        let p = ports[i].skid.pop_front().expect("peeked front");
                        let (class, at) = (p.class, p.arrival);
                        let cs = ports[i].classes.get_mut(&class).expect("counted in");
                        cs.skid -= 1;
                        match self.switch.ports[i].enqueue(p, at) {
                            Ok(()) => ports[i].classes.get_mut(&class).expect("entry").occ += 1,
                            Err(_) => ports[i].engine.trace.drops += 1,
                        }
                    }
                    max_pool_live = max_pool_live.max(fabric_live(&self.switch));

                    // One round decided at `now` at the port's (possibly
                    // fault-slowed) rate; a dead port decides nothing.
                    let ps = &mut ports[i];
                    let first = ps.engine.trace.departures.len();
                    let served = if dead(i) {
                        None
                    } else {
                        ps.engine.serve(&mut self.switch.ports[i], now)
                    };
                    let round_end = match served {
                        None => {
                            // Idle: hop to the next local cause — a future
                            // skid arrival or a shaping release — or park
                            // until an emission or another port's progress
                            // wakes us. A gated head (arrival <= now)
                            // cannot be hopped to: it waits for pool space.
                            let next_skid = ps.skid.front().map(|p| p.arrival);
                            let next_ready = self.switch.ports[i].next_shaping_event();
                            ps.busy_until = now;
                            ps.t = next_skid
                                .into_iter()
                                .chain(next_ready)
                                .min()
                                .filter(|&t| t > now);
                            if let Some(t) = ps.t {
                                events.push(Reverse((t, Event::Round(i))));
                            }
                            now
                        }
                        Some(end) => {
                            for d in &ps.engine.trace.departures[first..] {
                                let cs = ps
                                    .classes
                                    .get_mut(&d.packet.class)
                                    .expect("departed packet was admitted");
                                cs.occ = cs.occ.saturating_sub(1);
                            }
                            ps.busy_until = end;
                            ps.t = Some(end);
                            events.push(Reverse((end, Event::Round(i))));
                            // Progress frees pool space: wake parked ports
                            // whose skid heads may now be admissible.
                            for (j, other) in ports.iter_mut().enumerate() {
                                if j != i
                                    && !other.done
                                    && other.t.is_none()
                                    && !other.skid.is_empty()
                                {
                                    let t = end.max(other.busy_until);
                                    other.t = Some(t);
                                    events.push(Reverse((t, Event::Round(j))));
                                }
                            }
                            end
                        }
                    };
                    // Re-evaluate the pause signal at the instant the
                    // round's effect is complete: the last transmit
                    // finish, or the decision time of an idle round.
                    eval_pause!(i, round_end);
                    max_pool_live = max_pool_live.max(fabric_live(&self.switch));
                    if sample_every.is_some_and(|every| rounds % every == 0) {
                        g_pool.push(round_end, fabric_live(&self.switch) as u64);
                        g_paused.push(round_end, paused.len() as u64);
                        let skid: usize = ports.iter().map(|p| p.skid.len()).sum();
                        g_skid.push(round_end, skid as u64);
                    }
                }
            }
        }

        // A cleanly drained fabric resolves any pause still asserted
        // (e.g. one tripped by the very last round) so the event log
        // reconciles: every pause has a matching resume or the stall
        // report explains why not.
        if stall.is_none() {
            let end = pause_events.last().map_or(Nanos::ZERO, |e| e.time);
            for (i, ps) in ports.iter_mut().enumerate() {
                for (&class, cs) in ps.classes.iter_mut() {
                    if let Some(since) = cs.paused_since.take() {
                        ps.paused_total += end.saturating_sub(since);
                        pause_events.push(PauseEvent {
                            time: end,
                            port: i,
                            class,
                            action: PauseAction::Resume,
                        });
                    }
                }
            }
            for s in srcs.iter_mut().filter(|s| s.blocked) {
                s.unblock(end);
            }
        }

        let run = SwitchRun {
            ports: ports
                .iter_mut()
                .map(|p| std::mem::take(&mut p.engine.trace))
                .collect(),
            misrouted,
        };
        let telemetry = self.switch.telemetry_snapshot(&run).map(|mut snap| {
            // Pause/resume transitions and the stall verdict are driver
            // state, not tree state: synthesize their trace events here,
            // off the hot path.
            let mut push = |time, kind, port: usize, value, aux| {
                snap.counts[kind as usize] += 1;
                snap.events_recorded += 1;
                snap.events.push(TraceEvent {
                    time,
                    kind,
                    port: port as u16,
                    node: NO_NODE,
                    flow: FlowId(0),
                    value,
                    aux,
                });
            };
            for e in &pause_events {
                let kind = match e.action {
                    PauseAction::Pause => EventKind::Pause,
                    PauseAction::Resume => EventKind::Resume,
                };
                push(e.time, kind, e.port, e.class as u64, 0);
            }
            if let Some(s) = &stall {
                let (code, port) = match s.kind {
                    StallKind::DeadPort { port } => (0, port),
                    StallKind::StuckPool => (1, 0),
                    StallKind::PauseStorm { port } => (2, port),
                    StallKind::RoundBudget { .. } => (3, 0),
                    StallKind::CircularWait => (4, 0),
                };
                let aux = u32::try_from(s.paused_for.as_nanos()).unwrap_or(u32::MAX);
                push(s.at, EventKind::Fault, port, code, aux);
            }
            snap.sort_events();
            snap.gauges.extend([g_pool, g_paused, g_skid]);
            snap
        });

        LosslessRun {
            run,
            pause_events,
            stall,
            sources: srcs.iter().map(|s| s.stats).collect(),
            port_paused: ports.iter().map(|p| p.paused_total).collect(),
            peak_skid: ports.iter().map(|p| p.peak_skid).collect(),
            skid_overflow,
            max_pool_live,
            rounds,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchBuilder;
    use crate::traffic::CbrSource;
    use pifo_algos::Stfq;
    use pifo_core::pool::{AdmissionPolicy, Threshold};

    fn lossless_switch(ports: usize, capacity: usize, xoff: usize, headroom: usize) -> Switch {
        let mut sb = SwitchBuilder::new(8_000_000_000); // 1 B/ns
        sb.with_shared_pool(
            capacity,
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(xoff + headroom),
                flow: Threshold::Unlimited,
            },
        );
        for _ in 0..ports {
            sb.add_shared_port(|h| {
                let mut b = TreeBuilder::new();
                let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                b.build_in_pool(Box::new(move |_| root), h).unwrap()
            });
        }
        sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
    }

    /// An overdriven port pauses its source, resumes it, and loses
    /// nothing.
    #[test]
    fn overload_pauses_then_drains_without_loss() {
        // One port at 8 Gb/s fed 2× line rate: queue must grow, trip
        // xoff, pause the source, drain, resume.
        let cfg = LosslessConfig::new(16, 4).with_headroom(64);
        let switch = lossless_switch(1, 128, 16, 64);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let src = CbrSource::new(
            FlowId(0),
            1_000,
            16_000_000_000,
            Nanos::ZERO,
            Nanos(400_000),
        );
        let run = fabric.run(vec![Box::new(src)], DrainMode::PerPacket);

        assert!(run.stall.is_none(), "no stall: {:?}", run.stall);
        assert_eq!(run.total_drops(), 0, "lossless");
        assert!(run.total_departures() > 0);
        assert!(
            run.count_events(PauseAction::Pause) > 0,
            "2x overload must pause"
        );
        assert_eq!(
            run.count_events(PauseAction::Pause),
            run.count_events(PauseAction::Resume),
            "every pause resolved"
        );
        assert_eq!(run.sources[0].pauses, run.sources[0].resumes);
        assert!(run.sources[0].total_paused > Nanos::ZERO);
        assert!(run.port_paused[0] > Nanos::ZERO);
    }

    /// A watchdog bound of `Nanos::MAX` means "never": the deadline
    /// `since + max_pause` saturates instead of wrapping, so the run
    /// pauses, drains and reports no stall.
    #[test]
    fn unbounded_max_pause_never_trips_the_watchdog() {
        let cfg = LosslessConfig::new(16, 4)
            .with_headroom(64)
            .with_max_pause(Nanos::MAX);
        let switch = lossless_switch(1, 128, 16, 64);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let src = CbrSource::new(
            FlowId(0),
            1_000,
            16_000_000_000,
            Nanos::ZERO,
            Nanos(400_000),
        );
        let run = fabric.run(vec![Box::new(src)], DrainMode::PerPacket);

        assert!(run.stall.is_none(), "no stall: {:?}", run.stall);
        assert_eq!(run.total_drops(), 0, "lossless");
        assert!(run.count_events(PauseAction::Pause) > 0, "still pauses");
        assert_eq!(
            run.count_events(PauseAction::Pause),
            run.count_events(PauseAction::Resume),
            "every pause resolved"
        );
    }

    /// Pause events and traces are identical across drain modes.
    #[test]
    fn drain_modes_agree_on_traces_and_pause_log() {
        let mk_run = |mode: DrainMode| {
            let cfg = LosslessConfig::new(12, 4).with_headroom(32);
            let switch = lossless_switch(2, 128, 12, 32);
            let mut fabric = LosslessFabric::new(switch, cfg);
            let sources: Vec<Box<dyn TrafficSource>> = (0..4)
                .map(|f| {
                    Box::new(CbrSource::new(
                        FlowId(f),
                        1_000,
                        6_000_000_000,
                        Nanos(f as u64 * 10),
                        Nanos(200_000),
                    )) as Box<dyn TrafficSource>
                })
                .collect();
            fabric.run(sources, mode)
        };
        let a = mk_run(DrainMode::PerPacket);
        let c = mk_run(DrainMode::Parallel { workers: 4 });
        assert_eq!(a.pause_events, c.pause_events, "parallel pause log");
        for (pa, pc) in a.run.ports.iter().zip(&c.run.ports) {
            assert_eq!(pa.departures, pc.departures, "parallel departures");
            assert_eq!(pa.drops, pc.drops, "parallel drops");
        }
        assert!(a.stall.is_none());
        assert_eq!(a.total_drops(), 0);
    }

    /// A dead port under load is diagnosed, not hung.
    #[test]
    fn dead_port_yields_typed_stall() {
        let cfg = LosslessConfig::new(8, 2)
            .with_headroom(16)
            .with_max_pause(Nanos::from_micros(100));
        let switch = lossless_switch(2, 64, 8, 16);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let sources: Vec<Box<dyn TrafficSource>> = (0..2)
            .map(|f| {
                Box::new(CbrSource::new(
                    FlowId(f),
                    1_000,
                    8_000_000_000,
                    Nanos::ZERO,
                    Nanos(500_000),
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let run = fabric.run_with_faults(
            sources,
            DrainMode::PerPacket,
            &FaultPlan::none().dead_port(0),
        );
        let stall = run.stall.expect("dead port under load must stall");
        assert_eq!(stall.kind, StallKind::DeadPort { port: 0 });
        // Port 1 kept transmitting — the fault is contained.
        assert!(!run.run.ports[1].departures.is_empty());
    }

    /// Config invariants hold and are enforced.
    #[test]
    #[should_panic(expected = "xon < xoff")]
    fn inverted_watermarks_rejected() {
        let _ = Watermarks::new(4, 4);
    }

    #[test]
    fn min_pool_capacity_math() {
        let cfg = LosslessConfig::new(64, 16).with_headroom(32);
        assert_eq!(cfg.min_pool_capacity(16), 16 * (64 + 32));
    }
}
