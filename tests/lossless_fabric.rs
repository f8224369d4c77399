//! The §5.1 incast-storm scenario rerun **lossless**: the same 16-port
//! fabric and the same hog-plus-victims traffic as `shared_pool_incast`,
//! but with the port×flow admission policy wired into PFC-style
//! backpressure instead of tail drops.
//!
//! What must hold (and is asserted here):
//!
//! * **zero drops anywhere** — the storm that drops thousands of packets
//!   under every drop-based policy loses nothing once the fabric pauses
//!   the senders;
//! * every pause resolves: pause/resume counts reconcile switch-side and
//!   source-side, and each individual pause stays under the watchdog
//!   bound (the run completes, it does not stall);
//! * the pool never exceeds the `ports × (xoff + headroom)` sizing rule;
//! * with a non-zero pause-wire delay, the in-flight packets land in the
//!   headroom skid buffer — exercised, bounded, and still lossless;
//! * departure traces **and the pause-event log** are bit-identical
//!   across every exact PIFO backend and both drain modes.

use pifo::prelude::*;

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
/// 64 synchronized senders × 16 packets, every 20 µs: the same 1 024-
/// packet incast wave as `shared_pool_incast`, 8× the port drain rate.
const HOG_END: Nanos = Nanos(500_000);
const VICTIM_BURST: u64 = 64;

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

/// The live-source equivalent of `shared_pool_incast::arrivals()`: one
/// incast hog into port 0, one line-rate 64-packet burst per victim
/// port, staggered 30 µs apart.
fn sources() -> Vec<Box<dyn TrafficSource>> {
    let mut out: Vec<Box<dyn TrafficSource>> = vec![Box::new(IncastSource::new(
        FlowId(0),
        64,
        1_000,
        16,
        RATE_BPS,
        Nanos(20_000),
        HOG_END,
    ))];
    for port in 1..PORTS as u64 {
        let start = Nanos(50_000 + 30_000 * (port - 1));
        let gap = tx_time(1_000, RATE_BPS);
        out.push(Box::new(CbrSource::new(
            FlowId(100 + port as u32),
            1_000,
            RATE_BPS,
            start,
            start + Nanos(VICTIM_BURST * gap.as_nanos()),
        )));
    }
    out
}

fn build_fabric(
    backend: PifoBackend,
    port_threshold: usize,
    pool_capacity: usize,
    cfg: LosslessConfig,
) -> LosslessFabric {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        pool_capacity,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(port_threshold),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    LosslessFabric::new(sb.build(Box::new(classify)), cfg)
}

/// The on-die configuration: pause frames propagate instantly, so the
/// port threshold (xoff + headroom) gates direct admission and the skid
/// buffer stays in reserve.
fn run_on_die(backend: PifoBackend, mode: DrainMode) -> LosslessRun {
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    let mut fabric = build_fabric(backend, 64, PORTS * 64, cfg);
    fabric.run(sources(), mode)
}

fn assert_lossless(run: &LosslessRun, label: &str) {
    assert!(run.stall.is_none(), "[{label}] stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "[{label}] lossless contract");
    assert_eq!(run.skid_overflow, 0, "[{label}] headroom never overflows");
    assert_eq!(run.run.misrouted, 0, "[{label}] classifier total");
    assert_eq!(
        run.count_events(PauseAction::Pause),
        run.count_events(PauseAction::Resume),
        "[{label}] every switch-side pause resolves"
    );
    for (i, s) in run.sources.iter().enumerate() {
        assert_eq!(
            s.pauses, s.resumes,
            "[{label}] source {i} pause/resume counts reconcile"
        );
    }
}

#[test]
fn incast_storm_under_backpressure_drops_nothing() {
    let run = run_on_die(PifoBackend::Bucket, DrainMode::PerPacket);
    assert_lossless(&run, "on-die");

    // The storm is real: the hog was paused, repeatedly, and the victim
    // sources never were.
    assert!(
        run.count_events(PauseAction::Pause) > 10,
        "an 8x incast overload must keep tripping xoff (got {})",
        run.count_events(PauseAction::Pause)
    );
    assert!(run.sources[0].pauses > 0, "the hog source gets paused");
    assert!(run.port_paused[0] > Nanos::ZERO, "port 0 asserts pause");
    for (i, s) in run.sources.iter().enumerate().skip(1) {
        assert_eq!(s.pauses, 0, "victim source {i} is never paused");
    }
    for port in 1..PORTS {
        assert_eq!(run.port_paused[port], Nanos::ZERO, "victim port {port}");
        assert_eq!(
            run.run.ports[port].departures.len() as u64,
            VICTIM_BURST,
            "victim port {port} delivers its whole burst"
        );
    }

    // Bounded pause: the watchdog never fired, so every single pause sat
    // under `max_pause`; the accounting agrees.
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    assert!(
        run.sources[0].max_pause < cfg.max_pause,
        "longest source pause {} must stay under the watchdog bound {}",
        run.sources[0].max_pause,
        cfg.max_pause
    );
    assert!(run.sources[0].total_paused >= run.sources[0].max_pause);

    // Pool sizing rule: ports x (xoff + headroom) is never exceeded (the
    // per-port Static threshold enforces exactly that partition).
    assert!(
        run.max_pool_live <= cfg.min_pool_capacity(PORTS),
        "pool peak {} exceeds the sizing bound {}",
        run.max_pool_live,
        cfg.min_pool_capacity(PORTS)
    );

    // Backpressure converts drops into delay, not loss: the paused hog
    // is throttled to the port's line rate, and the port runs at (or
    // near) that rate for the whole storm — 500 µs / 800 ns ≈ 625
    // packet slots, all but the ramp-up used.
    assert!(
        run.run.ports[0].departures.len() >= 600,
        "the hog must keep port 0 at line rate between pauses (got {})",
        run.run.ports[0].departures.len()
    );
}

/// With a real pause-wire delay the in-flight packets land in the skid
/// buffer: used, bounded by headroom, and still zero loss.
#[test]
fn wire_delay_fills_headroom_but_never_overflows() {
    // Port threshold == xoff: admission rejects right at the watermark,
    // so everything emitted during pause propagation is skid-buffered.
    // One 64-packet incast instant can land inside the 400 ns wire
    // window, plus the instant already in flight: headroom 160 covers it.
    let cfg = LosslessConfig::new(32, 8)
        .with_headroom(160)
        .with_wire_delay(Nanos(400));
    let mut fabric = build_fabric(PifoBackend::Bucket, 32, PORTS * 32, cfg);
    let run = fabric.run(sources(), DrainMode::PerPacket);

    assert_lossless(&run, "wire-delay");
    assert!(
        run.peak_skid[0] > 0,
        "pause propagation must put in-flight packets into the skid buffer"
    );
    assert!(
        run.peak_skid[0] <= cfg.headroom,
        "skid {} exceeds headroom {}",
        run.peak_skid[0],
        cfg.headroom
    );
    assert!(
        run.max_pool_live <= PORTS * 32,
        "skid packets are held outside the pool"
    );
}

/// Departure traces and the pause-event log are bit-identical across
/// every exact backend and both drain modes — backpressure does not
/// cost the fabric its determinism.
#[test]
fn lossless_traces_identical_across_backends_and_drain_modes() {
    let reference = run_on_die(PifoBackend::SortedArray, DrainMode::PerPacket);
    assert_lossless(&reference, "reference");
    assert!(reference.count_events(PauseAction::Pause) > 0);

    for backend in PifoBackend::EXACT {
        for mode in [DrainMode::PerPacket, DrainMode::Parallel { workers: 4 }] {
            let run = run_on_die(backend, mode);
            let label = format!("{backend}/{}", mode.label());
            assert_lossless(&run, &label);
            assert_eq!(
                reference.pause_events, run.pause_events,
                "[{label}] pause-event log diverges"
            );
            assert_eq!(
                reference.rounds, run.rounds,
                "[{label}] round count diverges"
            );
            for (port, (a, b)) in reference.run.ports.iter().zip(&run.run.ports).enumerate() {
                assert_eq!(
                    a.departures.len(),
                    b.departures.len(),
                    "[{label}] port {port} departure count diverges"
                );
                for (x, y) in a.departures.iter().zip(&b.departures) {
                    assert_eq!(x, y, "[{label}] port {port} trace diverges");
                }
            }
        }
    }
}
