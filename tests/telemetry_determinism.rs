//! The telemetry contract, property-tested end to end:
//!
//! 1. **Observes, never steers** — enabling the flight recorder and
//!    path records leaves departure traces bit-identical, across every
//!    exact backend × every drain mode.
//! 2. **Deterministic** — two identically-built runs produce
//!    byte-identical event streams and snapshots, and the event stream
//!    is invariant across `PerPacket`/`Parallel` drains — on shared-pool
//!    fabrics (where `Parallel` runs the sequential drain) and on
//!    private-slab fabrics (where it drains on worker threads).
//! 3. **Reconciles** — telemetry-derived waits equal the
//!    departure-derived waits of [`waits_of`](pifo::sim::metrics), and
//!    the same holds through `latency_stats` percentiles.
//!
//! The same properties are pinned on the lossless fabric, whose runs
//! add synthesized pause/resume events and fabric gauges.
//!
//! On failure, the offending run's event stream is dumped to
//! `$CARGO_TARGET_TMPDIR/telemetry-dumps/` so CI can upload it as an
//! artifact (mirroring the domino diagnostics pattern).

use pifo::prelude::*;
use pifo_core::telemetry::TelemetrySnapshot;
use proptest::prelude::*;
use std::path::PathBuf;

const RATE_BPS: u64 = 10_000_000_000;

/// Best-effort CI artifact: the snapshot JSON of a failing run.
fn dump_snapshot(name: &str, snap: &TelemetrySnapshot) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry-dumps");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.json")), snap.to_json());
    }
}

/// A deterministic bursty workload parameterized by the proptest seed
/// values: `flows` flows spraying `waves` waves of `wave_pkts` packets.
fn arrivals(flows: u32, waves: u64, wave_pkts: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..wave_pkts {
            out.push(Packet::new(
                id,
                FlowId((k % flows as u64) as u32),
                1_000,
                Nanos(wave * 15_000),
            ));
            id += 1;
        }
    }
    out
}

fn build_switch(
    ports: usize,
    pool: usize,
    backend: PifoBackend,
    telemetry: Option<TelemetryConfig>,
) -> Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(8);
    sb.with_shared_pool(pool, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    if let Some(cfg) = telemetry {
        sb.with_telemetry(cfg);
    }
    for _ in 0..ports {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
}

/// The same fabric with a private 64-slot slab per port: the fabric
/// `DrainMode::Parallel` really drains on worker threads.
fn build_private_switch(ports: usize, backend: PifoBackend, telemetry: TelemetryConfig) -> Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(8);
    sb.with_telemetry(telemetry);
    for _ in 0..ports {
        let mut b = TreeBuilder::new();
        b.with_backend(backend);
        b.buffer_limit(64);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
    }
    sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
}

const MODES: [DrainMode; 2] = [DrainMode::PerPacket, DrainMode::Parallel { workers: 2 }];

fn mode_name(mode: DrainMode) -> &'static str {
    match mode {
        DrainMode::PerPacket => "per_packet",
        DrainMode::Parallel { .. } => "parallel",
    }
}

proptest! {
    /// Contract 1 + 2 on the plain switch: telemetry-on departures are
    /// bit-identical to telemetry-off in every exact backend × drain
    /// mode, identical builds give identical snapshots, and the event
    /// stream is drain-mode invariant.
    #[test]
    fn switch_telemetry_observes_and_is_deterministic(
        flows in 1u32..24,
        waves in 1u64..4,
        wave_pkts in 16u64..128,
        ports in 2usize..5,
    ) {
        let arr = arrivals(flows, waves, wave_pkts);
        let pool = 64 * ports;
        let cfg = TelemetryConfig::with_paths();

        for backend in PifoBackend::EXACT {
            let mut stream_ref: Option<TelemetrySnapshot> = None;
            for mode in MODES {
                let base = build_switch(ports, pool, backend, None).run(&arr, mode);

                let mut sw = build_switch(ports, pool, backend, Some(cfg));
                let run = sw.run(&arr, mode);
                let snap = sw.telemetry_snapshot(&run).expect("telemetry on");

                // 1: observes, never steers.
                for (a, b) in base.ports.iter().zip(&run.ports) {
                    prop_assert_eq!(&a.departures, &b.departures,
                        "[{}/{}] telemetry changed departures", backend, mode_name(mode));
                    prop_assert_eq!(&a.drops, &b.drops);
                }

                // 2a: identical build -> byte-identical snapshot.
                let mut sw2 = build_switch(ports, pool, backend, Some(cfg));
                let run2 = sw2.run(&arr, mode);
                let snap2 = sw2.telemetry_snapshot(&run2).expect("telemetry on");
                if snap != snap2 {
                    dump_snapshot(&format!("rerun-a-{}-{}", backend.label(), mode_name(mode)), &snap);
                    dump_snapshot(&format!("rerun-b-{}-{}", backend.label(), mode_name(mode)), &snap2);
                    prop_assert!(false, "[{}/{}] rerun produced a different snapshot",
                        backend, mode_name(mode));
                }
                prop_assert_eq!(snap.to_json(), snap2.to_json(), "JSON export must be stable");

                // 2b: the event stream is drain-mode invariant.
                match &stream_ref {
                    None => stream_ref = Some(snap),
                    Some(r) => {
                        if *r != snap {
                            dump_snapshot(&format!("mode-ref-{}", backend.label()), r);
                            dump_snapshot(&format!("mode-got-{}-{}", backend.label(), mode_name(mode)), &snap);
                            prop_assert!(false,
                                "[{}/{}] event stream differs from the per-packet drain",
                                backend, mode_name(mode));
                        }
                    }
                }
            }

            // 2c: on private slabs `Parallel` drains on worker threads;
            // its snapshot (events, counts, gauges) and per-port path
            // records must equal the per-packet drain's.
            let private = |mode| {
                let mut sw = build_private_switch(ports, backend, cfg);
                let run = sw.run(&arr, mode);
                let snap = sw.telemetry_snapshot(&run).expect("telemetry on");
                (snap, run)
            };
            let (seq_snap, seq_run) = private(DrainMode::PerPacket);
            let (par_snap, par_run) = private(DrainMode::Parallel { workers: 2 });
            if seq_snap != par_snap {
                dump_snapshot(&format!("private-per-packet-{}", backend.label()), &seq_snap);
                dump_snapshot(&format!("private-parallel-{}", backend.label()), &par_snap);
                prop_assert!(false,
                    "[{}] private-slab parallel snapshot differs from the per-packet drain",
                    backend);
            }
            for (port, (a, b)) in seq_run.ports.iter().zip(&par_run.ports).enumerate() {
                prop_assert_eq!(&a.paths, &b.paths,
                    "[{}] port {} path records differ under the parallel drain", backend, port);
                prop_assert_eq!(&a.departures, &b.departures);
            }
        }
    }

    /// Contract 3: the telemetry layer's per-packet waits reconcile
    /// exactly with the departure-derived waits — record for record,
    /// and through the `latency_stats` percentiles.
    #[test]
    fn path_record_waits_match_departure_waits(
        flows in 1u32..24,
        waves in 1u64..4,
        wave_pkts in 16u64..128,
    ) {
        let arr = arrivals(flows, waves, wave_pkts);
        let mut sw = build_switch(4, 256, PifoBackend::default(), Some(TelemetryConfig::with_paths()));
        let run = sw.run(&arr, DrainMode::PerPacket);

        for port in &run.ports {
            prop_assert_eq!(port.paths.len(), port.departures.len(),
                "one path record per departure");
            let from_paths: Vec<u64> =
                port.paths.iter().map(|r| r.wait().as_nanos()).collect();
            let from_departures = pifo::sim::metrics::waits_of(&port.departures, None);
            prop_assert_eq!(&from_paths, &from_departures,
                "telemetry waits must equal departure waits");
            prop_assert_eq!(
                latency_stats(&from_paths),
                latency_stats(&from_departures)
            );
            // Spot the stronger per-record identity too.
            for (rec, dep) in port.paths.iter().zip(&port.departures) {
                prop_assert_eq!(rec.packet, dep.packet.id.0);
                prop_assert_eq!(rec.wait(), dep.wait);
                prop_assert_eq!(rec.departed, dep.start);
                prop_assert_eq!(rec.enqueued, dep.packet.arrival);
            }
        }
    }

    /// The lossless fabric: identical builds give byte-identical
    /// snapshots (including synthesized pause/resume events and fabric
    /// gauges), and telemetry leaves departures and the pause log
    /// untouched.
    #[test]
    fn lossless_telemetry_observes_and_is_deterministic(
        rate_x10 in 12u64..20,
        ports in 2usize..5,
    ) {
        let cfg = LosslessConfig::new(8, 2).with_headroom(16);
        let build = |telemetry: bool| {
            let mut sb = SwitchBuilder::new(RATE_BPS);
            sb.with_shared_pool(
                ports * 24,
                AdmissionPolicy::PortFlow {
                    port: Threshold::Static(24),
                    flow: Threshold::Unlimited,
                },
            );
            if telemetry {
                sb.with_telemetry(TelemetryConfig::with_paths());
            }
            for _ in 0..ports {
                sb.add_shared_port(|h| {
                    let mut b = TreeBuilder::new();
                    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                    b.build_in_pool(Box::new(move |_| root), h).expect("tree")
                });
            }
            let sw = sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports));
            LosslessFabric::new(sw, cfg)
        };
        let sources = move || -> Vec<Box<dyn TrafficSource>> {
            (0..ports as u32)
                .map(|p| {
                    Box::new(CbrSource::new(
                        FlowId(p),
                        1_000,
                        rate_x10 * 1_000_000_000,
                        Nanos::ZERO,
                        Nanos(40_000),
                    )) as Box<dyn TrafficSource>
                })
                .collect()
        };

        let base = build(false).run(sources(), DrainMode::PerPacket);
        let a = build(true).run(sources(), DrainMode::PerPacket);
        let b = build(true).run(sources(), DrainMode::PerPacket);

        // Observes, never steers — departures AND the pause log.
        for (x, y) in base.run.ports.iter().zip(&a.run.ports) {
            prop_assert_eq!(&x.departures, &y.departures);
            prop_assert_eq!(&x.drops, &y.drops);
        }
        prop_assert_eq!(&base.pause_events, &a.pause_events);

        // Identical builds -> byte-identical snapshots.
        let (sa, sb_) = (a.telemetry.expect("on"), b.telemetry.expect("on"));
        if sa != sb_ {
            dump_snapshot("lossless-rerun-a", &sa);
            dump_snapshot("lossless-rerun-b", &sb_);
            prop_assert!(false, "lossless rerun produced a different snapshot");
        }
        prop_assert!(base.telemetry.is_none(), "telemetry off must stay off");
    }
}

/// Pause/resume transitions surface as first-class events in the
/// lossless snapshot, and their counts reconcile with the pause log.
#[test]
fn lossless_snapshot_carries_pause_events() {
    use pifo_core::telemetry::EventKind;

    let ports = 4usize;
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        ports * 24,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(24),
            flow: Threshold::Unlimited,
        },
    );
    sb.with_telemetry(TelemetryConfig::default());
    for _ in 0..ports {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let sw = sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports));
    let mut fabric = LosslessFabric::new(sw, LosslessConfig::new(8, 2).with_headroom(16));

    let sources: Vec<Box<dyn TrafficSource>> = (0..ports as u32)
        .map(|p| {
            Box::new(CbrSource::new(
                FlowId(p),
                1_000,
                18_000_000_000,
                Nanos::ZERO,
                Nanos(60_000),
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let run = fabric.run(sources, DrainMode::PerPacket);
    let snap = run.telemetry.as_ref().expect("telemetry on");

    assert!(
        run.count_events(PauseAction::Pause) > 0,
        "the overdriven fabric must pause"
    );
    assert_eq!(
        snap.count(EventKind::Pause),
        run.count_events(PauseAction::Pause) as u64,
        "pause events reconcile with the pause log"
    );
    assert_eq!(
        snap.count(EventKind::Resume),
        run.count_events(PauseAction::Resume) as u64,
        "resume events reconcile with the pause log"
    );
    assert_eq!(run.total_drops(), 0, "lossless stays lossless");
}
