//! Telemetry overhead on the 16-port incast fabric: what the flight
//! recorder and the per-packet path records cost — and the proof they
//! only observe.
//!
//! The §5.1 incast storm (64 flows, 1024-packet waves every 20 µs)
//! sprays across a 16-port shared-pool switch under Choudhury–Hahne
//! thresholds. Every exact backend runs three telemetry modes:
//!
//! * `off`            — no telemetry (the baseline hot path);
//! * `recorder`       — per-tree flight-recorder rings + sampled gauges;
//! * `recorder_paths` — the above plus INT-style per-packet path
//!   records (the most expensive mode).
//!
//! Three invariants are asserted, not just reported:
//!
//! 1. departure traces are **bit-identical** across all three modes
//!    (telemetry observes, never steers);
//! 2. the flight-recorder mode costs at most 10% throughput on the
//!    full-scale run, comparing the fastest rep of each mode (the
//!    acceptance bound; the smoke run uses a loose sanity bound because
//!    tiny runs are timing noise);
//! 3. the event stream reconciles with the trace: enqueue = pool-alloc
//!    = admitted, dequeue = departed, drop events = trace drops, and
//!    one path record per departure.
//!
//! Invariants 1 and 3 are checked on every rep against a telemetry-off
//! reference run made before timing. Cells are timed, interleaved,
//! through [`pifo_bench::measure`]; results land in
//! `BENCH_telemetry.json`, and `--smoke` shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_bench::measure::{Bench, Row};
use pifo_core::prelude::*;
use pifo_core::telemetry::EventKind;
use pifo_sim::switch::{DrainMode, SwitchBuilder, SwitchRun};

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Recorder,
    RecorderPaths,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Off, Mode::Recorder, Mode::RecorderPaths];

    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Recorder => "recorder",
            Mode::RecorderPaths => "recorder_paths",
        }
    }

    fn config(self) -> Option<TelemetryConfig> {
        match self {
            Mode::Off => None,
            Mode::Recorder => Some(TelemetryConfig::default()),
            Mode::RecorderPaths => Some(TelemetryConfig::with_paths()),
        }
    }
}

/// What one run of a cell departed, dropped and recorded.
struct Outcome {
    departed: u64,
    drops: u64,
    events_recorded: u64,
    events_retained: usize,
    path_records: usize,
}

/// The incast storm, spread across all 16 ports by the flow classifier.
fn arrivals(waves: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..WAVE_PKTS {
            out.push(Packet::new(
                id,
                FlowId((k % 64) as u32),
                1_000,
                Nanos(wave * WAVE_PERIOD_NS),
            ));
            id += 1;
        }
    }
    out
}

fn build_switch(backend: PifoBackend, mode: Mode) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(32);
    sb.with_shared_pool(
        POOL_CAPACITY,
        AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
    );
    if let Some(cfg) = mode.config() {
        sb.with_telemetry(cfg);
    }
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

/// Check invariants 1 and 3 on one run against the backend's
/// telemetry-off `reference`, and summarise it.
fn check(
    backend: PifoBackend,
    mode: Mode,
    reference: &SwitchRun,
    run: &SwitchRun,
    snap: Option<TelemetrySnapshot>,
    offered: u64,
) -> Outcome {
    let departed = run.total_departures() as u64;
    let drops = run.total_drops();
    assert_eq!(departed + drops, offered, "every packet accounted");

    // Invariant 1: telemetry observes, never steers.
    for (port, (a, b)) in reference.ports.iter().zip(&run.ports).enumerate() {
        assert_eq!(
            a.departures,
            b.departures,
            "[{backend}/{}] port {port} trace diverges from telemetry-off",
            mode.label()
        );
        assert_eq!(
            a.drops,
            b.drops,
            "[{backend}/{}] port {port} drops",
            mode.label()
        );
    }

    // Invariant 3: the event stream reconciles with the trace.
    let (events_recorded, events_retained) = match &snap {
        Some(s) => {
            assert_eq!(s.count(EventKind::Enqueue), departed, "enqueues = admitted");
            assert_eq!(s.count(EventKind::PoolAlloc), departed, "allocs = admitted");
            assert_eq!(s.count(EventKind::Dequeue), departed, "dequeues = departed");
            assert_eq!(s.count(EventKind::PoolFree), departed, "frees = departed");
            assert_eq!(s.count(EventKind::Drop), drops, "drop events = trace drops");
            (s.events_recorded, s.events.len())
        }
        None => (0, 0),
    };
    let path_records: usize = run.ports.iter().map(|p| p.paths.len()).sum();
    if mode == Mode::RecorderPaths {
        assert_eq!(
            path_records as u64, departed,
            "one path record per departure"
        );
    }
    Outcome {
        departed,
        drops,
        events_recorded,
        events_retained,
        path_records,
    }
}

fn main() {
    let mut bench = Bench::from_args("telemetry_overhead");
    bench.config("ports", PORTS);
    bench.config("pool_capacity", POOL_CAPACITY);
    let waves: u64 = if bench.smoke() { 25 } else { 400 };
    let arr = arrivals(waves);
    let offered = arr.len() as u64;
    bench.config("waves", waves);
    bench.config("storm_packets", offered);

    let references: Vec<SwitchRun> = PifoBackend::EXACT
        .iter()
        .map(|&backend| build_switch(backend, Mode::Off).run(&arr, DrainMode::PerPacket))
        .collect();
    let cells: Vec<(usize, PifoBackend, Mode)> = PifoBackend::EXACT
        .into_iter()
        .enumerate()
        .flat_map(|(i, backend)| Mode::ALL.map(|mode| (i, backend, mode)))
        .collect();
    let measured = bench.measure(&cells, |&(i, backend, mode), clock| {
        let mut sw = build_switch(backend, mode);
        let run = clock.time(|| sw.run(&arr, DrainMode::PerPacket));
        let snap = sw.telemetry_snapshot(&run);
        check(backend, mode, &references[i], &run, snap, offered)
    });

    for (k, (&(_, backend, mode), m)) in cells.iter().zip(&measured).enumerate() {
        let r = &m.out;
        // Cells run off, recorder, recorder_paths per backend: the
        // backend's `off` cell is at the start of its group of three.
        let off = &measured[k - k % Mode::ALL.len()].elapsed;
        let ratio_vs_off = m.elapsed.min as f64 / off.min as f64;
        // Invariant 2: the flight recorder is cheap. The acceptance
        // bound holds on the full-scale run; smoke runs are too short
        // to time meaningfully, so only a sanity bound there.
        if mode == Mode::Recorder {
            let bound = if bench.smoke() { 3.0 } else { 1.10 };
            assert!(
                ratio_vs_off <= bound,
                "[{backend}] flight recorder costs {:.1}% (> {:.0}% bound)",
                (ratio_vs_off - 1.0) * 100.0,
                (bound - 1.0) * 100.0
            );
        }

        bench.row(
            Row::new()
                .field("backend", backend.label())
                .field("telemetry", mode.label())
                .field("departed", r.departed)
                .field("drops", r.drops)
                .timed(&m.elapsed, offered)
                .num("ratio_vs_off", ratio_vs_off, 4)
                .field("events_recorded", r.events_recorded)
                .field("events_retained", r.events_retained)
                .field("path_records", r.path_records),
        );
    }
    bench.write("BENCH_telemetry.json");
}
