//! Golden digests of lossless-fabric runs under fault plans.
//!
//! The other lossless suites compare runs with each other (backend vs
//! backend, mode vs mode, telemetry on vs off), so a change to the
//! event order that both sides share passes them. This file pins the
//! absolute outcome instead: for a grid of [`FaultPlan`]s at two pause
//! wire delays, an FNV-1a digest over everything a [`LosslessRun`]
//! reports — departures, drops, path `departed` stamps, the pause log,
//! per-source pause stats, rounds, peak pool and skid occupancy, the
//! fabric gauges, the telemetry event count and the stall text — must
//! equal the recorded value.
//!
//! On a mismatch the test prints the whole table as the code computes
//! it. Update the table only for a change that is meant to alter
//! lossless behaviour, and say so where the change is described.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::lossless::{FabricStall, FaultPlan, LosslessConfig, LosslessFabric, LosslessRun};
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use pifo_sim::traffic::{CbrSource, IncastSource, TrafficSource};

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;
const XOFF: usize = 8;
const XON: usize = 2;
const HEADROOM: usize = 16;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn time(&mut self, t: Nanos) {
        self.word(t.as_nanos());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

fn fabric(wire_delay: Nanos, max_pause: Nanos, round_budget: u64) -> LosslessFabric {
    let cfg = LosslessConfig::new(XOFF, XON)
        .with_headroom(HEADROOM)
        .with_wire_delay(wire_delay)
        .with_max_pause(max_pause)
        .with_round_budget(round_budget);
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_telemetry(TelemetryConfig::with_paths());
    sb.with_shared_pool(
        cfg.min_pool_capacity(PORTS),
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(XOFF + HEADROOM),
            flow: Threshold::Static(6),
        },
    );
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    LosslessFabric::new(
        sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS)),
        cfg,
    )
}

/// One 1.2×-overdriven CBR stream per port plus one incast source
/// whose 12 senders spread over all four ports, so a source's target
/// port changes from packet to packet.
fn sources() -> Vec<Box<dyn TrafficSource>> {
    let mut v: Vec<Box<dyn TrafficSource>> = (0..PORTS as u32)
        .map(|p| {
            Box::new(CbrSource::new(
                FlowId(p),
                1_000,
                12_000_000_000,
                Nanos(p as u64 * 37),
                Nanos::from_micros(120),
            )) as Box<dyn TrafficSource>
        })
        .collect();
    v.push(Box::new(IncastSource::new(
        FlowId(100),
        12,
        600,
        2,
        RATE_BPS,
        Nanos::from_micros(15),
        Nanos::from_micros(120),
    )));
    v
}

/// Everything the run reports, folded into one word.
fn digest(run: &LosslessRun) -> u64 {
    let mut d = Digest::new();
    d.word(run.run.misrouted);
    for port in &run.run.ports {
        d.word(port.drops);
        d.word(port.departures.len() as u64);
        for dep in &port.departures {
            d.word(dep.packet.id.0);
            d.word(dep.packet.flow.0 as u64);
            d.word(dep.packet.length as u64);
            d.time(dep.packet.arrival);
            d.time(dep.start);
            d.time(dep.finish);
            d.time(dep.wait);
        }
        d.word(port.paths.len() as u64);
        for path in &port.paths {
            d.word(path.packet);
            d.time(path.departed);
        }
    }
    d.word(run.pause_events.len() as u64);
    for e in &run.pause_events {
        d.time(e.time);
        d.word(e.port as u64);
        d.word(e.class as u64);
        d.word(e.action as u64);
    }
    for s in &run.sources {
        d.word(s.pauses);
        d.word(s.resumes);
        d.time(s.total_paused);
        d.time(s.max_pause);
    }
    for &t in &run.port_paused {
        d.time(t);
    }
    for &s in &run.peak_skid {
        d.word(s as u64);
    }
    d.word(run.skid_overflow);
    d.word(run.max_pool_live as u64);
    d.word(run.rounds);
    let snap = run.telemetry.as_ref().expect("telemetry was enabled");
    d.word(snap.events_recorded);
    for g in &snap.gauges {
        d.text(&g.name);
        d.word(g.points.len() as u64);
        for p in &g.points {
            d.time(p.time);
            d.word(p.value);
        }
    }
    d.text(
        &run.stall
            .as_ref()
            .map_or(String::new(), FabricStall::to_string),
    );
    d.0
}

/// One grid cell: a named fault plan with its watchdog bounds.
struct Case {
    name: &'static str,
    plan: FaultPlan,
    max_pause: Nanos,
    round_budget: u64,
}

fn cases() -> Vec<Case> {
    let case = |name, plan| Case {
        name,
        plan,
        max_pause: Nanos::from_micros(40),
        round_budget: 100_000,
    };
    vec![
        case("none", FaultPlan::none()),
        case("dead", FaultPlan::none().dead_port(1)),
        case("slow", FaultPlan::none().slow_port(2, 4)),
        case(
            "stuck",
            FaultPlan::none().stuck_pool(Nanos::from_micros(30)),
        ),
        case(
            "delayed_resume",
            FaultPlan::none().delayed_resume(Nanos(3_000)),
        ),
        case(
            "slow_delayed",
            FaultPlan::none()
                .slow_port(0, 3)
                .delayed_resume(Nanos(1_500)),
        ),
        case("dead_slow", FaultPlan::none().dead_port(3).slow_port(1, 2)),
        case(
            "stuck_dead",
            FaultPlan::none()
                .dead_port(2)
                .stuck_pool(Nanos::from_micros(60)),
        ),
        Case {
            name: "storm",
            plan: FaultPlan::none().slow_port(0, 64),
            max_pause: Nanos::from_micros(100),
            round_budget: 100_000,
        },
        Case {
            name: "budget",
            plan: FaultPlan::none(),
            max_pause: Nanos::from_micros(40),
            round_budget: 200,
        },
    ]
}

/// `(case, wire delay ns, digest, stall text)` as recorded.
const GOLDEN: &[(&str, u64, u64, &str)] = &[
    ("none", 0, 0x193D15A5D737B35B, ""),
    ("none", 700, 0x00434CAE5EDA1B4E, ""),
    (
        "dead",
        0,
        0xED4CF82372CE020C,
        "dead port 1 (stalled at 40.704us, longest pause 40.000us)",
    ),
    (
        "dead",
        700,
        0x5BCDBBF4D51366A9,
        "dead port 1 (stalled at 40.704us, longest pause 40.000us)",
    ),
    ("slow", 0, 0x0D563E88285E684F, ""),
    ("slow", 700, 0x61ECDBC83EF001AC, ""),
    (
        "stuck",
        0,
        0xF1C39435CC38A29E,
        "stuck pool (stalled at 70.290us, longest pause 40.000us)",
    ),
    (
        "stuck",
        700,
        0xA969B78E8FAEC918,
        "stuck pool (stalled at 67.551us, longest pause 40.000us)",
    ),
    ("delayed_resume", 0, 0x9DCFDF1A25F1A631, ""),
    ("delayed_resume", 700, 0xFDF7232D6E90ADE1, ""),
    ("slow_delayed", 0, 0xDE7519A25521E541, ""),
    ("slow_delayed", 700, 0x00E1C17061C53FB7, ""),
    (
        "dead_slow",
        0,
        0x4B54002D0E4960AC,
        "dead port 3 (stalled at 40.778us, longest pause 40.000us)",
    ),
    (
        "dead_slow",
        700,
        0xCDE8A840A04F21A9,
        "dead port 3 (stalled at 40.778us, longest pause 40.000us)",
    ),
    (
        "stuck_dead",
        0,
        0x3EC6D8391950F7CC,
        "dead port 2 (stalled at 40.741us, longest pause 40.000us)",
    ),
    (
        "stuck_dead",
        700,
        0xB29670256D9D4067,
        "dead port 2 (stalled at 40.741us, longest pause 40.000us)",
    ),
    (
        "storm",
        0,
        0xAD098EEB75DEFD25,
        "pause storm on port 0 (stalled at 103.335us, longest pause 100.000us)",
    ),
    (
        "storm",
        700,
        0xE49F13ABD9C66662,
        "pause storm on port 0 (stalled at 103.335us, longest pause 100.000us)",
    ),
    (
        "budget",
        0,
        0x0A901B15796D144B,
        "round budget exhausted after 201 rounds (stalled at 96.763us, longest pause 0ns)",
    ),
    (
        "budget",
        700,
        0xEEB8E993CB79BD44,
        "round budget exhausted after 201 rounds (stalled at 100.732us, longest pause 0ns)",
    ),
];

#[test]
fn lossless_runs_match_golden_digests() {
    let mut got: Vec<(&str, u64, u64, String)> = Vec::new();
    for case in cases() {
        for wire in [0u64, 700] {
            let run = fabric(Nanos(wire), case.max_pause, case.round_budget).run_with_faults(
                sources(),
                DrainMode::PerPacket,
                &case.plan,
            );
            let stall = run
                .stall
                .as_ref()
                .map_or(String::new(), FabricStall::to_string);
            got.push((case.name, wire, digest(&run), stall));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, wire, d, stall)| format!("    ({name:?}, {wire}, 0x{d:016X}, {stall:?}),\n"))
        .collect();
    let want: Vec<(&str, u64, u64, String)> = GOLDEN
        .iter()
        .map(|&(name, wire, d, stall)| (name, wire, d, stall.to_string()))
        .collect();
    assert_eq!(got, want, "digests as computed now:\n{table}");
}

/// The grid reaches every watchdog verdict except the circular wait
/// (which needs a gated ingress no source can unblock).
#[test]
fn golden_grid_covers_every_watchdog_verdict() {
    for prefix in [
        "dead port",
        "stuck pool",
        "pause storm",
        "round budget exhausted",
    ] {
        assert!(
            GOLDEN.iter().any(|g| g.3.starts_with(prefix)),
            "no golden run ends in `{prefix}`"
        );
    }
    assert!(
        GOLDEN.iter().any(|g| g.3.is_empty()),
        "no golden run drains cleanly"
    );
}
