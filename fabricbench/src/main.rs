//! fabricbench: the end-to-end and per-layer benchmark of the PIFO fabric.
//!
//! ```text
//! fabricbench --workload <incast16|hpfq_backlog|lossless_pfc16>
//!             --seed <n> --seconds <s> --trace <0|1> [--print-digest]
//! ```
//!
//! Every run first passes the correctness gate (a run checked in full
//! and a traced run whose digest must match it), then repeats set-up +
//! run for `--seconds`, checking every rep. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. `--print-digest` runs only the
//! gate and prints the seed's digest line for `digests.tsv`.

mod check;
mod trace;
mod util;
mod workloads;
mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Layer;
use util::median;
use workloads::{Outcome, Rep, Workload, NAMES};

/// Minimum timed reps per kind, however short `--seconds` is.
const MIN_REPS: usize = 3;

const END_TO_END: [(&str, &str); 5] = [
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_wait_p99_us", "us"),
    ("delivered_frac", "ratio"),
];

/// Per-layer metrics. A layer a workload bypasses reads 0 there.
const PER_LAYER: [(&str, &str); 28] = [
    ("sim.traffic.ns_per_pkt", "ns"),
    ("sim.switch.classify_ns_per_pkt", "ns"),
    ("sim.switch.self_ns_per_pkt", "ns"),
    ("sim.port.self_ns_per_pkt", "ns"),
    ("core.tree.enqueue_ns_p50", "ns"),
    ("core.tree.enqueue_ns_p99", "ns"),
    ("core.tree.dequeue_ns_p50", "ns"),
    ("core.tree.dequeue_ns_p99", "ns"),
    ("core.tree.self_ns_per_pkt", "ns"),
    ("algos.rank_ns", "ns"),
    ("algos.on_dequeue_ns", "ns"),
    ("algos.rank_calls_per_pkt", "count"),
    ("algos.on_dequeue_calls_per_pkt", "count"),
    ("sim.lossless.self_ns_per_pkt", "ns"),
    ("sim.lossless.rounds", "count"),
    ("sim.lossless.pauses", "count"),
    ("sim.lossless.peak_skid", "count"),
    ("core.pool.admitted", "count"),
    ("core.pool.rejected", "count"),
    ("core.pool.peak_live", "count"),
    ("core.telemetry.events_per_pkt", "count"),
    ("run.ns_per_offered_pkt", "ns"),
    ("run.ns_per_departed_pkt", "ns"),
    ("departed", "count"),
    ("dropped", "count"),
    ("misrouted", "count"),
    ("trace_overhead", "ratio"),
    ("bench.samples", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_digest = false;
    while let Some(flag) = it.next() {
        if flag == "--print-digest" {
            print_digest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", NAMES.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        print_digest,
    })
}

/// Attempted and failed packets over every run, and why runs failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// A packet fails if conservation misses it, or if its run failed any
    /// check.
    fn add(&mut self, o: &Outcome, errs: Vec<String>) {
        let offered = o.offered;
        self.attempted += offered;
        if errs.is_empty() {
            self.failed += offered.abs_diff(o.departed() + o.dropped() + o.misrouted);
        } else {
            self.failed += offered;
            if self.problems.len() < 20 {
                self.problems.extend(errs);
            }
        }
    }
}

struct PlainSample {
    setup_s: f64,
    run_s: f64,
    offered: f64,
    departed: f64,
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("fabricbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let wl = Workload::new(&args.workload, args.seed).ok_or(format!(
        "unknown workload {} ({})",
        args.workload,
        NAMES.join(", ")
    ))?;
    let mut tally = Tally::default();

    // The gate: a run checked in full (and against the digest recorded
    // for this seed, if any), and a traced run that must make exactly the
    // same decisions.
    let gate = wl.rep(false).outcome;
    let gate_digest = check::digest(&gate);
    let mut errs = check::verify(&gate);
    if let Some(recorded) = check::recorded_digest(&args.workload, args.seed) {
        if recorded != gate_digest {
            errs.push(format!(
                "digest {gate_digest:016x} differs from the recorded {recorded:016x}"
            ));
        }
    }
    tally.add(&gate, errs);
    let traced_gate = wl.rep(true).outcome;
    tally.add(&traced_gate, rep_errors(&traced_gate, gate_digest));
    drop(traced_gate);

    if args.print_digest {
        if !tally.problems.is_empty() {
            return Err(format!("gate failed: {}", tally.problems.join("; ")));
        }
        println!("{}\t{}\t{gate_digest:016x}", args.workload, args.seed);
        return Ok(());
    }

    if args.trace {
        let (child, span) = trace::calibrate();
        eprintln!(
            "fabricbench: span recording costs {child:.1} ns per child, {span:.1} ns per span"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<PlainSample> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_tsv = None;
    while plain.len() < MIN_REPS
        || (args.trace && traced.len() < MIN_REPS)
        || Instant::now() < deadline
    {
        // With tracing, traced and plain reps alternate.
        let is_traced = args.trace && plain.len() > traced.len();
        let mut rep = wl.rep(is_traced);
        tally.add(&rep.outcome, rep_errors(&rep.outcome, gate_digest));
        if is_traced {
            if spans_tsv.is_none() {
                spans_tsv = rep.trace.as_ref().map(|t| t.spans_tsv());
            }
            traced.push(layer_values(&wl, &mut rep));
        } else {
            plain.push(PlainSample {
                setup_s: rep.setup_s,
                run_s: rep.run_s,
                offered: rep.outcome.offered as f64,
                departed: rep.outcome.departed() as f64,
            });
        }
    }

    let pkts_per_s: Vec<f64> = plain.iter().map(|s| s.offered / s.run_s).collect();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut values = BTreeMap::new();
        for key in traced[0].keys() {
            let v: Vec<f64> = traced.iter().map(|m| m[key]).collect();
            values.insert(*key, median(&v));
        }
        let traced_pps = values.remove("traced_pkts_per_s").unwrap_or(0.0);
        values.insert("trace_overhead", traced_pps / median(&pkts_per_s));
        let run_ns = |per: fn(&PlainSample) -> f64| {
            median(
                &plain
                    .iter()
                    .map(|s| s.run_s * 1e9 / per(s))
                    .collect::<Vec<_>>(),
            )
        };
        values.insert("run.ns_per_offered_pkt", run_ns(|s| s.offered));
        values.insert("run.ns_per_departed_pkt", run_ns(|s| s.departed));
        values.insert("bench.samples", plain.len() as f64);
        outcome_values(&gate, &mut values);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let waits: Vec<u64> = gate
            .ports
            .iter()
            .flat_map(|p| p.departures.iter().map(|d| d.wait.as_nanos()))
            .collect();
        let p99_ns = pifo_sim::latency_stats(&waits).map_or(0, |s| s.p99_ns);
        let values = [
            median(&pkts_per_s),
            median(&plain.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
            util::peak_rss_mb(),
            p99_ns as f64 / 1e3,
            gate.departed() as f64 / gate.offered as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    if let Some(tsv) = spans_tsv {
        write_spans(&args, &tsv);
    }
    eprintln!(
        "fabricbench {} seed {}: {} plain reps, {} traced reps, {} packets per rep",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        gate.offered
    );
    for p in &tally.problems {
        eprintln!("fabricbench: FAILED CHECK: {p}");
    }
    for (name, unit, v) in &metrics {
        eprintln!("  {name:<34} {v:>16.4} {unit}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// A timed rep must pass the same checks as the gate and reproduce its
/// digest exactly.
fn rep_errors(o: &Outcome, gate_digest: u64) -> Vec<String> {
    let mut errs = check::verify(o);
    let d = check::digest(o);
    if d != gate_digest {
        errs.push(format!(
            "digest {d:016x} differs from the gate's {gate_digest:016x}"
        ));
    }
    errs
}

/// Per-layer values of one traced rep. Self times are per offered packet;
/// the engine's self time is named after the entry point it ran.
fn layer_values(wl: &Workload, rep: &mut Rep) -> BTreeMap<&'static str, f64> {
    let n = rep.outcome.offered as f64;
    let tr = rep.trace.as_mut().expect("a traced rep carries its trace");
    let own = |l: Layer| tr.self_ns(l);
    let calls = |l: Layer| tr.calls[l as usize] as f64;
    let mean = |l: Layer| {
        if calls(l) > 0.0 {
            own(l) / calls(l)
        } else {
            0.0
        }
    };
    let engine = match wl {
        Workload::Incast16(_) => "sim.switch.self_ns_per_pkt",
        Workload::HpfqBacklog(_) => "sim.port.self_ns_per_pkt",
        Workload::LosslessPfc16(_) => "sim.lossless.self_ns_per_pkt",
    };
    let mut v = BTreeMap::new();
    v.insert("sim.traffic.ns_per_pkt", own(Layer::Traffic) / n);
    v.insert("sim.switch.classify_ns_per_pkt", own(Layer::Classify) / n);
    v.insert(engine, own(Layer::Run) / n);
    let tree_self = own(Layer::TreeEnqueue) + own(Layer::TreeDequeue);
    v.insert("core.tree.self_ns_per_pkt", tree_self / n);
    v.insert("algos.rank_ns", mean(Layer::Rank));
    v.insert("algos.on_dequeue_ns", mean(Layer::OnDequeue));
    v.insert("algos.rank_calls_per_pkt", calls(Layer::Rank) / n);
    v.insert(
        "algos.on_dequeue_calls_per_pkt",
        calls(Layer::OnDequeue) / n,
    );
    v.insert("traced_pkts_per_s", n / rep.run_s);
    for (name, layer, p) in [
        ("core.tree.enqueue_ns_p50", Layer::TreeEnqueue, 50.0),
        ("core.tree.enqueue_ns_p99", Layer::TreeEnqueue, 99.0),
        ("core.tree.dequeue_ns_p50", Layer::TreeDequeue, 50.0),
        ("core.tree.dequeue_ns_p99", Layer::TreeDequeue, 99.0),
    ] {
        v.insert(name, tr.percentile_ns(layer, p));
    }
    v
}

/// Counters read from the gate run: deterministic for a seed.
fn outcome_values(o: &Outcome, v: &mut BTreeMap<&'static str, f64>) {
    let n = o.offered as f64;
    v.insert("departed", o.departed() as f64);
    v.insert("dropped", o.dropped() as f64);
    v.insert("misrouted", o.misrouted as f64);
    v.insert("core.pool.admitted", o.pool_admitted as f64);
    v.insert("core.pool.rejected", o.pool_rejected as f64);
    let peak = o
        .lossless
        .as_ref()
        .map_or_else(|| check::peak_resident(o), |l| l.max_pool_live as u64);
    v.insert("core.pool.peak_live", peak as f64);
    if let Some(l) = &o.lossless {
        v.insert("sim.lossless.rounds", l.rounds as f64);
        v.insert("sim.lossless.pauses", l.pauses as f64);
        v.insert("sim.lossless.peak_skid", l.peak_skid as f64);
        v.insert(
            "core.telemetry.events_per_pkt",
            l.events_recorded as f64 / n,
        );
    }
}

/// Writes the first traced rep's spans next to the benchmark's sources.
fn write_spans(args: &Args, tsv: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tsv)) {
        Ok(()) => eprintln!("fabricbench: spans written to {}", path.display()),
        Err(e) => eprintln!("fabricbench: could not write {}: {e}", path.display()),
    }
}
