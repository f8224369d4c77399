//! The one bench harness: interleaved repeated timing and the one
//! `BENCH_*.json` writer.
//!
//! Every target under `crates/bench/benches/` builds a [`Bench`] from its
//! command line, times its cells with [`Bench::measure`], adds one [`Row`]
//! per cell and writes the file with [`Bench::write`]. Only two things
//! are settable: `--smoke` ([`SMOKE_REPS`] reps instead of
//! [`FULL_REPS`]) and the `BENCH_OUT_DIR` the file lands in (default: the
//! repo root).
//!
//! Cells run round-robin over the reps, so machine-speed drift hits every
//! cell alike. Each call of a cell sets up untimed and hands exactly one
//! body to [`Clock::time`]; a cell's [`Spread`] is the min and the
//! quartiles of its bodies by the nearest-rank rule of
//! [`pifo_sim::metrics::percentile_index`].

use pifo_sim::metrics::percentile_index;
use std::time::Instant;

/// Reps per cell in full mode.
pub const FULL_REPS: usize = 5;
/// Reps per cell in smoke mode.
pub const SMOKE_REPS: usize = 2;
/// The `schema` tag of every `BENCH_*.json` header.
const SCHEMA: &str = "pifo-bench-v1";

/// Elapsed ns of one cell over its reps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    /// Fastest rep.
    pub min: u64,
    /// First quartile.
    pub q1: u64,
    /// Median: every row's headline `elapsed_ns`.
    pub median: u64,
    /// Third quartile.
    pub q3: u64,
}

impl Spread {
    /// The spread of `samples`; panics when empty.
    fn of(samples: &[u64]) -> Spread {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let at = |p: f64| v[percentile_index(v.len(), p)];
        Spread {
            min: v[0],
            q1: at(25.0),
            median: at(50.0),
            q3: at(75.0),
        }
    }

    /// `count` items per median elapsed time, in items/second.
    pub fn per_sec(&self, count: u64) -> f64 {
        count as f64 * 1e9 / self.median as f64
    }
}

/// Times the one body of a cell call.
#[derive(Debug, Default)]
pub struct Clock(Option<u64>);

impl Clock {
    /// Run `body` under the clock and return its output.
    pub fn time<T>(&mut self, body: impl FnOnce() -> T) -> T {
        assert!(self.0.is_none(), "a cell times exactly one body");
        let start = Instant::now();
        let out = std::hint::black_box(body());
        self.0 = Some(start.elapsed().as_nanos() as u64);
        out
    }
}

/// One cell's result: its first rep's output (runs are deterministic)
/// and its spread.
#[derive(Debug)]
pub struct Measured<R> {
    /// What the first rep returned.
    pub out: R,
    /// Elapsed ns of the timed bodies.
    pub elapsed: Spread,
}

/// A JSON field value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// A non-negative integer.
    Int(u128),
    /// A number with this many decimals (`null` when not finite).
    Num(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// A nested object.
    Obj(Row),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::$variant(x.into())
            }
        }
    )*};
}
value_from!(u64 => Int, u128 => Int, String => Str, &str => Str, Row => Obj);

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u128)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Ordered named fields: a result row, the `config` object, or any
/// nested object.
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Append `key: value`.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Row {
        self.0.push((key, value.into()));
        self
    }

    /// Append `key: value` with `decimals` decimals.
    pub fn num(self, key: &'static str, value: f64, decimals: usize) -> Row {
        self.field(key, Value::Num(value, decimals))
    }

    /// Append `packets`, `elapsed_ns` (the median), `elapsed_ns_min`,
    /// `elapsed_ns_q1`, `elapsed_ns_q3` and `pkts_per_sec` (per median).
    pub fn timed(self, elapsed: &Spread, packets: u64) -> Row {
        self.field("packets", packets)
            .field("elapsed_ns", elapsed.median)
            .field("elapsed_ns_min", elapsed.min)
            .field("elapsed_ns_q1", elapsed.q1)
            .field("elapsed_ns_q3", elapsed.q3)
            .num("pkts_per_sec", elapsed.per_sec(packets), 0)
    }
}

/// One bench target's run: its mode, header fields and result rows.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    smoke: bool,
    config: Row,
    extra: Row,
    rows: Vec<String>,
}

impl Bench {
    /// Bench `name`, in smoke mode when the command line holds `--smoke`.
    pub fn from_args(name: &'static str) -> Bench {
        Bench::new(name, std::env::args().any(|a| a == "--smoke"))
    }

    fn new(name: &'static str, smoke: bool) -> Bench {
        Bench {
            name,
            smoke,
            config: Row::new(),
            extra: Row::new(),
            rows: Vec::new(),
        }
    }

    /// True in smoke mode.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    fn mode(&self) -> &'static str {
        ["full", "smoke"][self.smoke as usize]
    }

    fn reps(&self) -> usize {
        [FULL_REPS, SMOKE_REPS][self.smoke as usize]
    }

    /// Add `key: value` to the header's `config` object.
    pub fn config(&mut self, key: &'static str, value: impl Into<Value>) {
        self.config.0.push((key, value.into()));
    }

    /// Add a top-level `key: value` after the header.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) {
        self.extra.0.push((key, value.into()));
    }

    /// Append one result row, and print it.
    pub fn row(&mut self, row: Row) {
        let mut line = String::new();
        write_row(&mut line, &row);
        println!("{} {line}", self.name);
        self.rows.push(line);
    }

    /// Call `run` on every cell, round-robin, [`FULL_REPS`] (or
    /// [`SMOKE_REPS`]) times over; each call times exactly one body
    /// through its [`Clock`].
    /// Returns one [`Measured`] per cell, in order.
    pub fn measure<C, R>(
        &self,
        cells: &[C],
        mut run: impl FnMut(&C, &mut Clock) -> R,
    ) -> Vec<Measured<R>> {
        let mut config = String::new();
        write_row(&mut config, &self.config);
        println!(
            "{}: {} mode, {} cells x {} reps, config {config}",
            self.name,
            self.mode(),
            cells.len(),
            self.reps()
        );
        let mut outs: Vec<Option<R>> = cells.iter().map(|_| None).collect();
        let mut samples = vec![Vec::new(); cells.len()];
        for _ in 0..self.reps() {
            for (i, cell) in cells.iter().enumerate() {
                let mut clock = Clock::default();
                let out = run(cell, &mut clock);
                samples[i].push(clock.0.expect("a cell must time its body"));
                outs[i].get_or_insert(out);
            }
        }
        outs.into_iter()
            .zip(samples)
            .map(|(out, s)| Measured {
                out: out.expect("reps >= 1"),
                elapsed: Spread::of(&s),
            })
            .collect()
    }

    /// The file's text: header, extra fields, one line per row.
    fn to_json(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut head = Row::new()
            .field("schema", SCHEMA)
            .field("bench", self.name)
            .field("mode", self.mode())
            .field("reps", self.reps())
            .field("available_parallelism", cores)
            .field("config", self.config.clone());
        head.0.extend(self.extra.0.iter().cloned());
        let mut out = String::from("{\n");
        for (key, value) in &head.0 {
            out.push_str("  ");
            write_field(&mut out, key, value);
            out.push_str(",\n");
        }
        out.push_str("  \"results\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(row);
        }
        out + "\n  ]\n}\n"
    }

    /// Write the file to `$BENCH_OUT_DIR/<file>`, default the repo root.
    pub fn write(&self, file: &str) {
        let dir: std::path::PathBuf = std::env::var_os("BENCH_OUT_DIR").map_or_else(
            || concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into(),
            Into::into,
        );
        let path = dir.join(file);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

fn write_field(out: &mut String, key: &str, value: &Value) {
    write_str(out, key);
    out.push_str(": ");
    match value {
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Num(x, decimals) if x.is_finite() => out.push_str(&format!("{x:.decimals$}")),
        Value::Null | Value::Num(..) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Obj(row) => write_row(out, row),
    }
}

fn write_row(out: &mut String, row: &Row) {
    out.push('{');
    for (i, (key, value)) in row.0.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        write_field(out, key, value);
    }
    out.push('}');
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_odd_length_input() {
        let s = Spread::of(&[50, 10, 40, 20, 30]);
        assert_eq!(
            s,
            Spread {
                min: 10,
                q1: 20,
                median: 30,
                q3: 40
            }
        );
    }

    #[test]
    fn spread_of_even_length_input_uses_nearest_rank() {
        // ⌈0.25·4⌉ = 1, ⌈0.5·4⌉ = 2, ⌈0.75·4⌉ = 3 (1-based): real samples,
        // never an interpolation.
        let s = Spread::of(&[40, 30, 20, 10]);
        assert_eq!(
            s,
            Spread {
                min: 10,
                q1: 10,
                median: 20,
                q3: 30
            }
        );
        // Two samples, the smoke rep count: the median is the faster one.
        assert_eq!(Spread::of(&[7, 3]).median, 3);
    }

    #[test]
    fn spread_of_one_sample_is_that_sample() {
        let s = Spread::of(&[42]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (42, 42, 42, 42));
        assert_eq!(s.per_sec(42), 1e9);
    }

    #[test]
    fn cells_run_round_robin_across_reps() {
        let bench = Bench::new("log", false);
        let mut log = Vec::new();
        let measured = bench.measure(&['a', 'b', 'c'], |&cell, clock| {
            log.push(cell);
            clock.time(|| cell)
        });
        assert_eq!(log.len(), 3 * FULL_REPS);
        assert_eq!(&log[..6], &['a', 'b', 'c', 'a', 'b', 'c']);
        assert!(log.chunks(3).all(|rep| rep == ['a', 'b', 'c']));
        let outs: Vec<char> = measured.iter().map(|m| m.out).collect();
        assert_eq!(outs, ['a', 'b', 'c']);

        let smoke = Bench::new("log", true);
        let mut calls = 0;
        smoke.measure(&[()], |_, clock| {
            calls += 1;
            clock.time(|| ())
        });
        assert_eq!(calls, SMOKE_REPS);
    }

    #[test]
    #[should_panic(expected = "must time its body")]
    fn a_cell_that_times_nothing_is_refused() {
        Bench::new("untimed", true).measure(&[()], |_, _| ());
    }

    #[test]
    fn header_carries_schema_mode_reps_and_parallelism() {
        let mut bench = Bench::new("hdr", true);
        bench.config("ports", 16usize);
        bench.field("overhead", Row::new().field("on", 2u64));
        bench.row(
            Row::new()
                .field("name", "a \"quoted\" \\ name\n")
                .field("workers", None::<usize>)
                .num("ratio", 1.23456, 3)
                .num("inf", f64::INFINITY, 0),
        );
        let json = bench.to_json();
        for want in [
            "\"schema\": \"pifo-bench-v1\"",
            "\"bench\": \"hdr\"",
            "\"mode\": \"smoke\"",
            "\"reps\": 2",
            "\"available_parallelism\": ",
            "\"config\": {\"ports\": 16}",
            "\"overhead\": {\"on\": 2}",
            "\"name\": \"a \\\"quoted\\\" \\\\ name\\n\"",
            "\"workers\": null",
            "\"ratio\": 1.235",
            "\"inf\": null",
        ] {
            assert!(json.contains(want), "missing {want} in\n{json}");
        }
        assert!(Bench::new("full", false)
            .to_json()
            .contains("\"mode\": \"full\",\n  \"reps\": 5"));
        assert_eq!(write_to_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn timed_row_reports_the_median_and_its_spread() {
        let spread = Spread::of(&[4_000, 1_000, 2_000, 3_000, 5_000]);
        let mut bench = Bench::new("row", false);
        bench.row(Row::new().timed(&spread, 6));
        assert!(bench.to_json().contains(
            "{\"packets\": 6, \"elapsed_ns\": 3000, \"elapsed_ns_min\": 1000, \
             \"elapsed_ns_q1\": 2000, \"elapsed_ns_q3\": 4000, \"pkts_per_sec\": 2000000}"
        ));
    }

    fn write_to_string(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }
}
