//! `servebench` — end-to-end and per-layer benchmark of `tabular-serve`.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload point-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it starts a fresh in-process server, seeds a session
//! over HTTP, and drives the workload in a closed loop on two keep-alive
//! connections, printing the end-to-end metrics. With `--trace 1` it
//! runs the same loop for the `/stats` CPU counters and then replays the
//! workload in-process layer by layer, printing the per-layer metrics
//! and writing the spans to `servebench/out/`. The last line of standard
//! output is one JSON object; the exit code is non-zero if any response
//! was wrong. See README.md for the workloads and metrics.

mod check;
mod client;
mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use client::{closed_loop, start, LoopRun, Stop, Target};
use stats::{median, percentile, tail_quantile};
use workload::{reference, Class, Expected, Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Host noise comes in bursts, so each end-to-end figure is a median
/// over parts of the run: `qps` over the run's one-second slices,
/// `p50_ms` and `p90_ms` over consecutive chunks of `CHUNK` reads. The
/// tail metric is p90, not p99: on a shared 2-vCPU host a few percent
/// of CPU steal moves a p99 of sub-millisecond requests by half or
/// more, a p90 by a tenth.
const CHUNK: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or(format!("no workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Warm-up requests per connection in each set-up: enough for every
/// request class to run a few times on each connection.
fn warmup(workload: Workload) -> usize {
    match workload {
        Workload::PointRead => 200,
        Workload::OlapRead => 16,
        Workload::WriteMix => 100,
    }
}

/// Requests per replay pass (after the four seeding uploads), and
/// passes; each per-layer figure is the median over the passes.
fn replay_size(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::PointRead => (2000, 3),
        Workload::OlapRead => (200, 3),
        Workload::WriteMix => (1000, 3),
    }
}

/// What the result line reports, with the first wrong responses.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        let inputs = Inputs::generate(args.seed);
        let expected = reference(&inputs)?;
        if args.trace {
            traced(&args, &inputs, &expected)
        } else {
            untraced(&args, &inputs, &expected)
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("servebench: wrong response: {e}");
    }
    let correct = outcome.failed == 0;
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Start, seed and warm up a fresh server; returns it with the warm-up
/// loop and the time all of that took.
fn set_up(
    workload: Workload,
    inputs: &Inputs,
    expected: &Expected,
) -> Result<(Target, LoopRun, f64), String> {
    let started = Instant::now();
    let target = start(inputs)?;
    let warm = closed_loop(
        &target,
        workload,
        expected,
        Stop::Requests(warmup(workload)),
    );
    Ok((target, warm, started.elapsed().as_secs_f64()))
}

/// The service counters a run reads before and after its window.
struct Counters {
    requests: u64,
    queries: u64,
    budget_trips: u64,
    worker_busy_us: u64,
    reactor_busy_us: u64,
    ticks: Option<(u64, u64)>,
}

impl Counters {
    fn read(target: &Target) -> Counters {
        let c = &target.service.counters;
        Counters {
            requests: c.requests.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            budget_trips: c.budget_trips.load(Ordering::Relaxed),
            worker_busy_us: c.worker_busy_us.load(Ordering::Relaxed),
            reactor_busy_us: c.reactor_busy_us.load(Ordering::Relaxed),
            ticks: stats::cpu_ticks(),
        }
    }
}

/// The measured window: the closed loop plus the counters around it.
struct Window {
    run: LoopRun,
    before: Counters,
    after: Counters,
}

impl Window {
    fn measure(target: &Target, workload: Workload, expected: &Expected, secs: u64) -> Window {
        let before = Counters::read(target);
        let run = closed_loop(
            target,
            workload,
            expected,
            Stop::After(Duration::from_secs(secs)),
        );
        let after = Counters::read(target);
        Window { run, before, after }
    }

    fn requests(&self) -> u64 {
        self.after.requests - self.before.requests
    }

    /// Sorted latencies of the successful reads, in µs.
    fn read_micros(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .run
            .samples
            .iter()
            .filter(|s| s.ok && s.class.is_read())
            .map(|s| s.micros)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The slices between consecutive tick readings (about a second
    /// each), leaving out a last slice shorter than half a tick.
    fn slices(&self) -> Vec<(Instant, Instant)> {
        self.run
            .ticks
            .windows(2)
            .filter(|w| w[1].0 - w[0].0 >= client::TICK / 2)
            .map(|w| (w[0].0, w[1].0))
            .collect()
    }

    /// Throughput, and the chunked `qs`-quantiles of read latency (µs):
    /// `qps` is the median of the slices' rates; each quantile is the
    /// median over consecutive chunks of `CHUNK` reads of the chunk's
    /// quantile.
    fn figures(&self, qs: &[f64]) -> (f64, Vec<Option<f64>>) {
        let slices = self.slices();
        let slot = |t: Instant| slices.iter().position(|&(a, b)| a <= t && t < b);
        let mut done = vec![0usize; slices.len()];
        let mut reads: Vec<&client::Sample> = Vec::new();
        for s in self.run.samples.iter().filter(|s| s.ok) {
            if let Some(i) = slot(s.done) {
                done[i] += 1;
                if s.class.is_read() {
                    reads.push(s);
                }
            }
        }
        let rates: Vec<f64> = slices
            .iter()
            .zip(&done)
            .map(|(&(a, b), &n)| n as f64 / (b - a).as_secs_f64())
            .collect();
        reads.sort_by_key(|s| s.done);
        let micros: Vec<f64> = reads.iter().map(|s| s.micros).collect();
        let quantiles = qs
            .iter()
            .map(|&q| stats::chunked_quantile(&micros, CHUNK, q))
            .collect();
        (median(&rates), quantiles)
    }

    /// Print the window's counts, sample sizes and host noise.
    fn report(&self) {
        let secs = self.run.wall.as_secs_f64();
        let attempted = self.run.samples.len();
        let failed = self.run.samples.iter().filter(|s| !s.ok).count();
        println!(
            "window: {secs:.3}s, {attempted} requests, failed_share {}",
            failed as f64 / attempted.max(1) as f64
        );
        for class in Class::ALL {
            let mut us: Vec<f64> = self
                .run
                .samples
                .iter()
                .filter(|s| s.ok && s.class == class)
                .map(|s| s.micros)
                .collect();
            if us.is_empty() {
                continue;
            }
            us.sort_by(f64::total_cmp);
            let tail = tail_quantile(us.len())
                .map(|q| format!(", p{} {:.1}µs", q * 100.0, percentile(&us, q)))
                .unwrap_or_default();
            println!(
                "  {:<7} n={:<6} {:.1}/s, p50 {:.1}µs{tail}",
                class.name(),
                us.len(),
                us.len() as f64 / secs,
                percentile(&us, 0.5)
            );
        }
        let reads = self.read_micros();
        if let Some(q) = tail_quantile(reads.len()) {
            println!(
                "  reads over the whole window: n={}, p50 {:.1}µs, p{} {:.1}µs",
                reads.len(),
                percentile(&reads, 0.5),
                q * 100.0,
                percentile(&reads, q)
            );
        }
        let series: Vec<String> = self
            .run
            .ticks
            .windows(2)
            .filter(|w| w[1].0 - w[0].0 >= client::TICK / 2)
            .map(|w| stats::steal_share(w[0].1, w[1].1).map_or("?".into(), |x| format!("{x:.2}")))
            .collect();
        println!("  steal per second: {}", series.join(" "));
        if let Some(p99) = self.figures(&[0.99]).1[0] {
            println!("  chunked read p99 {p99:.1}µs (not a metric: it moves with host steal)");
        }
        let writes = self
            .run
            .samples
            .iter()
            .filter(|s| s.ok && !s.class.is_read())
            .count();
        println!("  writes_per_s {}", writes as f64 / secs);
        let steal = stats::steal_share(self.before.ticks, self.after.ticks)
            .map_or("n/a".to_string(), |s| s.to_string());
        let (b, a) = (&self.before, &self.after);
        println!(
            "  host.steal_share {steal}; /stats deltas: requests {}, queries {}, \
             budget_trips {}, worker_busy_us {}, reactor_busy_us {}",
            a.requests - b.requests,
            a.queries - b.queries,
            a.budget_trips - b.budget_trips,
            a.worker_busy_us - b.worker_busy_us,
            a.reactor_busy_us - b.reactor_busy_us,
        );
    }
}

/// Tally failures across loops into an outcome.
fn tally(loops: &[&LoopRun], metrics: Vec<(&'static str, f64, &'static str)>) -> Outcome {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics,
    };
    for run in loops {
        outcome.attempted += run.samples.len();
        outcome.failed += run.samples.iter().filter(|s| !s.ok).count();
        outcome.errors.extend(run.errors.iter().cloned());
    }
    outcome
}

fn untraced(args: &Args, inputs: &Inputs, expected: &Expected) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut warmups = Vec::new();
    let mut target = None;
    for _ in 0..SETUPS {
        let (t, warm, secs) = set_up(args.workload, inputs, expected)?;
        setup_s.push(secs);
        warmups.push(warm);
        target = Some(t);
    }
    let target = target.expect("at least one set-up");
    let window = Window::measure(&target, args.workload, expected, args.seconds);
    window.report();

    let (qps, q) = window.figures(&[0.5, 0.9]);
    let (Some(p50), Some(p90)) = (q[0], q[1]) else {
        return Err(format!(
            "{} successful reads: too few for one chunk of {CHUNK}",
            window.read_micros().len()
        ));
    };
    let values = [median(&setup_s), qps, p50 / 1e3, p90 / 1e3];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let mut loops: Vec<&LoopRun> = warmups.iter().collect();
    loops.push(&window.run);
    Ok(tally(&loops, metrics))
}

/// End-to-end metrics reported in the result line, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics reported in the result line, with their units.
const LAYER_METRICS: [(&str, &str); 17] = [
    ("reactor.cpu_us_per_req", "us"),
    ("worker.cpu_us_per_req", "us"),
    ("transport.wait_us", "us"),
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("json.decode_us", "us"),
    ("parser.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("eval.run_us", "us"),
    ("eval.op.PROJECT_us", "us"),
    ("eval.max_table_cells", "count"),
    ("service.handle_us", "us"),
    ("service.self_us", "us"),
    ("service.response_bytes", "bytes"),
    ("session.snapshot_us", "us"),
    ("session.insert_us", "us"),
    ("io.from_csv_us", "us"),
];

fn traced(args: &Args, inputs: &Inputs, expected: &Expected) -> Result<Outcome, String> {
    let (target, warm, _) = set_up(args.workload, inputs, expected)?;
    let window = Window::measure(&target, args.workload, expected, args.seconds);
    window.report();
    let requests = window.requests().max(1) as f64;
    let (b, a) = (&window.before, &window.after);
    let reactor = (a.reactor_busy_us - b.reactor_busy_us) as f64 / requests;
    let worker = (a.worker_busy_us - b.worker_busy_us) as f64 / requests;
    let e2e_p50_us = window.figures(&[0.5]).1[0].ok_or("too few reads for the e2e p50")?;

    let (n, passes) = replay_size(args.workload);
    let replays: Vec<replay::Pass> = (0..passes)
        .map(|_| replay::pass(args.workload, inputs, expected, n))
        .collect();
    let layers: Vec<replay::Layers> = replays.iter().map(replay::Pass::layers).collect();
    let layer_median = |name: &str| -> Option<f64> {
        let v: Vec<f64> = layers
            .iter()
            .filter_map(|l| l.metrics.get(name).copied())
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let handle_p50 = median(
        &layers
            .iter()
            .map(|l| {
                let mut v = l.read_handle_us.clone();
                v.sort_by(f64::total_cmp);
                percentile(&v, 0.5)
            })
            .collect::<Vec<_>>(),
    );
    let replayed: usize = replays.iter().map(|p| p.requests()).sum();
    let spans_per_request =
        replays.iter().map(|p| p.spans.len()).sum::<usize>() as f64 / replayed as f64;
    let overhead_us = spans_per_request * replay::span_cost_ns() / 1e3;

    // The layer table: calls per request, µs per call, self µs per call.
    println!("layers (median of {passes} passes):");
    let names: std::collections::BTreeSet<&str> = layers
        .iter()
        .flat_map(|l| l.spans.keys().copied())
        .collect();
    for name in names {
        let col = |k: usize| {
            median(
                &layers
                    .iter()
                    .filter_map(|l| l.spans.get(name))
                    .map(|t| [t.0, t.1, t.2][k])
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "  {name:<18} calls/req {:>7.4}  µs/call {:>9.2}  self µs/call {:>9.2}",
            col(0),
            col(1),
            col(2)
        );
    }
    let derived: std::collections::BTreeSet<&String> =
        layers.iter().flat_map(|l| l.metrics.keys()).collect();
    for name in derived {
        println!("  {name} {}", layer_median(name).unwrap_or(0.0));
    }
    println!(
        "  replay.span_overhead_us {overhead_us} per request \
         ({spans_per_request} spans, recording on vs off)"
    );
    println!("  e2e read p50 {e2e_p50_us:.2}µs, service.handle read p50 {handle_p50:.2}µs");

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
    match replay::write_spans(&path, &replays) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("servebench: could not write spans: {e}"),
    }

    let mut metrics = Vec::new();
    for (name, unit) in LAYER_METRICS {
        let value = match name {
            "reactor.cpu_us_per_req" => reactor,
            "worker.cpu_us_per_req" => worker,
            "transport.wait_us" => e2e_p50_us - handle_p50,
            _ => layer_median(name).ok_or(format!("the replay measured no {name}"))?,
        };
        metrics.push((name, value, unit));
    }
    let mut outcome = tally(&[&warm, &window.run], metrics);
    outcome.attempted += replayed;
    for p in &replays {
        outcome.failed += p.failures.len();
        outcome.errors.extend(p.failures.iter().take(5).cloned());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn result_line_names_match_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return; // the package was copied out of the repository
        };
        for (name, unit) in END_TO_END.iter().chain(&LAYER_METRICS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = Workload::ALL.len() + END_TO_END.len() + LAYER_METRICS.len();
        assert_eq!(spec.matches("\"name\":").count(), names);
    }

    #[test]
    fn flags() {
        let a = args(&[
            "--workload",
            "olap-read",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::OlapRead);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "point-read", "--seed"]).is_err());
        assert!(args(&["--workload", "point-read", "--bogus", "1"]).is_err());
    }
}
