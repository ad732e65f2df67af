//! The traced run: the workload's requests replayed in-process through
//! each layer's public functions, with spans recorded by this benchmark
//! around every call (the service itself is not instrumented).
//!
//! Each request is parsed (`http::parse_request`), routed for real
//! (`Service::handle`) and encoded (`http::encode_response`). Then the
//! work `handle` did internally is repeated layer by layer on the same
//! input — `json::parse`, `parser::parse`, `Session::snapshot`,
//! `algebra::plan`, `run_governed_traced`, `Session::commit`, or for an
//! upload `io::from_csv` and `Session::with_db(insert)` — so each layer
//! is timed on its own and `handle` minus its parts is the routing,
//! admission and rendering the service adds.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use tabular_algebra::{parser, plan, run_governed_traced, Budget, EvalLimits};
use tabular_core::io;
use tabular_server::http::{self, Parsed};
use tabular_server::json::{self, Json};
use tabular_server::session::{Session, Sessions};
use tabular_server::{Config, Service};

use crate::check::check;
use crate::client::{requests, upload};
use crate::workload::{Class, Expected, Inputs, Workload};

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Records spans in memory; with `on == false` it records nothing (the
/// baseline `span_cost_ns` compares against).
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.open.pop();
        }
    }

    /// Close the spans a failed request left open.
    fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(Some(id));
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// What recording one span costs, in ns: a loop of empty spans with
/// recording on, less the same loop with it off.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut ns = [0.0; 2];
    for (on, slot) in [(false, 0), (true, 1)] {
        let mut tr = Tracer::new(on);
        let started = Instant::now();
        for _ in 0..N {
            tr.time("calibrate", || std::hint::black_box(()));
        }
        ns[slot] = started.elapsed().as_nanos() as f64 / N as f64;
        std::hint::black_box(tr.spans.len());
    }
    ns[1] - ns[0]
}

/// What one evaluation reported through `EvalStats`.
#[derive(Default)]
struct EvalFacts {
    evals: usize,
    op_micros: BTreeMap<&'static str, u128>,
    op_counts: BTreeMap<&'static str, usize>,
    join_fused: usize,
    restructure_fused: usize,
    max_table_cells: usize,
    cow_copies: u64,
    rules_applied: usize,
}

/// One replay pass over a fresh service.
pub struct Pass {
    pub spans: Vec<Span>,
    pub failures: Vec<String>,
    /// Per request: the class it replayed (`None` for seeding uploads)
    /// and its response size.
    pub kinds: Vec<(Option<Class>, usize)>,
    facts: EvalFacts,
}

/// Replay the seeding uploads and then `n` workload requests, taken
/// alternately from the two connections' sequences.
pub fn pass(workload: Workload, inputs: &Inputs, expected: &Expected, n: usize) -> Pass {
    let service = Service::new(Config::default());
    let id = service.sessions.create();
    let session_name = Sessions::render_id(id);
    let session = service.sessions.get(id).expect("session just created");
    let seeds: Vec<Vec<u8>> = inputs
        .all()
        .iter()
        .map(|csv| upload(&session_name, csv))
        .collect();
    let raw = requests(&session_name, inputs);
    let steps: Vec<(Option<Class>, &[u8])> = seeds
        .iter()
        .map(|r| (None, r.as_slice()))
        .chain((0..n).map(|k| {
            let class = workload.class(k % 2, k / 2);
            (Some(class), raw[&class].as_slice())
        }))
        .collect();

    let mut tracer = Tracer::new(true);
    let mut facts = EvalFacts::default();
    let mut failures = Vec::new();
    let mut kinds = Vec::new();
    let mut checked = std::collections::BTreeSet::new();
    for (k, (class, bytes)) in steps.into_iter().enumerate() {
        tracer.request = k;
        let outcome = replay_one(&mut tracer, &service, &session, bytes, &mut facts);
        tracer.close_open();
        let verdict = match outcome {
            Ok((status, body)) => {
                kinds.push((class, body.len()));
                match class {
                    Some(c) => check(expected, c, status, &body, checked.insert(c)),
                    None if status == 201 => Ok(()),
                    None => Err(format!("seed upload: {status} {body}")),
                }
            }
            Err(e) => {
                kinds.push((class, 0));
                Err(e)
            }
        };
        if let Err(e) = verdict {
            failures.push(e);
        }
    }
    Pass {
        spans: tracer.spans,
        failures,
        kinds,
        facts,
    }
}

fn replay_one(
    tr: &mut Tracer,
    service: &Service,
    session: &Session,
    bytes: &[u8],
    facts: &mut EvalFacts,
) -> Result<(u16, String), String> {
    let root = tr.enter("request");
    let Parsed::Request(req, _) = tr.time("http.parse", || http::parse_request(bytes)) else {
        return Err("replayed request does not parse".into());
    };
    let resp = tr.time("service.handle", || service.handle(&req, None));
    let wire = tr.time("http.encode", || {
        http::encode_response(resp.status, resp.body.as_bytes(), req.keep_alive())
    });
    std::hint::black_box(wire);

    let parts = tr.enter("service.parts");
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
    if req.path.ends_with("/tables") {
        let table = tr
            .time("io.from_csv", || io::from_csv(body))
            .map_err(|e| format!("from_csv: {e}"))?;
        tr.time("session.insert", || session.with_db(|db| db.insert(table)));
    } else {
        let doc = tr
            .time("json.decode", || json::parse(body))
            .map_err(|e| format!("json: {e}"))?;
        let src = doc
            .get("program")
            .and_then(Json::as_str)
            .ok_or("no program")?;
        let program = tr
            .time("parser.parse", || parser::parse(src))
            .map_err(|e| format!("parse: {e}"))?;
        let snapshot = tr.time("session.snapshot", || session.snapshot());
        let (_, report) = tr.time("plan.plan", || plan(&program, &snapshot));
        let budget = Budget::from_limits(&EvalLimits::default());
        let (out, stats, _) = tr
            .time("eval.run", || {
                run_governed_traced(&program, &snapshot, &budget)
            })
            .map_err(|e| format!("eval: {e}"))?;
        facts.evals += 1;
        facts.rules_applied += report.rules_applied();
        for (op, us) in &stats.op_micros {
            *facts.op_micros.entry(op).or_default() += us;
        }
        for (op, n) in &stats.op_counts {
            *facts.op_counts.entry(op).or_default() += n;
        }
        facts.join_fused += stats.join_fused;
        facts.restructure_fused += stats.restructure_fused;
        facts.max_table_cells += stats.max_table_cells;
        facts.cow_copies += stats.cow_copies;
        if req.query_param("readonly").is_none() {
            tr.time("session.commit", || session.commit(out));
        }
    }
    tr.exit(parts);
    tr.exit(root);
    Ok((resp.status, resp.body))
}

/// The layer calls `Service::handle` is made of (planning is not one:
/// the service evaluates unplanned unless asked).
const HANDLE_PARTS: [&str; 7] = [
    "json.decode",
    "parser.parse",
    "session.snapshot",
    "eval.run",
    "session.commit",
    "io.from_csv",
    "session.insert",
];

/// Per-layer figures of one pass: for every span name, calls
/// per request and microseconds per call (inclusive and self), plus
/// the derived figures and the `EvalStats` counts.
pub struct Layers {
    /// name → (calls per request, µs per call, self µs per call)
    pub spans: BTreeMap<&'static str, (f64, f64, f64)>,
    /// Derived per-layer metrics, by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// `service.handle` durations of the read requests, in µs.
    pub read_handle_us: Vec<f64>,
}

impl Pass {
    /// Requests replayed, seeding uploads included.
    pub fn requests(&self) -> usize {
        self.kinds.len()
    }

    pub fn layers(&self) -> Layers {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        // name → (calls, total ns, self ns)
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        // ns in handle, and in the layer calls handle is made of
        let (mut handle, mut parts) = (0u64, 0u64);
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d - child.min(&d);
            if s.name == "service.handle" {
                handle += d;
            } else if HANDLE_PARTS.contains(&s.name) {
                parts += d;
            }
        }
        let requests = self.requests() as f64;
        let spans: BTreeMap<&'static str, (f64, f64, f64)> = by_name
            .iter()
            .map(|(&name, &(calls, total, own))| {
                let c = calls as f64;
                (
                    name,
                    (c / requests, total as f64 / c / 1e3, own as f64 / c / 1e3),
                )
            })
            .collect();

        let mut metrics = BTreeMap::new();
        for name in [
            "http.parse",
            "http.encode",
            "json.decode",
            "parser.parse",
            "plan.plan",
            "eval.run",
            "service.handle",
            "session.snapshot",
            "session.insert",
            "session.commit",
            "io.from_csv",
        ] {
            if let Some((_, per_call, _)) = spans.get(name) {
                metrics.insert(format!("{name}_us"), *per_call);
            }
        }
        metrics.insert(
            "service.self_us".into(),
            (handle as f64 - parts as f64) / requests / 1e3,
        );
        let bytes: usize = self.kinds.iter().map(|(_, b)| b).sum();
        metrics.insert("service.response_bytes".into(), bytes as f64 / requests);
        let f = &self.facts;
        if f.evals > 0 {
            let evals = f.evals as f64;
            for (op, us) in &f.op_micros {
                metrics.insert(format!("eval.op.{op}_us"), *us as f64 / evals);
            }
            for (op, n) in &f.op_counts {
                metrics.insert(format!("eval.op.{op}_calls"), *n as f64 / evals);
            }
            metrics.insert("eval.join_fused".into(), f.join_fused as f64 / evals);
            metrics.insert(
                "eval.restructure_fused".into(),
                f.restructure_fused as f64 / evals,
            );
            metrics.insert(
                "eval.max_table_cells".into(),
                f.max_table_cells as f64 / evals,
            );
            metrics.insert("eval.cow_copies".into(), f.cow_copies as f64 / evals);
            metrics.insert("plan.rules_applied".into(), f.rules_applied as f64 / evals);
        }
        let read_handle_us = self
            .spans
            .iter()
            .filter(|s| {
                s.name == "service.handle"
                    && self
                        .kinds
                        .get(s.request)
                        .and_then(|k| k.0)
                        .is_some_and(Class::is_read)
            })
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        Layers {
            spans,
            metrics,
            read_handle_us,
        }
    }

    /// Append this pass's spans as JSON lines.
    pub fn write_spans(&self, pass: usize, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":{pass},\"request\":{},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Write every pass's spans to `path` as JSON lines.
pub fn write_spans(path: &Path, passes: &[Pass]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, p) in passes.iter().enumerate() {
        p.write_spans(i, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::reference;

    #[test]
    fn replay_times_every_layer_and_checks_outputs() {
        let inputs = Inputs::generate(5);
        let expected = reference(&inputs).unwrap();
        let p = pass(Workload::WriteMix, &inputs, &expected, 8);
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        assert_eq!(p.requests(), 4 + 8);
        let layers = p.layers();
        for name in ["http.parse", "service.handle", "eval.run", "session.commit"] {
            assert!(layers.spans.contains_key(name), "{name}");
        }
        // Each request has one root and every other span has a parent
        // inside the same request.
        let roots = p.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, p.requests());
        for s in &p.spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(parent) = s.parent {
                assert_eq!(p.spans[parent].request, s.request);
            }
        }
        let (calls, _, _) = layers.spans["session.commit"];
        assert_eq!(calls, 2.0 / 12.0);
        assert!(layers.metrics["eval.op.PRODUCT_calls"] > 0.0);
    }

    #[test]
    fn recording_a_span_costs_time() {
        assert!(span_cost_ns() > 0.0);
    }
}
