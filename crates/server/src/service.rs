//! Request routing and governed query execution.
//!
//! The governor is the admission-control layer: every query runs under
//! a [`Budget`] assembled from the server defaults
//! (`--default-deadline-ms` / `--default-cell-budget`) with optional
//! per-request overrides (`?deadline_ms=` / `?cell_budget=`), plus a
//! per-request [`CancelToken`] supplied by the epoll reactor, which
//! trips it on `EPOLLRDHUP`/EOF when the client goes away mid-run. A
//! request carrying several programs shares one admission grant: the
//! budget is [`Budget::split`] across the statements, which run
//! concurrently against the same snapshot and share the cancel token.
//!
//! Routes:
//!
//! | method & path                  | effect                              |
//! |--------------------------------|-------------------------------------|
//! | `GET /healthz`                 | liveness                            |
//! | `GET /stats`                   | service counters                    |
//! | `POST /sessions`               | open a session → `{"session":"sN"}` |
//! | `DELETE /sessions/{id}`        | close a session                     |
//! | `POST /sessions/{id}/tables`   | upload one CSV table (core `io`)    |
//! | `POST /sessions/{id}/query`    | run program(s); see below           |
//!
//! Query bodies are `{"program": "…"}` or `{"programs": ["…", …]}`.
//! Each program gets one entry in `results`. A successful entry holds
//! `tables`, `stats` and the optional attachments. `tables` lists the
//! tables the program assigns ([`Program::output_names`]: the literal
//! targets of its assignments, `while` bodies included), each as
//! `{"name","height","width","csv"}` with the CSV in the `core::io`
//! convention. It does not echo the rest of the session database: to
//! read a stored table, assign it (`S <- COPY(Sales)`). A program with
//! a wildcard or set-valued target names its outputs only at run time,
//! so it gets every visible table. Reserved scratch and tag tables are
//! never sent.
//! Every program is planned against the snapshot by the cost-based
//! planner (`algebra::plan`) before it runs, so its fused kernels apply
//! to what clients write, such as a pivot that reassigns one name
//! (`Cross <- GROUP…; Cross <- CLEANUP…(Cross); Cross <- PURGE…(Cross)`).
//! Query params: `plan=1` attaches the planner's [`PlanReport`];
//! `trace=spans` attaches the span trace
//! (`Trace::to_json`); `readonly=1` skips the commit; `deadline_ms=` /
//! `cell_budget=` override the admission defaults. Status mapping:
//! parse errors and malformed bodies are 400, budget trips are 408
//! (with the partial stats the governor carries), other evaluation
//! errors are 422, broken engine invariants are 500.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tabular_algebra::{
    parser, pretty, run_planned, AlgebraError, Budget, CancelToken, EvalLimits, EvalStats,
    PlanReport, Program, Trace, TraceLevel,
};
use tabular_core::{interner, io, Database};

use crate::http::Request;
use crate::json::{self, Json};
use crate::session::{Session, Sessions};

/// Server configuration (CLI flags of `tabular-serve`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address.
    pub addr: String,
    /// Admission default: wall-clock deadline per query request.
    pub default_deadline_ms: Option<u64>,
    /// Admission default: cumulative cell budget per query request.
    pub default_cell_budget: Option<usize>,
    /// Query worker threads behind the reactor (0 = auto: the
    /// available parallelism, floored at 4 so short queries are not
    /// head-of-line blocked behind one long fixpoint on small hosts).
    pub workers: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:7878".into(),
            default_deadline_ms: None,
            default_cell_budget: None,
            workers: 0,
        }
    }
}

/// Service counters (`GET /stats`): monotonic totals plus the
/// reactor's `connections_open` gauge.
#[derive(Default)]
pub struct Counters {
    /// Requests routed (any method).
    pub requests: AtomicU64,
    /// Query programs executed (a multi-program request counts each).
    pub queries: AtomicU64,
    /// Programs stopped by a budget trip (deadline, cells, or cancel).
    pub budget_trips: AtomicU64,
    /// Runs cancelled because the reactor saw the client hang up
    /// (`EPOLLRDHUP`/EOF) while their request was in flight.
    pub disconnect_cancels: AtomicU64,
    /// Connections currently registered with the reactor (gauge).
    pub connections_open: AtomicU64,
    /// Connections accepted since startup.
    pub connections_accepted: AtomicU64,
    /// Requests parsed while an earlier request from the same
    /// connection was still queued or in flight (HTTP/1.1 pipelining).
    pub pipelined_requests: AtomicU64,
    /// Cumulative CPU microseconds worker threads consumed executing
    /// requests (`CLOCK_THREAD_CPUTIME_ID`, so descheduled time on an
    /// oversubscribed host does not count; feeds the scaling bench's
    /// multi-core projection).
    pub worker_busy_us: AtomicU64,
    /// Cumulative CPU microseconds the reactor thread consumed
    /// processing events (accept, parse, dispatch, write).
    pub reactor_busy_us: AtomicU64,
}

/// The shared service state behind the reactor and its worker pool.
pub struct Service {
    /// Configuration the server was started with.
    pub config: Config,
    /// The session registry.
    pub sessions: Sessions,
    /// Monotonic counters.
    pub counters: Counters,
}

/// A routed response: status and JSON body (empty for 204).
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response { status, body }
    }

    fn error(status: u16, msg: &str) -> Response {
        Response {
            status,
            body: format!("{{\"ok\":false,\"error\":\"{}\"}}", json::escape(msg)),
        }
    }
}

type RunOutcome = Result<(Database, EvalStats, Trace, Option<PlanReport>), AlgebraError>;

impl Service {
    /// A service with the given configuration and no sessions.
    pub fn new(config: Config) -> Service {
        Service {
            config,
            sessions: Sessions::default(),
            counters: Counters::default(),
        }
    }

    /// Route one request. `cancel` is the per-request token the
    /// reactor trips when the client hangs up mid-run
    /// (`EPOLLRDHUP`/EOF); queries run their whole budget under it.
    pub fn handle(&self, req: &Request, cancel: Option<&CancelToken>) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::json(200, "{\"ok\":true}".into()),
            ("GET", ["stats"]) => Response::json(200, self.stats_body()),
            ("POST", ["sessions"]) => {
                let id = self.sessions.create();
                Response::json(
                    201,
                    format!(
                        "{{\"ok\":true,\"session\":\"{}\"}}",
                        Sessions::render_id(id)
                    ),
                )
            }
            ("DELETE", ["sessions", id]) => match Sessions::parse_id(id) {
                Some(id) if self.sessions.remove(id) => Response::json(204, String::new()),
                _ => Response::error(404, "no such session"),
            },
            ("POST", ["sessions", id, "tables"]) => match self.session_for(id) {
                Ok(session) => upload_table(&session, req),
                Err(resp) => resp,
            },
            ("POST", ["sessions", id, "query"]) => match self.session_for(id) {
                Ok(session) => self.run_query(&session, req, cancel),
                Err(resp) => resp,
            },
            (_, ["healthz" | "stats"]) | (_, ["sessions", ..]) => {
                Response::error(405, "method not allowed for this path")
            }
            _ => Response::error(404, "no such route"),
        }
    }

    fn session_for(&self, id: &str) -> Result<Arc<Session>, Response> {
        Sessions::parse_id(id)
            .and_then(|id| self.sessions.get(id))
            .ok_or_else(|| Response::error(404, "no such session"))
    }

    fn stats_body(&self) -> String {
        format!(
            "{{\"ok\":true,\"sessions_open\":{},\"requests\":{},\"queries\":{},\
             \"budget_trips\":{},\"disconnect_cancels\":{},\"connections_open\":{},\
             \"connections_accepted\":{},\"pipelined_requests\":{},\
             \"worker_busy_us\":{},\"reactor_busy_us\":{}}}",
            self.sessions.len(),
            self.counters.requests.load(Ordering::Relaxed),
            self.counters.queries.load(Ordering::Relaxed),
            self.counters.budget_trips.load(Ordering::Relaxed),
            self.counters.disconnect_cancels.load(Ordering::Relaxed),
            self.counters.connections_open.load(Ordering::Relaxed),
            self.counters.connections_accepted.load(Ordering::Relaxed),
            self.counters.pipelined_requests.load(Ordering::Relaxed),
            self.counters.worker_busy_us.load(Ordering::Relaxed),
            self.counters.reactor_busy_us.load(Ordering::Relaxed),
        )
    }

    /// Execute a query request: admit, snapshot, run, commit, render.
    fn run_query(
        &self,
        session: &Session,
        req: &Request,
        cancel: Option<&CancelToken>,
    ) -> Response {
        // -- Decode and parse (any failure here is the client's: 400) --
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "request body is not UTF-8");
        };
        let parsed_body = match json::parse(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("request body is not JSON: {e}")),
        };
        let sources: Vec<&str> = if let Some(p) = parsed_body.get("program").and_then(Json::as_str)
        {
            vec![p]
        } else if let Some(list) = parsed_body.get("programs").and_then(Json::as_arr) {
            let mut sources = Vec::with_capacity(list.len());
            for item in list {
                match item.as_str() {
                    Some(s) => sources.push(s),
                    None => return Response::error(400, "\"programs\" must be strings"),
                }
            }
            sources
        } else {
            return Response::error(400, "body must carry \"program\" or \"programs\"");
        };
        if sources.is_empty() {
            return Response::error(400, "\"programs\" is empty");
        }
        let mut programs = Vec::with_capacity(sources.len());
        for src in &sources {
            match parser::parse(src) {
                Ok(p) => programs.push(p),
                Err(e) => return Response::error(400, &e.to_string()),
            }
        }

        let want_plan = req.query_param("plan") == Some("1");
        let want_trace = req.query_param("trace") == Some("spans");
        // Concurrent statements of one request run against one
        // snapshot; committing several last-writer-wins results would
        // silently drop work, so multi-program requests are read-only.
        let readonly =
            matches!(req.query_param("readonly"), Some("1" | "true")) || programs.len() > 1;
        let deadline_ms = match override_param(req, "deadline_ms") {
            Ok(v) => v.or(self.config.default_deadline_ms),
            Err(resp) => return resp,
        };
        let cell_budget = match override_param(req, "cell_budget") {
            Ok(v) => v.map(|n| n as usize).or(self.config.default_cell_budget),
            Err(resp) => return resp,
        };

        // -- Admission: one grant for the whole request --
        let limits = EvalLimits {
            trace: if want_trace {
                TraceLevel::Spans
            } else {
                TraceLevel::default()
            },
            ..EvalLimits::default()
        };
        // The reactor owns disconnect detection: it trips this token
        // on EPOLLRDHUP/EOF, so no per-request watcher thread exists.
        let token = cancel.cloned().unwrap_or_else(CancelToken::new);
        let mut budget = Budget::from_limits(&limits).with_cancel(token);
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(cells) = cell_budget {
            budget = budget.with_cell_budget(cells);
        }

        // -- Snapshot under a short lock: reads never block writers --
        let snapshot = session.snapshot();

        self.counters
            .queries
            .fetch_add(programs.len() as u64, Ordering::Relaxed);
        let outcomes: Vec<RunOutcome> = if programs.len() == 1 {
            vec![run_one(&programs[0], &snapshot, &budget, want_plan)]
        } else {
            let share = budget.split(programs.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = programs
                    .iter()
                    .map(|program| {
                        let share = share.clone();
                        let snapshot = &snapshot;
                        scope.spawn(move || run_one(program, snapshot, &share, want_plan))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(AlgebraError::Internal {
                                what: "a query worker panicked",
                            })
                        })
                    })
                    .collect()
            })
        };
        // -- Commit: a single mutating program replaces the session db --
        if !readonly {
            if let Some(Ok((out, ..))) = outcomes.first() {
                session.commit(out.clone());
            }
        }

        self.render_outcomes(&programs, &outcomes, want_trace)
    }

    /// Render one result per program into the response body, written
    /// front to back into one buffer. A successful result carries the
    /// tables its program assigns ([`Program::output_names`]), or every
    /// visible table when a wildcard or set-valued target leaves the
    /// names to run time; reserved scratch and tag tables never leave
    /// the server.
    fn render_outcomes(
        &self,
        programs: &[Program],
        outcomes: &[RunOutcome],
        want_trace: bool,
    ) -> Response {
        let status = if outcomes
            .iter()
            .any(|o| matches!(o, Err(AlgebraError::Internal { .. })))
        {
            500
        } else if outcomes
            .iter()
            .any(|o| matches!(o, Err(AlgebraError::BudgetExceeded { .. })))
        {
            408
        } else if outcomes.iter().any(Result::is_err) {
            422
        } else {
            200
        };
        let mut body = format!("{{\"ok\":{},\"results\":[", status == 200);
        for (i, (program, outcome)) in programs.iter().zip(outcomes).enumerate() {
            if i > 0 {
                body.push(',');
            }
            match outcome {
                Ok((db, stats, trace, plan)) => {
                    body.push_str("{\"ok\":true,\"tables\":[");
                    let outputs = program.output_names();
                    let mut first = true;
                    for t in db.tables() {
                        let Some(name) = t.name().text().filter(|n| !interner::is_reserved(n))
                        else {
                            continue; // scratch and tag tables stay server-side
                        };
                        if outputs.as_ref().is_some_and(|o| !o.contains(&t.name())) {
                            continue;
                        }
                        if !first {
                            body.push(',');
                        }
                        first = false;
                        body.push_str("{\"name\":\"");
                        json::escape_into(&mut body, name);
                        write!(
                            body,
                            "\",\"height\":{},\"width\":{},\"csv\":\"",
                            t.height(),
                            t.width()
                        )
                        .expect("writing to a String cannot fail");
                        io::write_csv(t, &mut json::Escaped(&mut body))
                            .expect("writing to a String cannot fail");
                        body.push_str("\"}");
                    }
                    body.push_str("],\"stats\":");
                    body.push_str(&stats_json(stats));
                    if let Some(report) = plan {
                        body.push_str(",\"plan\":");
                        body.push_str(&plan_json(report));
                    }
                    if want_trace {
                        body.push_str(",\"trace\":");
                        body.push_str(&trace.to_json());
                    }
                    body.push('}');
                }
                Err(
                    e @ AlgebraError::BudgetExceeded {
                        resource,
                        spent,
                        limit,
                        partial,
                    },
                ) => {
                    self.counters.budget_trips.fetch_add(1, Ordering::Relaxed);
                    write!(
                        body,
                        "{{\"ok\":false,\"error\":\"{}\",\"resource\":\"{}\",\
                         \"spent\":{spent},\"limit\":{limit},\"stats\":{}",
                        json::escape(&e.to_string()),
                        json::escape(resource),
                        stats_json(&partial.stats),
                    )
                    .expect("writing to a String cannot fail");
                    if want_trace {
                        body.push_str(",\"trace\":");
                        body.push_str(&partial.trace.to_json());
                    }
                    body.push('}');
                }
                Err(e) => {
                    write!(
                        body,
                        "{{\"ok\":false,\"error\":\"{}\"}}",
                        json::escape(&e.to_string())
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
        body.push_str("]}");
        Response::json(status, body)
    }
}

/// Plan one program against the snapshot and run it under its budget
/// share; the planner's report is kept only when the client asked for it.
fn run_one(program: &Program, db: &Database, budget: &Budget, want_plan: bool) -> RunOutcome {
    run_planned(program, db, budget)
        .map(|(out, stats, trace, report)| (out, stats, trace, want_plan.then_some(report)))
}

/// `POST /sessions/{id}/tables`: the body is one CSV table in the
/// `tabular_core::io` convention.
fn upload_table(session: &Session, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    let table = match io::from_csv(body) {
        Ok(t) => t,
        Err(e) => return Response::error(400, &format!("bad CSV table: {e}")),
    };
    let name = table.name();
    let (height, width) = (table.height(), table.width());
    session.with_db(|db| db.insert(table));
    Response::json(
        201,
        format!(
            "{{\"ok\":true,\"table\":\"{}\",\"height\":{height},\"width\":{width}}}",
            json::escape(&name.to_string()),
        ),
    )
}

/// Parse a numeric admission override from the query string.
fn override_param(req: &Request, name: &str) -> Result<Option<u64>, Response> {
    match req.query_param(name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| Response::error(400, &format!("bad {name} value {v:?}"))),
    }
}

/// Render [`EvalStats`] as a flat JSON object (the scalar counters plus
/// the per-op execution counts).
pub fn stats_json(s: &EvalStats) -> String {
    let mut out = String::from("{\"op_counts\":{");
    for (i, (op, n)) in s.op_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{}\":{n}", json::escape(op)).unwrap();
    }
    write!(
        out,
        "}},\"total_micros\":{},\"while_iterations\":{},\"tables_produced\":{},\
         \"max_table_cells\":{},\"shard_jobs\":{},\"partitioned_joins\":{},\
         \"partition_shards\":{},\"while_delta_skipped\":{},\"while_fallback_naive\":{},\
         \"join_fused\":{},\"join_unfused\":{},\"restructure_fused\":{},\
         \"restructure_unfused\":{},\"snapshots\":{},\"cow_copies\":{},\
         \"plans_rewritten\":{},\"plan_rules_applied\":{},\"plan_micros\":{}}}",
        s.total_micros,
        s.while_iterations,
        s.tables_produced,
        s.max_table_cells,
        s.shard_jobs,
        s.partitioned_joins,
        s.partition_shards,
        s.while_delta_skipped,
        s.while_fallback_naive,
        s.join_fused,
        s.join_unfused,
        s.restructure_fused,
        s.restructure_unfused,
        s.snapshots,
        s.cow_copies,
        s.plans_rewritten,
        s.plan_rules_applied,
        s.plan_micros,
    )
    .unwrap();
    out
}

/// Render a [`PlanReport`] as JSON, mirroring `pretty::render_plan`
/// decision-for-decision (the `pretty` line rendering is also attached
/// for human consumers).
pub fn plan_json(report: &PlanReport) -> String {
    let mut out = format!(
        "{{\"statements_rewritten\":{},\"rules_applied\":{},\"pretty\":\"{}\",\"decisions\":[",
        report.statements_rewritten,
        report.rules_applied(),
        json::escape(pretty::render_plan(report).trim_end()),
    );
    for (i, d) in report.decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"rule\":\"{}\",\"site\":\"{}\",\"detail\":\"{}\",\
             \"before_cells\":{},\"after_cells\":{}}}",
            json::escape(d.rule.name()),
            json::escape(&d.site),
            json::escape(&d.detail),
            opt_num(d.before_cells),
            opt_num(d.after_cells),
        )
        .unwrap();
    }
    out.push_str("]}");
    out
}

fn opt_num(v: Option<u128>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}
