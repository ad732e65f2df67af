//! The load generator: keep-alive HTTP clients driving an in-process
//! `tabular-serve` in a closed loop, and the timed set-up before it.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tabular_server::json::{self, Json};
use tabular_server::{Config, Server, Service};

use crate::check::check;
use crate::workload::{Class, Expected, Inputs, Workload};

/// Client connections (and client threads) in the closed loop.
pub const CONNECTIONS: usize = 2;

/// How often the loop reads the host's CPU ticks.
pub const TICK: Duration = Duration::from_secs(1);

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request (a single write) and read the whole response.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        self.writer.write_all(raw)?;
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        Ok((status, body))
    }
}

/// The wire bytes of each request class, addressed to `session`.
pub fn requests(session: &str, inputs: &Inputs) -> BTreeMap<Class, Vec<u8>> {
    Class::ALL
        .into_iter()
        .map(|class| {
            let raw = match class.program() {
                None => upload(session, &inputs.edges),
                Some(program) => {
                    let readonly = if class.is_read() { "?readonly=1" } else { "" };
                    post(
                        &format!("/sessions/{session}/query{readonly}"),
                        &format!("{{\"program\": \"{}\"}}", json::escape(program)),
                    )
                }
            };
            (class, raw)
        })
        .collect()
}

/// The wire bytes of a CSV table upload to `session`.
pub fn upload(session: &str, csv: &str) -> Vec<u8> {
    post(&format!("/sessions/{session}/tables"), csv)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: servebench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A running server with a seeded session.
pub struct Target {
    pub addr: SocketAddr,
    pub service: Arc<Service>,
    /// The prepared request of each class, addressed to the session.
    pub requests: BTreeMap<Class, Vec<u8>>,
}

/// Start a fresh server, open a session over HTTP and upload the
/// seeded tables. Returns an error if any step fails.
pub fn start(inputs: &Inputs) -> Result<Target, String> {
    let config = Config {
        addr: "127.0.0.1:0".into(),
        ..Config::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let (addr, service) = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = client
        .send(&post("/sessions", ""))
        .map_err(|e| format!("open session: {e}"))?;
    let session = json::parse(&body)
        .ok()
        .and_then(|doc| doc.get("session").and_then(Json::as_str).map(String::from))
        .filter(|_| status == 201)
        .ok_or_else(|| format!("open session: {status} {body}"))?;
    for table in inputs.all() {
        let (status, body) = client
            .send(&upload(&session, table))
            .map_err(|e| format!("upload: {e}"))?;
        if status != 201 {
            return Err(format!("upload: {status} {body}"));
        }
    }
    Ok(Target {
        addr,
        service,
        requests: requests(&session, inputs),
    })
}

/// One completed request.
pub struct Sample {
    pub class: Class,
    /// From the write of the request to the last byte of the response.
    pub micros: f64,
    /// When the response completed.
    pub done: Instant,
    pub ok: bool,
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Requests(usize),
}

/// What the closed loop measured.
pub struct LoopRun {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Host CPU ticks read about every `TICK` during the loop, first at
    /// its start and last at its end.
    pub ticks: Vec<(Instant, Option<(u64, u64)>)>,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

/// Drive `workload` on `CONNECTIONS` connections, each sending its next
/// request only after the previous response arrived. Every response is
/// checked: shapes always, cells on the first of each class per
/// connection.
pub fn closed_loop(
    target: &Target,
    workload: Workload,
    expected: &Expected,
    stop: Stop,
) -> LoopRun {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let finished = AtomicBool::new(false);
    let (per_conn, wall, ticks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let client = Client::connect(target.addr);
                    barrier.wait();
                    drive(client, target, workload, expected, conn, stop)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        // Read the host's CPU ticks once a second while the clients run.
        let finished = &finished;
        let sampler = scope.spawn(move || {
            let mut ticks = vec![(started, crate::stats::cpu_ticks())];
            let mut next = started + TICK;
            while !finished.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now >= next {
                    ticks.push((now, crate::stats::cpu_ticks()));
                    next += TICK;
                } else {
                    std::thread::park_timeout(next - now);
                }
            }
            ticks
        });
        let per_conn: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall = started.elapsed();
        finished.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        let mut ticks = sampler.join().expect("sampler thread panicked");
        ticks.push((started + wall, crate::stats::cpu_ticks()));
        (per_conn, wall, ticks)
    });
    let mut run = LoopRun {
        samples: Vec::new(),
        wall,
        ticks,
        errors: Vec::new(),
    };
    for (samples, errors) in per_conn {
        run.samples.extend(samples);
        run.errors.extend(errors);
    }
    run
}

fn drive(
    client: std::io::Result<Client>,
    target: &Target,
    workload: Workload,
    expected: &Expected,
    conn: usize,
    stop: Stop,
) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => return (samples, vec![format!("connect: {e}")]),
    };
    let started = Instant::now();
    let mut checked = BTreeSet::new();
    for i in 0.. {
        let finished = match stop {
            Stop::After(d) => started.elapsed() >= d,
            Stop::Requests(n) => i >= n,
        };
        if finished {
            break;
        }
        let class = workload.class(conn, i);
        let sent = Instant::now();
        let reply = client.send(&target.requests[&class]);
        let done = Instant::now();
        let micros = (done - sent).as_secs_f64() * 1e6;
        let verdict = match &reply {
            Ok((status, body)) => check(expected, class, *status, body, checked.insert(class)),
            Err(e) => Err(format!("{}: {e}", class.name())),
        };
        if let Err(e) = &verdict {
            if errors.len() < 5 {
                errors.push(e.clone());
            }
        }
        samples.push(Sample {
            class,
            micros,
            done,
            ok: verdict.is_ok(),
        });
        if reply.is_err() {
            break; // the connection is gone
        }
    }
    (samples, errors)
}
