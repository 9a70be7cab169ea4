//! `serve_mixed`: an in-process results server under mixed traffic.
//!
//! `Server::start` with the default queue (16) and worker pool (2) and
//! a fresh state directory, driven from this process over at most two
//! concurrent connections:
//!
//! - connection A is a closed loop of fresh jobs: a small single-network
//!   scenario with a new seed each time. It POSTs `/jobs`, reads
//!   `/jobs/<id>/events` until `done`, then GETs the report, like a
//!   script that submits and waits;
//! - connection B is an open loop at a fixed rate, arrival times drawn
//!   from the seed: resubmits of jobs completed during set-up (cache
//!   hits), `GET /jobs/<id>` status reads and cached report reads, like
//!   independent users polling.
//!
//! Fresh (write) and cached (read) traffic share the server's one
//! accept loop, so a change that helps one and costs the other shows.

use crate::metrics::{Record, Tier};
use crate::stats;
use crate::sys::WorkDir;
use nomc_experiments::sweep::{self, SweepConfig};
use nomc_serve::http::{self, ClientResponse, Method, Parsed};
use nomc_serve::{ServeConfig, Server};
use nomc_sim::Scenario;
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Jobs completed during set-up; the open loop re-requests them.
const PRECOMPLETED: usize = 4;
/// Fresh jobs per `wall_s` sample.
const BATCH: usize = 10;
/// Fresh jobs per second of `--seconds` the closed loop is given.
const FRESH_PER_SECOND: f64 = 12.0;
/// Open-loop arrivals per second.
const OPEN_RATE: f64 = 12.0;
/// Per-job event budget (the server's default).
const BUDGET: u64 = 1_000_000_000;
/// Per-job checkpoint cadence (the server's default).
const CHECKPOINT_EVERY: u64 = 200_000;
/// Client socket timeout: a stalled exchange is an error, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Every how many fresh reports one is re-derived in process.
const VERIFY_EVERY: usize = 10;
/// Requests and responses kept for the parser re-timing.
const KEEP_MESSAGES: usize = 256;

/// The job scenario: one network, paper line deployment, 30 s simulated.
fn job_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(30))
        .warmup(SimDuration::from_secs(1));
    b.build().expect("the job scenario is valid")
}

fn spec_body(scenario_json: &str, seed: u64) -> String {
    format!(
        "{{\"scenario\":{scenario_json},\"seeds\":[{seed}],\"budget\":{BUDGET},\"retries\":1,\"checkpoint_every\":{CHECKPOINT_EVERY}}}"
    )
}

/// The report the server must produce for a one-member job of `seed`:
/// the same sweep run in process, without a journal.
fn expected_report(scenario: &Scenario, seed: u64) -> String {
    let cfg = SweepConfig {
        retries: 1,
        base_budget: BUDGET,
        threads: Some(1),
        ..SweepConfig::default()
    };
    let members = sweep::seed_members(scenario, &[seed]);
    match sweep::run_sweep(&members, &cfg, None, false) {
        Ok(report) => report.to_json_string(),
        Err(e) => format!("in-process sweep failed: {e}"),
    }
}

/// Uniform in `[0, 1)` from the `k`-th draw of `seed`'s stream.
fn uniform(seed: u64, k: u64) -> f64 {
    (crate::derive_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// One exchange's bytes and timing.
struct Exchange {
    request: Vec<u8>,
    raw: Vec<u8>,
    response: ClientResponse,
    end: Instant,
}

/// Connects to the server and sends `request`.
fn send(addr: SocketAddr, request: &[u8]) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    Ok(stream)
}

#[repr(C)]
struct Linger {
    l_onoff: std::ffi::c_int,
    l_linger: std::ffi::c_int,
}

extern "C" {
    fn setsockopt(
        socket: std::ffi::c_int,
        level: std::ffi::c_int,
        name: std::ffi::c_int,
        value: *const std::ffi::c_void,
        len: u32,
    ) -> std::ffi::c_int;
}

/// Closes a connection the server has already closed with a reset
/// (`SO_LINGER` 0) rather than a FIN. The server's socket then ends
/// without a TIME_WAIT entry; without this, each run leaves a thousand
/// of them for a minute, and the kernel time of the next run's
/// connections grows with that backlog (measured: 2.0 s of system time
/// with none pending, 2.8 s with a thousand).
fn reset(stream: TcpStream) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: std::ffi::c_int = 1;
    const SO_LINGER: std::ffi::c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is an open socket owned by `stream`, which
    // outlives the call; the pointer and length describe `linger`, a
    // live `struct linger` with C layout. A failure leaves an ordinary
    // close, which is harmless.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

/// One request on a fresh connection, read to the server's close.
fn exchange(
    addr: SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> Result<Exchange, String> {
    let request = http::render_request(method, target, body);
    let mut stream = send(addr, &request)?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let end = Instant::now();
    reset(stream);
    match http::parse_response(&raw) {
        Ok(Parsed::Complete { value, .. }) => Ok(Exchange {
            request,
            raw,
            response: value,
            end,
        }),
        Ok(Parsed::Partial) => Err(format!("{target}: truncated response")),
        Err(e) => Err(format!("{target}: bad response: {e}")),
    }
}

/// Reads `/jobs/<id>/events` to its end, returning when the `started`
/// and `done` lines arrived.
fn follow_events(addr: SocketAddr, id: &str) -> Result<(Instant, Instant), String> {
    let request = http::render_request(Method::Get, &format!("/jobs/{id}/events"), b"");
    let mut stream = send(addr, &request)?;
    let (mut started, mut done) = (None, None);
    let mut text = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("events: {e}"))?;
        if n == 0 {
            break;
        }
        text.extend_from_slice(&chunk[..n]);
        let now = Instant::now();
        let seen = String::from_utf8_lossy(&text);
        if started.is_none() && seen.contains("\"event\":\"started\"") {
            started = Some(now);
        }
        if done.is_none() && seen.contains("\"event\":\"done\"") {
            done = Some(now);
        }
    }
    reset(stream);
    if !text.starts_with(b"HTTP/1.1 200") {
        return Err(format!(
            "events for {id}: {}",
            String::from_utf8_lossy(&text)
        ));
    }
    match (started, done) {
        (Some(s), Some(d)) => Ok((s, d)),
        _ => Err(format!("job {id} never reached done")),
    }
}

/// The `"job"` id in a submit response.
fn job_id(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"job\":\"").nth(1)?;
    rest.get(..16).map(str::to_string)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running server, drained and joined on drop. Its state directory
/// stays behind (see [`WorkDir::kept`]).
struct Running {
    server: Option<Server>,
    _work: WorkDir,
}

impl Running {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.drain();
            server.join();
        }
    }
}

/// A job completed during set-up.
struct Cached {
    id: String,
    body: String,
    report: Vec<u8>,
    seed: u64,
}

/// Submits `body` and waits for its report, returning the report bytes
/// and the job id.
fn submit_and_wait(addr: SocketAddr, body: &str) -> Result<(String, Vec<u8>), String> {
    let ack = exchange(addr, Method::Post, "/jobs", body.as_bytes())?;
    if ack.response.status != 202 {
        return Err(format!("submit answered {}", ack.response.status));
    }
    let id = job_id(&ack.response.body).ok_or("submit response names no job")?;
    follow_events(addr, &id)?;
    let report = exchange(addr, Method::Get, &format!("/jobs/{id}/report"), b"")?;
    if report.response.status != 200 {
        return Err(format!("report answered {}", report.response.status));
    }
    Ok((id, report.response.body))
}

/// Starts a server on a fresh state directory and completes the
/// cache-hit jobs.
fn prepare(seed: u64, scenario_json: &str) -> Result<(Running, Vec<Cached>), String> {
    let work = WorkDir::kept("serve_mixed").map_err(|e| e.to_string())?;
    let server = Server::start(ServeConfig::new("127.0.0.1:0", work.path().join("state")))
        .map_err(|e| format!("server start: {e}"))?;
    let running = Running {
        server: Some(server),
        _work: work,
    };
    let mut cached = Vec::new();
    for i in 0..PRECOMPLETED {
        let job_seed = crate::input_seed(seed, 1_000_000 + i as u64);
        let body = spec_body(scenario_json, job_seed);
        let (id, report) = submit_and_wait(running.addr(), &body)?;
        cached.push(Cached {
            id,
            body,
            report,
            seed: job_seed,
        });
    }
    Ok((running, cached))
}

/// Closed-loop samples.
#[derive(Default)]
struct Closed {
    latency: Vec<f64>,
    ack: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    report: Vec<f64>,
    batch_wall: Vec<f64>,
    /// Process CPU seconds of each batch, server and open loop included.
    batch_cpu: Vec<f64>,
    wall: f64,
    /// `(seed, report bytes)` of every job that reached `done`.
    reports: Vec<(u64, Vec<u8>)>,
    errors: Vec<String>,
    shed: u64,
    messages: Vec<(Vec<u8>, Vec<u8>)>,
}

fn closed_loop(addr: SocketAddr, scenario_json: &str, seeds: &[u64]) -> Closed {
    let mut out = Closed::default();
    let start = Instant::now();
    let mut batch = Instant::now();
    let mut batch_cpu = crate::sys::cpu_seconds();
    for (k, &seed) in seeds.iter().enumerate() {
        let body = spec_body(scenario_json, seed);
        let t_post = Instant::now();
        let job = (|| {
            let ack = exchange(addr, Method::Post, "/jobs", body.as_bytes())?;
            if ack.response.status == 429 {
                out.shed += 1;
            }
            if ack.response.status != 202 {
                return Err(format!("fresh submit answered {}", ack.response.status));
            }
            let id = job_id(&ack.response.body).ok_or("submit response names no job")?;
            let (started, done) = follow_events(addr, &id)?;
            let report = exchange(addr, Method::Get, &format!("/jobs/{id}/report"), b"")?;
            if report.response.status != 200 {
                return Err(format!("report answered {}", report.response.status));
            }
            Ok((ack, started, done, report))
        })();
        match job {
            Ok((ack, started, done, report)) => {
                out.latency.push(ms(report.end - t_post));
                out.ack.push(ms(ack.end - t_post));
                out.queue_wait
                    .push(ms(started.saturating_duration_since(ack.end)));
                out.run.push(ms(done - started));
                out.report.push(ms(report.end - done));
                if out.messages.len() < KEEP_MESSAGES {
                    out.messages.push((ack.request, ack.raw));
                    out.messages.push((report.request, report.raw));
                }
                out.reports.push((seed, report.response.body));
            }
            Err(e) => out.errors.push(e),
        }
        if (k + 1) % BATCH == 0 {
            out.batch_wall.push(batch.elapsed().as_secs_f64());
            let cpu = crate::sys::cpu_seconds();
            out.batch_cpu.push(cpu - batch_cpu);
            batch = Instant::now();
            batch_cpu = cpu;
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

/// What the open loop sends at one arrival.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    Resubmit,
    Status,
    Report,
}

/// The open-loop schedule: Poisson arrivals at [`OPEN_RATE`] until both
/// `seconds` have passed and 100 resubmits are due, each with its kind
/// and target job.
fn schedule(seed: u64, seconds: f64) -> Vec<(Duration, Ask, usize)> {
    let mut out = Vec::new();
    let (mut at, mut resubmits, mut k) = (0.0f64, 0usize, 0u64);
    while at < seconds || resubmits < stats::P90_MIN_SAMPLES {
        at += -(1.0 - uniform(seed, k)).ln() / OPEN_RATE;
        let pick = uniform(seed, k + 1);
        let ask = match pick {
            p if p < 0.5 => Ask::Resubmit,
            p if p < 0.75 => Ask::Status,
            _ => Ask::Report,
        };
        resubmits += usize::from(ask == Ask::Resubmit);
        let target = (uniform(seed, k + 2) * PRECOMPLETED as f64) as usize;
        out.push((
            Duration::from_secs_f64(at),
            ask,
            target.min(PRECOMPLETED - 1),
        ));
        k += 3;
    }
    out
}

/// Open-loop samples.
#[derive(Default)]
struct Open {
    /// Requests answered correctly.
    ok: u64,
    cached: Vec<f64>,
    status: Vec<f64>,
    late: Vec<f64>,
    errors: Vec<String>,
    shed: u64,
    messages: Vec<(Vec<u8>, Vec<u8>)>,
}

fn open_loop(addr: SocketAddr, plan: &[(Duration, Ask, usize)], cached: &[Cached]) -> Open {
    let mut out = Open::default();
    let start = Instant::now();
    for &(due, ask, target) in plan {
        let due_at = start + due;
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late
            .push(ms(Instant::now().saturating_duration_since(due_at)));
        let job = &cached[target];
        let sent = Instant::now();
        let reply = match ask {
            Ask::Resubmit => exchange(addr, Method::Post, "/jobs", job.body.as_bytes()),
            Ask::Status => exchange(addr, Method::Get, &format!("/jobs/{}", job.id), b""),
            Ask::Report => exchange(addr, Method::Get, &format!("/jobs/{}/report", job.id), b""),
        };
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(e);
                continue;
            }
        };
        let status = reply.response.status;
        let body = String::from_utf8_lossy(&reply.response.body);
        let ok = match ask {
            Ask::Resubmit => {
                status == 200
                    && body.contains("\"cached\":true")
                    && job_id(&reply.response.body).as_deref() == Some(job.id.as_str())
            }
            Ask::Status => status == 200 && body.contains("\"state\":\"done\""),
            Ask::Report => status == 200 && reply.response.body == job.report,
        };
        if status == 429 {
            out.shed += 1;
        }
        if !ok {
            out.errors
                .push(format!("open-loop request answered {status}: {body}"));
            continue;
        }
        out.ok += 1;
        match ask {
            Ask::Resubmit => out.cached.push(ms(reply.end - due_at)),
            Ask::Status => out.status.push(ms(reply.end - sent)),
            Ask::Report => {}
        }
        if out.messages.len() < KEEP_MESSAGES {
            out.messages.push((reply.request, reply.raw));
        }
    }
    out
}

/// Median nanoseconds per parse of `messages`, over repeated passes.
fn parse_ns<T>(messages: &[&[u8]], parse: impl Fn(&[u8]) -> T) -> f64 {
    if messages.is_empty() {
        return 0.0;
    }
    let mut per_message = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        for m in messages {
            std::hint::black_box(parse(std::hint::black_box(m)));
        }
        per_message.push(t0.elapsed().as_secs_f64() * 1e9 / messages.len() as f64);
    }
    stats::median(&per_message)
}

/// Runs the workload and fills `rec` for `tier`.
pub fn run(rec: &mut Record, seed: u64, seconds: f64, tier: Tier) {
    let scenario = job_scenario();
    let scenario_json = nomc_json::to_string(&scenario);
    let (setup, prepared) = crate::Setup::start(|| prepare(seed, &scenario_json));
    let (running, cached) = match prepared {
        Ok(p) => p,
        Err(e) => {
            rec.check(false, || format!("serve set-up failed: {e}"));
            return;
        }
    };
    for c in &cached {
        rec.check(
            c.report == expected_report(&scenario, c.seed).into_bytes(),
            || {
                format!(
                    "cached job {} report differs from the in-process sweep",
                    c.id
                )
            },
        );
    }

    let fresh_jobs = ((FRESH_PER_SECOND * seconds).round() as usize).max(stats::P90_MIN_SAMPLES);
    let mut fresh_seeds = Vec::with_capacity(fresh_jobs);
    let mut k = 0u64;
    while fresh_seeds.len() < fresh_jobs {
        let s = crate::input_seed(seed, k);
        if !fresh_seeds.contains(&s) && cached.iter().all(|c| c.seed != s) {
            fresh_seeds.push(s);
        }
        k += 1;
    }
    let plan = schedule(crate::derive_seed(seed, u64::MAX), seconds);
    let addr = running.addr();
    let (closed, open) = std::thread::scope(|scope| {
        let closed = scope.spawn(|| closed_loop(addr, &scenario_json, &fresh_seeds));
        let open = scope.spawn(|| open_loop(addr, &plan, &cached));
        (
            closed.join().expect("closed loop does not panic"),
            open.join().expect("open loop does not panic"),
        )
    });
    drop(running);
    setup.finish(rec);

    rec.passed(closed.reports.len() as u64 + open.ok);
    for e in closed.errors.iter().chain(&open.errors) {
        rec.check(false, || e.clone());
    }
    // Every report was fetched and parsed; every tenth is also compared
    // with the same sweep run in process.
    for (s, report) in closed.reports.iter().step_by(VERIFY_EVERY) {
        rec.check(
            *report == expected_report(&scenario, *s).into_bytes(),
            || format!("fresh job of seed {s}: report differs from the in-process sweep"),
        );
    }
    rec.check(open.cached.len() >= stats::P90_MIN_SAMPLES, || {
        format!("only {} cache hits answered", open.cached.len())
    });

    rec.set("wall_s", stats::median(&closed.batch_wall));
    rec.set("cpu_s", stats::median(&closed.batch_cpu));
    if tier == Tier::EndToEnd {
        return;
    }
    rec.set("serve_fresh_p50_ms", stats::median(&closed.latency));
    if let Some(p) = stats::p90(&closed.latency) {
        rec.set("serve_fresh_p90_ms", p);
    }
    rec.set(
        "serve_fresh_jobs_per_s",
        closed.reports.len() as f64 / closed.wall,
    );
    rec.set("serve_cached_p50_ms", stats::median(&open.cached));
    if let Some(p) = stats::p90(&open.cached) {
        rec.set("serve_cached_p90_ms", p);
    }
    rec.set("serve.ack_p50_ms", stats::median(&closed.ack));
    rec.set("serve.queue_wait_p50_ms", stats::median(&closed.queue_wait));
    rec.set("serve.run_p50_ms", stats::median(&closed.run));
    rec.set("serve.report_p50_ms", stats::median(&closed.report));
    rec.set("serve.status_p50_ms", stats::median(&open.status));
    if let Some(p) = stats::p90(&open.late) {
        rec.set("loadgen.late_p90_ms", p);
    }
    rec.set("serve.fresh", closed.reports.len() as f64);
    rec.set("serve.cached", open.cached.len() as f64);
    rec.set("serve.shed_429", (closed.shed + open.shed) as f64);
    rec.set(
        "serve.errors",
        (closed.errors.len() + open.errors.len()) as f64,
    );
    let messages: Vec<&(Vec<u8>, Vec<u8>)> = closed.messages.iter().chain(&open.messages).collect();
    let requests: Vec<&[u8]> = messages.iter().map(|(q, _)| q.as_slice()).collect();
    let responses: Vec<&[u8]> = messages.iter().map(|(_, r)| r.as_slice()).collect();
    rec.set(
        "http.parse_request_ns",
        parse_ns(&requests, http::parse_request),
    );
    rec.set(
        "http.parse_response_ns",
        parse_ns(&responses, http::parse_response),
    );
}
