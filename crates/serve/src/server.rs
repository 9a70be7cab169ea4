//! The results server: accept loop, request routing, worker pool, and
//! crash recovery.
//!
//! Every durable fact lives on disk under the state directory
//! (`jobs/<id>/{spec.json,journal.jsonl,report.json,snapshots/}`), all
//! of it written with the sweep subsystem's atomic replace — so a
//! SIGKILL at any instant leaves only complete files. Boot replays the
//! directory into the in-memory [`Registry`]: jobs with a report are
//! served from cache byte-identically, jobs without one re-enter the
//! queue and resume from their journal (and mid-member checkpoints).
//!
//! Simulation stays deterministic end to end: the worker drives
//! [`sweep::run_one_member`] in journal slot order, observers are
//! write-only, and the only wall-clock reads in the crate are at the
//! socket edge ([`crate::deadline`]).

use std::fmt;
use std::fs;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use nomc_experiments::sweep::{
    self, journal, AttemptOutcome, MemberReport, SweepError, SweepReport,
};
use nomc_json::{Json, ToJson};
use nomc_sim::events::Event;
use nomc_sim::{SimObserver, SimResult};
use nomc_units::SimTime;

use crate::deadline::DeadlineStream;
use crate::http::{self, Method, Parsed, Request, Response};
use crate::jobs::{self, JobEvent, JobSpec};
use crate::registry::{Admission, Registry};

/// Emit a progress event line every this many simulation events.
const PROGRESS_EVERY: u64 = 100_000;
/// Concurrent connection cap; excess connections get a best-effort 503.
const MAX_CONNS: usize = 64;
/// Pause after a failed `accept` (e.g. EMFILE), so a persistent error
/// cannot spin the accept thread. Successful accepts never wait.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// How long a drain waits for in-flight connections to finish.
const DRAIN_GRACE: Duration = Duration::from_secs(15);

/// SIGTERM/SIGINT → a drain request, kept `std`-only.
///
/// A self-pipe carries the request out of the signal handler: the
/// handler writes one byte to a Unix socket pair, and
/// [`wait_for_drain`](signals::wait_for_drain) blocks reading the
/// other end. The server itself never looks at signals; its owner turns
/// the wake-up into [`Server::drain`].
pub mod signals {
    pub use imp::{install_drain_handler, wait_for_drain};

    #[cfg(unix)]
    mod imp {
        use std::io::{self, Read};
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::{AtomicI32, Ordering};
        use std::sync::OnceLock;

        /// The pipe's write end as a raw fd for the handler; -1 until
        /// installed. Stored (Release) after `PIPE` is set, loaded
        /// (Acquire) by the handler.
        static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
        /// `(read end, write end)`, alive for the rest of the process.
        static PIPE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();

        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }

        /// Async-signal-safe: one atomic load and one `write(2)`. The
        /// write end is non-blocking, so unread wake bytes cannot stall
        /// the handler, and `write(2)` touches `errno` only when it
        /// fails, which needs a full backlog of them.
        extern "C" fn on_signal(_signum: i32) {
            let fd = WAKE_FD.load(Ordering::Acquire);
            if fd >= 0 {
                let byte = 1u8;
                // SAFETY: `fd` is the write end of `PIPE`, which is
                // never dropped once set, and `byte` is a live one-byte
                // buffer.
                unsafe {
                    write(fd, &byte, 1);
                }
            }
        }

        /// Installs SIGTERM/SIGINT handlers that request a drain (see
        /// the module doc). Idempotent.
        ///
        /// # Errors
        ///
        /// An [`io::Error`] when the wake pipe cannot be created.
        pub fn install_drain_handler() -> io::Result<()> {
            if PIPE.get().is_none() {
                let (reader, writer) = UnixStream::pair()?;
                writer.set_nonblocking(true)?;
                // A racing installer may win; its pair is as good.
                let _ = PIPE.set((reader, writer));
            }
            let (_, writer) = PIPE.get().expect("the pipe was set above");
            WAKE_FD.store(writer.as_raw_fd(), Ordering::Release);
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            // SAFETY: `on_signal` performs only async-signal-safe
            // operations, and the fd it writes is published above,
            // before either handler is installed.
            unsafe {
                signal(SIGTERM, on_signal);
                signal(SIGINT, on_signal);
            }
            Ok(())
        }

        /// Blocks until SIGTERM or SIGINT arrives after
        /// [`install_drain_handler`], returning at once if one already
        /// has. Without an installed handler it blocks forever.
        pub fn wait_for_drain() {
            let Some((reader, _)) = PIPE.get() else {
                loop {
                    std::thread::park();
                }
            };
            let mut byte = [0u8; 1];
            loop {
                match (&*reader).read(&mut byte) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // A wake byte, or a pipe that can no longer carry
                    // one: drain either way, rather than leave SIGTERM
                    // without effect.
                    _ => return,
                }
            }
        }
    }

    #[cfg(not(unix))]
    mod imp {
        /// No signals to hook on non-Unix targets; `drain()` still
        /// works.
        ///
        /// # Errors
        ///
        /// Never.
        pub fn install_drain_handler() -> std::io::Result<()> {
            Ok(())
        }

        /// Blocks forever: non-Unix targets have no drain signal.
        pub fn wait_for_drain() {
            loop {
                std::thread::park();
            }
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; the chosen
    /// address is published to `<state_dir>/serve.addr`).
    pub addr: String,
    /// Durable state root. Reusing a previous run's directory resumes
    /// its jobs.
    pub state_dir: PathBuf,
    /// Queued-job cap; submissions beyond it are shed with 429.
    pub max_queue: usize,
    /// Worker threads sweeping jobs.
    pub workers: usize,
    /// Per-connection I/O deadline (the only wall-clock budget in the
    /// system).
    pub io_budget: Duration,
}

impl ServeConfig {
    /// A config with the documented defaults (queue 16, 2 workers,
    /// 10 s I/O budget).
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            max_queue: 16,
            workers: 2,
            io_budget: Duration::from_secs(10),
        }
    }
}

/// Why the server could not start or persist.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure outside the sweep subsystem.
    Io {
        /// What the server was doing.
        context: String,
        /// The OS error text.
        message: String,
    },
    /// A journal/report persistence failure (typed by the sweep
    /// subsystem).
    State(SweepError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, message } => write!(f, "{context}: {message}"),
            ServeError::State(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SweepError> for ServeError {
    fn from(e: SweepError) -> ServeError {
        ServeError::State(e)
    }
}

/// Everything a connection or worker thread needs.
struct Ctx {
    registry: Registry,
    state_dir: PathBuf,
    io_budget: Duration,
}

/// A running server; drop-in handle for tests, the CLI, and benches.
pub struct Server {
    addr: SocketAddr,
    drain: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots a server: recovers jobs from `state_dir`, binds, publishes
    /// the bound address to `<state_dir>/serve.addr`, and spawns the
    /// accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the state directory or socket cannot be set
    /// up.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let io_err = |context: &str, e: &std::io::Error| ServeError::Io {
            context: context.to_string(),
            message: e.to_string(),
        };
        fs::create_dir_all(cfg.state_dir.join("jobs"))
            .map_err(|e| io_err("creating state directory", &e))?;

        let registry = Registry::new(cfg.max_queue);
        recover(&cfg.state_dir, &registry);

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| io_err("binding listen socket", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("reading bound address", &e))?;
        // Publish the bound address so `--addr 127.0.0.1:0` runs are
        // discoverable (atomic replace: readers never see a torn file).
        journal::write_atomic(&cfg.state_dir.join("serve.addr"), &format!("{addr}\n"))?;

        let ctx = Arc::new(Ctx {
            registry,
            state_dir: cfg.state_dir.clone(),
            io_budget: cfg.io_budget,
        });
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || worker_loop(&ctx))
            })
            .collect();
        let drain = Arc::new(AtomicBool::new(false));
        let accept = {
            let ctx = Arc::clone(&ctx);
            let drain = Arc::clone(&drain);
            thread::spawn(move || accept_loop(listener, &ctx, &drain))
        };
        Ok(Server {
            addr,
            drain,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish or requeue
    /// in-flight work, end event streams. Idempotent.
    pub fn drain(&self) {
        // Release pairs with the accept loop's Acquire load: the flag
        // is visible once the wake-up connection below is accepted.
        self.drain.store(true, Ordering::Release);
        // Wake the blocked `accept`. Best effort: if the connect fails,
        // the loop has already stopped listening.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// Waits for the accept loop and every worker to exit (they do
    /// once [`Server::drain`] is called).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Replays the state directory into a fresh registry: reports are
/// cache entries, spec-only jobs re-enter the queue (in id order, so
/// recovery is deterministic). Unreadable entries are warned about and
/// skipped — recovery never takes the server down.
fn recover(state_dir: &Path, registry: &Registry) {
    let jobs_dir = state_dir.join("jobs");
    let entries = match fs::read_dir(&jobs_dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(jobs::parse_id))
        .collect();
    ids.sort_unstable();
    for id in ids {
        let paths = jobs::paths(state_dir, id);
        if paths.report.exists() {
            registry.restore_done(id);
            continue;
        }
        let parsed = fs::read_to_string(&paths.spec)
            .map_err(|e| e.to_string())
            .and_then(|text| nomc_json::from_str::<JobSpec>(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(spec) => registry.restore_pending(id, spec),
            Err(e) => {
                eprintln!(
                    "nomc-serve: skipping unrecoverable job {}: {e}",
                    jobs::id_hex(id)
                );
            }
        }
    }
}

/// Blocks in `accept` until [`Server::drain`] sets the drain flag and
/// wakes it with a connection of its own, then runs the drain protocol:
/// stop listening, drain the registry (workers exit, event streams
/// end), and give in-flight connections a bounded window to finish.
fn accept_loop(listener: TcpListener, ctx: &Arc<Ctx>, drain: &AtomicBool) {
    // In-flight connection count; connection threads notify as they end.
    let active = Arc::new((Mutex::new(0usize), Condvar::new()));
    loop {
        let accepted = listener.accept();
        // Checked after every accept, so the wake-up connection (and
        // any client racing it) is dropped unanswered.
        if drain.load(Ordering::Acquire) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        {
            let mut count = active
                .0
                .lock()
                .expect("connection count lock is never poisoned");
            if *count >= MAX_CONNS {
                drop(count);
                // Best-effort shed; if the peer is gone, so be it.
                let _ = overloaded(stream, ctx.io_budget);
                continue;
            }
            *count += 1;
        }
        let ctx = Arc::clone(ctx);
        let active = Arc::clone(&active);
        thread::spawn(move || {
            handle_conn(&ctx, stream);
            let (count, idle) = &*active;
            *count
                .lock()
                .expect("connection count lock is never poisoned") -= 1;
            idle.notify_all();
        });
    }
    drop(listener);
    ctx.registry.drain();
    let (count, idle) = &*active;
    let count = count
        .lock()
        .expect("connection count lock is never poisoned");
    let _ = idle
        .wait_timeout_while(count, DRAIN_GRACE, |n| *n > 0)
        .expect("connection count lock is never poisoned");
}

/// Sheds a connection accepted over the cap with a best-effort 503.
fn overloaded(stream: TcpStream, budget: Duration) -> std::io::Result<()> {
    let body = Json::object([("error", Json::Str("connection limit reached".into()))]);
    DeadlineStream::new(stream, budget)?.write_all(&Response::json(503, &body).render())
}

/// Serves one connection: read a request under the deadline, route it,
/// write the response. Exactly one exchange per connection
/// (`Connection: close`), so resource lifetimes are trivially bounded.
fn handle_conn(ctx: &Ctx, stream: TcpStream) {
    let Ok(mut conn) = DeadlineStream::new(stream, ctx.io_budget) else {
        return;
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match http::parse_request(&buf) {
            Ok(Parsed::Complete { value, .. }) => {
                respond(ctx, &value, &mut conn);
                return;
            }
            Ok(Parsed::Partial) => match conn.read_some(&mut chunk) {
                // EOF before a complete request: nothing to answer.
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    let body = Json::object([("error", Json::Str(e.to_string()))]);
                    let _ = conn.write_all(&Response::json(408, &body).render());
                    return;
                }
                Err(_) => return,
            },
            Err(e) => {
                let _ = conn.write_all(&Response::for_parse_error(&e).render());
                return;
            }
        }
    }
}

/// Routes a parsed request. The event stream writes the connection
/// directly; everything else renders a single [`Response`].
fn respond(ctx: &Ctx, req: &Request, conn: &mut DeadlineStream) {
    if let Some(rest) = req.target.strip_prefix("/jobs/") {
        if let Some(id_text) = rest.strip_suffix("/events") {
            if matches!(req.method, Method::Get) {
                stream_events(ctx, id_text, conn);
                return;
            }
        }
    }
    let response = route(ctx, req);
    let _ = conn.write_all(&response.render());
}

/// The non-streaming routes.
fn route(ctx: &Ctx, req: &Request) -> Response {
    match (&req.method, req.target.as_str()) {
        (Method::Post, "/jobs") => submit(ctx, &req.body),
        (Method::Get, "/jobs") => method_not_allowed("POST"),
        (Method::Get, "/healthz") => healthz(ctx),
        (method, target) => {
            if let Some(rest) = target.strip_prefix("/jobs/") {
                if !matches!(method, Method::Get) {
                    return method_not_allowed("GET");
                }
                if let Some(id_text) = rest.strip_suffix("/report") {
                    return job_report(ctx, id_text);
                }
                return job_status(ctx, rest);
            }
            not_found()
        }
    }
}

fn not_found() -> Response {
    Response::json(
        404,
        &Json::object([("error", Json::Str("no such resource".into()))]),
    )
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::json(
        405,
        &Json::object([("error", Json::Str("method not allowed".into()))]),
    )
    .with_header("Allow", allow.to_string())
}

/// `GET /healthz`: liveness plus queue statistics.
fn healthz(ctx: &Ctx) -> Response {
    let stats = ctx.registry.stats();
    Response::json(
        200,
        &Json::object([
            ("status", Json::Str("ok".into())),
            ("queued", (stats.queued as u64).to_json()),
            ("running", (stats.running as u64).to_json()),
            ("done", (stats.done as u64).to_json()),
            ("failed", (stats.failed as u64).to_json()),
            ("draining", Json::Bool(stats.draining)),
        ]),
    )
}

/// `POST /jobs`: parse, validate, content-address, admit.
fn submit(ctx: &Ctx, body: &[u8]) -> Response {
    let bad_request =
        |reason: String| Response::json(400, &Json::object([("error", Json::Str(reason))]));
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(e) => return bad_request(format!("body is not UTF-8: {e}")),
    };
    let spec: JobSpec = match nomc_json::from_str(text) {
        Ok(spec) => spec,
        Err(e) => return bad_request(format!("bad job spec: {e}")),
    };
    if let Err(e) = spec.validate() {
        return bad_request(format!("rejected job spec: {e}"));
    }
    let id = jobs::job_id(&spec);
    let hex = jobs::id_hex(id);
    let spec_text = nomc_json::to_string(&spec);
    match ctx.registry.admit(id, spec) {
        Admission::Cached { state } => Response::json(
            200,
            &Json::object([
                ("job", Json::Str(hex)),
                ("state", Json::Str(state.name().into())),
                ("cached", Json::Bool(true)),
            ]),
        ),
        Admission::Shed { retry_after_secs } => Response::json(
            429,
            &Json::object([
                ("error", Json::Str("queue full".into())),
                ("retry_after_secs", retry_after_secs.to_json()),
            ]),
        )
        .with_header("Retry-After", retry_after_secs.to_string()),
        Admission::Draining => Response::json(
            503,
            &Json::object([("error", Json::Str("server is draining".into()))]),
        ),
        Admission::New => {
            // The job is only acknowledged once its spec is durable:
            // an ack followed by a crash must still produce the report
            // on the next boot.
            let paths = jobs::paths(&ctx.state_dir, id);
            let persisted = fs::create_dir_all(&paths.snapshots)
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    journal::write_atomic(&paths.spec, &spec_text).map_err(|e| e.to_string())
                });
            if let Err(e) = persisted {
                let message = format!("persisting spec: {e}");
                ctx.registry.fail(id, message.clone());
                return Response::json(500, &Json::object([("error", Json::Str(message))]));
            }
            Response::json(
                202,
                &Json::object([
                    ("job", Json::Str(hex)),
                    ("state", Json::Str("queued".into())),
                    ("cached", Json::Bool(false)),
                ]),
            )
        }
    }
}

/// `GET /jobs/<id>`: lifecycle status; embeds the parsed report once
/// done.
fn job_status(ctx: &Ctx, id_text: &str) -> Response {
    let Some(id) = jobs::parse_id(id_text) else {
        return not_found();
    };
    let Some((state, error)) = ctx.registry.state(id) else {
        return not_found();
    };
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("job", Json::Str(jobs::id_hex(id))),
        ("state", Json::Str(state.name().into())),
    ];
    if let jobs::JobState::Running { done, total } = state {
        fields.push(("members_done", (done as u64).to_json()));
        fields.push(("members_total", (total as u64).to_json()));
    }
    if let Some(message) = error {
        fields.push(("error", Json::Str(message)));
    }
    if matches!(state, jobs::JobState::Done) {
        let paths = jobs::paths(&ctx.state_dir, id);
        match fs::read_to_string(&paths.report).map_err(|e| e.to_string()) {
            Ok(text) => match Json::parse(&text) {
                Ok(report) => fields.push(("report", report)),
                Err(e) => fields.push(("report_error", Json::Str(e.to_string()))),
            },
            Err(e) => fields.push(("report_error", Json::Str(e))),
        }
    }
    Response::json(200, &Json::object(fields))
}

/// `GET /jobs/<id>/report`: the report file's exact bytes (the cache
/// contract is byte identity, so the file is never re-serialized).
fn job_report(ctx: &Ctx, id_text: &str) -> Response {
    let Some(id) = jobs::parse_id(id_text) else {
        return not_found();
    };
    let Some((state, _error)) = ctx.registry.state(id) else {
        return not_found();
    };
    if !matches!(state, jobs::JobState::Done) {
        return Response::json(
            409,
            &Json::object([("state", Json::Str(state.name().into()))]),
        );
    }
    let paths = jobs::paths(&ctx.state_dir, id);
    match fs::read(&paths.report) {
        Ok(bytes) => Response::raw_json(200, bytes),
        Err(e) => Response::json(
            500,
            &Json::object([("error", Json::Str(format!("reading report: {e}")))]),
        ),
    }
}

/// `GET /jobs/<id>/events`: streams the job's progress log as JSONL,
/// ending when the job's story is over. The response has no
/// `Content-Length`; the `Connection: close` framing delimits it. The
/// deadline is renewed per write, so the stream is bounded by
/// per-write progress, not total duration.
fn stream_events(ctx: &Ctx, id_text: &str, conn: &mut DeadlineStream) {
    let log = jobs::parse_id(id_text).and_then(|id| ctx.registry.events(id));
    let Some(log) = log else {
        let _ = conn.write_all(&not_found().render());
        return;
    };
    let head =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if conn.write_all(head).is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (lines, next, closed) = log.wait_from(cursor, Duration::from_millis(250));
        cursor = next;
        if !lines.is_empty() {
            let mut chunk = String::new();
            for line in &lines {
                chunk.push_str(line);
                chunk.push('\n');
            }
            conn.renew();
            if conn.write_all(chunk.as_bytes()).is_err() {
                return;
            }
        }
        if closed {
            return;
        }
    }
}

/// Worker: pull queued jobs until the registry drains.
fn worker_loop(ctx: &Ctx) {
    while let Some((id, spec)) = ctx.registry.next_job() {
        run_job(ctx, id, &spec);
    }
}

/// Streams coarse progress out of the engine. A write-only observer
/// over an `mpsc` sender: it cannot perturb the run (the engine's
/// observer contract) and it keeps no shared state, so attaching it
/// changes no report byte.
struct Progress {
    sender: mpsc::Sender<String>,
    member: usize,
    seen: u64,
}

impl SimObserver for Progress {
    fn on_event(&mut self, _now: SimTime, _event: &Event) {
        self.seen += 1;
        if self.seen.is_multiple_of(PROGRESS_EVERY) {
            let _ = self.sender.send(format!(
                "{{\"event\":\"progress\",\"member\":{},\"events\":{}}}",
                self.member, self.seen
            ));
        }
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        let _ = self.sender.send(format!(
            "{{\"event\":\"attempt_end\",\"member\":{},\"events\":{}}}",
            self.member, self.seen
        ));
        self.seen = 0;
    }
}

/// The wire tag of a member's concluding attempt.
fn outcome_tag(report: &MemberReport) -> &'static str {
    match report.attempts.last().map(|a| &a.outcome) {
        Some(AttemptOutcome::Ok(_)) => "ok",
        Some(AttemptOutcome::Failed(_)) => "failed",
        Some(AttemptOutcome::TimedOut { .. }) => "timed_out",
        None => "empty",
    }
}

/// Runs one job end to end: recover its journal, sweep the unfinished
/// members in slot order (checkpoint-supervised), journal each
/// conclusion atomically, then persist the report and close the story.
/// Checks the drain flag between members; a drained job requeues and
/// resumes on the next boot.
fn run_job(ctx: &Ctx, id: u64, spec: &JobSpec) {
    let paths = jobs::paths(&ctx.state_dir, id);
    // Idempotent: `submit` also creates this (before acking), but a
    // worker can pick the job up before that write lands, and restored
    // jobs arrive without passing through `submit` at all.
    if let Err(e) = fs::create_dir_all(&paths.snapshots) {
        ctx.registry
            .fail(id, format!("creating job directory: {e}"));
        return;
    }
    let members = spec.members();
    let member_hashes = spec.member_hashes();
    let total = members.len();
    // The journal speaks the sweep subsystem's dialect: its header key
    // is the sweep hash of the member list, not the job id (which also
    // folds in the retry budget).
    let sweep_hash = sweep::hash::sweep_hash(&member_hashes);

    ctx.registry.apply(id, &JobEvent::Start { total });
    let log = ctx
        .registry
        .events(id)
        .expect("running jobs are registered");

    // All progress lines flow through one channel so their order is
    // total; a forwarder thread owns the log end.
    let (tx, rx) = mpsc::channel::<String>();
    let forwarder = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for line in rx {
                log.push(line);
            }
        })
    };
    let finish = |tx: mpsc::Sender<String>, forwarder: JoinHandle<()>| {
        drop(tx);
        let _ = forwarder.join();
    };
    let _ = tx.send(format!(
        "{{\"event\":\"started\",\"job\":\"{}\",\"members\":{total}}}",
        jobs::id_hex(id)
    ));

    // Recover concluded members from the journal, if one survives.
    let mut concluded: Vec<Option<MemberReport>> = vec![None; total];
    match journal::load(&paths.journal, sweep_hash, &member_hashes) {
        Ok(Some(replay)) => {
            for quarantined in &replay.quarantined {
                if matches!(quarantined, SweepError::TrailingGarbage { .. }) {
                    let _ = tx.send(format!(
                        "{{\"event\":\"journal_note\",\"note\":\"{quarantined} (expected after a crash)\"}}"
                    ));
                } else {
                    eprintln!("nomc-serve: job {}: {quarantined}", jobs::id_hex(id));
                }
            }
            concluded = replay.members;
        }
        Ok(None) => {}
        Err(e) => {
            // A stale or unreadable journal reruns the job from
            // scratch; determinism makes that merely slower, not
            // different.
            eprintln!(
                "nomc-serve: job {}: discarding journal: {e}",
                jobs::id_hex(id)
            );
        }
    }

    let snapshot_dir_text = spec
        .checkpoint_every
        .map(|_| paths.snapshots.display().to_string());
    if let Err(e) = journal::persist(
        &paths.journal,
        sweep_hash,
        snapshot_dir_text.as_deref(),
        &concluded,
    ) {
        ctx.registry.fail(id, format!("persisting journal: {e}"));
        finish(tx, forwarder);
        return;
    }

    let cfg = sweep::SweepConfig {
        retries: spec.retries,
        base_budget: spec.budget,
        threads: Some(1),
        shards: spec.shards,
        checkpoint_every: spec.checkpoint_every,
        snapshot_dir: spec.checkpoint_every.map(|_| paths.snapshots.clone()),
    };

    for (index, scenario) in members.iter().enumerate() {
        if concluded.get(index).map(Option::is_some).unwrap_or(false) {
            ctx.registry.apply(id, &JobEvent::MemberDone);
            let _ = tx.send(format!(
                "{{\"event\":\"member\",\"member\":{index},\"outcome\":\"recovered\"}}"
            ));
            continue;
        }
        if ctx.registry.draining() {
            // Mid-drain: step off between members. The journal already
            // holds everything concluded, so the next boot resumes
            // exactly here.
            ctx.registry.apply(id, &JobEvent::Requeue);
            let _ = tx.send("{\"event\":\"requeued\"}".to_string());
            finish(tx, forwarder);
            log.close();
            return;
        }
        let mut progress = Progress {
            sender: tx.clone(),
            member: index,
            seen: 0,
        };
        let report = sweep::run_one_member(scenario, index, &cfg, &mut [&mut progress]);
        let tag = outcome_tag(&report);
        let attempts = report.attempts.len();
        if let Some(slot) = concluded.get_mut(index) {
            *slot = Some(report);
        }
        if let Err(e) = journal::persist(
            &paths.journal,
            sweep_hash,
            snapshot_dir_text.as_deref(),
            &concluded,
        ) {
            ctx.registry.fail(id, format!("persisting journal: {e}"));
            finish(tx, forwarder);
            return;
        }
        ctx.registry.apply(id, &JobEvent::MemberDone);
        let _ = tx.send(format!(
            "{{\"event\":\"member\",\"member\":{index},\"outcome\":\"{tag}\",\"attempts\":{attempts}}}"
        ));
    }

    // Assemble the report exactly as `run_sweep` would, so the bytes
    // match a CLI sweep of the same members.
    let report_members: Vec<MemberReport> = concluded
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or(MemberReport {
                member: i,
                hash: member_hashes.get(i).copied().unwrap_or_default(),
                attempts: Vec::new(),
            })
        })
        .collect();
    let report = SweepReport {
        sweep_hash,
        members: report_members,
    };
    if let Err(e) = journal::write_atomic(&paths.report, &report.to_json_string()) {
        ctx.registry.fail(id, format!("persisting report: {e}"));
        finish(tx, forwarder);
        return;
    }
    ctx.registry.apply(id, &JobEvent::Finish);
    let _ = tx.send("{\"event\":\"done\"}".to_string());
    finish(tx, forwarder);
    log.close();
}
