//! Live-server integration: submit → run → report → cache → drain,
//! all over real sockets against a `Server` in this process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use nomc_serve::http::{self, ClientResponse, Method, Parsed};
use nomc_serve::{ServeConfig, Server};
use nomc_sim::Scenario;
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};

fn test_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1));
    b.build().expect("valid test scenario")
}

fn spec_json(seeds: &[u64]) -> String {
    spec_json_with(seeds, 200_000)
}

fn spec_json_with(seeds: &[u64], budget: u64) -> String {
    let scenario = nomc_json::to_string(&test_scenario());
    let seeds = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"scenario\":{scenario},\"seeds\":[{seeds}],\"budget\":{budget},\"retries\":1,\"checkpoint_every\":50000}}"
    )
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nomc-serve-roundtrip")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir creatable");
    dir
}

fn exchange(
    addr: std::net::SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&http::render_request(method, target, body))
        .expect("send request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    match http::parse_response(&bytes).expect("valid response") {
        Parsed::Complete { value, .. } => value,
        Parsed::Partial => panic!("truncated response: {:?}", String::from_utf8_lossy(&bytes)),
    }
}

fn body_text(resp: &ClientResponse) -> String {
    String::from_utf8_lossy(&resp.body).into_owned()
}

#[test]
fn submit_runs_caches_and_drains() {
    let state = temp_dir("roundtrip");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();

    // The bound address is published for :0 runs.
    let published = std::fs::read_to_string(state.join("serve.addr")).expect("serve.addr");
    assert_eq!(published.trim(), addr.to_string());

    // Health before any work.
    let health = exchange(addr, Method::Get, "/healthz", b"");
    assert_eq!(health.status, 200);
    assert!(body_text(&health).contains("\"status\":\"ok\""));

    // Submit: accepted as new work.
    let spec = spec_json(&[1, 2]);
    let accepted = exchange(addr, Method::Post, "/jobs", spec.as_bytes());
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
    let accepted_body = body_text(&accepted);
    let job_hex = accepted_body
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("job id in ack")
        .to_string();

    // Poll until done.
    let status_target = format!("/jobs/{job_hex}");
    let mut done = false;
    for _ in 0..600 {
        let status = exchange(addr, Method::Get, &status_target, b"");
        assert_eq!(status.status, 200);
        let text = body_text(&status);
        assert!(!text.contains("\"state\":\"failed\""), "job failed: {text}");
        if text.contains("\"state\":\"done\"") {
            assert!(text.contains("\"report\":"), "done status embeds report");
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(done, "job did not finish in time");

    // The report endpoint serves the on-disk bytes exactly.
    let report_target = format!("/jobs/{job_hex}/report");
    let report = exchange(addr, Method::Get, &report_target, b"");
    assert_eq!(report.status, 200);
    let on_disk =
        std::fs::read(state.join("jobs").join(&job_hex).join("report.json")).expect("report file");
    assert_eq!(
        report.body, on_disk,
        "served report must be the file's bytes"
    );

    // Resubmitting identical work is a cache hit, not a new job.
    let resubmit = exchange(addr, Method::Post, "/jobs", spec.as_bytes());
    assert_eq!(resubmit.status, 200, "{}", body_text(&resubmit));
    let resubmit_body = body_text(&resubmit);
    assert!(resubmit_body.contains("\"cached\":true"), "{resubmit_body}");
    assert!(resubmit_body.contains(&job_hex));

    // The event stream replays the finished job's story and ends.
    let events_target = format!("/jobs/{job_hex}/events");
    let events = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&http::render_request(Method::Get, &events_target, b""))
            .expect("send request");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read stream");
        String::from_utf8_lossy(&bytes).into_owned()
    };
    assert!(events.contains("\"event\":\"started\""), "{events}");
    assert!(events.contains("\"event\":\"done\""), "{events}");

    // Unknown and malformed ids are 404s, wrong method is 405.
    assert_eq!(
        exchange(addr, Method::Get, "/jobs/0000000000000000", b"").status,
        404
    );
    assert_eq!(
        exchange(addr, Method::Get, "/jobs/nonsense", b"").status,
        404
    );
    assert_eq!(exchange(addr, Method::Get, "/jobs", b"").status, 405);

    // Garbage on the wire gets a typed 4xx, and the server survives it.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"\x16\x03\x01\x02\x00garbage\r\n\r\n")
            .expect("send");
        let mut bytes = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_end(&mut bytes).expect("read");
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 4"), "{text}");
    }
    assert_eq!(exchange(addr, Method::Get, "/healthz", b"").status, 200);

    // Drain: the server stops listening and exits; new connections are
    // refused (in-flight submissions racing the drain get a 503 from
    // the admission layer, covered by the registry tests).
    server.drain();
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server must not accept connections"
    );
}

#[test]
fn invalid_specs_are_rejected_with_400() {
    let state = temp_dir("rejects");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();

    for (body, needle) in [
        (b"not json".to_vec(), "bad job spec"),
        (spec_json(&[]).into_bytes(), "at least one member"),
        (spec_json(&[3, 3]).into_bytes(), "more than once"),
        (
            spec_json(&[1])
                .replace("\"retries\":1", "\"retries\":99")
                .into_bytes(),
            "exceeds the cap",
        ),
        (
            spec_json(&[1])
                .replace("\"budget\":200000", "\"budget\":0")
                .into_bytes(),
            "at least 1 event",
        ),
    ] {
        let resp = exchange(addr, Method::Post, "/jobs", &body);
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        assert!(body_text(&resp).contains(needle), "{}", body_text(&resp));
    }

    // Nothing was admitted.
    let health = body_text(&exchange(addr, Method::Get, "/healthz", b""));
    assert!(health.contains("\"queued\":0"), "{health}");
    server.drain();
    server.join();
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let state = temp_dir("shed");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &state);
    // One slot and one worker: the worker takes one job off the queue
    // at a time (it blocks on the registry's condvar between jobs), so
    // a burst of distinct jobs must overflow the single queued slot.
    cfg.max_queue = 1;
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr();

    let mut shed = 0;
    for seed in 10..20 {
        // Five members per job keep the single worker busy long enough
        // for the burst to outrun the 1-slot queue.
        let seeds = [seed, seed + 100, seed + 200, seed + 300, seed + 400];
        let resp = exchange(
            addr,
            Method::Post,
            "/jobs",
            spec_json_with(&seeds, 2_000_000).as_bytes(),
        );
        match resp.status {
            202 => {}
            429 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "429 carries Retry-After"
                );
                assert!(body_text(&resp).contains("queue full"));
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", body_text(&resp)),
        }
    }
    assert!(shed > 0, "a 10-deep burst into a 1-slot queue must shed");
    server.drain();
    server.join();
}

#[test]
fn idle_server_drains_promptly() {
    let state = temp_dir("idle");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    // No connection is ever made: only drain's own wake-up can end the
    // blocking accept. Drain on a helper thread so a missed wake-up
    // fails the test instead of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.drain();
        server.join();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "idle server did not drain within 2 s"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server must not accept connections"
    );
}

#[test]
fn draining_twice_is_harmless() {
    let state = temp_dir("drain-twice");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    assert_eq!(
        exchange(server.addr(), Method::Get, "/healthz", b"").status,
        200
    );
    server.drain();
    server.drain();
    server.join();
}

#[test]
fn drain_ends_an_open_event_stream() {
    let state = temp_dir("drain-events");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &state);
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr();

    // Enough members that the job is still running when the drain lands.
    let seeds: Vec<u64> = (1..=40).collect();
    let accepted = exchange(
        addr,
        Method::Post,
        "/jobs",
        spec_json_with(&seeds, 2_000_000).as_bytes(),
    );
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
    let accepted_body = body_text(&accepted);
    let job_hex = accepted_body
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("job id in ack");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&http::render_request(
            Method::Get,
            &format!("/jobs/{job_hex}/events"),
            b"",
        ))
        .expect("send request");
    // Wait until the stream is live and the job has started.
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    while !String::from_utf8_lossy(&bytes).contains("\"event\":\"started\"") {
        let n = stream.read(&mut chunk).expect("read stream");
        assert!(n > 0, "stream ended before the job started");
        bytes.extend_from_slice(&chunk[..n]);
    }

    server.drain();
    stream
        .read_to_end(&mut bytes)
        .expect("stream ends after drain");
    let events = String::from_utf8_lossy(&bytes);
    let last = events.lines().last().unwrap_or_default();
    assert!(
        last.contains("\"event\":\"requeued\"") || last.contains("\"event\":\"done\""),
        "a drained stream ends with the job's requeue (or its end): {events}"
    );
    server.join();
}
