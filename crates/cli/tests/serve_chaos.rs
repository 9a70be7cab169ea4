//! Chaos testing for `nomc serve`: SIGKILL the server mid-job and
//! require the restarted server to finish the job with byte-identical
//! results; throw malformed clients at it and require it to keep
//! serving; SIGTERM it and require a clean drain (exit code 0).

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use nomc_serve::http::{self, ClientResponse, Method, Parsed};
use nomc_sim::{NetworkBehavior, Scenario};
use nomc_topology::paper;
use nomc_topology::spectrum::{ChannelPlan, FitPolicy};
use nomc_units::{Dbm, Megahertz, SimDuration};

fn nomc() -> &'static str {
    env!("CARGO_BIN_EXE_nomc")
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nomc-serve-chaos").join(name);
    // Clean slate: a reused state dir would let a rerun "recover" the
    // previous run's results instead of exercising this run's crash.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir creatable");
    dir
}

/// A scenario sized so each sweep member takes a noticeable fraction
/// of a second: long enough that a six-member job on one worker is
/// reliably still in flight when we pull the plug.
fn scenario_file(dir: &Path) -> PathBuf {
    let plan = ChannelPlan::fit(
        Megahertz::new(2458.0),
        Megahertz::new(15.0),
        Megahertz::new(3.0),
        FitPolicy::InclusiveEnds,
    )
    .expect("plan fits");
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default());
    b.duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(2));
    let scenario = b.build().expect("valid scenario");
    let path = dir.join("scenario.json");
    std::fs::write(&path, nomc_json::to_string_pretty(&scenario)).expect("scenario written");
    path
}

/// Starts `nomc serve` on an ephemeral port and waits for it to
/// publish its bound address, so tests never race the bind.
fn start_server(state: &Path) -> (Child, std::net::SocketAddr) {
    let addr_file = state.join("serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let mut child = Command::new(nomc())
        .args([
            "serve",
            "--state-dir",
            state.to_str().expect("utf8 path"),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                return (child, addr);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server never published its address");
}

fn exchange(
    addr: std::net::SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
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

fn submit_args(scenario: &Path, addr: std::net::SocketAddr) -> Vec<String> {
    [
        "submit",
        scenario.to_str().expect("utf8 path"),
        "--addr",
        &addr.to_string(),
        "--seeds",
        "1,2,3,4,5,6",
        "--checkpoint-every",
        "50000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn job_id_from(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .unwrap_or_else(|| panic!("no job id in: {stdout}"))
        .to_string()
}

/// Extracts `"name":<u64>` from a JSON body (fields the server emits
/// are never nested under a same-named key, so a flat scan suffices).
fn field_u64(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = body.split(&key).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn sigterm(child: &mut Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn sigkill_mid_job_then_restart_yields_byte_identical_results() {
    let work = test_dir("work");
    let scenario = scenario_file(&work);

    // Control: the same job run to completion on an undisturbed server.
    let control_state = test_dir("control-state");
    let (mut control_server, control_addr) = start_server(&control_state);
    let control_report_path = work.join("control_report.json");
    let mut args = submit_args(&scenario, control_addr);
    args.push("--wait".to_string());
    args.push("--report".to_string());
    args.push(control_report_path.to_str().expect("utf8 path").to_string());
    let control_out = Command::new(nomc())
        .args(&args)
        .output()
        .expect("submit runs");
    assert!(
        control_out.status.success(),
        "control submit failed: {}",
        String::from_utf8_lossy(&control_out.stderr)
    );
    let job_hex = job_id_from(&control_out);
    let control_report = std::fs::read(&control_report_path).expect("control report");
    let control_journal = std::fs::read_to_string(
        control_state
            .join("jobs")
            .join(&job_hex)
            .join("journal.jsonl"),
    )
    .expect("control journal");

    // SIGTERM is a graceful drain: the control server must exit 0.
    sigterm(&mut control_server);
    let status = control_server.wait().expect("control server exits");
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit cleanly");

    // Chaos: same spec on a fresh server, killed without warning once
    // at least one member has concluded (so the journal is non-trivial
    // and a mid-member checkpoint likely exists).
    let chaos_state = test_dir("chaos-state");
    let (mut chaos_server, chaos_addr) = start_server(&chaos_state);
    let chaos_out = Command::new(nomc())
        .args(submit_args(&scenario, chaos_addr))
        .output()
        .expect("submit runs");
    assert!(
        chaos_out.status.success(),
        "chaos submit failed: {}",
        String::from_utf8_lossy(&chaos_out.stderr)
    );
    assert_eq!(job_id_from(&chaos_out), job_hex, "same spec, same job id");

    let status_target = format!("/jobs/{job_hex}");
    let mut caught_running = false;
    for _ in 0..600 {
        let status = exchange(chaos_addr, Method::Get, &status_target, b"");
        let text = body_text(&status);
        assert!(!text.contains("\"state\":\"failed\""), "job failed: {text}");
        assert!(
            !text.contains("\"state\":\"done\""),
            "job finished before the kill — make the scenario slower"
        );
        if field_u64(&text, "members_done").is_some_and(|done| done >= 1) {
            caught_running = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(caught_running, "job never reported a concluded member");
    chaos_server.kill().expect("SIGKILL delivered");
    chaos_server.wait().expect("killed server reaped");

    // Restart on the same state dir: the job must be re-admitted and
    // finished from its journal, not restarted from scratch or lost.
    let (mut restarted, restarted_addr) = start_server(&chaos_state);
    let mut done = false;
    for _ in 0..1200 {
        let status = exchange(restarted_addr, Method::Get, &status_target, b"");
        let text = body_text(&status);
        assert!(!text.contains("\"state\":\"failed\""), "job failed: {text}");
        if text.contains("\"state\":\"done\"") {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(done, "restarted server never finished the recovered job");

    // The crashed-and-recovered report must be byte-identical to the
    // undisturbed control's, both over HTTP and on disk.
    let report_target = format!("/jobs/{job_hex}/report");
    let served = exchange(restarted_addr, Method::Get, &report_target, b"");
    assert_eq!(served.status, 200);
    assert_eq!(
        served.body, control_report,
        "recovered report differs from the control run's"
    );
    let job_dir = chaos_state.join("jobs").join(&job_hex);
    let on_disk = std::fs::read(job_dir.join("report.json")).expect("chaos report file");
    assert_eq!(on_disk, control_report);

    // Journal member lines must match byte-for-byte; the header line
    // is excluded only because it embeds each state dir's snapshot
    // path, which legitimately differs between the two servers.
    let chaos_journal =
        std::fs::read_to_string(job_dir.join("journal.jsonl")).expect("chaos journal");
    let control_members: Vec<&str> = control_journal.lines().skip(1).collect();
    let chaos_members: Vec<&str> = chaos_journal.lines().skip(1).collect();
    assert_eq!(
        chaos_members, control_members,
        "recovered journal diverges from the control run's"
    );

    // Every member concluded, so every mid-member checkpoint must have
    // been discarded: a drained snapshot dir is the done state.
    let leftovers: Vec<_> = std::fs::read_dir(job_dir.join("snapshots"))
        .expect("snapshot dir exists")
        .collect();
    assert!(
        leftovers.is_empty(),
        "snapshot dir not drained: {leftovers:?}"
    );

    // Resubmitting the identical spec is now a cache hit.
    let resubmit = Command::new(nomc())
        .args(submit_args(&scenario, restarted_addr))
        .output()
        .expect("submit runs");
    assert!(resubmit.status.success());
    assert!(
        String::from_utf8_lossy(&resubmit.stdout).contains("\"cached\":true"),
        "resubmit after recovery must hit the cache"
    );

    sigterm(&mut restarted);
    let status = restarted.wait().expect("restarted server exits");
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit cleanly");
}

#[test]
fn flaky_clients_never_wedge_the_server() {
    let state = test_dir("flaky-state");
    let scenario_path = scenario_file(&test_dir("flaky-work"));
    let (mut server, addr) = start_server(&state);

    // A client that half-closes mid-request: the server drops the
    // connection without an answer and without crashing.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\ncontent-le")
            .expect("send partial head");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut bytes = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let _ = stream.read_to_end(&mut bytes);
    }

    // Binary garbage gets a typed parse error, not a hang or a panic.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"\x00\x01\x02\xff nonsense \r\n\r\n")
            .expect("send garbage");
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read");
        assert!(
            String::from_utf8_lossy(&bytes).starts_with("HTTP/1.1 4"),
            "garbage must get a 4xx"
        );
    }

    // A Content-Length past the body cap is refused up front — the
    // server never tries to buffer the promised payload.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n")
            .expect("send oversized claim");
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read");
        assert!(
            String::from_utf8_lossy(&bytes).starts_with("HTTP/1.1 413"),
            "oversized Content-Length must get a 413"
        );
    }

    // After all that abuse, an honest client is served normally.
    let health = exchange(addr, Method::Get, "/healthz", b"");
    assert_eq!(health.status, 200, "{}", body_text(&health));
    let scenario_text = std::fs::read_to_string(&scenario_path).expect("scenario");
    let scenario: Scenario = nomc_json::from_str(&scenario_text).expect("scenario parses");
    let spec = nomc_serve::JobSpec {
        scenario,
        seeds: vec![7],
        budget: 1_000_000_000,
        retries: 1,
        shards: None,
        checkpoint_every: Some(200_000),
    };
    let accepted = exchange(
        addr,
        Method::Post,
        "/jobs",
        nomc_json::to_string(&spec).as_bytes(),
    );
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));

    server.kill().expect("cleanup kill");
    server.wait().expect("server reaped");
}

#[test]
fn sigterm_drains_an_idle_server_promptly() {
    // No connection is ever made: the signal alone must wake the
    // server's blocking accept.
    let state = test_dir("idle-state");
    let (mut server, _addr) = start_server(&state);
    sigterm(&mut server);
    for _ in 0..250 {
        if let Some(status) = server.try_wait().expect("server status readable") {
            assert_eq!(status.code(), Some(0), "SIGTERM drain must exit cleanly");
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = server.kill();
    let _ = server.wait();
    panic!("idle server ignored SIGTERM for 5 s");
}
