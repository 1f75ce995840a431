//! End-to-end tests of the pdc-lab HTTP API over real sockets: duplicate
//! coalescing (one execution, N byte-identical responses), deadline
//! handling (typed `timed_out`, never a hung request), preemption,
//! tenant policy installation, and the life cycle of the HTTP workers
//! (more clients than workers, shutdown of an idle server).

use pdc_lab::api::{JobInfo, RunRequest, ServerStats};
use pdc_lab::http;
use pdc_lab::server::{self, LabConfig, LabHandle};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn spawn_lab(executors: usize) -> LabHandle {
    server::start(LabConfig {
        addr: "127.0.0.1:0".into(),
        executors,
        http_workers: 8,
        cache_dir: None,
        deadline_ms: 60_000,
        ..LabConfig::default()
    })
    .expect("bind lab server")
}

/// A request slow enough (tens to hundreds of ms of real compute) that
/// concurrent duplicates reliably overlap with the first execution.
fn slow_request(seed: u64) -> RunRequest {
    let mut req = RunRequest::new("distance", 4096, 4);
    req.seed = Some(seed);
    req
}

fn post(addr: SocketAddr, path: &str, body: &str) -> http::Response {
    http::request(addr, "POST", path, body, CLIENT_TIMEOUT).expect("request")
}

fn get_stats(addr: SocketAddr) -> ServerStats {
    let resp = http::request(addr, "GET", "/stats", "", CLIENT_TIMEOUT).expect("stats");
    serde_json::from_str(&resp.body).expect("stats body")
}

fn get_job(addr: SocketAddr, id: u64) -> JobInfo {
    let resp =
        http::request(addr, "GET", &format!("/jobs/{id}"), "", CLIENT_TIMEOUT).expect("job get");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    serde_json::from_str(&resp.body).expect("job info body")
}

fn submit_async(addr: SocketAddr, req: &RunRequest) -> u64 {
    let body = serde_json::to_string(req).expect("serialize");
    let resp = post(addr, "/jobs", &body);
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    resp.header("x-pdc-job")
        .expect("job header")
        .parse()
        .expect("job id")
}

fn wait_status(addr: SocketAddr, id: u64, want: &[&str], budget: Duration) -> JobInfo {
    let deadline = Instant::now() + budget;
    loop {
        let info = get_job(addr, id);
        if want.contains(&info.status.as_str()) {
            return info;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in '{}' (wanted one of {want:?})",
            info.status
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `clients` concurrent `POST /run` of one identity against a server
/// with `http_workers` workers and one executor: every client gets the
/// same bytes, and exactly one request executes.
fn duplicates_coalesce(http_workers: usize, clients: usize) {
    let lab = server::start(LabConfig {
        addr: "127.0.0.1:0".into(),
        executors: 1,
        http_workers,
        cache_dir: None,
        deadline_ms: 60_000,
        ..LabConfig::default()
    })
    .expect("bind lab server");
    let addr = lab.addr();
    let body = serde_json::to_string(&slow_request(1)).expect("serialize");

    let clients: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || post(addr, "/run", &body))
        })
        .collect();
    let responses: Vec<http::Response> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();

    for resp in &responses {
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(
            resp.body, responses[0].body,
            "every duplicate gets the same bytes"
        );
    }
    let misses = responses
        .iter()
        .filter(|r| r.header("x-pdc-cache") == Some("miss"))
        .count();
    assert_eq!(misses, 1, "exactly one client's request executed");
    let stats = get_stats(addr);
    assert_eq!(
        stats.runs_executed,
        1,
        "{} requests, ONE execution",
        responses.len()
    );
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        responses.len() as u64 - 1,
        "the duplicates were served without running: {stats:?}"
    );
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_execution() {
    duplicates_coalesce(8, 4);
}

/// With more clients than workers, the connections no worker has
/// accepted yet wait in the kernel's listen backlog.
#[test]
fn more_clients_than_workers_wait_in_the_listen_backlog() {
    duplicates_coalesce(2, 16);
}

#[test]
fn a_job_queued_past_its_deadline_times_out_with_a_diagnosis() {
    let lab = spawn_lab(1);
    let addr = lab.addr();

    // Occupy the only executor slot.
    let blocker = submit_async(addr, &slow_request(2));
    wait_status(addr, blocker, &["running", "done"], Duration::from_secs(30));

    // This one can never start in time.
    let mut starved = RunRequest::new("ring", 64, 4);
    starved.deadline_ms = Some(1);
    let starved_id = submit_async(addr, &starved);
    let info = wait_status(addr, starved_id, &["timed_out"], Duration::from_secs(30));
    let error = info.error.expect("timed-out jobs carry a diagnosis");
    assert!(error.contains("deadline"), "{error}");
    assert!(error.contains("queued"), "{error}");

    // The blocker itself is unharmed.
    let info = wait_status(addr, blocker, &["done"], Duration::from_secs(60));
    assert_eq!(info.status, "done");
}

#[test]
fn a_running_job_past_its_deadline_is_killed_not_hung() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    // Several hundred ms of compute, 30ms budget: the watchdog must kill
    // it and the (synchronous!) request must still come back.
    let mut req = slow_request(3);
    req.size = 8192;
    req.deadline_ms = Some(30);
    let body = serde_json::to_string(&req).expect("serialize");
    let resp = post(addr, "/run", &body);
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    assert_eq!(resp.header("x-pdc-status"), Some("timed_out"));
    assert!(
        resp.body.contains("watchdog") || resp.body.contains("deadline"),
        "diagnosis names the killer: {}",
        resp.body
    );
    let stats = get_stats(addr);
    assert_eq!(stats.timed_out, 1);
    // A timed-out run is transient: the identity must not be poisoned.
    let retry_stats = get_stats(addr);
    assert_eq!(retry_stats.cache_hits, 0);
}

#[test]
fn a_high_priority_tenant_preempts_a_running_job() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    let resp = http::request(
        addr,
        "PUT",
        "/tenants/vip",
        "{\"priority\": 1000, \"weight\": 4.0}",
        CLIENT_TIMEOUT,
    )
    .expect("tenant put");
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let victim = submit_async(addr, &slow_request(4));
    wait_status(addr, victim, &["running"], Duration::from_secs(30));

    let mut vip_req = slow_request(5);
    vip_req.tenant = Some("vip".into());
    let vip = submit_async(addr, &vip_req);

    // The vip job finishes first even though it arrived second; the
    // victim restarts from scratch and still completes.
    let vip_info = wait_status(addr, vip, &["done"], Duration::from_secs(60));
    assert_eq!(vip_info.status, "done");
    let victim_info = wait_status(addr, victim, &["done"], Duration::from_secs(60));
    assert_eq!(victim_info.status, "done");
    assert!(
        victim_info.preemptions >= 1,
        "the victim was displaced at least once: {victim_info:?}"
    );
    assert!(get_stats(addr).preemptions >= 1);
}

#[test]
fn bad_requests_get_typed_errors_not_hangs() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    // Unknown module.
    let resp = post(
        addr,
        "/run",
        "{\"module\":\"warp\",\"size\":64,\"ranks\":4}",
    );
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown module"), "{}", resp.body);
    // proc backend is refused with an explanation.
    let mut req = RunRequest::new("ring", 64, 4);
    req.backend = Some("proc".into());
    let resp = post(
        addr,
        "/run",
        &serde_json::to_string(&req).expect("serialize"),
    );
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("proc"), "{}", resp.body);
    // Garbage body.
    let resp = post(addr, "/run", "{not json");
    assert_eq!(resp.status, 400);
    // Unknown route.
    let resp = http::request(addr, "GET", "/nope", "", CLIENT_TIMEOUT).expect("request");
    assert_eq!(resp.status, 404);
}

#[test]
fn artifacts_are_served_per_job_after_completion() {
    let lab = spawn_lab(2);
    let addr = lab.addr();
    let id = submit_async(addr, &RunRequest::new("stencil", 256, 8));
    wait_status(addr, id, &["done"], Duration::from_secs(60));
    for artifact in ["result", "profile", "report", "trace"] {
        let resp = http::request(
            addr,
            "GET",
            &format!("/jobs/{id}/{artifact}"),
            "",
            CLIENT_TIMEOUT,
        )
        .expect("artifact get");
        assert_eq!(resp.status, 200, "{artifact}: {}", resp.body);
        assert!(!resp.body.is_empty(), "{artifact} has content");
    }
    let resp = http::request(addr, "GET", &format!("/jobs/{id}/nope"), "", CLIENT_TIMEOUT)
        .expect("bad artifact");
    assert_eq!(resp.status, 404);
}

#[test]
fn shutdown_drains_gracefully() {
    let mut lab = spawn_lab(1);
    let addr = lab.addr();
    let id = submit_async(addr, &slow_request(6));
    let resp = post(addr, "/shutdown", "");
    assert_eq!(resp.status, 200);
    // New work is refused while draining...
    let refused = post(
        addr,
        "/run",
        &serde_json::to_string(&RunRequest::new("ring", 64, 4)).expect("serialize"),
    );
    assert_eq!(refused.status, 503);
    // ...but the in-flight job still completes before the server exits.
    lab.shutdown();
    let stats = lab.stats();
    assert_eq!(stats.done, 1, "queued job {id} completed during drain");
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.running, 0);
}

/// Start a server with four HTTP workers on `addr`, make no request,
/// and shut it down on a helper thread. The 30 s guard only turns a
/// hung shutdown into a failure; it says nothing about speed.
fn idle_server_shuts_down(addr: &str) {
    let mut lab = server::start(LabConfig {
        addr: addr.into(),
        http_workers: 4,
        ..LabConfig::default()
    })
    .expect("bind lab server");
    let port = lab.addr().port();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        lab.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("shutdown of an idle server on {addr} did not return"));
    // Every worker held the listener; once all are joined it is closed.
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err(),
        "the listener on port {port} outlived shutdown"
    );
}

#[test]
fn an_idle_server_shuts_down() {
    idle_server_shuts_down("127.0.0.1:0");
}

#[test]
fn an_idle_server_bound_to_every_interface_shuts_down() {
    idle_server_shuts_down("0.0.0.0:0");
}
