//! The shipped `pdc_lab` binary end to end: it starts, answers
//! `/healthz`, and on `POST /shutdown` drains and exits 0 while every
//! HTTP worker is blocked waiting for a connection.

use pdc_lab::http;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Kills the server if the test fails before it exits by itself.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_binary_drains_and_exits_zero_on_shutdown() {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_pdc_lab"))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pdc_lab"),
    );
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the listening line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("pdc-lab listening on http://")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .parse()
        .expect("listening address");

    let health = http::request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200, "body: {}", health.body);
    let drain = http::request(addr, "POST", "/shutdown", "", CLIENT_TIMEOUT).expect("shutdown");
    assert_eq!(drain.status, 200, "body: {}", drain.body);

    // Hang guard only: a drained idle server exits long before this.
    let guard = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll pdc_lab") {
            break status;
        }
        assert!(
            Instant::now() < guard,
            "pdc_lab did not exit after /shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "pdc_lab exited with {status}");
}
