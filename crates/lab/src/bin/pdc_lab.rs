//! `pdc_lab` — run the performance-lab server.
//!
//! ```text
//! pdc_lab [--addr HOST:PORT] [--workers N] [--http-workers N]
//!         [--cache-dir PATH] [--deadline-ms MS]
//! ```
//!
//! The server drains gracefully on SIGTERM/SIGINT (or `POST /shutdown`):
//! it refuses new work with 503, lets queued and running jobs finish
//! while still answering `/stats` and `/jobs`, stops its HTTP workers,
//! then exits 0.

use pdc_lab::server::{self, LabConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn usage() -> ! {
    eprintln!(
        "usage: pdc_lab [--addr HOST:PORT] [--workers N] [--http-workers N] \
         [--cache-dir PATH] [--deadline-ms MS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = LabConfig {
        addr: "127.0.0.1:7070".into(),
        ..LabConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => {
                config.executors = value("--workers").parse().unwrap_or_else(|_| usage())
            }
            "--http-workers" => {
                config.http_workers = value("--http-workers").parse().unwrap_or_else(|_| usage())
            }
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir").into()),
            "--deadline-ms" => {
                config.deadline_ms = value("--deadline-ms").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }

    let mut handle = match server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pdc_lab: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("pdc-lab listening on http://{}", handle.addr());

    // Wait for a drain trigger from either the signal handler or the
    // HTTP /shutdown endpoint.
    while !DRAIN.load(Ordering::SeqCst) && !handle.draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("pdc-lab: draining (letting in-flight jobs finish)");
    handle.shutdown();
    let stats = handle.stats();
    eprintln!(
        "pdc-lab: drained. submitted={} done={} failed={} timed_out={} hits={} misses={} coalesced={}",
        stats.submitted,
        stats.done,
        stats.failed,
        stats.timed_out,
        stats.cache_hits,
        stats.cache_misses,
        stats.coalesced
    );
}
