//! The `loadgen` layer: a seeded open-loop Poisson generator for the lab
//! workloads.
//!
//! Arrival times and the identity stream are pure functions of the
//! workload seed. At most [`THREADS`] sender threads run, each with one
//! connection at a time; each request is timed from its *due* time, so a
//! stall that delays later sends is charged to them, and the gap between
//! due and actual send is reported as generator lateness.
//!
//! The client is the generator's own small HTTP/1.1 client rather than
//! `pdc_lab::http::request`, because the per-layer split needs the
//! connect, send, first-byte and body instants of every exchange.

use pdc_bench::lab::{identity_request, Zipf};
use pdc_lab::api::RunRequest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads, and so concurrent connections: the container's
/// `nproc`.
pub const THREADS: usize = 2;

/// Identities of the `lab-hot` popularity table.
pub const HOT_IDENTITIES: usize = 64;

/// Zipf exponent of the `lab-hot` identity stream.
pub const HOT_ZIPF_S: f64 = 1.1;

/// Per-request client timeout.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Requests not begun this long after the last due time are not sent
/// and count as failed, so a stalled server cannot hold the run past its
/// time limit.
pub const GRACE: Duration = Duration::from_secs(30);

/// xorshift64*: small, seedable, stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mixed =
            (seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = Rng(mixed | 1);
        // Discard a few outputs so nearby seeds diverge immediately.
        for _ in 0..4 {
            rng.next_u64();
        }
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_ARRIVALS: u64 = 1;
const STREAM_IDENTITIES: u64 = 2;

/// Poisson arrival offsets (seconds) at `rate` per second over
/// `[0, seconds)`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        // Inverse CDF of the exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// `lab-hot` identities: Zipf([`HOT_ZIPF_S`]) draws over
/// `identity_request(0..HOT_IDENTITIES)`.
pub fn hot_stream(seed: u64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(HOT_IDENTITIES, HOT_ZIPF_S);
    let mut rng = Rng::new(seed, STREAM_IDENTITIES);
    (0..n).map(|_| zipf.sample(rng.next_f64())).collect()
}

/// Module, size and rank-count choices of `lab-cold`: every combination
/// appears once in each block of [`COLD_MIX`] requests.
const MODULES: [&str; 5] = ["ring", "distance", "sort", "stencil", "topk"];
const SIZES: [u64; 4] = [64, 128, 256, 512];
const RANKS: [u64; 3] = [4, 8, 16];

/// Combinations per `lab-cold` block.
pub const COLD_MIX: usize = MODULES.len() * SIZES.len() * RANKS.len();

/// The `i`-th `lab-cold` request: every module, sizes 64–512, 4–16
/// ranks, and a request seed unique to `(seed, i)`, so no identity
/// repeats within a run. Each block of [`COLD_MIX`] requests holds every
/// (module, size, ranks) combination once, in a seeded order, so runs of
/// different seeds do the same mix of work.
pub fn cold_request(seed: u64, i: usize) -> RunRequest {
    let block = (i / COLD_MIX) as u64;
    let mut order: Vec<usize> = (0..COLD_MIX).collect();
    let mut rng = Rng::new(seed, 1_000 + block);
    // Fisher–Yates shuffle of the block.
    for k in (1..COLD_MIX).rev() {
        order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
    }
    let combo = order[i % COLD_MIX];
    let module = MODULES[combo % MODULES.len()];
    let size = SIZES[(combo / MODULES.len()) % SIZES.len()];
    let ranks = RANKS[combo / (MODULES.len() * SIZES.len())];
    let mut req = RunRequest::new(module, size, ranks);
    // Low 32 bits: the request index; high bits: the workload seed.
    req.seed = Some((seed << 32) | i as u64);
    req.tenant = Some(format!("cohort-{}", i % 7));
    req
}

/// The requests of a lab run, in due order.
pub struct Plan {
    /// Due offsets from the phase start, seconds.
    pub due: Vec<f64>,
    /// The request sent at each due time.
    pub requests: Vec<RunRequest>,
    /// Serialized request bodies.
    pub bodies: Vec<String>,
}

impl Plan {
    /// `lab-hot`: Poisson arrivals at `rate`, Zipf identities.
    pub fn hot(seed: u64, rate: f64, seconds: f64) -> Self {
        let due = poisson_schedule(seed, rate, seconds);
        let requests = hot_stream(seed, due.len())
            .into_iter()
            .map(identity_request)
            .collect();
        Self::new(due, requests)
    }

    /// `lab-cold`: Poisson arrivals at `rate`, every identity new.
    pub fn cold(seed: u64, rate: f64, seconds: f64) -> Self {
        let due = poisson_schedule(seed, rate, seconds);
        let requests = (0..due.len()).map(|i| cold_request(seed, i)).collect();
        Self::new(due, requests)
    }

    fn new(due: Vec<f64>, requests: Vec<RunRequest>) -> Self {
        let bodies = requests
            .iter()
            .map(|r| serde_json::to_string(r).expect("a request serializes"))
            .collect();
        Self {
            due,
            requests,
            bodies,
        }
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Before `connect`.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request fully written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Body fully read.
    pub end: Instant,
    /// HTTP status.
    pub status: u16,
    /// `X-Pdc-Cache` header, if present.
    pub cache: Option<String>,
    /// Response body.
    pub body: String,
}

/// POST `body` to `path` on a fresh connection and time every phase.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();

    let mut reader = BufReader::new(stream);
    // `fill_buf` returns once the first bytes arrive.
    let first = reader.fill_buf().map_err(|e| format!("read: {e}"))?;
    if first.is_empty() {
        return Err("connection closed before a response".into());
    }
    let first_byte = Instant::now();
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut cache = None;
    let mut length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("x-pdc-cache") {
                cache = Some(value.trim().to_string());
            }
        }
    }
    let mut raw = Vec::new();
    match length {
        Some(n) => {
            raw.resize(n, 0);
            reader
                .read_exact(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    let end = Instant::now();
    let body = String::from_utf8(raw).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Exchange {
        start,
        connected,
        sent,
        first_byte,
        end,
        status,
        cache,
        body,
    })
}

/// What happened to one planned request.
#[derive(Debug)]
pub struct Sent {
    /// When it was due.
    pub due: Instant,
    /// When the sender actually began it.
    pub began: Instant,
    /// The exchange, or the transport error.
    pub outcome: Result<Exchange, String>,
}

impl Sent {
    /// Latency from the due time to the last body byte, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        let ex = self.outcome.as_ref().ok()?;
        Some(ex.end.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator began the request, milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.began.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Send every planned request at its due time from [`THREADS`] threads.
/// Returns the outcomes in plan order and the phase start instant.
pub fn run_open_loop(addr: SocketAddr, plan: &Plan) -> (Vec<Sent>, Instant) {
    let next = AtomicUsize::new(0);
    // A short lead so both senders are parked before the first arrival.
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = start + Duration::from_secs_f64(plan.due.last().copied().unwrap_or(0.0)) + GRACE;
    let mut all: Vec<(usize, Sent)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.due.len() {
                            return mine;
                        }
                        let due = start + Duration::from_secs_f64(plan.due[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let began = Instant::now();
                        let outcome = if began > give_up {
                            Err("not sent: the run passed its time limit".to_string())
                        } else {
                            post(addr, "/run", &plan.bodies[i])
                        };
                        mine.push((
                            i,
                            Sent {
                                due,
                                began,
                                outcome,
                            },
                        ));
                    }
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("sender thread panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    (all.into_iter().map(|(_, s)| s).collect(), start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_repeats_per_seed_and_has_the_asked_rate() {
        let a = poisson_schedule(3, 300.0, 15.0);
        assert_eq!(a, poisson_schedule(3, 300.0, 15.0));
        assert_ne!(a, poisson_schedule(4, 300.0, 15.0));
        // 4500 expected arrivals; a Poisson count is within ±5σ (±335).
        assert!((a.len() as f64 - 4500.0).abs() < 335.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..15.0).contains(&t)));
    }

    #[test]
    fn the_hot_stream_repeats_per_seed_and_is_skewed() {
        let a = hot_stream(5, 5000);
        assert_eq!(a, hot_stream(5, 5000));
        assert_ne!(a, hot_stream(6, 5000));
        assert!(a.iter().all(|&i| i < HOT_IDENTITIES));
        let head = a.iter().filter(|&&i| i == 0).count();
        assert!(head > 500, "rank 0 drew only {head} of 5000");
    }

    #[test]
    fn cold_identities_repeat_per_seed_and_never_collide() {
        let keys = |seed| -> Vec<u64> {
            (0..2000)
                .map(|i| pdc_lab::job_key(&cold_request(seed, i)))
                .collect()
        };
        let a = keys(9);
        assert_eq!(a, keys(9));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "an identity repeated");
        // Each block holds every combination once.
        let combos: std::collections::BTreeSet<(String, u64, u64)> = (COLD_MIX..2 * COLD_MIX)
            .map(|i| {
                let r = cold_request(9, i);
                (r.module, r.size, r.ranks)
            })
            .collect();
        assert_eq!(combos.len(), COLD_MIX);
    }
}
