//! The `lab-hot` and `lab-cold` workloads: the shipped `pdc_lab` binary
//! in a process of its own, driven by the open-loop generator.
//!
//! Set-up (request plan, server start until `/healthz` answers, and for
//! `lab-hot` one warm-up request per identity) is repeated and its median
//! reported. After the timed phase every response body is compared with
//! `pdc_lab::runner::execute` of the same request, and every
//! `X-Pdc-Cache` disposition with the one the workload must produce.

use crate::loadgen::{self, Plan, Sent};
use crate::procfs::{self, Pid};
use crate::stats;
use crate::trace::{self, Tracer};
use pdc_bench::lab::identity_request;
use pdc_check::analyze;
use pdc_cluster::tenant::{FairShare, FairShareConfig};
use pdc_cluster::Placement;
use pdc_lab::api::{Artifacts, RunRequest, ServerStats};
use pdc_lab::cache::{Claim, ResultCache};
use pdc_lab::runner::{self, RunResult};
use pdc_lab::{http, job_key};
use pdc_modules::{module1, module2, module3, module6, module7};
use pdc_mpi::{CancelToken, CheckMode, Comm, ProfContext, World, WorldConfig};
use pdc_prof::{enriched_chrome_json, Profile};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Which lab workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Every measured request a cache hit.
    Hot,
    /// Every measured request a new identity.
    Cold,
}

impl Kind {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "lab-hot",
            Kind::Cold => "lab-cold",
        }
    }

    /// Open-loop arrival rate, requests per second.
    pub fn rate(self) -> f64 {
        match self {
            Kind::Hot => 300.0,
            Kind::Cold => 80.0,
        }
    }

    /// Fixed latency limit for `goodput_rps`, milliseconds. On `lab-hot`
    /// it lies between the p50 and the p75 of a run on a 2-core host, so
    /// a shift of the hit latency moves goodput. On `lab-cold` it is
    /// about the p99, so goodput counts the misses that stall.
    pub fn limit_ms(self) -> f64 {
        match self {
            Kind::Hot => 2.0,
            Kind::Cold => 15.0,
        }
    }

    /// The `X-Pdc-Cache` disposition every measured request must get.
    pub fn disposition(self) -> &'static str {
        match self {
            Kind::Hot => "hit",
            Kind::Cold => "miss",
        }
    }

    fn plan(self, seed: u64, seconds: f64) -> Plan {
        match self {
            Kind::Hot => Plan::hot(seed, self.rate(), seconds),
            Kind::Cold => Plan::cold(seed, self.rate(), seconds),
        }
    }
}

/// A running `pdc_lab` process.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime, so a later print to stdout
    /// does not fail on a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

impl Server {
    /// Start `bin` on a free port with default settings (in-memory
    /// cache) and wait until `/healthz` answers.
    pub fn start(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // Own the child from here on, so every error path below stops it.
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        read.map_err(|e| format!("read pdc_lab banner: {e}"))?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok())
            .ok_or_else(|| format!("unexpected pdc_lab banner {line:?}"))?;
        server.addr = addr;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match http::request(addr, "GET", "/healthz", "", IO_TIMEOUT) {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("pdc_lab never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /stats`.
    pub fn stats(&self) -> Result<ServerStats, String> {
        let r = http::request(self.addr, "GET", "/stats", "", IO_TIMEOUT)?;
        serde_json::from_str(&r.body).map_err(|e| format!("parse /stats: {e:?}"))
    }

    /// Drain through `POST /shutdown` and wait for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        http::request(self.addr, "POST", "/shutdown", "", IO_TIMEOUT)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("pdc_lab exited with {status}")),
                None if Instant::now() > deadline => return Err("pdc_lab did not drain".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One set-up: plan, server, warm-up. Returns the server and its plan.
fn set_up(kind: Kind, bin: &Path, seed: u64, seconds: f64) -> Result<(Server, Plan), String> {
    let plan = kind.plan(seed, seconds);
    let server = Server::start(bin)?;
    if kind == Kind::Hot {
        for i in 0..loadgen::HOT_IDENTITIES {
            let body = serde_json::to_string(&identity_request(i)).expect("a request serializes");
            let ex = loadgen::post(server.addr, "/run", &body)?;
            if ex.status != 200 {
                return Err(format!("warm-up request {i} answered {}", ex.status));
            }
        }
    }
    Ok((server, plan))
}

/// The untraced, timed part of one lab run.
pub struct Pass {
    /// Set-up seconds of each repetition.
    pub setups: Vec<f64>,
    /// Requests sent and what came back, in plan order.
    pub sent: Vec<Sent>,
    /// The plan.
    pub plan: Plan,
    /// From the phase start to the last response.
    pub wall_s: f64,
    /// Server CPU seconds during the phase.
    pub cpu_s: f64,
    /// Server `VmHWM` after the phase.
    pub peak_rss_bytes: u64,
    /// `/stats` before and after the phase.
    pub stats: (ServerStats, ServerStats),
}

/// Set up `setup_repeats` times, half before the phase (keeping the
/// last server for it) and the rest after it, so the set-up median
/// covers the whole run. Runs the open loop and stops every server.
pub fn run_pass(
    kind: Kind,
    bin: &Path,
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
) -> Result<Pass, String> {
    let timed_set_up = |setups: &mut Vec<f64>| -> Result<(Server, Plan), String> {
        let t0 = Instant::now();
        let kept = set_up(kind, bin, seed, seconds)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok(kept)
    };
    let ahead = setup_repeats.div_ceil(2).max(1);
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..ahead {
        let (server, plan) = timed_set_up(&mut setups)?;
        if k + 1 < ahead {
            server.stop()?;
        } else {
            kept = Some((server, plan));
        }
    }
    let (server, plan) = kept.expect("at least one set-up");
    let pid = Pid::Other(server.pid());
    let before = server.stats()?;
    let cpu0 = procfs::cpu(pid).map_err(|e| e.to_string())?;
    let (sent, start) = loadgen::run_open_loop(server.addr, &plan);
    let cpu = procfs::cpu(pid).map_err(|e| e.to_string())?.since(cpu0);
    let after = server.stats()?;
    let peak_rss_bytes = procfs::vm_hwm_bytes(pid).map_err(|e| e.to_string())?;
    server.stop()?;
    while setups.len() < setup_repeats {
        timed_set_up(&mut setups)?.0.stop()?;
    }
    let last = sent
        .iter()
        .map(|s| s.outcome.as_ref().map_or(s.began, |ex| ex.end))
        .max()
        .unwrap_or(start);
    Ok(Pass {
        setups,
        wall_s: last.duration_since(start).as_secs_f64(),
        sent,
        plan,
        cpu_s: cpu.total(),
        peak_rss_bytes,
        stats: (before, after),
    })
}

/// Expected `POST /run` bodies, keyed by request identity, computed
/// with `runner::execute` on [`loadgen::THREADS`] threads.
pub fn expected_bodies(requests: &[RunRequest]) -> BTreeMap<u64, String> {
    let mut distinct: BTreeMap<u64, &RunRequest> = BTreeMap::new();
    for r in requests {
        distinct.entry(job_key(r)).or_insert(r);
    }
    let work: Vec<(u64, &RunRequest)> = distinct.into_iter().collect();
    let chunk = work.len().div_ceil(loadgen::THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(key, req)| {
                            (
                                key,
                                runner::execute(req, CancelToken::new()).artifacts.result,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// Check every response. Returns the index and a message for each wrong
/// request: a transport error, a status other than 200, a wrong
/// `X-Pdc-Cache` disposition, or a body that differs from the runner's.
pub fn check_responses(
    kind: Kind,
    plan: &Plan,
    sent: &[Sent],
    expected: &BTreeMap<u64, String>,
) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    for (i, (req, s)) in plan.requests.iter().zip(sent).enumerate() {
        let problem = match &s.outcome {
            Err(e) => Some(e.clone()),
            Ok(ex) if ex.status != 200 => Some(format!("status {}", ex.status)),
            Ok(ex) if ex.cache.as_deref() != Some(kind.disposition()) => Some(format!(
                "X-Pdc-Cache {:?}, expected {}",
                ex.cache,
                kind.disposition()
            )),
            Ok(ex) if expected.get(&job_key(req)) != Some(&ex.body) => {
                Some("body differs from runner::execute".into())
            }
            Ok(_) => None,
        };
        if let Some(p) = problem {
            bad.push((i, format!("request {i}: {p}")));
        }
    }
    bad
}

/// Whole-run check of the `/stats` deltas: all hits or all misses.
pub fn check_stats(kind: Kind, n: usize, stats: &(ServerStats, ServerStats)) -> Option<String> {
    let (b, a) = stats;
    let d = (
        a.cache_hits - b.cache_hits,
        a.cache_misses - b.cache_misses,
        a.coalesced - b.coalesced,
    );
    let want = match kind {
        Kind::Hot => (n as u64, 0, 0),
        Kind::Cold => (0, n as u64, 0),
    };
    (d != want).then(|| {
        format!(
            "/stats deltas (hits, misses, coalesced) = {d:?}, expected {want:?} for {}",
            kind.name()
        )
    })
}

/// End-to-end numbers of a pass.
pub struct EndToEnd {
    /// Latencies of completed requests, ms.
    pub latencies: Vec<f64>,
    /// Requests correct, answered 200, and within the latency limit.
    pub good: usize,
}

/// Latencies and goodput count of a pass; `wrong` holds the indices
/// [`check_responses`] reported.
pub fn end_to_end(kind: Kind, sent: &[Sent], wrong: &[usize]) -> EndToEnd {
    let latencies: Vec<f64> = sent.iter().filter_map(Sent::latency_ms).collect();
    let good = sent
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            !wrong.contains(i) && s.latency_ms().is_some_and(|ms| ms <= kind.limit_ms())
        })
        .count();
    EndToEnd { latencies, good }
}

/// Stage timings of one execution, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `pdc_datagen` inputs (the `distance` module).
    pub datagen: f64,
    /// `World::run_with_check`.
    pub world: f64,
    /// `pdc_check::analyze` and its serialization.
    pub check: f64,
    /// `Profile::from_run` and its serialization.
    pub profile: f64,
    /// `enriched_chrome_json`.
    pub trace: f64,
}

/// `runner::execute` taken apart: the same world configuration and
/// module dispatch, with each stage timed. Returns the artifacts, which
/// the caller compares with `runner::execute`'s to hold the copy to the
/// original.
pub fn staged_execute(req: &RunRequest) -> (Artifacts, Stages) {
    let mut st = Stages::default();
    let ranks = req.ranks as usize;
    let cfg = WorldConfig::virtual_ranks(ranks, req.workers_or_default())
        .with_sched_seed(req.seed_or_default())
        .with_tracing()
        .with_check(CheckMode::Record)
        .with_cancel(CancelToken::new());
    let ctx = ProfContext {
        machine: cfg.machine.clone(),
        placement: Placement::new(
            cfg.size,
            cfg.nodes_used,
            cfg.machine.cores_per_node,
            cfg.placement_policy,
        ),
        eager_threshold: cfg.eager_threshold,
    };
    let per_rank = ((req.size as usize) / ranks).max(1);
    let seed = req.seed_or_default();
    let t = Instant::now();
    let (outcome, logs) = match req.module.as_str() {
        "ring" => World::run_with_check(cfg, move |comm: &mut Comm| {
            Ok(module1::ring_step(comm, module1::RingVariant::Nonblocking)? as f64)
        }),
        "distance" => {
            let points = pdc_datagen::uniform_points(req.size as usize, 4, 0.0, 1.0, seed);
            st.datagen = t.elapsed().as_secs_f64();
            World::run_with_check(cfg, move |comm: &mut Comm| {
                module2::distance_matrix_rank(comm, &points, module2::Access::RowWise)
            })
        }
        "sort" => World::run_with_check(cfg, move |comm: &mut Comm| {
            let (kept, ordered) = module3::distribution_sort_rank(
                comm,
                per_rank,
                module3::InputDist::Uniform,
                module3::BucketStrategy::Histogram { bins: 16 },
                seed,
            )?;
            Ok(if ordered { kept as f64 } else { -1.0 })
        }),
        "stencil" => World::run_with_check(cfg, move |comm: &mut Comm| {
            let field = module6::stencil_rank(comm, per_rank, 8, module6::HaloVariant::Overlapped)?;
            Ok(field.iter().sum::<f64>())
        }),
        "topk" => World::run_with_check(cfg, move |comm: &mut Comm| {
            let k = 16.min(per_rank);
            let top =
                module7::top_k_rank(comm, per_rank, k, module7::TopKStrategy::TreeMerge, seed)?;
            Ok(top.iter().sum::<f64>())
        }),
        other => panic!("the benchmark only sends known modules, got {other}"),
    };
    st.world = t.elapsed().as_secs_f64() - st.datagen;

    let t = Instant::now();
    let report = analyze(&outcome, &logs);
    let report_json = serde_json::to_string(&report).unwrap_or_else(|_| "null".into());
    st.check = t.elapsed().as_secs_f64();

    let mut result = RunResult {
        module: req.module.clone(),
        size: req.size,
        ranks: req.ranks,
        workers: req.workers_or_default() as u64,
        seed,
        backend: req.backend_or_default().to_string(),
        status: "done".into(),
        error: None,
        sim_time: 0.0,
        bytes_sent: 0,
        values: Vec::new(),
    };
    let artifacts = match outcome {
        Ok(out) => {
            result.sim_time = out.sim_time;
            result.bytes_sent = out.total_bytes_sent();
            result.values = out.values.clone();
            let t = Instant::now();
            let profile = Profile::from_run(&out, &ctx);
            let profile = serde_json::to_string(&profile).unwrap_or_else(|_| "null".into());
            st.profile = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let trace = enriched_chrome_json(&out.traces, &out.phases);
            st.trace = t.elapsed().as_secs_f64();
            Artifacts {
                status: "done".into(),
                error: None,
                result: serde_json::to_string(&result).unwrap_or_default(),
                profile,
                report: report_json,
                trace,
            }
        }
        Err(err) => {
            result.status = "failed".into();
            result.error = Some(err.to_string());
            Artifacts {
                status: "failed".into(),
                error: result.error.clone(),
                result: serde_json::to_string(&result).unwrap_or_default(),
                profile: "null".into(),
                report: report_json,
                trace: "[]".into(),
            }
        }
    };
    (artifacts, st)
}

fn artifact_bytes(a: &Artifacts) -> usize {
    a.result.len() + a.profile.len() + a.report.len() + a.trace.len()
}

/// Per-layer numbers of a traced lab pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Named values in metric units.
    pub values: Vec<(String, f64)>,
    /// Problems found while replaying (a staged execution that differs
    /// from `runner::execute`).
    pub failures: Vec<String>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replay the measured requests in-process, record spans, and derive
/// the per-layer metrics of a traced pass.
pub fn layers(kind: Kind, pass: &Pass, tracer: &mut Tracer) -> Layers {
    let mut out = Layers::default();
    let mut put = |name: &str, v: f64| out.values.push((name.to_string(), v));

    // Client-side phases, one span tree per request.
    let phase = |f: fn(&loadgen::Exchange) -> (Instant, Instant)| -> Vec<f64> {
        pass.sent
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok().map(f))
            .map(|(a, b)| ms(a, b))
            .collect()
    };
    let connect = phase(|e| (e.start, e.connected));
    let send = phase(|e| (e.connected, e.sent));
    let ttfb = phase(|e| (e.sent, e.first_byte));
    let body = phase(|e| (e.first_byte, e.end));
    for (name, xs) in [
        ("http.connect_ms", &connect),
        ("http.send_ms", &send),
        ("http.ttfb_ms", &ttfb),
        ("http.body_ms", &body),
    ] {
        put(&format!("{name}.p50"), stats::median(xs));
        put(&format!("{name}.p99"), stats::tail(xs).value);
    }
    for (i, s) in pass.sent.iter().enumerate() {
        let Ok(ex) = &s.outcome else { continue };
        let g = format!("req-{i}");
        let root = tracer.push("request", &g, None, s.due, ex.end);
        tracer.push("loadgen.late", &g, Some(root), s.due, s.began);
        tracer.push("http.connect", &g, Some(root), ex.start, ex.connected);
        tracer.push("http.send", &g, Some(root), ex.connected, ex.sent);
        tracer.push("http.ttfb", &g, Some(root), ex.sent, ex.first_byte);
        tracer.push("http.body", &g, Some(root), ex.first_byte, ex.end);
    }
    let late: Vec<f64> = pass.sent.iter().map(Sent::late_ms).collect();
    put(
        "loadgen.late_frac",
        late.iter().filter(|&&l| l > 1.0).count() as f64 / late.len().max(1) as f64,
    );
    put("loadgen.late_p99_ms", stats::tail(&late).value);
    put("loadgen.requests", pass.sent.len() as f64);

    // In-process replay of each request's service path: body parse,
    // validation, identity key, cache claim, and on a miss the execution
    // and the cache fill.
    let cache = ResultCache::new(None);
    let mut fill_us = Vec::new();
    let mut cache_bytes = 0usize;
    if kind == Kind::Hot {
        for i in 0..loadgen::HOT_IDENTITIES {
            let req = identity_request(i);
            let art = runner::execute(&req, CancelToken::new()).artifacts;
            let key = job_key(&req);
            let _ = cache.claim(key);
            cache_bytes += artifact_bytes(&art);
            let t = Instant::now();
            cache.fill(key, art);
            fill_us.push(us(t));
        }
    }
    let mut fair = FairShare::new(FairShareConfig::default());
    let (mut key_us, mut lookup_us, mut queue_us, mut residual) = (vec![], vec![], vec![], vec![]);
    let (mut exec_ms, mut artifact_sizes) = (vec![], vec![]);
    let mut totals = Stages::default();
    let mut executions = 0usize;
    let phase_start = pass.sent.first().map(|s| s.due);
    for (i, (body, s)) in pass.plan.bodies.iter().zip(&pass.sent).enumerate() {
        let g = format!("replay-{i}");
        // Service time excludes the staged copy, which the server never runs.
        let r0 = Instant::now();
        let req: RunRequest = serde_json::from_str(body).expect("the plan's own body parses");
        let invalid = runner::validate(&req);
        let t = Instant::now();
        let key = job_key(&req);
        key_us.push(us(t));
        let t = Instant::now();
        let claim = cache.claim(key);
        lookup_us.push(us(t));
        let mut service_ms = r0.elapsed().as_secs_f64() * 1e3;
        if invalid.is_none() && matches!(claim, Claim::Owner) {
            let now = phase_start.map_or(0.0, |p| s.due.duration_since(p).as_secs_f64());
            let t = Instant::now();
            let id = fair.submit(req.tenant_or_default().to_string(), 0, now);
            let _ = fair.pick(now);
            fair.finish(id, now);
            queue_us.push(us(t));
            service_ms += queue_us[queue_us.len() - 1] / 1e3;

            let t = Instant::now();
            let outcome = runner::execute(&req, CancelToken::new());
            exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
            service_ms += exec_ms[exec_ms.len() - 1];
            let e1 = Instant::now();
            let (staged, st) = staged_execute(&req);
            let e2 = Instant::now();
            if staged != outcome.artifacts {
                out.failures.push(format!(
                    "request {i}: staged replay differs from runner::execute"
                ));
            }
            tracer.push("runner.execute", &g, None, t, e1);
            let m = tracer.push("runner.staged", &g, None, e1, e2);
            let mut at = tracer.secs(e1);
            for (name, d) in [
                ("datagen", st.datagen),
                ("runner.world", st.world),
                ("runner.check", st.check),
                ("runner.profile", st.profile),
                ("runner.trace", st.trace),
            ] {
                tracer.push_secs(name, &g, Some(m), at, at + d);
                at += d;
            }
            totals.datagen += st.datagen;
            totals.world += st.world;
            totals.check += st.check;
            totals.profile += st.profile;
            totals.trace += st.trace;
            executions += 1;
            artifact_sizes.push(artifact_bytes(&outcome.artifacts) as f64);
            cache_bytes += artifact_bytes(&outcome.artifacts);
            let t = Instant::now();
            cache.fill(key, outcome.artifacts);
            fill_us.push(us(t));
            service_ms += fill_us[fill_us.len() - 1] / 1e3;
        }
        if let Ok(ex) = &s.outcome {
            residual.push(ms(ex.sent, ex.first_byte) - service_ms);
        }
    }
    let per_exec = |total: f64| total * 1e3 / executions.max(1) as f64;
    put("server.residual_ms.p50", stats::median(&residual));
    put("server.residual_ms.p99", stats::tail(&residual).value);
    put("identity.key_us", stats::median(&key_us));
    put("cache.lookup_us", stats::median(&lookup_us));
    put("cache.fill_us", stats::median(&fill_us));
    put("cache.entries", cache.len() as f64);
    put("cache.bytes", cache_bytes as f64);
    let (b, a) = &pass.stats;
    put("cache.hits", (a.cache_hits - b.cache_hits) as f64);
    put("cache.misses", (a.cache_misses - b.cache_misses) as f64);
    put("cache.coalesced", (a.coalesced - b.coalesced) as f64);
    put("runner.execute_ms.p50", stats::median(&exec_ms));
    put("runner.execute_ms.p99", stats::tail(&exec_ms).value);
    put("runner.world_ms", per_exec(totals.world));
    put("runner.check_ms", per_exec(totals.check));
    put("runner.profile_ms", per_exec(totals.profile));
    put("runner.trace_ms", per_exec(totals.trace));
    put("runner.artifact_bytes", stats::mean(&artifact_sizes));
    put("tenant.queue_us", stats::median(&queue_us));
    put("datagen_s", totals.datagen);
    put(
        "trace.unattributed_frac",
        trace::unattributed_frac(tracer.spans(), "request"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(body: &str, cache: &str) -> loadgen::Exchange {
        let t = Instant::now();
        loadgen::Exchange {
            start: t,
            connected: t,
            sent: t,
            first_byte: t,
            // Within every workload's latency limit.
            end: t + Duration::from_secs_f64(Kind::Hot.limit_ms() / 2e3),
            status: 200,
            cache: Some(cache.into()),
            body: body.into(),
        }
    }

    #[test]
    fn a_wrong_body_counts_as_failed_and_misses_the_limit() {
        let requests = vec![identity_request(0), identity_request(1)];
        let plan = Plan {
            due: vec![0.0, 0.001],
            bodies: vec![String::new(), String::new()],
            requests: requests.clone(),
        };
        let expected: BTreeMap<u64, String> = requests
            .iter()
            .map(|r| (job_key(r), format!("body-of-{}", r.module)))
            .collect();
        let now = Instant::now();
        let sent = vec![
            Sent {
                due: now,
                began: now,
                outcome: Ok(exchange(&format!("body-of-{}", requests[0].module), "hit")),
            },
            Sent {
                due: now,
                began: now,
                outcome: Ok(exchange("something else", "hit")),
            },
        ];
        let bad = check_responses(Kind::Hot, &plan, &sent, &expected);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].0, 1);
        let e2e = end_to_end(Kind::Hot, &sent, &[1]);
        assert_eq!(e2e.good, 1, "the wrong body is not goodput");
        assert_eq!(e2e.latencies.len(), 2);

        // A right body with the wrong disposition is also wrong.
        let bad = check_responses(Kind::Cold, &plan, &sent[..1], &expected);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn staged_execution_matches_the_runner() {
        for i in [0, 1, 2, 3, 4, 37] {
            let req = loadgen::cold_request(11, i);
            let (staged, st) = staged_execute(&req);
            let runner = runner::execute(&req, CancelToken::new()).artifacts;
            assert_eq!(staged, runner, "{}", req.module);
            assert!(st.world > 0.0);
        }
    }
}
