//! The `sweep` and `wide` workloads: the `pdc_bench::scale` points, run
//! in a fresh worker process so its `VmHWM` and CPU time are this run's
//! alone.
//!
//! The points repeat the configurations of `pdc_bench::scale` (same
//! constants, same world configs) but call `World::run` and
//! `World::run_event_with_mem` directly, because the per-layer numbers
//! need the whole `RunOutput`: the scheduler trace and the per-rank
//! `CommStats`. The output check holds the copies to the original: every
//! simulated time must equal the committed `BENCH_scale.json` bit for
//! bit, whatever the scheduling seed.

use crate::procfs::{self, Pid};
use crate::stats;
use crate::trace::{self, Tracer};
use pdc_bench::micro::{MicroResult, MicroSuite};
use pdc_bench::scale::{
    EVENT_RANKS, FIXED_NODES, M2_POINTS, RANKS_PER_NODE, SCALE_RANKS, SORT_MAX_RANKS,
    STENCIL_ELEMS, STENCIL_ITERS, TOTAL_ELEMS,
};
use pdc_datagen::{uniform_points, Dataset};
use pdc_modules::module2::{distance_matrix_rank, Access, DistanceMatrixProgram};
use pdc_modules::module3::{distribution_sort_rank, BucketStrategy, InputDist};
use pdc_modules::module6::{stencil_rank, HaloVariant, StencilProgram};
use pdc_mpi::datatype::{decode_vec, encode_slice};
use pdc_mpi::{EventMemStats, RunOutput, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// One scale point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point {
    /// Module 2 on the fixed eight-node allocation.
    Module2(usize),
    /// Module 3 distribution sort.
    Sort(usize),
    /// Module 6 stencil.
    Stencil(usize),
    /// Module 2 on the event engine at [`EVENT_RANKS`] ranks.
    Module2Event,
    /// Module 6 on the event engine at [`EVENT_RANKS`] ranks.
    StencilEvent,
}

impl Point {
    /// Metric suffix, e.g. `sort-1024` or `stencil-event`.
    pub fn name(self) -> String {
        match self {
            Point::Module2(r) => format!("module2-{r}"),
            Point::Sort(r) => format!("sort-{r}"),
            Point::Stencil(r) => format!("stencil-{r}"),
            Point::Module2Event => "module2-event".into(),
            Point::StencilEvent => "stencil-event".into(),
        }
    }

    /// `(bench, ranks)` of the matching `BENCH_scale.json` record.
    fn baseline_key(self) -> (&'static str, usize) {
        match self {
            Point::Module2(r) => ("scale_module2", r),
            Point::Sort(r) => ("scale_sort", r),
            Point::Stencil(r) => ("scale_stencil", r),
            Point::Module2Event => ("scale_module2_event", EVENT_RANKS),
            Point::StencilEvent => ("scale_stencil_event", EVENT_RANKS),
        }
    }

    /// Runs on the parked-thread virtual backend (has a scheduler trace).
    pub fn is_virtual(self) -> bool {
        !matches!(self, Point::Module2Event | Point::StencilEvent)
    }
}

/// Which world workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The 256–4096-rank parked-thread sweep.
    Sweep,
    /// The 10^5-rank event-engine points.
    Wide,
}

impl Kind {
    /// The points of one unit of work, in `run_scale_suite` order.
    pub fn points(self) -> Vec<Point> {
        match self {
            Kind::Sweep => {
                let mut pts: Vec<Point> = SCALE_RANKS.iter().map(|&r| Point::Module2(r)).collect();
                pts.extend(
                    SCALE_RANKS
                        .iter()
                        .filter(|&&r| r <= SORT_MAX_RANKS)
                        .map(|&r| Point::Sort(r)),
                );
                pts.extend(SCALE_RANKS.iter().map(|&r| Point::Stencil(r)));
                pts
            }
            Kind::Wide => vec![Point::Module2Event, Point::StencilEvent],
        }
    }

    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Wide => "wide",
        }
    }
}

/// Worker-pool bound of the virtual backend: the machine's `nproc`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn virtual_cfg(ranks: usize, nodes: usize, seed: u64) -> WorldConfig {
    WorldConfig::virtual_ranks(ranks, workers())
        .with_sched_seed(seed)
        .on_nodes(nodes)
}

fn cfg_for(p: Point, seed: u64) -> WorldConfig {
    match p {
        Point::Module2(r) => virtual_cfg(r, FIXED_NODES, seed),
        Point::Sort(r) | Point::Stencil(r) => virtual_cfg(r, r / RANKS_PER_NODE, seed),
        Point::Module2Event => virtual_cfg(EVENT_RANKS, FIXED_NODES, seed),
        Point::StencilEvent => {
            virtual_cfg(EVENT_RANKS, (EVENT_RANKS / RANKS_PER_NODE).max(1), seed)
        }
    }
}

/// What one world run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointRun {
    /// [`Point::name`].
    pub name: String,
    /// Simulated makespan, microseconds.
    pub sim_us: f64,
    /// Wall seconds inside the `World` call.
    pub wall_s: f64,
    /// User CPU seconds of the process around the call.
    pub cpu_user_s: f64,
    /// System CPU seconds of the process around the call.
    pub cpu_sys_s: f64,
    /// Scheduling decisions (`sched_trace.len()`).
    pub decisions: u64,
    /// Messages received, summed over ranks.
    pub msgs: u64,
    /// Messages sent, summed over ranks.
    pub msgs_sent: u64,
    /// Bytes sent, summed over ranks.
    pub bytes_sent: u64,
    /// Event-engine rank resumes (0 on the virtual backend).
    pub events: u64,
    /// Event-engine bytes per rank (0 on the virtual backend).
    pub bytes_per_rank: u64,
}

/// Run point `p` once.
pub fn run_point(p: Point, points: &Dataset, seed: u64) -> Result<PointRun, String> {
    let cfg = cfg_for(p, seed);
    let cpu0 = procfs::cpu(Pid::Current).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    // Each arm keeps the rank return type of `pdc_bench::scale`, so the
    // output held until teardown is the same.
    match p {
        Point::Module2(_) => finish(
            p,
            World::run(cfg, |comm| {
                distance_matrix_rank(comm, points, Access::RowWise)
            }),
            None,
            t0,
            cpu0,
        ),
        Point::Sort(r) => finish(
            p,
            World::run(cfg, |comm| {
                distribution_sort_rank(
                    comm,
                    TOTAL_ELEMS / r,
                    InputDist::Uniform,
                    BucketStrategy::Histogram { bins: 4 * r },
                    7,
                )
            }),
            None,
            t0,
            cpu0,
        ),
        Point::Stencil(r) => finish(
            p,
            World::run(cfg, |comm| {
                stencil_rank(
                    comm,
                    STENCIL_ELEMS / r,
                    STENCIL_ITERS,
                    HaloVariant::BlockingFirst,
                )
            }),
            None,
            t0,
            cpu0,
        ),
        Point::Module2Event => {
            let program = DistanceMatrixProgram {
                points: points.clone(),
                access: Access::RowWise,
            };
            let (out, mem) = World::run_event_with_mem(cfg, &program);
            finish(p, out, Some(mem), t0, cpu0)
        }
        Point::StencilEvent => {
            // Fixed per-rank slab, as in `event_stencil_point`.
            let program = StencilProgram {
                n_per_rank: 16,
                iters: 4,
                variant: HaloVariant::BlockingFirst,
            };
            let (out, mem) = World::run_event_with_mem(cfg, &program);
            finish(p, out, Some(mem), t0, cpu0)
        }
    }
}

fn finish<T>(
    p: Point,
    out: pdc_mpi::Result<RunOutput<T>>,
    mem: Option<EventMemStats>,
    t0: Instant,
    cpu0: procfs::Cpu,
) -> Result<PointRun, String> {
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu(Pid::Current)
        .map_err(|e| e.to_string())?
        .since(cpu0);
    let out = out.map_err(|e| format!("{}: {e}", p.name()))?;
    let total = out.total_stats();
    Ok(PointRun {
        name: p.name(),
        sim_us: out.sim_time * 1e6,
        wall_s,
        cpu_user_s: cpu.user,
        cpu_sys_s: cpu.sys,
        decisions: out.sched_trace.len() as u64,
        msgs: total.msgs_received,
        msgs_sent: total.msgs_sent,
        bytes_sent: total.bytes_sent,
        events: mem.map_or(0, |m| m.events),
        bytes_per_rank: mem.map_or(0, |m| m.bytes_per_rank as u64),
    })
}

/// Wall seconds of point `p`'s world with a body that returns at once:
/// spawn, mesh and teardown only.
pub fn run_empty(p: Point, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    World::run(cfg_for(p, seed), |_comm| Ok(0.0f64)).map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Encode/decode replay of one point's traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CodecRun {
    /// Bytes replayed.
    pub bytes: u64,
    /// Seconds in `encode_slice`.
    pub encode_s: f64,
    /// Seconds in `decode_vec`.
    pub decode_s: f64,
}

/// Replay `encode_slice`/`decode_vec` on `f64` payloads of the point's
/// mean message size (all three modules send `f64` data), for
/// `bytes_sent` bytes clamped to [1 MiB, 64 MiB].
pub fn replay_codec(run: &PointRun) -> CodecRun {
    let msg_bytes = (run.bytes_sent / run.msgs_sent.max(1)).max(8);
    let elems = (msg_bytes / 8) as usize;
    let target = run.bytes_sent.clamp(1 << 20, 64 << 20);
    let reps = (target / (elems as u64 * 8)).max(1);
    let data: Vec<f64> = (0..elems).map(|i| i as f64).collect();
    let payload = encode_slice(&data);
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(encode_slice(black_box(&data)));
    }
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(decode_vec::<f64>(black_box(&payload)));
    }
    let decode_s = t0.elapsed().as_secs_f64();
    CodecRun {
        bytes: reps * elems as u64 * 8,
        encode_s,
        decode_s,
    }
}

/// One unit of work: every point of the workload once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitRun {
    /// Wall seconds of the unit.
    pub wall_s: f64,
    /// CPU seconds (user + sys) of the worker process during the unit.
    pub cpu_s: f64,
    /// The unit's points, in order.
    pub points: Vec<PointRun>,
}

/// A named number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Named {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
}

/// Everything a worker process reports to the benchmark process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Seconds generating inputs.
    pub datagen_s: f64,
    /// Measured units, in order.
    pub units: Vec<UnitRun>,
    /// `VmHWM` of the worker after the measured phase.
    pub peak_rss_bytes: u64,
    /// World runs that failed or produced a wrong simulated time.
    pub failures: Vec<String>,
    /// Empty-world wall seconds per virtual point (traced runs only).
    pub empty_world_s: Vec<Named>,
    /// Codec replays, one per point (traced runs only).
    pub codec: Vec<CodecRun>,
    /// Unattributed share of the unit spans (traced runs only).
    pub unattributed_frac: f64,
    /// Seconds spent recording spans over the seconds of the measured
    /// units (traced runs only).
    pub trace_overhead_frac: f64,
}

/// Simulated times of the committed baseline, keyed by `(bench, ranks)`.
pub struct Baseline(Vec<MicroResult>);

impl Baseline {
    /// Parse `BENCH_scale.json`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let suite: MicroSuite =
            serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
        Ok(Baseline(suite.results))
    }

    fn sim_us(&self, p: Point) -> Option<f64> {
        let (bench, ranks) = p.baseline_key();
        self.0
            .iter()
            .find(|r| r.bench == bench && r.ranks == ranks)
            .map(|r| r.p50_us)
    }
}

/// Output check of one unit: every simulated time bit-equal to the
/// baseline, and the strong-scaling shape markers empty. Returns one
/// message per wrong point (a broken shape fails every point).
pub fn check_unit(kind: Kind, unit: &UnitRun, base: &Baseline) -> Vec<String> {
    let mut bad = Vec::new();
    for (p, run) in kind.points().into_iter().zip(&unit.points) {
        match base.sim_us(p) {
            Some(want) if want.to_bits() == run.sim_us.to_bits() => {}
            Some(want) => bad.push(format!(
                "{}: simulated {} µs, baseline {} µs",
                run.name, run.sim_us, want
            )),
            None => bad.push(format!("{}: no baseline record", run.name)),
        }
    }
    let suite = MicroSuite {
        suite: "pdc-mpi-scale".into(),
        mode: "sim".into(),
        results: kind
            .points()
            .into_iter()
            .zip(&unit.points)
            .map(|(p, run)| {
                let (bench, ranks) = p.baseline_key();
                MicroResult {
                    bench: bench.into(),
                    ranks,
                    payload_bytes: 0,
                    iters: 1,
                    p50_us: run.sim_us,
                    p95_us: run.sim_us,
                    mean_us: run.sim_us,
                    mb_per_s: None,
                    drop_rate: None,
                    sched_seed: None,
                    backend: None,
                    bytes_per_rank: None,
                }
            })
            .collect(),
    };
    let markers = suite.shape_markers();
    if !markers.is_empty() {
        bad.extend(
            unit.points
                .iter()
                .map(|r| format!("{}: shape check failed: {}", r.name, markers.join("; "))),
        );
    }
    bad
}

/// Arguments of a worker process.
pub struct WorkerArgs {
    /// Which workload.
    pub kind: Kind,
    /// Scheduling seed.
    pub seed: u64,
    /// Measure at least this long (whole units, at least one).
    pub seconds: f64,
    /// Record spans and run the per-layer extras.
    pub trace: bool,
    /// Exit after set-up (set-up timing runs).
    pub setup_only: bool,
    /// Path of `BENCH_scale.json`.
    pub baseline: String,
    /// Where a traced run writes its spans.
    pub trace_out: Option<String>,
}

/// Body of a worker process. Prints `ready` once set up, then (unless
/// `setup_only`) the [`WorkerReport`] as one JSON line.
pub fn worker_main(args: &WorkerArgs) -> Result<(), String> {
    let epoch = Instant::now();
    let base = Baseline::load(&args.baseline)?;
    let t0 = Instant::now();
    let points = uniform_points(M2_POINTS, 8, 0.0, 100.0, 42);
    let datagen_s = t0.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(epoch);
    tracer.push("datagen", "setup", None, t0, Instant::now());
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready")
        .and_then(|_| stdout.flush())
        .map_err(|e| e.to_string())?;
    if args.setup_only {
        return Ok(());
    }

    let mut units = Vec::new();
    let mut failures = Vec::new();
    let phase = Instant::now();
    loop {
        let unit_no = units.len();
        let cpu0 = procfs::cpu(Pid::Current).map_err(|e| e.to_string())?;
        let u0 = Instant::now();
        let mut runs = Vec::new();
        let mut spans = Vec::new();
        for p in args.kind.points() {
            let w0 = Instant::now();
            match run_point(p, &points, args.seed) {
                Ok(run) => runs.push(run),
                Err(e) => return Err(format!("world failed: {e}")),
            }
            spans.push((p.name(), w0, Instant::now()));
        }
        let u1 = Instant::now();
        let cpu = procfs::cpu(Pid::Current)
            .map_err(|e| e.to_string())?
            .since(cpu0);
        if args.trace {
            let group = format!("unit-{unit_no}");
            let root = tracer.push("unit", &group, None, u0, u1);
            for (name, a, b) in spans {
                tracer.push("engine.world", &format!("{group}/{name}"), Some(root), a, b);
            }
        }
        let unit = UnitRun {
            wall_s: (u1 - u0).as_secs_f64(),
            cpu_s: cpu.total(),
            points: runs,
        };
        failures.extend(check_unit(args.kind, &unit, &base));
        units.push(unit);
        if phase.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_rss_bytes = procfs::vm_hwm_bytes(Pid::Current).map_err(|e| e.to_string())?;

    let mut empty_world_s = Vec::new();
    let mut codec = Vec::new();
    if args.trace {
        for (p, run) in args.kind.points().into_iter().zip(&units[0].points) {
            if p.is_virtual() {
                let a = Instant::now();
                let wall = run_empty(p, args.seed)?;
                tracer.push("engine.empty_world", &p.name(), None, a, Instant::now());
                empty_world_s.push(Named {
                    name: p.name(),
                    value: wall,
                });
            }
            let a = Instant::now();
            codec.push(replay_codec(run));
            tracer.push("codec.replay", &p.name(), None, a, Instant::now());
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, tracer.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    let phase_s: f64 = units.iter().map(|u| u.wall_s).sum();
    let report = WorkerReport {
        datagen_s,
        peak_rss_bytes,
        failures,
        empty_world_s,
        codec,
        unattributed_frac: trace::unattributed_frac(tracer.spans(), "unit"),
        trace_overhead_frac: if args.trace {
            tracer.cost_s() / phase_s
        } else {
            0.0
        },
        units,
    };
    let line = serde_json::to_string(&report).map_err(|e| format!("{e:?}"))?;
    writeln!(stdout, "{line}")
        .and_then(|_| stdout.flush())
        .map_err(|e| e.to_string())
}

/// Median over units of `f(unit)`.
pub fn unit_median(units: &[UnitRun], f: impl Fn(&UnitRun) -> f64) -> f64 {
    stats::median(&units.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_has_the_scale_suite_points() {
        let names: Vec<String> = Kind::Sweep.points().into_iter().map(Point::name).collect();
        assert_eq!(
            names,
            [
                "module2-256",
                "module2-1024",
                "module2-4096",
                "sort-256",
                "sort-1024",
                "stencil-256",
                "stencil-1024",
                "stencil-4096"
            ]
        );
    }

    fn unit_with(sim: &[(Point, f64)]) -> UnitRun {
        UnitRun {
            wall_s: 1.0,
            cpu_s: 1.0,
            points: sim
                .iter()
                .map(|&(p, sim_us)| PointRun {
                    name: p.name(),
                    sim_us,
                    wall_s: 0.5,
                    cpu_user_s: 0.0,
                    cpu_sys_s: 0.0,
                    decisions: 0,
                    msgs: 0,
                    msgs_sent: 0,
                    bytes_sent: 0,
                    events: 0,
                    bytes_per_rank: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn a_simulated_time_one_ulp_off_is_a_failure() {
        let record = |bench: &str, us: f64| MicroResult {
            bench: bench.into(),
            ranks: EVENT_RANKS,
            payload_bytes: 0,
            iters: 1,
            p50_us: us,
            p95_us: us,
            mean_us: us,
            mb_per_s: None,
            drop_rate: None,
            sched_seed: None,
            backend: None,
            bytes_per_rank: None,
        };
        let base = Baseline(vec![
            record("scale_module2_event", 100.0),
            record("scale_stencil_event", 7.0),
        ]);
        let good = unit_with(&[(Point::Module2Event, 100.0), (Point::StencilEvent, 7.0)]);
        assert!(check_unit(Kind::Wide, &good, &base).is_empty());
        let off = f64::from_bits(7.0f64.to_bits() + 1);
        let bad = unit_with(&[(Point::Module2Event, 100.0), (Point::StencilEvent, off)]);
        let msgs = check_unit(Kind::Wide, &bad, &base);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("stencil-event"));
    }

    #[test]
    fn codec_replay_covers_the_clamped_volume() {
        let mut run = unit_with(&[(Point::Sort(256), 1.0)]).points.remove(0);
        run.bytes_sent = 10 << 20;
        run.msgs_sent = 1280;
        let c = replay_codec(&run);
        assert!(c.bytes >= 9 << 20 && c.bytes <= 10 << 20, "{}", c.bytes);
        assert!(c.encode_s > 0.0 && c.decode_s > 0.0);
    }
}
