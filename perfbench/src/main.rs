//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload sweep|wide|lab-hot|lab-cold --seed N --seconds S --trace 0|1
//!           [--lab-bin PATH] [--baseline BENCH_scale.json] [--out-dir DIR]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics, traced runs
//! the per-layer ones. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Every output
//! is checked; the exit code is 1 when a check failed. `perfbench/run.py`
//! builds the program and the `pdc_lab` binary, then runs this.

mod lab;
mod loadgen;
mod metrics;
mod procfs;
mod stats;
mod trace;
mod worlds;

use metrics::{point_metric, Metric, Values};
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use worlds::{Kind, WorkerReport};

/// Set-ups timed per `sweep`/`wide` run (worker processes started),
/// half before the measured phase and half after it.
const WORLD_SETUPS: usize = 41;

/// Set-ups timed per lab run (servers started), half before the
/// measured phase and half after it.
const LAB_SETUPS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lab_bin: PathBuf,
    baseline: String,
    out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    values: Values,
    notes: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        lab_bin: PathBuf::from(".bench_build/release/pdc_lab"),
        baseline: "BENCH_scale.json".into(),
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--lab-bin" => a.lab_bin = value()?.into(),
            "--baseline" => a.baseline = value()?,
            "--out-dir" => a.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return worker(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep" => world_workload(Kind::Sweep, &args),
        "wide" => world_workload(Kind::Wide, &args),
        "lab-hot" => lab_workload(lab::Kind::Hot, &args),
        "lab-cold" => lab_workload(lab::Kind::Cold, &args),
        other => Err(format!(
            "unknown workload {other:?} (sweep, wide, lab-hot, lab-cold)"
        )),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let values = match outcome.values.complete(&table) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&args, &outcome, &values)
}

fn report(args: &Args, outcome: &Outcome, values: &[(Metric, f64)]) -> ExitCode {
    let failed = outcome.failures.len().min(outcome.attempted);
    let correct = outcome.failures.is_empty();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (m, v) in values {
        println!("  {:<34} {v} {}", m.name, m.unit);
    }
    println!(
        "  {:<34} {} frac ({failed} of {})",
        "failed_frac",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for f in outcome.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    let body: Vec<String> = values
        .iter()
        .map(|(m, v)| format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", m.name, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(args: &Args) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    Ok(args
        .out_dir
        .join(format!("{}-seed{}-trace.json", args.workload, args.seed)))
}

// ---------------------------------------------------------------------------
// sweep / wide

fn worker(argv: &[String]) -> ExitCode {
    // worker <kind> <seed> <seconds> <trace 0|1> <setup-only 0|1> <baseline> <trace-out>
    let parsed = (|| -> Option<worlds::WorkerArgs> {
        let kind = match argv.first()?.as_str() {
            "sweep" => Kind::Sweep,
            "wide" => Kind::Wide,
            _ => return None,
        };
        Some(worlds::WorkerArgs {
            kind,
            seed: argv.get(1)?.parse().ok()?,
            seconds: argv.get(2)?.parse().ok()?,
            trace: argv.get(3)? == "1",
            setup_only: argv.get(4)? == "1",
            baseline: argv.get(5)?.clone(),
            trace_out: argv.get(6).filter(|p| !p.is_empty()).cloned(),
        })
    })();
    let Some(args) = parsed else {
        eprintln!("perfbench worker: bad arguments {argv:?}");
        return ExitCode::from(2);
    };
    match worlds::worker_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Start a fresh worker process. Returns the seconds from spawn until it
/// reported `ready`, and its report unless `setup_only`.
fn spawn_worker(
    kind: Kind,
    args: &Args,
    trace: bool,
    setup_only: bool,
) -> Result<(f64, Option<WorkerReport>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_out = if trace {
        trace_path(args)?.display().to_string()
    } else {
        String::new()
    };
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("worker")
        .arg(kind.name())
        .arg(args.seed.to_string())
        .arg(args.seconds.to_string())
        .arg(if trace { "1" } else { "0" })
        .arg(if setup_only { "1" } else { "0" })
        .arg(&args.baseline)
        .arg(trace_out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    let read = out.read_line(&mut first);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = read.and_then(|_| out.read_to_string(&mut rest));
    let status = child.wait().map_err(|e| e.to_string())?;
    read.map_err(|e| format!("read worker output: {e}"))?;
    if !status.success() || first.trim() != "ready" {
        return Err(format!("worker exited with {status}"));
    }
    if setup_only {
        return Ok((setup_s, None));
    }
    let line = rest.lines().last().ok_or("worker printed no report")?;
    let report = serde_json::from_str(line).map_err(|e| format!("parse worker report: {e:?}"))?;
    Ok((setup_s, Some(report)))
}

fn world_workload(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    if !args.trace {
        // Set-ups on both sides of the phase, so their median covers
        // the whole run rather than its first moments.
        let mut setups = Vec::new();
        for _ in 0..WORLD_SETUPS / 2 {
            setups.push(spawn_worker(kind, args, false, true)?.0);
        }
        let (setup_s, report) = spawn_worker(kind, args, false, false)?;
        setups.push(setup_s);
        while setups.len() < WORLD_SETUPS {
            setups.push(spawn_worker(kind, args, false, true)?.0);
        }
        let rep = report.expect("a full worker run reports");
        world_end_to_end(&rep, &setups, &mut o);
        o.attempted = rep.units.iter().map(|u| u.points.len()).sum();
        o.failures = rep.failures;
        return Ok(o);
    }
    let (_, rep) = spawn_worker(kind, args, true, false)?;
    let rep = rep.expect("a full worker run reports");
    world_layers(kind, &rep, &mut o.values);
    o.values.set("trace.overhead_frac", rep.trace_overhead_frac);
    o.attempted = rep.units.iter().map(|u| u.points.len()).sum();
    o.failures = rep.failures;
    o.notes
        .push(format!("spans written to {}", trace_path(args)?.display()));
    Ok(o)
}

fn world_end_to_end(rep: &WorkerReport, setups: &[f64], o: &mut Outcome) {
    let v = &mut o.values;
    v.set("wall_s", worlds::unit_median(&rep.units, |u| u.wall_s));
    v.set("setup_s", stats::median(setups));
    v.set("peak_rss_bytes", rep.peak_rss_bytes as f64);
    v.set("cpu_s", worlds::unit_median(&rep.units, |u| u.cpu_s));
    let worlds_ms: Vec<f64> = rep
        .units
        .iter()
        .flat_map(|u| &u.points)
        .map(|p| p.wall_s * 1e3)
        .collect();
    let tail = stats::tail(&worlds_ms);
    let phase_s: f64 = rep.units.iter().map(|u| u.wall_s).sum();
    let good = worlds_ms.len().saturating_sub(rep.failures.len());
    v.set("goodput_rps", good as f64 / phase_s);
    o.notes.push(format!(
        "{} units; world wall time: p50 = {} ms, and by the ten-beyond rule p{} = {} ms, of {} \
         worlds; setup_s is the median of {} worker starts",
        rep.units.len(),
        stats::median(&worlds_ms),
        tail.pct,
        tail.value,
        tail.n,
        setups.len()
    ));
}

fn world_layers(kind: Kind, rep: &WorkerReport, v: &mut Values) {
    let first = &rep.units[0];
    let (mut world_s, mut virt_s, mut event_s) = (0.0, 0.0, 0.0);
    let (mut decisions, mut events, mut msgs, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for (i, p) in kind.points().into_iter().enumerate() {
        let run = &first.points[i];
        let wall = worlds::unit_median(&rep.units, |u| u.points[i].wall_s);
        world_s += wall;
        v.set(point_metric("engine.world_s", p), wall);
        v.set(point_metric("mailbox.msgs", p), run.msgs as f64);
        if p.is_virtual() {
            virt_s += wall;
            decisions += run.decisions;
            v.set(point_metric("engine.decisions", p), run.decisions as f64);
        } else {
            event_s += wall;
            v.set(point_metric("engine.events", p), run.events as f64);
            v.set(
                point_metric("engine.bytes_per_rank", p),
                run.bytes_per_rank as f64,
            );
        }
        events += run.events;
        msgs += run.msgs;
        bytes += run.bytes_sent;
    }
    for e in &rep.empty_world_s {
        v.set(format!("engine.empty_world_s.{}", e.name), e.value);
    }
    let per_s = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
    v.set("engine.world_s", world_s);
    v.set(
        "engine.cpu_user_s",
        worlds::unit_median(&rep.units, |u| u.points.iter().map(|p| p.cpu_user_s).sum()),
    );
    v.set(
        "engine.cpu_sys_s",
        worlds::unit_median(&rep.units, |u| u.points.iter().map(|p| p.cpu_sys_s).sum()),
    );
    v.set("engine.decisions", decisions as f64);
    v.set("engine.decisions_per_s", per_s(decisions, virt_s));
    v.set("engine.events", events as f64);
    v.set("engine.events_per_s", per_s(events, event_s));
    v.set("mailbox.msgs", msgs as f64);
    v.set("mailbox.msgs_per_s", per_s(msgs, world_s));
    v.set("codec.bytes", bytes as f64);
    let replayed: u64 = rep.codec.iter().map(|c| c.bytes).sum();
    let enc: f64 = rep.codec.iter().map(|c| c.encode_s).sum();
    let dec: f64 = rep.codec.iter().map(|c| c.decode_s).sum();
    v.set("codec.encode_gbps", per_s(replayed, enc) / 1e9);
    v.set("codec.decode_gbps", per_s(replayed, dec) / 1e9);
    v.set("datagen_s", rep.datagen_s);
    v.set("trace.unattributed_frac", rep.unattributed_frac);
}

// ---------------------------------------------------------------------------
// lab-hot / lab-cold

/// Check a pass; returns the failure messages and the wrong requests.
fn check_pass(kind: lab::Kind, pass: &lab::Pass) -> (Vec<String>, Vec<usize>) {
    let expected = lab::expected_bodies(&pass.plan.requests);
    let (wrong, mut bad): (Vec<usize>, Vec<String>) =
        lab::check_responses(kind, &pass.plan, &pass.sent, &expected)
            .into_iter()
            .unzip();
    bad.extend(lab::check_stats(kind, pass.sent.len(), &pass.stats));
    (bad, wrong)
}

fn lab_workload(kind: lab::Kind, args: &Args) -> Result<Outcome, String> {
    if !args.lab_bin.is_file() {
        return Err(format!("no pdc_lab binary at {}", args.lab_bin.display()));
    }
    let mut o = Outcome::default();
    if !args.trace {
        let pass = lab::run_pass(kind, &args.lab_bin, args.seed, args.seconds, LAB_SETUPS)?;
        let (bad, wrong) = check_pass(kind, &pass);
        let e2e = lab::end_to_end(kind, &pass.sent, &wrong);
        let tail = stats::tail(&e2e.latencies);
        let v = &mut o.values;
        v.set("wall_s", pass.wall_s);
        v.set("setup_s", stats::median(&pass.setups));
        v.set("peak_rss_bytes", pass.peak_rss_bytes as f64);
        v.set("cpu_s", pass.cpu_s);
        v.set("goodput_rps", e2e.good as f64 / pass.wall_s);
        o.notes.push(format!(
            "{} requests at {} req/s (open loop, {} connections); latency from the due time: \
             p50 = {} ms, and by the ten-beyond rule p{} = {} ms, of {} samples; latency limit \
             {} ms; setup_s is the median of {} server starts",
            pass.sent.len(),
            kind.rate(),
            loadgen::THREADS,
            stats::median(&e2e.latencies),
            tail.pct,
            tail.value,
            tail.n,
            kind.limit_ms(),
            pass.setups.len()
        ));
        o.attempted = pass.sent.len();
        o.failures = bad;
        return Ok(o);
    }
    let pass = lab::run_pass(kind, &args.lab_bin, args.seed, args.seconds, 1)?;
    let (bad, _) = check_pass(kind, &pass);
    o.attempted = pass.sent.len();
    o.failures = bad;
    let mut tracer = trace::Tracer::new(pass.sent.first().map_or_else(Instant::now, |s| s.due));
    let layers = lab::layers(kind, &pass, &mut tracer);
    for (name, value) in layers.values {
        o.values.set(name, value);
    }
    o.failures.extend(layers.failures);
    // The spans are built after the phase from timestamps the untraced
    // run takes too, so the phase itself runs as untraced.
    o.values
        .set("trace.overhead_frac", tracer.cost_s() / pass.wall_s);
    let path = trace_path(args)?;
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    o.notes.push(format!("spans written to {}", path.display()));
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_metric_is_in_the_table() {
        let table = metrics::per_layer();
        for kind in [Kind::Sweep, Kind::Wide] {
            for p in kind.points() {
                let name = point_metric("engine.world_s", p);
                assert!(table.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload wide --seed 7 --seconds 12 --trace 1")).expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wide", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }
}
