//! Schedule exploration: every core module's per-rank body, executed
//! under 16 different deterministic-scheduler seeds.
//!
//! The virtual-rank backend (`docs/scheduler.md`) makes every legal
//! interleaving reproducible from a seed. This gate sweeps the seeds and
//! asserts what the modules promise:
//!
//! * **result determinism** — all eight `*_rank` bodies return
//!   byte-identical values under every seed (wildcard receives included:
//!   their reductions are order-independent by construction);
//! * **zero new checker findings** — `pdc-check` comes back with no
//!   violations under any schedule, exactly as it does in thread mode
//!   (`tests/checker.rs`);
//! * **replay** — the same seed reproduces the same checker event log
//!   bit-for-bit, and one seed's full log is pinned as a golden file;
//! * **mode equality** — virtual-rank and thread-per-rank worlds return
//!   equal payloads for Modules 1/3/5.

use pdc_check::check_world;
use pdc_datagen::{asteroid_catalog, gaussian_mixture, random_range_queries, uniform_points};
use pdc_modules::module1::{random_comm_rank, ring_step, RingVariant};
use pdc_modules::module2::{distance_matrix_rank, Access, DistanceMatrixProgram};
use pdc_modules::module3::{
    distribution_sort_rank, BucketStrategy, DistributionSortProgram, InputDist,
};
use pdc_modules::module4::{range_queries_rank, Engine};
use pdc_modules::module5::{kmeans_rank, CommOption};
use pdc_modules::module6::{stencil_rank, HaloVariant, StencilProgram};
use pdc_modules::module7::{top_k_rank, TopKStrategy};
use pdc_modules::module8::{self_join_rank, JoinMethod};
use pdc_mpi::{CheckEvent, CheckMode, Comm, Op, Result, StepProgram, World, WorldConfig};

/// Seeds of the sweep.
const SEEDS: std::ops::Range<u64> = 0..16;

/// Worker-pool bound: small enough that batches genuinely interleave.
const WORKERS: usize = 2;

fn virtual_cfg(ranks: usize, seed: u64) -> WorldConfig {
    WorldConfig::virtual_ranks(ranks, WORKERS).with_sched_seed(seed)
}

/// Run one module body under every seed through the checker; assert no
/// violations and byte-identical (Debug-rendered) results across seeds.
fn sweep<T, F>(name: &str, ranks: usize, body: F)
where
    T: Send + std::fmt::Debug,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync + Copy,
{
    let mut rendered: Option<String> = None;
    for seed in SEEDS {
        let checked = check_world(virtual_cfg(ranks, seed), body);
        assert!(
            checked.report.is_clean(),
            "{name} seed {seed}: new checker findings under this schedule\n{}",
            checked.report.render()
        );
        let values = checked
            .result
            .unwrap_or_else(|e| panic!("{name} seed {seed}: run failed: {e}"))
            .values;
        let this = format!("{values:?}");
        match &rendered {
            None => rendered = Some(this),
            Some(first) => assert_eq!(
                first, &this,
                "{name} seed {seed}: results diverged from seed {}",
                SEEDS.start
            ),
        }
    }
}

#[test]
fn module1_random_comm_is_seed_invariant() {
    sweep("module1", 6, |comm| random_comm_rank(comm, 3, 42, true));
}

#[test]
fn module2_distance_matrix_is_seed_invariant() {
    sweep("module2", 4, |comm| {
        let points = uniform_points(120, 2, 0.0, 100.0, 3);
        distance_matrix_rank(comm, &points, Access::RowWise)
    });
}

#[test]
fn module3_distribution_sort_is_seed_invariant() {
    sweep("module3", 4, |comm| {
        distribution_sort_rank(
            comm,
            200,
            InputDist::Exponential,
            BucketStrategy::Histogram { bins: 32 },
            7,
        )
    });
}

#[test]
fn module4_range_queries_are_seed_invariant() {
    sweep("module4", 4, |comm| {
        let catalog = asteroid_catalog(600, 11);
        let queries = random_range_queries(12, 0.25, 12);
        range_queries_rank(comm, &catalog, &queries, Engine::KdTree)
    });
}

#[test]
fn module5_kmeans_is_seed_invariant() {
    sweep("module5", 4, |comm| {
        let points = gaussian_mixture(240, 2, 3, 100.0, 1.0, 5).points;
        kmeans_rank(comm, &points, 3, CommOption::WeightedMeans, 1e-9)
    });
}

#[test]
fn module6_stencil_is_seed_invariant() {
    sweep("module6", 4, |comm| {
        let u = stencil_rank(comm, 25, 12, HaloVariant::Overlapped)?;
        let local: f64 = u.iter().sum();
        let total = comm.reduce(&[local], Op::Sum, 0)?;
        Ok(total.map(|t| t[0]).unwrap_or(0.0))
    });
}

#[test]
fn module7_top_k_is_seed_invariant() {
    sweep("module7", 4, |comm| {
        top_k_rank(comm, 500, 10, TopKStrategy::TreeMerge, 9)
    });
}

#[test]
fn module8_self_join_is_seed_invariant() {
    sweep("module8", 4, |comm| {
        let points = uniform_points(400, 2, 0.0, 100.0, 13);
        self_join_rank(comm, &points, 3.0, JoinMethod::Grid)
    });
}

/// The same 16-seed sweep on the stackless event backend: every seed's
/// tie-break permutation must leave the module results byte-identical,
/// mirroring what [`sweep`] proves for the parked-thread scheduler.
fn event_sweep<T, P>(name: &str, ranks: usize, program: &P)
where
    T: Send + std::fmt::Debug,
    P: StepProgram<T> + ?Sized,
{
    let mut rendered: Option<String> = None;
    for seed in SEEDS {
        let out = World::run_event(virtual_cfg(ranks, seed), program)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: event run failed: {e}"));
        let this = format!("{:?}", out.values);
        match &rendered {
            None => rendered = Some(this),
            Some(first) => assert_eq!(
                first, &this,
                "{name} seed {seed}: event-backend results diverged from seed {}",
                SEEDS.start
            ),
        }
    }
}

#[test]
fn module2_event_backend_is_seed_invariant() {
    let program = DistanceMatrixProgram {
        points: uniform_points(120, 2, 0.0, 100.0, 3),
        access: Access::RowWise,
    };
    event_sweep("module2/event", 4, &program);
}

#[test]
fn module3_event_backend_is_seed_invariant() {
    let program = DistributionSortProgram {
        n_per_rank: 200,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 32 },
        seed: 7,
    };
    event_sweep("module3/event", 4, &program);
}

#[test]
fn module6_event_backend_is_seed_invariant() {
    let program = StencilProgram {
        n_per_rank: 25,
        iters: 12,
        variant: HaloVariant::Overlapped,
    };
    event_sweep("module6/event", 4, &program);
}

/// Render per-rank checker event logs into a stable, diffable text form.
/// `CheckEvent` derives `Debug` but not `Serialize`; the golden file pins
/// the Debug rendering, one event per line, grouped by rank.
fn render_event_log(events: &[Vec<CheckEvent>]) -> String {
    let mut out = String::new();
    for (rank, log) in events.iter().enumerate() {
        out.push_str(&format!("== rank {rank} ({} events)\n", log.len()));
        for e in log {
            out.push_str(&format!("{e:?}\n"));
        }
    }
    out
}

fn golden_run() -> (Vec<u64>, String) {
    let cfg = virtual_cfg(4, 7).with_check(CheckMode::Record);
    let (result, events) =
        World::run_with_check(cfg, |comm| ring_step(comm, RingVariant::ParityShifted));
    let out = result.expect("golden ring runs");
    (out.values, render_event_log(&events))
}

/// Same seed ⇒ bit-identical event log, pinned against the committed
/// golden file. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test sched_explore golden` after an
/// intentional change to the modules or the checker's instrumentation.
#[test]
fn golden_event_log_replays_bit_identically() {
    let (values_a, log_a) = golden_run();
    let (values_b, log_b) = golden_run();
    assert_eq!(values_a, values_b, "same seed ⇒ same results");
    assert_eq!(log_a, log_b, "same seed ⇒ bit-identical event log");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sched_event_log.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &log_a).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden event log missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test --test sched_explore golden",
    );
    assert_eq!(
        golden, log_a,
        "event log diverged from the pinned schedule (seed 7); if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Module 3's distribution sort as the golden runs pin it: 64 ranks,
/// 20 keys per rank, seed 7.
const GOLDEN_SORT: DistributionSortProgram = DistributionSortProgram {
    n_per_rank: 20,
    dist: InputDist::Exponential,
    strategy: BucketStrategy::Histogram { bins: 128 },
    seed: 7,
};

/// Render one scheduled run as a diffable text log: results, the
/// simulated clock (bit-exact), and the full resume trace, 16 entries
/// per line.
fn render_sched_log(program: &str, out: &pdc_mpi::RunOutput<(usize, bool)>) -> String {
    let mut log = String::new();
    log.push_str(&format!(
        "program: {program}, 64 ranks, n_per_rank 20, sched seed 7\n"
    ));
    log.push_str(&format!("values: {:?}\n", out.values));
    log.push_str(&format!(
        "sim_time_bits: {:#018x}\n",
        out.sim_time.to_bits()
    ));
    log.push_str(&format!("resumes: {}\n", out.sched_trace.len()));
    log.push_str("trace:\n");
    for chunk in out.sched_trace.chunks(16) {
        let line: Vec<String> = chunk.iter().map(u32::to_string).collect();
        log.push_str(&line.join(" "));
        log.push('\n');
    }
    log
}

/// Assert that `log` is reproducible and equal to the committed golden
/// file `name` (or rewrite the file under `UPDATE_GOLDEN`).
fn assert_golden(name: &str, run: impl Fn() -> String) {
    let log_a = run();
    let log_b = run();
    assert_eq!(log_a, log_b, "{name}: same seed ⇒ bit-identical trace");

    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &log_a).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden log {name} missing — regenerate with \
             UPDATE_GOLDEN=1 cargo test --test sched_explore golden"
        )
    });
    assert_eq!(
        golden, log_a,
        "{name} diverged from the pinned schedule (seed 7); if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The event engine's resume trace: the order the heap popped rank
/// wakes.
fn golden_event_run() -> String {
    let out = World::run_event(virtual_cfg(64, 7), &GOLDEN_SORT).expect("golden event run");
    render_sched_log("module3 distribution sort", &out)
}

/// The event engine's schedule is a pure function of
/// `(program, size, workers, seed)`: seed 7 at 64 ranks replays
/// bit-identically, pinned against a committed golden file. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test --test sched_explore golden` after
/// an intentional change to the engine or Module 3.
#[test]
fn golden_event_engine_trace_replays_bit_identically() {
    assert_golden("event_engine_log.txt", golden_event_run);
}

/// The parked-thread scheduler's resume trace for the same sort, run as
/// a blocking closure under `World::run`: one rank id per scheduling
/// decision.
fn golden_virtual_run() -> String {
    let p = GOLDEN_SORT;
    let out = World::run(virtual_cfg(64, 7), |comm| {
        distribution_sort_rank(comm, p.n_per_rank, p.dist, p.strategy, p.seed)
    })
    .expect("golden virtual run");
    render_sched_log("module3 distribution sort (virtual ranks, 2 workers)", &out)
}

/// The parked-thread scheduler is a pure function of
/// `(program, size, workers, seed)`: seed 7 at 64 ranks and 2 workers
/// replays bit-identically, pinned against a committed golden file.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test sched_explore
/// golden` only after an intentional change to the scheduling policy.
#[test]
fn golden_virtual_trace_replays_bit_identically() {
    assert_golden("virtual_sched_log.txt", golden_virtual_run);
}

/// Modules 1/3/5: the virtual-rank backend returns the same payloads as
/// thread mode.
#[test]
fn virtual_and_thread_mode_payloads_match() {
    fn both<T, F>(name: &str, ranks: usize, body: F)
    where
        T: Send + std::fmt::Debug,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + Copy,
    {
        let virt = World::run(virtual_cfg(ranks, 1), body).expect("virtual world");
        let thread = World::run(WorldConfig::new(ranks), body).expect("thread world");
        assert_eq!(
            format!("{:?}", virt.values),
            format!("{:?}", thread.values),
            "{name}: backends disagree"
        );
    }
    both("module1", 6, |comm| random_comm_rank(comm, 3, 42, false));
    both("module3", 4, |comm| {
        distribution_sort_rank(comm, 150, InputDist::Uniform, BucketStrategy::EqualWidth, 3)
    });
    both("module5", 4, |comm| {
        let points = gaussian_mixture(240, 2, 3, 100.0, 1.0, 5).points;
        kmeans_rank(comm, &points, 3, CommOption::ExplicitAssignment, 1e-9)
    });
}
