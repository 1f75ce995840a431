//! Backend equivalence: the stackless event engine must be observationally
//! identical to the thread and virtual (parked-thread) backends.
//!
//! Every scenario runs one [`StepProgram`] three ways — threads, virtual
//! ranks, and the discrete-event engine — through the *same* resumable
//! body (the blocking backends drive it via [`drive`]), then asserts that
//! results, the simulated clock (bit-for-bit), per-rank [`CommStats`], and
//! the checker event logs are byte-identical. Modules 2, 3, and 6 are the
//! real course programs (untuned, and tuned on a multi-node placement);
//! the primitive tour calls every [`StepComm`] primitive once; the fault
//! and cancellation scenarios cover the failure paths the engine replaces.

use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_mpi::{
    drive, CancelToken, CheckEvent, CheckMode, CollAlgo, Comm, CommStats, Error, FaultPlan, Op,
    Result, StepComm, StepFuture, StepProgram, TuningTable, World, WorldConfig,
};
use std::path::Path;

/// Sizes every module scenario sweeps (the ISSUE's {2, 5, 32}).
const SIZES: [usize; 3] = [2, 5, 32];

/// Render per-rank checker logs in a stable, diffable form.
fn render_log(events: &[Vec<CheckEvent>]) -> String {
    let mut out = String::new();
    for (rank, log) in events.iter().enumerate() {
        out.push_str(&format!("== rank {rank} ({} events)\n", log.len()));
        for e in log {
            out.push_str(&format!("{e:?}\n"));
        }
    }
    out
}

/// One backend's observable outcome, rendered for byte comparison.
struct Observed {
    values: String,
    sim_bits: Option<u64>,
    stats: String,
    log: String,
}

fn observe<T: std::fmt::Debug>(
    result: std::result::Result<pdc_mpi::RunOutput<T>, Error>,
    events: &[Vec<CheckEvent>],
) -> Observed {
    match result {
        Ok(out) => Observed {
            values: format!("{:?}", out.values),
            sim_bits: Some(out.sim_time.to_bits()),
            stats: format!("{:?}", out.stats),
            log: render_log(events),
        },
        Err(e) => Observed {
            values: format!("Err({e:?})"),
            sim_bits: None,
            stats: String::new(),
            log: render_log(events),
        },
    }
}

/// Run `program` on all three backends, assert byte-identical
/// observables, and return the thread backend's per-rank statistics
/// (`None` when the run failed).
fn conform<T, P>(
    name: &str,
    ranks: usize,
    cfg: impl Fn() -> WorldConfig,
    program: &P,
) -> Option<Vec<CommStats>>
where
    T: Send + std::fmt::Debug,
    P: StepProgram<T> + Sync,
{
    let body = |comm: &mut Comm| drive(comm, |sc| program.build(sc));
    let (thread_res, thread_ev) = World::run_with_check(cfg().with_check(CheckMode::Record), body);
    let (virt_res, virt_ev) = World::run_with_check(
        cfg()
            .with_virtual(2)
            .with_sched_seed(0)
            .with_check(CheckMode::Record),
        body,
    );
    let (event_res, event_ev) = World::run_event_with_check(
        cfg()
            .with_virtual(2)
            .with_sched_seed(0)
            .with_check(CheckMode::Record),
        program,
    );

    let thread_stats = thread_res.as_ref().ok().map(|out| out.stats.clone());
    let thread = observe(thread_res, &thread_ev);
    let virt = observe(virt_res, &virt_ev);
    let event = observe(event_res, &event_ev);

    for (backend, other) in [("virtual", &virt), ("event", &event)] {
        let ctx = format!("{name} p={ranks}: thread vs {backend}");
        assert_eq!(thread.values, other.values, "{ctx}: results");
        assert_eq!(thread.sim_bits, other.sim_bits, "{ctx}: sim clock");
        assert_eq!(thread.stats, other.stats, "{ctx}: CommStats");
        assert_eq!(thread.log, other.log, "{ctx}: checker event log");
    }
    thread_stats
}

#[test]
fn module2_distance_matrix_is_backend_identical() {
    let points = uniform_points(96, 4, 0.0, 100.0, 3);
    let program = DistanceMatrixProgram {
        points,
        access: Access::RowWise,
    };
    for ranks in SIZES {
        conform("module2", ranks, || WorldConfig::new(ranks), &program);
    }
}

#[test]
fn module3_distribution_sort_is_backend_identical() {
    let program = DistributionSortProgram {
        n_per_rank: 60,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 32 },
        seed: 7,
    };
    for ranks in SIZES {
        conform("module3", ranks, || WorldConfig::new(ranks), &program);
    }
}

#[test]
fn module6_stencil_is_backend_identical() {
    for variant in [HaloVariant::BlockingFirst, HaloVariant::Overlapped] {
        let program = StencilProgram {
            n_per_rank: 6,
            iters: 4,
            variant,
        };
        for ranks in SIZES {
            conform(
                &format!("module6/{variant:?}"),
                ranks,
                || WorldConfig::new(ranks),
                &program,
            );
        }
    }
}

/// Rendezvous traffic (eager threshold zero) must take the ack path on
/// every backend — the wait state the event engine models explicitly.
#[test]
fn module6_rendezvous_halos_are_backend_identical() {
    let program = StencilProgram {
        n_per_rank: 5,
        iters: 3,
        variant: HaloVariant::BlockingFirst,
    };
    for ranks in [2, 5] {
        conform(
            "module6/rendezvous",
            ranks,
            || WorldConfig::new(ranks).with_eager_threshold(0),
            &program,
        );
    }
}

/// ULFM-style recovery: rank 2 crashes at time zero inside the allreduce;
/// the casualty observes its own death, survivors agree on the failed set.
/// Every backend must report the identical outcome.
struct FaultRecovery;

impl StepProgram<(u64, Vec<(usize, u64)>)> for FaultRecovery {
    fn build<'c, 'w: 'c>(
        &'c self,
        mut sc: StepComm<'c, 'w>,
    ) -> StepFuture<'c, Result<(u64, Vec<(usize, u64)>)>> {
        Box::pin(async move {
            let mine = [sc.rank() as u64];
            match sc.allreduce(&mine, Op::Sum).await {
                Ok(v) => Ok((v[0], Vec::new())),
                Err(Error::RankFailed { rank, .. }) if rank == sc.rank() => {
                    // This rank is the casualty; model process death.
                    Ok((u64::MAX, Vec::new()))
                }
                Err(Error::RankFailed { .. }) => {
                    let failed = sc.agree().await?;
                    let failed = failed
                        .into_iter()
                        .map(|(r, at)| (r, at.to_bits()))
                        .collect();
                    Ok((0, failed))
                }
                Err(e) => Err(e),
            }
        })
    }
}

#[test]
fn fault_plan_outcome_is_backend_identical() {
    conform(
        "fault/agree",
        5,
        || WorldConfig::new(5).with_faults(FaultPlan::seeded(9).crash_rank(2, 0.0)),
        &FaultRecovery,
    );
}

/// A pre-cancelled world: the first blocking call on every backend must
/// surface the same typed [`Error::Cancelled`].
struct BlockForever;

impl StepProgram<u64> for BlockForever {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let (data, _status) = sc
                .recv::<u64, _, _>(pdc_mpi::SourceSel::Any, pdc_mpi::TagSel::Any)
                .await?;
            Ok(data.iter().sum())
        })
    }
}

#[test]
fn cancellation_outcome_is_backend_identical() {
    let cfg = || {
        let token = CancelToken::new();
        token.cancel("never admitted");
        WorldConfig::new(3).with_watchdog(None).with_cancel(token)
    };
    conform("cancel/pre-cancelled", 3, cfg, &BlockForever);
}

/// Eager/rendezvous cutover for the primitive tour, in bytes: one `u64`
/// travels eagerly, [`TOUR_BIG`] of them take the rendezvous path.
const TOUR_EAGER: usize = 64;
const TOUR_BIG: u64 = 32;

/// Every [`StepComm`] primitive once. The point-to-point phases run round
/// a ring; in the rendezvous phases rank 0 sends first and the others
/// receive first, so no phase can deadlock. Every call lands in the
/// checker log with its call site, so a primitive that logged the
/// runtime's own line on some backend breaks the log comparison.
struct PrimitiveTour;

impl StepProgram<Vec<u64>> for PrimitiveTour {
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<Vec<u64>>> {
        Box::pin(primitive_tour(sc))
    }
}

async fn primitive_tour(mut sc: StepComm<'_, '_>) -> Result<Vec<u64>> {
    let (rank, p) = (sc.rank(), sc.size());
    let (right, left) = ((rank + 1) % p, (rank + p - 1) % p);
    let small = [rank as u64];
    let big: Vec<u64> = (0..TOUR_BIG).map(|i| rank as u64 * 1000 + i).collect();
    let mut seen = Vec::new();

    // Eager send/recv: buffered, so every rank sends first.
    sc.send(&small, right, 1).await?;
    let (got, status) = sc.recv::<u64, _, _>(left, 1).await?;
    seen.extend([got[0], status.source as u64]);

    // Rendezvous send/recv.
    if rank == 0 {
        sc.send(&big, right, 2).await?;
    }
    let (got, _) = sc.recv::<u64, _, _>(left, 2).await?;
    if rank != 0 {
        sc.send(&big, right, 2).await?;
    }
    seen.push(got.iter().sum());

    // Synchronous send, met by probe / iprobe / get_count / recv_into.
    if rank == 0 {
        sc.ssend(&small, right, 3).await?;
    }
    let status = sc.probe(left, 3).await?;
    let count = sc.get_count::<u64>(&status)?;
    let peeked = sc.iprobe(left, 3)?.is_some();
    let mut buf = vec![0u64; count];
    sc.recv_into(&mut buf, left, 3).await?;
    if rank != 0 {
        sc.ssend(&small, right, 3).await?;
    }
    seen.extend([count as u64, peeked as u64, buf[0]]);

    // Nonblocking: a rendezvous isend completed by wait_send, two eager
    // ones by wait_all_sends.
    let req = sc.irecv::<u64>(left, 4)?;
    let big_send = sc.isend(&big, right, 4)?;
    let (got, _) = sc.wait_recv(req).await?;
    sc.wait_send(big_send).await?;
    let sends = vec![sc.isend(&small, right, 5)?, sc.isend(&small, right, 6)?];
    sc.wait_all_sends(sends).await?;
    let (five, _) = sc.recv::<u64, _, _>(left, 5).await?;
    let (six, _) = sc.recv::<u64, _, _>(left, 6).await?;
    seen.extend([got.iter().sum(), five[0] + six[0]]);

    // Collectives.
    sc.barrier().await?;
    let root = p - 1;
    let bcast = sc.bcast((rank == root).then_some(&big[..]), root).await?;
    let all: Vec<u64> = (0..2 * p as u64).collect();
    let mine = sc.scatter((rank == root).then_some(&all[..]), root).await?;
    let gathered = sc.gatherv(&vec![rank as u64; rank + 1], root).await?;
    let ring = sc.allgather(&small).await?;
    let reduced = sc.reduce(&big, Op::Sum, 0).await?;
    let total = sc.allreduce(&[rank as f64 + 0.25], Op::Sum).await?;
    seen.extend([
        bcast.iter().sum(),
        mine.iter().sum(),
        gathered.map_or(0, |g| g.concat().iter().sum()),
        ring.iter().sum(),
        reduced.map_or(0, |r| r.iter().sum()),
        total[0].to_bits(),
    ]);
    Ok(seen)
}

#[test]
fn primitive_tour_is_backend_identical() {
    for ranks in SIZES {
        conform(
            "tour",
            ranks,
            || WorldConfig::new(ranks).with_eager_threshold(TOUR_EAGER),
            &PrimitiveTour,
        );
    }
}

fn tuning_table() -> TuningTable {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../TUNING_mpi.json");
    TuningTable::load(&path).expect("checked-in TUNING_mpi.json loads")
}

/// Collective calls that resolved to `algo`, summed over ranks.
fn calls(stats: &[CommStats], algo: CollAlgo) -> u64 {
    stats.iter().map(|s| s.algo_volume(algo).calls).sum()
}

/// Modules 2, 3 and 6 with the checked-in tuning table on a four-node
/// placement: the tuned dispatch must be backend-identical as well.
#[test]
fn tuned_modules_are_backend_identical() {
    let table = tuning_table();
    let module2 = DistanceMatrixProgram {
        points: uniform_points(96, 4, 0.0, 100.0, 3),
        access: Access::RowWise,
    };
    let module3 = DistributionSortProgram {
        n_per_rank: 60,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 32 },
        seed: 7,
    };
    let module6 = StencilProgram {
        n_per_rank: 6,
        iters: 4,
        variant: HaloVariant::Overlapped,
    };
    let mut non_flat = 0;
    for ranks in [8, 32] {
        let cfg = || {
            WorldConfig::new(ranks)
                .on_nodes(4)
                .with_tuning(table.clone())
        };
        for stats in [
            conform("tuned/module2", ranks, cfg, &module2),
            conform("tuned/module3", ranks, cfg, &module3),
            conform("tuned/module6", ranks, cfg, &module6),
        ] {
            let stats = stats.expect("tuned module runs");
            assert!(
                CollAlgo::ALL.iter().any(|&algo| calls(&stats, algo) > 0),
                "the tuned dispatch selected no algorithm"
            );
            non_flat += calls(&stats, CollAlgo::Chunked) + calls(&stats, CollAlgo::Hierarchical);
        }
    }
    // Modules 2 and 6 reduce a single f64, for which no non-flat
    // algorithm applies; Module 3's barrier and allgather go hierarchical
    // at 32 ranks on four nodes.
    assert!(non_flat > 0, "no chunked or hierarchical collective ran");
}
