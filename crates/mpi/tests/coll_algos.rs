//! Algorithm-equivalence tests for the tuned collectives: every
//! [`CollAlgo`] variant must produce results *byte-identical* to the seed
//! flat algorithm — across operators, datatypes, rank counts, multi-node
//! placements, and scheduler seeds — and a tuning table must change only
//! the schedule, never the bytes. See `docs/collectives.md` for why each
//! variant can promise bit-equality (chunked reduces reuse the flat tree
//! and fold order; hierarchical reduces are gated on
//! `Reducible::exact_reassoc`).

use pdc_cluster::{Placement, PlacementPolicy};
use pdc_mpi::tune::{resolve, CollKind, PlacementLayout, SizeClass};
use pdc_mpi::{CollAlgo, Op, Reducible, RunOutput, TuningTable, World, WorldConfig};
use std::path::Path;
use std::sync::Arc;

/// Workers behind the virtual-rank scheduler in every test world.
const WORKERS: usize = 4;

/// (ranks, nodes) placements: single node, uneven multi-node, and the
/// tuner's own topologies. 2–64 ranks.
const TOPOS: [(usize, usize); 6] = [(2, 1), (5, 2), (8, 4), (16, 4), (33, 8), (64, 8)];

/// Payload length in elements, sized so 8-byte types cross the chunking
/// threshold (2 × 64 KiB) with a remainder chunk.
const BIG: usize = 20_000;

fn world(ranks: usize, nodes: usize, seed: u64) -> WorldConfig {
    WorldConfig::new(ranks)
        .on_nodes(nodes)
        .with_virtual(WORKERS)
        .with_sched_seed(seed)
        .without_tuning()
}

fn table() -> TuningTable {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../TUNING_mpi.json");
    TuningTable::load(&path).expect("checked-in TUNING_mpi.json loads")
}

/// Deterministic per-rank f64 payload with non-trivial mantissas, so any
/// re-association of a Sum would actually flip low bits.
fn f64_payload(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((rank * 2654435761 + i * 40503 + 7) % 100_003) as f64 * 1.0e-3 + 1.0)
        .collect()
}

fn u64_payload(rank: usize, len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| (rank as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (i as u64) << 7)
        .collect()
}

fn i32_payload(rank: usize, len: usize) -> Vec<i32> {
    (0..len)
        .map(|i| ((rank * 31 + i * 17) as i32).wrapping_sub(5000))
        .collect()
}

/// Run one world where every rank allreduces the three payload types
/// under `algo` (or the seed flat path when `None`), returning each
/// rank's results as raw bits.
fn allreduce_bits(
    ranks: usize,
    nodes: usize,
    seed: u64,
    op: Op,
    algo: Option<CollAlgo>,
) -> Vec<(Vec<u64>, Vec<u64>, Vec<i32>)> {
    let out = World::run(world(ranks, nodes, seed), move |comm| {
        let f = f64_payload(comm.rank(), BIG);
        let u = u64_payload(comm.rank(), BIG);
        let i = i32_payload(comm.rank(), 2 * BIG);
        let (fr, ur, ir) = match algo {
            None => (
                comm.allreduce(&f, op)?,
                comm.allreduce(&u, op)?,
                comm.allreduce(&i, op)?,
            ),
            Some(a) => (
                comm.allreduce_algo(&f, op, a)?,
                comm.allreduce_algo(&u, op, a)?,
                comm.allreduce_algo(&i, op, a)?,
            ),
        };
        Ok((fr.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(), ur, ir))
    })
    .expect("world");
    out.values
}

#[test]
fn allreduce_algos_bitwise_match_flat_across_topologies() {
    for &(ranks, nodes) in &TOPOS {
        for op in [Op::Sum, Op::Prod, Op::Min, Op::Max] {
            let reference = allreduce_bits(ranks, nodes, 0, op, None);
            for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
                let got = allreduce_bits(ranks, nodes, 0, op, Some(algo));
                assert_eq!(
                    got, reference,
                    "allreduce {op:?} via {algo:?} diverged from flat at {ranks}r/{nodes}n"
                );
            }
        }
    }
}

#[test]
fn allreduce_algos_bitwise_stable_under_sched_seeds() {
    let (ranks, nodes) = (16, 4);
    let reference = allreduce_bits(ranks, nodes, 0, Op::Sum, None);
    for seed in 0..16u64 {
        for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
            let got = allreduce_bits(ranks, nodes, seed, Op::Sum, Some(algo));
            assert_eq!(
                got, reference,
                "allreduce Sum via {algo:?} diverged under sched seed {seed}"
            );
        }
    }
}

#[test]
fn bcast_and_reduce_algos_bitwise_match_flat() {
    // Non-zero root exercises the chain rotation in the pipelined bcast
    // and the vrank remapping in the chunked reduce.
    for &(ranks, nodes) in &[(5usize, 2usize), (16, 4), (64, 8)] {
        let root = 3 % ranks;
        let reference: Vec<(Vec<u64>, Option<Vec<u64>>)> =
            World::run(world(ranks, nodes, 0), move |comm| {
                let f = f64_payload(comm.rank(), BIG);
                let seen = comm.bcast(
                    if comm.rank() == root {
                        Some(&f[..])
                    } else {
                        None
                    },
                    root,
                )?;
                let red = comm.reduce(&f, Op::Sum, root)?;
                Ok((
                    seen.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                    red.map(|v| v.iter().map(|x| x.to_bits()).collect()),
                ))
            })
            .expect("world")
            .values;
        for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
            let got = World::run(world(ranks, nodes, 0), move |comm| {
                let f = f64_payload(comm.rank(), BIG);
                let seen = comm.bcast_algo(
                    if comm.rank() == root {
                        Some(&f[..])
                    } else {
                        None
                    },
                    root,
                    algo,
                )?;
                let red = comm.reduce_algo(&f, Op::Sum, root, algo)?;
                Ok((
                    seen.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                    red.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()),
                ))
            })
            .expect("world")
            .values;
            assert_eq!(
                got, reference,
                "bcast/reduce via {algo:?} diverged from flat at {ranks}r/{nodes}n root {root}"
            );
        }
    }
}

#[test]
fn float_sum_never_runs_hierarchical_reduce() {
    // The re-association gate: an explicit Hierarchical hint on a
    // non-exact (f64, Sum) reduce must downgrade to an algorithm that
    // preserves the flat fold order — verified here by bit-equality even
    // though hierarchical folding would give different low bits.
    assert!(!f64::exact_reassoc(Op::Sum));
    let flat = allreduce_bits(16, 4, 0, Op::Sum, Some(CollAlgo::Flat));
    let hier = allreduce_bits(16, 4, 0, Op::Sum, Some(CollAlgo::Hierarchical));
    assert_eq!(hier, flat);
}

/// The mixed-collective program used by the replay tests: every tuned
/// code path (bcast header, chunked chain, hierarchical barrier) in one
/// world.
fn mixed_program(comm: &mut pdc_mpi::Comm) -> pdc_mpi::Result<Vec<u64>> {
    let f = f64_payload(comm.rank(), BIG);
    comm.barrier()?;
    let b = comm.bcast(if comm.rank() == 0 { Some(&f[..]) } else { None }, 0)?;
    let s = comm.allreduce(&f, Op::Sum)?;
    let g = comm.allgather(&[comm.rank() as u64])?;
    let mut bits: Vec<u64> = b.iter().chain(s.iter()).map(|x| x.to_bits()).collect();
    bits.extend(g);
    Ok(bits)
}

fn run_mixed(
    ranks: usize,
    nodes: usize,
    seed: u64,
    t: Option<&TuningTable>,
) -> RunOutput<Vec<u64>> {
    let mut cfg = world(ranks, nodes, seed);
    if let Some(t) = t {
        cfg = cfg.with_tuning(t.clone());
    }
    World::run(cfg, mixed_program).expect("world")
}

#[test]
fn tuned_run_replays_bit_identically() {
    let t = Arc::new(table());
    for seed in [0u64, 7, 2026] {
        let a = run_mixed(32, 4, seed, Some(&t));
        let b = run_mixed(32, 4, seed, Some(&t));
        assert_eq!(a.values, b.values, "tuned values drifted at seed {seed}");
        assert_eq!(
            a.sched_trace, b.sched_trace,
            "tuned schedule drifted at seed {seed}"
        );
        assert_eq!(
            a.sim_time, b.sim_time,
            "tuned sim clock drifted at seed {seed}"
        );
    }
}

#[test]
fn tuning_changes_schedule_not_bytes() {
    let t = table();
    let tuned = run_mixed(32, 4, 0, Some(&t));
    let flat = run_mixed(32, 4, 0, None);
    assert_eq!(
        tuned.values, flat.values,
        "a tuning table must never change results"
    );
}

#[test]
fn tuned_large_collectives_beat_flat_twofold_on_sim_clock() {
    // The acceptance cells from the tuned sweep (see BENCH_mpi.json and
    // docs/collectives.md): 1 MiB bcast at 64r/8n and 1 MiB allreduce at
    // 32r/4n must hold a ≥2× simulated-time win over the seed flat
    // algorithms.
    let t = Arc::new(table());
    let elems = (1 << 20) / 8;

    let bcast = |tab: Option<Arc<TuningTable>>| {
        let mut cfg = world(64, 8, 0);
        if let Some(tab) = tab {
            cfg = cfg.with_tuning((*tab).clone());
        }
        World::run(cfg, move |comm| {
            let f = f64_payload(comm.rank(), elems);
            comm.bcast(if comm.rank() == 0 { Some(&f[..]) } else { None }, 0)?;
            Ok(())
        })
        .expect("world")
        .sim_time
    };
    let (flat, tuned) = (bcast(None), bcast(Some(t.clone())));
    assert!(
        flat >= 2.0 * tuned,
        "1 MiB bcast @ 64r/8n: flat {flat:.6e}s vs tuned {tuned:.6e}s — win below 2×"
    );

    let allreduce = |tab: Option<Arc<TuningTable>>| {
        let mut cfg = world(32, 4, 0);
        if let Some(tab) = tab {
            cfg = cfg.with_tuning((*tab).clone());
        }
        World::run(cfg, move |comm| {
            let f = f64_payload(comm.rank(), elems);
            comm.allreduce(&f, Op::Sum)?;
            Ok(())
        })
        .expect("world")
        .sim_time
    };
    let (flat, tuned) = (allreduce(None), allreduce(Some(t)));
    assert!(
        flat >= 2.0 * tuned,
        "1 MiB allreduce @ 32r/4n: flat {flat:.6e}s vs tuned {tuned:.6e}s — win below 2×"
    );
}

#[test]
fn checked_in_table_selects_by_placement_policy() {
    // The tuning-table key regression (ISSUE 8): selection must be able
    // to differ between Block and RoundRobin placement at the very same
    // (op, bytes, ranks, nodes). The checked-in table measured both
    // layouts at 32r/4n, and on the CI machine class the node-aware
    // barrier only wins when each node's ranks are contiguous — under
    // round-robin the flat dissemination barrier is faster. Guarded
    // against drift by `mpi_tune --check`.
    let t = table();
    let pick = |policy| {
        let p = Placement::new(32, 4, 32, policy);
        let layout = PlacementLayout::of_placement(&p);
        resolve(Some(&t), None, CollKind::Barrier, 0, 32, 4, layout)
    };
    let blocked = pick(PlacementPolicy::Block);
    let scattered = pick(PlacementPolicy::RoundRobin);
    assert_eq!(blocked, CollAlgo::Hierarchical);
    assert_eq!(scattered, CollAlgo::Flat);
    assert_ne!(
        blocked, scattered,
        "placement policy must key the selection"
    );
    // And both size-32 layouts have dedicated cells: the lookup is
    // exact, not a nearest-neighbour fallback across layouts.
    for layout in PlacementLayout::ALL {
        assert!(t.cells.iter().any(|c| c.kind == CollKind::Barrier
            && c.size_class == SizeClass::Tiny
            && c.ranks == 32
            && c.nodes == 4
            && c.layout == layout));
    }
}

#[test]
fn subcomm_collectives_unchanged_by_tuning() {
    // Split 24r/4n into two colors (even/odd world ranks, interleaved
    // across nodes) and run the sub-collectives tuned and untuned: the
    // bytes must match bit-for-bit. `sub_gather` and `sub_reduce_with`
    // consult the table like the others, so they are covered too.
    let run = |t: Option<TuningTable>| {
        let mut cfg = world(24, 4, 0);
        if let Some(t) = t {
            cfg = cfg.with_tuning(t);
        }
        World::run(cfg, move |comm| {
            let color = (comm.rank() % 2) as u32;
            let mut sc = comm.split(color, comm.rank() as i64)?;
            let f = f64_payload(comm.rank(), BIG);
            comm.sub_barrier(&mut sc)?;
            let root_data = if sc.rank() == 0 { Some(&f[..]) } else { None };
            let b = comm.sub_bcast(&mut sc, root_data, 0)?;
            let s = comm.sub_allreduce(&mut sc, &f, Op::Sum)?;
            let r = comm.sub_reduce(&mut sc, &f, Op::Max, 0)?;
            let w = comm.sub_reduce_with(&mut sc, &f, 0, |a, b| a + b)?;
            let g = comm.sub_gather(&mut sc, &f, 0)?;
            let mut bits: Vec<u64> = b.iter().chain(s.iter()).map(|x| x.to_bits()).collect();
            for rooted in [r, w, g].into_iter().flatten() {
                bits.extend(rooted.iter().map(|x| x.to_bits()));
            }
            Ok(bits)
        })
        .expect("world")
        .values
    };
    assert_eq!(run(Some(table())), run(None));
}

/// One collective of the whole-world differential test below.
#[derive(Debug, Clone, Copy)]
enum Coll {
    Barrier,
    Bcast,
    ReduceMax,
    ReduceSum,
    ReduceWith,
    AllreduceSum,
    AllreduceMax,
    AllreduceWith,
    Gather,
}

/// Root of every rooted collective in the differential test (non-zero,
/// so the binomial trees rotate).
const DIFF_ROOT: usize = 1;

/// What one rank observed across one collective: the result as raw bits
/// (`None` for a non-root's rooted result), and the simulated-clock,
/// `msgs_sent` and `bytes_sent` deltas.
type Observed = (Option<Vec<u64>>, u64, u64, u64);

/// Split the whole world with one color (`split(0, rank)` keeps world
/// order), then run `coll` either on the world (`sub = false`) or on the
/// split (`sub = true`), recording what each rank observed.
fn run_whole_world(
    ranks: usize,
    nodes: usize,
    tuned: bool,
    len: usize,
    coll: Coll,
    sub: bool,
) -> Vec<Observed> {
    let mut cfg = world(ranks, nodes, 0);
    if tuned {
        cfg = cfg.with_tuning(table());
    }
    let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    World::run(cfg, move |comm| {
        let mut sc = comm.split(0, comm.rank() as i64)?;
        let f = f64_payload(comm.rank(), len);
        let root_data = (comm.rank() == DIFF_ROOT).then_some(&f[..]);
        let add = |a: &f64, b: &f64| a + b;
        let (t0, m0, b0) = (
            comm.sim_time(),
            comm.stats().msgs_sent,
            comm.stats().bytes_sent,
        );
        let got: Option<Vec<f64>> = match (coll, sub) {
            (Coll::Barrier, false) => comm.barrier().map(|()| Some(Vec::new()))?,
            (Coll::Barrier, true) => comm.sub_barrier(&mut sc).map(|()| Some(Vec::new()))?,
            (Coll::Bcast, false) => Some(comm.bcast(root_data, DIFF_ROOT)?),
            (Coll::Bcast, true) => Some(comm.sub_bcast(&mut sc, root_data, DIFF_ROOT)?),
            (Coll::ReduceMax, false) => comm.reduce(&f, Op::Max, DIFF_ROOT)?,
            (Coll::ReduceMax, true) => comm.sub_reduce(&mut sc, &f, Op::Max, DIFF_ROOT)?,
            (Coll::ReduceSum, false) => comm.reduce(&f, Op::Sum, DIFF_ROOT)?,
            (Coll::ReduceSum, true) => comm.sub_reduce(&mut sc, &f, Op::Sum, DIFF_ROOT)?,
            (Coll::ReduceWith, false) => comm.reduce_with(&f, DIFF_ROOT, add)?,
            (Coll::ReduceWith, true) => comm.sub_reduce_with(&mut sc, &f, DIFF_ROOT, add)?,
            (Coll::AllreduceSum, false) => Some(comm.allreduce(&f, Op::Sum)?),
            (Coll::AllreduceSum, true) => Some(comm.sub_allreduce(&mut sc, &f, Op::Sum)?),
            (Coll::AllreduceMax, false) => Some(comm.allreduce(&f, Op::Max)?),
            (Coll::AllreduceMax, true) => Some(comm.sub_allreduce(&mut sc, &f, Op::Max)?),
            (Coll::AllreduceWith, false) => Some(comm.allreduce_with(&f, add)?),
            // No sub-communicator twin takes a custom combiner; a float
            // `Sum` runs under the same re-association gate (never
            // hierarchical) and folds with the same `+`.
            (Coll::AllreduceWith, true) => Some(comm.sub_allreduce(&mut sc, &f, Op::Sum)?),
            (Coll::Gather, false) => comm.gather(&f, DIFF_ROOT)?,
            (Coll::Gather, true) => comm.sub_gather(&mut sc, &f, DIFF_ROOT)?,
        };
        Ok((
            got.map(bits),
            (comm.sim_time() - t0).to_bits(),
            comm.stats().msgs_sent - m0,
            comm.stats().bytes_sent - b0,
        ))
    })
    .expect("world")
    .values
}

#[test]
fn whole_world_split_matches_world_collectives() {
    // A sub-communicator holding every rank in world order is the world:
    // each sub-collective must match its world call in results, in every
    // rank's simulated time to the bit, and in the messages and bytes it
    // sends, tuned (the table keys on the same ranks, nodes and layout)
    // and untuned. (3, 4) leaves a node empty.
    let colls = [
        Coll::Barrier,
        Coll::Bcast,
        Coll::ReduceMax,
        Coll::ReduceSum,
        Coll::ReduceWith,
        Coll::AllreduceSum,
        Coll::AllreduceMax,
        Coll::AllreduceWith,
        Coll::Gather,
    ];
    for (ranks, nodes) in [(8, 4), (32, 4), (5, 2), (3, 4)] {
        for tuned in [false, true] {
            for len in [1, BIG] {
                for coll in colls {
                    let world = run_whole_world(ranks, nodes, tuned, len, coll, false);
                    let sub = run_whole_world(ranks, nodes, tuned, len, coll, true);
                    assert_eq!(
                        sub, world,
                        "{coll:?} on split(0, rank) diverged from the world call \
                         at {ranks}r/{nodes}n, tuned {tuned}, {len} f64"
                    );
                }
            }
        }
    }
}
