//! The deterministic cooperative scheduler (rank virtualisation):
//! correctness of virtual-rank worlds, the determinism contract
//! (same seed ⇒ bit-identical resume order and results), bounded
//! unfairness (no starvation), and exact deadlock detection.

use pdc_mpi::{Error, Op, RunOutput, World, WorldConfig};
use proptest::prelude::*;

/// A ring program: every rank sends to its right neighbour, receives from
/// its left, then allreduces the sum — enough channel traffic to exercise
/// parking, effect flushing, and collective trees.
fn ring_program(cfg: WorldConfig) -> RunOutput<u64> {
    World::run(cfg, |comm| {
        let size = comm.size();
        let rank = comm.rank();
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        comm.send(&[rank as u64], right, 0)?;
        let (from_left, _) = comm.recv::<u64>(left, 0)?;
        let total = comm.allreduce(&[from_left[0] + 1], Op::Sum)?;
        Ok(total[0])
    })
    .expect("ring completes")
}

#[test]
fn virtual_world_runs_basic_collectives() {
    let out = ring_program(WorldConfig::virtual_ranks(64, 4).with_sched_seed(1));
    let expect: u64 = (0..64u64).map(|r| r + 1).sum();
    assert!(out.values.iter().all(|&v| v == expect));
    assert!(!out.sched_trace.is_empty(), "virtual runs record a trace");
}

#[test]
fn thread_mode_records_no_sched_trace() {
    let out = ring_program(WorldConfig::new(8));
    assert!(out.sched_trace.is_empty());
}

#[test]
fn virtual_and_thread_mode_agree() {
    let virt = ring_program(WorldConfig::virtual_ranks(16, 2).with_sched_seed(5));
    let thread = ring_program(WorldConfig::new(16));
    assert_eq!(virt.values, thread.values);
    assert_eq!(
        virt.total_stats().bytes_sent,
        thread.total_stats().bytes_sent,
        "both backends move the same bytes"
    );
}

#[test]
fn single_rank_virtual_world_works() {
    let out = World::run(WorldConfig::virtual_ranks(1, 1), |comm| {
        comm.send(&[9u32], 0, 0)?;
        let (v, _) = comm.recv::<u32>(0, 0)?;
        Ok(v[0])
    })
    .expect("self-send under the scheduler");
    assert_eq!(out.values, vec![9]);
}

#[test]
fn many_ranks_few_workers_complete() {
    // More ranks than a thread-per-rank world would comfortably
    // time-slice, multiplexed onto two workers.
    let out = ring_program(WorldConfig::virtual_ranks(256, 2).with_sched_seed(3));
    let expect: u64 = (0..256u64).map(|r| r + 1).sum();
    assert!(out.values.iter().all(|&v| v == expect));
}

#[test]
fn virtual_deadlock_is_detected_exactly() {
    // Rendezvous ring: every rank ssends before receiving — the classic
    // Module 1 deadlock. The scheduler detects it the moment the run
    // queue empties; no watchdog interval, no timing sensitivity.
    let cfg = WorldConfig::virtual_ranks(4, 2).with_eager_threshold(0);
    let err = World::run(cfg, |comm| {
        let size = comm.size();
        let rank = comm.rank();
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        comm.send(&[0u8; 64], right, 0)?;
        let (v, _) = comm.recv::<u8>(left, 0)?;
        Ok(v.len())
    })
    .expect_err("rendezvous ring deadlocks");
    match err {
        Error::Deadlock(info) => {
            assert!(!info.blocked.is_empty(), "deadlock report names blockers");
            assert!(
                !info.cycle.is_empty(),
                "the ring forms a wait-for cycle: {info:?}"
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn same_seed_same_trace_and_results() {
    let a = ring_program(WorldConfig::virtual_ranks(24, 3).with_sched_seed(77));
    let b = ring_program(WorldConfig::virtual_ranks(24, 3).with_sched_seed(77));
    assert_eq!(a.sched_trace, b.sched_trace, "same seed ⇒ same schedule");
    assert_eq!(a.values, b.values);
    assert_eq!(a.sim_time, b.sim_time, "simulated clock is bit-identical");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let traces: std::collections::HashSet<Vec<u32>> = (0..16u64)
        .map(|seed| {
            ring_program(WorldConfig::virtual_ranks(12, 2).with_sched_seed(seed)).sched_trace
        })
        .collect();
    assert!(
        traces.len() > 1,
        "16 seeds over a 12-rank ring should produce more than one interleaving"
    );
}

#[test]
fn env_seed_is_read_and_builder_overrides_it() {
    // with_sched_seed pins the seed regardless of the environment, so the
    // determinism tests above cannot be perturbed by an ambient
    // PDC_MPI_SCHED_SEED; the env default path is covered by
    // virtual_ranks() which parses the variable at construction.
    let cfg = WorldConfig::virtual_ranks(4, 2).with_sched_seed(123);
    assert_eq!(cfg.sched.expect("virtual").seed, 123);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same (size, workers, seed) ⇒ identical resume order, twice over.
    #[test]
    fn prop_same_seed_identical_resume_order(
        size in 2usize..24,
        workers in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let a = ring_program(WorldConfig::virtual_ranks(size, workers).with_sched_seed(seed));
        let b = ring_program(WorldConfig::virtual_ranks(size, workers).with_sched_seed(seed));
        prop_assert_eq!(a.sched_trace, b.sched_trace);
        prop_assert_eq!(a.values, b.values);
    }

    /// Bounded unfairness: every rank completes, so every rank was
    /// scheduled — and the trace contains each rank at least once.
    #[test]
    fn prop_no_starvation_every_rank_scheduled(
        size in 2usize..32,
        workers in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let out = ring_program(WorldConfig::virtual_ranks(size, workers).with_sched_seed(seed));
        prop_assert_eq!(out.values.len(), size);
        for rank in 0..size as u32 {
            prop_assert!(
                out.sched_trace.contains(&rank),
                "rank {} never scheduled in {:?}", rank, out.sched_trace
            );
        }
    }

    /// The two backends are observably equivalent: same values, same
    /// bytes on the wire, for arbitrary ring sizes.
    #[test]
    fn prop_virtual_matches_thread_mode(
        size in 2usize..16,
        workers in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let virt = ring_program(WorldConfig::virtual_ranks(size, workers).with_sched_seed(seed));
        let thread = ring_program(WorldConfig::new(size));
        prop_assert_eq!(virt.values, thread.values);
        prop_assert_eq!(virt.total_stats().bytes_sent, thread.total_stats().bytes_sent);
    }
}

#[test]
fn rendezvous_send_to_an_exited_rank_fails_instead_of_hanging() {
    // Rank 0 returns at once; rank 1's synchronous send can reach its
    // mailbox after it is gone. The barrier step then drops the envelope
    // and, with it, the rendezvous ack sender: the sender must see the
    // disconnect, under every schedule, and the world must not hang.
    for seed in 0..16 {
        for workers in 1..=2 {
            let cfg = WorldConfig::virtual_ranks(2, workers).with_sched_seed(seed);
            let result = World::run(cfg, |comm| {
                if comm.rank() == 1 {
                    comm.ssend(&[1u8], 0, 0)?;
                }
                Ok(())
            });
            assert!(
                matches!(result, Err(Error::WorldShutDown)),
                "seed {seed}, {workers} workers: {result:?}"
            );
        }
    }
}
