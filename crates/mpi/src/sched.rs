//! Rank virtualisation: a seeded, deterministic cooperative scheduler.
//!
//! The default backend spawns one OS thread per rank and lets the host
//! kernel interleave them — faithful, but it tops out at a few dozen
//! ranks and every run explores whatever schedule the kernel happened to
//! pick. This module multiplexes N *logical* ranks onto a bounded batch
//! of runnable ranks driven by a deterministic run queue, which buys two
//! things at once:
//!
//! * **scale** — 4096-rank worlds run on a laptop: each logical rank
//!   still owns a (small-stack) thread for its private address space, but
//!   only `workers` of them execute between scheduling points, so the
//!   host never time-slices thousands of runnable threads;
//! * **schedule exploration** — every interleaving decision is drawn from
//!   a seeded generator (`PDC_MPI_SCHED_SEED`), so the same seed replays
//!   the same interleaving bit-identically and different seeds explore
//!   different *legal* schedules (a test rig for message races).
//!
//! ## The determinism contract (barrier-batch scheduling)
//!
//! Determinism cannot survive ranks mutating shared channel state at
//! wall-clock-dependent moments, so the scheduler enforces a *frozen
//! channel* invariant:
//!
//! 1. the run queue admits a **batch** of at most `workers` runnable
//!    ranks; while a batch runs, every channel send is **buffered** in a
//!    per-rank effect list instead of touching the channel;
//! 2. a rank runs until it *parks* — exactly at the blocking points
//!    already centralised in `chan.rs` (`recv_or_stop`) and `mailbox.rs`
//!    (`Progress::agree`, `Progress::wait_all_done`) — or until its
//!    closure finishes;
//! 3. when the whole batch has parked, the last parker **flushes** the
//!    buffered sends in a fixed order (by rank ascending, program order
//!    within a rank), wakes the receivers those deliveries unblock, and
//!    picks the next batch from the run queue with the seeded policy.
//!    Only running ranks buffer, so the flush visits just the ranks of
//!    the batch that parked: the barrier step costs O(effects of that
//!    batch), not O(ranks).
//!
//! Between scheduling points no rank can observe another's partial
//! progress through a channel, so the execution is a deterministic
//! function of `(program, size, workers, seed)` — including wildcard
//! receives, whose candidate sets become deterministic too.
//!
//! The scheduling policy is **bounded-unfair**: each pick is drawn from a
//! window at the front of the run queue, and a rank that has been passed
//! over [`MAX_HEAD_AGE`] times is picked next unconditionally — so seeds
//! genuinely reorder ranks, yet every runnable rank is scheduled within a
//! bounded number of picks (no starvation).
//!
//! ## Deadlock, exactly
//!
//! With every rank parked and no effect left to flush, an empty run queue
//! *is* a deadlock — no sampling interval, no false positives from a slow
//! container. The scheduler snapshots the blocked operations (the same
//! [`BlockedOp`](crate::check::BlockedOp) registrations the watchdog
//! uses), poisons the world with a wait-for-cycle analysis, and wakes
//! everyone to error out. Virtual-rank worlds therefore never start the
//! wall-clock watchdog thread.
//!
//! See `docs/scheduler.md` for the full model and
//! [`WorldConfig::virtual_ranks`](crate::WorldConfig::virtual_ranks) for
//! the entry point.

use crate::check::DeadlockInfo;
use crate::mailbox::Progress;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A rank that has been at the head of the run queue for this many picks
/// without being chosen is scheduled next unconditionally (the bounded-
/// unfairness guarantee).
const MAX_HEAD_AGE: u32 = 4;

/// Parameters of a virtual-rank world: how many ranks run concurrently
/// between scheduling points, and the seed driving every scheduling
/// decision. Built by [`WorldConfig::virtual_ranks`](crate::WorldConfig::virtual_ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualRanks {
    /// Upper bound on ranks admitted per scheduling batch (≥ 1). Worlds
    /// with a fault plan are serialised to 1 regardless, so mid-run
    /// failure notifications stay deterministic.
    pub workers: usize,
    /// Seed for the scheduling policy; same seed ⇒ bit-identical
    /// interleaving. Overridable via `PDC_MPI_SCHED_SEED`.
    pub seed: u64,
}

/// What a parked rank is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitKind {
    /// A delivery (or sender disconnect) on one channel.
    Chan(u64),
    /// A progress-state event: rank done/failed, agreement resolution,
    /// poison. Re-checked by the parked rank on every wake.
    Event,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Spawned but not yet admitted (or re-admitted) to a batch.
    Runnable,
    /// Member of the current batch, executing user code.
    Running,
    /// Parked at a blocking point.
    Blocked(WaitKind),
    /// Closure finished; thread is exiting.
    Finished,
}

/// A buffered channel mutation: the closure performs the push, `chan`
/// names the channel so the flush can wake a rank parked on it.
struct Effect {
    chan: u64,
    apply: Box<dyn FnOnce() + Send>,
}

/// The run queue and every rank's state, guarded by one lock.
struct Core {
    state: Vec<RankState>,
    /// Park/unpark handles, registered by each rank thread at startup.
    threads: Vec<Option<Thread>>,
    registered: usize,
    running: usize,
    finished: usize,
    /// Runnable ranks in wake order; scheduling picks from its front
    /// window.
    queue: VecDeque<usize>,
    /// Ranks admitted in the current batch, in pick order: the only ranks
    /// whose effect lists the next flush has to visit.
    batch: Vec<usize>,
    /// Reverse index: channel id → ranks parked on it. Keeps the flush
    /// O(1) per effect instead of scanning all ranks — the difference
    /// between seconds and hours for O(p²)-message exchanges at 4096
    /// ranks. Kept consistent with `state` under the core lock.
    chan_waiters: HashMap<u64, Vec<usize>>,
    /// Picks the queue head has been passed over (bounded unfairness).
    head_age: u32,
    /// xorshift64* state for the scheduling policy.
    rng: u64,
    /// Every scheduling decision, in order (the resume order the property
    /// tests pin). Rank ids fit u32: worlds are ≤ millions of ranks.
    trace: Vec<u32>,
    /// The world has been poisoned by the deadlock path already.
    poisoned: bool,
}

/// The deterministic run queue one virtual-rank world executes under.
pub(crate) struct Scheduler {
    core: Mutex<Core>,
    /// Buffered sends per rank, flushed in rank order at each barrier.
    /// Outside the core lock: only the owning rank pushes, while it runs,
    /// and only the barrier step drains, while no rank of the batch
    /// runs, so each list's lock is uncontended.
    effects: Vec<Mutex<Vec<Effect>>>,
    size: usize,
    workers: usize,
    /// Per-rank "you are scheduled" token, pairing with `thread::park`:
    /// set (and the thread unparked) when a rank is admitted to a batch.
    go: Vec<AtomicBool>,
    /// Generation counter for event wakes: bumped by every wake-all /
    /// wake-events, so a rank that checked its wait condition *before*
    /// the wake but parks *after* it returns immediately instead of
    /// missing the edge.
    wake_epoch: AtomicU64,
    /// Progress state of the world, for the deadlock path (snapshot the
    /// blocked ops, poison with a cycle analysis).
    progress: OnceLock<Arc<Progress>>,
}

/// Thread-local binding of a rank thread to its scheduler. Installed by
/// [`Scheduler::enter`]; consulted by `chan.rs` and `mailbox.rs` to
/// divert sends and blocking waits.
#[derive(Clone)]
pub(crate) struct SchedCtx {
    pub sched: Arc<Scheduler>,
    pub rank: usize,
}

thread_local! {
    static CTX: RefCell<Option<SchedCtx>> = const { RefCell::new(None) };
}

/// The current thread's scheduler binding, when it hosts a virtual rank.
pub(crate) fn ctx() -> Option<SchedCtx> {
    CTX.with(|c| c.borrow().clone())
}

/// RAII guard for a rank thread's scheduler binding: clears the
/// thread-local and retires the rank (releasing its batch slot) on drop,
/// i.e. after the rank body, `mark_done`, and any finalize wait ran.
pub(crate) struct CtxGuard {
    sched: Arc<Scheduler>,
    rank: usize,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.borrow_mut().take());
        self.sched.finish(self.rank);
    }
}

fn lock_core(core: &Mutex<Core>) -> MutexGuard<'_, Core> {
    // A rank body can panic (contained by the world's catch_unwind)
    // while holding nothing; the core stays usable either way.
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Scheduler {
    /// A scheduler for `size` ranks, at most `workers` running per batch,
    /// policy seeded with `seed`.
    pub(crate) fn new(size: usize, workers: usize, seed: u64) -> Arc<Self> {
        // xorshift64* needs a nonzero state; diffuse the seed so small
        // neighbouring seeds do not share their first draws.
        let rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Arc::new(Self {
            core: Mutex::new(Core {
                state: vec![RankState::Runnable; size],
                threads: vec![None; size],
                registered: 0,
                running: 0,
                finished: 0,
                queue: (0..size).collect(),
                batch: Vec::with_capacity(workers.max(1)),
                chan_waiters: HashMap::new(),
                head_age: 0,
                rng,
                trace: Vec::new(),
                poisoned: false,
            }),
            effects: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            size,
            workers: workers.max(1),
            go: (0..size).map(|_| AtomicBool::new(false)).collect(),
            wake_epoch: AtomicU64::new(0),
            progress: OnceLock::new(),
        })
    }

    /// Attach the world's progress state (needed by the deadlock path).
    /// Must be called before any rank registers.
    pub(crate) fn attach_progress(&self, progress: Arc<Progress>) {
        let _ = self.progress.set(progress);
    }

    /// Bind the current thread to `rank`: install the thread-local
    /// context, register the park handle, and block until the scheduler
    /// admits this rank to its first batch. The last rank to register
    /// kicks off the first batch.
    pub(crate) fn enter(self: &Arc<Self>, rank: usize) -> CtxGuard {
        CTX.with(|c| {
            *c.borrow_mut() = Some(SchedCtx {
                sched: Arc::clone(self),
                rank,
            });
        });
        let all_registered = {
            let mut core = lock_core(&self.core);
            core.threads[rank] = Some(std::thread::current());
            core.registered += 1;
            core.registered == self.size
        };
        if all_registered {
            self.advance();
        }
        self.wait_for_turn(rank);
        CtxGuard {
            sched: Arc::clone(self),
            rank,
        }
    }

    /// The current wake generation. Capture *before* checking a wait
    /// condition; [`Scheduler::park`] with a stale generation returns
    /// immediately so the caller re-checks.
    pub(crate) fn wake_generation(&self) -> u64 {
        self.wake_epoch.load(Ordering::SeqCst)
    }

    /// Park the calling rank at a blocking point. Returns when the rank
    /// is rescheduled — possibly spuriously (callers loop, re-checking
    /// their wait condition). `seen` is the wake generation captured
    /// before the caller last checked its condition: if a wake-all
    /// happened since, the park is skipped entirely.
    pub(crate) fn park(self: &Arc<Self>, rank: usize, kind: WaitKind, seen: u64) {
        let trigger_advance = {
            let mut core = lock_core(&self.core);
            if self.wake_epoch.load(Ordering::SeqCst) != seen {
                return;
            }
            debug_assert_eq!(core.state[rank], RankState::Running);
            core.state[rank] = RankState::Blocked(kind);
            if let WaitKind::Chan(chan) = kind {
                core.chan_waiters.entry(chan).or_default().push(rank);
            }
            core.running -= 1;
            core.running == 0
        };
        if trigger_advance {
            self.advance();
        }
        self.wait_for_turn(rank);
    }

    /// Retire a finished rank, releasing its batch slot. Its remaining
    /// buffered effects (e.g. trailing eager sends) flush at the next
    /// barrier as usual.
    fn finish(self: &Arc<Self>, rank: usize) {
        let trigger_advance = {
            let mut core = lock_core(&self.core);
            core.state[rank] = RankState::Finished;
            core.finished += 1;
            core.running -= 1;
            core.running == 0
        };
        if trigger_advance {
            self.advance();
        }
    }

    /// Buffer a channel mutation from a running rank; it is applied at
    /// the next barrier, in rank order, then program order.
    pub(crate) fn buffer_effect(&self, rank: usize, chan: u64, apply: Box<dyn FnOnce() + Send>) {
        self.effects[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Effect { chan, apply });
    }

    /// Wake the rank parked on channel `chan`, if any. Called by channel
    /// drop hooks (a disconnect is a wake-worthy state change). Bumps the
    /// wake generation: a rank that checked the sender count just before
    /// the disconnect, but parks just after, skips the park and re-checks
    /// instead of missing the edge.
    pub(crate) fn wake_chan(&self, chan: u64) {
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        let mut core = lock_core(&self.core);
        self.wake_chan_locked(&mut core, chan);
    }

    fn wake_chan_locked(&self, core: &mut Core, chan: u64) {
        let Some(waiters) = core.chan_waiters.remove(&chan) else {
            return;
        };
        for rank in waiters {
            // The index can lag a wake-all (which clears states but may
            // race a fresh park re-inserting); trust `state`.
            if core.state[rank] == RankState::Blocked(WaitKind::Chan(chan)) {
                core.state[rank] = RankState::Runnable;
                core.queue.push_back(rank);
            }
        }
    }

    /// Wake every rank parked on a progress event (`agree`,
    /// `wait_all_done`). Called on `mark_done` and agreement resolution.
    pub(crate) fn wake_events(&self) {
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        let mut core = lock_core(&self.core);
        for rank in 0..self.size {
            if core.state[rank] == RankState::Blocked(WaitKind::Event) {
                core.state[rank] = RankState::Runnable;
                core.queue.push_back(rank);
            }
        }
    }

    /// Wake every parked rank regardless of wait kind. Called on failure
    /// notification (`mark_failed`): a crash can flip any wait's stop
    /// condition.
    pub(crate) fn wake_all_blocked(&self) {
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        let mut core = lock_core(&self.core);
        self.wake_all_locked(&mut core);
    }

    fn wake_all_locked(&self, core: &mut Core) {
        core.chan_waiters.clear();
        for rank in 0..self.size {
            if matches!(core.state[rank], RankState::Blocked(_)) {
                core.state[rank] = RankState::Runnable;
                core.queue.push_back(rank);
            }
        }
    }

    /// The resume order so far (rank per scheduling decision). Taken by
    /// the world after the run for `RunOutput::sched_trace`.
    pub(crate) fn take_trace(&self) -> Vec<u32> {
        std::mem::take(&mut lock_core(&self.core).trace)
    }

    /// Interrupt the world from an *external* (non-rank) thread after the
    /// progress state has been poisoned (see
    /// [`Progress::cancel`](crate::mailbox::Progress::cancel)): wake every
    /// parked rank and, if the whole world was parked, run the barrier
    /// step ourselves so the woken ranks are admitted and error out —
    /// no rank thread is left to trigger it otherwise.
    pub(crate) fn interrupt(self: &Arc<Self>) {
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        let registered = {
            let mut core = lock_core(&self.core);
            // Mark poisoned so a later empty queue re-wakes instead of
            // re-running the deadlock analysis.
            core.poisoned = true;
            self.wake_all_locked(&mut core);
            core.registered == self.size
        };
        // Before every rank has registered, park handles are incomplete
        // and the barrier step cannot admit anyone; the last rank to
        // register runs it (`enter`) and the batch errors out on the
        // poison at its first blocking call.
        if registered {
            self.advance();
        }
    }

    fn wait_for_turn(&self, rank: usize) {
        while !self.go[rank].swap(false, Ordering::AcqRel) {
            std::thread::park();
        }
    }

    fn next_rng(core: &mut Core) -> u64 {
        core.rng ^= core.rng << 13;
        core.rng ^= core.rng >> 7;
        core.rng ^= core.rng << 17;
        core.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Barrier step: with the whole batch parked, flush buffered sends,
    /// then admit the next batch (or declare deadlock). Runs on the last
    /// parking rank's thread; never holds the core lock while poisoning.
    fn advance(self: &Arc<Self>) {
        enum Step {
            Run(Vec<Thread>),
            Idle,
            Deadlock,
        }
        loop {
            let step = {
                let mut core = lock_core(&self.core);
                if core.running > 0 {
                    // A wake raced us back to work; nothing to do.
                    Step::Idle
                } else {
                    self.flush_effects(&mut core);
                    if !core.queue.is_empty() {
                        Step::Run(self.admit_batch(&mut core))
                    } else if core.finished == self.size {
                        Step::Idle
                    } else if core.poisoned {
                        // Poisoned and still stuck: wake everyone again
                        // (their stop conditions now observe the poison).
                        self.wake_all_locked(&mut core);
                        if core.queue.is_empty() {
                            // Nobody parked either: every non-finished
                            // rank is mid-transition; the next park or
                            // finish re-enters advance.
                            Step::Idle
                        } else {
                            Step::Run(self.admit_batch(&mut core))
                        }
                    } else {
                        Step::Deadlock
                    }
                }
            };
            match step {
                Step::Run(threads) => {
                    for t in threads {
                        t.unpark();
                    }
                    return;
                }
                Step::Idle => return,
                Step::Deadlock => {
                    // No runnable rank, no buffered effect, ranks still
                    // unfinished: the program cannot progress. Exact
                    // detection — no sampling interval, no flake.
                    let progress = self
                        .progress
                        .get()
                        .expect("scheduler runs with progress attached");
                    let blocked = progress.blocked_snapshot();
                    progress.poison(DeadlockInfo {
                        cycle: DeadlockInfo::find_cycle(&blocked),
                        blocked,
                    });
                    self.wake_epoch.fetch_add(1, Ordering::SeqCst);
                    let mut core = lock_core(&self.core);
                    core.poisoned = true;
                    self.wake_all_locked(&mut core);
                    // Loop: admit the woken ranks so they error out.
                }
            }
        }
    }

    /// Apply every buffered send in deterministic order (rank ascending,
    /// program order within a rank) and wake the receivers those
    /// deliveries unblock. Only the ranks of the batch that just parked
    /// can have buffered, so only their lists are visited.
    ///
    /// Applying an effect can buffer another: a send to a rank that has
    /// exited drops its envelope, and the envelope's rendezvous ack
    /// sender buffers its disconnect. The flush binds its thread, whoever
    /// runs it, to the lowest batch rank, whose list it has already
    /// drained, and applies such effects after the batch's own, in the
    /// order they arose.
    fn flush_effects(self: &Arc<Self>, core: &mut Core) {
        let mut batch = std::mem::take(&mut core.batch);
        batch.sort_unstable();
        if let Some(&first) = batch.first() {
            let flush_ctx = SchedCtx {
                sched: Arc::clone(self),
                rank: first,
            };
            let outer = CTX.with(|c| c.replace(Some(flush_ctx)));
            for &rank in &batch {
                self.apply_effects(core, rank);
            }
            while self.apply_effects(core, first) {}
            CTX.with(|c| *c.borrow_mut() = outer);
        }
        // Hand the allocation back for the next batch.
        batch.clear();
        core.batch = batch;
    }

    /// Apply `rank`'s buffered effects in program order; false when it
    /// had none.
    fn apply_effects(&self, core: &mut Core, rank: usize) -> bool {
        let effects = std::mem::take(
            &mut *self.effects[rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let any = !effects.is_empty();
        for effect in effects {
            (effect.apply)();
            self.wake_chan_locked(core, effect.chan);
        }
        any
    }

    /// Pick up to `workers` ranks off the run queue with the seeded,
    /// bounded-unfair policy; mark them running and hand back their
    /// unpark handles.
    fn admit_batch(&self, core: &mut Core) -> Vec<Thread> {
        let n = self.workers.min(core.queue.len());
        let window = (4 * self.workers).max(8);
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            let w = core.queue.len().min(window);
            let idx = if core.head_age >= MAX_HEAD_AGE {
                0
            } else {
                (Self::next_rng(core) % w as u64) as usize
            };
            core.head_age = if idx == 0 { 0 } else { core.head_age + 1 };
            let rank = core.queue.remove(idx).expect("index within queue");
            debug_assert_eq!(core.state[rank], RankState::Runnable);
            core.state[rank] = RankState::Running;
            core.running += 1;
            core.batch.push(rank);
            core.trace.push(rank as u32);
            self.go[rank].store(true, Ordering::Release);
            threads.push(core.threads[rank].clone().expect("rank registered"));
        }
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a 3-rank scheduler with scripted park sequences on real
    /// threads and pin that the resume order is a pure function of the
    /// seed.
    fn scripted_trace(seed: u64) -> Vec<u32> {
        let sched = Scheduler::new(3, 1, seed);
        sched.attach_progress(Arc::new(Progress::new(3)));
        let trace = std::thread::scope(|scope| {
            for rank in 0..3 {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    let _guard = sched.enter(rank);
                    // Wake any parked peer, then park; the next scheduled
                    // rank's wake resumes us. The last rank standing is
                    // released by the deadlock path's wake-all.
                    for _ in 0..2 {
                        sched.wake_events();
                        let seen = sched.wake_generation();
                        sched.park(rank, WaitKind::Event, seen);
                    }
                });
            }
            // Threads joined by scope exit.
            Arc::clone(&sched)
        })
        .take_trace();
        trace
    }

    /// Run one 2-worker batch of two ranks that each buffer three effects
    /// logging `(rank, i)`, with `first` buffering all of its effects
    /// before the other rank buffers any. Rank 0's first effect buffers a
    /// nested effect logging `(9, 9)` when applied. Returns the log in
    /// flush order.
    fn flushed_log(first: usize) -> Vec<(usize, usize)> {
        let sched = Scheduler::new(2, 2, 0);
        sched.attach_progress(Arc::new(Progress::new(2)));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let done_rx = Mutex::new(done_rx);
        std::thread::scope(|scope| {
            for rank in 0..2 {
                let (sched, log, done_tx, done_rx) = (
                    Arc::clone(&sched),
                    Arc::clone(&log),
                    done_tx.clone(),
                    &done_rx,
                );
                scope.spawn(move || {
                    let _guard = sched.enter(rank);
                    if rank != first {
                        done_rx.lock().unwrap().recv().expect("first rank buffered");
                    }
                    for i in 0..3 {
                        let log = Arc::clone(&log);
                        sched.buffer_effect(
                            rank,
                            0,
                            Box::new(move || {
                                if (rank, i) == (0, 0) {
                                    let ctx = ctx().expect("flush binds its thread");
                                    let log = Arc::clone(&log);
                                    ctx.sched.buffer_effect(
                                        ctx.rank,
                                        0,
                                        Box::new(move || log.lock().unwrap().push((9, 9))),
                                    );
                                }
                                log.lock().unwrap().push((rank, i));
                            }),
                        );
                    }
                    if rank == first {
                        done_tx.send(()).expect("other rank waiting");
                    }
                    // Finishing releases the batch slot; the second
                    // finisher runs the barrier step and its flush.
                });
            }
        });
        let log = log.lock().unwrap().clone();
        log
    }

    #[test]
    fn flush_applies_rank_order_then_program_order() {
        let expect = vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (9, 9)];
        assert_eq!(flushed_log(0), expect, "rank 0 buffered first");
        assert_eq!(flushed_log(1), expect, "rank 1 buffered first");
    }

    #[test]
    fn same_seed_same_resume_order() {
        assert_eq!(scripted_trace(42), scripted_trace(42));
        assert_eq!(scripted_trace(7), scripted_trace(7));
    }

    #[test]
    fn seeds_explore_different_orders() {
        let orders: std::collections::HashSet<Vec<u32>> = (0..16).map(scripted_trace).collect();
        assert!(
            orders.len() > 1,
            "16 seeds should produce more than one interleaving"
        );
    }

    #[test]
    fn every_rank_is_scheduled_no_starvation() {
        for seed in 0..8 {
            let trace = scripted_trace(seed);
            for rank in 0..3u32 {
                assert!(
                    trace.iter().filter(|&&r| r == rank).count() >= 3,
                    "seed {seed}: rank {rank} starved in {trace:?}"
                );
            }
        }
    }
}
