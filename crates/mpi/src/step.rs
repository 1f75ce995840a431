//! Resumable (stackless) rank programs.
//!
//! A *step program* is a rank body written against [`StepComm`] instead of
//! [`Comm`]: every potentially blocking primitive is `async`, so the
//! compiler turns the body into an explicit state machine whose
//! suspension points are exactly the runtime's wait points (the
//! [`RankStep`] continuations: receive, rendezvous ack, collective
//! interior receive, failure agreement).
//!
//! Each [`StepComm`] primitive forwards to the one `async` body of that
//! primitive in [`Comm`] (the same body the blocking [`Comm`] methods
//! run), passing the user's call site. Only the wait points inside those
//! bodies know which engine is running:
//!
//! * **Thread / virtual / proc backends** call [`drive`], which polls the
//!   state machine once. The wait points block the rank's thread, so the
//!   program never actually suspends and the single poll runs it to
//!   completion.
//! * **The event backend** ([`World::run_event`](crate::World::run_event))
//!   builds one state machine per rank over a communicator whose wait
//!   points park on the rank's wait cell; a binary-heap discrete-event
//!   engine resumes them (see `docs/scheduler.md`). Per-rank cost is the
//!   state machine plus a mailbox — bytes, not a 512 KiB stack — which is
//!   what lets `mpi_scale` sweep 10^5–10^6 virtual ranks in one process.
//!
//! The conformance suite (`tests/event_conformance.rs`) pins results, sim
//! clocks, `CommStats`, and checker logs byte-identical across backends.

use crate::check::CallSite;
use crate::comm::{Comm, Group, RecvRequest, SendRequest};
use crate::datatype::Datatype;
use crate::envelope::{SourceSel, Status, TagSel};
use crate::error::Result;
use crate::reduce::{Op, Reducible};
use crate::stats::CommStats;
use pdc_cluster::CostModel;
use std::future::Future;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

/// The boxed, rank-local future a step program compiles to. Not `Send`:
/// the event engine is single-threaded, and the blocking shim polls on
/// the rank's own thread.
pub type StepFuture<'c, T> = Pin<Box<dyn Future<Output = T> + 'c>>;

/// A rank body in resumable form: something that, handed a [`StepComm`],
/// yields the rank's state machine. Implement it on a struct owning the
/// program's inputs; `build` borrows them for the future's lifetime.
///
/// ```ignore
/// struct Ring;
/// impl StepProgram<u64> for Ring {
///     fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
///         Box::pin(ring_step(sc))
///     }
/// }
/// ```
pub trait StepProgram<T> {
    /// Instantiate the rank body for one rank's communicator.
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<T>>;
}

/// The blocking points a resumable rank body can suspend at — the
/// continuation tag the event engine sees when a rank parks. Purely
/// observational (diagnostics and the scheduler docs); the actual
/// continuation state lives in the compiler-generated future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStep {
    /// Not suspended: runnable or running.
    Ready,
    /// Waiting for a matching user message (recv / wait_recv / probe).
    Recv,
    /// Rendezvous sender waiting for the matching receive to start.
    RendezvousAck,
    /// Waiting inside a collective for an internal tree/ring message.
    Collective,
    /// Waiting in `agree` for every rank to enter, fail, or finish.
    Agree,
    /// Completed; waiting for the world to finish (finalize barrier).
    Finalize,
}

/// Poll a communicator future once and return its output: the shim
/// behind [`drive`] and every blocking [`Comm`] method. On a communicator
/// without an event engine attached, every wait point blocks the calling
/// thread, so the single poll always completes.
///
/// # Panics
/// Panics if the future suspends, which only an event-engine
/// communicator's wait point (or an `await` on a foreign future inside a
/// rank body) can cause.
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!(
            "a blocking communicator suspended; rank bodies must only await StepComm primitives"
        ),
    }
}

/// Run a step program to completion on `comm` — the shim that lets the
/// thread, virtual, and proc backends execute a resumable rank body
/// unchanged: the program's future is polled once, by the same shim
/// every blocking [`Comm`] method uses.
///
/// # Panics
/// Panics if the future suspends, which a [`StepComm`] over a blocking
/// communicator never does — it would indicate an `await` on a foreign
/// future inside a rank body.
pub fn drive<'c, 'w, T>(
    comm: &'c mut Comm<'w>,
    build: impl FnOnce(StepComm<'c, 'w>) -> StepFuture<'c, T>,
) -> T {
    block_on(build(StepComm::new(comm)))
}

/// The communicator handed to a resumable rank body. Mirrors the
/// [`Comm`] surface the teaching modules use; potentially blocking
/// primitives are `async` and must be `.await`ed.
pub struct StepComm<'c, 'w: 'c> {
    comm: &'c mut Comm<'w>,
}

impl<'c, 'w: 'c> StepComm<'c, 'w> {
    /// Wrap a communicator; its engine decides how the wait points wait.
    pub(crate) fn new(comm: &'c mut Comm<'w>) -> Self {
        StepComm { comm }
    }

    // ------------------------------------------------------------------
    // Synchronous pass-throughs
    // ------------------------------------------------------------------

    /// This rank's id. See [`Comm::rank`].
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks in the world. See [`Comm::size`].
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Node hosting this rank. See [`Comm::node`].
    pub fn node(&self) -> usize {
        self.comm.node()
    }

    /// Current simulated time, seconds. See [`Comm::sim_time`].
    pub fn sim_time(&self) -> f64 {
        self.comm.sim_time()
    }

    /// Statistics snapshot. See [`Comm::stats`].
    pub fn stats(&self) -> &CommStats {
        self.comm.stats()
    }

    /// The cost model the clock charges against. See [`Comm::cost_model`].
    pub fn cost_model(&self) -> &CostModel {
        self.comm.cost_model()
    }

    /// Charge compute flops to the simulated clock. See
    /// [`Comm::charge_flops`].
    pub fn charge_flops(&mut self, flops: f64) {
        self.comm.charge_flops(flops);
    }

    /// Charge DRAM traffic to the simulated clock. See
    /// [`Comm::charge_mem`].
    pub fn charge_mem(&mut self, bytes: f64) {
        self.comm.charge_mem(bytes);
    }

    /// Charge a roofline kernel to the simulated clock. See
    /// [`Comm::charge_kernel`].
    pub fn charge_kernel(&mut self, flops: f64, bytes: f64) {
        self.comm.charge_kernel(flops, bytes);
    }

    /// Open a named profiling phase. See [`Comm::phase_begin`].
    pub fn phase_begin(&mut self, name: &str) {
        self.comm.phase_begin(name);
    }

    /// Close the innermost open phase. See [`Comm::phase_end`].
    pub fn phase_end(&mut self) {
        self.comm.phase_end();
    }

    /// Locally known failed ranks. See [`Comm::failed_ranks`].
    pub fn failed_ranks(&self) -> Vec<(usize, f64)> {
        self.comm.failed_ranks()
    }

    /// `MPI_Isend` — nonblocking, hence synchronous in every mode. See
    /// [`Comm::isend`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn isend<T: Datatype>(&mut self, data: &[T], dest: usize, tag: u32) -> Result<SendRequest> {
        self.comm.isend_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Irecv`. See [`Comm::irecv`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn irecv<T: Datatype>(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<RecvRequest<T>> {
        self.comm.irecv(src, tag)
    }

    /// `MPI_Iprobe`. See [`Comm::iprobe`].
    #[must_use = "communication can fail; check the Result"]
    pub fn iprobe(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<Option<Status>> {
        self.comm.iprobe(src, tag)
    }

    /// `MPI_Get_count`. See [`Comm::get_count`].
    #[must_use = "communication can fail; check the Result"]
    pub fn get_count<T: Datatype>(&mut self, status: &Status) -> Result<usize> {
        self.comm.get_count::<T>(status)
    }

    // ------------------------------------------------------------------
    // Point-to-point (async)
    // ------------------------------------------------------------------

    /// `MPI_Send`. See [`Comm::send`].
    #[track_caller]
    pub fn send<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        dest: usize,
        tag: u32,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w, T> {
        self.comm.send_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Ssend`. See [`Comm::ssend`].
    #[track_caller]
    pub fn ssend<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        dest: usize,
        tag: u32,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w, T> {
        self.comm.ssend_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Recv` into a fresh vector. See [`Comm::recv`].
    #[track_caller]
    pub fn recv<'a, T: Datatype, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<(Vec<T>, Status)>> + use<'a, 'c, 'w, T, S, G> {
        self.comm.recv_at(src.into(), tag.into(), CallSite::here())
    }

    /// `MPI_Recv` into a caller buffer. See [`Comm::recv_into`].
    #[track_caller]
    pub fn recv_into<'a, T: Datatype, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        buf: &'a mut [T],
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<Status>> + use<'a, 'c, 'w, T, S, G> {
        self.comm
            .recv_into_at(buf, src.into(), tag.into(), CallSite::here())
    }

    /// `MPI_Wait` on a send request. See [`Comm::wait_send`].
    #[track_caller]
    pub fn wait_send<'a>(
        &'a mut self,
        req: SendRequest,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        self.comm.wait_send_at(req, CallSite::here())
    }

    /// `MPI_Waitall` on send requests. See [`Comm::wait_all_sends`].
    #[track_caller]
    pub fn wait_all_sends<'a>(
        &'a mut self,
        reqs: Vec<SendRequest>,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        self.comm.wait_all_sends_at(reqs, CallSite::here())
    }

    /// `MPI_Wait` on a receive request. See [`Comm::wait_recv`].
    #[track_caller]
    pub fn wait_recv<'a, T: Datatype>(
        &'a mut self,
        req: RecvRequest<T>,
    ) -> impl Future<Output = Result<(Vec<T>, Status)>> + use<'a, 'c, 'w, T> {
        self.comm.wait_recv_at(req, CallSite::here())
    }

    /// `MPI_Probe`. See [`Comm::probe`].
    #[track_caller]
    pub fn probe<'a, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<Status>> + use<'a, 'c, 'w, S, G> {
        self.comm.probe_at(src.into(), tag.into(), CallSite::here())
    }

    // ------------------------------------------------------------------
    // Collectives (async)
    // ------------------------------------------------------------------

    /// `MPI_Barrier`. See [`Comm::barrier`].
    #[track_caller]
    pub fn barrier<'a>(&'a mut self) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        self.comm
            .barrier_dispatch(Group::World, None, CallSite::here())
    }

    /// `MPI_Bcast`. See [`Comm::bcast`].
    #[track_caller]
    pub fn bcast<'a, T: Datatype>(
        &'a mut self,
        data: Option<&'a [T]>,
        root: usize,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        self.comm
            .bcast_dispatch(Group::World, data, root, None, CallSite::here())
    }

    /// `MPI_Scatter`. See [`Comm::scatter`].
    #[track_caller]
    pub fn scatter<'a, T: Datatype>(
        &'a mut self,
        data: Option<&'a [T]>,
        root: usize,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        self.comm.scatter_at(data, root, CallSite::here())
    }

    /// `MPI_Gatherv`. See [`Comm::gatherv`].
    #[track_caller]
    pub fn gatherv<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        root: usize,
    ) -> impl Future<Output = Result<Option<Vec<Vec<T>>>>> + use<'a, 'c, 'w, T> {
        self.comm.gatherv_at(data, root, CallSite::here())
    }

    /// `MPI_Allgather` (ring). See [`Comm::allgather`].
    #[track_caller]
    pub fn allgather<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        self.comm.allgather_dispatch(data, None, CallSite::here())
    }

    /// `MPI_Reduce` with a built-in operator. See [`Comm::reduce`].
    #[track_caller]
    pub fn reduce<'a, T: Datatype + Reducible>(
        &'a mut self,
        data: &'a [T],
        op: Op,
        root: usize,
    ) -> impl Future<Output = Result<Option<Vec<T>>>> + use<'a, 'c, 'w, T> {
        self.comm
            .reduce_op_dispatch(Group::World, data, op, root, None, CallSite::here())
    }

    /// `MPI_Allreduce` with a built-in operator. See [`Comm::allreduce`].
    #[track_caller]
    pub fn allreduce<'a, T: Datatype + Reducible>(
        &'a mut self,
        data: &'a [T],
        op: Op,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        self.comm
            .allreduce_op_dispatch(Group::World, data, op, None, CallSite::here())
    }

    /// `MPIX_Comm_agree` analogue. See [`Comm::agree`].
    #[track_caller]
    pub fn agree<'a>(
        &'a mut self,
    ) -> impl Future<Output = Result<Vec<(usize, f64)>>> + use<'a, 'c, 'w> {
        self.comm.agree_at(CallSite::here())
    }
}
