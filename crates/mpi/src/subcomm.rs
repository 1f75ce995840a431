//! Derived communicators: the analogue of `MPI_Comm_split`.
//!
//! [`Comm::split`] partitions the world by *color* (ranks with the same
//! color form one sub-communicator) with ordering controlled by *key*
//! (ties broken by world rank), exactly like `MPI_Comm_split`. The
//! resulting [`SubComm`] is a passive descriptor — operations on it go
//! through the owning rank's [`Comm`] (`sub_barrier`, `sub_bcast`,
//! `sub_reduce`, `sub_allreduce`, `sub_gather`), which keeps the borrow
//! discipline simple and mirrors how MPI calls always take both a
//! communicator handle and execute on the calling process.
//!
//! Every sub-communicator carries a *context id* baked into its internal
//! message tags, so concurrent collectives on different communicators can
//! never cross-match — MPI's communicator-isolation guarantee.

use crate::check::CallSite;
use crate::coll;
use crate::comm::Comm;
use crate::datatype::{decode_vec, encode_slice, Datatype};
use crate::error::{Error, Result};
use crate::reduce::{fold_into, Op, Reducible};
use crate::stats::Primitive;
use crate::step::block_on;
use crate::tune::{CollAlgo, CollKind};
use bytes::Bytes;

/// Tag stride per collective on a sub-communicator (matches the world's).
const COLL_TAG_STRIDE: u64 = 1024;

/// A derived communicator produced by [`Comm::split`].
#[derive(Debug, Clone)]
pub struct SubComm {
    /// World ranks of the members, in sub-rank order.
    members: Vec<usize>,
    /// This rank's position within `members`.
    my_idx: usize,
    /// Context id isolating this communicator's internal tag space.
    ctx: u64,
    /// Collective sequence counter (advances identically on all members).
    seq: u64,
}

impl SubComm {
    /// This rank's id within the sub-communicator.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World ranks of the members, in sub-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Translate a sub-rank to a world rank.
    ///
    /// # Panics
    /// Panics on an out-of-range sub-rank.
    pub fn world_rank(&self, sub_rank: usize) -> usize {
        self.members[sub_rank]
    }

    fn next_base(&mut self) -> u64 {
        let base = (self.ctx << 40) | (self.seq * COLL_TAG_STRIDE);
        self.seq += 1;
        base
    }

    fn validate_root(&self, root: usize) -> Result<()> {
        if root >= self.size() {
            return Err(Error::InvalidArgument(format!(
                "root {root} out of range for sub-communicator of size {}",
                self.size()
            )));
        }
        Ok(())
    }
}

impl Comm<'_> {
    /// `MPI_Comm_split`: partition the world by `color`; member order
    /// within each partition follows `key` (ties by world rank). Must be
    /// called by every rank of the world.
    pub fn split(&mut self, color: u32, key: i64) -> Result<SubComm> {
        self.record(Primitive::CommSplit);
        // Exchange (color, key) triples; the allgather gives a consistent
        // global view on every rank.
        let mine = [color as i64, key, self.rank() as i64];
        let all = self.allgather(&mine)?;
        let mut members: Vec<(i64, usize)> = all
            .chunks_exact(3)
            .filter(|t| t[0] == color as i64)
            .map(|t| (t[1], t[2] as usize))
            .collect();
        members.sort_unstable();
        let members: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
        let my_idx = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller is a member of its own color");
        let ctx = self.next_sub_ctx();
        Ok(SubComm {
            members,
            my_idx,
            ctx,
            seq: 0,
        })
    }

    /// `MPIX_Comm_shrink` analogue: agree on the failed ranks and build a
    /// sub-communicator of the survivors, in world-rank order.
    ///
    /// Every live rank must call this; the failures are acknowledged as a
    /// side effect (see [`Comm::agree`]), so collectives on the returned
    /// communicator run normally afterwards. The recovery idiom a module
    /// uses after catching [`Error::RankFailed`](crate::Error::RankFailed)
    /// from a collective is: `let survivors = comm.shrink()?;` then redo
    /// the lost work over `survivors`.
    #[track_caller]
    pub fn shrink(&mut self) -> Result<SubComm> {
        let failed = self.agree()?;
        let members: Vec<usize> = (0..self.size())
            .filter(|r| !failed.iter().any(|&(f, _)| f == *r))
            .collect();
        let my_idx = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("a failed rank cannot call shrink");
        let ctx = self.next_sub_ctx();
        Ok(SubComm {
            members,
            my_idx,
            ctx,
            seq: 0,
        })
    }

    /// Barrier over a sub-communicator (dissemination).
    #[track_caller]
    pub fn sub_barrier(&mut self, sc: &mut SubComm) -> Result<()> {
        self.record_sub_coll(
            "sub_barrier",
            sc.ctx,
            &sc.members,
            None,
            None,
            None,
            "-",
            CallSite::here(),
        );
        self.record(Primitive::Barrier);
        let base = sc.next_base();
        match self.resolve_algo_members(CollKind::Barrier, 0, None, sc.members()) {
            None => self.sub_barrier_flat(sc, base),
            Some(algo) => {
                self.begin_algo(algo, false);
                let r = if algo == CollAlgo::Hierarchical {
                    block_on(coll::hier_barrier(self, &sc.members, sc.my_idx, base))
                } else {
                    self.sub_barrier_flat(sc, base)
                };
                self.end_algo();
                r
            }
        }
    }

    fn sub_barrier_flat(&mut self, sc: &SubComm, base: u64) -> Result<()> {
        let p = sc.size();
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < p {
            let to = sc.members[(sc.my_idx + dist) % p];
            let from = sc.members[(sc.my_idx + p - dist) % p];
            self.coll_send::<u8>(&[], to, base + round)?;
            let _ = block_on(self.coll_recv::<u8>(from, base + round))?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcast over a sub-communicator. `root` is a *sub-rank*.
    #[track_caller]
    pub fn sub_bcast<T: Datatype>(
        &mut self,
        sc: &mut SubComm,
        data: Option<&[T]>,
        root: usize,
    ) -> Result<Vec<T>> {
        self.record_sub_coll(
            "sub_bcast",
            sc.ctx,
            &sc.members,
            Some(root),
            None,
            if sc.my_idx == root {
                data.map(|d| d.len())
            } else {
                None
            },
            T::NAME,
            CallSite::here(),
        );
        sc.validate_root(root)?;
        self.record(Primitive::Bcast);
        let base = sc.next_base();
        if !self.tuning_enabled() {
            return self.sub_bcast_flat(sc, data, root, base);
        }
        // Tuned path: only the root knows the payload size, so it makes
        // the (pure, table-driven) selection over the sub-communicator's
        // own topology and announces `[algo, count]` in a header
        // broadcast over the flat binomial tree.
        let header = if sc.my_idx == root {
            let d = data
                .ok_or_else(|| Error::InvalidArgument("sub_bcast root must supply data".into()))?;
            let algo = self
                .resolve_algo_members(CollKind::Bcast, d.len() * T::SIZE, None, sc.members())
                .expect("tuned path has a table");
            encode_slice(&[algo.wire_id(), d.len() as u64])
        } else {
            Bytes::new()
        };
        let header = block_on(coll::tree_bcast_bytes::<u64>(
            self,
            &sc.members,
            sc.my_idx,
            root,
            base + coll::T_HEADER,
            header,
        ))?;
        let header: Vec<u64> = decode_vec(&header);
        let algo = header
            .first()
            .and_then(|&w| CollAlgo::from_wire_id(w))
            .filter(|_| header.len() == 2)
            .ok_or_else(|| Error::InvalidArgument("corrupt bcast algorithm header".into()))?;
        let count = header[1] as usize;
        self.begin_algo(algo, false);
        let r = match algo {
            CollAlgo::Flat => self.sub_bcast_flat(sc, data, root, base),
            CollAlgo::Chunked => block_on(coll::chunked_bcast(
                self,
                &sc.members,
                sc.my_idx,
                data,
                root,
                count,
                base,
            )),
            CollAlgo::Hierarchical => block_on(coll::hier_bcast(
                self,
                &sc.members,
                sc.my_idx,
                data,
                root,
                base,
            )),
        };
        self.end_algo();
        r
    }

    fn sub_bcast_flat<T: Datatype>(
        &mut self,
        sc: &SubComm,
        data: Option<&[T]>,
        root: usize,
        base: u64,
    ) -> Result<Vec<T>> {
        let p = sc.size();
        let vrank = (sc.my_idx + p - root) % p;
        // Zero-copy forwarding, like the world bcast: encode once at the
        // root, relay the refcounted payload, decode once at each leaf.
        let mut payload: Bytes =
            if sc.my_idx == root {
                encode_slice(data.ok_or_else(|| {
                    Error::InvalidArgument("sub_bcast root must supply data".into())
                })?)
            } else {
                Bytes::new()
            };
        let mut mask = 1usize;
        let mut recv_bit = 0u64;
        while mask < p {
            if vrank & mask != 0 {
                let parent = sc.members[(vrank - mask + root) % p];
                payload = block_on(self.coll_recv_raw::<T>(parent, base + recv_bit))?.payload;
                break;
            }
            mask <<= 1;
            recv_bit += 1;
        }
        if vrank == 0 {
            mask = 1;
            while mask < p {
                mask <<= 1;
            }
        }
        let mut bit = mask >> 1;
        while bit > 0 {
            if vrank + bit < p {
                let child = sc.members[(vrank + bit + root) % p];
                self.coll_send_bytes(
                    payload.clone(),
                    T::NAME,
                    T::SIZE,
                    child,
                    base + bit.trailing_zeros() as u64,
                )?;
            }
            bit >>= 1;
        }
        if sc.my_idx == root {
            Ok(data.expect("validated above").to_vec())
        } else {
            Ok(decode_vec(&payload))
        }
    }

    /// Reduction over a sub-communicator with a custom combiner; the
    /// sub-rank `root` receives the result.
    #[track_caller]
    pub fn sub_reduce_with<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        root: usize,
        combine: F,
    ) -> Result<Option<Vec<T>>> {
        self.record_sub_coll(
            "sub_reduce",
            sc.ctx,
            &sc.members,
            Some(root),
            None,
            Some(data.len()),
            T::NAME,
            CallSite::here(),
        );
        sc.validate_root(root)?;
        self.record(Primitive::Reduce);
        // A custom combiner's algebra is opaque, so hierarchical
        // re-association is never assumed exact (see `tune::constrain`).
        self.sub_reduce_run(sc, data, root, false, &combine)
    }

    fn sub_reduce_run<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        root: usize,
        exact: bool,
        combine: &F,
    ) -> Result<Option<Vec<T>>> {
        let base = sc.next_base();
        match self.resolve_algo_members_reassoc(
            CollKind::Reduce,
            data.len() * T::SIZE,
            None,
            exact,
            sc.members(),
        ) {
            None => self.sub_reduce_tree(sc, data, root, base, combine),
            Some(algo) => {
                self.begin_algo(algo, false);
                let r = match algo {
                    CollAlgo::Flat => self.sub_reduce_tree(sc, data, root, base, combine),
                    CollAlgo::Chunked => block_on(coll::chunked_reduce(
                        self,
                        &sc.members,
                        sc.my_idx,
                        data,
                        root,
                        base,
                        combine,
                    )),
                    CollAlgo::Hierarchical => block_on(coll::hier_reduce(
                        self,
                        &sc.members,
                        sc.my_idx,
                        data,
                        root,
                        base,
                        combine,
                    )),
                };
                self.end_algo();
                r
            }
        }
    }

    fn sub_reduce_tree<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        sc: &SubComm,
        data: &[T],
        root: usize,
        base: u64,
        combine: &F,
    ) -> Result<Option<Vec<T>>> {
        let p = sc.size();
        let vrank = (sc.my_idx + p - root) % p;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        let mut round = 0u64;
        while mask < p {
            if vrank & mask != 0 {
                let parent = sc.members[(vrank - mask + root) % p];
                self.coll_send(&acc, parent, base + round)?;
                return Ok(None);
            }
            let child = vrank + mask;
            if child < p {
                let part =
                    block_on(self.coll_recv::<T>(sc.members[(child + root) % p], base + round))?;
                if part.len() != acc.len() {
                    return Err(Error::InvalidArgument(
                        "sub_reduce contributions differ in length".into(),
                    ));
                }
                fold_into(&mut acc, &part, combine);
            }
            mask <<= 1;
            round += 1;
        }
        Ok(Some(acc))
    }

    /// Reduction over a sub-communicator with a built-in operator.
    #[track_caller]
    pub fn sub_reduce<T: Datatype + Reducible>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        op: Op,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        self.record_sub_coll(
            "sub_reduce",
            sc.ctx,
            &sc.members,
            Some(root),
            Some(op),
            Some(data.len()),
            T::NAME,
            CallSite::here(),
        );
        sc.validate_root(root)?;
        self.check_op::<T>(op)?;
        self.record(Primitive::Reduce);
        self.sub_reduce_run(sc, data, root, T::exact_reassoc(op), &move |a, b| {
            T::reduce(op, *a, *b)
        })
    }

    /// Allreduce over a sub-communicator.
    #[track_caller]
    pub fn sub_allreduce<T: Datatype + Reducible>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        op: Op,
    ) -> Result<Vec<T>> {
        self.record_sub_coll(
            "sub_allreduce",
            sc.ctx,
            &sc.members,
            None,
            Some(op),
            Some(data.len()),
            T::NAME,
            CallSite::here(),
        );
        self.check_op::<T>(op)?;
        self.record(Primitive::Allreduce);
        let combine = move |a: &T, b: &T| T::reduce(op, *a, *b);
        match self.resolve_algo_members_reassoc(
            CollKind::Allreduce,
            data.len() * T::SIZE,
            None,
            T::exact_reassoc(op),
            sc.members(),
        ) {
            None => {
                let base = sc.next_base();
                self.sub_allreduce_flat(sc, data, base, &combine)
            }
            Some(CollAlgo::Flat) => {
                let base = sc.next_base();
                self.begin_algo(CollAlgo::Flat, false);
                let r = self.sub_allreduce_flat(sc, data, base, &combine);
                self.end_algo();
                r
            }
            Some(CollAlgo::Chunked) => {
                // Two tag bases, one per phase (the chunked reduce uses
                // the whole 1024-tag range of its own base).
                let rbase = sc.next_base();
                let bbase = sc.next_base();
                self.begin_algo(CollAlgo::Chunked, false);
                let r = block_on(coll::chunked_reduce(
                    self,
                    &sc.members,
                    sc.my_idx,
                    data,
                    0,
                    rbase,
                    &combine,
                ))
                .and_then(|reduced| {
                    block_on(coll::chunked_bcast(
                        self,
                        &sc.members,
                        sc.my_idx,
                        reduced.as_deref(),
                        0,
                        data.len(),
                        bbase,
                    ))
                });
                self.end_algo();
                r
            }
            Some(CollAlgo::Hierarchical) => {
                let rbase = sc.next_base();
                let bbase = sc.next_base();
                self.begin_algo(CollAlgo::Hierarchical, false);
                let r = block_on(coll::hier_reduce(
                    self,
                    &sc.members,
                    sc.my_idx,
                    data,
                    0,
                    rbase,
                    &combine,
                ))
                .and_then(|reduced| {
                    block_on(coll::hier_bcast(
                        self,
                        &sc.members,
                        sc.my_idx,
                        reduced.as_deref(),
                        0,
                        bbase,
                    ))
                });
                self.end_algo();
                r
            }
        }
    }

    fn sub_allreduce_flat<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        sc: &SubComm,
        data: &[T],
        base: u64,
        combine: &F,
    ) -> Result<Vec<T>> {
        let reduced = self.sub_reduce_tree(sc, data, 0, base, combine)?;
        // Broadcast phase with a shifted tag sub-range, forwarding the
        // encoded result zero-copy down the tree.
        let p = sc.size();
        let mut payload: Bytes = match &reduced {
            Some(d) => encode_slice(d),
            None => Bytes::new(),
        };
        let mut mask = 1usize;
        let mut recv_bit = 0u64;
        while mask < p {
            if sc.my_idx & mask != 0 {
                let parent = sc.members[sc.my_idx - mask];
                payload = block_on(self.coll_recv_raw::<T>(parent, base + 512 + recv_bit))?.payload;
                break;
            }
            mask <<= 1;
            recv_bit += 1;
        }
        if sc.my_idx == 0 {
            mask = 1;
            while mask < p {
                mask <<= 1;
            }
        }
        let mut bit = mask >> 1;
        while bit > 0 {
            if sc.my_idx + bit < p {
                let child = sc.members[sc.my_idx + bit];
                self.coll_send_bytes(
                    payload.clone(),
                    T::NAME,
                    T::SIZE,
                    child,
                    base + 512 + bit.trailing_zeros() as u64,
                )?;
            }
            bit >>= 1;
        }
        match reduced {
            Some(d) => Ok(d),
            None => Ok(decode_vec(&payload)),
        }
    }

    /// Gather equal-length contributions to sub-rank `root`.
    #[track_caller]
    pub fn sub_gather<T: Datatype>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        self.record_sub_coll(
            "sub_gather",
            sc.ctx,
            &sc.members,
            Some(root),
            None,
            Some(data.len()),
            T::NAME,
            CallSite::here(),
        );
        sc.validate_root(root)?;
        self.record(Primitive::Gather);
        let base = sc.next_base();
        if sc.my_idx == root {
            let expect = data.len();
            let mut out = Vec::with_capacity(expect * sc.size());
            for idx in 0..sc.size() {
                let part = if idx == root {
                    data.to_vec()
                } else {
                    block_on(self.coll_recv::<T>(sc.members[idx], base))?
                };
                if part.len() != expect {
                    return Err(Error::InvalidArgument(
                        "sub_gather contributions differ in length".into(),
                    ));
                }
                out.extend_from_slice(&part);
            }
            Ok(Some(out))
        } else {
            self.coll_send(data, sc.members[root], base)?;
            Ok(None)
        }
    }
}
