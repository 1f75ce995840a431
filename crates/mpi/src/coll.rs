//! Collective algorithms over a participant group: the flat seed
//! algorithms, and pipelined/chunked and hierarchical (node-aware)
//! variants.
//!
//! The flat algorithms treat the group as a uniform graph: binomial
//! trees for bcast and reduce, a dissemination barrier, a direct gather
//! to the root, and reduce-then-bcast for allreduce. On a multi-node
//! cluster the postal model makes inter-node hops 4× the latency and half
//! the bandwidth of intra-node hops, so two refinements pay off:
//!
//! * **Chunked** (pipelined) variants stream a large payload as
//!   fixed-size chunks. The chunked *reduction* streams up the *same*
//!   tree as the flat algorithm with the *same* per-element fold order,
//!   so it is *bit-identical* to the flat reduction for every operator
//!   and element type, floats included. The chunked *broadcast* is pure
//!   data movement, so it is free to use the bandwidth-optimal shape
//!   instead: a pipelined chain, on which every rank forwards the
//!   payload exactly once — the flat binomial root serialises log₂(p)
//!   full copies through its send gap, which is what dominates large
//!   broadcasts under the postal model.
//! * **Hierarchical** (node-aware) variants elect one *leader* per node,
//!   move data over the expensive inter-node links only between leaders,
//!   and fan in/out within each node over the cheap intra-node links.
//!   Hierarchical reductions re-associate the fold, so dispatch gates
//!   them on [`Reducible::exact_reassoc`](crate::reduce::Reducible)
//!   (see `tune::constrain`).
//!
//! Every function here takes its participants as [`Members`]
//! (participant `i` is world rank `members.at(i)`): the whole world, as
//! `Members::World(size)` with no list behind it, or a
//! [`SubComm`](crate::subcomm::SubComm)'s member list. The one dispatch
//! per collective kind in [`comm`](crate::comm) serves both, so the world
//! and every sub-communicator run one implementation. Callers allocate
//! the collective's tag `base` and have already recorded the user-level
//! primitive; this module only moves bytes. Every function is `async`,
//! so the event engine runs the same code as the blocking backends; only
//! the receives inside know which engine is waiting.
//!
//! The flat algorithms sit inline in every event-engine rank's state
//! machine, so they are written as `fn … -> impl Future` around an
//! `async move` block: an `async fn` keeps a second copy of every
//! argument it still uses after an await, the block keeps one. The
//! dispatches in `comm` do the same (hence `clippy::manual_async_fn` is
//! allowed on them); that is what keeps `bytes_per_rank`
//! (`BENCH_scale.json`) where the world-only code had it. The chunked
//! and hierarchical variants run boxed and stay `async fn`.
//!
//! ## Tag budget (offsets within one 1024-tag collective base)
//!
//! | range      | user                                             |
//! |------------|--------------------------------------------------|
//! | `0..64`    | flat tree/barrier round `r`; flat gather `0`     |
//! | `0..64`    | chunked bcast: chunk `c`                         |
//! | `0..1024`  | chunked reduce: `c*16 + round` (`c<64, round<16`)|
//! | `300..364` | hierarchical inter-node tree, bit `b`            |
//! | `330..394` | hierarchical inter-node ring, round `k % 64`     |
//! | `430..494` | hierarchical leader barrier, round `r`           |
//! | `460`      | hierarchical leader→leader bundle                |
//! | `512..576` | flat allreduce: broadcast phase, bit `b`         |
//! | `700`      | intra-node fan-in to the leader                  |
//! | `701`      | intra-node barrier release                       |
//! | `702`      | intra-node per-member result delivery            |
//! | `710..774` | intra-node tree, bit `b`                         |
//! | `960..1024`| bcast algorithm/size header (see `comm`)         |
//!
//! A single collective never uses two overlapping ranges, and the
//! chunked and hierarchical allreduce composites allocate two bases, one
//! per phase.

#![allow(clippy::manual_async_fn)]

use crate::comm::Comm;
use crate::datatype::{decode_extend, decode_vec, encode_slice, Datatype};
use crate::error::{Error, Result};
use crate::reduce::fold_into;
use crate::tune::{CollAlgo, BCAST_CHUNK_BYTES, CHUNK_BYTES, MAX_CHUNKS};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::future::Future;

/// Tag offset of the bcast algorithm/size header (binomial tree bits
/// `960..1024`); the dispatch in `comm` broadcasts `[algo, count]` here
/// before the payload moves.
pub(crate) const T_HEADER: u64 = 960;

const T_INTER_TREE: u64 = 300;
const T_INTER_RING: u64 = 330;
const T_INTER_BARRIER: u64 = 430;
const T_INTER_BUNDLE: u64 = 460;
const T_INTRA_FANIN: u64 = 700;
const T_INTRA_RELEASE: u64 = 701;
const T_INTRA_RESULT: u64 = 702;
const T_INTRA_TREE: u64 = 710;

/// The participants of one collective, in participant order: the whole
/// world (participant `i` is rank `i`, so the world path never builds an
/// O(size) list) or a sub-communicator's world ranks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Members<'a> {
    World(usize),
    Sub(&'a [usize]),
}

impl<'a> Members<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            Members::World(n) => n,
            Members::Sub(m) => m.len(),
        }
    }

    /// World rank of participant `i`.
    pub(crate) fn at(self, i: usize) -> usize {
        match self {
            Members::World(_) => i,
            Members::Sub(m) => m[i],
        }
    }

    /// World ranks of every participant, in participant order.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> + 'a {
        (0..self.len()).map(move |i| self.at(i))
    }
}

/// Elements per reduction-pipeline chunk for a `count`-element payload:
/// at least [`CHUNK_BYTES`] worth, grown so the chunk count never
/// exceeds [`MAX_CHUNKS`] (the tag budget per collective).
pub(crate) fn chunk_elems<T: Datatype>(count: usize) -> usize {
    let per_chunk = (CHUNK_BYTES / T::SIZE.max(1)).max(1);
    per_chunk.max(count.div_ceil(MAX_CHUNKS))
}

/// Elements per chain-broadcast chunk: finer grained
/// ([`BCAST_CHUNK_BYTES`]) because the chain's fill time scales with the
/// participant count.
pub(crate) fn bcast_chunk_elems<T: Datatype>(count: usize) -> usize {
    let per_chunk = (BCAST_CHUNK_BYTES / T::SIZE.max(1)).max(1);
    per_chunk.max(count.div_ceil(MAX_CHUNKS))
}

fn n_chunks(count: usize, chunk: usize) -> usize {
    count.div_ceil(chunk).max(1)
}

// ---------------------------------------------------------------------
// Chunked (pipelined) variants
// ---------------------------------------------------------------------

/// Pipelined chain broadcast: participants form a chain in position
/// order starting at the root, and the payload streams down it as
/// [`bcast_chunk_elems`]-sized chunks (tag `base + c`). Every rank
/// forwards each chunk once, so no rank's send gap carries more than one
/// copy of the payload — the flat binomial root carries log₂(p). Every
/// participant must know `count` (the dispatch's header broadcast
/// guarantees it); `root`/`me` are positions into `members`.
pub(crate) async fn chunked_bcast<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: Option<&[T]>,
    root: usize,
    count: usize,
    base: u64,
) -> Result<Vec<T>> {
    let p = members.len();
    let chain_idx = (me + p - root) % p;
    let chunk = bcast_chunk_elems::<T>(count);
    let nchunks = n_chunks(count, chunk);
    if me == root && data.is_none() {
        return Err(Error::InvalidArgument(
            "bcast root must supply the data".into(),
        ));
    }
    let prev = if chain_idx == 0 {
        None
    } else {
        Some(members.at((me + p - 1) % p))
    };
    let next = if chain_idx + 1 < p {
        Some(members.at((me + 1) % p))
    } else {
        None
    };
    let mut out: Vec<T> = Vec::with_capacity(count);
    for c in 0..nchunks {
        let lo = c * chunk;
        let hi = (lo + chunk).min(count);
        let payload = match (prev, data) {
            (None, Some(d)) => encode_slice(&d[lo..hi]),
            (Some(src), _) => {
                let env = comm.coll_recv_raw::<T>(src, base + c as u64).await?;
                if env.payload.len() != (hi - lo) * T::SIZE {
                    return Err(Error::InvalidArgument("bcast chunk length mismatch".into()));
                }
                env.payload
            }
            (None, None) => unreachable!("root data validated above"),
        };
        // Forward chunk `c` before receiving chunk `c+1`: the chain
        // overlaps its downstream send with the upstream stream.
        if let Some(nx) = next {
            comm.coll_send_bytes(payload.clone(), T::NAME, T::SIZE, nx, base + c as u64)?;
        }
        if me != root {
            decode_extend(&payload, &mut out);
        }
    }
    if me == root {
        Ok(data.expect("validated above").to_vec())
    } else {
        Ok(out)
    }
}

/// Pipelined binomial-tree reduction: same tree and the same
/// per-element fold order as the flat [`tree_reduce`], with the
/// accumulator streamed upward chunk by chunk (tag
/// `base + c*16 + round`). Bit-identical to the flat reduction for every
/// operator and element type. Returns `Some` only at `root`.
pub(crate) async fn chunked_reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    root: usize,
    base: u64,
    combine: &F,
) -> Result<Option<Vec<T>>> {
    let p = members.len();
    debug_assert!(p <= 1 << 16, "chunked reduce round tags need log2(p) < 16");
    let vrank = (me + p - root) % p;
    let count = data.len();
    let chunk = chunk_elems::<T>(count);
    let nchunks = n_chunks(count, chunk);
    // Flat tree, precomputed: children are the rounds where this rank
    // receives; `parent` is the round where it sends and stops.
    let mut children: Vec<(usize, u64)> = Vec::new();
    let mut parent: Option<(usize, u64)> = None;
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        if vrank & mask != 0 {
            parent = Some((members.at((vrank - mask + root) % p), round));
            break;
        }
        let child = vrank + mask;
        if child < p {
            children.push((members.at((child + root) % p), round));
        }
        mask <<= 1;
        round += 1;
    }
    let mut acc = data.to_vec();
    for c in 0..nchunks {
        let lo = c * chunk;
        let hi = (lo + chunk).min(count);
        // Fold children in round order — exactly the flat fold order,
        // restricted to this chunk's elements.
        for &(child, r) in &children {
            let part = comm.coll_recv::<T>(child, base + c as u64 * 16 + r).await?;
            if part.len() != hi - lo {
                return Err(Error::InvalidArgument(
                    "reduce contributions differ in length".into(),
                ));
            }
            fold_into(&mut acc[lo..hi], &part, combine);
        }
        // Stream chunk `c` upward while children are still producing
        // chunk `c+1`.
        if let Some((up, r)) = parent {
            comm.coll_send(&acc[lo..hi], up, base + c as u64 * 16 + r)?;
        }
    }
    if parent.is_none() {
        Ok(Some(acc))
    } else {
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Hierarchical (node-aware) topology
// ---------------------------------------------------------------------

/// Node-grouped view of a participant list. Positions (indices into the
/// caller's `members`) are grouped by hosting node; groups are ordered
/// by node id and positions ascend within a group. Each group has one
/// *leader*: its first position, except the root's group, whose leader
/// is the root itself (so the root never relays through another rank).
pub(crate) struct HierTopo {
    groups: Vec<Vec<usize>>,
    leaders: Vec<usize>,
    my_group: usize,
}

impl HierTopo {
    pub(crate) fn build(comm: &Comm, members: Members<'_>, me: usize, root: usize) -> HierTopo {
        let nodes: Vec<usize> = {
            let placement = comm.cost_model().placement();
            members.iter().map(|r| placement.node_of(r)).collect()
        };
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, &node) in nodes.iter().enumerate() {
            by_node.entry(node).or_default().push(pos);
        }
        let root_node = nodes[root];
        let my_node = nodes[me];
        let mut groups = Vec::with_capacity(by_node.len());
        let mut leaders = Vec::with_capacity(by_node.len());
        let mut my_group = 0;
        for (node, group) in by_node {
            if node == my_node {
                my_group = groups.len();
            }
            leaders.push(if node == root_node { root } else { group[0] });
            groups.push(group);
        }
        HierTopo {
            groups,
            leaders,
            my_group,
        }
    }

    fn my_leader(&self) -> usize {
        self.leaders[self.my_group]
    }

    /// World ranks of the leaders, in group order.
    fn leaders_world(&self, members: Members<'_>) -> Vec<usize> {
        self.leaders.iter().map(|&p| members.at(p)).collect()
    }

    /// World ranks of my group's members, in position order.
    fn group_world(&self, members: Members<'_>) -> Vec<usize> {
        self.groups[self.my_group]
            .iter()
            .map(|&p| members.at(p))
            .collect()
    }

    /// Index of position `pos` within my group.
    fn idx_in_group(&self, pos: usize) -> usize {
        self.groups[self.my_group]
            .iter()
            .position(|&p| p == pos)
            .expect("position belongs to this group")
    }

    /// `(group, index-within-group)` for every position.
    fn locate_all(&self, n: usize) -> Vec<(usize, usize)> {
        let mut loc = vec![(0usize, 0usize); n];
        for (g, group) in self.groups.iter().enumerate() {
            for (i, &pos) in group.iter().enumerate() {
                loc[pos] = (g, i);
            }
        }
        loc
    }

    /// Index of the root's group (the root is always its group's leader).
    fn root_group(&self, root: usize) -> usize {
        self.leaders
            .iter()
            .position(|&p| p == root)
            .expect("root leads its own group")
    }
}

/// Binomial-tree broadcast of an already-encoded payload over an
/// arbitrary world-rank list; `me`/`root` are indices into `list`.
/// Returns the payload this rank ends up holding.
pub(crate) fn tree_bcast_bytes<'a, 'w, T: Datatype>(
    comm: &'a mut Comm<'w>,
    list: Members<'a>,
    me: usize,
    root: usize,
    base: u64,
    mut payload: Bytes,
) -> impl Future<Output = Result<Bytes>> + use<'a, 'w, T> {
    async move {
        let p = list.len();
        let vrank = (me + p - root) % p;
        let mut mask = 1usize;
        let mut recv_bit = 0u64;
        while mask < p {
            if vrank & mask != 0 {
                let parent = list.at((vrank - mask + root) % p);
                payload = comm
                    .coll_recv_raw::<T>(parent, base + recv_bit)
                    .await?
                    .payload;
                break;
            }
            mask <<= 1;
            recv_bit += 1;
        }
        if vrank == 0 {
            mask = p.next_power_of_two();
        }
        let mut bit = mask >> 1;
        while bit > 0 {
            if vrank + bit < p {
                let child = list.at((vrank + bit + root) % p);
                comm.coll_send_bytes(
                    payload.clone(),
                    T::NAME,
                    T::SIZE,
                    child,
                    base + bit.trailing_zeros() as u64,
                )?;
            }
            bit >>= 1;
        }
        Ok(payload)
    }
}

/// Binomial-tree reduction over an arbitrary world-rank list; returns
/// `Some` only at `root` (an index into `list`).
pub(crate) fn tree_reduce<'a, 'w, T: Datatype, F: Fn(&T, &T) -> T>(
    comm: &'a mut Comm<'w>,
    list: Members<'a>,
    me: usize,
    root: usize,
    base: u64,
    data: &'a [T],
    combine: &'a F,
) -> impl Future<Output = Result<Option<Vec<T>>>> + use<'a, 'w, T, F> {
    async move {
        let p = list.len();
        let vrank = (me + p - root) % p;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        let mut round = 0u64;
        while mask < p {
            if vrank & mask != 0 {
                let parent = list.at((vrank - mask + root) % p);
                comm.coll_send(&acc, parent, base + round)?;
                return Ok(None);
            }
            let child = vrank + mask;
            if child < p {
                let part = comm
                    .coll_recv::<T>(list.at((child + root) % p), base + round)
                    .await?;
                if part.len() != acc.len() {
                    return Err(Error::InvalidArgument(
                        "reduce contributions differ in length".into(),
                    ));
                }
                fold_into(&mut acc, &part, combine);
            }
            mask <<= 1;
            round += 1;
        }
        Ok(Some(acc))
    }
}

/// Flat broadcast of `data`, which only `root` supplies: the root encodes
/// once, interior nodes of the binomial tree relay the refcounted
/// payload, and every other participant decodes once.
pub(crate) fn tree_bcast<'a, 'w, T: Datatype>(
    comm: &'a mut Comm<'w>,
    members: Members<'a>,
    me: usize,
    data: Option<&'a [T]>,
    root: usize,
    base: u64,
) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'w, T> {
    async move {
        let payload = data.map_or_else(Bytes::new, encode_slice);
        let payload = tree_bcast_bytes::<T>(comm, members, me, root, base, payload).await?;
        Ok(match data {
            Some(d) => d.to_vec(),
            None => decode_vec(&payload),
        })
    }
}

/// Flat barrier (dissemination): in round `r` every participant signals
/// the one `2^r` positions ahead and waits for the one `2^r` behind.
pub(crate) fn dissemination_barrier<'a, 'w>(
    comm: &'a mut Comm<'w>,
    members: Members<'a>,
    me: usize,
    base: u64,
) -> impl Future<Output = Result<()>> + use<'a, 'w> {
    async move {
        let p = members.len();
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < p {
            let to = members.at((me + dist) % p);
            let from = members.at((me + p - dist) % p);
            comm.coll_send::<u8>(&[], to, base + round)?;
            let _ = comm.coll_recv::<u8>(from, base + round).await?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }
}

/// Flat gather: every participant sends its block straight to `root`,
/// which concatenates them in participant order.
pub(crate) fn flat_gather<'a, 'w, T: Datatype>(
    comm: &'a mut Comm<'w>,
    members: Members<'a>,
    me: usize,
    data: &'a [T],
    root: usize,
    base: u64,
) -> impl Future<Output = Result<Option<Vec<T>>>> + use<'a, 'w, T> {
    async move {
        if me != root {
            comm.coll_send(data, members.at(root), base)?;
            return Ok(None);
        }
        let expect = data.len();
        let mut out = Vec::with_capacity(expect * members.len());
        for idx in 0..members.len() {
            let part = if idx == root {
                data.to_vec()
            } else {
                comm.coll_recv::<T>(members.at(idx), base).await?
            };
            if part.len() != expect {
                return Err(Error::InvalidArgument(format!(
                    "gather contributions differ in length ({} vs {expect}); use gatherv",
                    part.len()
                )));
            }
            out.extend_from_slice(&part);
        }
        Ok(Some(out))
    }
}

/// Allreduce as reduce-to-participant-0 then broadcast, both phases under
/// `algo`, with `bases` the two phases' tag bases. The non-flat phases
/// run boxed, like every non-flat arm, so the flat path's future stays
/// small.
#[allow(clippy::too_many_arguments)]
pub(crate) fn allreduce<'a, 'w, T: Datatype, F: Fn(&T, &T) -> T>(
    comm: &'a mut Comm<'w>,
    members: Members<'a>,
    me: usize,
    algo: CollAlgo,
    data: &'a [T],
    bases: (u64, u64),
    combine: &'a F,
) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'w, T, F> {
    async move {
        let (rbase, bbase) = bases;
        match algo {
            CollAlgo::Flat => {
                let reduced = tree_reduce(comm, members, me, 0, rbase, data, combine).await?;
                tree_bcast(comm, members, me, reduced.as_deref(), 0, bbase).await
            }
            CollAlgo::Chunked => {
                let reduced =
                    Box::pin(chunked_reduce(comm, members, me, data, 0, rbase, combine)).await?;
                let count = data.len();
                Box::pin(chunked_bcast(
                    comm,
                    members,
                    me,
                    reduced.as_deref(),
                    0,
                    count,
                    bbase,
                ))
                .await
            }
            CollAlgo::Hierarchical => {
                let reduced =
                    Box::pin(hier_reduce(comm, members, me, data, 0, rbase, combine)).await?;
                Box::pin(hier_bcast(comm, members, me, reduced.as_deref(), 0, bbase)).await
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hierarchical collectives
// ---------------------------------------------------------------------

/// Node-aware barrier: intra-node fan-in to each leader, dissemination
/// barrier among leaders over the inter-node links, intra-node release.
pub(crate) async fn hier_barrier(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    base: u64,
) -> Result<()> {
    let topo = HierTopo::build(comm, members, me, 0);
    let leader = topo.my_leader();
    if me != leader {
        comm.coll_send::<u8>(&[], members.at(leader), base + T_INTRA_FANIN)?;
        let _ = comm
            .coll_recv::<u8>(members.at(leader), base + T_INTRA_RELEASE)
            .await?;
        return Ok(());
    }
    let my_members: Vec<usize> = topo.groups[topo.my_group].clone();
    for &pos in &my_members {
        if pos != me {
            let _ = comm
                .coll_recv::<u8>(members.at(pos), base + T_INTRA_FANIN)
                .await?;
        }
    }
    let l = topo.leaders.len();
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < l {
        let to = members.at(topo.leaders[(topo.my_group + dist) % l]);
        let from = members.at(topo.leaders[(topo.my_group + l - dist) % l]);
        comm.coll_send::<u8>(&[], to, base + T_INTER_BARRIER + round)?;
        let _ = comm
            .coll_recv::<u8>(from, base + T_INTER_BARRIER + round)
            .await?;
        dist <<= 1;
        round += 1;
    }
    for &pos in &my_members {
        if pos != me {
            comm.coll_send::<u8>(&[], members.at(pos), base + T_INTRA_RELEASE)?;
        }
    }
    Ok(())
}

/// Node-aware broadcast: one inter-node binomial tree over the leaders,
/// then an intra-node binomial tree inside each group. The payload
/// crosses each inter-node link exactly once.
pub(crate) async fn hier_bcast<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: Option<&[T]>,
    root: usize,
    base: u64,
) -> Result<Vec<T>> {
    let topo = HierTopo::build(comm, members, me, root);
    let leader = topo.my_leader();
    let mut payload = if me == root {
        encode_slice(
            data.ok_or_else(|| Error::InvalidArgument("bcast root must supply the data".into()))?,
        )
    } else {
        Bytes::new()
    };
    if me == leader {
        let leaders = topo.leaders_world(members);
        let root_g = topo.root_group(root);
        payload = tree_bcast_bytes::<T>(
            comm,
            Members::Sub(&leaders),
            topo.my_group,
            root_g,
            base + T_INTER_TREE,
            payload,
        )
        .await?;
    }
    let group = topo.group_world(members);
    payload = tree_bcast_bytes::<T>(
        comm,
        Members::Sub(&group),
        topo.idx_in_group(me),
        topo.idx_in_group(leader),
        base + T_INTRA_TREE,
        payload,
    )
    .await?;
    if me == root {
        Ok(data.expect("validated above").to_vec())
    } else {
        Ok(decode_vec(&payload))
    }
}

/// Node-aware reduction: intra-node tree to each leader, inter-node tree
/// over the leaders to the root. Re-associates the fold, so the dispatch
/// only selects this when the operator is exactly re-associable on the
/// element type. Returns `Some` only at `root`.
pub(crate) async fn hier_reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    root: usize,
    base: u64,
    combine: &F,
) -> Result<Option<Vec<T>>> {
    let topo = HierTopo::build(comm, members, me, root);
    let leader = topo.my_leader();
    let group = topo.group_world(members);
    let local = tree_reduce(
        comm,
        Members::Sub(&group),
        topo.idx_in_group(me),
        topo.idx_in_group(leader),
        base + T_INTRA_TREE,
        data,
        combine,
    )
    .await?;
    let Some(local) = local else {
        return Ok(None);
    };
    let leaders = topo.leaders_world(members);
    let root_g = topo.root_group(root);
    tree_reduce(
        comm,
        Members::Sub(&leaders),
        topo.my_group,
        root_g,
        base + T_INTER_TREE,
        &local,
        combine,
    )
    .await
}

/// Node-aware gather: members send their block to the node leader, each
/// leader concatenates its group's blocks into one bundle, and only the
/// bundles cross the inter-node links to the root.
pub(crate) async fn hier_gather<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    root: usize,
    base: u64,
) -> Result<Option<Vec<T>>> {
    let topo = HierTopo::build(comm, members, me, root);
    let leader = topo.my_leader();
    let blk = data.len() * T::SIZE;
    if me != leader {
        comm.coll_send(data, members.at(leader), base + T_INTRA_FANIN)?;
        return Ok(None);
    }
    let mut bundle: Vec<u8> = Vec::with_capacity(blk * topo.groups[topo.my_group].len());
    let my_members: Vec<usize> = topo.groups[topo.my_group].clone();
    for &pos in &my_members {
        if pos == me {
            bundle.extend_from_slice(&encode_slice(data));
        } else {
            let env = comm
                .coll_recv_raw::<T>(members.at(pos), base + T_INTRA_FANIN)
                .await?;
            if env.payload.len() != blk {
                return Err(Error::InvalidArgument(format!(
                    "gather contributions differ in length ({} vs {}); use gatherv",
                    env.payload.len() / T::SIZE,
                    data.len()
                )));
            }
            bundle.extend_from_slice(&env.payload);
        }
    }
    if me != root {
        comm.coll_send_bytes(
            Bytes::from(bundle),
            T::NAME,
            T::SIZE,
            members.at(root),
            base + T_INTER_BUNDLE,
        )?;
        return Ok(None);
    }
    // Root: take the other leaders' bundles and splice every block back
    // into participant-position order.
    let n = members.len();
    let l = topo.groups.len();
    let mut bundles: Vec<Option<Bytes>> = (0..l).map(|_| None).collect();
    bundles[topo.my_group] = Some(Bytes::from(bundle));
    for (g, grp) in topo.groups.iter().enumerate() {
        if g == topo.my_group {
            continue;
        }
        let env = comm
            .coll_recv_raw::<T>(members.at(topo.leaders[g]), base + T_INTER_BUNDLE)
            .await?;
        if env.payload.len() != blk * grp.len() {
            return Err(Error::InvalidArgument(
                "gather contributions differ in length; use gatherv".into(),
            ));
        }
        bundles[g] = Some(env.payload);
    }
    let loc = topo.locate_all(n);
    let mut out: Vec<T> = Vec::with_capacity(data.len() * n);
    for &(g, i) in loc.iter() {
        let b = bundles[g].as_ref().expect("all bundles received");
        decode_extend(&b[i * blk..(i + 1) * blk], &mut out);
    }
    Ok(Some(out))
}

/// Node-aware allgather: intra-node fan-in builds one bundle per node,
/// the bundles circulate over a ring of leaders, each leader splices the
/// full payload back into participant order, and an intra-node tree
/// broadcast delivers it.
pub(crate) async fn hier_allgather<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    base: u64,
) -> Result<Vec<T>> {
    let topo = HierTopo::build(comm, members, me, 0);
    let leader = topo.my_leader();
    let blk = data.len() * T::SIZE;
    let n = members.len();
    let mut payload = Bytes::new();
    if me != leader {
        comm.coll_send(data, members.at(leader), base + T_INTRA_FANIN)?;
    } else {
        let my_members: Vec<usize> = topo.groups[topo.my_group].clone();
        let mut bundle: Vec<u8> = Vec::with_capacity(blk * my_members.len());
        for &pos in &my_members {
            if pos == me {
                bundle.extend_from_slice(&encode_slice(data));
            } else {
                let env = comm
                    .coll_recv_raw::<T>(members.at(pos), base + T_INTRA_FANIN)
                    .await?;
                if env.payload.len() != blk {
                    return Err(Error::InvalidArgument(
                        "allgather contributions differ in length".into(),
                    ));
                }
                bundle.extend_from_slice(&env.payload);
            }
        }
        let l = topo.groups.len();
        let mut bundles: Vec<Option<Bytes>> = (0..l).map(|_| None).collect();
        bundles[topo.my_group] = Some(Bytes::from(bundle));
        let right = members.at(topo.leaders[(topo.my_group + 1) % l]);
        let left = members.at(topo.leaders[(topo.my_group + l - 1) % l]);
        for k in 0..l.saturating_sub(1) {
            let tag = base + T_INTER_RING + (k as u64 % 64);
            let send_b = (topo.my_group + l - k) % l;
            let out_payload = bundles[send_b]
                .as_ref()
                .expect("bundle held from previous round")
                .clone();
            comm.coll_send_bytes(out_payload, T::NAME, T::SIZE, right, tag)?;
            let recv_b = (topo.my_group + l - k - 1) % l;
            let env = comm.coll_recv_raw::<T>(left, tag).await?;
            if env.payload.len() != blk * topo.groups[recv_b].len() {
                return Err(Error::InvalidArgument(
                    "allgather contributions differ in length".into(),
                ));
            }
            bundles[recv_b] = Some(env.payload);
        }
        let loc = topo.locate_all(n);
        let mut full: Vec<u8> = Vec::with_capacity(blk * n);
        for &(g, i) in loc.iter() {
            let b = bundles[g].as_ref().expect("all bundles circulated");
            full.extend_from_slice(&b[i * blk..(i + 1) * blk]);
        }
        payload = Bytes::from(full);
    }
    let group = topo.group_world(members);
    payload = tree_bcast_bytes::<T>(
        comm,
        Members::Sub(&group),
        topo.idx_in_group(me),
        topo.idx_in_group(leader),
        base + T_INTRA_TREE,
        payload,
    )
    .await?;
    Ok(decode_vec(&payload))
}

/// Split a framed buffer (`u64` little-endian length prefix per block)
/// into `expect` blocks.
fn split_frames(buf: &[u8], expect: usize) -> Result<Vec<&[u8]>> {
    let mut out = Vec::with_capacity(expect);
    let mut off = 0usize;
    while off < buf.len() {
        if off + 8 > buf.len() {
            return Err(Error::InvalidArgument("malformed allgatherv bundle".into()));
        }
        let len = u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes")) as usize;
        off += 8;
        if off + len > buf.len() {
            return Err(Error::InvalidArgument("malformed allgatherv bundle".into()));
        }
        out.push(&buf[off..off + len]);
        off += len;
    }
    if out.len() != expect {
        return Err(Error::InvalidArgument("malformed allgatherv bundle".into()));
    }
    Ok(out)
}

/// Append a length-framed block to `buf`.
fn push_frame(buf: &mut Vec<u8>, block: &[u8]) {
    buf.extend_from_slice(&(block.len() as u64).to_le_bytes());
    buf.extend_from_slice(block);
}

/// Node-aware allgatherv: like [`hier_allgather`] but with ragged
/// contributions carried in length-framed bundles (typed as `u8` on the
/// wire, since a framed bundle is not a whole number of `T`s).
pub(crate) async fn hier_allgatherv<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    base: u64,
) -> Result<Vec<Vec<T>>> {
    let topo = HierTopo::build(comm, members, me, 0);
    let leader = topo.my_leader();
    let n = members.len();
    let mut payload = Bytes::new();
    if me != leader {
        comm.coll_send(data, members.at(leader), base + T_INTRA_FANIN)?;
    } else {
        let my_members: Vec<usize> = topo.groups[topo.my_group].clone();
        let mut bundle: Vec<u8> = Vec::new();
        for &pos in &my_members {
            if pos == me {
                push_frame(&mut bundle, &encode_slice(data));
            } else {
                let env = comm
                    .coll_recv_raw::<T>(members.at(pos), base + T_INTRA_FANIN)
                    .await?;
                push_frame(&mut bundle, &env.payload);
            }
        }
        let l = topo.groups.len();
        let mut bundles: Vec<Option<Bytes>> = (0..l).map(|_| None).collect();
        bundles[topo.my_group] = Some(Bytes::from(bundle));
        let right = members.at(topo.leaders[(topo.my_group + 1) % l]);
        let left = members.at(topo.leaders[(topo.my_group + l - 1) % l]);
        for k in 0..l.saturating_sub(1) {
            let tag = base + T_INTER_RING + (k as u64 % 64);
            let send_b = (topo.my_group + l - k) % l;
            let out_payload = bundles[send_b]
                .as_ref()
                .expect("bundle held from previous round")
                .clone();
            comm.coll_send_bytes(out_payload, u8::NAME, u8::SIZE, right, tag)?;
            let recv_b = (topo.my_group + l - k - 1) % l;
            bundles[recv_b] = Some(comm.coll_recv_raw::<u8>(left, tag).await?.payload);
        }
        // Re-frame into participant-position order.
        let mut frames: Vec<Vec<&[u8]>> = Vec::with_capacity(l);
        for (g, grp) in topo.groups.iter().enumerate() {
            let b = bundles[g].as_ref().expect("all bundles circulated");
            frames.push(split_frames(b, grp.len())?);
        }
        let loc = topo.locate_all(n);
        let mut full: Vec<u8> = Vec::new();
        for &(g, i) in loc.iter() {
            push_frame(&mut full, frames[g][i]);
        }
        payload = Bytes::from(full);
    }
    let group = topo.group_world(members);
    payload = tree_bcast_bytes::<u8>(
        comm,
        Members::Sub(&group),
        topo.idx_in_group(me),
        topo.idx_in_group(leader),
        base + T_INTRA_TREE,
        payload,
    )
    .await?;
    let blocks = split_frames(&payload, n)?;
    Ok(blocks.into_iter().map(decode_vec::<T>).collect())
}

/// Node-aware alltoall: members hand their full outgoing row to the node
/// leader; leaders exchange one aggregated bundle per node pair (each
/// bundle laid out `[source member × destination member]`), then deliver
/// each member its assembled result row. Inter-node links carry one
/// message per node pair instead of one per rank pair.
pub(crate) async fn hier_alltoall<T: Datatype>(
    comm: &mut Comm<'_>,
    members: Members<'_>,
    me: usize,
    data: &[T],
    base: u64,
) -> Result<Vec<T>> {
    let n = members.len();
    debug_assert!(data.len().is_multiple_of(n), "caller checks divisibility");
    let chunk = data.len() / n;
    let blk = chunk * T::SIZE;
    let topo = HierTopo::build(comm, members, me, 0);
    let leader = topo.my_leader();
    if me != leader {
        comm.coll_send(data, members.at(leader), base + T_INTRA_FANIN)?;
        let env = comm
            .coll_recv_raw::<T>(members.at(leader), base + T_INTRA_RESULT)
            .await?;
        return Ok(decode_vec(&env.payload));
    }
    // Collect each group member's full outgoing row, in position order.
    let my_members: Vec<usize> = topo.groups[topo.my_group].clone();
    let m = my_members.len();
    let mut rows: Vec<Bytes> = Vec::with_capacity(m);
    for &pos in &my_members {
        if pos == me {
            rows.push(encode_slice(data));
        } else {
            let env = comm
                .coll_recv_raw::<T>(members.at(pos), base + T_INTRA_FANIN)
                .await?;
            if env.payload.len() != blk * n {
                return Err(Error::InvalidArgument(
                    "alltoall blocks differ in length".into(),
                ));
            }
            rows.push(env.payload);
        }
    }
    // One bundle per destination node: [my member i × their member j].
    let l = topo.groups.len();
    for off in 1..l {
        let d = (topo.my_group + off) % l;
        let dst_grp = &topo.groups[d];
        let mut bundle: Vec<u8> = Vec::with_capacity(m * dst_grp.len() * blk);
        for row in &rows {
            for &q in dst_grp {
                bundle.extend_from_slice(&row[q * blk..(q + 1) * blk]);
            }
        }
        comm.coll_send_bytes(
            Bytes::from(bundle),
            T::NAME,
            T::SIZE,
            members.at(topo.leaders[d]),
            base + T_INTER_BUNDLE,
        )?;
    }
    let mut bundles: Vec<Option<Bytes>> = (0..l).map(|_| None).collect();
    for off in 1..l {
        let g = (topo.my_group + l - off) % l;
        let env = comm
            .coll_recv_raw::<T>(members.at(topo.leaders[g]), base + T_INTER_BUNDLE)
            .await?;
        if env.payload.len() != topo.groups[g].len() * m * blk {
            return Err(Error::InvalidArgument(
                "alltoall blocks differ in length".into(),
            ));
        }
        bundles[g] = Some(env.payload);
    }
    // Assemble and deliver each member's result row in world order.
    let loc = topo.locate_all(n);
    let mut own: Vec<u8> = Vec::new();
    for (j, &q) in my_members.iter().enumerate() {
        let mut res: Vec<u8> = Vec::with_capacity(blk * n);
        for &(g, i) in loc.iter() {
            if g == topo.my_group {
                res.extend_from_slice(&rows[i][q * blk..(q + 1) * blk]);
            } else {
                let b = bundles[g].as_ref().expect("all bundles received");
                let idx = i * m + j;
                res.extend_from_slice(&b[idx * blk..(idx + 1) * blk]);
            }
        }
        if q == me {
            own = res;
        } else {
            comm.coll_send_bytes(
                Bytes::from(res),
                T::NAME,
                T::SIZE,
                members.at(q),
                base + T_INTRA_RESULT,
            )?;
        }
    }
    Ok(decode_vec(&Bytes::from(own)))
}
