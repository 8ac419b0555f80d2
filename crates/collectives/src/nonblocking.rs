//! Nonblocking chunked collectives: the engine every collective runs on.
//!
//! A blocking exchange stalls every rank at each collective — the overlap
//! gap the cross-cloud training literature attacks with chunked
//! pipelining. This engine is an issue/wait protocol instead:
//!
//! * `issue` deposits this rank's contribution and returns a [`CommRequest`]
//!   immediately — the caller keeps computing;
//! * once the last rank has deposited, the collective's tensor is split into
//!   a **shape-derived chunk schedule** ([`COMM_CHUNK_ELEMS`] elements per
//!   chunk) and the chunks become claimable work items;
//! * ranks inside [`CommRequest::wait`] / [`CommRequest::test`] claim chunks
//!   with an atomic counter and reduce/copy them cooperatively, so the
//!   reduction of a bucket proceeds while other ranks are still computing —
//!   and is performed **once** across the group instead of redundantly per
//!   rank.
//!
//! Reductions walk contributions in rank order within every chunk, and the
//! chunk schedule depends only on the tensor shape — never on thread count
//! or timing — so results are bitwise identical at any parallelism. Every
//! completed chunk stamps a [`crate::traffic::ChunkEvent`] (ready/done
//! timestamps + ring-model wire bytes), which is how the overlap fraction
//! is *measured* rather than assumed. A zero-element round (a barrier) has
//! no chunks: it completes the moment its last rank deposits.
//!
//! Collectives are matched across ranks by a per-rank issue counter: the
//! i-th collective issued on a communicator must be the same logical
//! collective on every rank (the SPMD invariant); kind and shape are
//! validated at deposit time.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dchag_tensor::dtype::bf16_round_trip;
use dchag_tensor::ops;
use dchag_tensor::pool::pooled_copy;
use dchag_tensor::{Shape, Tensor};

use crate::fault::{self, CommError, FaultPoint};
use crate::thread_comm::CommCore;
use crate::traffic::{ChunkEvent, CollOp, TrafficLog};

/// Unsuccessful condvar polls before a deadline-bounded wait parks (the
/// spin half of spin→park: a peer that deposits within a few hundred
/// nanoseconds is caught without a syscall).
const WAIT_SPINS: u32 = 64;

/// Elements per pipeline chunk (64 KiB of f32): small enough that a bucket
/// splits into several overlappable stages, large enough that the per-chunk
/// claim/stamp overhead is noise. Part of the shape-derived schedule — do
/// not make this depend on thread count.
///
/// This is the **fixed fallback**; a planner that knows the fabric's α-β
/// parameters can install a derived value via [`set_comm_chunk_elems`]
/// (see `dchag_perf::comm::optimal_chunk_elems` and the installer in
/// `dchag_parallel`).
pub const COMM_CHUNK_ELEMS: usize = 16 * 1024;

/// Process-wide pipeline chunk size, defaulting to [`COMM_CHUNK_ELEMS`].
static CHUNK_ELEMS: AtomicUsize = AtomicUsize::new(COMM_CHUNK_ELEMS);

/// Elements per pipeline chunk currently in force for new collectives.
pub fn comm_chunk_elems() -> usize {
    CHUNK_ELEMS.load(Ordering::Relaxed)
}

/// Install an α-β-derived pipeline chunk size (in f32 elements, clamped to
/// ≥ 1); returns the previous value so tests and planners can restore it.
///
/// The value is read **once per collective**, when the last depositing rank
/// freezes the chunk schedule, so every rank of a round sees the same
/// schedule regardless of when the planner ran. Chunk boundaries never
/// change reduction results (reduction is elementwise in rank order), only
/// pipeline granularity.
pub fn set_comm_chunk_elems(elems: usize) -> usize {
    CHUNK_ELEMS.swap(elems.max(1), Ordering::Relaxed)
}

/// Which collective a round performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollKind {
    AllReduceSum,
    ReduceScatterSum,
    AllGatherCat { axis: usize },
}

impl CollKind {
    pub(crate) fn op(self) -> CollOp {
        match self {
            CollKind::AllReduceSum => CollOp::AllReduce,
            CollKind::ReduceScatterSum => CollOp::ReduceScatter,
            CollKind::AllGatherCat { .. } => CollOp::AllGather,
        }
    }
}

/// Wire encoding for the chunked pipeline.
///
/// `Bf16` models encode-on-send / decode-and-reduce: every rank's
/// contribution is rounded through bf16 (the value it would carry across a
/// half-width wire) and the reduction then runs in f32, in rank order
/// within every chunk — so results stay bitwise deterministic at any
/// parallelism and any chunk granularity, exactly like the f32 wire. Each
/// chunk's modeled wire bytes halve accordingly. The accumulate tier never
/// changes: only what travels is narrowed (see the tensor README's
/// "Precision tiers").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CommPrecision {
    /// Full-width wire — contributions travel as their exact f32 values.
    #[default]
    F32,
    /// Half-width wire — contributions are rounded to bf16 on send.
    Bf16,
}

impl CommPrecision {
    /// Bytes one element occupies on the wire.
    #[inline]
    pub fn elem_bytes(self) -> usize {
        match self {
            CommPrecision::F32 => 4,
            CommPrecision::Bf16 => 2,
        }
    }

    /// The value an f32 contribution holds after crossing this wire.
    #[inline]
    fn decode_sent(self, x: f32) -> f32 {
        match self {
            CommPrecision::F32 => x,
            CommPrecision::Bf16 => bf16_round_trip(x),
        }
    }
}

/// One work item: copy/reduce `len` elements into the shared output buffer.
struct Chunk {
    /// Source rank for gather chunks; ignored (all ranks) for reductions.
    src: usize,
    src_off: usize,
    dst_off: usize,
    len: usize,
}

/// Shared output buffer written by exclusively-claimed chunk ranges.
struct SharedBuf(UnsafeCell<Vec<f32>>);

// SAFETY: chunks are claimed via an atomic fetch_add so every range has
// exactly one writer; readers only look after the completion flag (an
// acquire-load paired with the last writer's release-store).
unsafe impl Sync for SharedBuf {}
unsafe impl Send for SharedBuf {}

impl SharedBuf {
    fn new(len: usize) -> Self {
        SharedBuf(UnsafeCell::new(vec![0.0f32; len]))
    }

    /// SAFETY: caller must hold the exclusive claim for `[off, off+len)`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slab(&self, off: usize, len: usize) -> &mut [f32] {
        let v = &mut *self.0.get();
        &mut v[off..off + len]
    }

    /// SAFETY: caller must have observed the round's completion flag.
    unsafe fn read(&self) -> &[f32] {
        &*self.0.get()
    }
}

/// State frozen when the last rank deposits; read-only afterwards.
struct Frozen {
    contribs: Vec<Tensor>,
    chunks: Vec<Chunk>,
    buf: SharedBuf,
    /// Flat start offset of each rank's region in the gather output.
    gather_offsets: Vec<usize>,
    /// Rank-identical results (all-reduce, all-gather) are materialized
    /// once by the first finisher and `Arc`-cloned by the rest.
    result: OnceLock<Tensor>,
    ready_us: f64,
}

/// Mutable-under-the-engine-lock stamps.
#[derive(Default)]
struct Stamps {
    issued_us: f64,
    /// `seq` of the logical `CollEvent` (set by group-rank-0's deposit).
    event_seq: Option<usize>,
}

/// One in-flight collective round, shared between the depositing ranks and
/// the cooperative chunk workers.
pub(crate) struct Round {
    kind: CollKind,
    precision: CommPrecision,
    group: usize,
    seq: u64,
    frozen: OnceLock<Frozen>,
    next_chunk: AtomicUsize,
    done_chunks: AtomicUsize,
    complete: AtomicBool,
    stamps: Mutex<Stamps>,
}

impl Round {
    fn claimable(&self) -> bool {
        match self.frozen.get() {
            None => false,
            Some(f) => {
                !self.complete.load(Ordering::Acquire)
                    && self.next_chunk.load(Ordering::Relaxed) < f.chunks.len()
            }
        }
    }
}

struct RoundEntry {
    arrived: usize,
    retired: usize,
    contribs: Vec<Option<Tensor>>,
    /// Which contributions came over the wire from another process.
    remote: Vec<bool>,
    shared: Arc<Round>,
}

impl RoundEntry {
    fn open(
        kind: CollKind,
        precision: CommPrecision,
        group: usize,
        seq: u64,
        log: &TrafficLog,
    ) -> Self {
        RoundEntry {
            arrived: 0,
            retired: 0,
            contribs: vec![None; group],
            remote: vec![false; group],
            shared: Arc::new(Round {
                kind,
                precision,
                group,
                seq,
                frozen: OnceLock::new(),
                next_chunk: AtomicUsize::new(0),
                done_chunks: AtomicUsize::new(0),
                complete: AtomicBool::new(false),
                stamps: Mutex::new(Stamps {
                    issued_us: log.now_us(),
                    event_seq: None,
                }),
            }),
        }
    }

    /// Why `t` (a `kind` contribution on a `precision` wire) cannot join
    /// this round, if it cannot.
    fn mismatch(&self, kind: CollKind, precision: CommPrecision, t: &Tensor) -> Option<String> {
        let seq = self.shared.seq;
        if self.shared.kind != kind {
            return Some(format!(
                "{kind:?} at collective #{seq} but a peer issued {:?} — nonblocking collectives \
                 must be issued in the same order on every rank",
                self.shared.kind
            ));
        }
        if self.shared.precision != precision {
            return Some(format!(
                "collective #{seq} on a {precision:?} wire but a peer used {:?} — every rank of \
                 a group must agree on the wire precision",
                self.shared.precision
            ));
        }
        let first = self.contribs.iter().flatten().next()?;
        let same = match kind {
            CollKind::AllReduceSum | CollKind::ReduceScatterSum => first.dims() == t.dims(),
            CollKind::AllGatherCat { axis } => {
                let mut dims = first.dims().iter().zip(t.dims()).enumerate();
                first.ndim() == t.ndim() && dims.all(|(d, (a, b))| d == axis || a == b)
            }
        };
        (!same).then(|| {
            format!(
                "{kind:?} contribution {:?} at collective #{seq} does not match a peer's {:?}",
                t.dims(),
                first.dims()
            )
        })
    }

    /// Rank of the first contribution already deposited, if any.
    fn first_contributor(&self) -> Option<usize> {
        self.contribs.iter().position(Option::is_some)
    }
}

/// Why a contribution was refused. Nothing was deposited in either case.
#[derive(Debug, PartialEq)]
pub(crate) enum DepositError {
    /// The group is poisoned.
    Dead(CommError),
    /// The contribution disagrees with what a rank in *another process*
    /// deposited for the same collective (kind, wire precision or shape):
    /// an SPMD violation that only the transport can attribute and fail.
    /// `peer` is the group rank on the other side of the disagreement.
    Mismatch { peer: usize, why: String },
}

/// Shape constraints a contribution must meet on its own.
fn check_contribution(kind: CollKind, group: usize, t: &Tensor) -> Result<(), String> {
    match kind {
        CollKind::ReduceScatterSum if !t.dims().first().is_some_and(|d| d.is_multiple_of(group)) => Err(
            format!("reduce_scatter axis 0 of {:?} not divisible by group size {group}", t.dims()),
        ),
        CollKind::AllGatherCat { axis } if axis >= t.ndim() => {
            Err(format!("AllGatherCat axis {axis} out of range for {:?}", t.dims()))
        }
        _ => Ok(()),
    }
}

#[derive(Default)]
struct EngineState {
    /// Per-rank issue counters: rank r's next collective gets seq
    /// `next_seq[r]` — identical programs issue identical sequences.
    next_seq: Vec<u64>,
    rounds: HashMap<u64, RoundEntry>,
}

/// Per-process-group nonblocking engine, owned by a [`CommCore`].
pub(crate) struct Engine {
    state: Mutex<EngineState>,
    cv: Condvar,
    poisoned: AtomicBool,
    /// First poison cause wins (set under the state lock): a wave of
    /// secondary failures never overwrites the root attribution.
    poison_cause: OnceLock<CommError>,
}

impl Engine {
    pub(crate) fn new(size: usize) -> Self {
        Engine {
            state: Mutex::new(EngineState {
                next_seq: vec![0; size],
                rounds: HashMap::new(),
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            poison_cause: OnceLock::new(),
        }
    }

    /// Wake all engine waiters so they fail fast instead of hanging.
    pub(crate) fn poison(&self, cause: CommError) {
        let _g = self.state.lock();
        let _ = self.poison_cause.set(cause);
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// `Err(cause)` once the group is poisoned.
    pub(crate) fn check_live(&self) -> Result<(), CommError> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(self.poison_cause.get().copied().unwrap_or(CommError::Poisoned))
        } else {
            Ok(())
        }
    }

    /// Mark every incomplete in-flight round aborted in the traffic log so
    /// its partial chunk stamps can't skew byte totals or α-β samples.
    /// Called after poisoning, when a peer is known dead.
    pub(crate) fn abort_inflight(&self, log: &TrafficLog) {
        let st = self.state.lock();
        for entry in st.rounds.values() {
            if !entry.shared.complete.load(Ordering::Acquire) {
                if let Some(es) = entry.shared.stamps.lock().event_seq {
                    log.mark_round_aborted(es);
                }
            }
        }
    }

    /// Rounds currently tracked (in flight or not yet retired by every
    /// rank) — diagnostics and leak tests.
    pub(crate) fn rounds_len(&self) -> usize {
        self.state.lock().rounds.len()
    }

    /// Mark every incomplete in-flight round *disturbed* in the traffic log
    /// (its frames crossed a reconnect, so its duration measures backoff,
    /// not the fabric). Called by a socket transport after re-establishing
    /// a severed connection; unlike [`abort_inflight`](Engine::abort_inflight)
    /// the rounds still complete and their bytes still count.
    pub(crate) fn disturb_inflight(&self, log: &TrafficLog) {
        let st = self.state.lock();
        for entry in st.rounds.values() {
            if !entry.shared.complete.load(Ordering::Acquire) {
                if let Some(es) = entry.shared.stamps.lock().event_seq {
                    log.mark_round_disturbed(es);
                }
            }
        }
    }
}

/// Handle to an in-flight collective. Obtain from the `Communicator::i*`
/// methods; retrieve the result with [`wait`](CommRequest::wait). Dropping a
/// request without waiting is allowed (the deposit already happened, so
/// peers still complete); the result is simply discarded and the rank's
/// share of the round bookkeeping is retired by `Drop`.
pub struct CommRequest {
    core: Arc<CommCore>,
    log: Arc<TrafficLog>,
    round: Arc<Round>,
    rank: usize,
    seq: u64,
    retired: bool,
}

/// Deposit `t` as `rank`'s contribution to its next collective on this core
/// and return the request handle. `event_seq` attributes chunk events to the
/// logical traffic-log entry (recorded by group rank 0). Fails if the group
/// is already poisoned, and with [`DepositError::Mismatch`] if `t` disagrees
/// with a contribution that arrived from another process. A disagreement
/// with a rank of this process stays a panic: it is a program bug, not a
/// runtime fault.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_issue(
    core: &Arc<CommCore>,
    rank: usize,
    kind: CollKind,
    precision: CommPrecision,
    t: &Tensor,
    event_seq: Option<usize>,
    log: Arc<TrafficLog>,
) -> Result<CommRequest, DepositError> {
    fault::probe_issue();
    let engine = core.engine();
    let group = core.size();
    let mut st = engine.state.lock();
    let seq = st.next_seq[rank];
    if let Err(e) = engine.check_live() {
        // Detection at issue time belongs on the audit trail just like
        // detection inside a wait (`CommRequest::fail`).
        log.record_fault(format!("rank {rank} detected at issue of collective #{seq}: {e}"));
        return Err(DepositError::Dead(e));
    }
    if let Some(entry) = st.rounds.get(&seq) {
        if let Some(why) = entry.mismatch(kind, precision, t) {
            match entry.first_contributor() {
                Some(peer) if entry.remote[peer] => {
                    return Err(DepositError::Mismatch { peer, why });
                }
                _ => panic!("rank {rank} issued {why}"),
            }
        }
    }
    if let Err(why) = check_contribution(kind, group, t) {
        panic!("rank {rank}: {why}");
    }
    st.next_seq[rank] += 1;

    let entry = st
        .rounds
        .entry(seq)
        .or_insert_with(|| RoundEntry::open(kind, precision, group, seq, &log));
    debug_assert!(entry.contribs[rank].is_none(), "rank {rank} double-issue at #{seq}");
    entry.contribs[rank] = Some(t.clone());
    entry.arrived += 1;
    if let Some(es) = event_seq {
        entry.shared.stamps.lock().event_seq = Some(es);
    }
    let round = entry.shared.clone();
    if entry.arrived == group {
        let contribs: Vec<Tensor> = entry.contribs.iter_mut().map(|c| c.take().unwrap()).collect();
        freeze(&mut st, &round, contribs, log.now_us());
        engine.cv.notify_all();
    }
    drop(st);
    Ok(CommRequest {
        core: core.clone(),
        log,
        round,
        rank,
        seq,
        retired: false,
    })
}

/// Deposit `t` as the contribution of a rank that lives in **another
/// process** (called by a transport receiver thread). Identical to
/// [`try_issue`] except: no fault-injection probe (the remote rank's probes
/// ran in its own process), no `event_seq` (the local rank's deposit stamps
/// attribution on this process's log), and the remote rank's share of the
/// round bookkeeping is retired immediately — a remote rank never waits
/// here. Returns the engine-assigned sequence number so the transport can
/// cross-check it against the frame's wire sequence.
///
/// A frame that disagrees with this process's round (kind, precision or
/// shape) is refused with [`DepositError::Mismatch`] before anything is
/// mutated, so the receiver can fail the sender instead of panicking.
pub(crate) fn deposit_remote(
    core: &Arc<CommCore>,
    rank: usize,
    kind: CollKind,
    precision: CommPrecision,
    t: &Tensor,
    log: &TrafficLog,
) -> Result<u64, DepositError> {
    let engine = core.engine();
    let group = core.size();
    let mut st = engine.state.lock();
    engine.check_live().map_err(DepositError::Dead)?;
    let seq = st.next_seq[rank];
    let mismatch = st.rounds.get(&seq).and_then(|entry| entry.mismatch(kind, precision, t));
    if let Some(why) = mismatch.or_else(|| check_contribution(kind, group, t).err()) {
        return Err(DepositError::Mismatch { peer: rank, why });
    }
    st.next_seq[rank] += 1;

    let entry = st
        .rounds
        .entry(seq)
        .or_insert_with(|| RoundEntry::open(kind, precision, group, seq, log));
    debug_assert!(entry.contribs[rank].is_none(), "remote rank {rank} double-deposit at #{seq}");
    entry.contribs[rank] = Some(t.clone());
    entry.remote[rank] = true;
    entry.arrived += 1;
    entry.retired += 1;
    let round = entry.shared.clone();
    let fully_retired = entry.retired == group;
    if entry.arrived == group {
        let contribs: Vec<Tensor> = entry.contribs.iter_mut().map(|c| c.take().unwrap()).collect();
        freeze(&mut st, &round, contribs, log.now_us());
        engine.cv.notify_all();
    }
    if fully_retired {
        // The local rank already dropped its request (fire-and-forget):
        // nobody in this process will read the result, so release the round.
        st.rounds.remove(&seq);
    }
    Ok(seq)
}

/// Build the shape-derived chunk schedule and the output buffer; publish the
/// round as runnable. Called under the engine lock by the last depositor.
fn freeze(st: &mut EngineState, round: &Arc<Round>, contribs: Vec<Tensor>, ready_us: f64) {
    // One read per round: every rank that helps run this collective works
    // off the schedule frozen here, so a planner swapping the chunk size
    // concurrently can never split one round across two granularities.
    let chunk_elems = comm_chunk_elems();
    let mut chunks = Vec::new();
    let mut gather_offsets = Vec::new();
    let out_len = match round.kind {
        CollKind::AllReduceSum | CollKind::ReduceScatterSum => {
            let numel = contribs[0].numel();
            let mut off = 0;
            while off < numel {
                let len = chunk_elems.min(numel - off);
                chunks.push(Chunk { src: 0, src_off: off, dst_off: off, len });
                off += len;
            }
            numel
        }
        CollKind::AllGatherCat { .. } => {
            let mut base = 0;
            for (r, c) in contribs.iter().enumerate() {
                gather_offsets.push(base);
                let numel = c.numel();
                let mut off = 0;
                while off < numel {
                    let len = chunk_elems.min(numel - off);
                    chunks.push(Chunk { src: r, src_off: off, dst_off: base + off, len });
                    off += len;
                }
                base += numel;
            }
            base
        }
    };
    let n_chunks = chunks.len();
    let frozen = Frozen {
        contribs,
        chunks,
        buf: SharedBuf::new(out_len),
        gather_offsets,
        result: OnceLock::new(),
        ready_us,
    };
    round
        .frozen
        .set(frozen)
        .unwrap_or_else(|_| unreachable!("round frozen twice"));
    if n_chunks == 0 {
        // Complete at freeze (a barrier, or a gather of zero rows): every
        // rank has deposited and holds the round, so its bookkeeping entry
        // has nothing left to do — release it now rather than at the last
        // retire, so a barrier never shows up in `rounds_len`.
        round.complete.store(true, Ordering::Release);
        st.rounds.remove(&round.seq);
    }
}

/// Ring-model wire bytes for one chunk of `len` elements, at the round's
/// wire precision — a bf16 wire moves exactly half the bytes of f32.
fn chunk_wire_bytes(kind: CollKind, precision: CommPrecision, group: usize, len: usize) -> usize {
    let bytes = len * precision.elem_bytes();
    let g = group.max(1);
    match kind {
        // ring all-reduce = reduce-scatter + all-gather of the chunk
        CollKind::AllReduceSum => 2 * (g - 1) * bytes / g,
        CollKind::ReduceScatterSum => (g - 1) * bytes / g,
        // the source rank's chunk travels to every peer
        CollKind::AllGatherCat { .. } => (g - 1) * bytes,
    }
}

/// Run one claimed chunk: rank-order reduction or gather copy.
fn run_chunk(round: &Round, frozen: &Frozen, c: &Chunk) {
    // SAFETY: the chunk was claimed exclusively via `next_chunk.fetch_add`.
    let out = unsafe { frozen.buf.slab(c.dst_off, c.len) };
    let p = round.precision;
    match round.kind {
        CollKind::AllReduceSum | CollKind::ReduceScatterSum => {
            // Decode-and-reduce: each rank's contribution takes the value
            // it carried across the wire (identity for f32, a bf16 round
            // trip for the half-width wire), then plain f32 adds in rank
            // order — bitwise identical to a whole-tensor `ops::add` chain
            // on the same wire values.
            let first = &frozen.contribs[0].data()[c.src_off..c.src_off + c.len];
            for (o, &x) in out.iter_mut().zip(first) {
                *o = p.decode_sent(x);
            }
            for contrib in frozen.contribs.iter().skip(1) {
                let src = &contrib.data()[c.src_off..c.src_off + c.len];
                for (o, &x) in out.iter_mut().zip(src) {
                    *o += p.decode_sent(x);
                }
            }
        }
        CollKind::AllGatherCat { .. } => {
            let src = &frozen.contribs[c.src].data()[c.src_off..c.src_off + c.len];
            for (o, &x) in out.iter_mut().zip(src) {
                *o = p.decode_sent(x);
            }
        }
    }
}

/// Claim and run up to `max` chunks of any runnable round on this core
/// (oldest first). Returns whether any work was done. This is the
/// cooperative scheduler: every rank that waits — or polls via `test` —
/// drives forward whichever collective is ready, so reductions complete
/// while slower ranks are still computing.
fn try_progress(core: &CommCore, log: &TrafficLog, max: usize) -> bool {
    let engine = core.engine();
    let target: Option<Arc<Round>> = {
        let st = engine.state.lock();
        st.rounds
            .values()
            .filter(|e| e.shared.claimable())
            .min_by_key(|e| e.shared.seq)
            .map(|e| e.shared.clone())
    };
    let Some(round) = target else { return false };
    let frozen = round.frozen.get().expect("claimable implies frozen");
    let n_chunks = frozen.chunks.len();
    let mut did = false;
    for _ in 0..max {
        let ci = round.next_chunk.fetch_add(1, Ordering::Relaxed);
        if ci >= n_chunks {
            break;
        }
        let c = &frozen.chunks[ci];
        run_chunk(&round, frozen, c);
        did = true;
        let (issued_us, event_seq) = {
            let s = round.stamps.lock();
            (s.issued_us, s.event_seq)
        };
        log.record_chunk(ChunkEvent {
            op: round.kind.op(),
            coll_seq: event_seq.unwrap_or(usize::MAX),
            chunk: ci,
            bytes_on_wire: chunk_wire_bytes(round.kind, round.precision, round.group, c.len),
            issued_us,
            ready_us: frozen.ready_us,
            done_us: log.now_us(),
        });
        let done = round.done_chunks.fetch_add(1, Ordering::AcqRel) + 1;
        if done == n_chunks {
            round.complete.store(true, Ordering::Release);
            let _g = engine.state.lock();
            engine.cv.notify_all();
        }
    }
    did
}

impl CommRequest {
    /// Engine sequence number of this request's round (the per-rank issue
    /// counter value, identical on every member for the same collective) —
    /// a socket transport stamps it on the wire so the receiving side can
    /// cross-check SPMD order, and `split` derives sub-group ids from it.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Nonblocking completion check. Contributes a bounded amount of chunk
    /// work (one chunk) so polling callers still drive the pipeline.
    /// Panics (typed [`crate::fault::CommPanic`]) if the group is poisoned;
    /// use [`try_test`](CommRequest::try_test) for the fallible flavor.
    pub fn test(&self) -> bool {
        self.try_test().unwrap_or_else(|e| fault::comm_panic(e))
    }

    /// Fallible [`test`](CommRequest::test): `Err` if the group is poisoned.
    pub fn try_test(&self) -> Result<bool, CommError> {
        if self.round.complete.load(Ordering::Acquire) {
            return Ok(true);
        }
        self.core.engine().check_live()?;
        try_progress(&self.core, &self.log, 1);
        Ok(self.round.complete.load(Ordering::Acquire))
    }

    /// Drive chunk work without blocking and without consuming the request
    /// (cooperative progress for callers that interleave compute).
    pub fn progress(&self) {
        if !self.round.complete.load(Ordering::Acquire) {
            try_progress(&self.core, &self.log, usize::MAX);
        }
    }

    /// Retire this rank's share of the round; once every rank has retired
    /// (by `wait` or by drop), the round's state is released.
    fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        let engine = self.core.engine();
        let mut st = engine.state.lock();
        if let Some(entry) = st.rounds.get_mut(&self.seq) {
            entry.retired += 1;
            if entry.retired == self.round.group {
                st.rounds.remove(&self.seq);
            }
        }
    }

    /// Block until the collective completes and return this rank's result:
    /// the full sum (all-reduce), this rank's chunk of the sum
    /// (reduce-scatter), or the rank-order concatenation (all-gather).
    ///
    /// While blocked, the caller claims and executes pipeline chunks for any
    /// runnable collective on the group — waiting ranks are the comm engine.
    /// On poison the wait panics with a typed [`crate::fault::CommPanic`];
    /// use [`try_wait`](CommRequest::try_wait) to handle failure instead.
    pub fn wait(self) -> Tensor {
        self.try_wait(None).unwrap_or_else(|e| fault::comm_panic(e))
    }

    /// Record a detected failure on the traffic log and hand the cause back.
    fn fail(&self, e: CommError) -> CommError {
        self.log
            .record_fault(format!("rank {} detected at collective #{}: {e}", self.rank, self.seq));
        e
    }

    /// Fallible, deadline-bounded [`wait`](CommRequest::wait).
    ///
    /// `deadline: None` blocks until completion or poison (a dead peer is
    /// still detected — the launcher poisons every group when a rank
    /// unwinds). `Some(d)` additionally bounds the wait: a peer that is
    /// hung rather than dead surfaces as [`CommError::Timeout`] after `d`.
    /// The wait spins briefly, then parks on the engine condvar
    /// (spin→park); parked waiters are woken by deposits, chunk
    /// completions, and poison.
    ///
    /// On `Err` the request is consumed and its round bookkeeping retired —
    /// the collective's result is unrecoverable (the caller's next move is
    /// [`crate::Communicator::regroup`]).
    pub fn try_wait(self, deadline: Option<Duration>) -> Result<Tensor, CommError> {
        if let Some((rank, point)) = fault::probe_wait() {
            // Injected `MidChunkClaim`: claim one pipeline chunk of the
            // awaited round and die *without running it* — the round can
            // then never complete by progress alone, so survivors must be
            // freed by poison or deadline.
            if matches!(point, FaultPoint::MidChunkClaim(_)) && self.round.frozen.get().is_some() {
                self.round.next_chunk.fetch_add(1, Ordering::Relaxed);
            }
            fault::die(rank, point);
        }
        let engine = self.core.engine();
        let start = Instant::now();
        let mut spins = 0u32;
        let mut ticks = 0u32;
        loop {
            if self.round.complete.load(Ordering::Acquire) {
                break;
            }
            if let Err(e) = engine.check_live() {
                return Err(self.fail(e));
            }
            // Reading the clock every iteration would tax the failure-free
            // hot path (the acceptance bar is ≤ 1% over the infallible
            // wait), so throttle it; the parked branch below enforces the
            // deadline exactly via `wait_for`.
            if let Some(d) = deadline {
                if ticks & 63 == 0 {
                    let waited = start.elapsed();
                    if waited >= d {
                        return Err(self.fail(CommError::Timeout { waited }));
                    }
                }
            }
            ticks = ticks.wrapping_add(1);
            if try_progress(&self.core, &self.log, usize::MAX) {
                continue;
            }
            let mut st = engine.state.lock();
            if self.round.complete.load(Ordering::Acquire) {
                break;
            }
            if let Err(e) = engine.check_live() {
                drop(st);
                return Err(self.fail(e));
            }
            let work_available = st.rounds.values().any(|e| e.shared.claimable());
            if work_available {
                continue;
            }
            if spins < WAIT_SPINS {
                spins += 1;
                drop(st);
                std::hint::spin_loop();
                continue;
            }
            match deadline {
                None => engine.cv.wait(&mut st),
                Some(d) => {
                    let waited = start.elapsed();
                    if waited >= d {
                        drop(st);
                        return Err(self.fail(CommError::Timeout { waited }));
                    }
                    let _ = engine.cv.wait_for(&mut st, d - waited);
                }
            }
        }
        let mut this = self;
        let frozen = this.round.frozen.get().expect("complete implies frozen");
        // SAFETY: completion observed with acquire ordering above.
        let out = unsafe { frozen.buf.read() };
        let result = match this.round.kind {
            CollKind::AllReduceSum => frozen
                .result
                .get_or_init(|| {
                    Tensor::from_vec(pooled_copy(out), frozen.contribs[0].shape().clone())
                })
                .clone(),
            CollKind::ReduceScatterSum => {
                let dims = frozen.contribs[0].dims();
                let k = dims[0] / this.round.group;
                let row: usize = dims[1..].iter().product::<usize>().max(1);
                let mut out_dims = dims.to_vec();
                out_dims[0] = k;
                Tensor::from_vec(
                    pooled_copy(&out[this.rank * k * row..(this.rank + 1) * k * row]),
                    Shape::new(&out_dims),
                )
            }
            CollKind::AllGatherCat { axis } => frozen
                .result
                .get_or_init(|| {
                    if axis == 0 {
                        // Row-major concat along axis 0 is the staging buffer.
                        let mut dims = frozen.contribs[0].dims().to_vec();
                        dims[0] = frozen.contribs.iter().map(|c| c.dims()[0]).sum();
                        Tensor::from_vec(pooled_copy(out), Shape::new(&dims))
                    } else {
                        let parts: Vec<Tensor> = frozen
                            .contribs
                            .iter()
                            .zip(&frozen.gather_offsets)
                            .map(|(c, &off)| {
                                Tensor::from_vec(
                                    pooled_copy(&out[off..off + c.numel()]),
                                    c.shape().clone(),
                                )
                            })
                            .collect();
                        let refs: Vec<&Tensor> = parts.iter().collect();
                        ops::concat(&refs, axis)
                    }
                })
                .clone(),
        };
        this.retire();
        Ok(result)
    }
}

impl Drop for CommRequest {
    fn drop(&mut self) {
        // Un-waited requests (fire-and-forget, over-eager prefetch, unwind
        // after a poison panic) must still release their round bookkeeping,
        // or every dropped request would leak its contributions and output
        // buffer for the life of the process group.
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::run_ranks;

    /// Serializes tests that read or write the process-wide chunk size
    /// (cargo runs tests concurrently in one process).
    static CHUNK_CFG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn iall_reduce_matches_blocking_across_chunk_boundaries() {
        // 40_000 elements = 3 chunks (2 full + 1 partial).
        let run = run_ranks(4, |ctx| {
            let n = 40_000;
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec((0..n).map(|i| i as f32 * 0.001 + r).collect(), [n]);
            let req = ctx.comm.iall_reduce_sum(&t);
            let got = req.wait();
            (got.at(0), got.at(n - 1), got.numel())
        });
        // sum over ranks of (i*0.001 + r) = 4*i*0.001 + 6
        for (first, last, n) in run.outputs {
            assert_eq!(n, 40_000);
            assert_eq!(first, 6.0);
            assert_eq!(last, 39_999.0f32 * 0.001 * 4.0 + 6.0);
        }
    }

    #[test]
    fn issue_then_compute_then_wait() {
        let run = run_ranks(3, |ctx| {
            let t = Tensor::full([100], (ctx.comm.rank() + 1) as f32);
            let req = ctx.comm.iall_reduce_sum(&t);
            // "compute" between issue and wait
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += (i as f32).sin();
            }
            let out = req.wait();
            (out.at(0), acc.is_finite())
        });
        for (v, fin) in run.outputs {
            assert_eq!(v, 6.0);
            assert!(fin);
        }
    }

    #[test]
    fn ireduce_scatter_gives_rank_chunks() {
        let run = run_ranks(2, |ctx| {
            let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
            ctx.comm.ireduce_scatter_sum(&t).wait().to_vec()
        });
        assert_eq!(run.outputs[0], vec![2.0, 4.0]);
        assert_eq!(run.outputs[1], vec![6.0, 8.0]);
    }

    #[test]
    fn igather_cat_axis0_and_axis1() {
        let run = run_ranks(2, |ctx| {
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec(vec![r, r + 10.0], [1, 2]);
            let a0 = ctx.comm.iall_gather_cat(&t, 0).wait();
            let a1 = ctx.comm.iall_gather_cat(&t, 1).wait();
            (a0.dims().to_vec(), a0.to_vec(), a1.dims().to_vec(), a1.to_vec())
        });
        for (d0, v0, d1, v1) in run.outputs {
            assert_eq!(d0, vec![2, 2]);
            assert_eq!(v0, vec![0.0, 10.0, 1.0, 11.0]);
            assert_eq!(d1, vec![1, 4]);
            assert_eq!(v1, vec![0.0, 10.0, 1.0, 11.0]);
        }
    }

    #[test]
    fn several_requests_in_flight_complete_in_any_wait_order() {
        let run = run_ranks(2, |ctx| {
            let r = ctx.comm.rank() as f32;
            let a = ctx.comm.iall_reduce_sum(&Tensor::full([10], r + 1.0));
            let b = ctx.comm.iall_reduce_sum(&Tensor::full([10], 2.0 * r + 1.0));
            let c = ctx.comm.iall_gather_cat(&Tensor::full([2], r), 0);
            // wait out of issue order
            let vc = c.wait().to_vec();
            let vb = b.wait().at(0);
            let va = a.wait().at(0);
            (va, vb, vc)
        });
        for (va, vb, vc) in run.outputs {
            assert_eq!(va, 3.0);
            assert_eq!(vb, 4.0);
            assert_eq!(vc, vec![0.0, 0.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn test_polls_and_eventually_completes() {
        let run = run_ranks(2, |ctx| {
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([33_000]));
            // test() may be false while peers deposit; poll until done.
            let mut polls = 0usize;
            while !req.test() {
                polls += 1;
                assert!(polls < 1_000_000, "test never completed");
            }
            req.wait().at(0)
        });
        for v in run.outputs {
            assert_eq!(v, 2.0);
        }
    }

    #[test]
    fn dropped_request_does_not_block_peers() {
        let run = run_ranks(2, |ctx| {
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([8]));
            if ctx.comm.rank() == 0 {
                drop(req); // fire-and-forget: deposit already happened
                0.0
            } else {
                req.wait().at(0)
            }
        });
        assert_eq!(run.outputs[1], 2.0);
    }

    #[test]
    fn dropped_requests_retire_their_rounds() {
        // Fire-and-forget must not leak round state: drop retires, and once
        // every rank has retired (drop or wait) the entry is released.
        let run = run_ranks(2, |ctx| {
            for _ in 0..20 {
                let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([64]));
            }
            ctx.comm.barrier();
            ctx.comm.barrier(); // both ranks' drops have happened
            ctx.comm.inflight_rounds()
        });
        for n in run.outputs {
            assert_eq!(n, 0, "dropped requests must not leak rounds");
        }
    }

    #[test]
    fn adaptive_chunk_size_reshapes_schedule_and_restores() {
        let _guard = CHUNK_CFG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(comm_chunk_elems(), COMM_CHUNK_ELEMS, "default is the fixed constant");
        let prev = set_comm_chunk_elems(4096);
        assert_eq!(prev, COMM_CHUNK_ELEMS);
        let run = run_ranks(2, |ctx| {
            let n = 4096 * 3 + 5; // 4 chunks under the installed size
            let req = ctx.comm.iall_reduce_sum(&Tensor::full([n], 1.0));
            let out = req.wait();
            ctx.comm.barrier();
            (out.data().iter().all(|&x| x == 2.0), ctx.comm.traffic().chunk_events().len())
        });
        set_comm_chunk_elems(prev);
        for (ok, chunks) in run.outputs {
            assert!(ok, "reduction unchanged by chunk granularity");
            assert_eq!(chunks, 4);
        }
        // Degenerate install is clamped, never zero.
        let prev = set_comm_chunk_elems(0);
        assert_eq!(comm_chunk_elems(), 1);
        set_comm_chunk_elems(prev);
        assert_eq!(comm_chunk_elems(), COMM_CHUNK_ELEMS);
    }

    #[test]
    fn chunk_events_stamped_once_per_chunk() {
        let _guard = CHUNK_CFG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = run_ranks(2, |ctx| {
            let n = COMM_CHUNK_ELEMS * 2 + 7; // 3 chunks
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([n]));
            let _ = req.wait();
            ctx.comm.barrier();
            (
                ctx.comm.traffic().chunk_events().len(),
                ctx.comm.traffic().bytes_on_wire(),
            )
        });
        let (chunks, wire) = run.outputs[0];
        assert_eq!(chunks, 3, "one event per chunk across the whole group");
        // ring all-reduce: 2·(g−1)/g of the logical bytes
        assert_eq!(wire, (COMM_CHUNK_ELEMS * 2 + 7) * 4);
    }

    /// Pseudo-random payload with varied magnitudes (and values that do NOT
    /// sit on bf16 grid points, so the wire rounding is actually exercised).
    fn wire_payload(n: usize, salt: u64) -> Vec<f32> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((state >> 40) as f32) / (1u32 << 24) as f32; // [0,1)
                (u - 0.5) * 8.0
            })
            .collect()
    }

    #[test]
    fn bf16_wire_all_reduce_bitwise_deterministic_at_1_2_4_ranks() {
        // Same group size, repeated runs → identical bits on every rank
        // (rank-order reduction over round-tripped contributions is a pure
        // function of the contributions, independent of timing/parallelism).
        for &w in &[1usize, 2, 4] {
            let reduce = || {
                run_ranks(w, |ctx| {
                    let n = COMM_CHUNK_ELEMS + 321; // 2 chunks for w≥1
                    let t = Tensor::from_vec(
                        wire_payload(n, ctx.comm.rank() as u64 + 1),
                        [n],
                    );
                    let bf = ctx.comm.with_precision(CommPrecision::Bf16);
                    bf.iall_reduce_sum(&t)
                        .wait()
                        .to_vec()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<u32>>()
                })
                .outputs
            };
            let a = reduce();
            let b = reduce();
            assert_eq!(a, b, "w={w}: bf16 wire must be run-to-run bitwise stable");
            for r in 1..w {
                assert_eq!(a[0], a[r], "w={w}: bf16 wire must agree across ranks");
            }
        }
    }

    #[test]
    fn bf16_wire_matches_f32_within_tier_tolerance_and_rounds_contributions() {
        let run = run_ranks(2, |ctx| {
            let n = 1000;
            let t = Tensor::from_vec(wire_payload(n, ctx.comm.rank() as u64 + 9), [n]);
            let f32_sum = ctx.comm.iall_reduce_sum(&t).wait();
            let bf = ctx.comm.with_precision(CommPrecision::Bf16);
            let bf_sum = bf.iall_reduce_sum(&t).wait();
            // Exact model: sum over ranks of round-tripped contributions.
            let mine: Vec<f32> = t.to_vec().iter().map(|&x| bf16_round_trip(x)).collect();
            (f32_sum.to_vec(), bf_sum.to_vec(), mine)
        });
        let (f32_sum, bf_sum, m0) = &run.outputs[0];
        let (_, bf_sum1, m1) = &run.outputs[1];
        assert_eq!(bf_sum, bf_sum1);
        for i in 0..f32_sum.len() {
            // the bf16 wire result IS the f32 sum of round-tripped inputs…
            assert_eq!(bf_sum[i], m0[i] + m1[i], "elem {i}");
            // …and sits within the tier tolerance of the f32 result: each
            // contribution rounds by at most half a bf16 ulp (≤ |x|·2⁻⁹),
            // so the sum's error is bounded by the contribution magnitudes
            // (not the sum's — cancellation inflates relative error).
            let bound = (m0[i].abs() + m1[i].abs()) / 256.0 + 1e-6;
            assert!(
                (bf_sum[i] - f32_sum[i]).abs() <= bound,
                "elem {i}: {} vs {}",
                bf_sum[i],
                f32_sum[i]
            );
        }
    }

    #[test]
    fn bf16_wire_halves_bytes_on_wire_exactly() {
        let _guard = CHUNK_CFG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for &w in &[2usize, 4] {
            let wire_for = |precision: CommPrecision| {
                let run = run_ranks(w, |ctx| {
                    let n = COMM_CHUNK_ELEMS * 2 + 8; // 3 chunks, all even
                    let comm = ctx.comm.with_precision(precision);
                    let _ = comm.iall_reduce_sum(&Tensor::ones([n])).wait();
                    ctx.comm.barrier();
                    ctx.comm.traffic().bytes_on_wire()
                });
                run.outputs[0]
            };
            let full = wire_for(CommPrecision::F32);
            let half = wire_for(CommPrecision::Bf16);
            assert_eq!(half * 2, full, "w={w}: bf16 wire must move exactly half the bytes");
        }
    }

    #[test]
    fn bf16_wire_applies_to_gather_chunks() {
        let run = run_ranks(2, |ctx| {
            // 1.001 is not on the bf16 grid: the gathered copy must hold the
            // round-tripped (wire) value, not the sender's exact f32.
            let t = Tensor::full([8], 1.001f32 + ctx.comm.rank() as f32);
            let bf = ctx.comm.with_precision(CommPrecision::Bf16);
            bf.iall_gather_cat(&t, 0).wait().to_vec()
        });
        for out in run.outputs {
            assert_eq!(out[0], bf16_round_trip(1.001));
            assert_eq!(out[15], bf16_round_trip(2.001));
        }
    }

    #[test]
    #[should_panic(expected = "agree on the wire precision")]
    fn mismatched_wire_precision_is_detected() {
        run_ranks(2, |ctx| {
            let t = Tensor::ones([4]);
            if ctx.comm.rank() == 0 {
                ctx.comm.iall_reduce_sum(&t).wait()
            } else {
                ctx.comm
                    .with_precision(CommPrecision::Bf16)
                    .iall_reduce_sum(&t)
                    .wait()
            }
        });
    }

    #[test]
    #[should_panic(expected = "same order on every rank")]
    fn mismatched_issue_order_is_detected() {
        run_ranks(2, |ctx| {
            let t = Tensor::ones([4]);
            if ctx.comm.rank() == 0 {
                ctx.comm.iall_reduce_sum(&t).wait()
            } else {
                ctx.comm.iall_gather_cat(&t, 0).wait()
            }
        });
    }

    #[test]
    fn fault_try_wait_times_out_on_missing_peer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let timed_out = AtomicBool::new(false);
        let run = run_ranks(2, |ctx| {
            if ctx.comm.rank() == 0 {
                let req = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
                let err = req
                    .try_wait(Some(Duration::from_millis(25)))
                    .expect_err("peer never deposits before the deadline");
                let ok = matches!(err, CommError::Timeout { waited } if waited >= Duration::from_millis(25));
                timed_out.store(true, Ordering::SeqCst);
                ok
            } else {
                // Deposit only after rank 0 has observably timed out, then
                // match the abandoned round so the engine state drains.
                while !timed_out.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
                true
            }
        });
        assert!(run.outputs.iter().all(|&ok| ok));
        // Detection is on the audit trail.
        assert!(run
            .traffic
            .fault_events()
            .iter()
            .any(|f| f.cause.contains("timed out")));
    }

    #[test]
    fn fault_try_wait_without_deadline_matches_wait_bitwise() {
        let run = run_ranks(4, |ctx| {
            let n = COMM_CHUNK_ELEMS + 11; // 2 chunks
            let t = Tensor::from_vec(wire_payload(n, ctx.comm.rank() as u64 + 3), [n]);
            let a = ctx.comm.iall_reduce_sum(&t).wait();
            let b = ctx
                .comm
                .iall_reduce_sum(&t)
                .try_wait(Some(Duration::from_secs(30)))
                .expect("healthy group completes well inside the deadline");
            let bits =
                |x: &Tensor| x.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            (bits(&a), bits(&b))
        });
        for (a, b) in run.outputs {
            assert_eq!(a, b, "fallible path must be bitwise identical to wait()");
        }
    }

    #[test]
    fn fault_detection_at_issue_is_logged() {
        // A rank that issues after the poison has landed never waits: the
        // issue itself must put the detection on the audit trail.
        let core = CommCore::new(2, 0);
        let log = TrafficLog::new();
        core.poison(CommError::PeerFailed { rank: 1, epoch: 0 });
        let t = Tensor::ones([4]);
        let out = try_issue(&core, 0, CollKind::AllReduceSum, CommPrecision::F32, &t, None, log.clone());
        assert_eq!(out.map(drop).unwrap_err(), DepositError::Dead(CommError::PeerFailed { rank: 1, epoch: 0 }));
        let faults = log.fault_events();
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(faults[0].cause.contains("rank 0 detected at issue of collective #0"));
        assert!(faults[0].cause.contains("peer rank 1 failed"));
    }

    #[test]
    #[should_panic(expected = "rank 0 failed mid-flight")]
    fn waiters_on_inflight_requests_observe_poison() {
        run_ranks(2, |ctx| {
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
            if ctx.comm.rank() == 0 {
                // Panic *after* issuing but before waiting: rank 1's round
                // is complete-able, but give it a second, unmatched round it
                // can never finish, then die.
                panic!("rank 0 failed mid-flight");
            }
            let _ = req.wait();
            // second collective never matched by rank 0
            ctx.comm.iall_reduce_sum(&Tensor::ones([4])).wait().at(0)
        });
    }
}
