//! Process groups and tensor collectives.
//!
//! A [`Communicator`] is one rank's handle to a process group. The world
//! group is created by [`crate::launch::run_ranks`]; sub-groups (TP, FSDP,
//! DP grids) are carved out with [`Communicator::split`], which follows
//! `MPI_Comm_split` semantics.
//!
//! Every collective is a round on the group's chunked engine
//! ([`crate::nonblocking`]), on both transports:
//!
//! * **Nonblocking** (`iall_reduce_sum`, `ireduce_scatter_sum`,
//!   `iall_gather_cat`) — issue a [`CommRequest`] immediately and let the
//!   caller overlap compute with the chunked pipeline.
//! * **Blocking** (`all_reduce_sum`, …) — thin `issue + wait` wrappers over
//!   the same engine, kept for call sites with nothing to overlap.
//! * **Derived** — `all_gather_vec` and `broadcast` are axis-0 gathers of
//!   one-row views (only the root contributes a row to a broadcast),
//!   `barrier` is a zero-element round, and `split` exchanges colours
//!   through one gather.
//!
//! All reductions are performed in rank order within every chunk, so
//! results are bit-identical across ranks, across runs, and across the
//! blocking/nonblocking flavors.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dchag_tensor::ops;
use dchag_tensor::Tensor;

use crate::transport;

use crate::fault::{comm_panic, CommError};
use crate::nonblocking::{self, CollKind, CommPrecision, CommRequest, DepositError};
use crate::thread_comm::CommCore;
use crate::topology::Topology;
use crate::traffic::{CollOp, TrafficLog};

/// Shared blackboard for the survivor-side regroup barrier.
///
/// Survivors that detected a failure rendezvous here *outside* any poisoned
/// core: each inserts its global rank into `arrived`; once every non-failed
/// rank is present, whichever survivor holds the lock builds one fresh
/// [`CommCore`] for the survivor set and publishes it as `built`. Departing
/// survivors drain the build; the last one clears it so the board is ready
/// for a future failure.
#[derive(Default)]
struct RegroupBoard {
    /// Regroup rounds started so far (monotone; incremented at build time,
    /// so late arrivals from an older round can never double-claim a build).
    round: u64,
    /// Global ranks waiting for the current round's build.
    arrived: BTreeSet<usize>,
    /// `(round, survivor global ranks, fresh core)` of the in-drain build.
    built: Option<(u64, Vec<usize>, Arc<CommCore>)>,
    /// Survivors that have taken the current build.
    departed: usize,
}

/// One entry of the world's core registry.
struct Registered {
    core: Weak<CommCore>,
    /// Ranks that were already on the failure roster, and not members,
    /// when the core was built. A death notice for one of them is stale
    /// for this core (the survivors built it without that rank), so it
    /// must not poison it.
    stale_deaths: BTreeSet<usize>,
}

/// State shared by every communicator of one world: the traffic log, the
/// physical topology, a registry of live cores by group id (members find
/// their group's core there, and panics poison through it), and the
/// failure/regroup bookkeeping.
pub struct WorldShared {
    pub log: Arc<TrafficLog>,
    pub topo: Topology,
    cores: Mutex<HashMap<u64, Registered>>,
    /// Global ranks known dead (marked by the launcher on panic, or by the
    /// regroup deadline on no-show). Grows monotonically for the world's
    /// lifetime — a declared-dead rank never rejoins.
    failed: Mutex<BTreeSet<usize>>,
    /// Bumped at every regroup; stamps [`CommError::PeerFailed`] so stale
    /// detections from before a regroup are distinguishable.
    epoch: AtomicU64,
    board: Mutex<RegroupBoard>,
    board_cv: Condvar,
}

impl WorldShared {
    pub fn new(topo: Topology) -> Arc<Self> {
        Arc::new(WorldShared {
            log: TrafficLog::new(),
            topo,
            cores: Mutex::new(HashMap::new()),
            failed: Mutex::new(BTreeSet::new()),
            epoch: AtomicU64::new(0),
            board: Mutex::new(RegroupBoard::default()),
            board_cv: Condvar::new(),
        })
    }

    /// The core of group `gid` with global `members`: the live one if a
    /// member already built it, else a fresh one, registered for
    /// poisoning. Every member of a group derives the same `gid`, so on
    /// the thread transport they all land on one shared core; a TCP
    /// process hosts only itself, so it always builds its own replica.
    pub(crate) fn group_core(&self, gid: u64, members: &[usize]) -> Arc<CommCore> {
        // Lock order: failed, released, then cores.
        let stale_deaths: BTreeSet<usize> =
            self.failed.lock().iter().copied().filter(|r| !members.contains(r)).collect();
        let mut cores = self.cores.lock();
        if let Some(core) = cores.get(&gid).and_then(|e| e.core.upgrade()) {
            return core;
        }
        cores.retain(|_, e| e.core.strong_count() > 0);
        let core = CommCore::new(members.len(), gid);
        cores.insert(gid, Registered { core: Arc::downgrade(&core), stale_deaths });
        core
    }

    /// Poison every live core with `cause` so blocked peers fail fast
    /// instead of hanging, and mark all their in-flight rounds aborted in
    /// the traffic log (their partial chunk stamps must not skew α-β fits).
    /// A `PeerFailed` notice skips cores built after that rank was already
    /// declared dead: they exclude it, and poisoning them would kill the
    /// survivors' fresh world.
    pub fn poison_all(&self, cause: CommError) {
        let dead = match cause {
            CommError::PeerFailed { rank, .. } => Some(rank),
            _ => None,
        };
        for e in self.cores.lock().values() {
            if dead.is_some_and(|r| e.stale_deaths.contains(&r)) {
                continue;
            }
            if let Some(c) = e.core.upgrade() {
                c.poison(cause);
                c.engine().abort_inflight(&self.log);
            }
        }
    }

    /// Record `rank` as dead and wake any regroup waiters so their survivor
    /// set shrinks. Called by the launcher before poisoning.
    pub fn mark_failed(&self, rank: usize) {
        {
            self.failed.lock().insert(rank);
        }
        // Taken *after* the failed lock is released (regroup nests them the
        // other way around, board → failed).
        let _g = self.board.lock();
        self.board_cv.notify_all();
    }

    /// Global ranks known dead, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failed.lock().iter().copied().collect()
    }

    /// Regroup epoch: number of elastic regroups performed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Set the epoch directly — used by the TCP transport, whose regroup
    /// agreement happens over the wire rather than on the shared board.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Survivor-side regroup barrier (see [`Communicator::regroup`]).
    ///
    /// Waits up to `deadline` for every not-yet-failed rank to arrive; ranks
    /// still missing at the deadline are declared failed (which shrinks the
    /// expected set — a lone survivor regroups to a world of one). Returns
    /// the agreed survivor set (global ranks, ascending) and the fresh core,
    /// or `Err` if this rank was itself declared failed by its peers.
    pub(crate) fn regroup(
        &self,
        me: usize,
        deadline: Duration,
    ) -> Result<(Vec<usize>, Arc<CommCore>), CommError> {
        let start = Instant::now();
        let mut board = self.board.lock();
        let target = board.round;
        board.arrived.insert(me);
        self.board_cv.notify_all();
        loop {
            if let Some((built_round, survivors, core)) = &board.built {
                if *built_round == target {
                    if !survivors.contains(&me) {
                        // Peers hit their deadline and moved on without us.
                        return Err(CommError::Poisoned);
                    }
                    let out = (survivors.clone(), core.clone());
                    board.departed += 1;
                    if board.departed == out.0.len() {
                        board.built = None;
                        board.departed = 0;
                        self.board_cv.notify_all();
                    }
                    return Ok(out);
                }
                // A build from another round is still draining; wait it out.
                let _ = self.board_cv.wait_for(&mut board, Duration::from_millis(1));
                continue;
            }
            // No build yet for our round. Lock order: board → failed.
            let failed = self.failed.lock().clone();
            if failed.contains(&me) {
                return Err(CommError::Poisoned);
            }
            let expected: Vec<usize> =
                (0..self.topo.world_size).filter(|r| !failed.contains(r)).collect();
            if expected.iter().all(|r| board.arrived.contains(r)) {
                // Everyone live is here — whoever holds the lock builds (the
                // mutex serializes; no designated-builder election needed).
                let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
                let core = self.group_core(transport::gid_world(epoch), &expected);
                for r in &expected {
                    board.arrived.remove(r);
                }
                board.built = Some((board.round, expected, core));
                board.round += 1;
                self.board_cv.notify_all();
                continue;
            }
            let waited = start.elapsed();
            if waited >= deadline {
                // Declare the no-shows dead and re-evaluate immediately.
                let mut f = self.failed.lock();
                for r in expected.iter().copied().filter(|r| !board.arrived.contains(r)) {
                    f.insert(r);
                }
                continue;
            }
            let _ = self
                .board_cv
                .wait_for(&mut board, (deadline - waited).min(Duration::from_millis(5)));
        }
    }
}

/// One rank's handle to a process group.
#[derive(Clone)]
pub struct Communicator {
    rank: usize,
    group_ranks: Vec<usize>,
    core: Arc<CommCore>,
    world: Arc<WorldShared>,
    /// Wire precision for the tensor collectives issued through this handle
    /// (`all_reduce_sum`, `reduce_scatter_sum`, `all_gather_cat` and their
    /// `i*`/`try_*` flavors). `broadcast`, `barrier`, `all_gather_vec` and
    /// `split` always run on an f32 wire: they carry exact values. Handles
    /// of the same group may only mix precisions if every rank still issues
    /// each *collective* with the same one.
    precision: CommPrecision,
    /// TCP transport send side, when this group spans real sockets: every
    /// local contribution is additionally fanned out to the remote members,
    /// whose receiver threads deposit it into their replica cores. `None`
    /// on the in-process thread transport.
    remote: Option<Arc<transport::GroupLink>>,
}

impl Communicator {
    /// Used by the launchers to build the world group (`link` is the TCP
    /// send side, `None` on the thread transport).
    pub(crate) fn new_world(
        rank: usize,
        core: Arc<CommCore>,
        world: Arc<WorldShared>,
        link: Option<Arc<transport::GroupLink>>,
    ) -> Self {
        Communicator {
            rank,
            group_ranks: (0..core.size()).collect(),
            core,
            world,
            precision: CommPrecision::F32,
            remote: link,
        }
    }

    /// A handle on the same group whose chunked collectives use `precision`
    /// on the wire. Opt-in and explicit: every rank of the group must issue
    /// a given collective through handles that agree on the precision
    /// (validated at deposit time).
    pub fn with_precision(&self, precision: CommPrecision) -> Communicator {
        let mut c = self.clone();
        c.precision = precision;
        c
    }

    /// Wire precision of chunked collectives issued through this handle.
    #[inline]
    pub fn precision(&self) -> CommPrecision {
        self.precision
    }

    /// Rank within this group.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    #[inline]
    pub fn size(&self) -> usize {
        self.core.size()
    }

    /// Global (world) rank of this member.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.group_ranks[self.rank]
    }

    /// Global ranks of all members, in group-rank order.
    pub fn group_ranks(&self) -> &[usize] {
        &self.group_ranks
    }

    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    pub fn traffic(&self) -> &Arc<TrafficLog> {
        &self.world.log
    }

    /// Whether this group is contained in a single node.
    pub fn is_intra_node(&self) -> bool {
        self.world.topo.is_intra_node(&self.group_ranks)
    }

    /// Nonblocking rounds still tracked by this group's engine (in flight
    /// or not yet retired by every rank) — diagnostics and leak tests.
    pub fn inflight_rounds(&self) -> usize {
        self.core.engine().rounds_len()
    }

    fn record(&self, op: CollOp, payload_bytes: usize) -> Option<usize> {
        // Thread transport: one shared log, rank 0 records for the group.
        // TCP transport: one log *per process*, so every rank records its
        // own view (that per-process log is what a live α-β fit reads).
        if self.rank == 0 || self.remote.is_some() {
            Some(self.world.log.record(op, payload_bytes, &self.group_ranks))
        } else {
            None
        }
    }

    /// Deposit `t` into this group's next engine round — locally, and on
    /// TCP to every remote member too. `event_seq` is the traffic-log entry
    /// the round's chunk events are attributed to.
    fn deposit(
        &self,
        kind: CollKind,
        precision: CommPrecision,
        t: &Tensor,
        event_seq: Option<usize>,
    ) -> Result<CommRequest, CommError> {
        let issued = nonblocking::try_issue(
            &self.core,
            self.rank,
            kind,
            precision,
            t,
            event_seq,
            self.world.log.clone(),
        );
        match (issued, &self.remote) {
            (Ok(req), link) => {
                if let Some(link) = link {
                    link.send_issue(req.seq(), kind, precision, t);
                }
                Ok(req)
            }
            (Err(DepositError::Dead(e)), _) => Err(e),
            // A remote member's frame for this collective disagrees with
            // ours: fail that member. Its connection closes, so it gets a
            // typed error too instead of waiting for our contribution.
            (Err(DepositError::Mismatch { peer, why }), Some(link)) => {
                link.fail_member(peer, &why);
                Err(self.core.engine().check_live().err().unwrap_or(CommError::Poisoned))
            }
            (Err(DepositError::Mismatch { why, .. }), None) => {
                unreachable!("a group without remote members refused a deposit: {why}")
            }
        }
    }

    fn try_issue(&self, kind: CollKind, t: &Tensor) -> Result<CommRequest, CommError> {
        // The logical payload reflects what this wire actually carries: a
        // bf16 wire halves the sendbuf bytes (the α-β fit and per-op byte
        // totals read this).
        let seq = self.record(kind.op(), t.numel() * self.precision.elem_bytes());
        self.deposit(kind, self.precision, t, seq)
    }

    fn issue(&self, kind: CollKind, t: &Tensor) -> CommRequest {
        self.try_issue(kind, t).unwrap_or_else(|e| comm_panic(e))
    }

    /// Axis-0 gather of one row per contributing rank: `t` viewed as
    /// `[1, …dims]` if `contribute`, else a zero-row `[0, …dims]` tensor.
    /// The shared shape of `all_gather_vec`, `broadcast` and `split`.
    fn gather_rows(&self, t: &Tensor, contribute: bool, event_seq: Option<usize>) -> Tensor {
        let mut dims = vec![usize::from(contribute)];
        dims.extend_from_slice(t.dims());
        let row = if contribute { t.reshape(&dims) } else { Tensor::zeros(dims.as_slice()) };
        self.deposit(CollKind::AllGatherCat { axis: 0 }, CommPrecision::F32, &row, event_seq)
            .and_then(|req| req.try_wait(None))
            .unwrap_or_else(|e| comm_panic(e))
    }

    // ----- nonblocking collectives ------------------------------------------

    /// Issue an element-wise sum across the group; `wait` returns the full
    /// reduced tensor (identical on every rank).
    pub fn iall_reduce_sum(&self, t: &Tensor) -> CommRequest {
        self.issue(CollKind::AllReduceSum, t)
    }

    /// Issue a reduce-scatter over axis 0: every rank contributes a
    /// `[size·k, ...]` tensor; `wait` returns the rank-th `[k, ...]` chunk
    /// of the element-wise sum.
    pub fn ireduce_scatter_sum(&self, t: &Tensor) -> CommRequest {
        assert!(
            t.dims()[0].is_multiple_of(self.size()),
            "reduce_scatter axis 0 ({}) not divisible by group size {}",
            t.dims()[0],
            self.size()
        );
        self.issue(CollKind::ReduceScatterSum, t)
    }

    /// Issue an all-gather whose `wait` concatenates contributions along
    /// `axis` in rank order. Contributions must agree on all other axes
    /// (ragged sizes along `axis` are allowed).
    pub fn iall_gather_cat(&self, t: &Tensor, axis: usize) -> CommRequest {
        self.issue(CollKind::AllGatherCat { axis }, t)
    }

    // ----- blocking collectives ---------------------------------------------

    /// Gather each rank's tensor; returns all contributions in rank order.
    /// Every rank must pass the same shape (one engine gather of one-row
    /// views, split back into rows).
    pub fn all_gather_vec(&self, t: &Tensor) -> Vec<Tensor> {
        let seq = self.record(CollOp::AllGather, t.size_bytes());
        let rows = self.gather_rows(t, true, seq);
        let n = t.numel();
        (0..self.size())
            .map(|r| Tensor::from_vec(rows.data()[r * n..(r + 1) * n].to_vec(), t.shape().clone()))
            .collect()
    }

    /// Blocking [`Communicator::iall_gather_cat`].
    pub fn all_gather_cat(&self, t: &Tensor, axis: usize) -> Tensor {
        self.iall_gather_cat(t, axis).wait()
    }

    /// Blocking [`Communicator::iall_reduce_sum`].
    pub fn all_reduce_sum(&self, t: &Tensor) -> Tensor {
        self.iall_reduce_sum(t).wait()
    }

    /// Element-wise mean across the group.
    pub fn all_reduce_mean(&self, t: &Tensor) -> Tensor {
        let s = self.all_reduce_sum(t);
        ops::scale(&s, 1.0 / self.size() as f32)
    }

    /// Blocking [`Communicator::ireduce_scatter_sum`].
    pub fn reduce_scatter_sum(&self, t: &Tensor) -> Tensor {
        self.ireduce_scatter_sum(t).wait()
    }

    /// Broadcast from `root`: only the root's values are used, but every
    /// rank must pass a tensor of the root's shape (conventionally its
    /// stale copy). An engine gather to which only the root contributes a
    /// row.
    pub fn broadcast(&self, t: &Tensor, root: usize) -> Tensor {
        assert!(root < self.size());
        let seq = self.record(CollOp::Broadcast, t.size_bytes());
        self.gather_rows(t, self.rank == root, seq).reshape(t.dims())
    }

    /// Synchronization barrier.
    pub fn barrier(&self) {
        self.try_barrier(None).unwrap_or_else(|e| comm_panic(e))
    }

    // ----- fallible collectives ---------------------------------------------
    //
    // Deadline-bounded, `Result`-returning flavors for callers that recover
    // from peer failure (see `regroup`). `deadline: None` still fails fast
    // on poison; `Some(d)` additionally detects hung peers.

    /// Fallible blocking [`Communicator::all_reduce_sum`].
    pub fn try_all_reduce_sum(
        &self,
        t: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<Tensor, CommError> {
        self.try_issue(CollKind::AllReduceSum, t)?.try_wait(deadline)
    }

    /// Fallible blocking [`Communicator::reduce_scatter_sum`].
    pub fn try_reduce_scatter_sum(
        &self,
        t: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<Tensor, CommError> {
        assert!(
            t.dims()[0].is_multiple_of(self.size()),
            "reduce_scatter axis 0 ({}) not divisible by group size {}",
            t.dims()[0],
            self.size()
        );
        self.try_issue(CollKind::ReduceScatterSum, t)?.try_wait(deadline)
    }

    /// Fallible blocking [`Communicator::all_gather_cat`].
    pub fn try_all_gather_cat(
        &self,
        t: &Tensor,
        axis: usize,
        deadline: Option<Duration>,
    ) -> Result<Tensor, CommError> {
        self.try_issue(CollKind::AllGatherCat { axis }, t)?.try_wait(deadline)
    }

    /// Fallible, deadline-bounded [`Communicator::barrier`]: a zero-element
    /// engine round, so it moves no bytes and completes the moment the
    /// last rank arrives.
    pub fn try_barrier(&self, deadline: Option<Duration>) -> Result<(), CommError> {
        let seq = self.record(CollOp::Barrier, 0);
        self.deposit(CollKind::AllReduceSum, CommPrecision::F32, &Tensor::zeros([0]), seq)?
            .try_wait(deadline)
            .map(|_| ())
    }

    // ----- elastic regroup --------------------------------------------------

    /// After a detected peer failure, agree on the survivor set and rebuild
    /// a world communicator over it.
    ///
    /// Call on the **world** handle, from every surviving rank, after
    /// catching a [`CommError`] (sub-group handles from [`split`] share the
    /// world's failure state but renumber differently — rebuild them from
    /// the returned world handle). Waits up to `deadline` for peers; ranks
    /// missing at the deadline are declared failed too, so cascading
    /// failures converge instead of hanging. Returns a fresh communicator
    /// with ranks renumbered in survivor order (old cores stay poisoned and
    /// are abandoned), or `Err` if this rank was evicted by its peers'
    /// deadline.
    ///
    /// [`split`]: Communicator::split
    pub fn regroup(&self, deadline: Duration) -> Result<Communicator, CommError> {
        let me = self.global_rank();
        let before = self.world.topo.world_size - self.world.failed_ranks().len();
        if let Some(link) = &self.remote {
            // TCP transport: agreement happens over the wire (proposal
            // union with deadline eviction), not on the shared board.
            let (survivors, rank, core, new_link) = link.endpoint().regroup_survivors(deadline)?;
            self.world.log.record_fault(format!(
                "regroup epoch {}: world {before} -> {} (global rank {me} is now rank {rank})",
                self.world.epoch(),
                survivors.len(),
            ));
            return Ok(Communicator {
                rank,
                group_ranks: survivors,
                core,
                world: self.world.clone(),
                precision: self.precision,
                remote: Some(new_link),
            });
        }
        let (survivors, core) = self.world.regroup(me, deadline)?;
        let rank = survivors
            .iter()
            .position(|&r| r == me)
            .expect("regroup returned Ok without me in the survivor set");
        self.world.log.record_fault(format!(
            "regroup epoch {}: world {before} -> {} (global rank {me} is now rank {rank})",
            self.world.epoch(),
            survivors.len(),
        ));
        Ok(Communicator {
            rank,
            group_ranks: survivors,
            core,
            world: self.world.clone(),
            precision: self.precision,
            remote: None,
        })
    }

    // ----- group management -------------------------------------------------

    /// Split the group: members passing the same `color` form a new group,
    /// ordered by their rank in the parent group (`MPI_Comm_split` with
    /// key = parent rank). `color` must be below 2^24.
    pub fn split(&self, color: usize) -> Communicator {
        // Phase 1: everyone shares its colour through one engine gather
        // (colours travel as f32, exact below 2^24).
        assert!(color < 1 << 24, "split colour {color} must be below 2^24 (exact in f32)");
        let mine = Tensor::from_vec(vec![color as f32], [1]);
        let req = self
            .deposit(CollKind::AllGatherCat { axis: 0 }, CommPrecision::F32, &mine, None)
            .unwrap_or_else(|e| comm_panic(e));
        let split_seq = req.seq();
        let colors = req.wait();
        let members: Vec<usize> =
            (0..self.size()).filter(|&r| colors.at(r) as usize == color).collect();
        let rank = members.iter().position(|&r| r == self.rank).unwrap();
        let group_ranks: Vec<usize> = members.iter().map(|&r| self.group_ranks[r]).collect();

        // Phase 2: no publish round — every member derives the same group
        // id (parent id × the colour round's engine sequence, identical on
        // every member × colour) and looks the core up by it. Thread ranks
        // share the first builder's core; a TCP process builds its own
        // full-size replica and registers the group's frame route.
        let gid = transport::gid_split(self.core.gid(), split_seq, color as u64);
        let core = self.world.group_core(gid, &group_ranks);
        let remote = self
            .remote
            .as_ref()
            .map(|link| link.endpoint().register_group(group_ranks.clone(), rank, core.clone()));
        Communicator {
            rank,
            group_ranks,
            core,
            world: self.world.clone(),
            precision: self.precision,
            remote,
        }
    }
}
