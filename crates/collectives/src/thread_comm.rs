//! The per-group core: one process group's chunked-collective engine
//! ([`crate::nonblocking`]) plus the group id every member derives alike.
//!
//! Every collective — tensor reductions, gathers, `broadcast`, `barrier`,
//! and `split`'s colour exchange — is an engine round on this core, on both
//! transports. The thread transport shares one core between all member
//! threads; the TCP transport gives every process a full-size replica core
//! whose remote contributions arrive over the wire.

use std::sync::Arc;

use crate::fault::CommError;
use crate::nonblocking::Engine;

/// Shared state of one process group.
pub struct CommCore {
    size: usize,
    /// Group id: identical on every member (world groups derive it from
    /// the regroup epoch, split groups from parent id × split round ×
    /// colour), so members find the same core — or, over TCP, route frames
    /// to the same replica — without a publish round.
    gid: u64,
    engine: Engine,
}

impl CommCore {
    pub fn new(size: usize, gid: u64) -> Arc<Self> {
        assert!(size > 0, "process group must be non-empty");
        Arc::new(CommCore {
            size,
            gid,
            engine: Engine::new(size),
        })
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    pub(crate) fn gid(&self) -> u64 {
        self.gid
    }

    #[inline]
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mark the group as broken (`cause` says why); wakes every in-flight
    /// [`crate::nonblocking::CommRequest`] waiter, which then fails (typed
    /// panic or `Err`) instead of deadlocking. The first cause wins; later
    /// poisons keep the original root attribution.
    pub fn poison(&self, cause: CommError) {
        self.engine.poison(cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonblocking::{deposit_remote, try_issue, CollKind, CommPrecision};
    use crate::traffic::TrafficLog;
    use dchag_tensor::Tensor;
    use std::thread;
    use std::time::Duration;

    fn gather(core: &Arc<CommCore>, rank: usize, t: &Tensor, log: &Arc<TrafficLog>) -> Tensor {
        try_issue(core, rank, CollKind::AllGatherCat { axis: 0 }, CommPrecision::F32, t, None, log.clone())
            .and_then(|req| req.try_wait(None))
            .unwrap_or_else(|e| crate::fault::comm_panic(e))
    }

    #[test]
    fn single_rank_exchange_returns_own_payload() {
        // A one-rank round freezes and completes at its only deposit.
        let core = CommCore::new(1, 0);
        let log = TrafficLog::new();
        let out = gather(&core, 0, &Tensor::full([1, 3], 41.0), &log);
        assert_eq!(out.dims(), &[1, 3]);
        assert_eq!(out.to_vec(), vec![41.0; 3]);
        assert_eq!(core.engine().rounds_len(), 0, "a completed one-rank round holds no state");
    }

    #[test]
    fn remote_deposit_into_poisoned_core_is_dropped() {
        let core = CommCore::new(2, 0);
        let log = TrafficLog::new();
        core.poison(CommError::PeerFailed { rank: 1, epoch: 0 });
        let t = Tensor::ones([1]);
        let kind = CollKind::AllReduceSum;
        let dropped = deposit_remote(&core, 1, kind, CommPrecision::F32, &t, &log);
        assert_eq!(dropped.unwrap_err(), CommError::PeerFailed { rank: 1, epoch: 0 });
        assert_eq!(core.engine().rounds_len(), 0, "the refused deposit left no round behind");
        let err = try_issue(&core, 0, kind, CommPrecision::F32, &t, None, log).map(drop).unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 1, epoch: 0 });
    }

    #[test]
    fn poison_wakes_waiters_with_typed_cause() {
        let core = CommCore::new(2, 0);
        let log = TrafficLog::new();
        let c2 = core.clone();
        let waiter = thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gather(&c2, 0, &Tensor::ones([1, 2]), &log);
            }));
            r.err().and_then(|e| crate::fault::comm_error_of(e.as_ref()))
        });
        // Give the waiter time to spin out and park, then poison.
        thread::sleep(Duration::from_millis(20));
        core.poison(CommError::PeerFailed { rank: 1, epoch: 0 });
        assert_eq!(
            waiter.join().unwrap(),
            Some(CommError::PeerFailed { rank: 1, epoch: 0 }),
            "waiter's panic payload must carry the typed cause"
        );
    }

    #[test]
    fn fault_first_poison_cause_wins() {
        let core = CommCore::new(2, 0);
        core.poison(CommError::PeerFailed { rank: 0, epoch: 3 });
        core.poison(CommError::Poisoned);
        let t = Tensor::zeros([0]);
        let err = try_issue(&core, 1, CollKind::AllReduceSum, CommPrecision::F32, &t, None, TrafficLog::new())
            .map(drop)
            .unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 0, epoch: 3 });
    }
}
