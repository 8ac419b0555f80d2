//! Process-wide free list of large f32 tensor buffers.
//!
//! A training step allocates the same set of activation and gradient
//! buffers every iteration. Fresh large allocations come straight from the
//! OS (glibc `mmap`s them, or trims the heap top on free), so every step
//! re-faults its whole working set page by page. Here the buffer of a
//! dropped tensor goes back to a free list keyed by its exact length
//! instead, and kernel outputs draw from that list: a steady-state step
//! reuses the previous step's resident pages.
//!
//! # Rules
//!
//! * Only f32 buffers of at least [`MIN_POOLED_LEN`] elements whose
//!   `len == capacity` are kept; smaller ones are cheap for the allocator.
//!   bf16 storage is never recycled.
//! * At most [`MAX_IDLE_BYTES`] sit idle. Past the cap the buffers that
//!   have been idle longest are freed first, so the list holds what the
//!   program freed most recently — a training loop's step buffers, not a
//!   dataset dropped once at start-up.
//! * Every output allocation goes through [`pooled_zeroed`] or
//!   [`pooled_copy`], so a reused buffer is always fully initialized
//!   (zero-filled or overwritten) before a kernel sees it — recycling never
//!   changes a result.
//! * [`crate::device::MemCounter`] charges live tensors only: a buffer is
//!   released from its tracker before it reaches the free list, and
//!   charged again when a tensor takes it.
//!
//! This is distinct from [`crate::scratch`]: scratch buffers are
//! thread-local and never leave the kernel call that borrowed them, while
//! tensor buffers cross threads (collectives, rank handoff) and outlive
//! any single call, so they need a shared list.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Smallest buffer kept, in f32 elements (64 KiB).
pub const MIN_POOLED_LEN: usize = 16 * 1024;

/// Cap on the bytes held idle. A step's activations and gradients are
/// freed together when its tape drops, so a training loop needs about one
/// step's working set per in-process rank (about 130 MB for the largest
/// two-rank benchmark workload); the cap leaves twice that.
pub const MAX_IDLE_BYTES: usize = 256 << 20;

struct FreeList {
    /// Idle buffers by exact length, oldest first, each stamped with the
    /// value of `clock` when it went idle.
    by_len: BTreeMap<usize, VecDeque<(u64, Vec<f32>)>>,
    clock: u64,
    idle_bytes: usize,
    peak_idle_bytes: usize,
}

impl FreeList {
    const fn new() -> Self {
        FreeList { by_len: BTreeMap::new(), clock: 0, idle_bytes: 0, peak_idle_bytes: 0 }
    }

    /// Pop the most recently freed buffer of exactly `len` elements.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let (_, buf) = self.by_len.get_mut(&len)?.pop_back()?;
        self.idle_bytes -= len * 4;
        Some(buf)
    }

    /// Keep `buf`, first evicting the longest-idle buffers until it fits
    /// under `cap`. Returns the evicted buffers so the caller frees them
    /// outside the lock.
    fn put(&mut self, buf: Vec<f32>, cap: usize) -> Vec<Vec<f32>> {
        let bytes = buf.len() * 4;
        if bytes > cap {
            return vec![buf];
        }
        let mut evicted = Vec::new();
        while self.idle_bytes + bytes > cap {
            // The oldest buffer heads the queue of its length; the
            // globally oldest is the minimum over those heads.
            let oldest = self
                .by_len
                .iter_mut()
                .filter(|(_, q)| !q.is_empty())
                .min_by_key(|(_, q)| q[0].0)
                .and_then(|(_, q)| q.pop_front())
                .expect("idle bytes above zero means a buffer is queued");
            self.idle_bytes -= oldest.1.len() * 4;
            evicted.push(oldest.1);
        }
        self.clock += 1;
        self.idle_bytes += bytes;
        self.peak_idle_bytes = self.peak_idle_bytes.max(self.idle_bytes);
        self.by_len.entry(buf.len()).or_default().push_back((self.clock, buf));
        evicted
    }
}

static FREE: Mutex<FreeList> = Mutex::new(FreeList::new());

fn free_list() -> MutexGuard<'static, FreeList> {
    // The list holds plain buffers; a panic mid-update leaves nothing
    // inconsistent worth refusing to read.
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn take(len: usize) -> Option<Vec<f32>> {
    if len < MIN_POOLED_LEN {
        return None;
    }
    free_list().take(len)
}

/// Keep `buf` for reuse if it qualifies; otherwise it is freed here.
pub(crate) fn recycle(buf: Vec<f32>) {
    if buf.len() < MIN_POOLED_LEN || buf.len() != buf.capacity() {
        return;
    }
    let evicted = free_list().put(buf, MAX_IDLE_BYTES);
    drop(evicted);
}

/// A zero-filled buffer of `len` elements, reused from the free list when
/// one of that exact length is idle.
pub fn pooled_zeroed(len: usize) -> Vec<f32> {
    match take(len) {
        Some(mut buf) => {
            buf.fill(0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// A copy of `src`, reusing an idle buffer of the same length when one
/// exists.
pub fn pooled_copy(src: &[f32]) -> Vec<f32> {
    match take(src.len()) {
        Some(mut buf) => {
            buf.copy_from_slice(src);
            buf
        }
        None => src.to_vec(),
    }
}

/// Highest number of bytes held idle on the free list since the process
/// started (what the list costs in resident memory).
pub fn peak_idle_bytes() -> usize {
    free_list().peak_idle_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    // Lengths no other test in this binary allocates, so concurrently
    // running tests cannot take these buffers between the calls below.
    const LEN_A: usize = MIN_POOLED_LEN + 977;
    const LEN_B: usize = MIN_POOLED_LEN + 983;
    const LEN_C: usize = MIN_POOLED_LEN + 991;

    #[test]
    fn dropped_buffer_is_reused_and_zeroed() {
        let mut first = pooled_zeroed(LEN_A);
        first.fill(7.0);
        let ptr = first.as_ptr();
        recycle(first);
        let again = pooled_zeroed(LEN_A);
        assert_eq!(again.as_ptr(), ptr, "same-length request reuses the buffer");
        assert!(again.iter().all(|&x| x == 0.0), "reused buffer is zero-filled");
    }

    #[test]
    fn copy_overwrites_reused_buffer() {
        recycle(vec![3.0; LEN_B]);
        let src: Vec<f32> = (0..LEN_B).map(|i| i as f32).collect();
        assert_eq!(pooled_copy(&src), src);
    }

    #[test]
    fn past_the_cap_the_longest_idle_buffers_go_first() {
        let mut fl = FreeList::new();
        let cap = 3 * MIN_POOLED_LEN * 4;
        for len in [MIN_POOLED_LEN, MIN_POOLED_LEN + 1] {
            assert!(fl.put(vec![0.0; len], cap).is_empty());
        }
        // The third buffer does not fit beside both: the oldest goes.
        let evicted = fl.put(vec![0.0; MIN_POOLED_LEN + 2], cap);
        assert_eq!(evicted.iter().map(Vec::len).collect::<Vec<_>>(), vec![MIN_POOLED_LEN]);
        assert!(fl.take(MIN_POOLED_LEN).is_none());
        assert!(fl.take(MIN_POOLED_LEN + 1).is_some());
        assert!(fl.take(MIN_POOLED_LEN + 2).is_some());
        assert_eq!(fl.idle_bytes, 0);
        assert_eq!(fl.peak_idle_bytes, (2 * MIN_POOLED_LEN + 3) * 4);
        // A buffer larger than the cap itself is handed straight back.
        assert!(fl.put(vec![0.0; MIN_POOLED_LEN], cap).is_empty());
        assert_eq!(fl.put(vec![0.0; 4 * MIN_POOLED_LEN], cap).len(), 1);
        assert_eq!(fl.idle_bytes, MIN_POOLED_LEN * 4, "nothing was evicted for it");
    }

    #[test]
    fn buffers_with_spare_capacity_are_not_kept() {
        let mut loose = Vec::with_capacity(LEN_C + 8);
        loose.resize(LEN_C, 0.0);
        recycle(loose);
        assert!(take(LEN_C).is_none());
    }
}
