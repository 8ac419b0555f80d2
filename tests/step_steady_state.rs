//! Steady-state allocation audit for a whole train step.
//!
//! Tensor buffers of 64 KiB and more return to the process-wide free list
//! in `dchag_tensor::pool` when their last owner drops, and every kernel
//! output draws from it. Once a training loop is warm, a step therefore
//! reuses the previous step's buffers and makes no large allocation at
//! all — forward, backward, clipping and AdamW included. A counting global
//! allocator makes the check exact.
//!
//! The file holds a single `#[test]` so no concurrent test can tick the
//! counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dchag::prelude::*;
use dchag_core::train_step;
use dchag_model::AdamW;

/// Allocations at least this large are counted (the free list's floor).
const LARGE: usize = 64 * 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Sizes of the first few counted allocations, for the failure message.
static SIZES: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];

fn count(size: usize) {
    if size >= LARGE {
        let i = LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SIZES.get(i) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(new);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_mae_train_step_makes_no_large_allocation() {
    // Single-worker MAE: 16 channels of 32×32 images, batch 8.
    let cfg = ModelConfig {
        img_h: 32,
        img_w: 32,
        ..ModelConfig::tiny(16)
    };
    let mut rng = Rng::new(11);
    let mut store = ParamStore::new();
    let mae = MaeModel::new(
        &mut store,
        &mut rng,
        &cfg,
        3,
        TreeConfig::tree0(UnitKind::Linear),
    );
    let mut opt = AdamW::new(1e-3);
    let images = Tensor::randn([8, 16, 32, 32], 0.5, &mut rng);
    let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut rng);
    let step = |store: &mut ParamStore, opt: &mut AdamW| {
        train_step(store, opt, 1.0, None, |bind| mae.forward_loss(bind, &images, &mask).0)
    };

    for _ in 0..2 {
        step(&mut store, &mut opt);
    }
    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    let mut losses = Vec::new();
    for _ in 0..3 {
        losses.push(step(&mut store, &mut opt));
    }
    let grew = LARGE_ALLOCS.load(Ordering::SeqCst);
    let sizes: Vec<usize> = SIZES
        .iter()
        .take(grew)
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    assert_eq!(
        grew, 0,
        "steps 3-5 made {grew} allocations of >= 64 KiB (first sizes in bytes: {sizes:?})"
    );
    // The steps really trained.
    assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
    assert!(losses[2] < losses[0], "{losses:?}");
}
