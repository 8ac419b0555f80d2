//! # dchag-tensor
//!
//! CPU tensor library underpinning the D-CHAG reproduction: contiguous
//! row-major f32 tensors, rayon-parallel kernels, tape-based reverse-mode
//! autograd, parameter storage with pluggable binding (the hook used by the
//! distributed layers), and byte-accurate per-device memory accounting.
//!
//! The design goal is not to compete with BLAS but to be a *deterministic,
//! observable* stand-in for a GPU tensor runtime: every allocation is
//! charged to the simulated device of the allocating thread, every op is
//! reproducible from a seed, and the autograd tape is simple enough that
//! distributed collectives can register hand-written adjoints.

pub mod autograd;
pub mod checkpoint;
pub mod device;
pub mod dtype;
pub mod init;
pub mod ops;
pub(crate) mod par;
pub mod param;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use autograd::{Grads, Tape, Var};
pub use device::MemCounter;
pub use dtype::DType;
pub use param::{Binder, LocalBinder, ParamId, ParamStore};
pub use checkpoint::{
    CheckpointDir, CheckpointError, DiskFault, DiskFaultPlan, OptimEntry, OptimState, ShardMeta,
    SnapEntry, Snapshot, SnapshotWriter,
};
pub use rng::{Rng, RngState};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::autograd::{Grads, Tape, Var};
    pub use crate::checkpoint::{CheckpointDir, CheckpointError, DiskFaultPlan, Snapshot};
    pub use crate::dtype::DType;
    pub use crate::param::{Binder, LocalBinder, ParamId, ParamStore};
    pub use crate::rng::Rng;
    pub use crate::shape::Shape;
    pub use crate::tensor::Tensor;
}
