//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward pass; [`Tape::backward`] replays it in
//! reverse. Node ids are assigned in creation order, so reverse-id order is
//! a valid reverse-topological order — no explicit sort is needed.
//!
//! Distributed layers (tensor parallelism, FSDP, D-CHAG) plug in through
//! [`Tape::custom`], which lets them register collective operations with
//! hand-written adjoints (e.g. AllGather forward / local-slice backward).
//!
//! # Gradient pruning
//!
//! Every value carries a `needs_grad` flag. Leaves and custom ops need a
//! gradient; [`Tape::constant`] values do not, and neither does a built-in
//! op whose inputs are all constants — it records as a constant itself, so
//! a constant subgraph (input patches, slices of them, loss targets and
//! masks) costs no adjoint at all. Built-in adjoints read their inputs'
//! flags when the op is recorded and skip the per-input work nobody reads
//! (the dA GEMM of a Linear layer over constant inputs, the constant
//! operand's gradient of `sub`/`mul`), and the backward pass drops any
//! contribution addressed to a constant. No gradient that reaches a leaf
//! changes: contributions to constants never flowed anywhere.

mod ops;

pub mod check;

use std::cell::RefCell;

use crate::tensor::Tensor;

type BackwardFn = Box<dyn Fn(&Tensor, &mut dyn FnMut(usize, Tensor))>;

struct Node {
    /// `None` for leaves and constants; otherwise the adjoint, which
    /// receives the output gradient and emits `(input_node_id,
    /// gradient_contribution)` pairs.
    backward: Option<BackwardFn>,
    /// False for constants: contributions addressed here are dropped.
    needs_grad: bool,
}

/// A value recorded on the tape.
///
/// Cheap to clone (the tensor buffer is reference-counted).
#[derive(Clone)]
pub struct Var {
    pub(crate) id: usize,
    value: Tensor,
    pub(crate) needs_grad: bool,
}

impl Var {
    /// Node id on the owning tape (stable for the life of the tape).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The forward value.
    #[inline]
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.value.dims()
    }

    /// Whether a gradient flows into this value: false for constants and
    /// for built-in ops over constants only.
    #[inline]
    pub fn needs_grad(&self) -> bool {
        self.needs_grad
    }
}

/// Records a computation graph for one forward pass.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes (for tests / diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a leaf (an input or a parameter). Gradients accumulate here.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, None, true)
    }

    /// Record a constant: it receives no gradient ([`Grads::get`] returns
    /// `None`), and built-in ops over constants only are constants too, so
    /// no adjoint work is spent on them.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, None, false)
    }

    /// Cut the graph: the result has the same value but no history.
    pub fn detach(&self, v: &Var) -> Var {
        self.leaf(v.value.clone())
    }

    /// Register an arbitrary differentiable operation.
    ///
    /// `backward(grad_out, emit)` must call `emit(input_id, grad)` for every
    /// input that requires a gradient contribution. Input ids should be
    /// captured from the input `Var`s at recording time.
    ///
    /// A custom op always needs a gradient, even over constant inputs: its
    /// adjoint runs whenever an upstream gradient reaches it. This keeps
    /// hand-written collective adjoints (which every rank must enter) on
    /// the same schedule on every rank. Contributions it emits to constants
    /// are dropped.
    pub fn custom(
        &self,
        value: Tensor,
        backward: impl Fn(&Tensor, &mut dyn FnMut(usize, Tensor)) + 'static,
    ) -> Var {
        self.push(value, Some(Box::new(backward)), true)
    }

    /// Record a built-in op: a constant when none of `inputs` needs a
    /// gradient (the adjoint is dropped unrun), else a node with `backward`.
    fn op(
        &self,
        value: Tensor,
        inputs: &[&Var],
        backward: impl Fn(&Tensor, &mut dyn FnMut(usize, Tensor)) + 'static,
    ) -> Var {
        if inputs.iter().any(|v| v.needs_grad) {
            self.custom(value, backward)
        } else {
            self.constant(value)
        }
    }

    fn push(&self, value: Tensor, backward: Option<BackwardFn>, needs_grad: bool) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { backward, needs_grad });
        Var { id, value, needs_grad }
    }

    /// Run the reverse pass from `root`, seeding with ones.
    ///
    /// For training, `root` is the scalar loss; seeding a non-scalar root
    /// with ones computes the gradient of its sum.
    pub fn backward(&self, root: &Var) -> Grads {
        self.backward_seeded(root, Tensor::ones(root.value.shape().clone()))
    }

    /// Run the reverse pass with an explicit output gradient.
    pub fn backward_seeded(&self, root: &Var, seed: Tensor) -> Grads {
        assert_eq!(
            seed.dims(),
            root.value.dims(),
            "seed shape {:?} vs root shape {:?}",
            seed.dims(),
            root.value.dims()
        );
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        if nodes[root.id].needs_grad {
            grads[root.id] = Some(seed);
        }
        for id in (0..=root.id).rev() {
            // Take the gradient out so `emit` can borrow `grads` mutably.
            let Some(g) = grads[id].take() else { continue };
            if let Some(backward) = &nodes[id].backward {
                backward(&g, &mut |input_id, contribution| {
                    debug_assert!(input_id < id, "graph must be topological");
                    if !nodes[input_id].needs_grad {
                        return;
                    }
                    match &mut grads[input_id] {
                        Some(acc) => {
                            // Accumulate in place: the slot holds the sole
                            // reference, so the AXPY reuses its buffer
                            // instead of allocating per contribution.
                            let prev = std::mem::replace(acc, Tensor::scalar(0.0));
                            *acc = crate::ops::add_scaled_into(prev, &contribution, 1.0);
                        }
                        slot @ None => *slot = Some(contribution),
                    }
                });
            }
            // Leaves keep their gradient for retrieval.
            if nodes[id].backward.is_none() {
                grads[id] = Some(g);
            }
        }
        Grads { grads }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by node id.
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of `v`, if it participated in the backward pass (never for
    /// a value that does not [need a gradient](Var::needs_grad)).
    pub fn get(&self, v: &Var) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Gradient of `v`, defaulting to zeros of the value's shape.
    pub fn get_or_zeros(&self, v: &Var) -> Tensor {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(v.value().shape().clone()))
    }

    /// Take ownership of the gradient of `v`.
    pub fn take(&mut self, v: &Var) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn leaf_gradient_of_sum_is_ones() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(4));
        let s = tape.sum_all(&x);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![1.0; 4]);
    }

    #[test]
    fn chain_rule_through_two_ops() {
        // y = sum(2 * x) => dy/dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.scale(&x, 2.0);
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0; 3]);
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // y = sum(x + x) => dy/dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.add(&x, &x);
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0; 3]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let d = tape.detach(&x);
        let s = tape.sum_all(&d);
        let grads = tape.backward(&s);
        assert!(grads.get(&x).is_none());
        assert!(grads.get(&d).is_some());
    }

    #[test]
    fn unused_branches_get_no_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.leaf(Tensor::arange(3));
        let s = tape.sum_all(&x);
        let grads = tape.backward(&s);
        assert!(grads.get(&y).is_none());
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = Rng::new(1);
        let a0 = Tensor::randn([3, 4], 0.5, &mut rng);
        let b0 = Tensor::randn([4, 2], 0.5, &mut rng);
        check::grad_check(
            &[a0, b0],
            |tape, leaves| {
                let y = tape.matmul(&leaves[0], &leaves[1]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn custom_op_backward_invoked() {
        // custom y = 3x with handwritten adjoint
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let xid = x.id();
        let y_val = crate::ops::scale(x.value(), 3.0);
        let y = tape.custom(y_val, move |g, emit| {
            emit(xid, crate::ops::scale(g, 3.0));
        });
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![3.0; 3]);
    }

    #[test]
    fn constants_and_ops_over_constants_get_no_gradient() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::arange(4));
        let d = tape.scale(&c, 2.0);
        let x = tape.leaf(Tensor::arange(4));
        assert!(!c.needs_grad() && !d.needs_grad());
        assert!(x.needs_grad());
        let y = tape.mul(&x, &d);
        assert!(y.needs_grad(), "an op over any gradient-needing input needs one");
        let grads = tape.backward(&tape.sum_all(&y));
        assert!(grads.get(&c).is_none());
        assert!(grads.get(&d).is_none());
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![0.0, 2.0, 4.0, 6.0]);
        // A root built from constants only has nothing to differentiate.
        let grads = tape.backward(&tape.sum_all(&d));
        assert!(grads.get(&c).is_none() && grads.get(&d).is_none());
    }

    #[test]
    fn custom_ops_over_constants_still_run_their_adjoint() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::arange(3));
        let ran = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag = ran.clone();
        let y = tape.custom(c.value().clone(), move |_, _| flag.set(true));
        assert!(y.needs_grad());
        tape.backward(&tape.sum_all(&y));
        assert!(ran.get(), "custom adjoints (collectives) run on every rank");
    }

    #[test]
    fn constant_inputs_leave_param_grads_bitwise_unchanged() {
        // x · W1 → gelu → · W2 → masked square loss, with x and the mask
        // recorded as constants or as leaves: W1/W2 gradients must agree
        // bit for bit.
        let mut rng = Rng::new(4);
        let x = Tensor::randn([6, 5], 0.7, &mut rng);
        let w1 = Tensor::randn([5, 7], 0.5, &mut rng);
        let w2 = Tensor::randn([7, 3], 0.5, &mut rng);
        let mask = Tensor::rand_uniform([6, 3], 0.0, 1.0, &mut rng);
        let run = |as_const: bool| {
            let tape = Tape::new();
            let input = |t: &Tensor| if as_const { tape.constant(t.clone()) } else { tape.leaf(t.clone()) };
            let (xv, mv) = (input(&x), input(&mask));
            let (w1v, w2v) = (tape.leaf(w1.clone()), tape.leaf(w2.clone()));
            let h = tape.gelu(&tape.matmul(&xv, &w1v));
            let y = tape.matmul(&h, &w2v);
            let loss = tape.sum_all(&tape.mul(&tape.mul(&y, &y), &mv));
            let grads = tape.backward(&loss);
            assert_eq!(grads.get(&xv).is_some(), !as_const);
            let bits = |v: &Var| -> Vec<u32> {
                grads.get(v).unwrap().to_vec().iter().map(|g| g.to_bits()).collect()
            };
            (bits(&w1v), bits(&w2v))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn backward_seeded_scales_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.scale(&x, 1.0);
        let grads = tape.backward_seeded(&y, Tensor::full([3], 5.0));
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![5.0; 3]);
    }
}
