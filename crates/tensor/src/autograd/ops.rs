//! Differentiable operation constructors on [`Tape`].
//!
//! Each method runs the forward kernel from [`crate::ops`] immediately and
//! records a closure implementing the adjoint. Saved tensors are `Arc`
//! clones — no data is copied for bookkeeping.
//!
//! An op over inputs that all lack a gradient records as a constant (see
//! the module docs of [`super`]). Where an adjoint's per-input work costs
//! something — a GEMM, a reduction, an elementwise product — it reads the
//! input flags captured at recording time, skips the gradients no one
//! needs, and saves only the tensors the remaining gradients read.

use super::{Tape, Var};
use crate::dtype::DType;
use crate::ops as k;
use crate::pool::pooled_zeroed;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tape {
    // ----- arithmetic -------------------------------------------------------

    pub fn add(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        self.op(k::add(a.value(), b.value()), &[a, b], move |g, emit| {
            emit(ia, g.clone());
            emit(ib, g.clone());
        })
    }

    pub fn sub(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let (ga, gb) = (a.needs_grad, b.needs_grad);
        self.op(k::sub(a.value(), b.value()), &[a, b], move |g, emit| {
            if ga {
                emit(ia, g.clone());
            }
            if gb {
                emit(ib, k::scale(g, -1.0));
            }
        })
    }

    pub fn mul(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        // dA reads B and dB reads A: save each only if its reader runs.
        let vb = a.needs_grad.then(|| b.value().clone());
        let va = b.needs_grad.then(|| a.value().clone());
        self.op(k::mul(a.value(), b.value()), &[a, b], move |g, emit| {
            if let Some(vb) = &vb {
                emit(ia, k::mul(g, vb));
            }
            if let Some(va) = &va {
                emit(ib, k::mul(g, va));
            }
        })
    }

    pub fn scale(&self, a: &Var, alpha: f32) -> Var {
        let ia = a.id;
        self.op(k::scale(a.value(), alpha), &[a], move |g, emit| {
            emit(ia, k::scale(g, alpha));
        })
    }

    /// Broadcast-add a `[n]` bias over the last axis.
    pub fn add_bias(&self, a: &Var, bias: &Var) -> Var {
        let (ia, ib) = (a.id, bias.id);
        let gb = bias.needs_grad;
        self.op(k::add_bias(a.value(), bias.value()), &[a, bias], move |g, emit| {
            emit(ia, g.clone());
            if gb {
                emit(ib, k::sum_to_last(g));
            }
        })
    }

    /// Broadcast-multiply a `[n]` gain over the last axis.
    pub fn mul_last(&self, a: &Var, gain: &Var) -> Var {
        let (ia, ig) = (a.id, gain.id);
        let vg = a.needs_grad.then(|| gain.value().clone());
        let va = gain.needs_grad.then(|| a.value().clone());
        self.op(k::mul_last(a.value(), gain.value()), &[a, gain], move |g, emit| {
            if let Some(vg) = &vg {
                emit(ia, k::mul_last(g, vg));
            }
            if let Some(va) = &va {
                emit(ig, k::sum_to_last(&k::mul(g, va)));
            }
        })
    }

    /// Cast the *storage* dtype on the tape with a straight-through
    /// gradient: the forward rounds the value into `dtype` storage (exact
    /// for `F32`, RNE for `Bf16`), the backward passes the upstream f32
    /// gradient through unchanged. This is the standard estimator for a
    /// rounding cast, and the hook that lets activations/weights stream
    /// through bf16 while every gradient and accumulator stays f32 (see
    /// the tensor README's "Precision tiers").
    pub fn to_dtype(&self, a: &Var, dtype: DType) -> Var {
        let ia = a.id;
        self.op(a.value().to_dtype(dtype), &[a], move |g, emit| {
            emit(ia, g.clone());
        })
    }

    // ----- matmul family ----------------------------------------------------

    /// `[..., k] × [k, n]`, leading axes of `a` folded (the Linear layer).
    pub fn matmul(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let a_dims = a.dims().to_vec();
        let vb = a.needs_grad.then(|| b.value().clone());
        let va = b.needs_grad.then(|| a.value().clone());
        self.op(k::matmul(a.value(), b.value()), &[a, b], move |g, emit| {
            // dA = dY · Bᵀ ; dB = Aᵀ · dY  (2-D folded forms)
            if let Some(vb) = &vb {
                emit(ia, k::matmul_nt(g, vb).reshape(&a_dims));
            }
            if let Some(va) = &va {
                emit(ib, k::matmul_tn(va, g));
            }
        })
    }

    /// Fused Linear layer: `x·W + b` in one kernel and one tape node (the
    /// bias broadcast rides in the GEMM output buffer).
    pub fn matmul_bias(&self, a: &Var, w: &Var, bias: &Var) -> Var {
        let (ia, iw, ib) = (a.id, w.id, bias.id);
        let a_dims = a.dims().to_vec();
        let vw = a.needs_grad.then(|| w.value().clone());
        let va = w.needs_grad.then(|| a.value().clone());
        let gb = bias.needs_grad;
        self.op(
            k::matmul_bias(a.value(), w.value(), bias.value()),
            &[a, w, bias],
            move |g, emit| {
                if let Some(vw) = &vw {
                    emit(ia, k::matmul_nt(g, vw).reshape(&a_dims));
                }
                if let Some(va) = &va {
                    emit(iw, k::matmul_tn(va, g));
                }
                if gb {
                    emit(ib, k::sum_to_last(g));
                }
            },
        )
    }

    /// Fully fused feed-forward up-projection: `gelu(x·W + b)` as one tape
    /// node, saving only the pre-activation for the backward pass.
    pub fn linear_gelu(&self, a: &Var, w: &Var, bias: &Var) -> Var {
        let (ia, iw, ib) = (a.id, w.id, bias.id);
        let a_dims = a.dims().to_vec();
        let vw = a.needs_grad.then(|| w.value().clone());
        let va = w.needs_grad.then(|| a.value().clone());
        let (y, pre) = k::linear_gelu(a.value(), w.value(), bias.value());
        self.op(y, &[a, w, bias], move |g, emit| {
            // dpre = gelu'(pre) ⊙ g, then the usual Linear adjoints. The
            // bias gradient falls out of the same sweep, so it is always
            // computed (and dropped if the bias is a constant).
            let (dpre, dbias) = k::add_bias_gelu_backward(&pre, g);
            if let Some(vw) = &vw {
                emit(ia, k::matmul_nt(&dpre, vw).reshape(&a_dims));
            }
            if let Some(va) = &va {
                emit(iw, k::matmul_tn(va, &dpre));
            }
            emit(ib, dbias);
        })
    }

    /// Batched `[B,m,k] × [B,k,n]`.
    pub fn bmm(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let vb = a.needs_grad.then(|| b.value().clone());
        let va = b.needs_grad.then(|| a.value().clone());
        self.op(k::bmm(a.value(), b.value()), &[a, b], move |g, emit| {
            // Y = A·B : dA = dY·Bᵀ (bmm_nt applies the transpose), dB = Aᵀ·dY.
            if let Some(vb) = &vb {
                emit(ia, k::bmm_nt(g, vb));
            }
            if let Some(va) = &va {
                emit(ib, k::bmm_tn(va, g));
            }
        })
    }

    /// Batched `Q · Kᵀ`: `[B,m,d] × [B,n,d] -> [B,m,n]` (attention scores).
    pub fn bmm_nt(&self, q: &Var, key: &Var) -> Var {
        self.bmm_nt_scaled(q, key, 1.0)
    }

    /// Fused scaled attention scores `α · Q·Kᵀ`: the `1/√d` factor rides in
    /// the GEMM packing instead of materializing a scaled copy of the
    /// `[B,m,n]` score tensor (and its extra tape node).
    pub fn bmm_nt_scaled(&self, q: &Var, key: &Var, alpha: f32) -> Var {
        let (iq, ik) = (q.id, key.id);
        let vk = q.needs_grad.then(|| key.value().clone());
        let vq = key.needs_grad.then(|| q.value().clone());
        self.op(
            k::bmm_nt_scaled(q.value(), key.value(), alpha),
            &[q, key],
            move |g, emit| {
                // Y = α·Q Kᵀ : dQ = α·dY · K ; dK = α·dYᵀ · Q
                if let Some(vk) = &vk {
                    emit(iq, k::bmm_scaled(g, vk, alpha));
                }
                if let Some(vq) = &vq {
                    emit(ik, k::bmm_tn_scaled(g, vq, alpha));
                }
            },
        )
    }

    /// Fused flash attention: `softmax(scale · Q·Kᵀ) · V` as ONE tape node
    /// over `q: [B,Sq,d]`, `k/v: [B,Sk,d]` (B is already batch·heads).
    ///
    /// The tiled online-softmax kernel never materializes the `[B,Sq,Sk]`
    /// score matrix; only the `[B,Sq]` logsumexp is saved, and the adjoint
    /// recomputes score tiles through the same tiling
    /// (see [`crate::ops::attention`]). Replaces the three-node
    /// `bmm_nt_scaled → softmax_last → bmm` chain and its two `S×S`
    /// intermediates.
    pub fn flash_attention(&self, q: &Var, k: &Var, v: &Var, scale: f32) -> Var {
        let (iq, ik, iv) = (q.id, k.id, v.id);
        let (vq, vk, vv) = (q.value().clone(), k.value().clone(), v.value().clone());
        let (out, lse) = k::flash_attention(q.value(), k.value(), v.value(), scale);
        let out_saved = out.clone();
        self.op(out, &[q, k, v], move |g, emit| {
            let (dq, dk, dv) =
                k::flash_attention_backward(&vq, &vk, &vv, scale, &out_saved, &lse, g);
            emit(iq, dq);
            emit(ik, dk);
            emit(iv, dv);
        })
    }

    // ----- activations / normalization --------------------------------------

    pub fn gelu(&self, a: &Var) -> Var {
        let ia = a.id;
        let va = a.value().clone();
        self.op(k::gelu(a.value()), &[a], move |g, emit| {
            let dx = va.zip(g, |x, gg| k::gelu_grad_scalar(x) * gg);
            emit(ia, dx);
        })
    }

    /// Fused `gelu(a + bias)`: one sweep, one tape node, saving only the
    /// pre-activation.
    pub fn add_bias_gelu(&self, a: &Var, bias: &Var) -> Var {
        let (ia, ib) = (a.id, bias.id);
        let (y, pre) = k::add_bias_gelu(a.value(), bias.value());
        self.op(y, &[a, bias], move |g, emit| {
            let (dx, dbias) = k::add_bias_gelu_backward(&pre, g);
            emit(ia, dx);
            emit(ib, dbias);
        })
    }

    /// Fused learned softmax pooling over channels: `[N,C,D] × [D,1] ->
    /// [N,D]` (see [`crate::ops::softmax_pool`]). One tape node instead of
    /// the matmul → reshape → softmax → reshape → bmm chain.
    pub fn softmax_pool(&self, y: &Var, pool_w: &Var) -> Var {
        let (iy, ip) = (y.id, pool_w.id);
        let (vy, vp) = (y.value().clone(), pool_w.value().clone());
        let (pooled, weights) = k::softmax_pool(y.value(), pool_w.value());
        self.op(pooled, &[y, pool_w], move |g, emit| {
            let (dy, dpw) = k::softmax_pool_backward(&vy, &vp, &weights, g);
            emit(iy, dy);
            emit(ip, dpw);
        })
    }

    pub fn softmax_last(&self, a: &Var) -> Var {
        let ia = a.id;
        let y = k::softmax_last(a.value());
        let y_saved = y.clone();
        self.op(y, &[a], move |g, emit| {
            emit(ia, k::softmax_last_backward(&y_saved, g));
        })
    }

    pub fn layernorm(&self, x: &Var, gamma: &Var, beta: &Var) -> Var {
        let (ix, ig, ib) = (x.id, gamma.id, beta.id);
        let (vx, vg) = (x.value().clone(), gamma.value().clone());
        let (y, ctx) = k::layernorm(x.value(), gamma.value(), beta.value());
        self.op(y, &[x, gamma, beta], move |g, emit| {
            let (dx, dgamma, dbeta) = k::layernorm_backward(&vx, &vg, &ctx, g);
            emit(ix, dx);
            emit(ig, dgamma);
            emit(ib, dbeta);
        })
    }

    // ----- shape manipulation -----------------------------------------------

    pub fn reshape(&self, a: &Var, dims: &[usize]) -> Var {
        let ia = a.id;
        let orig: Vec<usize> = a.value().dims().to_vec();
        self.op(a.value().reshape(dims), &[a], move |g, emit| {
            emit(ia, g.reshape(&orig));
        })
    }

    pub fn transpose_last2(&self, a: &Var) -> Var {
        let ia = a.id;
        self.op(k::transpose_last2(a.value()), &[a], move |g, emit| {
            emit(ia, k::transpose_last2(g));
        })
    }

    pub fn swap_axes12(&self, a: &Var) -> Var {
        let ia = a.id;
        self.op(k::swap_axes12(a.value()), &[a], move |g, emit| {
            emit(ia, k::swap_axes12(g));
        })
    }

    pub fn concat(&self, parts: &[&Var], axis: usize) -> Var {
        let ids: Vec<usize> = parts.iter().map(|v| v.id).collect();
        let sizes: Vec<usize> = parts.iter().map(|v| v.dims()[axis]).collect();
        let tensors: Vec<&Tensor> = parts.iter().map(|v| v.value()).collect();
        self.op(k::concat(&tensors, axis), parts, move |g, emit| {
            let mut start = 0;
            for (id, &len) in ids.iter().zip(&sizes) {
                emit(*id, k::slice(g, axis, start, len));
                start += len;
            }
        })
    }

    pub fn slice(&self, a: &Var, axis: usize, start: usize, len: usize) -> Var {
        let ia = a.id;
        let orig: Vec<usize> = a.value().dims().to_vec();
        self.op(k::slice(a.value(), axis, start, len), &[a], move |g, emit| {
            emit(ia, k::slice_backward(g, &orig, axis, start));
        })
    }

    /// Token selection along axis 1 of `[b, s, d]` with a shared index list.
    pub fn select_axis1(&self, a: &Var, idx: &[usize]) -> Var {
        let ia = a.id;
        let s = a.dims()[1];
        let idx = idx.to_vec();
        self.op(k::select_axis1(a.value(), &idx), &[a], move |g, emit| {
            emit(ia, k::select_axis1_backward(g, &idx, s));
        })
    }

    /// Row gather from a `[r, d]` embedding table.
    pub fn gather_rows(&self, table: &Var, idx: &[usize]) -> Var {
        let it = table.id;
        let r = table.dims()[0];
        let idx = idx.to_vec();
        self.op(k::gather_rows(table.value(), &idx), &[table], move |g, emit| {
            emit(it, k::gather_rows_backward(g, &idx, r));
        })
    }

    /// Broadcast `[s, d] -> [b, s, d]` (e.g. positional embeddings).
    pub fn broadcast_to_batch(&self, a: &Var, b: usize) -> Var {
        let ia = a.id;
        self.op(k::broadcast_to_batch(a.value(), b), &[a], move |g, emit| {
            emit(ia, k::sum_over_batch(g));
        })
    }

    // ----- reductions / losses ----------------------------------------------

    pub fn sum_all(&self, a: &Var) -> Var {
        let ia = a.id;
        let shape = a.value().shape().clone();
        self.op(k::sum_all(a.value()), &[a], move |g, emit| {
            emit(ia, Tensor::full(shape.clone(), g.item()));
        })
    }

    pub fn mean_all(&self, a: &Var) -> Var {
        let ia = a.id;
        let shape = a.value().shape().clone();
        let inv = 1.0 / a.value().numel() as f32;
        self.op(k::mean_all(a.value()), &[a], move |g, emit| {
            emit(ia, Tensor::full(shape.clone(), g.item() * inv));
        })
    }

    /// Mean over axis 1 of `[b, c, d] -> [b, d]` (mean pooling).
    pub fn mean_axis1(&self, a: &Var) -> Var {
        let ia = a.id;
        let (b, c, d) = (a.dims()[0], a.dims()[1], a.dims()[2]);
        self.op(k::mean_axis1(a.value()), &[a], move |g, emit| {
            // broadcast g/c over the c axis
            let inv = 1.0 / c as f32;
            let mut out = pooled_zeroed(b * c * d);
            for bi in 0..b {
                let grow = &g.data()[bi * d..(bi + 1) * d];
                for ci in 0..c {
                    for (o, &gg) in out[(bi * c + ci) * d..(bi * c + ci + 1) * d]
                        .iter_mut()
                        .zip(grow)
                    {
                        *o = gg * inv;
                    }
                }
            }
            emit(ia, Tensor::from_vec(out, Shape::new(&[b, c, d])));
        })
    }

    /// Mean squared error between `a` and `b` (scalar output).
    pub fn mse(&self, a: &Var, b: &Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.mul(&d, &d);
        self.mean_all(&sq)
    }

    /// MSE over only the entries where `mask == 1`, normalized by the mask
    /// sum: `Σ mask·(a−b)² / Σ mask`. The mask is a constant.
    pub fn masked_mse(&self, a: &Var, b: &Var, mask: &Tensor) -> Var {
        let mask_sum = mask.sum().max(1.0);
        let d = self.sub(a, b);
        let sq = self.mul(&d, &d);
        let m = self.constant(mask.clone());
        let masked = self.mul(&sq, &m);
        let s = self.sum_all(&masked);
        self.scale(&s, 1.0 / mask_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::super::check::grad_check;
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn elementwise_gradchecks() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([3, 4], 0.7, &mut rng);
        let b = Tensor::randn([3, 4], 0.7, &mut rng);
        grad_check(
            &[a.clone(), b.clone()],
            |t, l| {
                let x = t.mul(&l[0], &l[1]);
                let y = t.sub(&x, &l[0]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn bias_and_gain_gradcheck() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn([4, 5], 0.5, &mut rng);
        let bias = Tensor::randn([5], 0.5, &mut rng);
        let gain = Tensor::randn([5], 0.5, &mut rng);
        grad_check(
            &[x, bias, gain],
            |t, l| {
                let y = t.add_bias(&l[0], &l[1]);
                let z = t.mul_last(&y, &l[2]);
                t.sum_all(&t.mul(&z, &z))
            },
            2e-2,
        );
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let b = Tensor::randn([2, 4, 3], 0.5, &mut rng);
        grad_check(
            &[a, b],
            |t, l| {
                let y = t.bmm(&l[0], &l[1]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn bmm_nt_gradcheck() {
        let mut rng = Rng::new(4);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key],
            |t, l| {
                let s = t.bmm_nt(&l[0], &l[1]);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_gelu_layernorm_gradcheck() {
        let mut rng = Rng::new(5);
        let x = Tensor::randn([3, 6], 0.8, &mut rng);
        let g = Tensor::randn([6], 0.3, &mut rng).map(|v| v + 1.0);
        let b = Tensor::randn([6], 0.3, &mut rng);
        grad_check(
            &[x, g, b],
            |t, l| {
                let n = t.layernorm(&l[0], &l[1], &l[2]);
                let a = t.gelu(&n);
                let s = t.softmax_last(&a);
                t.sum_all(&t.mul(&s, &s))
            },
            3e-2,
        );
    }

    #[test]
    fn concat_slice_gradcheck() {
        let mut rng = Rng::new(6);
        let a = Tensor::randn([2, 2, 3], 0.5, &mut rng);
        let b = Tensor::randn([2, 4, 3], 0.5, &mut rng);
        grad_check(
            &[a, b],
            |t, l| {
                let c = t.concat(&[&l[0], &l[1]], 1);
                let s = t.slice(&c, 1, 1, 4);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn gather_select_gradcheck() {
        let mut rng = Rng::new(7);
        let table = Tensor::randn([6, 3], 0.5, &mut rng);
        let x = Tensor::randn([2, 5, 3], 0.5, &mut rng);
        grad_check(
            &[table, x],
            |t, l| {
                let e = t.gather_rows(&l[0], &[0, 2, 2, 5]);
                let v = t.select_axis1(&l[1], &[4, 0, 1]);
                let se = t.sum_all(&t.mul(&e, &e));
                let sv = t.sum_all(&t.mul(&v, &v));
                t.add(&se, &sv)
            },
            2e-2,
        );
    }

    #[test]
    fn transpose_swap_gradcheck() {
        let mut rng = Rng::new(8);
        let a = Tensor::randn([2, 3, 2, 4], 0.5, &mut rng);
        grad_check(
            &[a],
            |t, l| {
                let s = t.swap_axes12(&l[0]);
                let tt = t.transpose_last2(&s);
                t.sum_all(&t.mul(&tt, &tt))
            },
            2e-2,
        );
    }

    #[test]
    fn mse_matches_manual() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0, 4.0], [2]));
        let l = tape.mse(&a, &b);
        assert!((l.value().item() - (1.0 + 4.0) / 2.0).abs() < 1e-6);
        let grads = tape.backward(&l);
        // d/da = 2(a-b)/n = [1, -2]
        assert_eq!(grads.get(&a).unwrap().to_vec(), vec![1.0, -2.0]);
    }

    #[test]
    fn masked_mse_ignores_unmasked() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 100.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0, -100.0], [2]));
        let mask = Tensor::from_vec(vec![1.0, 0.0], [2]);
        let l = tape.masked_mse(&a, &b, &mask);
        assert!((l.value().item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_bias_gradcheck() {
        let mut rng = Rng::new(10);
        let x = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 5], 0.5, &mut rng);
        let b = Tensor::randn([5], 0.5, &mut rng);
        grad_check(
            &[x, w, b],
            |t, l| {
                let y = t.matmul_bias(&l[0], &l[1], &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn matmul_bias_matches_unfused_chain() {
        let mut rng = Rng::new(11);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 2], 0.5, &mut rng);
        let b = Tensor::randn([2], 0.5, &mut rng);
        let run = |fused: bool| {
            let tape = Tape::new();
            let (xv, wv, bv) = (
                tape.leaf(x.clone()),
                tape.leaf(w.clone()),
                tape.leaf(b.clone()),
            );
            let y = if fused {
                tape.matmul_bias(&xv, &wv, &bv)
            } else {
                let m = tape.matmul(&xv, &wv);
                tape.add_bias(&m, &bv)
            };
            let loss = tape.sum_all(&tape.mul(&y, &y));
            let grads = tape.backward(&loss);
            (
                y.value().clone(),
                grads.get(&xv).unwrap().clone(),
                grads.get(&wv).unwrap().clone(),
                grads.get(&bv).unwrap().clone(),
            )
        };
        let (yf, dxf, dwf, dbf) = run(true);
        let (yu, dxu, dwu, dbu) = run(false);
        assert!(yf.max_abs_diff(&yu) < 1e-5);
        assert!(dxf.max_abs_diff(&dxu) < 1e-5);
        assert!(dwf.max_abs_diff(&dwu) < 1e-5);
        assert!(dbf.max_abs_diff(&dbu) < 1e-5);
    }

    #[test]
    fn linear_gelu_gradcheck() {
        let mut rng = Rng::new(12);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 6], 0.5, &mut rng);
        let b = Tensor::randn([6], 0.5, &mut rng);
        grad_check(
            &[x, w, b],
            |t, l| {
                let y = t.linear_gelu(&l[0], &l[1], &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn add_bias_gelu_gradcheck() {
        let mut rng = Rng::new(13);
        let x = Tensor::randn([4, 5], 0.6, &mut rng);
        let b = Tensor::randn([5], 0.6, &mut rng);
        grad_check(
            &[x, b],
            |t, l| {
                let y = t.add_bias_gelu(&l[0], &l[1]);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn bmm_nt_scaled_gradcheck() {
        let mut rng = Rng::new(14);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key],
            |t, l| {
                let s = t.bmm_nt_scaled(&l[0], &l[1], 0.5);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn flash_attention_gradcheck() {
        let mut rng = Rng::new(16);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        let v = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key, v],
            |t, l| {
                let y = t.flash_attention(&l[0], &l[1], &l[2], 0.5);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn flash_attention_matches_composed_chain() {
        // Forward value AND all three input gradients must match the
        // bmm_nt_scaled → softmax_last → bmm composition, including a
        // non-tile-multiple cross-attention shape.
        let mut rng = Rng::new(17);
        for &(sq, sk) in &[(4usize, 6usize), (70, 130)] {
            let q = Tensor::randn([2, sq, 8], 0.6, &mut rng);
            let key = Tensor::randn([2, sk, 8], 0.6, &mut rng);
            let v = Tensor::randn([2, sk, 8], 0.6, &mut rng);
            let run = |fused: bool| {
                let tape = Tape::new();
                let (qv, kv, vv) = (
                    tape.leaf(q.clone()),
                    tape.leaf(key.clone()),
                    tape.leaf(v.clone()),
                );
                let y = if fused {
                    tape.flash_attention(&qv, &kv, &vv, 0.35)
                } else {
                    let s = tape.bmm_nt_scaled(&qv, &kv, 0.35);
                    let p = tape.softmax_last(&s);
                    tape.bmm(&p, &vv)
                };
                let loss = tape.sum_all(&tape.mul(&y, &y));
                let grads = tape.backward(&loss);
                (
                    y.value().clone(),
                    grads.get(&qv).unwrap().clone(),
                    grads.get(&kv).unwrap().clone(),
                    grads.get(&vv).unwrap().clone(),
                )
            };
            let (yf, dqf, dkf, dvf) = run(true);
            let (yu, dqu, dku, dvu) = run(false);
            assert!(yf.max_abs_diff(&yu) <= 1e-4, "fwd Sq={sq} Sk={sk}");
            assert!(dqf.max_abs_diff(&dqu) <= 1e-4, "dq Sq={sq} Sk={sk}");
            assert!(dkf.max_abs_diff(&dku) <= 1e-4, "dk Sq={sq} Sk={sk}");
            assert!(dvf.max_abs_diff(&dvu) <= 1e-4, "dv Sq={sq} Sk={sk}");
        }
    }

    #[test]
    fn softmax_pool_gradcheck() {
        let mut rng = Rng::new(15);
        let y = Tensor::randn([2, 4, 3], 0.6, &mut rng);
        let pw = Tensor::randn([3, 1], 0.6, &mut rng);
        grad_check(
            &[y, pw],
            |t, l| {
                let p = t.softmax_pool(&l[0], &l[1]);
                t.sum_all(&t.mul(&p, &p))
            },
            3e-2,
        );
    }

    #[test]
    fn to_dtype_backward_is_straight_through() {
        // grad(x) through a bf16 cast must be the downstream gradient
        // bit-for-bit — the cast contributes no Jacobian of its own.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.1, -1.7, 3.3], [1, 3]));
        let q = tape.to_dtype(&x, DType::Bf16);
        assert_eq!(q.value().dtype(), DType::Bf16);
        let ones = tape.constant(Tensor::full(crate::shape::Shape::new(&[3, 1]), 1.0));
        let loss = tape.matmul(&q, &ones);
        let grads = tape.backward(&loss);
        // dL/dq = 1 per element; straight-through forwards it exactly.
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![1.0, 1.0, 1.0]);
        // Forward really is the round-tripped value.
        for i in 0..3 {
            assert_eq!(
                q.value().at(i).to_bits(),
                crate::dtype::bf16_round_trip(x.value().at(i)).to_bits()
            );
        }
    }

    #[test]
    fn linear_gelu_per_tier_gradcheck() {
        let mut rng = Rng::new(18);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 6], 0.5, &mut rng);
        let b = Tensor::randn([6], 0.5, &mut rng);

        // f32 tier: the cast is storage-exact and the graph must pass the
        // ordinary finite-difference check at the f32-tier tolerance.
        grad_check(
            &[x.clone(), w.clone(), b.clone()],
            |t, l| {
                let xq = t.to_dtype(&l[0], DType::F32);
                let wq = t.to_dtype(&l[1], DType::F32);
                let y = t.linear_gelu(&xq, &wq, &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );

        // bf16 tier: central differences are meaningless through a rounding
        // cast (the loss is a step function of each coordinate at h below
        // the 2^-8 quantization step), so the tier check compares analytic
        // gradients of the bf16-storage graph against the f32 graph at the
        // bf16-tier tolerance instead.
        let run = |quantize: bool| {
            let tape = Tape::new();
            let (xv, wv, bv) = (
                tape.leaf(x.clone()),
                tape.leaf(w.clone()),
                tape.leaf(b.clone()),
            );
            let y = if quantize {
                let xq = tape.to_dtype(&xv, DType::Bf16);
                let wq = tape.to_dtype(&wv, DType::Bf16);
                tape.linear_gelu(&xq, &wq, &bv)
            } else {
                tape.linear_gelu(&xv, &wv, &bv)
            };
            let loss = tape.sum_all(&tape.mul(&y, &y));
            let grads = tape.backward(&loss);
            (
                grads.get(&xv).unwrap().clone(),
                grads.get(&wv).unwrap().clone(),
                grads.get(&bv).unwrap().clone(),
            )
        };
        let (dx32, dw32, db32) = run(false);
        let (dx16, dw16, db16) = run(true);
        // Per-tier tolerance policy (tensor README): bf16 storage rounds at
        // 2^-8 relative per element; a short chain accumulates a few ulps.
        let tier_tol = 4.0 / 256.0;
        assert!(dx16.rel_l2_diff(&dx32) < tier_tol, "dx {}", dx16.rel_l2_diff(&dx32));
        assert!(dw16.rel_l2_diff(&dw32) < tier_tol, "dw {}", dw16.rel_l2_diff(&dw32));
        assert!(db16.rel_l2_diff(&db32) < tier_tol, "db {}", db16.rel_l2_diff(&db32));
    }

    #[test]
    fn mean_axis1_gradcheck() {
        let mut rng = Rng::new(9);
        let a = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        grad_check(
            &[a],
            |t, l| {
                let m = t.mean_axis1(&l[0]);
                t.sum_all(&t.mul(&m, &m))
            },
            2e-2,
        );
    }
}
