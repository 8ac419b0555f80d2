//! Special tokens (paper §2.1): channel-ID embeddings, 2-D positional
//! embeddings, and the metadata (lead-time) token.

use dchag_tensor::prelude::*;
use dchag_tensor::pool::pooled_zeroed;
use dchag_tensor::{init, Shape};

/// Sub-stream tag for channel-ID embedding init (see tokenizer for W/B).
const STREAM_E: u64 = 0x65_6d;

/// Learned per-channel ID embeddings, added to every token of the channel.
/// Like the tokenizer, initialization is keyed by global channel id so the
/// distributed and single-device layouts hold identical weights.
pub struct ChannelEmbed {
    pub channels: Vec<usize>,
    ids: Vec<ParamId>,
    pub dim: usize,
}

impl ChannelEmbed {
    pub fn new(store: &mut ParamStore, base_seed: u64, channels: &[usize], dim: usize) -> Self {
        let base = Rng::new(base_seed);
        let ids = channels
            .iter()
            .map(|&c| {
                let mut r = base.fork(STREAM_E ^ (c as u64).wrapping_mul(2654435761));
                store.add(format!("chan_embed.{c}"), init::trunc_normal(&[dim], 0.02, &mut r))
            })
            .collect();
        ChannelEmbed {
            channels: channels.to_vec(),
            ids,
            dim,
        }
    }

    /// `x: [B, C_local, P, D]` → same shape with `e_c` added to channel `c`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (b, c, p, d) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.ids.len(), "channel count mismatch");
        assert_eq!(d, self.dim);

        // Stack the embeddings into [C, D] on-tape, then broadcast-add.
        let rows: Vec<Var> = self
            .ids
            .iter()
            .map(|&id| tape.reshape(&bind.bind(id), &[1, d]))
            .collect();
        let row_refs: Vec<&Var> = rows.iter().collect();
        let table = tape.concat(&row_refs, 0); // [C, D]
        let tid = table.id();
        let tval = table.value().clone();
        let xid = x.id();
        let xval = x.value().clone();

        // out[b,c,p,:] = x[b,c,p,:] + e[c,:]
        let mut out = xval.to_vec();
        for bi in 0..b {
            for ci in 0..c {
                let e = &tval.data()[ci * d..(ci + 1) * d];
                for pi in 0..p {
                    let off = ((bi * c + ci) * p + pi) * d;
                    for (o, &ev) in out[off..off + d].iter_mut().zip(e) {
                        *o += ev;
                    }
                }
            }
        }
        let out = Tensor::from_vec(out, Shape::new(&[b, c, p, d]));
        tape.custom(out, move |g, emit| {
            emit(xid, g.clone());
            // de[c,:] = Σ_{b,p} g[b,c,p,:]
            let mut de = vec![0.0f32; c * d];
            for bi in 0..b {
                for ci in 0..c {
                    for pi in 0..p {
                        let off = ((bi * c + ci) * p + pi) * d;
                        for (o, &gv) in de[ci * d..(ci + 1) * d]
                            .iter_mut()
                            .zip(&g.data()[off..off + d])
                        {
                            *o += gv;
                        }
                    }
                }
            }
            emit(tid, Tensor::from_vec(de, Shape::new(&[c, d])));
        })
    }
}

/// Learned positional embedding over the patch grid, added after channel
/// aggregation.
pub struct PosEmbed {
    pub table: ParamId,
    pub num_patches: usize,
    pub dim: usize,
}

impl PosEmbed {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        num_patches: usize,
        dim: usize,
    ) -> Self {
        PosEmbed {
            table: store.add(
                name.to_string(),
                init::trunc_normal(&[num_patches, dim], 0.02, rng),
            ),
            num_patches,
            dim,
        }
    }

    /// `x: [B, P, D]` → `x + pos`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        assert_eq!(x.dims()[1], self.num_patches, "patch count mismatch");
        let pos = tape.broadcast_to_batch(&bind.bind(self.table), x.dims()[0]);
        tape.add(x, &pos)
    }
}

/// Metadata token (paper Fig. 1): a learned token modulated by a scalar
/// context (forecast lead time, acquisition time, ...), appended to the
/// ViT sequence.
pub struct MetaToken {
    pub base: ParamId,
    pub scale_w: ParamId,
    pub dim: usize,
}

impl MetaToken {
    pub fn new(store: &mut ParamStore, rng: &mut Rng, dim: usize) -> Self {
        MetaToken {
            base: store.add("meta.base", init::trunc_normal(&[1, dim], 0.02, rng)),
            scale_w: store.add("meta.scale_w", init::trunc_normal(&[1, dim], 0.02, rng)),
            dim,
        }
    }

    /// Append the metadata token for scalar context `value` to `x [B,S,D]`,
    /// returning `[B, S+1, D]`.
    pub fn append(&self, bind: &dyn Binder, x: &Var, value: f32) -> Var {
        let tape = bind.tape();
        let b = x.dims()[0];
        let tok = tape.add(
            &bind.bind(self.base),
            &tape.scale(&bind.bind(self.scale_w), value),
        ); // [1, D]
        let tok = tape.broadcast_to_batch(&tok, b); // [B, 1, D]
        tape.concat(&[x, &tok], 1)
    }
}

/// Build a latitude-weight image `[1, 1, H, W]`: `w(φ) = cos φ / mean cos φ`
/// over an equiangular grid — the standard weighting for global-forecast
/// losses and RMSE.
pub fn latitude_weights(h: usize, w: usize) -> Tensor {
    let mut lat_w = Vec::with_capacity(h);
    for i in 0..h {
        // cell-centered latitudes from +90 to -90
        let phi = std::f32::consts::PI * ((i as f32 + 0.5) / h as f32 - 0.5);
        lat_w.push(phi.cos());
    }
    let mean: f32 = lat_w.iter().sum::<f32>() / h as f32;
    let mut data = Vec::with_capacity(h * w);
    for wi in &lat_w {
        for _ in 0..w {
            data.push(wi / mean);
        }
    }
    Tensor::from_vec(data, [1, 1, h, w])
}

/// Tile a `[1, 1, P, q]` patch-space tensor to `[B, C, P, q]` (used to lift
/// latitude weights into the loss mask layout).
pub fn tile_patch_mask(mask: &Tensor, b: usize, c: usize) -> Tensor {
    assert_eq!(mask.dims()[0], 1);
    assert_eq!(mask.dims()[1], 1);
    let (p, q) = (mask.dims()[2], mask.dims()[3]);
    let mut data = pooled_zeroed(b * c * p * q);
    for tile in data.chunks_exact_mut(p * q) {
        tile.copy_from_slice(mask.data());
    }
    Tensor::from_vec(data, [b, c, p, q])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::autograd::check::grad_check;
    use dchag_tensor::ops;

    #[test]
    fn channel_embed_adds_per_channel_constant() {
        let mut store = ParamStore::new();
        let ce = ChannelEmbed::new(&mut store, 11, &[0, 1], 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([1, 2, 3, 4]));
        let y = ce.forward(&bind, &x);
        // all positions of a channel share the same added vector
        let v = y.value();
        for pi in 1..3 {
            for di in 0..4 {
                assert_eq!(v.at(pi * 4 + di), v.at(di));
            }
        }
        // channels differ
        assert!(
            ops::slice(v, 1, 0, 1).max_abs_diff(&ops::slice(v, 1, 1, 1)) > 1e-4
        );
    }

    #[test]
    fn channel_embed_seeded_by_channel_id() {
        let mut s1 = ParamStore::new();
        let e1 = ChannelEmbed::new(&mut s1, 5, &[0, 1, 2, 3], 8);
        let mut s2 = ParamStore::new();
        let e2 = ChannelEmbed::new(&mut s2, 5, &[3, 1], 8);
        assert_eq!(
            s1.get(e1.ids[3]).to_vec(),
            s2.get(e2.ids[0]).to_vec()
        );
        assert_eq!(
            s1.get(e1.ids[1]).to_vec(),
            s2.get(e2.ids[1]).to_vec()
        );
    }

    #[test]
    fn channel_embed_gradcheck() {
        let mut store = ParamStore::new();
        let ce = ChannelEmbed::new(&mut store, 11, &[0, 1, 2], 4);
        let mut rng = Rng::new(1);
        let x0 = Tensor::randn([2, 3, 2, 4], 0.5, &mut rng);
        grad_check(
            &[x0],
            |tape, leaves| {
                let bind = LocalBinder::new(tape, &store);
                let y = ce.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn pos_embed_shifts_positions_differently() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let pe = PosEmbed::new(&mut store, &mut rng, "pos_embed", 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([2, 4, 8]));
        let y = pe.forward(&bind, &x);
        let v = y.value();
        // batch 0 equals batch 1 (pure broadcast)
        assert_eq!(v.data()[..32], v.data()[32..]);
        // position rows differ
        assert!(v.data()[..8] != v.data()[8..16]);
    }

    #[test]
    fn meta_token_appends_one_token() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let mt = MetaToken::new(&mut store, &mut rng, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([2, 3, 8]));
        let y = mt.append(&bind, &x, 0.5);
        assert_eq!(y.dims(), &[2, 4, 8]);
        // token depends on the scalar value
        let y2 = mt.append(&bind, &x, 1.5);
        assert!(
            ops::slice(y.value(), 1, 3, 1).max_abs_diff(&ops::slice(y2.value(), 1, 3, 1)) > 1e-5
        );
    }

    #[test]
    fn latitude_weights_normalized_and_polar_small() {
        let w = latitude_weights(32, 64);
        assert!((w.mean() - 1.0).abs() < 1e-4);
        // poles lighter than equator
        let north = w.at(0);
        let equator = w.at(16 * 64);
        assert!(north < equator);
    }

    #[test]
    fn tile_patch_mask_repeats() {
        let m = Tensor::from_vec(vec![1.0, 2.0], [1, 1, 1, 2]);
        let t = tile_patch_mask(&m, 2, 3);
        assert_eq!(t.dims(), &[2, 3, 1, 2]);
        assert_eq!(t.sum(), 6.0 * 3.0);
    }
}
