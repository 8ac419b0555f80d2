//! Synthetic VNIR hyperspectral plant imagery — the stand-in for the APPL
//! Poplar dataset (paper §5.1: 494 images × 500 bands, 400–900 nm).
//!
//! Each image is a linear mixture of three endmember spectra (leaf, soil,
//! background) over a procedurally generated plant silhouette, with
//! per-pixel physiological variation (red-edge shift, brightness) and
//! sensor noise. What matters for the reproduction is preserved: hundreds
//! of highly-correlated spectral channels sharing spatial structure, on
//! which MAE pretraining converges.

use dchag_tensor::pool::pooled_zeroed;
use dchag_tensor::{Rng, Tensor};

use crate::field::smooth_field;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct HyperspectralConfig {
    /// Number of spectral bands (the paper's APPL data: 500).
    pub bands: usize,
    pub h: usize,
    pub w: usize,
    /// Dataset size (the paper's subset: 494).
    pub images: usize,
    pub seed: u64,
}

impl Default for HyperspectralConfig {
    fn default() -> Self {
        HyperspectralConfig {
            bands: 500,
            h: 64,
            w: 64,
            images: 494,
            seed: 0xA991,
        }
    }
}

/// Deterministic synthetic dataset; images are generated on demand.
pub struct HyperspectralDataset {
    pub cfg: HyperspectralConfig,
}

/// Leaf reflectance: chlorophyll absorption in blue/red, green bump at
/// ~550 nm, sharp red edge at ~700 nm, NIR plateau. `edge_shift` models
/// physiological variation (nm).
fn leaf_reflectance(nm: f32, edge_shift: f32) -> f32 {
    let green_bump = 0.12 * (-((nm - 550.0) / 40.0).powi(2)).exp();
    let red_edge = 0.45 / (1.0 + (-(nm - (705.0 + edge_shift)) / 15.0).exp());
    0.05 + green_bump + red_edge
}

/// Soil: slowly rising with wavelength.
fn soil_reflectance(nm: f32) -> f32 {
    0.12 + 0.25 * (nm - 400.0) / 500.0
}

/// Imaging-cabinet background: flat and dark.
fn background_reflectance(_nm: f32) -> f32 {
    0.04
}

impl HyperspectralDataset {
    pub fn new(cfg: HyperspectralConfig) -> Self {
        HyperspectralDataset { cfg }
    }

    /// Band-center wavelengths in nm (400–900, evenly spaced).
    pub fn wavelengths(&self) -> Vec<f32> {
        let n = self.cfg.bands;
        (0..n)
            .map(|i| 400.0 + 500.0 * i as f32 / (n - 1).max(1) as f32)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.cfg.images
    }

    pub fn is_empty(&self) -> bool {
        self.cfg.images == 0
    }

    /// Per-pixel leaf coverage in [0,1] and soil mask for image `idx`.
    fn plant_mask(&self, idx: usize) -> (Vec<f32>, Vec<f32>) {
        let (h, w) = (self.cfg.h, self.cfg.w);
        let mut rng = Rng::new(self.cfg.seed).fork(idx as u64);
        // canopy: thresholded smooth blobs biased toward the image center
        let blobs = smooth_field(h, w, (h / 8).max(2), false, &mut rng);
        let mut leaf = vec![0.0f32; h * w];
        let mut soil = vec![0.0f32; h * w];
        let canopy_density = rng.uniform_in(0.2, 0.6);
        for y in 0..h {
            for x in 0..w {
                let cy = (y as f32 / h as f32 - 0.45) * 2.2;
                let cx = (x as f32 / w as f32 - 0.5) * 2.2;
                let center = (-(cx * cx + cy * cy)).exp();
                let v = blobs[y * w + x] * 0.8 + center * 1.5 - 1.0 + canopy_density;
                leaf[y * w + x] = v.clamp(0.0, 1.0);
                // soil pot at the bottom
                let pot = if y as f32 > 0.8 * h as f32 { 0.8 } else { 0.0 };
                soil[y * w + x] = (pot * (1.0 - leaf[y * w + x])).clamp(0.0, 1.0);
            }
        }
        (leaf, soil)
    }

    /// One hyperspectral cube `[bands, h, w]`.
    pub fn image(&self, idx: usize) -> Tensor {
        assert!(idx < self.cfg.images, "image index {idx}");
        let (h, w, c) = (self.cfg.h, self.cfg.w, self.cfg.bands);
        let mut rng = Rng::new(self.cfg.seed ^ 0x51AB).fork(idx as u64);
        let (leaf, soil) = self.plant_mask(idx);
        // spatial physiological variation: red-edge shift and brightness
        let edge = smooth_field(h, w, (h / 6).max(2), false, &mut rng);
        let bright = smooth_field(h, w, (h / 6).max(2), false, &mut rng);
        let lambdas = self.wavelengths();

        let mut data = pooled_zeroed(c * h * w);
        for (bi, &nm) in lambdas.iter().enumerate() {
            for p in 0..h * w {
                let l = leaf[p];
                let s = soil[p];
                let bg = (1.0 - l - s).max(0.0);
                let refl = l * leaf_reflectance(nm, 12.0 * edge[p])
                    + s * soil_reflectance(nm)
                    + bg * background_reflectance(nm);
                let gain = 1.0 + 0.08 * bright[p];
                data[bi * h * w + p] = refl * gain + 0.01 * rng.normal();
            }
        }
        Tensor::from_vec(data, [c, h, w])
    }

    /// A batch of cubes `[B, bands, h, w]`.
    pub fn batch(&self, indices: &[usize]) -> Tensor {
        let (h, w, c) = (self.cfg.h, self.cfg.w, self.cfg.bands);
        let mut data = pooled_zeroed(indices.len() * c * h * w);
        for (&i, cube) in indices.iter().zip(data.chunks_exact_mut(c * h * w)) {
            cube.copy_from_slice(self.image(i).data());
        }
        Tensor::from_vec(data, [indices.len(), c, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HyperspectralDataset {
        HyperspectralDataset::new(HyperspectralConfig {
            bands: 24,
            h: 16,
            w: 16,
            images: 4,
            seed: 1,
        })
    }

    #[test]
    fn shapes_and_determinism() {
        let ds = tiny();
        let a = ds.image(0);
        assert_eq!(a.dims(), &[24, 16, 16]);
        let b = ds.image(0);
        assert_eq!(a.to_vec(), b.to_vec());
        let c = ds.image(1);
        assert!(a.max_abs_diff(&c) > 1e-3, "images differ");
    }

    #[test]
    fn reflectance_physics_sanity() {
        // red edge: NIR reflectance far above red absorption for leaves
        let red = leaf_reflectance(670.0, 0.0);
        let nir = leaf_reflectance(820.0, 0.0);
        assert!(nir > 3.0 * red, "red edge: {red} -> {nir}");
        // green bump visible
        let green = leaf_reflectance(550.0, 0.0);
        let blue = leaf_reflectance(450.0, 0.0);
        assert!(green > blue);
    }

    #[test]
    fn spectra_strongly_correlated_across_bands() {
        // adjacent bands of the same cube must be nearly identical — the
        // property that makes channel aggregation meaningful.
        let ds = tiny();
        let img = ds.image(0);
        let hw = 256;
        let b0 = &img.data()[0..hw];
        let b1 = &img.data()[hw..2 * hw];
        let dot: f32 = b0.iter().zip(b1).map(|(a, b)| a * b).sum();
        let n0: f32 = b0.iter().map(|a| a * a).sum::<f32>().sqrt();
        let n1: f32 = b1.iter().map(|a| a * a).sum::<f32>().sqrt();
        assert!(dot / (n0 * n1) > 0.95);
    }

    #[test]
    fn batch_stacks_images() {
        let ds = tiny();
        let b = ds.batch(&[0, 2]);
        assert_eq!(b.dims(), &[2, 24, 16, 16]);
        assert_eq!(&b.data()[..10], &ds.image(0).data()[..10]);
    }

    #[test]
    fn values_physical_range() {
        let ds = tiny();
        let img = ds.image(3);
        assert!(img.all_finite());
        // reflectance roughly [0, 1.2] with noise
        assert!(img.max_abs() < 1.5);
    }

    #[test]
    fn default_matches_paper_scale() {
        let cfg = HyperspectralConfig::default();
        assert_eq!(cfg.bands, 500);
        assert_eq!(cfg.images, 494);
    }
}
