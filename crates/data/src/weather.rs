//! Synthetic global weather — the stand-in for ERA5 (paper §5.2).
//!
//! A deterministic toy planet: per-variable smooth base fields with
//! level-dependent zonal advection (westerlies faster aloft), meridional
//! structure (equator-to-pole gradients), hydrostatic-style coupling
//! between variables, and a seasonal cycle. The forecasting task — predict
//! the state `lead` steps ahead from 80 channels — is learnable because the
//! dynamics are smooth and autoregressive, which is all the reproduction
//! needs from ERA5.
//!
//! Channel layout mirrors the paper's ERA5 selection: five atmospheric
//! variables (geopotential z, temperature t, u-wind, v-wind, specific
//! humidity q) on pressure levels, three surface variables (t2m, u10,
//! v10), plus two static fields (orography, land-sea mask) to reach 80
//! channels at the default 15 levels.

use dchag_tensor::pool::pooled_zeroed;
use dchag_tensor::{Rng, Tensor};

use crate::field::{advect_x, smooth_field};

/// The five pressure-level variables.
pub const ATMO_VARS: [&str; 5] = ["z", "t", "u", "v", "q"];
/// Surface variables.
pub const SURFACE_VARS: [&str; 3] = ["t2m", "u10", "v10"];
/// Static fields.
pub const STATIC_VARS: [&str; 2] = ["orography", "lsm"];

/// Default pressure levels (hPa) — includes 500 and 850 for the paper's
/// Z500 / T850 metrics.
pub const DEFAULT_LEVELS: [usize; 15] = [
    10, 50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 775, 850, 925, 1000,
];

#[derive(Clone, Debug)]
pub struct WeatherConfig {
    pub h: usize,
    pub w: usize,
    pub levels: Vec<usize>,
    pub seed: u64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        // 5.625° grid, as in the paper's regridded setup.
        WeatherConfig {
            h: 32,
            w: 64,
            levels: DEFAULT_LEVELS.to_vec(),
            seed: 0xE8A5,
        }
    }
}

/// Deterministic synthetic reanalysis.
pub struct WeatherDataset {
    pub cfg: WeatherConfig,
    /// Per (var, level): the frozen anomaly field advected over time.
    anomalies: Vec<Vec<f32>>,
    statics: Vec<Vec<f32>>,
}

impl WeatherDataset {
    pub fn new(cfg: WeatherConfig) -> Self {
        let mut anomalies = Vec::new();
        let base = Rng::new(cfg.seed);
        for v in 0..ATMO_VARS.len() {
            for l in 0..cfg.levels.len() {
                let mut rng = base.fork((v * 1000 + l) as u64);
                anomalies.push(smooth_field(cfg.h, cfg.w, cfg.h / 6 + 1, true, &mut rng));
            }
        }
        for v in 0..SURFACE_VARS.len() {
            let mut rng = base.fork((9000 + v) as u64);
            anomalies.push(smooth_field(cfg.h, cfg.w, cfg.h / 6 + 1, true, &mut rng));
        }
        let statics = (0..STATIC_VARS.len())
            .map(|v| {
                let mut rng = base.fork((20_000 + v) as u64);
                smooth_field(cfg.h, cfg.w, cfg.h / 4 + 1, true, &mut rng)
            })
            .collect();
        WeatherDataset {
            cfg,
            anomalies,
            statics,
        }
    }

    /// Total channels: 5·levels + 3 surface + 2 static.
    pub fn channels(&self) -> usize {
        ATMO_VARS.len() * self.cfg.levels.len() + SURFACE_VARS.len() + STATIC_VARS.len()
    }

    /// Channel names like `z_500`, `t_850`, `u10`, `orography`.
    pub fn channel_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.channels());
        for v in ATMO_VARS {
            for &l in &self.cfg.levels {
                names.push(format!("{v}_{l}"));
            }
        }
        names.extend(SURFACE_VARS.iter().map(|s| s.to_string()));
        names.extend(STATIC_VARS.iter().map(|s| s.to_string()));
        names
    }

    /// Index of a named channel (e.g. `"z_500"`, `"t_850"`, `"u10"`).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.channel_names().iter().position(|n| n == name)
    }

    /// The paper's three evaluation channels: Z500, T850, U10.
    pub fn eval_channels(&self) -> [(String, usize); 3] {
        [
            ("Z500".to_string(), self.index_of("z_500").unwrap()),
            ("T850".to_string(), self.index_of("t_850").unwrap()),
            ("U10".to_string(), self.index_of("u10").unwrap()),
        ]
    }

    /// Zonal phase speed (pixels/step) for variable `v` at level index `l`:
    /// faster aloft, surface slowest.
    fn speed(&self, slot: usize) -> f32 {
        let nl = self.cfg.levels.len();
        if slot < ATMO_VARS.len() * nl {
            let l = slot % nl;
            // level 0 = 10 hPa (fast jet) … last = 1000 hPa (slow)
            1.8 - 1.4 * l as f32 / (nl - 1) as f32
        } else {
            0.3
        }
    }

    /// One field `[h·w]` at integer time `t` for channel slot `slot`.
    fn field_at(&self, slot: usize, t: usize) -> Vec<f32> {
        let (h, w) = (self.cfg.h, self.cfg.w);
        let nl = self.cfg.levels.len();
        let n_dynamic = ATMO_VARS.len() * nl + SURFACE_VARS.len();
        if slot >= n_dynamic {
            return self.statics[slot - n_dynamic].clone();
        }
        let adv = advect_x(&self.anomalies[slot], h, w, self.speed(slot) * t as f32);
        // meridional climatology + seasonal modulation
        let season = (2.0 * std::f32::consts::PI * t as f32 / 120.0).sin();
        let mut out = vec![0.0f32; h * w];
        for y in 0..h {
            let lat = 1.0 - 2.0 * (y as f32 + 0.5) / h as f32; // +1 N pole … −1 S pole
            let clim = match slot / nl.max(1) {
                0 => 1.2 * (1.0 - lat * lat),              // z: high at equator
                1 => 1.5 * (1.0 - lat.abs()) - 0.5,        // t: warm equator
                2 => 0.8 * (2.0 * lat).sin(),              // u: jets
                _ => 0.0,
            };
            for x in 0..w {
                out[y * w + x] = clim + 0.15 * season * (1.0 - lat.abs()) + 0.6 * adv[y * w + x];
            }
        }
        out
    }

    /// Full state `[1, C, H, W]` at time `t`.
    pub fn state(&self, t: usize) -> Tensor {
        let (h, w) = (self.cfg.h, self.cfg.w);
        let c = self.channels();
        let mut data = pooled_zeroed(c * h * w);
        for (slot, plane) in data.chunks_exact_mut(h * w).enumerate() {
            plane.copy_from_slice(&self.field_at(slot, t));
        }
        Tensor::from_vec(data, [1, c, h, w])
    }

    /// An (input, target) pair: states at `t` and `t + lead`, batched over
    /// `times`.
    pub fn forecast_batch(&self, times: &[usize], lead: usize) -> (Tensor, Tensor) {
        let (h, w) = (self.cfg.h, self.cfg.w);
        let c = self.channels();
        let mut xin = pooled_zeroed(times.len() * c * h * w);
        let mut tgt = pooled_zeroed(times.len() * c * h * w);
        let states = xin.chunks_exact_mut(c * h * w).zip(tgt.chunks_exact_mut(c * h * w));
        for (&t, (x, y)) in times.iter().zip(states) {
            x.copy_from_slice(self.state(t).data());
            y.copy_from_slice(self.state(t + lead).data());
        }
        (
            Tensor::from_vec(xin, [times.len(), c, h, w]),
            Tensor::from_vec(tgt, [times.len(), c, h, w]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WeatherDataset {
        WeatherDataset::new(WeatherConfig {
            h: 16,
            w: 32,
            levels: vec![500, 850],
            seed: 3,
        })
    }

    #[test]
    fn default_has_80_channels() {
        let ds = WeatherDataset::new(WeatherConfig::default());
        assert_eq!(ds.channels(), 80, "paper's ERA5 selection");
        assert_eq!(ds.channel_names().len(), 80);
    }

    #[test]
    fn eval_channels_resolvable() {
        let ds = WeatherDataset::new(WeatherConfig::default());
        let ev = ds.eval_channels();
        assert_eq!(ev[0].0, "Z500");
        assert!(ev.iter().all(|(_, i)| *i < ds.channels()));
        // all three distinct
        assert_ne!(ev[0].1, ev[1].1);
        assert_ne!(ev[1].1, ev[2].1);
    }

    #[test]
    fn state_deterministic_and_time_varying() {
        let ds = tiny();
        let a = ds.state(5);
        let b = ds.state(5);
        assert_eq!(a.to_vec(), b.to_vec());
        let c = ds.state(6);
        assert!(a.max_abs_diff(&c) > 1e-3, "dynamics must evolve");
    }

    #[test]
    fn statics_do_not_evolve() {
        let ds = tiny();
        let c = ds.channels();
        let a = ds.state(0);
        let b = ds.state(50);
        let hw = 16 * 32;
        // last two channels are static
        for ch in (c - 2)..c {
            let sa = &a.data()[ch * hw..(ch + 1) * hw];
            let sb = &b.data()[ch * hw..(ch + 1) * hw];
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn forecast_pairs_align() {
        let ds = tiny();
        let (x, y) = ds.forecast_batch(&[0, 10], 3);
        assert_eq!(x.dims(), &[2, ds.channels(), 16, 32]);
        assert_eq!(y.dims(), x.dims());
        // target of sample 0 equals state(3)
        let want = ds.state(3);
        let hw = ds.channels() * 16 * 32;
        assert_eq!(&y.data()[..hw], want.data());
    }

    #[test]
    fn persistence_beats_noise_but_not_perfect() {
        // the state autocorrelates over short leads (forecastable), but
        // isn't constant.
        let ds = tiny();
        let a = ds.state(0);
        let b = ds.state(2);
        let d = a.rel_l2_diff(&b);
        assert!(d > 0.01 && d < 0.8, "short-lead change: {d}");
    }

    #[test]
    fn levels_modulate_advection_speed() {
        let ds = WeatherDataset::new(WeatherConfig::default());
        assert!(ds.speed(0) > ds.speed(ATMO_VARS.len() * 15 - 1));
    }
}
