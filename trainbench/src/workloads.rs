//! The three workloads and the per-rank training loop that runs them.
//!
//! Every launch builds the world, the model and the inputs, runs warm-up
//! steps and then the timed steps, closed loop: a rank starts its next step
//! only after its previous one completed. Each step is built from the same
//! primitives `dchag_core::train_step` uses: `forward_loss`,
//! `Tape::backward`, `Binder::grads`, `clip_global_norm`, `AdamW::step`.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use dchag_collectives::{
    run_transport_ranks, CollOp, Communicator, RankCtx, TcpConfig, TrafficLog, Transport,
};
use dchag_core::{DChagEncoder, TrainConfig};
use dchag_data::hyperspectral::{HyperspectralConfig, HyperspectralDataset};
use dchag_data::weather::{WeatherConfig, WeatherDataset};
use dchag_model::config::{ModelConfig, TreeConfig, UnitKind};
use dchag_model::encoder::{EncoderBackbone, FmEncoder};
use dchag_model::{clip_global_norm, AdamW, ClimaxModel, MaeModel, PatchMask};
use dchag_perf::{MemoryModel, Strategy};
use dchag_tensor::checkpoint::{CheckpointDir, Snapshot, SnapshotWriter};
use dchag_tensor::device::set_tracker;
use dchag_tensor::prelude::*;

use crate::trace::{span, Recorder, Span, Traced};

/// Untimed steps before the timed ones (first-touch allocation, caches).
pub const WARMUP_STEPS: usize = 2;
/// Distinct batches generated per launch; the batch order cycles them.
const BATCH_POOL: usize = 8;
/// The timed step count is rounded up to a multiple of this (and the
/// checkpointing workload snapshots once per this many steps), so every run
/// has the same share of checkpoint steps.
pub const CKPT_EVERY: usize = 8;
/// Model initialisation and the synthetic datasets are fixed; the workload
/// seed draws the images (or forecast start times) of the batch pool, the
/// batch order and the masks.
const MODEL_SEED: u64 = 5;
const CHANNEL_SEED: u64 = 3;
const MASK_RATIO: f32 = 0.75;
/// Forecast lead in dataset time steps (the model sees `lead / 10`).
const LEAD: usize = 6;
/// Forecast start times are drawn from `0..TIME_SPAN`.
const TIME_SPAN: usize = 1000;
const ERA_LEVELS: [usize; 3] = [250, 500, 850];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Task {
    Mae,
    Climax,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backbone {
    /// `DChagEncoder` over a TP group of `world` ranks.
    DChag,
    /// The plain single-worker `FmEncoder`.
    Single,
}

pub struct Workload {
    pub name: &'static str,
    pub task: Task,
    pub backbone: Backbone,
    pub world: usize,
    pub tcp: bool,
    pub batch: usize,
    pub cfg: ModelConfig,
    pub tree: TreeConfig,
    pub checkpoint: bool,
    /// Median step time on a 2-core AVX-512 host; sets how many steps a
    /// run of `--seconds` times.
    pub nominal_step_ms: f64,
}

impl Workload {
    /// Timed steps for a run of about `seconds`: a fixed count, so that
    /// `final_loss` depends on the seed alone and not on the host's speed.
    pub fn timed_steps(&self, seconds: f64) -> usize {
        let steps = (seconds * 1e3 / self.nominal_step_ms).ceil().max(1.0) as usize;
        steps.div_ceil(CKPT_EVERY) * CKPT_EVERY
    }

    /// The analytic per-worker memory of this workload's model.
    pub fn modelled_bytes(&self) -> f64 {
        let strat = match self.backbone {
            Backbone::DChag => Strategy::dchag(self.tree, self.world, self.batch),
            Backbone::Single => Strategy::tp(1, self.batch),
        };
        MemoryModel::frontier().breakdown(&self.cfg, &strat).total()
    }
}

fn hsi_cfg() -> ModelConfig {
    ModelConfig {
        embed_dim: 64,
        depth: 2,
        heads: 4,
        mlp_ratio: 4,
        patch: 4,
        img_h: 32,
        img_w: 32,
        channels: 128,
        out_channels: 128,
        decoder_dim: 32,
        decoder_depth: 1,
    }
}

fn era_cfg() -> ModelConfig {
    ModelConfig {
        embed_dim: 128,
        depth: 4,
        heads: 8,
        mlp_ratio: 4,
        patch: 4,
        img_h: 32,
        img_w: 64,
        channels: 5 * ERA_LEVELS.len() + 5,
        out_channels: 5 * ERA_LEVELS.len() + 5,
        decoder_dim: 32,
        decoder_depth: 1,
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "hsi_mae_c128_w2",
            task: Task::Mae,
            backbone: Backbone::DChag,
            world: 2,
            tcp: false,
            batch: 8,
            cfg: hsi_cfg(),
            tree: TreeConfig::tree(2, UnitKind::Linear),
            checkpoint: false,
            nominal_step_ms: 140.0,
        },
        Workload {
            name: "era_climax_c20_w2_tcp",
            task: Task::Climax,
            backbone: Backbone::DChag,
            world: 2,
            tcp: true,
            batch: 4,
            cfg: era_cfg(),
            tree: TreeConfig::tree0(UnitKind::CrossAttention),
            checkpoint: false,
            nominal_step_ms: 240.0,
        },
        Workload {
            name: "hsi_mae_c128_w1_ckpt",
            task: Task::Mae,
            backbone: Backbone::Single,
            world: 1,
            tcp: false,
            batch: 8,
            cfg: hsi_cfg(),
            tree: TreeConfig::tree(2, UnitKind::Linear),
            checkpoint: true,
            nominal_step_ms: 210.0,
        },
    ]
}

// ----- inputs ---------------------------------------------------------------

pub enum Batch {
    Images(Tensor),
    Forecast { inputs: Tensor, targets: Tensor },
}

/// Everything a launch feeds the model, generated from the workload seed.
pub struct Inputs {
    pool: Vec<Batch>,
    /// Pool index for each step (warm-up steps first).
    order: Vec<usize>,
    /// Mask for each step (MAE only).
    masks: Vec<PatchMask>,
    /// Generation time of each pool batch.
    pub batch_ms: Vec<f64>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, steps: usize) -> Inputs {
        let root = Rng::new(seed);
        let mut data_rng = root.fork(1);
        let mut order_rng = root.fork(2);
        let mut mask_rng = root.fork(3);
        let cfg = &w.cfg;
        let mut batch_ms = Vec::with_capacity(BATCH_POOL);
        let mut timed = |make: &mut dyn FnMut() -> Batch| {
            let t = Instant::now();
            let b = make();
            batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            b
        };
        let pool: Vec<Batch> = match w.task {
            Task::Mae => {
                let ds = HyperspectralDataset::new(HyperspectralConfig {
                    bands: cfg.channels,
                    h: cfg.img_h,
                    w: cfg.img_w,
                    ..HyperspectralConfig::default()
                });
                let perm = data_rng.permutation(ds.len());
                perm[..BATCH_POOL * w.batch]
                    .chunks(w.batch)
                    .map(|idx| timed(&mut || Batch::Images(ds.batch(idx))))
                    .collect()
            }
            Task::Climax => {
                let ds = WeatherDataset::new(WeatherConfig {
                    h: cfg.img_h,
                    w: cfg.img_w,
                    levels: ERA_LEVELS.to_vec(),
                    ..WeatherConfig::default()
                });
                assert_eq!(ds.channels(), cfg.channels, "weather channel count");
                (0..BATCH_POOL)
                    .map(|_| {
                        let times: Vec<usize> =
                            (0..w.batch).map(|_| data_rng.below(TIME_SPAN)).collect();
                        timed(&mut || {
                            let (inputs, targets) = ds.forecast_batch(&times, LEAD);
                            Batch::Forecast { inputs, targets }
                        })
                    })
                    .collect()
            }
        };
        let mut order = Vec::with_capacity(steps + BATCH_POOL);
        while order.len() < steps {
            order.extend(order_rng.permutation(BATCH_POOL));
        }
        let masks = match w.task {
            Task::Mae => (0..steps)
                .map(|_| PatchMask::random(cfg.num_patches(), MASK_RATIO, &mut mask_rng))
                .collect(),
            Task::Climax => Vec::new(),
        };
        Inputs {
            pool,
            order,
            masks,
            batch_ms,
        }
    }

    fn batch(&self, step: usize) -> &Batch {
        &self.pool[self.order[step]]
    }
}

// ----- launches -------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Build everything and warm up, then return: one `setup_s` sample.
    SetupOnly,
    Untraced,
    Traced,
}

pub struct Job<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub steps: usize,
    pub mode: Mode,
    /// Where the checkpointing workload writes (removed after the launch).
    pub scratch: &'a Path,
}

/// Collective traffic over the timed steps, from rank 0's traffic log.
#[derive(Default)]
pub struct CollStats {
    pub allreduce: usize,
    pub allgather: usize,
    pub wire_bytes: usize,
    /// Per pipelined chunk: ready − issued (waiting for the last rank).
    pub wait_us: Vec<f64>,
    /// Per pipelined chunk: done − ready (the reduction or copy itself).
    pub work_us: Vec<f64>,
    pub retransmits: usize,
    pub reconnects: usize,
}

#[derive(Default)]
pub struct CkptStats {
    /// Training-thread stall per checkpoint step.
    pub snapshot_ms: Vec<f64>,
    pub drain_ms: f64,
    pub restore_ms: f64,
    /// Serialized size of one snapshot.
    pub bytes: usize,
    pub errors: usize,
}

/// Traced-run extras, per timed step.
pub struct TraceOut {
    pub spans: Vec<Span>,
    pub steps: Vec<(Instant, Instant)>,
    pub backward_colls: Vec<usize>,
    pub resident_bytes: Vec<usize>,
    pub activation_bytes: Vec<usize>,
}

/// What one rank reports back from a launch.
pub struct RankOut {
    pub setup_s: f64,
    pub batch_ms: Vec<f64>,
    pub losses: Vec<f32>,
    pub step_ms: Vec<f64>,
    pub timed_wall_s: f64,
    pub peak_bytes: usize,
    pub coll: CollStats,
    pub ckpt: Option<CkptStats>,
    pub trace: Option<TraceOut>,
    /// Failures that did not stop the rank: `(timed step, cause)`.
    pub failures: Vec<(usize, String)>,
    pub num_params: usize,
    /// Minor page faults of the whole process during the timed steps.
    pub minor_faults: u64,
}

/// Minor page faults of this process so far, from `/proc/self/stat`
/// (0 where that file does not exist).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at `state`;
            // `minflt` is the eighth of them.
            let (_, rest) = s.rsplit_once(')')?;
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Launch the workload's world once. `launched` is taken just before the
/// launch call, so `setup_s` includes TCP bring-up.
pub fn launch(job: &Job) -> (Instant, Vec<Result<RankOut, String>>) {
    let transport = if job.w.tcp {
        Transport::Tcp(TcpConfig::default())
    } else {
        Transport::Thread
    };
    let launched = Instant::now();
    let run = run_transport_ranks(&transport, job.w.world, |ctx| rank_main(ctx, job, launched));
    (launched, run.outputs)
}

/// Generate with allocation tracking off: the benchmark's input pool is not
/// part of the model's memory.
fn untracked<R>(f: impl FnOnce() -> R) -> R {
    let prev = set_tracker(None);
    let out = f();
    set_tracker(prev);
    out
}

fn rank_main(ctx: RankCtx, job: &Job, launched: Instant) -> RankOut {
    let w = job.w;
    let inputs = untracked(|| Inputs::generate(w, job.seed, WARMUP_STEPS + job.steps));
    let mut store = ParamStore::new();
    let mut rng = Rng::new(MODEL_SEED);
    let rec = (job.mode == Mode::Traced).then(Recorder::new);
    let rank = Rank {
        ctx: &ctx,
        job,
        launched,
        inputs: &inputs,
        rec,
    };
    match w.backbone {
        Backbone::DChag => {
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &w.cfg,
                CHANNEL_SEED,
                w.tree,
                &ctx.comm,
            );
            rank.with_encoder(enc, store, rng)
        }
        Backbone::Single => {
            let enc = FmEncoder::new(&mut store, &mut rng, &w.cfg, CHANNEL_SEED, w.tree);
            rank.with_encoder(enc, store, rng)
        }
    }
}

struct Rank<'a> {
    ctx: &'a RankCtx,
    job: &'a Job<'a>,
    launched: Instant,
    inputs: &'a Inputs,
    rec: Option<Rc<Recorder>>,
}

struct Checkpointing {
    root: PathBuf,
    rank: usize,
    world: usize,
    writer: Option<SnapshotWriter>,
    last: Option<Snapshot>,
    stats: CkptStats,
}

impl Checkpointing {
    fn open(scratch: &Path, rank: usize, world: usize) -> Result<Self, String> {
        let root = scratch.join(format!("ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CheckpointDir::open(&root, rank, world).map_err(|e| e.to_string())?;
        let writer = SnapshotWriter::spawn(dir, Duration::from_secs(10));
        Ok(Checkpointing {
            root,
            rank,
            world,
            writer: Some(writer),
            last: None,
            stats: CkptStats::default(),
        })
    }

    /// Drain the writer, read the newest checkpoint back and check it is
    /// bit-identical to the last snapshot taken.
    fn finish(&mut self) -> Result<(), String> {
        let writer = self.writer.take().expect("writer open until finish");
        let t = Instant::now();
        writer.flush().map_err(|e| format!("flush: {e}"))?;
        self.stats.drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let errors = writer.take_errors();
        drop(writer);
        self.stats.errors = errors.len();
        if let Some((step, e)) = errors.first() {
            return Err(format!("checkpoint of step {step} failed: {e}"));
        }
        let last = self.last.as_ref().ok_or("no snapshot was taken")?;
        let t = Instant::now();
        let dir =
            CheckpointDir::open(&self.root, self.rank, self.world).map_err(|e| e.to_string())?;
        let valid = dir
            .latest_valid()
            .map_err(|e| format!("latest_valid: {e}"))?;
        let back = dir
            .load_shard(valid.step, self.rank)
            .map_err(|e| format!("load_shard: {e}"))?;
        self.stats.restore_ms = t.elapsed().as_secs_f64() * 1e3;
        self.stats.bytes = last.to_bytes().len();
        if valid.step != last.step {
            return Err(format!(
                "newest valid checkpoint is step {}, expected {}",
                valid.step, last.step
            ));
        }
        same_snapshot(last, &back)
    }
}

impl Drop for Checkpointing {
    fn drop(&mut self) {
        drop(self.writer.take());
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn same_tensor(a: &Tensor, b: &Tensor) -> bool {
    a.dtype() == b.dtype()
        && a.dims() == b.dims()
        && a.to_vec()
            .iter()
            .map(|x| x.to_bits())
            .eq(b.to_vec().iter().map(|x| x.to_bits()))
}

fn same_opt(a: &Option<Tensor>, b: &Option<Tensor>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same_tensor(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn same_snapshot(a: &Snapshot, b: &Snapshot) -> Result<(), String> {
    if a.entries.len() != b.entries.len() {
        return Err("read-back entry count differs".into());
    }
    for (x, y) in a.entries.iter().zip(&b.entries) {
        if x.name != y.name || !same_tensor(&x.value, &y.value) {
            return Err(format!("read-back parameter {} differs", x.name));
        }
    }
    let oa = a.optim.as_ref().ok_or("no optimizer state saved")?;
    let ob = b
        .optim
        .as_ref()
        .ok_or("optimizer state missing from read-back")?;
    if oa.t != ob.t || oa.entries.len() != ob.entries.len() {
        return Err("read-back optimizer state differs".into());
    }
    for (x, y) in oa.entries.iter().zip(&ob.entries) {
        if x.name != y.name
            || !same_opt(&x.m, &y.m)
            || !same_opt(&x.v, &y.v)
            || !same_opt(&x.master, &y.master)
        {
            return Err(format!("read-back optimizer entry {} differs", x.name));
        }
    }
    Ok(())
}

impl Rank<'_> {
    fn with_encoder<E>(&self, enc: E, store: ParamStore, rng: Rng) -> RankOut
    where
        E: EncoderBackbone,
        Traced<E>: EncoderBackbone,
    {
        match self.rec.clone() {
            Some(rec) => self.with_head(Traced::new(enc, rec), store, rng),
            None => self.with_head(enc, store, rng),
        }
    }

    fn with_head<E: EncoderBackbone>(
        &self,
        enc: E,
        mut store: ParamStore,
        mut rng: Rng,
    ) -> RankOut {
        let inputs = self.inputs;
        match self.job.w.task {
            Task::Mae => {
                let model = MaeModel::with_encoder(&mut store, &mut rng, enc);
                self.train(store, |bind, i| {
                    let Batch::Images(images) = inputs.batch(i) else {
                        unreachable!("MAE takes images")
                    };
                    model.forward_loss(bind, images, &inputs.masks[i]).0
                })
            }
            Task::Climax => {
                let model = ClimaxModel::with_encoder(&mut store, &mut rng, enc);
                self.train(store, |bind, i| {
                    let Batch::Forecast { inputs: x, targets } = inputs.batch(i) else {
                        unreachable!("forecasting takes input/target pairs")
                    };
                    model.forward_loss(bind, x, targets, LEAD as f32 / 10.0).0
                })
            }
        }
    }

    /// Warm up, then run the timed steps.
    fn train(&self, mut store: ParamStore, forward: impl Fn(&dyn Binder, usize) -> Var) -> RankOut {
        let ctx = self.ctx;
        let job = self.job;
        let rank = ctx.comm.rank();
        let tc = TrainConfig::default();
        let mut opt = tc.optimizer();
        let mut ckpt = job.w.checkpoint.then(|| {
            Checkpointing::open(job.scratch, rank, job.w.world).expect("open checkpoint dir")
        });
        let mut failures = Vec::new();
        let rec = self.rec.as_deref();

        let traffic = ctx.comm.traffic().clone();
        let group = (job.w.world > 1).then_some(&ctx.comm);
        for i in 0..WARMUP_STEPS {
            let (loss, _) = one_step(&mut store, &mut opt, tc.clip, group, None, &traffic, |b| {
                forward(b, i)
            });
            assert!(loss.is_finite(), "warm-up loss is {loss}");
        }
        if let Some(r) = rec {
            // Warm-up spans belong to no timed step.
            r.take();
        }
        let setup_s = self.launched.elapsed().as_secs_f64();
        let mut out = RankOut {
            setup_s,
            batch_ms: self.inputs.batch_ms.clone(),
            losses: Vec::new(),
            step_ms: Vec::new(),
            timed_wall_s: 0.0,
            peak_bytes: 0,
            coll: CollStats::default(),
            ckpt: None,
            trace: None,
            failures: Vec::new(),
            num_params: store.num_params(),
            minor_faults: 0,
        };
        if job.mode == Mode::SetupOnly {
            return out;
        }

        let (ev0, chunks0) = (traffic.cursor(), traffic.chunk_events().len());
        let (wire0, rt0, rc0) = (
            traffic.bytes_on_wire(),
            traffic.retransmitted_frames(),
            traffic.reconnect_attempts(),
        );
        let mut trace = rec.map(|_| TraceOut {
            spans: Vec::new(),
            steps: Vec::new(),
            backward_colls: Vec::new(),
            resident_bytes: Vec::new(),
            activation_bytes: Vec::new(),
        });
        ctx.mem.reset_peak();
        let faults0 = minor_faults();
        let timed_start = Instant::now();
        for t in 0..job.steps {
            let i = WARMUP_STEPS + t;
            if let Some(r) = rec {
                r.set_step(t);
            }
            let resident = ctx.mem.current();
            if trace.is_some() {
                ctx.mem.reset_peak();
            }
            let t0 = Instant::now();
            let (loss, bwd_colls) =
                one_step(&mut store, &mut opt, tc.clip, group, rec, &traffic, |b| {
                    forward(b, i)
                });
            if let Some(ck) = ckpt.as_mut().filter(|_| (t + 1) % CKPT_EVERY == 0) {
                let ts = Instant::now();
                let res = span(rec, "ckpt.snapshot", || {
                    let snap = Snapshot::of_store(&store, i as u64 + 1)
                        .with_optim(opt.export_state(&store));
                    ck.last = Some(snap.clone());
                    ck.writer.as_ref().expect("writer open").snapshot(snap)
                });
                ck.stats.snapshot_ms.push(ts.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = res {
                    failures.push((t, format!("snapshot: {e}")));
                }
            }
            let t1 = Instant::now();
            out.step_ms.push((t1 - t0).as_secs_f64() * 1e3);
            out.losses.push(loss);
            if !loss.is_finite() {
                failures.push((t, format!("non-finite loss {loss}")));
            }
            if let Some(tr) = trace.as_mut() {
                tr.steps.push((t0, t1));
                tr.backward_colls.push(bwd_colls);
                tr.resident_bytes.push(resident);
                tr.activation_bytes
                    .push(ctx.mem.peak().saturating_sub(resident));
            }
        }
        out.timed_wall_s = timed_start.elapsed().as_secs_f64();
        out.minor_faults = minor_faults() - faults0;
        out.peak_bytes = ctx.mem.peak();
        if let Some(tr) = trace.as_mut() {
            // Per-step peaks were reset each step; the run's peak is the
            // largest of them.
            out.peak_bytes = tr
                .resident_bytes
                .iter()
                .zip(&tr.activation_bytes)
                .map(|(r, a)| r + a)
                .max()
                .unwrap_or(0);
            tr.spans = rec.expect("traced").take();
        }

        let events = traffic.since(ev0);
        let chunks = traffic.chunk_events();
        let chunks = &chunks[chunks0.min(chunks.len())..];
        out.coll = CollStats {
            allreduce: events.iter().filter(|e| e.op == CollOp::AllReduce).count(),
            allgather: events.iter().filter(|e| e.op == CollOp::AllGather).count(),
            wire_bytes: traffic.bytes_on_wire() - wire0,
            wait_us: chunks.iter().map(|c| c.ready_us - c.issued_us).collect(),
            work_us: chunks.iter().map(|c| c.done_us - c.ready_us).collect(),
            retransmits: traffic.retransmitted_frames() - rt0,
            reconnects: traffic.reconnect_attempts() - rc0,
        };
        if let Some(mut ck) = ckpt.take() {
            if let Err(e) = ck.finish() {
                failures.push((job.steps.saturating_sub(1), e));
            }
            out.ckpt = Some(std::mem::take(&mut ck.stats));
        }
        out.trace = trace;
        out.failures = failures;
        out
    }
}

/// Clip by the norm of every rank's gradients together, so all ranks of a
/// tensor-parallel group apply the same scale.
///
/// `clip_global_norm` (as `dchag_core::train_step` calls it) sees only this
/// rank's gradients. Under TP each rank holds different shards, so the
/// ranks' norms differ; once clipping engages, the replicated parameters
/// receive different updates and the ranks' losses drift apart. Here the
/// local squared norms are summed with one AllReduce (replicated
/// parameters count once per rank) and every rank scales by the same
/// factor.
fn clip_group_norm(grads: &mut [Option<Tensor>], max_norm: f32, comm: &Communicator) -> f32 {
    let local: f64 = grads
        .iter()
        .flatten()
        .map(|g| {
            g.data()
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>()
        })
        .sum();
    let norm = comm
        .all_reduce_sum(&Tensor::full([1], local as f32))
        .item()
        .sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut().flatten() {
            *g = g.map(|x| x * scale);
        }
    }
    norm
}

/// One optimizer step, composed as `dchag_core::train_step` does it, except
/// that with a `group` the clip uses [`clip_group_norm`]. Returns the loss
/// and, when tracing, the number of collectives the backward pass issued
/// (counted from `traffic`).
fn one_step(
    store: &mut ParamStore,
    opt: &mut AdamW,
    clip: f32,
    group: Option<&Communicator>,
    rec: Option<&Recorder>,
    traffic: &TrafficLog,
    forward: impl FnOnce(&dyn Binder) -> Var,
) -> (f32, usize) {
    let (loss_value, mut pg, backward_colls) = {
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, store);
        let loss = span(rec, "forward_loss", || forward(&bind));
        let (pg, colls) = span(rec, "backward", || {
            let cursor = rec.map(|_| traffic.cursor());
            let grads = tape.backward(&loss);
            let pg = bind.grads(&grads);
            (pg, cursor.map_or(0, |c| traffic.since(c).len()))
        });
        (loss.value().item(), pg, colls)
    };
    span(rec, "clip", || match group {
        Some(comm) => clip_group_norm(&mut pg, clip, comm),
        None => clip_global_norm(&mut pg, clip),
    });
    span(rec, "adamw", || opt.step(store, &pg));
    (loss_value, backward_colls)
}
