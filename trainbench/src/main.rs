//! D-CHAG train-step benchmark.
//!
//! ```text
//! trainbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs full training steps of one workload (or all three), checks their
//! outputs, prints every metric by name and unit, and ends with one JSON
//! result line. `--trace 0` reports the end-to-end metrics of an untraced
//! run; `--trace 1` additionally runs a traced copy with the same seed and
//! reports the per-layer metrics. See README.md for the metric tables.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dchag_tensor::simd::active_isa;
use dchag_tensor::{ops, Rng, Tensor};

use stats::{median, median_or_zero, quantile, result_line, Metric};
use workloads::{launch, Job, Mode, RankOut, Workload, WARMUP_STEPS};

/// Launches per run that each time set-up; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 5;
/// Timed steps whose mean loss is `final_loss` (as many as the batch pool
/// holds).
const FINAL_LOSS_STEPS: usize = 8;
/// Side of the square `matmul` that measures the host's kernel rate.
const GEMM_N: usize = 512;
const MB: f64 = 1e6;

const USAGE: &str =
    "usage: trainbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What two runs must share for their numbers to compare.
struct Context {
    nproc: usize,
    isa: &'static str,
    threads: usize,
    gemm_gflops: f64,
}

impl Context {
    fn measure() -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: active_isa().name(),
            threads: rayon::current_num_threads(),
            gemm_gflops: gemm_gflops(),
        }
    }

    fn line(&self, seed: u64) -> String {
        format!(
            "# context: nproc={} isa={} rayon_threads={} seed={} kernel.gemm_gflops={:.2} (matmul {GEMM_N}^3)",
            self.nproc, self.isa, self.threads, seed, self.gemm_gflops
        )
    }
}

/// `matmul` rate at one fixed shape, median of repeated calls.
fn gemm_gflops() -> f64 {
    let mut rng = Rng::new(0x6E44);
    let a = Tensor::randn([GEMM_N, GEMM_N], 1.0, &mut rng);
    let b = Tensor::randn([GEMM_N, GEMM_N], 1.0, &mut rng);
    for _ in 0..3 {
        std::hint::black_box(ops::matmul(&a, &b));
    }
    let flops = 2.0 * (GEMM_N as f64).powi(3);
    let rates: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ops::matmul(std::hint::black_box(&a), &b));
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Correctness verdict over one launch's ranks.
struct Check {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Check {
    fn new() -> Check {
        Check {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Every step's loss is finite and bit-identical on every rank, no rank
/// failed, and the loss falls over the run.
fn verify(what: &str, outs: &[Result<RankOut, String>], steps: usize) -> Check {
    let mut check = Check {
        attempted: steps,
        failed: 0,
        problems: Vec::new(),
    };
    let mut ranks = Vec::new();
    for (r, out) in outs.iter().enumerate() {
        match out {
            Ok(o) if o.losses.len() == steps => ranks.push(o),
            Ok(o) => check.problems.push(format!(
                "{what}: rank {r} ran {} of {steps} steps",
                o.losses.len()
            )),
            Err(e) => check.problems.push(format!("{what}: rank {r} failed: {e}")),
        }
    }
    if ranks.len() != outs.len() {
        check.failed = steps;
        return check;
    }
    let mut bad = BTreeSet::new();
    for (r, o) in ranks.iter().enumerate() {
        for (t, cause) in &o.failures {
            bad.insert(*t);
            check
                .problems
                .push(format!("{what}: rank {r} step {t}: {cause}"));
        }
        for (t, (a, b)) in ranks[0].losses.iter().zip(&o.losses).enumerate() {
            if a.to_bits() != b.to_bits() {
                bad.insert(t);
                check.problems.push(format!(
                    "{what}: step {t} loss {b} on rank {r} != {a} on rank 0"
                ));
            }
        }
    }
    let losses = &ranks[0].losses;
    let k = (steps / 4).max(1);
    let mean = |l: &[f32]| l.iter().map(|&x| x as f64).sum::<f64>() / l.len() as f64;
    let (first, last) = (mean(&losses[..k]), mean(&losses[steps - k..]));
    let fell = last < first; // false for NaN too
    if !fell {
        check.problems.push(format!(
            "{what}: loss did not fall (mean of first {k} steps {first}, of last {k} {last})"
        ));
    }
    check.failed = bad.len();
    check
}

/// Mean loss of the last [`FINAL_LOSS_STEPS`] timed steps: the batches
/// and masks of single steps differ, and one step's loss would carry that
/// noise into the metric.
fn final_loss(losses: &[f32]) -> f64 {
    let tail = &losses[losses.len().saturating_sub(FINAL_LOSS_STEPS)..];
    tail.iter().map(|&l| l as f64).sum::<f64>() / tail.len() as f64
}

fn rank0(outs: &[Result<RankOut, String>]) -> Option<&RankOut> {
    outs.first().and_then(|o| o.as_ref().ok())
}

struct Outcome {
    check: Check,
    metrics: Vec<Metric>,
    samples_per_s: f64,
    peak_mem_mb: f64,
}

fn run_workload(w: &Workload, args: &Args, ctx: &Context, scratch: &Path) -> Outcome {
    let steps = w.timed_steps(args.seconds);
    let job = |steps, mode| Job {
        w,
        seed: args.seed,
        steps,
        mode,
        scratch,
    };
    let mut check = Check::new();
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_LAUNCHES {
        let (_, outs) = launch(&job(0, Mode::SetupOnly));
        match rank0(&outs) {
            Some(o) => setup_s.push(o.setup_s),
            None => check.problems.push(format!(
                "set-up launch failed: {:?}",
                outs[0].as_ref().err()
            )),
        }
    }
    let (_, outs) = launch(&job(steps, Mode::Untraced));
    check.absorb(verify("untraced", &outs, steps));
    let main = rank0(&outs);
    if let Some(o) = main {
        setup_s.push(o.setup_s);
    }

    let nan = f64::NAN;
    let peak_bytes = outs
        .iter()
        .flatten()
        .map(|o| o.peak_bytes)
        .max()
        .unwrap_or(0);
    let samples_per_s = main.map_or(nan, |o| (w.batch * steps) as f64 / o.timed_wall_s);
    let peak_mem_mb = peak_bytes as f64 / MB;
    let step_p50 = main.map_or(nan, |o| median(&o.step_ms));
    let e2e = vec![
        Metric::new("samples_per_s", samples_per_s, "images/s"),
        Metric::new("step_ms_p50", step_p50, "ms"),
        Metric::new("peak_mem_mb", peak_mem_mb, "MB"),
        Metric::new(
            "final_loss",
            main.map_or(nan, |o| final_loss(&o.losses)),
            "loss",
        ),
        Metric::new(
            "setup_s",
            if setup_s.is_empty() {
                nan
            } else {
                median(&setup_s)
            },
            "s",
        ),
    ];

    let transport = if w.tcp { "loopback TCP" } else { "threads" };
    println!(
        "== {}: {steps} timed steps (+{WARMUP_STEPS} warm-up), batch {}, world {} over {transport}, {} params on rank 0",
        w.name,
        w.batch,
        w.world,
        main.map_or(0, |o| o.num_params)
    );
    for m in &e2e {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // Printed, not gated: host contention spikes make it spread by more
    // than any usable bound across runs.
    let step_p90 = main.map_or(nan, |o| quantile(&o.step_ms, 0.9));
    println!("{:<32} {:>14.4} ms", "step_ms_p90", step_p90);
    println!(
        "  (step_ms_* over n={steps} steps on rank 0; setup_s = median of {} launches)",
        setup_s.len()
    );

    let metrics = if args.trace {
        let (traced_check, layers) =
            traced_metrics(w, &job(steps, Mode::Traced), &outs, ctx, scratch);
        check.absorb(traced_check);
        layers
    } else {
        e2e
    };
    let ratio = if check.attempted == 0 {
        0.0
    } else {
        check.failed as f64 / check.attempted as f64
    };
    println!(
        "{:<32} {:>14.4} ratio  ({} failed of {} attempted)",
        "step_fail_ratio", ratio, check.failed, check.attempted
    );
    for p in check.problems.iter().take(20) {
        println!("FAIL {p}");
    }
    Outcome {
        check,
        metrics,
        samples_per_s,
        peak_mem_mb,
    }
}

/// Run the traced copy and derive the per-layer metrics from its spans.
fn traced_metrics(
    w: &Workload,
    job: &Job,
    untraced: &[Result<RankOut, String>],
    ctx: &Context,
    scratch: &Path,
) -> (Check, Vec<Metric>) {
    let steps = job.steps;
    let (origin, outs) = launch(job);
    let mut check = verify("traced", &outs, steps);
    let (Some(base), Some(o)) = (rank0(untraced), rank0(&outs)) else {
        check.problems.push("no traced result to analyse".into());
        return (check, Vec::new());
    };
    let differ: Vec<usize> = (0..steps)
        .filter(|&t| base.losses[t].to_bits() != o.losses[t].to_bits())
        .collect();
    if let Some(&t) = differ.first() {
        check.problems.push(format!(
            "traced loss differs from untraced at {} steps, first at step {t} ({} vs {})",
            differ.len(),
            o.losses[t],
            base.losses[t]
        ));
    }
    let tr = o.trace.as_ref().expect("traced launch records spans");
    let ranks: Vec<(usize, &[trace::Span])> = outs
        .iter()
        .enumerate()
        .filter_map(|(r, out)| Some((r, out.as_ref().ok()?.trace.as_ref()?.spans.as_slice())))
        .collect();
    let path = scratch.join(format!("trace-{}.json", w.name));
    if let Err(e) = std::fs::write(&path, trace::chrome_trace(&ranks, origin)) {
        eprintln!("trainbench: cannot write {}: {e}", path.display());
    }
    let splits = match trace::split_steps(&tr.spans, &tr.steps) {
        Ok(s) => s,
        Err(e) => {
            check
                .problems
                .push(format!("trace does not reconcile: {e}"));
            return (check, Vec::new());
        }
    };
    let layer = |span: &str| -> f64 {
        median(
            &splits
                .iter()
                .map(|s| s.self_ms.get(span).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let per_step = |n: usize| n as f64 / steps as f64;
    let floats = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let untraced_ms: Vec<f64> = splits.iter().map(|s| s.untraced_ms).collect();
    let untraced_frac: Vec<f64> = splits.iter().map(|s| s.untraced_ms / s.wall_ms).collect();
    let wall_p50 = median(&splits.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    let overhead = median(&o.step_ms) / median(&base.step_ms) - 1.0;
    let ck = o.ckpt.as_ref();
    let base_peak = untraced
        .iter()
        .flatten()
        .map(|r| r.peak_bytes)
        .max()
        .unwrap_or(0) as f64;
    let c = &o.coll;
    let layers = vec![
        Metric::new("data.batch_ms", median_or_zero(&base.batch_ms), "ms"),
        Metric::new("tokenize.fwd_ms", layer("tokenize"), "ms"),
        Metric::new("partial_agg.fwd_ms", layer("partial_agg"), "ms"),
        Metric::new("gather.fwd_ms", layer("gather"), "ms"),
        Metric::new("final_agg.fwd_ms", layer("final_agg"), "ms"),
        Metric::new("vit.fwd_ms", layer("vit"), "ms"),
        Metric::new("head.fwd_ms", layer("forward_loss"), "ms"),
        Metric::new("backward_ms", layer("backward"), "ms"),
        Metric::new(
            "backward.collectives_per_step",
            median(&floats(&tr.backward_colls)),
            "count",
        ),
        Metric::new("clip_ms", layer("clip"), "ms"),
        Metric::new("adamw_ms", layer("adamw"), "ms"),
        Metric::new("coll.allreduce_per_step", per_step(c.allreduce), "count"),
        Metric::new("coll.allgather_per_step", per_step(c.allgather), "count"),
        Metric::new("coll.wire_bytes_per_step", per_step(c.wire_bytes), "bytes"),
        Metric::new("coll.round_wait_us_p50", median_or_zero(&c.wait_us), "us"),
        Metric::new("coll.round_work_us_p50", median_or_zero(&c.work_us), "us"),
        Metric::new("coll.retransmits", c.retransmits as f64, "count"),
        Metric::new("coll.reconnects", c.reconnects as f64, "count"),
        Metric::new(
            "ckpt.snapshot_ms",
            ck.map_or(0.0, |k| median_or_zero(&k.snapshot_ms)),
            "ms",
        ),
        Metric::new("ckpt.drain_ms", ck.map_or(0.0, |k| k.drain_ms), "ms"),
        Metric::new("ckpt.restore_ms", ck.map_or(0.0, |k| k.restore_ms), "ms"),
        Metric::new("ckpt.bytes", ck.map_or(0.0, |k| k.bytes as f64), "bytes"),
        Metric::new("ckpt.errors", ck.map_or(0.0, |k| k.errors as f64), "count"),
        Metric::new(
            "os.minor_faults_per_step",
            per_step(o.minor_faults as usize),
            "count",
        ),
        Metric::new(
            "mem.resident_mb",
            median(&floats(&tr.resident_bytes)) / MB,
            "MB",
        ),
        Metric::new(
            "mem.activation_mb",
            median(&floats(&tr.activation_bytes)) / MB,
            "MB",
        ),
        Metric::new("kernel.gemm_gflops", ctx.gemm_gflops, "GFLOP/s"),
        Metric::new(
            "perf.mem_model_ratio",
            w.modelled_bytes() / base_peak,
            "ratio",
        ),
        Metric::new("trace.untraced_ms", median(&untraced_ms), "ms"),
        Metric::new("trace.untraced_frac", median(&untraced_frac), "ratio"),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ];
    println!("-- per-layer, traced run (median per step on rank 0):");
    for m in &layers {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let spans_ms: f64 = median(
        &splits
            .iter()
            .map(|s| s.wall_ms - s.untraced_ms)
            .collect::<Vec<_>>(),
    );
    println!(
        "  reconcile: every step's span self times + untraced = its wall time (median step {wall_p50:.3} ms: spans {spans_ms:.3} ms, untraced {:.3} ms = {:.2}%); trace written to {}",
        median(&untraced_ms),
        100.0 * median(&untraced_frac),
        path.display()
    );
    (check, layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workloads::all();
    let selected: Vec<&Workload> = all
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "trainbench: unknown workload {:?}; one of {names:?} or all\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    }
    let scratch: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("trainbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }

    let ctx = Context::measure();
    let mut outcomes = Vec::new();
    for w in &selected {
        println!("{}", ctx.line(args.seed));
        outcomes.push((w.name, run_workload(w, &args, &ctx, &scratch)));
    }

    let find = |name: &str| outcomes.iter().find(|(n, _)| *n == name).map(|(_, o)| o);
    if let (Some(d), Some(s)) = (find("hsi_mae_c128_w2"), find("hsi_mae_c128_w1_ckpt")) {
        println!(
            "paper tie-in: peak_mem_mb(hsi_mae_c128_w2) / peak_mem_mb(hsi_mae_c128_w1_ckpt) = {:.3} (base: the single-worker run's peak; D-CHAG's is per rank)",
            d.peak_mem_mb / s.peak_mem_mb
        );
        println!(
            "paper tie-in: samples_per_s(hsi_mae_c128_w2) / samples_per_s(hsi_mae_c128_w1_ckpt) = {:.3} (base: the single-worker run, checkpoint stalls included)",
            d.samples_per_s / s.samples_per_s
        );
    }

    let mut check = Check::new();
    let mut metrics = Vec::new();
    let prefix = selected.len() > 1;
    for (name, o) in outcomes {
        for m in o.metrics {
            let full = if prefix {
                format!("{name}.{}", m.name)
            } else {
                m.name
            };
            metrics.push(Metric { name: full, ..m });
        }
        check.absorb(o.check);
    }
    let correct = check.failed == 0 && check.problems.is_empty();
    println!(
        "{}",
        result_line(correct, check.attempted, check.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
