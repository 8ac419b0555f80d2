//! Benchmark-local tracing: spans recorded around the calls into each
//! layer, kept in memory per rank and analysed (and written out) when the
//! run ends.
//!
//! The encoder spans come from [`Traced`], an [`EncoderBackbone`] that
//! rebuilds `DChagEncoder::embed` / `FmEncoder::embed` from the encoders'
//! public fields with a span around each stage. The task heads take it
//! unchanged through `MaeModel::with_encoder` / `ClimaxModel::with_encoder`.
//! The traced run's loss must be bit-identical to the untraced run's, which
//! shows the rebuilt `embed` is exact.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use dchag_core::DChagEncoder;
use dchag_model::config::ModelConfig;
use dchag_model::encoder::{EncoderBackbone, FmEncoder};
use dchag_parallel::comm_ops::all_gather_cat;
use dchag_tensor::prelude::*;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed-step index the span belongs to.
    pub step: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Per-rank span recorder (one rank is one thread, so no locking).
#[derive(Default)]
pub struct Recorder {
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    step: RefCell<usize>,
}

impl Recorder {
    pub fn new() -> Rc<Recorder> {
        Rc::new(Recorder::default())
    }

    /// Attribute the spans that follow to timed step `step`.
    pub fn set_step(&self, step: usize) {
        *self.step.borrow_mut() = step;
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.borrow().last().copied(),
                step: *self.step.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = Instant::now();
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// `f` inside a span when tracing, plain `f` otherwise.
pub fn span<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// An encoder whose `embed` and `encode` record one span per stage.
pub struct Traced<E> {
    inner: E,
    rec: Rc<Recorder>,
}

impl<E> Traced<E> {
    pub fn new(inner: E, rec: Rc<Recorder>) -> Self {
        Traced { inner, rec }
    }
}

impl EncoderBackbone for Traced<DChagEncoder> {
    /// `DChagEncoder::embed`, stage by stage.
    fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let enc = &self.inner;
        let tape = bind.tape();
        let (b, p, d) = (images.dims()[0], enc.cfg.num_patches(), enc.cfg.embed_dim);
        let cl = enc.local_channels();
        let tokens = self.rec.span("tokenize", || {
            let local = enc.dist_tok.local_slice(images);
            enc.dist_tok.forward_local(bind, &local) // [B, Cl, P, D]
        });
        let partial = self.rec.span("partial_agg", || {
            let by_pos = tape.swap_axes12(&tokens);
            let folded = tape.reshape(&by_pos, &[b * p, cl, d]);
            enc.partial.forward(bind, &folded) // [B·P, D]
        });
        let gathered = self.rec.span("gather", || {
            let one = tape.reshape(&partial, &[b * p, 1, d]);
            all_gather_cat(tape, enc.comm(), &one, 1) // [B·P, tp, D]
        });
        let agg = self.rec.span("final_agg", || {
            enc.final_agg.forward(bind, enc.comm(), &gathered)
        });
        let x = tape.reshape(&agg, &[b, p, d]);
        enc.pos.forward(bind, &x)
    }

    fn encode(&self, bind: &dyn Binder, x: &Var) -> Var {
        self.rec.span("vit", || self.inner.encode(bind, x))
    }

    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }
}

impl EncoderBackbone for Traced<FmEncoder> {
    /// `FmEncoder::embed`, stage by stage.
    fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let enc = &self.inner;
        let tape = bind.tape();
        let (b, p, d) = (images.dims()[0], enc.cfg.num_patches(), enc.cfg.embed_dim);
        let tokens = self.rec.span("tokenize", || {
            let tokens = enc.tokenizer.forward(bind, images); // [B, C, P, D]
            enc.chan_embed.forward(bind, &tokens)
        });
        let agg = self.rec.span("partial_agg", || {
            let by_pos = tape.swap_axes12(&tokens);
            let folded = tape.reshape(&by_pos, &[b * p, enc.cfg.channels, d]);
            enc.agg.forward(bind, &folded) // [B·P, D]
        });
        let x = tape.reshape(&agg, &[b, p, d]);
        enc.pos.forward(bind, &x)
    }

    fn encode(&self, bind: &dyn Binder, x: &Var) -> Var {
        self.rec.span("vit", || self.inner.encode(bind, x))
    }

    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }
}

/// Per-step self times of one rank's spans.
pub struct StepSplit {
    /// Self time (span minus the part its children cover) per span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Step wall time minus the time covered by top-level spans.
    pub untraced_ms: f64,
    pub wall_ms: f64,
}

/// Split each timed step into span self times and check that the split
/// reconciles: spans nest inside their parent and inside their step,
/// and siblings do not overlap, so that the self times plus the untraced
/// remainder add back up to the step's wall time.
pub fn split_steps(spans: &[Span], steps: &[(Instant, Instant)]) -> Result<Vec<StepSplit>, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.step >= steps.len() {
            return Err(format!(
                "span {} names step {} of {}",
                s.name,
                s.step,
                steps.len()
            ));
        }
        match s.parent {
            Some(p) => {
                let parent = &spans[p];
                if s.start < parent.start || s.end > parent.end || parent.step != s.step {
                    return Err(format!(
                        "span {} escapes its parent {}",
                        s.name, parent.name
                    ));
                }
                children[p].push(i);
            }
            None => {
                let (lo, hi) = steps[s.step];
                if s.start < lo || s.end > hi {
                    return Err(format!("span {} escapes step {}", s.name, s.step));
                }
                roots[s.step].push(i);
            }
        }
    }
    let disjoint = |ids: &[usize]| ids.windows(2).all(|w| spans[w[0]].end <= spans[w[1]].start);
    let mut out = Vec::with_capacity(steps.len());
    for (step, (lo, hi)) in steps.iter().enumerate() {
        let wall_ms = (*hi - *lo).as_secs_f64() * 1e3;
        if !disjoint(&roots[step]) {
            return Err(format!("top-level spans of step {step} overlap"));
        }
        let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut stack = roots[step].clone();
        let mut covered = 0.0;
        while let Some(i) = stack.pop() {
            if !disjoint(&children[i]) {
                return Err(format!("children of span {} overlap", spans[i].name));
            }
            let child_ms: f64 = children[i].iter().map(|&c| spans[c].ms()).sum();
            let own = spans[i].ms() - child_ms;
            *self_ms.entry(spans[i].name).or_default() += own;
            covered += own;
            stack.extend_from_slice(&children[i]);
        }
        // With the nesting checked above, the self times telescope: their
        // sum plus the untraced remainder is the step's wall time.
        let untraced_ms = wall_ms - covered;
        out.push(StepSplit {
            self_ms,
            untraced_ms,
            wall_ms,
        });
    }
    Ok(out)
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of every rank's
/// spans, times relative to `origin`.
pub fn chrome_trace(ranks: &[(usize, &[Span])], origin: Instant) -> String {
    let mut events = Vec::new();
    for (rank, spans) in ranks {
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": {rank}, \"ts\": {ts:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"step\": {}, \"parent\": {parent}}}}}",
                crate::stats::json_string(s.name),
                s.ms() * 1e3,
                s.step
            ));
        }
    }
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, t0: Instant, ms: (u64, u64), parent: Option<usize>) -> Span {
        let at = |m| t0 + Duration::from_millis(m);
        Span {
            name,
            start: at(ms.0),
            end: at(ms.1),
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_times_and_untraced_add_up_to_the_step() {
        let t0 = Instant::now();
        let spans = vec![
            span("forward_loss", t0, (1, 6), None),
            span("vit", t0, (2, 4), Some(0)),
            span("backward", t0, (6, 9), None),
        ];
        let split = split_steps(&spans, &[(t0, t0 + Duration::from_millis(10))]).unwrap();
        let s = &split[0];
        assert!((s.self_ms["forward_loss"] - 3.0).abs() < 1e-9);
        assert!((s.self_ms["vit"] - 2.0).abs() < 1e-9);
        assert!((s.untraced_ms - 2.0).abs() < 1e-9);
        let total: f64 = s.self_ms.values().sum::<f64>() + s.untraced_ms;
        assert!((total - s.wall_ms).abs() < 1e-9);
    }

    #[test]
    fn overlapping_or_escaping_spans_do_not_reconcile() {
        let t0 = Instant::now();
        let step = [(t0, t0 + Duration::from_millis(10))];
        let overlap = vec![span("a", t0, (1, 5), None), span("b", t0, (4, 8), None)];
        assert!(split_steps(&overlap, &step).is_err());
        let escape = vec![span("a", t0, (1, 5), None), span("b", t0, (4, 7), Some(0))];
        assert!(split_steps(&escape, &step).is_err());
    }
}
