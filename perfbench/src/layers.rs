//! Calls into the program's layers, each wrapped in a span named after
//! its layer, and the per-layer metrics computed from those spans.
//!
//! Layers are the workspace crates (`lang`, `opt`, `codegen`, `sim`) and
//! the parts of `core` (`correlate`, `preinline`, `binprof`, `annotate`,
//! `stream`, `pipeline`). A span is named `<layer>.<call>`; spans named
//! `op`, `setup`, `post` or `stage.*` group layer calls and are not layer
//! time themselves.

use crate::harness::Metric;
use crate::trace::{Span, Tracer};
use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_core::pipeline::{BatchSource, PipelineConfig, PipelineError, ProfileSource};
use csspgo_core::workload::Workload;
use csspgo_ir::Module;
use csspgo_opt::OptConfig;
use csspgo_sim::{Machine, RunStats, Sample, SimConfig};
use std::collections::HashMap;

/// Layer prefixes of span names.
const LAYERS: [&str; 10] = [
    "sim",
    "correlate",
    "preinline",
    "binprof",
    "lang",
    "opt",
    "codegen",
    "annotate",
    "stream",
    "pipeline",
];

fn is_layer(name: &str) -> bool {
    LAYERS.contains(&name.split('.').next().unwrap_or(name))
}

/// `lang::compile`.
pub fn compile(tr: &mut Tracer, source: &str, name: &str) -> Result<Module, PipelineError> {
    Ok(tr.span("lang.compile", |_| csspgo_lang::compile(source, name))?)
}

/// The frontend passes every build runs before optimisation:
/// discriminators, plus pseudo-probes when `probes`.
pub fn prepare(tr: &mut Tracer, module: &mut Module, probes: bool) {
    tr.span("opt.prepare", |_| {
        csspgo_opt::discriminators::run(module);
        if probes {
            csspgo_opt::probes::run(module);
        }
    });
}

/// `opt::run_pipeline`, noting the instruction count it leaves.
pub fn optimise(tr: &mut Tracer, module: &mut Module, config: &OptConfig) {
    tr.span("opt.pipeline", |_| csspgo_opt::run_pipeline(module, config));
    if tr.is_on() {
        let insts: usize = module
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter().filter(|b| !b.dead))
            .map(|b| b.insts.len())
            .sum();
        tr.note("insts_out", insts as f64);
    }
}

/// Link-time GC of everything unreachable from `entry`.
pub fn strip(tr: &mut Tracer, module: &mut Module, entry: &str) {
    tr.span("opt.strip", |_| {
        if let Some(root) = module.find_function(entry) {
            csspgo_opt::strip::run(module, &[root]);
        }
    });
}

/// `codegen::lower_module`, noting the text size.
pub fn lower(tr: &mut Tracer, module: &Module, config: &CodegenConfig) -> Binary {
    let binary = tr.span("codegen.lower", |_| lower_module(module, config));
    tr.note("text_bytes", binary.sections.text as f64);
    binary
}

/// A profiling build as the pipeline makes it: compile, prepare,
/// optimise, lower.
pub fn profiling_build(
    tr: &mut Tracer,
    workload: &Workload,
    probes: bool,
    config: &PipelineConfig,
) -> Result<Binary, PipelineError> {
    let mut module = compile(tr, &workload.source, &workload.name)?;
    prepare(tr, &mut module, probes);
    optimise(tr, &mut module, &config.opt);
    Ok(lower(tr, &module, &config.codegen))
}

/// The simulator configuration of a profiling run (`sample_period` 0
/// turns sampling off).
pub fn sim_config(config: &PipelineConfig, sample_period: u64) -> SimConfig {
    SimConfig {
        lbr_size: config.lbr_size,
        pebs: config.pebs,
        sample_period,
        seed: config.seed,
        max_steps: config.max_steps,
        ..SimConfig::default()
    }
}

/// What a profiling run returns.
pub struct Profiled {
    /// The ordered sample stream.
    pub samples: Vec<Sample>,
    /// Instrumentation counters.
    pub counters: Vec<u64>,
    /// Run statistics.
    pub stats: RunStats,
}

/// A one-shot profiling run of the training traffic on the simulator.
pub fn profile_run(
    tr: &mut Tracer,
    binary: &Binary,
    workload: &Workload,
    sim: SimConfig,
) -> Result<Profiled, PipelineError> {
    let out = tr.span("sim.profile", |_| -> Result<Profiled, PipelineError> {
        let mut machine = Machine::new(binary, sim);
        for (name, values) in &workload.setup {
            machine.set_global(name, values);
        }
        let samples = BatchSource.collect(&mut machine, workload)?;
        Ok(Profiled {
            samples,
            counters: machine.counters().to_vec(),
            stats: *machine.stats(),
        })
    })?;
    note_run(tr, &out.stats);
    Ok(out)
}

/// `pipeline::evaluate`: the evaluation traffic on the simulator.
pub fn evaluate(
    tr: &mut Tracer,
    binary: &Binary,
    workload: &Workload,
    config: &PipelineConfig,
) -> Result<(RunStats, u64), PipelineError> {
    let out = tr.span("sim.eval", |_| {
        csspgo_core::pipeline::evaluate(binary, workload, config)
    })?;
    note_run(tr, &out.0);
    Ok(out)
}

/// Simulator counters noted on a `sim.*` span.
pub fn note_run(tr: &mut Tracer, stats: &RunStats) {
    tr.note("instructions", stats.instructions as f64);
    tr.note("samples", stats.samples as f64);
}

/// Per-call means and ratios over the spans of one traced run.
struct View<'a> {
    spans: &'a [Span],
}

impl View<'_> {
    fn named<'b>(&'b self, name: &'b str) -> impl Iterator<Item = &'b Span> + 'b {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::ms).sum()
    }

    fn total_arg(&self, name: &str, key: &str) -> f64 {
        self.named(name).map(|s| s.arg(key)).sum()
    }

    fn mean_ms(&self, name: &str) -> f64 {
        ratio(self.total_ms(name), self.count(name) as f64)
    }

    fn mean_arg(&self, name: &str, key: &str) -> f64 {
        ratio(self.total_arg(name, key), self.count(name) as f64)
    }

    /// Spans named `name` that recorded `key`.
    fn with_arg<'b>(&'b self, name: &'b str, key: &'b str) -> impl Iterator<Item = &'b Span> + 'b {
        self.named(name)
            .filter(move |s| s.args.iter().any(|(k, _)| *k == key))
    }

    /// Epochs that folded samples: their seal spans carry the
    /// correlate-layer split the aggregator reports (`EpochSummary`).
    fn busy_seals(&self) -> impl Iterator<Item = &Span> + '_ {
        self.named("stream.seal").filter(|s| s.arg("samples") > 0.0)
    }

    /// Mean of the `span` durations and the `seal_key` times of busy
    /// epochs, taken together as calls.
    fn mean_with_seals(&self, span: &str, seal_key: &str) -> f64 {
        let seals: Vec<f64> = self.busy_seals().map(|s| s.arg(seal_key)).collect();
        ratio(
            self.total_ms(span) + seals.iter().sum::<f64>(),
            (self.count(span) + seals.len()) as f64,
        )
    }

    /// Mean over `op` spans of the op's wall time not covered by an
    /// outermost layer span.
    fn other_ms(&self) -> f64 {
        let mut other: HashMap<usize, f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op")
            .map(|(i, s)| (i, s.ms()))
            .collect();
        for s in self.spans.iter().filter(|s| is_layer(s.name)) {
            // Walk up to the enclosing op, unless another layer span
            // encloses this one first.
            let mut up = s.parent;
            while let Some(p) = up {
                if is_layer(self.spans[p].name) {
                    break;
                }
                if let Some(ms) = other.get_mut(&p) {
                    *ms -= s.ms();
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        ratio(other.values().sum(), other.len() as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run. Times are means per call over
/// the whole traced run (set-up, ops and post-phase); a layer the
/// workload never calls reads 0.
pub fn per_layer_metrics(tr: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let v = View { spans: tr.spans() };
    let lower = "lower";
    let higher = "higher";

    let sim_ms = v.total_ms("sim.profile") + v.total_ms("sim.eval");
    let sim_insts =
        v.total_arg("sim.profile", "instructions") + v.total_arg("sim.eval", "instructions");

    let seal_samples: f64 = v.busy_seals().map(|s| s.arg("samples")).sum();
    let seal_corr_ms: f64 = v
        .busy_seals()
        .map(|s| s.arg("ingest_ms") + s.arg("unwind_ms"))
        .sum();
    let corr_samples = v.total_arg("correlate.ranges", "samples") + seal_samples;
    let corr_ms = v.total_ms("correlate.ranges") + v.total_ms("correlate.unwind") + seal_corr_ms;
    // Context-trie sizes around trimming, from full-CSSPGO profiles.
    let ctx: Vec<(f64, f64)> = v
        .with_arg("correlate.profile", "ctx_before")
        .map(|s| (s.arg("ctx_before"), s.arg("ctx_after")))
        .collect();
    let ctx_before: f64 = ctx.iter().map(|c| c.0).sum();
    let ctx_after: f64 = ctx.iter().map(|c| c.1).sum();
    let ctx_profiles = ctx.len() as f64;

    let bytes_spans = v.count("binprof.encode") + v.count("binprof.decode");
    let binprof_bytes = ratio(
        v.total_arg("binprof.encode", "bytes") + v.total_arg("binprof.decode", "bytes"),
        bytes_spans as f64,
    );

    let stream_ms = v.total_ms("stream.push") + v.total_ms("stream.seal");

    vec![
        Metric::new("sim.profile_ms", v.mean_ms("sim.profile"), "ms", lower),
        Metric::new("sim.eval_ms", v.mean_ms("sim.eval"), "ms", lower),
        Metric::new(
            "sim.minst_per_s",
            ratio(sim_insts / 1e6, sim_ms / 1e3),
            "Minst/s",
            higher,
        ),
        Metric::new(
            "sim.samples",
            v.mean_arg("sim.profile", "samples"),
            "count",
            higher,
        ),
        Metric::new(
            "correlate.ranges_ms",
            v.mean_with_seals("correlate.ranges", "ingest_ms"),
            "ms",
            lower,
        ),
        Metric::new(
            "correlate.tailgraph_ms",
            v.mean_ms("correlate.tailgraph"),
            "ms",
            lower,
        ),
        Metric::new(
            "correlate.unwind_ms",
            v.mean_with_seals("correlate.unwind", "unwind_ms"),
            "ms",
            lower,
        ),
        Metric::new(
            "correlate.profile_ms",
            v.mean_with_seals("correlate.profile", "fold_ms"),
            "ms",
            lower,
        ),
        Metric::new(
            "correlate.samples_per_s",
            ratio(corr_samples, corr_ms / 1e3),
            "1/s",
            higher,
        ),
        Metric::new(
            "correlate.ctx_nodes",
            ratio(ctx_before, ctx_profiles),
            "count",
            lower,
        ),
        Metric::new(
            "correlate.ctx_kept_pct",
            ratio(ctx_after * 100.0, ctx_before),
            "%",
            lower,
        ),
        Metric::new("preinline.ms", v.mean_ms("preinline.run"), "ms", lower),
        Metric::new(
            "preinline.plan_len",
            v.mean_arg("preinline.run", "plan_len"),
            "count",
            higher,
        ),
        Metric::new(
            "binprof.encode_ms",
            v.mean_ms("binprof.encode"),
            "ms",
            lower,
        ),
        Metric::new(
            "binprof.decode_ms",
            v.mean_ms("binprof.decode"),
            "ms",
            lower,
        ),
        Metric::new("binprof.bytes", binprof_bytes, "bytes", lower),
        Metric::new("lang.compile_ms", v.mean_ms("lang.compile"), "ms", lower),
        Metric::new("opt.pipeline_ms", v.mean_ms("opt.pipeline"), "ms", lower),
        Metric::new(
            "opt.insts_out",
            v.mean_arg("opt.pipeline", "insts_out"),
            "count",
            lower,
        ),
        Metric::new("codegen.lower_ms", v.mean_ms("codegen.lower"), "ms", lower),
        Metric::new(
            "codegen.text_bytes",
            v.mean_arg("codegen.lower", "text_bytes"),
            "bytes",
            lower,
        ),
        Metric::new("annotate.ms", v.mean_ms("annotate.run"), "ms", lower),
        Metric::new(
            "annotate.inference_ms",
            v.mean_arg("annotate.run", "inference_us") / 1e3,
            "ms",
            lower,
        ),
        Metric::new(
            "annotate.stale_recovered_pct",
            ratio(
                v.total_arg("annotate.run", "stale_recovered") * 100.0,
                v.total_arg("annotate.run", "stale"),
            ),
            "%",
            higher,
        ),
        Metric::new(
            "annotate.flow_moved",
            v.mean_arg("annotate.run", "flow_moved"),
            "count",
            lower,
        ),
        Metric::new("stream.seal_ms", v.mean_ms("stream.seal"), "ms", lower),
        Metric::new(
            "stream.snapshot_ms",
            v.mean_ms("stream.snapshot"),
            "ms",
            lower,
        ),
        Metric::new(
            "stream.restore_ms",
            v.mean_ms("stream.restore"),
            "ms",
            lower,
        ),
        Metric::new(
            "stream.snapshot_bytes",
            v.mean_arg("stream.snapshot", "bytes"),
            "bytes",
            lower,
        ),
        Metric::new(
            "stream.samples_per_s",
            ratio(seal_samples, stream_ms / 1e3),
            "1/s",
            higher,
        ),
        Metric::new(
            "pipeline.quality_ms",
            v.mean_ms("pipeline.quality"),
            "ms",
            lower,
        ),
        Metric::new("pipeline.other_ms", v.other_ms(), "ms", lower),
        Metric::new("trace.overhead_pct", overhead_pct, "%", lower),
    ]
}

/// Annotation counters noted on an `annotate.run` span.
pub fn note_annotate(tr: &mut Tracer, stats: &csspgo_core::annotate::AnnotateStats) {
    tr.note("inference_us", stats.inference.elapsed_us as f64);
    tr.note("flow_moved", stats.inference.flow_moved as f64);
    tr.note("stale", stats.stale_total() as f64);
    tr.note("stale_recovered", stats.stale_recovered as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_time_is_op_time_outside_outermost_layer_spans() {
        let mut tr = Tracer::new(true);
        tr.set_op(1);
        tr.span("op", |tr| {
            tr.span("stage.compile", |tr| {
                tr.span("lang.compile", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let v = View { spans: tr.spans() };
        let op = v.total_ms("op");
        let layer = v.total_ms("lang.compile");
        assert!((v.other_ms() - (op - layer)).abs() < 1e-9);
        assert!(v.other_ms() >= 2.0);
    }

    #[test]
    fn every_metric_is_finite_on_an_empty_trace() {
        let metrics = per_layer_metrics(&Tracer::new(true), 1.5);
        assert_eq!(metrics.len(), 33);
        assert!(metrics.iter().all(|m| m.value.is_some_and(f64::is_finite)));
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 33, "names are unique");
    }
}
