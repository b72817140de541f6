//! End-to-end PGO cycles: build → profile in "production" → generate
//! profile → rebuild with the profile → evaluate.
//!
//! Mirrors the paper's evaluation setup (§IV.A): Profi-style inference,
//! ext-TSP layout and function splitting are enabled for *every* variant, so
//! measured differences come from correlation quality and
//! context-sensitivity — the two things CSSPGO changes.

use crate::annotate::{
    autofdo_annotate, collect_block_counts, csspgo_annotate, instr_annotate_reconstructed,
    AnnotateConfig, AnnotateStats,
};
use crate::context::{ContextProfile, FrameKey};
use crate::correlate::{dwarf_profile, probe_profile};
use crate::overlap::BlockCounts;
use crate::preinline::{run_preinliner, to_inline_plan, PreInlineConfig};
use crate::profile::{FlatProfile, ProbeProfile};
use crate::ranges::RangeCounts;
use crate::shard::{sharded_context_profile, sharded_range_counts};
use crate::stream::StreamConfig;
use crate::tailcall::{InferStats, TailCallGraph};
use crate::workload::Workload;
use csspgo_codegen::{lower_module, Binary, CodegenConfig, SectionSizes};
use csspgo_ir::flow::FlowEdge;
use csspgo_ir::{BlockId, FuncId, Module};
use csspgo_opt::instrument::CounterMap;
use csspgo_opt::OptConfig;
use csspgo_sim::{Machine, RunStats, Sample, SimConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// The PGO variants evaluated in the paper.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so future variants (e.g. streaming-refresh hybrids) are not breaking
/// changes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PgoVariant {
    /// Plain optimized build, no profile (the pre-PGO baseline).
    O2,
    /// Instrumentation-based PGO (exact counts, heavy profiling run).
    Instr,
    /// Sampling-based PGO with debug-info correlation (the baseline PGO).
    AutoFdo,
    /// CSSPGO using only pseudo-instrumentation (paper's "probe-only").
    CsspgoProbeOnly,
    /// Full CSSPGO: pseudo-instrumentation + context-sensitive profiling +
    /// the pre-inliner.
    CsspgoFull,
}

impl PgoVariant {
    /// All variants, in presentation order.
    pub const ALL: [PgoVariant; 5] = [
        PgoVariant::O2,
        PgoVariant::Instr,
        PgoVariant::AutoFdo,
        PgoVariant::CsspgoProbeOnly,
        PgoVariant::CsspgoFull,
    ];

    /// Whether the variant inserts pseudo-probes.
    pub fn uses_probes(self) -> bool {
        matches!(self, PgoVariant::CsspgoProbeOnly | PgoVariant::CsspgoFull)
    }
}

impl fmt::Display for PgoVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PgoVariant::O2 => "O2",
            PgoVariant::Instr => "Instr PGO",
            PgoVariant::AutoFdo => "AutoFDO",
            PgoVariant::CsspgoProbeOnly => "CSSPGO (probe-only)",
            PgoVariant::CsspgoFull => "CSSPGO (full)",
        };
        f.write_str(s)
    }
}

/// Pipeline configuration.
///
/// Construct via [`PipelineConfig::default`] (always valid) or the
/// validating [`PipelineConfig::builder`], which rejects inconsistent
/// combinations up front instead of letting them fail deep inside a cycle.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Optimizer knobs (shared across variants for fair comparison).
    pub opt: OptConfig,
    /// Code generation knobs.
    pub codegen: CodegenConfig,
    /// Annotation / replay knobs.
    pub annotate: AnnotateConfig,
    /// Pre-inliner knobs (full CSSPGO).
    pub preinline: PreInlineConfig,
    /// Streaming-aggregation knobs (epoch ingestion; see [`crate::stream`]).
    pub stream: StreamConfig,
    /// Counter-placement knobs for the instrumented variant.
    pub instrument: csspgo_opt::instrument::InstrumentConfig,
    /// Cold-context trimming threshold (full CSSPGO).
    pub trim_threshold: u64,
    /// PMU sampling period in cycles.
    pub sample_period: u64,
    /// LBR depth.
    pub lbr_size: usize,
    /// Precise sampling (PEBS).
    pub pebs: bool,
    /// Deterministic seed.
    pub seed: u64,
    /// Simulator step budget per run.
    pub max_steps: u64,
    /// Sample-ingestion shard count (`0` = one shard per available thread).
    /// Any value produces bit-identical profiles; see [`crate::shard`].
    pub ingest_shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            opt: OptConfig::default(),
            codegen: CodegenConfig::default(),
            annotate: AnnotateConfig::default(),
            preinline: PreInlineConfig::default(),
            stream: StreamConfig::default(),
            instrument: csspgo_opt::instrument::InstrumentConfig::default(),
            trim_threshold: 16,
            sample_period: 199,
            lbr_size: 16,
            pebs: true,
            seed: 0xC55,
            max_steps: 40_000_000_000,
            ingest_shards: 0,
        }
    }
}

/// Hard cap on explicit shard requests; anything beyond this is a typo, not
/// a parallelism plan.
const MAX_INGEST_SHARDS: usize = 1 << 16;

impl PipelineConfig {
    /// Starts a validating builder seeded with the default configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: PipelineConfig::default(),
        }
    }

    /// Checks the configuration's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] describing the first
    /// rejected combination.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let fail = |msg: String| Err(PipelineError::InvalidConfig(msg));
        if self.sample_period == 0 {
            return fail(
                "sample_period must be non-zero: sampling variants would collect no samples \
                 (and sharded ingestion would have nothing to shard)"
                    .into(),
            );
        }
        if self.lbr_size < 2 {
            return fail(format!(
                "lbr_size {} is too small: range derivation needs at least two LBR entries",
                self.lbr_size
            ));
        }
        if self.max_steps == 0 {
            return fail("max_steps must be non-zero: every run would exceed its budget".into());
        }
        if self.ingest_shards > MAX_INGEST_SHARDS {
            return fail(format!(
                "ingest_shards {} exceeds the {MAX_INGEST_SHARDS} cap (0 means auto)",
                self.ingest_shards
            ));
        }
        if self.stream.max_pending_samples == 0 {
            return fail(
                "stream.max_pending_samples must be non-zero: no batch could ever be pushed".into(),
            );
        }
        if !(0.0..=1.0).contains(&self.stream.drift_threshold) {
            return fail(format!(
                "stream.drift_threshold {} is not a fraction in [0, 1]",
                self.stream.drift_threshold
            ));
        }
        Ok(())
    }

    /// The simulator configuration of every run in a cycle, sampling every
    /// `sample_period` cycles (`0` = no sampling).
    pub fn sim_config(&self, sample_period: u64) -> SimConfig {
        SimConfig {
            lbr_size: self.lbr_size,
            pebs: self.pebs,
            sample_period,
            seed: self.seed,
            max_steps: self.max_steps,
            ..SimConfig::default()
        }
    }
}

/// Validating builder for [`PipelineConfig`].
///
/// Every setter overwrites one field; [`PipelineConfigBuilder::build`]
/// validates the combination and returns
/// [`PipelineError::InvalidConfig`] on inconsistency.
#[derive(Clone, Debug)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Sets the optimizer knobs.
    #[must_use]
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.cfg.opt = opt;
        self
    }

    /// Sets the code-generation knobs.
    #[must_use]
    pub fn codegen(mut self, codegen: CodegenConfig) -> Self {
        self.cfg.codegen = codegen;
        self
    }

    /// Sets the annotation / replay knobs.
    #[must_use]
    pub fn annotate(mut self, annotate: AnnotateConfig) -> Self {
        self.cfg.annotate = annotate;
        self
    }

    /// Sets the stale-profile handling mode (`off | report | recover`) —
    /// shorthand for overriding just that field of the annotate knobs.
    #[must_use]
    pub fn stale_matching(mut self, mode: crate::stalematch::StaleMatching) -> Self {
        self.cfg.annotate.stale_matching = mode;
        self
    }

    /// Sets the profile-inference algorithm (`off | heuristic | mcf`) —
    /// shorthand for overriding just that field of the annotate knobs.
    #[must_use]
    pub fn inference(mut self, mode: crate::inference::InferenceMode) -> Self {
        self.cfg.annotate.inference = mode;
        self
    }

    /// Sets the pre-inliner knobs.
    #[must_use]
    pub fn preinline(mut self, preinline: PreInlineConfig) -> Self {
        self.cfg.preinline = preinline;
        self
    }

    /// Sets the streaming-aggregation knobs.
    #[must_use]
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.cfg.stream = stream;
        self
    }

    /// Sets the counter-placement policy for the instrumented variant
    /// (`full | spanning_tree`) — shorthand for overriding just that field
    /// of the instrumentation knobs.
    #[must_use]
    pub fn placement(mut self, placement: csspgo_opt::instrument::Placement) -> Self {
        self.cfg.instrument.placement = placement;
        self
    }

    /// Sets the cold-context trimming threshold.
    #[must_use]
    pub fn trim_threshold(mut self, threshold: u64) -> Self {
        self.cfg.trim_threshold = threshold;
        self
    }

    /// Sets the PMU sampling period in cycles.
    #[must_use]
    pub fn sample_period(mut self, period: u64) -> Self {
        self.cfg.sample_period = period;
        self
    }

    /// Sets the LBR depth.
    #[must_use]
    pub fn lbr_size(mut self, size: usize) -> Self {
        self.cfg.lbr_size = size;
        self
    }

    /// Enables or disables precise sampling (PEBS).
    #[must_use]
    pub fn pebs(mut self, pebs: bool) -> Self {
        self.cfg.pebs = pebs;
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the simulator step budget per run.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.cfg.max_steps = max_steps;
        self
    }

    /// Sets the sample-ingestion shard count (`0` = auto).
    #[must_use]
    pub fn ingest_shards(mut self, shards: usize) -> Self {
        self.cfg.ingest_shards = shards;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] when the combination is
    /// inconsistent (see [`PipelineConfig::validate`]).
    pub fn build(self) -> Result<PipelineConfig, PipelineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Per-stage wall times of one PGO cycle, in milliseconds. Emitted into
/// `BENCH_pipeline.json` by the bench harness so perf work has a measurable
/// trajectory across PRs.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StageTimes {
    /// Profiling build (frontend + opt + lowering).
    pub compile_ms: f64,
    /// Profiling run under the simulator.
    pub simulate_ms: f64,
    /// Profile generation: range counts, correlation / context unwinding,
    /// trimming — everything between samples and a compiler profile,
    /// *except* the pre-inliner.
    pub correlate_ms: f64,
    /// Pre-inliner (full CSSPGO only; 0 otherwise).
    pub preinline_ms: f64,
    /// Encoding the generated profile to the binprof wire format
    /// ([`crate::binprof`]); 0 for variants that hand off no profile.
    pub serialize_ms: f64,
    /// Decoding the binprof payload back into the compiler-side profile.
    pub deserialize_ms: f64,
    /// Profile inference during annotation ([`crate::inference`]); carved
    /// out of the rebuild so MCF-vs-heuristic cost is directly visible.
    /// (Old bench records without this stage stay readable through the
    /// lenient all-`Option` parse in `csspgo-bench`.)
    pub inference_ms: f64,
    /// Optimized rebuild (annotate + opt + lowering), *excluding* the
    /// inference time reported separately above.
    pub recompile_ms: f64,
    /// Evaluation run on the final binary.
    pub evaluate_ms: f64,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total_ms(&self) -> f64 {
        self.compile_ms
            + self.simulate_ms
            + self.correlate_ms
            + self.preinline_ms
            + self.serialize_ms
            + self.deserialize_ms
            + self.inference_ms
            + self.recompile_ms
            + self.evaluate_ms
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pipeline failure.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new failure modes are not breaking changes.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Frontend rejected the workload source.
    Compile(csspgo_lang::CompileError),
    /// The simulator failed.
    Sim(csspgo_sim::SimError),
    /// A configuration combination rejected by the builder
    /// ([`PipelineConfig::validate`]).
    InvalidConfig(String),
    /// Malformed profile text.
    Profile(crate::textprof::ParseError),
    /// Malformed binary profile payload (see [`crate::binprof`]).
    Decode(crate::binprof::DecodeError),
    /// Streaming-aggregation misuse: buffer overflow, or a snapshot taken
    /// against a different binary (see [`crate::stream`]).
    Stream(String),
    /// An internal invariant on sample/profile data did not hold.
    Inconsistent(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::Profile(e) => write!(f, "profile data error: {e}"),
            PipelineError::Decode(e) => write!(f, "profile decode error: {e}"),
            PipelineError::Stream(msg) => write!(f, "stream aggregation error: {msg}"),
            PipelineError::Inconsistent(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl Error for PipelineError {}

impl From<csspgo_lang::CompileError> for PipelineError {
    fn from(e: csspgo_lang::CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<csspgo_sim::SimError> for PipelineError {
    fn from(e: csspgo_sim::SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<crate::textprof::ParseError> for PipelineError {
    fn from(e: crate::textprof::ParseError) -> Self {
        PipelineError::Profile(e)
    }
}

impl From<crate::binprof::DecodeError> for PipelineError {
    fn from(e: crate::binprof::DecodeError) -> Self {
        PipelineError::Decode(e)
    }
}

/// Everything one PGO cycle produced.
#[derive(Clone, Debug)]
pub struct PgoOutcome {
    /// Which variant ran.
    pub variant: PgoVariant,
    /// Stats of the profiling run (empty for `O2`).
    pub profiling: RunStats,
    /// Stats of the evaluation run on the final binary.
    pub eval: RunStats,
    /// Hash of all evaluation return values (must agree across variants).
    pub eval_result_hash: u64,
    /// Sections of the final optimized binary.
    pub sections: SectionSizes,
    /// Sections of the profiling binary (Fig. 9 uses these).
    pub profiling_sections: SectionSizes,
    /// Annotation outcome.
    pub annotate_stats: AnnotateStats,
    /// Fresh-IR block counts used for the quality metric (no inline
    /// replay, same CFG for every variant).
    pub quality_counts: BlockCounts,
    /// Context-trie size before trimming (full CSSPGO).
    pub context_nodes_before_trim: usize,
    /// Context-trie size after trimming.
    pub context_nodes_after_trim: usize,
    /// Pre-inliner plan size (full CSSPGO).
    pub plan_len: usize,
    /// Counter sites placed in the profiling build (instrumented variant
    /// only; 0 elsewhere). Each site lowers to one counter instruction.
    pub counter_sites: usize,
    /// Tail-call missing-frame inference stats (full CSSPGO).
    pub infer_stats: InferStats,
    /// Wall time spent in each pipeline stage.
    pub stage_times: StageTimes,
}

/// Where a PGO cycle's PMU samples come from.
///
/// The pipeline builds the profiling binary and the machine; the source
/// decides how the workload's training traffic is driven and how samples
/// are drained. [`BatchSource`], the classic one-shot run, is the source
/// [`run_pgo_cycle_drifted`] uses. A source must return the *complete,
/// ordered* sample stream of the run — the simulator is deterministic, so
/// any faithful drainage yields the same stream and therefore a
/// bit-identical profile. (Epoch-wise streaming ingestion lives in
/// [`crate::stream`].)
pub trait ProfileSource {
    /// Short description used in diagnostics.
    fn describe(&self) -> String;

    /// Drives the workload's training traffic on `machine` and returns the
    /// full ordered sample stream of the run.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when a training call fails (e.g. step
    /// budget exceeded).
    fn collect(
        &mut self,
        machine: &mut Machine<'_>,
        workload: &Workload,
    ) -> Result<Vec<Sample>, PipelineError>;
}

/// One-shot batch profiling: run all training traffic, drain once.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchSource;

impl ProfileSource for BatchSource {
    fn describe(&self) -> String {
        "batch".into()
    }

    fn collect(
        &mut self,
        machine: &mut Machine<'_>,
        workload: &Workload,
    ) -> Result<Vec<Sample>, PipelineError> {
        for args in &workload.train_calls {
            machine.call(&workload.entry, args)?;
        }
        Ok(machine.take_samples())
    }
}

/// Runs one full PGO cycle for `workload` with `variant`: the optimized
/// build compiles the profiled source itself.
///
/// # Errors
///
/// Returns [`PipelineError`] if the source fails to compile or a simulation
/// exceeds its budget.
pub fn run_pgo_cycle(
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<PgoOutcome, PipelineError> {
    run_pgo_cycle_drifted(workload, variant, config, &workload.source)
}

/// Runs one full PGO cycle for `workload` with `variant`, profiling the
/// workload's own source through [`BatchSource`] while the *optimized*
/// build compiles `build_source` — the paper's source-drift scenario
/// (profile collected on last week's binary, build uses today's code).
///
/// The cycle is the stage sequence [`profiling_build`] →
/// [`profiling_run`] → profile generation ([`context_profile`] and the
/// pre-inliner for full CSSPGO) → binprof hand-off → [`optimized_build`]
/// → [`evaluate`], each timed into [`StageTimes`].
///
/// # Errors
///
/// Returns [`PipelineError`] if either source fails to compile or a
/// simulation exceeds its budget.
pub fn run_pgo_cycle_drifted(
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
    build_source: &str,
) -> Result<PgoOutcome, PipelineError> {
    let mut outcome = PgoOutcome {
        variant,
        profiling: RunStats::default(),
        eval: RunStats::default(),
        eval_result_hash: 0,
        sections: SectionSizes::default(),
        profiling_sections: SectionSizes::default(),
        annotate_stats: AnnotateStats::default(),
        quality_counts: BlockCounts::new(),
        context_nodes_before_trim: 0,
        context_nodes_after_trim: 0,
        plan_len: 0,
        counter_sites: 0,
        infer_stats: InferStats::default(),
        stage_times: StageTimes::default(),
    };

    // O2 has no profiling half: it goes straight to the optimized build.
    let mut generated = HandOff::None;
    if variant != PgoVariant::O2 {
        let t = Instant::now();
        let (binary, counter_map) =
            profiling_build(&workload.source, &workload.name, variant, config)?;
        outcome.stage_times.compile_ms = ms_since(t);
        outcome.profiling_sections = binary.sections;
        outcome.counter_sites = counter_map.as_ref().map_or(0, CounterMap::len);

        let t = Instant::now();
        let run = profiling_run(&binary, workload, variant, config)?;
        outcome.stage_times.simulate_ms = ms_since(t);
        outcome.profiling = run.stats;

        let t = Instant::now();
        generated = match &counter_map {
            Some(map) => counter_profile(workload, map, &run.counters)?,
            None => generate_profile(variant, config, &binary, &run, &mut outcome),
        };
        outcome.stage_times.correlate_ms = ms_since(t) - outcome.stage_times.preinline_ms;

        generated = wire_round_trip(generated, &mut outcome.stage_times)?;
    }

    outcome.quality_counts = quality_snapshot(workload, variant, config, build_source, &generated)?;

    let t = Instant::now();
    let build_module = frontend(build_source, &workload.name, variant.uses_probes())?;
    let (final_binary, annotate_stats) =
        optimized_build(build_module, &generated, variant, &workload.entry, config);
    outcome.sections = final_binary.sections;
    outcome.annotate_stats = annotate_stats;
    let inference_ms = outcome.annotate_stats.inference.elapsed_us as f64 / 1e3;
    outcome.stage_times.inference_ms = inference_ms;
    outcome.stage_times.recompile_ms = (ms_since(t) - inference_ms).max(0.0);

    let t = Instant::now();
    let (stats, hash) = evaluate(&final_binary, workload, config)?;
    outcome.eval = stats;
    outcome.eval_result_hash = hash;
    outcome.stage_times.evaluate_ms = ms_since(t);
    Ok(outcome)
}

/// The profile a PGO cycle hands to its optimized build.
#[derive(Clone, Debug)]
pub enum HandOff {
    /// No profile (the `O2` baseline).
    None,
    /// AutoFDO's debug-info line profile.
    Flat(FlatProfile),
    /// A probe profile plus, for full CSSPGO, the pre-inliner's decided
    /// inline chains as call-site frame paths (outer→inner).
    Probe(ProbeProfile, Option<Vec<Vec<FrameKey>>>),
    /// Exact per-block counts plus, under sparse placement, the
    /// Kirchhoff-recovered edge counts per function.
    Counters(
        HashMap<(FuncId, BlockId), u64>,
        HashMap<FuncId, Vec<(BlockId, BlockId, u64)>>,
    ),
}

/// What a profiling run observed.
#[derive(Clone, Debug)]
pub struct ProfilingRun {
    /// The complete, ordered PMU sample stream.
    pub samples: Vec<Sample>,
    /// Run statistics.
    pub stats: RunStats,
    /// Final counter values (instrumented builds; empty elsewhere).
    pub counters: Vec<u64>,
}

/// A generated context profile and the by-products the cycle reports.
#[derive(Clone, Debug)]
pub struct ContextGen {
    /// Checksummed, cold-trimmed context profile (the pre-inliner's input).
    pub profile: ContextProfile,
    /// LBR range and branch counts of the same samples.
    pub range_counts: RangeCounts,
    /// Tail-call missing-frame inference stats.
    pub infer_stats: InferStats,
    /// Trie size before trimming.
    pub nodes_before_trim: usize,
}

/// The frontend every build starts from: compile, assign discriminators,
/// then (with `probes`) insert pseudo-probes.
///
/// # Errors
///
/// Returns [`PipelineError::Compile`] if `source` does not compile.
pub fn frontend(source: &str, name: &str, probes: bool) -> Result<Module, PipelineError> {
    let mut m = csspgo_lang::compile(source, name)?;
    csspgo_opt::discriminators::run(&mut m);
    if probes {
        csspgo_opt::probes::run(&mut m);
    }
    Ok(m)
}

/// Stage 1, the profiling build: [`frontend`] (probes for probe-based
/// variants), counter placement for [`PgoVariant::Instr`], the optimizer,
/// lowering. Returns the binary and, for `Instr`, its counter map.
///
/// # Errors
///
/// Returns [`PipelineError::Compile`] if `source` does not compile.
pub fn profiling_build(
    source: &str,
    name: &str,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<(Binary, Option<CounterMap>), PipelineError> {
    let mut module = frontend(source, name, variant.uses_probes())?;
    let counter_map = (variant == PgoVariant::Instr)
        .then(|| csspgo_opt::instrument::run_with(&mut module, &config.instrument));
    csspgo_opt::run_pipeline(&mut module, &config.opt);
    Ok((lower_module(&module, &config.codegen), counter_map))
}

/// Stage 2, the profiling run ("in production"): the workload's training
/// traffic through [`BatchSource`]. The instrumented variant counts
/// exactly and runs without sampling.
///
/// # Errors
///
/// Returns [`PipelineError::Sim`] if a training call fails.
pub fn profiling_run(
    binary: &Binary,
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<ProfilingRun, PipelineError> {
    let period = if variant == PgoVariant::Instr {
        0
    } else {
        config.sample_period
    };
    let mut machine = staged_machine(binary, workload, period, config);
    let samples = BatchSource.collect(&mut machine, workload)?;
    Ok(ProfilingRun {
        samples,
        stats: *machine.stats(),
        counters: machine.counters().to_vec(),
    })
}

/// Stage 3, context-profile generation (full CSSPGO): range counts →
/// tail-call graph → sharded unwinding → [`stamp_and_trim`] at
/// `config.trim_threshold`.
pub fn context_profile(binary: &Binary, samples: &[Sample], config: &PipelineConfig) -> ContextGen {
    let range_counts = sharded_range_counts(binary, samples, config.ingest_shards);
    let tail_graph = TailCallGraph::build(binary, &range_counts);
    let unwound = sharded_context_profile(binary, Some(&tail_graph), samples, config.ingest_shards);
    let mut profile = unwound.profile;
    let nodes_before_trim = profile.node_count();
    stamp_and_trim(&mut profile, binary, config.trim_threshold);
    ContextGen {
        profile,
        range_counts,
        infer_stats: unwound.infer_stats,
        nodes_before_trim,
    }
}

/// Stamps each function's probe CFG checksum from `binary` onto every
/// context of `profile`, then trims contexts colder than `trim_threshold`
/// into base profiles. Stamping comes first so merged base profiles carry
/// checksums too.
pub fn stamp_and_trim(profile: &mut ContextProfile, binary: &Binary, trim_threshold: u64) {
    let checksums = binary
        .funcs
        .iter()
        .filter_map(|f| f.probe_checksum.map(|c| (f.guid, c)))
        .collect();
    profile.set_checksums(&checksums);
    profile.trim_cold(trim_threshold);
}

/// Stage 4, probe-profile finishing: flattens `ctx` into the probe
/// profile a rebuild consumes. Context entry counts can be sparse, so each
/// function's entry is raised to its plain LBR entry count from `rc`;
/// those functions also get their names.
pub fn finish_probe_profile(
    ctx: &ContextProfile,
    rc: &RangeCounts,
    binary: &Binary,
) -> ProbeProfile {
    let mut probe_prof = ctx.to_probe_profile();
    for (fidx, c) in rc.entry_counts(binary) {
        let f = &binary.funcs[fidx as usize];
        probe_prof
            .names
            .entry(f.guid)
            .or_insert_with(|| f.name.clone());
        if let Some(fp) = probe_prof.funcs.get_mut(&f.guid) {
            fp.entry = fp.entry.max(c);
        }
    }
    probe_prof
}

/// Stages 1–4 for full CSSPGO over the workload's own source: the probe
/// profile a rebuild would consume, without pre-inlining.
///
/// # Errors
///
/// Returns [`PipelineError`] if the source fails to compile or the
/// profiling run fails.
pub fn collect_probe_profile(
    workload: &Workload,
    config: &PipelineConfig,
) -> Result<ProbeProfile, PipelineError> {
    let variant = PgoVariant::CsspgoFull;
    let (binary, _) = profiling_build(&workload.source, &workload.name, variant, config)?;
    let run = profiling_run(&binary, workload, variant, config)?;
    let gen = context_profile(&binary, &run.samples, config);
    Ok(finish_probe_profile(
        &gen.profile,
        &gen.range_counts,
        &binary,
    ))
}

/// Stage 5, the optimized build of a fresh [`frontend`] module: annotate
/// with `profile`, optimize, strip functions unreachable from `entry`
/// (link-time GC: fully inlined bodies go), lower. Full CSSPGO restricts
/// the bottom-up inliner to trivially small callees so it honors the
/// pre-inliner's decisions (paper §III.B: the compiler "will try to honor
/// the decision made by pre-inliner when possible").
pub fn optimized_build(
    mut module: Module,
    profile: &HandOff,
    variant: PgoVariant,
    entry: &str,
    config: &PipelineConfig,
) -> (Binary, AnnotateStats) {
    let stats = annotate_with(&mut module, profile, &config.annotate);
    let mut opt_cfg = config.opt.clone();
    if variant == PgoVariant::CsspgoFull {
        opt_cfg.inline_hot_size = opt_cfg.inline_small_size;
    }
    csspgo_opt::run_pipeline(&mut module, &opt_cfg);
    if let Some(root) = module.find_function(entry) {
        csspgo_opt::strip::run(&mut module, &[root]);
    }
    (lower_module(&module, &config.codegen), stats)
}

/// Runs the evaluation traffic on `binary`, returning stats and a hash of
/// the results (for cross-variant correctness checking).
pub fn evaluate(
    binary: &Binary,
    workload: &Workload,
    config: &PipelineConfig,
) -> Result<(RunStats, u64), PipelineError> {
    let mut machine = staged_machine(binary, workload, 0, config);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for args in &workload.eval_calls {
        let r = machine.call(&workload.entry, args)?;
        hash ^= r as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok((*machine.stats(), hash))
}

/// Compiles and evaluates `module_source` without any PGO — a helper for
/// overhead experiments that need a custom build (e.g. probes on/off).
pub fn build_and_run(
    workload: &Workload,
    with_probes: bool,
    config: &PipelineConfig,
) -> Result<(RunStats, SectionSizes), PipelineError> {
    let module = frontend(&workload.source, &workload.name, with_probes)?;
    let (binary, _) = optimized_build(
        module,
        &HandOff::None,
        PgoVariant::O2,
        &workload.entry,
        config,
    );
    let (stats, _) = evaluate(&binary, workload, config)?;
    Ok((stats, binary.sections))
}

/// A machine over `binary` in the cycle's simulator configuration
/// ([`PipelineConfig::sim_config`]), with the workload's globals staged.
pub fn staged_machine<'b>(
    binary: &'b Binary,
    workload: &Workload,
    sample_period: u64,
    config: &PipelineConfig,
) -> Machine<'b> {
    let mut machine = Machine::new(binary, config.sim_config(sample_period));
    for (name, values) in &workload.setup {
        machine.set_global(name, values);
    }
    machine
}

/// Turns a sampling run into the variant's compiler profile, recording the
/// context-trie, pre-inliner and tail-call stats (and the pre-inliner time)
/// into `outcome`.
fn generate_profile(
    variant: PgoVariant,
    config: &PipelineConfig,
    binary: &Binary,
    run: &ProfilingRun,
    outcome: &mut PgoOutcome,
) -> HandOff {
    let range_counts = || sharded_range_counts(binary, &run.samples, config.ingest_shards);
    match variant {
        // The instrumented variant reads counters, not samples.
        PgoVariant::O2 | PgoVariant::Instr => HandOff::None,
        PgoVariant::AutoFdo => HandOff::Flat(dwarf_profile(binary, &range_counts())),
        PgoVariant::CsspgoProbeOnly => HandOff::Probe(probe_profile(binary, &range_counts()), None),
        PgoVariant::CsspgoFull => {
            let mut gen = context_profile(binary, &run.samples, config);
            outcome.infer_stats = gen.infer_stats;
            outcome.context_nodes_before_trim = gen.nodes_before_trim;
            outcome.context_nodes_after_trim = gen.profile.node_count();
            let t = Instant::now();
            let pre = run_preinliner(&mut gen.profile, binary, &config.preinline);
            outcome.stage_times.preinline_ms = ms_since(t);
            outcome.plan_len = pre.plan_paths.len();
            HandOff::Probe(
                finish_probe_profile(&gen.profile, &gen.range_counts, binary),
                Some(pre.plan_paths),
            )
        }
    }
}

/// Reads the instrumented variant's counters back into exact block counts.
/// Sparse measurements are solved back to full flow against the profiling
/// build's pre-instrumentation CFG (the one the placement was planned on).
fn counter_profile(
    workload: &Workload,
    map: &CounterMap,
    counters: &[u64],
) -> Result<HandOff, PipelineError> {
    let mut exact = HashMap::new();
    for (&(fid, bid), &counter) in &map.by_block {
        exact.insert((fid, bid), counters[counter as usize]);
    }
    let mut recovered_edges = HashMap::new();
    if !map.by_edge.is_empty() {
        let ref_module = frontend(&workload.source, &workload.name, false)?;
        let mut per_func: HashMap<FuncId, HashMap<FlowEdge, u64>> = HashMap::new();
        for &(fid, edge, counter) in &map.by_edge {
            per_func
                .entry(fid)
                .or_default()
                .insert(edge, counters[counter as usize]);
        }
        for (fid, measured) in per_func {
            let flow = csspgo_ir::flow::reconstruct(ref_module.func(fid), &measured).ok_or(
                PipelineError::Inconsistent(
                    "sparse counter placement failed to reconstruct full flow",
                ),
            )?;
            for (bid, c) in &flow.block_counts {
                exact.insert((fid, *bid), *c);
            }
            recovered_edges.insert(fid, flow.edge_counts);
        }
    }
    Ok(HandOff::Counters(exact, recovered_edges))
}

/// Production profiles travel between collector and compiler as binprof
/// payloads; the cycle serializes the generated profile and compiles from
/// the decoded copy, so the wire format is load-bearing — a lossy encode
/// or a decode regression fails the cycle, and both costs are visible as
/// stage times.
fn wire_round_trip(profile: HandOff, times: &mut StageTimes) -> Result<HandOff, PipelineError> {
    Ok(match profile {
        HandOff::Flat(p) => {
            let t = Instant::now();
            let bytes = crate::binprof::encode_flat(&p);
            times.serialize_ms = ms_since(t);
            let t = Instant::now();
            let decoded = crate::binprof::decode_flat(&bytes)?;
            times.deserialize_ms = ms_since(t);
            HandOff::Flat(decoded)
        }
        HandOff::Probe(p, plan) => {
            let t = Instant::now();
            let bytes = crate::binprof::encode_probe(&p);
            times.serialize_ms = ms_since(t);
            let t = Instant::now();
            let decoded = crate::binprof::decode_probe(&bytes)?;
            times.deserialize_ms = ms_since(t);
            HandOff::Probe(decoded, plan)
        }
        other => other,
    })
}

/// Fresh-IR block counts of `build_source` under `profile`, with no inline
/// replay so every variant is measured on the same CFG.
fn quality_snapshot(
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
    build_source: &str,
    profile: &HandOff,
) -> Result<BlockCounts, PipelineError> {
    let mut module = frontend(build_source, &workload.name, variant.uses_probes())?;
    // A zero inline budget replays nothing, the pre-inliner's plan included.
    let no_replay = AnnotateConfig {
        inline_budget: 0,
        ..config.annotate
    };
    annotate_with(&mut module, profile, &no_replay);
    Ok(collect_block_counts(&module))
}

/// Annotates `module` with `profile`, replaying a probe profile's inline
/// plan paths (if any) against `module`.
fn annotate_with(module: &mut Module, profile: &HandOff, cfg: &AnnotateConfig) -> AnnotateStats {
    match profile {
        HandOff::None => AnnotateStats::default(),
        HandOff::Flat(p) => autofdo_annotate(module, p, cfg),
        HandOff::Probe(p, paths) => {
            let plan = paths.as_ref().map(|paths| to_inline_plan(paths, module));
            csspgo_annotate(module, p, plan.as_ref(), cfg)
        }
        HandOff::Counters(c, e) => instr_annotate_reconstructed(module, c, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        let src = r#"
fn weight(i) {
    if (i % 7 == 0) { return 3; }
    return 1;
}
fn score(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weight(i) * i;
        i = i + 1;
    }
    return s;
}
"#;
        Workload::new("tiny", src, "score", vec![vec![900]; 4], vec![vec![901]; 4])
    }

    fn quick_config() -> PipelineConfig {
        PipelineConfig::builder()
            .sample_period(61)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn all_variants_compute_identical_results() {
        let w = tiny_workload();
        let cfg = quick_config();
        let mut hashes = Vec::new();
        for v in PgoVariant::ALL {
            let o = run_pgo_cycle(&w, v, &cfg).unwrap_or_else(|e| panic!("{v}: {e}"));
            hashes.push((v, o.eval_result_hash));
        }
        let first = hashes[0].1;
        for (v, h) in &hashes {
            assert_eq!(*h, first, "variant {v} changed program behaviour");
        }
    }

    #[test]
    fn sampling_variants_profile_and_annotate() {
        let w = tiny_workload();
        let cfg = quick_config();
        for v in [
            PgoVariant::AutoFdo,
            PgoVariant::CsspgoProbeOnly,
            PgoVariant::CsspgoFull,
        ] {
            let o = run_pgo_cycle(&w, v, &cfg).unwrap();
            assert!(o.profiling.samples > 0, "{v} must sample");
            assert!(o.annotate_stats.annotated > 0, "{v} must annotate");
            assert!(!o.quality_counts.is_empty(), "{v} must snapshot quality");
        }
    }

    #[test]
    fn instrumented_profiling_is_much_slower() {
        let w = tiny_workload();
        let cfg = quick_config();
        let auto = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).unwrap();
        let instr = run_pgo_cycle(&w, PgoVariant::Instr, &cfg).unwrap();
        let ratio = instr.profiling.cycles as f64 / auto.profiling.cycles as f64;
        assert!(
            ratio > 1.2,
            "instrumented profiling should be much slower, got {ratio:.2}x"
        );
    }

    #[test]
    fn csspgo_full_produces_contexts_and_plan() {
        let w = tiny_workload();
        let cfg = quick_config();
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).unwrap();
        assert!(o.context_nodes_before_trim > 0);
        assert!(o.context_nodes_after_trim <= o.context_nodes_before_trim);
    }

    #[test]
    fn probe_binary_carries_metadata_section() {
        let w = tiny_workload();
        let cfg = quick_config();
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoProbeOnly, &cfg).unwrap();
        assert!(o.profiling_sections.pseudo_probe > 0);
        let a = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).unwrap();
        assert_eq!(a.profiling_sections.pseudo_probe, 0);
    }

    #[test]
    fn pgo_beats_o2_on_layout_sensitive_workload() {
        // A rare-but-bulky error path: without profile the cold arm sits on
        // the fall-through path and pollutes the i-cache; with profile it is
        // laid out away (and split out), the hot arm falls through.
        let src = r#"
global stats[8];
fn classify(x) {
    if (x % 97 == 0) {
        stats[0] = stats[0] + x;
        stats[1] = stats[1] + x * 3;
        stats[2] = stats[2] + x * 5;
        stats[3] = stats[3] + x * 7;
        stats[4] = stats[4] + x * 11;
        stats[5] = stats[5] + x * 13;
        stats[6] = stats[6] + x * 17;
        stats[7] = stats[7] + x * 19;
        return 0 - x;
    }
    return x + 1;
}
fn score(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + classify(i);
        i = i + 1;
    }
    return s;
}
"#;
        let w = Workload::new(
            "layouty",
            src,
            "score",
            vec![vec![1500]; 3],
            vec![vec![1501]; 3],
        );
        let cfg = quick_config();
        let o2 = run_pgo_cycle(&w, PgoVariant::O2, &cfg).unwrap();
        let instr = run_pgo_cycle(&w, PgoVariant::Instr, &cfg).unwrap();
        assert_eq!(instr.eval_result_hash, o2.eval_result_hash);
        assert!(
            instr.eval.cycles < o2.eval.cycles,
            "instr PGO {} should beat O2 {}",
            instr.eval.cycles,
            o2.eval.cycles
        );
    }

    #[test]
    fn builder_accepts_valid_and_rejects_invalid_combos() {
        let cfg = PipelineConfig::builder()
            .sample_period(97)
            .ingest_shards(4)
            .trim_threshold(8)
            .build()
            .expect("valid combo");
        assert_eq!(cfg.sample_period, 97);
        assert_eq!(cfg.ingest_shards, 4);

        for bad in [
            PipelineConfig::builder().sample_period(0).build(),
            PipelineConfig::builder().lbr_size(1).build(),
            PipelineConfig::builder().max_steps(0).build(),
            PipelineConfig::builder()
                .ingest_shards(MAX_INGEST_SHARDS + 1)
                .build(),
            PipelineConfig::builder()
                .stream(StreamConfig {
                    drift_threshold: 1.5,
                    ..StreamConfig::default()
                })
                .build(),
            PipelineConfig::builder()
                .stream(StreamConfig {
                    max_pending_samples: 0,
                    ..StreamConfig::default()
                })
                .build(),
        ] {
            let err = bad.expect_err("combo must be rejected");
            assert!(
                matches!(err, PipelineError::InvalidConfig(_)),
                "wrong error: {err}"
            );
        }

        // `Default` stays valid by construction.
        PipelineConfig::default().validate().expect("default valid");
    }

    #[test]
    fn builder_inference_shorthand_and_stage_carveout() {
        use crate::inference::InferenceMode;
        let cfg = PipelineConfig::builder()
            .sample_period(61)
            .inference(InferenceMode::Heuristic)
            .build()
            .expect("valid combo");
        assert_eq!(cfg.annotate.inference, InferenceMode::Heuristic);
        assert_eq!(
            PipelineConfig::default().annotate.inference,
            InferenceMode::Mcf,
            "mcf is the default, per the paper's always-on Profi"
        );

        let w = tiny_workload();
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &quick_config()).unwrap();
        assert!(o.annotate_stats.inference.functions > 0);
        assert!(o.stage_times.inference_ms >= 0.0);
        assert!(
            o.stage_times.total_ms() >= o.stage_times.inference_ms,
            "inference is part of the total"
        );
    }
}
