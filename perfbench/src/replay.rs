//! Traced replay of one PGO cycle.
//!
//! Calls the layers in the order `pipeline::run_pgo_cycle_with` does, with
//! a span around each call, so a traced `pgo_cycle` op shows where a
//! cycle's time goes without any span inside the program. The replay must
//! reproduce the untraced cycle bit for bit; the caller checks that.

use crate::layers::{self, Profiled};
use crate::trace::Tracer;
use csspgo_codegen::Binary;
use csspgo_core::annotate::{
    autofdo_annotate, collect_block_counts, csspgo_annotate, instr_annotate_reconstructed,
    AnnotateConfig, AnnotateStats,
};
use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::overlap::BlockCounts;
use csspgo_core::pipeline::{PgoVariant, PipelineConfig, PipelineError, StageTimes};
use csspgo_core::preinline::{run_preinliner, to_inline_plan};
use csspgo_core::profile::{FlatProfile, ProbeProfile};
use csspgo_core::shard::{sharded_context_profile, sharded_range_counts};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::workload::Workload;
use csspgo_core::{binprof, ranges::RangeCounts};
use csspgo_ir::{BlockId, FuncId, InlinePlan};
use csspgo_sim::{RunStats, Sample};
use std::collections::{BTreeMap, HashMap};

type ExactCounts = HashMap<(FuncId, BlockId), u64>;
type RecoveredEdges = HashMap<FuncId, Vec<(BlockId, BlockId, u64)>>;

enum Generated {
    None,
    Flat(FlatProfile),
    Probe(ProbeProfile, Option<InlinePlan>),
    Counters(ExactCounts, RecoveredEdges),
}

/// The observable result of a replayed cycle.
pub struct Replay {
    /// Evaluation run statistics.
    pub eval: RunStats,
    /// Hash of the evaluation results.
    pub hash: u64,
    /// Text bytes of the optimised binary.
    pub text: u64,
    /// Quality snapshot block counts.
    pub quality_counts: BlockCounts,
    /// Stage times, split as `PgoOutcome::stage_times` splits them.
    pub stages: StageTimes,
}

/// `sharded_range_counts`, noting the samples it read.
fn range_counts(
    tr: &mut Tracer,
    binary: &Binary,
    samples: &[Sample],
    shards: usize,
) -> RangeCounts {
    let rc = tr.span("correlate.ranges", |_| {
        sharded_range_counts(binary, samples, shards)
    });
    tr.note("samples", samples.len() as f64);
    rc
}

/// Replays one PGO cycle of `workload` under `variant` with the batch
/// profile source and the workload's own source as the build source.
pub fn replay_cycle(
    tr: &mut Tracer,
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<Replay, PipelineError> {
    let mut st = StageTimes::default();
    let probes = variant.uses_probes();
    let shards = config.ingest_shards;

    // ---------- profiling build ----------
    let (profiling_binary, mut counter_map) = tr.span("stage.compile", |tr| {
        if variant == PgoVariant::O2 {
            return Ok::<_, PipelineError>((None, None));
        }
        let mut module = layers::compile(tr, &workload.source, &workload.name)?;
        layers::prepare(tr, &mut module, probes);
        let map = (variant == PgoVariant::Instr).then(|| {
            tr.span("opt.instrument", |_| {
                csspgo_opt::instrument::run_with(&mut module, &config.instrument)
            })
        });
        layers::optimise(tr, &mut module, &config.opt);
        Ok((Some(layers::lower(tr, &module, &config.codegen)), map))
    })?;
    st.compile_ms = tr.last_ms();

    // ---------- profiling run ----------
    let profiled = tr.span("stage.simulate", |tr| match &profiling_binary {
        Some(binary) => {
            let period = if variant == PgoVariant::Instr {
                0
            } else {
                config.sample_period
            };
            layers::profile_run(tr, binary, workload, layers::sim_config(config, period))
        }
        None => Ok(Profiled {
            samples: Vec::new(),
            counters: Vec::new(),
            stats: RunStats::default(),
        }),
    })?;
    st.simulate_ms = tr.last_ms();
    let samples = &profiled.samples;

    // ---------- build frontend (counted as recompile) ----------
    let mut build_module = tr.span("stage.build_frontend", |tr| {
        let mut module = layers::compile(tr, &workload.source, &workload.name)?;
        layers::prepare(tr, &mut module, probes);
        Ok::<_, PipelineError>(module)
    })?;
    let frontend_ms = tr.last_ms();

    // ---------- profile generation ----------
    let mut preinline_ms = 0.0;
    let generated = tr.span("stage.correlate", |tr| {
        let binary = match (variant, &profiling_binary) {
            (PgoVariant::O2, _) | (_, None) => return Ok(Generated::None),
            (_, Some(b)) => b,
        };
        match variant {
            PgoVariant::AutoFdo => {
                let rc = range_counts(tr, binary, samples, shards);
                let p = tr.span("correlate.profile", |_| dwarf_profile(binary, &rc));
                Ok(Generated::Flat(p))
            }
            PgoVariant::CsspgoProbeOnly => {
                let rc = range_counts(tr, binary, samples, shards);
                let p = tr.span("correlate.profile", |_| probe_profile(binary, &rc));
                Ok(Generated::Probe(p, None))
            }
            PgoVariant::CsspgoFull => {
                let rc = range_counts(tr, binary, samples, shards);
                let graph = tr.span("correlate.tailgraph", |_| TailCallGraph::build(binary, &rc));
                let unwound = tr.span("correlate.unwind", |_| {
                    sharded_context_profile(binary, Some(&graph), samples, shards)
                });
                let mut ctx = unwound.profile;
                let (before, after) = tr.span("correlate.profile", |_| {
                    let checksums: BTreeMap<u64, u64> = binary
                        .funcs
                        .iter()
                        .filter_map(|f| f.probe_checksum.map(|c| (f.guid, c)))
                        .collect();
                    ctx.set_checksums(&checksums);
                    let before = ctx.node_count();
                    ctx.trim_cold(config.trim_threshold);
                    (before, ctx.node_count())
                });
                tr.note("ctx_before", before as f64);
                tr.note("ctx_after", after as f64);
                let (plan_len, plan) = tr.span("preinline.run", |_| {
                    let pre = run_preinliner(&mut ctx, binary, &config.preinline);
                    (
                        pre.plan_paths.len(),
                        to_inline_plan(&pre.plan_paths, &build_module),
                    )
                });
                tr.note("plan_len", plan_len as f64);
                preinline_ms = tr.last_ms();
                let probe_prof = tr.span("correlate.to_probe", |_| {
                    let mut p = ctx.to_probe_profile();
                    for (fidx, c) in rc.entry_counts(binary) {
                        let guid = binary.funcs[fidx as usize].guid;
                        if let Some(fp) = p.funcs.get_mut(&guid) {
                            fp.entry = fp.entry.max(c);
                        }
                    }
                    p
                });
                Ok(Generated::Probe(probe_prof, Some(plan)))
            }
            PgoVariant::Instr => tr.span("correlate.profile", |_| {
                instr_counts(workload, counter_map.take(), &profiled.counters)
            }),
            _ => Err(PipelineError::Inconsistent("replay: unknown PGO variant")),
        }
    })?;
    st.correlate_ms = tr.last_ms() - preinline_ms;
    st.preinline_ms = preinline_ms;

    // ---------- binprof hand-off ----------
    let generated = match generated {
        Generated::Flat(p) => {
            let bytes = tr.span("binprof.encode", |_| binprof::encode_flat(&p));
            tr.note("bytes", bytes.len() as f64);
            st.serialize_ms = tr.last_ms();
            let decoded = tr.span("binprof.decode", |_| binprof::decode_flat(&bytes))?;
            tr.note("bytes", bytes.len() as f64);
            st.deserialize_ms = tr.last_ms();
            Generated::Flat(decoded)
        }
        Generated::Probe(p, plan) => {
            let bytes = tr.span("binprof.encode", |_| binprof::encode_probe(&p));
            tr.note("bytes", bytes.len() as f64);
            st.serialize_ms = tr.last_ms();
            let decoded = tr.span("binprof.decode", |_| binprof::decode_probe(&bytes))?;
            tr.note("bytes", bytes.len() as f64);
            st.deserialize_ms = tr.last_ms();
            Generated::Probe(decoded, plan)
        }
        other => other,
    };

    // ---------- quality snapshot (not part of StageTimes) ----------
    let quality_counts = tr.span("pipeline.quality", |_| {
        let mut q = csspgo_lang::compile(&workload.source, &workload.name)?;
        csspgo_opt::discriminators::run(&mut q);
        if probes {
            csspgo_opt::probes::run(&mut q);
        }
        let no_replay = AnnotateConfig {
            inline_budget: 0,
            ..config.annotate
        };
        match &generated {
            Generated::None => {}
            Generated::Flat(p) => {
                autofdo_annotate(&mut q, p, &no_replay);
            }
            Generated::Probe(p, _) => {
                csspgo_annotate(&mut q, p, None, &no_replay);
            }
            Generated::Counters(c, e) => {
                instr_annotate_reconstructed(&mut q, c, e);
            }
        }
        Ok::<_, PipelineError>(collect_block_counts(&q))
    })?;

    // ---------- optimised build ----------
    let (final_binary, stats) = tr.span("stage.recompile", |tr| {
        let stats = tr.span("annotate.run", |_| match &generated {
            Generated::None => AnnotateStats::default(),
            Generated::Flat(p) => autofdo_annotate(&mut build_module, p, &config.annotate),
            Generated::Probe(p, plan) => {
                csspgo_annotate(&mut build_module, p, plan.as_ref(), &config.annotate)
            }
            Generated::Counters(c, e) => instr_annotate_reconstructed(&mut build_module, c, e),
        });
        layers::note_annotate(tr, &stats);
        let mut opt_cfg = config.opt.clone();
        if variant == PgoVariant::CsspgoFull {
            opt_cfg.inline_hot_size = opt_cfg.inline_small_size;
        }
        layers::optimise(tr, &mut build_module, &opt_cfg);
        layers::strip(tr, &mut build_module, &workload.entry);
        (layers::lower(tr, &build_module, &config.codegen), stats)
    });
    let inference_ms = stats.inference.elapsed_us as f64 / 1e3;
    st.inference_ms = inference_ms;
    st.recompile_ms = (frontend_ms + tr.last_ms() - inference_ms).max(0.0);

    // ---------- evaluation ----------
    let (eval, hash) = tr.span("stage.evaluate", |tr| {
        layers::evaluate(tr, &final_binary, workload, config)
    })?;
    st.evaluate_ms = tr.last_ms();

    Ok(Replay {
        eval,
        hash,
        text: final_binary.sections.text,
        quality_counts,
        stages: st,
    })
}

/// Exact block counts of the instrumented run, with sparse placements
/// solved back to full flow on the pre-instrumentation CFG.
fn instr_counts(
    workload: &Workload,
    map: Option<csspgo_opt::instrument::CounterMap>,
    counters: &[u64],
) -> Result<Generated, PipelineError> {
    let map = map.ok_or(PipelineError::Inconsistent(
        "instrumented build produced no counter map",
    ))?;
    let mut exact = HashMap::new();
    for ((fid, bid), counter) in map.by_block {
        exact.insert((fid, bid), counters[counter as usize]);
    }
    let mut recovered = HashMap::new();
    if !map.by_edge.is_empty() {
        let mut ref_module = csspgo_lang::compile(&workload.source, &workload.name)?;
        csspgo_opt::discriminators::run(&mut ref_module);
        let mut per_func: HashMap<FuncId, HashMap<csspgo_ir::flow::FlowEdge, u64>> = HashMap::new();
        for (fid, edge, counter) in map.by_edge {
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
            recovered.insert(fid, flow.edge_counts);
        }
    }
    Ok(Generated::Counters(exact, recovered))
}
