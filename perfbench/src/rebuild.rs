//! `rebuild_drifted`: one op is one optimised rebuild of a release from
//! the profile collected on the program's release-0 source — "build from
//! last week's profile".
//!
//! Set-up collects a CSSPGO-full profile (binprof bytes plus the
//! pre-inliner plan) for each of the six programs exactly as
//! `run_pgo_cycle` collects it. An op decodes it, compiles the release,
//! annotates with stale matching `Recover` and MCF inference, optimises,
//! strips and lowers. Every pool entry must rebuild to the same binary
//! each time. After the timed phase each entry's binary is evaluated once
//! against `-O2` and a fresh-profile oracle on the same source; on release
//! 0 the rebuild must match `run_pgo_cycle`'s CSSPGO-full cycles exactly.

use crate::harness::{self, ms_since, Args, Metric, OpLog, Rng, RunResult, Setups, TracedRun};
use crate::layers;
use crate::stats::{geomean_gain_pct, pooled_retained_pct};
use crate::trace::Tracer;
use csspgo_codegen::Binary;
use csspgo_core::annotate::{csspgo_annotate, AnnotateConfig};
use csspgo_core::binprof;
use csspgo_core::context::FrameKey;
use csspgo_core::inference::InferenceMode;
use csspgo_core::pipeline::{run_pgo_cycle, PgoVariant, PipelineConfig, PipelineError};
use csspgo_core::preinline::{run_preinliner, to_inline_plan};
use csspgo_core::shard::{sharded_context_profile, sharded_range_counts};
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::workload::Workload;
use std::collections::BTreeMap;
use std::time::Instant;

/// Length of the release chain: one full cycle of `drift::release_mutator`.
const CHAIN: usize = 8;
/// Releases of the chain in the pool, besides release 0: every other one,
/// so the last carries all eight mutators while the post-phase stays short.
const PICKED: [usize; 4] = [2, 4, 6, 8];
/// Pool entries per program.
const RELEASES: usize = PICKED.len() + 1;

/// One program: its dealt traffic, last week's profile and its releases.
struct Program {
    workload: Workload,
    profile: Vec<u8>,
    plan_paths: Vec<Vec<FrameKey>>,
    /// The profiled source, then the [`PICKED`] releases of its chain
    /// (release `r` applies `release_mutator(0..r)`).
    sources: Vec<String>,
}

/// The profiling half of a CSSPGO-full `run_pgo_cycle`: the probe profile
/// as binprof bytes and the pre-inliner's plan paths.
fn collect_profile(
    tr: &mut Tracer,
    w: &Workload,
    cfg: &PipelineConfig,
) -> Result<(Vec<u8>, Vec<Vec<FrameKey>>), PipelineError> {
    let binary = layers::profiling_build(tr, w, true, cfg)?;
    let run = layers::profile_run(tr, &binary, w, layers::sim_config(cfg, cfg.sample_period))?;
    let samples = &run.samples;
    let shards = cfg.ingest_shards;
    let rc = tr.span("correlate.ranges", |_| {
        sharded_range_counts(&binary, samples, shards)
    });
    tr.note("samples", samples.len() as f64);
    let graph = tr.span("correlate.tailgraph", |_| {
        TailCallGraph::build(&binary, &rc)
    });
    let unwound = tr.span("correlate.unwind", |_| {
        sharded_context_profile(&binary, Some(&graph), samples, shards)
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
        ctx.trim_cold(cfg.trim_threshold);
        (before, ctx.node_count())
    });
    tr.note("ctx_before", before as f64);
    tr.note("ctx_after", after as f64);
    let pre = tr.span("preinline.run", |_| {
        run_preinliner(&mut ctx, &binary, &cfg.preinline)
    });
    tr.note("plan_len", pre.plan_paths.len() as f64);
    let probe = tr.span("correlate.to_probe", |_| {
        let mut p = ctx.to_probe_profile();
        for (fidx, c) in rc.entry_counts(&binary) {
            let guid = binary.funcs[fidx as usize].guid;
            if let Some(fp) = p.funcs.get_mut(&guid) {
                fp.entry = fp.entry.max(c);
            }
        }
        p
    });
    let bytes = tr.span("binprof.encode", |_| binprof::encode_probe(&probe));
    tr.note("bytes", bytes.len() as f64);
    Ok((bytes, pre.plan_paths))
}

fn setup(tr: &mut Tracer, seed: u64, cfg: &PipelineConfig) -> Result<Vec<Program>, String> {
    tr.span("setup", |tr| {
        let mut all = csspgo_workloads::server_workloads();
        all.push(csspgo_workloads::client_compiler());
        all.iter()
            .map(|w| {
                let workload = csspgo_workloads::tenant_traffic_mix(w, seed);
                let (profile, plan_paths) = collect_profile(tr, &workload, cfg)
                    .map_err(|e| format!("{}: profile collection: {e}", w.name))?;
                let keep = [workload.entry.as_str()];
                let chain = csspgo_workloads::drift::release_chain(&workload.source, CHAIN, &keep);
                let mut sources = vec![workload.source.clone()];
                sources.extend(PICKED.iter().map(|&r| chain[r - 1].1.clone()));
                Ok(Program {
                    workload,
                    profile,
                    plan_paths,
                    sources,
                })
            })
            .collect()
    })
}

/// One op: the optimised rebuild of release `rel` from `program`'s
/// profile.
fn rebuild(
    tr: &mut Tracer,
    program: &Program,
    rel: usize,
    cfg: &PipelineConfig,
    annotate: &AnnotateConfig,
) -> Result<Binary, PipelineError> {
    let w = &program.workload;
    let profile = tr.span("binprof.decode", |_| {
        binprof::decode_probe(&program.profile)
    })?;
    tr.note("bytes", program.profile.len() as f64);
    let mut module = layers::compile(tr, &program.sources[rel], &w.name)?;
    layers::prepare(tr, &mut module, true);
    let plan = tr.span("preinline.to_plan", |_| {
        to_inline_plan(&program.plan_paths, &module)
    });
    let stats = tr.span("annotate.run", |_| {
        csspgo_annotate(&mut module, &profile, Some(&plan), annotate)
    });
    layers::note_annotate(tr, &stats);
    // Full CSSPGO honours the pre-inliner: the bottom-up inliner only
    // takes trivially small callees (the pipeline's rule).
    let mut opt_cfg = cfg.opt.clone();
    opt_cfg.inline_hot_size = opt_cfg.inline_small_size;
    layers::optimise(tr, &mut module, &opt_cfg);
    layers::strip(tr, &mut module, &w.entry);
    Ok(layers::lower(tr, &module, &cfg.codegen))
}

/// Same machine code, layout, debug frames and section sizes.
fn same_binary(a: &Binary, b: &Binary) -> bool {
    a.insts.len() == b.insts.len()
        && a.insts
            .iter()
            .zip(&b.insts)
            .all(|(x, y)| x.kind == y.kind && x.size == y.size)
        && a.addrs == b.addrs
        && a.frame_table == b.frame_table
        && a.frame_spans == b.frame_spans
        && a.func_of == b.func_of
        && a.sections.text == b.sections.text
        && a.sections.debug_line == b.sections.debug_line
        && a.sections.pseudo_probe == b.sections.pseudo_probe
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let cfg = PipelineConfig::default();
    let annotate = AnnotateConfig {
        stale_matching: StaleMatching::Recover,
        inference: InferenceMode::Mcf,
        ..cfg.annotate
    };
    let mut tr = Tracer::new(args.trace);
    let (programs, mut setups) = Setups::first(!args.trace, || setup(&mut tr, args.seed, &cfg))?;

    let mut pool: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|p| (0..RELEASES).map(move |r| (p, r)))
        .collect();
    let mut built: Vec<Option<Binary>> = vec![None; pool.len()];
    let mut rng = Rng::new(args.seed);
    let (mut ops, mut traced_ops) = (OpLog::default(), OpLog::default());
    let mut op_id = 0u64;
    let mut round = 0usize;

    // In traced mode rounds alternate untraced / traced.
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || (args.trace && round % 2 == 1) {
        setups.between_rounds(|| setup(&mut tr, args.seed, &cfg))?;
        let traced_round = args.trace && round % 2 == 1;
        tr.set_recording(traced_round);
        rng.shuffle(&mut pool);
        for &(p, rel) in &pool {
            op_id += 1;
            tr.set_op(op_id);
            let t = Instant::now();
            let res = tr.span("op", |tr| rebuild(tr, &programs[p], rel, &cfg, &annotate));
            let ms = ms_since(t);
            let ok = match res {
                Ok(bin) => {
                    let slot = &mut built[p * RELEASES + rel];
                    match slot {
                        Some(first) => same_binary(first, &bin),
                        None => {
                            *slot = Some(bin);
                            true
                        }
                    }
                }
                Err(_) => false,
            };
            let log = if traced_round {
                &mut traced_ops
            } else {
                &mut ops
            };
            log.record(p * RELEASES + rel, ms, ok);
        }
        round += 1;
    }

    let peak_rss_mb = harness::peak_rss_mb();
    // ---- post-phase: evaluate each entry once, against -O2 and the
    // fresh-profile oracle on the same source.
    tr.set_recording(args.trace);
    tr.set_op(0);
    let post = tr.span("post", |tr| evaluate_pool(tr, &programs, &built, &cfg))?;

    let mut notes = vec![
        format!("rounds of {} ops: {round}", pool.len()),
        format!(
            "release-0 rebuilds matching run_pgo_cycle CSSPGO-full cycles: {}/{}",
            post.release0_matches,
            programs.len()
        ),
    ];
    for (program, rows) in programs.iter().zip(&post.retained_rows) {
        let pct = pooled_retained_pct(rows).map_or("n/a (oracle does not beat -O2)".into(), |v| {
            format!("{v:.2}%")
        });
        notes.push(format!("retained_pct {}: {pct}", program.workload.name));
    }
    let all_rows: Vec<(u64, u64, u64)> = post.retained_rows.concat();
    let quality = vec![
        Metric::new(
            "gain_pct.drifted",
            geomean_gain_pct(&post.gain_pairs),
            "%",
            "higher",
        ),
        Metric::new(
            "retained_pct",
            pooled_retained_pct(&all_rows),
            "%",
            "higher",
        ),
    ];
    let traced = args.trace.then(|| TracedRun {
        overhead_pct: (ops.ops_per_s() / traced_ops.ops_per_s() - 1.0) * 100.0,
        tracer: std::mem::replace(&mut tr, Tracer::new(false)),
        ops: traced_ops,
        rejected: Vec::new(),
    });
    Ok(RunResult {
        setup_s: setups.times(),
        ops,
        peak_rss_mb,
        post_failed: post.failed,
        post_checked: post.checked,
        quality,
        notes,
        traced,
    })
}

#[derive(Default)]
struct PostPhase {
    /// `(O2, drifted)` eval cycles of every drifted release.
    gain_pairs: Vec<(u64, u64)>,
    /// `(O2, oracle, drifted)` eval cycles of every drifted release, per
    /// program.
    retained_rows: Vec<Vec<(u64, u64, u64)>>,
    release0_matches: usize,
    checked: u64,
    failed: u64,
}

fn evaluate_pool(
    tr: &mut Tracer,
    programs: &[Program],
    built: &[Option<Binary>],
    cfg: &PipelineConfig,
) -> Result<PostPhase, String> {
    let mut out = PostPhase::default();
    for (p, program) in programs.iter().enumerate() {
        out.retained_rows.push(Vec::new());
        for (rel, source) in program.sources.iter().enumerate() {
            out.checked += 1;
            let Some(binary) = &built[p * RELEASES + rel] else {
                out.failed += 1;
                continue;
            };
            let mut w = program.workload.clone();
            w.source = source.clone();
            let err = |e: PipelineError| format!("{} release {rel}: {e}", w.name);
            let (drifted, hash) = layers::evaluate(tr, binary, &w, cfg).map_err(err)?;
            let o2 = tr
                .span("pipeline.cycle", |_| run_pgo_cycle(&w, PgoVariant::O2, cfg))
                .map_err(err)?;
            let oracle = tr
                .span("pipeline.cycle", |_| {
                    run_pgo_cycle(&w, PgoVariant::CsspgoFull, cfg)
                })
                .map_err(err)?;
            let mut ok = hash == o2.eval_result_hash;
            if rel == 0 {
                let exact = drifted.cycles == oracle.eval.cycles;
                out.release0_matches += usize::from(exact);
                ok &= exact;
            } else {
                out.gain_pairs.push((o2.eval.cycles, drifted.cycles));
                out.retained_rows[p].push((o2.eval.cycles, oracle.eval.cycles, drifted.cycles));
            }
            out.failed += u64::from(!ok);
        }
    }
    Ok(out)
}
