//! `stream_ingest`: one op is one epoch folded into a streaming
//! aggregator — `push_batch` per 256-sample batch, then `seal_epoch`.
//! Every [`SNAPSHOT_EVERY`]-th epoch of a stream also takes a binary
//! snapshot and restores from it; the restored aggregator carries on.
//!
//! Set-up simulates the training traffic of the five server programs with
//! the fleet defaults (4 calls per epoch, 256-sample batches, a tail-call
//! graph pinned from the calibration epoch) and keeps the samples per
//! epoch. A round replays all five streams, their epochs interleaved in a
//! seeded order. Each snapshot must restore to an equal aggregator, and
//! at the end of each stream the cumulative context profile must equal a
//! one-shot `sharded_context_profile` of the same samples and graph.

use crate::harness::{self, ms_since, Args, OpLog, Rng, RunResult, Setups, TracedRun};
use crate::layers;
use crate::trace::Tracer;
use csspgo_codegen::Binary;
use csspgo_core::context::ContextProfile;
use csspgo_core::pipeline::{PipelineConfig, PipelineError};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::stream::{SnapshotFormat, StreamAggregator};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_sim::{Machine, RunStats, Sample};
use std::time::Instant;

/// Training calls per epoch (the fleet default).
const EPOCH_CALLS: usize = 4;
/// Samples drained off the PMU per batch (the fleet default).
const BATCH_SAMPLES: usize = 256;
/// Snapshot and restore every this many epochs of a stream.
const SNAPSHOT_EVERY: usize = 8;

/// One program's recorded stream.
struct Stream {
    binary: Binary,
    graph: TailCallGraph,
    /// Batches of each epoch; epoch 0 is the calibration epoch.
    epochs: Vec<Vec<Vec<Sample>>>,
}

fn record_stream(
    tr: &mut Tracer,
    w: &csspgo_core::workload::Workload,
    cfg: &PipelineConfig,
) -> Result<Stream, PipelineError> {
    let binary = layers::profiling_build(tr, w, true, cfg)?;
    let mut epochs: Vec<Vec<Vec<Sample>>> = Vec::new();
    let stats = tr.span("sim.profile", |_| -> Result<RunStats, PipelineError> {
        let mut machine = Machine::new(&binary, layers::sim_config(cfg, cfg.sample_period));
        for (name, values) in &w.setup {
            machine.set_global(name, values);
        }
        for (i, calls) in w.train_calls.chunks(EPOCH_CALLS).enumerate() {
            for args in calls {
                machine.call(&w.entry, args)?;
            }
            // The calibration epoch lands as one batch, as in the fleet.
            let mut batches = Vec::new();
            if i == 0 {
                batches.push(machine.take_samples());
            }
            while machine.pending_samples() > 0 {
                batches.push(machine.take_sample_batch(BATCH_SAMPLES));
            }
            epochs.push(batches);
        }
        Ok(*machine.stats())
    })?;
    layers::note_run(tr, &stats);
    let calibration = epochs.first().map(|e| e.concat()).unwrap_or_default();
    let rc = tr.span("correlate.ranges", |_| {
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &calibration);
        rc
    });
    tr.note("samples", calibration.len() as f64);
    let graph = tr.span("correlate.tailgraph", |_| {
        TailCallGraph::build(&binary, &rc)
    });
    Ok(Stream {
        binary,
        graph,
        epochs,
    })
}

fn setup(tr: &mut Tracer, seed: u64, cfg: &PipelineConfig) -> Result<Vec<Stream>, String> {
    tr.span("setup", |tr| {
        csspgo_workloads::server_workloads()
            .iter()
            .map(|w| {
                let dealt = csspgo_workloads::tenant_traffic_mix(w, seed);
                record_stream(tr, &dealt, cfg).map_err(|e| format!("{}: recording: {e}", w.name))
            })
            .collect()
    })
}

/// A snapshot taken by an op and the aggregator restored from it.
type Restored<'b> = Option<(Vec<u8>, StreamAggregator<'b>)>;

/// One op: fold epoch `e` of stream `s` into `agg`.
fn fold_epoch<'b>(
    tr: &mut Tracer,
    agg: &mut StreamAggregator<'b>,
    stream: &'b Stream,
    batches: Vec<Vec<Sample>>,
    e: usize,
    cfg: &PipelineConfig,
) -> Result<Restored<'b>, PipelineError> {
    for batch in batches {
        tr.span("stream.push", |_| agg.push_batch(batch))?;
    }
    let summary = tr.span("stream.seal", |_| agg.seal_epoch());
    tr.note("samples", summary.samples as f64);
    tr.note("ingest_ms", summary.ingest_ms);
    tr.note("unwind_ms", summary.unwind_ms);
    tr.note("fold_ms", summary.fold_ms);
    if !(e + 1).is_multiple_of(SNAPSHOT_EVERY) {
        return Ok(None);
    }
    let bytes = tr.span("stream.snapshot", |_| {
        agg.snapshot_as(SnapshotFormat::Binary)
    });
    tr.note("bytes", bytes.len() as f64);
    let restored = tr.span("stream.restore", |_| {
        StreamAggregator::restore_from(
            &stream.binary,
            cfg.stream.clone(),
            cfg.ingest_shards,
            &bytes,
        )
    })?;
    Ok(Some((bytes, restored)))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let cfg = PipelineConfig::default();
    let mut tr = Tracer::new(args.trace);
    let (streams, mut setups) = Setups::first(!args.trace, || setup(&mut tr, args.seed, &cfg))?;
    // One-shot reference profiles, computed on first use outside any op.
    let mut reference: Vec<Option<ContextProfile>> = vec![None; streams.len()];

    let mut order: Vec<usize> = streams
        .iter()
        .enumerate()
        .flat_map(|(s, st)| std::iter::repeat_n(s, st.epochs.len()))
        .collect();
    let mut rng = Rng::new(args.seed);
    let (mut ops, mut traced_ops) = (OpLog::default(), OpLog::default());
    let mut op_id = 0u64;
    let mut round = 0usize;

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || (args.trace && round % 2 == 1) {
        setups.between_rounds(|| setup(&mut tr, args.seed, &cfg))?;
        let traced_round = args.trace && round % 2 == 1;
        tr.set_recording(traced_round);
        rng.shuffle(&mut order);
        let mut aggs: Vec<StreamAggregator<'_>> = streams
            .iter()
            .map(|st| {
                StreamAggregator::with_tail_graph(
                    &st.binary,
                    cfg.stream.clone(),
                    cfg.ingest_shards,
                    st.graph.clone(),
                )
            })
            .collect();
        let mut next = vec![0usize; streams.len()];
        for &s in &order {
            let (stream, e) = (&streams[s], next[s]);
            next[s] += 1;
            let batches = stream.epochs[e].clone();
            op_id += 1;
            tr.set_op(op_id);
            let t = Instant::now();
            let res = tr.span("op", |tr| {
                fold_epoch(tr, &mut aggs[s], stream, batches, e, &cfg)
            });
            let ms = ms_since(t);
            let mut ok = match res {
                Ok(None) => true,
                Ok(Some((bytes, restored))) => {
                    let equal = restored.snapshot_as(SnapshotFormat::Binary) == bytes
                        && restored.context_profile() == aggs[s].context_profile()
                        && restored.range_counts() == aggs[s].range_counts()
                        && restored.total_samples() == aggs[s].total_samples();
                    aggs[s] = restored;
                    equal
                }
                Err(_) => false,
            };
            if e + 1 == stream.epochs.len() {
                let want = reference[s].get_or_insert_with(|| {
                    let all: Vec<Sample> =
                        stream.epochs.iter().flatten().flatten().cloned().collect();
                    sharded_context_profile(
                        &stream.binary,
                        Some(&stream.graph),
                        &all,
                        cfg.ingest_shards,
                    )
                    .profile
                });
                ok &= aggs[s].context_profile() == &*want;
            }
            let log = if traced_round {
                &mut traced_ops
            } else {
                &mut ops
            };
            log.record(s * 1000 + e, ms, ok);
        }
        round += 1;
    }

    let peak_rss_mb = harness::peak_rss_mb();
    let epochs: usize = streams.iter().map(|s| s.epochs.len()).sum();
    let notes = vec![format!(
        "rounds of {epochs} epochs over {} streams: {round}",
        streams.len()
    )];
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
        post_failed: 0,
        post_checked: 0,
        quality: Vec::new(),
        notes,
        traced,
    })
}
