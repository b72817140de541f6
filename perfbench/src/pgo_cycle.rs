//! `pgo_cycle`: one op is one `run_pgo_cycle` of a server program under
//! one PGO variant, with the default configuration.
//!
//! The deck holds every (program × variant) pair once per round and is
//! reshuffled each round. Each op's eval-result hash must equal the `-O2`
//! reference of the same dealt traffic, and a pair must give the same
//! cycles, hash and text size every time it comes up.

use crate::harness::{self, ms_since, Args, Metric, OpLog, Rng, RunResult, Setups, TracedRun};
use crate::replay::{replay_cycle, Replay};
use crate::stats::{geomean_change_pct, geomean_gain_pct};
use crate::trace::Tracer;
use csspgo_core::overlap::program_overlap;
use csspgo_core::pipeline::{run_pgo_cycle, PgoOutcome, PgoVariant, PipelineConfig, StageTimes};
use csspgo_core::workload::Workload;
use std::collections::HashMap;
use std::time::Instant;

const VARIANTS: [PgoVariant; 5] = PgoVariant::ALL;

/// What set-up leaves for the ops.
struct Setup {
    programs: Vec<Workload>,
    /// `-O2` eval-result hash and cycles per program.
    reference: Vec<(u64, u64)>,
}

fn setup(tr: &mut Tracer, seed: u64, cfg: &PipelineConfig) -> Result<Setup, String> {
    tr.span("setup", |tr| {
        let programs: Vec<Workload> = csspgo_workloads::server_workloads()
            .iter()
            .map(|w| csspgo_workloads::tenant_traffic_mix(w, seed))
            .collect();
        let mut reference = Vec::with_capacity(programs.len());
        for w in &programs {
            let o2 = tr
                .span("pipeline.cycle", |_| run_pgo_cycle(w, PgoVariant::O2, cfg))
                .map_err(|e| format!("{}: -O2 reference: {e}", w.name))?;
            reference.push((o2.eval_result_hash, o2.eval.cycles));
        }
        Ok(Setup {
            programs,
            reference,
        })
    })
}

/// What a repeated (program, variant) pair must reproduce.
fn fingerprint(o: &PgoOutcome) -> (u64, u64, u64) {
    (o.eval.cycles, o.eval_result_hash, o.sections.text)
}

/// Output check of one untraced op.
struct Checker {
    reference: Vec<(u64, u64)>,
    /// First outcome of each (program, variant) pair.
    first: HashMap<(usize, PgoVariant), PgoOutcome>,
}

impl Checker {
    fn check(&mut self, p: usize, o: &PgoOutcome) -> bool {
        let (ref_hash, ref_cycles) = self.reference[p];
        let same_behaviour = o.eval_result_hash == ref_hash;
        let o2_matches = o.variant != PgoVariant::O2 || o.eval.cycles == ref_cycles;
        let first = self
            .first
            .entry((p, o.variant))
            .or_insert_with(|| o.clone());
        same_behaviour && o2_matches && fingerprint(first) == fingerprint(o)
    }
}

fn add_stages(acc: &mut StageTimes, t: &StageTimes) {
    acc.compile_ms += t.compile_ms;
    acc.simulate_ms += t.simulate_ms;
    acc.correlate_ms += t.correlate_ms;
    acc.preinline_ms += t.preinline_ms;
    acc.serialize_ms += t.serialize_ms;
    acc.deserialize_ms += t.deserialize_ms;
    acc.inference_ms += t.inference_ms;
    acc.recompile_ms += t.recompile_ms;
    acc.evaluate_ms += t.evaluate_ms;
}

fn stage_rows(t: &StageTimes) -> [(&'static str, f64); 9] {
    [
        ("compile", t.compile_ms),
        ("simulate", t.simulate_ms),
        ("correlate", t.correlate_ms),
        ("preinline", t.preinline_ms),
        ("serialize", t.serialize_ms),
        ("deserialize", t.deserialize_ms),
        ("inference", t.inference_ms),
        ("recompile", t.recompile_ms),
        ("evaluate", t.evaluate_ms),
    ]
}

/// A stage whose summed time is at least this many ms must agree between
/// the replay and `PgoOutcome::stage_times` within a factor of
/// [`STAGE_FACTOR`]; shorter stages are too small to time reliably.
const STAGE_MIN_MS: f64 = 20.0;
const STAGE_FACTOR: f64 = 2.0;

/// Cross-checks summed replay stage times against the untraced cycles'.
fn cross_check(
    replayed: &StageTimes,
    untraced: &StageTimes,
    notes: &mut Vec<String>,
) -> Vec<String> {
    let mut rejected = Vec::new();
    notes.push("stage sums, traced replay vs PgoOutcome.stage_times (ms):".into());
    for ((name, r), (_, u)) in stage_rows(replayed).into_iter().zip(stage_rows(untraced)) {
        notes.push(format!("  {name:<12} {r:>10.2} {u:>10.2}"));
        if r.max(u) >= STAGE_MIN_MS && (r.min(u) * STAGE_FACTOR) < r.max(u) {
            rejected.push(format!(
                "stage {name}: replay {r:.2} ms vs untraced {u:.2} ms"
            ));
        }
    }
    rejected
}

fn replay_matches(r: &Replay, o: &PgoOutcome) -> bool {
    r.eval.cycles == o.eval.cycles
        && r.hash == o.eval_result_hash
        && r.text == o.sections.text
        && r.quality_counts == o.quality_counts
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let cfg = PipelineConfig::default();
    let mut tr = Tracer::new(args.trace);
    let (s, mut setups) = Setups::first(!args.trace, || setup(&mut tr, args.seed, &cfg))?;

    let mut checker = Checker {
        reference: s.reference,
        first: HashMap::new(),
    };
    let mut deck: Vec<(usize, usize)> = (0..s.programs.len())
        .flat_map(|p| (0..VARIANTS.len()).map(move |v| (p, v)))
        .collect();
    let mut rng = Rng::new(args.seed);
    let mut ops = OpLog::default();
    let mut traced_ops = OpLog::default();
    let mut rejected = Vec::new();
    let (mut replay_sum, mut untraced_sum) = (StageTimes::default(), StageTimes::default());
    let mut op_id = 0u64;

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        setups.between_rounds(|| setup(&mut tr, args.seed, &cfg))?;
        rng.shuffle(&mut deck);
        for &(p, v) in &deck {
            op_id += 1;
            let (w, variant) = (&s.programs[p], VARIANTS[v]);
            let untraced = |ops: &mut OpLog, checker: &mut Checker| {
                let t = Instant::now();
                let res = run_pgo_cycle(w, variant, &cfg);
                let ms = ms_since(t);
                let ok = res.as_ref().is_ok_and(|o| checker.check(p, o));
                ops.record(p * VARIANTS.len() + v, ms, ok);
                res.ok()
            };
            if !args.trace {
                untraced(&mut ops, &mut checker);
                continue;
            }
            // Traced: the untraced cycle and its replay, in alternating
            // order so neither always runs on warm caches.
            tr.set_op(op_id);
            let traced = |tr: &mut Tracer| tr.span("op", |tr| replay_cycle(tr, w, variant, &cfg));
            let (outcome, replay) = if op_id.is_multiple_of(2) {
                let o = untraced(&mut ops, &mut checker);
                (o, traced(&mut tr))
            } else {
                let r = traced(&mut tr);
                (untraced(&mut ops, &mut checker), r)
            };
            let replay_ms = tr.last_ms();
            let ok = match (&outcome, &replay) {
                (Some(o), Ok(r)) => {
                    add_stages(&mut replay_sum, &r.stages);
                    add_stages(&mut untraced_sum, &o.stage_times);
                    replay_matches(r, o)
                }
                _ => false,
            };
            if !ok {
                rejected.push(format!(
                    "{} {variant}: replay does not reproduce the cycle",
                    w.name
                ));
            }
            traced_ops.record(p * VARIANTS.len() + v, replay_ms, ok);
        }
    }

    let peak_rss_mb = harness::peak_rss_mb();
    let mut notes = vec![format!(
        "rounds of {} ops: {}",
        deck.len(),
        op_id / deck.len() as u64
    )];
    let quality = quality_metrics(&s.programs, &checker.first);
    let traced = args.trace.then(|| {
        rejected.extend(cross_check(&replay_sum, &untraced_sum, &mut notes));
        let replay_total: f64 = traced_ops.ms.iter().sum();
        let untraced_total: f64 = ops.ms.iter().sum();
        TracedRun {
            tracer: std::mem::replace(&mut tr, Tracer::new(false)),
            ops: traced_ops,
            overhead_pct: (replay_total / untraced_total - 1.0) * 100.0,
            rejected,
        }
    });
    Ok(RunResult {
        setup_s: setups.times(),
        ops,
        peak_rss_mb,
        post_failed: 0,
        post_checked: 0,
        quality,
        notes,
        traced,
    })
}

/// Simulated-cycle, size and overlap metrics from the first outcome of
/// every (program × variant) pair.
fn quality_metrics(
    programs: &[Workload],
    first: &HashMap<(usize, PgoVariant), PgoOutcome>,
) -> Vec<Metric> {
    // (baseline, variant) outcome pairs over all programs, if every pair ran.
    let pairs = |base: PgoVariant, v: PgoVariant| -> Option<Vec<(&PgoOutcome, &PgoOutcome)>> {
        (0..programs.len())
            .map(|p| Some((first.get(&(p, base))?, first.get(&(p, v))?)))
            .collect()
    };
    let gain = |v: PgoVariant| {
        let rows = pairs(PgoVariant::O2, v)?;
        let cycles: Vec<(u64, u64)> = rows
            .iter()
            .map(|(o2, x)| (o2.eval.cycles, x.eval.cycles))
            .collect();
        geomean_gain_pct(&cycles)
    };
    let text = pairs(PgoVariant::O2, PgoVariant::CsspgoFull).and_then(|rows| {
        let text: Vec<(u64, u64)> = rows
            .iter()
            .map(|(o2, x)| (o2.sections.text, x.sections.text))
            .collect();
        geomean_change_pct(&text)
    });
    let overlap = |v: PgoVariant| {
        let rows = pairs(PgoVariant::Instr, v)?;
        let sum: f64 = rows
            .iter()
            .map(|(gt, x)| program_overlap(&x.quality_counts, &gt.quality_counts))
            .sum();
        Some(sum / rows.len() as f64 * 100.0)
    };
    vec![
        Metric::new("gain_pct.autofdo", gain(PgoVariant::AutoFdo), "%", "higher"),
        Metric::new(
            "gain_pct.csspgo_probe",
            gain(PgoVariant::CsspgoProbeOnly),
            "%",
            "higher",
        ),
        Metric::new(
            "gain_pct.csspgo_full",
            gain(PgoVariant::CsspgoFull),
            "%",
            "higher",
        ),
        Metric::new("gain_pct.instr", gain(PgoVariant::Instr), "%", "higher"),
        Metric::new("text_pct.csspgo_full", text, "%", "lower"),
        Metric::new(
            "overlap_pct.autofdo",
            overlap(PgoVariant::AutoFdo),
            "%",
            "higher",
        ),
        Metric::new(
            "overlap_pct.csspgo_full",
            overlap(PgoVariant::CsspgoFull),
            "%",
            "higher",
        ),
    ]
}
