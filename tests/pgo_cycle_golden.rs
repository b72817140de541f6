//! Golden pin of the PGO cycle's deterministic outcome.
//!
//! Every fig. 6 server workload at scale 0.05 runs through all five
//! variants, plus one drifted cycle (stale recovery + MCF inference) and
//! one sparse-placement instrumented cycle. Each deterministic
//! [`PgoOutcome`] field — everything but `stage_times` — is rendered to
//! text and compared with `tests/golden/pgo_cycle.txt`, so any change to
//! what a cycle computes shows up as a diff. Re-bless with
//! `BLESS=1 cargo test --test pgo_cycle_golden`.

use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::{
    run_pgo_cycle, run_pgo_cycle_drifted, PgoOutcome, PgoVariant, PipelineConfig,
};
use csspgo::core::stalematch::StaleMatching;
use csspgo::opt::instrument::Placement;
use csspgo::workloads::{drift, server_workloads};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALE: f64 = 0.05;

/// FNV-1a digest of the quality snapshot, in (guid, block) order.
fn quality_digest(o: &PgoOutcome) -> u64 {
    let sorted: BTreeMap<_, BTreeMap<_, _>> = o
        .quality_counts
        .iter()
        .map(|(g, blocks)| (*g, blocks.iter().map(|(b, c)| (b.0, *c)).collect()))
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (g, blocks) in sorted {
        for (b, c) in blocks {
            for word in [g, u64::from(b), c] {
                h ^= word;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One outcome as a block of `key: value` lines.
fn render(out: &mut String, label: &str, o: &PgoOutcome) {
    let a = &o.annotate_stats;
    let inf = &a.inference;
    writeln!(out, "[{label}]").unwrap();
    writeln!(out, "profiling: {:?}", o.profiling).unwrap();
    writeln!(out, "eval: {:?}", o.eval).unwrap();
    writeln!(out, "eval_result_hash: {:#018x}", o.eval_result_hash).unwrap();
    writeln!(out, "sections: {:?}", o.sections).unwrap();
    writeln!(out, "profiling_sections: {:?}", o.profiling_sections).unwrap();
    writeln!(
        out,
        "annotate: annotated={} stale_dropped={} stale_recovered={} replayed_inlines={}",
        a.annotated, a.stale_dropped, a.stale_recovered, a.replayed_inlines
    )
    .unwrap();
    writeln!(
        out,
        "inference: functions={} counts_adjusted={} flow_moved={} residual_cost={}",
        inf.functions, inf.counts_adjusted, inf.flow_moved, inf.residual_cost
    )
    .unwrap();
    writeln!(out, "provenance: {:?}", a.provenance).unwrap();
    writeln!(
        out,
        "context_nodes: before_trim={} after_trim={}",
        o.context_nodes_before_trim, o.context_nodes_after_trim
    )
    .unwrap();
    writeln!(out, "plan_len: {}", o.plan_len).unwrap();
    writeln!(out, "counter_sites: {}", o.counter_sites).unwrap();
    writeln!(out, "infer_stats: {:?}", o.infer_stats).unwrap();
    writeln!(out, "quality_digest: {:#018x}", quality_digest(o)).unwrap();
    out.push('\n');
}

fn golden_text() -> String {
    let cfg = PipelineConfig::default();
    let mut out = String::new();
    let workloads: Vec<_> = server_workloads().iter().map(|w| w.scaled(SCALE)).collect();
    for w in &workloads {
        for v in PgoVariant::ALL {
            let o = run_pgo_cycle(w, v, &cfg).unwrap_or_else(|e| panic!("{}/{v}: {e}", w.name));
            render(&mut out, &format!("{} / {v}", w.name), &o);
        }
    }

    let w = &workloads[0];
    let recover = PipelineConfig::builder()
        .stale_matching(StaleMatching::Recover)
        .inference(InferenceMode::Mcf)
        .build()
        .expect("valid config");
    let drifted = drift::change_cfg(&w.source);
    let o = run_pgo_cycle_drifted(w, PgoVariant::CsspgoFull, &recover, &drifted)
        .expect("drifted cycle runs");
    render(
        &mut out,
        &format!("{} / drifted change_cfg / recover+mcf", w.name),
        &o,
    );

    let sparse = PipelineConfig::builder()
        .placement(Placement::SpanningTree)
        .build()
        .expect("valid config");
    let o = run_pgo_cycle(w, PgoVariant::Instr, &sparse).expect("sparse cycle runs");
    render(
        &mut out,
        &format!("{} / Instr PGO / spanning_tree", w.name),
        &o,
    );
    out
}

#[test]
fn pgo_cycle_outcomes_match_golden() {
    let text = golden_text();
    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "pgo_cycle.txt",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &text).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test --test pgo_cycle_golden`");
    assert!(
        text == pinned,
        "PGO cycle outcomes drifted from tests/golden/pgo_cycle.txt; if intentional, \
         re-bless with `BLESS=1 cargo test --test pgo_cycle_golden`\n--- got ---\n{text}"
    );
}
