//! **Ablation (paper §III.B "Synchronizing LBR and stack sample")**: PEBS
//! on vs off.
//!
//! "Due to sampling skid, we observed that stack sample can sometimes lag
//! behind LBR sample by one frame. Fortunately, PEBS can be used to
//! eliminate the skid so both stack sample and LBR sample are always
//! synchronized."
//!
//! Without PEBS our simulator drops the leaf frame from ~1/3 of stack
//! samples; the unwinder then reconstructs fewer and shallower contexts,
//! and end-to-end CSSPGO performance suffers.

use csspgo_bench::{experiment_config, improvement_pct, traffic_scale};
use csspgo_core::pipeline::{profiling_build, profiling_run, run_pgo_cycle, PgoVariant};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::tailcall::TailCallGraph;

fn main() {
    let mut cfg = experiment_config();
    let scale = traffic_scale();
    println!("# Ablation — PEBS vs sampling skid (ad_retriever), scale={scale}");
    let w = csspgo_workloads::ad_retriever().scaled(scale);

    let autofdo = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).expect("autofdo");

    println!(
        "| sampling | broken stacks | context samples | trie nodes | full CSSPGO vs AutoFDO |"
    );
    println!("|---|---|---|---|---|");
    for pebs in [true, false] {
        cfg.pebs = pebs;
        // Direct unwinder statistics on the full-CSSPGO profiling run.
        let full = PgoVariant::CsspgoFull;
        let (b, _) = profiling_build(&w.source, &w.name, full, &cfg).expect("compiles");
        let samples = profiling_run(&b, &w, full, &cfg).expect("runs").samples;
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let graph = TailCallGraph::build(&b, &rc);
        let unwound = sharded_context_profile(&b, Some(&graph), &samples, cfg.ingest_shards);
        let profile = unwound.profile;

        let outcome = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).expect("full");
        println!(
            "| {} | {} | {} | {} | {:+.2}% |",
            if pebs {
                "PEBS (`:upp`)"
            } else {
                "no PEBS (skid)"
            },
            unwound.broken_stacks,
            profile.total(),
            profile.node_count(),
            improvement_pct(autofdo.eval.cycles, outcome.eval.cycles),
        );
    }
    println!("\n(the paper's `perf record -g --call-graph fp -e br_inst_retired.near_taken:upp`)");
}
