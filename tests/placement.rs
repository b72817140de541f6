//! Integration tests for Ball–Larus minimal counter placement: the sparse
//! mode must cut counter sites by at least the paper's 30% headline on
//! every server workload, and — because the Kirchhoff reconstruction is
//! exact — produce a bit-identical profile and optimized binary.

use csspgo::core::pipeline::{frontend, run_pgo_cycle, PgoVariant, PipelineConfig};
use csspgo::opt::instrument::{self, InstrumentConfig, Placement};
use csspgo::workloads::server_workloads;

/// Counter sites each placement plants in a workload's profiling build.
fn count_sites(source: &str, name: &str, placement: Placement) -> usize {
    let mut module = frontend(source, name, false).expect("workload compiles");
    let map = instrument::run_with(&mut module, &InstrumentConfig { placement });
    map.len()
}

#[test]
fn spanning_tree_cuts_counters_by_thirty_percent_on_every_server_workload() {
    for w in server_workloads() {
        let full = count_sites(&w.source, &w.name, Placement::Full);
        let sparse = count_sites(&w.source, &w.name, Placement::SpanningTree);
        assert!(
            (sparse as f64) <= 0.7 * full as f64,
            "{}: spanning-tree placement kept {sparse} of {full} counters \
             (needs >=30% reduction)",
            w.name
        );
    }
}

#[test]
fn sparse_instrumentation_profile_is_bit_identical_to_full() {
    for w in server_workloads() {
        let w = w.scaled(0.05);
        let cfg = |p: Placement| {
            PipelineConfig::builder()
                .placement(p)
                .build()
                .expect("valid test config")
        };
        let full = run_pgo_cycle(&w, PgoVariant::Instr, &cfg(Placement::Full)).unwrap();
        let sparse = run_pgo_cycle(&w, PgoVariant::Instr, &cfg(Placement::SpanningTree)).unwrap();

        assert!(
            sparse.counter_sites < full.counter_sites,
            "{}: sparse mode must plant fewer counters ({} vs {})",
            w.name,
            sparse.counter_sites,
            full.counter_sites
        );
        assert!(
            sparse.profiling.cycles < full.profiling.cycles,
            "{}: fewer counters must make the profiling run cheaper",
            w.name
        );
        // Exact reconstruction: the annotated profile — and therefore the
        // optimized binary — must be indistinguishable from full mode.
        assert_eq!(
            sparse.quality_counts, full.quality_counts,
            "{}: reconstructed block counts drifted from ground truth",
            w.name
        );
        assert_eq!(
            sparse.eval.cycles, full.eval.cycles,
            "{}: optimized binaries must perform identically",
            w.name
        );
        assert_eq!(
            sparse.eval_result_hash, full.eval_result_hash,
            "{}: behaviour must not change",
            w.name
        );
    }
}
