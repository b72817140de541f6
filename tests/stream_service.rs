//! Integration test for the streaming service surface: the
//! drift-detection → recompilation hook that keeps a continuously served
//! profile fresh.

use csspgo::core::pipeline::{run_pgo_cycle, run_pgo_cycle_drifted, PgoVariant, PipelineConfig};
use csspgo::core::stream::{StreamAggregator, StreamConfig};
use csspgo::sim::{Machine, SimConfig};
use csspgo::workloads::drift;

fn cfg() -> PipelineConfig {
    PipelineConfig::builder()
        .sample_period(89)
        .build()
        .expect("valid test config")
}

/// The full continuous-serving story: steady traffic folds cleanly, a
/// behaviour shift trips the drift detector, and the stale signal drives a
/// profile refresh through the existing drifted-recompile path.
#[test]
fn stale_epoch_triggers_drifted_recompile() {
    let src = r#"
fn hot_a(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn hot_b(x) {
    if (x % 7 == 0) { return x - 5; }
    return x * 3;
}
fn serve(n, mode) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (mode == 1) { s = s + hot_a(i); }
        if (mode != 1) { s = s + hot_b(i); }
        i = i + 1;
    }
    return s;
}
"#;
    let w = csspgo::core::Workload::new(
        "shifting",
        src,
        "serve",
        vec![vec![900, 1], vec![900, 1]],
        vec![vec![901, 1]],
    );

    // Probed build, served continuously.
    let module = csspgo::core::pipeline::frontend(src, "shifting", true).unwrap();
    let binary = csspgo::codegen::lower_module(&module, &csspgo::codegen::CodegenConfig::default());
    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 31,
            ..SimConfig::default()
        },
    );

    let stream_cfg = StreamConfig {
        drift_threshold: 0.8,
        ..StreamConfig::default()
    };
    let mut agg = StreamAggregator::new(&binary, stream_cfg, 2);

    // Two epochs of steady mode-1 traffic.
    for _ in 0..2 {
        machine.call("serve", &[2000, 1]).unwrap();
        agg.push_batch(machine.take_samples()).unwrap();
        let s = agg.seal_epoch();
        assert!(!s.stale, "steady traffic drifted: overlap {:.3}", s.overlap);
    }
    // Traffic shifts to mode 2: different hot function, profile goes stale.
    machine.call("serve", &[2000, 2]).unwrap();
    agg.push_batch(machine.take_samples()).unwrap();
    let shifted = agg.seal_epoch();
    assert!(
        shifted.stale && agg.is_stale(),
        "behaviour shift must be detected: overlap {:.3}",
        shifted.overlap
    );

    // The stale signal hooks the existing drifted-cycle path: recompile
    // with today's (drifted) source while profiling the old deployment.
    let drifted_src = drift::insert_body_comments(src);
    let refreshed =
        run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &cfg(), &drifted_src).unwrap();
    assert_eq!(
        refreshed.annotate_stats.stale_total(),
        0,
        "probe checksums survive comment-only drift"
    );
    let clean = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg()).unwrap();
    assert_eq!(refreshed.eval_result_hash, clean.eval_result_hash);
}
