//! Serial benchmark of the CSSPGO toolchain.
//!
//! ```text
//! perfbench --workload <pgo_cycle|rebuild_drifted|stream_ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Ops are issued one at a time from this thread; the program's own
//! rayon pool keeps its default size. The untraced run (`--trace 0`)
//! prints the end-to-end metrics; the traced run (`--trace 1`) prints the
//! per-layer metrics and writes its spans as Chrome trace-event JSON to
//! `perfbench/out/trace-<workload>-<seed>.json` (run from the repository
//! root).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod harness;
mod ingest;
mod layers;
mod pgo_cycle;
mod rebuild;
mod replay;
mod stats;
mod trace;

use harness::{Args, Metric, RunResult};
use std::fmt::Write as _;

const WORKLOADS: [&str; 3] = ["pgo_cycle", "rebuild_drifted", "stream_ingest"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or("n/a".into(), |v| format!("{v:.4}"))
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<30} {:>16} {:<8} (better: {})",
        m.name,
        fmt_value(m.value),
        m.unit,
        m.better
    );
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(r: &RunResult) -> Result<Vec<Metric>, String> {
    let quiet = r.ops.quiet_ms();
    let p90 = stats::percentile(&quiet, 0.9, stats::MIN_BEYOND);
    let peak = r
        .peak_rss_mb
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        Metric::new(
            "setup_s",
            stats::percentile(&r.setup_s, 0.25, 0),
            "s",
            "lower",
        ),
        Metric::new("ops_per_s", r.ops.ops_per_s(), "1/s", "higher"),
        Metric::new("op_ms_p50", stats::median(&quiet), "ms", "lower"),
        Metric::new("op_ms_p90", p90, "ms", "lower"),
        Metric::new("peak_rss_mb", peak, "MiB", "lower"),
    ])
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    let mut first = true;
    for m in metrics {
        let Some(v) = m.value.filter(|v| v.is_finite()) else {
            continue;
        };
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<(), String> {
    let r = match args.workload.as_str() {
        "pgo_cycle" => pgo_cycle::run(args)?,
        "rebuild_drifted" => rebuild::run(args)?,
        _ => ingest::run(args)?,
    };
    println!(
        "perfbench workload={} seed={} seconds={} mode={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        rayon::current_num_threads()
    );
    for note in &r.notes {
        println!("{note}");
    }
    let mut attempted = r.ops.attempted + r.post_checked;
    let mut failed = r.ops.failed + r.post_failed;
    let mut correct = failed == 0;

    let metrics = match &r.traced {
        None => end_to_end(&r)?,
        Some(t) => {
            attempted += t.ops.attempted;
            failed += t.ops.failed;
            correct = failed == 0 && t.rejected.is_empty();
            for why in &t.rejected {
                println!("trace rejected: {why}");
            }
            let out = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
            let json = t.tracer.to_chrome_json(&[
                ("workload", args.workload.clone()),
                ("seed", args.seed.to_string()),
                ("threads", rayon::current_num_threads().to_string()),
            ]);
            if let Some(dir) = std::path::Path::new(&out).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
            println!("trace: {} spans written to {out}", t.tracer.spans().len());
            layers::per_layer_metrics(&t.tracer, t.overhead_pct)
        }
    };

    let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "ops: {} attempted, {} failed; setups (s): {}",
        attempted,
        failed,
        setups.join(" ")
    );
    if r.traced.is_none() {
        println!(
            "op times: fastest {} runs of each deck op, {} pooled of {} timed",
            harness::QUIET_RUNS,
            r.ops.quiet_ms().len(),
            r.ops.ms.len()
        );
    }
    println!("metrics:");
    let error_pct = failed as f64 * 100.0 / attempted.max(1) as f64;
    print_metric(&Metric::new("error_pct", error_pct, "%", "lower"));
    for m in r.quality.iter().chain(&metrics) {
        print_metric(m);
    }
    println!(
        "{}",
        json_line(correct && attempted > 0, attempted.max(1), failed, &metrics)
    );
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
