//! Sharded sample ingestion: the profile-generation analogue of
//! distributed profiling hosts, run across local threads.
//!
//! The sample stream of a profiling run is split into contiguous chunks;
//! each shard builds a partial [`RangeCounts`] / [`ContextProfile`]
//! independently, and partials are combined through the same count-additive
//! merge machinery that already services cross-host profile merging
//! ([`crate::merge`]). Because every per-sample contribution is an
//! order-independent `+=` into keyed maps — and the unwinder carries no
//! cross-sample state — the merged result is **identical** to the
//! sequential path for any shard count (proven by tests here and property
//! tests in `tests/`).

use crate::context::ContextProfile;
use crate::merge::merge_context;
use crate::ranges::RangeCounts;
use crate::tailcall::{InferStats, TailCallGraph};
use crate::unwind::Unwinder;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use rayon::prelude::*;

/// Resolves a shard-count request: `0` means one shard per available
/// thread (`RAYON_NUM_THREADS` honored).
pub fn resolve_shards(requested: usize, n_samples: usize) -> usize {
    let shards = if requested == 0 {
        rayon::current_num_threads()
    } else {
        requested
    };
    shards.clamp(1, n_samples.max(1))
}

/// Splits `samples` into at most `shards` contiguous chunks.
fn chunked(samples: &[Sample], shards: usize) -> Vec<&[Sample]> {
    if samples.is_empty() {
        return Vec::new();
    }
    let size = samples.len().div_ceil(shards);
    samples.chunks(size).collect()
}

/// Builds [`RangeCounts`] from `samples`, `shards`-way parallel
/// (`0` = auto). Identical to a sequential
/// [`RangeCounts::add_samples`] over the full stream.
pub fn sharded_range_counts(binary: &Binary, samples: &[Sample], shards: usize) -> RangeCounts {
    let shards = resolve_shards(shards, samples.len());
    if shards <= 1 {
        let mut rc = RangeCounts::default();
        rc.add_samples(binary, samples);
        return rc;
    }
    let partials: Vec<RangeCounts> = chunked(samples, shards)
        .into_par_iter()
        .map(|chunk| {
            let mut rc = RangeCounts::default();
            rc.add_samples(binary, chunk);
            rc
        })
        .collect();
    let mut merged = RangeCounts::default();
    for p in &partials {
        merged.merge(p);
    }
    merged
}

/// Context-profile construction result, including the unwinder's
/// diagnostic counters (summed across shards).
pub struct UnwindOutput {
    pub profile: ContextProfile,
    pub infer_stats: InferStats,
    pub broken_stacks: u64,
}

/// Unwinds `samples` into a [`ContextProfile`], `shards`-way parallel
/// (`0` = auto) — the one production unwinding entry, used by the batch
/// pipeline, stream epochs, the CLI and the benches. Each shard runs the
/// batched kernel ([`Unwinder::unwind_batched`]: sample dedup +
/// hash-consed trie); the unwinder processes each sample independently,
/// so chunking plus [`merge_context`] reproduces the sequential trie
/// exactly. Tests pin the result, bit for bit, to the sequential reference
/// [`Unwinder::unwind_into`].
pub fn sharded_context_profile(
    binary: &Binary,
    tail_graph: Option<&TailCallGraph>,
    samples: &[Sample],
    shards: usize,
) -> UnwindOutput {
    let shards = resolve_shards(shards, samples.len());
    if shards <= 1 {
        let mut uw = Unwinder::new(binary, tail_graph);
        let profile = uw.unwind_batched(samples);
        return UnwindOutput {
            profile,
            infer_stats: uw.infer_stats,
            broken_stacks: uw.broken_stacks,
        };
    }
    let partials: Vec<(ContextProfile, InferStats, u64)> = chunked(samples, shards)
        .into_par_iter()
        .map(|chunk| {
            let mut uw = Unwinder::new(binary, tail_graph);
            let profile = uw.unwind_batched(chunk);
            (profile, uw.infer_stats, uw.broken_stacks)
        })
        .collect();
    let mut out = UnwindOutput {
        profile: ContextProfile::new(),
        infer_stats: InferStats::default(),
        broken_stacks: 0,
    };
    for (profile, stats, broken) in &partials {
        merge_context(&mut out.profile, profile);
        out.infer_stats.recovered += stats.recovered;
        out.infer_stats.failed += stats.failed;
        out.broken_stacks += broken;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

    const SRC: &str = r#"
fn helper(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    return s;
}
"#;

    fn profiled() -> (Binary, Vec<Sample>) {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        let b = lower_module(&m, &CodegenConfig::default());
        let mut machine = Machine::new(
            &b,
            SimConfig {
                sample_period: 23,
                ..SimConfig::default()
            },
        );
        machine.call("main", &[6000]).unwrap();
        let samples = machine.take_samples();
        assert!(samples.len() > 50, "need a meaningful stream to shard");
        (b, samples)
    }

    #[test]
    fn sharded_range_counts_equal_sequential_for_any_shard_count() {
        let (b, samples) = profiled();
        let mut seq = RangeCounts::default();
        seq.add_samples(&b, &samples);
        for shards in [1, 2, 3, 7, 16, samples.len()] {
            let par = sharded_range_counts(&b, &samples, shards);
            assert_eq!(par, seq, "{shards} shards diverged");
        }
    }

    #[test]
    fn sharded_context_profile_equals_sequential() {
        let (b, samples) = profiled();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let graph = TailCallGraph::build(&b, &rc);

        let mut seq = ContextProfile::new();
        let mut uw = Unwinder::new(&b, Some(&graph));
        uw.unwind_into(&samples, &mut seq);

        for shards in [1, 2, 5, 13] {
            let out = sharded_context_profile(&b, Some(&graph), &samples, shards);
            assert_eq!(out.profile, seq, "{shards} shards diverged");
            assert_eq!(out.infer_stats.recovered, uw.infer_stats.recovered);
            assert_eq!(out.infer_stats.failed, uw.infer_stats.failed);
            assert_eq!(out.broken_stacks, uw.broken_stacks);
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let (b, _) = profiled();
        let rc = sharded_range_counts(&b, &[], 0);
        assert!(rc.ranges.is_empty() && rc.branches.is_empty());
        let out = sharded_context_profile(&b, None, &[], 4);
        assert_eq!(out.profile.total(), 0);
    }
}
