//! The streaming aggregation epoch invariant, end to end: folding N epochs
//! incrementally must produce a profile *bit-identical* to one-shot batch
//! ingestion of the concatenated samples — for real simulated traffic
//! (golden test), for arbitrary epoch boundaries over arbitrary sample
//! streams (property test), and across a snapshot→restore→resume cut.

use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_core::context::ContextProfile;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::stream::{SnapshotFormat, StreamAggregator, StreamConfig};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::{Machine, Sample, SimConfig};
use proptest::prelude::*;

const SRC: &str = r#"
fn leaf(x) {
    if (x % 5 == 0) { return x * 3; }
    return x - 1;
}
fn mid(x) {
    return leaf(x) + leaf(x + 1);
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + mid(i);
        i = i + 1;
    }
    return s;
}
"#;

fn probed_binary() -> Binary {
    let mut m = csspgo_lang::compile(SRC, "streamprop").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    lower_module(&m, &CodegenConfig::default())
}

/// The batch reference: full-stream RangeCounts + one sequential unwind.
fn batch_reference(
    binary: &Binary,
    graph: &TailCallGraph,
    samples: &[Sample],
) -> (RangeCounts, ContextProfile) {
    let mut rc = RangeCounts::default();
    rc.add_samples(binary, samples);
    let mut profile = ContextProfile::new();
    let mut uw = Unwinder::new(binary, Some(graph));
    uw.unwind_into(samples, &mut profile);
    (rc, profile)
}

fn real_traffic(binary: &Binary) -> Vec<Sample> {
    let mut machine = Machine::new(
        binary,
        SimConfig {
            sample_period: 19,
            ..SimConfig::default()
        },
    );
    for n in [2000i64, 1700, 2300] {
        machine.call("main", &[n]).unwrap();
    }
    machine.take_samples()
}

#[test]
fn golden_incremental_epochs_equal_batch_ingestion() {
    let binary = probed_binary();
    let samples = real_traffic(&binary);
    assert!(samples.len() > 200, "need a substantial stream");

    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &samples);
    let graph = TailCallGraph::build(&binary, &rc);
    let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

    for (epochs, shards) in [(1usize, 0usize), (3, 1), (5, 4), (11, 3)] {
        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        for batch in samples.chunks(samples.len().div_ceil(epochs)) {
            agg.push_batch(batch.to_vec()).unwrap();
            agg.seal_epoch();
        }
        // Bit-identity, checked on the serialized bytes, not just map equality.
        assert_eq!(
            serde_json::to_string(agg.context_profile()).unwrap(),
            serde_json::to_string(&profile_ref).unwrap(),
            "{epochs} epochs x {shards} shards diverged from batch"
        );
        assert_eq!(agg.range_counts(), &rc_ref);
    }
}

/// A strategy for raw addresses: mostly instruction starts, sometimes
/// arbitrary garbage the ingestion must tolerate (same shape as the
/// sharding property tests).
fn addr_strategy(n_insts: usize) -> BoxedStrategy<u64> {
    let n = n_insts as u64;
    prop_oneof![
        8 => (0..n).prop_map(|i| i),
        1 => any::<u64>(),
    ]
    .boxed()
}

fn resolve(binary: &Binary, raw: u64) -> u64 {
    if (raw as usize) < binary.len() {
        binary.addr_of(raw as usize)
    } else {
        raw
    }
}

type RawSample = (u64, Vec<(u64, u64)>, Vec<u64>);

fn sample_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<RawSample>> {
    let addr = || addr_strategy(n_insts);
    let lbr = proptest::collection::vec((addr(), addr()), 0..8);
    let stack = proptest::collection::vec(addr(), 0..6);
    proptest::collection::vec((addr(), lbr, stack), 0..120).boxed()
}

fn to_samples(binary: &Binary, raw: &[RawSample]) -> Vec<Sample> {
    raw.iter()
        .enumerate()
        .map(|(i, (pc, lbr, stack))| Sample {
            cycle: i as u64 * 17,
            pc: resolve(binary, *pc),
            lbr: lbr
                .iter()
                .map(|&(f, t)| (resolve(binary, f), resolve(binary, t)))
                .collect(),
            stack: stack.iter().map(|&a| resolve(binary, a)).collect(),
        })
        .collect()
}

/// Splits `samples` at fractional positions (in permille) drawn by
/// proptest, producing arbitrary (possibly empty) epoch batches that
/// concatenate to the stream.
fn split_at_fractions(samples: &[Sample], permille: &[usize]) -> Vec<Vec<Sample>> {
    let mut cuts: Vec<usize> = permille.iter().map(|f| f * samples.len() / 1000).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for c in cuts {
        out.push(samples[prev..c].to_vec());
        prev = c;
    }
    out.push(samples[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY sample stream (including garbage addresses and broken
    /// stacks), ANY epoch partition of it, and ANY shard count, the
    /// incrementally folded profile is bit-identical to the batch one.
    #[test]
    fn random_epoch_boundaries_preserve_bit_identity(
        raw in sample_stream_strategy(64),
        fractions in proptest::collection::vec(0usize..1000, 0..6),
        shards in 0usize..5,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);
        let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        let batches = split_at_fractions(&samples, &fractions);
        let epochs = batches.len();
        for batch in batches {
            agg.push_batch(batch).unwrap();
            agg.seal_epoch();
        }
        prop_assert_eq!(agg.epochs_sealed(), epochs as u64);
        prop_assert_eq!(agg.total_samples(), samples.len() as u64);
        prop_assert_eq!(agg.range_counts(), &rc_ref);
        let incr = serde_json::to_string(agg.context_profile()).unwrap();
        let batch = serde_json::to_string(&profile_ref).unwrap();
        prop_assert_eq!(incr, batch);
    }

    /// Snapshotting at ANY epoch boundary, restoring, and resuming the
    /// remaining epochs lands on the same batch-identical profile.
    #[test]
    fn snapshot_restore_at_random_cut_preserves_bit_identity(
        raw in sample_stream_strategy(64),
        cut_permille in 0usize..1000,
        shards in 0usize..4,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);
        let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

        let cut = cut_permille * samples.len() / 1000;
        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        agg.push_batch(samples[..cut].to_vec()).unwrap();
        agg.seal_epoch();

        let snap = agg.snapshot_as(SnapshotFormat::Binary);
        let mut resumed =
            StreamAggregator::restore_from(&binary, StreamConfig::default(), shards, &snap)
                .unwrap();
        prop_assert_eq!(resumed.total_samples(), cut as u64);
        resumed.push_batch(samples[cut..].to_vec()).unwrap();
        resumed.seal_epoch();

        prop_assert_eq!(resumed.range_counts(), &rc_ref);
        let resumed_json = serde_json::to_string(resumed.context_profile()).unwrap();
        let batch_json = serde_json::to_string(&profile_ref).unwrap();
        prop_assert_eq!(resumed_json, batch_json);
    }
}

/// A call chain with a tail call (`hop` → `leaf`), so snapshots of its
/// traffic carry a pinned tail-call graph.
const TAIL_SRC: &str = r#"
fn leaf(x) {
    let i = 0;
    while (i < x % 7 + 2) { i = i + 1; }
    return i;
}
fn hop(x) { return leaf(x + 1); }
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + hop(i);
        i = i + 1;
    }
    return s;
}
"#;

/// Every truncation and every single-bit flip of a binary stream snapshot
/// must either fail to restore, or restore an aggregator that survives
/// finalization, instruction-count derivation and one more epoch. Indices
/// read back from the payload (ranges, branch endpoints, tail-call sites)
/// are checked on restore, never trusted to index the binary later.
#[test]
fn mutated_binary_snapshots_error_or_restore_usable_state() {
    let mut m = csspgo_lang::compile(TAIL_SRC, "tailsnap").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    let binary = lower_module(&m, &CodegenConfig::default());
    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 29,
            ..SimConfig::default()
        },
    );
    machine.call("main", &[120]).unwrap();
    let first = machine.take_samples();
    machine.call("main", &[90]).unwrap();
    let second = machine.take_samples();

    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &first);
    let graph = TailCallGraph::build(&binary, &rc);
    assert!(
        graph.edge_count() > 0,
        "snapshot must pin a tail-call graph"
    );
    let mut agg = StreamAggregator::with_tail_graph(&binary, StreamConfig::default(), 1, graph);
    agg.push_batch(first).unwrap();
    agg.seal_epoch();
    let snap = agg.snapshot_as(SnapshotFormat::Binary);

    let survives = |bytes: &[u8]| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Ok(mut restored) =
                StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, bytes)
            {
                restored.to_probe_profile(0);
                restored.range_counts().inst_counts(&binary);
                restored.push_batch(second.clone()).unwrap();
                restored.seal_epoch();
            }
        }))
        .is_ok()
    };
    let mut panicked = Vec::new();
    for cut in 0..snap.len() {
        if !survives(&snap[..cut]) {
            panicked.push(format!("truncated to {cut} bytes"));
        }
    }
    for byte in 0..snap.len() {
        for bit in 0..8 {
            let mut mutated = snap.clone();
            mutated[byte] ^= 1 << bit;
            if !survives(&mutated) {
                panicked.push(format!("bit {bit} of byte {byte} flipped"));
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {} mutations of a {}-byte snapshot panicked, e.g. {:?}",
        panicked.len(),
        snap.len() * 9,
        snap.len(),
        &panicked[..panicked.len().min(5)]
    );
}
