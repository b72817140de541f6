//! Shared plumbing: arguments, the seeded deck shuffler, op logs and the
//! metric records every workload returns.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed that deals the traffic and orders the operations.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
}

/// SplitMix64: a tiny seeded generator for dealing operation order.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fbe_9c4a_11d5)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Runs of each deck op that the end-to-end times keep: its fastest. Four
/// per op leave ten of a 25-op deck's pooled times beyond their p90.
pub const QUIET_RUNS: usize = 4;

/// Wall times and check verdicts of the operations of one mode.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    /// Wall time of each operation, in ms (output checks excluded).
    pub ms: Vec<f64>,
    /// Which op of the workload's deck each time belongs to.
    pub keys: Vec<usize>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
}

impl OpLog {
    /// Records one run of deck op `key`.
    pub fn record(&mut self, key: usize, ms: f64, ok: bool) {
        self.ms.push(ms);
        self.keys.push(key);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The fastest [`QUIET_RUNS`] wall times of every deck op, pooled.
    /// Each op counts equally, so the pool keeps the workload's op mix.
    /// On a shared machine a run can spend seconds or its whole length a
    /// third slower while neighbours contend for the host; an op's
    /// fastest runs are those that ran on a quiet host, so these times
    /// measure the program and not the neighbours.
    pub fn quiet_ms(&self) -> Vec<f64> {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&k, &ms) in self.keys.iter().zip(&self.ms) {
            by_key.entry(k).or_default().push(ms);
        }
        let mut pooled = Vec::new();
        for mut times in by_key.into_values() {
            times.sort_by(f64::total_cmp);
            pooled.extend(times.into_iter().take(QUIET_RUNS));
        }
        pooled
    }

    /// Operations per second over [`OpLog::quiet_ms`]: the rate of a
    /// round in which every deck op takes the mean of its fastest times.
    pub fn ops_per_s(&self) -> f64 {
        let quiet = self.quiet_ms();
        let total_s: f64 = quiet.iter().sum::<f64>() / 1e3;
        if total_s > 0.0 {
            quiet.len() as f64 / total_s
        } else {
            0.0
        }
    }
}

/// One named metric. `value` is `None` when it is undefined for this run
/// (too few samples, or a ratio whose base is not positive).
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

impl Metric {
    /// A metric; pass an `Option` for one that may be undefined.
    pub fn new(
        name: &'static str,
        value: impl Into<Option<f64>>,
        unit: &'static str,
        better: &'static str,
    ) -> Self {
        Metric {
            name,
            value: value.into(),
            unit,
            better,
        }
    }
}

/// The traced half of a run.
#[derive(Debug)]
pub struct TracedRun {
    /// Every span of the traced run: set-up, traced ops and post-phase.
    pub tracer: Tracer,
    /// Ops run with tracing on.
    pub ops: OpLog,
    /// Traced vs untraced cost of the same work, in percent.
    pub overhead_pct: f64,
    /// Why the trace was rejected, if it was.
    pub rejected: Vec<String>,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Untraced ops.
    pub ops: OpLog,
    /// Peak RSS in MiB when the timed phase ended (set-up included,
    /// post-phase checks excluded).
    pub peak_rss_mb: Option<f64>,
    /// Output checks of the post-phase that failed (each counts as one
    /// failed op).
    pub post_failed: u64,
    /// Post-phase checks run.
    pub post_checked: u64,
    /// Workload-specific quality metrics (simulated cycles and sizes).
    pub quality: Vec<Metric>,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// The traced half, in traced mode.
    pub traced: Option<TracedRun>,
}

/// Set-up may take at most about this share of the timed phase.
const SETUP_SHARE: f64 = 0.1;
/// Shortest gap between two set-ups, in seconds.
const SETUP_GAP_MIN_S: f64 = 1.0;

/// Set-up times read across the whole run. The first set-up gives the
/// workload its inputs; in an untraced run the set-up is run again, and
/// its result dropped, between rounds of the timed phase, at most
/// [`SETUP_SHARE`] of the time. A spell of a slow host then holds only
/// some of the set-ups, as it holds only some of each op's runs.
#[derive(Debug)]
pub struct Setups {
    times: Vec<f64>,
    gap_s: f64,
    last: Instant,
    again: bool,
}

impl Setups {
    /// Runs the first set-up; `again` allows the later ones.
    pub fn first<T, E>(
        again: bool,
        setup: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Setups), E> {
        let t = Instant::now();
        let value = setup()?;
        let s = t.elapsed().as_secs_f64();
        let setups = Setups {
            times: vec![s],
            gap_s: (s / SETUP_SHARE).max(SETUP_GAP_MIN_S),
            last: Instant::now(),
            again,
        };
        Ok((value, setups))
    }

    /// Called between rounds: runs the set-up again, dropping its result,
    /// once the gap since the last one has passed.
    pub fn between_rounds<T, E>(&mut self, setup: impl FnOnce() -> Result<T, E>) -> Result<(), E> {
        if !self.again || self.last.elapsed().as_secs_f64() < self.gap_s {
            return Ok(());
        }
        let t = Instant::now();
        drop(setup()?);
        self.times.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        Ok(())
    }

    /// Wall time of each set-up, in seconds.
    pub fn times(self) -> Vec<f64> {
        self.times
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..25).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..25).collect();
        Rng::new(4).shuffle(&mut c);
        assert_ne!(a, c, "another seed, another order");
        c.sort_unstable();
        assert_eq!(c, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn set_up_reruns_only_between_rounds_after_its_gap() {
        let (value, mut setups) = Setups::first(true, || Ok::<_, ()>(7)).unwrap();
        assert_eq!(value, 7);
        // Straight after the first set-up the gap has not passed.
        setups
            .between_rounds(|| -> Result<(), ()> { panic!("ran too soon") })
            .unwrap();
        setups.last -= std::time::Duration::from_secs_f64(setups.gap_s);
        setups.between_rounds(|| Ok::<_, ()>(8)).unwrap();
        assert_eq!(setups.times().len(), 2);
        // A traced run sets up once.
        let (_, mut once) = Setups::first(false, || Ok::<_, ()>(())).unwrap();
        once.last -= std::time::Duration::from_secs(3600);
        once.between_rounds(|| -> Result<(), ()> { panic!("traced run set up twice") })
            .unwrap();
        assert_eq!(once.times().len(), 1);
    }

    #[test]
    fn op_log_counts_failures_and_rate() {
        let mut log = OpLog::default();
        log.record(0, 500.0, true);
        log.record(1, 500.0, false);
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert!((log.ops_per_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_times_keep_each_ops_fastest_runs() {
        // Every op of a 25-op deck stalls twice in six runs; op k
        // otherwise takes k + 1 ms.
        let mut log = OpLog::default();
        for round in 0..6 {
            for k in 0..25 {
                let ms = if round % 3 == 1 {
                    900.0
                } else {
                    k as f64 + 1.0
                };
                log.record(k, ms, true);
            }
        }
        let quiet = log.quiet_ms();
        assert_eq!(quiet.len(), 100);
        assert!(quiet.iter().all(|&ms| ms < 900.0));
        // A round of the fastest times: 1 + 2 + … + 25 ms = 325 ms.
        let rate = log.ops_per_s();
        assert!((rate - 25.0 / 0.325).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn quiet_times_keep_every_run_of_a_rare_op() {
        let mut log = OpLog::default();
        log.record(0, 5.0, true);
        log.record(0, 7.0, true);
        assert_eq!(log.quiet_ms(), [5.0, 7.0]);
        assert_eq!(OpLog::default().ops_per_s(), 0.0);
    }
}
