//! Statistics, answer digests, seeded streams and the result line shared by
//! every workload.

use std::fmt::Write as _;

use ugraph_sampling::rng::mix_seed;

/// A percentile is reported as a tail estimate only when at least this many
/// samples lie beyond it.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile of an ascending, non-empty slice: the
/// smallest sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median and p95 of a latency sample, with the counts that say whether the
/// p95 is a real tail estimate (see [`MIN_TAIL`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Samples beyond the p95.
    pub beyond_p95: usize,
}

impl Latency {
    /// Summarizes `samples` (any order); all zero when empty.
    pub fn of(samples: &[f64]) -> Latency {
        if samples.is_empty() {
            return Latency::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Latency {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            beyond_p95: beyond(sorted.len(), 95.0),
        }
    }

    /// Whether the p95 has at least [`MIN_TAIL`] samples beyond it.
    pub fn tail_supported(&self) -> bool {
        self.beyond_p95 >= MIN_TAIL
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload never
/// reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over the bytes of every answer: stable across platforms,
/// toolchains and runs, unlike the standard library's hashers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its bit pattern, so equal digests mean
    /// bit-identical values.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A seeded stream of uniform draws: draw `i` is a pure function of
/// `(seed, i)`, so schedules and permutations repeat exactly per seed.
#[derive(Clone, Debug)]
pub struct Stream {
    seed: u64,
    next: u64,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream { seed, next: 0 }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        let bits = mix_seed(self.seed, self.next) >> 11;
        self.next += 1;
        bits as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One named metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed and checked).
    pub attempted: usize,
    /// Operations that failed: solver or transport error, server refusal,
    /// or an answer that failed its check.
    pub failed: usize,
    /// Metrics printed in the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation, noting why it failed if it did.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {why}"));
        }
    }

    /// The last line of standard output: one JSON object.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values cannot be JSON numbers; they read as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 where `/proc` is
/// unavailable.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(0, 95.0), 0);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!((l.n, l.p50, l.p95), (200, 100.0, 190.0));
        assert!(l.tail_supported());
        assert!(!Latency::of(&samples[..199]).tail_supported());
    }

    #[test]
    fn nearest_rank_percentiles_and_medians() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 95.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(Latency::of(&[]), Latency::default());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        // FNV-1a reference vectors: the empty input and "a".
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut a = Digest::default();
        a.bytes(b"a");
        assert_eq!(a.value(), 0xaf63_dc4c_8601_ec8c);
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.f64(0.0);
        y.f64(-0.0);
        assert_ne!(x, y, "digests compare bit patterns, not float equality");
    }

    #[test]
    fn streams_repeat_per_seed() {
        let draws = |seed| {
            let mut s = Stream::new(seed);
            (0..8).map(|_| s.unit()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert!(draws(7).iter().all(|u| (0.0..1.0).contains(u)));
        let mut v: Vec<usize> = (0..10).collect();
        Stream::new(3).shuffle(&mut v);
        let mut w: Vec<usize> = (0..10).collect();
        Stream::new(3).shuffle(&mut w);
        assert_eq!(v, w);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::default();
        o.check("op", Ok(()));
        o.check("op", Err("bad".into()));
        o.metrics.push(metric("setup_s", 0.5, "s"));
        o.metrics.push(metric("x", f64::NAN, "count"));
        assert_eq!(
            o.result_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
