//! Percentiles under the benchmark's sample-count rule, pooled over the
//! faster half of a run's units; medians; and the metric-name check.

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `q` (in `(0, 1)`) among `n`
/// samples, or `None` unless at least [`MIN_BEYOND`] samples lie beyond
/// it: a p99 needs 1000 samples, a p90 100, a p50 20.
pub fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// The measured run cut into equal time windows, the measurement units of
/// a run that serves one long stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    pub t0: u64,
    pub len_ns: u64,
    pub n: usize,
}

impl Windows {
    pub fn new(t0: u64, seconds: u64, n: usize) -> Self {
        Windows {
            t0,
            len_ns: seconds * 1_000_000_000 / n as u64,
            n,
        }
    }

    /// The window holding instant `at`, if it falls inside the run.
    pub fn index(&self, at: u64) -> Option<usize> {
        let i = (at.checked_sub(self.t0)? / self.len_ns) as usize;
        (i < self.n).then_some(i)
    }
}

/// Sub-buckets per power of two: a recorded value is known to within
/// 1/128 of itself (exactly below 128 ns).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values of `2^MAX_EXP` ns (about 18 minutes) and more share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB;

/// A log-linear histogram of nanosecond values, of fixed size whatever the
/// number of samples: the benchmark's own memory does not grow with the
/// program's throughput and so stays out of `rss_mb`.
#[derive(Debug, Clone)]
struct Hist {
    counts: Vec<u32>,
    n: usize,
}

impl Hist {
    fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        let v = v.min((1 << MAX_EXP) - 1);
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
    }

    /// Lowest value and width of bucket `b`.
    fn bounds(b: usize) -> (u64, u64) {
        if b < SUB {
            return (b as u64, 1);
        }
        let shift = (b / SUB - 1) as u32;
        (((b % SUB + SUB) as u64) << shift, 1 << shift)
    }

    fn push(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    fn merge(&mut self, o: &Hist) {
        for (c, oc) in self.counts.iter_mut().zip(&o.counts) {
            *c += oc;
        }
        self.n += o.n;
    }

    /// Percentile `q` under the [`rank`] rule: the ranked sample's bucket,
    /// interpolated by its place among the bucket's samples, each taken to
    /// sit in the middle of an equal share of the bucket (exact in the
    /// one-value buckets).
    fn pct(&self, q: f64) -> Option<f64> {
        let rank = rank(self.n, q)?;
        let mut below = 0usize;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as usize;
            if below + c >= rank {
                let (lo, width) = Self::bounds(b);
                let within = match width {
                    1 => 0.0,
                    w => w as f64 * ((rank - below) as f64 - 0.5) / c as f64,
                };
                return Some(lo as f64 + within);
            }
            below += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Nanosecond latencies of one kind, binned by the measurement unit they
/// belong to (a time window or a pass) and all together.
///
/// A run reports its percentiles over the faster half of its units
/// ([`Samples::unit_pct`]): the host's speed drifts by a third and more
/// for seconds at a time, so a unit measured in a slow stretch is set
/// aside as long as half of the run's units were measured outside one,
/// and a tail percentile still rests on half of the run's samples.
#[derive(Debug, Clone)]
pub struct Samples {
    per: Vec<Hist>,
    all: Hist,
    sum: u64,
}

impl Samples {
    pub fn new() -> Self {
        Samples {
            per: Vec::new(),
            all: Hist::new(),
            sum: 0,
        }
    }

    /// Records `value_ns` in `unit`, or (`None`) only in the whole-run
    /// figures.
    pub fn push(&mut self, unit: Option<usize>, value_ns: u64) {
        if let Some(i) = unit {
            if self.per.len() <= i {
                self.per.resize_with(i + 1, Hist::new);
            }
            self.per[i].push(value_ns);
        }
        self.all.push(value_ns);
        self.sum += value_ns;
    }

    pub fn extend(&mut self, other: Samples) {
        if self.per.len() < other.per.len() {
            self.per.resize_with(other.per.len(), Hist::new);
        }
        for (h, o) in self.per.iter_mut().zip(&other.per) {
            h.merge(o);
        }
        self.all.merge(&other.all);
        self.sum += other.sum;
    }

    pub fn len(&self) -> usize {
        self.all.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The percentile over every sample, under the [`rank`] rule.
    pub fn pct(&self, q: f64) -> Option<f64> {
        self.all.pct(q)
    }

    /// Percentile `q` over the faster half of `units`: the `⌈units/2⌉`
    /// units with the lowest medians, pooled. Ranking by the median keeps
    /// a tail percentile from being chosen on its own value. Units too
    /// small for a median are skipped; `None` unless more than half of the
    /// `units` have one.
    pub fn unit_pct(&self, q: f64, units: usize) -> Option<f64> {
        let mut ranked: Vec<(f64, &Hist)> = self
            .per
            .iter()
            .filter_map(|h| Some((h.pct(0.5)?, h)))
            .collect();
        if ranked.len() * 2 <= units {
            return None;
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut pooled = Hist::new();
        for (_, h) in &ranked[..units.div_ceil(2)] {
            pooled.merge(h);
        }
        pooled.pct(q)
    }

    /// Samples in each unit.
    pub fn unit_counts(&self) -> Vec<usize> {
        self.per.iter().map(|h| h.n).collect()
    }
}

/// Events per second over the faster half of `units`, each unit given as
/// `(events, nanoseconds)`.
pub fn fast_half_rate(units: &[(u64, u64)]) -> f64 {
    let mut v = units.to_vec();
    v.sort_by(|a, b| (b.0 as f64 / b.1 as f64).total_cmp(&(a.0 as f64 / a.1 as f64)));
    let kept = &v[..v.len().div_ceil(2)];
    let (n, ns) = kept.iter().fold((0, 0), |(n, ns), u| (n + u.0, ns + u.1));
    n as f64 / (ns as f64 / 1e9)
}

/// Median of a small set of measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples `1..=n`, all in unit 0.
    fn counting(n: u64) -> Samples {
        let mut s = Samples::new();
        for v in 1..=n {
            s.push(Some(0), v);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(rank(1000, 0.99), Some(990), "leaves exactly 10 beyond");
        assert_eq!(rank(999, 0.99), None);
        assert_eq!(rank(100, 0.90), Some(90));
        assert_eq!(rank(99, 0.90), None);
        assert_eq!(rank(20, 0.50), Some(10));
        assert_eq!(rank(19, 0.50), None);
        assert_eq!(rank(0, 0.50), None);
        // 990 lies in the bucket [988, 992), third of its four samples.
        assert_eq!(counting(1000).pct(0.99), Some(990.5));
        assert_eq!(counting(999).pct(0.99), None);
        assert_eq!(counting(999).unit_pct(0.99, 1), None);
        assert_eq!(counting(100).pct(0.90), Some(90.0));
        assert_eq!(counting(19).pct(0.50), None);
    }

    #[test]
    fn histogram_buckets_cover_every_value_within_a_128th() {
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 77, u64::MAX >> 30]) {
            let (lo, width) = Hist::bounds(Hist::bucket(v));
            assert!(lo <= v && v < lo + width, "{v} in [{lo}, {lo}+{width})");
            assert!(width == 1 || width * 128 <= lo, "{v}: width {width}");
        }
        let mut h = Hist::new();
        h.push(u64::MAX);
        assert_eq!(h.n, 1, "huge values land in the last bucket");
    }

    #[test]
    fn unit_statistics_pool_the_faster_half() {
        let w = Windows::new(1_000, 4, 4);
        let mut s = Samples::new();
        for i in 0..400u64 {
            // Windows 1 and 2 are three times slower: a slow stretch.
            let slow = if (100..300).contains(&i) { 3 } else { 1 };
            let at = 1_000 + i * 10_000_000;
            s.push(w.index(at), 100 * slow + i % 2);
        }
        s.push(w.index(500), 1_000_000); // before the run: in no window
        assert_eq!(s.unit_pct(0.5, w.n), Some(100.0));
        assert_eq!(s.unit_pct(0.9, w.n), Some(101.0), "the fast half, pooled");
        assert_eq!(s.unit_counts(), vec![100; 4]);
        assert_eq!(s.len(), 401);
        let pooled = s.pct(0.5).expect("401 samples");
        assert!(
            (pooled - 300.0).abs() < 1.0,
            "pooled, the slow stretch shows"
        );
        assert_eq!(s.unit_pct(0.5, 9), None, "4 of 9 units cannot report");
        let mut other = Samples::new();
        other.push(Some(5), 7);
        s.extend(other);
        assert_eq!(s.unit_counts(), vec![100, 100, 100, 100, 0, 1]);
    }

    #[test]
    fn medians_and_fast_half_rates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        const S: u64 = 1_000_000_000;
        // 3 of 5 units kept: 10 + 10 + 8 events in 1 + 1 + 2 s.
        let units = [(10, S), (2, S), (8, 2 * S), (10, S), (1, S)];
        assert_eq!(fast_half_rate(&units), 7.0);
        assert_eq!(fast_half_rate(&[(5, S / 2)]), 10.0);
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("edgecut.partition_ms_total"));
        assert!(valid_metric_name("open_p90_ms"));
        assert!(!valid_metric_name("wire rtt"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a+b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
