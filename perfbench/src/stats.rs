//! The benchmark's own statistics: percentiles with the "ten samples
//! beyond" rule, failure counting, and the one-line result object the
//! benchmark prints last.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Value recorded for a failed operation: it misses every latency limit.
pub const FAILED: u64 = u64::MAX;

/// Nanoseconds since the first call in this process: the clock samples
/// are stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let e = *EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Windows a run is split into for [`Samples::windowed`] and
/// [`Samples::rate`].
pub const MAX_WINDOWS: usize = 10;

/// Latency samples in nanoseconds, each stamped with when it completed;
/// failed operations are kept as [`FAILED`] so they sort above every
/// real latency.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// (completion stamp, value).
    v: Vec<(u64, u64)>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.push_at(now_ns(), ns);
    }

    pub fn push_at(&mut self, at: u64, ns: u64) {
        self.v.push((at, ns));
    }

    pub fn push_dur(&mut self, d: Duration) {
        self.push(u64::try_from(d.as_nanos()).unwrap_or(FAILED - 1));
    }

    pub fn push_failed(&mut self) {
        self.push(FAILED);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend_from_slice(&other.v);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn failed(&self) -> usize {
        self.v.iter().filter(|&&(_, x)| x == FAILED).count()
    }

    /// Percentile `want` as the median over up to [`MAX_WINDOWS`] runs of
    /// consecutive samples (in completion order), each holding at least
    /// `need` samples so that `want` leaves ten beyond it inside every
    /// window; one window when there are fewer. A burst of interference
    /// then moves one window's figure, not the result. With fewer than
    /// `need` samples the percentile is lowered by the ten-beyond rule, to
    /// the median when even that leaves none.
    pub fn windowed(&self, want: f64, need: usize) -> Option<u64> {
        if self.v.is_empty() {
            return None;
        }
        let mut by_time = self.v.clone();
        by_time.sort_unstable();
        let n = by_time.len();
        let k = (n / need.max(1)).clamp(1, MAX_WINDOWS);
        let p = self.windowed_percentile(want, need);
        let mut per: Vec<u64> = (0..k)
            .filter_map(|i| {
                let mut w: Vec<u64> = by_time[i * n / k..(i + 1) * n / k]
                    .iter()
                    .map(|&(_, x)| x)
                    .collect();
                w.sort_unstable();
                nearest_rank(&w, p)
            })
            .collect();
        per.sort_unstable();
        nearest_rank(&per, 50.0)
    }

    /// The percentile [`Samples::windowed`] reports at.
    pub fn windowed_percentile(&self, want: f64, need: usize) -> f64 {
        if self.v.len() / need.max(1) >= 2 {
            return want;
        }
        match supported_percentile(self.v.len(), want) {
            0.0 => 50.0,
            p => p,
        }
    }

    /// Completions per second over `[from, to)` (stamps from
    /// [`now_ns`]): the successful completions are cut, in completion
    /// order, into up to [`MAX_WINDOWS`] runs of equal count, each run's
    /// rate is its count over the time since the previous run ended (or
    /// `from`), and the median run's rate is reported.
    pub fn rate(&self, from: u64, to: u64) -> f64 {
        let mut done: Vec<u64> = self
            .v
            .iter()
            .filter(|&&(t, x)| x != FAILED && t >= from && t < to)
            .map(|&(t, _)| t)
            .collect();
        done.sort_unstable();
        let n = done.len();
        if n < 2 * MAX_WINDOWS {
            return n as f64 / (to.saturating_sub(from) as f64 / 1e9).max(1e-9);
        }
        let mut start = from;
        let mut rates: Vec<f64> = (0..MAX_WINDOWS)
            .map(|i| {
                let run = &done[i * n / MAX_WINDOWS..(i + 1) * n / MAX_WINDOWS];
                let end = run.last().copied().unwrap_or(start);
                let r = run.len() as f64 / (end.saturating_sub(start) as f64 / 1e9).max(1e-9);
                start = end;
                r
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        (rates[MAX_WINDOWS / 2 - 1] + rates[MAX_WINDOWS / 2]) / 2.0
    }

    /// Mean of the successful samples in nanoseconds (0 when none).
    pub fn mean_ok(&self) -> f64 {
        let ok: Vec<u64> = self
            .v
            .iter()
            .map(|&(_, x)| x)
            .filter(|&x| x != FAILED)
            .collect();
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().map(|&x| x as f64).sum::<f64>() / ok.len() as f64
        }
    }
}

/// Nearest-rank percentile of sorted values.
fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(n) - 1).copied()
}

/// The highest percentile, at most `want` and in steps of 0.1, whose
/// nearest-rank sample still has at least ten samples beyond it; 0 when
/// fewer than eleven samples exist.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    // In tenths of a percent, so the rank is exact integer arithmetic.
    let mut t = (want * 10.0).round() as usize;
    while t > 0 {
        let rank = (t * n).div_ceil(1000).max(1);
        if n.saturating_sub(rank) >= 10 {
            return t as f64 / 10.0;
        }
        t -= 1;
    }
    0.0
}

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Nanoseconds to the unit a metric is reported in; a failed sample is
/// reported as `f64::MAX` so it reads as missing every limit.
pub fn ns_to(ns: u64, per_unit: f64) -> f64 {
    if ns == FAILED {
        f64::MAX
    } else {
        ns as f64 / per_unit
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The result object: the last line the benchmark prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// The one-line JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            ));
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become the largest float.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s
    } else if v > 0.0 || v.is_nan() {
        format!("{:?}", f64::MAX)
    } else {
        format!("{:?}", f64::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(5000, 99.0), 99.0);
        // 999 samples: rank of p99 is 990, leaving 9 beyond.
        assert!(supported_percentile(999, 99.0) < 99.0);
        assert_eq!(supported_percentile(100, 99.0), 90.0);
        assert_eq!(supported_percentile(100, 50.0), 50.0);
        assert_eq!(supported_percentile(10, 99.0), 0.0);
    }

    #[test]
    fn supported_percentile_leaves_ten_beyond() {
        for n in 11..3000 {
            let p = supported_percentile(n, 99.0);
            let t = (p * 10.0).round() as usize;
            assert!(n - (t * n).div_ceil(1000) >= 10, "n={n} p={p}");
            // One step higher would leave fewer than ten.
            if t < 990 {
                assert!(n - ((t + 1) * n).div_ceil(1000) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let mut s = Samples::default();
        // Ten windows of 1000 samples; one window is slow throughout.
        for i in 0..10_000u64 {
            let slow = (3000..4000).contains(&i);
            s.push_at(i, if slow { 1_000_000 + i } else { i % 1000 });
        }
        assert_eq!(s.windowed_percentile(99.0, 1000), 99.0);
        // Each normal window's p99 is 989; the slow window does not move
        // the median.
        assert_eq!(s.windowed(99.0, 1000), Some(989));
        assert_eq!(s.windowed(50.0, 20), Some(499));
        // Too few samples for two windows: one window, percentile lowered.
        let mut few = Samples::default();
        for i in 0..100u64 {
            few.push_at(i, i + 1);
        }
        assert_eq!(few.windowed_percentile(99.0, 1000), 90.0);
        assert_eq!(few.windowed(99.0, 1000), Some(90));
        assert_eq!(Samples::default().windowed(50.0, 20), None);
    }

    #[test]
    fn rate_is_the_median_window() {
        let ms = 1_000_000u64;
        let mut s = Samples::default();
        // One completion per ms for 900 ms, then a 100 ms stall before
        // the last 100: the stalled window does not move the median.
        for i in 1..=900u64 {
            s.push_at(i * ms, 5);
        }
        for i in 1..=100u64 {
            s.push_at(1000 * ms + i * ms, 5);
        }
        s.push_at(500 * ms, FAILED);
        assert!((s.rate(0, 2000 * ms) - 1000.0).abs() < 1e-6);
        // Too few completions for the windows: the plain rate.
        let mut few = Samples::default();
        for i in 0..10u64 {
            few.push_at(i * ms, 5);
        }
        assert!((few.rate(0, 1000 * ms) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 99.0), Some(99));
        assert_eq!(nearest_rank(&v, 100.0), Some(100));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut s = Samples::default();
        for v in 0..98u64 {
            s.push_at(v, v);
        }
        s.push_at(98, FAILED);
        s.push_at(99, FAILED);
        assert_eq!(s.failed(), 2);
        // Too few samples for p99: reported at p90, which two failures
        // in a hundred do not reach.
        assert_eq!(s.windowed(99.0, 1000), Some(89));
        // Failures rank above every latency.
        let mut f = Samples::default();
        for i in 0..20u64 {
            f.push_at(i, if i < 15 { FAILED } else { i });
        }
        assert_eq!(f.windowed(50.0, 20), Some(FAILED));
        assert_eq!(ns_to(FAILED, 1e3), f64::MAX);
        assert!((s.mean_ok() - 48.5).abs() < 1e-9);
    }

    #[test]
    fn tally_counts_outcomes() {
        let mut t = Tally::default();
        t.ok();
        t.fail();
        t.ok();
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!((t.ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().ratio(), 0.0);
    }

    #[test]
    fn report_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            ..Report::default()
        };
        r.set("latency_ms", 1.25, "ms");
        r.set("setup_s", 0.5, "s");
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!j.contains('\n'));
        // attempted is never reported below 1.
        assert!(Report::default().to_json().contains("\"attempted\": 1,"));
    }

    #[test]
    fn json_numbers_and_strings() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::INFINITY), format!("{:?}", f64::MAX));
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
