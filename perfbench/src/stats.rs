//! Order statistics and the per-run tally every workload fills.

use std::collections::BTreeMap;
use std::time::Instant;

/// The host clock. Every timing perfbench takes starts here: host time
/// is what it measures, and none of it reaches a deterministic artifact.
pub fn host_clock() -> Instant {
    // lint: allow(D2, perfbench measures host time; its timings never feed a deterministic artifact)
    Instant::now()
}

/// Median of `v` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice so a missing sample cannot pass as 0.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set (`VmHWM`) of a process, in MiB, from
/// `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (artifact renders, `run()` calls, folds,
    /// daemon requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    /// Set-up durations, seconds (one per set-up repetition).
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each timed pass.
    pub pass_ms: Vec<f64>,
    /// Host milliseconds of each reference-kernel run (host speed).
    pub ref_ms: Vec<f64>,
    /// Per-layer samples by metric name; reported as medians.
    pub layer: BTreeMap<String, Vec<f64>>,
}

impl Tally {
    /// Counts one operation and whether its output checked out.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records one sample of a per-layer metric.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.layer.entry(name.to_string()).or_default().push(value);
    }

    /// Folds another tally's operation counts and problems in.
    pub fn absorb_counts(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        t.op(false, || "bad".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.problems, ["bad"]);
    }
}
