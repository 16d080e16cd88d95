//! The benchmark's own arithmetic: medians, tail percentiles with their
//! sample counts, open-loop latency, failure counting and the per-layer
//! ledger. Kept free of I/O so the unit tests below pin it down.

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// per-mille arithmetic so that e.g. p99 of 1000 samples is exactly rank 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile `p` (0 < p < 100) of ascending `sorted`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// A tail percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// Percentiles the benchmark reports, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile on the ladder that has at least ten samples
/// beyond it, or `None` when not even the median does.
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    LADDER
        .iter()
        .find(|&&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|&p| Tail {
            pct: p,
            value: percentile_sorted(&sorted, p),
            n: sorted.len(),
        })
}

/// Percentile `p` of `samples`, but only when at least ten samples lie
/// beyond it; a thinner tail is not reported as that percentile.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i * interval`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Seconds (on the caller's clock) when request 0 is due.
    pub start: f64,
    /// Seconds between due times.
    pub interval: f64,
}

impl OpenLoop {
    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> f64 {
        self.start + i as f64 * self.interval
    }

    /// Latency of request `i` completed at `done`: timed from when it was
    /// due, not from when it was sent, so a stall also charges the requests
    /// it delayed.
    pub fn latency(&self, i: u64, done: f64) -> f64 {
        done - self.due(i)
    }

    /// How late request `i` went out when sent at `sent`.
    pub fn lateness(&self, i: u64, sent: f64) -> f64 {
        (sent - self.due(i)).max(0.0)
    }
}

/// Attempted and failed operations. A mismatch, an error and a timeout
/// all count as one failure each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one operation whose result is a `Result`.
    pub fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(true);
                Some(v)
            }
            Err(e) => {
                eprintln!("perfbench: FAILED {what}: {e}");
                self.record(false);
                None
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Layer self-times against the time base they must add up to.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// What the base is (e.g. "wall time of the traced run").
    pub base_name: String,
    /// The base, in seconds.
    pub base_s: f64,
    /// `(layer metric name, self-time seconds)`.
    pub entries: Vec<(String, f64)>,
}

impl Ledger {
    /// An empty ledger over `base_s` seconds.
    pub fn new(base_name: &str, base_s: f64) -> Self {
        Ledger {
            base_name: base_name.to_owned(),
            base_s,
            entries: Vec::new(),
        }
    }

    /// Add one layer's self-time.
    pub fn add(&mut self, name: &str, secs: f64) {
        self.entries.push((name.to_owned(), secs));
    }

    /// The base minus every layer: time no layer accounts for.
    pub fn residual(&self) -> f64 {
        self.base_s - self.entries.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// `|residual| / base`.
    pub fn residual_share(&self) -> f64 {
        if self.base_s > 0.0 {
            self.residual().abs() / self.base_s
        } else {
            0.0
        }
    }

    /// The layer holding the largest share of the base.
    pub fn top(&self) -> Option<(&str, f64)> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.as_str(), *s / self.base_s))
    }

    /// Human-readable table, one layer per line with its share of the base.
    pub fn render(&self) -> String {
        let mut out = format!("ledger base: {} = {:.4} s\n", self.base_name, self.base_s);
        for (name, secs) in &self.entries {
            out.push_str(&format!(
                "  {name:<28} {secs:>10.4} s  {:>6.1}%\n",
                100.0 * secs / self.base_s
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>10.4} s  {:>6.1}%\n",
            "residual",
            self.residual(),
            100.0 * self.residual() / self.base_s
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 99.9), 100.0);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 has 9 beyond it, so p90 is the reported tail.
        let t = tail_percentile(&xs[..999]).unwrap();
        assert_eq!((t.pct, t.n), (90.0, 999));
        // 19 samples: not even the median has ten beyond it.
        assert!(tail_percentile(&xs[..19]).is_none());
        assert_eq!(tail_percentile(&xs[..20]).unwrap().pct, 50.0);
        assert_eq!(supported_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(supported_percentile(&xs[..999], 99.0), None);
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        let sched = OpenLoop {
            start: 10.0,
            interval: 0.01,
        };
        // Request 0 stalls the single connection for 50 ms; requests 1..=4
        // were due meanwhile, so they go out late and their latency counts
        // the stall, not just their own service time.
        let service = 0.001;
        let mut free_at = sched.due(0) + 0.050;
        let mut lat = vec![free_at - sched.due(0)];
        let mut late = vec![0.0];
        for i in 1..5 {
            let sent = free_at.max(sched.due(i));
            late.push(sched.lateness(i, sent));
            free_at = sent + service;
            lat.push(sched.latency(i, free_at));
        }
        assert!((lat[1] - (0.050 - 0.010 + service)).abs() < 1e-9);
        assert!((lat[4] - (0.050 - 0.040 + 4.0 * service)).abs() < 1e-9);
        assert!(late[1] > 0.039 && late[4] > 0.0);
        // A closed-loop measurement from the send time would have reported
        // only the 1 ms service time for every delayed request.
        assert!(lat[1..].iter().all(|&l| l > service));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut o = Outcomes::default();
        o.record(true);
        o.record(false);
        assert_eq!(o.check("ok", Ok::<u8, String>(1)), Some(1));
        assert_eq!(o.check("timeout", Err::<u8, _>("timed out")), None);
        assert_eq!((o.attempted, o.failed), (4, 2));
        assert_eq!(o.error_rate(), 0.5);
        assert_eq!(Outcomes::default().error_rate(), 0.0);
    }

    #[test]
    fn ledger_residual_is_base_minus_layers() {
        let mut l = Ledger::new("wall", 10.0);
        l.add("store.checkpoint_s", 6.0);
        l.add("sim.step_self_s", 3.5);
        assert!((l.residual() - 0.5).abs() < 1e-12);
        assert!((l.residual_share() - 0.05).abs() < 1e-12);
        assert_eq!(l.top().unwrap().0, "store.checkpoint_s");
        // Over-attribution shows as a negative residual, and its share is
        // still a distance from the base.
        l.add("core.suggest_s", 1.0);
        assert!((l.residual() + 0.5).abs() < 1e-12);
        assert!((l.residual_share() - 0.05).abs() < 1e-12);
        assert!(l.render().contains("residual"));
    }
}
