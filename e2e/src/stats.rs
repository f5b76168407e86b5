//! Small statistics helpers: percentiles, the quartile spread the
//! repeatability check uses, the seeded Poisson arrival schedule, and the
//! `serve.max_rps` rule.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of `values`; `NaN` when
/// empty. The input need not be sorted.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread is
/// judged. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// `e2e agree` reports next to a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = percentile(values, 0.5);
    (med != 0.0).then(|| (q3 - q1).abs() / med.abs())
}

/// SplitMix64 step: a tiny seeded generator, so schedules depend on the
/// seed alone and not on a library's stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sample in `(0, 1]`.
pub fn unit(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Send offsets (seconds from the level start) of a Poisson process with
/// `rate` arrivals per second over `duration` seconds, fully determined by
/// `seed`.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -unit(&mut state).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit, at
/// most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Latency limit on a level's p90 for it to count as sustained.
pub const SLO_P90_MS: f64 = 100.0;
/// Largest backlog, in seconds of arrivals, a sustained level may leave
/// when its last request is sent.
pub const MAX_BACKLOG_S: f64 = 0.5;

/// What one open-loop level measured, as far as the sustained-rate rule
/// needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelVerdict {
    /// Offered rate in requests per second.
    pub rate: f64,
    /// p90 latency over every request of the level.
    pub p90_ms: f64,
    /// Requests that failed (error, `ok: false`, bad answer, no answer).
    pub failed: usize,
    /// Backlog when sending ended, in seconds of arrivals at `rate`.
    pub backlog_s: f64,
}

impl LevelVerdict {
    /// Whether the level met the latency limit with no failures and no
    /// growing backlog.
    pub fn sustained(&self) -> bool {
        self.failed == 0 && self.p90_ms <= SLO_P90_MS && self.backlog_s <= MAX_BACKLOG_S
    }
}

/// The highest offered rate that was sustained, or `0` when none was.
pub fn max_sustained_rate(levels: &[LevelVerdict]) -> f64 {
    levels
        .iter()
        .filter(|l| l.sustained())
        .map(|l| l.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!((percentile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).expect("enough values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_offered_rate() {
        let a = poisson_schedule(100.0, 20.0, 7);
        assert_eq!(
            a,
            poisson_schedule(100.0, 20.0, 7),
            "same seed, same schedule"
        );
        assert_ne!(
            a,
            poisson_schedule(100.0, 20.0, 8),
            "another seed, another schedule"
        );
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets increase");
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 100.0).abs() < 10.0, "offered rate {rate}");
    }

    #[test]
    fn metric_names_follow_the_schema() {
        for ok in [
            "setup_s",
            "speedup.gamma",
            "linalg.lanczos_gb_s",
            "p50-ms",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn max_rps_is_the_highest_sustained_level() {
        let level = |rate, p90_ms, failed, backlog_s| LevelVerdict {
            rate,
            p90_ms,
            failed,
            backlog_s,
        };
        let levels = [
            level(50.0, 20.0, 0, 0.0),
            level(100.0, 60.0, 0, 0.1),
            level(200.0, 900.0, 0, 3.0),
        ];
        assert_eq!(max_sustained_rate(&levels), 100.0);
        // A failure, a slow tail or a growing backlog each disqualify.
        assert!(!level(100.0, 60.0, 1, 0.1).sustained());
        assert!(!level(100.0, 100.5, 0, 0.1).sustained());
        assert!(!level(100.0, 60.0, 0, 0.6).sustained());
        assert!(
            level(100.0, 100.0, 0, 0.5).sustained(),
            "limits are inclusive"
        );
        // Levels are judged independently: a lucky fast top level counts.
        let lucky = [level(50.0, 150.0, 0, 0.0), level(200.0, 40.0, 0, 0.0)];
        assert_eq!(max_sustained_rate(&lucky), 200.0);
        assert_eq!(max_sustained_rate(&[level(50.0, 150.0, 0, 0.0)]), 0.0);
    }
}
