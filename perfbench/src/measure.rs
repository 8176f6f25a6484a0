//! Measurement helpers: quantiles that refuse unsupported tails, medians,
//! quartiles, and the process's peak resident set.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported percentile. A p99 of
/// 300 samples rests on three values; the benchmark refuses to print it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `samples`, refusing when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (so `q = 0.99` needs at
/// least 1000 samples). The median of a non-empty sample is always
/// supported.
pub fn tail_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_TAIL_SAMPLES})",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median (nearest rank) of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    tail_quantile(samples, 0.5).expect("median of a non-empty sample")
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from a set of result files.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        // statistics.quantiles: m = n + 1; j = clamp(i*m div 4, 1, n-1);
        // the result interpolates v[j-1]..v[j] by (i*m - 4j) / 4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// One finished request (or library round) of a measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When it finished, counted from the phase start.
    pub done: Duration,
    /// Its latency.
    pub latency: Duration,
    /// Operations it carried.
    pub ops: u64,
}

/// Windows a phase is cut into for [`window_medians`].
pub const WINDOWS: usize = 5;

/// Throughput and median latency robust to a stall that hits part of a
/// phase: the phase's `wall` is cut into [`WINDOWS`] equal windows by
/// finish time, and each figure is the median over the windows.
/// Returns `(ops per second, p50 latency in ms)`.
pub fn window_medians(samples: &[Sample], wall: Duration) -> Result<(f64, f64), String> {
    let width = wall.as_secs_f64() / WINDOWS as f64;
    let mut windows = vec![Vec::new(); WINDOWS];
    for s in samples {
        let w = ((s.done.as_secs_f64() / width) as usize).min(WINDOWS - 1);
        windows[w].push(s);
    }
    let mut rates = Vec::with_capacity(WINDOWS);
    let mut p50s = Vec::with_capacity(WINDOWS);
    for (i, window) in windows.iter().enumerate() {
        if window.is_empty() {
            return Err(format!("window {i} of {WINDOWS} finished no request"));
        }
        rates.push(window.iter().map(|s| s.ops).sum::<u64>() as f64 / width);
        p50s.push(median(
            &window
                .iter()
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ));
    }
    Ok((median(&rates), median(&p50s)))
}

/// Milliseconds of each duration.
pub fn millis(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Peak resident set size in KiB from the text of `/proc/self/status`
/// (the `VmHWM:` line).
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next().ok_or("VmHWM line has no value")?;
    if fields.next() != Some("kB") {
        return Err(format!("VmHWM line in an unexpected unit: {line:?}"));
    }
    let kib: u64 = value
        .parse()
        .map_err(|e| format!("VmHWM value {value:?}: {e}"))?;
    if kib == 0 {
        return Err("VmHWM reads 0".into());
    }
    Ok(kib)
}

/// This process's peak resident set in MiB. Errors where the kernel does
/// not expose it; never reports 0.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS unavailable: /proc/self/status: {e}"))?;
    Ok(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&hundred, 0.5), Ok(50.0));
        assert_eq!(tail_quantile(&hundred, 0.9), Ok(90.0));
        assert!(tail_quantile(&hundred, 0.95).is_err(), "5 beyond p95");
        assert!(tail_quantile(&hundred, 0.99).is_err(), "1 beyond p99");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&thousand, 0.99), Ok(990.0));
        assert!(tail_quantile(&[], 0.5).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn window_medians_shrug_off_one_stalled_window() {
        let ms = Duration::from_millis;
        // Ten requests per 100 ms window, 10 ops and 2 ms each; the third
        // window stalls: one request, 50 ms.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            let (count, latency) = if w == 2 { (1, ms(50)) } else { (10, ms(2)) };
            for i in 0..count {
                samples.push(Sample {
                    done: ms(w * 100 + i * 9 + 1),
                    latency,
                    ops: 10,
                });
            }
        }
        let (rate, p50) = window_medians(&samples, ms(500)).unwrap();
        assert!(
            (rate - 1000.0).abs() < 1e-6,
            "100 ops per 100 ms, got {rate}"
        );
        assert_eq!(p50, 2.0);
        assert!(
            window_medians(&samples[..5], ms(500)).is_err(),
            "empty windows"
        );
    }

    #[test]
    fn vm_hwm_parses_the_status_fixture() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  812344 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  190000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(204_800));
        assert!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 5 kB\n").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\t 0 kB\n").is_err(), "never 0");
        assert!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\t lots kB\n").is_err());
    }
}
