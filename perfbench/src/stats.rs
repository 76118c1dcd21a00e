//! The benchmark's own arithmetic: medians, paper-fidelity
//! error, span self time, batch efficiency, CPU-time and peak-RSS parsing.

use allarm_types::stats::geometric_mean;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean of `ratios` and its distance from the paper's,
/// `|geomean / paper − 1|`, as `(geomean, error)`.
///
/// # Errors
///
/// A zero, negative or non-finite ratio makes the aggregate meaningless;
/// that is reported as an error (a failed check), never as a NaN metric.
pub fn paper_err(ratios: &[f64], paper: f64) -> Result<(f64, f64), String> {
    if let Some(bad) = ratios.iter().find(|r| !r.is_finite()) {
        return Err(format!("non-finite ratio {bad}"));
    }
    let gm = geometric_mean(ratios)
        .ok_or_else(|| format!("no geometric mean of {ratios:?} (empty, zero or negative)"))?;
    let err = (gm / paper - 1.0).abs();
    if err.is_finite() {
        Ok((gm, err))
    } else {
        Err(format!("non-finite error for geomean {gm} against {paper}"))
    }
}

/// Self time of the interval `[start, end)`: its length minus the part of
/// it that the child intervals cover (children may overlap each other and
/// may stick out of the parent; only the covered share inside counts).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Share of the batch's thread-time that was busy:
/// `busy time / (threads × batch wall time)`.
pub fn batch_efficiency(busy_s: f64, threads: usize, wall_s: f64) -> f64 {
    busy_s / (threads as f64 * wall_s)
}

/// CPU seconds (user + system, every thread including exited ones) from the
/// text of `/proc/<pid>/stat`, whose times are in Linux's fixed 100 Hz
/// `USER_HZ` ticks.
pub fn cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM` line, which the kernel reports in kB).
pub fn peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn paper_err_is_distance_of_the_geomean() {
        // geomean(1.0, 1.21) = 1.1; against a paper value of 1.0 → 0.1.
        let (gm, err) = paper_err(&[1.0, 1.21], 1.0).unwrap();
        assert!((gm - 1.1).abs() < 1e-12);
        assert!((err - 0.1).abs() < 1e-12);
        // Below the paper counts the same as above.
        let (_, err) = paper_err(&[0.81, 1.0], 1.0).unwrap();
        assert!((err - 0.1).abs() < 1e-12);
        assert_eq!(paper_err(&[1.13], 1.13).unwrap().1, 0.0);
    }

    #[test]
    fn degenerate_fidelity_aggregates_are_errors_not_nan() {
        assert!(paper_err(&[1.0, 0.0], 0.54).is_err());
        assert!(paper_err(&[1.0, f64::NAN], 0.54).is_err());
        assert!(paper_err(&[f64::INFINITY], 0.54).is_err());
        assert!(paper_err(&[], 0.54).is_err());
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children are not double-counted.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // A child sticking out of the parent counts only inside it.
        assert_eq!(self_time(10, 100, &[(0, 20), (90, 120)]), 70);
        // A child covering everything leaves no self time.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn batch_efficiency_is_busy_time_over_thread_time() {
        // Two threads busy for 3 s and 1 s of a 2 s batch: 4 / (2 × 2).
        assert_eq!(batch_efficiency(4.0, 2, 2.0), 1.0);
        assert_eq!(batch_efficiency(2.0, 2, 2.0), 0.5);
    }

    #[test]
    fn cpu_seconds_add_user_and_system_ticks() {
        // utime (field 14) 250 ticks, stime (field 15) 30 ticks; the
        // command name holds a space and a parenthesis.
        let stat = "4242 (perf bench)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 3 0";
        assert_eq!(cpu_seconds(stat), Some(2.8));
        assert_eq!(cpu_seconds("4242 (x) S 1"), None);
    }

    #[test]
    fn peak_rss_is_read_from_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(peak_rss_mib(status), Some(50.0));
        assert_eq!(peak_rss_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(peak_rss_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(peak_rss_mib("VmHWM:\t 1024 MB\n"), None);
    }
}
