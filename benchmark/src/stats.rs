//! Sample statistics, span self-time arithmetic and the regression rule of
//! `--compare`.

/// Median (mean of the two middle values for an even count). `NaN` when
/// empty.
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

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let (n, m) = (4, ld + 1);
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// unless at least ten samples lie beyond it: a tail value resting on fewer
/// samples than that repeats too poorly to report.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (rank <= n && n - rank >= 10).then(|| sorted[rank - 1])
}

/// The highest of p99.9, p99 and p90 that [`percentile`] can report, with
/// its percentile.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find_map(|p| percentile(sorted, p).map(|v| (p, v)))
}

/// One recorded span: a call into a layer, made by the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request id: the index of the model the span worked on.
    pub req: usize,
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (lo, hi) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// How one end-to-end metric moved between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Change {
    Better,
    Worse,
    Within,
    /// The runs spread more than the bound, so a median shift of that size
    /// could be noise.
    Unresolved,
}

impl Change {
    pub fn label(self) -> &'static str {
        match self {
            Change::Better => "better",
            Change::Worse => "worse",
            Change::Within => "within bound",
            Change::Unresolved => "unresolved",
        }
    }
}

/// Classify runs `b` against baseline runs `a`, for a metric that may get
/// worse by at most `bound` (a share of `a`'s median). When either side's
/// quartile spread exceeds the bound the row is unresolved, unless every run
/// of `b` is better than every run of `a`. Returns the class and the signed
/// relative change of the medians (positive = worse).
pub fn classify(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (Change, f64) {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma;
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let class = if spread(a).max(spread(b)) > bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Change::Better
        } else {
            Change::Unresolved
        }
    } else if worse_by > bound {
        Change::Worse
    } else if worse_by < -bound {
        Change::Better
    } else {
        Change::Within
    };
    (class, worse_by)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0)); // 10 beyond
        assert_eq!(percentile(&v, 91.0), None); // 9 beyond
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 20, 50, Some(0)),  // overlaps `a`: the union is 10..50
            s("c", 90, 120, Some(0)), // clipped to the parent at 100
            s("a.x", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn compare_classifies_rows() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better: +20 % is worse, −20 % better, +3 % within.
        assert_eq!(
            classify(&a, &[12.0, 12.1, 11.9], 0.1, false).0,
            Change::Worse
        );
        assert_eq!(classify(&a, &[8.0, 8.1, 7.9], 0.1, false).0, Change::Better);
        assert_eq!(
            classify(&a, &[10.3, 10.2, 10.4], 0.1, false).0,
            Change::Within
        );
        // Higher is better flips the direction.
        assert_eq!(
            classify(&a, &[12.0, 12.1, 11.9], 0.1, true).0,
            Change::Better
        );
        // A spread wider than the bound is unresolved ...
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(classify(&a, &noisy, 0.1, false).0, Change::Unresolved);
        // ... unless every run of the change beats every baseline run.
        assert_eq!(classify(&noisy, &[1.0, 2.0], 0.1, false).0, Change::Better);
        let (_, worse_by) = classify(&a, &[11.0], 0.1, false);
        assert!((worse_by - 0.1).abs() < 1e-12);
    }
}
