//! Sample summaries. With a dozen samples per run no tail percentile is
//! honest, so a metric is reported as `n`, its quartiles, min and max.

/// `n`, quartiles, min and max of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// The value at `share` of the way through `sorted`, interpolated between
/// neighbours (Python's `statistics.quantiles(method="inclusive")`).
fn quantile(sorted: &[f64], share: f64) -> f64 {
    let at = share * (sorted.len() - 1) as f64;
    let (below, above) = (at.floor() as usize, at.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload never
/// entered has no rate).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        let odd = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((odd.n, odd.median, odd.min, odd.max), (3, 2.0, 1.0, 3.0));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(
            (even.n, even.median, even.min, even.max),
            (4, 2.5, 1.0, 4.0)
        );
        let one = summarize(&[7.5]).unwrap();
        assert_eq!((one.n, one.median, one.min, one.max), (1, 7.5, 7.5, 7.5));
    }

    #[test]
    fn quartiles_interpolate_between_neighbours() {
        let five = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((five.q1, five.median, five.q3), (2.0, 3.0, 4.0));
        let four = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((four.q1, four.q3), (1.75, 3.25));
        let one = summarize(&[7.5]).unwrap();
        assert_eq!((one.q1, one.q3), (7.5, 7.5));
    }

    #[test]
    fn no_samples_no_summary() {
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn ratio_of_an_unused_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
