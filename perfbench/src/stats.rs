//! Order statistics, the tail-percentile rule and the Zipf sampler.

use teccl_util::Rng64;

/// Fewest samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;
/// Percentiles the benchmark reports, ascending, in per-mille so that ranks
/// are exact integers (`0.9 * 100.0` is not 90 in floating point).
const LADDER: [u32; 4] = [P50, P90, P99, 999];
pub const P50: u32 = 500;
pub const P90: u32 = 900;
pub const P99: u32 = 990;

/// Nearest-rank position (1-based) of the `pm` per-mille point among `n`.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Sorts in place and returns the slice (NaN-free input).
pub fn sorted(v: &mut [f64]) -> &[f64] {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `pm` per-mille point (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pm: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pm) - 1]
}

/// The `pm` per-mille point of an unsorted sample; 0 when empty.
fn quantile(v: &[f64], pm: u32) -> f64 {
    let mut v = v.to_vec();
    percentile(sorted(&mut v), pm)
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, P50)
}

/// Lower quartile of an unsorted sample of times; 0 when empty. Across the
/// slices of a window this is the estimator for "what the program takes":
/// interference from the host only ever adds time, so the faster quarter of
/// the slices is closest to the undisturbed program, while a quartile (not
/// the minimum) still needs a quarter of the slices to agree.
pub fn lower_quartile(v: &[f64]) -> f64 {
    quantile(v, 250)
}

/// Upper quartile of an unsorted sample of rates; see [`lower_quartile`].
pub fn upper_quartile(v: &[f64]) -> f64 {
    quantile(v, 750)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// does not (a tail of fewer than ten samples is one scheduler hiccup).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rfind(|&pm| n >= MIN_BEYOND + rank(n, pm))
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, P90), 90.0);
        assert_eq!(percentile(&v, P99), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[7.0], P99), 7.0);
        assert_eq!(percentile(&[], P50), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let six = [6.0, 1.0, 5.0, 2.0, 4.0, 3.0];
        assert_eq!((lower_quartile(&six), upper_quartile(&six)), (2.0, 5.0));
        assert_eq!((lower_quartile(&[7.0]), upper_quartile(&[7.0])), (7.0, 7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(P50));
        assert_eq!(highest_supported_percentile(100), Some(P90));
        assert_eq!(highest_supported_percentile(999), Some(P90));
        assert_eq!(highest_supported_percentile(1_000), Some(P99));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
        assert_eq!(highest_supported_percentile(400_000), Some(999));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(48, 1.0);
        let draw = |seed| {
            let mut rng = Rng64::seed_from_u64(seed);
            (0..2_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&r| r < 48));
        let first = d.iter().filter(|&&r| r == 0).count();
        let last = d.iter().filter(|&&r| r == 47).count();
        assert!(first > 10 * last.max(1), "{first} vs {last}");
    }
}
