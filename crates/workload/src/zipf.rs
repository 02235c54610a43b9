//! A small Zipf(θ) sampler over `{0, …, n-1}` (inverse-CDF with a
//! precomputed table), for skewed join-key distributions.

use rand::Rng;

/// Zipfian distribution over `n` items with exponent `theta` (0 = uniform,
/// ≈1 = classic Zipf).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution. `n` must be ≥ 1.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n >= 1, "Zipf over an empty domain");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating point drift.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of distinct items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn skewed_when_theta_high() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..5000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] * 5, "{counts:?}");
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(3, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 3);
        }
        assert_eq!(z.n(), 3);
    }
}
