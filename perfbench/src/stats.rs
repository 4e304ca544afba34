//! Order statistics over timing samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (need not be sorted).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// How many samples lie strictly beyond nearest-rank quantile `q`: a
/// tail percentile is reported with at least ten of them.
pub fn beyond(v: &[f64], q: f64) -> usize {
    let p = quantile(v, q);
    v.iter().filter(|&&x| x > p).count()
}

/// Smallest of `v`: the least disturbed of repeated timings of the same
/// work. The host only ever slows a repetition down, so the fastest one
/// stays put while slow phases come and go.
pub fn min(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "min of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `v`: the least disturbed of repeated rates.
pub fn max(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "max of no samples");
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Per-index samples over repetitions of the same input: sample `k` of
/// every pass (or session) is pooled with sample `k` of the others.
/// Percentiles over the per-index minima describe the input's slow and
/// fast parts, while a phase of the host that spares one repetition of an
/// index leaves that index's minimum.
#[derive(Default)]
pub struct IndexSamples(Vec<Vec<f64>>);

impl IndexSamples {
    /// Add one repetition's samples, in index order.
    pub fn add(&mut self, samples: &[f64]) {
        if self.0.len() < samples.len() {
            self.0.resize(samples.len(), Vec::new());
        }
        for (k, x) in samples.iter().enumerate() {
            self.0[k].push(*x);
        }
    }

    /// The minimum of each index.
    pub fn mins(&self) -> Vec<f64> {
        self.0.iter().map(|v| min(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn index_samples() {
        let mut m = IndexSamples::default();
        m.add(&[1.0, 10.0]);
        m.add(&[3.0, 20.0, 5.0]);
        m.add(&[2.0, 90.0]);
        assert_eq!(m.mins(), vec![1.0, 10.0, 5.0]);
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
    }
}
