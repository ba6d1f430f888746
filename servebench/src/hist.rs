//! Fixed-size log-linear latency histogram.
//!
//! Recording is a couple of integer operations into a preallocated table, so
//! the timed loops never allocate and the benchmark's own memory does not
//! grow with run length. Each power-of-two range is split into 128 equal
//! buckets (under 0.8 % relative width); percentiles interpolate linearly
//! inside the bucket that holds the requested rank.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^48 ns (about 3 days) are representable.
const BUCKETS: usize = (2 * SUB + (48 - SUB_BITS as u64) * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let idx = 2 * SUB + u64::from(shift - 1) * SUB + ((v >> shift) - SUB);
        (idx as usize).min(BUCKETS - 1)
    }

    /// `(lower bound, width)` of bucket `idx`.
    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx as f64, 1.0);
        }
        let shift = (idx - 2 * SUB) / SUB + 1;
        let mantissa = (idx - 2 * SUB) % SUB + SUB;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank, interpolated within its bucket);
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = Self::bounds(idx);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in (0..5000u64).chain([1 << 20, (1 << 30) + 12345, 987_654_321]) {
            let (lo, width) = Hist::bounds(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}: [{lo}, +{width})");
            assert!(width <= 1.0_f64.max(v as f64 / 128.0), "{v}: width {width}");
        }
    }

    #[test]
    fn quantiles_track_uniform_data() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 50_000.0).abs() < 400.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.99) - 99_000.0).abs() < 800.0, "{}", h.quantile(0.99));
    }
}
