//! Order statistics over the benchmark's samples.

/// Quantile `q` (0..=1) of `samples`, interpolating linearly between the
/// two nearest ranks. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64))
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Nanosecond latencies below this land in a direct-indexed count slot.
const DIRECT_NS: usize = 1 << 16;

/// Exact nanosecond latency counts: one slot per nanosecond up to 65 µs,
/// and the raw values above that. Lookups run at tens of nanoseconds, so
/// storing every sample would not fit in memory, while a coarse bucketed
/// histogram would report the same bucket edge on every run.
#[derive(Debug, Clone)]
pub struct NsCounts {
    direct: Vec<u64>,
    overflow: Vec<u64>,
    total: u64,
}

impl Default for NsCounts {
    fn default() -> Self {
        NsCounts {
            direct: vec![0; DIRECT_NS],
            overflow: Vec::new(),
            total: 0,
        }
    }
}

impl NsCounts {
    /// Count one latency.
    pub fn record(&mut self, ns: u64) {
        match usize::try_from(ns) {
            Ok(slot) if slot < DIRECT_NS => self.direct[slot] += 1,
            _ => self.overflow.push(ns),
        }
        self.total += 1;
    }

    /// Latencies counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Quantile `q` (0..=1) in nanoseconds, `None` when empty. A reading
    /// of `v` ns stands for the interval `[v - 0.5, v + 0.5)`, and the
    /// quantile interpolates within the interval that holds its rank, as
    /// for grouped data; this keeps the sub-nanosecond shifts of a median
    /// over millions of lookups visible.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (ns, &count) in self.direct.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= target {
                let within = (target - below as f64) / count as f64;
                return Some(ns as f64 - 0.5 + within);
            }
            below += count;
        }
        let mut overflow = self.overflow.clone();
        overflow.sort_unstable();
        let rank = (target - below as f64).ceil().max(1.0) as usize;
        overflow
            .get(rank.min(overflow.len()) - 1)
            .map(|&ns| ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ns_quantile_spreads_ties_over_their_nanosecond() {
        let mut counts = NsCounts::default();
        for _ in 0..4 {
            counts.record(10);
        }
        assert_eq!(counts.quantile(0.5), Some(10.0));
        assert_eq!(counts.quantile(0.25), Some(9.75));
        counts.record(100_000);
        assert_eq!(counts.total(), 5);
        assert_eq!(counts.quantile(1.0), Some(100_000.0));
    }
}
