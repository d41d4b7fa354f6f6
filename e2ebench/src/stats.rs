//! Order statistics with their sample counts.

/// A percentile of `samples` (nearest rank on the sorted values, `q` in
/// `[0, 1]`) together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pct {
    /// The percentile value (0 when there were no samples).
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// Percentile `q` of `samples` by nearest rank: the smallest value with at
/// least `q` of the samples at or below it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    if samples.is_empty() {
        return Pct {
            value: 0.0,
            samples: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Pct {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    }
}

/// Median by nearest rank.
#[must_use]
pub fn median(samples: &[f64]) -> Pct {
    percentile(samples, 0.5)
}

/// Percentile `q` of per-event values given as `(value, weight)` groups:
/// every event of a group shares its group's value (all events of one
/// `serve` call return together).
#[must_use]
pub fn weighted_percentile(groups: &[(f64, usize)], q: f64) -> Pct {
    let total: usize = groups.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return Pct {
            value: 0.0,
            samples: 0,
        };
    }
    let mut sorted: Vec<(f64, usize)> = groups.iter().copied().filter(|&(_, w)| w > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as usize).max(1);
    let mut seen = 0usize;
    for &(value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return Pct {
                value,
                samples: total,
            };
        }
    }
    Pct {
        value: sorted[sorted.len() - 1].0,
        samples: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_report_counts() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.5),
            Pct {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(
            percentile(&xs, 0.99),
            Pct {
                value: 99.0,
                samples: 100
            }
        );
        assert_eq!(
            percentile(&xs, 1.0),
            Pct {
                value: 100.0,
                samples: 100
            }
        );
        assert_eq!(
            percentile(&xs, 0.0),
            Pct {
                value: 1.0,
                samples: 100
            }
        );
        assert_eq!(
            median(&[3.0, 1.0, 2.0]),
            Pct {
                value: 2.0,
                samples: 3
            }
        );
        assert_eq!(
            percentile(&[], 0.5),
            Pct {
                value: 0.0,
                samples: 0
            }
        );
    }

    #[test]
    fn weighted_percentiles_count_every_event() {
        // 90 events at 1 ms and 10 at 5 ms: p50 is 1, p95 is 5, and the
        // sample count is the number of events, not of groups.
        let groups = [(5.0, 10), (1.0, 90)];
        assert_eq!(
            weighted_percentile(&groups, 0.5),
            Pct {
                value: 1.0,
                samples: 100
            }
        );
        assert_eq!(
            weighted_percentile(&groups, 0.90),
            Pct {
                value: 1.0,
                samples: 100
            }
        );
        assert_eq!(
            weighted_percentile(&groups, 0.95),
            Pct {
                value: 5.0,
                samples: 100
            }
        );
        assert_eq!(weighted_percentile(&[], 0.5).samples, 0);
    }
}
