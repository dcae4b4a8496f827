//! Buffer-space allocations: how many units each queue gets.
//!
//! The paper's decision variable is exactly this object — a division of a
//! finite pool of buffer units among the architecture's queues. Baseline
//! policies ("constant sizing", traffic-proportional) live here; the
//! CTMDP-optimal allocation is computed by `socbuf-core`.

use crate::ids::QueueId;
use crate::{Architecture, SocError};

/// An assignment of integer buffer units to every queue of an
/// architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAllocation {
    units: Vec<usize>,
}

impl BufferAllocation {
    /// Wraps an explicit per-queue unit vector.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownComponent`] if `units.len()` differs from the
    /// architecture's queue count.
    pub fn new(arch: &Architecture, units: Vec<usize>) -> Result<Self, SocError> {
        if units.len() != arch.num_queues() {
            return Err(SocError::UnknownComponent(format!(
                "allocation covers {} queues, architecture has {}",
                units.len(),
                arch.num_queues()
            )));
        }
        Ok(BufferAllocation { units })
    }

    /// The paper's "constant buffer sizing" baseline: split `total`
    /// units as evenly as integer arithmetic allows (largest-remainder
    /// apportionment of equal shares).
    pub fn uniform(arch: &Architecture, total: usize) -> Self {
        let shares = vec![1.0; arch.num_queues()];
        BufferAllocation {
            units: apportion(total, &shares),
        }
    }

    /// The "simple division depending on traffic ratios" the paper
    /// compares against: units proportional to each queue's nominal
    /// offered rate.
    pub fn traffic_proportional(arch: &Architecture, total: usize) -> Self {
        let shares: Vec<f64> = arch.queues().iter().map(|q| q.offered_rate).collect();
        BufferAllocation {
            units: apportion(total, &shares),
        }
    }

    /// Units granted to `queue`.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to the allocated architecture.
    pub fn units(&self, queue: QueueId) -> usize {
        self.units[queue.index()]
    }

    /// Total units across all queues.
    pub fn total(&self) -> usize {
        self.units.iter().sum()
    }

    /// The raw per-queue vector, indexed by queue position.
    pub fn as_slice(&self) -> &[usize] {
        &self.units
    }
}

/// Largest-remainder apportionment: splits `total` integer units in
/// proportion to non-negative `shares`. Zero/negative-sum share vectors
/// fall back to an even split. The result always sums to `total`.
/// Remainder ties are broken by position (lowest index wins).
pub fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    apportion_with_keys(total, shares, &vec![(); shares.len()])
}

/// [`apportion`] with explicit tie-breaking keys: when two entries have
/// exactly equal fractional remainders, the smaller `keys` entry wins
/// the extra unit (falling back to position only for equal keys).
///
/// With keys intrinsic to the entries (e.g. unique queue names) the
/// apportionment becomes **permutation-equivariant**: reordering the
/// entries reorders the result accordingly, which is what lets the
/// sizing pipeline promise declaration-order independence. The plain
/// [`apportion`] uses unit keys, i.e. positional tie-breaking.
///
/// # Panics
///
/// Panics if `keys` and `shares` lengths differ.
pub fn apportion_with_keys<K: Ord>(total: usize, shares: &[f64], keys: &[K]) -> Vec<usize> {
    let mut units = Vec::new();
    apportion_with_keys_into(total, shares, keys, &mut Vec::new(), &mut units);
    units
}

/// [`apportion_with_keys`] written into `units` (cleared first), with
/// `remainders` as working storage: the same result, bit for bit, for a
/// caller that apportions repeatedly and keeps its buffers.
///
/// # Panics
///
/// Panics if `keys` and `shares` lengths differ.
pub fn apportion_with_keys_into<K: Ord>(
    total: usize,
    shares: &[f64],
    keys: &[K],
    remainders: &mut Vec<(usize, f64)>,
    units: &mut Vec<usize>,
) {
    assert_eq!(keys.len(), shares.len(), "one key per share");
    units.clear();
    units.reserve(shares.len());
    remainders.clear();
    remainders.reserve(shares.len());
    if shares.is_empty() {
        return;
    }
    let sum: f64 = shares.iter().filter(|s| s.is_finite() && **s > 0.0).sum();
    let effective = |s: f64| {
        if sum <= 0.0 {
            1.0
        } else if s.is_finite() && s > 0.0 {
            s
        } else {
            0.0
        }
    };
    let esum: f64 = shares.iter().map(|&s| effective(s)).sum();
    for (i, &s) in shares.iter().enumerate() {
        let quota = total as f64 * effective(s) / esum;
        units.push(quota.floor() as usize);
        remainders.push((i, quota - quota.floor()));
    }
    let assigned: usize = units.iter().sum();
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite remainders")
            .then_with(|| keys[a.0].cmp(&keys[b.0]))
            .then(a.0.cmp(&b.0))
    });
    let mut left = total - assigned;
    for &(i, _) in remainders.iter() {
        if left == 0 {
            break;
        }
        units[i] += 1;
        left -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;

    #[test]
    fn apportion_sums_exactly() {
        for total in [0usize, 1, 7, 160, 641] {
            let u = apportion(total, &[1.0, 2.0, 3.0]);
            assert_eq!(u.iter().sum::<usize>(), total);
        }
        assert!(apportion(5, &[]).is_empty());
    }

    #[test]
    fn apportion_respects_proportions() {
        let u = apportion(60, &[1.0, 2.0, 3.0]);
        assert_eq!(u, vec![10, 20, 30]);
    }

    #[test]
    fn apportion_handles_zero_shares() {
        let u = apportion(10, &[0.0, 0.0]);
        assert_eq!(u.iter().sum::<usize>(), 10);
        let u = apportion(9, &[0.0, 1.0, f64::NAN]);
        assert_eq!(u[1], 9);
    }

    #[test]
    fn uniform_is_even() {
        let a = templates::figure1();
        let alloc = BufferAllocation::uniform(&a, 2 * a.num_queues() + 1);
        assert_eq!(alloc.total(), 2 * a.num_queues() + 1);
        let min = alloc.as_slice().iter().min().unwrap();
        let max = alloc.as_slice().iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn traffic_proportional_favors_hot_queues() {
        let a = templates::network_processor();
        let alloc = BufferAllocation::traffic_proportional(&a, 320);
        assert_eq!(alloc.total(), 320);
        // The DMA queue (offered 0.85) must get more than a cold port
        // processor (offered 0.08).
        let mut dma_units = 0;
        let mut cold_units = usize::MAX;
        for q in a.queues() {
            let name = a.queue_name(q.id);
            if name.starts_with("P18@mem") {
                dma_units = alloc.units(q.id);
            }
            if name.starts_with("P9@") {
                cold_units = alloc.units(q.id);
            }
        }
        assert!(dma_units > cold_units, "{dma_units} <= {cold_units}");
    }

    #[test]
    fn new_validates_length() {
        let a = templates::figure1();
        assert!(BufferAllocation::new(&a, vec![1; 3]).is_err());
        let ok = BufferAllocation::new(&a, vec![2; a.num_queues()]).unwrap();
        assert_eq!(ok.total(), 2 * a.num_queues());
    }
}
