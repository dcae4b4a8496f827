//! Adaptive warm-chain extension: re-chunking a campaign *in its
//! manifest*.
//!
//! Warm-start chains are capped at [`ChunkPolicy::WARM_CHAIN`] (4
//! points) because a chain is also the unit of scheduling — short
//! chains keep 1/2/8 workers busy on small campaigns. But on big,
//! well-behaved sweeps (densely spaced budgets, gently scaled loads)
//! the warm solves inside a chain often take **zero** pivots: the
//! previous optimal basis is already optimal for the next point, and
//! the cold solve that starts the next chain re-derives a basis the
//! solver already held. In a load campaign those cold solves are the
//! dominant cost. A warm budget campaign no longer pays them: every
//! chunk start first tries its anchor, the basis factor of point 0,
//! which answers most starts in zero pivots (see
//! [`WARM_CHUNK`](crate::WARM_CHUNK)). So re-chunking saves cold starts
//! only for load campaigns; on a budget campaign it saves at most a
//! context copy per merged chunk, plus the cold starts the anchor could
//! not answer.
//!
//! This module extends chains where the evidence says it is free:
//! while a base chunk's warm solves averaged at most
//! [`AdaptivePolicy::max_avg_pivots`] (default 0 — the basis was
//! literally already optimal), the next base chunk is merged into the
//! same chain, up to [`AdaptivePolicy::max_chain_chunks`] base chunks
//! per chain.
//!
//! The crucial move is *where* the decision lands: not in an executor,
//! but in the manifest's declared chunk partition
//! ([`rechunk_manifest`] → [`CampaignManifest::with_chunks`]). Chunk
//! boundaries are part of a campaign's meaning, so once the coarser
//! partition is written into the manifest, every execution path —
//! serial, pooled, sharded, streamed — sees the same chain boundaries
//! and produces the same bytes, by the same argument that covers the
//! default partition. Merged boundaries are still chain boundaries of
//! the base policy ([`ChunkPolicy::is_chain_boundary`]), so the
//! manifest stays valid wire-side, and the regression suite pins that
//! a re-chunked campaign's merged rendering is byte-identical to the
//! default chunking's.
//!
//! Pivot evidence comes from a prior run's trace-only
//! [`SweepPoint::lp_iterations`] (a profile run of the same campaign,
//! e.g. at a coarser grid). Points parsed back from the wire carry no
//! pivot counts — re-chunk from a locally executed report.
//!
//! [`SweepPoint::lp_iterations`]: crate::report::SweepPoint

use std::ops::Range;

use socbuf_core::wire::CampaignManifest;
use socbuf_core::ChunkPolicy;

use crate::campaign::SweepError;
use crate::report::SweepReport;

/// When to extend a warm chain across a base-chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Extend past a base chunk only if its warm solves (every point
    /// but the chunk's first) averaged at most this many
    /// pivots. The default, `0.0`, demands the strongest evidence: the
    /// carried basis was already optimal at every warm point.
    pub max_avg_pivots: f64,
    /// Base chunks per merged chain, at most. Caps how much scheduling
    /// granularity the merge gives up; the default (4) allows chains up
    /// to 4× the base chain length.
    pub max_chain_chunks: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            max_avg_pivots: 0.0,
            max_chain_chunks: 4,
        }
    }
}

/// Mean pivots over a base chunk's warm solves (everything after the
/// chunk's first point, however it started). Single-point chunks have
/// no warm solves and average 0.
fn warm_avg(r: &Range<usize>, pivots: &[usize]) -> f64 {
    let warm = &pivots[r.start + 1..r.end];
    if warm.is_empty() {
        return 0.0;
    }
    warm.iter().sum::<usize>() as f64 / warm.len() as f64
}

/// The coarsened chunk partition for `pivots.len()` items: consecutive
/// base chunks of `base` merged while the policy's evidence holds.
/// Every returned boundary is a chain boundary of `base`, so the
/// result is always a valid manifest partition; with a policy that
/// never extends (e.g. `max_chain_chunks == 1`) it *is* the base
/// partition.
///
/// `pivots[i]` is the trace pivot count of work item `i` under the
/// base chunking.
pub fn adaptive_chunks(
    policy: &AdaptivePolicy,
    pivots: &[usize],
    base: ChunkPolicy,
) -> Vec<Range<usize>> {
    let base_ranges = base.ranges(pivots.len());
    let mut out: Vec<Range<usize>> = Vec::new();
    let mut group_chunks = 0usize;
    for (i, r) in base_ranges.iter().enumerate() {
        let extend = group_chunks >= 1
            && group_chunks < policy.max_chain_chunks
            && warm_avg(&base_ranges[i - 1], pivots) <= policy.max_avg_pivots;
        if extend {
            out.last_mut()
                .expect("group_chunks >= 1 implies a group")
                .end = r.end;
            group_chunks += 1;
        } else {
            out.push(r.clone());
            group_chunks = 1;
        }
    }
    out
}

/// Rebuilds `manifest` with the chunk partition [`adaptive_chunks`]
/// derives from `profile` — a locally executed report of the same
/// campaign whose struct-side pivot traces are intact. Non-warm-start
/// shapes (and random campaigns, which never chain) come back
/// unchanged: there are no chains to extend.
///
/// The returned manifest has the same config hash (chunking is not
/// part of the hashed campaign text) and a partition every consumer —
/// wire validation, shard planners, reducers — accepts.
///
/// # Errors
///
/// [`SweepError::BadConfig`] when `profile` does not cover the
/// manifest's campaign (wrong kind or point count), or when the
/// derived partition is rejected wire-side (which would be a bug in
/// this module — the alignment invariant makes it unrepresentable).
pub fn rechunk_manifest(
    manifest: &CampaignManifest,
    profile: &SweepReport,
    policy: &AdaptivePolicy,
) -> Result<CampaignManifest, SweepError> {
    if !manifest.shape.warm_start() {
        return Ok(manifest.clone());
    }
    let expected_kind = manifest.shape.kind_tag();
    if profile.kind.tag() != expected_kind {
        return Err(SweepError::BadConfig(format!(
            "adaptive re-chunk: profile report is \"{}\" but the manifest is \"{expected_kind}\"",
            profile.kind.tag()
        )));
    }
    let items = manifest.items();
    if profile.points.len() != items {
        return Err(SweepError::BadConfig(format!(
            "adaptive re-chunk: profile report has {} points but the manifest has {items} items",
            profile.points.len()
        )));
    }
    let pivots: Vec<usize> = profile.points.iter().map(|p| p.lp_iterations).collect();
    let ranges = adaptive_chunks(policy, &pivots, manifest.shape.chunk_policy());
    CampaignManifest::with_chunks(manifest.shape.clone(), manifest.config.clone(), ranges)
        .map_err(|e| SweepError::BadConfig(format!("adaptive re-chunk: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdaptivePolicy {
        AdaptivePolicy::default()
    }

    #[test]
    fn quiet_chains_merge_up_to_the_cap() {
        // 16 items, all warm solves at 0 pivots: one merged chain of
        // 4 base chunks (the cap), alignment preserved.
        let pivots = vec![0usize; 16];
        let chunks = adaptive_chunks(&policy(), &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(chunks, vec![0..16]);

        // 20 items: the cap splits a fifth base chunk off.
        let pivots = vec![0usize; 20];
        let chunks = adaptive_chunks(&policy(), &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(chunks, vec![0..16, 16..20]);
    }

    #[test]
    fn a_noisy_chunk_stops_the_extension_after_it() {
        // Chunk 1 (items 4..8) has a warm solve with pivots: chunk 2
        // must start a fresh chain, but chunk 1 itself still merges
        // into chunk 0's chain (chunk 0 was quiet).
        let mut pivots = vec![0usize; 16];
        pivots[6] = 3;
        let chunks = adaptive_chunks(&policy(), &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(chunks, vec![0..8, 8..16]);
    }

    #[test]
    fn cold_solve_pivots_do_not_count_as_warm_noise() {
        // Chunk-initial solves are cold by definition; their pivot
        // counts say nothing about basis stability.
        let mut pivots = vec![0usize; 12];
        pivots[0] = 50;
        pivots[4] = 50;
        pivots[8] = 50;
        let chunks = adaptive_chunks(&policy(), &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(chunks, vec![0..12]);
    }

    #[test]
    fn a_higher_threshold_tolerates_small_warm_activity() {
        let mut pivots = vec![0usize; 8];
        pivots[2] = 2; // chunk 0 warm avg = 2/3
        let strict = adaptive_chunks(&policy(), &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(strict, vec![0..4, 4..8]);
        let lenient = AdaptivePolicy {
            max_avg_pivots: 1.0,
            ..policy()
        };
        let chunks = adaptive_chunks(&lenient, &pivots, ChunkPolicy::WARM_CHAIN);
        assert_eq!(chunks, vec![0..8]);
    }

    #[test]
    fn boundaries_stay_on_base_chain_boundaries() {
        let pivots: Vec<usize> = (0..23).map(|i| usize::from(i % 5 == 0)).collect();
        let base = ChunkPolicy::WARM_CHAIN;
        let chunks = adaptive_chunks(&policy(), &pivots, base);
        let mut next = 0;
        for r in &chunks {
            assert_eq!(r.start, next);
            assert!(r.end > r.start);
            assert!(base.is_chain_boundary(r.end, pivots.len()), "end {}", r.end);
            next = r.end;
        }
        assert_eq!(next, pivots.len());
    }

    #[test]
    fn a_unit_cap_reproduces_the_base_partition() {
        let pivots = vec![0usize; 10];
        let unit = AdaptivePolicy {
            max_chain_chunks: 1,
            ..policy()
        };
        let base = ChunkPolicy::WARM_CHAIN;
        assert_eq!(adaptive_chunks(&unit, &pivots, base), base.ranges(10));
    }
}
