//! The workspace's one chunked-scheduling policy.
//!
//! Two fan-out sites schedule independent work in chunks: the sweep
//! campaigns (warm-start chains of consecutive points) and the shard
//! executor (chunks as the unit of cross-process dispatch). Both
//! consume a [`ChunkPolicy`], so the chunk length — and the determinism
//! argument that goes with it — lives in exactly one place. (The
//! decomposed engine runs one job per block and needs no policy.)
//!
//! The load-bearing property: a policy's chunk boundaries depend only on
//! the item count, never on worker count, host count, or timing. Chunk
//! `c` always covers items `c·len .. min((c+1)·len, items)`, so any
//! scheduler — serial loop, `WorkPool`, or a fleet of shard servers —
//! that executes whole chunks and reduces by index reproduces the same
//! bytes.

use std::ops::Range;

/// A chunked-scheduling policy: how many consecutive work items form one
/// unit of scheduling.
///
/// Policies are tiny value types; the named constants document *why*
/// each site uses the length it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    chunk_len: usize,
}

impl ChunkPolicy {
    /// Warm-start chains: 4 consecutive points share one solve context,
    /// and every point after a chunk's first warm-retargets off its
    /// predecessor. A chunk's first point is a cold (bit-reproducible)
    /// solve, except in a warm budget campaign: there point 0 is solved
    /// cold once, and every other chunk start first tries that solve's
    /// basis factor and falls back to cold. Long enough to amortize a
    /// cold factorization, short enough that 1/2/8 workers all see the
    /// same chunk boundaries on small campaigns.
    pub const WARM_CHAIN: ChunkPolicy = ChunkPolicy { chunk_len: 4 };

    /// Independent items (cold campaign points, one random seed per
    /// item): nothing is shared between neighbours, so the scheduling
    /// unit is a single item.
    pub const INDEPENDENT: ChunkPolicy = ChunkPolicy { chunk_len: 1 };

    /// A policy with an explicit chunk length (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub const fn of_len(chunk_len: usize) -> ChunkPolicy {
        assert!(chunk_len >= 1, "chunk length must be at least 1");
        ChunkPolicy { chunk_len }
    }

    /// Items per chunk.
    pub const fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Number of chunks needed to cover `items` work items.
    pub const fn num_chunks(&self, items: usize) -> usize {
        items.div_ceil(self.chunk_len)
    }

    /// The item range of chunk `chunk` over `items` work items, clipped
    /// at the tail. Empty for out-of-range chunks.
    pub fn chunk_range(&self, chunk: usize, items: usize) -> Range<usize> {
        let start = (chunk * self.chunk_len).min(items);
        let end = ((chunk + 1) * self.chunk_len).min(items);
        start..end
    }

    /// All chunk ranges covering `items`, in order — an exact partition
    /// of `0..items`.
    pub fn ranges(&self, items: usize) -> Vec<Range<usize>> {
        (0..self.num_chunks(items))
            .map(|c| self.chunk_range(c, items))
            .collect()
    }

    /// Whether `pos` is a boundary this policy's base chunking also
    /// has: a multiple of the chunk length, or the tail end of the work
    /// list. A coarser partition whose every cut sits on such a
    /// boundary (a union of consecutive base chunks) executes the same
    /// cold-solve/warm-chain structure as a *prefix* of each merged
    /// group, which is what lets a manifest declare longer warm chains
    /// (`scale_probe` uses 256-item chunks) without moving any item
    /// onto a different solve path than an extended chain would give
    /// it.
    pub const fn is_chain_boundary(&self, pos: usize, items: usize) -> bool {
        (pos % self.chunk_len == 0 || pos == items) && pos <= items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_exactly() {
        for len in 1..=5 {
            let policy = ChunkPolicy::of_len(len);
            for items in 0..20 {
                let ranges = policy.ranges(items);
                assert_eq!(ranges.len(), policy.num_chunks(items));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap/overlap at len={len} items={items}");
                    assert!(r.end > r.start, "empty chunk emitted");
                    next = r.end;
                }
                assert_eq!(next, items, "partition must cover 0..items");
            }
        }
    }

    #[test]
    fn boundaries_ignore_anything_but_item_count() {
        let policy = ChunkPolicy::WARM_CHAIN;
        assert_eq!(policy.chunk_range(0, 10), 0..4);
        assert_eq!(policy.chunk_range(1, 10), 4..8);
        assert_eq!(policy.chunk_range(2, 10), 8..10);
        assert_eq!(policy.chunk_range(3, 10), 10..10);
    }

    #[test]
    #[should_panic(expected = "chunk length must be at least 1")]
    fn zero_length_policies_are_rejected() {
        let _ = ChunkPolicy::of_len(0);
    }

    #[test]
    fn chain_boundaries_are_multiples_or_the_tail() {
        let policy = ChunkPolicy::WARM_CHAIN;
        for pos in [0, 4, 8, 10] {
            assert!(policy.is_chain_boundary(pos, 10), "pos {pos}");
        }
        for pos in [1, 3, 5, 9, 11, 12] {
            assert!(!policy.is_chain_boundary(pos, 10), "pos {pos}");
        }
    }
}
