//! A keyed LRU cache of warm [`SolveContext`]s.
//!
//! The whole point of serving is answering repeated and nearby queries
//! at warm-solve cost: a context that has already solved once carries a
//! factorized LP and an optimal basis snapshot, so the next budget on
//! the same (architecture, config) re-solves in ~0 pivots. The cache
//! keys contexts by the **canonical wire rendering** of the
//! architecture and config — not a hash of it — so two keys collide
//! only when the requests are genuinely identical; a collision can
//! never serve the wrong context (correctness is never traded for
//! memory; capacity bounds it instead).
//!
//! # Two lookups, one count
//!
//! The server looks a `size` request up under at most two keys, and
//! counts exactly one hit or miss for it:
//!
//! 1. The **raw key**: the request's `arch` bytes, `'\n'`, its `config`
//!    bytes, exactly as they arrived. [`ContextCache::contains`] peeks
//!    at it without counting. A raw hit solves on that context without
//!    decoding the architecture or config and without building a key:
//!    a [`RawKey`] borrows the two spans from the frame and compares
//!    them against the stored keys in place, and
//!    [`ContextCache::checkout_keyed`] hands the stored key back for
//!    [`ContextCache::checkin`] to reuse.
//! 2. On a raw miss, the request is decoded from the frame's tape and
//!    looked up under the canonical [`cache_key`] of what it decoded to.
//!    A partial config (`{"state_cap":16}`), reordered fields or extra
//!    whitespace land here, and still hit a context a canonical request
//!    left behind.
//!
//! Only the lookup the request solves on, [`ContextCache::checkout`],
//! counts.
//!
//! A raw hit is exact. Contexts are only ever checked in under the
//! canonical key of a decoded architecture and config, so a raw key
//! that matches one spells both canonically. Canonical text decodes to
//! a value that renders to the same text (the round-trip law
//! `crates/core/tests/wire_round_trip.rs` pins), and decoding replays
//! every builder input the text carries, so the request decodes to
//! exactly the cached context's architecture and config. Canonical
//! text has no raw newline, so the `'\n'` separator cannot make two
//! different (arch, config) pairs spell the same key.
//!
//! # Checkout semantics
//!
//! A context is *removed* from the cache while a request solves on it
//! ([`ContextCache::checkout`]) and reinserted afterwards
//! ([`ContextCache::checkin`]). Two concurrent requests for the same
//! key therefore never share a context: the first takes the warm one,
//! the second misses and solves cold — slower, but byte-identical by
//! the warm ≡ cold contract the pipeline tests pin. Reinsertion puts
//! the context at the most-recently-used end and evicts from the
//! least-recently-used end once over capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use socbuf_core::wire::{architecture_to_json, sizing_config_to_json};
use socbuf_core::{SizingConfig, SolveContext};
use socbuf_soc::Architecture;

/// Counter snapshot (see [`ContextCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Contexts currently cached.
    pub entries: usize,
    /// Capacity in entries.
    pub capacity: usize,
    /// Checkouts that found a warm context.
    pub hits: u64,
    /// Checkouts that found nothing (cold solves).
    pub misses: u64,
    /// Contexts evicted by capacity pressure.
    pub evictions: u64,
    /// Simplex pivots spent by solves that started warm.
    pub warm_pivots: u64,
    /// Simplex pivots spent by solves that started cold.
    pub cold_pivots: u64,
}

/// The cache key: canonical architecture JSON + `'\n'` + canonical
/// config JSON. Exact by construction — see the module docs.
pub fn cache_key(arch: &Architecture, config: &SizingConfig) -> String {
    let mut key = architecture_to_json(arch);
    key.push('\n');
    key.push_str(&sizing_config_to_json(config));
    key
}

/// A key to look a context up under, compared against each stored
/// key without building one.
pub trait CacheLookup {
    /// Whether `stored` is this key.
    fn matches(&self, stored: &str) -> bool;
}

impl CacheLookup for str {
    fn matches(&self, stored: &str) -> bool {
        self == stored
    }
}

impl CacheLookup for String {
    fn matches(&self, stored: &str) -> bool {
        self == stored
    }
}

/// A `size` frame's raw cache key, borrowed from the frame: the `arch`
/// value's bytes, `'\n'`, then the `config` value's bytes (see the
/// module docs). It matches a stored key spelled that way without
/// being built; its [`std::fmt::Display`] spells it out when a key
/// must be owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawKey<'a> {
    arch: &'a str,
    config: &'a str,
}

impl<'a> RawKey<'a> {
    /// The raw key of the `arch` and `config` spans.
    pub fn new(arch: &'a str, config: &'a str) -> RawKey<'a> {
        RawKey { arch, config }
    }
}

impl CacheLookup for RawKey<'_> {
    fn matches(&self, stored: &str) -> bool {
        stored.len() == self.arch.len() + 1 + self.config.len()
            && stored.starts_with(self.arch)
            && stored.as_bytes()[self.arch.len()] == b'\n'
            && stored.ends_with(self.config)
    }
}

impl std::fmt::Display for RawKey<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n{}", self.arch, self.config)
    }
}

/// A bounded LRU of warm contexts plus hit/miss/pivot counters.
#[derive(Debug)]
pub struct ContextCache {
    /// LRU order: index 0 is least recently used.
    entries: Mutex<Vec<(String, SolveContext)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warm_pivots: AtomicU64,
    cold_pivots: AtomicU64,
}

impl ContextCache {
    /// A cache holding at most `capacity` contexts (0 disables caching:
    /// every checkout misses, every checkin is dropped).
    pub fn new(capacity: usize) -> ContextCache {
        ContextCache {
            entries: Mutex::new(Vec::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_pivots: AtomicU64::new(0),
            cold_pivots: AtomicU64::new(0),
        }
    }

    /// Whether a context is cached under `key`. Counts nothing and
    /// leaves the LRU order alone.
    pub fn contains<K: CacheLookup + ?Sized>(&self, key: &K) -> bool {
        let entries = self.entries.lock().expect("cache lock poisoned");
        entries.iter().any(|(k, _)| key.matches(k))
    }

    /// Removes and returns the context for `key`, if cached. The caller
    /// owns it until [`ContextCache::checkin`] — see the module docs
    /// for why checkout removes.
    pub fn checkout<K: CacheLookup + ?Sized>(&self, key: &K) -> Option<SolveContext> {
        self.checkout_keyed(key).map(|(_, ctx)| ctx)
    }

    /// [`ContextCache::checkout`], handing back the stored key with the
    /// context, so a caller whose lookup key is borrowed checks the
    /// context back in without building its key again.
    pub fn checkout_keyed<K: CacheLookup + ?Sized>(
        &self,
        key: &K,
    ) -> Option<(String, SolveContext)> {
        let mut entries = self.entries.lock().expect("cache lock poisoned");
        match entries.iter().position(|(k, _)| key.matches(k)) {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entries.remove(i))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns a context to the cache at the most-recently-used end,
    /// evicting from the least-recently-used end when over capacity.
    /// If a concurrent request reinserted the same key first, the newer
    /// context replaces it (both are equally warm; keeping one bounds
    /// memory).
    pub fn checkin(&self, key: String, ctx: SolveContext) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().expect("cache lock poisoned");
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            entries.remove(i);
        }
        entries.push((key, ctx));
        while entries.len() > self.capacity {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the pivot count of a finished solve under the warm or
    /// cold counter.
    pub fn record_solve(&self, warm: bool, pivots: usize) {
        let counter = if warm {
            &self.warm_pivots
        } else {
            &self.cold_pivots
        };
        counter.fetch_add(pivots as u64, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().expect("cache lock poisoned").len();
        CacheStats {
            entries,
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            warm_pivots: self.warm_pivots.load(Ordering::Relaxed),
            cold_pivots: self.cold_pivots.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::templates;

    fn ctx() -> SolveContext {
        SolveContext::new(&templates::figure1(), &SizingConfig::small())
    }

    #[test]
    fn checkout_removes_and_checkin_restores() {
        let cache = ContextCache::new(4);
        let key = cache_key(&templates::figure1(), &SizingConfig::small());
        assert!(cache.checkout(&key).is_none(), "empty cache must miss");
        cache.checkin(key.clone(), ctx());
        let taken = cache.checkout(&key).expect("hit after checkin");
        assert!(cache.checkout(&key).is_none(), "checkout removes the entry");
        cache.checkin(key.clone(), taken);
        assert!(cache.checkout(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = ContextCache::new(2);
        cache.checkin("a".into(), ctx());
        cache.checkin("b".into(), ctx());
        // Touch "a" so "b" becomes LRU.
        let a = cache.checkout("a").unwrap();
        cache.checkin("a".into(), a);
        cache.checkin("c".into(), ctx());
        assert!(cache.checkout("b").is_none(), "LRU entry must be evicted");
        assert!(cache.checkout("a").is_some());
        assert!(cache.checkout("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ContextCache::new(0);
        cache.checkin("a".into(), ctx());
        assert!(cache.checkout("a").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn a_raw_key_matches_the_key_it_spells() {
        let cache = ContextCache::new(4);
        let key = cache_key(&templates::figure1(), &SizingConfig::small());
        let (arch, config) = key.split_once('\n').unwrap();
        let raw = RawKey::new(arch, config);
        assert_eq!(raw.to_string(), key);
        assert!(!cache.contains(&raw));
        cache.checkin(key.clone(), ctx());
        assert!(cache.contains(&raw));
        // A span that is a prefix or suffix of the stored one, or a
        // config that swallowed the separator, is another key.
        let short = RawKey::new(&arch[..arch.len() - 1], config);
        let joined = format!("{arch}\n");
        for other in [short, RawKey::new(&joined, &config[1..])] {
            assert!(!cache.contains(&other), "{other}");
        }
        let (stored, taken) = cache.checkout_keyed(&raw).expect("raw hit");
        assert_eq!(stored, key);
        cache.checkin(stored, taken);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
    }

    #[test]
    fn keys_are_exact_not_hashed() {
        let small = SizingConfig::small();
        let mut other = small.clone();
        other.state_cap += 1;
        let k1 = cache_key(&templates::figure1(), &small);
        let k2 = cache_key(&templates::figure1(), &other);
        let k3 = cache_key(&templates::amba(), &small);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, cache_key(&templates::figure1(), &SizingConfig::small()));
    }
}
