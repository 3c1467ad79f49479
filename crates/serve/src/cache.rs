//! In-memory design cache — load a compiled design once, solve against it
//! thousands of times.
//!
//! Keys are [`crate::protocol::design_hash`] values (FNV-1a 64 over the
//! encoded `.fbb` bytes), so the same image loaded by two clients — or
//! inline by one and by path from another — lands on one cached
//! [`DesignDb`]. Entries are shared out as `Arc`s: a solve holds its design
//! alive even if the entry is evicted mid-flight.
//!
//! Eviction is least-recently-used, bounded by the `--cache-designs`
//! capacity the operator picked at startup: a hit moves its design to the
//! back of the recency queue, so a design that keeps serving solves
//! survives even when bulk traffic (a sweep loading many one-shot designs)
//! churns through the rest of the capacity. The recency bump is a linear
//! scan of the queue — at the tens-of-designs capacities this daemon runs
//! with, that stays well under the decode cost a wrong eviction causes.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use fbb_db::DesignDb;

/// Snapshot of cache counters, taken under the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Designs currently cached.
    pub designs: u64,
    /// Lookups that found their design.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

/// Bounded, thread-safe design cache (see the module docs). No code that
/// can panic runs under its lock, so a poisoned lock still guards a
/// consistent cache and is recovered rather than propagated.
pub struct DesignCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Arc<DesignDb>>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Moves `hash` to the most-recently-used end of the recency queue.
    fn touch(&mut self, hash: u64) {
        if let Some(pos) = self.order.iter().position(|&h| h == hash) {
            self.order.remove(pos);
            self.order.push_back(hash);
        }
    }
}

impl DesignCache {
    /// Creates a cache holding at most `capacity` designs (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DesignCache { capacity: capacity.max(1), inner: Mutex::new(Inner::default()) }
    }

    /// Looks up a design, recording a hit or miss (both locally and as
    /// `serve_cache_hits` / `serve_cache_misses` telemetry). A hit marks
    /// the design most-recently-used.
    pub fn get(&self, hash: u64) -> Option<Arc<DesignDb>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(&hash).cloned() {
            Some(db) => {
                inner.hits += 1;
                inner.touch(hash);
                fbb_telemetry::counter("serve_cache_hits", 1);
                Some(db)
            }
            None => {
                inner.misses += 1;
                fbb_telemetry::counter("serve_cache_misses", 1);
                None
            }
        }
    }

    /// Inserts a decoded design under `hash`. Returns `true` if the design
    /// was new, `false` if it was already cached (the existing entry is
    /// kept — same hash means same bytes — but still counts as a touch).
    /// Evicts the least-recently-used entry when full.
    pub fn insert(&self, hash: u64, db: Arc<DesignDb>) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.map.contains_key(&hash) {
            inner.touch(hash);
            return false;
        }
        if inner.map.len() >= self.capacity {
            if let Some(coldest) = inner.order.pop_front() {
                inner.map.remove(&coldest);
                inner.evictions += 1;
                fbb_telemetry::counter("serve_cache_evictions", 1);
            }
        }
        inner.map.insert(hash, db);
        inner.order.push_back(hash);
        fbb_telemetry::counter("serve_cache_loads", 1);
        true
    }

    /// Counter snapshot for the STATS opcode.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            designs: inner.map.len() as u64,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_core::Granularity;
    use fbb_db::DesignDb;

    fn tiny_db() -> Arc<DesignDb> {
        // The smallest compile the workspace offers: a 2-gate netlist
        // through the real pipeline.
        use fbb_device::{BiasLadder, BodyBiasModel, CellKind, DriveStrength, Library};
        use fbb_netlist::NetlistBuilder;
        use fbb_placement::{Placer, PlacerOptions};

        let mut b = NetlistBuilder::new("cache-test");
        let a = b.input("a");
        let x = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).expect("arity");
        let y = b.gate(CellKind::Inv, DriveStrength::X1, &[x]).expect("arity");
        b.output(y, "y");
        let nl = b.finish().expect("valid netlist");
        let library = Library::date09_45nm();
        let placement =
            Placer::new(PlacerOptions::default()).place(&nl, &library).expect("placeable");
        let chara = library.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().expect("ladder"),
        );
        Arc::new(
            DesignDb::build("test", &nl, &placement, &chara, &[0.05], &[Granularity::Row], 3)
                .expect("tiny design compiles"),
        )
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let cache = DesignCache::new(2);
        let db = tiny_db();
        assert!(cache.get(1).is_none());
        assert!(cache.insert(1, db.clone()));
        assert!(!cache.insert(1, db.clone()), "re-insert is a no-op");
        assert!(cache.insert(2, db.clone()));
        // Touch design 1: under FIFO it would be next out; under LRU the
        // re-touched design survives and 2 is evicted instead.
        assert!(cache.get(1).is_some());
        assert!(cache.insert(3, db.clone()), "third insert evicts the LRU entry");
        assert!(cache.get(1).is_some(), "re-touched design survived eviction");
        assert!(cache.get(2).is_none(), "least-recently-used entry evicted");
        assert!(cache.get(3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.designs, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn duplicate_insert_counts_as_a_touch() {
        let cache = DesignCache::new(2);
        let db = tiny_db();
        assert!(cache.insert(1, db.clone()));
        assert!(cache.insert(2, db.clone()));
        assert!(!cache.insert(1, db.clone()), "duplicate insert keeps the entry");
        assert!(cache.insert(3, db.clone()));
        assert!(cache.get(1).is_some(), "duplicate insert refreshed recency");
        assert!(cache.get(2).is_none());
    }


    #[test]
    fn a_poisoned_lock_still_answers() {
        let cache = Arc::new(DesignCache::new(2));
        let db = tiny_db();
        assert!(cache.insert(1, db.clone()));
        let holder = Arc::clone(&cache);
        let joined = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("a holder of the cache lock panics");
        })
        .join();
        assert!(joined.is_err());
        assert!(cache.inner.is_poisoned());
        assert!(cache.get(1).is_some());
        assert!(cache.insert(2, db));
        let stats = cache.stats();
        assert_eq!((stats.designs, stats.hits), (2, 1));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = DesignCache::new(0);
        assert!(cache.insert(9, tiny_db()));
        assert!(cache.get(9).is_some());
    }
}
