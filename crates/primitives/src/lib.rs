//! # dyncon-primitives
//!
//! Work-depth style parallel primitives used throughout the
//! *Parallel Batch-Dynamic Graph Connectivity* (SPAA 2019) reproduction.
//!
//! The paper (§2, "Parallel Primitives") assumes the following toolbox:
//!
//! * **semisort** — group equal keys contiguously ([`group`]),
//! * a **parallel dictionary** with batch insert / delete / lookup
//!   ([`dict::ConcurrentDict`]),
//! * **pack** — parallel filtering by a boolean sequence ([`scan`]),
//! * plus parallel spanning-forest building blocks (union-find lives in
//!   `dyncon-spanning`, built on [`hash`] and [`rng`] from here).
//!
//! Outside the paper's toolbox, [`frame`] is the checksummed record
//! framing the serving stack's write-ahead log and telemetry export share.
//!
//! Everything is implemented on top of [rayon]'s fork-join primitives, which
//! realize the MT-RAM model the paper analyses (see DESIGN.md §3 for the
//! model-to-implementation mapping).
//!
//! All primitives here are deterministic given fixed seeds except where
//! explicitly documented (the concurrent dictionary's slot assignment order
//! is scheduling dependent, but its *contents* are deterministic).

pub mod dict;
pub mod frame;
pub mod group;
pub mod hash;
pub mod listrank;
pub mod rng;
pub mod scan;
pub mod semisort;
pub mod sync_cell;

pub use dict::ConcurrentDict;
pub use group::{dedup_sorted, group_pairs_by_key, sort_dedup};
pub use hash::{hash64, FxBuildHasher, FxHashMap, FxHashSet};
pub use listrank::resolve_chains;
pub use rng::SplitMix64;
pub use scan::{
    exclusive_scan_usize, pack, pack_by, pack_index, par_expand2, par_map_collect, par_tabulate,
};
pub use semisort::{semisort_pairs, KeyHash};
pub use sync_cell::SyncSlice;

/// Number of items below which batch operations fall back to a sequential
/// loop. Spawning rayon tasks for tiny batches costs more than it saves.
pub const SEQ_THRESHOLD: usize = 1 << 10;

/// Run `f` over `0..n` in parallel if `n` is large, sequentially otherwise.
///
/// This is the workhorse "parallel for" of the whole code base: every phase
/// of every batch algorithm is expressed as one or more of these loops with
/// barrier semantics between them (the call does not return until every
/// iteration finished, which provides the happens-before edges our
/// `Relaxed` atomics rely on).
#[inline]
pub fn par_for(n: usize, f: impl Fn(usize) + Sync) {
    use rayon::prelude::*;
    if n < SEQ_THRESHOLD {
        for i in 0..n {
            f(i);
        }
    } else {
        (0..n).into_par_iter().for_each(&f);
    }
}

/// Like [`par_for`] but over the items of a slice.
#[inline]
pub fn par_for_each<T: Sync>(items: &[T], f: impl Fn(&T) + Sync + Send) {
    use rayon::prelude::*;
    if items.len() < SEQ_THRESHOLD {
        for it in items {
            f(it);
        }
    } else {
        items.par_iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_visits_every_index_small() {
        let hits = (0..100).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        par_for(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_visits_every_index_large() {
        let n = SEQ_THRESHOLD * 4;
        let hits = (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_each_sums() {
        let v: Vec<u64> = (0..5000).collect();
        let total = AtomicUsize::new(0);
        par_for_each(&v, |x| {
            total.fetch_add(*x as usize, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed) as u64, 5000 * 4999 / 2);
    }
}
