//! A true hash-based semisort (Gu–Shun–Sun–Blelloch \[24\] role).
//!
//! [`crate::group::group_pairs_by_key`] realizes grouping with a parallel
//! comparison sort (`O(k lg k)` work); this module provides the
//! theoretically-faithful alternative: scatter elements into hash buckets
//! with a two-pass counting layout — `O(k)` expected work, `O(lg k)` depth
//! — so equal keys land contiguously *without* ordering distinct keys.
//!
//! The connectivity algorithms are agnostic between the two (grouping is
//! never a dominant term; see DESIGN.md §3); both are tested against each
//! other, and `semisort_pairs` is used by the callers that do not need
//! key-sorted group order (ETT tour construction, adjacency grouping).

use crate::hash::hash64;
use crate::scan::exclusive_scan_usize;
use crate::sync_cell::SyncSlice;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reorder `pairs` so equal keys are contiguous (no global key order) and
/// return one `(key, range)` descriptor per distinct key.
///
/// `O(k)` expected work, `O(lg k)` depth w.h.p. Falls back to the sorting
/// grouper below a size threshold (counting buckets don't pay off there).
///
/// **Determinism contract:** the output layout — bucket order, group order
/// and the element order *inside* each group — is a pure function of the
/// input, independent of thread count and scheduling. The scatter pass
/// below races for slots, so each bucket is canonicalized afterwards by
/// sorting on the full `(key, value)` pair (hence the `V: Ord` bound);
/// batch-dynamic connectivity routes all tie-breaking through this order
/// (fixed vertex-id / slot order), which is what makes whole-structure
/// byte-determinism across `DYNCON_THREADS` settings possible.
pub fn semisort_pairs<K, V>(pairs: &mut Vec<(K, V)>) -> Vec<(K, Range<usize>)>
where
    K: Copy + Eq + Ord + Send + Sync + KeyHash,
    V: Copy + Ord + Send + Sync,
{
    let k = pairs.len();
    if k < crate::SEQ_THRESHOLD {
        return crate::group::group_pairs_by_key(pairs);
    }
    // Bucket count ~ k: expected O(1) distinct keys per bucket.
    let nbuckets = k.next_power_of_two();
    let mask = (nbuckets - 1) as u64;
    let bucket_of = |key: K| (hash64(key.key_hash()) & mask) as usize;

    // Pass 1: histogram.
    let counts: Vec<AtomicUsize> = (0..nbuckets).map(|_| AtomicUsize::new(0)).collect();
    pairs.par_iter().for_each(|&(key, _)| {
        counts[bucket_of(key)].fetch_add(1, Ordering::Relaxed);
    });
    let plain: Vec<usize> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let (offsets, total) = exclusive_scan_usize(&plain);
    debug_assert_eq!(total, k);

    // Pass 2: scatter into bucket slots (racy counters, disjoint slots).
    // `out` starts as a copy of the input purely so every slot holds
    // initialized data of the right type; all k slots are overwritten.
    let cursors: Vec<AtomicUsize> = offsets.iter().map(|&o| AtomicUsize::new(o)).collect();
    let mut out: Vec<(K, V)> = pairs.clone();
    {
        let slots = SyncSlice::new(&mut out);
        pairs.par_iter().for_each(|&(key, val)| {
            let b = bucket_of(key);
            let slot = cursors[b].fetch_add(1, Ordering::Relaxed);
            // SAFETY: fetch_add hands every element a distinct slot inside
            // its bucket's exclusive range.
            unsafe { slots.write(slot, (key, val)) };
        });
    }
    *pairs = out;

    // Pass 3: within each bucket, group the (expected O(1)) distinct keys
    // contiguously and emit descriptors.
    let mut per_bucket: Vec<Vec<(K, Range<usize>)>> =
        (0..nbuckets).into_par_iter().map(|_| Vec::new()).collect();
    {
        let out = SyncSlice::new(&mut per_bucket);
        let buckets = SyncSlice::new(pairs);
        let offsets_ref = &offsets;
        let plain_ref = &plain;
        (0..nbuckets).into_par_iter().for_each(|b| {
            let lo = offsets_ref[b];
            let hi = lo + plain_ref[b];
            if lo == hi {
                return;
            }
            // SAFETY: task b alone touches per_bucket[b], and nothing else
            // reads `per_bucket` until every task has finished.
            let groups = unsafe { out.get_mut(b) };
            // SAFETY: [lo, hi) is bucket b's range from the exclusive scan
            // (hi <= pairs.len()), disjoint from every other bucket's, and
            // nothing else reads `pairs` until every task has finished.
            let slice = unsafe { buckets.range_mut(lo..hi) };
            // Full-pair sort: erases the scatter pass's scheduling-dependent
            // slot order (see the determinism contract above).
            slice.sort_unstable();
            let mut start = 0usize;
            for i in 1..=slice.len() {
                if i == slice.len() || slice[i].0 != slice[start].0 {
                    groups.push((slice[start].0, lo + start..lo + i));
                    start = i;
                }
            }
        });
    }
    per_bucket.into_iter().flatten().collect()
}

/// Keys must expose 64 hashable bits.
pub trait KeyHash {
    /// The bits fed to the hash function.
    fn key_hash(&self) -> u64;
}

impl KeyHash for u32 {
    fn key_hash(&self) -> u64 {
        *self as u64
    }
}
impl KeyHash for u64 {
    fn key_hash(&self) -> u64 {
        *self
    }
}
impl KeyHash for (u32, u32) {
    fn key_hash(&self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn check(pairs: Vec<(u32, u64)>) {
        let mut model: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        for &(k, v) in &pairs {
            model.entry(k).or_default().push(v);
        }
        let mut pairs = pairs;
        let groups = semisort_pairs(&mut pairs);
        assert_eq!(groups.len(), model.len(), "distinct key count");
        let mut covered = 0usize;
        for (key, range) in &groups {
            let mut vals: Vec<u64> = pairs[range.clone()]
                .iter()
                .map(|&(k, v)| {
                    assert_eq!(k, *key, "foreign key inside group");
                    v
                })
                .collect();
            vals.sort_unstable();
            let mut expect = model[key].clone();
            expect.sort_unstable();
            assert_eq!(vals, expect, "key {key}");
            covered += range.len();
        }
        assert_eq!(covered, pairs.len(), "ranges tile the array");
    }

    #[test]
    fn small_falls_back_to_sort() {
        check(vec![(3, 1), (1, 2), (3, 3), (2, 4)]);
    }

    #[test]
    fn large_uniform_keys() {
        let mut rng = SplitMix64::new(1);
        let pairs: Vec<(u32, u64)> = (0..20_000)
            .map(|i| (rng.next_below(512) as u32, i))
            .collect();
        check(pairs);
    }

    #[test]
    fn large_skewed_keys() {
        let mut rng = SplitMix64::new(2);
        // 90% of elements share one key: the adversarial case for
        // bucket-based grouping.
        let pairs: Vec<(u32, u64)> = (0..30_000)
            .map(|i| {
                let k = if rng.next_below(10) > 0 {
                    7
                } else {
                    rng.next_below(100) as u32
                };
                (k, i)
            })
            .collect();
        check(pairs);
    }

    #[test]
    fn all_distinct_keys() {
        let pairs: Vec<(u32, u64)> = (0..10_000).map(|i| (i as u32, i)).collect();
        check(pairs);
    }

    #[test]
    fn empty_and_singleton() {
        check(vec![]);
        check(vec![(9, 9)]);
    }

    #[test]
    fn layout_is_identical_across_thread_counts() {
        // The full determinism contract: array layout AND group descriptors
        // must be byte-identical whether the scatter ran on 1, 2 or 4
        // threads. (20k elements ≫ SEQ_THRESHOLD, so the bucket path runs.)
        let mut rng = SplitMix64::new(11);
        let pairs: Vec<(u32, u64)> = (0..20_000)
            .map(|i| (rng.next_below(300) as u32, i % 97))
            .collect();
        type Layout = (Vec<(u32, u64)>, Vec<(u32, Range<usize>)>);
        let mut reference: Option<Layout> = None;
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = pairs.clone();
            let groups = pool.install(|| semisort_pairs(&mut p));
            match &reference {
                None => reference = Some((p, groups)),
                Some((rp, rg)) => {
                    assert_eq!(&p, rp, "array layout diverged at {threads} threads");
                    assert_eq!(&groups, rg, "group ranges diverged at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn agrees_with_sorting_grouper() {
        let mut rng = SplitMix64::new(5);
        let pairs: Vec<(u32, u64)> = (0..5_000).map(|i| (rng.next_below(64) as u32, i)).collect();
        let mut a = pairs.clone();
        let mut b = pairs;
        let mut ga: Vec<(u32, usize)> = semisort_pairs(&mut a)
            .into_iter()
            .map(|(k, r)| (k, r.len()))
            .collect();
        let mut gb: Vec<(u32, usize)> = crate::group::group_pairs_by_key(&mut b)
            .into_iter()
            .map(|(k, r)| (k, r.len()))
            .collect();
        ga.sort_unstable();
        gb.sort_unstable();
        assert_eq!(ga, gb);
    }
}
