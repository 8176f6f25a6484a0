//! Phase-disjoint shared-slice writes.
//!
//! PBBS-style parallel algorithms frequently scatter into an output buffer
//! where *the algorithm* guarantees index disjointness (e.g. after an
//! exclusive scan handed every chunk its own output range) but the type
//! system cannot see it. [`SyncSlice`] is the minimal, audited escape hatch:
//! an `UnsafeCell`-wrapped slice whose `write` is `unsafe fn`, shifting the
//! disjointness proof obligation to the (always local and commented) call
//! site.

use std::cell::UnsafeCell;
use std::ops::Range;

/// A shared view of a mutable slice permitting racy-by-construction writes
/// to *disjoint* indices from multiple threads.
pub struct SyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: moving a `SyncSlice` to another thread moves only the shared
// borrow of the cells; every write through it goes through
// `unsafe fn write/get_mut/range_mut`, whose contracts require
// caller-proved disjointness, and `T: Send` lets the written values cross
// threads.
unsafe impl<'a, T: Send + Sync> Send for SyncSlice<'a, T> {}
// SAFETY: sharing a `SyncSlice` lets several threads call `write`,
// `get_mut` and `range_mut` at once; their contracts make the indices
// touched within a phase disjoint, so no element is written while another
// thread reads or writes it, and `T: Sync` covers concurrent reads of
// unwritten elements.
unsafe impl<'a, T: Send + Sync> Sync for SyncSlice<'a, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wrap a uniquely borrowed slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T] -> &[UnsafeCell<T>]` is sound: UnsafeCell<T> has
        // the same layout as T and we hold the unique borrow for 'a.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    /// No other thread may concurrently read or write index `i` during the
    /// current parallel phase.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.data[i].get() = value;
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    /// Same contract as [`SyncSlice::write`]: index-level exclusivity.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.data[i].get()
    }

    /// Mutable access to the elements in `range`.
    ///
    /// # Safety
    /// `range` lies inside the slice, and no other thread reads or writes
    /// any index in it during the current parallel phase: ranges handed to
    /// concurrent tasks must be disjoint.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(
            range.start <= range.end && range.end <= self.data.len(),
            "range {range:?} outside a slice of {}",
            self.data.len()
        );
        // `UnsafeCell::raw_get` turns the shared cell pointer into a
        // pointer that may be written through; `UnsafeCell<T>` has `T`'s
        // layout, so the cells in `range` are `range.len()` consecutive `T`s.
        let first = UnsafeCell::raw_get(self.data.as_ptr().add(range.start));
        std::slice::from_raw_parts_mut(first, range.end - range.start)
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No concurrent writer to index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        *self.data[i].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn disjoint_parallel_writes() {
        let mut v = vec![0u64; 10_000];
        {
            let s = SyncSlice::new(&mut v);
            (0..10_000usize).into_par_iter().for_each(|i| {
                // SAFETY: every index written exactly once.
                unsafe { s.write(i, i as u64 * 2) };
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
    }

    #[test]
    fn len_reports() {
        let mut v = vec![1u8; 5];
        let s = SyncSlice::new(&mut v);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn disjoint_parallel_ranges_write_each_element_once() {
        // Uneven ranges (lengths 0, 1, 2, ...) tiling the whole slice.
        let bounds: Vec<usize> = (0..64usize)
            .scan(0, |end, len| {
                *end += len;
                Some(*end)
            })
            .collect();
        let mut v = vec![0u32; *bounds.last().unwrap()];
        {
            let s = SyncSlice::new(&mut v);
            (0..bounds.len()).into_par_iter().for_each(|r| {
                let lo = if r == 0 { 0 } else { bounds[r - 1] };
                // SAFETY: range r is [bounds[r-1], bounds[r]), inside the
                // slice and disjoint from every other task's range, and
                // nothing reads `v` until every task has finished.
                let part = unsafe { s.range_mut(lo..bounds[r]) };
                for x in part {
                    *x += 1;
                }
            });
        }
        // A missed element reads 0, an element two ranges overlap reads 2.
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside a slice of 4")]
    fn range_past_the_end_is_caught_in_debug_builds() {
        let mut v = [0u8; 4];
        let s = SyncSlice::new(&mut v);
        // SAFETY: the range is out of bounds on purpose; the debug bounds
        // check panics before any element is touched.
        let _ = unsafe { s.range_mut(2..5) };
    }

    #[test]
    fn chunked_ranges() {
        // The pack() use case: each task owns a contiguous range.
        let mut out = vec![0u32; 100];
        {
            let s = SyncSlice::new(&mut out);
            (0..10usize).into_par_iter().for_each(|chunk| {
                for i in 0..10 {
                    let idx = chunk * 10 + i;
                    // SAFETY: task `chunk` alone writes indices
                    // chunk*10..chunk*10+10 (< 100), and nothing reads `out`
                    // until every task has finished.
                    unsafe { s.write(idx, chunk as u32) };
                }
            });
        }
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x as usize, i / 10);
        }
    }
}
