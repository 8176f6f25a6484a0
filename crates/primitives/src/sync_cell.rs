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

/// A shared view of a mutable slice permitting racy-by-construction writes
/// to *disjoint* indices from multiple threads.
pub struct SyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: moving a `SyncSlice` to another thread moves only the shared
// borrow of the cells; every write through it goes through
// `unsafe fn write/get_mut`, whose contracts require caller-proved
// disjointness, and `T: Send` lets the written values cross threads.
unsafe impl<'a, T: Send + Sync> Send for SyncSlice<'a, T> {}
// SAFETY: sharing a `SyncSlice` lets several threads call `write` and
// `get_mut` at once; their contracts make the indices touched within a
// phase disjoint, so no element is written while another thread reads or
// writes it, and `T: Sync` covers concurrent reads of unwritten elements.
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
