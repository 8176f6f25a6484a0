//! The versioned-read machinery behind [`crate::ConnServer::read_view`]:
//! a bounded retention window of [`ReadView`]s the writer publishes at
//! every round seal, plus a pool of reader threads that drain view
//! requests off the commit path.

use dyncon_api::{empty_window_error, DynConError, ReadView, Version};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The retained snapshot window. The writer pushes one [`ReadView`] per
/// committed round (versions are dense, so the window is a contiguous
/// range `[oldest, newest]`); readers clone views out from under a
/// mutex whose critical section is a constant-time lookup plus an `Arc`
/// bump — the writer is never blocked behind a reader's actual query
/// work.
pub(crate) struct ViewStore {
    retain: usize,
    window: Mutex<VecDeque<ReadView>>,
}

impl ViewStore {
    /// An empty store retaining at most `retain` versions (≥ 1).
    pub(crate) fn new(retain: usize) -> Self {
        Self {
            retain: retain.max(1),
            window: Mutex::new(VecDeque::new()),
        }
    }

    /// How many versions the store keeps before evicting the oldest.
    #[cfg(test)]
    pub(crate) fn retain(&self) -> usize {
        self.retain
    }

    /// Publish the view of a freshly committed version (the writer's
    /// side). Versions must arrive in order, each exactly one past the
    /// previous `newest`. Returns the number of versions now retained
    /// (for the `snapshot_retained` gauge) and the view this evicted, if
    /// any, whose buffers the writer may recycle
    /// ([`ReadView::advance`]'s `spare`).
    pub(crate) fn publish(&self, view: ReadView) -> (usize, Option<ReadView>) {
        let mut w = self.window.lock().unwrap();
        debug_assert!(
            w.back().map_or(true, |b| b.version() + 1 == view.version()),
            "views are published in version order"
        );
        w.push_back(view);
        let mut evicted = None;
        while w.len() > self.retain {
            evicted = w.pop_front();
        }
        (w.len(), evicted)
    }

    /// The retained `[oldest, newest]` range, or `None` when empty.
    pub(crate) fn bounds(&self) -> Option<(Version, Version)> {
        let w = self.window.lock().unwrap();
        match (w.front(), w.back()) {
            (Some(oldest), Some(newest)) => Some((oldest.version(), newest.version())),
            _ => None,
        }
    }

    /// Clone out the view at exactly `version`. On success also returns
    /// the view's age in rounds (`newest - version`, for the age
    /// histogram).
    pub(crate) fn get_at(&self, version: Version) -> Result<(ReadView, u64), DynConError> {
        let w = self.window.lock().unwrap();
        let (oldest, newest) = match (w.front(), w.back()) {
            (Some(o), Some(n)) => (o.version(), n.version()),
            _ => return Err(empty_window_error(version)),
        };
        if version < oldest || version > newest {
            return Err(DynConError::UnknownVersion {
                requested: version,
                oldest,
                newest,
            });
        }
        let view = w[(version - oldest) as usize].clone();
        Ok((view, newest - version))
    }

    /// Clone out the newest view (age 0 by definition).
    pub(crate) fn get_newest(&self) -> Result<ReadView, DynConError> {
        let w = self.window.lock().unwrap();
        w.back().cloned().ok_or_else(|| empty_window_error(0))
    }
}

type ReadJob = Box<dyn FnOnce() + Send>;

/// Completion handle of one reader-pool job (or an inline-executed
/// read when the server has no pool). Redeem with [`ReadHandle::wait`].
#[derive(Debug)]
pub struct ReadHandle<R> {
    inner: HandleInner<R>,
}

#[derive(Debug)]
enum HandleInner<R> {
    /// Ran inline; the result is already here.
    Ready(R),
    /// Running on a reader thread; the result arrives over the channel.
    Pending(Receiver<R>),
}

impl<R> ReadHandle<R> {
    /// A handle that is already resolved (inline execution).
    pub(crate) fn ready(value: R) -> Self {
        Self {
            inner: HandleInner::Ready(value),
        }
    }

    pub(crate) fn pending(rx: Receiver<R>) -> Self {
        Self {
            inner: HandleInner::Pending(rx),
        }
    }

    /// Block until the read has run. Fails with
    /// [`DynConError::ServiceClosed`] only if the pool was torn down
    /// before the job could run (the job's view is self-contained, so
    /// pool shutdown drains already-queued jobs rather than dropping
    /// them — this error is the can't-happen-in-orderly-shutdown path).
    pub fn wait(self) -> Result<R, DynConError> {
        match self.inner {
            HandleInner::Ready(value) => Ok(value),
            HandleInner::Pending(rx) => rx.recv().map_err(|_| DynConError::ServiceClosed),
        }
    }
}

/// A fixed pool of reader threads executing view queries off the commit
/// path. Jobs are closures over a cloned [`ReadView`] — fully
/// self-contained — so the pool never touches the writer, the queue, or
/// the backend. Dropping the pool drains every queued job, then joins
/// the workers.
pub(crate) struct ReaderPool {
    tx: Option<Sender<ReadJob>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReaderPool {
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<ReadJob>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("dyncon-reader-{i}"))
                    .spawn(move || loop {
                        // Holding the receiver lock only for the recv
                        // keeps job execution concurrent across workers.
                        let job = rx.lock().unwrap().recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // pool dropped, queue drained
                        }
                    })
                    .expect("spawn dyncon reader thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Queue `job` on the pool; the handle resolves when a worker ran it.
    pub(crate) fn execute<R, F>(&self, job: F) -> ReadHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        let boxed: ReadJob = Box::new(move || {
            // A hung-up receiver means the caller dropped the handle;
            // the result is simply discarded.
            let _ = tx.send(job());
        });
        self.tx
            .as_ref()
            .expect("pool sender lives until drop")
            .send(boxed)
            .expect("reader workers outlive the sender");
        ReadHandle::pending(rx)
    }
}

impl Drop for ReaderPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain what is queued and exit.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(version: Version) -> ReadView {
        ReadView::build(4, version, vec![(0, 1)])
    }

    #[test]
    fn store_keeps_a_sliding_window() {
        let store = ViewStore::new(2);
        assert_eq!(store.bounds(), None);
        assert_eq!(store.get_newest().unwrap_err(), empty_window_error(0));
        assert_eq!(store.publish(view(0)), (1, None));
        assert_eq!(store.publish(view(1)), (2, None));
        assert_eq!(
            store.publish(view(2)),
            (2, Some(view(0))),
            "bounded at retain=2, handing back the evicted view"
        );
        assert_eq!(store.bounds(), Some((1, 2)));
        let (v1, age) = store.get_at(1).unwrap();
        assert_eq!((v1.version(), age), (1, 1));
        assert_eq!(store.get_newest().unwrap().version(), 2);
        // Evicted and future versions both carry the window bounds.
        assert_eq!(
            store.get_at(0).unwrap_err(),
            DynConError::UnknownVersion {
                requested: 0,
                oldest: 1,
                newest: 2
            }
        );
        assert_eq!(
            store.get_at(9).unwrap_err(),
            DynConError::UnknownVersion {
                requested: 9,
                oldest: 1,
                newest: 2
            }
        );
    }

    #[test]
    fn retain_is_clamped_to_one() {
        let store = ViewStore::new(0);
        assert_eq!(store.retain(), 1);
        store.publish(view(0));
        store.publish(view(1));
        assert_eq!(store.bounds(), Some((1, 1)));
    }

    #[test]
    fn pool_runs_jobs_and_drains_at_shutdown() {
        let pool = ReaderPool::new(2);
        let handles: Vec<ReadHandle<u64>> = (0..16u64)
            .map(|i| {
                let v = view(i);
                pool.execute(move || v.version() * 2)
            })
            .collect();
        // Drop the pool BEFORE waiting: queued jobs must still run.
        drop(pool);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().unwrap(), 2 * i as u64);
        }
    }

    #[test]
    fn inline_handle_is_pre_resolved() {
        let h = ReadHandle::ready(7u32);
        assert_eq!(h.wait().unwrap(), 7);
    }
}
