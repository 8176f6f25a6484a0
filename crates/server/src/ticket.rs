//! Blocking per-request completion handles.

use dyncon_api::DynConError;
use std::sync::{Arc, Condvar, Mutex};

/// What one submitted request gets back after its round commits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestResult {
    /// The commit round (0-based, monotonically increasing, **local to
    /// this server process**) that applied this request. Rounds are
    /// durable in submission order: once a ticket resolves, every
    /// request of every earlier round is applied.
    pub round: u64,
    /// The [`dyncon_api::Version`] the round committed as:
    /// [`crate::ServerConfig::first_version`]` + `[`RequestResult::round`].
    /// In a durable stack this is the WAL round id — stable across
    /// process lifetimes, unlike `round` — so it is the value to pass to
    /// [`dyncon_api::VersionedRead::read_view_at`] or to a later request's
    /// [`crate::SubmitOptions::min_version`] read-your-writes fence.
    pub version: u64,
    /// Edges the request's **whole round** inserted. A round coalesces
    /// many requests into one backend batch and the backend counts per
    /// batch call, so per-request attribution is not defined — these are
    /// round-level aggregates. A coordinator that submits exactly one
    /// request per round (the sharding layer) reads them as its own.
    pub inserted: usize,
    /// Edges the request's whole round deleted (round-level aggregate,
    /// see [`RequestResult::inserted`]).
    pub deleted: usize,
    /// Answers to **this request's** `Op::Query` operations, in the
    /// request's own operation order.
    pub answers: Vec<bool>,
}

/// The shared slot a writer fills and a client waits on. One per request;
/// plain `Mutex` + `Condvar`, no async runtime.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<Option<Result<RequestResult, DynConError>>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn fill(&self, outcome: Result<RequestResult, DynConError>) {
        let mut state = self.state.lock().unwrap();
        debug_assert!(state.is_none(), "a request resolves exactly once");
        *state = Some(outcome);
        self.cv.notify_all();
    }
}

/// Completion handle of one submitted request. Obtain it from
/// [`crate::ConnServer::submit_with`]; redeem it with [`Ticket::wait`].
///
/// Dropping a ticket without waiting is allowed — the request still
/// commits with its round (group commit is all-or-nothing per round);
/// only the answers are discarded.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the request's round commits; returns the request's
    /// query answers, or the error that failed the whole round (e.g.
    /// [`DynConError::Unsupported`] from a backend that cannot perform
    /// one of the round's operations).
    pub fn wait(self) -> Result<RequestResult, DynConError> {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self.slot.cv.wait(state).unwrap();
        }
    }

    /// True once the round has committed ([`Ticket::wait`] will not
    /// block).
    pub fn ready(&self) -> bool {
        self.slot.state.lock().unwrap().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ticket_blocks_until_filled() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        assert!(!ticket.ready());
        let h = thread::spawn(move || ticket.wait());
        slot.fill(Ok(RequestResult {
            round: 3,
            version: 13,
            inserted: 0,
            deleted: 0,
            answers: vec![true, false],
        }));
        let r = h.join().unwrap().unwrap();
        assert_eq!((r.round, r.version, r.answers.len()), (3, 13, 2));
    }

    #[test]
    fn ticket_propagates_round_errors() {
        let slot = Arc::new(Slot::default());
        slot.fill(Err(DynConError::ServiceClosed));
        let ticket = Ticket { slot };
        assert!(ticket.ready());
        assert_eq!(ticket.wait(), Err(DynConError::ServiceClosed));
    }
}
