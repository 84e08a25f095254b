//! The mechanism under the event-driven front door: a waker the event
//! loop parks on and the completion queue engine workers notify through.
//! The connections themselves are a plain `Vec` in the loop: it services
//! and drops them in one pass per tick, and completion tokens name
//! queries, not connections, so no connection key outlives a tick.
//!
//! `std` has no readiness API (`poll(2)` would need FFI, which this
//! workspace forbids), so the server's "poller" is a *tick* loop over
//! nonblocking sockets: every iteration services each connection until
//! its socket reports `WouldBlock`, then parks here. The park is what
//! keeps the loop from spinning — and the [`Waker`] is what keeps the
//! park from adding latency where it matters. The two events sockets
//! cannot signal — a query completing inside the [`ServingEngine`]
//! worker pool, and a shutdown request from another thread — both
//! `wake()` the loop instead of waiting for the next tick, so the
//! tick timeout only bounds how quickly the loop notices *socket*
//! readiness (new bytes, new connections), which it polls anyway.
//!
//! Everything in this module is mechanism; the policy (what to do with
//! a completion, when to close a connection) lives in `server.rs`.
//!
//! [`ServingEngine`]: oasis_engine::ServingEngine

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A parking spot for the event loop: `wait_timeout` blocks until
/// either the timeout elapses or another thread calls [`wake`].
///
/// Wakes are *sticky*: a `wake()` delivered while the loop is mid-tick
/// (not parked) makes the next `wait_timeout` return immediately, so a
/// completion can never slip between the loop's drain and its park.
///
/// [`wake`]: Waker::wake
pub(crate) struct Waker {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    pub(crate) fn new() -> Self {
        Waker {
            ready: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Release a parked [`wait_timeout`](Waker::wait_timeout) (or make
    /// the next one return immediately).
    pub(crate) fn wake(&self) {
        if let Ok(mut ready) = self.ready.lock() {
            *ready = true;
        }
        self.cv.notify_all();
    }

    /// Park until woken or `timeout` elapses, then clear the wake flag.
    /// A poisoned lock degrades to "always awake" — the loop spins a
    /// little hotter instead of deadlocking.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let Ok(guard) = self.ready.lock() else {
            return;
        };
        let Ok((mut ready, _)) = self.cv.wait_timeout_while(guard, timeout, |ready| !*ready) else {
            return;
        };
        *ready = false;
    }
}

/// The queue engine workers push completed-query tokens into, waking
/// the event loop. The loop drains it once per tick and matches tokens
/// against its connections' in-flight requests.
///
/// A token pushed here is a *happened-after* signal: the worker sends
/// the outcome into the ticket's channel strictly before the
/// completion hook runs, so a drained token guarantees the matching
/// `QueryTicket::try_take` observes either the outcome or (if the
/// query panicked) the closed channel — never "still pending".
pub(crate) struct Completions {
    queue: Mutex<Vec<u64>>,
    waker: Waker,
}

impl Completions {
    pub(crate) fn new() -> Self {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new(),
        }
    }

    /// Record that the query named by `token` finished, and wake the
    /// loop. Called from engine worker threads via the completion hook;
    /// a poisoned queue still wakes (the loop falls back to polling).
    pub(crate) fn push(&self, token: u64) {
        if let Ok(mut queue) = self.queue.lock() {
            queue.push(token);
        }
        self.waker.wake();
    }

    /// Take every token pushed since the last drain.
    pub(crate) fn drain(&self) -> Vec<u64> {
        match self.queue.lock() {
            Ok(mut queue) => std::mem::take(&mut *queue),
            Err(_) => Vec::new(),
        }
    }

    /// Wake the loop without a token (shutdown, config pokes).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Park the loop until a push, a wake, or `timeout`.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        self.waker.wait_timeout(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn waker_releases_a_parked_waiter() {
        let waker = Arc::new(Waker::new());
        let remote = Arc::clone(&waker);
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        waker.wait_timeout(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
    }

    #[test]
    fn wake_before_wait_is_sticky() {
        let waker = Waker::new();
        waker.wake();
        let start = Instant::now();
        waker.wait_timeout(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(1));
        // The flag was consumed: the next wait actually parks.
        let start = Instant::now();
        waker.wait_timeout(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn completions_drain_in_push_order() {
        let completions = Completions::new();
        completions.push(3);
        completions.push(1);
        completions.push(2);
        assert_eq!(completions.drain(), vec![3, 1, 2]);
        assert!(completions.drain().is_empty());
    }
}
