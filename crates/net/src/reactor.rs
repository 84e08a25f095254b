//! The mechanism under the event-driven front door: the waker the event
//! loop parks on, which engine workers poke through each query's
//! readiness hook. The connections themselves are a plain `Vec` in the
//! loop: it services and drops them in one pass per tick, polling every
//! in-flight query's ticket, so a wake names nothing — it only ends the
//! park.
//!
//! `std` has no readiness API (`poll(2)` would need FFI, which this
//! workspace forbids), so the server's "poller" is a *tick* loop over
//! nonblocking sockets: every iteration services each connection until
//! its socket reports `WouldBlock`, then parks here. The park is what
//! keeps the loop from spinning — and the [`Waker`] is what keeps the
//! park from adding latency where it matters. The two events sockets
//! cannot signal — a query's hits (or its end) arriving from the
//! [`ServingEngine`] worker pool, and a shutdown request from another
//! thread — both `wake()` the loop instead of waiting for the next tick,
//! so the tick timeout only bounds how quickly the loop notices *socket*
//! readiness (new bytes, new connections), which it polls anyway.
//!
//! Everything in this module is mechanism; the policy (what to do with
//! a batch of hits, when to close a connection) lives in `server.rs`.
//!
//! [`ServingEngine`]: oasis_engine::ServingEngine

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A parking spot for the event loop: `wait_timeout` blocks until
/// either the timeout elapses or another thread calls [`wake`].
///
/// Wakes are *sticky*: a `wake()` delivered while the loop is mid-tick
/// (not parked) makes the next `wait_timeout` return immediately, so a
/// batch of hits can never slip between the loop's drain and its park.
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
        // A wake already pending covers this one: the loop has not yet
        // consumed it, so the notification would find no parked waiter.
        let pending = match self.ready.lock() {
            Ok(mut ready) => std::mem::replace(&mut *ready, true),
            Err(_) => false,
        };
        if !pending {
            self.cv.notify_all();
        }
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
}
