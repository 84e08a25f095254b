//! Lock discipline for the serving crates: the only `Mutex`, `RwLock`,
//! `Condvar` and keyed/queued collections the serving path may use.
//!
//! The serving crates deny `clippy::disallowed_types` and
//! `clippy::disallowed_methods` (root `clippy.toml`), so the std types and
//! blocking calls this module wraps are reachable only through it:
//!
//! * [`Mutex`] and [`RwLock`] recover from poisoning: the data under a
//!   serving lock stays structurally valid across a panic, and a poisoned
//!   lock must not take every later request down with it.
//! * In debug builds each guard counts itself in a thread-local
//!   held-lock count. The blocking entry points — [`join`], [`sleep`],
//!   [`write_all`], the wire codec's frame read and write, and a
//!   [`Condvar`] wait holding anything but the guard it consumes — panic
//!   when a guard is still held: a guard held across a blocking call
//!   stalls every thread that needs the lock. Release builds compile the
//!   count out, so each wrapper is the std call it wraps.
//! * [`Deque`] and [`OrderedMap`] carry no `Index` impl and no `Deref`,
//!   so a lookup that can miss is an `Option`, never a panic (clippy's
//!   `indexing_slicing` does not see the std collections' `Index` impls).
//!
//! ```compile_fail,E0608
//! let mut queue = oasis_obs::sync::Deque::new();
//! queue.push_back(7u64);
//! let newest = queue[queue.len() - 1];
//! ```
//!
//! The check sees only the paths that run, so every `cargo test` (a debug
//! build) drives it through the daemon's tests.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one module that owns the banned types and blocking calls"
)]

use std::collections::{btree_map, BTreeMap, VecDeque};
use std::io::{self, Write};
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<usize> = const { Cell::new(0) };
    }

    /// Lock guards the calling thread holds right now.
    pub(super) fn count() -> usize {
        COUNT.with(Cell::get)
    }

    /// One guard's share of the count, released on drop.
    #[derive(Debug)]
    pub(super) struct Held(());

    impl Held {
        pub(super) fn new() -> Held {
            COUNT.with(|c| c.set(c.get() + 1));
            Held(())
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            COUNT.with(|c| c.set(c.get().saturating_sub(1)));
        }
    }
}

#[cfg(not(debug_assertions))]
mod held {
    pub(super) fn count() -> usize {
        0
    }

    #[derive(Debug)]
    pub(super) struct Held(());

    impl Held {
        pub(super) fn new() -> Held {
            Held(())
        }
    }
}

use held::Held;

/// Debug builds: panic if the calling thread holds a lock guard from this
/// module, naming the blocking call `what` it is about to make.
#[track_caller]
pub fn assert_unlocked(what: &str) {
    let held = held::count();
    debug_assert!(held == 0, "{what} while holding {held} lock guard(s)");
}

/// [`JoinHandle::join`], after [`assert_unlocked`].
#[track_caller]
pub fn join<T>(handle: JoinHandle<T>) -> std::thread::Result<T> {
    assert_unlocked("thread join");
    handle.join()
}

/// [`std::thread::sleep`], after [`assert_unlocked`].
#[track_caller]
pub fn sleep(duration: Duration) {
    assert_unlocked("sleep");
    std::thread::sleep(duration)
}

/// [`Write::write_all`] to a socket (or anything that may block), after
/// [`assert_unlocked`].
#[track_caller]
pub fn write_all<W: Write + ?Sized>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    assert_unlocked("socket write");
    w.write_all(bytes)
}

/// A mutex whose [`lock`](Mutex::lock) recovers from poisoning.
#[derive(Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The guard of a [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> Mutex<T> {
    /// A mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is free and take it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            inner,
            held: Held::new(),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock whose [`read`](RwLock::read) and
/// [`write`](RwLock::write) recover from poisoning.
#[derive(Debug)]
pub struct RwLock<T>(std::sync::RwLock<T>);

/// A shared guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// The exclusive guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// A reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Block until no writer holds the lock, then share it.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = self.0.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            inner,
            _held: Held::new(),
        }
    }

    /// Block until nobody holds the lock, then take it.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = self.0.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            inner,
            _held: Held::new(),
        }
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable over a [`Mutex`]. A wait consumes the guard it
/// releases; holding any other guard across it panics in debug builds.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A condition variable nobody waits on yet.
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Release `guard`, block until notified, and re-take the lock.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        assert_only_guard();
        let MutexGuard { inner, held } = guard;
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, held }
    }

    /// As [`wait`](Condvar::wait), but return after `timeout` at the
    /// latest.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        assert_only_guard();
        let MutexGuard { inner, held } = guard;
        let (inner, _) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, held }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one()
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all()
    }
}

/// A wait may hold exactly the one guard it consumes.
#[track_caller]
fn assert_only_guard() {
    let held = held::count();
    debug_assert!(
        held == 1,
        "condvar wait while holding {held} lock guard(s) (only the one it releases is allowed)"
    );
}

/// A FIFO queue with checked access only (a `VecDeque` without `Index`).
#[derive(Debug)]
pub struct Deque<T>(VecDeque<T>);

impl<T> Default for Deque<T> {
    fn default() -> Self {
        Deque(VecDeque::new())
    }
}

impl<T> Deque<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Append at the back.
    pub fn push_back(&mut self, value: T) {
        self.0.push_back(value)
    }

    /// Take the front item, if any.
    pub fn pop_front(&mut self) -> Option<T> {
        self.0.pop_front()
    }

    /// The front item, if any.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.0.front_mut()
    }

    /// Front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter()
    }

    /// Front to back, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut()
    }
}

/// An ordered map with checked access only (a `BTreeMap` without
/// `Index`).
#[derive(Debug)]
pub struct OrderedMap<K, V>(BTreeMap<K, V>);

impl<K, V> Default for OrderedMap<K, V> {
    fn default() -> Self {
        OrderedMap(BTreeMap::new())
    }
}

impl<K: Ord, V> OrderedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `key`'s entry, for in-place insert or update.
    pub fn entry(&mut self, key: K) -> btree_map::Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Remove and return the entry with the smallest key.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        self.0.pop_first()
    }

    /// Every entry, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `n` guards as the count sees them: release builds count nothing.
    fn counted(n: usize) -> usize {
        if cfg!(debug_assertions) {
            n
        } else {
            0
        }
    }

    #[test]
    fn a_wait_that_consumes_its_own_guard_is_allowed() {
        let ready = Arc::new((Mutex::new(false), Condvar::new()));
        let setter = Arc::clone(&ready);
        let t = std::thread::spawn(move || {
            *setter.0.lock() = true;
            setter.1.notify_all();
        });
        let mut flag = ready.0.lock();
        while !*flag {
            flag = ready.1.wait(flag);
        }
        assert_eq!(held::count(), counted(1));
        drop(flag);
        assert_eq!(held::count(), 0);
        join(t).unwrap();
        let guard = ready.0.lock();
        let guard = ready.1.wait_timeout(guard, Duration::from_millis(1));
        assert!(*guard);
    }

    #[test]
    fn dropping_the_guard_before_blocking_is_allowed() {
        let queue = Mutex::new(Vec::new());
        {
            let mut held = queue.lock();
            held.push(1u32);
        }
        sleep(Duration::from_millis(1));
        let mut held = queue.lock();
        held.push(2);
        drop(held);
        write_all(&mut Vec::new(), b"frame").unwrap();
        assert_eq!(*queue.lock(), vec![1, 2]);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let lock = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(2u32));
        let (l, r) = (Arc::clone(&lock), Arc::clone(&rw));
        let panicked = std::thread::spawn(move || {
            let _m = l.lock();
            let _w = r.write();
            panic!("poison both locks");
        });
        assert!(join(panicked).is_err());
        *lock.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*lock.lock(), *rw.read()), (2, 3));
        assert_eq!(held::count(), 0);
    }

    #[test]
    fn nested_guards_are_counted_and_released() {
        let (a, b) = (Mutex::new(()), RwLock::new(()));
        let outer = a.lock();
        assert_eq!(held::count(), counted(1));
        {
            let _inner = b.read();
            assert_eq!(held::count(), counted(2));
        }
        let writer = b.write();
        assert_eq!(held::count(), counted(2));
        drop(outer);
        drop(writer);
        assert_eq!(held::count(), 0);
        assert_unlocked("the test's own check");
    }

    #[test]
    fn the_collections_answer_through_checked_access() {
        let mut queue = Deque::new();
        assert!(queue.is_empty() && queue.pop_front().is_none());
        queue.push_back(1);
        queue.push_back(2);
        if let Some(front) = queue.front_mut() {
            *front += 10;
        }
        queue.iter_mut().for_each(|v| *v += 1);
        assert_eq!(queue.iter().copied().collect::<Vec<_>>(), vec![12, 3]);
        assert_eq!((queue.len(), queue.pop_front()), (2, Some(12)));

        let mut ordered = OrderedMap::new();
        for k in [3u64, 1, 2] {
            *ordered.entry(k).or_insert(0) += k;
        }
        *ordered.entry(3).or_insert(0) += 1;
        assert_eq!(ordered.pop_first(), Some((1, 1)));
        assert_eq!(ordered.iter().collect::<Vec<_>>(), vec![(&2, &2), (&3, &4)]);
        assert!(!ordered.is_empty() && ordered.len() == 2);
    }

    #[cfg(debug_assertions)]
    mod held_across_blocking {
        use super::*;

        #[test]
        #[should_panic(expected = "thread join while holding 1 lock guard(s)")]
        fn a_held_let_guard_across_a_blocking_call_panics() {
            let queue = Mutex::new(Vec::<u32>::new());
            let held = queue.lock();
            let _ = join(std::thread::spawn(|| 7u32));
            drop(held);
        }

        #[test]
        #[should_panic(expected = "sleep while holding 1 lock guard(s)")]
        fn an_acquisition_chained_into_a_blocking_call_panics() {
            let queue = Mutex::new(vec![Duration::ZERO]);
            queue.lock().iter().for_each(|d| sleep(*d));
        }

        #[test]
        #[should_panic(expected = "condvar wait while holding 2 lock guard(s)")]
        fn a_wait_holding_a_second_guard_panics() {
            let (inbox, slot, cv) = (Mutex::new(()), Mutex::new(()), Condvar::new());
            let _inbox = inbox.lock();
            let guard = slot.lock();
            let _ = cv.wait_timeout(guard, Duration::ZERO);
        }

        #[test]
        #[should_panic(expected = "socket write while holding 1 lock guard(s)")]
        fn a_read_guard_across_a_socket_write_panics() {
            let generation = RwLock::new(0u64);
            let pinned = generation.read();
            let _ = write_all(&mut Vec::new(), &pinned.to_le_bytes());
        }
    }
}
