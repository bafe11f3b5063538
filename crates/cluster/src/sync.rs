//! Locking for the cluster: two flavours over `std::sync`, chosen by what a
//! panicked holder can leave behind.
//!
//! * Data-plane state (stores, cache, NameNode shards, WAL) uses the
//!   non-poisoning [`Mutex`] / [`RwLock`] below: every critical section
//!   there leaves its value valid at each step, so a poisoned std lock is
//!   entered anyway and one panicked thread does not cascade. `lock()` /
//!   `read()` / `write()` return the guard directly, which keeps
//!   `BlockStore`'s `Option`/`bool` signatures free of lock errors.
//! * Control-plane state (failure detector, MapReduce slots) keeps plain
//!   `std::sync` locks behind [`locked`] / [`wait_until`], which surface
//!   poisoning as the typed [`Error::LockPoisoned`] so callers propagate it
//!   like any other cluster fault (DESIGN.md §11).

use ear_types::{Error, Result};
use std::sync::{self, Condvar, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock()` ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read()`/`write()` ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Locks `m`, mapping a poisoned lock to [`Error::LockPoisoned`].
///
/// `what` names the lock in the error (e.g. `"failure detector"`).
///
/// # Errors
///
/// [`Error::LockPoisoned`] if a thread panicked while holding the lock.
pub fn locked<'a, T>(m: &'a sync::Mutex<T>, what: &'static str) -> Result<MutexGuard<'a, T>> {
    m.lock().map_err(|_| Error::LockPoisoned { what })
}

/// Blocks on `cv` until `cond` holds for the guarded value, re-checking on
/// every wakeup. Poison-aware counterpart of `Condvar::wait_while`.
///
/// # Errors
///
/// [`Error::LockPoisoned`] if the lock is poisoned while waiting.
pub fn wait_until<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    what: &'static str,
    mut cond: impl FnMut(&T) -> bool,
) -> Result<MutexGuard<'a, T>> {
    while !cond(&guard) {
        guard = cv
            .wait(guard)
            .map_err(|_| Error::LockPoisoned { what })?;
    }
    Ok(guard)
}

#[cfg(test)]
mod tests {
    use super::{locked, wait_until, Error};
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn data_plane_locks_enter_after_a_holder_panicked() {
        let m = Arc::new(super::Mutex::new(1));
        let l = Arc::new(super::RwLock::new(2));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = l2.write();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        *l.write() += 1;
        assert_eq!(*l.read(), 3);
        let m = Arc::try_unwrap(m).unwrap();
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn locked_returns_guard_on_clean_lock() {
        let m = Mutex::new(5);
        assert_eq!(*locked(&m, "test").unwrap(), 5);
    }

    #[test]
    fn locked_maps_poison_to_typed_error() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        match locked(&m, "poisoned counter") {
            Err(Error::LockPoisoned { what }) => assert_eq!(what, "poisoned counter"),
            other => panic!("expected LockPoisoned, got {other:?}"),
        };
    }

    #[test]
    fn wait_until_observes_notified_condition() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let guard = locked(m, "flag").unwrap();
        let guard = wait_until(cv, guard, "flag", |&ready| ready).unwrap();
        assert!(*guard);
        t.join().unwrap();
    }
}
