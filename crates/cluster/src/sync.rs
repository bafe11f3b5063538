//! Locking for the cluster: two flavours over `std::sync`, chosen by what a
//! panicked holder can leave behind, and the one lock order.
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
//!
//! # Lock order
//!
//! A lock is a *leaf* (the default level, [`level::Leaf`]) or sits at a
//! level of the order declared below. A levelled `lock` / `read` / `write`
//! takes the zero-sized token of what the caller holds ([`Held`]) and
//! compiles only in order. A leaf takes no lock while held; one that must,
//! joins the order here first. The one exception is a
//! [`crate::BlockCache`]'s state lock, which reads its DataNode's store
//! index under its write lock ([`crate::BlockCache::admit_if_stored`],
//! [`crate::BlockCache::store_through`]): the
//! store's locks are true leaves and no store call enters a cache, so the
//! pair cannot cycle.
//!
//! # Counters
//!
//! Counters that concurrent threads bump without a lock ([`crate::ClusterIo`]'s
//! I/O accounting, a [`crate::BlockCache`]'s hits) are
//! [`ear_types::Striped`]: one padded copy per thread stripe, summed when
//! read.

use ear_types::{Error, Result};
use std::marker::PhantomData;
use std::sync::{
    self, Condvar, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// The lock levels. Uninhabited: they only name a place in the order.
pub mod level {
    /// A lock outside the order: it is taken without a token and takes no
    /// lock while held.
    #[derive(Debug)]
    pub enum Leaf {}
    /// Nothing held: the token an entry point starts from.
    #[derive(Debug)]
    pub enum Unlocked {}
    /// The metadata log's checkpoint flight: one checkpoint at a time.
    #[derive(Debug)]
    pub enum Checkpoint {}
    /// The NameNode's placement policy and its RNG stream.
    #[derive(Debug)]
    pub enum Placement {}
    /// The NameNode's stripe tables and id counters.
    #[derive(Debug)]
    pub enum Stripes {}
    /// A NameNode location shard.
    #[derive(Debug)]
    pub enum Shard {}
    /// The metadata write-ahead log.
    #[derive(Debug)]
    pub enum Wal {}
}

/// `Self` may be held while a lock at level `L` is taken.
pub trait Precedes<L> {}

/// Every level precedes every level after it.
macro_rules! order {
    () => {};
    ($first:ident $(, $rest:ident)*) => {
        $(impl Precedes<level::$rest> for level::$first {})*
        order!($($rest),*);
    };
}

// The lock order, coarse to fine: the only place it is written down.
order!(Unlocked, Checkpoint, Placement, Stripes, Shard, Wal);

/// Proof that the caller holds a lock at level `L` (or, for
/// [`level::Unlocked`], none). Taking a lock at level `L` while holding
/// `H` needs `&mut Held<H>` with `H` before `L` in the order, and returns
/// the guard with a `Held<L>` that borrows the coarser token for as long
/// as either lives. A public entry point, which holds nothing, starts from
/// [`Held::entry`]; nothing else calls it.
///
/// Locks nest coarse to fine:
///
/// ```
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// # let shard: Mutex<u8, level::Shard> = Mutex::new(0);
/// let nothing = Held::entry();
/// let (stripe, mut held) = stripes.lock(nothing);
/// let (slot, _) = shard.lock(&mut held);
/// # drop((stripe, slot));
/// ```
///
/// never fine then coarse:
///
/// ```compile_fail
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// # let shard: Mutex<u8, level::Shard> = Mutex::new(0);
/// let nothing = Held::entry();
/// let (slot, mut held) = shard.lock(nothing);
/// let (stripe, _) = stripes.lock(&mut held);
/// # drop((stripe, slot));
/// ```
///
/// nor one level twice:
///
/// ```compile_fail
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// # let shard: Mutex<u8, level::Stripes> = Mutex::new(0);
/// let nothing = Held::entry();
/// let (stripe, mut held) = stripes.lock(nothing);
/// let (slot, _) = shard.lock(&mut held);
/// # drop((stripe, slot));
/// ```
///
/// A coarser token is free again once the finer guard is gone:
///
/// ```
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// # let shard: Mutex<u8, level::Shard> = Mutex::new(0);
/// let nothing = Held::entry();
/// let (stripe, mut held) = stripes.lock(nothing);
/// let (first, _) = shard.lock(&mut held);
/// drop(first);
/// let (second, _) = shard.lock(&mut held);
/// # drop((stripe, second));
/// ```
///
/// but not while it lives:
///
/// ```compile_fail
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// # let shard: Mutex<u8, level::Shard> = Mutex::new(0);
/// let nothing = Held::entry();
/// let (stripe, mut held) = stripes.lock(nothing);
/// let (first, _) = shard.lock(&mut held);
/// let (second, _) = shard.lock(&mut held);
/// drop(first);
/// # drop((stripe, second));
/// ```
///
/// An entry point mints its token once and hands it to the bodies it
/// calls, so a body that starts from nothing (the NameNode's checkpoint)
/// runs once the entry's guards are gone:
///
/// ```
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// fn checkpoint(stripes: &Mutex<u8, level::Stripes>, nothing: &mut Held<'_, level::Unlocked>) {
///     drop(stripes.lock(nothing));
/// }
/// let nothing = Held::entry();
/// let (stripe, _) = stripes.lock(nothing);
/// drop(stripe);
/// checkpoint(&stripes, nothing);
/// ```
///
/// and never while one lives:
///
/// ```compile_fail
/// # use ear_cluster::sync::{level, Held, Mutex};
/// # let stripes: Mutex<u8, level::Stripes> = Mutex::new(0);
/// fn checkpoint(stripes: &Mutex<u8, level::Stripes>, nothing: &mut Held<'_, level::Unlocked>) {
///     drop(stripes.lock(nothing));
/// }
/// let nothing = Held::entry();
/// let (stripe, _) = stripes.lock(nothing);
/// checkpoint(&stripes, nothing);
/// drop(stripe);
/// ```
#[derive(Debug)]
pub struct Held<'a, L>(PhantomData<(&'a mut (), L)>);

impl Held<'static, level::Unlocked> {
    /// The token of a caller that holds no lock. Leaking a zero-sized box
    /// allocates nothing.
    pub fn entry() -> &'static mut Self {
        Box::leak(Box::new(Held(PhantomData)))
    }
}

/// A mutual-exclusion lock whose `lock()` ignores poisoning, at level `L`.
#[derive(Debug)]
pub struct Mutex<T, L = level::Leaf>(sync::Mutex<T>, PhantomData<L>);

impl<T, L> Mutex<T, L> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value), PhantomData)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default, L> Default for Mutex<T, L> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T, L> Mutex<T, L> where level::Unlocked: Precedes<L> {
    /// Acquires the lock while holding `H`, blocking until available.
    pub fn lock<'a, H: Precedes<L>>(
        &'a self,
        _held: &'a mut Held<'_, H>,
    ) -> (MutexGuard<'a, T>, Held<'a, L>) {
        (self.0.lock().unwrap_or_else(PoisonError::into_inner), Held(PhantomData))
    }

    /// Acquires the lock while holding `H` if no other thread holds it.
    pub fn try_lock<'a, H: Precedes<L>>(
        &'a self,
        _held: &'a mut Held<'_, H>,
    ) -> Option<(MutexGuard<'a, T>, Held<'a, L>)> {
        let guard = match self.0.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some((guard, Held(PhantomData)))
    }
}

/// A reader-writer lock whose `read()`/`write()` ignore poisoning, at
/// level `L`.
#[derive(Debug)]
pub struct RwLock<T, L = level::Leaf>(sync::RwLock<T>, PhantomData<L>);

impl<T, L> RwLock<T, L> {
    /// Creates a new rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value), PhantomData)
    }
}

impl<T> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T, L> RwLock<T, L> where level::Unlocked: Precedes<L> {
    /// Acquires a shared read guard while holding `H`.
    pub fn read<'a, H: Precedes<L>>(
        &'a self,
        _held: &'a mut Held<'_, H>,
    ) -> (RwLockReadGuard<'a, T>, Held<'a, L>) {
        (self.0.read().unwrap_or_else(PoisonError::into_inner), Held(PhantomData))
    }

    /// Acquires an exclusive write guard while holding `H`.
    pub fn write<'a, H: Precedes<L>>(
        &'a self,
        _held: &'a mut Held<'_, H>,
    ) -> (RwLockWriteGuard<'a, T>, Held<'a, L>) {
        (self.0.write().unwrap_or_else(PoisonError::into_inner), Held(PhantomData))
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
        let m = Arc::new(super::Mutex::<i32>::new(1));
        let l = Arc::new(super::RwLock::<i32>::new(2));
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
