//! The workspace's one lock idiom: [`lock`] and [`wait`].
//!
//! Every `std::sync::Mutex` and `Condvar` in the workspace is taken
//! through these two functions (a root `clippy.toml` forbids the raw
//! `Mutex::lock`, `Condvar::wait` and `Condvar::wait_timeout`). Both
//! recover from poisoning instead of propagating it. The tuner runs
//! work on several threads: the scheduler's evaluator slots, the
//! engine's sharded memo cache, the daemon's campaign workers and the
//! tracer's emit path. A thread that panics while holding one of their
//! locks must not wedge its siblings, and it does not corrupt what the
//! lock guards: every critical section in the workspace leaves its data
//! whole at each point a panic can unwind from (single-statement queue
//! pushes and pops, full-record writes, inserts of values computed
//! outside the lock). So the data behind a poisoned lock is still
//! consistent, and the next holder takes it as it is.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `m`, blocking until it is free. A lock poisoned by a holder
/// that panicked is recovered, not reported (see the module docs).
#[allow(clippy::disallowed_methods)]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv`, releasing `guard` while asleep, and return the guard
/// re-acquired after a notification (or a spurious wake-up: callers
/// re-check their condition in a loop). Poisoning is recovered as in
/// [`lock`].
#[allow(clippy::disallowed_methods)]
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_recovers_the_data_a_panicking_holder_left() {
        let m = Arc::new(Mutex::new(vec![1u32, 2, 3]));
        let held = Arc::clone(&m);
        let joined = thread::spawn(move || {
            let mut v = lock(&held);
            v.push(4);
            panic!("holder panics with the lock held");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), vec![1, 2, 3, 4]);
        lock(&m).push(5);
        assert_eq!(*lock(&m), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn wait_returns_after_a_notify_on_a_poisoned_mutex() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let poisoner = Arc::clone(&pair);
        let _ = thread::spawn(move || {
            let _g = lock(&poisoner.0);
            panic!("poison the mutex");
        })
        .join();
        assert!(pair.0.is_poisoned());

        let notifier = Arc::clone(&pair);
        let waker = thread::spawn(move || {
            *lock(&notifier.0) = true;
            notifier.1.notify_all();
        });
        let mut ready = lock(&pair.0);
        while !*ready {
            ready = wait(&pair.1, ready);
        }
        assert!(*ready);
        drop(ready);
        waker.join().unwrap();
    }
}
