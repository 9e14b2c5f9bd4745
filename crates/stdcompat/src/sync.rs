//! A poison-transparent mutex.
//!
//! The workspace's lock users (the monitoring agent) treat a panic
//! while holding a lock as recoverable — the guarded state is plain
//! data — so [`Mutex::lock`] unwraps poison via
//! [`std::sync::PoisonError::into_inner`] instead of returning a
//! `Result` every caller would have to unwrap.

/// A mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread. Poison from a
    /// panicked holder is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn poisoned_mutex_stays_usable() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
