//! Minimal lock wrappers with non-poisoning ergonomics.
//!
//! The simulation shares its store and devices behind `Arc<Mutex<_>>`
//! handles. `std::sync::Mutex` returns a `Result` on every `lock()` to
//! surface poisoning; a simulation holds no invariants worth preserving
//! past a panicking test, so this wrapper recovers the guard either way
//! and keeps call sites to a single expression.

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// The guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new lock around `value`.
    pub fn new(value: T) -> Self {
        Self { inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread. Poisoning is
    /// ignored: the previous holder's panic already failed its test.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_gives_exclusive_access() {
        let m = Mutex::new(1u64);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7u64));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock still usable after a panic");
    }

    #[test]
    fn unsized_coercion_works_for_trait_objects() {
        trait Speak {
            fn n(&self) -> u64;
        }
        struct S;
        impl Speak for S {
            fn n(&self) -> u64 {
                3
            }
        }
        let m: Arc<Mutex<dyn Speak + Send>> = Arc::new(Mutex::new(S));
        assert_eq!(m.lock().n(), 3);
    }
}
