//! The one way this crate takes a mutex a panicking thread may have held.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`. When an earlier holder panicked, `reset` puts the value
/// back into a state that is valid on its own and the poison is cleared,
/// so one panic (a checkpoint writer thread, a daemon connection handler)
/// does not turn every later access into a second panic.
///
/// Sound only where `reset` makes the value valid whatever the panicking
/// holder left: a cache is dropped and rebuilt from disk; a map whose
/// every update is a single insert or remove is valid as it stands.
pub(crate) fn lock_recover<T>(m: &Mutex<T>, reset: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        reset(&mut guard);
        m.clear_poison();
        guard
    })
}
