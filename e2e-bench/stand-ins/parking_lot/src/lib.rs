//! Offline stand-in for `parking_lot`: the workspace uses `Mutex::new` and
//! `lock()` only. Like the real crate, `lock()` never reports poisoning.

use std::sync::{MutexGuard, PoisonError};

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
