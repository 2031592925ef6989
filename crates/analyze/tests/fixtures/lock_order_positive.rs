//! Positive fixture: a lock-order cycle (`a` before `b` in one function,
//! `b` before `a` in another) — `lock_order` — plus a guard held across a
//! segment fetch and one held across a backoff loop, which the fold made
//! `blocking_under_lock` findings.

use std::sync::Mutex;

pub struct Store {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Store {
    pub fn fetch_segment(&self, k: u32) -> u32 {
        k
    }

    pub fn swap_ab(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
        let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
        *ga + *gb
    }

    pub fn swap_ba(&self) -> u32 {
        let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
        let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
        *ga + *gb
    }

    pub fn held_across_fetch(&self) -> u32 {
        let g = self.a.lock().unwrap_or_else(|p| p.into_inner());
        self.fetch_segment(*g)
    }

    pub fn held_across_backoff(&self) -> u32 {
        let g = self.b.lock().unwrap_or_else(|p| p.into_inner());
        for attempt in 0..3 {
            backoff_wait(attempt);
        }
        *g
    }
}

fn backoff_wait(_attempt: u32) {}
