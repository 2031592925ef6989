//! L2 fixture: `unsafe` without a `// SAFETY:` comment must fire
//! `unsafe_safety`, and `unsafe impl Send/Sync` must fire `send_sync_impl`
//! even when its safety comment is in place.

pub fn read_first(p: *const u8) -> u8 {
    unsafe { *p } // fires: no SAFETY comment
}

pub struct Handle(*mut u8);

// SAFETY: the raw pointer is owned exclusively by the handle.
unsafe impl Send for Handle {} // fires send_sync_impl
