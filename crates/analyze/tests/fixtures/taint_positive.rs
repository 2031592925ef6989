//! Positive fixture: untrusted wire lengths reach allocation and slicing
//! sinks without any bound, directly or through unchecked arithmetic. Fed to the analyzer
//! under `crates/pmrd/src/…`, where the taint lints are in scope.

/// An uncapped wire length sizes an allocation: `taint_alloc`.
pub fn alloc_from_wire(r: &mut Reader) -> usize {
    let n = r.u32() as usize;
    let v: Vec<u8> = Vec::with_capacity(n);
    v.len()
}

/// An uncapped wire offset indexes a buffer: `taint_index`.
pub fn slice_from_wire(r: &mut Reader, buf: &[u8]) -> u8 {
    let off = r.u16() as usize;
    buf[off]
}

/// Unchecked `*` on a wire length later sizes an allocation: `taint_alloc`,
/// reported at the allocation.
pub fn arith_then_alloc(r: &mut Reader) -> Vec<u8> {
    let n = r.u16() as usize;
    let total = n * 8;
    Vec::with_capacity(total)
}
