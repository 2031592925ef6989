//! Positive fixture: direct panic forms in one fn, and a panic two hops
//! below an entry point. Linted as `crates/mgard/src/fixture.rs` (a
//! `panic_paths` tree) every marked line fires; linted as
//! `crates/sim/src/fixture.rs` (an entry tree only) just the one that
//! `retrieve_snapshot` reaches does.

pub fn decode(bytes: &[u8]) -> u32 {
    let first = bytes.first().unwrap(); // fires on a panic path: .unwrap()
    if *first == 0 {
        panic!("zero prefix"); // fires on a panic path: panic!
    }
    let len: u32 = bytes.len().try_into().expect("fits"); // fires on a panic path: .expect()
    len
}

pub fn retrieve_snapshot(k: usize) -> usize {
    budget_for(k)
}

fn budget_for(k: usize) -> usize {
    decode_width(k)
}

fn decode_width(k: usize) -> usize {
    if k > 64 {
        panic!("plane width out of range: {k}"); // fires everywhere: reachable
    }
    k
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_in_tests_never_count() {
        let v: Option<u8> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
