//! Negative fixture: the entry point propagates errors, asserts are
//! contract checks, the one `expect` it reaches carries a waiver, and the
//! one bare panic sits in a helper no entry point can reach (so it is quiet
//! off the `panic_paths` trees, and the only finding on them).

pub fn retrieve_snapshot(bytes: &[u8]) -> Result<u32, String> {
    budget_for(checked(bytes))
}

fn checked(bytes: &[u8]) -> u32 {
    assert!(!bytes.is_empty() || bytes.is_empty(), "tautology, but allowed");
    // lint:allow(panic_reach): length fits u32 by the segment-format invariant
    bytes.len().try_into().expect("fits")
}

fn budget_for(k: u32) -> Result<u32, String> {
    if k > 64 {
        Err(format!("plane width out of range: {k}"))
    } else {
        Ok(k)
    }
}

/// Diagnostic helper, never called from an entry point.
pub fn dump_or_die(k: usize) -> usize {
    if k > 64 {
        panic!("diagnostic overflow");
    }
    k
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
