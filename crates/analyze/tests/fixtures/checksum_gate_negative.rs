//! Negative fixture: the checksum is verified before any decode entry
//! point sees the untrusted payload. Must produce zero findings.

pub fn load(buf: &[u8]) -> Option<Artifact> {
    let mut pos = 0usize;
    let len = u64_at(buf, &mut pos)?;
    verify_checksums(buf, len)?;
    let art = Artifact::from_parts(len)?;
    Some(art)
}
