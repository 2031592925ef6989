//! Positive fixture: a persisted payload is structurally decoded before
//! its checksum is verified — the verify call exists but comes too late.

pub fn load(buf: &[u8]) -> Option<Artifact> {
    let mut pos = 0usize;
    let len = u64_at(buf, &mut pos)?;
    let art = Artifact::from_parts(len)?;
    verify_checksums(buf, len)?;
    Some(art)
}
