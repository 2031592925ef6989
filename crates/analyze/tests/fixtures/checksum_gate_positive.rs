//! Positive fixture: a persisted payload is structurally decoded before
//! its checksum is verified — the verify call exists but comes too late.

pub fn load(buf: &[u8]) -> Option<Artifact> {
    let mut r = ByteReader::new(buf, "artifact");
    let len = r.u64().ok()?;
    let art = Artifact::from_parts(len)?;
    verify_checksums(buf, len)?;
    Some(art)
}
