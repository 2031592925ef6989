//! Negative fixture: the checksum is verified before any decode entry
//! point sees the untrusted payload. Must produce zero findings.

pub fn load(buf: &[u8]) -> Option<Artifact> {
    let mut r = ByteReader::new(buf, "artifact");
    let len = r.u64().ok()?;
    verify_checksums(buf, len)?;
    let art = Artifact::from_parts(len)?;
    Some(art)
}
