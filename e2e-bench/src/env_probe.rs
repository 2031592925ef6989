//! The machine's ceilings, measured in the same run as the layers that
//! are compared with them. A disturbed run shows here first.

use crate::stats::median;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// GB/s of copying a `points`-element `f64` array (bytes copied once,
/// i.e. half the memory traffic), median of five copies.
pub fn memcpy_gbps(points: usize) -> f64 {
    let src: Vec<f64> = (0..points).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; points];
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            (points * 8) as f64 / 1e9 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

fn read_tree(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            bytes += read_tree(&entry.path())?;
        } else if entry.file_type()?.is_file() {
            bytes += std::hint::black_box(fs::read(entry.path())?).len() as u64;
        }
    }
    Ok(bytes)
}

/// GB/s of reading every file under `dir` with `fs::read` (the files were
/// just written, so this is the page cache's rate, as in the workloads).
pub fn file_read_gbps(dir: &Path) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let bytes = read_tree(dir)?;
    Ok(bytes as f64 / 1e9 / t0.elapsed().as_secs_f64())
}

/// Milliseconds for one crash-safe 4 KiB write — temp file, fsync,
/// rename — in `dir`; median of twenty.
pub fn fsync_ms(dir: &Path) -> std::io::Result<f64> {
    let block = [0x5au8; 4096];
    let (tmp, path) = (dir.join(".probe.tmp"), dir.join("probe.bin"));
    let mut times = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&block)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &path)?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    fs::remove_file(&path)?;
    Ok(median(&times).unwrap_or(0.0))
}
