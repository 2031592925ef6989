//! Work directories that never outlive the run.

use std::fs;
use std::path::{Path, PathBuf};

/// A directory `<root>/work/<workload>-<pid>`, removed on drop — so on
/// every exit path that unwinds. A kill leaves it behind; the next run's
/// [`sweep_stale`] removes it.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path, workload: &str) -> std::io::Result<WorkDir> {
        let dir = root.join("work").join(format!("{workload}-{}", std::process::id()));
        // A previous process with the same pid may have been killed here.
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure while unwinding.
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Remove `<root>/work/<name>-<pid>` directories whose pid is no longer a
/// running process. Returns the names removed.
pub fn sweep_stale(root: &Path) -> Vec<String> {
    let mut removed = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("work")) else { return removed };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name.rsplit_once('-').and_then(|(_, pid)| pid.parse::<u32>().ok()) else {
            continue;
        };
        if !Path::new(&format!("/proc/{pid}")).exists() && fs::remove_dir_all(entry.path()).is_ok()
        {
            removed.push(name);
        }
    }
    removed.sort();
    removed
}

/// Bytes and regular files under `dir`, recursively.
pub fn usage(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut files) = (0, 0);
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (b, f) = usage(&entry.path())?;
            bytes += b;
            files += f;
        } else {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// An output directory for one test, inside the package's `target/`
/// (cargo runs tests from the package root). Relative and short: unix
/// socket paths hold about a hundred bytes.
#[cfg(test)]
pub fn test_root(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("target/test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("test output dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_dir_is_removed_on_drop_and_on_unwind() {
        let root = test_root("raii");
        let path = {
            let w = WorkDir::create(&root, "serve-hot").expect("create");
            fs::write(w.path().join("x"), b"x").expect("write");
            w.path().to_path_buf()
        };
        assert!(!path.exists());

        let root2 = root.clone();
        let unwound = std::panic::catch_unwind(move || {
            let _w = WorkDir::create(&root2, "serve-cold").expect("create");
            panic!("op failed");
        });
        assert!(unwound.is_err());
        assert_eq!(fs::read_dir(root.join("work")).expect("work dir").count(), 0);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn sweep_removes_dead_pids_only() {
        let root = test_root("sweep");
        let work = root.join("work");
        // pid_max is at most 2^22 on Linux, so this pid cannot be running.
        let dead = work.join("serve-hot-4194999");
        let live = work.join(format!("refactor-write-{}", std::process::id()));
        let other = work.join("notes");
        for d in [&dead, &live, &other] {
            fs::create_dir_all(d.join("shard_000")).expect("mkdir");
        }
        assert_eq!(sweep_stale(&root), vec!["serve-hot-4194999".to_string()]);
        assert!(!dead.exists() && live.exists() && other.exists());
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn usage_walks_subdirectories() {
        let root = test_root("usage");
        fs::create_dir_all(root.join("a/b")).expect("mkdir");
        fs::write(root.join("a/one"), [0u8; 10]).expect("write");
        fs::write(root.join("a/b/two"), [0u8; 5]).expect("write");
        assert_eq!(usage(&root).expect("usage"), (15, 2));
        fs::remove_dir_all(&root).expect("cleanup");
    }
}
