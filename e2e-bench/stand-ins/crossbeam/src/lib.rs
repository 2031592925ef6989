//! Offline stand-in for `crossbeam`: declared by the workspace, never used.
