//! Offline stand-in for `serde`. The crates the benchmark links derive
//! `Serialize`/`Deserialize` but never call a serializer, so the traits
//! are markers and the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de> {}
