//! Per-tenant admission control.
//!
//! The daemon bounds in-flight retrievals two ways: a global cap (its
//! worker pool's appetite for concurrent fetch loops) and a per-tenant
//! cap (so one noisy tenant cannot monopolise every slot). Admission is
//! checked *before* any planning or fetching, and rejection is graceful
//! — the client receives a `Busy` report and decides when to retry,
//! rather than queueing invisibly inside the daemon.

use pmr_error::sync::{rank, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Admission caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum retrievals in flight daemon-wide.
    pub max_inflight: usize,
    /// Maximum retrievals in flight for any single tenant.
    pub max_inflight_per_tenant: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_inflight: 32, max_inflight_per_tenant: 8 }
    }
}

#[derive(Default)]
struct Counts {
    total: usize,
    per_tenant: BTreeMap<String, usize>,
    rejected: u64,
}

/// Shared admission state. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    counts: Arc<Mutex<Counts>>,
}

/// RAII admission slot: dropping it releases both the global and the
/// tenant count.
pub struct Permit {
    tenant: String,
    counts: Arc<Mutex<Counts>>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut g = self.counts.lock();
        g.total = g.total.saturating_sub(1);
        if let Some(n) = g.per_tenant.get_mut(&self.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                g.per_tenant.remove(&self.tenant);
            }
        }
    }
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission { cfg, counts: Arc::new(Mutex::new(rank::ADMISSION, Counts::default())) }
    }

    /// Try to admit one retrieval for `tenant`. `None` means over a cap —
    /// the caller should answer `Busy`.
    pub fn try_acquire(&self, tenant: &str) -> Option<Permit> {
        let mut g = self.counts.lock();
        let tenant_inflight = g.per_tenant.get(tenant).copied().unwrap_or(0);
        if g.total >= self.cfg.max_inflight || tenant_inflight >= self.cfg.max_inflight_per_tenant {
            g.rejected += 1;
            return None;
        }
        g.total += 1;
        *g.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Some(Permit { tenant: tenant.to_string(), counts: Arc::clone(&self.counts) })
    }

    /// Requests turned away since daemon start.
    pub fn rejected(&self) -> u64 {
        self.counts.lock().rejected
    }

    /// Retrievals currently in flight.
    pub fn inflight(&self) -> usize {
        self.counts.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_cap_bites_before_global() {
        let adm = Admission::new(AdmissionConfig { max_inflight: 10, max_inflight_per_tenant: 2 });
        let a1 = adm.try_acquire("a").expect("first");
        let _a2 = adm.try_acquire("a").expect("second");
        assert!(adm.try_acquire("a").is_none(), "tenant a is at its cap");
        let _b1 = adm.try_acquire("b").expect("other tenants still admitted");
        assert_eq!(adm.rejected(), 1);
        assert_eq!(adm.inflight(), 3);
        drop(a1);
        assert!(adm.try_acquire("a").is_some(), "releasing a permit frees the slot");
    }

    #[test]
    fn global_cap_rejects_everyone() {
        let adm = Admission::new(AdmissionConfig { max_inflight: 2, max_inflight_per_tenant: 2 });
        let _p1 = adm.try_acquire("a").expect("1");
        let _p2 = adm.try_acquire("b").expect("2");
        assert!(adm.try_acquire("c").is_none());
        assert_eq!(adm.inflight(), 2);
    }

    #[test]
    fn dropping_permits_fully_drains_counts() {
        let adm = Admission::new(AdmissionConfig::default());
        let permits: Vec<_> = (0..5).filter_map(|i| adm.try_acquire(&format!("t{i}"))).collect();
        assert_eq!(adm.inflight(), 5);
        drop(permits);
        assert_eq!(adm.inflight(), 0);
    }
}
