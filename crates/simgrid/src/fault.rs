//! Deterministic fault injection for providers.
//!
//! The storage services consult a shared [`FaultInjector`] before serving
//! requests. Tests use it to kill providers, checking that replication
//! masks the failure and that unreplicated accesses fail cleanly.

use atomio_types::ProviderId;
use parking_lot::RwLock;
use std::collections::HashSet;

/// Shared fault state consulted by the simulated services.
#[derive(Debug, Default)]
pub struct FaultInjector {
    failed: RwLock<HashSet<ProviderId>>,
}

impl FaultInjector {
    /// A quiet injector (no failures). `_seed` selects nothing: the
    /// parameter exists only because the frozen wall-clock benchmark
    /// (`wallbench/src`) calls `FaultInjector::new(seed)`; the next
    /// benchmark PR that stops passing it deletes it.
    pub fn new(_seed: u64) -> Self {
        Self::default()
    }

    /// Marks a provider as crashed: every subsequent request to it fails.
    pub fn fail_provider(&self, p: ProviderId) {
        self.failed.write().insert(p);
    }

    /// Heals a previously failed provider.
    pub fn heal_provider(&self, p: ProviderId) {
        self.failed.write().remove(&p);
    }

    /// True if the provider is currently failed.
    pub fn is_failed(&self, p: ProviderId) -> bool {
        self.failed.read().contains(&p)
    }

    /// Number of currently failed providers.
    pub fn failed_count(&self) -> usize {
        self.failed.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_fail_and_heal() {
        let f = FaultInjector::new(1);
        let p = ProviderId::new(3);
        assert!(!f.is_failed(p));
        f.fail_provider(p);
        assert!(f.is_failed(p));
        assert_eq!(f.failed_count(), 1);
        f.heal_provider(p);
        assert!(!f.is_failed(p));
        assert_eq!(f.failed_count(), 0);
    }
}
