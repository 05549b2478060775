//! The global-budget ledger: carving per-tenant reservations.
//!
//! Admission control is reservation-based, not usage-based: a tenant
//! reserves its *entire* own [`MemoryBudget`] up front, because the
//! engine's budget is a hard ceiling the tenant may legitimately reach
//! at any step. Per-tenant enforcement stays where it always was — each
//! pipeline's own budget checks and [`Governor`](amri_engine::runtime::degrade::Governor)
//! are untouched — so the ledger never has to police a running tenant,
//! only decide who gets to hold memory at all.

use amri_core::tier::SPILL_HIGH_WATER;
use amri_engine::MemoryBudget;

/// Tracks how much of the global budget is committed to reservations.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    global: u64,
    committed: u64,
}

impl BudgetLedger {
    /// A ledger over the host's global budget.
    /// [`MemoryBudget::unlimited`] admits everything.
    pub fn new(global: MemoryBudget) -> Self {
        BudgetLedger {
            global: global.bytes,
            committed: 0,
        }
    }

    /// The global budget in bytes (`u64::MAX` = unlimited).
    pub fn global(&self) -> u64 {
        self.global
    }

    /// Bytes currently committed to reservations.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Bytes still uncommitted.
    pub fn available(&self) -> u64 {
        self.global.saturating_sub(self.committed)
    }

    /// Whether `reservation` could *ever* be carved (ignores current
    /// commitments; the admission-or-queue decision uses
    /// [`reserve`](Self::reserve)).
    pub fn admissible(&self, reservation: u64) -> bool {
        reservation <= self.global
    }

    /// Try to carve `reservation` bytes; true on success. An unlimited
    /// global budget always succeeds — admission control is off — with
    /// the committed counter saturating rather than overflowing on
    /// unlimited per-tenant budgets.
    pub fn reserve(&mut self, reservation: u64) -> bool {
        if self.global == u64::MAX || reservation <= self.available() {
            self.committed = self.committed.saturating_add(reservation);
            true
        } else {
            false
        }
    }

    /// Return a reservation to the pool.
    pub fn release(&mut self, reservation: u64) {
        self.committed = self.committed.saturating_sub(reservation);
    }

    /// The RAM bytes admission actually has to carve for a tenant: its
    /// whole engine budget, or — when the tenant runs a disk spill tier —
    /// only the [`SPILL_HIGH_WATER`] share of it, because the tier's
    /// balancer keeps the resident set at or below that mark and the
    /// overflow lives on disk, outside the global RAM pool. Spill is thus
    /// an *admission alternative*: a tenant too large to fit the remaining
    /// budget outright can still be admitted by bringing a tier.
    ///
    /// `cache_bytes` is `None` without a tier, else the tier's
    /// decoded-block cache budget: real RAM *outside* the engine's window
    /// budget, so it is carved here — on top of the high-water carve —
    /// rather than charged against the run. This is what lets
    /// [`MemoryReport::total`](amri_engine::MemoryReport::total) exclude
    /// the `cache` column without under-reserving.
    /// Unlimited budgets stay unlimited.
    pub fn effective_reservation(budget: u64, cache_bytes: Option<u64>) -> u64 {
        match cache_bytes {
            Some(cache_bytes) if budget != u64::MAX => {
                ((budget as f64 * SPILL_HIGH_WATER).ceil() as u64).saturating_add(cache_bytes)
            }
            _ => budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carves_and_releases() {
        let mut l = BudgetLedger::new(MemoryBudget { bytes: 100 });
        assert!(l.reserve(60));
        assert!(!l.reserve(50), "only 40 left");
        assert!(l.reserve(40));
        assert_eq!(l.available(), 0);
        l.release(60);
        assert_eq!(l.available(), 60);
        assert!(l.reserve(60));
    }

    #[test]
    fn unlimited_global_admits_unlimited_tenants() {
        let mut l = BudgetLedger::new(MemoryBudget::unlimited());
        assert!(l.admissible(u64::MAX));
        assert!(l.reserve(u64::MAX));
        assert!(l.reserve(u64::MAX), "saturating commit never overflows");
        l.release(u64::MAX);
        assert!(l.reserve(12345));
    }

    #[test]
    fn oversized_reservation_is_never_admissible() {
        let l = BudgetLedger::new(MemoryBudget { bytes: 100 });
        assert!(!l.admissible(101));
        assert!(l.admissible(100));
    }

    #[test]
    fn spill_tier_shrinks_the_effective_reservation() {
        // No tier: the full budget is carved.
        assert_eq!(BudgetLedger::effective_reservation(1000, None), 1000);
        // A tier (high water 0.8) only needs the resident carve.
        assert_eq!(BudgetLedger::effective_reservation(1000, Some(0)), 800);
        // Rounding is conservative (ceil): never under-reserve.
        assert_eq!(BudgetLedger::effective_reservation(1001, Some(0)), 801);
        // A block cache is extra RAM, carved on top of the resident set.
        assert_eq!(BudgetLedger::effective_reservation(1000, Some(256)), 1056);
        // Unlimited budgets stay unlimited either way.
        assert_eq!(
            BudgetLedger::effective_reservation(u64::MAX, Some(256)),
            u64::MAX
        );
    }
}
