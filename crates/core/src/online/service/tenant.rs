//! Tenant identity, quotas, and the admission controller.
//!
//! Every standing query belongs to a [`TenantId`]. Admission is a pure
//! function of the controller's bookkeeping state — no clocks, no
//! randomness — so the same submission sequence always produces the same
//! admit/reject decisions (the determinism contract of DESIGN.md §13).
//!
//! Two budgets gate admission, both checked before an engine is built:
//!
//! * **standing-query counts** — a global cap ([`ServiceLimits::max_standing`])
//!   and a per-tenant cap ([`TenantQuota::max_standing`]);
//! * **detector-budget share** — each query carries a *weight* (its
//!   predicate count: one detector pass feeds all of a query's object
//!   predicates, but evaluation/recognizer cost scales with predicates),
//!   and a tenant may hold at most [`TenantQuota::max_budget_share`] of
//!   [`ServiceLimits::budget_units`] total weight.

use std::collections::BTreeMap;
use vaq_types::Query;

/// A tenant of the standing-query service. Plain `u32` identity — the
/// service does not interpret it beyond equality and ordering (all
/// per-tenant accounting iterates in `TenantId` order for determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

vaq_types::json_newtype!(TenantId);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Most standing queries this tenant may hold at once.
    pub max_standing: u32,
    /// Largest fraction of [`ServiceLimits::budget_units`] this tenant's
    /// summed query weights may occupy, in `(0, 1]`.
    pub max_budget_share: f64,
}

vaq_types::json_record!(TenantQuota: max_standing, max_budget_share);

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_standing: 8,
            max_budget_share: 0.5,
        }
    }
}

/// Global service capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceLimits {
    /// Most standing queries across all tenants.
    pub max_standing: u32,
    /// Total detector-budget units available for query weights.
    pub budget_units: u64,
    /// Quota applied to tenants without an explicit override.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides (sorted; deterministic iteration).
    pub quotas: BTreeMap<TenantId, TenantQuota>,
}

vaq_types::json_record!(ServiceLimits: max_standing, budget_units, default_quota, quotas);

impl Default for ServiceLimits {
    fn default() -> Self {
        Self {
            max_standing: 16,
            budget_units: 64,
            default_quota: TenantQuota::default(),
            quotas: BTreeMap::new(),
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The global standing-query cap is reached.
    ServiceCapacity,
    /// The tenant already holds its maximum standing queries.
    TenantQueryQuota,
    /// Admitting would push the tenant past its detector-budget share.
    TenantBudgetShare,
}

vaq_types::json_unit_enum!(RejectReason: ServiceCapacity, TenantQueryQuota, TenantBudgetShare);

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::ServiceCapacity => write!(f, "service at capacity"),
            RejectReason::TenantQueryQuota => write!(f, "tenant standing-query quota"),
            RejectReason::TenantBudgetShare => write!(f, "tenant detector-budget share"),
        }
    }
}

/// The detector-budget weight of a query: one unit per predicate (objects
/// plus the action). The detector's single forward pass serves all object
/// predicates of one query, but per-predicate evaluation and recognizer
/// exposure still scale with predicate count, so weight is the paper-
/// faithful proxy for how much of the shared budget a query occupies.
pub(crate) fn query_weight(query: &Query) -> u64 {
    vaq_types::conv::len_u64(query.objects.len()) + 1
}

/// Running per-tenant usage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TenantUsage {
    standing: u32,
    weight: u64,
}

vaq_types::json_record!(TenantUsage: standing, weight);

/// Admission bookkeeping: who holds how much of the service.
///
/// The controller only counts; it never builds engines. Callers admit via
/// [`AdmissionController::try_admit`] (which reserves capacity on success)
/// and must pair every admission with a [`AdmissionController::release`]
/// when the query retires.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdmissionController {
    limits: ServiceLimits,
    usage: BTreeMap<TenantId, TenantUsage>,
    standing_total: u32,
    weight_total: u64,
}

vaq_types::json_record!(AdmissionController: limits, usage, standing_total, weight_total);

impl AdmissionController {
    /// A controller with no admitted queries.
    pub fn new(limits: ServiceLimits) -> Self {
        Self {
            limits,
            usage: BTreeMap::new(),
            standing_total: 0,
            weight_total: 0,
        }
    }

    /// The quota in force for `tenant` (override or default).
    pub(crate) fn quota_for(&self, tenant: TenantId) -> TenantQuota {
        self.limits
            .quotas
            .get(&tenant)
            .copied()
            .unwrap_or(self.limits.default_quota)
    }

    /// Checks every gate and reserves capacity if all pass. Returns the
    /// first failing gate otherwise — gates are checked in a fixed order
    /// (global capacity, tenant count, tenant budget share) so rejection
    /// reasons are deterministic.
    pub(crate) fn try_admit(&mut self, tenant: TenantId, weight: u64) -> Result<(), RejectReason> {
        if self.standing_total >= self.limits.max_standing
            || self.weight_total.saturating_add(weight) > self.limits.budget_units
        {
            return Err(RejectReason::ServiceCapacity);
        }
        let quota = self.quota_for(tenant);
        let usage = self.usage.get(&tenant).copied().unwrap_or_default();
        if usage.standing >= quota.max_standing {
            return Err(RejectReason::TenantQueryQuota);
        }
        let budget = quota.max_budget_share * self.limits.budget_units as f64;
        if usage.weight.saturating_add(weight) as f64 > budget {
            return Err(RejectReason::TenantBudgetShare);
        }
        let entry = self.usage.entry(tenant).or_default();
        entry.standing += 1;
        entry.weight = entry.weight.saturating_add(weight);
        self.standing_total += 1;
        self.weight_total = self.weight_total.saturating_add(weight);
        Ok(())
    }

    /// Returns a retired query's capacity to the pool.
    pub(crate) fn release(&mut self, tenant: TenantId, weight: u64) {
        if let Some(usage) = self.usage.get_mut(&tenant) {
            usage.standing = usage.standing.saturating_sub(1);
            usage.weight = usage.weight.saturating_sub(weight);
            if usage.standing == 0 && usage.weight == 0 {
                self.usage.remove(&tenant);
            }
        }
        self.standing_total = self.standing_total.saturating_sub(1);
        self.weight_total = self.weight_total.saturating_sub(weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::{ActionType, ObjectType};

    fn q(objects: u32) -> Query {
        Query::new(
            ActionType::new(0),
            (0..objects).map(ObjectType::new).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn weight_counts_predicates() {
        assert_eq!(query_weight(&q(0)), 1);
        assert_eq!(query_weight(&q(3)), 4);
    }

    #[test]
    fn global_capacity_gates_first() {
        let mut c = AdmissionController::new(ServiceLimits {
            max_standing: 1,
            ..ServiceLimits::default()
        });
        assert_eq!(c.try_admit(TenantId(0), 1), Ok(()));
        assert_eq!(
            c.try_admit(TenantId(1), 1),
            Err(RejectReason::ServiceCapacity)
        );
        c.release(TenantId(0), 1);
        assert_eq!(c.try_admit(TenantId(1), 1), Ok(()));
    }

    #[test]
    fn tenant_count_quota_enforced() {
        let limits = ServiceLimits {
            default_quota: TenantQuota {
                max_standing: 2,
                max_budget_share: 1.0,
            },
            ..ServiceLimits::default()
        };
        let mut c = AdmissionController::new(limits);
        assert_eq!(c.try_admit(TenantId(7), 1), Ok(()));
        assert_eq!(c.try_admit(TenantId(7), 1), Ok(()));
        assert_eq!(
            c.try_admit(TenantId(7), 1),
            Err(RejectReason::TenantQueryQuota)
        );
        // Another tenant is unaffected.
        assert_eq!(c.try_admit(TenantId(8), 1), Ok(()));
    }

    #[test]
    fn budget_share_quota_enforced() {
        let limits = ServiceLimits {
            max_standing: 16,
            budget_units: 10,
            default_quota: TenantQuota {
                max_standing: 16,
                max_budget_share: 0.3,
            },
            quotas: BTreeMap::new(),
        };
        let mut c = AdmissionController::new(limits);
        assert_eq!(c.try_admit(TenantId(1), 3), Ok(()));
        assert_eq!(
            c.try_admit(TenantId(1), 1),
            Err(RejectReason::TenantBudgetShare)
        );
        c.release(TenantId(1), 3);
        assert_eq!(c.try_admit(TenantId(1), 2), Ok(()));
    }

    #[test]
    fn per_tenant_override_beats_default() {
        let mut quotas = BTreeMap::new();
        quotas.insert(
            TenantId(9),
            TenantQuota {
                max_standing: 1,
                max_budget_share: 1.0,
            },
        );
        let limits = ServiceLimits {
            quotas,
            ..ServiceLimits::default()
        };
        let mut c = AdmissionController::new(limits);
        assert_eq!(c.try_admit(TenantId(9), 1), Ok(()));
        assert_eq!(
            c.try_admit(TenantId(9), 1),
            Err(RejectReason::TenantQueryQuota)
        );
    }

    #[test]
    fn admission_state_round_trips_through_release() {
        let mut c = AdmissionController::new(ServiceLimits::default());
        let before = c.clone();
        assert_eq!(c.try_admit(TenantId(3), 4), Ok(()));
        c.release(TenantId(3), 4);
        assert_eq!(c, before, "release must fully undo an admission");
    }
}
