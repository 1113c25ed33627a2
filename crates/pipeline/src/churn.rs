//! Deterministic tenant-churn schedules for [`Scenario::ElasticCluster`].
//!
//! A schedule assigns every tenant an arrival epoch and a departure epoch;
//! the tenant trains during `[arrival, departure)` and its cached keys are
//! reclaimed when it departs.  Schedules are pure functions of
//! `(tenants, epochs, seed)` so the simulator, the runtime benches and
//! the `validate` figure row can replay the *same* churn pattern and compare
//! outcomes.
//!
//! [`Scenario::ElasticCluster`]: crate::Scenario::ElasticCluster

/// One tenant's lifetime in epochs: active while
/// `arrival <= epoch < departure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSchedule {
    /// First epoch the tenant trains in.
    pub arrival: u64,
    /// First epoch the tenant is gone (its cache window is reclaimed at the
    /// start of this epoch).
    pub departure: u64,
}

impl TenantSchedule {
    /// Whether the tenant trains during `epoch`.
    pub fn is_active(&self, epoch: u64) -> bool {
        self.arrival <= epoch && epoch < self.departure
    }

    /// Number of epochs the tenant is active for.
    pub fn lifetime(&self) -> u64 {
        self.departure - self.arrival
    }
}

/// SplitMix64: the small, high-quality mixer the workspace already uses for
/// shard routing and RNG seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a deterministic churn schedule for `tenants` jobs over `epochs`
/// epochs.
///
/// Invariants, relied on by the elastic-cluster driver and the validation
/// suite:
///
/// * tenant 0 spans the full run (`[0, epochs)`), so at least one tenant is
///   active in every epoch and warm steady-state epochs exist,
/// * every tenant is active for at least one epoch,
/// * the result depends only on the arguments (no global state, no clock).
///
/// # Panics
/// Panics when `tenants == 0` or `epochs == 0`.
pub fn churn_schedule(tenants: usize, epochs: u64, seed: u64) -> Vec<TenantSchedule> {
    assert!(tenants > 0, "need at least one tenant");
    assert!(epochs > 0, "need at least one epoch");
    let mut state = seed ^ 0xC0DA_0E1A_571C_0000u64.wrapping_add(epochs);
    let mut schedule = Vec::with_capacity(tenants);
    schedule.push(TenantSchedule {
        arrival: 0,
        departure: epochs,
    });
    for _ in 1..tenants {
        let arrival = splitmix64(&mut state) % epochs;
        // Departure is uniform in (arrival, epochs]: at least one active
        // epoch, possibly running to the end of the experiment.
        let span = epochs - arrival;
        let departure = arrival + 1 + splitmix64(&mut state) % span;
        schedule.push(TenantSchedule { arrival, departure });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_covers_every_epoch() {
        let a = churn_schedule(6, 8, 42);
        let b = churn_schedule(6, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert_eq!(
            a[0],
            TenantSchedule {
                arrival: 0,
                departure: 8
            }
        );
        for (i, t) in a.iter().enumerate() {
            assert!(t.lifetime() >= 1, "tenant {i} never active: {t:?}");
            assert!(t.departure <= 8, "tenant {i} outlives the run: {t:?}");
        }
        for epoch in 0..8 {
            assert!(a.iter().any(|t| t.is_active(epoch)), "epoch {epoch} empty");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        // Not guaranteed for arbitrary seeds, but these particular ones must
        // differ — a regression guard against the seed being ignored.
        let a = churn_schedule(8, 16, 1);
        let b = churn_schedule(8, 16, 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        let _ = churn_schedule(0, 4, 0);
    }
}
