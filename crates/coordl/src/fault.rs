//! Fault injection for partitioned clusters: a deterministic [`FaultPlan`]
//! of membership events on the cluster's fetch-step axis.
//!
//! Each event is a [`FaultEvent`] (kill / graceful leave / rejoin) whose
//! `at` counts cluster fetches: it fires once `at` fetches have completed,
//! before the next one is served.  [`PartitionedCacheCluster`](crate::PartitionedCacheCluster)
//! counts its fetches and hands the plan to its [`dcache::PartitionedIndex`],
//! which fires and applies the events, so a plan replays bit-identically
//! whenever fetches are driven in the same order — which is exactly how the
//! chaos bench compares a faulty run's healthy prefix against a fault-free
//! twin.
//!
//! Schedules come from the same seeded generator the simulator uses
//! ([`dcache::fault_schedule`]); [`FaultPlan::seeded`] scales its
//! epoch-boundary units to fetch steps, so predicted (simulator) and
//! empirical (runtime) degraded behaviour line up event for event.

pub use dcache::{FaultEvent, FaultKind};

/// A deterministic, sorted schedule of membership faults for one cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    steps: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Build a plan from explicit events, `at` counting fetch steps; they
    /// are stably sorted by `at`, so same-step events keep their given order.
    pub fn new(mut steps: Vec<FaultEvent>) -> Self {
        steps.sort_by_key(|s| s.at);
        FaultPlan { steps }
    }

    /// The seeded schedule shared with the simulator: `faults` events over
    /// `epochs` epoch boundaries for a `nodes`-strong cluster, with each
    /// boundary unit scaled to `steps_per_epoch` fetch steps (for a
    /// partitioned session this is the dataset length — every epoch fetches
    /// each item exactly once across the node shards).
    pub fn seeded(
        nodes: usize,
        epochs: u64,
        faults: usize,
        seed: u64,
        steps_per_epoch: u64,
    ) -> Self {
        let events = dcache::fault_schedule(nodes, epochs, faults, seed);
        FaultPlan::new(
            events
                .into_iter()
                .map(|e| FaultEvent {
                    at: e.at * steps_per_epoch,
                    ..e
                })
                .collect(),
        )
    }

    /// The scheduled events, sorted by `at`.
    pub fn steps(&self) -> &[FaultEvent] {
        &self.steps
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step of the earliest event — the end of the guaranteed-healthy
    /// prefix.
    pub fn first_fault_step(&self) -> Option<u64> {
        self.steps.first().map(|s| s.at)
    }

    /// The largest node index any event touches.
    pub fn max_node(&self) -> Option<usize> {
        self.steps.iter().map(|s| s.node).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_events_stably() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 20,
                node: 1,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: 10,
                node: 2,
                kind: FaultKind::Leave,
            },
            FaultEvent {
                at: 10,
                node: 3,
                kind: FaultKind::Kill,
            },
        ]);
        let at: Vec<(u64, usize)> = plan.steps().iter().map(|s| (s.at, s.node)).collect();
        assert_eq!(at, vec![(10, 2), (10, 3), (20, 1)]);
        assert_eq!(plan.first_fault_step(), Some(10));
        assert_eq!(plan.max_node(), Some(3));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_plan_scales_epoch_units_to_steps() {
        let plan = FaultPlan::seeded(4, 6, 5, 77, 1000);
        let raw = dcache::fault_schedule(4, 6, 5, 77);
        assert_eq!(plan.len(), raw.len());
        for (step, event) in plan.steps().iter().zip(raw.iter()) {
            assert_eq!(step.at, event.at * 1000);
            assert_eq!(step.node, event.node);
            assert_eq!(step.kind, event.kind);
            assert_eq!(step.at % 1000, 0, "events land on epoch boundaries");
        }
        assert!(plan.first_fault_step().unwrap() >= 1000, "epoch 0 healthy");
    }

    #[test]
    fn empty_plan_defaults() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.first_fault_step(), None);
        assert_eq!(plan.max_node(), None);
    }
}
