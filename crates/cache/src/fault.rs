//! Deterministic fault schedules for partitioned clusters.
//!
//! A schedule is a sorted list of membership events — node kills, graceful
//! leaves and rejoins — positioned on an abstract unit grid (the simulator
//! interprets units as epoch boundaries; the runtime scales them to fetch
//! steps).  Schedules are pure functions of `(nodes, horizon, faults, seed)`
//! so the simulator, the runtime chaos bench and the `validate` figure row can
//! replay the *same* failure pattern and compare outcomes, exactly like
//! `churn_schedule` does for elastic tenants.

/// What happens to a node at a scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The node dies abruptly: its cache tier stops serving, peers absorb
    /// whatever the directory can re-home, everything else falls back to the
    /// durable store.
    Kill,
    /// The node leaves gracefully: it migrates its directory-owned items to
    /// surviving peers before going dark.
    Leave,
    /// A previously dead node rejoins with whatever its tier still holds
    /// (a warm restart from its persistent spill tier).
    Join,
}

impl FaultKind {
    /// Stable lowercase name, used in reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Leave => "leave",
            FaultKind::Join => "join",
        }
    }
}

/// One membership event: at unit `at`, `node` undergoes `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Position on the schedule's unit grid (epoch boundary in the
    /// simulator; scaled to a fetch step by the runtime).  Always in
    /// `[1, horizon)`, so unit 0 — the warm-up prefix — is fault-free.
    pub at: u64,
    /// The node the event applies to.
    pub node: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// SplitMix64, the workspace's standard small mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a deterministic fault schedule of (at most) `faults` events for a
/// cluster of `nodes` over a `horizon` of schedule units.
///
/// Invariants, relied on by the chaos drivers on both the simulator and the
/// runtime side:
///
/// * node 0 never fails, so at least one node is alive at every instant and
///   rebalancing always has a target,
/// * events are sorted by `at` (ties keep generation order) and every `at`
///   is in `[1, horizon)` — unit 0 is always a healthy warm-up prefix,
/// * kills and leaves only target nodes alive at that point of the
///   schedule; joins only target dead ones,
/// * the result depends only on the arguments (no global state, no clock).
///
/// Fewer than `faults` events are returned when the cluster is too small to
/// host one (a single-node cluster yields an empty schedule).
///
/// # Panics
/// Panics when `nodes == 0` or `horizon == 0`.
pub fn fault_schedule(nodes: usize, horizon: u64, faults: usize, seed: u64) -> Vec<FaultEvent> {
    assert!(nodes > 0, "need at least one node");
    assert!(horizon > 0, "need a non-empty horizon");
    let mut events = Vec::with_capacity(faults);
    if nodes < 2 || horizon < 2 {
        // No failable node, or no post-warm-up unit to fail in.
        return events;
    }
    let mut state = seed ^ 0x00FA_1170_C0DA_u64.wrapping_add(horizon);
    let mut ats: Vec<u64> = (0..faults)
        .map(|_| 1 + splitmix64(&mut state) % (horizon - 1))
        .collect();
    ats.sort_unstable();
    let mut alive = vec![true; nodes];
    for at in ats {
        let dead: Vec<usize> = (1..nodes).filter(|&n| !alive[n]).collect();
        let up: Vec<usize> = (1..nodes).filter(|&n| alive[n]).collect();
        let kind = match (up.is_empty(), dead.is_empty()) {
            (true, true) => continue, // unreachable for nodes >= 2
            (true, false) => FaultKind::Join,
            (false, true) => match splitmix64(&mut state) % 2 {
                0 => FaultKind::Kill,
                _ => FaultKind::Leave,
            },
            (false, false) => match splitmix64(&mut state) % 3 {
                0 => FaultKind::Kill,
                1 => FaultKind::Leave,
                _ => FaultKind::Join,
            },
        };
        let pool = if kind == FaultKind::Join { &dead } else { &up };
        let node = pool[(splitmix64(&mut state) % pool.len() as u64) as usize];
        alive[node] = kind == FaultKind::Join;
        events.push(FaultEvent { at, node, kind });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_valid() {
        let a = fault_schedule(4, 8, 6, 42);
        let b = fault_schedule(4, 8, 6, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut alive = [true; 4];
        let mut last_at = 0;
        for e in &a {
            assert!(e.at >= 1 && e.at < 8, "event outside [1, horizon): {e:?}");
            assert!(e.at >= last_at, "events out of order: {e:?}");
            last_at = e.at;
            assert_ne!(e.node, 0, "node 0 must never fail");
            match e.kind {
                FaultKind::Kill | FaultKind::Leave => {
                    assert!(alive[e.node], "fault on a dead node: {e:?}");
                    alive[e.node] = false;
                }
                FaultKind::Join => {
                    assert!(!alive[e.node], "join of a live node: {e:?}");
                    alive[e.node] = true;
                }
            }
            assert!(alive[0], "someone killed node 0");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        // Not guaranteed for arbitrary seeds, but these must differ — a
        // regression guard against the seed being ignored.
        let a = fault_schedule(6, 16, 8, 1);
        let b = fault_schedule(6, 16, 8, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn degenerate_clusters_yield_empty_schedules() {
        assert!(fault_schedule(1, 8, 5, 7).is_empty());
        assert!(fault_schedule(4, 1, 5, 7).is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FaultKind::Kill.name(), "kill");
        assert_eq!(FaultKind::Leave.name(), "leave");
        assert_eq!(FaultKind::Join.name(), "join");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = fault_schedule(0, 4, 1, 0);
    }
}
