//! Eddy routing policies.
//!
//! The router decides, per partial tuple, which unvisited state to probe
//! next, based on continuously updated statistics — the defining feature of
//! adaptive multi-route processing \[3\]. Three policies are provided:
//!
//! * **Round-robin** — ignore statistics (control).
//! * **Selectivity-greedy** — probe the state expected to produce the
//!   fewest intermediate results, with ε-exploration: with small
//!   probability route to a *suboptimal* operator to refresh its
//!   statistics, the behavior §I-B calls out as an AMR signature (those
//!   rare probes are exactly the infrequent access patterns the compact
//!   assessment methods must tolerate).
//! * **Lottery** — Eddy's classic ticket scheme: sample the next operator
//!   with probability inversely proportional to its observed fan-out.

use amri_stream::tuple::MAX_STREAMS;
use amri_stream::{StreamId, StreamMask};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponentially-weighted per-state routing statistics.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// EWMA matches-per-probe per target state.
    fanout: Vec<f64>,
    /// EWMA virtual-ticks-per-probe per target state.
    cost: Vec<f64>,
    /// Total probes per target state.
    probes: Vec<u64>,
    alpha: f64,
}

impl RouterStats {
    /// Fresh statistics for `n_streams` states (fan-out prior 1.0).
    pub fn new(n_streams: usize) -> Self {
        RouterStats {
            fanout: vec![1.0; n_streams],
            cost: vec![1.0; n_streams],
            probes: vec![0; n_streams],
            alpha: 0.05,
        }
    }

    /// Record one probe of `target` that returned `matches` and cost
    /// `ticks`.
    pub fn observe(&mut self, target: StreamId, matches: usize, ticks: u64) {
        let i = target.idx();
        self.probes[i] += 1;
        let a = self.alpha;
        self.fanout[i] = (1.0 - a) * self.fanout[i] + a * matches as f64;
        self.cost[i] = (1.0 - a) * self.cost[i] + a * ticks as f64;
    }

    /// EWMA fan-out of `target`.
    #[inline]
    pub fn fanout(&self, target: StreamId) -> f64 {
        self.fanout[target.idx()]
    }

    /// EWMA probe cost of `target` in ticks.
    #[inline]
    pub fn cost(&self, target: StreamId) -> f64 {
        self.cost[target.idx()]
    }

    /// Probes sent to `target` so far.
    #[inline]
    pub fn probes(&self, target: StreamId) -> u64 {
        self.probes[target.idx()]
    }

    /// Serialize the statistics into a snapshot section.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_str("RSTATS");
        w.put_usize(self.fanout.len());
        for i in 0..self.fanout.len() {
            w.put_f64(self.fanout[i]);
            w.put_f64(self.cost[i]);
            w.put_u64(self.probes[i]);
        }
        w.put_f64(self.alpha);
    }

    /// Overwrite the statistics from a [`save`](Self::save)d section.
    ///
    /// # Errors
    /// [`SnapshotError`](amri_core::snapshot_io::SnapshotError) on a
    /// decode failure or a state count that disagrees with this run.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        amri_core::snapshot_io::expect_tag(r, "RSTATS")?;
        let n = r.get_usize()?;
        if n != self.fanout.len() {
            return Err(amri_core::snapshot_io::SnapshotError::Malformed(format!(
                "router stats cover {n} states, this run has {}",
                self.fanout.len()
            )));
        }
        for i in 0..n {
            self.fanout[i] = r.get_f64()?;
            self.cost[i] = r.get_f64()?;
            self.probes[i] = r.get_u64()?;
        }
        self.alpha = r.get_f64()?;
        Ok(())
    }
}

/// Which routing policy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Always the lowest-id unvisited state.
    RoundRobin,
    /// Minimize expected fan-out, exploring with the given probability.
    SelectivityGreedy {
        /// Probability of routing to a random (possibly suboptimal) state.
        exploration: f64,
    },
    /// Eddy lottery scheduling: ticket mass ∝ 1 / (1 + fan-out).
    Lottery {
        /// Probability of a uniformly random pick (statistics refresh).
        exploration: f64,
    },
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::SelectivityGreedy { exploration: 0.05 }
    }
}

/// A routing policy instance.
#[derive(Debug, Clone)]
pub struct RoutingPolicy {
    kind: PolicyKind,
    n_streams: usize,
}

impl RoutingPolicy {
    /// Instantiate `kind` for an `n_streams`-way query.
    ///
    /// # Panics
    /// Panics on an exploration rate outside `[0, 1]` or more than
    /// [`MAX_STREAMS`] streams.
    pub fn new(kind: PolicyKind, n_streams: usize) -> Self {
        assert!(n_streams <= MAX_STREAMS, "at most {MAX_STREAMS} streams");
        if let PolicyKind::SelectivityGreedy { exploration } | PolicyKind::Lottery { exploration } =
            kind
        {
            assert!(
                (0.0..=1.0).contains(&exploration),
                "exploration must be a probability"
            );
        }
        RoutingPolicy { kind, n_streams }
    }

    /// The policy kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Pick the next state to probe for a partial tuple covering `visited`.
    ///
    /// # Panics
    /// Panics if every state is already visited.
    pub fn choose(&self, visited: StreamMask, stats: &RouterStats, rng: &mut StdRng) -> StreamId {
        // The candidates live on the stack: this runs once per routing
        // job, and the steady-state request loop allocates nothing.
        let mut candidates = [StreamId(0); MAX_STREAMS];
        let mut n = 0;
        for s in (0..self.n_streams as u16).map(StreamId) {
            if !visited.covers(s) {
                candidates[n] = s;
                n += 1;
            }
        }
        let unvisited = &candidates[..n];
        assert!(!unvisited.is_empty(), "tuple already complete");
        if unvisited.len() == 1 {
            return unvisited[0];
        }
        match self.kind {
            PolicyKind::RoundRobin => unvisited[0],
            PolicyKind::SelectivityGreedy { exploration } => {
                if rng.gen::<f64>() < exploration {
                    unvisited[rng.gen_range(0..unvisited.len())]
                } else {
                    *unvisited
                        .iter()
                        .min_by(|a, b| {
                            // NaN-safe: a poisoned fanout estimate falls
                            // back to the stream-id tiebreak instead of
                            // panicking mid-run.
                            stats
                                .fanout(**a)
                                .partial_cmp(&stats.fanout(**b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| a.0.cmp(&b.0))
                        })
                        .expect("unvisited is non-empty: asserted above")
                }
            }
            PolicyKind::Lottery { exploration } => {
                if rng.gen::<f64>() < exploration {
                    return unvisited[rng.gen_range(0..unvisited.len())];
                }
                let mut tickets = [0.0f64; MAX_STREAMS];
                for (w, s) in tickets.iter_mut().zip(unvisited) {
                    *w = 1.0 / (1.0 + stats.fanout(*s).max(0.0));
                }
                let weights = &tickets[..n];
                let total: f64 = weights.iter().sum();
                let mut pick = rng.gen::<f64>() * total;
                for (s, w) in unvisited.iter().zip(weights) {
                    if pick < *w {
                        return *s;
                    }
                    pick -= w;
                }
                // Float round-off can leave `pick` marginally above the
                // last weight; the last unvisited state absorbs it.
                *unvisited
                    .last()
                    .expect("unvisited is non-empty: asserted above")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn stats_converge_to_observations() {
        let mut st = RouterStats::new(3);
        assert_eq!(st.fanout(StreamId(1)), 1.0);
        for _ in 0..400 {
            st.observe(StreamId(1), 5, 100);
        }
        assert!((st.fanout(StreamId(1)) - 5.0).abs() < 0.1);
        assert!((st.cost(StreamId(1)) - 100.0).abs() < 2.0);
        assert_eq!(st.probes(StreamId(1)), 400);
        assert_eq!(st.probes(StreamId(0)), 0);
    }

    #[test]
    fn round_robin_is_deterministic() {
        let p = RoutingPolicy::new(PolicyKind::RoundRobin, 4);
        let st = RouterStats::new(4);
        let mut r = rng();
        let visited = StreamMask::only(StreamId(0));
        assert_eq!(p.choose(visited, &st, &mut r), StreamId(1));
        let visited = visited.with(StreamId(1));
        assert_eq!(p.choose(visited, &st, &mut r), StreamId(2));
    }

    #[test]
    fn greedy_picks_the_most_selective_state() {
        let p = RoutingPolicy::new(PolicyKind::SelectivityGreedy { exploration: 0.0 }, 4);
        let mut st = RouterStats::new(4);
        for _ in 0..200 {
            st.observe(StreamId(1), 10, 50);
            st.observe(StreamId(2), 1, 50);
            st.observe(StreamId(3), 4, 50);
        }
        let mut r = rng();
        let visited = StreamMask::only(StreamId(0));
        assert_eq!(p.choose(visited, &st, &mut r), StreamId(2));
    }

    #[test]
    fn exploration_occasionally_routes_suboptimally() {
        let p = RoutingPolicy::new(PolicyKind::SelectivityGreedy { exploration: 0.3 }, 4);
        let mut st = RouterStats::new(4);
        for _ in 0..200 {
            st.observe(StreamId(1), 10, 50);
            st.observe(StreamId(2), 1, 50);
            st.observe(StreamId(3), 4, 50);
        }
        let mut r = rng();
        let visited = StreamMask::only(StreamId(0));
        let mut suboptimal = 0;
        for _ in 0..1000 {
            if p.choose(visited, &st, &mut r) != StreamId(2) {
                suboptimal += 1;
            }
        }
        // ~30% exploration × 2/3 chance of a non-best pick ≈ 200/1000.
        assert!(
            (100..350).contains(&suboptimal),
            "suboptimal rate {suboptimal}/1000 out of expected band"
        );
    }

    #[test]
    fn lottery_prefers_low_fanout_but_samples_all() {
        let p = RoutingPolicy::new(PolicyKind::Lottery { exploration: 0.0 }, 3);
        let mut st = RouterStats::new(3);
        for _ in 0..200 {
            st.observe(StreamId(1), 9, 50); // weight 1/10
            st.observe(StreamId(2), 0, 50); // weight ~1
        }
        let mut r = rng();
        let visited = StreamMask::only(StreamId(0));
        let mut counts = [0u32; 3];
        for _ in 0..2000 {
            counts[p.choose(visited, &st, &mut r).idx()] += 1;
        }
        assert_eq!(counts[0], 0, "visited state never chosen");
        assert!(counts[2] > counts[1] * 4, "{counts:?}");
        assert!(counts[1] > 50, "heavy state still sampled: {counts:?}");
    }

    #[test]
    fn single_candidate_short_circuits() {
        let p = RoutingPolicy::new(PolicyKind::Lottery { exploration: 1.0 }, 2);
        let st = RouterStats::new(2);
        let mut r = rng();
        assert_eq!(
            p.choose(StreamMask::only(StreamId(1)), &st, &mut r),
            StreamId(0)
        );
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn complete_tuple_cannot_route() {
        let p = RoutingPolicy::new(PolicyKind::RoundRobin, 2);
        let st = RouterStats::new(2);
        p.choose(StreamMask::all(2), &st, &mut rng());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_exploration() {
        let _ = RoutingPolicy::new(PolicyKind::Lottery { exploration: 1.5 }, 2);
    }
}
