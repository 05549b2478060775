//! The Eddy router: drives partial tuples through the unvisited states.
//!
//! A [`Router`] holds the routing policy, one EWMA fan-out per state and
//! the RNG; the executor asks it where to send each partial tuple and
//! reports back what each probe produced, closing the adaptation loop —
//! the defining feature of adaptive multi-route processing \[3\]. Route
//! changes caused by drifting selectivities are what shift the
//! access-pattern mix at each state — the phenomenon AMRI's tuner must
//! chase. Three policies are provided:
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

use amri_core::snapshot_io::{expect_tag, SectionReader, SectionWriter, SnapshotError};
use amri_stream::tuple::MAX_STREAMS;
use amri_stream::{StreamId, StreamMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

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

/// Weight of one probe in a state's EWMA fan-out.
const ALPHA: f64 = 0.05;

/// The routing component of the engine.
#[derive(Debug)]
pub struct Router {
    kind: PolicyKind,
    /// EWMA matches-per-probe per target state (prior 1.0).
    fanout: Vec<f64>,
    rng: StdRng,
}

impl Router {
    /// Build a router for an `n_streams`-way query.
    ///
    /// # Panics
    /// Panics on an exploration rate outside `[0, 1]` or more than
    /// [`MAX_STREAMS`] streams.
    pub fn new(kind: PolicyKind, n_streams: usize, seed: u64) -> Self {
        assert!(n_streams <= MAX_STREAMS, "at most {MAX_STREAMS} streams");
        if let PolicyKind::SelectivityGreedy { exploration } | PolicyKind::Lottery { exploration } =
            kind
        {
            assert!(
                (0.0..=1.0).contains(&exploration),
                "exploration must be a probability"
            );
        }
        Router {
            kind,
            fanout: vec![1.0; n_streams],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Choose the next state for a partial tuple covering `visited`.
    ///
    /// # Panics
    /// Panics if every state is already visited.
    pub fn choose_next(&mut self, visited: StreamMask) -> StreamId {
        // The candidates live on the stack: this runs once per routing
        // job, and the steady-state request loop allocates nothing.
        let mut candidates = [StreamId(0); MAX_STREAMS];
        let mut n = 0;
        for s in (0..self.fanout.len() as u16).map(StreamId) {
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
        let fanout = &self.fanout;
        let rng = &mut self.rng;
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
                            fanout[a.idx()]
                                .partial_cmp(&fanout[b.idx()])
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
                    *w = 1.0 / (1.0 + fanout[s.idx()].max(0.0));
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

    /// Feed back the outcome of a probe of `target` that returned
    /// `matches`. `_ticks`, the probe's cost, is not read: no policy
    /// weighs cost yet, and the parameter stays until the benchmark
    /// package's contract is revised (ROADMAP item 11).
    pub fn observe(&mut self, target: StreamId, matches: usize, _ticks: u64) {
        let f = &mut self.fanout[target.idx()];
        *f = (1.0 - ALPHA) * *f + ALPHA * matches as f64;
    }

    /// Serialize the mutable routing state (RNG stream + fan-outs). The
    /// policy itself is construction-time configuration and not captured.
    pub fn save(&self, w: &mut SectionWriter) {
        w.put_str("ROUTER");
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_usize(self.fanout.len());
        for &f in &self.fanout {
            w.put_f64(f);
        }
    }

    /// Overwrite the mutable routing state from a [`save`](Self::save)d
    /// section; the restored router continues the exact RNG stream.
    ///
    /// # Errors
    /// [`SnapshotError`] on decode failure or a state-count mismatch.
    pub fn restore_from(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        expect_tag(r, "ROUTER")?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        let n = r.get_usize()?;
        if n != self.fanout.len() {
            return Err(SnapshotError::Malformed(format!(
                "router covers {n} states, this run has {}",
                self.fanout.len()
            )));
        }
        for f in &mut self.fanout {
            *f = r.get_f64()?;
        }
        self.rng = StdRng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router for `n` states, seeded as the policy tests always were.
    fn router(kind: PolicyKind, n: usize) -> Router {
        Router::new(kind, n, 99)
    }

    /// Teach `r` that state 1 fans out 10, state 2 one and state 3 four.
    fn teach_three(r: &mut Router) {
        for _ in 0..200 {
            r.observe(StreamId(1), 10, 50);
            r.observe(StreamId(2), 1, 50);
            r.observe(StreamId(3), 4, 50);
        }
    }

    #[test]
    fn stats_converge_to_observations() {
        let mut r = router(PolicyKind::RoundRobin, 3);
        assert_eq!(r.fanout[1], 1.0);
        for _ in 0..400 {
            r.observe(StreamId(1), 5, 100);
        }
        assert!((r.fanout[1] - 5.0).abs() < 0.1);
        assert_eq!(r.fanout[0], 1.0, "only the observed state moves");
    }

    #[test]
    fn round_robin_is_deterministic() {
        let mut r = router(PolicyKind::RoundRobin, 4);
        let visited = StreamMask::only(StreamId(0));
        assert_eq!(r.choose_next(visited), StreamId(1));
        let visited = visited.with(StreamId(1));
        assert_eq!(r.choose_next(visited), StreamId(2));
    }

    #[test]
    fn greedy_picks_the_most_selective_state() {
        let mut r = router(PolicyKind::SelectivityGreedy { exploration: 0.0 }, 4);
        teach_three(&mut r);
        assert_eq!(r.choose_next(StreamMask::only(StreamId(0))), StreamId(2));
    }

    #[test]
    fn exploration_occasionally_routes_suboptimally() {
        let mut r = router(PolicyKind::SelectivityGreedy { exploration: 0.3 }, 4);
        teach_three(&mut r);
        let visited = StreamMask::only(StreamId(0));
        let mut suboptimal = 0;
        for _ in 0..1000 {
            if r.choose_next(visited) != StreamId(2) {
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
        let mut r = router(PolicyKind::Lottery { exploration: 0.0 }, 3);
        for _ in 0..200 {
            r.observe(StreamId(1), 9, 50); // weight 1/10
            r.observe(StreamId(2), 0, 50); // weight ~1
        }
        let visited = StreamMask::only(StreamId(0));
        let mut counts = [0u32; 3];
        for _ in 0..2000 {
            counts[r.choose_next(visited).idx()] += 1;
        }
        assert_eq!(counts[0], 0, "visited state never chosen");
        assert!(counts[2] > counts[1] * 4, "{counts:?}");
        assert!(counts[1] > 50, "heavy state still sampled: {counts:?}");
    }

    #[test]
    fn single_candidate_short_circuits() {
        let mut r = router(PolicyKind::Lottery { exploration: 1.0 }, 2);
        assert_eq!(r.choose_next(StreamMask::only(StreamId(1))), StreamId(0));
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn complete_tuple_cannot_route() {
        router(PolicyKind::RoundRobin, 2).choose_next(StreamMask::all(2));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_exploration() {
        let _ = router(PolicyKind::Lottery { exploration: 1.5 }, 2);
    }

    #[test]
    fn router_adapts_to_observed_fanout() {
        let mut router = Router::new(PolicyKind::SelectivityGreedy { exploration: 0.0 }, 3, 7);
        // Teach it that state 2 explodes and state 1 filters.
        for _ in 0..300 {
            router.observe(StreamId(2), 50, 10);
            router.observe(StreamId(1), 0, 10);
        }
        let choice = router.choose_next(StreamMask::only(StreamId(0)));
        assert_eq!(choice, StreamId(1));
        assert!(router.fanout[2] > 40.0);
        assert_eq!(
            router.kind,
            PolicyKind::SelectivityGreedy { exploration: 0.0 }
        );
    }

    #[test]
    fn same_seed_reproduces_choices() {
        let run = || {
            let mut router = Router::new(PolicyKind::Lottery { exploration: 0.1 }, 4, 42);
            (0..100)
                .map(|_| router.choose_next(StreamMask::only(StreamId(0))).0)
                .collect::<Vec<u16>>()
        };
        assert_eq!(run(), run());
    }
}
