//! The one seeded coin: SplitMix64, the generator behind every
//! deterministic random stream outside the router (the bandit's
//! exploration, the tier's and the fault plan's faults, the governor's
//! shedding). One `u64` of state, stored verbatim in snapshots, so a
//! restored stream continues exactly.

/// The golden-ratio increment each draw adds to the state.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advance `state` by [`GOLDEN`] and return the finalized draw.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw's top 53 bits as a float in `[0, 1)`.
#[inline]
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The next `[0, 1)` coin of the stream `state`.
#[inline]
pub fn coin(state: &mut u64) -> f64 {
    unit(splitmix64(state))
}
