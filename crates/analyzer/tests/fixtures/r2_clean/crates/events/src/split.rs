//! R2a fixture (clean): the same accessor with a total fallback, and a
//! `debug_assert!` that vanishes in release builds.

pub fn first_window(starts: &[u32]) -> u32 {
    debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    starts.first().copied().unwrap_or(0)
}
