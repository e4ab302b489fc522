//! R2a fixture (flagged): an `assert!` on user data in a panic-free crate.

pub fn first_window(starts: &[u32]) -> u32 {
    assert!(!starts.is_empty(), "no windows");
    starts[0]
}
