//! R7 fixture (flagged): the CSA kernel reaches a formatting allocation
//! through a helper — transient allocation on the hot path — and an
//! `unwrap` with no stated contract.

pub fn and_count(a: &[u64], b: &[u64]) -> u32 {
    fused(a, b) + first_word(a)
}

fn fused(a: &[u64], b: &[u64]) -> u32 {
    let label = format!("{}w", a.len().min(b.len()));
    label.len() as u32
}

fn first_word(a: &[u64]) -> u32 {
    a.first().unwrap().count_ones()
}
