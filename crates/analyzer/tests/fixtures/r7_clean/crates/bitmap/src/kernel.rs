//! R7 fixture (clean): the kernel and its helper stay pure — word-level
//! arithmetic only, nothing transitively allocates, and the one panic
//! site states its contract with a clippy expectation.

pub fn and_count(a: &[u64], b: &[u64]) -> u32 {
    fused(a, b) + first_word(a)
}

fn fused(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x & y).count_ones()).sum()
}

fn first_word(a: &[u64]) -> u32 {
    #[expect(clippy::expect_used, reason = "bitmaps always hold at least one word")]
    let w = a.first().expect("non-empty");
    w.count_ones()
}
