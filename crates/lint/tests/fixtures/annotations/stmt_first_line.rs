//! Annotation fixture: a tag attached to a multi-line statement's first
//! line covers the statement's later lines.
use std::time::Instant;

pub fn stamp_ns() -> u128 {
    // wall-clock-ok: progress logging only, never reaches replayed state
    let ns = [1u128, 2, 3]
        .iter()
        .map(|x| x + Instant::now().elapsed().as_nanos())
        .sum();
    ns
}
