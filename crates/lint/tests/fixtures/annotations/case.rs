//! Annotation fixture: tags match in any case, so `// FLOAT-OK:` satisfies
//! the `float-ok:` tag.

pub fn mean(xs: &[f64]) -> f64 {
    // FLOAT-OK: slice lengths are far below 2^53, the cast is exact
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
