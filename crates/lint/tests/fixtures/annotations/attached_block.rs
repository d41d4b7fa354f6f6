//! Annotation fixture: the tag may sit anywhere in the block of comment and
//! attribute lines attached above the site, not only on the line directly
//! above it.

pub fn head(xs: &[u32]) -> u32 {
    // invariant: callers validate non-emptiness at the ingest boundary,
    // so the slice always has a first element.
    *xs.first().unwrap()
}

pub fn last(xs: &[u32]) -> u32 {
    // invariant: the same ingest check covers the tail
    #[allow(clippy::let_and_return)]
    let x = *xs.last().unwrap();
    x
}
