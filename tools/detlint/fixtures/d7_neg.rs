// D7 negative: crate-internal helpers are `pub(crate)`, a doc example
// is a caller from outside the crate, and a justified allow names the
// caller the lint cannot see.

pub(crate) fn layer_count(height: f64, layer: f64) -> u32 {
    (height / layer).ceil() as u32
}

/// Slices a part, one layer per `layer` mm.
///
/// ```
/// assert_eq!(fixture::slice_layers(1.0, 0.5), 2);
/// ```
pub fn slice_layers(height: f64, layer: f64) -> u32 {
    layer_count(height, layer)
}

// detlint: allow(D7) -- fixture: an out-of-tree harness calls this
pub fn golden_seed(seed: u64) -> u64 {
    seed ^ 0x9e37
}
