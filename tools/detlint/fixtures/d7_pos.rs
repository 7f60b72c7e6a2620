// D7 positive: a library `pub fn` whose only caller is its own file's
// unit tests — nothing outside the crate names it.

pub fn is_extruding_move(e: f64) -> bool {
    e > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrusion_is_positive() {
        assert!(is_extruding_move(0.5));
    }
}
