//! Shared positioning-mode interpreter for G-code transformers.
//!
//! Attack transformers must understand absolute vs relative extrusion
//! and `G92` re-zeroing to rewrite E values correctly; this tiny state
//! machine tracks exactly that.

use offramps_gcode::GCommand;

/// Tracks positioning modes and the logical E coordinate through a
/// program, exposing per-move extrusion deltas.
#[derive(Debug, Clone)]
pub(crate) struct ExecState {
    pub absolute: bool,
    pub e_absolute: bool,
    pub e: f64,
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Default for ExecState {
    fn default() -> Self {
        ExecState {
            absolute: true,
            e_absolute: true,
            e: 0.0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
        }
    }
}

impl ExecState {
    /// Applies a non-move command's effect on the interpreter state.
    pub(crate) fn apply_non_move(&mut self, cmd: &GCommand) {
        match cmd {
            GCommand::AbsolutePositioning => {
                self.absolute = true;
                self.e_absolute = true;
            }
            GCommand::RelativePositioning => {
                self.absolute = false;
                self.e_absolute = false;
            }
            GCommand::AbsoluteExtrusion => self.e_absolute = true,
            GCommand::RelativeExtrusion => self.e_absolute = false,
            GCommand::SetPosition { x, y, z, e } => {
                if let Some(v) = x {
                    self.x = *v;
                }
                if let Some(v) = y {
                    self.y = *v;
                }
                if let Some(v) = z {
                    self.z = *v;
                }
                if let Some(v) = e {
                    self.e = *v;
                }
            }
            GCommand::Home { x, y, z } => {
                if *x {
                    self.x = 0.0;
                }
                if *y {
                    self.y = 0.0;
                }
                if *z {
                    self.z = 0.0;
                }
            }
            _ => {}
        }
    }

    /// The E delta a move would produce, without applying it.
    pub(crate) fn move_e_delta(&self, e: Option<f64>) -> f64 {
        match e {
            None => 0.0,
            Some(v) if self.e_absolute => v - self.e,
            Some(v) => v,
        }
    }

    /// Applies a move's targets to the state. Returns the XY path length.
    pub(crate) fn apply_move(
        &mut self,
        x: Option<f64>,
        y: Option<f64>,
        z: Option<f64>,
        e: Option<f64>,
    ) -> f64 {
        let (ox, oy) = (self.x, self.y);
        if let Some(v) = x {
            self.x = if self.absolute { v } else { self.x + v };
        }
        if let Some(v) = y {
            self.y = if self.absolute { v } else { self.y + v };
        }
        if let Some(v) = z {
            self.z = if self.absolute { v } else { self.z + v };
        }
        if let Some(v) = e {
            self.e = if self.e_absolute { v } else { self.e + v };
        }
        ((self.x - ox).powi(2) + (self.y - oy).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_delta_math() {
        let mut s = ExecState {
            e: 5.0,
            ..ExecState::default()
        };
        assert_eq!(s.move_e_delta(Some(7.0)), 2.0);
        s.apply_move(None, None, None, Some(7.0));
        assert_eq!(s.e, 7.0);
    }

    #[test]
    fn relative_delta_math() {
        let mut s = ExecState {
            e_absolute: false,
            e: 5.0,
            ..ExecState::default()
        };
        assert_eq!(s.move_e_delta(Some(2.0)), 2.0);
        s.apply_move(None, None, None, Some(2.0));
        assert_eq!(s.e, 7.0);
    }

    #[test]
    fn g92_and_home() {
        let mut s = ExecState::default();
        s.apply_move(Some(3.0), Some(4.0), None, Some(2.0));
        s.apply_non_move(&GCommand::SetPosition {
            x: None,
            y: None,
            z: None,
            e: Some(0.0),
        });
        assert_eq!(s.e, 0.0);
        s.apply_non_move(&GCommand::Home {
            x: true,
            y: true,
            z: true,
        });
        assert_eq!((s.x, s.y), (0.0, 0.0));
    }

    #[test]
    fn xy_path_length() {
        let mut s = ExecState::default();
        let d = s.apply_move(Some(3.0), Some(4.0), None, None);
        assert_eq!(d, 5.0);
    }
}
