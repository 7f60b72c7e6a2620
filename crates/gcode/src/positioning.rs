//! The positioning model: how a program's modal commands turn move words
//! into logical coordinates.

use crate::ast::GCommand;

/// Positioning modes and logical coordinates of a program being stepped
/// through.
///
/// These are Marlin's rules, and the only copy of them in the workspace:
/// the firmware simulator, [`ProgramStats`](crate::ProgramStats) and the
/// Flaw3D transformers all step through this model.
///
/// * `G90` makes X, Y, Z **and E** absolute, and `G91` makes all four
///   relative — overriding an earlier `M82`/`M83`.
/// * `M82` makes E absolute and `M83` makes E relative; X/Y/Z keep
///   their mode.
/// * `G92` sets the logical coordinate of each axis it names, without
///   motion.
/// * `G28` zeroes the logical coordinate of each axis it homes.
/// * A move word is the axis's new coordinate in absolute mode, or an
///   offset from its current one in relative mode; an axis without a
///   word stays where it is.
///
/// A program starts absolute on every axis, at logical zero.
///
/// # Example
///
/// ```
/// use offramps_gcode::{parse, GCommand, Positioning};
///
/// let mut pos = Positioning::default();
/// for cmd in parse("M83\nG1 X10 E2\nG90\nG1 X20 E5\n")?.commands() {
///     match cmd {
///         GCommand::Move { x, y, z, e, .. } => {
///             pos.advance([*x, *y, *z, *e]);
///         }
///         modal => pos.apply(modal),
///     }
/// }
/// // `G90` made E absolute again: the last move ends at E5, not E7.
/// assert_eq!(pos.logical, [20.0, 0.0, 0.0, 5.0]);
/// # Ok::<(), offramps_gcode::ParseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Positioning {
    /// X/Y/Z words are absolute (`G90`) rather than relative (`G91`).
    pub absolute: bool,
    /// E words are absolute (`G90`/`M82`) rather than relative
    /// (`G91`/`M83`).
    pub e_absolute: bool,
    /// Current logical coordinate per axis, X/Y/Z/E order, mm.
    pub logical: [f64; 4],
}

impl Default for Positioning {
    fn default() -> Self {
        Positioning {
            absolute: true,
            e_absolute: true,
            logical: [0.0; 4],
        }
    }
}

impl Positioning {
    /// Applies a modal command (`G90`, `G91`, `M82`, `M83`, `G92` or
    /// `G28`). Any other command, moves included, changes nothing.
    pub fn apply(&mut self, cmd: &GCommand) {
        match *cmd {
            GCommand::AbsolutePositioning | GCommand::RelativePositioning => {
                self.absolute = matches!(cmd, GCommand::AbsolutePositioning);
                self.e_absolute = self.absolute;
            }
            GCommand::AbsoluteExtrusion => self.e_absolute = true,
            GCommand::RelativeExtrusion => self.e_absolute = false,
            GCommand::SetPosition { x, y, z, e } => {
                for (logical, word) in self.logical.iter_mut().zip([x, y, z, e]) {
                    if let Some(v) = word {
                        *logical = v;
                    }
                }
            }
            GCommand::Home { x, y, z } => {
                for (logical, homed) in self.logical.iter_mut().zip([x, y, z]) {
                    if homed {
                        *logical = 0.0;
                    }
                }
            }
            _ => {}
        }
    }

    /// Steps through a move with X/Y/Z/E `words`: each worded axis goes
    /// to the word (absolute) or to its coordinate plus the word
    /// (relative). Returns the per-axis deltas, `target − logical`.
    pub fn advance(&mut self, words: [Option<f64>; 4]) -> [f64; 4] {
        let mut target = self.logical;
        for (i, word) in words.into_iter().enumerate() {
            if let Some(t) = word {
                let absolute = if i == 3 {
                    self.e_absolute
                } else {
                    self.absolute
                };
                target[i] = if absolute { t } else { self.logical[i] + t };
            }
        }
        let delta = std::array::from_fn(|i| target[i] - self.logical[i]);
        self.logical = target;
        delta
    }

    /// The E delta a move's E word commands, without stepping: `v − e`
    /// for an absolute word, the word itself for a relative one, 0
    /// without one. A relative word comes back exactly, where
    /// [`advance`](Self::advance) returns `(e + v) − e`.
    pub fn e_delta(&self, e: Option<f64>) -> f64 {
        match e {
            None => 0.0,
            Some(v) if self.e_absolute => v - self.logical[3],
            Some(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e_only(e: f64) -> [Option<f64>; 4] {
        [None, None, None, Some(e)]
    }

    #[test]
    fn absolute_delta_math() {
        let mut s = Positioning {
            logical: [0.0, 0.0, 0.0, 5.0],
            ..Positioning::default()
        };
        assert_eq!(s.e_delta(Some(7.0)), 2.0);
        s.advance(e_only(7.0));
        assert_eq!(s.logical[3], 7.0);
    }

    #[test]
    fn relative_delta_math() {
        let mut s = Positioning {
            e_absolute: false,
            logical: [0.0, 0.0, 0.0, 5.0],
            ..Positioning::default()
        };
        assert_eq!(s.e_delta(Some(2.0)), 2.0);
        s.advance(e_only(2.0));
        assert_eq!(s.logical[3], 7.0);
    }

    #[test]
    fn g92_and_home() {
        let mut s = Positioning::default();
        s.advance([Some(3.0), Some(4.0), None, Some(2.0)]);
        s.apply(&GCommand::SetPosition {
            x: None,
            y: None,
            z: None,
            e: Some(0.0),
        });
        assert_eq!(s.logical, [3.0, 4.0, 0.0, 0.0]);
        s.apply(&GCommand::Home {
            x: true,
            y: true,
            z: false,
        });
        assert_eq!(s.logical, [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn xy_path_length() {
        let mut s = Positioning::default();
        let [dx, dy, dz, de] = s.advance([Some(3.0), Some(4.0), None, None]);
        assert_eq!((dx.hypot(dy), dz, de), (5.0, 0.0, 0.0));
    }

    #[test]
    fn positioning_mode_sets_e_too() {
        let mut s = Positioning::default();
        s.apply(&GCommand::RelativeExtrusion);
        s.apply(&GCommand::AbsolutePositioning);
        assert!(s.e_absolute, "G90 after M83 makes E absolute");
        s.apply(&GCommand::AbsoluteExtrusion);
        s.apply(&GCommand::RelativePositioning);
        assert!(
            !s.absolute && !s.e_absolute,
            "G91 after M82 makes E relative"
        );
        s.apply(&GCommand::AbsoluteExtrusion);
        assert!(!s.absolute && s.e_absolute, "M82 leaves X/Y/Z relative");
        s.advance([Some(1.0), None, Some(2.0), Some(3.0)]);
        s.advance([Some(1.0), None, Some(2.0), Some(3.0)]);
        assert_eq!(s.logical, [2.0, 0.0, 4.0, 3.0]);
    }
}
