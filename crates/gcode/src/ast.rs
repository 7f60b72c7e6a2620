//! Typed G-code AST (Marlin dialect).

use std::fmt;

/// One G-code command, as Marlin interprets it.
///
/// Only the commands the firmware simulator executes are typed; anything
/// else is preserved verbatim in [`GCommand::Raw`] so programs survive a
/// parse → write round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum GCommand {
    /// `G0`/`G1` — linear move. Unset axes keep their current target.
    Move {
        /// True for `G0` (travel); false for `G1` (print move).
        rapid: bool,
        /// Target X, mm (absolute or relative per the positioning mode).
        x: Option<f64>,
        /// Target Y, mm.
        y: Option<f64>,
        /// Target Z, mm.
        z: Option<f64>,
        /// Target E (filament), mm.
        e: Option<f64>,
        /// Feedrate, mm/min (sticky: applies to later moves too).
        feedrate: Option<f64>,
    },
    /// `G4` — dwell.
    Dwell {
        /// Pause length in milliseconds.
        milliseconds: f64,
    },
    /// `G28` — home. With no axis words all axes home.
    Home {
        /// Home X.
        x: bool,
        /// Home Y.
        y: bool,
        /// Home Z.
        z: bool,
    },
    /// `G90` — absolute positioning for X/Y/Z and E; see
    /// [`Positioning`](crate::Positioning) for the mode rules.
    AbsolutePositioning,
    /// `G91` — relative positioning for X/Y/Z and E; see
    /// [`Positioning`](crate::Positioning).
    RelativePositioning,
    /// `G92` — reset the logical position of the given axes.
    SetPosition {
        /// New logical X, mm.
        x: Option<f64>,
        /// New logical Y, mm.
        y: Option<f64>,
        /// New logical Z, mm.
        z: Option<f64>,
        /// New logical E, mm.
        e: Option<f64>,
    },
    /// `M82` — absolute E only; see [`Positioning`](crate::Positioning).
    AbsoluteExtrusion,
    /// `M83` — relative E only; see [`Positioning`](crate::Positioning).
    RelativeExtrusion,
    /// `M104`/`M109` — set hotend temperature.
    SetHotendTemp {
        /// Target in °C; 0 turns the heater off.
        celsius: f64,
        /// True for `M109`: block until the target is reached.
        wait: bool,
    },
    /// `M140`/`M190` — set bed temperature.
    SetBedTemp {
        /// Target in °C; 0 turns the heater off.
        celsius: f64,
        /// True for `M190`: block until the target is reached.
        wait: bool,
    },
    /// `M106` — part-cooling fan on at `duty`/255.
    FanOn {
        /// PWM duty, 0–255.
        duty: u8,
    },
    /// `M107` — part-cooling fan off.
    FanOff,
    /// `M17` — energize all stepper drivers.
    EnableSteppers,
    /// `M18`/`M84` — release all stepper drivers.
    DisableSteppers,
    /// Any other command, preserved verbatim (e.g. `M115`, `M73 P10`).
    Raw {
        /// The literal text of the command without comment.
        text: String,
    },
}

impl fmt::Display for GCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::command_to_string(self))
    }
}

/// A parsed G-code program: an ordered list of commands.
///
/// # Example
///
/// ```
/// use offramps_gcode::{Program, GCommand};
///
/// let mut p = Program::new();
/// p.push(GCommand::Home { x: true, y: true, z: true });
/// p.push(GCommand::Move { rapid: false, x: Some(10.0), y: None, z: None,
///                         e: Some(0.5), feedrate: Some(1200.0) });
/// assert_eq!(p.len(), 2);
/// let text = p.to_gcode();
/// assert!(text.starts_with("G28"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    commands: Vec<GCommand>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program {
            commands: Vec::new(),
        }
    }

    /// Appends a command.
    pub fn push(&mut self, command: GCommand) {
        self.commands.push(command);
    }

    /// The commands in execution order.
    pub fn commands(&self) -> &[GCommand] {
        &self.commands
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True if the program has no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> std::slice::Iter<'_, GCommand> {
        self.commands.iter()
    }

    /// Serializes back to G-code text (one command per line, `\n`
    /// terminated). Parsing the output yields an equal `Program`.
    pub fn to_gcode(&self) -> String {
        crate::writer::program_to_string(self)
    }
}

impl FromIterator<GCommand> for Program {
    fn from_iter<I: IntoIterator<Item = GCommand>>(iter: I) -> Self {
        Program {
            commands: iter.into_iter().collect(),
        }
    }
}

impl Extend<GCommand> for Program {
    fn extend<I: IntoIterator<Item = GCommand>>(&mut self, iter: I) {
        self.commands.extend(iter);
    }
}

impl IntoIterator for Program {
    type Item = GCommand;
    type IntoIter = std::vec::IntoIter<GCommand>;
    fn into_iter(self) -> Self::IntoIter {
        self.commands.into_iter()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a GCommand;
    type IntoIter = std::slice::Iter<'a, GCommand>;
    fn into_iter(self) -> Self::IntoIter {
        self.commands.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_collect_and_iterate() {
        let p: Program = vec![GCommand::EnableSteppers, GCommand::FanOff]
            .into_iter()
            .collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p.iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
        assert_eq!(p.into_iter().count(), 2);
    }

    #[test]
    fn empty_program() {
        let p = Program::new();
        assert!(p.is_empty());
        assert_eq!(p.to_gcode(), "");
    }
}
