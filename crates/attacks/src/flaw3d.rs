//! Flaw3D Trojan emulation (Table II).
//!
//! "In the original work a modified bootloader was used to change g-code
//! on the fly to implement one of two types of Trojan: reduction of
//! extruded filament or occasional relocation of filament during the
//! print. We recreate these Trojans using a Python script which modifies
//! given g-code in the same way the malicious bootloader does. This
//! yielded eight Trojans from two categories" — reduction factors
//! 0.5/0.85/0.9/0.98 and relocation every 5/10/20/100 movements.

use offramps_gcode::{GCommand, Positioning, Program};

/// One Flaw3D-style G-code Trojan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flaw3dTrojan {
    /// Scale every extrusion delta by `factor` (< 1 under-extrudes).
    /// "Modification value for reduction is a factor by which extrusion
    /// amount is reduced."
    Reduction {
        /// Extrusion multiplier (e.g. 0.5 halves the material).
        factor: f64,
    },
    /// Every `every_n` extruding movements, strip that move's filament
    /// and re-extrude it on the next extruding move. "For relocation it
    /// is the number of movements before filament is relocated."
    Relocation {
        /// Number of extruding movements between relocations.
        every_n: u32,
    },
}

/// The eight Table II test cases, in order.
pub const TABLE_II_CASES: [(u32, Flaw3dTrojan); 8] = [
    (1, Flaw3dTrojan::Reduction { factor: 0.5 }),
    (2, Flaw3dTrojan::Reduction { factor: 0.85 }),
    (3, Flaw3dTrojan::Reduction { factor: 0.9 }),
    (4, Flaw3dTrojan::Reduction { factor: 0.98 }),
    (5, Flaw3dTrojan::Relocation { every_n: 5 }),
    (6, Flaw3dTrojan::Relocation { every_n: 10 }),
    (7, Flaw3dTrojan::Relocation { every_n: 20 }),
    (8, Flaw3dTrojan::Relocation { every_n: 100 }),
];

impl Flaw3dTrojan {
    /// The Table II "Type" column.
    pub fn type_name(&self) -> &'static str {
        match self {
            Flaw3dTrojan::Reduction { .. } => "Reduction",
            Flaw3dTrojan::Relocation { .. } => "Relocation",
        }
    }

    /// The Table II "Modification Value" column.
    pub fn modification_value(&self) -> f64 {
        match self {
            Flaw3dTrojan::Reduction { factor } => *factor,
            Flaw3dTrojan::Relocation { every_n } => f64::from(*every_n),
        }
    }

    /// Applies the Trojan to a program, returning the compromised
    /// G-code (the input is untouched).
    ///
    /// # Panics
    ///
    /// Panics if a reduction factor is not in `(0, 1]` or a relocation
    /// stride is zero.
    pub fn apply(&self, program: &Program) -> Program {
        match self {
            Flaw3dTrojan::Reduction { factor } => {
                assert!(*factor > 0.0 && *factor <= 1.0, "factor must be in (0, 1]");
                reduce(program, *factor)
            }
            Flaw3dTrojan::Relocation { every_n } => {
                assert!(*every_n > 0, "relocation stride must be positive");
                relocate(program, *every_n)
            }
        }
    }
}

impl std::fmt::Display for Flaw3dTrojan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Flaw3dTrojan::Reduction { factor } => write!(f, "Reduction x{factor}"),
            Flaw3dTrojan::Relocation { every_n } => write!(f, "Relocation every {every_n}"),
        }
    }
}

/// Scales forward extrusion deltas by `factor`; retracts/un-retracts are
/// preserved so the nozzle still primes correctly (matching Flaw3D,
/// which undermined "the quantity of extruded material").
fn reduce(program: &Program, factor: f64) -> Program {
    rewrite(program, |delta| (delta * factor, 0.0))
}

/// Every `every_n`-th extruding movement loses its filament; the stolen
/// amount is re-extruded as a slow stationary blob (an inserted E-only
/// move) right before the following extruding movement — material lands
/// in the wrong place, and the print's timing shifts, which is exactly
/// the signature Figure 4 shows on the X axis. The last extruding
/// movement is never robbed: its material would have nowhere to go, and
/// the real Flaw3D bootloader always re-deposits what it withholds —
/// which is why relocation defeats totals-only checks.
fn relocate(program: &Program, every_n: u32) -> Program {
    // First pass: count extruding print moves so the final one is exempt.
    let mut pos = Positioning::default();
    let total_print_moves = program
        .commands()
        .iter()
        .filter(|cmd| match cmd {
            GCommand::Move { x, y, z, e, .. } => {
                let delta = pos.e_delta(*e);
                pos.advance([*x, *y, *z, *e]);
                is_print_move(delta, [*x, *y, *z])
            }
            other => {
                pos.apply(other);
                false
            }
        })
        .count();
    let every_n = every_n as usize;
    let mut counter = 0usize;
    let mut stolen = 0.0;
    rewrite(program, |delta| {
        counter += 1;
        if counter.is_multiple_of(every_n) && counter < total_print_moves {
            stolen += delta;
            (0.0, 0.0)
        } else {
            (delta, std::mem::take(&mut stolen))
        }
    })
}

/// A move that pushes filament forward while the head travels.
fn is_print_move(e_delta: f64, xyz: [Option<f64>; 3]) -> bool {
    e_delta > 0.0 && xyz.iter().any(Option::is_some)
}

/// Copies `program`, steering each print move's E delta through `rule`,
/// which returns the delta to extrude instead and the filament to ooze
/// in place right before the move (a slow E-only blob, when positive).
/// Other moves keep their deltas. E words are rewritten under the
/// program's own extrusion mode, against the output's logical E.
fn rewrite(program: &Program, mut rule: impl FnMut(f64) -> (f64, f64)) -> Program {
    let mut pos = Positioning::default();
    let mut out_e = 0.0; // logical E of the *output* program
    let mut out = Program::new();
    for cmd in program.commands() {
        let GCommand::Move {
            rapid,
            x,
            y,
            z,
            e,
            feedrate,
        } = *cmd
        else {
            pos.apply(cmd);
            if let GCommand::SetPosition { e: Some(v), .. } = cmd {
                out_e = *v;
            }
            out.push(cmd.clone());
            continue;
        };
        let delta = pos.e_delta(e);
        let (new_delta, blob) = if is_print_move(delta, [x, y, z]) {
            rule(delta)
        } else {
            (delta, 0.0)
        };
        if blob > 0.0 {
            out.push(GCommand::Move {
                rapid: false,
                x: None,
                y: None,
                z: None,
                e: Some(round5(e_word(&mut out_e, pos.e_absolute, blob))),
                feedrate: Some(900.0), // 15 mm/s ooze
            });
        }
        let new_e = e.map(|_| round5(e_word(&mut out_e, pos.e_absolute, new_delta)));
        pos.advance([x, y, z, e]);
        out.push(GCommand::Move {
            rapid,
            x,
            y,
            z,
            e: new_e,
            feedrate,
        });
    }
    out
}

/// Advances the output's logical E by `delta` and returns the E word
/// that commands it: the new coordinate when E is absolute, the delta
/// itself when relative.
fn e_word(out_e: &mut f64, e_absolute: bool, delta: f64) -> f64 {
    *out_e += delta;
    if e_absolute {
        *out_e
    } else {
        delta
    }
}

use offramps_gcode::snap5 as round5;

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_gcode::{parse, ProgramStats};

    fn relative_square() -> Program {
        parse(
            "G90\nM83\nG28\nG1 Z0.2 F600\n\
             G1 X10 E0.5 F1200\nG1 Y10 E0.5\nG1 X0 E0.5\nG1 Y0 E0.5\n\
             G1 X10 E0.5\nG1 Y10 E0.5\nG1 X0 E0.5\nG1 Y0 E0.5\nM84\n",
        )
        .unwrap()
    }

    fn absolute_square() -> Program {
        parse(
            "G90\nM82\nG28\nG92 E0\nG1 Z0.2 F600\n\
             G1 X10 E0.5 F1200\nG1 Y10 E1\nG1 X0 E1.5\nG1 Y0 E2\nM84\n",
        )
        .unwrap()
    }

    #[test]
    fn reduction_scales_total_extrusion_relative() {
        let original = relative_square();
        let attacked = Flaw3dTrojan::Reduction { factor: 0.5 }.apply(&original);
        let s0 = ProgramStats::analyze(&original);
        let s1 = ProgramStats::analyze(&attacked);
        assert!((s1.total_extruded_mm / s0.total_extruded_mm - 0.5).abs() < 1e-9);
        // Geometry untouched.
        assert_eq!(s0.extrusion_path_mm, s1.extrusion_path_mm);
    }

    #[test]
    fn reduction_scales_total_extrusion_absolute() {
        let original = absolute_square();
        let attacked = Flaw3dTrojan::Reduction { factor: 0.9 }.apply(&original);
        let s0 = ProgramStats::analyze(&original);
        let s1 = ProgramStats::analyze(&attacked);
        assert!(
            (s1.total_extruded_mm / s0.total_extruded_mm - 0.9).abs() < 1e-6,
            "{} vs {}",
            s1.total_extruded_mm,
            s0.total_extruded_mm
        );
    }

    #[test]
    fn reduction_preserves_retractions() {
        let p = parse("G90\nM83\nG1 X5 E0.5 F1200\nG1 E-0.8 F2100\nG1 E0.8 F2100\nG1 X10 E0.5\n")
            .unwrap();
        let attacked = Flaw3dTrojan::Reduction { factor: 0.5 }.apply(&p);
        let s = ProgramStats::analyze(&attacked);
        assert!((s.retracted_mm - 0.8).abs() < 1e-9, "retract untouched");
    }

    #[test]
    fn relocation_preserves_total_but_moves_material() {
        let original = relative_square();
        let attacked = Flaw3dTrojan::Relocation { every_n: 4 }.apply(&original);
        let s0 = ProgramStats::analyze(&original);
        let s1 = ProgramStats::analyze(&attacked);
        // Net material preserved (the stealth property that defeats
        // total-count-only checks).
        assert!((s1.total_extruded_mm - s0.total_extruded_mm).abs() < 1e-9);
        // But the programs differ.
        assert_ne!(original.to_gcode(), attacked.to_gcode());
    }

    #[test]
    fn relocation_strips_every_nth_move_and_inserts_blobs() {
        let original = relative_square();
        let attacked = Flaw3dTrojan::Relocation { every_n: 2 }.apply(&original);
        // Moves 2,4,6 are robbed; a stationary E-only blob precedes
        // moves 3,5,7.
        let mut xy_deltas = Vec::new();
        let mut blobs = Vec::new();
        for cmd in attacked.commands() {
            if let GCommand::Move {
                e: Some(e), x, y, ..
            } = cmd
            {
                if x.is_some() || y.is_some() {
                    xy_deltas.push(*e);
                } else if *e > 0.0 {
                    blobs.push(*e);
                }
            }
        }
        assert_eq!(xy_deltas.len(), 8);
        assert_eq!(xy_deltas[1], 0.0, "second move robbed");
        assert_eq!(xy_deltas[2], 0.5, "third move keeps its own material");
        assert_eq!(
            blobs,
            vec![0.5, 0.5, 0.5],
            "three blobs re-deposit the theft"
        );
    }

    #[test]
    fn table_ii_has_eight_cases() {
        assert_eq!(TABLE_II_CASES.len(), 8);
        assert_eq!(TABLE_II_CASES[3].1.modification_value(), 0.98);
        assert_eq!(TABLE_II_CASES[7].1.modification_value(), 100.0);
        assert_eq!(TABLE_II_CASES[0].1.type_name(), "Reduction");
        assert_eq!(TABLE_II_CASES[4].1.type_name(), "Relocation");
        assert_eq!(TABLE_II_CASES[6].1.to_string(), "Relocation every 20");
    }

    #[test]
    fn identity_cases() {
        let original = relative_square();
        let identity = Flaw3dTrojan::Reduction { factor: 1.0 }.apply(&original);
        let s0 = ProgramStats::analyze(&original);
        let s1 = ProgramStats::analyze(&identity);
        assert!((s0.total_extruded_mm - s1.total_extruded_mm).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "factor must be in")]
    fn rejects_bad_factor() {
        let _ = Flaw3dTrojan::Reduction { factor: 0.0 }.apply(&Program::new());
    }
}
