//! Writer → parser round-trip property, exercised over DetRng-generated
//! programs: every corpus workload (and a fuzzed command soup) must
//! re-parse from its canonical G-code text to an equivalent AST.
//!
//! This is the invariant that makes the corpus trustworthy at scale:
//! Flaw3D attacks and the `attack` CLI subcommand serialize programs
//! back to text, so a workload that did not round-trip would silently
//! change between the slicer and the firmware.

use offramps_bench::corpus::{sample_spec, CorpusSpec};
use offramps_des::{DetRng, SeedSplitter};
use offramps_gcode::{parse, GCommand, Program};

/// Every corpus workload re-parses to an equivalent AST — and so do the
/// four canonical paper workloads riding in the same registry.
#[test]
fn corpus_workloads_round_trip() {
    use offramps_bench::workloads::Workload;

    let mut workloads: Vec<Workload> = ["mini", "standard", "tall", "detection"]
        .into_iter()
        .map(|name| Workload::from_name(name).unwrap())
        .collect();
    workloads.extend(CorpusSpec::new(24).expand(90210));
    for w in workloads {
        let program = w.program();
        let text = program.to_gcode();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", w.label()));
        assert_eq!(
            *program,
            reparsed,
            "workload {} must round-trip ({} commands)",
            w.label(),
            program.len()
        );
    }
}

/// Directly sampled specs (not just the ones a default corpus happens
/// to pick) round-trip too, across many seeds.
#[test]
fn sampled_specs_round_trip() {
    let split = SeedSplitter::new(424242);
    for i in 0..32 {
        let mut rng = split.stream(&format!("roundtrip/{i}"));
        let program = sample_spec(&mut rng).slice();
        let reparsed = parse(&program.to_gcode()).expect("canonical output parses");
        assert_eq!(program, reparsed, "sampled spec {i}");
    }
}

use offramps_gcode::snap5 as grid;

fn random_command(rng: &mut DetRng) -> GCommand {
    let opt_mm = |rng: &mut DetRng| {
        rng.chance(0.5).then(|| {
            let i = rng.uniform_u64(0, 1000) as i64 - 500;
            let f = rng.uniform_u64(0, 100_000);
            grid(i as f64 + f as f64 / 100_000.0)
        })
    };
    match rng.uniform_u64(0, 14) {
        0 => GCommand::Move {
            rapid: rng.chance(0.5),
            x: opt_mm(rng),
            y: opt_mm(rng),
            z: opt_mm(rng),
            e: opt_mm(rng),
            feedrate: rng.chance(0.5).then(|| rng.uniform_u64(1, 100_000) as f64),
        },
        1 => GCommand::Dwell {
            milliseconds: rng.uniform_u64(0, 1_000_000) as f64,
        },
        2 => {
            let (x, y, z) = (rng.chance(0.5), rng.chance(0.5), rng.chance(0.5));
            if !x && !y && !z {
                GCommand::Home {
                    x: true,
                    y: true,
                    z: true,
                }
            } else {
                GCommand::Home { x, y, z }
            }
        }
        3 => GCommand::AbsolutePositioning,
        4 => GCommand::RelativePositioning,
        5 => GCommand::SetPosition {
            x: opt_mm(rng),
            y: opt_mm(rng),
            z: opt_mm(rng),
            e: opt_mm(rng),
        },
        6 => GCommand::AbsoluteExtrusion,
        7 => GCommand::RelativeExtrusion,
        8 => GCommand::SetHotendTemp {
            celsius: rng.uniform_u64(0, 400) as f64,
            wait: rng.chance(0.5),
        },
        9 => GCommand::SetBedTemp {
            celsius: rng.uniform_u64(0, 120) as f64,
            wait: rng.chance(0.5),
        },
        10 => GCommand::FanOn {
            duty: rng.uniform_u64(0, 256) as u8,
        },
        11 => GCommand::FanOff,
        12 => GCommand::EnableSteppers,
        _ => GCommand::DisableSteppers,
    }
}

/// write → parse is the identity on arbitrary DetRng-generated command
/// soups (no slicer structure at all), over hundreds of programs.
#[test]
fn detrng_fuzzed_programs_round_trip() {
    let split = SeedSplitter::new(31337);
    for case in 0u64..300 {
        let mut rng = split.stream(&format!("fuzz/{case}"));
        let len = rng.uniform_u64(0, 60) as usize;
        let program: Program = (0..len).map(|_| random_command(&mut rng)).collect();
        let text = program.to_gcode();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(program, reparsed, "case {case}");
    }
}

/// Round-tripping is idempotent: writing the reparsed program yields
/// the same text (canonical form is a fixed point).
#[test]
fn canonical_text_is_a_fixed_point() {
    for w in CorpusSpec::new(6).expand(5150) {
        let text = w.program().to_gcode();
        let again = parse(&text).expect("parses").to_gcode();
        assert_eq!(text, again, "workload {}", w.label());
    }
}
