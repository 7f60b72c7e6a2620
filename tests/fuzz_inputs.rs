//! Deterministic mutation fuzzing of every entry point that reads
//! outside input: G-code text, capture CSVs (the input of `detect`),
//! scenario-store payloads, store fingerprints, and the mutated programs
//! that still parse, run through the co-simulation.
//!
//! Each target starts from a small seed corpus and runs a fixed number
//! of `DetRng`-driven mutations: byte flips, deletions, splices from
//! other corpus entries, and insertions or overwrites from a token
//! dictionary (`nan`, `1e999`, deep `[`/`{` runs, multibyte
//! characters). A target passes when every mutant comes back as a value
//! or an error; a panic or a stack overflow fails the test.

use std::sync::Arc;

use offramps::{Capture, SignalPath, TestBench};
use offramps_bench::analytics::Observation;
use offramps_bench::{cache, json};
use offramps_des::{DetRng, SimDuration};
use offramps_store::Fingerprint;

/// Nesting deep enough to overflow the stack of any parser that
/// recurses without a depth limit.
const DEEP: usize = 20_000;

/// Tokens inserted or overwritten at random positions.
fn dictionary() -> Vec<String> {
    let mut tokens: Vec<String> = [
        "nan", "NaN", "-inf", "inf", "1e999", "-1e999", "1e-999", "-0", "0x1F", "é", "€", "😀",
        "\u{FEFF}", "\0", "\"", "\\", ",", ";", ":", "\n", "\r\n", "-", "  ",
    ]
    .map(String::from)
    .to_vec();
    tokens.push("[".repeat(DEEP));
    tokens.push("{\"a\":".repeat(DEEP));
    tokens.push("[{\"k\":".repeat(DEEP / 2));
    tokens.push("9".repeat(400));
    tokens
}

/// A seeded mutator over a corpus of byte strings.
struct Mutator {
    rng: DetRng,
    corpus: Vec<Vec<u8>>,
    tokens: Vec<String>,
}

impl Mutator {
    fn new(seed: u64, corpus: &[&str]) -> Mutator {
        Mutator {
            rng: DetRng::from_seed(seed),
            corpus: corpus.iter().map(|s| s.as_bytes().to_vec()).collect(),
            tokens: dictionary(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.uniform_u64(0, n.max(1) as u64) as usize
    }

    fn pick_entry(&mut self) -> Vec<u8> {
        let i = self.below(self.corpus.len());
        self.corpus[i].clone()
    }

    fn pick_token(&mut self) -> String {
        let i = self.below(self.tokens.len());
        self.tokens[i].clone()
    }

    /// One to four mutations of a random corpus entry.
    fn next(&mut self) -> Vec<u8> {
        let mut buf = self.pick_entry();
        for _ in 0..1 + self.below(4) {
            let at = self.below(buf.len() + 1);
            match self.below(5) {
                0 if at < buf.len() => buf[at] ^= 1 << self.below(8),
                1 => {
                    let end = (at + 1 + self.below(8)).min(buf.len());
                    buf.drain(at.min(end)..end);
                }
                2 => {
                    let donor = self.pick_entry();
                    let from = self.below(donor.len());
                    let to = (from + 1 + self.below(64)).min(donor.len());
                    buf.splice(at..at, donor[from..to].iter().copied());
                }
                3 => {
                    let token = self.pick_token();
                    buf.splice(at..at, token.bytes());
                }
                _ => {
                    // Overwrite in place: keeps fixed-width inputs at
                    // their width while moving character boundaries.
                    let token = self.pick_token();
                    let end = (at + token.len()).min(buf.len());
                    buf.splice(at..end, token.bytes());
                }
            }
        }
        buf
    }

    fn next_text(&mut self) -> String {
        String::from_utf8_lossy(&self.next()).into_owned()
    }
}

const GCODE: &str = "; part\nM140 S60\nM104 S200\nG28\nG90\nM82\nG92 E0\n\
G1 Z0.3 F600\nG1 X10 Y10 F3000\nG1 X20 Y10 E0.5 F1200\nG1 X20 Y20 E1.0\n\
G0 X5 Y5\nG4 P100\nM106 S128\nM107\nG1 E-0.4 F2100\nM84\n";
const MOTION_ONLY: &str = "G28\nG90\nG1 X5 Y5 F3000\nG1 X12 Y4 F1800\nG0 Z1\nG1 X2 Y9\n";

#[test]
fn gcode_parser_survives_mutation() {
    let mut m = Mutator::new(1, &[GCODE, MOTION_ONLY, "G1 X1e30\nG92 X1e300\n"]);
    for _ in 0..3_000 {
        let _ = offramps_gcode::parse(&m.next_text());
    }
}

/// Mutated programs that still parse run to a state, an error or the
/// simulated-time cap, never a panic.
#[test]
fn mutated_programs_run_or_fail_cleanly() {
    let mut m = Mutator::new(2, &[MOTION_ONLY, GCODE]);
    let mut ran = 0;
    for _ in 0..400 {
        let Ok(program) = offramps_gcode::parse(&m.next_text()) else {
            continue;
        };
        let _ = TestBench::new(ran)
            .signal_path(SignalPath::capture())
            .max_sim_time(SimDuration::from_secs(30))
            .run(&Arc::new(program));
        ran += 1;
        if ran == 12 {
            return;
        }
    }
    panic!("only {ran} mutants parsed");
}

#[test]
fn capture_csv_reader_survives_mutation() {
    let csv = "Index, X, Y, Z, E\n0, 0, 0, 0, 0\n1, 120, -7, 0, 33\n\
2, 2147483647, -2147483648, 5, 1\n3, 88, 91, 0, 40\n";
    let mut m = Mutator::new(
        3,
        &[csv, "Index, X, Y, Z, E\n18446744073709551615, 1, 2, 3, 4\n"],
    );
    for _ in 0..3_000 {
        let input = m.next();
        if let Ok(cap) = Capture::from_csv(input.as_slice()) {
            // Whatever parses renders and re-parses to itself.
            let back = Capture::from_csv(cap.to_csv().as_bytes()).unwrap();
            assert_eq!(back.transactions(), cap.transactions());
        }
    }
}

/// A four-detector record with time-to-detection, as a campaign stores it.
const PAYLOAD: &str = r#"{"trojan": "flaw3d-r75", "workload": "gen-000", "fw_state": "Finished",
"events": 439903, "sim_ns": 40100000000, "fw_steps": [0, 0, 240, 766], "ttd_step": 9,
"ttd_print_fraction": 0.022222222222222223, "ttd_material_saved": 0.9857662835249043,
"detected": true, "mismatches": 94, "mismatched_transactions": 93,
"transactions_compared": 99, "final_totals_match": false,
"suspect_fraction": 0.02828282828282828, "evidence": [
{"detector": "txn", "alarmed": true, "flagged": 93, "flagged_values": 94, "compared": 99,
"threshold": 0.02828282828282828, "peak": 37.333333333333336, "final_totals_match": false},
{"detector": "power", "alarmed": false, "flagged": 0, "flagged_values": 0, "compared": 39,
"threshold": 0.15, "peak": 2.375044236732996},
{"detector": "acoustic", "alarmed": null, "flagged": 0, "flagged_values": 0, "compared": 0}]}"#;
/// A transaction-only record written before detector suites existed.
const LEGACY_PAYLOAD: &str = r#"{"trojan": "none", "workload": "mini", "fw_state": "Finished",
"events": 396327, "sim_ns": 34300000000, "fw_steps": [-12, 0, 240, 666], "detected": false,
"mismatches": 2, "mismatched_transactions": 2, "transactions_compared": 70,
"final_totals_match": true, "suspect_fraction": 0.04}"#;

#[test]
fn store_payload_decoders_survive_mutation() {
    for seed in [PAYLOAD, LEGACY_PAYLOAD] {
        let v = json::parse(seed).unwrap();
        cache::decode_verdict(&v).unwrap();
        Observation::from_payload(&v).unwrap();
    }
    let mut m = Mutator::new(4, &[PAYLOAD, LEGACY_PAYLOAD]);
    for _ in 0..1_500 {
        if let Ok(v) = json::parse(&m.next_text()) {
            let _ = cache::decode_verdict(&v);
            let _ = Observation::from_payload(&v);
        }
    }
}

#[test]
fn fingerprint_hex_survives_mutation() {
    let mut m = Mutator::new(
        5,
        &[
            "00e55abdbeca49acbf0b877ac2006181",
            "ffffffffffffffffffffffffffffffff",
        ],
    );
    for _ in 0..5_000 {
        let text = m.next_text();
        if let Some(fp) = Fingerprint::from_hex(&text) {
            assert_eq!(fp.hex(), text.to_ascii_lowercase());
        }
    }
}
