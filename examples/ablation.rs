//! Ablations of the transaction detector's design choices:
//!
//! * margin sweep — why the paper settled on 5 %,
//! * export-period sweep — the paper's claim that "this 5% margin of
//!   error can be made significantly smaller with a faster communication
//!   protocol",
//! * stealth frontier — which reduction factors the windowed check alone
//!   can see, and why the 0 %-margin final check earns its place.
//!
//! ```bash
//! cargo run --release --example ablation
//! ```

use offramps::{detect, SignalPath, TestBench, TransactionDetector};
use offramps_attacks::Flaw3dTrojan;
use offramps_bench::{table2, workloads};
use offramps_des::SimDuration;

fn margin_sweep() {
    println!("--- margin sweep (golden-vs-golden false positives / trojan true positives) ---");
    let program = workloads::standard_part();
    let golden = table2::capture_print(&program, 31);
    let reprint = table2::capture_print(&program, 32);
    let attacked_prog =
        std::sync::Arc::new(Flaw3dTrojan::Reduction { factor: 0.85 }.apply(&program));
    let attacked = table2::capture_print(&attacked_prog, 33);

    println!(
        "{:<8} {:<22} {:<20}",
        "margin", "golden mismatches", "x0.85 mismatches"
    );
    for pct in [1.0_f64, 2.0, 3.0, 5.0, 7.0, 10.0] {
        let judge = TransactionDetector {
            base: detect::DetectorConfig {
                margin: pct / 100.0,
                final_check: false,
                ..detect::DetectorConfig::default()
            },
        };
        let fp = judge.report(&golden, &reprint);
        let tp = judge.report(&golden, &attacked);
        println!(
            "{:<8} {:<22} {:<20}",
            format!("{pct}%"),
            format!("{} (suspected: {})", fp.mismatches.len(), fp.suspected()),
            format!("{} (suspected: {})", tp.mismatches.len(), tp.suspected()),
        );
    }
    println!();
}

fn period_sweep() {
    println!("--- export-period sweep (drift between known-good prints) ---");
    let program = workloads::standard_part();
    println!(
        "{:<12} {:<14} {:<10}",
        "period", "transactions", "max drift"
    );
    for ms in [20u64, 50, 100, 200, 500] {
        let mitm = |seed: u64| {
            let cfg = offramps::MitmConfig {
                path: SignalPath::capture(),
                export_period: SimDuration::from_millis(ms),
                ..Default::default()
            };
            TestBench::new(seed)
                .mitm_config(cfg)
                .run(&program)
                .unwrap()
                .capture
                .unwrap()
        };
        let a = mitm(41);
        let b = mitm(42);
        let judge = TransactionDetector {
            base: detect::DetectorConfig {
                final_check: false,
                ..Default::default()
            },
        };
        let rep = judge.report(&a, &b);
        println!(
            "{:<12} {:<14} {:<10}",
            format!("{ms} ms"),
            rep.evidence.compared,
            format!("{:.2}%", rep.evidence.peak),
        );
    }
    println!();
}

fn stealth_frontier() {
    println!("--- stealth frontier (windowed 5% check alone, no final check) ---");
    let program = workloads::standard_part();
    let golden = table2::capture_print(&program, 51);
    let window_only = TransactionDetector {
        base: detect::DetectorConfig {
            final_check: false,
            ..detect::DetectorConfig::default()
        },
    };
    let full = TransactionDetector::campaign();
    println!(
        "{:<10} {:<18} {:<18}",
        "factor", "window-only", "with final check"
    );
    for factor in [0.98_f64, 0.95, 0.9, 0.8, 0.5] {
        let attacked_prog = std::sync::Arc::new(Flaw3dTrojan::Reduction { factor }.apply(&program));
        let attacked = table2::capture_print(&attacked_prog, 60 + (factor * 100.0) as u64);
        let w = window_only.report(&golden, &attacked);
        let f = full.report(&golden, &attacked);
        println!(
            "{:<10} {:<18} {:<18}",
            factor,
            if w.suspected() { "detected" } else { "MISSED" },
            if f.suspected() { "detected" } else { "MISSED" },
        );
    }
    println!();
}

fn main() {
    println!("\n================ ABLATIONS ================");
    margin_sweep();
    period_sweep();
    stealth_frontier();
}
