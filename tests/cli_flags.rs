//! The CLI's declared flag tables, driven through the real binary:
//! every subcommand rejects unknown, duplicate and value-less flags and
//! missing positional arguments with exit 2 and its usage, and `--help`
//! prints usage without running anything.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_offramps-cli"))
        .args(args)
        .output()
        .expect("offramps-cli runs")
}

fn assert_rejected(args: &[&str], message: &str, usage: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains(usage),
        "{args:?} prints its usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn retired_batch_flag_is_rejected() {
    assert_rejected(
        &["campaign", "--batch", "solo", "--list"],
        "unknown flag \"--batch\"",
        "offramps-cli campaign [--threads N]",
    );
}

#[test]
fn misspelled_duplicate_and_valueless_flags_are_rejected() {
    let usage = "offramps-cli campaign [--threads N]";
    assert_rejected(
        &["campaign", "--list", "--threadz", "4"],
        "unknown flag",
        usage,
    );
    assert_rejected(
        &["campaign", "--list", "--threads", "2", "--threads", "2"],
        "duplicate flag --threads",
        usage,
    );
    assert_rejected(
        &["campaign", "--list", "--threads"],
        "--threads needs a value",
        usage,
    );
    assert_rejected(
        &["campaign", "--list", "stray"],
        "unexpected argument",
        usage,
    );
    assert_rejected(
        &["campaign", "--list", "--threads=2"],
        "--threads takes no inline =VALUE",
        usage,
    );
    assert_rejected(
        &["analytics", "--cache", "x", "--sweep"],
        "unknown flag",
        "offramps-cli analytics --cache DIR",
    );
    // The single-print subcommands parse declared tables too: a typo no
    // longer slices the default part, and a value-less flag no longer
    // runs clean.
    let usage = "offramps-cli slice    [--width MM]";
    assert_rejected(&["slice", "--widht", "20"], "unknown flag", usage);
    assert_rejected(
        &["print", "part.gcode", "--trojan"],
        "--trojan needs a value",
        usage,
    );
    assert_rejected(
        &["detect", "golden.csv"],
        "missing argument <observed.csv>",
        usage,
    );
}

/// Values the flag parser accepts as numbers but the command cannot
/// use are rejected with usage instead of panicking (exit 101) or
/// running on meaningless input. Each check runs before any input file
/// is read, so the named files need not exist.
#[test]
fn out_of_domain_values_are_rejected() {
    let usage = "offramps-cli slice    [--width MM]";
    for args in [
        &["slice", "--width", "nan"][..],
        &["slice", "--depth", "inf"],
        &["slice", "--height", "0"],
        &["slice", "--layer", "-0.3"],
    ] {
        assert_rejected(args, "dimensions must be finite and greater than 0", usage);
    }
    // Parts the simulated printer cannot hold: an outline past the X/Y
    // travel around the slicer's centre, a top layer past the Z
    // travel, a layer thinner than one Z microstep.
    for args in [
        &["slice", "--width", "100"][..],
        &["slice", "--depth", "60.5"],
        &["slice", "--height", "1e9", "--layer", "1e-9"],
        &["slice", "--height", "210", "--layer", "140"],
    ] {
        assert_rejected(args, "part must fit the printer's travel", usage);
    }
    assert_rejected(
        &["slice", "--layer", "0.001"],
        "--layer must be at least one Z microstep",
        usage,
    );
    for factor in ["nan", "-3", "0", "1.5"] {
        assert_rejected(
            &["attack", "part.gcode", "--reduction", factor],
            "--reduction factor must be in (0, 1]",
            usage,
        );
    }
    assert_rejected(
        &["attack", "part.gcode", "--relocation", "0"],
        "--relocation stride must be at least 1",
        usage,
    );
    for margin in ["-5", "nan", "inf"] {
        assert_rejected(
            &["detect", "golden.csv", "observed.csv", "--margin", margin],
            "--margin must be a finite percentage >= 0",
            usage,
        );
    }
    // Campaign counts are `u32`: a value that would wrap, and a zero
    // run count, are errors rather than a silently different matrix.
    let usage = "offramps-cli campaign [--threads N]";
    for runs in ["0", "4294967296"] {
        assert_rejected(
            &["campaign", "--list", "--runs", runs],
            "--runs must be in 1..=4294967295",
            usage,
        );
    }
    assert_rejected(
        &["campaign", "--list", "--corpus", "4294967297"],
        "--corpus must be in 0..=4294967295",
        usage,
    );
}

#[test]
fn declared_forms_are_accepted() {
    // `--metrics=FILE`, repeated identically, and a value holding `=`.
    let out = cli(&[
        "campaign",
        "--list",
        "--sweep",
        "--threads",
        "2",
        "--metrics=m.json",
        "--metrics=m.json",
        "--fuse",
        "weighted:txn=1@0.5",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("scenarios: 33"));
}

#[test]
fn help_prints_usage_without_running() {
    for (cmd, usage) in [
        ("campaign", "offramps-cli campaign [--threads N]"),
        ("analytics", "offramps-cli analytics --cache DIR"),
    ] {
        let out = cli(&[cmd, "--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{cmd}");
        assert!(stdout.contains(usage), "{cmd}: {stdout}");
        assert!(!stdout.contains("runs:"), "{cmd} --help ran the campaign");
    }
}

/// The retired `bench` subcommand and a misspelled one are unknown,
/// with or without `--help`: the name is checked before the usage is
/// printed.
#[test]
fn unknown_subcommands_are_rejected_even_with_help() {
    for args in [
        &["bench"][..],
        &["bench", "--reps", "1"],
        &["bench", "--help"],
        &["frobnicate", "--help"],
    ] {
        assert_rejected(
            args,
            "unknown subcommand",
            "offramps-cli slice    [--width MM]",
        );
    }
}

/// `detect` exits with the campaign's verdict: a clean seed-6 reprint
/// of the README part (2 of 199 transactions wobble, under the floor)
/// exits 0, and the hardware Trojan `t1` exits 1.
#[test]
fn detect_exit_codes_follow_the_campaign_rule() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("detect_exit_codes");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_offramps-cli"));
        cmd.args(args.split(' '))
            .current_dir(&dir)
            .output()
            .unwrap()
    };
    let part = run("slice --width 10 --depth 10 --height 1.5").stdout;
    std::fs::write(dir.join("part.gcode"), part).unwrap();
    for print in [
        "1 --capture g.csv",
        "6 --capture r.csv",
        "3 --trojan t1 --capture a.csv",
    ] {
        let code = run(&format!("print part.gcode --seed {print}"))
            .status
            .code();
        assert_eq!(code, Some(0), "{print}");
    }
    for (observed, code) in [("r.csv", 0), ("a.csv", 1)] {
        let out = run(&format!("detect g.csv {observed}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{observed}:\n{stdout}");
    }
}

/// `analytics` over a path that holds no store exits 2 and leaves the
/// path as it found it: opening a store would create its directories.
#[test]
fn analytics_on_a_missing_store_creates_nothing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analytics_missing_store");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().unwrap();
    assert_rejected(
        &["analytics", "--cache", path],
        &format!("no scenario store at {path}"),
        "offramps-cli analytics --cache DIR",
    );
    assert!(!dir.exists(), "{path} was created");
}
