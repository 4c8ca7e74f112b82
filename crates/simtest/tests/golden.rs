//! Golden digests: `(digest, events, virtual_ns)` of every deployment in
//! the catalog × seeds 0–7, pinned in `golden.txt`. The scenario tests
//! show a run reproduces *itself*; this shows it reproduces what was
//! committed — so a change to the harness, or to anything under it, that
//! moves a schedule has to edit that file, and say why in CHANGES.md.
//!
//! Re-pin with
//! `cargo test -p dini-simtest --release --test golden -- --ignored repin`.

mod catalog;

use dini_simtest::{run, seeds_from_env};
use std::fmt::Write;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.txt");

/// The seeds `golden.txt` covers, whatever the matrix is set to.
const PINNED_SEEDS: u64 = 8;

fn line(file: &str, make: catalog::Make, seed: u64) -> String {
    let d = make(seed);
    let r = run(&d, seed);
    format!("{file}/{} {seed} {:016x} {} {}", d.name, r.digest, r.events, r.virtual_ns)
}

/// Compares the seeds of the `DINI_SIMTEST_SEEDS` matrix that the file
/// pins (all eight in CI) and lists every line that moved.
#[test]
fn golden_digests_hold() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden.txt is checked in");
    let (mut pinned, seeds) = (golden.lines(), seeds_from_env());
    let mut moved = String::new();
    for &(file, make) in catalog::ALL {
        for seed in 0..PINNED_SEEDS {
            let want = pinned.next().expect("golden.txt is shorter than the catalog: repin");
            if seeds.contains(&seed) {
                let got = line(file, make, seed);
                if got != want {
                    writeln!(moved, "- {want}\n+ {got}").unwrap();
                }
            }
        }
    }
    assert!(pinned.next().is_none(), "golden.txt is longer than the catalog: repin");
    assert!(moved.is_empty(), "schedules moved (repin, and say why in CHANGES.md):\n{moved}");
}

#[test]
#[ignore = "rewrites tests/golden.txt"]
fn repin() {
    let mut out = String::new();
    for &(file, make) in catalog::ALL {
        for seed in 0..PINNED_SEEDS {
            writeln!(out, "{}", line(file, make, seed)).unwrap();
        }
    }
    std::fs::write(GOLDEN, out).expect("write tests/golden.txt");
}
