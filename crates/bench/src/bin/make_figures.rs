//! Regenerates every figure in paper order, in this process, and checks
//! each one's shape verdict after printing its section, so a failed
//! claim aborts (exit 101) with everything before it on stdout.
//!
//! Its stdout is what `figures_output.txt` holds; CI byte-diffs the two.
//! Each section's host seconds go to stderr.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    clippy::panic,
    reason = "a driver: it prints the transcript and its host timings, and aborts on a failed claim"
)]

use hetflow_bench::figures::{self, Runs};
use std::time::Instant;

fn main() {
    let runs = Runs::default();
    for (name, figure) in figures::ALL {
        println!("\n################ {name} ################\n");
        let mut text = String::new();
        let start = Instant::now();
        let verdict = figure(&runs, &mut text);
        eprintln!("{name}: {:.3} s", start.elapsed().as_secs_f64());
        print!("{text}");
        if let Err(claim) = verdict {
            panic!("{name} failed its shape check: {claim}");
        }
    }
    println!("\nall figures regenerated");
}
