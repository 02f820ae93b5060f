//! Regenerates every figure in paper order, in this process, and checks
//! each one's shape verdict after printing its section, so a failed
//! claim aborts (exit 101) with everything before it on stdout.
//!
//! Its stdout is what `figures_output.txt` holds; CI byte-diffs the two.

#![allow(
    clippy::print_stdout,
    clippy::panic,
    reason = "a driver: it prints the transcript and aborts on a failed shape claim"
)]

use hetflow_bench::figures;

fn main() {
    for (name, figure) in figures::ALL {
        println!("\n################ {name} ################\n");
        let mut text = String::new();
        let verdict = figure(&mut text);
        print!("{text}");
        if let Err(claim) = verdict {
            panic!("{name} failed its shape check: {claim}");
        }
    }
    println!("\nall figures regenerated");
}
