//! Runs every figure regenerator in paper order, stopping at the first
//! that fails. Equivalent to:
//!
//! ```sh
//! for f in fig1_utilization fig3_noop_overheads fig4_backend_sweep \
//!          fig5_notification latency_report fig6_moldesign fig7_finetune \
//!          advisor_report ablation_backlog ablation_threshold \
//!          ablation_steering; do
//!   cargo run --release -p hetflow-bench --bin $f || break
//! done
//! ```
//!
//! Its stdout is what `figures_output.txt` holds; CI byte-diffs the two.

use std::process::Command;

fn main() {
    let bins = [
        "fig1_utilization",
        "fig3_noop_overheads",
        "fig4_backend_sweep",
        "fig5_notification",
        "latency_report",
        "fig6_moldesign",
        "fig7_finetune",
        "advisor_report",
        "ablation_backlog",
        "ablation_threshold",
        "ablation_steering",
    ];
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the figure binaries: current_exe failed: {e}");
            std::process::exit(2);
        }
    };
    let Some(dir) = exe.parent().map(std::path::Path::to_path_buf) else {
        eprintln!("cannot locate the figure binaries: {} has no parent", exe.display());
        std::process::exit(2);
    };
    for bin in bins {
        println!("\n################ {bin} ################\n");
        #[expect(
            clippy::panic,
            reason = "CLI driver: a figure binary that cannot launch must abort loudly"
        )]
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nall figures regenerated");
}
