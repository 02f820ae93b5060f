//! Figure 3: median component times of a no-op task through Colmena +
//! FnX, with task inputs passed (a) inline, (b) via a file-system
//! ProxyStore, (c) via a Redis ProxyStore. 10 kB and 1 MB inputs, 50
//! tasks per cell, thinker + task server on the Theta login node, one
//! KNL worker (§V-C1).
//!
//! Shape targets from the paper: server→worker communication dominates
//! the lifetime; proxying cuts it 2–3× at 10 kB and up to 10× at 1 MB;
//! thinker→server shows similar gains for larger objects.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_bench::{print_breakdown_header, print_breakdown_row, size_label, NoopPipeline, StoreKind};

fn main() {
    const N_TASKS: usize = 50;
    println!("=== Fig. 3: no-op task overheads, FnX fabric, 50 tasks/cell ===\n");
    print_breakdown_header();
    let mut no_proxy = Vec::new();
    let mut proxied = Vec::new();
    for &size in &[10_000u64, 1_000_000] {
        for store in [StoreKind::None, StoreKind::Fs, StoreKind::Redis] {
            let b = NoopPipeline::fig3(store).run(size, N_TASKS);
            let row = b.median_row();
            print_breakdown_row(store.label(), &size_label(size), &row);
            match store {
                StoreKind::None => no_proxy.push((size, row)),
                StoreKind::Redis => proxied.push((size, row)),
                _ => {}
            }
        }
        println!();
    }

    println!("--- shape checks vs paper ---");
    for ((size, np), (_, px)) in no_proxy.iter().zip(&proxied) {
        let ratio = np.server_to_worker_ms / px.server_to_worker_ms;
        let expected = if *size == 10_000 { "2-3x" } else { "~10x" };
        println!(
            "server->worker speedup from proxying @ {}: {:.1}x (paper: {})",
            size_label(*size),
            ratio,
            expected
        );
        let tts = np.thinker_to_server_ms / px.thinker_to_server_ms;
        println!(
            "thinker->server speedup from proxying @ {}: {:.1}x (paper: gains grow with size)",
            size_label(*size),
            tts
        );
    }
}
