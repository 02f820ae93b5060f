//! Figure 4: mean component times of a no-op task with inputs proxied
//! through each ProxyStore backend, across input sizes 10 kB → 100 MB
//! (§V-C2). Redis and file-system runs place the thinker on the Theta
//! login node; the Globus run places it at UChicago RCC (inter-site).
//!
//! Shape targets: Redis lowest latency for small objects; file system
//! comparable at large sizes; Globus worker time ~constant seconds,
//! independent of input size up to 100 MB; Globus competitive with the
//! direct options beyond ~10 MB.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_bench::{print_breakdown_header, print_breakdown_row, size_label, NoopPipeline, StoreKind};
use hetflow_steer::BreakdownRow;
use std::collections::BTreeMap;

fn main() {
    const N_TASKS: usize = 30;
    let sizes: &[u64] = &[10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
    println!("=== Fig. 4: ProxyStore backend sweep, mean times, 30 tasks/cell ===\n");
    print_breakdown_header();
    let mut rows: BTreeMap<(&str, u64), BreakdownRow> = BTreeMap::new();
    for store in [StoreKind::Redis, StoreKind::Fs, StoreKind::Globus] {
        for &size in sizes {
            let b = NoopPipeline::fig4(store).run(size, N_TASKS);
            let row = b.mean_row();
            print_breakdown_row(store.label(), &size_label(size), &row);
            rows.insert((store.label(), size), row);
        }
        println!();
    }

    println!("--- shape checks vs paper ---");
    let small = 10_000u64;
    let ser = |s: &str, z: u64| rows[&(s, z)].serialization_ms;
    let worker = |s: &str, z: u64| rows[&(s, z)].time_on_worker_ms;
    let life = |s: &str, z: u64| rows[&(s, z)].lifetime_ms;
    println!(
        "redis vs fs serialization @10kB: {:.2} vs {:.2} ms (paper: Redis much lower)",
        ser("redis", small),
        ser("fs", small)
    );
    println!(
        "redis vs fs serialization @100MB: {:.0} vs {:.0} ms (paper: comparable)",
        ser("redis", 100_000_000),
        ser("fs", 100_000_000)
    );
    println!(
        "globus worker time across sizes: {:.0} / {:.0} / {:.0} ms (paper: constant, seconds)",
        worker("globus", 10_000),
        worker("globus", 1_000_000),
        worker("globus", 100_000_000)
    );
    // §V-F: the 100 MB regime — where does the crossover land?
    println!(
        "lifetime @100MB  redis {:.0} / fs {:.0} / globus {:.0} ms",
        life("redis", 100_000_000),
        life("fs", 100_000_000),
        life("globus", 100_000_000)
    );
    let competitive = life("globus", 100_000_000) / life("redis", 100_000_000);
    println!(
        "globus/redis lifetime ratio @100MB: {competitive:.1}x (paper: competitive beyond ~10 MB)"
    );
}
