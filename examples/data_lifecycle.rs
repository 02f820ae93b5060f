//! Managing object lifetimes in the data fabric: a StoreRegistry with
//! one-shot (evict-after-resolve) and age-limited stores, and what that
//! does to resident memory over a burst of task traffic.
//!
//! ```sh
//! cargo run --release --example data_lifecycle
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow::sim::{time::secs, Sim, SimRng};
use hetflow::store::{
    Backend, EvictionPolicy, FsParams, Proxy, SiteId, Store, StoreRegistry,
};
use std::time::Duration;

const SITE: SiteId = SiteId(0);

fn fs_store(sim: &Sim, name: &str, seed: u64) -> Store {
    Store::new(
        sim.clone(),
        name,
        Backend::Fs(FsParams::shared(&[SITE])),
        SimRng::from_seed(seed),
    )
}

fn main() {
    let sim = Sim::new();
    let registry = StoreRegistry::new();

    // Task inputs are one-shot: consumed exactly once, then garbage.
    let inputs = fs_store(&sim, "task-inputs", 1);
    registry.register(inputs.clone(), EvictionPolicy::AfterResolves(1));

    // Model checkpoints are re-read but stale after ten minutes.
    let models = fs_store(&sim, "models", 2);
    registry.register(models.clone(), EvictionPolicy::MaxAge(Duration::from_secs(600)));
    let sweeper = registry.start_sweeper(&sim, Duration::from_secs(120));

    // A campaign-shaped burst: 200 input objects consumed once, and a
    // model checkpoint replaced every 5 minutes but resolved often.
    {
        let inputs = inputs.clone();
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..200u32 {
                let p = Proxy::create(&inputs, i, 1_000_000, SITE).await.unwrap();
                s.sleep(secs(10.0)).await;
                let r = p.resolve(SITE).await.unwrap();
                assert_eq!(*r.value, i);
            }
        });
    }
    {
        let models = models.clone();
        let s = sim.clone();
        sim.spawn(async move {
            for gen in 0..10u32 {
                let p = Proxy::create(&models, gen, 21_000_000, SITE).await.unwrap();
                // Many consumers over its useful life.
                for _ in 0..5 {
                    s.sleep(secs(60.0)).await;
                    p.resolve(SITE).await.unwrap();
                }
            }
        });
    }

    // Sample the registry every 10 virtual minutes.
    println!("{:>8} {:>22} {:>22}", "t", "task-inputs resident", "models resident");
    for step in 1..=6 {
        sim.run_until(hetflow::sim::SimTime::from_secs(step * 600));
        println!(
            "{:>7}s {:>15} bytes {:>15} bytes",
            step * 600,
            inputs.resident_bytes(),
            models.resident_bytes()
        );
    }
    // Stop the periodic sweeper so the simulation can quiesce, then
    // drain the remaining work.
    sweeper.stop();
    sim.run();

    println!("\nfinal registry state:");
    for line in registry.report() {
        println!("  {line}");
    }
    let s_in = inputs.stats();
    let s_mo = models.stats();
    println!(
        "\ntask-inputs: {} puts, {} evictions (one-shot policy)",
        s_in.puts, s_in.evictions
    );
    println!("models: {} puts, {} evictions (age policy)", s_mo.puts, s_mo.evictions);
    assert_eq!(s_in.evictions, s_in.gets, "every consumed input was reclaimed");
}
