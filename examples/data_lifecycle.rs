//! Managing object lifetimes in the data fabric: a StoreRegistry with a
//! one-shot (evict-after-resolve) store and a manually evicted one, and
//! what that does to resident memory over a burst of task traffic.
//!
//! ```sh
//! cargo run --release --example data_lifecycle
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]
#![allow(
    clippy::unwrap_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow::sim::{time::secs, Sim, SimRng};
use hetflow::store::{Backend, EvictionPolicy, FsParams, Proxy, SiteId, Store, StoreRegistry};

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

    // Model checkpoints are re-read until the next one replaces them:
    // their producer evicts each one by hand.
    let models = fs_store(&sim, "models", 2);
    registry.register(models.clone(), EvictionPolicy::Manual);

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
                // Superseded by the next generation; the last one stays.
                if gen < 9 {
                    assert!(p.evict());
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
    println!("models: {} puts, {} evictions (manual policy)", s_mo.puts, s_mo.evictions);
    assert_eq!(s_in.evictions, s_in.gets, "every consumed input was reclaimed");
    assert_eq!(models.object_count(), 1, "only the newest checkpoint is left");
}
