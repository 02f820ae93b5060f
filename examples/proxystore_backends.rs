//! Comparing ProxyStore backends directly (a miniature of Fig. 4):
//! put/resolve a range of object sizes through Redis-model,
//! file-system-model, and Globus-model stores and print the costs.
//!
//! ```sh
//! cargo run --release --example proxystore_backends
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]
#![allow(
    clippy::expect_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::Calibration;
use hetflow_store::{Backend, GlobusBackend, GlobusService, Proxy, Store};
use hetflow_sim::{Sim, SimRng};

fn main() {
    let cal = Calibration::default();
    let sizes: &[(u64, &str)] =
        &[(10_000, "10 kB"), (1_000_000, "1 MB"), (100_000_000, "100 MB")];

    println!("{:<10} {:>10} {:>12} {:>12}", "backend", "size", "put (ms)", "resolve (ms)");
    for &(size, label) in sizes {
        for backend_name in ["redis", "fs", "globus"] {
            let sim = Sim::new();
            let (store, consumer_site) = match backend_name {
                "redis" => (
                    Store::new(
                        sim.clone(),
                        "redis",
                        Backend::Redis(cal.redis.clone()),
                        SimRng::from_seed(1),
                    ),
                    THETA,
                ),
                "fs" => (
                    Store::new(
                        sim.clone(),
                        "fs",
                        Backend::Fs(cal.fs_theta.clone()),
                        SimRng::from_seed(1),
                    ),
                    THETA,
                ),
                _ => {
                    let service =
                        GlobusService::new(sim.clone(), cal.globus.clone(), SimRng::from_seed(2));
                    (
                        Store::new(
                            sim.clone(),
                            "globus",
                            Backend::Globus(Box::new(GlobusBackend {
                                service,
                                src_fs: cal.fs_theta.clone(),
                                dst_fs: cal.fs_venti.clone(),
                                push_to: vec![VENTI],
                            })),
                            SimRng::from_seed(1),
                        ),
                        VENTI,
                    )
                }
            };
            let s = sim.clone();
            let h = sim.spawn(async move {
                let t0 = s.now();
                let proxy = Proxy::create(&store, vec![0u8; 8], size, THETA)
                    .await
                    .expect("put");
                let put = (s.now() - t0).as_secs_f64() * 1e3;
                let t1 = s.now();
                proxy.resolve(consumer_site).await.expect("resolve");
                let resolve = (s.now() - t1).as_secs_f64() * 1e3;
                (put, resolve)
            });
            let (put, resolve) = sim.block_on(h);
            println!("{backend_name:<10} {label:>10} {put:>12.2} {resolve:>12.2}");
        }
        println!();
    }
    println!("Redis: lowest latency for small objects (needs connectivity).");
    println!("FS: competitive at large sizes within a facility.");
    println!("Globus: ~seconds regardless of size — pays the transfer service,");
    println!("        works across sites with no open ports.");
}
