//! Ablation benches for the design choices DESIGN.md calls out. Each
//! measures the *virtual-time* consequence of a mechanism by running
//! the experiment inside the bench body and asserting the expected
//! direction; criterion records the (wall-time) cost of evaluating it.

#![allow(
    clippy::unwrap_used,
    reason = "a bench aborts on a setup failure; R5 covers library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use hetflow_bench::{NoopPipeline, StoreKind};
use hetflow_core::platform::THETA;
use hetflow_core::Calibration;
use hetflow_store::{GlobusParams, GlobusService, SiteId};
use hetflow_sim::{Sim, SimRng};
use std::time::Duration;

/// Ablation 1: pass-by-reference on/off (the paper's headline
/// mechanism). Virtual lifetime at 1 MB must drop by >3x with proxying.
fn ablation_proxy_on_off(c: &mut Criterion) {
    c.bench_function("ablation/proxy_on_off", |b| {
        b.iter(|| {
            let on = NoopPipeline::fig3(StoreKind::Redis).run(1_000_000, 10);
            let off = NoopPipeline::fig3(StoreKind::None).run(1_000_000, 10);
            let ratio = off.lifetime.median() / on.lifetime.median();
            assert!(ratio > 3.0, "proxying must win at 1MB: {ratio:.1}x");
            ratio
        });
    });
}

/// Ablation 2: proxy threshold. §V-F notes small messages are *hurt* by
/// proxying (store round trips exceed inline cost), so the optimal
/// threshold is nonzero.
fn ablation_threshold(c: &mut Criterion) {
    c.bench_function("ablation/threshold_small_payloads", |b| {
        b.iter(|| {
            // 5 kB payloads: inline (threshold above) vs forced proxy.
            let mut inline = NoopPipeline::fig3(StoreKind::Fs);
            inline.threshold = 10_000; // 5 kB stays inline
            let inline_b = inline.run(5_000, 10);
            let mut forced = NoopPipeline::fig3(StoreKind::Fs);
            forced.threshold = 0;
            let forced_b = forced.run(5_000, 10);
            // The worker must wait on an fs round trip when proxied.
            assert!(
                forced_b.time_on_worker.median() > inline_b.time_on_worker.median(),
                "proxying tiny payloads should cost worker time: {} vs {}",
                forced_b.time_on_worker.median(),
                inline_b.time_on_worker.median()
            );
            forced_b.time_on_worker.median() / inline_b.time_on_worker.median()
        });
    });
}

/// Ablation 3: Globus transfer batching (§V-D1 suggests fusing
/// transfers to dodge the per-user concurrency limit).
fn ablation_transfer_batching(c: &mut Criterion) {
    c.bench_function("ablation/transfer_batching", |b| {
        b.iter(|| {
            let run = |batch: Option<Duration>| {
                let sim = Sim::new();
                let params = GlobusParams { batch_window: batch, ..Default::default() };
                let svc = GlobusService::new(sim.clone(), params, SimRng::from_seed(3));
                // A burst of 12 concurrent transfers on one route — what a
                // training round's simultaneous results produce.
                let waiters: Vec<_> = (0..12)
                    .map(|_| {
                        let svc = svc.clone();
                        sim.spawn(async move {
                            let ticket = svc.initiate(10_000_000, THETA, SiteId(1)).await;
                            ticket.wait().await;
                        })
                    })
                    .collect();
                let h = sim.spawn(async move {
                    for w in waiters {
                        w.await;
                    }
                });
                sim.block_on(h);
                (sim.now().as_secs_f64(), svc.transfer_jobs())
            };
            let (t_plain, jobs_plain) = run(None);
            let (t_batched, jobs_batched) = run(Some(Duration::from_millis(200)));
            assert!(jobs_batched < jobs_plain, "batching must fuse jobs");
            assert!(
                t_batched < t_plain,
                "batching must beat the concurrency limit: {t_batched:.1} vs {t_plain:.1}"
            );
            t_plain / t_batched
        });
    });
}

/// Ablation 4: ahead-of-time transfer (ProxyStore initiates the Globus
/// push at put time). Compare a consumer arriving 5 s after the put
/// with one resolving immediately.
fn ablation_prefetch(c: &mut Criterion) {
    c.bench_function("ablation/prefetch_hides_transfer", |b| {
        b.iter(|| {
            let cal = Calibration::default();
            let sim = Sim::new();
            let service = GlobusService::new(sim.clone(), cal.globus.clone(), SimRng::from_seed(4));
            let store = hetflow_store::Store::new(
                sim.clone(),
                "g",
                hetflow_store::Backend::Globus(Box::new(hetflow_store::GlobusBackend {
                    service,
                    src_fs: cal.fs_theta.clone(),
                    dst_fs: cal.fs_venti.clone(),
                    push_to: vec![SiteId(1)],
                })),
                SimRng::from_seed(5),
            );
            let h = sim.spawn(async move {
                let early = hetflow_store::Proxy::create(&store, (), 10_000_000, THETA)
                    .await
                    .unwrap();
                let late = hetflow_store::Proxy::create(&store, (), 10_000_000, THETA)
                    .await
                    .unwrap();
                // Immediate consumer pays the transfer.
                let eager = early.resolve(SiteId(1)).await.unwrap().wait;
                // Late consumer finds the data already resident.
                let sim2 = store.sim().clone();
                sim2.sleep(hetflow_sim::time::secs(15.0)).await;
                let lazy = late.resolve(SiteId(1)).await.unwrap().wait;
                (eager, lazy)
            });
            let (eager, lazy) = sim.block_on(h);
            assert!(
                lazy < eager / 3,
                "prefetch must hide the transfer: {lazy:?} vs {eager:?}"
            );
            eager.as_secs_f64() / lazy.as_secs_f64().max(1e-6)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_proxy_on_off, ablation_threshold, ablation_transfer_batching, ablation_prefetch
}
criterion_main!(benches);
