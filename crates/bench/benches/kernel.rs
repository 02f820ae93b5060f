//! Microbenchmarks of the DES kernel: event throughput, channel
//! round-trips, semaphore handoff. These bound how large a campaign the
//! simulator can execute per wall-second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetflow_sim::{channel, time::secs, Semaphore, Sim};

fn bench_timer_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/timers");
    for &n in &[1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("sleepers", n), &n, |b, &n| {
            b.iter(|| {
                let sim = Sim::new();
                for i in 0..n {
                    let s = sim.clone();
                    sim.spawn(async move {
                        s.sleep(secs((i % 97) as f64 * 0.01)).await;
                    });
                }
                let r = sim.run();
                assert_eq!(r.pending_tasks, 0);
            });
        });
    }
    g.finish();
}

fn bench_channel_pingpong(c: &mut Criterion) {
    c.bench_function("kernel/channel_pingpong_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let (atx, arx) = channel::<u64>();
            let (btx, brx) = channel::<u64>();
            sim.spawn(async move {
                while let Some(v) = arx.recv().await {
                    if btx.send_now(v + 1).is_err() {
                        break;
                    }
                }
            });
            let h = sim.spawn(async move {
                let mut v = 0;
                for _ in 0..10_000 {
                    atx.send_now(v).unwrap();
                    v = brx.recv().await.unwrap();
                }
                v
            });
            assert_eq!(sim.block_on(h), 10_000);
        });
    });
}

fn bench_semaphore_handoff(c: &mut Criterion) {
    c.bench_function("kernel/semaphore_4way_2k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let sem = Semaphore::new(4);
            for _ in 0..2_000 {
                let sem = sem.clone();
                let s = sim.clone();
                sim.spawn(async move {
                    let _p = sem.acquire().await;
                    s.sleep(secs(0.001)).await;
                });
            }
            sim.run();
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_timer_store, bench_channel_pingpong, bench_semaphore_handoff
}
criterion_main!(benches);
