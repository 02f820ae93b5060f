//! Shape regression tests: the qualitative results of every figure,
//! asserted as invariants so calibration drift is caught by CI rather
//! than by eyeballing figure output.

use hetflow_apps::moldesign::{MolDesignParams, SteeringMode};
use hetflow_bench::figures::{overload_point, Runs, GOODPUT_FLOOR, P99_BOUND_SECS};
use hetflow_bench::stats::{pooled_ratio, sign_flip_p};
use hetflow_bench::{NoopPipeline, StoreKind};
use hetflow_core::WorkflowConfig;
use std::time::Duration;

/// Fig. 3: proxying cuts server→worker communication 2–3× at 10 kB.
#[test]
fn fig3_speedup_10kb_in_band() {
    let no_proxy = NoopPipeline::fig3(StoreKind::None).run(10_000, 30);
    let redis = NoopPipeline::fig3(StoreKind::Redis).run(10_000, 30);
    let ratio = no_proxy.server_to_worker.median() / redis.server_to_worker.median();
    assert!((1.8..4.5).contains(&ratio), "10kB server->worker speedup {ratio:.2} (paper: 2-3x)");
}

/// Fig. 3: proxying cuts server→worker communication ~10× at 1 MB, and
/// the whole task lifetime more than 3× (pass-by-reference on/off).
#[test]
fn fig3_speedup_1mb_in_band() {
    let no_proxy = NoopPipeline::fig3(StoreKind::None).run(1_000_000, 30);
    let redis = NoopPipeline::fig3(StoreKind::Redis).run(1_000_000, 30);
    let ratio = no_proxy.server_to_worker.median() / redis.server_to_worker.median();
    assert!((6.0..16.0).contains(&ratio), "1MB server->worker speedup {ratio:.1} (paper: ~10x)");
    let lifetime = no_proxy.lifetime.median() / redis.lifetime.median();
    assert!(lifetime > 3.0, "proxying must win at 1MB: lifetime {lifetime:.1}x");
}

/// Fig. 3: server→worker communication dominates the no-op lifetime on
/// the FaaS fabric.
#[test]
fn fig3_server_to_worker_dominates() {
    let b = NoopPipeline::fig3(StoreKind::None).run(10_000, 20);
    let s2w = b.server_to_worker.median();
    for (label, other) in [
        ("thinker->server", b.thinker_to_server.median()),
        ("time-on-worker", b.time_on_worker.median()),
    ] {
        assert!(s2w > other, "server->worker {s2w} must dominate {label} {other}");
    }
}

/// Fig. 4: Redis beats the file system for small objects; they are
/// comparable at 100 MB.
#[test]
fn fig4_redis_vs_fs_crossover() {
    let redis_small = NoopPipeline::fig4(StoreKind::Redis).run(10_000, 20);
    let fs_small = NoopPipeline::fig4(StoreKind::Fs).run(10_000, 20);
    assert!(
        redis_small.serialization.mean() < 0.6 * fs_small.serialization.mean(),
        "Redis must be much faster for 10kB: {} vs {}",
        redis_small.serialization.mean(),
        fs_small.serialization.mean()
    );
    let redis_big = NoopPipeline::fig4(StoreKind::Redis).run(100_000_000, 10);
    let fs_big = NoopPipeline::fig4(StoreKind::Fs).run(100_000_000, 10);
    let ratio = redis_big.lifetime.mean() / fs_big.lifetime.mean();
    assert!((0.4..2.5).contains(&ratio), "100MB lifetimes comparable: ratio {ratio:.2}");
}

/// Fig. 4: Globus time-on-worker is seconds and size-independent up to
/// 100 MB (web-service latency, not bandwidth).
#[test]
fn fig4_globus_size_independent() {
    let small = NoopPipeline::fig4(StoreKind::Globus).run(10_000, 10);
    let large = NoopPipeline::fig4(StoreKind::Globus).run(100_000_000, 10);
    let w_small = small.time_on_worker.mean();
    let w_large = large.time_on_worker.mean();
    assert!(w_small > 0.5, "Globus worker wait is seconds: {w_small}");
    assert!(
        w_large / w_small < 2.0,
        "Globus wait must be near size-independent: {w_small:.2} vs {w_large:.2}"
    );
}

/// §V-F recommendation: below ~10 kB, proxying through a store costs
/// more worker time than inlining (the threshold exists for a reason).
/// At 2 kB the round trip at least doubles it; at 5 kB, inline under a
/// 10 kB threshold still beats forced proxying.
#[test]
fn small_messages_hurt_by_proxying() {
    for (size, factor) in [(2_000, 2.0), (5_000, 1.0)] {
        let mut inline = NoopPipeline::fig3(StoreKind::Fs);
        inline.threshold = 10_000;
        let inline_b = inline.run(size, 20);
        let mut forced = NoopPipeline::fig3(StoreKind::Fs);
        forced.threshold = 0;
        let forced_b = forced.run(size, 20);
        assert!(
            forced_b.time_on_worker.median() > factor * inline_b.time_on_worker.median(),
            "forced proxying of {size} B must cost: {} vs {}",
            forced_b.time_on_worker.median(),
            inline_b.time_on_worker.median()
        );
    }
}

/// The FaaS dispatch cost (client-visible submit latency) is ~100 ms —
/// the §V-D3 in-text number.
#[test]
fn fnx_dispatch_cost_near_100ms() {
    let b = NoopPipeline::fig3(StoreKind::Redis).run(10_000, 30);
    // thinker_to_server + submitted→dispatched is queue + server work;
    // dispatch itself is dominated by the HTTPS call inside
    // server→worker. Verify via the thinker→server vs lifetime split:
    // direct measurement of dispatched is in the records; use the
    // median server→worker lower bound instead.
    let s2w = b.server_to_worker.median();
    assert!(s2w > 0.15 && s2w < 0.8, "FaaS path ~hundreds of ms: {s2w}");
}

/// Overload knee: below saturation the protection stack sheds nothing
/// and queue waits stay sub-second.
#[test]
fn overload_underload_sheds_nothing() {
    let p = overload_point(0.5, 60.0);
    assert_eq!(p.shed, 0, "no shedding below saturation");
    assert_eq!(p.failed, 0);
    assert_eq!(p.completed, p.submitted);
    assert!(p.p99_queue_wait_secs < 1.0, "p99 {}", p.p99_queue_wait_secs);
}

/// Overload knee: at 2× saturation the stack sheds, yet goodput holds
/// and the p99 queue wait stays bounded.
#[test]
fn overload_2x_keeps_goodput_and_bounded_p99() {
    let under = overload_point(0.75, 60.0);
    let over = overload_point(2.0, 60.0);
    assert!(over.shed > 0, "2x saturation must shed");
    assert!(
        over.goodput_per_sec >= GOODPUT_FLOOR * under.goodput_per_sec,
        "goodput collapsed: {:.2} vs {:.2}",
        over.goodput_per_sec,
        under.goodput_per_sec
    );
    assert!(over.p99_queue_wait_secs <= P99_BOUND_SECS, "p99 unbounded: {}", over.p99_queue_wait_secs);
}

/// ROADMAP item 1's probe: active learning against a random queue on
/// FnX+Globus, 6 000 molecules, seeds 7–9 and 400–409, at the steering
/// ablation's 4 node-hours and the paper's 6. At both budgets active
/// learning finds more than random on every seed, so the paired
/// sign-flip p is the floor of 13 pairs, 2 / 2¹³. The ratios are
/// printed, not asserted: `ablation_steering` checks its `> 3×` on
/// seeds 7–9 at 4 hours.
#[test]
#[expect(clippy::print_stdout, reason = "the per-seed table `--nocapture` shows is the probe")]
fn active_learning_finds_more_than_random_on_every_seed() {
    let runs = Runs::default();
    let seeds: Vec<u64> = (7..=9).chain(400..=409).collect();
    for hours in [4, 6] {
        let [al, random] = [SteeringMode::ActiveLearning, SteeringMode::Random].map(|steering| {
            let cells = seeds.iter().map(|&seed| {
                let params = MolDesignParams {
                    library_size: 6_000,
                    budget: Duration::from_secs(hours * 3600),
                    steering,
                    seed,
                    ..Default::default()
                };
                runs.moldesign((WorkflowConfig::FnXGlobus, seed, None, params))
            });
            cells.collect::<Vec<_>>()
        });
        println!("{hours} node-h  seed  AL found/sims  random found/sims  ratio  AL steered");
        let [al_cells, random_cells] = [&al, &random]
            .map(|outcomes| outcomes.iter().map(|o| (o.found, o.simulations)).collect::<Vec<_>>());
        let mut diffs = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let (a, r) = (&al[i], &random[i]);
            let ratio = pooled_ratio(&al_cells[i..=i], &random_cells[i..=i]);
            println!(
                "{:>15} {:>6}/{:<6} {:>10}/{:<6} {ratio:>6.2}x {:>4} of {}",
                seed,
                a.found,
                a.simulations,
                r.found,
                r.simulations,
                a.steered_rounds,
                a.ml_makespans.len()
            );
            assert!(
                a.found > r.found,
                "{hours} h, seed {seed}: AL {} vs random {}",
                a.found,
                r.found
            );
            diffs.push(a.found as f64 - r.found as f64);
        }
        println!("pooled ratio {:.2}x\n", pooled_ratio(&al_cells, &random_cells));
        assert_eq!(sign_flip_p(&diffs), 2.0 / 8192.0);
    }
}
