//! Property-based tests of store invariants: round-trips preserve
//! values, proxy wire size is constant, costs are monotone in size, and
//! Globus prefetching never loses data under arbitrary producer and
//! consumer timings.

use hetflow_store::{
    bytes::KB, Backend, FsParams, GlobusBackend, GlobusParams, GlobusService, Proxy, RedisParams,
    SiteId, SiteSet, Store,
};
use hetflow_sim::{time::secs, Dist, Link, Sim, SimRng};
use proptest::prelude::*;

const A: SiteId = SiteId(0);
const B: SiteId = SiteId(1);

fn fs_store(sim: &Sim) -> Store {
    Store::new(
        sim.clone(),
        "fs",
        Backend::Fs(FsParams {
            members: SiteSet::of(&[A]),
            op_latency: Dist::Constant(0.002),
            write_bandwidth: 1e8,
            read_bandwidth: 1e8,
        }),
        SimRng::from_seed(1),
    )
}

fn redis_store(sim: &Sim) -> Store {
    Store::new(
        sim.clone(),
        "redis",
        Backend::Redis(RedisParams {
            host: A,
            connected: SiteSet::of(&[A, B]),
            local: Link { latency: Dist::Constant(0.0005), bandwidth: 1e8 },
            remote: Link { latency: Dist::Constant(0.002), bandwidth: 5e7 },
        }),
        SimRng::from_seed(2),
    )
}

fn globus_store(sim: &Sim) -> Store {
    let service = GlobusService::new(
        sim.clone(),
        GlobusParams {
            request_latency: Dist::Constant(0.4),
            transfer: Link { latency: Dist::Constant(1.5), bandwidth: 1e9 },
            concurrent_per_user: 3,
        },
        SimRng::from_seed(3),
    );
    Store::new(
        sim.clone(),
        "globus",
        Backend::Globus(Box::new(GlobusBackend {
            service,
            src_fs: FsParams {
                members: SiteSet::of(&[A]),
                op_latency: Dist::Constant(0.002),
                write_bandwidth: 1e8,
                read_bandwidth: 1e8,
            },
            dst_fs: FsParams {
                members: SiteSet::of(&[B]),
                op_latency: Dist::Constant(0.002),
                write_bandwidth: 1e8,
                read_bandwidth: 1e8,
            },
            push_to: vec![B],
        })),
        SimRng::from_seed(4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Values round-trip unchanged through every backend, at any size.
    #[test]
    fn roundtrip_preserves_values(
        payload in prop::collection::vec(any::<u32>(), 0..64),
        size_kb in 1u64..200_000,
        backend in 0usize..3,
    ) {
        let sim = Sim::new();
        let (store, consumer) = match backend {
            0 => (fs_store(&sim), A),
            1 => (redis_store(&sim), B),
            _ => (globus_store(&sim), B),
        };
        let expected = payload.clone();
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, payload, size_kb * KB, A).await.unwrap();
            let r = p.resolve(consumer).await.unwrap();
            r.value.as_ref().clone()
        });
        prop_assert_eq!(sim.block_on(h), expected);
    }

    /// Proxy wire size never depends on target size.
    #[test]
    fn proxy_wire_size_is_constant(size in 1u64..u64::from(u32::MAX)) {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, (), size, A).await.unwrap();
            p.untyped().wire_size()
        });
        prop_assert_eq!(sim.block_on(h), hetflow_store::PROXY_WIRE_BYTES);
    }

    /// Put cost is monotone non-decreasing in object size (fs backend,
    /// deterministic latencies).
    #[test]
    fn fs_put_cost_monotone(a in 1u64..100_000, b in 1u64..100_000) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let cost_of = |kb: u64| {
            let sim = Sim::new();
            let store = fs_store(&sim);
            let s = sim.clone();
            let h = sim.spawn(async move {
                let t0 = s.now();
                Proxy::create(&store, (), kb * KB, A).await.unwrap();
                (s.now() - t0).as_secs_f64()
            });
            sim.block_on(h)
        };
        prop_assert!(cost_of(small) <= cost_of(large) + 1e-12);
    }

    /// Globus consumers always see the data, whether they resolve
    /// before, during, or after the transfer completes.
    #[test]
    fn globus_resolution_correct_at_any_arrival(delay_ms in 0u64..20_000) {
        let sim = Sim::new();
        let store = globus_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, 777u64, 5_000 * KB, A).await.unwrap();
            let s = store.sim().clone();
            s.sleep(secs(delay_ms as f64 / 1000.0)).await;
            let r = p.resolve(B).await.unwrap();
            (*r.value, r.was_local)
        });
        let (v, was_local) = sim.block_on(h);
        prop_assert_eq!(v, 777);
        // Late arrivals must hit the prefetched copy.
        if delay_ms > 5_000 {
            prop_assert!(was_local, "transfer should have completed by {delay_ms} ms");
        }
    }

    /// Stats are conserved: gets = local_hits + remote_waits, bytes
    /// accounted exactly.
    #[test]
    fn stats_conservation(ops in prop::collection::vec((1u64..1000, any::<bool>()), 1..20)) {
        let sim = Sim::new();
        let store = redis_store(&sim);
        let store2 = store.clone();
        let ops2 = ops.clone();
        sim.spawn(async move {
            for (kb, remote) in ops2 {
                let p = Proxy::create(&store2, (), kb * KB, A).await.unwrap();
                let site = if remote { B } else { A };
                p.resolve(site).await.unwrap();
            }
        });
        sim.run();
        let st = store.stats();
        prop_assert_eq!(st.puts, ops.len() as u64);
        prop_assert_eq!(st.gets, ops.len() as u64);
        prop_assert_eq!(st.local_hits + st.remote_waits, st.gets);
        let bytes: u64 = ops.iter().map(|&(kb, _)| kb * KB).sum();
        prop_assert_eq!(st.bytes_put, bytes);
        prop_assert_eq!(st.bytes_get, bytes);
    }
}
