//! Property-based tests of kernel invariants.
//!
//! These cover the guarantees every higher layer silently relies on:
//! virtual time never goes backwards, channels are FIFO and lossless,
//! semaphores never over-grant, and execution is deterministic under
//! arbitrary task/timer interleavings.

#![allow(
    clippy::let_underscore_must_use,
    reason = "a test actor may outlive the receiver it feeds; R15 covers library code only"
)]

use hetflow_sim::{
    bounded, channel, time::secs, Samples, Semaphore, Sim, SimTime, Symbol, SymbolMap,
};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any set of sleepers: the clock visits their deadlines in order
    /// and ends at the maximum.
    #[test]
    fn clock_is_monotone_over_random_sleeps(delays in prop::collection::vec(0u64..10_000, 1..40)) {
        let sim = Sim::new();
        let observed: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        for &d in &delays {
            let s = sim.clone();
            let observed = Rc::clone(&observed);
            sim.spawn(async move {
                s.sleep(secs(d as f64 / 1000.0)).await;
                observed.borrow_mut().push(s.now());
            });
        }
        let report = sim.run();
        let observed = observed.borrow();
        prop_assert_eq!(observed.len(), delays.len());
        for pair in observed.windows(2) {
            prop_assert!(pair[0] <= pair[1], "time went backwards");
        }
        let max = delays.iter().max().copied().unwrap_or(0);
        prop_assert_eq!(report.end, SimTime::from_millis(max));
        prop_assert_eq!(report.pending_tasks, 0);
    }

    /// Channels deliver every message exactly once, in order, to a
    /// single consumer, regardless of producer interleaving.
    #[test]
    fn channel_is_lossless_and_fifo_per_producer(
        batches in prop::collection::vec(prop::collection::vec(0u32..1000, 0..20), 1..5)
    ) {
        let sim = Sim::new();
        let (tx, rx) = channel::<(usize, u32)>();
        let total: usize = batches.iter().map(Vec::len).sum();
        for (p, batch) in batches.clone().into_iter().enumerate() {
            let tx = tx.clone();
            let s = sim.clone();
            sim.spawn(async move {
                for (i, v) in batch.into_iter().enumerate() {
                    s.sleep(secs((v as f64) / 500.0 + i as f64 * 0.001)).await;
                    let _ = tx.send_now((p, v));
                }
            });
        }
        drop(tx);
        let got: Rc<RefCell<Vec<(usize, u32)>>> = Rc::default();
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            while let Some(item) = rx.recv().await {
                got2.borrow_mut().push(item);
            }
        });
        sim.run();
        prop_assert_eq!(got.borrow().len(), total);
    }

    /// A semaphore of capacity k never admits more than k holders, for
    /// arbitrary hold times and task counts.
    #[test]
    fn semaphore_never_overgrants(
        k in 1usize..6,
        holds in prop::collection::vec(1u64..50, 1..30)
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(k);
        let active = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        for &h in &holds {
            let sem = sem.clone();
            let s = sim.clone();
            let active = Rc::clone(&active);
            let peak = Rc::clone(&peak);
            sim.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                s.sleep(secs(h as f64 / 100.0)).await;
                active.set(active.get() - 1);
            });
        }
        sim.run();
        prop_assert!(peak.get() <= k, "peak {} exceeded capacity {}", peak.get(), k);
        prop_assert_eq!(active.get(), 0usize);
        prop_assert_eq!(sem.available(), k);
    }

    /// Bounded channels never hold more than their capacity.
    #[test]
    fn bounded_channel_respects_capacity(
        cap in 1usize..8,
        n in 1usize..40,
        consume_ms in 1u64..20
    ) {
        let sim = Sim::new();
        let (tx, rx) = bounded::<usize>(cap);
        let peak = Rc::new(Cell::new(0usize));
        {
            let s = sim.clone();
            let peak = Rc::clone(&peak);
            let rx2 = rx.clone();
            sim.spawn(async move {
                loop {
                    peak.set(peak.get().max(rx2.len()));
                    s.sleep(secs(consume_ms as f64 / 1000.0)).await;
                    if rx2.recv().await.is_none() {
                        break;
                    }
                }
            });
        }
        drop(rx);
        sim.spawn(async move {
            for i in 0..n {
                if tx.send(i).await.is_err() {
                    break;
                }
            }
        });
        sim.run();
        prop_assert!(peak.get() <= cap, "peak {} > cap {}", peak.get(), cap);
    }

    /// `SymbolMap` must iterate exactly like the `BTreeMap<String, _>`
    /// it replaced on digest-visible paths, for any interleaving of
    /// inserts, overwrites, and removes over a random interned-name
    /// set (fabric-style endpoint/topic names included so separator
    /// characters are exercised).
    #[test]
    fn symbol_map_iterates_like_string_btree(
        ops in prop::collection::vec((0u8..12, 0u16..40, 0u32..1000), 1..120)
    ) {
        let mut dense: SymbolMap<u32> = SymbolMap::new();
        let mut tree: BTreeMap<String, u32> = BTreeMap::new();
        for (kind, name_ix, value) in ops {
            // A mixed name population: plain words, fabric endpoint
            // names with separators, and numeric suffixes whose string
            // order differs from numeric order.
            let name = match kind % 4 {
                0 => format!("pt-topic-{name_ix}"),
                1 => format!("fnx/ep{name_ix}"),
                2 => format!("htex/ep{name_ix}"),
                _ => format!("pt/{}/{name_ix}", kind),
            };
            let sym = Symbol::intern(&name);
            if kind >= 9 {
                prop_assert_eq!(dense.remove(sym), tree.remove(&name));
            } else {
                prop_assert_eq!(dense.insert(sym, value), tree.insert(name, value));
            }
        }
        prop_assert_eq!(dense.len(), tree.len());
        let got: Vec<(&str, u32)> = dense.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        let want: Vec<(&str, u32)> = tree.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        prop_assert_eq!(got, want);
        let keys: Vec<&str> = dense.keys().map(|k| k.as_str()).collect();
        let want_keys: Vec<&str> = tree.keys().map(String::as_str).collect();
        prop_assert_eq!(keys, want_keys);
        for (name, &v) in &tree {
            prop_assert_eq!(dense.get(Symbol::intern(name)), Some(&v));
        }
    }

    /// `quantile` selects where `quantiles` sorts: for any sample set,
    /// duplicates and both zeros included, the two agree to the bit.
    #[test]
    fn quantile_selection_matches_sort(
        picks in prop::collection::vec((0u8..10, any::<u32>()), 1..201),
        raw_q in any::<u32>(),
    ) {
        let mut s = Samples::new();
        for (kind, v) in picks {
            s.record(match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MAX,
                3 => -f64::MAX,
                4 => f64::MIN_POSITIVE,
                5 | 6 => f64::from(v % 8) - 4.0,
                _ => f64::from(v) * 1e-3 - 2e6,
            });
        }
        for q in [0.0, 0.5, 0.95, 1.0, f64::from(raw_q) / f64::from(u32::MAX)] {
            prop_assert_eq!(s.quantile(q).to_bits(), s.quantiles(&[q])[0].to_bits(), "q = {}", q);
        }
    }

    /// Two identical runs produce identical completion orders
    /// (determinism under arbitrary workloads).
    #[test]
    fn execution_is_deterministic(seed in 0u64..1000, n in 1usize..60) {
        let run = || {
            let sim = Sim::new();
            let order: Rc<RefCell<Vec<usize>>> = Rc::default();
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            for i in 0..n {
                let d = rng.uniform(0.0, 5.0);
                let s = sim.clone();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    s.sleep(secs(d)).await;
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            let v = order.borrow().clone();
            v
        };
        prop_assert_eq!(run(), run());
    }
}
