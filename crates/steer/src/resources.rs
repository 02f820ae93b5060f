//! Resource allocation between task pools.
//!
//! Colmena thinkers balance a fixed worker allocation between task types
//! at runtime — the fine-tuning application "balances the number of
//! workers devoted to simulation and sampling to maintain a constant
//! number of structures in the audit pool" (§III-B). [`ResourceCounter`]
//! is that mechanism: named pools of slots, with awaitable acquisition
//! and atomic reallocation between pools.

use hetflow_sim::{Permit, Semaphore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

struct PoolSlots {
    sem: Semaphore,
    registered: std::cell::Cell<usize>,
}

/// Named pools of worker slots.
#[derive(Clone, Default)]
pub struct ResourceCounter {
    pools: Rc<RefCell<BTreeMap<String, Rc<PoolSlots>>>>,
}

impl ResourceCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pool holding `slots` slots. Panics when the name is
    /// already taken.
    pub fn register(&self, pool: impl Into<String>, slots: usize) {
        let name = pool.into();
        let mut pools = self.pools.borrow_mut();
        assert!(!pools.contains_key(&name), "pool {name} registered twice");
        pools.insert(
            name,
            Rc::new(PoolSlots {
                sem: Semaphore::new(slots),
                registered: std::cell::Cell::new(slots),
            }),
        );
    }

    #[expect(
        clippy::panic,
        reason = "unknown pool name is a configuration bug, not a runtime fault"
    )]
    fn pool(&self, name: &str) -> Rc<PoolSlots> {
        Rc::clone(
            self.pools
                .borrow()
                .get(name)
                .unwrap_or_else(|| panic!("unknown resource pool {name}")),
        )
    }

    /// Awaits one slot from `pool`; the permit returns it on drop.
    pub async fn acquire(&self, pool: &str) -> Permit {
        self.pool(pool).sem.acquire().await
    }

    /// Slots currently free in `pool`.
    pub fn available(&self, pool: &str) -> usize {
        self.pool(pool).sem.available()
    }

    /// Total slots ever registered/moved into `pool`.
    pub fn registered(&self, pool: &str) -> usize {
        self.pool(pool).registered.get()
    }

    /// Returns one slot to `pool` without an RAII permit — used when
    /// acquisition and release happen in different agents (dispatcher
    /// acquires, result processor releases).
    pub fn release(&self, pool: &str) {
        self.pool(pool).sem.add_permits(1);
    }

    /// Moves one slot from `from` to `to`, waiting until a source slot
    /// is free (so a busy worker finishes its current task before
    /// switching pools).
    pub async fn reallocate(&self, from: &str, to: &str) {
        let src = self.pool(from);
        let dst = self.pool(to);
        src.sem.acquire().await.forget();
        src.registered.set(src.registered.get() - 1);
        dst.sem.add_permits(1);
        dst.registered.set(dst.registered.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_sim::{time::secs, Sim, SimTime};

    #[test]
    fn register_and_acquire() {
        let sim = Sim::new();
        let rc = ResourceCounter::new();
        rc.register("simulate", 2);
        assert_eq!(rc.available("simulate"), 2);
        let rc2 = rc.clone();
        let h = sim.spawn(async move {
            let _a = rc2.acquire("simulate").await;
            let _b = rc2.acquire("simulate").await;
            rc2.available("simulate")
        });
        assert_eq!(sim.block_on(h), 0);
        assert_eq!(rc.available("simulate"), 2, "permits returned on drop");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_pool_panics() {
        let rc = ResourceCounter::new();
        rc.register("a", 1);
        rc.register("a", 1);
    }

    #[test]
    #[should_panic(expected = "unknown resource pool")]
    fn unknown_pool_panics() {
        let rc = ResourceCounter::new();
        rc.available("ghost");
    }

    #[test]
    fn reallocate_moves_slots() {
        let sim = Sim::new();
        let rc = ResourceCounter::new();
        rc.register("simulate", 4);
        rc.register("sample", 0);
        let rc2 = rc.clone();
        let h = sim.spawn(async move {
            for _ in 0..3 {
                rc2.reallocate("simulate", "sample").await;
            }
            (rc2.available("simulate"), rc2.available("sample"))
        });
        assert_eq!(sim.block_on(h), (1, 3));
        assert_eq!(rc.registered("simulate"), 1);
        assert_eq!(rc.registered("sample"), 3);
    }

    #[test]
    fn reallocate_waits_for_busy_slots() {
        let sim = Sim::new();
        let rc = ResourceCounter::new();
        rc.register("simulate", 1);
        rc.register("sample", 0);
        // Occupy the only slot for 5 seconds.
        {
            let rc = rc.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let _p = rc.acquire("simulate").await;
                s.sleep(secs(5.0)).await;
            });
        }
        let rc2 = rc.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(0.1)).await;
            rc2.reallocate("simulate", "sample").await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(5));
        assert_eq!(rc.available("sample"), 1);
    }
}
