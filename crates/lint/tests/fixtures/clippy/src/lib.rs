//! Every case of the retired hetlint R1–R5, R14 and R15 fixtures, as
//! code clippy checks against the repository's clippy.toml. A bad case
//! carries `#[expect(<lint>)]`; a good case carries nothing. Comments and
//! strings that name banned items (`Instant::now`, `thread::spawn`,
//! `route.iter()`) are the old false-positive guards: clippy resolves
//! paths, so text never fires.

use std::collections::BTreeMap;
use std::time::Duration;

/// A stand-in for `hetflow_sim::Sim`: methods named like the banned
/// std functions are not the banned functions.
pub struct Sim;

impl Sim {
    pub fn now(&self) -> u64 {
        0
    }
    pub fn sleep(&self, _d: Duration) {}
    pub fn spawn(&self, _f: impl std::future::Future<Output = ()>) {}
}

/// A stand-in channel sender whose `send_now` is a fabric effect.
pub struct Tx;

impl Tx {
    pub fn send_now(&self, _task: u32) -> Result<(), u32> {
        Ok(())
    }
    pub fn snapshot(&self) -> u32 {
        0
    }
}

// ---- R1 virtual time (r1_bad, r1_alias_bad, r1_good, r14_bad) ---------

#[expect(clippy::disallowed_methods)]
pub fn r1_instant() -> Duration {
    std::time::Instant::now().elapsed()
}

#[expect(clippy::disallowed_methods)]
pub fn r1_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

#[expect(clippy::disallowed_methods)]
pub fn r1_sleep() {
    std::thread::sleep(Duration::from_millis(5));
}

/// The alias hetlint tracked by hand resolves to the same function.
#[expect(clippy::disallowed_methods)]
pub fn r1_alias() -> f64 {
    use std::time::Instant as Wall;
    Wall::now().elapsed().as_secs_f64()
}

pub fn r1_good(sim: &Sim) -> (u64, &'static str) {
    // Instant::now() would be wrong here; Sim::now() is virtual.
    sim.sleep(Duration::from_millis(5));
    (sim.now(), "no Instant or SystemTime or thread::sleep here")
}

// ---- R2 seeded rng (r2_bad, r2_good) ------------------------------------
// `thread_rng`, `from_entropy` and `OsRng` come from `rand`, which the
// hermetic build cannot resolve; std's ambient entropy is RandomState.

#[expect(clippy::disallowed_types)]
pub fn r2_random_state() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

#[expect(clippy::disallowed_types)]
pub fn r2_random_state_reexport() -> std::collections::hash_map::RandomState {
    Default::default()
}

pub fn r2_good(master: u64) -> u64 {
    let _label = "never call thread_rng or OsRng";
    master.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---- R3 hash order (r3_*, r14_bad) --------------------------------------
// Stricter than R3: the type is banned, not only its iteration, so
// keyed lookup (r3_good) and a Vec of maps (r3_names) are bad cases too.

#[expect(clippy::disallowed_types)]
pub struct Router {
    pub route: std::collections::HashMap<String, usize>,
}

#[expect(clippy::disallowed_types)]
pub fn r3_iterate(r: &Router, seen: std::collections::HashSet<u64>) -> usize {
    let mut total: usize = r.route.keys().map(String::len).sum();
    for s in &seen {
        total += *s as usize;
    }
    total
}

#[expect(clippy::disallowed_types)]
pub fn r3_keyed_lookup(key: &str) -> usize {
    let mut route = std::collections::HashMap::new();
    route.insert(key.to_string(), 1);
    *route.get(key).unwrap_or(&0)
}

#[expect(clippy::disallowed_types)]
pub fn r3_chain(route: &std::cell::RefCell<std::collections::HashMap<String, u64>>) -> u64 {
    route.borrow().values().sum()
}

#[expect(clippy::disallowed_types)]
pub fn r3_vec_of_maps() -> usize {
    let scores: Vec<std::collections::HashMap<String, f64>> = Vec::new();
    scores.len()
}

pub fn r3_good(ordered: &BTreeMap<String, usize>) -> usize {
    // `route.iter()` in this comment must not fire.
    ordered.values().sum()
}

// ---- R4 threads (r4_bad, r4_good) ----------------------------------------

#[expect(clippy::disallowed_methods)]
pub fn r4_spawn() {
    let _handle = std::thread::spawn(|| ());
}

#[expect(clippy::disallowed_methods)]
pub fn r4_builder() -> std::io::Result<()> {
    std::thread::Builder::new().spawn(|| ())?;
    Ok(())
}

#[expect(clippy::disallowed_methods)]
pub fn r4_scope() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}

#[expect(clippy::disallowed_methods)]
pub fn r4_builder_scoped<'s>(s: &'s std::thread::Scope<'s, '_>) -> std::io::Result<()> {
    std::thread::Builder::new().spawn_scoped(s, || ())?;
    Ok(())
}

pub fn r4_good(sim: &Sim, jobs: Vec<String>) {
    let _note = "thread::spawn is banned here";
    for job in jobs {
        sim.spawn(async move { drop(job) });
    }
}

// ---- R5 unwrap budget (r5_budget) ----------------------------------------

#[expect(clippy::unwrap_used)]
pub fn r5_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::expect_used)]
pub fn r5_expect(y: Result<u32, ()>) -> u32 {
    y.expect("calibration table is complete")
}

#[expect(clippy::panic)]
pub fn r5_panic(a: u32) -> u32 {
    if a == 0 {
        panic!("explicit panics count against the same budget");
    }
    a
}

/// The reasoned invariant abort an R5 annotation used to cover.
#[expect(clippy::unwrap_used, reason = "index is bounds-checked two lines above")]
pub fn r5_reasoned(table: &[u32]) -> u32 {
    table.first().copied().unwrap()
}

// ---- R15 discarded effects (r15_bad, r15_nested_bad, r15_good) -----------

pub fn r15_branch(tx: &Tx, task: u32, urgent: bool) {
    if urgent {
        #[expect(clippy::let_underscore_must_use)]
        let _ = tx.send_now(task);
    }
}

pub fn r15_in_async_block(sim: &Sim, tx: Tx, task: u32) {
    sim.spawn(async move {
        #[expect(clippy::let_underscore_must_use)]
        let _ = tx.send_now(task);
    });
}

pub fn r15_in_closure(tx: Tx, task: u32) {
    let f = move || {
        #[expect(clippy::let_underscore_must_use)]
        let _ = tx.send_now(task);
    };
    f();
}

pub fn r15_good(tx: &Tx, task: u32) -> Result<(), u32> {
    tx.send_now(task)?;
    let _ = tx.snapshot();
    Ok(())
}

#[cfg(test)]
mod tests {
    // Test code may unwrap, expect and panic (allow-*-in-tests).
    #[test]
    fn test_only_unwraps_are_allowed() {
        let v = "1".parse::<u32>();
        assert_eq!(v.clone().unwrap(), 1);
        assert_eq!(v.expect("fine in tests"), super::r5_unwrap(Some(1)));
        if super::r5_panic(2) != 2 {
            panic!("fine in tests");
        }
    }
}
