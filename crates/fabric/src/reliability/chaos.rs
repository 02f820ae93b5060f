//! Deterministic chaos-injection engine.
//!
//! A [`ChaosSpec`] is a declarative fault script — endpoint flaps, a
//! permanent site kill, straggler slowdowns, task storms — that
//! [`ChaosSpec::install`] compiles into scheduled actors against a
//! deployment's [`ChaosTargets`]: the [`Connectivity`] handles and pace
//! [`Knob`]s the fabric already consults, plus an optional fabric
//! handle for overload (task-storm) injection. Every random choice is
//! drawn from the `"chaos"` [`SimRng`] stream with one substream
//! per action, so a chaos run is replayable (same seed →
//! byte-identical trace digest) and editing one action never perturbs
//! the draws of another.
//!
//! All actors are finite: each performs its scripted transitions and
//! returns, so an installed chaos script never blocks simulation
//! quiescence. Actions naming an out-of-range endpoint or pool — or a
//! [`ChaosAction::TaskStorm`] when no storm target is wired — are
//! skipped: a chaos script is test scaffolding and must degrade, not
//! panic.

use super::{Connectivity, Knob};
use crate::fabric::Fabric;
use crate::task::TaskSpec;
use hetflow_sim::{Dist, Sim, SimRng, SimTime};
use std::rc::Rc;
use std::time::Duration;

/// Base of the task-id space storm tasks are issued from: far above any
/// id a thinker's monotone counter reaches, so storm traffic never
/// collides with campaign tasks in lifecycle accounting. Each storm
/// action gets its own `<< 32` sub-range under the base.
pub const STORM_ID_BASE: u64 = 1 << 48;

/// The handles a chaos script acts on, harvested from a deployment:
/// one [`Connectivity`] per endpoint and one pace [`Knob`] per worker
/// pool.
#[derive(Clone, Default)]
pub struct ChaosTargets {
    /// Per-endpoint connection handles (flaps, kills).
    pub connectivity: Vec<Connectivity>,
    /// Per-pool compute-pace multipliers (1.0 = nominal).
    pub pace: Vec<Knob>,
    /// Fabric handle [`ChaosAction::TaskStorm`] submits through; storms
    /// are skipped when absent, so existing scripts are unaffected.
    pub storm: Option<Rc<dyn Fabric>>,
}

// Manual impl: `Rc<dyn Fabric>` has no `Debug`, so the storm slot
// prints as its fabric label instead.
impl std::fmt::Debug for ChaosTargets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTargets")
            .field("connectivity", &self.connectivity)
            .field("pace", &self.pace)
            .field("storm", &self.storm.as_ref().map(|fab| fab.label()))
            .finish()
    }
}

/// One scripted fault.
#[derive(Clone, Debug)]
pub enum ChaosAction {
    /// The endpoint's connection flaps: starting at `start`, it cycles
    /// offline-for-a-`down`-draw / online-for-an-`up`-draw, `cycles`
    /// times.
    Flap {
        /// Endpoint index into [`ChaosTargets::connectivity`].
        endpoint: usize,
        /// When the first drop happens.
        start: SimTime,
        /// Online period between drops.
        up: Dist,
        /// Offline period per drop.
        down: Dist,
        /// Number of offline windows.
        cycles: u32,
    },
    /// The endpoint goes dark at `at` and never reconnects — the
    /// site-loss scenario.
    Kill {
        /// Endpoint index into [`ChaosTargets::connectivity`].
        endpoint: usize,
        /// When the site is lost.
        at: SimTime,
    },
    /// The pool's workers slow down: compute times multiply by `factor`
    /// for `duration`, then recover — the straggler scenario.
    Straggle {
        /// Pool index into [`ChaosTargets::pace`].
        pool: usize,
        /// When the slowdown begins.
        at: SimTime,
        /// How long it lasts.
        duration: Duration,
        /// Compute-time multiplier while degraded (> 1 is slower).
        factor: f64,
    },
    /// A flood of expendable background tasks — the overload scenario.
    /// Starting at `at`, the storm actor submits `tasks` junk tasks on
    /// the `"noop"` topic at [`TaskSpec::PRIORITY_LOW`], one per
    /// `interval` draw, through [`ChaosTargets::storm`]. Storm ids live
    /// in the [`STORM_ID_BASE`] space so they never collide with
    /// campaign ids. Skipped when no storm target is wired.
    TaskStorm {
        /// When the first storm task is submitted.
        at: SimTime,
        /// Number of tasks the storm submits.
        tasks: u32,
        /// Gap between consecutive submissions, seconds.
        interval: Dist,
        /// Declared inline payload size per task, bytes.
        bytes: u64,
        /// Worker compute seconds each storm task burns. Zero-work
        /// storms only stress the submission path; give storms real
        /// service time to contend for workers and queue slots.
        work: Dist,
    },
}

/// Name of the `SimRng` stream driving every random draw of a chaos
/// script — independent of the deployment's own streams, so installing
/// chaos never shifts workload randomness.
const STREAM: &str = "chaos";

/// A declarative, replayable chaos script: the list of scripted faults.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// The scripted faults, installed in order.
    pub actions: Vec<ChaosAction>,
}

impl ChaosSpec {
    /// A script of `actions`.
    pub fn new(actions: Vec<ChaosAction>) -> Self {
        ChaosSpec { actions }
    }

    /// Compiles the script: spawns one finite actor per action on
    /// `sim`, acting on `targets`. Randomness comes from
    /// `SimRng::stream(seed, "chaos")` with one substream per action
    /// index, so same `(seed, spec)` pairs replay exactly and
    /// per-action edits are isolated. Actions referencing an
    /// out-of-range endpoint or pool are skipped.
    pub fn install(&self, sim: &Sim, seed: u64, targets: &ChaosTargets) {
        let rng = SimRng::stream(seed, STREAM);
        for (i, action) in self.actions.iter().enumerate() {
            let action_rng = rng.substream(i as u64);
            install_action(sim, action.clone(), i as u64, action_rng, targets);
        }
    }
}

fn install_action(
    sim: &Sim,
    action: ChaosAction,
    index: u64,
    mut rng: SimRng,
    targets: &ChaosTargets,
) {
    match action {
        ChaosAction::Flap { endpoint, start, up, down, cycles } => {
            let Some(conn) = targets.connectivity.get(endpoint).cloned() else { return };
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep_until(start).await;
                for _ in 0..cycles {
                    let down_for = down.sample_secs(&mut rng);
                    let up_for = up.sample_secs(&mut rng);
                    conn.set_online(false);
                    s.sleep(down_for).await;
                    conn.set_online(true);
                    s.sleep(up_for).await;
                }
            });
        }
        ChaosAction::Kill { endpoint, at } => {
            let Some(conn) = targets.connectivity.get(endpoint).cloned() else { return };
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep_until(at).await;
                conn.set_online(false);
            });
        }
        ChaosAction::Straggle { pool, at, duration, factor } => {
            let Some(knob) = targets.pace.get(pool).cloned() else { return };
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep_until(at).await;
                knob.set(factor);
                s.sleep(duration).await;
                knob.set(1.0);
            });
        }
        ChaosAction::TaskStorm { at, tasks, interval, bytes, work } => {
            let Some(fabric) = targets.storm.clone() else { return };
            let s = sim.clone();
            let base = STORM_ID_BASE + (index << 32);
            sim.spawn(async move {
                s.sleep_until(at).await;
                for i in 0..u64::from(tasks) {
                    let burn = work.sample(&mut rng).max(0.0);
                    let task = storm_task(base + i, bytes, burn);
                    fabric.submit(task).await;
                    let gap = interval.sample_secs(&mut rng);
                    s.sleep(gap).await;
                }
            });
        }
    }
}

/// One storm task: inline junk payload, `burn` seconds of worker
/// compute, shed-first priority. Zero burn degenerates to
/// [`TaskSpec::noop`]'s shared-allocation path.
fn storm_task(id: u64, bytes: u64, burn: f64) -> TaskSpec {
    if burn == 0.0 {
        return TaskSpec::noop(id, bytes).with_priority(TaskSpec::PRIORITY_LOW);
    }
    let out_bytes = bytes;
    TaskSpec::new(
        id,
        "noop",
        crate::task::Arg::Inline { bytes, value: Rc::new(()) },
        Rc::new(move |_ctx| {
            crate::task::TaskWork::new((), out_bytes, hetflow_sim::time::secs(burn))
        }),
    )
    .with_priority(TaskSpec::PRIORITY_LOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(t: u64) -> SimTime {
        SimTime::from_secs(t)
    }

    #[test]
    fn kill_takes_endpoint_down_permanently() {
        let sim = Sim::new();
        let targets = ChaosTargets {
            connectivity: vec![Connectivity::always_on(), Connectivity::always_on()],
            ..Default::default()
        };
        let spec = ChaosSpec::new(vec![ChaosAction::Kill { endpoint: 1, at: secs(50) }]);
        spec.install(&sim, 42, &targets);
        let report = sim.run();
        assert_eq!(report.pending_tasks, 0, "chaos actors must terminate");
        assert!(targets.connectivity[0].is_online(), "endpoint 0 untouched");
        assert!(!targets.connectivity[1].is_online(), "endpoint 1 stays dark");
        assert_eq!(sim.now(), secs(50));
    }

    #[test]
    fn flap_cycles_and_ends_online() {
        let sim = Sim::new();
        let targets = ChaosTargets {
            connectivity: vec![Connectivity::always_on()],
            ..Default::default()
        };
        let spec = ChaosSpec::new(vec![ChaosAction::Flap {
            endpoint: 0,
            start: secs(10),
            up: Dist::Constant(20.0),
            down: Dist::Constant(5.0),
            cycles: 3,
        }]);
        spec.install(&sim, 1, &targets);
        let report = sim.run();
        assert_eq!(report.pending_tasks, 0);
        assert_eq!(targets.connectivity[0].outages_seen(), 3);
        assert!(targets.connectivity[0].is_online(), "flap ends online");
        // 10 + 3 × (5 down + 20 up) = 85 s.
        assert_eq!(sim.now(), secs(85));
    }

    #[test]
    fn knob_actions_degrade_then_recover() {
        let sim = Sim::new();
        let targets = ChaosTargets { pace: vec![Knob::new(1.0)], ..Default::default() };
        let spec = ChaosSpec::new(vec![ChaosAction::Straggle {
            pool: 0,
            at: secs(10),
            duration: Duration::from_secs(20),
            factor: 4.0,
        }]);
        spec.install(&sim, 9, &targets);
        let observed = {
            let s = sim.clone();
            let t = targets.clone();
            sim.spawn(async move {
                s.sleep_until(secs(15)).await;
                t.pace[0].get()
            })
        };
        assert_eq!(sim.block_on(observed), 4.0, "mid-window value");
        sim.run();
        assert_eq!(targets.pace[0].get(), 1.0, "pace recovers to neutral");
    }

    #[test]
    fn out_of_range_targets_are_skipped() {
        let sim = Sim::new();
        let targets = ChaosTargets::default(); // nothing to act on
        let spec = ChaosSpec::new(vec![
            ChaosAction::Kill { endpoint: 3, at: secs(1) },
            ChaosAction::Straggle {
                pool: 9,
                at: secs(1),
                duration: Duration::from_secs(1),
                factor: 2.0,
            },
            ChaosAction::TaskStorm {
                at: secs(1),
                tasks: 100,
                interval: Dist::Constant(0.1),
                bytes: 64,
                work: Dist::Constant(0.5),
            },
        ]);
        spec.install(&sim, 0, &targets);
        let report = sim.run();
        assert_eq!(report.pending_tasks, 0);
        assert_eq!(sim.now(), SimTime::ZERO, "no actors, no time passes");
    }

    #[test]
    fn same_seed_same_schedule_and_substreams_isolate_actions() {
        let run = |seed: u64, extra_action: bool| {
            let sim = Sim::new();
            let targets = ChaosTargets {
                connectivity: vec![Connectivity::always_on(), Connectivity::always_on()],
                ..Default::default()
            };
            let mut actions = vec![ChaosAction::Flap {
                endpoint: 0,
                start: secs(5),
                up: Dist::Uniform { lo: 10.0, hi: 30.0 },
                down: Dist::Uniform { lo: 1.0, hi: 9.0 },
                cycles: 5,
            }];
            if extra_action {
                actions.push(ChaosAction::Kill { endpoint: 1, at: secs(2) });
            }
            let spec = ChaosSpec::new(actions);
            spec.install(&sim, seed, &targets);
            sim.run();
            sim.now()
        };
        assert_eq!(run(11, false), run(11, false), "same seed replays exactly");
        assert_ne!(run(11, false), run(12, false), "seeds diverge");
        assert_eq!(
            run(11, false),
            run(11, true),
            "appending an action must not shift an earlier action's draws"
        );
    }
}
