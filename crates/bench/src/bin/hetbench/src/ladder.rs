//! The layer ladder: fixed-work loops over one layer at a time, timed
//! from outside, from the bare kernel up to a proxied pipeline. A
//! rung's cost minus the rung below it is what its layer adds; the
//! deltas are reported next to the rungs. This is the only place
//! hetbench calls individual layer constructors.
//!
//! Every rung does the same work on every run (fixed op counts, fixed
//! seeds), so `allocs_per_op` and `polls_per_op` repeat exactly; only
//! `host_ns_per_op` depends on the host, and it is that of the rung's
//! fastest repetition (host noise only ever slows one down).

use crate::alloc::AllocCount;
use crate::workloads::{closed_loop, Lane, Tally};
use hetflow_apps::{ensemble_force_rmsd, initial_ensemble, test_set, FinetuneParams};
use hetflow_bench::{FabricKind, NoopPipeline, StoreKind};
use hetflow_chem::{
    pretraining_set, run_md, solvated_methane, EnergyModel, MdParams, MoleculeLibrary, MorsePes,
};
use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::{deploy, Calibration, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    AdmissionConfig, BreakerConfig, EndpointSpec, Fabric, FnXExecutor, HedgeConfig, HtexEndpoint,
    HtexExecutor, ReliabilityPolicies, ReliabilityPolicy, TaskResult, TaskSpec, TaskWork,
    WorkerPoolConfig,
};
use hetflow_ml::{
    LabelledStructure, PairPotParams, PairPotential, RadialBasis, RffRidge, SurrogateParams,
};
use hetflow_sim::{bounded, channel, time::micros, Semaphore, Sim, SimRng, Symbol, Tracer};
use hetflow_store::{Backend, EvictionPolicy, GlobusBackend, GlobusService, SiteId, Store};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Repetitions of a rung when the time budget allows.
const MAX_REPS: usize = 5;
/// Tasks in flight on the fabric and pipeline rungs.
const WINDOW: u64 = 32;
/// Workers on the fabric and pipeline rungs' one endpoint.
const WORKERS: usize = 8;

/// Tasks per execution of the armed fabric rungs. With hedging armed
/// the fabric's cost per task grows with the number of tasks already
/// seen (40 k tasks cost ~390 µs each where 5 k cost a few tens), so
/// the count is part of what the rung measures and must stay fixed.
const ARMED_OPS: u64 = 5_000;

/// What one execution of a rung did.
struct Work {
    ops: u64,
    polls: u64,
}

/// One rung: a name and a loop doing a fixed amount of one layer's
/// work.
struct Rung {
    name: &'static str,
    ops: u64,
    run: fn(u64) -> Work,
}

const RUNGS: [Rung; 17] = [
    Rung {
        name: "sim.timer",
        ops: 400_000,
        run: sim_timer,
    },
    Rung {
        name: "sim.channel",
        ops: 300_000,
        run: sim_channel,
    },
    Rung {
        name: "sim.channel_bounded",
        ops: 300_000,
        run: sim_channel_bounded,
    },
    Rung {
        name: "sim.spawn",
        ops: 300_000,
        run: sim_spawn,
    },
    Rung {
        name: "sim.spawn_detached",
        ops: 400_000,
        run: sim_spawn_detached,
    },
    Rung {
        name: "sim.semaphore",
        ops: 300_000,
        run: sim_semaphore,
    },
    Rung {
        name: "sim.trace_emit",
        ops: 2_000_000,
        run: sim_trace_emit,
    },
    Rung {
        name: "store.redis",
        ops: 100_000,
        run: |n| store_round_trips(n, StoreKind::Redis),
    },
    Rung {
        name: "store.fs",
        ops: 100_000,
        run: |n| store_round_trips(n, StoreKind::Fs),
    },
    Rung {
        name: "store.globus",
        ops: 30_000,
        run: |n| store_round_trips(n, StoreKind::Globus),
    },
    Rung {
        name: "fabric.faas_bare",
        ops: 40_000,
        run: |n| fabric_loop(n, FabricKind::FnX, false),
    },
    Rung {
        name: "fabric.faas_armed",
        ops: ARMED_OPS,
        run: |n| fabric_loop(n, FabricKind::FnX, true),
    },
    Rung {
        name: "fabric.htex_bare",
        ops: 40_000,
        run: |n| fabric_loop(n, FabricKind::Htex, false),
    },
    Rung {
        name: "fabric.htex_armed",
        ops: ARMED_OPS,
        run: |n| fabric_loop(n, FabricKind::Htex, true),
    },
    Rung {
        name: "steer.fnx_pipeline",
        ops: 20_000,
        run: |n| pipeline(n, FabricKind::FnX, StoreKind::None),
    },
    Rung {
        name: "steer.htex_pipeline",
        ops: 20_000,
        run: |n| pipeline(n, FabricKind::Htex, StoreKind::None),
    },
    Rung {
        name: "steer.fnx_globus_proxied",
        ops: 10_000,
        run: |n| pipeline(n, FabricKind::FnX, StoreKind::Globus),
    },
];

/// `(upper rung, lower rung, delta name)`: what the upper rung's layer
/// adds per op.
const DELTAS: [(&str, &str, &str); 5] = [
    (
        "fabric.faas_armed",
        "fabric.faas_bare",
        "fabric.faas_armed_delta_ns",
    ),
    (
        "fabric.htex_armed",
        "fabric.htex_bare",
        "fabric.htex_armed_delta_ns",
    ),
    (
        "steer.fnx_pipeline",
        "fabric.faas_bare",
        "steer.fnx_delta_ns",
    ),
    (
        "steer.htex_pipeline",
        "fabric.htex_bare",
        "steer.htex_delta_ns",
    ),
    (
        "steer.fnx_globus_proxied",
        "steer.fnx_pipeline",
        "store.pipeline_delta_ns",
    ),
];

/// Runs every rung and direct call within roughly `budget_secs` of
/// host time (each gets an equal share and at least one repetition)
/// and returns `(metric, value)` pairs. `divisor` shrinks every rung's
/// op count; the benchmark passes 1, tests pass more.
pub fn run(budget_secs: f64, divisor: u64) -> Vec<(String, f64)> {
    let share = Duration::from_secs_f64(budget_secs.max(0.0) / (RUNGS.len() + DIRECT.len()) as f64);
    let mut out: Vec<(String, f64)> = Vec::new();
    for r in &RUNGS {
        let started = Instant::now();
        let mut ns_per_op = Vec::new();
        let (mut allocs_per_op, mut polls_per_op) = (0.0, 0.0);
        for rep in 0..MAX_REPS {
            let alloc = AllocCount::now();
            let t0 = Instant::now();
            let work = (r.run)((r.ops / divisor.max(1)).max(64));
            let ns = t0.elapsed().as_nanos() as f64;
            let ops = work.ops.max(1) as f64;
            ns_per_op.push(ns / ops);
            if rep == 0 {
                allocs_per_op = alloc.elapsed().allocs as f64 / ops;
                polls_per_op = work.polls as f64 / ops;
            }
            if started.elapsed() >= share {
                break;
            }
        }
        out.push((format!("{}.host_ns_per_op", r.name), fastest(&ns_per_op)));
        out.push((format!("{}.allocs_per_op", r.name), allocs_per_op));
        if r.name != "sim.trace_emit" {
            out.push((format!("{}.polls_per_op", r.name), polls_per_op));
        }
    }
    for (upper, lower, name) in DELTAS {
        let ns = |rung: &str| {
            let key = format!("{rung}.host_ns_per_op");
            out.iter().find(|(n, _)| *n == key).map_or(0.0, |(_, v)| *v)
        };
        out.push((name.to_owned(), ns(upper) - ns(lower)));
    }
    for d in &DIRECT {
        let started = Instant::now();
        let mut call = (d.prepare)();
        let mut samples = Vec::new();
        for _ in 0..MAX_REPS {
            let t0 = Instant::now();
            call();
            samples.push(t0.elapsed().as_secs_f64() * d.scale);
            if started.elapsed() >= share {
                break;
            }
        }
        out.push((d.name.to_owned(), fastest(&samples)));
    }
    out
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

// --- sim rungs ---------------------------------------------------------------

/// Timer wheel: 200 sleepers with staggered co-prime-ish delays. One
/// op = one timer fire.
fn sim_timer(ops: u64) -> Work {
    const SLEEPERS: u64 = 200;
    let sim = Sim::new();
    for s in 0..SLEEPERS {
        let sim2 = sim.clone();
        sim.spawn_detached(async move {
            for r in 0..ops / SLEEPERS {
                sim2.sleep(Duration::from_micros(1 + (s * 31 + r * 7) % 97))
                    .await;
            }
        });
    }
    let report = sim.run();
    Work {
        ops: report.timer_fires,
        polls: report.polls,
    }
}

/// Unbounded channel: the consumer parks between messages, so every
/// delivery takes the register/wake/release path. One op = one
/// message.
fn sim_channel(ops: u64) -> Work {
    let sim = Sim::new();
    let (tx, rx) = channel::<u64>();
    let sim2 = sim.clone();
    sim.spawn_detached(async move {
        for i in 0..ops {
            sim2.sleep(micros(1.0)).await;
            if tx.send_now(i).is_err() {
                return;
            }
        }
    });
    let got = Rc::new(Cell::new(0u64));
    let got2 = Rc::clone(&got);
    sim.spawn_detached(async move {
        while rx.recv().await.is_some() {
            got2.set(got2.get() + 1);
        }
    });
    let report = sim.run();
    Work {
        ops: got.get(),
        polls: report.polls,
    }
}

/// Bounded channel under backpressure: a fast producer parks on a full
/// 16-slot queue behind a consumer that takes 1 µs per message.
fn sim_channel_bounded(ops: u64) -> Work {
    let sim = Sim::new();
    let (tx, rx) = bounded::<u64>(16);
    sim.spawn_detached(async move {
        for i in 0..ops {
            if tx.send(i).await.is_err() {
                return;
            }
        }
    });
    let got = Rc::new(Cell::new(0u64));
    let (got2, sim2) = (Rc::clone(&got), sim.clone());
    sim.spawn_detached(async move {
        while rx.recv().await.is_some() {
            got2.set(got2.get() + 1);
            sim2.sleep(micros(1.0)).await;
        }
    });
    let report = sim.run();
    Work {
        ops: got.get(),
        polls: report.polls,
    }
}

/// `Sim::spawn` + join: one op = one child spawned and awaited.
fn sim_spawn(ops: u64) -> Work {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let parent = sim.spawn(async move {
        let mut sum = 0u64;
        for i in 0..ops {
            sum += sim2.spawn(async move { i & 1 }).await;
        }
        sum
    });
    std::hint::black_box(sim.block_on(parent));
    Work {
        ops,
        polls: sim.run().polls,
    }
}

/// `Sim::spawn_detached`: fire-and-forget children, spawned in batches
/// of 64 so the ready ring never overflows.
fn sim_spawn_detached(ops: u64) -> Work {
    let sim = Sim::new();
    let ran = Rc::new(Cell::new(0u64));
    let (sim2, ran2) = (sim.clone(), Rc::clone(&ran));
    sim.spawn_detached(async move {
        for i in 0..ops {
            let ran3 = Rc::clone(&ran2);
            sim2.spawn_detached(async move { ran3.set(ran3.get() + 1) });
            if i % 64 == 63 {
                sim2.yield_now().await;
            }
        }
    });
    let report = sim.run();
    Work {
        ops: ran.get(),
        polls: report.polls,
    }
}

/// Semaphore handoff: 16 actors contend for 4 permits, holding each
/// for 1 µs. One op = one acquire/release.
fn sim_semaphore(ops: u64) -> Work {
    const ACTORS: u64 = 16;
    let sim = Sim::new();
    let sem = Semaphore::new(4);
    for _ in 0..ACTORS {
        let (sim2, sem2) = (sim.clone(), sem.clone());
        sim.spawn_detached(async move {
            for _ in 0..ops / ACTORS {
                let permit = sem2.acquire().await;
                sim2.sleep(micros(1.0)).await;
                drop(permit);
            }
        });
    }
    let report = sim.run();
    Work {
        ops: ops / ACTORS * ACTORS,
        polls: report.polls,
    }
}

/// `Tracer::emit` in digest-only mode: the per-event cost tracing adds.
fn sim_trace_emit(ops: u64) -> Work {
    let tracer = Tracer::digest_only();
    let actor = Symbol::intern("hetbench");
    for i in 0..ops {
        tracer.emit(
            hetflow_sim::SimTime::from_nanos(i),
            actor,
            hetflow_sim::trace_kinds::TASK_CREATED,
            i,
            0.0,
        );
    }
    std::hint::black_box(tracer.digest());
    Work { ops, polls: 0 }
}

// --- store rungs -------------------------------------------------------------

/// One store of `kind` on `sim`, wired as `core::deploy` wires it.
fn store_of(sim: &Sim, kind: StoreKind, cal: &Calibration) -> Option<Store> {
    let backend = match kind {
        StoreKind::None => return None,
        StoreKind::Redis => Backend::Redis(cal.redis.clone()),
        StoreKind::Fs => Backend::Fs(cal.fs_theta.clone()),
        StoreKind::Globus => Backend::Globus(Box::new(GlobusBackend {
            service: GlobusService::new(sim.clone(), cal.globus.clone(), SimRng::from_seed(11)),
            src_fs: cal.fs_theta.clone(),
            dst_fs: cal.fs_venti.clone(),
            push_to: vec![THETA, VENTI],
        })),
    };
    Some(Store::new(
        sim.clone(),
        kind.label(),
        backend,
        SimRng::from_seed(12),
    ))
}

/// 1 MB put at Theta + get at the consumer site (Venti for the
/// cross-site Globus store, Theta otherwise), evicted after the one
/// resolve so slots recycle. One op = one round trip.
fn store_round_trips(ops: u64, kind: StoreKind) -> Work {
    let sim = Sim::new();
    let Some(store) = store_of(&sim, kind, &Calibration::default()) else {
        return Work { ops: 0, polls: 0 };
    };
    store.set_eviction(EvictionPolicy::AfterResolves(1));
    let consumer: SiteId = if kind == StoreKind::Globus {
        VENTI
    } else {
        THETA
    };
    let done = Rc::new(Cell::new(0u64));
    let done2 = Rc::clone(&done);
    sim.spawn_detached(async move {
        let value: Rc<dyn Any> = Rc::new(());
        for _ in 0..ops {
            let Ok(key) = store.put_raw(Rc::clone(&value), 1_000_000, THETA).await else {
                return;
            };
            if store.get_raw(key, consumer).await.is_err() {
                return;
            }
            done2.set(done2.get() + 1);
        }
    });
    let report = sim.run();
    Work {
        ops: done.get(),
        polls: report.polls,
    }
}

// --- fabric rungs ------------------------------------------------------------

/// The one Theta pool the fabric and pipeline rungs share — the
/// `NoopPipeline` pool with `WORKERS` workers.
fn pool(cal: &Calibration) -> WorkerPoolConfig {
    WorkerPoolConfig {
        ser: cal.ser.clone(),
        local_hop: cal.worker_hop.clone(),
        ..WorkerPoolConfig::bare(THETA, "theta", WORKERS)
    }
}

/// Every reliability arm configured, none ever tripping: thresholds
/// and deadlines far beyond anything a healthy no-op run reaches.
fn armed() -> ReliabilityPolicies {
    let policy = ReliabilityPolicy {
        breaker: BreakerConfig {
            failure_threshold: 5,
            offline_grace: Duration::from_secs(3600),
            ..Default::default()
        },
        hedge: HedgeConfig {
            quantile: 0.99,
            factor: 1_000.0,
            ..Default::default()
        },
        max_reroutes: 1,
        deadline: Duration::from_secs(3600),
        admission: AdmissionConfig {
            rate: 1e9,
            burst: 1e9,
            max_in_flight: 1 << 20,
        },
        ..Default::default()
    };
    ReliabilityPolicies {
        default: policy,
        ..Default::default()
    }
}

/// `WINDOW` no-op tasks in flight straight through `Fabric::submit`,
/// no steering layer. One op = one task result.
fn fabric_loop(ops: u64, kind: FabricKind, arm: bool) -> Work {
    let cal = Calibration::default();
    let sim = Sim::new();
    let (results_tx, results_rx) = channel::<TaskResult>();
    let policies = if arm {
        armed()
    } else {
        ReliabilityPolicies::default()
    };
    let (rng, tracer) = (SimRng::from_seed(13), Tracer::disabled());
    let fabric: Rc<dyn Fabric> = match kind {
        FabricKind::FnX => Rc::new(FnXExecutor::with_reliability(
            &sim,
            cal.fnx.clone(),
            vec![EndpointSpec::reliable(pool(&cal), vec!["noop"])],
            results_tx,
            rng,
            tracer,
            policies,
        )),
        FabricKind::Htex => Rc::new(HtexExecutor::with_reliability(
            &sim,
            cal.htex.clone(),
            vec![HtexEndpoint {
                pool: pool(&cal),
                topics: vec!["noop"],
                link: cal.link_theta.clone(),
            }],
            results_tx,
            rng,
            tracer,
            policies,
        )),
    };
    let done = Rc::new(Cell::new(0u64));
    let done2 = Rc::clone(&done);
    sim.spawn_detached(async move {
        let (mut sent, mut got) = (0u64, 0u64);
        while got < ops {
            while sent < ops && sent - got < WINDOW {
                fabric.submit(TaskSpec::noop(sent, 1_000)).await;
                sent += 1;
            }
            if results_rx.recv().await.is_none() {
                return;
            }
            got += 1;
            done2.set(got);
        }
    });
    let report = sim.run();
    Work {
        ops: done.get(),
        polls: report.polls,
    }
}

// --- steer rungs -------------------------------------------------------------

/// The full thinker → task server → fabric → worker → thinker path of
/// the Fig. 3/4 wiring, `WINDOW` tasks in flight. One op = one
/// resolved task.
fn pipeline(ops: u64, fabric: FabricKind, store: StoreKind) -> Work {
    let base = if store == StoreKind::Globus {
        NoopPipeline::fig4(store)
    } else {
        NoopPipeline::fig3(store)
    };
    let sim = Sim::new();
    let queues = NoopPipeline {
        fabric,
        workers: WORKERS,
        ..base
    }
    .build(&sim);
    let tally = Rc::new(RefCell::new(Tally::default()));
    let lane = Lane {
        topic: Symbol::intern("noop"),
        tasks: ops,
        window: WINDOW,
        in_bytes: if store == StoreKind::None {
            1_000
        } else {
            1_000_000
        },
        value: Rc::new(()),
        compute: Rc::new(|_ctx| TaskWork::noop()),
    };
    sim.spawn_detached(closed_loop(queues, lane, Rc::clone(&tally), None));
    let report = sim.run();
    let done = tally.borrow().total();
    Work {
        ops: done,
        polls: report.polls,
    }
}

// --- direct calls at campaign sizes --------------------------------------------

/// A mid-campaign Fig. 6 retrain: the 10 k library and ~250 simulated
/// molecules of it as `(library, inputs, targets)`.
fn rff_training_set() -> (MoleculeLibrary, Vec<Vec<f64>>, Vec<f64>) {
    let lib = MoleculeLibrary::generate(10_000, 7);
    let inputs = (0..256).map(|i| lib.features(i * 39).to_vec()).collect();
    let targets = (0..256).map(|i| lib.true_ip(i * 39)).collect();
    (lib, inputs, targets)
}

fn rff_fit(inputs: &[Vec<f64>], targets: &[f64]) -> Result<RffRidge, hetflow_ml::LinalgError> {
    RffRidge::fit(
        inputs,
        targets,
        SurrogateParams::default(),
        &mut SimRng::from_seed(15),
    )
}

/// A library call the campaigns make, at the size they make it.
struct Direct {
    name: &'static str,
    /// Seconds → the unit in `name`.
    scale: f64,
    /// Builds the inputs (untimed) and returns the call to time.
    prepare: fn() -> Box<dyn FnMut()>,
}

const DIRECT: [Direct; 8] = [
    Direct {
        name: "core.deploy_host_us",
        scale: 1e6,
        prepare: || {
            Box::new(|| {
                let sim = Sim::new();
                let d = deploy(
                    &sim,
                    WorkflowConfig::FnXGlobus,
                    &DeploymentSpec::default(),
                    Tracer::disabled(),
                );
                std::hint::black_box(d.cpu_pool.workers());
            })
        },
    },
    Direct {
        name: "chem.library_generate_host_ms",
        scale: 1e3,
        prepare: || {
            Box::new(|| {
                std::hint::black_box(MoleculeLibrary::generate(10_000, 7).len());
            })
        },
    },
    Direct {
        name: "chem.md_sample_host_ms",
        scale: 1e3,
        prepare: || {
            // The last sampling tasks of Fig. 7: 1000 MD steps on the
            // surrogate.
            let params = FinetuneParams {
                ensemble_size: 1,
                ..Default::default()
            };
            let ensemble = initial_ensemble(&params);
            let start = solvated_methane(3);
            Box::new(move || {
                let Some(model) = ensemble.members().first() else {
                    return;
                };
                let md = MdParams {
                    dt: 0.005,
                    steps: params.md_steps_end,
                    init_temp: 0.05,
                    sample_every: 250,
                };
                std::hint::black_box(
                    run_md(model, &start, md, &mut SimRng::from_seed(14))
                        .frames
                        .len(),
                );
            })
        },
    },
    Direct {
        name: "chem.pes_eval_host_us",
        scale: 1e6,
        prepare: || {
            let (reference, s) = (MorsePes::reference(), solvated_methane(3));
            Box::new(move || {
                std::hint::black_box(reference.energy_forces(&s).0);
            })
        },
    },
    Direct {
        name: "ml.rff_fit_host_ms",
        scale: 1e3,
        prepare: || {
            let (_, inputs, targets) = rff_training_set();
            Box::new(move || {
                std::hint::black_box(rff_fit(&inputs, &targets).is_ok());
            })
        },
    },
    Direct {
        name: "ml.rff_predict_10k_host_ms",
        scale: 1e3,
        prepare: || {
            let (lib, inputs, targets) = rff_training_set();
            let fit = rff_fit(&inputs, &targets);
            Box::new(move || {
                let Ok(model) = &fit else { return };
                let sum: f64 = (0..lib.len())
                    .map(|i| model.predict(&lib.features(i)))
                    .sum();
                std::hint::black_box(sum);
            })
        },
    },
    Direct {
        name: "ml.pairpot_fit_host_ms",
        scale: 1e3,
        prepare: || {
            let approx = MorsePes::approx();
            let n = FinetuneParams::default().pretrain_structures;
            let data: Vec<LabelledStructure> = pretraining_set(n, 11)
                .iter()
                .map(|s| LabelledStructure::from_model(s, &approx, false))
                .chain(
                    pretraining_set(6, 12)
                        .iter()
                        .map(|s| LabelledStructure::from_model(s, &approx, true)),
                )
                .collect();
            Box::new(move || {
                let params = PairPotParams {
                    force_weight: 8.0,
                    ..Default::default()
                };
                let fit = PairPotential::fit(&data, RadialBasis::default_for_clusters(), params);
                std::hint::black_box(fit.is_ok());
            })
        },
    },
    Direct {
        name: "ml.ensemble_rmsd_host_ms",
        scale: 1e3,
        prepare: || {
            let ensemble = initial_ensemble(&FinetuneParams::default());
            let test = test_set(11);
            Box::new(move || {
                std::hint::black_box(ensemble_force_rmsd(&ensemble, &test));
            })
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_completes_its_ops_and_repeats_its_polls() {
        for r in &RUNGS {
            let ops = (r.ops / 200).max(64);
            let a = (r.run)(ops);
            let b = (r.run)(ops);
            assert!(a.ops > 0 && a.ops <= ops.max(a.ops), "{}", r.name);
            assert!(
                a.ops * 10 >= ops * 9,
                "{}: did {} of {ops} ops",
                r.name,
                a.ops
            );
            assert_eq!(
                (a.ops, a.polls),
                (b.ops, b.polls),
                "{}: fixed work must repeat",
                r.name
            );
        }
    }

    #[test]
    fn armed_policies_never_trip_on_a_healthy_run() {
        let bare = fabric_loop(2_000, FabricKind::FnX, false);
        let arm = fabric_loop(2_000, FabricKind::FnX, true);
        assert_eq!((bare.ops, arm.ops), (2_000, 2_000));
        assert!(
            arm.polls > bare.polls,
            "the watchdogs must be there to be measured"
        );
    }
}
