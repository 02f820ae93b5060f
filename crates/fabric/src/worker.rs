//! Worker pools: the processes that actually execute tasks on a
//! resource's compute nodes.
//!
//! Both fabrics share this execution core. A worker loops on a task
//! queue; for each task it deserializes the envelope, resolves proxied
//! inputs (paying store/transfer costs at its own site), runs the
//! compute closure for its declared virtual duration, applies the result
//! proxy policy, and ships the result back.
//!
//! Per-worker idle gaps between consecutive tasks are recorded — this is
//! the "CPU idle time between simulation tasks" metric of Fig. 6b.

use crate::reliability::{FailureModel, Knob, RetryPolicies};
use crate::ser::SerModel;
use crate::task::{Arg, TaskCtx, TaskError, TaskOutcome, TaskResult, TaskSpec, WorkerReport};
use hetflow_store::{ProxyPolicy, SiteId};
use hetflow_sim::{
    channel, trace_kinds as kinds, Dist, Gauge, Receiver, Samples, Sender, Sim, SimRng, Symbol,
    Tracer,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Configuration of one worker pool.
#[derive(Clone)]
pub struct WorkerPoolConfig {
    /// Site the workers run on.
    pub site: SiteId,
    /// Pool label, e.g. `"theta"` or `"venti"`.
    pub label: String,
    /// Number of workers.
    pub workers: usize,
    /// Result proxying rules (usually mirrors the submit-side policy).
    pub result_policy: ProxyPolicy,
    /// Worker-side (de)serialization model.
    pub ser: SerModel,
    /// Manager→worker hop latency within the node.
    pub local_hop: Dist,
    /// Optional failure injection (`None` = reliable workers).
    pub failure: Option<FailureModel>,
    /// Per-topic retry/backoff policies (attempt caps override the
    /// failure model's; backoff delays re-execution).
    pub retry: RetryPolicies,
    /// Bound on the pool's pending-task queue, enforced by the fabrics
    /// at delivery time via [`hetflow_sim::Sender::offer`]. `0` keeps
    /// the queue unbounded (the zero-value defer).
    pub queue_capacity: usize,
    /// What happens to a delivery that finds the queue full: refuse the
    /// arrival, evict the oldest queued task, or evict the
    /// lowest-priority one. Irrelevant while `queue_capacity == 0`.
    pub overflow: hetflow_sim::OverflowPolicy,
}

impl WorkerPoolConfig {
    /// A pool with free serialization and no proxying — for kernel tests.
    pub fn bare(site: SiteId, label: impl Into<String>, workers: usize) -> Self {
        WorkerPoolConfig {
            site,
            label: label.into(),
            workers,
            result_policy: ProxyPolicy::disabled(),
            ser: SerModel::free(),
            local_hop: Dist::Constant(0.0),
            failure: None,
            retry: RetryPolicies::default(),
            queue_capacity: 0,
            overflow: hetflow_sim::OverflowPolicy::default(),
        }
    }
}

struct PoolShared {
    /// Compute-pace multiplier, shared with the chaos engine: a task's
    /// compute time is scaled by the knob's value at task start (1.0 =
    /// nominal; > 1 models straggling workers). Each pool has its own.
    pace: Knob,
    idle: RefCell<Samples>,
    busy: RefCell<Gauge>,
    completed: std::cell::Cell<u64>,
    failed: std::cell::Cell<u64>,
}

/// Handle to a running worker pool.
#[derive(Clone)]
pub struct WorkerPool {
    /// Where to enqueue tasks for this pool.
    pub tasks: Sender<TaskSpec>,
    shared: Rc<PoolShared>,
    site: SiteId,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `config.workers` worker actors consuming from a fresh
    /// queue; completed tasks go to `results`.
    pub(crate) fn spawn(
        sim: &Sim,
        config: WorkerPoolConfig,
        results: Sender<TaskResult>,
        rng: &SimRng,
        tracer: Tracer,
    ) -> WorkerPool {
        let (tx, rx) = channel::<TaskSpec>();
        let shared = Rc::new(PoolShared {
            pace: Knob::new(1.0),
            idle: RefCell::new(Samples::new()),
            busy: RefCell::new(Gauge::new()),
            completed: std::cell::Cell::new(0),
            failed: std::cell::Cell::new(0),
        });
        for i in 0..config.workers {
            let worker_rng = rng.substream(i as u64);
            spawn_worker(
                sim,
                config.clone(),
                i,
                rx.clone(),
                results.clone(),
                worker_rng,
                Rc::clone(&shared),
                tracer.clone(),
            );
        }
        WorkerPool { tasks: tx, shared, site: config.site, workers: config.workers }
    }

    /// Site the pool runs on.
    pub(crate) fn site(&self) -> SiteId {
        self.site
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks completed so far.
    #[cfg(test)]
    pub fn completed(&self) -> u64 {
        self.shared.completed.get()
    }

    /// Tasks that ended in a terminal failure (still delivered as
    /// results, not counted in `completed`).
    #[cfg(test)]
    pub fn failed(&self) -> u64 {
        self.shared.failed.get()
    }

    /// Idle-gap samples (seconds between finishing one task and starting
    /// the next, per worker; excludes the initial wait for the first
    /// task).
    pub fn idle_gaps(&self) -> Samples {
        self.shared.idle.borrow().clone()
    }

    /// Gauge of concurrently busy workers over time.
    pub fn busy_gauge(&self) -> Gauge {
        self.shared.busy.borrow().clone()
    }

    /// The pool's compute-pace dial (chaos-engine target).
    pub(crate) fn pace_knob(&self) -> Knob {
        self.shared.pace.clone()
    }
}

#[allow(clippy::too_many_arguments, reason = "one worker's wiring, passed once at spawn")]
fn spawn_worker(
    sim: &Sim,
    config: WorkerPoolConfig,
    index: usize,
    rx: Receiver<TaskSpec>,
    results: Sender<TaskResult>,
    mut rng: SimRng,
    shared: Rc<PoolShared>,
    tracer: Tracer,
) {
    let sim = sim.clone();
    // Pre-interned once per worker: every emit and result below reuses
    // the copyable handle instead of cloning a String per event.
    let name = Symbol::intern(&format!("{}/{}", config.label, index));
    sim.clone().spawn(async move {
        let mut last_finish: Option<hetflow_sim::SimTime> = None;
        // Resolved-input buffer, reused across tasks: the compute
        // closure borrows it through `TaskCtx`, so steady state runs
        // allocation-free once it has grown to the widest arg list.
        let mut inputs: Vec<Rc<dyn std::any::Any>> = Vec::new();
        while let Some(mut task) = rx.recv().await {
            // Manager → worker hop.
            let hop = config.local_hop.sample_secs(&mut rng);
            sim.sleep(hop).await;

            let started = sim.now();
            if let Some(prev) = last_finish {
                shared.idle.borrow_mut().record((started - prev).as_secs_f64());
            }
            shared.busy.borrow_mut().inc(started);
            task.timing.worker_started = Some(started);
            tracer.emit(started, name, kinds::TASK_STARTED, task.id, config.site.index() as f64);

            let mut report = WorkerReport::default();
            // Upstream (thinker + server) serialization, including
            // proxying, accumulated as the task travelled.
            report.ser_time += task.ser_time;

            // Deserialize the envelope.
            let de = config.ser.cost(&mut rng, task.wire_bytes());
            report.ser_time += de;
            sim.sleep(de).await;

            // A task poisoned upstream (e.g. a submit-side proxy put
            // failed) short-circuits: no resolve, no compute.
            let mut failed: Option<TaskError> = task.failed.take();

            // Resolve inputs. A resolve error fails the task instead of
            // tearing down the simulation.
            inputs.clear();
            if failed.is_none() {
                for arg in &task.args {
                    match arg {
                        Arg::Inline { value, .. } => inputs.push(Rc::clone(value)),
                        Arg::Proxied(p) => match p.resolve(config.site).await {
                            Ok(resolved) => {
                                report.resolve_wait += resolved.wait;
                                if resolved.was_local {
                                    report.local_inputs += 1;
                                } else {
                                    report.remote_inputs += 1;
                                }
                                inputs.push(resolved.value);
                            }
                            Err(e) => {
                                failed = Some(TaskError::ResolveFailed(e.to_string()));
                                break;
                            }
                        },
                    }
                }
            }
            task.timing.inputs_resolved = Some(sim.now());

            let mut attempts = 1u32;
            let mut output = Arg::empty();
            if failed.is_none() {
                // Compute.
                let work = {
                    let mut ctx = TaskCtx { inputs: &inputs, rng: &mut rng, site: config.site };
                    (task.compute)(&mut ctx)
                };
                // Failure injection: failed attempts waste part of the
                // compute time plus a restart delay, then re-execute
                // after the policy's backoff — until the attempt cap is
                // exhausted, which fails the task gracefully.
                let policy = config.retry.policy_for(task.topic);
                if let Some(fm) = &config.failure {
                    let cap = fm.max_attempts.max(1);
                    while fm.attempt_fails(&mut rng) {
                        let wasted = fm.wasted(work.compute_time, &mut rng);
                        report.wasted_time += wasted;
                        sim.sleep(wasted).await;
                        if attempts >= cap {
                            failed = Some(TaskError::ExhaustedRetries { attempts });
                            break;
                        }
                        let backoff = policy.backoff.sample_secs(&mut rng);
                        if backoff > Duration::ZERO {
                            report.wasted_time += backoff;
                            sim.sleep(backoff).await;
                        }
                        attempts += 1;
                        tracer.emit(sim.now(), name, kinds::TASK_RETRY, task.id, attempts as f64);
                    }
                }
                if failed.is_none() {
                    // Chaos pace knob: straggling workers run slow.
                    let compute = shared.pace.scale(work.compute_time);
                    report.compute_time = compute;
                    sim.sleep(compute).await;
                    task.timing.compute_finished = Some(sim.now());

                    // Result: proxy if the policy says so, else inline.
                    // A put error fails the task, not the process.
                    output = match config.result_policy.decide(task.topic, work.output_size) {
                        Some(store) => {
                            match store.put_raw(work.output, work.output_size, config.site).await {
                                Ok(key) => Arg::Proxied(hetflow_store::UntypedProxy::new(
                                    store.clone(),
                                    key,
                                    work.output_size,
                                )),
                                Err(e) => {
                                    failed = Some(TaskError::PutFailed(e.to_string()));
                                    Arg::empty()
                                }
                            }
                        }
                        None => Arg::Inline { bytes: work.output_size, value: work.output },
                    };
                }
            }
            report.attempts = attempts;

            // Serialize the result envelope (failed results still carry
            // an envelope back — the error is a payload like any other).
            let ser = config.ser.cost(&mut rng, output.wire_bytes());
            report.ser_time += ser;
            sim.sleep(ser).await;

            let finished = sim.now();
            task.timing.result_dispatched = Some(finished);
            if failed.is_none() {
                tracer.emit(
                    finished,
                    name,
                    kinds::TASK_FINISHED,
                    task.id,
                    config.site.index() as f64,
                );
                shared.completed.set(shared.completed.get() + 1);
            } else {
                tracer.emit(finished, name, kinds::TASK_FAILED, task.id, attempts as f64);
                shared.failed.set(shared.failed.get() + 1);
            }
            shared.busy.borrow_mut().dec(finished);
            last_finish = Some(finished);

            // Finish the task in its own envelope: the result that goes
            // back is the allocation that came in.
            let input_bytes = task.input_bytes();
            let mut result = task.into_result();
            result.output = output;
            result.input_bytes = input_bytes;
            result.report = report;
            result.site = config.site;
            result.worker = name;
            result.outcome = match failed {
                None => TaskOutcome::Success,
                Some(err) => TaskOutcome::Failed(err),
            };
            if results.send_now(result).is_err() {
                break; // experiment torn down
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskWork;
    use hetflow_store::{bytes::MB, Backend, FsParams, SiteSet, Store};
    use hetflow_sim::SimTime;
    use std::time::Duration;

    const SITE: SiteId = SiteId(0);

    fn run_pool(
        workers: usize,
        n_tasks: usize,
        compute_secs: f64,
    ) -> (Sim, WorkerPool, Receiver<TaskResult>) {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let pool = WorkerPool::spawn(
            &sim,
            WorkerPoolConfig::bare(SITE, "w", workers),
            res_tx,
            &SimRng::from_seed(1),
            Tracer::enabled(),
        );
        for i in 0..n_tasks {
            let mut t = TaskSpec::new(
                i as u64,
                "unit",
                vec![],
                Rc::new(move |_ctx| {
                    TaskWork::new((), 0, hetflow_sim::time::secs(compute_secs))
                }),
            );
            t.timing.created = Some(SimTime::ZERO);
            pool.tasks.send_now(t).unwrap();
        }
        (sim, pool, res_rx)
    }

    #[test]
    fn executes_all_tasks_with_pool_parallelism() {
        let (sim, pool, res_rx) = run_pool(4, 8, 10.0);
        let r = sim.run();
        assert_eq!(pool.completed(), 8);
        assert_eq!(res_rx.drain_now().len(), 8);
        // 8 tasks / 4 workers / 10s each => 20s.
        assert_eq!(r.end, SimTime::from_secs(20));
    }

    #[test]
    fn busy_gauge_tracks_concurrency() {
        let (sim, pool, _res) = run_pool(3, 6, 5.0);
        sim.run();
        let g = pool.busy_gauge();
        // All 3 busy for the whole 10s run.
        assert!((g.time_average(SimTime::from_secs(10)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_recorded_between_tasks() {
        let (sim, pool, _res) = run_pool(1, 3, 1.0);
        sim.run();
        // Tasks queued back-to-back: 2 gaps of ~0.
        let idle = pool.idle_gaps();
        assert_eq!(idle.len(), 2);
        assert!(idle.max() < 1e-9);
    }

    #[test]
    fn resolves_proxied_inputs_and_reports() {
        let sim = Sim::new();
        let store = Store::new(
            sim.clone(),
            "fs",
            Backend::Fs(FsParams {
                members: SiteSet::of(&[SITE]),
                op_latency: Dist::Constant(0.01),
                write_bandwidth: 1e8,
                read_bandwidth: 1e8,
            }),
            SimRng::from_seed(2),
        );
        let (res_tx, res_rx) = channel();
        let pool = WorkerPool::spawn(
            &sim,
            WorkerPoolConfig::bare(SITE, "w", 1),
            res_tx,
            &SimRng::from_seed(1),
            Tracer::disabled(),
        );
        let store2 = store.clone();
        let tasks = pool.tasks.clone();
        sim.spawn(async move {
            let key = store2.put_raw(Rc::new(vec![1.5f64; 4]), MB, SITE).await.unwrap();
            let proxy = hetflow_store::UntypedProxy::new(store2.clone(), key, MB);
            let t = TaskSpec::new(
                0,
                "unit",
                vec![Arg::Proxied(proxy)],
                Rc::new(|ctx| {
                    let v = ctx.input::<Vec<f64>>(0);
                    TaskWork::new(v.iter().sum::<f64>(), 100, Duration::ZERO)
                }),
            );
            tasks.send_now(t).unwrap();
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        match &r.output {
            Arg::Inline { value, .. } => {
                assert_eq!(*Rc::clone(value).downcast::<f64>().unwrap(), 6.0);
            }
            Arg::Proxied(_) => panic!("no result policy => inline"),
        }
        assert_eq!(r.report.local_inputs + r.report.remote_inputs, 1);
        assert!(r.report.resolve_wait > Duration::ZERO);
    }

    #[test]
    fn result_policy_proxies_large_outputs() {
        let sim = Sim::new();
        let store = Store::new(
            sim.clone(),
            "fs",
            Backend::Fs(FsParams {
                members: SiteSet::of(&[SITE]),
                op_latency: Dist::Constant(0.001),
                write_bandwidth: 1e9,
                read_bandwidth: 1e9,
            }),
            SimRng::from_seed(2),
        );
        let (res_tx, res_rx) = channel();
        let mut config = WorkerPoolConfig::bare(SITE, "w", 1);
        config.result_policy = ProxyPolicy::uniform(store.clone(), 10_000);
        let pool =
            WorkerPool::spawn(&sim, config, res_tx, &SimRng::from_seed(1), Tracer::disabled());
        // Small output: stays inline.
        pool.tasks
            .send_now(TaskSpec::new(
                0,
                "t",
                vec![],
                Rc::new(|_| TaskWork::new(1u8, 100, Duration::ZERO)),
            ))
            .unwrap();
        // Large output: proxied.
        pool.tasks
            .send_now(TaskSpec::new(
                1,
                "t",
                vec![],
                Rc::new(|_| TaskWork::new(vec![0u8; 8], MB, Duration::ZERO)),
            ))
            .unwrap();
        sim.run();
        let results = res_rx.drain_now();
        assert!(!results[0].output.is_proxied());
        assert!(results[1].output.is_proxied());
        assert_eq!(results[1].output.wire_bytes(), hetflow_store::PROXY_WIRE_BYTES);
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn exhausted_retries_produce_failed_result() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let mut config = WorkerPoolConfig::bare(SITE, "w", 1);
        config.failure = Some(FailureModel {
            prob: 1.0, // every attempt fails: exhaustion is certain
            waste_fraction: 0.0,
            restart_delay: Dist::Constant(1.0),
            max_attempts: 3,
        });
        config.retry.default.backoff = Dist::Constant(2.0);
        let tracer = Tracer::enabled();
        let pool =
            WorkerPool::spawn(&sim, config, res_tx, &SimRng::from_seed(1), tracer.clone());
        pool.tasks
            .send_now(TaskSpec::new(
                0,
                "unit",
                vec![],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(10))),
            ))
            .unwrap();
        let r = sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        let res = &results[0];
        assert!(res.is_failed());
        assert_eq!(
            res.outcome.error(),
            Some(&TaskError::ExhaustedRetries { attempts: 3 })
        );
        assert_eq!(res.report.attempts, 3);
        // 3 restart delays (1 s) + 2 backoffs (2 s); no compute happens.
        assert_eq!(res.report.wasted_time, Duration::from_secs(7));
        assert_eq!(res.report.compute_time, Duration::ZERO);
        assert!(res.timing.compute_finished.is_none());
        assert_eq!(r.end, SimTime::from_secs(7));
        assert_eq!(pool.failed(), 1);
        assert_eq!(pool.completed(), 0);
        assert_eq!(tracer.events_of_kind(kinds::TASK_FAILED).len(), 1);
        assert_eq!(tracer.events_of_kind(kinds::TASK_RETRY).len(), 2);
        assert!(tracer.events_of_kind(kinds::TASK_FINISHED).is_empty());
    }

    #[test]
    fn pace_knob_stretches_compute() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let config = WorkerPoolConfig::bare(SITE, "w", 1);
        let pool =
            WorkerPool::spawn(&sim, config, res_tx, &SimRng::from_seed(1), Tracer::disabled());
        pool.pace_knob().set(3.0);
        pool.tasks
            .send_now(TaskSpec::new(
                0,
                "t",
                vec![],
                Rc::new(|_| TaskWork::new((), 0, Duration::from_secs(10))),
            ))
            .unwrap();
        let r = sim.run();
        assert_eq!(r.end, SimTime::from_secs(30), "pace 3 triples a 10 s task");
        let results = res_rx.drain_now();
        assert_eq!(results[0].report.compute_time, Duration::from_secs(30));
    }

    #[test]
    fn neutral_knobs_change_nothing() {
        let (sim_a, _pa, ra) = run_pool(2, 4, 3.0);
        sim_a.run();
        let (sim_b, pb, rb) = run_pool(2, 4, 3.0);
        pb.pace_knob().set(1.0); // explicitly neutral
        sim_b.run();
        assert_eq!(sim_a.now(), sim_b.now());
        assert_eq!(ra.drain_now().len(), rb.drain_now().len());
    }

    #[test]
    fn timing_stamps_filled() {
        let (sim, _pool, res_rx) = run_pool(1, 1, 2.0);
        sim.run();
        let r = &res_rx.drain_now()[0];
        let t = r.timing;
        assert!(t.worker_started.is_some());
        assert!(t.inputs_resolved.is_some());
        assert!(t.compute_finished.is_some());
        assert!(t.result_dispatched.is_some());
        assert_eq!(
            t.compute_finished.unwrap() - t.inputs_resolved.unwrap(),
            Duration::from_secs(2)
        );
    }
}
