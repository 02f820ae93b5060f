//! Thinker ↔ Task Server queues with automatic proxying.
//!
//! Reproduces Colmena's data path (§IV-D, Fig. 2): a *Thinker* submits
//! task requests to a *Task Server* through Redis-backed queues; the
//! server re-serializes each request and hands it to a compute fabric;
//! results retrace the path into per-topic result queues.
//!
//! When a submission or result payload exceeds the [`ProxyPolicy`]
//! threshold for its topic, the payload is placed in a store and only a
//! lightweight proxy travels — so the serialization the server performs
//! becomes size-independent, which is the mechanism behind the Fig. 3
//! improvements.

use crate::lifecycle::{RecordLog, TaskRecord};
use hetflow_fabric::{
    Arg, Fabric, SerModel, TaskError, TaskFn, TaskId, TaskOutcome, TaskResult, TaskSpec,
};
use hetflow_store::{ProxyPolicy, SiteId, UntypedProxy};
use hetflow_sim::{
    channel, trace_kinds as kinds, Dist, Receiver, Sender, Sim, SimRng, SimTime, Symbol, SymbolMap,
    Tracer,
};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// A value the thinker wants to pass to (or receive from) a task,
/// together with its declared serialized size.
pub struct Payload {
    inner: PayloadInner,
}

enum PayloadInner {
    /// A value subject to the auto-proxy policy.
    Value {
        value: Rc<dyn Any>,
        bytes: u64,
    },
    /// An already-proxied object — Colmena's "users can also proxy
    /// objects manually before submitting the proxies to tasks"
    /// (§IV-D). Sharing one proxy across a batch of tasks is what lets
    /// later tasks hit the prefetched copy (§V-D3's sub-100 ms
    /// inference resolves).
    Proxied(UntypedProxy),
}

impl Payload {
    /// Wraps a value with its declared size.
    pub fn new<T: 'static>(value: T, bytes: u64) -> Payload {
        Payload { inner: PayloadInner::Value { value: Rc::new(value), bytes } }
    }

    /// Wraps an already-shared value — campaign loops submitting the
    /// same payload many times clone one `Rc` instead of allocating a
    /// fresh box per task.
    pub fn shared(value: Rc<dyn Any>, bytes: u64) -> Payload {
        Payload { inner: PayloadInner::Value { value, bytes } }
    }

    /// Wraps an existing proxy; the target is shared between every task
    /// the proxy is submitted to and moves at most once per site.
    pub fn proxied(proxy: UntypedProxy) -> Payload {
        Payload { inner: PayloadInner::Proxied(proxy) }
    }
}

/// Configuration of the thinker↔server queue pair.
#[derive(Clone)]
pub struct QueueConfig {
    /// Site the thinker and task server run on (a Theta login node in
    /// the paper's deployment).
    pub thinker_site: SiteId,
    /// Per-message queue hop latency (local Redis).
    pub queue_latency: Dist,
    /// Queue payload throughput, bytes/s.
    pub queue_bandwidth: f64,
    /// Serialization model for thinker and server passes.
    pub ser: SerModel,
    /// Auto-proxy policy applied at submission time.
    pub policy: ProxyPolicy,
}

impl QueueConfig {
    /// Paper-deployment defaults: sub-millisecond local Redis queue,
    /// CPython pickle serialization.
    #[cfg(test)]
    pub fn login_node(thinker_site: SiteId, policy: ProxyPolicy) -> Self {
        QueueConfig {
            thinker_site,
            queue_latency: Dist::log_normal(0.0005, 0.3),
            queue_bandwidth: 5.0e7,
            ser: SerModel::python_pickle(),
            policy,
        }
    }
}

struct Shared {
    sim: Sim,
    config: QueueConfig,
    rng: RefCell<SimRng>,
    next_id: Cell<TaskId>,
    submit_tx: Sender<TaskSpec>,
    topic_rx: SymbolMap<Receiver<TaskResult>>,
    records: RefCell<RecordLog>,
    tracer: Tracer,
    /// Pre-interned `"thinker"` trace actor — `submit`/`get_result`
    /// must not take the interner lock per task.
    actor: Symbol,
    outstanding: Cell<i64>,
}

/// The thinker-side handle: submit tasks, await results.
#[derive(Clone)]
pub struct ClientQueues {
    shared: Rc<Shared>,
}

impl ClientQueues {
    /// The store the policy would proxy `topic` payloads into, if any —
    /// the handle applications use to proxy objects manually and share
    /// them across a batch of tasks.
    pub fn store_for(&self, topic: &str) -> Option<hetflow_store::Store> {
        self.shared.config.policy.rule_for(topic).map(|r| r.store.clone())
    }

    /// The thinker's site (where manual proxies should be produced).
    pub fn thinker_site(&self) -> SiteId {
        self.shared.config.thinker_site
    }

    /// Serializes (auto-proxying large payloads), stamps, and enqueues a
    /// task. Awaiting covers the thinker-side cost: serialization plus
    /// any store puts for proxied inputs.
    /// Accepts a `&str` or a pre-interned [`Symbol`] topic; hot loops
    /// should intern once and pass the symbol so submission takes no
    /// interner lock. Payloads may come from any iterable — an array
    /// avoids the per-call `Vec` a hot campaign loop would otherwise
    /// allocate.
    pub async fn submit(
        &self,
        topic: impl Into<Symbol>,
        payloads: impl IntoIterator<Item = Payload>,
        compute: TaskFn,
    ) -> TaskId {
        let topic: Symbol = topic.into();
        let shared = &self.shared;
        let sim = &shared.sim;
        let id = shared.next_id.get();
        shared.next_id.set(id + 1);
        let created = sim.now();
        shared.tracer.emit(created, shared.actor, kinds::TASK_CREATED, id, 0.0);

        // Build args, proxying what the policy selects. The store put is
        // part of "serialization time" in the paper's decomposition. A
        // failed put poisons the task instead of panicking: it still
        // travels the pipeline so the thinker gets a failed record with
        // honest accounting.
        let proxy_start = sim.now();
        // `Args` stores up to four arguments inline, so the common
        // one-payload submission builds its argument list on the stack.
        let mut args = hetflow_fabric::Args::new();
        let mut poisoned: Option<TaskError> = None;
        for p in payloads {
            match p.inner {
                PayloadInner::Proxied(proxy) => args.push(Arg::Proxied(proxy)),
                PayloadInner::Value { value, bytes } => {
                    match shared.config.policy.decide(topic, bytes) {
                        Some(store) if poisoned.is_none() => {
                            match store.put_raw(value, bytes, shared.config.thinker_site).await {
                                Ok(key) => args.push(Arg::Proxied(UntypedProxy::new(
                                    store.clone(),
                                    key,
                                    bytes,
                                ))),
                                Err(e) => {
                                    poisoned = Some(TaskError::PutFailed(e.to_string()));
                                    args.push(Arg::empty());
                                }
                            }
                        }
                        // Once poisoned, skip further puts: the task
                        // will never execute.
                        Some(_) => args.push(Arg::empty()),
                        None => args.push(Arg::Inline { bytes, value }),
                    }
                }
            }
        }

        let mut task = TaskSpec::new(id, topic, args, compute);
        task.failed = poisoned;
        task.timing.created = Some(created);
        task.ser_time += sim.now() - proxy_start;

        // Thinker serialization pass over the (post-proxy) envelope.
        let ser = shared.config.ser.cost(&mut shared.rng.borrow_mut(), task.wire_bytes());
        task.ser_time += ser;
        sim.sleep(ser).await;
        task.timing.submitted = Some(sim.now());
        shared.outstanding.set(shared.outstanding.get() + 1);

        // Queue transit happens off the agent's back.
        let transit = self.queue_transit(task.wire_bytes());
        shared.submit_tx.send_at(sim, sim.now() + transit, task);
        id
    }

    /// Awaits the next completed task on `topic`; `None` once the system
    /// is shut down.
    pub async fn get_result(&self, topic: impl Into<Symbol>) -> Option<CompletedTask> {
        let topic: Symbol = topic.into();
        let shared = &self.shared;
        #[expect(
            clippy::panic,
            reason = "unregistered topic is a deployment wiring bug, not a runtime fault"
        )]
        let rx = shared
            .topic_rx
            .get(topic)
            .unwrap_or_else(|| panic!("topic {topic} was not registered"));
        let mut result = rx.recv().await?;
        // Thinker-side deserialization of the envelope — part of the
        // serialization bin, like every other (de)serialize pass.
        let ser = shared.config.ser.cost(&mut shared.rng.borrow_mut(), result.wire_bytes());
        result.report.ser_time += ser;
        shared.sim.sleep(ser).await;
        shared.outstanding.set(shared.outstanding.get() - 1);
        shared
            .tracer
            .emit(shared.sim.now(), shared.actor, kinds::RESULT_RECEIVED, result.id, 0.0);
        Some(CompletedTask { result: Some(result), queues: self.clone() })
    }

    /// Tasks submitted but not yet received back.
    pub fn outstanding(&self) -> i64 {
        self.shared.outstanding.get()
    }

    /// Every finished-task record so far, in resolve order.
    ///
    /// The thinker keeps its records as a compact byte log, so this
    /// decodes and allocates the whole history on every call: call it
    /// once per run (or per report), not per task.
    pub fn records(&self) -> Vec<TaskRecord> {
        self.shared.records.borrow().to_vec()
    }

    fn queue_transit(&self, bytes: u64) -> Duration {
        let c = &self.shared.config;
        let lat = c.queue_latency.sample(&mut self.shared.rng.borrow_mut());
        hetflow_sim::time::secs(lat + bytes as f64 / c.queue_bandwidth)
    }

    fn push_record(&self, record: &TaskRecord) {
        self.shared.records.borrow_mut().push(record);
    }

    fn site(&self) -> SiteId {
        self.shared.config.thinker_site
    }

    fn sim(&self) -> &Sim {
        &self.shared.sim
    }
}

/// A result delivered to the thinker, data possibly still remote.
///
/// Call [`resolve`](CompletedTask::resolve) to obtain the value, paying
/// any outstanding transfer wait.
pub struct CompletedTask {
    result: Option<TaskResult>,
    queues: ClientQueues,
}

impl CompletedTask {
    /// Task id, while the task is unresolved.
    #[cfg(test)]
    pub fn id(&self) -> TaskId {
        self.result.as_ref().expect("not yet resolved").id
    }

    /// Resolves the result data at the thinker's site, finishing the
    /// record. Returns the value and the final record. A failed task
    /// resolves to a placeholder value and a failed record; an
    /// unreachable proxied output degrades the record to failed instead
    /// of panicking.
    pub async fn resolve(mut self) -> ResolvedTask {
        #[expect(
            clippy::expect_used,
            reason = "resolve() consumes self, so the slot can only be empty if the struct \
                      was corrupted; nothing to degrade to"
        )]
        let mut result = self.result.take().expect("resolve called twice");
        let queues = &self.queues;
        let sim = queues.sim().clone();
        let (value, data_wait, was_local): (Rc<dyn Any>, Duration, bool) = match &result.output {
            Arg::Inline { value, .. } => (Rc::clone(value), Duration::ZERO, true),
            Arg::Proxied(p) => match p.resolve(queues.site()).await {
                Ok(r) => (r.value, r.wait, r.was_local),
                Err(e) => {
                    result.outcome =
                        TaskOutcome::Failed(TaskError::ResolveFailed(e.to_string()));
                    (Rc::new(()) as Rc<dyn Any>, Duration::ZERO, false)
                }
            },
        };
        result.timing.result_ready = Some(sim.now());
        let record = TaskRecord {
            id: result.id,
            topic: result.topic,
            timing: result.timing,
            report: result.report,
            input_bytes: result.input_bytes,
            output_bytes: result.output.data_bytes(),
            thinker_data_wait: data_wait,
            data_was_local: was_local,
            site: result.site,
            worker: result.worker,
            outcome: std::mem::take(&mut result.outcome),
        };
        queues.push_record(&record);
        ResolvedTask { value, record }
    }
}

/// A fully resolved task: value plus its complete record.
pub struct ResolvedTask {
    value: Rc<dyn Any>,
    /// The finished life-cycle record.
    pub record: TaskRecord,
}

impl ResolvedTask {
    /// True when the task failed; the value is a placeholder then.
    pub fn is_failed(&self) -> bool {
        self.record.is_failed()
    }

    /// True when overload protection shed the task; the value is a
    /// placeholder then, exactly as for a failed task.
    pub fn is_shed(&self) -> bool {
        self.record.is_shed()
    }

    /// The error, if the task failed.
    pub fn error(&self) -> Option<&TaskError> {
        self.record.outcome.error()
    }

    /// Downcasts the output value. Check [`ResolvedTask::is_failed`]
    /// and [`ResolvedTask::is_shed`] first: failed and shed tasks carry
    /// a `()` placeholder, not a `T`.
    #[expect(
        clippy::panic,
        reason = "documented contract: callers check is_failed() before value()"
    )]
    pub fn value<T: 'static>(&self) -> Rc<T> {
        Rc::clone(&self.value)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("task output has unexpected type"))
    }
}

/// The server-side actor pair: forwards submissions into the fabric and
/// results back to the thinker.
pub struct TaskServer;

impl TaskServer {
    /// Wires up a thinker↔server↔fabric pipeline.
    ///
    /// `fabric_results` must be the receiver half of the channel the
    /// fabric was constructed with. Returns the thinker-side handle.
    pub fn start(
        sim: &Sim,
        config: QueueConfig,
        fabric: Rc<dyn Fabric>,
        fabric_results: Receiver<TaskResult>,
        topics: &[&str],
        rng: SimRng,
        tracer: Tracer,
    ) -> ClientQueues {
        let (submit_tx, submit_rx) = channel::<TaskSpec>();
        // Per topic: the result queue's sending half and the instant its
        // latest result lands. The modeled Redis result queue is FIFO
        // per topic, so a result whose transit would land it before its
        // predecessor lands with it: `max(now + transit, last)`.
        let mut deliver: SymbolMap<(Sender<TaskResult>, Cell<SimTime>)> = SymbolMap::new();
        let mut topic_rx: SymbolMap<Receiver<TaskResult>> = SymbolMap::new();
        for &topic in topics {
            let (tx, rx) = channel::<TaskResult>();
            topic_rx.insert(Symbol::intern(topic), rx);
            deliver.insert(Symbol::intern(topic), (tx, Cell::new(SimTime::ZERO)));
        }

        let shared = Rc::new(Shared {
            sim: sim.clone(),
            config: config.clone(),
            rng: RefCell::new(rng.substream(0)),
            next_id: Cell::new(0),
            submit_tx,
            topic_rx,
            records: RefCell::new(RecordLog::new()),
            tracer: tracer.clone(),
            actor: Symbol::intern("thinker"),
            outstanding: Cell::new(0),
        });

        // Submission-forwarding actor: deserialize, re-serialize, submit.
        {
            let sim2 = sim.clone();
            let config = config.clone();
            let mut rng = rng.substream(1);
            let fabric = Rc::clone(&fabric);
            sim.spawn_detached(async move {
                while let Some(mut task) = submit_rx.recv().await {
                    task.timing.server_received = Some(sim2.now());
                    let wire = task.wire_bytes();
                    let de = config.ser.cost(&mut rng, wire);
                    let se = config.ser.cost(&mut rng, wire);
                    task.ser_time += de + se;
                    sim2.sleep(de + se).await;
                    fabric.submit(task).await;
                }
            });
        }

        // Result-forwarding actor: per-topic routing with queue transit.
        {
            let sim2 = sim.clone();
            let config = config.clone();
            let mut rng = rng.substream(2);
            sim.spawn_detached(async move {
                while let Some(mut result) = fabric_results.recv().await {
                    // Server-side deserialize + serialize pass — charged
                    // to the serialization bin like the submit path.
                    let wire = result.wire_bytes();
                    let de = config.ser.cost(&mut rng, wire);
                    let se = config.ser.cost(&mut rng, wire);
                    result.report.ser_time += de + se;
                    sim2.sleep(de + se).await;
                    #[expect(
                        clippy::panic,
                        reason = "unregistered topic is a deployment wiring bug"
                    )]
                    let Some((tx, last)) = deliver.get(result.topic) else {
                        panic!("result for unregistered topic {}", result.topic);
                    };
                    // Queue transit back to the thinker, in topic order.
                    let lat = config.queue_latency.sample(&mut rng);
                    let transit =
                        hetflow_sim::time::secs(lat + wire as f64 / config.queue_bandwidth);
                    let at = (sim2.now() + transit).max(last.get());
                    last.set(at);
                    result.timing.thinker_notified = Some(at);
                    tx.send_at(&sim2, at, result);
                }
            });
        }

        ClientQueues { shared }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hetflow_fabric::{
        EndpointSpec, FnXExecutor, FnXParams, TaskWork, WorkerPoolConfig,
    };
    use hetflow_store::bytes::{KB, MB};
    use hetflow_store::{Backend, FsParams, SiteSet, Store};

    const LOGIN: SiteId = SiteId(0);

    fn fs_store(sim: &Sim) -> Store {
        Store::new(
            sim.clone(),
            "fs",
            Backend::Fs(FsParams {
                members: SiteSet::of(&[LOGIN]),
                op_latency: Dist::Constant(0.005),
                write_bandwidth: 5e8,
                read_bandwidth: 5e8,
            }),
            SimRng::from_seed(11),
        )
    }

    /// A two-worker FnX pipeline serving the `noop` and `echo` topics.
    pub(crate) fn pipeline(policy: ProxyPolicy) -> (Sim, ClientQueues) {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let fabric = FnXExecutor::new(
            &sim,
            FnXParams::default(),
            vec![EndpointSpec::reliable(
                {
                    let mut p = WorkerPoolConfig::bare(LOGIN, "theta", 2);
                    p.result_policy = policy.clone();
                    p
                },
                vec!["noop", "echo"],
            )],
            res_tx,
            SimRng::from_seed(1),
            Tracer::disabled(),
        );
        let queues = TaskServer::start(
            &sim,
            QueueConfig {
                thinker_site: LOGIN,
                queue_latency: Dist::Constant(0.0005),
                queue_bandwidth: 5.0e7,
                ser: SerModel::python_pickle(),
                policy,
            },
            Rc::new(fabric),
            res_rx,
            &["noop", "echo"],
            SimRng::from_seed(2),
            Tracer::disabled(),
        );
        (sim, queues)
    }

    fn noop_fn() -> TaskFn {
        Rc::new(|_ctx| TaskWork::noop())
    }

    #[test]
    fn end_to_end_noop_roundtrip() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let q = queues.clone();
        let h = sim.spawn(async move {
            let id = q.submit("noop", vec![Payload::new((), 10 * KB)], noop_fn()).await;
            let done = q.get_result("noop").await.unwrap();
            assert_eq!(done.id(), id);
            let resolved = done.resolve().await;
            resolved.record.clone()
        });
        let record = sim.block_on(h);
        let t = record.timing;
        assert!(t.created.is_some());
        assert!(t.submitted.is_some());
        assert!(t.server_received.is_some());
        assert!(t.dispatched.is_some());
        assert!(t.worker_started.is_some());
        assert!(t.compute_finished.is_some());
        assert!(t.thinker_notified.is_some());
        assert!(t.result_ready.is_some());
        assert!(t.lifetime().unwrap() > Duration::ZERO);
        assert_eq!(queues.records().len(), 1);
    }

    #[test]
    fn echo_value_passes_through() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let q = queues.clone();
        let h = sim.spawn(async move {
            q.submit(
                "echo",
                vec![Payload::new(vec![2.5f64, 3.5], KB)],
                Rc::new(|ctx| {
                    let v = ctx.input::<Vec<f64>>(0);
                    TaskWork::new(v.iter().sum::<f64>(), 8, Duration::ZERO)
                }),
            )
            .await;
            let resolved = q.get_result("echo").await.unwrap().resolve().await;
            *resolved.value::<f64>()
        });
        assert_eq!(sim.block_on(h), 6.0);
    }

    #[test]
    fn proxied_payload_roundtrips_with_value() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let policy = ProxyPolicy::uniform(store.clone(), 10 * KB);
        let (res_tx, res_rx) = channel();
        let fabric = FnXExecutor::new(
            &sim,
            FnXParams::default(),
            vec![EndpointSpec::reliable(
                {
                    let mut p = WorkerPoolConfig::bare(LOGIN, "theta", 1);
                    p.result_policy = policy.clone();
                    p
                },
                vec!["echo"],
            )],
            res_tx,
            SimRng::from_seed(1),
            Tracer::disabled(),
        );
        let queues = TaskServer::start(
            &sim,
            QueueConfig::login_node(LOGIN, policy),
            Rc::new(fabric),
            res_rx,
            &["echo"],
            SimRng::from_seed(2),
            Tracer::disabled(),
        );
        let q = queues.clone();
        let h = sim.spawn(async move {
            q.submit(
                "echo",
                vec![Payload::new(vec![1u32; 1000], MB)], // proxied
                Rc::new(|ctx| {
                    let v = ctx.input::<Vec<u32>>(0);
                    // Large output: proxied on the way back too.
                    TaskWork::new(v.len() as u64, MB, Duration::ZERO)
                }),
            )
            .await;
            let resolved = q.get_result("echo").await.unwrap().resolve().await;
            (*resolved.value::<u64>(), resolved.record.clone())
        });
        let (len, record) = sim.block_on(h);
        assert_eq!(len, 1000);
        assert_eq!(record.report.local_inputs + record.report.remote_inputs, 1);
        assert_eq!(record.output_bytes, MB);
        // Store holds both the input and the output objects.
        assert_eq!(store.object_count(), 2);
    }

    #[test]
    fn proxying_speeds_up_large_payload_lifetime() {
        // The Fig. 3 headline: a 1 MB no-op is much faster when the
        // payload moves by reference.
        let lifetime = |proxy: bool| {
            let sim = Sim::new();
            let store = fs_store(&sim);
            let policy = if proxy {
                ProxyPolicy::uniform(store, 0)
            } else {
                ProxyPolicy::disabled()
            };
            let (res_tx, res_rx) = channel();
            let fabric = FnXExecutor::new(
                &sim,
                FnXParams::default(),
                vec![EndpointSpec::reliable(
                    {
                        let mut p = WorkerPoolConfig::bare(LOGIN, "theta", 1);
                        p.result_policy = policy.clone();
                        p.ser = SerModel::python_pickle();
                        p
                    },
                    vec!["noop"],
                )],
                res_tx,
                SimRng::from_seed(1),
                Tracer::disabled(),
            );
            let queues = TaskServer::start(
                &sim,
                QueueConfig::login_node(LOGIN, policy),
                Rc::new(fabric),
                res_rx,
                &["noop"],
                SimRng::from_seed(2),
                Tracer::disabled(),
            );
            let q = queues.clone();
            let h = sim.spawn(async move {
                q.submit("noop", vec![Payload::new(vec![0u8; 16], MB)], noop_fn()).await;
                let resolved = q.get_result("noop").await.unwrap().resolve().await;
                resolved.record.timing.lifetime().unwrap().as_secs_f64()
            });
            sim.block_on(h)
        };
        let with_proxy = lifetime(true);
        let without = lifetime(false);
        assert!(
            without / with_proxy > 3.0,
            "proxying must cut 1MB no-op lifetime: {without:.3}s vs {with_proxy:.3}s"
        );
    }

    #[test]
    fn outstanding_counts_in_flight() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let q = queues.clone();
        let h = sim.spawn(async move {
            q.submit("noop", vec![Payload::new((), KB)], noop_fn()).await;
            q.submit("noop", vec![Payload::new((), KB)], noop_fn()).await;
            let after_submit = q.outstanding();
            q.get_result("noop").await.unwrap().resolve().await;
            (after_submit, q.outstanding())
        });
        let (during, after) = sim.block_on(h);
        assert_eq!(during, 2);
        assert_eq!(after, 1);
    }

    #[test]
    #[should_panic(expected = "was not registered")]
    fn unknown_topic_get_panics() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let q = queues.clone();
        let h = sim.spawn(async move {
            q.get_result("mystery").await;
        });
        sim.block_on(h);
    }
}
