//! The task model shared by all compute fabrics.
//!
//! A [`TaskSpec`] is a function invocation: a topic (task type), input
//! arguments (inline values or [`UntypedProxy`] references), and a
//! compute closure that runs on a worker. The closure does *real* work —
//! training a model, scoring molecules — and declares how long the task
//! occupies the worker in virtual time and how large its output is.
//!
//! [`TaskTiming`] carries the life-cycle stamps the paper's evaluation
//! decomposes: creation → server → dispatch → worker start → inputs
//! resolved → compute done → result received → result data ready
//! (§V-C1, §V-D).
//!
//! ## One envelope per task
//!
//! A task is one heap allocation from [`TaskSpec::new`] until the
//! thinker has copied its [`TaskResult`] into a record. [`TaskSpec`] and
//! [`TaskResult`] are pointer-sized owning handles to that envelope, so
//! every channel, queue and spawned future on the way moves eight bytes,
//! and whoever finishes the task (a worker, or the fabric when it sheds
//! it) writes the result fields into the same allocation and passes the
//! same pointer on. Fields are reached through `Deref`:
//! `task.timing.created = …`, `result.report.hedges`.

use hetflow_store::{SiteId, UntypedProxy};
use hetflow_sim::{SimRng, SimTime, Symbol};
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::time::Duration;

/// Unique task identifier within a run.
pub type TaskId = u64;

/// Why a task failed. Failures are normal, reportable outcomes — they
/// travel the result path like successes and reach the thinker as
/// records, mirroring how funcX/Colmena surface task exceptions to the
/// steering loop instead of aborting the campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// Every execution attempt failed; `attempts` were made.
    ExhaustedRetries {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The task did not reach a worker (or finish) within its deadline —
    /// e.g. it was stuck behind an endpoint outage.
    Timeout {
        /// The deadline that elapsed.
        after: Duration,
    },
    /// A proxied input could not be resolved on the worker.
    ResolveFailed(String),
    /// The result (or an input) could not be placed in its store.
    PutFailed(String),
}

impl TaskError {
    /// Stable short label, used as a tracer event payload and in
    /// report bins.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskError::ExhaustedRetries { .. } => "exhausted_retries",
            TaskError::Timeout { .. } => "timeout",
            TaskError::ResolveFailed(_) => "resolve_failed",
            TaskError::PutFailed(_) => "put_failed",
        }
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::ExhaustedRetries { attempts } => {
                write!(f, "exhausted {attempts} execution attempts")
            }
            TaskError::Timeout { after } => {
                write!(f, "timed out after {:.1}s", after.as_secs_f64())
            }
            TaskError::ResolveFailed(e) => write!(f, "input resolve failed: {e}"),
            TaskError::PutFailed(e) => write!(f, "store put failed: {e}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// How a task ended.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TaskOutcome {
    /// The compute closure ran and produced its output.
    #[default]
    Success,
    /// The task failed; the result carries a placeholder output and the
    /// error. Timing/report fields still describe what actually happened
    /// (attempts made, time wasted) so failure-path accounting adds up.
    Failed(TaskError),
    /// Overload protection dropped the task before it ran: displaced
    /// from a full bounded queue or refused by the admission controller.
    /// The result carries a placeholder output and burned no compute.
    /// Distinct from `Failed` so lifecycle conservation reads
    /// `submitted == completed + failed + shed`.
    Shed,
}

impl TaskOutcome {
    /// True for failed outcomes (shed is not a failure: no attempt ran).
    pub fn is_failed(&self) -> bool {
        matches!(self, TaskOutcome::Failed(_))
    }

    /// True when the task was shed by overload protection.
    pub fn is_shed(&self) -> bool {
        matches!(self, TaskOutcome::Shed)
    }

    /// The error, if failed.
    pub fn error(&self) -> Option<&TaskError> {
        match self {
            TaskOutcome::Success | TaskOutcome::Shed => None,
            TaskOutcome::Failed(e) => Some(e),
        }
    }
}

/// Fixed wire overhead of a task envelope (serialized function body,
/// metadata, headers) in bytes.
pub(crate) const TASK_ENVELOPE_BYTES: u64 = 1_000;

/// One task argument.
#[derive(Clone)]
pub enum Arg {
    /// Value travels inline through the control plane.
    Inline {
        /// Declared serialized size.
        bytes: u64,
        /// The actual value.
        value: Rc<dyn Any>,
    },
    /// Value was placed in a store; only the reference travels.
    Proxied(UntypedProxy),
}

thread_local! {
    /// One `Rc<()>` per thread, shared by every empty argument and
    /// no-op output — placeholder values on hot paths must not
    /// allocate a fresh `Rc` per task.
    static EMPTY_PAYLOAD: Rc<dyn Any> = Rc::new(());
}

impl Arg {
    /// Builds an inline argument.
    pub fn inline<T: 'static>(value: T, bytes: u64) -> Arg {
        Arg::Inline { bytes, value: Rc::new(value) }
    }

    /// A zero-byte `()` placeholder argument sharing one per-thread
    /// allocation (poisoned submissions, default worker outputs).
    pub fn empty() -> Arg {
        Arg::Inline { bytes: 0, value: EMPTY_PAYLOAD.with(Rc::clone) }
    }

    /// Bytes this argument adds to the task envelope.
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Arg::Inline { bytes, .. } => *bytes,
            Arg::Proxied(p) => p.wire_size(),
        }
    }

    /// Size of the underlying data (inline size, or the proxy target's).
    pub fn data_bytes(&self) -> u64 {
        match self {
            Arg::Inline { bytes, .. } => *bytes,
            Arg::Proxied(p) => p.target_size(),
        }
    }

    /// True for proxied arguments.
    pub fn is_proxied(&self) -> bool {
        matches!(self, Arg::Proxied(_))
    }
}

/// Argument list of a [`TaskSpec`], with inline storage for small
/// lists.
///
/// Almost every task in the workloads carries zero to two arguments;
/// up to `Args::INLINE` of them live directly in the spec, so
/// building, cloning (the hedge/reroute path re-issues a clone per
/// speculative dispatch) and dropping a typical task touches no heap
/// `Vec` at all. Longer lists spill into a `Vec` transparently.
#[derive(Clone, Default)]
pub struct Args {
    inline: [Option<Arg>; Self::INLINE],
    inline_len: u8,
    spill: Vec<Arg>,
}

impl Args {
    /// Arguments stored without heap allocation.
    pub(crate) const INLINE: usize = 4;

    /// An empty argument list.
    pub fn new() -> Self {
        Args::default()
    }

    /// Appends an argument.
    pub fn push(&mut self, arg: Arg) {
        let at = usize::from(self.inline_len);
        if at < Self::INLINE {
            self.inline[at] = Some(arg);
            self.inline_len += 1;
        } else {
            self.spill.push(arg);
        }
    }

    /// Number of arguments.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    /// The `i`-th argument, if present.
    pub(crate) fn get(&self, i: usize) -> Option<&Arg> {
        if i < usize::from(self.inline_len) {
            self.inline[i].as_ref()
        } else {
            self.spill.get(i - usize::from(self.inline_len))
        }
    }

    /// Arguments in order.
    pub(crate) fn iter(&self) -> ArgsIter<'_> {
        ArgsIter { args: self, at: 0 }
    }
}

/// Iterator over an [`Args`] list (allocation-free, unlike a boxed
/// `dyn Iterator`, because argument resolution runs once per task).
pub struct ArgsIter<'a> {
    args: &'a Args,
    at: usize,
}

impl<'a> Iterator for ArgsIter<'a> {
    type Item = &'a Arg;
    fn next(&mut self) -> Option<&'a Arg> {
        let v = self.args.get(self.at)?;
        self.at += 1;
        Some(v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.args.len() - self.at;
        (left, Some(left))
    }
}

impl From<Vec<Arg>> for Args {
    fn from(v: Vec<Arg>) -> Args {
        v.into_iter().collect()
    }
}

impl From<Arg> for Args {
    fn from(a: Arg) -> Args {
        let mut args = Args::new();
        args.push(a);
        args
    }
}

impl FromIterator<Arg> for Args {
    fn from_iter<I: IntoIterator<Item = Arg>>(iter: I) -> Args {
        let mut args = Args::new();
        for a in iter {
            args.push(a);
        }
        args
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Arg;
    type IntoIter = ArgsIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::ops::Index<usize> for Args {
    type Output = Arg;
    #[expect(clippy::panic, reason = "out-of-bounds argument index is a task wiring bug")]
    fn index(&self, i: usize) -> &Arg {
        self.get(i)
            .unwrap_or_else(|| panic!("argument index {i} out of bounds (len {})", self.len()))
    }
}

/// What the worker observed while resolving inputs and computing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerReport {
    /// Time spent resolving proxied inputs.
    pub resolve_wait: Duration,
    /// Time the compute occupied the worker.
    pub compute_time: Duration,
    /// Time spent (de)serializing on the worker.
    pub ser_time: Duration,
    /// Number of proxied inputs that were already local (prefetched).
    pub local_inputs: u32,
    /// Number of proxied inputs that required a wait.
    pub remote_inputs: u32,
    /// Execution attempts (1 = no failures; >1 means the worker retried
    /// after injected failures).
    pub attempts: u32,
    /// Time lost to failed attempts (partial compute + restart delays +
    /// retry backoff). Zero for clean executions.
    pub wasted_time: Duration,
    /// Speculative (hedged) copies the fabric issued for this task.
    pub hedges: u32,
    /// Times the fabric re-dispatched this task after a delivery
    /// timeout.
    pub reroutes: u32,
}

/// Execution context handed to a task's compute closure.
pub struct TaskCtx<'a> {
    /// Resolved input values, in argument order. Borrowed from the
    /// worker's reusable buffer — the per-task `Vec` allocation the
    /// old owned field forced is gone.
    pub inputs: &'a [Rc<dyn Any>],
    /// Worker-local random stream.
    pub rng: &'a mut SimRng,
    /// The site the worker runs on.
    pub site: SiteId,
}

impl TaskCtx<'_> {
    /// Downcasts input `i` to `T`, panicking with a useful message on
    /// type mismatch (a task wiring bug, not a runtime condition).
    #[expect(clippy::panic, reason = "type mismatch is a task wiring bug, not a runtime fault")]
    pub fn input<T: 'static>(&self, i: usize) -> Rc<T> {
        Rc::clone(&self.inputs[i])
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("task input {i} has unexpected type"))
    }
}

/// Output of a compute closure.
pub struct TaskWork {
    /// Virtual time the task occupies the worker.
    pub compute_time: Duration,
    /// The produced value.
    pub output: Rc<dyn Any>,
    /// Declared serialized size of the output.
    pub output_size: u64,
}

impl TaskWork {
    /// Convenience constructor.
    pub fn new<T: 'static>(output: T, output_size: u64, compute_time: Duration) -> Self {
        TaskWork { compute_time, output: Rc::new(output), output_size }
    }

    /// A no-op result: empty output, zero compute (the synthetic tasks
    /// of §V-C). The output `Rc` is shared per thread, not allocated
    /// per call.
    pub fn noop() -> Self {
        TaskWork {
            compute_time: Duration::ZERO,
            output: EMPTY_PAYLOAD.with(Rc::clone),
            output_size: 0,
        }
    }
}

/// The compute closure type. Runs on the worker; must be deterministic
/// given the context RNG.
pub type TaskFn = Rc<dyn Fn(&mut TaskCtx<'_>) -> TaskWork>;

/// Life-cycle stamps of one task. `None` means the stage has not
/// happened (or does not exist on that fabric).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskTiming {
    /// Thinker created the task.
    pub created: Option<SimTime>,
    /// Thinker finished serializing (incl. proxying) and queued it.
    pub submitted: Option<SimTime>,
    /// Task server received it.
    pub server_received: Option<SimTime>,
    /// Task server handed it to the compute fabric.
    pub dispatched: Option<SimTime>,
    /// Worker began the task.
    pub worker_started: Option<SimTime>,
    /// All proxied inputs resolved on the worker.
    pub inputs_resolved: Option<SimTime>,
    /// Compute finished on the worker.
    pub compute_finished: Option<SimTime>,
    /// Result left the worker.
    pub result_dispatched: Option<SimTime>,
    /// Task server received the result.
    pub server_result_received: Option<SimTime>,
    /// Thinker was notified of completion.
    pub thinker_notified: Option<SimTime>,
    /// Thinker finished resolving the result data.
    pub result_ready: Option<SimTime>,
}

impl TaskTiming {
    fn span(a: Option<SimTime>, b: Option<SimTime>) -> Option<Duration> {
        Some(b? - a?)
    }

    /// Thinker → task server communication time.
    pub fn thinker_to_server(&self) -> Option<Duration> {
        Self::span(self.submitted, self.server_received)
    }

    /// Task server → worker-start communication time.
    pub fn server_to_worker(&self) -> Option<Duration> {
        Self::span(self.dispatched, self.worker_started)
    }

    /// Time on the worker (deserialize + resolve + compute + serialize).
    pub fn time_on_worker(&self) -> Option<Duration> {
        Self::span(self.worker_started, self.result_dispatched)
    }

    /// Worker → task server return communication.
    pub fn worker_to_server(&self) -> Option<Duration> {
        Self::span(self.result_dispatched, self.server_result_received)
    }

    /// Task server → thinker notification.
    pub fn server_to_thinker(&self) -> Option<Duration> {
        Self::span(self.server_result_received, self.thinker_notified)
    }

    /// Completion → thinker-notified (the paper's "reaction time"
    /// notification component, Fig. 5 top).
    pub fn notification(&self) -> Option<Duration> {
        Self::span(self.compute_finished, self.thinker_notified)
    }

    /// Thinker-notified → result data available (Fig. 5 bottom).
    pub fn data_wait(&self) -> Option<Duration> {
        Self::span(self.thinker_notified, self.result_ready)
    }

    /// Full round trip: created → result data ready.
    pub fn lifetime(&self) -> Option<Duration> {
        Self::span(self.created, self.result_ready.or(self.thinker_notified))
    }

    /// Total overhead: lifetime minus compute (the paper's Fig. 7b
    /// metric: "time between when a task was created and when the result
    /// was read that is not the task running").
    pub fn overhead(&self) -> Option<Duration> {
        let lifetime = self.lifetime()?;
        let compute = Self::span(self.inputs_resolved, self.compute_finished)?;
        Some(lifetime.saturating_sub(compute))
    }
}

/// The two record types behind the handles. `pub` because they are the
/// handles' `Deref` targets, in a private module because nothing outside
/// this file has a reason to name them: callers hold a `TaskSpec` or a
/// `TaskResult` and read fields through it.
mod envelope {
    use super::{Arg, Args, TaskError, TaskFn, TaskId, TaskOutcome, TaskTiming, WorkerReport};
    use hetflow_sim::Symbol;
    use hetflow_store::SiteId;
    use std::ops::{Deref, DerefMut};
    use std::time::Duration;

    /// What a task *is*: the fields of a `TaskSpec`, reached through its
    /// `Deref` (`task.topic`, `task.timing.created = …`). Also exactly what
    /// the reliability layer retains of a task it may have to re-issue.
    #[derive(Clone)]
    pub struct Request {
        /// Unique id.
        pub id: TaskId,
        /// Task type, e.g. `"simulate"`, `"train"`, `"infer"`, `"sample"`.
        pub topic: Symbol,
        /// Input arguments (inline up to `Args::INLINE`).
        pub args: Args,
        /// The compute closure.
        pub compute: TaskFn,
        /// Accumulated serialization time so far (thinker/server side).
        pub ser_time: Duration,
        /// Life-cycle stamps; the result's continue them.
        pub timing: TaskTiming,
        /// Set when the task was poisoned before reaching a worker (e.g. a
        /// submit-side proxy put failed). The worker short-circuits: no
        /// resolve, no compute — the error rides the normal result path.
        pub failed: Option<TaskError>,
        /// Shedding priority: higher keeps its queue slot longer under
        /// [`hetflow_sim::OverflowPolicy::ShedLowestPriority`]. Campaign
        /// tasks default to `TaskSpec::PRIORITY_NORMAL`; background storm
        /// traffic runs at `TaskSpec::PRIORITY_LOW` so overload sheds it
        /// first.
        pub priority: u8,
    }

    /// The one heap record behind a `TaskSpec` and the `TaskResult` it
    /// becomes: the request, plus the result fields its finisher fills in.
    /// `id`, `topic` and `timing` of a result are the request's own, reached
    /// through this type's `Deref`.
    pub struct Envelope {
        pub(super) request: Request,
        /// The output (inline or proxied, per the result policy).
        pub output: Arg,
        /// Total input data size (bytes of underlying data, not wire size).
        pub input_bytes: u64,
        /// Worker-side observations.
        pub report: WorkerReport,
        /// Which site executed the task.
        pub site: SiteId,
        /// Worker label, e.g. `"theta/3"`.
        pub worker: Symbol,
        /// Whether the task succeeded or failed. Failed results carry a
        /// zero-byte placeholder output.
        pub outcome: TaskOutcome,
    }

    impl Deref for Envelope {
        type Target = Request;
        fn deref(&self) -> &Request {
            &self.request
        }
    }

    impl DerefMut for Envelope {
        fn deref_mut(&mut self) -> &mut Request {
            &mut self.request
        }
    }
}

use envelope::Envelope;
pub(crate) use envelope::Request;

/// A task ready for submission: the owning, pointer-sized handle to its
/// envelope. [`TaskSpec::new`] makes the task's one allocation; there is
/// no `Clone` — the reliability layer re-issues a task from the
/// request it retained, which allocates the copy's own envelope.
pub struct TaskSpec(Box<Envelope>);

impl Deref for TaskSpec {
    type Target = Request;
    fn deref(&self) -> &Request {
        &self.0.request
    }
}

impl DerefMut for TaskSpec {
    fn deref_mut(&mut self) -> &mut Request {
        &mut self.0.request
    }
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("id", &self.id)
            .field("topic", &self.topic)
            .field("args", &self.args.len())
            .field("wire_bytes", &self.wire_bytes())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// One no-op closure per thread: every [`TaskSpec::noop`] shares it,
    /// and so does the envelope the fabric mints for a timed-out task.
    static NOOP_FN: TaskFn = Rc::new(|_ctx| TaskWork::noop());
}

impl From<Request> for TaskSpec {
    /// Boxes `request` into a fresh envelope with a blank result half:
    /// whoever finishes the task writes it. `site` and `worker` mean
    /// nothing until then (the worker label starts as the topic, the one
    /// symbol at hand that costs the interner nothing).
    fn from(request: Request) -> TaskSpec {
        let worker = request.topic;
        TaskSpec(Box::new(Envelope {
            request,
            output: Arg::empty(),
            input_bytes: 0,
            report: WorkerReport::default(),
            site: SiteId(0),
            worker,
            outcome: TaskOutcome::Success,
        }))
    }
}

impl TaskSpec {
    /// Default shedding priority of campaign tasks.
    pub const PRIORITY_NORMAL: u8 = 100;
    /// Priority of expendable background traffic (chaos storms): the
    /// first thing a full queue sheds.
    pub const PRIORITY_LOW: u8 = 0;

    /// Creates a task with the given topic, args and closure — and its
    /// envelope, the one allocation the task costs on its way through
    /// the fabric.
    pub fn new(
        id: TaskId,
        topic: impl Into<Symbol>,
        args: impl Into<Args>,
        compute: TaskFn,
    ) -> Self {
        TaskSpec::from(Request {
            id,
            topic: topic.into(),
            args: args.into(),
            compute,
            ser_time: Duration::ZERO,
            timing: TaskTiming::default(),
            failed: None,
            priority: Self::PRIORITY_NORMAL,
        })
    }

    /// Builder: sets the shedding priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// A no-op task with one inline payload of `bytes` — the synthetic
    /// workload of §V-C.
    ///
    /// Issue-path allocation count: one, the envelope. The payload
    /// value, the compute closure, and the interned topic are each
    /// created once per thread and shared by every no-op issued after.
    /// The envelope pays for itself downstream: `Fabric::submit` returns
    /// the named [`crate::Submit`] instead of a boxed future, so a task
    /// still costs the allocator what it did when it travelled by value.
    pub fn noop(id: TaskId, bytes: u64) -> Self {
        static NOOP_TOPIC: std::sync::OnceLock<Symbol> = std::sync::OnceLock::new();
        let topic = *NOOP_TOPIC.get_or_init(|| Symbol::intern("noop"));
        TaskSpec::new(
            id,
            topic,
            Arg::Inline { bytes, value: EMPTY_PAYLOAD.with(Rc::clone) },
            NOOP_FN.with(Rc::clone),
        )
    }

    /// An argument-less stand-in for a task the fabric no longer holds
    /// (it timed out in transit): enough envelope to carry the terminal
    /// result.
    pub(crate) fn stand_in(id: TaskId, topic: Symbol, timing: TaskTiming) -> Self {
        let mut task = TaskSpec::new(id, topic, Args::new(), NOOP_FN.with(Rc::clone));
        task.timing = timing;
        task
    }

    /// Total wire size of the serialized task envelope.
    pub fn wire_bytes(&self) -> u64 {
        TASK_ENVELOPE_BYTES + self.args.iter().map(Arg::wire_bytes).sum::<u64>()
    }

    /// Total size of the underlying input data (not wire size).
    pub(crate) fn input_bytes(&self) -> u64 {
        self.args.iter().map(Arg::data_bytes).sum()
    }

    /// The same envelope as a result: the finisher fills the result
    /// fields in through the returned handle.
    pub(crate) fn into_result(self) -> TaskResult {
        TaskResult(self.0)
    }
}

/// A completed task returning to the thinker: the envelope its
/// [`TaskSpec`] allocated, finished in place. Result fields (`output`,
/// `report`, `site`, …) and the request's (`id`, `topic`, `timing`) are
/// both reached through `Deref`.
pub struct TaskResult(Box<Envelope>);

impl Deref for TaskResult {
    type Target = Envelope;
    fn deref(&self) -> &Envelope {
        &self.0
    }
}

impl DerefMut for TaskResult {
    fn deref_mut(&mut self) -> &mut Envelope {
        &mut self.0
    }
}

impl std::fmt::Debug for TaskResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskResult")
            .field("id", &self.id)
            .field("topic", &self.topic)
            .field("site", &self.site)
            .field("worker", &self.worker)
            .finish_non_exhaustive()
    }
}

impl TaskResult {
    /// Wire size of the result envelope.
    pub fn wire_bytes(&self) -> u64 {
        TASK_ENVELOPE_BYTES + self.output.wire_bytes()
    }

    /// True when the task failed (see [`TaskOutcome`]).
    pub fn is_failed(&self) -> bool {
        self.outcome.is_failed()
    }

    /// True when overload protection shed the task before it ran.
    pub fn is_shed(&self) -> bool {
        self.outcome.is_shed()
    }
}

// The point of the envelope: what crosses a channel is a pointer.
const _: () = assert!(std::mem::size_of::<TaskSpec>() == std::mem::size_of::<usize>());
const _: () = assert!(std::mem::size_of::<TaskResult>() == std::mem::size_of::<usize>());

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // timing fixtures read best as sequential stamps
mod tests {
    use super::*;

    #[test]
    fn inline_arg_sizes() {
        let a = Arg::inline(vec![1u8, 2, 3], 1234);
        assert_eq!(a.wire_bytes(), 1234);
        assert_eq!(a.data_bytes(), 1234);
        assert!(!a.is_proxied());
    }

    #[test]
    fn args_inline_and_spill_preserve_order() {
        let mut args = Args::new();
        for i in 0..6u64 {
            args.push(Arg::inline(i, i * 10));
        }
        assert_eq!(args.len(), 6);
        let sizes: Vec<u64> = args.iter().map(Arg::wire_bytes).collect();
        assert_eq!(sizes, [0, 10, 20, 30, 40, 50]);
        assert_eq!(args[3].wire_bytes(), 30);
        assert_eq!(args.get(5).map(Arg::wire_bytes), Some(50));
        assert_eq!(args.get(6).map(Arg::wire_bytes), None);
        // &Args iterates like a slice would.
        let mut n = 0;
        for a in &args {
            assert_eq!(a.wire_bytes(), n * 10);
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn args_from_vec_and_clone() {
        let args: Args = vec![Arg::inline((), 1), Arg::inline((), 2)].into();
        assert_eq!(args.len(), 2);
        let cloned = args.clone();
        assert_eq!(cloned.iter().map(Arg::wire_bytes).sum::<u64>(), 3);
    }

    #[test]
    fn noop_shares_payload_and_closure() {
        let a = TaskSpec::noop(1, 100);
        let b = TaskSpec::noop(2, 200);
        assert!(Rc::ptr_eq(&a.compute, &b.compute), "one closure per thread");
        let payload = |t: &TaskSpec| match &t.args[0] {
            Arg::Inline { value, .. } => Rc::clone(value),
            Arg::Proxied(_) => unreachable!("noop args are inline"),
        };
        assert!(Rc::ptr_eq(&payload(&a), &payload(&b)), "one payload per thread");
        assert_eq!(a.args[0].wire_bytes(), 100);
        assert_eq!(b.args[0].wire_bytes(), 200);
    }

    #[test]
    fn noop_task_shape() {
        let t = TaskSpec::noop(1, 10_000);
        assert_eq!(t.topic, "noop");
        assert_eq!(t.wire_bytes(), TASK_ENVELOPE_BYTES + 10_000);
        let mut rng = SimRng::from_seed(1);
        let inputs: Vec<Rc<dyn Any>> = vec![Rc::new(())];
        let mut ctx = TaskCtx { inputs: &inputs, rng: &mut rng, site: SiteId(0) };
        let w = (t.compute)(&mut ctx);
        assert_eq!(w.compute_time, Duration::ZERO);
        assert_eq!(w.output_size, 0);
    }

    #[test]
    fn timing_spans() {
        let mut t = TaskTiming::default();
        assert!(t.thinker_to_server().is_none());
        t.created = Some(SimTime::from_secs(0));
        t.submitted = Some(SimTime::from_secs(1));
        t.server_received = Some(SimTime::from_secs(2));
        t.dispatched = Some(SimTime::from_secs(3));
        t.worker_started = Some(SimTime::from_secs(5));
        t.inputs_resolved = Some(SimTime::from_secs(6));
        t.compute_finished = Some(SimTime::from_secs(16));
        t.result_dispatched = Some(SimTime::from_secs(17));
        t.server_result_received = Some(SimTime::from_secs(18));
        t.thinker_notified = Some(SimTime::from_secs(19));
        t.result_ready = Some(SimTime::from_secs(21));
        assert_eq!(t.thinker_to_server(), Some(Duration::from_secs(1)));
        assert_eq!(t.server_to_worker(), Some(Duration::from_secs(2)));
        assert_eq!(t.time_on_worker(), Some(Duration::from_secs(12)));
        assert_eq!(t.worker_to_server(), Some(Duration::from_secs(1)));
        assert_eq!(t.notification(), Some(Duration::from_secs(3)));
        assert_eq!(t.data_wait(), Some(Duration::from_secs(2)));
        assert_eq!(t.lifetime(), Some(Duration::from_secs(21)));
        // overhead = 21 - 10 (compute) = 11
        assert_eq!(t.overhead(), Some(Duration::from_secs(11)));
    }

    #[test]
    fn lifetime_falls_back_to_notification() {
        let mut t = TaskTiming::default();
        t.created = Some(SimTime::from_secs(0));
        t.thinker_notified = Some(SimTime::from_secs(4));
        assert_eq!(t.lifetime(), Some(Duration::from_secs(4)));
    }

    #[test]
    fn task_ctx_input_downcast() {
        let mut rng = SimRng::from_seed(1);
        let inputs: Vec<Rc<dyn Any>> = vec![Rc::new(42u32), Rc::new("hi")];
        let ctx = TaskCtx { inputs: &inputs, rng: &mut rng, site: SiteId(0) };
        assert_eq!(*ctx.input::<u32>(0), 42);
        assert_eq!(*ctx.input::<&str>(1), "hi");
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn task_ctx_wrong_type_panics() {
        let mut rng = SimRng::from_seed(1);
        let inputs: Vec<Rc<dyn Any>> = vec![Rc::new(42u32)];
        let ctx = TaskCtx { inputs: &inputs, rng: &mut rng, site: SiteId(0) };
        let _ = ctx.input::<String>(0);
    }
}
