//! Single-threaded async executor over virtual time.
//!
//! Every actor in the system — thinker agents, task servers, FaaS
//! endpoints, workers, transfer services — is an async task spawned on a
//! [`Sim`]. Awaiting [`Sim::sleep`] advances the virtual clock instead of
//! wall time; the run loop polls all runnable tasks, then jumps the clock
//! to the next timer. Execution is deterministic: tasks are polled in FIFO
//! wake order and timers fire in `(deadline, registration order)` order.
//! A timer wakes a task by id — polling it at once, since timers fire
//! only when nothing else is runnable — a foreign [`Waker`], or — for
//! [`crate::channel::Sender::send_at`] — releases a parked value into
//! its channel, with no task in between.
//!
//! ## Timer store
//!
//! Pending timers live in one indexed binary min-heap (`TimerHeap`)
//! keyed by `(deadline, tie, registration seq)`; `seq` is unique, so the
//! firing order is the global lexicographic minimum by construction.
//! Each timer also owns a generation-checked slab slot that records its
//! current heap position, so a dropped [`Sleep`] removes its entry at
//! once (`swap_remove` + one sift) and the pop path never meets a
//! tombstone. The property tests below check the store against a plain
//! `BinaryHeap` reference under random insert/cancel/pop/peek scripts,
//! and its own invariants after every step.
//!
//! A chained sleep ([`Sim::sleep_legs`]) is one slot for a multi-leg
//! transit: when a leg fires, `fire_next_timer` asks the chain's
//! [`Legs`] for the next leg and re-keys the slot in place at the root
//! (one sift-down), and wakes the task only after the last. Like a
//! `send_at` release, it does at the fire what the task's poll would have
//! done next — timers fire only on an empty ready ring, so nothing runs
//! in between — with the same draws, `seq` and tie; a differential test
//! below holds it to the sequential sleeps it replaces.
//!
//! A heap is enough because the store is shallow. Peak pending timers,
//! one rep of each hetbench workload at seed 7 (`send_at` releases
//! included: each replaced a relay's sleep one for one, so no column
//! moved when they did):
//!
//! | workload            | peak pending | registrations/task | cancelled while pending |
//! |---------------------|-------------:|-------------------:|------------------------:|
//! | `ctrl_fnx`          |           11 |               16.0 |                       0 |
//! | `data_htex`         |           14 |               17.0 |                       0 |
//! | either campaign     |           26 |                  — |                       0 |
//! | `overload_fnx`      |          133 |                  — |                   1.9 % |
//!
//! That is a tree of depth ≤ 4 (≤ 8 under overload). `overload_fnx`'s
//! 1 168 of the earlier table were its 120 s round-trip watchdogs, one
//! per task; the fabric keeps a topic's deadlines in one actor's FIFO,
//! with one timer pending at a time. Three fancier stores were measured
//! against the heap at that depth over interleaved hetbench pairs and
//! rejected (DESIGN.md §10 has every count): an 11-level hierarchical
//! calendar queue (twice the lines for the same order; lost `ctrl_fnx`
//! 10 of 10), a tombstoning `BinaryHeap` (lost `overload_fnx` 9 of 10,
//! ≈ −15 %), and a `BTreeMap` with exact removal (`overload_fnx`
//! `allocs_per_task` +18 % from node churn).

use crate::rng::SimRng;
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// Task ids pack a slab index and a generation so a recycled slot never
/// mistakes a stale wake-up for its own.
type TaskId = u64;
type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

#[inline]
fn pack_task(idx: u32, gen: u32) -> TaskId {
    (u64::from(gen) << 32) | u64::from(idx)
}

#[inline]
fn unpack_task(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// Ready-ring capacity. Must be a power of two. 1024 runnable tasks at
/// one instant covers every current workload; bursts beyond it spill to
/// the overflow deque and merely pay the lock cost.
const READY_CAP: usize = 1024;

/// FIFO queue of runnable task ids, shared with wakers.
///
/// Single-producer, single-consumer, one thread: no crate starts a
/// thread (`std::thread::{spawn, scope}` are `disallowed-methods`) and
/// `Sim` is `!Send`, so every wake — a [`TaskWaker`] — runs on the
/// thread that built the `Sim`, the one that pops. A timer that names a
/// task id does not push it: `fire_next_timer` runs only on an empty
/// ring and polls that task at once. Debug builds check
/// that on every push. `Waker` must still be `Send + Sync` by type, so
/// the cursors are atomics, but every access is `Relaxed`: with one
/// thread, program order already puts a push's slot store before its
/// `tail` store and a pop's slot load before its `head` store, and no
/// other thread reads either. A mutexed deque absorbs bursts that
/// outrun the ring. Global FIFO order — the order the trace digests
/// pin — is preserved across the spill: once anything has spilled,
/// *all* pushes go to the overflow until the consumer drains it empty,
/// so no late ring entry can overtake an earlier spilled one.
///
/// The ring is kept on evidence, not by default: ISSUE 16's plain
/// `Mutex<VecDeque<TaskId>>` lost 8 of 10 interleaved `ctrl_fnx` pairs
/// (DESIGN.md §10). The `Arc::strong_count == 2` waker reuse in
/// `spawn_boxed` stays for the same kind of reason: it is what keeps
/// `spawn_detached` at zero allocations beyond the boxed future, and
/// hetbench gates `allocs_per_task` at 0.15.
#[expect(clippy::disallowed_types, reason = "R11: wakers are Send; no fn also holds the interner")]
struct ReadyQueue {
    ring: Box<[AtomicU64]>,
    /// Consumer cursor: only `pop` moves it.
    head: AtomicUsize,
    /// Producer cursor: only `push` moves it.
    tail: AtomicUsize,
    /// True while `overflow` holds entries; forces pushes to the
    /// overflow so FIFO order survives the spill.
    spilled: AtomicBool,
    overflow: std::sync::Mutex<std::collections::VecDeque<TaskId>>,
    /// The thread that built the `Sim`: the only one that may push.
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

#[expect(clippy::disallowed_types, reason = "R11: builds the overflow ring's lock")]
impl Default for ReadyQueue {
    fn default() -> Self {
        ReadyQueue {
            ring: (0..READY_CAP).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            spilled: AtomicBool::new(false),
            overflow: std::sync::Mutex::new(std::collections::VecDeque::new()),
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        }
    }
}

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            std::thread::current().id(),
            self.owner,
            "a wake ran off the thread that built the Sim: the ready ring is single-producer"
        );
        if !self.spilled.load(Ordering::Relaxed) {
            let tail = self.tail.load(Ordering::Relaxed);
            if tail.wrapping_sub(self.head.load(Ordering::Relaxed)) < READY_CAP {
                self.ring[tail & (READY_CAP - 1)].store(id, Ordering::Relaxed);
                self.tail.store(tail.wrapping_add(1), Ordering::Relaxed);
                return;
            }
        }
        // A poisoned lock is harmless here: the deque holds plain task
        // ids, so a panic mid-push leaves no broken invariant. Eat the
        // poison instead of double-panicking on the wake path.
        let mut ov = self
            .overflow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ov.push_back(id);
        self.spilled.store(true, Ordering::Relaxed);
    }

    /// Empties the queue, returning the overflow's memory.
    fn clear(&self) {
        while self.pop().is_some() {}
        *self.overflow.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            std::collections::VecDeque::new();
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.tail.load(Ordering::Relaxed)
            && !self.spilled.load(Ordering::Relaxed)
    }

    fn pop(&self) -> Option<TaskId> {
        let head = self.head.load(Ordering::Relaxed);
        if head != self.tail.load(Ordering::Relaxed) {
            let id = self.ring[head & (READY_CAP - 1)].load(Ordering::Relaxed);
            self.head.store(head.wrapping_add(1), Ordering::Relaxed);
            return Some(id);
        }
        if self.spilled.load(Ordering::Relaxed) {
            let mut ov = self
                .overflow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let v = ov.pop_front();
            if ov.is_empty() {
                self.spilled.store(false, Ordering::Relaxed);
            }
            return v;
        }
        None
    }
}

struct TaskWaker {
    /// Atomic only because `Waker` demands `Sync`: the id is rewritten
    /// when a recycled slot reuses this allocation for its next tenant.
    id: AtomicU64,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id.load(Ordering::Relaxed));
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id.load(Ordering::Relaxed));
    }
}

/// One task slot: the future plus the task's one `Waker`, allocated at
/// spawn. Both are moved out for the duration of a poll and moved back
/// after it — the poll borrows the slot's own waker, so it costs no
/// refcount traffic; only a future that keeps `cx.waker()` (a channel, an
/// event, a join handle) clones it, and that is a refcount bump, not an
/// allocation. A [`Sleep`] keeps nothing: it registers the task's id.
struct TaskSlot {
    gen: u32,
    fut: Option<LocalFuture>,
    /// `None` only while the task is being polled; back in place before
    /// the slot can reach the free list, so the strong-count test in
    /// `spawn_boxed` always sees it.
    waker: Option<Waker>,
    /// The same allocation `waker` wraps, kept so slot reuse can rewrite
    /// the packed id in place instead of allocating a fresh `Arc` — but
    /// only when no outstanding clone could misdirect a stale wake (see
    /// the strong-count check in [`Sim::spawn`]).
    waker_arc: Arc<TaskWaker>,
}

#[derive(Default)]
struct TaskSlab {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    /// Generation a new slot starts at: zero, or after a
    /// [`Sim::teardown`] one past every generation the dropped slab
    /// issued, so a wake-up that outlived it never names a new task.
    first_gen: u32,
}

// ---------------------------------------------------------------------
// Timer store
// ---------------------------------------------------------------------

/// Handle to a registered timer: slab index + generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// Where a timer's slab slot currently stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// Pending, at `heap[pos]`.
    Heap(u32),
    /// Popped and woken; the slab slot lingers until the `Sleep` drops.
    Fired,
    /// On the free list.
    Free,
}

/// Whom a timer wakes when it fires.
#[derive(Default)]
enum Wakeup {
    /// Nobody: a free slot, or a fired one whose wake-up was handed out.
    #[default]
    Nobody,
    /// The task of this executor that polled the [`Sleep`], by id. Firing
    /// polls that task at once — timers fire only on an empty ready
    /// ring, so the push `Waker::wake` would have made is the next pop —
    /// and holds no reference, so a sleeping task leaves its waker's
    /// strong count alone. An id whose task is gone is dropped by
    /// `poll_task`'s generation check like any stale wake.
    Task(TaskId),
    /// A waker this executor did not hand to the poll (a `Sleep` driven
    /// by hand, or from inside another executor's task).
    Foreign(Waker),
    /// A value [`crate::channel::Sender::send_at`] parked in a channel,
    /// by slot: firing releases it into the channel's queue. No `Sleep`
    /// owns this timer, so its slab slot is freed as it fires.
    Release(Rc<dyn Parked>, u32),
}

/// The legs of a chained sleep ([`Sim::sleep_legs`]): a transit the model
/// prices as consecutive latencies, each drawn at the instant the one
/// before it ends.
pub trait Legs {
    /// Draws the length of leg `leg` of the chain `key`, or returns `None`
    /// to stop the chain before that leg.
    fn leg(&self, key: LegKey, leg: u32) -> Option<Duration>;
}

/// Names a chain to its [`Legs`]: two words its creator chose, which the
/// kernel only carries.
pub type LegKey = (u32, u64);

/// A chain's [`Legs`] and key, as its timer slot holds them.
type Chain = (Rc<dyn Legs>, LegKey);

/// A channel holding values parked by `send_at`, seen by the timer store
/// without its item type.
pub(crate) trait Parked {
    /// The timer fired: queue the value in `slot` and wake one receiver,
    /// or drop it if every receiver is gone.
    fn release(&self, slot: u32);
    /// [`Sim::teardown`]: drop the value in `slot` undelivered.
    fn cancel(&self, slot: u32);
}

struct TimerSlot {
    gen: u32,
    loc: Loc,
    wake: Wakeup,
    /// A chained sleep's legs, while they run.
    chain: Option<Chain>,
    /// A chained sleep's next leg to draw; once the chain has stopped, the
    /// leg it stopped before.
    leg: u32,
}

/// What firing the earliest timer hands `fire_next_timer`.
enum Fire {
    /// Whom to wake; the timer has left the heap.
    Wake(Wakeup),
    /// A chained sleep's leg ended: its slot (still at the root, under
    /// the key that just fired), its chain, and the next leg to draw.
    Leg(TimerHandle, Chain, u32),
}

/// Firing-order key `(deadline, tie, registration seq)`. `tie` is zero in
/// normal operation (so `seq` — registration order — decides among equal
/// deadlines) and a seeded random draw in [`Sim::with_tie_shuffle`] mode,
/// which perturbs the firing order of exactly the timers whose order the
/// determinism contract says must not matter. `seq` is unique, so the
/// order is total.
type TimerKey = (u64, u64, u64);

#[derive(Clone, Copy)]
struct HeapEntry {
    key: TimerKey,
    idx: u32,
}

/// Indexed binary min-heap of pending timers over a generation-checked
/// slab. Invariant: `slab[heap[p].idx].loc == Loc::Heap(p)` for every
/// `p`, which is what lets [`TimerHeap::release`] remove a pending timer
/// from the middle of the heap without searching for it.
#[derive(Default)]
struct TimerHeap {
    heap: Vec<HeapEntry>,
    slab: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerHeap {
    fn register(&mut self, at: u64, tie: u64, seq: u64) -> TimerHandle {
        let idx = self.free.pop().unwrap_or_else(|| {
            let wake = Wakeup::Nobody;
            self.slab.push(TimerSlot { gen: 0, loc: Loc::Free, wake, chain: None, leg: 0 });
            (self.slab.len() - 1) as u32
        });
        let pos = self.heap.len();
        self.heap.push(HeapEntry { key: (at, tie, seq), idx });
        self.sift_up(pos);
        TimerHandle { idx, gen: self.slab[idx as usize].gen }
    }

    /// Registers a timer that releases a parked value: nobody holds its
    /// handle, and `pop` frees it.
    fn register_release(&mut self, key: TimerKey, chan: Rc<dyn Parked>, slot: u32) {
        let h = self.register(key.0, key.1, key.2);
        self.slab[h.idx as usize].wake = Wakeup::Release(chan, slot);
    }

    /// Registers a chained sleep's timer for the leg before `leg`.
    fn register_chain(&mut self, key: TimerKey, chain: Chain, leg: u32) -> TimerHandle {
        let h = self.register(key.0, key.1, key.2);
        let slot = &mut self.slab[h.idx as usize];
        (slot.chain, slot.leg) = (Some(chain), leg);
        h
    }

    /// Gives a chained slot that `pop` left in the heap `key`, later than
    /// the one that fired, for the leg before `leg`: rewritten in place and
    /// sifted down once. The same slot and wake-up, so the `Sleep`'s
    /// handle stays good.
    fn rekey(&mut self, h: TimerHandle, key: TimerKey, chain: Chain, leg: u32) {
        let slot = &mut self.slab[h.idx as usize];
        debug_assert!(slot.gen == h.gen && slot.chain.is_none(), "re-keyed a stranger");
        let Loc::Heap(pos) = slot.loc else { return };
        (slot.chain, slot.leg) = (Some(chain), leg);
        self.heap[pos as usize].key = key;
        self.sift_down(pos as usize);
    }

    /// Ends a chain that `pop` left in the heap, before `leg`: its entry
    /// leaves, the slot stays fired for its `Sleep`, and its wake-up is
    /// handed back.
    fn end_chain(&mut self, h: TimerHandle, leg: u32) -> Wakeup {
        if let Loc::Heap(pos) = self.slab[h.idx as usize].loc {
            self.remove(pos as usize);
        }
        let slot = &mut self.slab[h.idx as usize];
        debug_assert!(slot.gen == h.gen && slot.chain.is_none(), "ended a stranger's chain");
        (slot.loc, slot.leg) = (Loc::Fired, leg);
        std::mem::take(&mut slot.wake)
    }

    /// Writes `e` at `heap[pos]` and records the position in its slab
    /// slot — the only way an entry ever lands in the heap.
    fn put(&mut self, pos: usize, e: HeapEntry) {
        self.heap[pos] = e;
        self.slab[e.idx as usize].loc = Loc::Heap(pos as u32);
    }

    fn sift_up(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent].key <= e.key {
                break;
            }
            self.put(pos, self.heap[parent]);
            pos = parent;
        }
        self.put(pos, e);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let (e, n) = (self.heap[pos], self.heap.len());
        loop {
            let mut child = 2 * pos + 1;
            if child + 1 < n && self.heap[child + 1].key < self.heap[child].key {
                child += 1;
            }
            if child >= n || e.key <= self.heap[child].key {
                break;
            }
            self.put(pos, self.heap[child]);
            pos = child;
        }
        self.put(pos, e);
    }

    /// Removes `heap[pos]`: the last entry takes its place and sifts
    /// whichever way restores the heap property.
    fn remove(&mut self, pos: usize) -> HeapEntry {
        let e = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            if pos > 0 && self.heap[pos].key < self.heap[(pos - 1) / 2].key {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        e
    }

    /// Earliest pending deadline, or `None`.
    fn peek(&self) -> Option<u64> {
        self.heap.first().map(|e| e.key.0)
    }

    /// Fires the globally minimum pending timer: its key and whom to
    /// wake, or for a chained sleep its chain, for the next leg; that
    /// slot stays at the root for `rekey` or `end_chain`.
    fn pop(&mut self) -> Option<(TimerKey, Fire)> {
        let &HeapEntry { key, idx } = self.heap.first()?;
        let slot = &mut self.slab[idx as usize];
        if let Some(chain) = slot.chain.take() {
            return Some((key, Fire::Leg(TimerHandle { idx, gen: slot.gen }, chain, slot.leg)));
        }
        self.remove(0);
        let slot = &mut self.slab[idx as usize];
        let wake = std::mem::take(&mut slot.wake);
        if let Wakeup::Release(..) = wake {
            self.free_slot(idx);
        } else {
            slot.loc = Loc::Fired;
        }
        Some((key, Fire::Wake(wake)))
    }

    /// Cancels every pending release and hands back what each would
    /// have released, for [`Sim::teardown`] to drop outside this borrow.
    fn cancel_releases(&mut self) -> Vec<(Rc<dyn Parked>, u32)> {
        let mut parked = Vec::new();
        for idx in 0..self.slab.len() as u32 {
            let slot = &mut self.slab[idx as usize];
            match std::mem::take(&mut slot.wake) {
                Wakeup::Release(chan, parked_slot) => {
                    parked.push((chan, parked_slot));
                    let gen = slot.gen;
                    self.release(TimerHandle { idx, gen });
                }
                other => slot.wake = other,
            }
        }
        parked
    }

    /// Releases the timer if it has fired, returning the leg its chain
    /// stopped before (0 for a plain sleep); `None` while it is pending.
    /// The owning `Sleep` resolves on `Some`.
    fn take_fired(&mut self, h: TimerHandle) -> Option<u32> {
        let slot = &self.slab[h.idx as usize];
        if slot.gen != h.gen || slot.loc != Loc::Fired {
            return None;
        }
        let leg = slot.leg;
        self.release(h);
        Some(leg)
    }

    /// Points a pending timer at whoever polls its `Sleep` now: `polled`
    /// when that is a task of this executor, else `waker`. Called at
    /// registration and at every later poll that finds the timer still
    /// pending; a registration that already names the poller stands as
    /// it is — the losing arm of a `timeout` race is re-polled at every
    /// wake of its task, and nothing about it has changed.
    fn arm(&mut self, h: TimerHandle, polled: Option<TaskId>, waker: &Waker) {
        let slot = &mut self.slab[h.idx as usize];
        if slot.gen != h.gen {
            return;
        }
        match (polled, &slot.wake) {
            (Some(id), _) => slot.wake = Wakeup::Task(id),
            (None, Wakeup::Foreign(w)) if w.will_wake(waker) => {}
            (None, _) => slot.wake = Wakeup::Foreign(waker.clone()),
        }
    }

    /// Releases a handle: cancels the timer if still pending (removing
    /// its heap entry at once) and frees the slab slot.
    fn release(&mut self, h: TimerHandle) {
        let Some(slot) = self.slab.get(h.idx as usize) else { return };
        if slot.gen != h.gen {
            return;
        }
        if let Loc::Heap(pos) = slot.loc {
            self.remove(pos as usize);
        }
        self.free_slot(h.idx);
    }

    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slab[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.loc = Loc::Free;
        slot.wake = Wakeup::Nobody;
        (slot.chain, slot.leg) = (None, 0);
        self.free.push(idx);
    }
}

struct Core {
    now: Cell<SimTime>,
    next_timer_seq: Cell<u64>,
    timers: RefCell<TimerHeap>,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<TaskSlab>,
    /// Spawned-but-unfinished tasks (futures out being polled included).
    live_tasks: Cell<usize>,
    /// The task being polled right now and the data pointer of the waker
    /// its poll was given: how a [`Sleep`] tells "my own task is polling
    /// me" (register the id) from any other waker (keep a clone).
    polling: Cell<Option<(TaskId, *const ())>>,
    polls: Cell<u64>,
    timer_fires: Cell<u64>,
    tie_shuffle: RefCell<Option<SimRng>>,
}

/// Summary of a completed [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Clock value when the run stopped.
    pub end: SimTime,
    /// Total future polls performed.
    pub polls: u64,
    /// Timers that fired.
    pub timer_fires: u64,
    /// Tasks still pending when the run stopped. Nonzero after a full
    /// [`Sim::run`] means some actor is blocked on an event that can never
    /// occur — usually a workflow bug.
    pub pending_tasks: usize,
}

/// Handle to the simulation: clock, spawner, and timer source.
///
/// Cheap to clone; every actor captures one.
#[derive(Clone)]
pub struct Sim {
    core: Rc<Core>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at t=0.
    pub fn new() -> Self {
        Sim {
            core: Rc::new(Core {
                now: Cell::new(SimTime::ZERO),
                next_timer_seq: Cell::new(0),
                timers: RefCell::new(TimerHeap::default()),
                ready: Arc::new(ReadyQueue::default()),
                tasks: RefCell::new(TaskSlab::default()),
                live_tasks: Cell::new(0),
                polling: Cell::new(None),
                polls: Cell::new(0),
                timer_fires: Cell::new(0),
                tie_shuffle: RefCell::new(None),
            }),
        }
    }

    /// Creates a simulation in schedule-perturbation mode: every timer
    /// gets a seeded random tie-break that decides firing order among
    /// *equal* deadlines (unequal deadlines still fire in time order).
    ///
    /// The determinism contract promises that nothing observable depends
    /// on the FIFO order of same-instant timers — actors that collide at
    /// one instant must be logically independent. This mode is the
    /// runtime sanitizer for that claim: run the same seed under several
    /// shuffle seeds and assert the `Tracer::digest` is invariant. A
    /// digest change pinpoints a hidden same-timestamp ordering
    /// dependency — a race no token-level or call-graph rule can see.
    ///
    /// The shuffle stream is internal to the executor and consumes no
    /// draws from any workload stream, so enabling it never perturbs
    /// workload randomness.
    pub fn with_tie_shuffle(seed: u64) -> Self {
        let sim = Sim::new();
        *sim.core.tie_shuffle.borrow_mut() = Some(SimRng::stream(seed, "executor-tie-shuffle"));
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Spawns an async task; it becomes runnable immediately.
    ///
    /// Returns a [`JoinHandle`] that resolves to the task's output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState { result: None, waker: None }));
        let state2 = Rc::clone(&state);
        self.spawn_boxed(Box::pin(async move {
            let out = fut.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        }));
        JoinHandle { state }
    }

    /// Spawns a fire-and-forget task: no [`JoinHandle`], so nothing is
    /// allocated beyond the boxed future itself. The per-task legs the
    /// fabrics launch (deliveries, result returns) are never joined —
    /// this is their hot path. A leg that would only sleep and then
    /// send is a [`crate::channel::Sender::send_at`], not a task.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_boxed(Box::pin(fut));
    }

    fn spawn_boxed(&self, wrapped: LocalFuture) {
        let id = {
            let mut tasks = self.core.tasks.borrow_mut();
            match tasks.free.pop() {
                Some(idx) => {
                    let gen = tasks.slots[idx as usize].gen;
                    let id = pack_task(idx, gen);
                    let slot = &mut tasks.slots[idx as usize];
                    slot.fut = Some(wrapped);
                    // Strong count 2 = exactly {slot.waker_arc, slot.waker}:
                    // no clone of the previous tenant's waker survives, so
                    // rewriting the id in place cannot misdirect a stale
                    // wake and the allocation is reused as-is. Any larger
                    // count means an old clone is still out there (parked
                    // in a timer or channel); it must keep waking the old
                    // id, so the new tenant gets a fresh allocation.
                    if Arc::strong_count(&slot.waker_arc) == 2 {
                        slot.waker_arc.id.store(id, Ordering::Relaxed);
                    } else {
                        let arc = Arc::new(TaskWaker {
                            id: AtomicU64::new(id),
                            ready: Arc::clone(&self.core.ready),
                        });
                        slot.waker = Some(Waker::from(Arc::clone(&arc)));
                        slot.waker_arc = arc;
                    }
                    id
                }
                None => {
                    let (idx, gen) = (tasks.slots.len() as u32, tasks.first_gen);
                    let id = pack_task(idx, gen);
                    let arc = Arc::new(TaskWaker {
                        id: AtomicU64::new(id),
                        ready: Arc::clone(&self.core.ready),
                    });
                    tasks.slots.push(TaskSlot {
                        gen,
                        fut: Some(wrapped),
                        waker: Some(Waker::from(Arc::clone(&arc))),
                        waker_arc: arc,
                    });
                    id
                }
            }
        };
        self.core.live_tasks.set(self.core.live_tasks.get() + 1);
        self.core.ready.push(id);
    }

    /// Returns a future that completes after `d` of virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        Sleep { sim: self.clone(), deadline: self.now() + d, handle: None, leg: 0 }
    }

    /// Returns a future that completes at the absolute instant `at`
    /// (immediately if `at` is in the past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep { sim: self.clone(), deadline: at, handle: None, leg: 0 }
    }

    /// A sleep through the legs of `legs`'s chain `key`, from leg `from`
    /// on, as one timer. Each leg is drawn where the task's own poll would
    /// have drawn it: the first here, every later one by the timer store
    /// as the leg before it fires, which re-keys the same slot with a
    /// fresh `seq` and tie — the key a `sleep` registered by that poll
    /// would have had. So a chain of n legs fires n times, as n sleeps
    /// would, and polls its task once instead of n times. A leg of zero
    /// length passes without a timer, as a zero sleep does. The sleep
    /// resolves when `legs` stops the chain; [`Sleep::leg`] then says
    /// before which leg.
    pub fn sleep_legs(&self, legs: Rc<dyn Legs>, key: LegKey, from: u32) -> Sleep {
        let mut leg = from;
        let Some(at) = self.next_leg(&*legs, key, &mut leg) else {
            return Sleep { sim: self.clone(), deadline: self.now(), handle: None, leg };
        };
        let tkey = self.timer_key(at, None);
        let h = self.core.timers.borrow_mut().register_chain(tkey, (legs, key), leg);
        Sleep { sim: self.clone(), deadline: at, handle: Some(h), leg }
    }

    /// Draws the legs of `key` from `*leg` on until one ends after now
    /// and returns that end, with `*leg` past it; `None` once `legs`
    /// stops the chain, with `*leg` at the leg it stopped before.
    fn next_leg(&self, legs: &dyn Legs, key: LegKey, leg: &mut u32) -> Option<SimTime> {
        let now = self.now();
        loop {
            let d = legs.leg(key, *leg)?;
            *leg += 1;
            let at = now + d;
            if at > now {
                return Some(at);
            }
        }
    }

    /// Yields once, letting every currently runnable task proceed before
    /// this one resumes (at the same instant).
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { sim: self.clone(), polled: false }
    }

    /// The id of the task being polled, if `cx` carries that task's own
    /// waker. `select2`/`timeout` hand their `cx` down unchanged, so every
    /// sleep in an actor's future tree answers `Some`.
    fn polled_task(&self, cx: &Context<'_>) -> Option<TaskId> {
        let (id, data) = self.core.polling.get()?;
        (cx.waker().data() == data).then_some(id)
    }

    /// The firing-order key of a timer registered now for `at`: the next
    /// `seq`, and `tie` if given, else a fresh draw (zero without a tie
    /// shuffle).
    fn timer_key(&self, at: SimTime, tie: Option<u64>) -> TimerKey {
        let seq = self.core.next_timer_seq.get();
        self.core.next_timer_seq.set(seq + 1);
        let tie = tie.unwrap_or_else(|| match self.core.tie_shuffle.borrow_mut().as_mut() {
            Some(rng) => rng.next_u64(),
            None => 0,
        });
        (at.as_nanos(), tie, seq)
    }

    /// Registers a timer and arms it for whoever is polling through `cx`,
    /// under one borrow of the timer store.
    fn register_timer(&self, at: SimTime, cx: &Context<'_>) -> TimerHandle {
        let (at, tie, seq) = self.timer_key(at, None);
        let mut timers = self.core.timers.borrow_mut();
        let h = timers.register(at, tie, seq);
        timers.arm(h, self.polled_task(cx), cx.waker());
        h
    }

    /// Registers the timer that releases `slot` of `chan` at `at`, under
    /// `tie` if given. Returns the tie it used.
    pub(crate) fn register_release(
        &self,
        at: SimTime,
        tie: Option<u64>,
        chan: Rc<dyn Parked>,
        slot: u32,
    ) -> u64 {
        let key = self.timer_key(at, tie);
        self.core.timers.borrow_mut().register_release(key, chan, slot);
        key.1
    }

    /// Polls every runnable task until none is runnable at the current
    /// instant. Does not advance the clock.
    fn drain_ready(&self) {
        while let Some(id) = self.core.ready.pop() {
            self.poll_task(id);
        }
    }

    /// Polls the task `id` once, if it still exists and is not being
    /// polled already; a stale id (its task finished, its slot maybe
    /// reused) polls nobody.
    fn poll_task(&self, id: TaskId) {
        let (idx, gen) = unpack_task(id);
        // Move the future and the slot's waker out while polling, so the
        // slab is free for re-entrant spawns and the poll borrows the
        // waker instead of cloning it.
        let (mut fut, waker) = {
            let mut tasks = self.core.tasks.borrow_mut();
            let Some(slot) = tasks.slots.get_mut(idx as usize) else {
                return;
            };
            if slot.gen != gen {
                return; // completed task woken again: spurious, ignore
            }
            let (Some(fut), Some(waker)) = (slot.fut.take(), slot.waker.take()) else {
                return; // woken while already being polled
            };
            (fut, waker)
        };
        let mut cx = Context::from_waker(&waker);
        self.core.polls.set(self.core.polls.get() + 1);
        // Restored, not cleared: a task may drive this `Sim` itself.
        let outer = self.core.polling.replace(Some((id, waker.data())));
        let pending = fut.as_mut().poll(&mut cx).is_pending();
        self.core.polling.set(outer);
        let mut tasks = self.core.tasks.borrow_mut();
        let slot = &mut tasks.slots[idx as usize];
        slot.waker = Some(waker);
        if pending {
            slot.fut = Some(fut);
            return;
        }
        slot.gen = slot.gen.wrapping_add(1);
        tasks.free.push(idx);
        drop(tasks);
        self.core.live_tasks.set(self.core.live_tasks.get() - 1);
        // `fut` drops here, after the slab borrow is released:
        // destructors (e.g. `Sleep::drop`) may re-enter the core.
    }

    /// Fires the earliest pending timer, advancing the clock to it.
    /// Returns false when no live timer remains.
    fn fire_next_timer(&self) -> bool {
        let fired = self.core.timers.borrow_mut().pop();
        let Some(((at, ..), fire)) = fired else { return false };
        let at = SimTime::from_nanos(at);
        debug_assert!(at >= self.core.now.get(), "time went backwards");
        self.core.now.set(at);
        self.core.timer_fires.set(self.core.timer_fires.get() + 1);
        let wake = match fire {
            Fire::Wake(wake) => wake,
            // The next leg, drawn outside the store's borrow (`Legs` may
            // reach anything), then keyed in the order a `Sleep` the task
            // registered would have been: the root takes the fresh key.
            Fire::Leg(h, (legs, key), mut leg) => match self.next_leg(&*legs, key, &mut leg) {
                Some(at) => {
                    let tkey = self.timer_key(at, None);
                    self.core.timers.borrow_mut().rekey(h, tkey, (legs, key), leg);
                    return true;
                }
                None => self.core.timers.borrow_mut().end_chain(h, leg),
            },
        };
        match wake {
            // Polled now, not pushed: the ring is empty (this runs only
            // once it is drained), so the push would be the next pop.
            Wakeup::Task(id) => {
                debug_assert!(self.core.ready.is_empty(), "a timer fired with tasks runnable");
                self.poll_task(id);
            }
            Wakeup::Foreign(w) => w.wake(),
            Wakeup::Release(chan, slot) => chan.release(slot),
            Wakeup::Nobody => {}
        }
        true
    }

    /// Peeks at the deadline of the earliest live timer.
    fn next_deadline(&self) -> Option<SimTime> {
        self.core.timers.borrow().peek().map(SimTime::from_nanos)
    }

    /// Runs until no task is runnable and no timer is pending
    /// (quiescence).
    pub fn run(&self) -> RunReport {
        loop {
            self.drain_ready();
            if !self.fire_next_timer() {
                break;
            }
        }
        self.report()
    }

    /// Runs until quiescence or until the clock would pass `deadline`;
    /// in the latter case the clock is left exactly at `deadline`.
    pub fn run_until(&self, deadline: SimTime) -> RunReport {
        loop {
            self.drain_ready();
            match self.next_deadline() {
                Some(at) if at <= deadline => {
                    self.fire_next_timer();
                }
                _ => break,
            }
        }
        if self.core.now.get() < deadline {
            self.core.now.set(deadline);
        }
        self.report()
    }

    /// Drives the simulation until `handle` completes, then returns its
    /// output. Panics if the simulation goes quiescent first (the awaited
    /// task would then never finish).
    #[expect(
        clippy::panic,
        reason = "executor deadlock detection must abort: the sim itself is wedged"
    )]
    pub fn block_on<T: 'static>(&self, handle: JoinHandle<T>) -> T {
        if let Some(v) = handle.try_take() {
            return v;
        }
        loop {
            // Drain before taking: a timer may have polled the awaited
            // task to completion, and whatever that last poll woke runs
            // before `block_on` returns.
            self.drain_ready();
            if let Some(v) = handle.try_take() {
                return v;
            }
            if !self.fire_next_timer() {
                panic!(
                    "simulation quiescent at {} with awaited task incomplete \
                     ({} tasks leaked)",
                    self.now(),
                    self.core.live_tasks.get()
                );
            }
        }
    }

    /// Drops every task this simulation holds — the futures of actors
    /// still parked on a channel, an event or a timer, with everything
    /// they captured — and every value a `send_at` still has in flight,
    /// and, once no timer handle is left outside them, the timer store.
    /// The clock and the counters stay as they are; the `Sim` stays
    /// usable, with no task and no pending timer.
    ///
    /// Parked actors hold `Sim` clones and the `Sim` holds their
    /// futures, as it holds the channels of in-flight sends and through
    /// them their values: those cycles are what keep a finished
    /// simulation's stores, channels and payloads alive after its last
    /// outside handle is gone. `hetflow_core::Deployment` calls this
    /// when it is dropped. A no-op while a task is being polled.
    pub fn teardown(&self) {
        let core = &self.core;
        if core.polling.get().is_some() {
            return;
        }
        let tasks = {
            let mut tasks = core.tasks.borrow_mut();
            let first_gen = match tasks.slots.iter().map(|s| s.gen).max() {
                Some(gen) => gen.wrapping_add(1),
                None => tasks.first_gen,
            };
            std::mem::replace(&mut *tasks, TaskSlab { first_gen, ..TaskSlab::default() })
        };
        core.ready.clear();
        core.live_tasks.set(0);
        // Outside every borrow: the futures' destructors re-enter the
        // core (a `Sleep` releases its timer, a closed channel wakes its
        // peer, a destructor may even spawn).
        drop(tasks);
        // Undelivered sends: cancelled in the store, their values dropped
        // outside its borrow (a value's destructor may re-enter it).
        let parked = core.timers.borrow_mut().cancel_releases();
        for (chan, slot) in parked {
            chan.cancel(slot);
        }
        // A `Sleep` kept outside the tasks still holds its slot; then
        // the store stays, so that handle never meets a stranger.
        let mut timers = core.timers.borrow_mut();
        let unheld = timers.free.len() == timers.slab.len();
        let freed = unheld.then(|| std::mem::take(&mut *timers));
        drop(timers);
        drop(freed);
    }

    fn report(&self) -> RunReport {
        RunReport {
            end: self.now(),
            polls: self.core.polls.get(),
            timer_fires: self.core.timer_fires.get(),
            pending_tasks: self.core.live_tasks.get(),
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's output.
///
/// Await it from another task, or pass it to [`Sim::block_on`] from
/// outside the simulation.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the output if the task has finished.
    pub(crate) fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// True once the task has finished (and the output not yet taken).
    #[cfg(test)]
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.result.take() {
            Poll::Ready(v)
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`] /
/// [`Sim::sleep_legs`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    handle: Option<TimerHandle>,
    /// A chained sleep's leg: see [`Sleep::leg`]. It sits in padding.
    leg: u32,
}

const _: () = assert!(std::mem::size_of::<Sleep>() == 32);

impl Sleep {
    /// For a chained sleep that has resolved, the leg its chain stopped
    /// before: the index its [`Legs`] returned `None` for.
    pub fn leg(&self) -> u32 {
        self.leg
    }
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(h) = self.handle {
            let mut timers = self.sim.core.timers.borrow_mut();
            // The fired check releases in the same borrow, so the common
            // completed-sleep path touches the timer store once and
            // `Drop` has nothing left to do.
            return match timers.take_fired(h) {
                Some(leg) => {
                    drop(timers);
                    (self.handle, self.leg) = (None, leg);
                    Poll::Ready(())
                }
                None => {
                    timers.arm(h, self.sim.polled_task(cx), cx.waker());
                    Poll::Pending
                }
            };
        }
        if self.deadline <= self.sim.now() {
            return Poll::Ready(());
        }
        let h = self.sim.register_timer(self.deadline, cx);
        self.handle = Some(h);
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // Eagerly cancel so an abandoned sleep (e.g. the losing arm of a
        // select) neither fires a stale waker nor advances the clock —
        // and its heap entry is removed rather than left as a tombstone.
        if let Some(h) = self.handle.take() {
            self.sim.core.timers.borrow_mut().release(h);
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    sim: Sim,
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let _ = &self.sim;
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;
    use std::cell::RefCell as StdRefCell;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn empty_sim_quiesces_at_zero() {
        let sim = Sim::new();
        let r = sim.run();
        assert_eq!(r.end, SimTime::ZERO);
        assert_eq!(r.pending_tasks, 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.5)).await;
            assert_eq!(s.now(), SimTime::from_millis(1500));
        });
        let r = sim.run();
        assert_eq!(r.end, SimTime::from_millis(1500));
        assert_eq!(r.pending_tasks, 0);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            s.sleep(secs(2.0)).await;
            s.now()
        });
        let end = sim.block_on(h);
        assert_eq!(end, SimTime::from_secs(3));
    }

    #[test]
    fn concurrent_tasks_interleave_by_time() {
        let sim = Sim::new();
        let log: Rc<StdRefCell<Vec<(&str, SimTime)>>> = Rc::default();
        for (name, delay) in [("b", 2.0), ("a", 1.0), ("c", 3.0)] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(secs(delay)).await;
                log.borrow_mut().push((name, s.now()));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(
            log.as_slice(),
            &[
                ("a", SimTime::from_secs(1)),
                ("b", SimTime::from_secs(2)),
                ("c", SimTime::from_secs(3))
            ]
        );
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let sim = Sim::new();
        let log: Rc<StdRefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(secs(1.0)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(log.borrow().as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(Duration::ZERO).await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::ZERO);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            42u32
        });
        assert_eq!(sim.block_on(h), 42);
    }

    #[test]
    fn join_handle_awaitable_from_other_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let inner = sim.spawn(async move {
            s.sleep(secs(2.0)).await;
            7u32
        });
        let s2 = sim.clone();
        let outer = sim.spawn(async move {
            let v = inner.await;
            (v, s2.now())
        });
        let (v, t) = sim.block_on(outer);
        assert_eq!(v, 7);
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn nested_spawn_runs() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let s2 = s.clone();
            let child = s.spawn(async move {
                s2.sleep(secs(1.0)).await;
                "child done"
            });
            child.await
        });
        assert_eq!(sim.block_on(h), "child done");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            s.sleep(secs(10.0)).await;
            done2.set(true);
        });
        let r = sim.run_until(SimTime::from_secs(5));
        assert_eq!(r.end, SimTime::from_secs(5));
        assert!(!done.get());
        assert_eq!(r.pending_tasks, 1);
        // Continue to completion.
        let r = sim.run();
        assert_eq!(r.end, SimTime::from_secs(10));
        assert!(done.get());
    }

    #[test]
    fn run_until_with_no_timers_jumps_clock() {
        let sim = Sim::new();
        let r = sim.run_until(SimTime::from_secs(9));
        assert_eq!(r.end, SimTime::from_secs(9));
    }

    #[test]
    fn yield_now_lets_peers_run_at_same_instant() {
        let sim = Sim::new();
        let log: Rc<StdRefCell<Vec<&str>>> = Rc::default();
        let s = sim.clone();
        let l1 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            s.yield_now().await;
            l1.borrow_mut().push("a2");
        });
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
        });
        let r = sim.run();
        assert_eq!(log.borrow().as_slice(), &["a1", "b1", "a2"]);
        assert_eq!(r.end, SimTime::ZERO);
    }

    #[test]
    fn dropped_sleep_does_not_advance_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let long = s.sleep(secs(100.0));
            drop(long); // e.g. losing select arm
            s.sleep(secs(1.0)).await;
        });
        let r = sim.run();
        assert_eq!(r.end, SimTime::from_secs(1));
    }

    #[test]
    fn many_tasks_deterministic() {
        let run = || {
            let sim = Sim::new();
            let acc: Rc<StdRefCell<Vec<u64>>> = Rc::default();
            for i in 0..200u64 {
                let s = sim.clone();
                let acc = Rc::clone(&acc);
                sim.spawn(async move {
                    s.sleep(secs(((i * 37) % 17) as f64 * 0.1)).await;
                    acc.borrow_mut().push(i);
                });
            }
            sim.run();
            let order = acc.borrow().clone();
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "quiescent")]
    fn block_on_panics_on_deadlock() {
        let sim = Sim::new();
        // A task that waits on a JoinHandle that can never complete
        // because nothing drives the inner future.
        let (never, _keep) = {
            let inner: JoinHandle<()> = JoinHandle {
                state: Rc::new(RefCell::new(JoinState { result: None, waker: None })),
            };
            (inner, ())
        };
        let h = sim.spawn(never);
        sim.block_on(h);
    }

    #[test]
    fn report_counts_polls_and_timers() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..3 {
                s.sleep(secs(1.0)).await;
            }
        });
        let r = sim.run();
        assert_eq!(r.timer_fires, 3);
        assert!(r.polls >= 4);
    }

    /// Spawns `n` tasks that all sleep until the same instant and
    /// records the order their timers fire in.
    fn equal_deadline_order(shuffle: Option<u64>) -> Vec<u64> {
        let sim = match shuffle {
            Some(seed) => Sim::with_tie_shuffle(seed),
            None => Sim::new(),
        };
        let acc: Rc<StdRefCell<Vec<u64>>> = Rc::default();
        for i in 0..16u64 {
            let s = sim.clone();
            let acc = Rc::clone(&acc);
            sim.spawn(async move {
                s.sleep(secs(5.0)).await;
                acc.borrow_mut().push(i);
            });
        }
        sim.run();
        let order = acc.borrow().clone();
        order
    }

    #[test]
    fn tie_shuffle_perturbs_equal_deadlines_deterministically() {
        let fifo = equal_deadline_order(None);
        assert_eq!(fifo, (0..16).collect::<Vec<_>>(), "default mode is FIFO");
        let a = equal_deadline_order(Some(7));
        assert_eq!(a, equal_deadline_order(Some(7)), "same shuffle seed replays");
        assert_ne!(a, fifo, "shuffle should perturb same-instant order");
        assert_ne!(a, equal_deadline_order(Some(8)), "seeds should differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation, no loss");
    }

    #[test]
    fn tie_shuffle_preserves_time_order_across_deadlines() {
        let sim = Sim::with_tie_shuffle(3);
        let acc: Rc<StdRefCell<Vec<u64>>> = Rc::default();
        for i in 0..10u64 {
            let s = sim.clone();
            let acc = Rc::clone(&acc);
            sim.spawn(async move {
                s.sleep(secs((10 - i) as f64)).await;
                acc.borrow_mut().push(i);
            });
        }
        sim.run();
        // Distinct deadlines: the shuffle never reorders across time.
        assert_eq!(acc.borrow().clone(), (0..10u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn short_sleep_after_truncated_run_fires_before_the_far_timer() {
        // run_until peeks the far timer, then leaves the clock at its own
        // deadline, well short of it. Sleeps registered afterwards have
        // earlier deadlines than a timer the store has already looked
        // at, and must still fire first, in order.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1000.0)).await;
        });
        sim.run_until(SimTime::from_secs(5));
        let log: Rc<StdRefCell<Vec<&str>>> = Rc::default();
        for (name, d) in [("near", 1.0), ("nearer", 0.5)] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(secs(d)).await;
                log.borrow_mut().push(name);
            });
        }
        let r = sim.run();
        assert_eq!(log.borrow().as_slice(), &["nearer", "near"]);
        assert_eq!(r.end, SimTime::from_secs(1000));
    }

    #[test]
    fn task_slot_reuse_ignores_stale_wakes() {
        // Complete a task, then spawn enough new ones to recycle its
        // slot; a stale waker for the finished task must not poll the
        // newcomer (generation mismatch).
        let sim = Sim::new();
        let h = sim.spawn(async {});
        sim.run();
        assert!(h.is_finished());
        let s = sim.clone();
        let h2 = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            11u32
        });
        // Stale id: index 0, generation 0 (the finished task).
        sim.core.ready.push(pack_task(0, 0));
        assert_eq!(sim.block_on(h2), 11);
    }

    // -----------------------------------------------------------------
    // Property tests: the store fires in exactly the order a plain
    // `BinaryHeap` reference does under random insert/cancel/pop/peek
    // scripts, and keeps its own invariants after every step.
    // -----------------------------------------------------------------

    /// Reference timer store, reduced to its essence: a min-heap of
    /// `(at, tie, seq)` with lazy cancellation.
    #[derive(Default)]
    struct HeapRef {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        cancelled: std::collections::BTreeSet<u64>,
    }

    impl HeapRef {
        fn insert(&mut self, at: u64, tie: u64, seq: u64) {
            self.heap.push(Reverse((at, tie, seq)));
        }
        fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
        }
        fn peek(&mut self) -> Option<u64> {
            while let Some(&Reverse((at, _, seq))) = self.heap.peek() {
                if self.cancelled.contains(&seq) {
                    self.heap.pop();
                } else {
                    return Some(at);
                }
            }
            None
        }
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            while let Some(Reverse((at, tie, seq))) = self.heap.pop() {
                if !self.cancelled.contains(&seq) {
                    return Some((at, tie, seq));
                }
            }
            None
        }
    }

    impl TimerHeap {
        /// The store's structural invariants: every heap entry's slab
        /// slot points back at it, every parent fires before its
        /// children, and the free list is exactly the `Loc::Free` slots.
        fn check(&self) {
            for (p, e) in self.heap.iter().enumerate() {
                let loc = self.slab[e.idx as usize].loc;
                assert_eq!(loc, Loc::Heap(p as u32), "back-pointer of heap[{p}]");
                if p > 0 {
                    assert!(self.heap[(p - 1) / 2].key < e.key, "heap property at {p}");
                }
            }
            let pending = self.slab.iter().filter(|s| matches!(s.loc, Loc::Heap(_))).count();
            assert_eq!(pending, self.heap.len(), "a slab slot claims a heap entry that is gone");
            let mut free = self.free.clone();
            free.sort_unstable();
            let is_free = |i: &u32| self.slab[*i as usize].loc == Loc::Free;
            let marked: Vec<u32> = (0..self.slab.len() as u32).filter(is_free).collect();
            assert_eq!(free, marked, "free list and Loc::Free disagree");
            let kept = self.free.iter().filter(|&&i| self.slab[i as usize].chain.is_some()).count();
            assert_eq!(kept, 0, "a free slot kept its chain");
        }

        /// The quiescence law: nothing pending and every slab slot free.
        fn assert_quiescent(&self) {
            self.check();
            assert!(self.heap.is_empty(), "{} timers still pending", self.heap.len());
            assert_eq!(self.free.len(), self.slab.len(), "a slab slot outlived its Sleep");
        }
    }

    /// A waker that counts its wakes — the kind the executor did not make.
    #[derive(Default)]
    struct CountingWake(AtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Legs the store never draws: in these scripts the test re-keys a
    /// chained slot itself, as `fire_next_timer` would.
    struct NoLegs;

    impl Legs for NoLegs {
        fn leg(&self, _: LegKey, _: u32) -> Option<Duration> {
            None
        }
    }

    /// Drives the store and the reference through one random script.
    /// `percent` = cumulative thresholds out of 100 for insert / cancel /
    /// pop (the rest peek); below `floor` live timers every step inserts;
    /// `deadline` draws an absolute deadline. Each timer is armed, at
    /// random, with a task id (its number) or a counting waker, and a
    /// pop must hand back exactly what was armed. A third of the timers
    /// are chained sleeps of 2–4 legs: each leg's pop leaves the slot at
    /// the root to take a fresh key, and only the last one wakes. Returns
    /// the peak depth.
    fn store_matches_reference_script(
        seed: u64,
        shuffled_ties: bool,
        steps: usize,
        floor: usize,
        percent: [u64; 3],
        mut deadline: impl FnMut(&mut SimRng, u64) -> u64,
    ) -> usize {
        let mut rng = SimRng::from_seed(seed);
        let mut store = TimerHeap::default();
        let mut reference = HeapRef::default();
        let foreign = Arc::new(CountingWake::default());
        let foreign_waker = Waker::from(Arc::clone(&foreign));
        let no_legs: Rc<dyn Legs> = Rc::new(NoLegs);
        // Indexed by id: was the timer armed with the foreign waker?
        let mut armed_foreign: Vec<bool> = Vec::new();
        let mut foreign_fired = 0;
        /// A popped chained slot with legs left, which `fire` re-keys.
        fn more_legs(fire: &Fire) -> bool {
            matches!(fire, Fire::Leg(_, (_, (_, legs)), leg) if u64::from(*leg) < *legs)
        }
        // Live timers: current `seq` (a re-keyed leg's is fresh), id, handle.
        let mut live: Vec<(u64, u64, TimerHandle)> = Vec::new();
        let (mut now, mut seq, mut peak) = (0u64, 0u64, 0);
        let mut key = |rng: &mut SimRng, now: u64, seq: &mut u64| {
            let tie = if shuffled_ties { rng.next_u64() } else { 0 };
            *seq += 1;
            (deadline(rng, now), tie, *seq - 1)
        };
        // Handles the timer `store.pop()` fired with key `k`: re-keys a
        // chained slot with legs left under `next`, else checks whom it
        // wakes and, like its `Sleep`'s next poll, releases it.
        let mut fire = |store: &mut TimerHeap,
                        live: &mut Vec<(u64, u64, TimerHandle)>,
                        armed_foreign: &[bool],
                        (at, _, s): TimerKey,
                        fire: Fire,
                        next: Option<TimerKey>| {
            let i = live.iter().position(|&(ls, ..)| ls == s).expect("fired a live timer");
            let wake = match fire {
                Fire::Leg(h, chain, leg) => {
                    assert_eq!(live[i].2, h, "a leg fired for a stranger");
                    if let Some(next) = next {
                        store.rekey(h, next, chain, leg + 1);
                        live[i].0 = next.2;
                        return;
                    }
                    store.end_chain(h, leg)
                }
                Fire::Wake(wake) => wake,
            };
            let (_, id, h) = live.swap_remove(i);
            match wake {
                Wakeup::Task(task) => assert_eq!(task, id, "woke another timer's task"),
                Wakeup::Foreign(w) => {
                    assert!(armed_foreign[id as usize], "timer {id} was armed with an id");
                    w.wake();
                    foreign_fired += 1;
                }
                _ => panic!("timer {id} fired at {at} with nobody to wake"),
            }
            // The fired Sleep resolves and releases on its next poll;
            // until then its slot must read as fired.
            assert!(store.take_fired(h).is_some());
            assert_eq!(store.take_fired(h), None, "released handle is stale");
        };
        for _ in 0..steps {
            let roll = rng.next_u64() % 100;
            if roll < percent[0] || live.len() < floor {
                let k = key(&mut rng, now, &mut seq);
                let legs = [0, 0, 0, 2, 3, 4][(rng.next_u64() % 6) as usize];
                let h = match legs {
                    0 => store.register(k.0, k.1, k.2),
                    _ => store.register_chain(k, (Rc::clone(&no_legs), (0, legs)), 1),
                };
                let id = armed_foreign.len() as u64;
                armed_foreign.push(rng.next_u64() & 1 == 1);
                store.arm(h, (!armed_foreign[id as usize]).then_some(id), &foreign_waker);
                reference.insert(k.0, k.1, k.2);
                live.push((k.2, id, h));
                peak = peak.max(store.heap.len());
            } else if roll < percent[1] {
                if !live.is_empty() {
                    let i = (rng.next_u64() % live.len() as u64) as usize;
                    let (s, _, h) = live.swap_remove(i);
                    store.release(h);
                    reference.cancel(s);
                }
            } else if roll < percent[2] {
                let fired = store.pop();
                let got = fired.as_ref().map(|(key, _)| *key);
                assert_eq!(got, reference.pop(), "pop diverged (seed {seed})");
                if let Some((k, f)) = fired {
                    now = k.0;
                    let next = more_legs(&f).then(|| key(&mut rng, now, &mut seq));
                    if let Some(n) = next {
                        reference.insert(n.0, n.1, n.2);
                    }
                    fire(&mut store, &mut live, &armed_foreign, k, f, next);
                }
            } else {
                assert_eq!(store.peek(), reference.peek(), "peek diverged (seed {seed})");
            }
            store.check();
        }
        // Drain what's left, chains to their last leg: order must match
        // to the end.
        loop {
            let fired = store.pop();
            let got = fired.as_ref().map(|(key, _)| *key);
            assert_eq!(got, reference.pop(), "drain diverged (seed {seed})");
            store.check();
            let Some((k, f)) = fired else { break };
            now = k.0;
            let next = more_legs(&f).then(|| key(&mut rng, now, &mut seq));
            if let Some(n) = next {
                reference.insert(n.0, n.1, n.2);
            }
            fire(&mut store, &mut live, &armed_foreign, k, f, next);
            store.check();
        }
        assert!(live.is_empty(), "a live timer was never fired");
        store.assert_quiescent();
        assert_eq!(foreign.0.load(Ordering::Relaxed), foreign_fired, "a foreign wake was lost");
        assert_eq!(Arc::strong_count(&foreign), 2, "the store kept a waker past its timer");
        assert_eq!(Rc::strong_count(&no_legs), 1, "the store kept a chain past its sleep");
        peak
    }

    /// Deltas spread from 1 ns to 2^37 ns so scripts mix near and far
    /// deadlines.
    fn spread_deadline(rng: &mut SimRng, now: u64) -> u64 {
        let span = rng.next_u64() % 38;
        now.saturating_add(1 + (rng.next_u64() % (1u64 << span)))
    }

    #[test]
    fn store_pops_in_reference_order_fifo_ties() {
        for seed in [1u64, 2, 3, 42, 2026] {
            store_matches_reference_script(seed, false, 4000, 0, [55, 70, 90], spread_deadline);
        }
    }

    #[test]
    fn store_pops_in_reference_order_shuffled_ties() {
        for seed in [5u64, 6, 7, 99, 517] {
            store_matches_reference_script(seed, true, 4000, 0, [55, 70, 90], spread_deadline);
        }
    }

    /// `overload_fnx`-shaped traffic, harsher: the store is held at a
    /// thousand live timers or more, 40 % of steps release one from the
    /// middle of the heap, and deadlines collide (16 distinct instants
    /// ahead of `now`) so random ties decide most of the order.
    #[test]
    fn deep_store_with_mid_heap_releases_and_colliding_deadlines() {
        for seed in [11u64, 12, 13] {
            let colliding = |rng: &mut SimRng, now: u64| now + 1_000 * (1 + rng.next_u64() % 16);
            let peak =
                store_matches_reference_script(seed, true, 8_000, 1_000, [45, 85, 97], colliding);
            assert!(peak > 1_000, "script too shallow to mean anything: peak {peak}");
        }
    }

    #[test]
    fn quiescent_sim_leaves_the_timer_store_empty() {
        // Fired, cancelled-while-pending and never-polled sleeps all hand
        // their slots back by the time the run is quiescent.
        let sim = Sim::new();
        for i in 0..50u64 {
            let s = sim.clone();
            sim.spawn(async move {
                let lost = Box::pin(s.sleep(secs(100.0 + i as f64)));
                let won = Box::pin(s.sleep(secs(1.0 + (i % 7) as f64)));
                crate::combinators::select2(won, lost).await;
                drop(s.sleep(secs(5.0)));
                s.sleep(secs(0.5)).await;
            });
        }
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0);
        assert_eq!(r.end, SimTime::from_millis(7500), "cancelled sleeps never advance the clock");
        sim.core.timers.borrow().assert_quiescent();
    }

    /// Polls `fut` once with `waker`, outside any executor.
    fn poll_by_hand<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(waker))
    }

    #[test]
    fn sleep_under_a_foreign_waker_fires_through_the_waker_arm() {
        let sim = Sim::new();
        let count = Arc::new(CountingWake::default());
        let waker = Waker::from(Arc::clone(&count));
        let mut nap = sim.sleep(secs(2.0));
        assert!(poll_by_hand(&mut nap, &waker).is_pending());
        assert_eq!(Arc::strong_count(&count), 3, "the timer holds a clone of the foreign waker");
        // Re-polled before it fires: the registration already names
        // this waker, so it is not cloned again.
        assert!(poll_by_hand(&mut nap, &waker).is_pending());
        assert_eq!(Arc::strong_count(&count), 3);
        let r = sim.run();
        assert_eq!((r.end, r.timer_fires), (SimTime::from_secs(2), 1));
        assert_eq!(count.0.load(Ordering::Relaxed), 1, "woken exactly once, through the waker");
        assert!(poll_by_hand(&mut nap, &waker).is_ready());
        sim.core.timers.borrow().assert_quiescent();
    }

    #[test]
    fn sleep_started_in_one_task_and_finished_in_another_wakes_the_second() {
        let sim = Sim::new();
        let (tx, rx) = crate::channel::channel::<Sleep>();
        let s = sim.clone();
        sim.spawn_detached(async move {
            let mut nap = s.sleep(secs(5.0));
            // First poll here: the timer is armed with this task's id.
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut nap).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            assert!(tx.send_now(nap).is_ok());
        });
        let s = sim.clone();
        let woke_at = sim.spawn(async move {
            rx.recv().await.expect("the first task sent its sleep").await;
            s.now()
        });
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0, "the second task was never woken");
        assert_eq!(sim.block_on(woke_at), SimTime::from_secs(5));
    }

    #[test]
    fn timer_naming_a_finished_task_wakes_nobody() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_detached(async move {
            let mut nap = s.sleep(secs(5.0));
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut nap).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            // Leaks the timer with this task's id in it; the task ends.
            std::mem::forget(nap);
        });
        sim.run_until(SimTime::from_secs(1));
        // The freed slot's next tenant: same index, next generation.
        let polls = Rc::new(Cell::new(0u32));
        let (s, p) = (sim.clone(), Rc::clone(&polls));
        sim.spawn_detached(async move {
            let mut nap = s.sleep(secs(9.0));
            std::future::poll_fn(|cx| {
                p.set(p.get() + 1);
                Pin::new(&mut nap).poll(cx)
            })
            .await;
        });
        assert_eq!(sim.core.tasks.borrow().slots.len(), 1, "the slot was recycled");
        let r = sim.run();
        assert_eq!((r.end, r.timer_fires, r.pending_tasks), (SimTime::from_secs(10), 2, 0));
        assert_eq!(polls.get(), 2, "the stale timer at t=5 did not poll the new tenant");
    }

    #[test]
    fn detached_spawns_in_a_loop_reuse_one_waker_allocation() {
        // hetbench's `sim.spawn_detached.allocs_per_op` 1.000: the boxed
        // future is the only allocation, because a task that slept left
        // no clone of its waker behind.
        let sim = Sim::new();
        let mut first = None;
        for i in 0..100u64 {
            let s = sim.clone();
            sim.spawn_detached(async move {
                s.sleep(secs(1.0)).await;
                s.timeout(secs(2.0), s.sleep(secs(1.0 + (i % 3) as f64))).await.ok();
            });
            sim.run();
            let tasks = sim.core.tasks.borrow();
            assert_eq!(tasks.slots.len(), 1);
            let at = Arc::as_ptr(&tasks.slots[0].waker_arc);
            assert_eq!(*first.get_or_insert(at), at, "spawn {i} allocated a fresh TaskWaker");
            assert_eq!(Arc::strong_count(&tasks.slots[0].waker_arc), 2);
        }
    }

    #[test]
    fn store_handles_extreme_deadlines() {
        let mut store = TimerHeap::default();
        let far = store.register(u64::MAX, 0, 0);
        let near = store.register(1, 0, 1);
        assert_eq!(store.peek(), Some(1));
        let f = store.pop().map(|((at, ..), _)| at);
        assert_eq!(f, Some(1));
        store.release(near);
        assert_eq!(store.pop().map(|((at, ..), _)| at), Some(u64::MAX));
        store.release(far);
        assert_eq!(store.pop().map(|((at, ..), _)| at), None);
        store.assert_quiescent();
    }

    #[test]
    fn teardown_frees_parked_actors_and_leaves_the_sim_usable() {
        let sim = Sim::new();
        let marker = Rc::new(());
        // Two actors parked on each other's channels, each holding the
        // `Sim`: a cycle nothing but teardown breaks.
        let (tx_a, rx_a) = crate::channel::channel::<()>();
        let (tx_b, rx_b) = crate::channel::channel::<()>();
        for (rx, tx) in [(rx_a, tx_b), (rx_b, tx_a)] {
            let (s, m) = (sim.clone(), Rc::clone(&marker));
            sim.spawn_detached(async move {
                let _keep = (s, m, tx);
                rx.recv().await;
            });
        }
        let s = sim.clone();
        sim.spawn_detached(async move { s.sleep(secs(50.0)).await });
        // Sends still in flight, into a channel read by a parked actor:
        // timer store → channel → value → `Sim`, the cycle a send adds.
        let (tx, rx) = crate::channel::channel::<(Sim, Rc<()>)>();
        sim.spawn_detached(async move { while rx.recv().await.is_some() {} });
        for at in [20, 30] {
            tx.send_at(&sim, SimTime::from_secs(at), (sim.clone(), Rc::clone(&marker)));
        }
        drop(tx);
        let r = sim.run_until(SimTime::from_secs(10));
        assert_eq!(r.pending_tasks, 4);
        let stale = pack_task(0, 0);
        sim.teardown();
        assert_eq!(Rc::strong_count(&marker), 1, "the parked actors' captures were dropped");
        sim.core.timers.borrow().assert_quiescent();
        assert!(sim.core.timers.borrow().slab.is_empty(), "the timer store was given back");
        // Still a working simulation, at the same instant, with nothing
        // left to do; a wake-up naming a dropped task polls nobody.
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            s.now()
        });
        sim.core.ready.push(stale);
        assert_eq!(sim.block_on(h), SimTime::from_secs(11));
        let r = sim.run();
        assert_eq!((r.end, r.pending_tasks), (SimTime::from_secs(11), 0));
    }

    /// 3 000 waiters woken at one instant: 1 024 fit the ready ring, the
    /// rest spill. They poll in wake order, and a wake made while the
    /// spill is non-empty polls after every spilled id.
    #[test]
    fn a_burst_past_the_ready_ring_spills_and_keeps_wake_order() {
        const WAITERS: usize = 3_000;
        let sim = Sim::new();
        let (burst, late) = (crate::sync::Event::new(), crate::sync::Event::new());
        let log: Rc<StdRefCell<Vec<usize>>> = Rc::default();
        let spilled_at_first_poll = Rc::new(Cell::new(false));
        // Parked first, woken last: by waiter 0, from the ring, while
        // the other 1 976 are still in the overflow.
        let (l, ev) = (Rc::clone(&log), late.clone());
        sim.spawn_detached(async move {
            ev.wait().await;
            l.borrow_mut().push(WAITERS);
        });
        for i in 0..WAITERS {
            let (l, ev, late) = (Rc::clone(&log), burst.clone(), late.clone());
            let (s, spilled) = (sim.clone(), Rc::clone(&spilled_at_first_poll));
            sim.spawn_detached(async move {
                ev.wait().await;
                if i == 0 {
                    spilled.set(s.core.ready.spilled.load(Ordering::Relaxed));
                    late.set();
                }
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        burst.set();
        let r = sim.run();
        assert!(spilled_at_first_poll.get(), "the burst never reached the overflow");
        assert_eq!(r.pending_tasks, 0);
        assert_eq!(*log.borrow(), (0..=WAITERS).collect::<Vec<_>>());
        assert!(!sim.core.ready.spilled.load(Ordering::Relaxed), "drained back to the ring");
    }

    #[test]
    fn teardown_inside_a_poll_is_a_no_op() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.teardown();
            s.sleep(secs(1.0)).await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(1));
    }

    #[test]
    fn teardown_keeps_the_timer_store_while_an_outside_sleep_holds_a_slot() {
        let sim = Sim::new();
        let count = Arc::new(CountingWake::default());
        let waker = Waker::from(Arc::clone(&count));
        let mut nap = sim.sleep(secs(2.0));
        assert!(poll_by_hand(&mut nap, &waker).is_pending());
        sim.teardown();
        let r = sim.run();
        assert_eq!((r.end, count.0.load(Ordering::Relaxed)), (SimTime::from_secs(2), 1));
        assert!(poll_by_hand(&mut nap, &waker).is_ready());
    }

    #[test]
    fn block_on_runs_what_the_final_poll_woke() {
        // The timer polls the awaited task to completion inside
        // `fire_next_timer`; the receiver its last poll woke must still
        // run before `block_on` returns.
        let sim = Sim::new();
        let (tx, rx) = crate::channel::channel::<()>();
        let got = Rc::new(Cell::new(false));
        let g = Rc::clone(&got);
        sim.spawn_detached(async move {
            rx.recv().await;
            g.set(true);
        });
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            assert!(tx.send_now(()).is_ok());
        });
        sim.block_on(h);
        assert!(got.get(), "block_on returned before the woken receiver ran");
    }

    // -----------------------------------------------------------------
    // Chained sleeps against the sequential sleeps they replace.
    // -----------------------------------------------------------------

    /// One actor's part of a script.
    #[derive(Clone, Copy)]
    struct Plan {
        legs: u32,
        /// Leg `.0` is held, as an offline endpoint holds a transit,
        /// until the instant `.1`.
        hold: Option<(u32, SimTime)>,
        /// Dropped mid-chain, by a timeout, this long after it starts.
        drop_after: Option<Duration>,
    }

    /// N actors' "draw, sleep" legs, drawn from one shared stream: 0–3 ms,
    /// so that zero legs occur and deadlines collide, and `seq` and ties
    /// decide their order.
    struct Script {
        sim: Sim,
        rng: StdRefCell<SimRng>,
        plans: Vec<Plan>,
    }

    impl Script {
        fn draw(&self) -> Duration {
            Duration::from_millis(self.rng.borrow_mut().next_u64() % 4)
        }

        fn held(&self, actor: usize, leg: u32) -> bool {
            matches!(self.plans[actor].hold, Some((at, until)) if at == leg && self.sim.now() < until)
        }
    }

    impl Legs for Script {
        fn leg(&self, (actor, _): LegKey, leg: u32) -> Option<Duration> {
            let actor = actor as usize;
            (leg < self.plans[actor].legs && !self.held(actor, leg)).then(|| self.draw())
        }
    }

    /// What one run of a script shows: the fire log, the shared stream's
    /// next draw, the run report, and the expected poll saving — legs
    /// that fired, less one for each chain a fired leg ended.
    struct ScriptRun {
        fired: Vec<(u64, u64)>,
        rng_next: u64,
        report: RunReport,
        saved_polls: u64,
    }

    fn run_script(seed: u64, shuffle: Option<u64>, holds: bool, chained: bool) -> ScriptRun {
        let sim = shuffle.map_or_else(Sim::new, Sim::with_tie_shuffle);
        let mut plan_rng = SimRng::from_seed(seed);
        let plans = (0..24)
            .map(|_| {
                let legs = 1 + (plan_rng.next_u64() % 6) as u32;
                let hold_at = (plan_rng.next_u64() % u64::from(legs)) as u32;
                let until = SimTime::from_millis(1 + plan_rng.next_u64() % 12);
                let drop_after = Duration::from_millis(1 + plan_rng.next_u64() % 15);
                let (held, dropped) = (plan_rng.next_u64(), plan_rng.next_u64());
                Plan {
                    legs,
                    hold: (holds && held.is_multiple_of(3)).then_some((hold_at, until)),
                    drop_after: dropped.is_multiple_of(3).then_some(drop_after),
                }
            })
            .collect();
        let rng = StdRefCell::new(SimRng::from_seed(seed ^ 0xC4A1));
        let script = Rc::new(Script { sim: sim.clone(), rng, plans });
        let saved = Rc::new(Cell::new(0u64));
        for actor in 0..script.plans.len() {
            let (sc, saved) = (Rc::clone(&script), Rc::clone(&saved));
            let plan = sc.plans[actor];
            let body = async move {
                let mut fired = 0;
                if chained {
                    let mut leg = 0;
                    loop {
                        let legs: Rc<dyn Legs> = Rc::<Script>::clone(&sc);
                        let mut chain = sc.sim.sleep_legs(legs, (actor as u32, 0), leg);
                        (&mut chain).await;
                        leg = chain.leg();
                        if leg == plan.legs {
                            break;
                        }
                        let until = plan.hold.map_or(SimTime::ZERO, |(_, until)| until);
                        sc.sim.sleep_until(until).await;
                    }
                } else {
                    for leg in 0..plan.legs {
                        if sc.held(actor, leg) {
                            let until = plan.hold.map_or(SimTime::ZERO, |(_, until)| until);
                            sc.sim.sleep_until(until).await;
                        }
                        let d = sc.draw();
                        sc.sim.sleep(d).await;
                        if !d.is_zero() {
                            fired += 1;
                            saved.set(saved.get() + 1);
                        }
                    }
                    if fired > 0 {
                        saved.set(saved.get() - 1);
                    }
                }
            };
            let s = sim.clone();
            match plan.drop_after {
                Some(after) => sim.spawn_detached(async move {
                    s.timeout(after, body).await.ok();
                }),
                None => sim.spawn_detached(body),
            }
        }
        // `Sim::run`'s loop, logging the key of each timer as it fires.
        let mut fired = Vec::new();
        loop {
            sim.drain_ready();
            let Some(e) = sim.core.timers.borrow().heap.first().copied() else { break };
            fired.push((e.key.0, e.key.2));
            sim.fire_next_timer();
        }
        let report = sim.report();
        sim.core.timers.borrow().assert_quiescent();
        let rng_next = script.rng.borrow_mut().next_u64();
        ScriptRun { fired, rng_next, report, saved_polls: saved.get() }
    }

    #[test]
    fn chained_legs_fire_and_draw_as_sequential_sleeps_do() {
        let mut saved_total = 0;
        for seed in 0..16u64 {
            for shuffle in [None, Some(seed + 100)] {
                for holds in [false, true] {
                    let seq = run_script(seed, shuffle, holds, false);
                    let chain = run_script(seed, shuffle, holds, true);
                    let case = format!("seed {seed}, shuffle {shuffle:?}, holds {holds}");
                    assert_eq!(chain.fired, seq.fired, "(fire time, seq) diverged: {case}");
                    assert_eq!(chain.rng_next, seq.rng_next, "draws diverged: {case}");
                    assert_eq!(chain.report.end, seq.report.end, "{case}");
                    assert_eq!(chain.report.timer_fires, seq.report.timer_fires, "{case}");
                    assert_eq!(chain.report.pending_tasks, 0, "{case}");
                    if !holds {
                        // A chain polls its task once where the sleeps
                        // polled it at every leg's fire; a dropped one
                        // not at all until its timeout.
                        let saved = seq.report.polls - chain.report.polls;
                        assert_eq!(saved, seq.saved_polls, "poll saving: {case}");
                        saved_total += saved;
                    }
                }
            }
        }
        assert!(saved_total > 500, "scripts too short to mean anything: {saved_total} polls saved");
    }
}
