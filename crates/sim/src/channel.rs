//! Message channels between simulated actors.
//!
//! [`channel`] gives a multi-producer/multi-consumer FIFO — the workhorse
//! for task queues, result queues, and worker pools. It is unbounded by
//! construction, but callers choose the capacity contract per send:
//! [`Sender::send`] awaits room on a [`bounded`] channel,
//! [`Sender::send_now`] never waits, and [`Sender::offer`] enforces a
//! caller-side capacity with a deterministic [`OverflowPolicy`] (reject
//! the arrival or shed the lowest-priority item) — the primitive behind
//! the fabric's overload protection.
//!
//! Channels transport values instantaneously in virtual time; latency is
//! modelled explicitly by the sender, which keeps cost models visible at
//! the call site rather than hidden in plumbing. [`Sender::send_at`] is
//! the discrete-event *event-scheduling* form of "sleep, then send": the
//! value is parked in the channel and one timer entry releases it at its
//! instant — no actor, no poll. An actor that really waits on something
//! still sleeps and sends.
//!
//! Waiting is allocation-free on the steady state: each pending
//! `recv()`/`send()` future owns one reusable slot in a `WakerPool`
//! rather than pushing a cloned [`Waker`] into a queue on every poll.
//! Re-polls refresh the slot in place (`will_wake` skips the clone), a
//! released slot keeps its waker so the next future of the same task
//! re-registers clone-free, and FIFO wake order is preserved by a queue
//! of generation-checked slot handles.
//!
//! Dropping a `recv()` future mid-wait (racing it in `select2` /
//! `timeout`) is safe: an un-notified waiter leaves a stale handle that
//! wake-one skips, and a waiter dropped *after* it consumed a wakeup
//! passes that wakeup to the next waiter, so a queued item is never
//! stranded. (Earlier revisions documented this as a caveat; it is now
//! a tested guarantee.)

use crate::executor::{Parked, Sim};
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by bounded sends that would block forever.
#[derive(Debug, PartialEq, Eq)]
pub struct ClosedError;

/// What to do when an [`Sender::offer`] arrives at a full queue. Both
/// policies are deterministic functions of queue contents — no RNG — so
/// same-seed runs shed the same tasks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Refuse the arrival; the queue is untouched.
    #[default]
    Reject,
    /// Evict the lowest-priority item (oldest among ties). When the
    /// arrival itself has the strictly lowest priority, it is the one
    /// refused.
    ShedLowestPriority,
}

/// Outcome of [`Sender::offer`]: either the value was queued with room to
/// spare, or the policy displaced a victim (possibly the arrival itself),
/// or the channel is closed.
#[derive(Debug, PartialEq, Eq)]
pub enum Offered<T> {
    /// The arrival was queued without evicting anything.
    Accepted,
    /// The queue was full: the policy picked this victim (which may be
    /// the arrival itself under `Reject` / `ShedLowestPriority`). The
    /// caller owns its accounting — synthesize a shed outcome, trace it.
    Displaced(T),
    /// Every receiver is gone; the arrival is handed back.
    Closed(T),
}

/// Handle to a [`WakerPool`] slot: index plus the generation at
/// registration, so a released slot's next tenant is never confused
/// with the old one.
type SlotHandle = (u32, u32);

struct WakerSlot {
    /// The registered waker. Kept across release so a task that waits
    /// on the same channel repeatedly (every worker loop) re-registers
    /// without cloning: `will_wake` recognizes it.
    waker: Option<Waker>,
    generation: u32,
    /// A wake was delivered to this slot's future and not yet consumed
    /// by a poll.
    notified: bool,
}

/// Pool of reusable waker slots with FIFO wake order.
///
/// One slot per *pending future*, registered on first poll and held
/// until the future completes or drops — not one cloned `Waker` per
/// poll. The wait queue holds generation-checked handles; stale entries
/// (futures that released their slot while queued) are skipped at wake
/// time, which costs nothing on the happy path and makes dropping a
/// waiting future safe.
#[derive(Default)]
struct WakerPool {
    slots: Vec<WakerSlot>,
    free: Vec<u32>,
    /// FIFO of waiting registrants.
    queue: VecDeque<SlotHandle>,
}

impl WakerPool {
    /// Registers `waker` under `handle` (refreshing in place) or a
    /// fresh slot, enqueueing the future if it is not already waiting.
    fn register(&mut self, handle: Option<SlotHandle>, waker: &Waker) -> SlotHandle {
        if let Some((idx, generation)) = handle {
            let slot = &mut self.slots[idx as usize];
            if slot.generation == generation {
                match &mut slot.waker {
                    Some(w) if w.will_wake(waker) => {}
                    w => *w = Some(waker.clone()),
                }
                if slot.notified {
                    // The wakeup was consumed by this re-poll and the
                    // future found nothing; rejoin the back of the line.
                    slot.notified = false;
                    self.queue.push_back((idx, generation));
                }
                return (idx, generation);
            }
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(WakerSlot { waker: None, generation: 0, notified: false });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.notified = false;
        match &mut slot.waker {
            Some(w) if w.will_wake(waker) => {}
            w => *w = Some(waker.clone()),
        }
        let handle = (idx, slot.generation);
        self.queue.push_back(handle);
        handle
    }

    /// Wakes the longest-waiting live registrant, skipping released
    /// slots. Returns false when no one is waiting.
    fn wake_one(&mut self) -> bool {
        while let Some((idx, generation)) = self.queue.pop_front() {
            let slot = &mut self.slots[idx as usize];
            if slot.generation != generation {
                continue;
            }
            slot.notified = true;
            if let Some(w) = &slot.waker {
                w.wake_by_ref();
            }
            return true;
        }
        false
    }

    /// Wakes every waiting registrant.
    fn wake_all(&mut self) {
        while self.wake_one() {}
    }

    /// Releases `handle` (future completed or dropped). Returns true
    /// when the slot held an unconsumed notification — the caller
    /// decides whether to pass that wakeup to the next waiter.
    fn release(&mut self, handle: SlotHandle) -> bool {
        let (idx, generation) = handle;
        let slot = &mut self.slots[idx as usize];
        if slot.generation != generation {
            return false;
        }
        slot.generation = slot.generation.wrapping_add(1);
        let notified = slot.notified;
        slot.notified = false;
        self.free.push(idx);
        notified
    }
}

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_wakers: WakerPool,
    send_wakers: WakerPool,
    capacity: Option<usize>,
    /// Live `Sender`s plus values parked by `send_at`: a receiver sees
    /// `None` only once nothing can still arrive.
    senders: usize,
    receivers: usize,
    /// Values `send_at` parked until their instant, by slot.
    parked: Vec<Option<T>>,
    free_parked: Vec<u32>,
    /// Instant and tie-break of the latest parked send.
    last_parked: Option<(SimTime, u64)>,
}

impl<T> ChanState<T> {
    /// Queues `value` at the back and wakes the longest-waiting receiver.
    fn push(&mut self, value: T) {
        self.queue.push_back(value);
        self.recv_wakers.wake_one();
    }

    /// One sender fewer; the last one gone wakes every receiver to see
    /// the channel closed.
    fn drop_sender(&mut self) {
        self.senders -= 1;
        if self.senders == 0 {
            self.recv_wakers.wake_all();
        }
    }

    /// Takes the value out of parked `slot`, which stops counting as a
    /// sender once the caller has dealt with the value.
    fn unpark(&mut self, slot: u32) -> Option<T> {
        self.free_parked.push(slot);
        self.parked[slot as usize].take()
    }
}

impl<T> Parked for RefCell<ChanState<T>> {
    fn release(&self, slot: u32) {
        let mut s = self.borrow_mut();
        let mut value = s.unpark(slot);
        if s.receivers > 0 {
            if let Some(v) = value.take() {
                s.push(v);
            }
        }
        s.drop_sender();
        drop(s);
        drop(value);
    }

    fn cancel(&self, slot: u32) {
        let mut s = self.borrow_mut();
        let value = s.unpark(slot);
        s.drop_sender();
        drop(s);
        drop(value);
    }
}

/// Sending half of a channel. Clonable.
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of a channel. Clonable; multiple receivers compete for
/// items (work-sharing), each item is delivered exactly once.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Creates an MPMC FIFO channel with no built-in capacity: every
/// [`Sender::send_now`] succeeds while a receiver exists. Callers that
/// need bounded behavior use [`bounded`] (senders await room) or keep the
/// channel unbounded and police depth at the send site with
/// [`Sender::offer`].
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded MPMC FIFO channel; senders block (in virtual time)
/// while `capacity` items are queued.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel needs capacity >= 1");
    with_capacity(Some(capacity))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_wakers: WakerPool::default(),
        send_wakers: WakerPool::default(),
        capacity,
        senders: 1,
        receivers: 1,
        parked: Vec::new(),
        free_parked: Vec::new(),
        last_parked: None,
    }));
    (Sender { state: Rc::clone(&state) }, Receiver { state })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender { state: Rc::clone(&self.state) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().drop_sender();
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().receivers += 1;
        Receiver { state: Rc::clone(&self.state) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.receivers -= 1;
        if s.receivers == 0 {
            // Senders blocked on capacity must observe closure.
            s.send_wakers.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends without blocking and without respecting capacity: it
    /// succeeds whenever a receiver exists, even past a [`bounded`]
    /// channel's limit. Use [`Sender::send`] to await room or
    /// [`Sender::offer`] for policy-driven shedding.
    pub fn send_now(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.state.borrow_mut();
        if s.receivers == 0 {
            return Err(SendError(value));
        }
        s.push(value);
        Ok(())
    }

    /// Delivers `value` at the instant `at`, as a task that slept until
    /// `at` and then called [`Sender::send_now`] would — without the
    /// task: the value is parked in the channel and one timer entry of
    /// `sim` queues it and wakes one receiver when it fires. `at <= now`
    /// is exactly `send_now`.
    ///
    /// A parked value counts as a sender, so receivers see the channel
    /// open until it lands. If every receiver is gone by then (or
    /// already is), the value is dropped. Parked sends for the instant of
    /// the previous one land behind it even under
    /// [`Sim::with_tie_shuffle`], so sends at non-decreasing instants
    /// arrive in call order. [`Sim::teardown`] drops what is still
    /// parked.
    pub fn send_at(&self, sim: &Sim, at: SimTime, value: T)
    where
        T: 'static,
    {
        let mut s = self.state.borrow_mut();
        if s.receivers == 0 {
            drop(s);
            drop(value);
            return;
        }
        if at <= sim.now() {
            s.push(value);
            return;
        }
        let slot = match s.free_parked.pop() {
            Some(slot) => {
                s.parked[slot as usize] = Some(value);
                slot
            }
            None => {
                s.parked.push(Some(value));
                (s.parked.len() - 1) as u32
            }
        };
        s.senders += 1;
        let tie = s.last_parked.and_then(|(last, tie)| (last == at).then_some(tie));
        drop(s);
        let chan: Rc<dyn Parked> = self.state.clone();
        let tie = sim.register_release(at, tie, chan, slot);
        self.state.borrow_mut().last_parked = Some((at, tie));
    }

    /// Sends, awaiting capacity on bounded channels.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture { sender: self, value: Some(value), slot: None }
    }

    /// Offers `value` against a caller-side `capacity` (0 = unbounded),
    /// applying `policy` when the queue is full. `priority` maps an item
    /// to its importance (higher keeps its place) and is consulted only
    /// by [`OverflowPolicy::ShedLowestPriority`].
    ///
    /// A full queue implies no receiver is currently waiting (a waiting
    /// receiver would have drained it), so displacing one queued item
    /// for another needs no wakeup; an accepted arrival wakes a receiver
    /// exactly like `send_now`.
    pub fn offer(
        &self,
        value: T,
        capacity: usize,
        policy: OverflowPolicy,
        priority: impl Fn(&T) -> u64,
    ) -> Offered<T> {
        let mut s = self.state.borrow_mut();
        if s.receivers == 0 {
            return Offered::Closed(value);
        }
        if capacity == 0 || s.queue.len() < capacity {
            s.push(value);
            return Offered::Accepted;
        }
        if policy == OverflowPolicy::Reject {
            return Offered::Displaced(value);
        }
        let mut min: Option<(usize, u64)> = None;
        for (i, item) in s.queue.iter().enumerate() {
            let p = priority(item);
            if min.is_none_or(|(_, lowest)| p < lowest) {
                min = Some((i, p));
            }
        }
        let victim = match min {
            Some((_, lowest)) if priority(&value) < lowest => return Offered::Displaced(value),
            Some((idx, _)) => s.queue.remove(idx),
            None => None,
        };
        match victim {
            Some(victim) => {
                s.queue.push_back(value);
                Offered::Displaced(victim)
            }
            // Unreachable (a full queue of `capacity >= 1` is non-empty),
            // but landing the value keeps the no-panic dispatch contract.
            None => {
                s.push(value);
                Offered::Accepted
            }
        }
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
    slot: Option<SlotHandle>,
}

// No self-referential fields; safe to move after polling.
impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), ClosedError>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.sender.state.borrow_mut();
        if s.receivers == 0 {
            if let Some(h) = self.slot.take() {
                s.send_wakers.release(h);
            }
            return Poll::Ready(Err(ClosedError));
        }
        let at_capacity = s.capacity.is_some_and(|c| s.queue.len() >= c);
        if at_capacity {
            self.slot = Some(s.send_wakers.register(self.slot, cx.waker()));
            return Poll::Pending;
        }
        if let Some(h) = self.slot.take() {
            s.send_wakers.release(h);
        }
        drop(s);
        #[expect(
            clippy::expect_used,
            reason = "poll-after-Ready violates the Future contract; the value was moved out \
                      when the send completed, so there is nothing sane to return"
        )]
        let value = self.value.take().expect("SendFuture polled after completion");
        // Receiver count was checked above; send_now cannot fail here.
        self.sender.send_now(value).map_err(|_| ClosedError)?;
        Poll::Ready(Ok(()))
    }
}

impl<T> Drop for SendFuture<'_, T> {
    fn drop(&mut self) {
        if let Some(h) = self.slot.take() {
            let mut s = self.sender.state.borrow_mut();
            let notified = s.send_wakers.release(h);
            // A consumed-but-unused capacity wakeup belongs to the next
            // blocked sender.
            let has_room = s.capacity.is_none_or(|c| s.queue.len() < c);
            if notified && (has_room || s.receivers == 0) {
                s.send_wakers.wake_one();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Awaits the next item; resolves to `None` once the channel is empty
    /// and all senders are gone.
    pub fn recv(&self) -> RecvFuture<'_, T> {
        RecvFuture { receiver: self, slot: None }
    }

    /// Drains everything currently queued.
    pub fn drain_now(&self) -> Vec<T> {
        let mut s = self.state.borrow_mut();
        let items: Vec<T> = s.queue.drain(..).collect();
        for _ in 0..items.len() {
            s.send_wakers.wake_one();
        }
        items
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFuture<'a, T> {
    receiver: &'a Receiver<T>,
    slot: Option<SlotHandle>,
}

// Only a reference and a slot handle; safe to move after polling.
impl<T> Unpin for RecvFuture<'_, T> {}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Option<T>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.receiver.state.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            if let Some(h) = self.slot.take() {
                s.recv_wakers.release(h);
            }
            s.send_wakers.wake_one();
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            if let Some(h) = self.slot.take() {
                s.recv_wakers.release(h);
            }
            return Poll::Ready(None);
        }
        self.slot = Some(s.recv_wakers.register(self.slot, cx.waker()));
        Poll::Pending
    }
}

impl<T> Drop for RecvFuture<'_, T> {
    fn drop(&mut self) {
        if let Some(h) = self.slot.take() {
            let mut s = self.receiver.state.borrow_mut();
            let notified = s.recv_wakers.release(h);
            // This future consumed a wakeup it will never act on; hand
            // it to the next waiter so the item it announced (or the
            // closure signal) is not stranded.
            if notified && (!s.queue.is_empty() || s.senders == 0) {
                s.recv_wakers.wake_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinators::{select2, Either};
    use crate::executor::Sim;
    use crate::sync::Event;
    use crate::time::secs;
    use crate::SimTime;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn send_then_recv() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        tx.send_now(5).unwrap();
        let h = sim.spawn(async move { rx.recv().await });
        assert_eq!(sim.block_on(h), Some(5));
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let (tx, rx) = channel::<&str>();
        let s = sim.clone();
        let recv_task = sim.spawn(async move {
            let v = rx.recv().await;
            (v, s.now())
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(3.0)).await;
            tx.send_now("hello").unwrap();
        });
        let (v, t) = sim.block_on(recv_task);
        assert_eq!(v, Some("hello"));
        assert_eq!(t, SimTime::from_secs(3));
    }

    #[test]
    fn fifo_order_preserved() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        for i in 0..10 {
            tx.send_now(i).unwrap();
        }
        let h = sim.spawn(async move {
            let mut out = vec![];
            for _ in 0..10 {
                out.push(rx.recv().await.unwrap());
            }
            out
        });
        assert_eq!(sim.block_on(h), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn closed_channel_yields_none_after_drain() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        tx.send_now(1).unwrap();
        drop(tx);
        let h = sim.spawn(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(sim.block_on(h), (Some(1), None));
    }

    #[test]
    fn send_to_closed_fails() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send_now(9), Err(SendError(9)));
    }

    #[test]
    fn multiple_consumers_share_work() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let got: Rc<StdRefCell<Vec<(usize, u32)>>> = Rc::default();
        for worker in 0..3usize {
            let rx = rx.clone();
            let got = Rc::clone(&got);
            let s = sim.clone();
            sim.spawn(async move {
                while let Some(item) = rx.recv().await {
                    s.sleep(secs(1.0)).await; // busy for 1s each item
                    got.borrow_mut().push((worker, item));
                }
            });
        }
        drop(rx);
        for i in 0..6 {
            tx.send_now(i).unwrap();
        }
        drop(tx);
        let r = sim.run();
        // 6 items, 3 workers, 1s each => 2s total.
        assert_eq!(r.end, SimTime::from_secs(2));
        let got = got.borrow();
        assert_eq!(got.len(), 6);
        let mut items: Vec<u32> = got.iter().map(|&(_, i)| i).collect();
        items.sort_unstable();
        assert_eq!(items, (0..6).collect::<Vec<_>>());
        // All three workers participated.
        let mut workers: Vec<usize> = got.iter().map(|&(w, _)| w).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers, vec![0, 1, 2]);
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        let sim = Sim::new();
        let (tx, rx) = bounded::<u32>(2);
        let s = sim.clone();
        let producer = sim.spawn(async move {
            for i in 0..4 {
                tx.send(i).await.unwrap();
            }
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            loop {
                s2.sleep(secs(1.0)).await;
                if rx.recv().await.is_none() {
                    break;
                }
            }
        });
        // Producer can enqueue 2 immediately, then waits for the consumer
        // to drain one per second: items 3 and 4 enter at t=1 and t=2.
        let t = sim.block_on(producer);
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn bounded_send_fails_when_receiver_drops() {
        let sim = Sim::new();
        let (tx, rx) = bounded::<u32>(1);
        tx.send_now(0).unwrap(); // fill
        let producer = sim.spawn(async move { tx.send(1).await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            drop(rx);
        });
        assert_eq!(sim.block_on(producer), Err(ClosedError));
    }

    #[test]
    fn drain_now_takes_everything_queued() {
        let (tx, rx) = channel::<u32>();
        tx.send_now(1).unwrap();
        tx.send_now(2).unwrap();
        tx.send_now(3).unwrap();
        assert_eq!(rx.drain_now(), vec![1, 2, 3]);
        assert!(rx.is_empty());
    }

    /// Regression (formerly a module-doc caveat): a `recv()` future
    /// dropped after registering must not black-hole the wakeup of a
    /// later send. The racer's stale slot is skipped and the item goes
    /// to the patient receiver.
    #[test]
    fn dropped_recv_future_does_not_strand_item() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        // Racer: polls recv once (registering a waker), then a 1s timer
        // wins the race and the recv future is dropped.
        let rx_racer = rx.clone();
        let s = sim.clone();
        let racer = sim.spawn(async move {
            // Box the sleep side to satisfy Unpin; recv is Unpin already.
            matches!(
                select2(rx_racer.recv(), Box::pin(s.sleep(secs(1.0)))).await,
                Either::Right(())
            )
        });
        // Patient receiver registers after the racer.
        let patient = sim.spawn(async move { rx.recv().await });
        // The send happens after the racer abandoned its wait.
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(2.0)).await;
            tx.send_now(7).unwrap();
        });
        assert!(sim.block_on(racer), "timer must win the race");
        // Pre-fix, the racer's stale waker swallowed this wakeup and the
        // item sat queued forever.
        assert_eq!(sim.block_on(patient), Some(7));
    }

    /// A waiter dropped *after* it consumed a wakeup hands the wakeup to
    /// the next waiter instead of stranding the announced item.
    #[test]
    fn notified_then_dropped_recv_passes_wakeup_on() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let ev = Event::new();
        // Racer registers first; the event branch is polled first, so
        // when both fire at once the recv future drops *with* a pending
        // notification.
        let rx_racer = rx.clone();
        let ev2 = ev.clone();
        let racer = sim.spawn(async move {
            matches!(select2(ev2.wait(), rx_racer.recv()).await, Either::Left(()))
        });
        let patient = sim.spawn(async move { rx.recv().await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            // Wake the racer through the channel, then resolve its other
            // branch before it runs: the recv notification is consumed
            // but never acted on.
            tx.send_now(42).unwrap();
            ev.set();
        });
        assert!(sim.block_on(racer), "event branch must win");
        assert_eq!(sim.block_on(patient), Some(42), "item must reach the second waiter");
    }

    /// Re-polling a pending recv (e.g. inside select loops) must not
    /// grow per-poll state: the slot is refreshed in place.
    #[test]
    fn repolled_recv_keeps_single_slot() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let s = sim.clone();
        let waiter = sim.spawn(async move {
            let mut recv = rx.recv();
            loop {
                // Race against short timers: every loop iteration
                // re-polls the same pending recv future.
                let sleep = Box::pin(s.sleep(secs(0.1)));
                match select2(&mut recv, sleep).await {
                    Either::Left(v) => return v,
                    Either::Right(()) => {}
                }
            }
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(1.05)).await;
            tx.send_now(5).unwrap();
        });
        assert_eq!(sim.block_on(waiter), Some(5));
    }

    /// Dropping a bounded-channel sender that consumed a capacity
    /// wakeup passes the wakeup to the next blocked sender.
    #[test]
    fn dropped_send_future_passes_capacity_on() {
        let sim = Sim::new();
        let (tx, rx) = bounded::<u32>(1);
        tx.send_now(0).unwrap(); // fill
        let ev = Event::new();
        // First blocked sender will abandon its send when the event fires.
        let tx1 = tx.clone();
        let ev2 = ev.clone();
        let quitter = sim.spawn(async move {
            matches!(select2(ev2.wait(), tx1.send(1)).await, Either::Left(()))
        });
        // Second blocked sender waits it out.
        let tx2 = tx.clone();
        let patient = sim.spawn(async move { tx2.send(2).await });
        drop(tx);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            // Free capacity (waking the quitter), then retire the
            // quitter before it can use it.
            assert_eq!(rx.drain_now(), vec![0]);
            ev.set();
            // Patient's send lands; drain it so the channel closes clean.
            s.sleep(secs(1.0)).await;
            assert_eq!(rx.recv().await, Some(2));
            assert_eq!(rx.recv().await, None);
        });
        assert!(sim.block_on(quitter), "event must win");
        assert_eq!(sim.block_on(patient), Ok(()));
    }

    #[test]
    fn offer_zero_capacity_is_unbounded() {
        let (tx, rx) = channel::<u32>();
        for i in 0..100 {
            assert_eq!(tx.offer(i, 0, OverflowPolicy::Reject, |_| 0), Offered::Accepted);
        }
        assert_eq!(rx.len(), 100);
    }

    #[test]
    fn offer_reject_displaces_arrival() {
        let (tx, rx) = channel::<u32>();
        assert_eq!(tx.offer(1, 2, OverflowPolicy::Reject, |_| 0), Offered::Accepted);
        assert_eq!(tx.offer(2, 2, OverflowPolicy::Reject, |_| 0), Offered::Accepted);
        assert_eq!(tx.offer(3, 2, OverflowPolicy::Reject, |_| 0), Offered::Displaced(3));
        assert_eq!(rx.drain_now(), vec![1, 2], "queue untouched by a rejected arrival");
    }

    #[test]
    fn offer_shed_lowest_priority_picks_victim() {
        // Priority = the value itself; higher keeps its place.
        let pri = |v: &u32| u64::from(*v);
        let (tx, rx) = channel::<u32>();
        tx.offer(5, 3, OverflowPolicy::ShedLowestPriority, pri);
        tx.offer(2, 3, OverflowPolicy::ShedLowestPriority, pri);
        tx.offer(8, 3, OverflowPolicy::ShedLowestPriority, pri);
        // Arrival (6) outranks the lowest queued (2): 2 is shed.
        assert_eq!(tx.offer(6, 3, OverflowPolicy::ShedLowestPriority, pri), Offered::Displaced(2));
        // Arrival (1) is strictly the lowest: it is refused itself.
        assert_eq!(tx.offer(1, 3, OverflowPolicy::ShedLowestPriority, pri), Offered::Displaced(1));
        // Ties go to the oldest queued item, not the arrival.
        assert_eq!(tx.offer(5, 3, OverflowPolicy::ShedLowestPriority, pri), Offered::Displaced(5));
        assert_eq!(rx.drain_now(), vec![8, 6, 5]);
    }

    #[test]
    fn offer_closed_returns_value() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.offer(9, 1, OverflowPolicy::ShedLowestPriority, |_| 0), Offered::Closed(9));
    }

    #[test]
    fn a_parked_send_keeps_the_channel_open_until_it_lands() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        tx.send_at(&sim, SimTime::from_secs(5), 1);
        drop(tx);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let first = (rx.recv().await, s.now());
            (first, rx.recv().await, s.now())
        });
        let r = sim.run();
        assert_eq!(r.timer_fires, 1);
        let closed_at = SimTime::from_secs(5);
        assert_eq!(sim.block_on(h), ((Some(1), closed_at), None, closed_at));
    }

    #[test]
    fn send_at_now_or_earlier_is_send_now() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        sim.run_until(SimTime::from_secs(3));
        tx.send_at(&sim, SimTime::from_secs(1), 1);
        tx.send_at(&sim, SimTime::from_secs(3), 2);
        assert_eq!(rx.drain_now(), vec![1, 2], "queued in the call");
        assert_eq!(sim.run().timer_fires, 0, "no timer registered");
        drop(rx);
        tx.send_at(&sim, SimTime::from_secs(1), 3);
        assert_eq!(tx.send_now(4), Err(SendError(4)));
    }

    #[test]
    fn a_parked_value_with_no_receiver_left_is_dropped_at_the_fire() {
        let sim = Sim::new();
        let (tx, rx) = channel::<Rc<()>>();
        let value = Rc::new(());
        tx.send_at(&sim, SimTime::from_secs(2), Rc::clone(&value));
        drop(rx);
        assert_eq!(Rc::strong_count(&value), 2, "parked until its instant");
        let r = sim.run();
        assert_eq!((r.end, r.timer_fires), (SimTime::from_secs(2), 1));
        assert_eq!(Rc::strong_count(&value), 1, "dropped at the fire");
    }

    #[test]
    fn parked_sends_for_one_instant_land_in_call_order_under_tie_shuffle() {
        for seed in [1u64, 2, 3] {
            let sim = Sim::with_tie_shuffle(seed);
            let (tx, rx) = channel::<u32>();
            for i in 0..32 {
                tx.send_at(&sim, SimTime::from_secs(1), i);
                // A stranger's timer at the same instant between them.
                let s = sim.clone();
                sim.spawn_detached(async move { s.sleep_until(SimTime::from_secs(1)).await });
            }
            sim.run();
            assert_eq!(rx.drain_now(), (0..32).collect::<Vec<_>>(), "shuffle seed {seed}");
        }
    }

    /// A receiver's log entry: who got what (or `None`, closed), and when.
    type Logged = (usize, Option<u32>, SimTime);

    /// Plays `script` — `(driver instant in ms, send offset in ms)`
    /// pairs — against `receivers` receivers that log every `recv` and
    /// yield `value % 3` times after each. A send goes at `max(0,
    /// instant + offset)`, through `send_at` or through one spawned
    /// `sleep_until(at); send_now` relay per send.
    fn play(script: &[(u64, i64)], receivers: usize, relay: bool) -> Vec<Logged> {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let log: Rc<StdRefCell<Vec<Logged>>> = Rc::default();
        for r in 0..receivers {
            let (rx, log, s) = (rx.clone(), Rc::clone(&log), sim.clone());
            sim.spawn_detached(async move {
                loop {
                    let got = rx.recv().await;
                    log.borrow_mut().push((r, got, s.now()));
                    let Some(v) = got else { return };
                    for _ in 0..v % 3 {
                        s.yield_now().await;
                    }
                }
            });
        }
        drop(rx);
        let (s, script) = (sim.clone(), script.to_vec());
        sim.spawn_detached(async move {
            for (i, &(t, offset)) in script.iter().enumerate() {
                s.sleep_until(SimTime::from_millis(t)).await;
                let at = SimTime::from_millis(t.saturating_add_signed(offset));
                if relay {
                    let (s2, tx) = (s.clone(), tx.clone());
                    s.spawn_detached(async move {
                        s2.sleep_until(at).await;
                        let _sent = tx.send_now(i as u32).is_ok();
                    });
                } else {
                    tx.send_at(&s, at, i as u32);
                }
            }
        });
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0, "every receiver saw the channel close");
        let log = log.borrow().clone();
        log
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `send_at` delivers exactly what a relay per send delivers:
        /// the same values, to the same receivers, at the same instants,
        /// in the same order, closure included. Driver instants are
        /// multiples of 10 ms and future sends avoid them: a relay draws
        /// its timer's tie at its first poll, so a relay due at the
        /// driver's next wake would order differently against it — the
        /// one documented difference.
        #[test]
        fn send_at_matches_a_relay_per_send(
            steps in proptest::prelude::prop::collection::vec((0u64..8, 0i64..41), 1..40),
            receivers in 1usize..4,
        ) {
            let mut t = 0;
            let script: Vec<(u64, i64)> = steps
                .iter()
                .map(|&(gap, off)| {
                    t += 10 * gap;
                    let off = off - 15; // -15..=25 ms: past, now and future
                    (t, if off > 0 && off % 10 == 0 { off + 1 } else { off })
                })
                .collect();
            let relayed = play(&script, receivers, true);
            proptest::prop_assert_eq!(play(&script, receivers, false), relayed);
        }
    }

    /// An accepted offer wakes a waiting receiver exactly like send_now.
    #[test]
    fn offer_wakes_waiting_receiver() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let waiter = sim.spawn(async move { rx.recv().await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            assert_eq!(tx.offer(11, 4, OverflowPolicy::Reject, |_| 0), Offered::Accepted);
        });
        assert_eq!(sim.block_on(waiter), Some(11));
    }
}
