//! Coordination primitives for simulated actors.
//!
//! [`Event`] mirrors `threading.Event` in the paper's Colmena agents
//! (agents block until "enough simulations finished" is flagged).
//! [`Semaphore`] models limited resources — worker slots, per-user
//! concurrent Globus transfers, batch-job node counts — with FIFO
//! fairness so acquisition order is deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

struct EventState {
    set: bool,
    generation: u64,
    wakers: Vec<Waker>,
}

/// A manual-reset event flag.
///
/// `wait()` resolves immediately while the flag is set; `clear()` resets
/// it. Setting wakes every waiter.
#[derive(Clone)]
pub struct Event {
    state: Rc<RefCell<EventState>>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Event {
            state: Rc::new(RefCell::new(EventState {
                set: false,
                generation: 0,
                wakers: Vec::new(),
            })),
        }
    }

    /// Sets the flag, waking all current waiters.
    pub fn set(&self) {
        let mut s = self.state.borrow_mut();
        s.set = true;
        s.generation += 1;
        for w in s.wakers.drain(..) {
            w.wake();
        }
    }

    /// Clears the flag.
    pub fn clear(&self) {
        self.state.borrow_mut().set = false;
    }

    /// True while the flag is set.
    pub fn is_set(&self) -> bool {
        self.state.borrow().set
    }

    /// Awaits the flag being set.
    pub fn wait(&self) -> EventWait {
        EventWait { event: self.clone() }
    }

    /// Awaits the *next* `set()` call, even if the flag is currently set —
    /// the edge-triggered variant agents use to react to "new result"
    /// pulses without missing or double-counting them.
    pub fn wait_next(&self) -> EventWaitNext {
        let gen = self.state.borrow().generation;
        EventWaitNext { event: self.clone(), seen: gen }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait {
    event: Event,
}

impl Future for EventWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.event.state.borrow_mut();
        if s.set {
            Poll::Ready(())
        } else {
            s.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Event::wait_next`].
pub struct EventWaitNext {
    event: Event,
    seen: u64,
}

impl Future for EventWaitNext {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.event.state.borrow_mut();
        if s.generation > self.seen {
            Poll::Ready(())
        } else {
            s.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct Waiter {
    granted: std::cell::Cell<bool>,
    cancelled: std::cell::Cell<bool>,
    waker: RefCell<Option<Waker>>,
    count: usize,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Rc<Waiter>>,
}

impl SemState {
    /// Hands available permits to waiters at the queue head, preserving
    /// FIFO order (a large request at the head blocks smaller ones behind
    /// it, preventing starvation).
    fn grant(&mut self) {
        while let Some(front) = self.waiters.front() {
            if front.cancelled.get() {
                self.waiters.pop_front();
                continue;
            }
            if self.permits >= front.count {
                self.permits -= front.count;
                #[expect(
                    clippy::expect_used,
                    reason = "the loop condition just matched `front()`, so the queue cannot be \
                              empty; a None here is semaphore bookkeeping corruption"
                )]
                let w = self.waiters.pop_front().expect("front exists");
                w.granted.set(true);
                let waker = w.waker.borrow_mut().take();
                if let Some(waker) = waker {
                    waker.wake();
                }
            } else {
                break;
            }
        }
    }
}

/// A counting semaphore with FIFO fairness.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Creates a semaphore holding `permits` permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState { permits, waiters: VecDeque::new() })),
        }
    }

    /// Awaits one permit.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Awaits `count` permits, granted atomically.
    pub fn acquire_many(&self, count: usize) -> Acquire {
        Acquire { sem: self.clone(), count, waiter: None, taken: false }
    }

    /// Takes a permit only if one is immediately available.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut s = self.state.borrow_mut();
        if s.waiters.is_empty() && s.permits >= 1 {
            s.permits -= 1;
            Some(Permit { sem: self.clone(), count: 1 })
        } else {
            None
        }
    }

    /// Adds permits (e.g. a batch job bringing more nodes online).
    pub fn add_permits(&self, count: usize) {
        let mut s = self.state.borrow_mut();
        s.permits += count;
        s.grant();
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    fn release(&self, count: usize) {
        let mut s = self.state.borrow_mut();
        s.permits += count;
        s.grant();
    }
}

/// RAII permit; releases on drop.
pub struct Permit {
    sem: Semaphore,
    count: usize,
}

impl Permit {
    /// Forgets the permit without releasing — models a worker that is
    /// permanently retired.
    pub fn forget(mut self) {
        self.count = 0;
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.count > 0 {
            self.sem.release(self.count);
        }
    }
}

/// Future returned by [`Semaphore::acquire_many`].
pub struct Acquire {
    sem: Semaphore,
    count: usize,
    waiter: Option<Rc<Waiter>>,
    taken: bool,
}

impl Future for Acquire {
    type Output = Permit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        if let Some(waiter) = &self.waiter {
            if waiter.granted.get() {
                self.taken = true;
                return Poll::Ready(Permit { sem: self.sem.clone(), count: self.count });
            }
            *waiter.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let mut s = self.sem.state.borrow_mut();
        if s.waiters.is_empty() && s.permits >= self.count {
            s.permits -= self.count;
            drop(s);
            self.taken = true;
            return Poll::Ready(Permit { sem: self.sem.clone(), count: self.count });
        }
        let waiter = Rc::new(Waiter {
            granted: std::cell::Cell::new(false),
            cancelled: std::cell::Cell::new(false),
            waker: RefCell::new(Some(cx.waker().clone())),
            count: self.count,
        });
        s.waiters.push_back(Rc::clone(&waiter));
        drop(s);
        self.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(waiter) = &self.waiter {
            if waiter.granted.get() {
                if !self.taken {
                    // Granted but never observed (future dropped in a
                    // race): return the permits.
                    self.sem.release(self.count);
                }
            } else {
                waiter.cancelled.set(true);
                // A cancelled waiter at the head may unblock others.
                self.sem.state.borrow_mut().grant();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::secs;
    use crate::SimTime;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn event_wait_resolves_after_set() {
        let sim = Sim::new();
        let ev = Event::new();
        let ev2 = ev.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            ev2.wait().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(4.0)).await;
            ev.set();
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(4));
    }

    #[test]
    fn event_already_set_resolves_immediately() {
        let sim = Sim::new();
        let ev = Event::new();
        ev.set();
        let ev2 = ev.clone();
        let h = sim.spawn(async move {
            ev2.wait().await;
            true
        });
        assert!(sim.block_on(h));
    }

    #[test]
    fn event_clear_blocks_again() {
        let ev = Event::new();
        ev.set();
        assert!(ev.is_set());
        ev.clear();
        assert!(!ev.is_set());
    }

    #[test]
    fn event_wakes_all_waiters() {
        let sim = Sim::new();
        let ev = Event::new();
        let count: Rc<StdRefCell<u32>> = Rc::default();
        for _ in 0..5 {
            let ev = ev.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                ev.wait().await;
                *count.borrow_mut() += 1;
            });
        }
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            ev.set();
        });
        sim.run();
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    fn wait_next_is_edge_triggered() {
        let sim = Sim::new();
        let ev = Event::new();
        ev.set(); // pre-set: level wait would pass, edge wait must not
        let ev2 = ev.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            ev2.wait_next().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(2.0)).await;
            ev.set();
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(2));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let active: Rc<StdRefCell<(u32, u32)>> = Rc::default(); // (current, max)
        for _ in 0..6 {
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let s = sim.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                {
                    let mut a = active.borrow_mut();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                s.sleep(secs(1.0)).await;
                active.borrow_mut().0 -= 1;
            });
        }
        let r = sim.run();
        assert_eq!(active.borrow().1, 2, "max concurrency must be 2");
        assert_eq!(r.end, SimTime::from_secs(3), "6 jobs / 2 slots / 1s each");
    }

    #[test]
    fn semaphore_fifo_order() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let order: Rc<StdRefCell<Vec<u32>>> = Rc::default();
        // Occupy the only permit for 1s.
        {
            let sem = sem.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                s.sleep(secs(1.0)).await;
            });
        }
        for i in 0..4u32 {
            let sem = sem.clone();
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                // Stagger arrival to fix the queue order.
                s.sleep(secs(0.1 * f64::from(i + 1))).await;
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                s.sleep(secs(0.5)).await;
            });
        }
        sim.run();
        assert_eq!(order.borrow().as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn acquire_many_atomic() {
        let sim = Sim::new();
        let sem = Semaphore::new(4);
        let s = sim.clone();
        let sem2 = sem.clone();
        let h = sim.spawn(async move {
            let p = sem2.acquire_many(3).await;
            assert_eq!(sem2.available(), 1);
            s.sleep(secs(1.0)).await;
            drop(p);
            sem2.available()
        });
        assert_eq!(sim.block_on(h), 4);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let p = sem.try_acquire().expect("free permit");
        assert!(sem.try_acquire().is_none());
        drop(p);
        assert!(sem.try_acquire().is_some());
        drop(sim);
    }

    #[test]
    fn add_permits_unblocks_waiters() {
        let sim = Sim::new();
        let sem = Semaphore::new(0);
        let sem2 = sem.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let _p = sem2.acquire().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(7.0)).await;
            sem.add_permits(1);
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(7));
    }

    #[test]
    fn permit_forget_removes_capacity() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let sem2 = sem.clone();
        let h = sim.spawn(async move {
            let p = sem2.acquire().await;
            p.forget();
            sem2.available()
        });
        assert_eq!(sim.block_on(h), 1);
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn cancelled_waiter_does_not_consume() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let holder = sem.try_acquire().unwrap();
        // A waiter that gives up.
        {
            let sem = sem.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let acq = sem.acquire();
                // Poll it once inside a timeout-like race, then drop.
                let sleep = s.sleep(secs(0.5));
                futures_race(acq, sleep).await;
            });
        }
        // A later waiter that should still get the permit.
        let sem2 = sem.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(0.1)).await;
            let _p = sem2.acquire().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(2.0)).await;
            drop(holder);
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(2));
    }

    /// Minimal two-way race for the test above: resolves when either
    /// future does, dropping the loser.
    async fn futures_race<A: Future + Unpin, B: Future + Unpin>(a: A, b: B) {
        use std::future::poll_fn;
        let mut a = Some(a);
        let mut b = Some(b);
        poll_fn(move |cx| {
            if let Some(fa) = a.as_mut() {
                if Pin::new(fa).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
            }
            if let Some(fb) = b.as_mut() {
                if Pin::new(fb).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
            }
            Poll::Pending
        })
        .await
    }
}
