//! The Thinker: a collection of cooperating steering agents.
//!
//! Colmena expresses steering policy as "interacting agents, which are
//! known collectively as a Thinker" (§IV-D): each agent is a concurrent
//! routine reacting to events — a result arriving, a counter crossing a
//! threshold — and submitting new work. Here agents are async tasks on
//! the simulation, in the shape of Colmena's `BaseThinker`: a
//! [`result_processor`](Thinker::result_processor) per result topic, an
//! [`event_responder`](Thinker::event_responder) per event, and plain
//! [`agent`](Thinker::agent)s for everything else, all sharing one
//! [`ResourceCounter`] of slot pools, one done flag and one tally of
//! shed and failed tasks.

use crate::queues::{ClientQueues, ResolvedTask};
use crate::resources::ResourceCounter;
use hetflow_sim::{Event, Sim};
use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

/// The steering agents of one application and what they share.
pub struct Thinker {
    sim: Sim,
    queues: ClientQueues,
    slots: ResourceCounter,
    /// Set when the campaign's termination condition is reached; agents
    /// poll or await this to wind down (Colmena's `done` flag).
    done: Event,
    shed: Cell<usize>,
    failed: Cell<usize>,
}

impl Thinker {
    /// Creates a thinker on `sim` steering through `queues`, with no
    /// slot pools and no agents.
    pub fn new(sim: &Sim, queues: &ClientQueues) -> Rc<Thinker> {
        Rc::new(Thinker {
            sim: sim.clone(),
            queues: queues.clone(),
            slots: ResourceCounter::new(),
            done: Event::new(),
            shed: Cell::new(0),
            failed: Cell::new(0),
        })
    }

    /// The queues agents submit to and receive from.
    pub fn queues(&self) -> &ClientQueues {
        &self.queues
    }

    /// The slot pools; register them before the agents start.
    pub fn slots(&self) -> &ResourceCounter {
        &self.slots
    }

    /// Spawns an agent.
    pub fn agent<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.sim.spawn_detached(fut);
    }

    /// Takes one slot from `pool` for a task whose result a
    /// [`result_processor`](Thinker::result_processor) on the topic of
    /// the same name gives back.
    pub async fn take_slot(&self, pool: &str) {
        self.slots.acquire(pool).await.forget();
    }

    /// Spawns an agent that resolves every result on `topic`, returns
    /// one slot to the pool named `topic`, counts a shed or failed task
    /// and hands every other value to `handler`.
    pub fn result_processor<T: 'static>(
        self: &Rc<Self>,
        topic: &'static str,
        mut handler: impl FnMut(Rc<T>) + 'static,
    ) {
        let thinker = Rc::clone(self);
        self.agent(async move {
            while let Some(done) = thinker.queues.get_result(topic).await {
                let resolved = done.resolve().await;
                thinker.slots.release(topic);
                if let Some(value) = thinker.value_of(&resolved) {
                    handler(value);
                }
            }
        });
    }

    /// Spawns an agent that runs `handler` once per [`Event::set`] of
    /// `event` until the thinker is done. A handler returning `None`
    /// (the queues shut down mid-round) ends the agent.
    pub fn event_responder<H>(self: &Rc<Self>, event: &Event, mut handler: H)
    where
        H: AsyncFnMut() -> Option<()> + 'static,
    {
        let thinker = Rc::clone(self);
        let event = event.clone();
        self.agent(async move {
            loop {
                event.wait().await;
                event.clear();
                if thinker.is_done() || handler().await.is_none() {
                    break;
                }
            }
        });
    }

    /// The next value on `topic`: `None` once the queues shut down,
    /// `Some(None)` for a shed or failed task (counted in the tally).
    pub async fn next_value<T: 'static>(&self, topic: &str) -> Option<Option<Rc<T>>> {
        let resolved = self.queues.get_result(topic).await?.resolve().await;
        Some(self.value_of(&resolved))
    }

    fn value_of<T: 'static>(&self, resolved: &ResolvedTask) -> Option<Rc<T>> {
        let tally = if resolved.is_shed() {
            &self.shed
        } else if resolved.is_failed() {
            &self.failed
        } else {
            return Some(resolved.value::<T>());
        };
        tally.set(tally.get() + 1);
        None
    }

    /// Tasks (of any topic) overload protection shed before they ran.
    pub fn shed(&self) -> usize {
        self.shed.get()
    }

    /// Tasks (of any topic) that came back failed.
    pub fn failed(&self) -> usize {
        self.failed.get()
    }

    /// Signals completion to every agent.
    pub fn finish(&self) {
        self.done.set();
    }

    /// True once [`Thinker::finish`] was called.
    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::tests::pipeline;
    use crate::Payload;
    use hetflow_fabric::TaskWork;
    use hetflow_sim::time::secs;
    use hetflow_store::ProxyPolicy;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn result_processor_hands_over_every_value_and_returns_its_slot() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let thinker = Thinker::new(&sim, &queues);
        thinker.slots().register("echo", 2);
        let got: Rc<RefCell<Vec<u32>>> = Rc::default();
        let sink = Rc::clone(&got);
        thinker.result_processor::<u32>("echo", move |v| sink.borrow_mut().push(*v));
        let t = Rc::clone(&thinker);
        thinker.agent(async move {
            for i in 0..5u32 {
                t.take_slot("echo").await;
                let echo = Rc::new(|ctx: &mut hetflow_fabric::TaskCtx<'_>| {
                    TaskWork::new(*ctx.input::<u32>(0), 8, Duration::from_secs(1))
                });
                t.queues().submit("echo", [Payload::new(i, 8)], echo).await;
            }
        });
        sim.run();
        got.borrow_mut().sort_unstable();
        assert_eq!(*got.borrow(), [0, 1, 2, 3, 4]);
        assert_eq!(thinker.slots().available("echo"), 2, "one slot back per result");
        assert_eq!((thinker.shed(), thinker.failed()), (0, 0));
    }

    #[test]
    fn event_responder_runs_once_per_set_until_finish() {
        let (sim, queues) = pipeline(ProxyPolicy::disabled());
        let thinker = Thinker::new(&sim, &queues);
        let event = Event::new();
        let runs = Rc::new(Cell::new(0));
        let counted = Rc::clone(&runs);
        thinker.event_responder(&event, async move || {
            counted.set(counted.get() + 1);
            Some(())
        });
        let (t, s, ev) = (Rc::clone(&thinker), sim.clone(), event.clone());
        thinker.agent(async move {
            for _ in 0..3 {
                s.sleep(secs(1.0)).await;
                ev.set();
            }
            s.sleep(secs(1.0)).await;
            t.finish();
            ev.set();
            s.sleep(secs(1.0)).await;
            ev.set();
        });
        sim.run();
        assert!(thinker.is_done());
        assert_eq!(runs.get(), 3, "no run after finish");
        assert!(event.is_set(), "a stopped responder leaves the last set uncleared");
    }
}
