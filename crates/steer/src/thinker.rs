//! The Thinker: a collection of cooperating steering agents.
//!
//! Colmena expresses steering policy as "interacting agents, which are
//! known collectively as a Thinker" (§IV-D): each agent is a concurrent
//! routine reacting to events — a result arriving, a counter crossing a
//! threshold — and submitting new work. Here agents are async tasks on
//! the simulation; [`Thinker`] tracks them so a campaign can await
//! orderly shutdown and attribute panics to a named agent.

use hetflow_sim::{Event, JoinHandle, Sim};
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

/// Agent registry for one application.
pub struct Thinker {
    sim: Sim,
    agents: RefCell<Vec<(String, JoinHandle<()>)>>,
    /// Set when the campaign's termination condition is reached; agents
    /// poll or await this to wind down (Colmena's `done` flag).
    pub done: Event,
}

impl Thinker {
    /// Creates an empty thinker on `sim`.
    pub fn new(sim: &Sim) -> Rc<Thinker> {
        Rc::new(Thinker {
            sim: sim.clone(),
            agents: RefCell::new(Vec::new()),
            done: Event::new(),
        })
    }

    /// Spawns a named agent.
    pub fn agent<F>(&self, name: impl Into<String>, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        let handle = self.sim.spawn(fut);
        self.agents.borrow_mut().push((name.into(), handle));
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
    use hetflow_sim::time::secs;

    #[test]
    fn agents_run_and_finish() {
        let sim = Sim::new();
        let thinker = Thinker::new(&sim);
        let t2 = Rc::clone(&thinker);
        let s = sim.clone();
        thinker.agent("worker-allocator", async move {
            s.sleep(secs(1.0)).await;
            t2.finish();
        });
        let t3 = Rc::clone(&thinker);
        thinker.agent("waiter", async move {
            t3.done.wait().await;
        });
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0);
        assert!(thinker.is_done());
    }

    #[test]
    fn done_flag_observable_before_set() {
        let sim = Sim::new();
        let thinker = Thinker::new(&sim);
        assert!(!thinker.is_done());
        thinker.finish();
        assert!(thinker.is_done());
    }
}
