//! R11 bad: a lock-order inversion (`forward` / `backward`). The guards
//! `Pool` holds across blocking waits are not R11's and stay unflagged.

struct Pool;

impl Pool {
    fn direct(&self) {
        let guard = self.state.lock();
        self.cond.wait(guard);
    }

    fn indirect(&self) {
        let guard = self.state.lock();
        self.drain_backlog();
        drop(guard);
    }

    fn drain_backlog(&self) {
        self.cond.wait(self.backlog);
    }
}

fn forward() {
    let a = reg.lock();
    let b = shard.lock();
    drop(b);
    drop(a);
}

fn backward() {
    let b = shard.lock();
    let a = reg.lock();
    drop(a);
    drop(b);
}
