//! R15 bad: the same discard at fn level, inside a detached
//! `async move { … }` actor body, and inside a `move ||` closure.

fn at_fn_level(tx: &Sender<Task>, task: Task) {
    let _ = tx.send_now(task);
}

fn in_async_block(sim: &Sim, tx: Sender<Task>, task: Task) {
    sim.spawn_detached(async move {
        let _ = tx.send_now(task);
    });
}

fn in_closure(tx: Sender<Task>, task: Task) {
    let f = move || {
        let _ = tx.send_now(task);
    };
    f();
}
