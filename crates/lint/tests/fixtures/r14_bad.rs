//! A wall-clock read and hash-iteration order each flow into a
//! trace/seed sink: R1 and R3 stop both on the source line.

fn stamp(tracer: &Tracer) {
    let t = SystemTime::now();
    let label = wrap(t);
    tracer.emit(kinds::TASK_DONE, label);
}

fn correlate(master: &SimRng) {
    let pending = HashMap::new();
    let name = pending.keys();
    let rng = SimRng::stream(master, name);
}
