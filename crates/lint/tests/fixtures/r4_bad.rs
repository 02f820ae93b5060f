//! R4 failing fixture: OS threads.

fn fan_out(jobs: Vec<Job>) {
    for job in jobs {
        std::thread::spawn(move || job.run());
    }
}
