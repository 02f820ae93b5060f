//! Future combinators for simulated actors.
//!
//! Small, allocation-light helpers: racing a future against a deadline
//! ([`Sim::timeout`]) and racing two futures (`select2`). Both operate
//! purely in virtual time.

use crate::executor::Sim;
use std::future::Future;
use std::pin::Pin;
use std::task::Poll;
use std::time::Duration;

/// Outcome of [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Races two futures; the loser is dropped.
///
/// Polling order is deterministic: `a` is polled before `b` at every
/// step, so simultaneous readiness resolves to `Left`.
pub(crate) async fn select2<A, B>(a: A, b: B) -> Either<A::Output, B::Output>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    let mut a = a;
    let mut b = b;
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = Pin::new(&mut a).poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = Pin::new(&mut b).poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// Error returned by [`Sim::timeout`] when the deadline fires first.
#[derive(Debug, PartialEq, Eq)]
pub struct Elapsed;

impl Sim {
    /// Limits `fut` to `d` of virtual time.
    pub async fn timeout<F>(&self, d: Duration, fut: F) -> Result<F::Output, Elapsed>
    where
        F: Future + Unpin,
    {
        match select2(fut, self.sleep(d)).await {
            Either::Left(v) => Ok(v),
            Either::Right(()) => Err(Elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;
    use crate::SimTime;

    #[test]
    fn select2_prefers_earlier() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let fast = s.sleep(secs(1.0));
            let slow = s.sleep(secs(2.0));
            match select2(slow, fast).await {
                Either::Left(()) => "slow",
                Either::Right(()) => "fast",
            }
        });
        assert_eq!(sim.block_on(h), "fast");
        assert_eq!(sim.now(), SimTime::from_secs(1), "loser must not hold the clock");
    }

    #[test]
    fn select2_simultaneous_is_left_biased() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let a = s.sleep(secs(1.0));
            let b = s.sleep(secs(1.0));
            select2(a, b).await
        });
        assert_eq!(sim.block_on(h), Either::Left(()));
    }

    #[test]
    fn timeout_passes_fast_futures() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let work = s.sleep(secs(1.0));
            s.timeout(secs(5.0), work).await
        });
        assert_eq!(sim.block_on(h), Ok(()));
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn timeout_cuts_slow_futures() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let work = s.sleep(secs(100.0));
            s.timeout(secs(5.0), work).await
        });
        assert_eq!(sim.block_on(h), Err(Elapsed));
        // The abandoned sleep must not drag the clock to t=100.
        let r = sim.run();
        assert_eq!(r.end, SimTime::from_secs(5));
    }
}
