//! The common fabric interface.

use crate::dispatch::Submit;
use crate::task::TaskSpec;

/// A compute fabric: something that accepts task submissions and
/// eventually delivers [`crate::task::TaskResult`]s on the result
/// channel supplied at construction.
///
/// `submit` returns a future whose completion marks the end of the
/// *client-side* submission cost (the HTTPS call for FnX, the
/// interchange hop + payload serialization for HTEX); the task then
/// travels and executes asynchronously.
pub trait Fabric {
    /// Submits a task: admission and routing are decided in the call,
    /// awaiting the returned [`Submit`] pays the client-side dispatch
    /// cost and hands the task off.
    fn submit(&self, task: TaskSpec) -> Submit<'_>;

    /// Short fabric label used in reports (`"fnx"`, `"htex"`).
    fn label(&self) -> &'static str;
}
