//! The runtime-facing client API implemented by every execution engine.
//!
//! "The choice of a runtime system is completely independent of the
//! application layer, which allows switching to different runtime systems
//! with no changes to the application code" (§1). This trait is that
//! boundary: the Local executor, the StateFun-style runtime and the
//! StateFlow runtime all implement [`EntityRuntime`], and everything above
//! (examples, workloads, benchmarks) is written against it.

use std::time::{Duration, Instant};

use se_lang::{EntityRef, LangError, Value};

use crate::delay::{oneshot, OneshotReceiver, OneshotSender};

/// A pending response to an asynchronous invocation: the waiting half of a
/// one-shot slot. [`ResponseWaiter::wait`] polls for the calling thread's
/// window before it parks, as an engine thread's receive does, so a client
/// that calls back to back takes each answer on its own core, and a
/// completion signals only a waiter actually parked.
pub struct ResponseWaiter {
    rx: OneshotReceiver<Result<Value, LangError>>,
}

/// What a waiter whose completer was dropped unanswered gets: the runtime
/// shut down.
fn shut_down() -> Result<Value, LangError> {
    Err(LangError::runtime("runtime shut down before responding"))
}

impl ResponseWaiter {
    /// Creates a waiter and the completer used to answer it.
    pub fn new() -> (ResponseCompleter, ResponseWaiter) {
        let (tx, rx) = oneshot(shut_down);
        (ResponseCompleter { tx }, ResponseWaiter { rx })
    }

    /// A waiter that is already completed (for immediate errors).
    pub fn ready(result: Result<Value, LangError>) -> ResponseWaiter {
        let (c, w) = Self::new();
        c.complete(result);
        w
    }

    /// Blocks until the response arrives, or the completer is dropped,
    /// which means the runtime shut down.
    pub fn wait(self) -> Result<Value, LangError> {
        self.rx.wait_until(None).unwrap_or_else(shut_down)
    }

    /// Blocks up to `timeout`; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Value, LangError>> {
        self.rx.wait_until(Some(Instant::now() + timeout))
    }

    /// Non-blocking poll: one atomic load while the response is pending.
    pub fn try_wait(&self) -> Option<Result<Value, LangError>> {
        self.rx.try_recv()
    }
}

/// Completion side of a [`ResponseWaiter`]. Dropped unanswered, it fails
/// the waiter with "runtime shut down before responding".
pub struct ResponseCompleter {
    tx: OneshotSender<Result<Value, LangError>>,
}

impl ResponseCompleter {
    /// Delivers the response; the first of several is the one the waiter
    /// sees.
    pub fn complete(&self, result: Result<Value, LangError>) {
        self.tx.send(result);
    }
}

/// A deployed stateful-entity application, whatever the engine underneath.
pub trait EntityRuntime: Send + Sync {
    /// Human-readable engine name (for reports).
    fn name(&self) -> &str;

    /// Creates an entity instance, blocking until the owning partition has
    /// applied it. A durable StateFlow partition logs it first; the frame
    /// reaches the disk per the fsync policy, with the next epoch cut at
    /// the latest.
    fn create(
        &self,
        class: &str,
        key: &str,
        init: Vec<(String, Value)>,
    ) -> Result<EntityRef, LangError>;

    /// Invokes a method asynchronously, returning a waiter for the result.
    fn call_async(&self, target: EntityRef, method: &str, args: Vec<Value>) -> ResponseWaiter;

    /// Invokes a method and blocks for the result.
    fn call(&self, target: EntityRef, method: &str, args: Vec<Value>) -> Result<Value, LangError> {
        self.call_async(target, method, args).wait()
    }

    /// Whether this engine executes multi-entity invocations transactionally
    /// (StateFun does not — the paper skips its transactional workloads).
    fn supports_transactions(&self) -> bool;

    /// Stops all engine threads. Pending invocations may error.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiter_roundtrip() {
        let (c, w) = ResponseWaiter::new();
        c.complete(Ok(Value::Int(5)));
        assert_eq!(w.wait().unwrap(), Value::Int(5));
    }

    #[test]
    fn ready_waiter() {
        let w = ResponseWaiter::ready(Err(LangError::runtime("nope")));
        assert!(w.wait().is_err());
    }

    #[test]
    fn dropped_completer_yields_error() {
        let (c, w) = ResponseWaiter::new();
        drop(c);
        assert!(w.wait().unwrap_err().to_string().contains("shut down"));
    }

    #[test]
    fn timeout_and_poll() {
        let (c, w) = ResponseWaiter::new();
        assert!(w.try_wait().is_none());
        assert!(w.wait_timeout(Duration::from_millis(10)).is_none());
        c.complete(Ok(Value::Unit));
        assert_eq!(w.try_wait(), Some(Ok(Value::Unit)));
    }

    #[test]
    fn double_complete_is_harmless() {
        let (c, w) = ResponseWaiter::new();
        c.complete(Ok(Value::Int(1)));
        c.complete(Ok(Value::Int(2)));
        assert_eq!(w.wait().unwrap(), Value::Int(1));
    }

    /// Runs `wait` on a fresh thread, which parks at once (its poll window
    /// is 0), and `release` once that wait is parked; returns what the
    /// wait returned.
    fn parked_wait(release: impl FnOnce(ResponseCompleter)) -> Result<Value, LangError> {
        let (c, w) = ResponseWaiter::new();
        let parked = w.rx.park_probe();
        let waiter = std::thread::spawn(move || w.wait());
        while !parked() {
            std::thread::yield_now();
        }
        release(c);
        waiter.join().expect("the waiter thread")
    }

    #[test]
    fn parked_wait_returns_on_complete() {
        let got = parked_wait(|c| c.complete(Ok(Value::Int(3))));
        assert_eq!(got.unwrap(), Value::Int(3));
    }

    #[test]
    fn parked_wait_fails_when_the_completer_drops() {
        let got = parked_wait(drop);
        assert!(got.unwrap_err().to_string().contains("shut down"));
    }

    #[test]
    fn a_dropped_completer_fails_try_wait_and_wait_timeout() {
        let (c, w) = ResponseWaiter::new();
        drop(c);
        let got = w.try_wait().expect("answered by the drop");
        assert!(got.unwrap_err().to_string().contains("shut down"));
        let (c, w) = ResponseWaiter::new();
        drop(c);
        let got = w.wait_timeout(Duration::from_secs(5)).expect("answered");
        assert!(got.unwrap_err().to_string().contains("shut down"));
    }

    #[test]
    fn a_complete_after_a_timeout_still_reaches_the_waiter() {
        let (c, w) = ResponseWaiter::new();
        assert!(w.wait_timeout(Duration::from_millis(5)).is_none());
        c.complete(Ok(Value::Int(8)));
        drop(c);
        assert_eq!(w.wait().unwrap(), Value::Int(8));
    }
}
