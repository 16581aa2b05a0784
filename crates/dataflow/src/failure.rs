//! Fault injection, re-exported from `se-chaos`.
//!
//! The scripted [`ChaosPlan`] (sequences of per-incarnation crashes,
//! message faults at the channel seams, broker outages) lives in `se-chaos`
//! and is re-exported here so engine crates keep a single import path. This
//! module adds the one piece that needs the dataflow substrate:
//! [`send_with_chaos`], the seam-injection helper that interprets a
//! [`MsgFaultAction`] against a [`DelaySender`].

pub use se_chaos::{ChaosPlan, CrashPoint, MsgFaultAction, Seam};

use std::time::Duration;

use crate::delay::DelaySender;
use crate::net::NetConfig;

/// Sends `msg` over `tx` with base `delay`, applying whatever fault the
/// plan scripts for the next message on `seam`. Fault delays are scaled by
/// `net`'s time scale so a script stays meaningful across `SE_TIME_SCALE`s.
///
/// Only *data-plane* messages go through here; control-plane traffic
/// (restore, snapshot markers, failure notifications) is sent directly —
/// the engines assume a reliable failure detector and alignment channel.
/// StateFlow makes that choice in one place, `Routes::route` in
/// `se_stateflow::shell`, by message kind; StateFun calls this at its two
/// remote-function seams.
pub fn send_with_chaos<T: Clone>(
    plan: &ChaosPlan,
    seam: Seam,
    net: &NetConfig,
    tx: &DelaySender<T>,
    msg: T,
    delay: Duration,
) {
    match plan.on_message(seam) {
        MsgFaultAction::Deliver => tx.send_after(msg, delay),
        MsgFaultAction::Quarantine { extra_us } => {
            // A drop that preserves liveness: with a recovery in between
            // the late copy is generation-fenced (a true loss); without
            // one the run merely stalls.
            tx.send_after(msg, delay + net.scaled(Duration::from_micros(extra_us)));
        }
        MsgFaultAction::Delay { extra_us } => {
            tx.send_after(msg, delay + net.scaled(Duration::from_micros(extra_us)));
        }
        MsgFaultAction::Duplicate { gap_us } => {
            tx.send_after(msg.clone(), delay);
            tx.send_after(msg, delay + net.scaled(Duration::from_micros(gap_us)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::delay_channel;
    use se_chaos::{FaultScript, MessageFault, MsgFaultKind};

    fn plan_with(kind: MsgFaultKind, nth: u64) -> ChaosPlan {
        ChaosPlan::from_script(FaultScript {
            messages: vec![MessageFault {
                seam: Seam::WorkerToWorker,
                nth,
                kind,
            }],
            ..FaultScript::default()
        })
    }

    #[test]
    fn deliver_passes_through() {
        let (tx, rx) = delay_channel();
        let plan = ChaosPlan::none();
        send_with_chaos(
            &plan,
            Seam::WorkerToWorker,
            &NetConfig::fast_test(),
            &tx,
            7u8,
            Duration::ZERO,
        );
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(7));
    }

    #[test]
    fn duplicate_sends_two_copies() {
        let (tx, rx) = delay_channel();
        let plan = plan_with(MsgFaultKind::Duplicate { gap_us: 0 }, 0);
        send_with_chaos(
            &plan,
            Seam::WorkerToWorker,
            &NetConfig::fast_test(),
            &tx,
            7u8,
            Duration::ZERO,
        );
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn quarantine_holds_the_message_back() {
        let (tx, rx) = delay_channel();
        let plan = plan_with(
            MsgFaultKind::Drop {
                quarantine_us: 60_000,
            },
            0,
        );
        send_with_chaos(
            &plan,
            Seam::WorkerToWorker,
            &NetConfig::fast_test(),
            &tx,
            7u8,
            Duration::ZERO,
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            None,
            "still quarantined"
        );
        assert_eq!(rx.recv_timeout(Duration::from_millis(200)), Some(7));
    }

    #[test]
    fn quarantine_scales_with_time_scale() {
        let (tx, rx) = delay_channel();
        let plan = plan_with(
            MsgFaultKind::Drop {
                quarantine_us: 10_000_000,
            },
            0,
        );
        let net = NetConfig {
            time_scale: 0.0,
            ..NetConfig::fast_test()
        };
        send_with_chaos(&plan, Seam::WorkerToWorker, &net, &tx, 7u8, Duration::ZERO);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)),
            Some(7),
            "a 10s quarantine at scale 0 is immediate"
        );
    }
}
