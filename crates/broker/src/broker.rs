//! An in-process, Kafka-like message broker.
//!
//! The StateFun deployment of the paper uses Kafka three ways: as the
//! ingress ("a Kafka source pushes events to the ingress router"), as the
//! egress sink, and "to re-insert an event to the streaming dataflow,
//! thereby avoiding cyclic dataflows" (§3). The experiments' latency profile
//! is dominated by these round trips, so the broker models exactly the
//! properties that matter:
//!
//! * **topics with key-hashed partitions** (stable routing, see
//!   [`se_ir::partition_for`]);
//! * **offset-addressed, replayable logs** — records are never destroyed by
//!   consumption, and consumer groups track committed offsets, which is what
//!   makes exactly-once recovery possible;
//! * **hop latency** — a record becomes *visible* to consumers only after
//!   the produce+consume network cost from [`NetConfig`] has elapsed.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use se_dataflow::{ChaosPlan, NetConfig, Waker};
use se_ir::partition_for;

/// Broker operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The topic does not exist.
    UnknownTopic(String),
    /// The partition index is out of range for the topic.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition.
        partition: usize,
    },
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownTopic(t) => write!(f, "unknown topic `{t}`"),
            BrokerError::UnknownPartition { topic, partition } => {
                write!(f, "topic `{topic}` has no partition {partition}")
            }
        }
    }
}

impl std::error::Error for BrokerError {}

/// A record as seen by a consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerRecord<T> {
    /// Offset within the partition.
    pub offset: u64,
    /// Producer-supplied routing key.
    pub key: String,
    /// Payload.
    pub value: T,
}

struct Entry<T> {
    key: String,
    value: T,
    visible_at: Instant,
}

/// What a blocked fetch re-checks, under the one lock it waits on.
struct Log<T> {
    entries: Vec<Entry<T>>,
    /// Set by [`Broker::close`]: blocking fetches return what is visible.
    closed: bool,
    /// Fetches inside `fetch_blocking`'s wait; produces skip the condvar
    /// (an unconditional `futex` syscall in `std`) while it is zero.
    parked: usize,
}

struct Partition<T> {
    log: Mutex<Log<T>>,
    appended: Condvar,
    /// Fired on every produce: how a consumer that parks on its own inbox
    /// rather than in `fetch_blocking` learns of new records.
    waker: OnceLock<Waker>,
}

impl<T> Partition<T> {
    /// Appends a record visible after `delay`, returning its offset.
    fn append(&self, key: &str, value: T, delay: Duration) -> u64 {
        let mut log = self.log.lock();
        let offset = log.entries.len() as u64;
        log.entries.push(Entry {
            key: key.to_owned(),
            value,
            visible_at: Instant::now() + delay,
        });
        let parked = log.parked > 0;
        drop(log);
        if parked {
            self.appended.notify_all();
        }
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
        offset
    }
}

struct TopicData<T> {
    partitions: Vec<Partition<T>>,
}

struct Inner<T> {
    topics: Mutex<HashMap<String, Arc<TopicData<T>>>>,
    // (group, topic, partition) → committed offset
    offsets: Mutex<HashMap<(String, String, usize), u64>>,
    net: NetConfig,
    /// Scripted outage windows: affected produces become visible late,
    /// and log order stalls consumers behind them — the broker is "down".
    chaos: ChaosPlan,
}

/// A shareable broker handle.
pub struct Broker<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone> Broker<T> {
    /// A broker with the given network model.
    pub fn new(net: NetConfig) -> Self {
        Self::with_chaos(net, ChaosPlan::none())
    }

    /// A broker with the given network model and a chaos plan whose outage
    /// windows delay record visibility.
    pub fn with_chaos(net: NetConfig, chaos: ChaosPlan) -> Self {
        Self {
            inner: Arc::new(Inner {
                topics: Mutex::new(HashMap::new()),
                offsets: Mutex::new(HashMap::new()),
                net,
                chaos,
            }),
        }
    }

    /// Base visibility delay of a produce plus any scripted outage delay.
    fn produce_delay(&self, bytes: usize) -> Duration {
        let mut delay = self.inner.net.broker_latency(bytes) * 2;
        if let Some(extra_us) = self.inner.chaos.broker_delay() {
            delay += self.inner.net.scaled(Duration::from_micros(extra_us));
        }
        delay
    }

    /// The broker's network model.
    pub fn net(&self) -> &NetConfig {
        &self.inner.net
    }

    /// Creates a topic with `partitions` partitions (idempotent).
    pub fn create_topic(&self, name: &str, partitions: usize) {
        assert!(partitions > 0, "topics need at least one partition");
        let mut topics = self.inner.topics.lock();
        topics.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(TopicData {
                partitions: (0..partitions)
                    .map(|_| Partition {
                        log: Mutex::new(Log {
                            entries: Vec::new(),
                            closed: false,
                            parked: 0,
                        }),
                        appended: Condvar::new(),
                        waker: OnceLock::new(),
                    })
                    .collect(),
            })
        });
    }

    fn topic(&self, name: &str) -> Result<Arc<TopicData<T>>, BrokerError> {
        self.inner
            .topics
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| BrokerError::UnknownTopic(name.to_owned()))
    }

    /// Runs `f` on one partition of a topic.
    fn with_partition<R>(
        &self,
        topic: &str,
        partition: usize,
        f: impl FnOnce(&Partition<T>) -> R,
    ) -> Result<R, BrokerError> {
        let t = self.topic(topic)?;
        let p = t
            .partitions
            .get(partition)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: topic.to_owned(),
                partition,
            })?;
        Ok(f(p))
    }

    /// Number of partitions of a topic.
    pub fn partitions(&self, topic: &str) -> Result<usize, BrokerError> {
        Ok(self.topic(topic)?.partitions.len())
    }

    /// Produces a record routed by `key`; `bytes` is the payload size used
    /// for the latency model. Returns `(partition, offset)`.
    ///
    /// The record becomes visible to consumers only after the produce and
    /// consume hops have elapsed — that is the Kafka round-trip cost the
    /// paper attributes StateFun's latency to.
    pub fn produce(
        &self,
        topic: &str,
        key: &str,
        value: T,
        bytes: usize,
    ) -> Result<(usize, u64), BrokerError> {
        let t = self.topic(topic)?;
        let partition = partition_for(key, t.partitions.len());
        let offset = t.partitions[partition].append(key, value, self.produce_delay(bytes));
        Ok((partition, offset))
    }

    /// Produces a record to an explicit partition, bypassing key routing.
    /// Used for control records that must reach *every* partition, e.g.
    /// checkpoint barriers.
    pub fn produce_to(
        &self,
        topic: &str,
        partition: usize,
        key: &str,
        value: T,
        bytes: usize,
    ) -> Result<u64, BrokerError> {
        self.with_partition(topic, partition, |p| {
            p.append(key, value, self.produce_delay(bytes))
        })
    }

    /// Registers the waker of the thread that consumes a partition through
    /// [`Broker::fetch`]: every later produce to it fires the waker — at
    /// the produce, not at visibility; the consumer times that itself from
    /// [`Broker::next_visible_at`]. A partition wakes one consumer;
    /// registering a second waker panics.
    pub fn wake_on_produce(
        &self,
        topic: &str,
        partition: usize,
        waker: Waker,
    ) -> Result<(), BrokerError> {
        self.with_partition(topic, partition, |p| {
            // An invariant, not input validation: only deploy-time wiring
            // calls this (the StateFun runtime, once per ingress partition
            // for that partition's task), so no record or peer message can
            // reach a second call.
            let set = p.waker.set(waker);
            assert!(
                set.is_ok(),
                "invariant: a partition has one consumer task, which registers its waker once at deploy"
            );
        })
    }

    /// Fetches up to `max` *visible* records from `offset` onward.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<ConsumerRecord<T>>, BrokerError> {
        self.with_partition(topic, partition, |p| {
            Self::visible_from(&p.log.lock().entries, offset, max)
        })
    }

    /// When the record at `offset` becomes (or became) visible; `None`
    /// while nothing is produced there yet. Offsets are consumed in order,
    /// so this is the instant an empty [`Broker::fetch`] from `offset`
    /// stops being empty.
    pub fn next_visible_at(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
    ) -> Result<Option<Instant>, BrokerError> {
        self.with_partition(topic, partition, |p| {
            let log = p.log.lock();
            log.entries.get(offset as usize).map(|e| e.visible_at)
        })
    }

    /// Like [`Broker::fetch`], but blocks for at least one visible record —
    /// up to `timeout` if one is given — or until the broker is closed.
    pub fn fetch_blocking(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<Vec<ConsumerRecord<T>>, BrokerError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        self.with_partition(topic, partition, |p| {
            let mut log = p.log.lock();
            loop {
                let got = Self::visible_from(&log.entries, offset, max);
                let expired = deadline.is_some_and(|d| Instant::now() >= d);
                if !got.is_empty() || log.closed || expired {
                    return got;
                }
                // Wake when the next record in log order becomes visible, a
                // new record is appended, the broker closes, or the
                // deadline passes.
                let next_visible = log.entries.get(offset as usize).map(|e| e.visible_at);
                log.parked += 1;
                match next_visible.into_iter().chain(deadline).min() {
                    Some(until) => {
                        p.appended.wait_until(&mut log, until);
                    }
                    None => p.appended.wait(&mut log),
                }
                log.parked -= 1;
            }
        })
    }

    /// Closes the broker for blocked consumers: every `fetch_blocking`,
    /// parked now or called later, returns at once with what is visible.
    /// Produces and plain fetches keep working.
    pub fn close(&self) {
        let topics: Vec<_> = self.inner.topics.lock().values().cloned().collect();
        for p in topics.iter().flat_map(|t| &t.partitions) {
            p.log.lock().closed = true;
            p.appended.notify_all();
        }
    }

    fn visible_from(entries: &[Entry<T>], offset: u64, max: usize) -> Vec<ConsumerRecord<T>> {
        let now = Instant::now();
        let mut out = Vec::new();
        for (i, e) in entries.iter().enumerate().skip(offset as usize) {
            // Offsets must be consumed in order; stop at the first
            // not-yet-visible record to preserve log order.
            if e.visible_at > now || out.len() >= max {
                break;
            }
            out.push(ConsumerRecord {
                offset: i as u64,
                key: e.key.clone(),
                value: e.value.clone(),
            });
        }
        out
    }

    /// The next offset that would be assigned in a partition (log end).
    pub fn end_offset(&self, topic: &str, partition: usize) -> Result<u64, BrokerError> {
        self.with_partition(topic, partition, |p| p.log.lock().entries.len() as u64)
    }

    /// Commits a consumer group's offset (the next offset to read).
    pub fn commit(&self, group: &str, topic: &str, partition: usize, offset: u64) {
        self.inner
            .offsets
            .lock()
            .insert((group.to_owned(), topic.to_owned(), partition), offset);
    }

    /// The committed offset of a group (0 when none committed yet).
    pub fn committed(&self, group: &str, topic: &str, partition: usize) -> u64 {
        self.inner
            .offsets
            .lock()
            .get(&(group.to_owned(), topic.to_owned(), partition))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> Broker<String> {
        let b = Broker::new(NetConfig::fast_test());
        b.create_topic("events", 4);
        b
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let b = broker();
        let (p, o) = b.produce("events", "alice", "hello".into(), 0).unwrap();
        assert_eq!(o, 0);
        std::thread::sleep(Duration::from_millis(2));
        let got = b.fetch("events", p, 0, 10).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, "hello");
        assert_eq!(got[0].key, "alice");
    }

    #[test]
    fn key_routing_is_stable_and_matches_partition_for() {
        let b = broker();
        let (p1, _) = b.produce("events", "alice", "a".into(), 0).unwrap();
        let (p2, _) = b.produce("events", "alice", "b".into(), 0).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1, partition_for("alice", 4));
    }

    #[test]
    fn visibility_delay_enforced() {
        let mut net = NetConfig::fast_test();
        net.broker_hop = Duration::from_millis(30);
        let b = Broker::new(net);
        b.create_topic("t", 1);
        b.produce("t", "k", "v".to_string(), 0).unwrap();
        assert!(
            b.fetch("t", 0, 0, 10).unwrap().is_empty(),
            "not visible yet"
        );
        std::thread::sleep(Duration::from_millis(70));
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap().len(), 1);
    }

    #[test]
    fn order_preserved_within_partition() {
        let b = broker();
        for i in 0..20 {
            b.produce("events", "bob", format!("m{i}"), 0).unwrap();
        }
        std::thread::sleep(Duration::from_millis(3));
        let p = partition_for("bob", 4);
        let got = b.fetch("events", p, 0, 100).unwrap();
        let values: Vec<String> = got.iter().map(|r| r.value.clone()).collect();
        assert_eq!(values, (0..20).map(|i| format!("m{i}")).collect::<Vec<_>>());
        assert_eq!(got.last().unwrap().offset, 19);
    }

    #[test]
    fn consumer_groups_track_independent_offsets() {
        let b = broker();
        b.commit("g1", "events", 0, 5);
        b.commit("g2", "events", 0, 9);
        assert_eq!(b.committed("g1", "events", 0), 5);
        assert_eq!(b.committed("g2", "events", 0), 9);
        assert_eq!(b.committed("g3", "events", 0), 0);
    }

    #[test]
    fn replay_from_committed_offset() {
        let b = broker();
        let p = partition_for("carol", 4);
        for i in 0..5 {
            b.produce("events", "carol", format!("m{i}"), 0).unwrap();
        }
        std::thread::sleep(Duration::from_millis(3));
        // Consume two, commit, "crash", replay from committed.
        let first = b.fetch("events", p, 0, 2).unwrap();
        b.commit("g", "events", p, first.last().unwrap().offset + 1);
        let replayed = b
            .fetch("events", p, b.committed("g", "events", p), 100)
            .unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].value, "m2");
    }

    #[test]
    fn blocking_fetch_wakes_on_produce() {
        let b = broker();
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            b2.fetch_blocking(
                "events",
                partition_for("k", 4),
                0,
                10,
                Some(Duration::from_secs(2)),
            )
        });
        std::thread::sleep(Duration::from_millis(10));
        b.produce("events", "k", "late".into(), 0).unwrap();
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn blocking_fetch_times_out_empty() {
        let b = broker();
        let got = b
            .fetch_blocking("events", 0, 0, 10, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn unknown_topic_and_partition_error() {
        let b = broker();
        assert_eq!(
            b.fetch("nope", 0, 0, 1).unwrap_err(),
            BrokerError::UnknownTopic("nope".into())
        );
        assert!(matches!(
            b.fetch("events", 99, 0, 1).unwrap_err(),
            BrokerError::UnknownPartition { .. }
        ));
    }

    #[test]
    fn end_offset_counts_invisible_records() {
        let mut net = NetConfig::fast_test();
        net.broker_hop = Duration::from_secs(10);
        let b = Broker::new(net);
        b.create_topic("t", 1);
        b.produce("t", "k", "v".to_string(), 0).unwrap();
        assert_eq!(b.end_offset("t", 0).unwrap(), 1);
        assert!(b.fetch("t", 0, 0, 1).unwrap().is_empty());
    }

    #[test]
    fn concurrent_producers_get_unique_offsets() {
        let b = Broker::new(NetConfig::fast_test());
        b.create_topic("t", 1);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| b.produce("t", "k", format!("{t}-{i}"), 0).unwrap().1)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u64>>());
    }

    #[test]
    fn produce_fires_the_partition_waker_and_tells_when_it_shows() {
        let mut net = NetConfig::fast_test();
        net.broker_hop = Duration::from_millis(20);
        let b = Broker::new(net);
        b.create_topic("t", 2);
        let (_tx, rx) = se_dataflow::delay_channel::<u8>();
        b.wake_on_produce("t", 1, rx.waker()).unwrap();
        assert_eq!(b.next_visible_at("t", 1, 0).unwrap(), None);
        let before = Instant::now();
        b.produce_to("t", 1, "k", "v".to_string(), 0).unwrap();
        // The wake comes with the produce (this untimed receive would hang
        // without it), ahead of visibility.
        assert_eq!(rx.recv_until(None), None);
        assert!(b.fetch("t", 1, 0, 10).unwrap().is_empty());
        let visible_at = b.next_visible_at("t", 1, 0).unwrap().expect("produced");
        assert!(visible_at >= before + Duration::from_millis(40));
        // Blocking until that instant is exactly enough.
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert_eq!(b.fetch("t", 1, 0, 10).unwrap().len(), 1);
        // The other partition has no waker and is left alone.
        b.produce_to("t", 0, "k", "v".to_string(), 0).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn close_releases_blocked_and_later_blocking_fetches() {
        let b = broker();
        let b2 = b.clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || b2.fetch_blocking("events", 0, 0, 10, None));
        std::thread::sleep(Duration::from_millis(10));
        b.close();
        assert!(h.join().unwrap().unwrap().is_empty());
        let late = b.fetch_blocking("events", 1, 0, 10, None);
        assert!(late.unwrap().is_empty());
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
