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
//! * **offset-addressed, replayable logs** — each partition is a
//!   [`ReplayableSource`]: reading does not consume, so a recovering
//!   consumer re-reads from the offset its snapshot recorded. Records go
//!   only when the consumer truncates below the floor its recovery can
//!   still reach ([`Broker::truncate_below`]); offsets stay absolute;
//! * **hop latency** — a record becomes *visible* to consumers only after
//!   the produce+consume network cost from [`NetConfig`] has elapsed.
//!
//! Nobody blocks in the broker: a consumer registers its inbox's waker with
//! [`Broker::wake_on_produce`] and parks on that inbox until the instant
//! [`Broker::next_visible_at`] names.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use se_dataflow::{ChaosPlan, NetConfig, ReplayableSource, Waker};
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

/// One partition's log.
type Partition<T> = ReplayableSource<Entry<T>>;

struct Inner<T> {
    topics: Mutex<HashMap<String, Arc<[Partition<T>]>>>,
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
                net,
                chaos,
            }),
        }
    }

    /// Appends a record to `p`, visible once the produce and consume hops
    /// (plus any scripted outage delay) have elapsed; returns its offset.
    fn append(&self, p: &Partition<T>, key: &str, value: T, bytes: usize) -> u64 {
        let mut delay = self.inner.net.broker_latency(bytes) * 2;
        if let Some(extra_us) = self.inner.chaos.broker_delay() {
            delay += self.inner.net.scaled(Duration::from_micros(extra_us));
        }
        p.append(Entry {
            key: key.to_owned(),
            value,
            visible_at: Instant::now() + delay,
        })
    }

    /// Creates a topic with `partitions` partitions (idempotent).
    pub fn create_topic(&self, name: &str, partitions: usize) {
        assert!(partitions > 0, "topics need at least one partition");
        let mut topics = self.inner.topics.lock();
        topics
            .entry(name.to_owned())
            .or_insert_with(|| (0..partitions).map(|_| Partition::new()).collect());
    }

    fn topic(&self, name: &str) -> Result<Arc<[Partition<T>]>, BrokerError> {
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
            .get(partition)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: topic.to_owned(),
                partition,
            })?;
        Ok(f(p))
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
        let partition = partition_for(key, t.len());
        let offset = self.append(&t[partition], key, value, bytes);
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
        self.with_partition(topic, partition, |p| self.append(p, key, value, bytes))
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
        self.with_partition(topic, partition, |p| p.wake_on_append(waker))
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
            p.read_from(offset, |tail| {
                let now = Instant::now();
                // Offsets must be consumed in order; stop at the first
                // not-yet-visible record to preserve log order.
                (tail.take(max))
                    .take_while(|e| e.visible_at <= now)
                    .zip(offset..)
                    .map(|(e, offset)| ConsumerRecord {
                        offset,
                        key: e.key.clone(),
                        value: e.value.clone(),
                    })
                    .collect()
            })
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
            p.read_from(offset, |mut tail| tail.next().map(|e| e.visible_at))
        })
    }

    /// Frees one partition's records below `offset`: its consumer's
    /// recovery can no longer reach them (see
    /// [`ReplayableSource::truncate_below`]). Returns how many were freed;
    /// a later fetch below `offset` panics.
    pub fn truncate_below(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
    ) -> Result<u64, BrokerError> {
        self.with_partition(topic, partition, |p| p.truncate_below(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A broker whose records are visible as soon as they are produced.
    fn broker() -> Broker<String> {
        let b = Broker::new(NetConfig {
            broker_hop: Duration::ZERO,
            ..NetConfig::fast_test()
        });
        b.create_topic("events", 4);
        b
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let b = broker();
        let (p, o) = b.produce("events", "alice", "hello".into(), 0).unwrap();
        assert_eq!(o, 0);
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
        let (_tx, rx) = se_dataflow::delay_channel::<u8>();
        b.wake_on_produce("t", 0, rx.waker()).unwrap();
        let before = Instant::now();
        b.produce("t", "k", "v".to_string(), 0).unwrap();
        assert!(
            b.fetch("t", 0, 0, 10).unwrap().is_empty(),
            "not visible yet"
        );
        let visible_at = b.next_visible_at("t", 0, 0).unwrap().expect("produced");
        assert!(visible_at >= before + Duration::from_millis(60), "two hops");
        // The produce's wake ends the first receive; the second lasts
        // until the record shows.
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert!(Instant::now() >= visible_at);
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap().len(), 1);
    }

    #[test]
    fn order_preserved_within_partition() {
        let b = broker();
        for i in 0..20 {
            b.produce("events", "bob", format!("m{i}"), 0).unwrap();
        }
        let p = partition_for("bob", 4);
        let got = b.fetch("events", p, 0, 100).unwrap();
        let values: Vec<String> = got.iter().map(|r| r.value.clone()).collect();
        assert_eq!(values, (0..20).map(|i| format!("m{i}")).collect::<Vec<_>>());
        assert_eq!(got.last().unwrap().offset, 19);
    }

    #[test]
    fn replay_from_an_offset() {
        let b = broker();
        let p = partition_for("carol", 4);
        for i in 0..5 {
            b.produce("events", "carol", format!("m{i}"), 0).unwrap();
        }
        // Consume two, "crash", replay from the offset after them.
        let first = b.fetch("events", p, 0, 2).unwrap();
        let resume = first.last().unwrap().offset + 1;
        let replayed = b.fetch("events", p, resume, 100).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].value, "m2");
        assert_eq!(replayed[0].offset, 2);
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
    fn truncation_keeps_offsets_absolute_per_partition() {
        let b = broker();
        let p = partition_for("dave", 4);
        let other = (p + 1) % 4;
        for i in 0..5 {
            b.produce("events", "dave", format!("m{i}"), 0).unwrap();
            b.produce_to("events", other, "k", format!("o{i}"), 0)
                .unwrap();
        }
        assert_eq!(b.truncate_below("events", p, 3).unwrap(), 3);
        assert_eq!(b.truncate_below("events", p, 3).unwrap(), 0, "no-op");
        let got = b.fetch("events", p, 3, 10).unwrap();
        assert_eq!(got.iter().map(|r| r.offset).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(got[0].value, "m3");
        assert!(b.next_visible_at("events", p, 4).unwrap().is_some());
        assert_eq!(b.next_visible_at("events", p, 5).unwrap(), None);
        let (_, o) = b.produce("events", "dave", "m5".into(), 0).unwrap();
        assert_eq!(o, 5);
        assert_eq!(b.fetch("events", p, 5, 10).unwrap()[0].value, "m5");
        // The neighbouring partition keeps its whole log.
        assert_eq!(b.fetch("events", other, 0, 10).unwrap().len(), 5);
        assert_eq!(b.truncate_below("events", other, 99).unwrap(), 5, "clamps");
        assert!(b.fetch("events", other, 5, 10).unwrap().is_empty());
        assert!(matches!(
            b.truncate_below("events", 99, 1).unwrap_err(),
            BrokerError::UnknownPartition { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "invariant: no read below a source's truncation floor")]
    fn fetch_below_the_floor_panics() {
        let b = broker();
        for i in 0..3 {
            b.produce_to("events", 0, "k", format!("m{i}"), 0).unwrap();
        }
        b.truncate_below("events", 0, 2).unwrap();
        let _ = b.fetch("events", 0, 1, 10);
    }
}
