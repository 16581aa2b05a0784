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
//!   [`se_ir::partition_for`]); a key picks its record's partition at
//!   produce and is not stored;
//! * **offset-addressed, replayable logs** — each partition is a
//!   [`ReplayableSource`]: reading does not consume, so a recovering
//!   consumer re-reads from the offset its snapshot recorded. Records go
//!   only when the consumer truncates below the floor its recovery can
//!   still reach ([`Topic::truncate_below`]); offsets stay absolute;
//! * **hop latency** — a record becomes *visible* to consumers only after
//!   the produce+consume network cost from [`NetConfig`] has elapsed.
//!
//! A name is looked up once: [`Broker::topic`] resolves it to a [`Topic`]
//! handle, which holds the partitions and serves every produce and read
//! with no broker-wide lock. [`Broker::produce`] and [`Broker::fetch`] by
//! name delegate to it.
//!
//! Nobody blocks in the broker: a consumer registers its inbox's waker with
//! [`Topic::wake_on_produce`] and parks on that inbox until the instant
//! [`Topic::next_visible_at`] names.

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
    /// Payload.
    pub value: T,
}

struct Entry<T> {
    value: T,
    visible_at: Instant,
}

/// One partition's log.
type Partition<T> = ReplayableSource<Entry<T>>;

struct TopicInner<T> {
    name: String,
    partitions: Box<[Partition<T>]>,
    net: NetConfig,
    /// Scripted outage windows: affected produces become visible late,
    /// and log order stalls consumers behind them — the broker is "down".
    chaos: ChaosPlan,
}

/// A resolved topic: its partitions, and the broker's network model and
/// chaos plan. Cloning shares it.
#[derive(Clone)]
pub struct Topic<T> {
    inner: Arc<TopicInner<T>>,
}

impl<T: Clone> Topic<T> {
    /// The partition a record routed by `key` goes to.
    pub fn partition_for(&self, key: &str) -> usize {
        partition_for(key, self.inner.partitions.len())
    }

    fn partition(&self, partition: usize) -> Result<&Partition<T>, BrokerError> {
        self.inner
            .partitions
            .get(partition)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: self.inner.name.clone(),
                partition,
            })
    }

    /// Appends a record to `p`, visible once the produce and consume hops
    /// (plus any scripted outage delay) have elapsed; returns its offset.
    fn append(&self, p: &Partition<T>, value: T, bytes: usize) -> u64 {
        let net = &self.inner.net;
        let mut delay = net.broker_latency(bytes) * 2;
        if let Some(extra_us) = self.inner.chaos.broker_delay() {
            delay += net.scaled(Duration::from_micros(extra_us));
        }
        p.append(Entry {
            value,
            visible_at: Instant::now() + delay,
        })
    }

    /// Produces a record to the partition `key` routes it to; `bytes` is
    /// the payload size used for the latency model. Returns `(partition,
    /// offset)`.
    ///
    /// The record becomes visible to consumers only after the produce and
    /// consume hops have elapsed — that is the Kafka round-trip cost the
    /// paper attributes StateFun's latency to.
    pub fn produce(&self, key: &str, value: T, bytes: usize) -> (usize, u64) {
        let partition = self.partition_for(key);
        let offset = self.append(&self.inner.partitions[partition], value, bytes);
        (partition, offset)
    }

    /// Produces a record to an explicit partition, bypassing key routing.
    /// Used for control records that must reach *every* partition, e.g.
    /// checkpoint barriers, and for records whose partition was picked
    /// earlier.
    pub fn produce_to(&self, partition: usize, value: T, bytes: usize) -> Result<u64, BrokerError> {
        let p = self.partition(partition)?;
        Ok(self.append(p, value, bytes))
    }

    /// Registers the waker of the thread that consumes `partition` through
    /// [`Topic::fetch`]: every later produce to it fires the waker — at
    /// the produce, not at visibility; the consumer times that itself from
    /// [`Topic::next_visible_at`]. A partition wakes one consumer;
    /// registering a second waker panics.
    pub fn wake_on_produce(&self, partition: usize, waker: Waker) -> Result<(), BrokerError> {
        self.partition(partition)?.wake_on_append(waker);
        Ok(())
    }

    /// Fetches up to `max` *visible* records from `offset` onward.
    pub fn fetch(
        &self,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<ConsumerRecord<T>>, BrokerError> {
        let records = self.partition(partition)?.read_from(offset, |tail| {
            let now = Instant::now();
            // Offsets must be consumed in order; stop at the first
            // not-yet-visible record to preserve log order.
            (tail.take(max))
                .take_while(|e| e.visible_at <= now)
                .zip(offset..)
                .map(|(e, offset)| ConsumerRecord {
                    offset,
                    value: e.value.clone(),
                })
                .collect()
        });
        Ok(records)
    }

    /// When the record at `offset` becomes (or became) visible; `None`
    /// while nothing is produced there yet. Offsets are consumed in order,
    /// so this is the instant an empty [`Topic::fetch`] from `offset`
    /// stops being empty.
    pub fn next_visible_at(
        &self,
        partition: usize,
        offset: u64,
    ) -> Result<Option<Instant>, BrokerError> {
        let p = self.partition(partition)?;
        Ok(p.read_from(offset, |mut tail| tail.next().map(|e| e.visible_at)))
    }

    /// Frees one partition's records below `offset`: its consumer's
    /// recovery can no longer reach them (see
    /// [`ReplayableSource::truncate_below`]). Returns how many were freed;
    /// a later fetch below `offset` panics.
    pub fn truncate_below(&self, partition: usize, offset: u64) -> Result<u64, BrokerError> {
        Ok(self.partition(partition)?.truncate_below(offset))
    }
}

/// A shareable broker handle.
#[derive(Clone)]
pub struct Broker<T> {
    topics: Arc<Mutex<HashMap<String, Topic<T>>>>,
    net: NetConfig,
    chaos: ChaosPlan,
}

impl<T: Clone> Broker<T> {
    /// A broker with the given network model.
    pub fn new(net: NetConfig) -> Self {
        Self::with_chaos(net, ChaosPlan::none())
    }

    /// A broker with the given network model and a chaos plan whose outage
    /// windows delay record visibility.
    pub fn with_chaos(net: NetConfig, chaos: ChaosPlan) -> Self {
        let topics = Arc::default();
        Self { topics, net, chaos }
    }

    /// Creates a topic with `partitions` partitions (idempotent).
    pub fn create_topic(&self, name: &str, partitions: usize) {
        assert!(partitions > 0, "topics need at least one partition");
        let mut topics = self.topics.lock();
        topics.entry(name.to_owned()).or_insert_with(|| Topic {
            inner: Arc::new(TopicInner {
                name: name.to_owned(),
                partitions: (0..partitions).map(|_| Partition::new()).collect(),
                net: self.net.clone(),
                chaos: self.chaos.clone(),
            }),
        });
    }

    /// Resolves a topic by name, once: the handle serves every later
    /// produce and read.
    pub fn topic(&self, name: &str) -> Result<Topic<T>, BrokerError> {
        let topic = self.topics.lock().get(name).cloned();
        topic.ok_or_else(|| BrokerError::UnknownTopic(name.to_owned()))
    }

    /// [`Topic::produce`] on the topic named `topic`.
    pub fn produce(
        &self,
        topic: &str,
        key: &str,
        value: T,
        bytes: usize,
    ) -> Result<(usize, u64), BrokerError> {
        Ok(self.topic(topic)?.produce(key, value, bytes))
    }

    /// [`Topic::fetch`] on the topic named `topic`.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<ConsumerRecord<T>>, BrokerError> {
        self.topic(topic)?.fetch(partition, offset, max)
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

    /// The `events` topic of [`broker`].
    fn events() -> Topic<String> {
        broker().topic("events").unwrap()
    }

    /// A one-partition topic with a `hop` broker hop.
    fn slow_topic(hop: Duration, partitions: usize) -> Topic<String> {
        let mut net = NetConfig::fast_test();
        net.broker_hop = hop;
        let b = Broker::new(net);
        b.create_topic("t", partitions);
        b.topic("t").unwrap()
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let b = broker();
        let (p, o) = b.produce("events", "alice", "hello".into(), 0).unwrap();
        assert_eq!(o, 0);
        let got = b.fetch("events", p, 0, 10).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, "hello");
    }

    #[test]
    fn a_handle_round_trip_equals_one_through_the_name_wrappers() {
        let (by_name, by_handle) = (broker(), events());
        for (i, key) in ["alice", "bob", "alice", "carol"].into_iter().enumerate() {
            let via_name = by_name.produce("events", key, format!("m{i}"), 0);
            assert_eq!(
                via_name.unwrap(),
                by_handle.produce(key, format!("m{i}"), 0)
            );
        }
        for p in 0..4 {
            let via_name = by_name.fetch("events", p, 0, 10).unwrap();
            assert_eq!(via_name, by_handle.fetch(p, 0, 10).unwrap());
        }
        // A handle resolved later sees what the name wrappers produced.
        let late = by_name.topic("events").unwrap();
        let p = late.partition_for("alice");
        let values: Vec<_> = late.fetch(p, 0, 10).unwrap();
        assert_eq!(
            values.iter().map(|r| &r.value[..]).collect::<Vec<_>>(),
            ["m0", "m2"]
        );
    }

    #[test]
    fn one_key_always_lands_in_one_partition() {
        let t = events();
        let keys = ["alice", "bob", "carol", "dave", "erin", "frank", "k", ""];
        for round in 0..3 {
            for key in keys {
                let (p, _) = t.produce(key, format!("{key}{round}"), 0);
                assert_eq!(p, t.partition_for(key));
                assert_eq!(p, partition_for(key, 4));
            }
        }
        // Each partition holds exactly the records of the keys routed to it.
        for p in 0..4 {
            let mut got: Vec<String> = t
                .fetch(p, 0, 100)
                .unwrap()
                .into_iter()
                .map(|r| r.value)
                .collect();
            got.sort();
            let mut want: Vec<String> = (0..3)
                .flat_map(|round| {
                    keys.iter()
                        .filter(|k| partition_for(k, 4) == p)
                        .map(move |k| format!("{k}{round}"))
                })
                .collect();
            want.sort();
            assert_eq!(got, want, "partition {p}");
        }
    }

    #[test]
    fn reads_at_or_past_the_end_are_empty_and_offsets_stay_absolute() {
        let t = events();
        for i in 0..3 {
            t.produce_to(1, format!("m{i}"), 0).unwrap();
        }
        let at_end = |t: &Topic<String>, offset: u64| {
            for o in [offset, offset + 1, offset + 100] {
                assert!(t.fetch(1, o, 10).unwrap().is_empty(), "fetch at {o}");
                assert_eq!(t.next_visible_at(1, o).unwrap(), None, "next at {o}");
            }
        };
        at_end(&t, 3);
        assert!(t.next_visible_at(1, 2).unwrap().is_some());
        assert_eq!(t.truncate_below(1, 2).unwrap(), 2);
        at_end(&t, 3);
        assert_eq!(t.fetch(1, 2, 10).unwrap()[0].offset, 2);
        // Truncated to the end: still absolute, and the next produce
        // continues the count.
        assert_eq!(t.truncate_below(1, 3).unwrap(), 1);
        at_end(&t, 3);
        assert_eq!(t.produce_to(1, "m3".into(), 0).unwrap(), 3);
        let got = t.fetch(1, 3, 10).unwrap();
        assert_eq!((got[0].offset, &got[0].value[..]), (3, "m3"));
        at_end(&t, 4);
        // An untouched partition is empty from offset 0.
        assert!(t.fetch(0, 0, 10).unwrap().is_empty());
        assert_eq!(t.next_visible_at(0, 0).unwrap(), None);
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
        let t = slow_topic(Duration::from_millis(30), 1);
        let (_tx, rx) = se_dataflow::delay_channel::<u8>();
        t.wake_on_produce(0, rx.waker()).unwrap();
        let before = Instant::now();
        t.produce("k", "v".to_string(), 0);
        assert!(t.fetch(0, 0, 10).unwrap().is_empty(), "not visible yet");
        let visible_at = t.next_visible_at(0, 0).unwrap().expect("produced");
        assert!(visible_at >= before + Duration::from_millis(60), "two hops");
        // The produce's wake ends the first receive; the second lasts
        // until the record shows.
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert!(Instant::now() >= visible_at);
        assert_eq!(t.fetch(0, 0, 10).unwrap().len(), 1);
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
        assert!(b.topic("nope").is_err());
        assert!(matches!(
            b.fetch("events", 99, 0, 1).unwrap_err(),
            BrokerError::UnknownPartition { .. }
        ));
        let t = b.topic("events").unwrap();
        assert!(matches!(
            t.produce_to(4, "v".into(), 0).unwrap_err(),
            BrokerError::UnknownPartition { partition: 4, .. }
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
        let t = slow_topic(Duration::from_millis(20), 2);
        let (_tx, rx) = se_dataflow::delay_channel::<u8>();
        t.wake_on_produce(1, rx.waker()).unwrap();
        assert_eq!(t.next_visible_at(1, 0).unwrap(), None);
        let before = Instant::now();
        t.produce_to(1, "v".to_string(), 0).unwrap();
        // The wake comes with the produce (this untimed receive would hang
        // without it), ahead of visibility.
        assert_eq!(rx.recv_until(None), None);
        assert!(t.fetch(1, 0, 10).unwrap().is_empty());
        let visible_at = t.next_visible_at(1, 0).unwrap().expect("produced");
        assert!(visible_at >= before + Duration::from_millis(40));
        // Blocking until that instant is exactly enough.
        assert_eq!(rx.recv_until(Some(visible_at)), None);
        assert_eq!(t.fetch(1, 0, 10).unwrap().len(), 1);
        // The other partition has no waker and is left alone.
        t.produce_to(0, "v".to_string(), 0).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn truncation_keeps_offsets_absolute_per_partition() {
        let t = events();
        let p = t.partition_for("dave");
        let other = (p + 1) % 4;
        for i in 0..5 {
            t.produce("dave", format!("m{i}"), 0);
            t.produce_to(other, format!("o{i}"), 0).unwrap();
        }
        assert_eq!(t.truncate_below(p, 3).unwrap(), 3);
        assert_eq!(t.truncate_below(p, 3).unwrap(), 0, "no-op");
        let got = t.fetch(p, 3, 10).unwrap();
        assert_eq!(got.iter().map(|r| r.offset).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(got[0].value, "m3");
        assert!(t.next_visible_at(p, 4).unwrap().is_some());
        assert_eq!(t.next_visible_at(p, 5).unwrap(), None);
        assert_eq!(t.produce("dave", "m5".into(), 0).1, 5);
        assert_eq!(t.fetch(p, 5, 10).unwrap()[0].value, "m5");
        // The neighbouring partition keeps its whole log.
        assert_eq!(t.fetch(other, 0, 10).unwrap().len(), 5);
        assert_eq!(t.truncate_below(other, 99).unwrap(), 5, "clamps");
        assert!(t.fetch(other, 5, 10).unwrap().is_empty());
        assert!(matches!(
            t.truncate_below(99, 1).unwrap_err(),
            BrokerError::UnknownPartition { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "invariant: no read below a source's truncation floor")]
    fn fetch_below_the_floor_panics() {
        let t = events();
        for i in 0..3 {
            t.produce_to(0, format!("m{i}"), 0).unwrap();
        }
        t.truncate_below(0, 2).unwrap();
        let _ = t.fetch(0, 1, 10);
    }
}
