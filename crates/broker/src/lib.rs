//! # se-broker — an in-process, Kafka-like replayable log broker
//!
//! Models the three roles Kafka plays in the paper's StateFun deployment
//! (§3): ingress source, egress sink, and the loopback that re-inserts
//! split-function continuation events because the engine lacks cyclic
//! dataflows. See [`broker::Broker`], and [`broker::Topic`] for the handle
//! a deployment resolves each topic to once.

#![warn(missing_docs)]

pub mod broker;

pub use broker::{Broker, BrokerError, ConsumerRecord, Topic};
