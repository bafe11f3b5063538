//! Discrete-event simulation core for the EAR reproduction — the stand-in
//! for the CSIM 20 library used by the paper's simulator (Section V-B).
//!
//! Provides:
//!
//! * [`SimTime`] and [`EventQueue`] — the virtual clock and future-event
//!   list with deterministic FIFO tie-breaking;
//! * [`FifoEngine`] — link contention as CSIM-style FIFO facilities, the
//!   paper's model: a transfer holds every link on its path for its
//!   duration;
//! * [`Samples`], [`BoxStats`] — the five-number summaries the paper's
//!   boxplots report;
//! * [`PoissonProcess`] and [`exponential`] — the traffic distributions of
//!   Experiment B.2.
//!
//! # Example: one contended link
//!
//! ```
//! use ear_des::{drain_engine, FifoEngine, SimTime};
//! use ear_types::{Bandwidth, ByteSize};
//!
//! let mut net = FifoEngine::new();
//! let link = net.add_link(Bandwidth::gbit(1.0));
//! net.submit(SimTime::ZERO, &[link], ByteSize::mib(64));
//! net.submit(SimTime::ZERO, &[link], ByteSize::mib(64));
//! let done = drain_engine(&mut net);
//! assert!(done[1].0 > done[0].0); // the second transfer queued
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

mod dist;
mod fifo;
mod queue;
mod stats;
mod time;

pub use dist::{exponential, PoissonProcess};
pub use fifo::{drain_engine, FifoEngine, LinkId, TransferId};
pub use queue::EventQueue;
pub use stats::{BoxStats, Samples};
pub use time::SimTime;
