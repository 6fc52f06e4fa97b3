//! # atomio-simgrid
//!
//! The simulated-cluster substrate every storage service in the workspace
//! runs on. The paper's experiments ran on the Grid'5000 testbed; this
//! crate is the laptop-scale substitution (see `DESIGN.md` §2): OS threads
//! play MPI ranks and servers, while **time is virtual**.
//!
//! ## Virtual time
//!
//! [`SimClock`] keeps a shared virtual clock. Every simulated actor
//! registers a [`Participant`]; instead of `thread::sleep`, actors call
//! [`Participant::sleep`], which posts a virtual wake-up and blocks. An
//! actor waiting for another's state (a lock grant, a barrier) calls
//! [`Participant::wait_until`] on an [`Event`] that state's owner
//! notifies; it resumes at exactly the notifier's instant. The clock
//! advances to the earliest posted wake-up only when *every* registered
//! participant is blocked, so virtual time never outruns any actor. CPU
//! work between blocks costs zero virtual time, which is the behaviour
//! we want: the phenomena under study (lock serialization vs. versioned
//! isolation) are I/O-dominated.
//!
//! ## Devices as queueing resources
//!
//! [`Resource`] models a serialized device (disk spindle, NIC port) in
//! virtual time: a transfer of duration `d` arriving at virtual time `t`
//! starts at `max(t, next_free)` and the caller sleeps until it completes.
//! This reproduces device saturation and queueing delay without holding
//! any real lock across a wait.
//!
//! ## Cost model, faults, metrics
//!
//! [`CostModel`] turns operation shapes (message, chunk transfer, metadata
//! op) into durations, with presets for a Grid'5000-like cluster.
//! [`FaultInjector`] lets tests kill/heal providers deterministically.
//! [`Metrics`] is a tiny atomic counter/timer registry used by the
//! experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cost;
pub mod fault;
pub mod metrics;
pub mod resource;
pub mod rng;

pub use clock::{Event, Participant, SimClock, SimTime};
pub use cost::CostModel;
pub use fault::FaultInjector;
pub use metrics::Metrics;
pub use resource::{ClientNics, Resource};
pub use rng::DetRng;
