//! End-to-end benchmark of the commsched scheduler.
//!
//! Replays seeded job logs through `Engine::run`, reports host throughput
//! and the paper's simulated outcomes, and splits the wall time across
//! layers by replaying one traced run through the public layer calls
//! (see `README.md`).

pub mod bench;
pub mod check;
pub mod clock;
pub mod replay;
pub mod spec;
