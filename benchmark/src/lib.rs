//! The repo benchmark: five workloads from an elided critical section to
//! a durable write, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` beside this crate.

pub mod client;
pub mod guard;
pub mod layers;
pub mod ops;
pub mod procfs;
pub mod report;
pub mod run;
pub mod section;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod window;
pub mod workloads;
