//! Discrete-event simulation primitives used by the data-stall simulator.
//!
//! The input-pipeline simulator in `coordl-pipeline` models DNN training as a
//! pipelined sequence of *fetch → prep → compute* stages.  This crate provides
//! the small, well-tested building blocks that simulation is written in terms
//! of:
//!
//! * [`SimTime`] — a virtual-time newtype (seconds as `f64`) with saturating
//!   arithmetic helpers.
//! * [`PipelineRecurrence`] — the three-stage pipelined-latency recurrence
//!   used to turn per-iteration stage times into epoch time and stall
//!   attribution.
//! * [`stats`] — a nearest-rank percentile helper and the time-series
//!   recorder used for the I/O-pattern figures.

pub mod clock;
pub mod pipeline_model;
pub mod stats;

pub use clock::SimTime;
pub use pipeline_model::{PipelineRecurrence, StageSample, StallBreakdown};
pub use stats::TimeSeries;
