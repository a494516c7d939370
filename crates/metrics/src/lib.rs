//! # st-metrics — experiment metrics
//!
//! Distribution and summary machinery used by the benchmark harness to
//! regenerate the paper's figures:
//!
//! * [`cdf::Ecdf`] — empirical CDFs (Fig. 2c is a CDF over time).
//! * [`summary`] — Welford accumulators with 95% CIs and Wilson-interval
//!   success rates (Fig. 2a right).
//! * [`series::TimeSeries`] — time-stamped RSS/alignment traces.
//! * [`table`] — aligned ASCII tables and CSV export for bench output.
//!
//! Plus the streaming observability layer used by fleet-scale runs:
//!
//! * [`sketch::QuantileSketch`] — mergeable log-bucketed quantile
//!   sketches with bounded relative error (constant memory, replaces
//!   raw-sample ECDFs in fleet hot paths).
//! * [`sketch_map::SketchMap`] — a canonically-ordered keyed family of
//!   sketches (per-cause interruption ledgers) with associative merge.
//! * [`obs`] — deterministic run profiler: monotonic counters (byte-
//!   identical across worker counts) + wall-time spans (reported
//!   separately so determinism tests can mask them).

pub mod cdf;
pub mod obs;
pub mod series;
pub mod sketch;
pub mod sketch_map;
pub mod summary;
pub mod table;

pub use cdf::Ecdf;
pub use obs::{Counters, Profiler, Scope, SpanStat};
pub use series::TimeSeries;
pub use sketch::QuantileSketch;
pub use sketch_map::SketchMap;
pub use summary::{Accumulator, RateCounter, Summary};
pub use table::{render_series, Table};
