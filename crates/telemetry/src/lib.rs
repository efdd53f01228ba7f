#![warn(missing_docs)]
//! Zero-dependency observability for the LibSEAL workspace.
//!
//! The paper's evaluation (§5, Figs. 5–7) is a story about where
//! cycles go — enclave transitions, log appends, invariant checks.
//! This crate is the measurement substrate: lock-free [`Counter`]s and
//! [`Gauge`]s, log-linear [`Histogram`]s with bounded-error quantiles,
//! and [`Span`]s that are *enclave-boundary aware* — each span records
//! which side of the simulated enclave it runs on and accumulates the
//! transition/handoff cycle costs charged while it is open (see
//! [`span`](mod@span)). A process-wide [`global`] registry aggregates every
//! wired crate and renders a `/metrics`-style text snapshot.
//!
//! Only `libseal-plat` is used, keeping the hermetic build intact.

pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Metric, Registry};
pub use span::{charge_boundary_cycles, Side, Span, SpanEvent};

use std::sync::OnceLock;

/// The process-wide registry every wired crate reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand for [`global`]`().counter(name)`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Shorthand for [`global`]`().gauge(name)`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Shorthand for [`global`]`().histogram(name)`.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Shorthand for [`global`]`().span(name, side)`.
pub fn span(name: &'static str, side: Side) -> Span {
    global().span(name, side)
}
