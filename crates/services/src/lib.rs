#![warn(missing_docs)]
//! Simulated Internet services and servers for evaluating LibSEAL.
//!
//! The paper evaluates LibSEAL with Apache (serving Git and ownCloud)
//! and Squid (proxying Dropbox). This crate provides from-scratch
//! equivalents that terminate STLS either natively or through a
//! [`libseal::LibSeal`] instance:
//!
//! - [`apache::ApacheServer`] — a web server with pluggable routers
//!   (static content, Git, ownCloud, reverse proxy);
//! - [`squid::SquidProxy`] — a TLS-terminating forward proxy with two
//!   TLS legs (client↔proxy, proxy↔origin);
//!
//! Both servers default to an event-driven core (an epoll reactor
//! multiplexing all connections, handlers on an lthread job pool, and
//! ready audited sessions drained through one batched enclave
//! transition per sweep); `event_loop(false)` on their config builders
//! selects the paper-faithful thread-per-connection mode instead.
//! The remaining modules:
//! - [`git`] — an in-memory Git backend speaking the smart-HTTP-like
//!   dialect the Git SSM parses, with teleport/rollback/hide-ref
//!   attack injection and a synthetic commit-history generator;
//! - [`owncloud`] — a collaborative-document sync service with
//!   lost-edit/tamper/stale-snapshot injection;
//! - [`dropbox`] — a file-metadata service speaking
//!   `commit_batch`/`list`, with blocklist-corruption/hidden-file/
//!   phantom-file injection and a simulated WAN latency floor;
//! - [`client`] — STLS HTTP clients and a closed-loop load generator
//!   measuring throughput and latency percentiles.

pub mod apache;
pub mod client;
pub mod dropbox;
pub(crate) mod event;
pub mod git;
pub mod owncloud;
pub mod squid;
pub mod tlsadapter;

pub use apache::{ApacheServer, MetricsRouter, Router, StaticContentRouter};
pub use client::{HttpsClient, LoadGenerator, LoadStats};
pub use squid::SquidProxy;
pub use tlsadapter::TlsMode;

/// Errors from the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport failure.
    Io(std::io::Error),
    /// TLS failure.
    Tls(libseal_tlsx::TlsError),
    /// LibSEAL failure.
    LibSeal(libseal::LibSealError),
    /// Protocol failure.
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "io: {e}"),
            ServiceError::Tls(e) => write!(f, "tls: {e}"),
            ServiceError::LibSeal(e) => write!(f, "libseal: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Tls(e) => Some(e),
            ServiceError::LibSeal(e) => Some(e),
            ServiceError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<libseal_tlsx::TlsError> for ServiceError {
    fn from(e: libseal_tlsx::TlsError) -> Self {
        ServiceError::Tls(e)
    }
}

impl From<libseal::LibSealError> for ServiceError {
    fn from(e: libseal::LibSealError) -> Self {
        ServiceError::LibSeal(e)
    }
}

/// Convenience alias for fallible service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
