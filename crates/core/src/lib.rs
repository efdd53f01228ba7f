#![warn(missing_docs)]
//! **LibSEAL**: a SEcure Audit Library revealing service integrity
//! violations using trusted execution.
//!
//! This crate reproduces the primary contribution of *LibSEAL:
//! Revealing Service Integrity Violations Using Trusted Execution*
//! (Aublin et al., EuroSys 2018) as a Rust library over the
//! workspace's simulated SGX TEE:
//!
//! - [`termination::LibSeal`] — the drop-in TLS termination shim that
//!   observes all service requests and responses from inside an
//!   enclave (§3, §4), with shadow structures, secure callbacks, an
//!   untrusted memory pool and optional asynchronous enclave calls;
//! - [`log::AuditLog`] — the non-repudiable relational audit log:
//!   hash-chained, Ed25519-signed, sealed to disk, rollback-protected
//!   by a ROTE quorum, trimmable (§5.1);
//! - [`ssm`] — service-specific modules for Git, ownCloud and Dropbox
//!   with the paper's schemas, invariants and trimming queries (§6.2);
//! - [`check`] — SQL invariant checking with interval scheduling,
//!   client-triggered checks and in-band result delivery (§5.2);
//! - [`provision`] — attestation-gated certificate provisioning, the
//!   §6.3 defence against the provider bypassing the audit layer;
//! - [`merge`] — multi-instance partial-log merging for scale-out
//!   deployments (the §3.2 extension): each instance is one
//!   [`termination::LibSeal`] enclave with its own log, and the
//!   instances' logs are merged for checking.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for a complete
//! client/server round trip with attack detection.

pub mod check;
pub mod commit;
pub mod log;
pub mod merge;
pub mod provision;
pub mod ssm;
pub mod termination;
pub mod verifier;

pub use check::{CheckOutcome, CheckReport, Checker};
pub use commit::{CommitQueue, GroupCommitConfig, Sealer};
pub use log::{AuditLog, CommitMode, LogBacking, TableSpec};
pub use provision::{CertProvisioner, IdentityIssuer};
pub use ssm::{
    DropboxModule, GitModule, Invariant, MessagingModule, OwnCloudModule, ServiceModule,
};
pub use termination::{
    AttestedIdentity, GuardConfig, LibSeal, LibSealConfig, LibSealConfigBuilder, SessionInput,
    SessionOutcome, ShadowSsl,
};
pub use verifier::{Verifier, VerifierConfig, VerifierQueue};

pub use libseal_telemetry as telemetry;

/// Errors surfaced by LibSEAL.
#[derive(Debug)]
pub enum LibSealError {
    /// Audit-log failure.
    Log(String),
    /// The log failed an integrity check — evidence of tampering.
    Tampered(String),
    /// Underlying database error.
    Db(libseal_sealdb::DbError),
    /// Underlying TLS error.
    Tls(libseal_tlsx::TlsError),
    /// Attestation failure.
    Attestation(String),
    /// The referenced session does not exist.
    NoSuchSession(u64),
    /// The operation needs auditing, which is not configured.
    AuditingDisabled,
}

impl std::fmt::Display for LibSealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibSealError::Log(m) => write!(f, "audit log error: {m}"),
            LibSealError::Tampered(m) => write!(f, "log integrity violation: {m}"),
            LibSealError::Db(e) => write!(f, "database error: {e}"),
            LibSealError::Tls(e) => write!(f, "TLS error: {e}"),
            LibSealError::Attestation(m) => write!(f, "attestation error: {m}"),
            LibSealError::NoSuchSession(sid) => write!(f, "no such session: {sid}"),
            LibSealError::AuditingDisabled => write!(f, "auditing is not configured"),
        }
    }
}

impl std::error::Error for LibSealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LibSealError::Db(e) => Some(e),
            LibSealError::Tls(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias for fallible LibSEAL operations.
pub type Result<T> = std::result::Result<T, LibSealError>;
