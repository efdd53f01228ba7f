//! A uniform server-side TLS session interface over either the plain
//! STLS library (the "LibreSSL" baseline) or a LibSEAL instance —
//! demonstrating that LibSEAL is a drop-in replacement (§4.1).

use std::sync::Arc;

use libseal::LibSeal;
use libseal_crypto::ed25519::SigningKey;
use libseal_crypto::SystemRng;
use libseal_tlsx::cert::Certificate;
use libseal_tlsx::ssl::{ReadOutcome, Role, Ssl, SslConfig};

use crate::Result;

/// How a server terminates TLS.
//
// The variant size gap (inline certificate vs `Arc`) is irrelevant:
// one value exists per server and it is cloned per worker thread, so
// boxing `Native` would only complicate every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum TlsMode {
    /// Directly with the STLS library (native baseline).
    Native {
        /// Server certificate.
        cert: Certificate,
        /// Its private key.
        key: SigningKey,
    },
    /// Through a LibSEAL instance (auditing per its configuration).
    LibSeal(Arc<LibSeal>),
}

/// One server-side TLS session under either mode.
pub enum TlsSession {
    /// Plain STLS session.
    Native(Box<Ssl>),
    /// LibSEAL-managed session: (instance, worker slot, session id).
    LibSeal(Arc<LibSeal>, usize, u64),
}

impl TlsMode {
    /// Opens a session; `worker` is the application-thread slot used
    /// for asynchronous enclave calls.
    ///
    /// # Errors
    ///
    /// Enclave entry failures (LibSEAL mode only).
    pub fn open_session(&self, worker: usize) -> Result<TlsSession> {
        match self {
            TlsMode::Native { cert, key } => {
                let cfg = Arc::new(SslConfig {
                    role: Role::Server,
                    cert: Some(cert.clone()),
                    key: Some(key.clone()),
                    ca_roots: Vec::new(),
                    verify_peer: false,
                    expected_subject: None,
                    attestation: None,
                });
                let mut entropy = [0u8; 64];
                SystemRng::new().fill(&mut entropy);
                Ok(TlsSession::Native(Box::new(Ssl::new(cfg, entropy))))
            }
            TlsMode::LibSeal(ls) => {
                let sid = ls.new_session(worker)?;
                Ok(TlsSession::LibSeal(Arc::clone(ls), worker, sid))
            }
        }
    }
}

impl TlsSession {
    /// Feeds wire ciphertext.
    ///
    /// # Errors
    ///
    /// Session/enclave failures.
    pub fn provide_input(&mut self, data: &[u8]) -> Result<()> {
        match self {
            TlsSession::Native(ssl) => {
                ssl.provide_input(data);
                Ok(())
            }
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.provide_input(*w, *sid, data)?),
        }
    }

    /// Takes ciphertext for the wire.
    ///
    /// # Errors
    ///
    /// Session/enclave failures.
    pub fn take_output(&mut self) -> Result<Vec<u8>> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.take_output()),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.take_output(*w, *sid)?),
        }
    }

    /// Progresses the handshake; true when established.
    ///
    /// # Errors
    ///
    /// Fatal handshake failures.
    pub fn do_handshake(&mut self) -> Result<bool> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.do_handshake()?),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.do_handshake(*w, *sid)?),
        }
    }

    /// Reads decrypted application data.
    ///
    /// # Errors
    ///
    /// TLS failures.
    pub fn ssl_read(&mut self) -> Result<ReadOutcome> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.ssl_read()?),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.ssl_read(*w, *sid)?),
        }
    }

    /// Writes response plaintext.
    ///
    /// # Errors
    ///
    /// TLS failures.
    pub fn ssl_write(&mut self, data: &[u8]) -> Result<()> {
        match self {
            TlsSession::Native(ssl) => {
                ssl.ssl_write(data)?;
                Ok(())
            }
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.ssl_write(*w, *sid, data)?),
        }
    }

    /// Closes the session.
    pub fn close(&mut self) {
        match self {
            TlsSession::Native(ssl) => ssl.send_close(),
            TlsSession::LibSeal(ls, w, sid) => {
                let _ = ls.close_session(*w, *sid);
            }
        }
    }
}
