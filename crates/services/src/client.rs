//! STLS HTTP clients and a closed-loop load generator.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_crypto::ed25519::VerifyingKey;
use libseal_crypto::SystemRng;
use libseal_httpx::http::{parse_response, Request, Response};
use libseal_telemetry::{Counter, Histogram};
use libseal_tlsx::attest::AttestationPolicy;
use libseal_tlsx::ssl::{Role, SslConfig};
use libseal_tlsx::stream::SslStream;
use libseal_tlsx::TlsError;

use crate::{Result, ServiceError};

struct ClientMetrics {
    requests: Counter,
    errors: Counter,
    sheds: Counter,
    request_ns: Histogram,
}

fn client_metrics() -> &'static ClientMetrics {
    static M: std::sync::OnceLock<ClientMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ClientMetrics {
        requests: libseal_telemetry::counter("services_client_requests_total"),
        errors: libseal_telemetry::counter("services_client_errors_total"),
        sheds: libseal_telemetry::counter("services_client_sheds_total"),
        request_ns: libseal_telemetry::histogram("services_client_request_ns"),
    })
}

/// A client issuing HTTPS requests over STLS.
#[derive(Clone)]
pub struct HttpsClient {
    addr: SocketAddr,
    ca_roots: Vec<VerifyingKey>,
    expected_subject: String,
    attestation: Option<Arc<AttestationPolicy>>,
}

impl HttpsClient {
    /// Creates a client for `addr` trusting `ca_roots` and requiring
    /// the server certificate to name `expected_subject`. Without the
    /// pin, ANY certificate under the CA passes — a valid cert for a
    /// different host would be accepted.
    pub fn new(addr: SocketAddr, ca_roots: Vec<VerifyingKey>, expected_subject: &str) -> Self {
        HttpsClient {
            addr,
            ca_roots,
            expected_subject: expected_subject.to_string(),
            attestation: None,
        }
    }

    /// Additionally requires the server certificate to pass `policy`
    /// (RA-TLS): the embedded enclave quote must verify and commit to
    /// the certificate key before the handshake completes.
    #[must_use]
    pub fn attestation(mut self, policy: Arc<AttestationPolicy>) -> Self {
        self.attestation = Some(policy);
        self
    }

    /// Drops any attestation requirement (CA + subject checks only).
    #[must_use]
    pub fn no_attestation(mut self) -> Self {
        self.attestation = None;
        self
    }

    /// One-shot request on a fresh connection (the paper's
    /// non-persistent worst case: every request pays a handshake).
    ///
    /// # Errors
    ///
    /// Connection, TLS, or protocol failures.
    pub fn request(&self, req: &Request) -> Result<Response> {
        let mut conn = self.connect()?;
        let rsp = conn.request(req)?;
        conn.close();
        Ok(rsp)
    }

    /// Opens a persistent connection.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(&self) -> Result<PersistentConnection> {
        let sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        let cfg = Arc::new(SslConfig {
            role: Role::Client,
            cert: None,
            key: None,
            ca_roots: self.ca_roots.clone(),
            verify_peer: true,
            expected_subject: Some(self.expected_subject.clone()),
            attestation: self.attestation.clone(),
        });
        let mut entropy = [0u8; 64];
        SystemRng::new().fill(&mut entropy);
        let tls = SslStream::handshake(cfg, entropy, sock)?;
        Ok(PersistentConnection { tls })
    }
}

/// A persistent (keep-alive) client connection.
pub struct PersistentConnection {
    tls: SslStream<TcpStream>,
}

impl PersistentConnection {
    /// Sends `req` and reads one full response.
    ///
    /// # Errors
    ///
    /// TLS or protocol failures.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        self.tls.write_all(&req.to_bytes())?;
        let mut buf = Vec::new();
        loop {
            match parse_response(&buf) {
                Ok((rsp, _)) => return Ok(rsp),
                Err(libseal_httpx::ParseError::Incomplete) => {}
                Err(e) => return Err(ServiceError::Protocol(e.to_string())),
            }
            match self.tls.read_some() {
                Ok(d) => buf.extend_from_slice(&d),
                Err(TlsError::Closed) => {
                    return Err(ServiceError::Protocol("closed mid-response".into()))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Sends close_notify.
    pub fn close(&mut self) {
        self.tls.close();
    }
}

/// Latency and throughput statistics from one load run.
///
/// Quantiles come from a log-linear [`Histogram`] snapshot, so they
/// are upper bounds within 1/16 relative error of the true sample.
#[derive(Clone, Debug)]
pub struct LoadStats {
    /// Total completed requests.
    pub requests: u64,
    /// Errors observed.
    pub errors: u64,
    /// Load-shed refusals observed (connection refused/reset by an
    /// overloaded server, or an explicit 503). Counted separately from
    /// `errors`: shedding is the server working as designed, not a
    /// fault.
    pub shed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Mean latency.
    pub mean_latency: Duration,
    /// Median latency.
    pub p50_latency: Duration,
    /// 95th percentile latency.
    pub p95_latency: Duration,
    /// 99th percentile latency.
    pub p99_latency: Duration,
}

impl LoadStats {
    /// Requests per second.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Closed-loop load generator: `clients` threads each issue requests
/// back-to-back for `duration`.
pub struct LoadGenerator {
    /// Concurrent client threads.
    pub clients: usize,
    /// Run duration.
    pub duration: Duration,
    /// Reuse connections (persistent) or reconnect per request.
    pub persistent: bool,
    /// Base pause after a load-shed refusal before reconnecting, with
    /// deterministic per-thread jitter (so a shed fleet does not
    /// stampede back in lockstep). `None` retries immediately.
    pub shed_backoff: Option<Duration>,
}

impl Default for LoadGenerator {
    fn default() -> LoadGenerator {
        LoadGenerator {
            clients: 1,
            duration: Duration::from_secs(1),
            persistent: true,
            shed_backoff: None,
        }
    }
}

/// How one request attempt ended.
enum Attempt {
    Ok(Duration),
    Shed,
    Err,
}

/// Distinguishes a deliberate refusal by an overloaded server from a
/// genuine fault. Refused/reset/aborted transport errors and explicit
/// 503 responses are sheds.
fn classify(result: &Result<Response>, latency: Duration) -> Attempt {
    match result {
        Ok(rsp) if rsp.status == 503 => Attempt::Shed,
        Ok(_) => Attempt::Ok(latency),
        Err(ServiceError::Io(e)) => match e.kind() {
            std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => Attempt::Shed,
            _ => Attempt::Err,
        },
        Err(ServiceError::Tls(TlsError::Closed)) => Attempt::Shed,
        Err(ServiceError::Tls(TlsError::Io(m)))
            if m.contains("refused") || m.contains("reset") || m.contains("aborted") =>
        {
            Attempt::Shed
        }
        Err(_) => Attempt::Err,
    }
}

impl LoadGenerator {
    /// The process-wide telemetry registry the generator reports into
    /// (`services_client_*` metrics).
    pub fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }

    /// Runs the load; `make_request` builds the i-th request of a
    /// client thread.
    pub fn run(
        &self,
        client: &HttpsClient,
        make_request: impl Fn(usize, u64) -> Request + Send + Sync,
    ) -> LoadStats {
        let stop = Arc::new(AtomicBool::new(false));
        // Standalone per-run instruments: the global
        // `services_client_*` metrics accumulate across runs, these
        // scope LoadStats to this run only.
        let run_hist = Histogram::new();
        let run_errors = Counter::new();
        let run_sheds = Counter::new();
        let make_request = &make_request;
        let start = Instant::now();

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for c in 0..self.clients {
                let stop = Arc::clone(&stop);
                let run_hist = run_hist.clone();
                let run_errors = run_errors.clone();
                let run_sheds = run_sheds.clone();
                handles.push(scope.spawn(move || {
                    let mut i = 0u64;
                    let mut conn = if self.persistent {
                        client.connect().ok()
                    } else {
                        None
                    };
                    while !stop.load(Ordering::Acquire) {
                        let req = make_request(c, i);
                        let t0 = Instant::now();
                        let result = if self.persistent {
                            match conn.as_mut() {
                                Some(pc) => {
                                    let r = pc.request(&req);
                                    if r.is_err() {
                                        conn = None;
                                    }
                                    r
                                }
                                None => match client.connect() {
                                    Ok(mut pc) => {
                                        let r = pc.request(&req);
                                        if r.is_ok() {
                                            conn = Some(pc);
                                        }
                                        r
                                    }
                                    Err(e) => Err(e),
                                },
                            }
                        } else {
                            client.request(&req)
                        };
                        match classify(&result, t0.elapsed()) {
                            Attempt::Ok(lat) => {
                                run_hist.record_duration(lat);
                                client_metrics().request_ns.record_duration(lat);
                                client_metrics().requests.inc();
                            }
                            Attempt::Shed => {
                                run_sheds.inc();
                                client_metrics().sheds.inc();
                                if let Some(base) = self.shed_backoff {
                                    // Deterministic jitter (thread id
                                    // and attempt index), 100-200 % of
                                    // the base: spreads the fleet's
                                    // retries without a shared RNG.
                                    let spread = (c as u64)
                                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                        .wrapping_add(i)
                                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                                        >> 32;
                                    let jitter =
                                        base.mul_f64((spread % 1000) as f64 / 1000.0);
                                    std::thread::sleep(base + jitter);
                                }
                            }
                            Attempt::Err => {
                                run_errors.inc();
                                client_metrics().errors.inc();
                            }
                        }
                        i += 1;
                    }
                    if let Some(mut pc) = conn {
                        pc.close();
                    }
                }));
            }
            // Timer thread.
            let duration = self.duration;
            let stop2 = Arc::clone(&stop);
            scope.spawn(move || {
                std::thread::sleep(duration);
                stop2.store(true, Ordering::Release);
            });
            for h in handles {
                let _ = h.join();
            }
        });

        let elapsed = start.elapsed();
        let snap = run_hist.snapshot();
        LoadStats {
            requests: snap.count(),
            errors: run_errors.get(),
            shed: run_sheds.get(),
            elapsed,
            mean_latency: snap.mean_duration(),
            p50_latency: snap.percentile_duration(0.5),
            p95_latency: snap.percentile_duration(0.95),
            p99_latency: snap.percentile_duration(0.99),
        }
    }
}
