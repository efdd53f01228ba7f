//! A Squid-like TLS-terminating forward proxy.
//!
//! Two TLS legs, as in the paper's Dropbox deployment (§6.4, §6.6):
//! clients connect to the proxy over STLS (terminated natively or via
//! LibSEAL — the audit point), and the proxy opens its own STLS
//! connection to the origin for each client connection. Every request
//! is forwarded verbatim and every response relayed back, so the Squid
//! figure's two-handshake overhead is reproduced.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::{parse_request_limited, Limits, Response};
use libseal_httpx::ParseError;
use libseal_tlsx::attest::AttestationPolicy;
use libseal_tlsx::ssl::ReadOutcome;

use crate::client::HttpsClient;
use crate::event::PhaseTimeouts;
use crate::tlsadapter::{TlsMode, TlsSession};
use crate::Result;

/// Proxy-side request metrics.
struct SquidMetrics {
    requests: libseal_telemetry::Counter,
    request_ns: libseal_telemetry::Histogram,
    accept_errors: libseal_telemetry::Counter,
    malformed_requests: libseal_telemetry::Counter,
}

fn squid_metrics() -> &'static SquidMetrics {
    static M: std::sync::OnceLock<SquidMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| SquidMetrics {
        requests: libseal_telemetry::counter("services_squid_requests_total"),
        request_ns: libseal_telemetry::histogram("services_squid_request_ns"),
        accept_errors: libseal_telemetry::counter("services_squid_accept_errors_total"),
        malformed_requests: libseal_telemetry::counter("services_squid_malformed_requests_total"),
    })
}

/// Proxy configuration (builder).
pub struct SquidConfig {
    pub(crate) tls: TlsMode,
    pub(crate) workers: usize,
    pub(crate) upstream: SocketAddr,
    pub(crate) upstream_roots: Vec<VerifyingKey>,
    pub(crate) upstream_subject: String,
    pub(crate) upstream_attestation: Option<Arc<AttestationPolicy>>,
    pub(crate) event_loop: bool,
    pub(crate) idle_timeout: std::time::Duration,
    pub(crate) timeouts: PhaseTimeouts,
    pub(crate) max_connections: usize,
    pub(crate) drain_timeout: Duration,
    pub(crate) limits: Limits,
}

impl SquidConfig {
    /// A configuration with the default worker count (4), the
    /// event-driven core enabled and a 60 s idle-session timeout.
    /// `upstream` is the origin server; `upstream_roots` the CA roots
    /// trusted for its certificate, which must name
    /// `upstream_subject` (the proxy's upstream leg pins the subject —
    /// a valid certificate for some other host is rejected).
    pub fn new(
        tls: TlsMode,
        upstream: SocketAddr,
        upstream_roots: Vec<VerifyingKey>,
        upstream_subject: &str,
    ) -> SquidConfig {
        SquidConfig {
            tls,
            workers: 4,
            upstream,
            upstream_roots,
            upstream_subject: upstream_subject.to_string(),
            upstream_attestation: None,
            event_loop: true,
            idle_timeout: std::time::Duration::from_secs(60),
            timeouts: PhaseTimeouts::default(),
            max_connections: usize::MAX,
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }

    /// Worker threads: connection workers in threaded mode, job-pool
    /// carriers in event mode.
    #[must_use]
    pub fn workers(mut self, n: usize) -> SquidConfig {
        self.workers = n;
        self
    }

    /// Selects the event-driven core (default) or, with `false`, the
    /// paper's thread-per-connection serving model. Event mode falls
    /// back to threaded where readiness polling is unsupported.
    #[must_use]
    pub fn event_loop(mut self, on: bool) -> SquidConfig {
        self.event_loop = on;
        self
    }

    /// Event mode only: idle connections are evicted after this long
    /// without traffic.
    #[must_use]
    pub fn idle_timeout(mut self, d: std::time::Duration) -> SquidConfig {
        self.idle_timeout = d;
        self
    }

    /// Concurrent-connection cap: connections beyond it are refused
    /// immediately (shed) instead of queueing behind saturated
    /// workers. Defaults to unlimited.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> SquidConfig {
        self.max_connections = n.max(1);
        self
    }

    /// Deadline for completing the TLS handshake.
    #[must_use]
    pub fn handshake_timeout(mut self, d: Duration) -> SquidConfig {
        self.timeouts.handshake = d;
        self
    }

    /// Deadline for receiving a complete request head.
    #[must_use]
    pub fn header_timeout(mut self, d: Duration) -> SquidConfig {
        self.timeouts.header = d;
        self
    }

    /// Deadline for receiving a complete request body.
    #[must_use]
    pub fn body_timeout(mut self, d: Duration) -> SquidConfig {
        self.timeouts.body = d;
        self
    }

    /// Deadline for draining a response to a slow-reading client.
    #[must_use]
    pub fn write_timeout(mut self, d: Duration) -> SquidConfig {
        self.timeouts.write = d;
        self
    }

    /// Bound on how long a graceful drain waits for in-flight
    /// requests before tearing the rest down.
    #[must_use]
    pub fn drain_timeout(mut self, d: Duration) -> SquidConfig {
        self.drain_timeout = d;
        self
    }

    /// Request-size limits (head bytes, header count, body bytes).
    /// Oversized requests are rejected with 431/413 and the
    /// connection closed.
    #[must_use]
    pub fn http_limits(mut self, limits: Limits) -> SquidConfig {
        self.limits = limits;
        self
    }

    /// Requires the origin certificate to pass `policy` (RA-TLS) on
    /// the upstream leg: the embedded enclave quote must verify and
    /// commit to the certificate key before any request is forwarded.
    #[must_use]
    pub fn attestation(mut self, policy: Arc<AttestationPolicy>) -> SquidConfig {
        self.upstream_attestation = Some(policy);
        self
    }

    /// Drops any upstream attestation requirement (CA + subject
    /// checks only).
    #[must_use]
    pub fn no_attestation(mut self) -> SquidConfig {
        self.upstream_attestation = None;
        self
    }

    /// The upstream-leg client this configuration describes.
    fn origin_client(&self) -> HttpsClient {
        let client = HttpsClient::new(
            self.upstream,
            self.upstream_roots.clone(),
            &self.upstream_subject,
        );
        match &self.upstream_attestation {
            Some(policy) => client.attestation(Arc::clone(policy)),
            None => client,
        }
    }
}

/// The Squid personality of the shared event loop. The upstream leg
/// is per client connection (as Squid tunnels), opened lazily on the
/// first request *inside the worker job* — the origin handshake must
/// never block the reactor.
struct SquidApp {
    origin: HttpsClient,
    proxied: Arc<AtomicU64>,
}

impl crate::event::App for SquidApp {
    type Conn = Option<crate::client::PersistentConnection>;

    fn open_conn(&self) -> Self::Conn {
        None
    }

    fn handle(&self, conn: &mut Self::Conn, req: &libseal_httpx::http::Request) -> Response {
        if conn.is_none() {
            match self.origin.connect() {
                Ok(c) => *conn = Some(c),
                Err(_) => return Response::new(502, b"bad gateway".to_vec()),
            }
        }
        match conn.as_mut().expect("origin leg just opened").request(req) {
            Ok(rsp) => rsp,
            Err(_) => {
                // The origin leg died; drop it so the next request
                // redials instead of failing forever.
                *conn = None;
                Response::new(502, b"bad gateway".to_vec())
            }
        }
    }

    fn close_conn(&self, conn: &mut Self::Conn) {
        if let Some(mut origin) = conn.take() {
            origin.close();
        }
    }

    fn span_name(&self) -> &'static str {
        "squid_request"
    }

    fn on_request(&self, _path: &str, started: std::time::Instant) {
        squid_metrics().requests.inc();
        squid_metrics()
            .request_ns
            .record_duration(started.elapsed());
        self.proxied.fetch_add(1, Ordering::Relaxed);
    }

    fn on_malformed(&self) {
        squid_metrics().malformed_requests.inc();
    }

    fn on_accept_error(&self) {
        squid_metrics().accept_errors.inc();
    }
}

/// A running proxy.
pub struct SquidProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain request ([`SquidProxy::drain`]): stop accepting,
    /// deliver in-flight responses, then exit.
    draining: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    requests_proxied: Arc<AtomicU64>,
    /// Present in event mode: interrupts the parked reactor on stop.
    waker: Option<plat::reactor::Waker>,
    /// Kept to seal pending audit batches to durable after drain.
    tls: TlsMode,
}

impl SquidProxy {
    /// Starts the proxy on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn start(config: SquidConfig) -> Result<SquidProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let requests_proxied = Arc::new(AtomicU64::new(0));

        if config.event_loop && plat::reactor::supported() {
            let app = Arc::new(SquidApp {
                origin: config.origin_client(),
                proxied: Arc::clone(&requests_proxied),
            });
            let handle = crate::event::serve(
                listener,
                crate::event::EventConfig {
                    tls: config.tls.clone(),
                    workers: config.workers,
                    idle_timeout: config.idle_timeout,
                    timeouts: config.timeouts,
                    max_connections: config.max_connections,
                    drain_timeout: config.drain_timeout,
                    limits: config.limits,
                },
                app,
                Arc::clone(&shutdown),
                Arc::clone(&draining),
            )?;
            return Ok(SquidProxy {
                addr,
                shutdown,
                draining,
                handles: vec![handle.join],
                requests_proxied,
                waker: Some(handle.waker),
                tls: config.tls,
            });
        }

        let (tx, rx) = plat::channel::unbounded::<TcpStream>();
        let mut handles = Vec::new();
        // Live connections (queued + being served): the threaded
        // cap's admission counter.
        let live = Arc::new(AtomicUsize::new(0));

        {
            let shutdown = Arc::clone(&shutdown);
            let draining = Arc::clone(&draining);
            let live = Arc::clone(&live);
            let cap = config.max_connections;
            handles.push(
                std::thread::Builder::new()
                    .name("squid-accept".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::Acquire) && !draining.load(Ordering::Acquire)
                        {
                            match plat::failpoint::check("services::accept")
                                .and_then(|()| listener.accept())
                            {
                                Ok((sock, _)) => {
                                    if live.load(Ordering::Acquire) >= cap {
                                        libseal_telemetry::counter(
                                            "services_threaded_sheds_total",
                                        )
                                        .inc();
                                        drop(sock);
                                        continue;
                                    }
                                    let _ = sock.set_nodelay(true);
                                    live.fetch_add(1, Ordering::AcqRel);
                                    if tx.send(sock).is_err() {
                                        break;
                                    }
                                }
                                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                    std::thread::sleep(std::time::Duration::from_micros(200));
                                }
                                Err(_) => {
                                    // Transient accept failures
                                    // (ECONNABORTED, EMFILE, EINTR)
                                    // must not silence the proxy for
                                    // the rest of its lifetime: count,
                                    // back off briefly, retry.
                                    // Shutdown is the only exit.
                                    squid_metrics().accept_errors.inc();
                                    std::thread::sleep(std::time::Duration::from_millis(5));
                                }
                            }
                        }
                    })
                    .expect("spawn squid accept"),
            );
        }

        for worker in 0..config.workers.max(1) {
            let rx = rx.clone();
            let tls = config.tls.clone();
            let shutdown = Arc::clone(&shutdown);
            let draining = Arc::clone(&draining);
            let proxied = Arc::clone(&requests_proxied);
            let live = Arc::clone(&live);
            let origin = config.origin_client();
            let timeouts = config.timeouts;
            let limits = config.limits;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("squid-worker-{worker}"))
                    .spawn(move || {
                        let halt =
                            || shutdown.load(Ordering::Acquire) || draining.load(Ordering::Acquire);
                        loop {
                            if halt() {
                                break;
                            }
                            match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                                Ok(sock) => {
                                    let _ = proxy_connection(
                                        sock, &tls, worker, &origin, &proxied, &halt, &timeouts,
                                        &limits,
                                    );
                                    live.fetch_sub(1, Ordering::AcqRel);
                                }
                                Err(plat::channel::RecvTimeoutError::Timeout) => {}
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn squid worker"),
            );
        }

        Ok(SquidProxy {
            addr,
            shutdown,
            draining,
            handles,
            requests_proxied,
            waker: None,
            tls: config.tls,
        })
    }

    /// The proxy's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests proxied so far.
    pub fn requests_proxied(&self) -> u64 {
        self.requests_proxied.load(Ordering::Relaxed)
    }

    /// The process-wide telemetry registry the proxy reports into.
    pub fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }

    /// Stops the proxy.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Gracefully drains the proxy: stop accepting, deliver in-flight
    /// responses (bounded by the configured drain deadline in event
    /// mode), then seal pending audit batches to durable storage.
    pub fn drain(mut self) {
        self.draining.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let TlsMode::LibSeal(ls) = &self.tls {
            let _ = ls.drain(0);
        }
    }
}

impl Drop for SquidProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn proxy_connection(
    mut sock: TcpStream,
    tls: &TlsMode,
    worker: usize,
    origin: &HttpsClient,
    proxied: &AtomicU64,
    halt: &dyn Fn() -> bool,
    timeouts: &PhaseTimeouts,
    limits: &Limits,
) -> Result<()> {
    // Short socket-level tick so the blocking read loop can observe
    // halt/drain requests and phase deadlines between reads.
    sock.set_read_timeout(Some(crate::event::THREAD_READ_TICK))?;
    // A slow-reading client must not wedge the worker on a blocked
    // write either.
    sock.set_write_timeout(Some(timeouts.write))?;
    let mut session = tls.open_session(worker)?;
    let result = proxy_established(
        &mut session,
        &mut sock,
        origin,
        proxied,
        halt,
        timeouts,
        limits,
    );
    session.close();
    let _ = flush(&mut session, &mut sock);
    result
}

#[allow(clippy::too_many_arguments)]
fn proxy_established(
    session: &mut TlsSession,
    sock: &mut TcpStream,
    origin: &HttpsClient,
    proxied: &AtomicU64,
    halt: &dyn Fn() -> bool,
    timeouts: &PhaseTimeouts,
    limits: &Limits,
) -> Result<()> {
    let mut buf = [0u8; 16 * 1024];

    // Client-side handshake, bounded: a client that connects and
    // trickles (or never sends) handshake bytes is evicted at the
    // deadline instead of pinning the worker.
    let hs_deadline = Instant::now() + timeouts.handshake;
    loop {
        flush(session, sock)?;
        if session.do_handshake()? {
            break;
        }
        flush(session, sock)?;
        let n = match crate::event::read_deadline(sock, &mut buf, hs_deadline, halt) {
            Ok(n) => n,
            Err(_) => {
                libseal_telemetry::counter("services_threaded_handshake_timeouts_total").inc();
                return Ok(());
            }
        };
        if n == 0 {
            return Ok(());
        }
        session.provide_input(&buf[..n])?;
    }
    flush(session, sock)?;

    // The second TLS leg: one upstream connection per client
    // connection (as Squid does for tunnelled traffic).
    let mut origin_conn = origin.connect()?;

    let mut plain = Vec::new();
    loop {
        // Per-phase deadlines: the whole head within the header
        // deadline, the whole body within the body deadline.
        let mut deadline = Instant::now() + timeouts.header;
        let mut in_body = false;
        let req = loop {
            match parse_request_limited(&plain, limits) {
                Ok((req, used)) => {
                    plain.drain(..used);
                    break req;
                }
                Err(ParseError::Incomplete) => {
                    if !in_body && libseal_httpx::http::head_complete(&plain) {
                        in_body = true;
                        deadline = Instant::now() + timeouts.body;
                    }
                }
                Err(e) => {
                    // Provably unservable (malformed, oversized head,
                    // oversized body): previously these bytes
                    // accumulated in `plain` forever. Answer with the
                    // typed status and close.
                    let status = e.close_status();
                    if status == 400 {
                        squid_metrics().malformed_requests.inc();
                    } else {
                        libseal_telemetry::counter("services_threaded_limit_rejections_total")
                            .inc();
                    }
                    let rsp = Response::new(status, b"request rejected".to_vec());
                    session.ssl_write(&rsp.to_bytes())?;
                    flush(session, sock)?;
                    origin_conn.close();
                    return Ok(());
                }
            }
            match session.ssl_read()? {
                ReadOutcome::Data(d) => plain.extend_from_slice(&d),
                ReadOutcome::WantRead => {
                    flush(session, sock)?;
                    // Retry EINTR; deadline expiry, halt and real
                    // transport errors end the connection.
                    let n = match crate::event::read_deadline(sock, &mut buf, deadline, halt) {
                        Ok(n) => n,
                        Err(_) => {
                            if !plain.is_empty() {
                                libseal_telemetry::counter(if in_body {
                                    "services_threaded_body_timeouts_total"
                                } else {
                                    "services_threaded_header_timeouts_total"
                                })
                                .inc();
                            }
                            origin_conn.close();
                            return Ok(());
                        }
                    };
                    if n == 0 {
                        return Ok(());
                    }
                    session.provide_input(&buf[..n])?;
                }
                ReadOutcome::Closed => return Ok(()),
            }
        };
        let close = req
            .headers
            .get("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let started = std::time::Instant::now();
        {
            let _span = libseal_telemetry::global()
                .span("squid_request", libseal_telemetry::Side::Untrusted);
            let response = origin_conn.request(&req)?;
            session.ssl_write(&response.to_bytes())?;
            flush(session, sock)?;
        }
        squid_metrics().requests.inc();
        squid_metrics()
            .request_ns
            .record_duration(started.elapsed());
        proxied.fetch_add(1, Ordering::Relaxed);
        if close || halt() {
            origin_conn.close();
            return Ok(());
        }
    }
}

fn flush(session: &mut TlsSession, sock: &mut TcpStream) -> Result<()> {
    let out = session.take_output()?;
    if !out.is_empty() {
        sock.write_all(&out)?;
    }
    Ok(())
}
