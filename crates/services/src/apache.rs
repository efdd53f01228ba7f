//! An Apache-like web server terminating STLS.
//!
//! Two serving models, selected by [`ApacheConfig::event_loop`]:
//!
//! - **Event-driven (default)**: one epoll reactor multiplexes every
//!   connection, ready audited sessions are drained through a single
//!   batched enclave transition per sweep, and handlers run on an
//!   lthread job pool (the crate-private `event` module).
//! - **Threaded** (the paper's model): a fixed pool of worker threads
//!   serves whole connections from an accept queue; each worker owns
//!   one async-ecall slot when the TLS mode is a LibSEAL instance with
//!   the §4.3 runtime.
//!
//! Routers plug the application in: static content for the TLS
//! micro-benchmarks (Fig. 7a, Tabs 2-4), the Git/ownCloud backends for
//! Fig. 5, or a reverse proxy (the paper's large-scale Git deployment,
//! §6.4).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_httpx::http::{parse_request_limited, Limits, Request, Response};
use libseal_httpx::ParseError;
use libseal_tlsx::ssl::ReadOutcome;

use crate::event::PhaseTimeouts;
use crate::tlsadapter::{TlsMode, TlsSession};
use crate::Result;

/// Application logic behind the server.
pub trait Router: Send + Sync {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

/// Serves `GET /content/<n>` with an `n`-byte body (the paper's
/// variable content-size workload).
pub struct StaticContentRouter;

impl Router for StaticContentRouter {
    fn handle(&self, req: &Request) -> Response {
        if let Some(size) = req.path().strip_prefix("/content/") {
            if let Ok(n) = size.parse::<usize>() {
                return Response::new(200, vec![b'x'; n]);
            }
        }
        Response::new(404, b"not found".to_vec())
    }
}

/// Wraps a router with a fixed application-processing delay, modelling
/// backend work (the real git-http-backend, PHP engine, etc.) that the
/// TLS layer under study is not responsible for.
pub struct DelayRouter {
    /// Simulated processing time per request.
    pub delay: std::time::Duration,
    /// Burn CPU (true) or sleep (false). CPU-bound work models a
    /// saturated application core (the paper's Git backend); sleeping
    /// models waiting on external resources.
    pub busy: bool,
    /// The wrapped application.
    pub inner: Arc<dyn Router>,
}

impl Router for DelayRouter {
    fn handle(&self, req: &Request) -> Response {
        if !self.delay.is_zero() {
            if self.busy {
                libseal_sgxsim::cost::spin_for_nanos(self.delay.as_nanos() as u64);
            } else {
                std::thread::sleep(self.delay);
            }
        }
        self.inner.handle(req)
    }
}

/// Forwards every request to an upstream server over its own STLS
/// connection — the paper's large-scale Git deployment (§6.4): Apache
/// in reverse-proxy mode, linked against LibSEAL, logging all traffic
/// and forwarding to backend servers.
pub struct ReverseProxyRouter {
    origin: crate::client::HttpsClient,
}

impl ReverseProxyRouter {
    /// Creates a reverse proxy towards `upstream`, trusting `roots`
    /// for a certificate naming `upstream_subject`.
    pub fn new(
        upstream: std::net::SocketAddr,
        roots: Vec<libseal_crypto::ed25519::VerifyingKey>,
        upstream_subject: &str,
    ) -> Self {
        ReverseProxyRouter {
            origin: crate::client::HttpsClient::new(upstream, roots, upstream_subject),
        }
    }

    /// Requires the origin certificate to pass `policy` (RA-TLS).
    #[must_use]
    pub fn attestation(
        mut self,
        policy: std::sync::Arc<libseal_tlsx::attest::AttestationPolicy>,
    ) -> Self {
        self.origin = self.origin.attestation(policy);
        self
    }
}

impl Router for ReverseProxyRouter {
    fn handle(&self, req: &Request) -> Response {
        // One upstream connection per request keeps the router
        // stateless; a production proxy would pool connections.
        match self.origin.request(req) {
            Ok(rsp) => rsp,
            Err(e) => Response::new(502, format!("upstream error: {e}").into_bytes()),
        }
    }
}

/// Router from a plain function.
pub struct FnRouter<F: Fn(&Request) -> Response + Send + Sync>(pub F);

impl<F: Fn(&Request) -> Response + Send + Sync> Router for FnRouter<F> {
    fn handle(&self, req: &Request) -> Response {
        self.0(req)
    }
}

/// Serves `GET /metrics` with a plain-text snapshot of the process-wide
/// telemetry registry (counters, gauges, histograms and recent span
/// traces from every instrumented crate), delegating everything else to
/// the wrapped router (404 when standalone).
pub struct MetricsRouter {
    inner: Option<Arc<dyn Router>>,
}

impl MetricsRouter {
    /// A standalone metrics endpoint: `/metrics` only, 404 elsewhere.
    pub fn new() -> Self {
        MetricsRouter { inner: None }
    }

    /// Wraps `inner`, adding the `/metrics` route in front of it.
    pub fn wrapping(inner: Arc<dyn Router>) -> Self {
        MetricsRouter { inner: Some(inner) }
    }
}

impl Default for MetricsRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for MetricsRouter {
    fn handle(&self, req: &Request) -> Response {
        if req.method == "GET" && req.path() == "/metrics" {
            let body = libseal_telemetry::global().render_text();
            return Response::new(200, body.into_bytes());
        }
        match &self.inner {
            Some(inner) => inner.handle(req),
            None => Response::new(404, b"not found".to_vec()),
        }
    }
}

/// Server-side request metrics: lifecycle counters, latency histogram
/// and bounded-cardinality per-route counters.
struct ApacheMetrics {
    requests: libseal_telemetry::Counter,
    request_ns: libseal_telemetry::Histogram,
    accept_errors: libseal_telemetry::Counter,
    malformed_requests: libseal_telemetry::Counter,
    /// Route label -> counter; capped at [`ROUTE_CARDINALITY_CAP`]
    /// labels, everything beyond lands on `other`.
    routes: plat::sync::Mutex<std::collections::HashMap<String, libseal_telemetry::Counter>>,
}

/// Most distinct per-route counters before falling back to `other` —
/// keeps a path-scanning client from minting unbounded metric names.
const ROUTE_CARDINALITY_CAP: usize = 32;

/// Longest route label kept verbatim — a single huge path segment must
/// not mint an arbitrarily long metric name.
const ROUTE_LABEL_MAX: usize = 48;

fn apache_metrics() -> &'static ApacheMetrics {
    static M: std::sync::OnceLock<ApacheMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ApacheMetrics {
        requests: libseal_telemetry::counter("services_apache_requests_total"),
        request_ns: libseal_telemetry::histogram("services_apache_request_ns"),
        accept_errors: libseal_telemetry::counter("services_apache_accept_errors_total"),
        malformed_requests: libseal_telemetry::counter("services_apache_malformed_requests_total"),
        routes: plat::sync::Mutex::new(std::collections::HashMap::new()),
    })
}

/// First path segment, sanitised to a metric-name-safe `[a-z0-9_]`
/// label and truncated to [`ROUTE_LABEL_MAX`] characters.
fn route_label(path: &str) -> String {
    let seg = path
        .trim_start_matches('/')
        .split(['/', '?'])
        .next()
        .unwrap_or("");
    if seg.is_empty() {
        return "root".to_string();
    }
    seg.chars()
        .take(ROUTE_LABEL_MAX)
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn bump_route(path: &str) {
    let label = route_label(path);
    let mut routes = apache_metrics().routes.lock();
    let counter = match routes.get(&label) {
        Some(c) => c.clone(),
        None => {
            let effective = if routes.len() >= ROUTE_CARDINALITY_CAP {
                "other".to_string()
            } else {
                label
            };
            routes
                .entry(effective.clone())
                .or_insert_with(|| {
                    libseal_telemetry::counter(&format!(
                        "services_apache_route_{effective}_requests_total"
                    ))
                })
                .clone()
        }
    };
    counter.inc();
}

/// Server configuration (builder).
///
/// ```
/// # use std::sync::Arc;
/// # use libseal_services::apache::{ApacheConfig, StaticContentRouter};
/// # fn demo(tls: libseal_services::TlsMode) -> ApacheConfig {
/// ApacheConfig::new(tls, Arc::new(StaticContentRouter))
///     .workers(8)
///     .event_loop(false) // paper-faithful thread-per-connection
/// # }
/// ```
pub struct ApacheConfig {
    pub(crate) tls: TlsMode,
    pub(crate) workers: usize,
    pub(crate) router: Arc<dyn Router>,
    pub(crate) event_loop: bool,
    pub(crate) idle_timeout: Duration,
    pub(crate) timeouts: PhaseTimeouts,
    pub(crate) max_connections: usize,
    pub(crate) drain_timeout: Duration,
    pub(crate) limits: Limits,
}

impl ApacheConfig {
    /// A configuration with the default worker count (4), the
    /// event-driven core enabled, a 60 s idle-session timeout, no
    /// connection cap, default phase deadlines and a 5 s drain bound.
    pub fn new(tls: TlsMode, router: Arc<dyn Router>) -> ApacheConfig {
        ApacheConfig {
            tls,
            workers: 4,
            router,
            event_loop: true,
            idle_timeout: Duration::from_secs(60),
            timeouts: PhaseTimeouts::default(),
            max_connections: usize::MAX,
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }

    /// Worker threads: connection workers in threaded mode, job-pool
    /// carriers (application threads `A` in §4.3 terms) in event mode.
    #[must_use]
    pub fn workers(mut self, n: usize) -> ApacheConfig {
        self.workers = n;
        self
    }

    /// Selects the event-driven core (default) or, with `false`, the
    /// paper's thread-per-connection serving model. Event mode falls
    /// back to threaded where readiness polling is unsupported.
    #[must_use]
    pub fn event_loop(mut self, on: bool) -> ApacheConfig {
        self.event_loop = on;
        self
    }

    /// Event mode only: idle connections are evicted after this long
    /// without traffic.
    #[must_use]
    pub fn idle_timeout(mut self, d: Duration) -> ApacheConfig {
        self.idle_timeout = d;
        self
    }

    /// Most concurrent connections; accepts beyond the cap are shed
    /// (refused fast) instead of queued. Default: unlimited.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> ApacheConfig {
        self.max_connections = n.max(1);
        self
    }

    /// Deadline for a client to finish its TLS handshake (default
    /// 10 s); expiry evicts the connection.
    #[must_use]
    pub fn handshake_timeout(mut self, d: Duration) -> ApacheConfig {
        self.timeouts.handshake = d;
        self
    }

    /// Deadline to finish a request's header section once its first
    /// byte arrived (default 10 s). The deadline is per phase, not
    /// per byte: trickling headers does not extend it.
    #[must_use]
    pub fn header_timeout(mut self, d: Duration) -> ApacheConfig {
        self.timeouts.header = d;
        self
    }

    /// Deadline to finish a request body once the head completed
    /// (default 30 s).
    #[must_use]
    pub fn body_timeout(mut self, d: Duration) -> ApacheConfig {
        self.timeouts.body = d;
        self
    }

    /// Deadline for a peer to drain a queued response (default 30 s);
    /// a stuck reader is evicted, not held forever.
    #[must_use]
    pub fn write_timeout(mut self, d: Duration) -> ApacheConfig {
        self.timeouts.write = d;
        self
    }

    /// Bound on the graceful drain in [`ApacheServer::stop`]: how
    /// long in-flight requests get to deliver before teardown cuts
    /// stragglers off (default 5 s).
    #[must_use]
    pub fn drain_timeout(mut self, d: Duration) -> ApacheConfig {
        self.drain_timeout = d;
        self
    }

    /// HTTP parser limits (head bytes, header count, body bytes);
    /// breaching them answers 431/413 and closes the connection.
    #[must_use]
    pub fn http_limits(mut self, limits: Limits) -> ApacheConfig {
        self.limits = limits;
        self
    }
}

/// The Apache personality of the shared event loop: route via the
/// configured [`Router`], report into the same metrics as the
/// threaded path.
struct ApacheApp {
    router: Arc<dyn Router>,
    served: Arc<AtomicU64>,
}

impl crate::event::App for ApacheApp {
    type Conn = ();

    fn open_conn(&self) {}

    fn handle(&self, _conn: &mut (), req: &Request) -> Response {
        self.router.handle(req)
    }

    fn span_name(&self) -> &'static str {
        "apache_request"
    }

    fn on_request(&self, path: &str, started: std::time::Instant) {
        let m = apache_metrics();
        m.requests.inc();
        m.request_ns.record_duration(started.elapsed());
        bump_route(path);
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn on_malformed(&self) {
        apache_metrics().malformed_requests.inc();
    }

    fn on_accept_error(&self) {
        apache_metrics().accept_errors.inc();
    }
}

/// A running server instance.
pub struct ApacheServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain request ([`ApacheServer::stop`]): stop
    /// accepting, deliver in-flight responses, then exit.
    draining: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    requests_served: Arc<AtomicU64>,
    /// Present in event mode: interrupts the parked reactor on stop.
    waker: Option<plat::reactor::Waker>,
    /// Kept to seal pending audit batches to durable after drain.
    tls: TlsMode,
}

impl ApacheServer {
    /// Starts the server on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn start(config: ApacheConfig) -> Result<ApacheServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let requests_served = Arc::new(AtomicU64::new(0));

        if config.event_loop && plat::reactor::supported() {
            let app = Arc::new(ApacheApp {
                router: Arc::clone(&config.router),
                served: Arc::clone(&requests_served),
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
            return Ok(ApacheServer {
                addr,
                shutdown,
                draining,
                handles: vec![handle.join],
                requests_served,
                waker: Some(handle.waker),
                tls: config.tls,
            });
        }

        let (tx, rx) = plat::channel::unbounded::<TcpStream>();
        let mut handles = Vec::new();
        // Live connections (queued + being served): the threaded
        // cap's admission counter.
        let live = Arc::new(AtomicUsize::new(0));

        // Accept loop.
        {
            let shutdown = Arc::clone(&shutdown);
            let draining = Arc::clone(&draining);
            let live = Arc::clone(&live);
            let cap = config.max_connections;
            handles.push(
                std::thread::Builder::new()
                    .name("apache-accept".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::Acquire) && !draining.load(Ordering::Acquire)
                        {
                            match plat::failpoint::check("services::accept")
                                .and_then(|()| listener.accept())
                            {
                                Ok((sock, _)) => {
                                    if live.load(Ordering::Acquire) >= cap {
                                        // Shed: refuse fast instead of
                                        // queueing work no worker will
                                        // reach in time.
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
                                    // (ECONNABORTED on a reset
                                    // connection, EMFILE under fd
                                    // pressure, EINTR) must not kill
                                    // the listener for the server's
                                    // remaining lifetime: count, back
                                    // off briefly, retry. Shutdown is
                                    // the only exit.
                                    apache_metrics().accept_errors.inc();
                                    std::thread::sleep(std::time::Duration::from_millis(5));
                                }
                            }
                        }
                    })
                    .expect("spawn accept thread"),
            );
        }

        for worker in 0..config.workers.max(1) {
            let rx = rx.clone();
            let tls = config.tls.clone();
            let router = Arc::clone(&config.router);
            let shutdown = Arc::clone(&shutdown);
            let draining = Arc::clone(&draining);
            let served = Arc::clone(&requests_served);
            let live = Arc::clone(&live);
            let timeouts = config.timeouts;
            let limits = config.limits;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("apache-worker-{worker}"))
                    .spawn(move || {
                        let halt =
                            || shutdown.load(Ordering::Acquire) || draining.load(Ordering::Acquire);
                        loop {
                            if halt() {
                                break;
                            }
                            match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                                Ok(sock) => {
                                    let _ = serve_connection(
                                        sock,
                                        &tls,
                                        worker,
                                        router.as_ref(),
                                        &served,
                                        &halt,
                                        &timeouts,
                                        &limits,
                                    );
                                    live.fetch_sub(1, Ordering::AcqRel);
                                }
                                Err(plat::channel::RecvTimeoutError::Timeout) => {}
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }

        Ok(ApacheServer {
            addr,
            shutdown,
            draining,
            handles,
            requests_served,
            waker: None,
            tls: config.tls,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// The process-wide telemetry registry the server reports into.
    pub fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }

    /// Stops the server and joins its threads.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Gracefully drains the server: stop accepting, deliver in-flight
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
        // Every delivered response already awaited group-commit
        // durability on its write path; this catches batches still
        // staged when the last worker exited.
        if let TlsMode::LibSeal(ls) = &self.tls {
            let _ = ls.drain(0);
        }
    }
}

impl Drop for ApacheServer {
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

/// Serves one connection until close/EOF.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut sock: TcpStream,
    tls: &TlsMode,
    worker: usize,
    router: &dyn Router,
    served: &AtomicU64,
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
    // Always release the (enclave) session state, whatever path exits
    // the connection loop.
    let result = serve_established(&mut session, &mut sock, router, served, halt, timeouts, limits);
    session.close();
    let _ = flush(&mut session, &mut sock);
    result
}

fn serve_established(
    session: &mut TlsSession,
    sock: &mut TcpStream,
    router: &dyn Router,
    served: &AtomicU64,
    halt: &dyn Fn() -> bool,
    timeouts: &PhaseTimeouts,
    limits: &Limits,
) -> Result<()> {
    let mut buf = [0u8; 16 * 1024];

    // Handshake, bounded: a client that connects and trickles (or
    // never sends) handshake bytes is evicted at the deadline instead
    // of pinning the worker.
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

    // Request loop (keep-alive).
    let mut plain = Vec::new();
    loop {
        // Accumulate one full request. The whole head must land within
        // the header deadline and the whole body within the body
        // deadline: the deadlines are per phase, not per read, so
        // trickling bytes does not extend them (slowloris).
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
                    // Provably unservable: a malformed line (400), an
                    // oversized head (431) or an oversized declared
                    // body (413). More bytes can never fix it, so
                    // answer with the typed status and close.
                    let status = e.close_status();
                    if status == 400 {
                        apache_metrics().malformed_requests.inc();
                    } else {
                        libseal_telemetry::counter("services_threaded_limit_rejections_total")
                            .inc();
                    }
                    let rsp = Response::new(status, b"request rejected".to_vec());
                    session.ssl_write(&rsp.to_bytes())?;
                    flush(session, sock)?;
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
                            // Only count evictions of a started
                            // request; an idle keep-alive expiring at
                            // the header deadline is routine.
                            if !plain.is_empty() {
                                libseal_telemetry::counter(if in_body {
                                    "services_threaded_body_timeouts_total"
                                } else {
                                    "services_threaded_header_timeouts_total"
                                })
                                .inc();
                            }
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
        // Span over the full lifecycle: routing, the (possibly
        // enclave-terminated) write-back and the flush. Enclave
        // transitions charged on this worker thread while it is open
        // land in its boundary-cycle tally.
        let started = std::time::Instant::now();
        {
            let _span = libseal_telemetry::global()
                .span("apache_request", libseal_telemetry::Side::Untrusted);
            let response = router.handle(&req);
            session.ssl_write(&response.to_bytes())?;
            flush(session, sock)?;
        }
        let m = apache_metrics();
        m.requests.inc();
        m.request_ns.record_duration(started.elapsed());
        bump_route(req.path());
        served.fetch_add(1, Ordering::Relaxed);
        // A drain request lands between requests: the response above
        // was delivered (and is durable), so closing here loses
        // nothing.
        if close || halt() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_metric_name_safe() {
        assert_eq!(route_label("/"), "root");
        assert_eq!(route_label(""), "root");
        assert_eq!(route_label("/content/4096"), "content");
        assert_eq!(route_label("/Git-Upload.Pack"), "git_upload_pack");
        assert_eq!(route_label("/a%2F..%2Fetc?x=1"), "a_2f___2fetc");
        assert!(route_label("/weird$(){}//x")
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
    }

    #[test]
    fn route_labels_are_length_bounded() {
        let long = format!("/{}", "a".repeat(4096));
        assert_eq!(route_label(&long).len(), ROUTE_LABEL_MAX);
    }
}
