//! The event-driven service core: one reactor thread multiplexing
//! every connection, with application handlers on an lthread job pool.
//!
//! The paper's services (§6) are thread-per-connection; at thousands
//! of mostly-idle TLS sessions that design spends a kernel thread (and
//! with auditing, an async-call slot) per parked socket. This module
//! restructures serving around readiness:
//!
//! - a [`plat::reactor::Reactor`] (epoll) watches the listener and all
//!   client sockets; idle sessions cost a registered interest, not a
//!   stack;
//! - sockets that became readable in the same sweep are drained
//!   through **one** batched enclave transition
//!   ([`LibSeal::pump_batch`]), amortising the §4.2 transition cost
//!   across sessions exactly like the seal/verify batch entries;
//! - parsed requests run on a [`JobPool`] of lthread coroutines, so
//!   the group-commit barrier inside `ssl_write` blocks a borrowed
//!   coroutine — never the reactor — and concurrent responses still
//!   share counter binds and fsyncs;
//! - a [`plat::timer::TimerWheel`] evicts idle sessions and paces the
//!   accept-failure backoff without blocking the loop.
//!
//! Native (non-audited) TLS sessions are pumped inline: the state
//! machine lives outside any enclave, so there is no transition to
//! amortise.
//!
//! Asynchronous-runtime slots admit one caller at a time, so every
//! LibSEAL call made by the event core — the reactor's batched pump
//! and each worker's write — borrows a slot index from a [`SlotPool`]
//! sized to the runtime, restoring the threaded path's
//! one-slot-per-thread discipline without pinning slots to parked
//! connections.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use libseal::{LibSeal, SessionInput};
use libseal_httpx::http::{head_complete, parse_request_limited, Limits, Request, Response};
use libseal_httpx::ParseError;
use libseal_lthread::{JobPool, PoolConfig};
use libseal_tlsx::ssl::{ReadOutcome, Role, Ssl, SslConfig};
use libseal_tlsx::stream::{FlushOutcome, WireBuf};
use plat::channel::{self, Receiver, Sender};
use plat::reactor::{Event, Interest, Reactor, Waker};
use plat::timer::TimerWheel;

use crate::tlsadapter::TlsMode;

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Timer token that re-arms a paused listener.
const ACCEPT_RESUME: u64 = u64::MAX - 1;
/// How long the listener stays silenced after a failed accept.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Upper bound on one reactor park, so shutdown and timer churn stay
/// responsive even without wake-ups.
const MAX_PARK: Duration = Duration::from_millis(50);
/// Pending audit work (unresolved group-commit tickets + verifier
/// lag) above which the listener pauses instead of admitting more
/// connections: admission control must kick in while the audit plane
/// is saturated, not after memory fills with unserviceable sessions.
const AUDIT_BACKLOG_PAUSE: u64 = 256;

/// What a service plugs into the shared event loop.
///
/// One implementation exists per service (Apache, Squid); the loop
/// owns sockets, TLS and scheduling, the `App` owns request semantics
/// and metrics.
pub(crate) trait App: Send + Sync + 'static {
    /// Per-connection application state. It travels into the worker
    /// job with each request and returns with the completion, so
    /// handlers may block on it (e.g. Squid's upstream leg) without
    /// synchronisation.
    type Conn: Send + 'static;

    /// State for a freshly accepted connection. Must not block: this
    /// runs on the reactor.
    fn open_conn(&self) -> Self::Conn;

    /// Serves one request. Runs on a pool coroutine and may block.
    fn handle(&self, conn: &mut Self::Conn, req: &Request) -> Response;

    /// Tear-down hook (upstream close, etc.). May run on the reactor;
    /// keep it brief.
    fn close_conn(&self, _conn: &mut Self::Conn) {}

    /// Telemetry span wrapped around `handle` + the response write.
    fn span_name(&self) -> &'static str;

    /// A request was served (count it, record latency, label routes).
    fn on_request(&self, path: &str, started: Instant);

    /// A connection sent provably-not-HTTP bytes (it gets a 400).
    fn on_malformed(&self);

    /// `accept(2)` failed transiently.
    fn on_accept_error(&self);
}

/// Event-loop tuning shared by the services.
pub(crate) struct EventConfig {
    pub tls: TlsMode,
    /// Carrier threads under the worker job pool.
    pub workers: usize,
    /// Idle connections are evicted after this long without traffic.
    pub idle_timeout: Duration,
    /// Phase deadlines (see [`Phase`]): a connection that stays in a
    /// phase past its deadline is evicted with a per-phase counter.
    pub timeouts: PhaseTimeouts,
    /// Most concurrent connections; excess accepts are refused
    /// immediately (load shedding) rather than queued.
    pub max_connections: usize,
    /// Bound on the graceful-drain wait once `draining` flips.
    pub drain_timeout: Duration,
    /// HTTP parser limits for per-session buffer caps (431/413).
    pub limits: Limits,
}

/// Per-phase eviction deadlines for the event core.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseTimeouts {
    /// Accept → TLS establishment.
    pub handshake: Duration,
    /// First decrypted request byte → complete header section.
    pub header: Duration,
    /// Complete head → complete body.
    pub body: Duration,
    /// Response queued → wire buffer drained.
    pub write: Duration,
}

impl Default for PhaseTimeouts {
    fn default() -> PhaseTimeouts {
        PhaseTimeouts {
            handshake: Duration::from_secs(10),
            header: Duration::from_secs(10),
            body: Duration::from_secs(30),
            write: Duration::from_secs(30),
        }
    }
}

/// Connection lifecycle phase, each with its own deadline. Deadlines
/// are *per phase*, not per byte: a slowloris trickling one header
/// byte per second never pushes its header deadline out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// TLS handshake in progress.
    Handshake,
    /// Reading a request head.
    Head,
    /// Head complete; reading the body.
    Body,
    /// Unflushed response bytes waiting on the socket.
    Write,
    /// Established, no partial request, nothing to write.
    Idle,
    /// A handler owns the connection; never evicted by deadline.
    Busy,
}

/// A running event loop.
pub(crate) struct EventHandle {
    pub join: std::thread::JoinHandle<()>,
    /// Interrupts a parked reactor (use after flipping the shutdown
    /// flag).
    pub waker: Waker,
}

/// Lends async-call slot indices to concurrent LibSEAL callers.
///
/// `AsyncRuntime` panics if two threads share a slot, and the event
/// core has more callers (reactor + every pool coroutine) than the
/// threaded path's fixed worker-index scheme can name. Callers block
/// until a slot frees; without a runtime the pool is sized so that
/// acquisition never waits.
struct SlotPool {
    free: Mutex<Vec<usize>>,
    freed: Condvar,
}

impl SlotPool {
    fn new(n: usize) -> Arc<SlotPool> {
        Arc::new(SlotPool {
            free: Mutex::new((0..n.max(1)).rev().collect()),
            freed: Condvar::new(),
        })
    }

    fn acquire(self: &Arc<Self>) -> SlotGuard {
        let mut free = self.free.lock().expect("slot pool poisoned");
        loop {
            if let Some(idx) = free.pop() {
                return SlotGuard {
                    pool: Arc::clone(self),
                    idx,
                };
            }
            free = self.freed.wait(free).expect("slot pool poisoned");
        }
    }
}

struct SlotGuard {
    pool: Arc<SlotPool>,
    idx: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.pool
            .free
            .lock()
            .expect("slot pool poisoned")
            .push(self.idx);
        self.pool.freed.notify_one();
    }
}

/// The LibSEAL enclave plus the slot discipline for calling it.
#[derive(Clone)]
struct Seal {
    ls: Arc<LibSeal>,
    slots: Arc<SlotPool>,
}

impl Seal {
    fn new_session(&self) -> libseal::Result<u64> {
        let g = self.slots.acquire();
        self.ls.new_session(g.idx)
    }

    fn close_session(&self, sid: u64) {
        let g = self.slots.acquire();
        let _ = self.ls.close_session(g.idx, sid);
    }

    fn write_take(&self, sid: u64, data: &[u8]) -> libseal::Result<Vec<u8>> {
        let g = self.slots.acquire();
        self.ls.ssl_write_take(g.idx, sid, data)
    }

    fn pump(&self, items: Vec<SessionInput>) -> libseal::Result<Vec<libseal::SessionOutcome>> {
        let g = self.slots.acquire();
        self.ls.pump_batch(g.idx, items)
    }
}

/// The session's TLS endpoint. Native sessions live on the reactor;
/// audited ones live in the enclave and are addressed by id.
enum ConnTls {
    Native(Box<Ssl>),
    Seal(u64),
}

/// Worker → reactor completion.
enum Done {
    /// Ciphertext ready for the wire (audited path: the worker already
    /// paid the `ssl_write` transition and group-commit barrier).
    Wire(Vec<u8>),
    /// Plaintext the reactor must encrypt (native path).
    Plain(Vec<u8>),
    /// The response could not be written; drop the connection.
    Fail,
}

struct Completion<C> {
    token: u64,
    state: C,
    done: Done,
    close: bool,
}

struct Conn<C> {
    sock: TcpStream,
    tls: ConnTls,
    /// Outbound ciphertext not yet accepted by the socket.
    wire: WireBuf,
    /// Inbound decrypted bytes not yet parsed into a request.
    plain: Vec<u8>,
    /// Application state; `None` exactly while a job holds it.
    state: Option<C>,
    /// A request is in flight on the pool.
    busy: bool,
    /// Close once `wire` drains (Connection: close, malformed, or the
    /// peer's close_notify).
    close_after_flush: bool,
    /// The peer is gone (EOF or close_notify); no further requests.
    peer_closed: bool,
    /// Fatal; tear down at the next opportunity.
    dead: bool,
    /// Writable interest is currently registered.
    want_write: bool,
    /// The TLS handshake has completed (native: the state machine
    /// says so; audited: the last pump reported it).
    established: bool,
    /// Phase whose deadline is currently armed on the wheel.
    phase: Phase,
}

fn open_conn_gauge() -> libseal_telemetry::Gauge {
    libseal_telemetry::gauge("services_event_open_connections")
}

/// Eviction counter for a phase-deadline expiry.
fn phase_timeout_counter(phase: Phase) -> libseal_telemetry::Counter {
    libseal_telemetry::counter(match phase {
        Phase::Handshake => "services_event_handshake_timeouts_total",
        Phase::Head => "services_event_header_timeouts_total",
        Phase::Body => "services_event_body_timeouts_total",
        Phase::Write => "services_event_write_timeouts_total",
        Phase::Idle | Phase::Busy => "services_event_idle_evictions_total",
    })
}

/// Starts the reactor for `listener`. Fails fast (before any thread
/// spawns) where readiness polling is unsupported, so callers can fall
/// back to the threaded path.
pub(crate) fn serve<A: App>(
    listener: TcpListener,
    cfg: EventConfig,
    app: Arc<A>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
) -> io::Result<EventHandle> {
    listener.set_nonblocking(true)?;
    let reactor = Reactor::new()?;
    reactor.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = reactor.waker();

    let (seal, native_cfg) = match &cfg.tls {
        TlsMode::LibSeal(ls) => {
            // With an async runtime the pool must not outnumber the
            // runtime's slots; without one, size it so nobody waits.
            let n = ls.async_slots().unwrap_or(cfg.workers + 2);
            (
                Some(Seal {
                    ls: Arc::clone(ls),
                    slots: SlotPool::new(n),
                }),
                None,
            )
        }
        TlsMode::Native { cert, key } => (
            None,
            Some(Arc::new(SslConfig {
                role: Role::Server,
                cert: Some(cert.clone()),
                key: Some(key.clone()),
                ca_roots: Vec::new(),
                verify_peer: false,
                expected_subject: None,
                attestation: None,
            })),
        ),
    };

    let pool = JobPool::new(PoolConfig {
        carriers: cfg.workers.max(1),
        lthreads_per_carrier: 8,
        // Synchronous LibSEAL instances run the whole audited write
        // path (sealing, SQL, invariant checks) inline on the worker
        // coroutine, and lthread stacks have no guard pages — size
        // them like the async runtime's enclave lthreads.
        stack_size: 256 * 1024,
    });
    let (done_tx, done_rx) = channel::unbounded();
    let lp = Loop {
        reactor,
        wheel: TimerWheel::new(Duration::from_millis(5), 1024),
        conns: HashMap::new(),
        sid_token: HashMap::new(),
        listener,
        accept_paused: false,
        next_token: 1,
        app,
        seal,
        native_cfg,
        idle: cfg.idle_timeout,
        timeouts: cfg.timeouts,
        max_connections: cfg.max_connections,
        drain_timeout: cfg.drain_timeout,
        limits: cfg.limits,
        pool,
        done_tx,
        done_rx,
        waker: waker.clone(),
        shutdown,
        draining,
        drain_deadline: None,
    };
    let join = std::thread::Builder::new()
        .name("event-reactor".into())
        .spawn(move || lp.run())?;
    Ok(EventHandle { join, waker })
}

struct Loop<A: App> {
    reactor: Reactor,
    wheel: TimerWheel,
    conns: HashMap<u64, Conn<A::Conn>>,
    /// LibSEAL session id → connection token.
    sid_token: HashMap<u64, u64>,
    listener: TcpListener,
    accept_paused: bool,
    next_token: u64,
    app: Arc<A>,
    seal: Option<Seal>,
    native_cfg: Option<Arc<SslConfig>>,
    idle: Duration,
    timeouts: PhaseTimeouts,
    max_connections: usize,
    drain_timeout: Duration,
    limits: Limits,
    pool: JobPool,
    done_tx: Sender<Completion<A::Conn>>,
    done_rx: Receiver<Completion<A::Conn>>,
    waker: Waker,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain request: stop accepting, deliver in-flight
    /// responses, then exit.
    draining: Arc<AtomicBool>,
    /// Set when the drain began; the loop exits at this instant even
    /// if stragglers remain.
    drain_deadline: Option<Instant>,
}

impl<A: App> Loop<A> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        while !self.shutdown.load(Ordering::Acquire) {
            if self.draining.load(Ordering::Acquire) && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                // Reap connections that finished their in-flight work;
                // exit once none remain (or the deadline cuts off
                // stragglers — a stuck peer must not hold shutdown).
                let done: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.busy && c.wire.is_empty())
                    .map(|(&t, _)| t)
                    .collect();
                for t in done {
                    self.teardown(t);
                }
                if self.conns.is_empty() || Instant::now() >= deadline {
                    break;
                }
            }
            let timeout = match self.wheel.next_deadline() {
                Some(d) => d.saturating_duration_since(Instant::now()).min(MAX_PARK),
                None => MAX_PARK,
            };
            if self.reactor.wait(&mut events, Some(timeout)).is_err() {
                break;
            }

            // Phase 1: accept and read. Audited sessions contribute
            // their bytes to one batch; native ones are pumped inline.
            let mut batch: Vec<SessionInput> = Vec::new();
            let mut touched: Vec<u64> = Vec::new();
            for &ev in &events {
                if ev.token == LISTENER {
                    self.accept();
                    continue;
                }
                if !self.conns.contains_key(&ev.token) {
                    continue;
                }
                if ev.readable || ev.closed || ev.error {
                    self.read_ready(ev.token, &mut batch);
                }
                touched.push(ev.token);
            }

            // Phase 2: one enclave transition for every audited
            // session that became ready this sweep.
            if !batch.is_empty() {
                self.pump_seal(batch);
            }

            // Phase 3: dispatch parsed requests, push ciphertext,
            // refresh idle deadlines, reap the fallen.
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.post_activity(token);
            }

            // Phase 4: responses finished by the workers.
            while let Ok(c) = self.done_rx.try_recv() {
                self.complete(c);
            }

            // Phase 5: deadlines — phase-deadline eviction and accept
            // resume.
            for token in self.wheel.expired(Instant::now()) {
                if token == ACCEPT_RESUME {
                    self.resume_accept();
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if conn.busy {
                    // A request is running; not stuck on the peer.
                    // Force a fresh deadline for whatever phase the
                    // completion lands in.
                    conn.phase = Phase::Busy;
                    self.wheel.schedule(token, Instant::now() + self.idle);
                    continue;
                }
                phase_timeout_counter(conn.phase).inc();
                self.teardown(token);
            }
        }

        // Shutdown: close every session (best-effort close_notify),
        // then the pool drains already-queued jobs as it drops.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.teardown(t);
        }
    }

    /// Enters graceful drain: the listener goes quiet, connections
    /// with no in-flight work are torn down immediately, and the rest
    /// get until [`EventConfig::drain_timeout`] to deliver their
    /// responses. Workers' group-commit barriers already ran by the
    /// time a completion reaches the reactor, so every delivered
    /// response is durable.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.drain_timeout);
        if !self.accept_paused {
            let _ = self.reactor.deregister(&self.listener);
        }
        self.accept_paused = true;
        self.wheel.cancel(ACCEPT_RESUME);
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && c.wire.is_empty())
            .map(|(&t, _)| t)
            .collect();
        for t in idle {
            self.teardown(t);
        }
    }

    /// Drains the accept queue. A failed accept pauses the listener
    /// for [`ACCEPT_BACKOFF`] instead of spinning on a level-triggered
    /// error, then retries until shutdown — transient failures
    /// (EMFILE, ECONNABORTED) must not kill the server.
    fn accept(&mut self) {
        loop {
            // Admission control first: above the connection cap, or
            // with the audit plane saturated, admitting more sessions
            // only converts load into memory. At the cap each queued
            // accept is refused fast (the client sees a reset — its
            // cue to back off); under audit backpressure the listener
            // pauses and the backlog queues instead.
            if self.seal.as_ref().is_some_and(|s| {
                self.conns.len() < self.max_connections
                    && s.ls.audit_backlog() > AUDIT_BACKLOG_PAUSE
            }) {
                libseal_telemetry::counter("services_event_backpressure_pauses_total").inc();
                let _ = self.reactor.deregister(&self.listener);
                self.accept_paused = true;
                self.wheel
                    .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
                break;
            }
            match plat::failpoint::check("services::accept").and_then(|()| self.listener.accept()) {
                Ok((sock, _)) => {
                    if self.drain_deadline.is_some() {
                        // Draining: refuse by dropping the socket.
                        continue;
                    }
                    if self.conns.len() >= self.max_connections {
                        libseal_telemetry::counter("services_event_sheds_total").inc();
                        drop(sock);
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.admit(sock);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.app.on_accept_error();
                    let _ = self.reactor.deregister(&self.listener);
                    self.accept_paused = true;
                    self.wheel
                        .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    fn resume_accept(&mut self) {
        if !self.accept_paused || self.drain_deadline.is_some() {
            return;
        }
        self.accept_paused = false;
        if self
            .reactor
            .register(&self.listener, LISTENER, Interest::READABLE)
            .is_err()
        {
            // Try again next backoff period rather than going deaf.
            self.accept_paused = true;
            self.wheel
                .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
            return;
        }
        // Serve whatever queued while we were paused.
        self.accept();
    }

    fn admit(&mut self, sock: TcpStream) {
        let tls = match (&self.seal, &self.native_cfg) {
            (Some(seal), _) => match seal.new_session() {
                Ok(sid) => ConnTls::Seal(sid),
                Err(_) => return,
            },
            (None, Some(cfg)) => {
                let mut entropy = [0u8; 64];
                libseal_crypto::SystemRng::new().fill(&mut entropy);
                ConnTls::Native(Box::new(Ssl::new(Arc::clone(cfg), entropy)))
            }
            (None, None) => unreachable!("one TLS mode is always configured"),
        };
        let token = self.next_token;
        self.next_token += 1;
        if self
            .reactor
            .register(&sock, token, Interest::READABLE)
            .is_err()
        {
            if let ConnTls::Seal(sid) = tls {
                if let Some(seal) = &self.seal {
                    seal.close_session(sid);
                }
            }
            return;
        }
        if let ConnTls::Seal(sid) = tls {
            self.sid_token.insert(sid, token);
        }
        self.conns.insert(
            token,
            Conn {
                sock,
                tls,
                wire: WireBuf::new(),
                plain: Vec::new(),
                state: Some(self.app.open_conn()),
                busy: false,
                close_after_flush: false,
                peer_closed: false,
                dead: false,
                want_write: false,
                established: false,
                phase: Phase::Handshake,
            },
        );
        open_conn_gauge().add(1);
        self.wheel
            .schedule(token, Instant::now() + self.timeouts.handshake);
    }

    /// Reads everything the socket has. Native sessions advance their
    /// TLS state machine inline; audited sessions defer to the batch.
    fn read_ready(&mut self, token: u64, batch: &mut Vec<SessionInput>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        let mut input = Vec::new();
        loop {
            match conn.sock.read(&mut buf) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => input.extend_from_slice(&buf[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if input.is_empty() {
            return;
        }
        match conn.tls {
            ConnTls::Native(_) => pump_native(conn, &input),
            ConnTls::Seal(sid) => batch.push(SessionInput { sid, input }),
        }
    }

    /// One batched transition moves every ready audited session:
    /// handshakes progress, requests decrypt, close_notify surfaces.
    fn pump_seal(&mut self, batch: Vec<SessionInput>) {
        let Some(seal) = self.seal.clone() else {
            return;
        };
        let tokens: Vec<u64> = batch
            .iter()
            .filter_map(|i| self.sid_token.get(&i.sid).copied())
            .collect();
        match seal.pump(batch) {
            Ok(outcomes) => {
                for o in outcomes {
                    let Some(&token) = self.sid_token.get(&o.sid) else {
                        continue;
                    };
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    // Flight bytes (or the failure's alert) first, so
                    // they reach the wire even on teardown.
                    conn.wire.push(&o.output);
                    conn.plain.extend_from_slice(&o.data);
                    if o.established {
                        conn.established = true;
                    }
                    if o.closed {
                        conn.peer_closed = true;
                    }
                    if o.error.is_some() {
                        conn.dead = true;
                    }
                }
            }
            Err(_) => {
                // The batch entry itself failed (runtime teardown):
                // every session in it is unusable.
                for token in tokens {
                    if let Some(c) = self.conns.get_mut(&token) {
                        c.dead = true;
                    }
                }
            }
        }
    }

    fn post_activity(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if !conn.dead && !conn.busy && !conn.close_after_flush && !conn.peer_closed {
            self.try_dispatch(token);
        }
        self.flush(token);
        self.reschedule(token);
        self.finish(token);
    }

    /// Cuts one complete request out of the connection's plaintext and
    /// hands it to the pool. At most one request per connection is in
    /// flight; pipelined bytes wait in `plain` until the completion.
    fn try_dispatch(&mut self, token: u64) {
        if self.drain_deadline.is_some() {
            // Draining: no new requests, only in-flight deliveries.
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.plain.is_empty() {
            return;
        }
        match parse_request_limited(&conn.plain, &self.limits) {
            Ok((req, used)) => {
                conn.plain.drain(..used);
                self.spawn_job(token, req);
            }
            Err(ParseError::Incomplete) => {
                // Belt-and-braces buffer cap for streams the parser
                // keeps waiting on (e.g. a chunked body whose size
                // line never terminates): no single message may make
                // us buffer more than head + body limits.
                let cap = self
                    .limits
                    .max_head_bytes
                    .saturating_add(self.limits.max_body_bytes);
                if conn.plain.len() > cap {
                    libseal_telemetry::counter("services_event_limit_rejections_total").inc();
                    conn.plain.clear();
                    conn.plain.shrink_to_fit();
                    conn.close_after_flush = true;
                    let rsp = Response::new(413, b"request rejected".to_vec());
                    self.encrypt_now(token, &rsp.to_bytes());
                }
            }
            Err(e) => {
                // Provably not HTTP (400), or past a buffer cap
                // (431/413): no further bytes can fix either, and the
                // limit cases must stop buffering *now*.
                let status = e.close_status();
                if status == 400 {
                    self.app.on_malformed();
                } else {
                    libseal_telemetry::counter("services_event_limit_rejections_total").inc();
                }
                conn.plain.clear();
                conn.plain.shrink_to_fit();
                conn.close_after_flush = true;
                let rsp = Response::new(status, b"request rejected".to_vec());
                self.encrypt_now(token, &rsp.to_bytes());
            }
        }
    }

    /// Reactor-side encryption for loop-originated responses (the 400
    /// path). Rare enough that the audited variant's synchronous
    /// transition is acceptable.
    fn encrypt_now(&mut self, token: u64, plain: &[u8]) {
        let seal = self.seal.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match &mut conn.tls {
            ConnTls::Native(ssl) => {
                if ssl.ssl_write(plain).is_err() {
                    conn.dead = true;
                    return;
                }
                let out = ssl.take_output();
                conn.wire.push(&out);
            }
            ConnTls::Seal(sid) => {
                let sid = *sid;
                match seal
                    .expect("seal conn implies seal mode")
                    .write_take(sid, plain)
                {
                    Ok(wire) => conn.wire.push(&wire),
                    Err(_) => conn.dead = true,
                }
            }
        }
    }

    fn spawn_job(&mut self, token: u64, req: Request) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some(mut state) = conn.state.take() else {
            return;
        };
        conn.busy = true;
        let sid = match conn.tls {
            ConnTls::Seal(sid) => Some(sid),
            ConnTls::Native(_) => None,
        };
        let seal = self.seal.clone();
        let app = Arc::clone(&self.app);
        let done_tx = self.done_tx.clone();
        let waker = self.waker.clone();
        let spawned = self.pool.spawn(move || {
            let started = Instant::now();
            let close = req
                .headers
                .get("Connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
            // Span over routing and the (possibly enclave-terminated)
            // write-back, mirroring the threaded path: transitions
            // charged while it is open land in its boundary tally.
            let done = {
                let _span = libseal_telemetry::global()
                    .span(app.span_name(), libseal_telemetry::Side::Untrusted);
                let response = app.handle(&mut state, &req);
                match (&seal, sid) {
                    (Some(seal), Some(sid)) => match seal.write_take(sid, &response.to_bytes()) {
                        Ok(wire) => Done::Wire(wire),
                        Err(_) => Done::Fail,
                    },
                    _ => Done::Plain(response.to_bytes()),
                }
            };
            if !matches!(done, Done::Fail) {
                app.on_request(req.path(), started);
            }
            let delivered = done_tx
                .send(Completion {
                    token,
                    state,
                    done,
                    close,
                })
                .is_ok();
            if delivered {
                waker.wake();
            }
        });
        if spawned.is_err() {
            // Pool already shut down (reactor exiting); the closure —
            // and the state inside — was dropped.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead = true;
            }
        }
    }

    fn complete(&mut self, c: Completion<A::Conn>) {
        let Some(conn) = self.conns.get_mut(&c.token) else {
            // Connection evicted or torn down while the job ran.
            let mut state = c.state;
            self.app.close_conn(&mut state);
            return;
        };
        conn.busy = false;
        conn.state = Some(c.state);
        match c.done {
            Done::Wire(wire) => conn.wire.push(&wire),
            Done::Plain(plain) => {
                if let ConnTls::Native(ssl) = &mut conn.tls {
                    if ssl.ssl_write(&plain).is_ok() {
                        let out = ssl.take_output();
                        conn.wire.push(&out);
                    } else {
                        conn.dead = true;
                    }
                }
            }
            Done::Fail => conn.dead = true,
        }
        if c.close || self.drain_deadline.is_some() {
            // `Connection: close`, or draining — this response is the
            // connection's last either way.
            conn.close_after_flush = true;
        }
        if !conn.dead && !conn.close_after_flush && !conn.peer_closed {
            // Pipelined follow-up request, if one is already buffered.
            self.try_dispatch(c.token);
        }
        self.flush(c.token);
        self.reschedule(c.token);
        self.finish(c.token);
    }

    /// Pushes queued ciphertext; tracks writable interest so the loop
    /// neither busy-polls an idle socket nor misses a drained buffer.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.wire.is_empty() {
            match conn.wire.flush_to(&mut conn.sock) {
                Ok(FlushOutcome::Done) => {}
                Ok(FlushOutcome::WantWrite) => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ =
                            self.reactor
                                .modify(&conn.sock, token, Interest::readable_writable());
                    }
                    return;
                }
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = self.reactor.modify(&conn.sock, token, Interest::READABLE);
        }
    }

    /// Re-arms the connection's deadline for its current phase. The
    /// deadline only moves when the phase *changes* (or on idle
    /// activity): progress within a phase — one more header byte, one
    /// more flushed chunk — never extends it, which is what defeats
    /// slowloris-style trickling.
    fn reschedule(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let phase = if conn.busy {
            Phase::Busy
        } else if !conn.established {
            Phase::Handshake
        } else if !conn.wire.is_empty() {
            Phase::Write
        } else if conn.plain.is_empty() {
            Phase::Idle
        } else if head_complete(&conn.plain) {
            Phase::Body
        } else {
            Phase::Head
        };
        let timeout = match phase {
            Phase::Handshake => self.timeouts.handshake,
            Phase::Head => self.timeouts.header,
            Phase::Body => self.timeouts.body,
            Phase::Write => self.timeouts.write,
            Phase::Idle | Phase::Busy => self.idle,
        };
        if phase != conn.phase {
            conn.phase = phase;
            self.wheel.schedule(token, Instant::now() + timeout);
        } else if matches!(phase, Phase::Idle | Phase::Busy) {
            // Idle deadlines are inactivity timers: activity renews
            // them. (Busy re-arms so the wheel keeps a live entry.)
            self.wheel.schedule(token, Instant::now() + timeout);
        }
    }

    /// Tears the connection down once it has nothing left to do:
    /// immediately when dead, after the flush when closing, never
    /// while a worker still owns its state (the orphaned completion
    /// cleans up instead).
    fn finish(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.dead
            || (!conn.busy
                && (conn.peer_closed || (conn.close_after_flush && conn.wire.is_empty())))
        {
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        open_conn_gauge().sub(1);
        self.wheel.cancel(token);
        let _ = self.reactor.deregister(&conn.sock);
        if let Some(mut state) = conn.state.take() {
            self.app.close_conn(&mut state);
        }
        match conn.tls {
            ConnTls::Seal(sid) => {
                self.sid_token.remove(&sid);
                if let Some(seal) = &self.seal {
                    seal.close_session(sid);
                }
            }
            ConnTls::Native(mut ssl) => {
                // Best-effort close_notify, as the threaded path does.
                ssl.send_close();
                let out = ssl.take_output();
                if !out.is_empty() {
                    let _ = conn.sock.write_all(&out);
                }
            }
        }
    }
}

/// Advances a native session's TLS state machine over fresh wire
/// bytes: handshake, then drain plaintext, then collect flight bytes.
fn pump_native<C>(conn: &mut Conn<C>, input: &[u8]) {
    let ConnTls::Native(ssl) = &mut conn.tls else {
        return;
    };
    ssl.provide_input(input);
    if !ssl.is_established() && ssl.do_handshake().is_err() {
        let out = ssl.take_output();
        conn.wire.push(&out);
        conn.dead = true;
        return;
    }
    if ssl.is_established() {
        conn.established = true;
        loop {
            match ssl.ssl_read() {
                Ok(ReadOutcome::Data(d)) => conn.plain.extend_from_slice(&d),
                Ok(ReadOutcome::WantRead) => break,
                Ok(ReadOutcome::Closed) => {
                    conn.peer_closed = true;
                    break;
                }
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }
    let out = ssl.take_output();
    conn.wire.push(&out);
}

/// Socket read-timeout tick for the threaded serve loops: short
/// enough that a worker blocked on a quiet peer notices shutdown or
/// drain within about a second.
pub(crate) const THREAD_READ_TICK: Duration = Duration::from_secs(1);

/// Deadline-bounded read for the *threaded* serve loops. The socket's
/// read timeout is [`THREAD_READ_TICK`], so each timed-out tick
/// re-checks the stop predicate (shutdown or drain) and the overall
/// `deadline` — a peer that stops sending can wedge a worker for at
/// most one phase deadline, and shutdown is honoured between ticks.
///
/// Returns `TimedOut` when the deadline passes or `stop` fires.
pub(crate) fn read_deadline(
    sock: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    stop: &dyn Fn() -> bool,
) -> io::Result<usize> {
    loop {
        match sock.read(buf) {
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(ref e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop() || Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "read deadline elapsed",
                    ));
                }
            }
            r => return r,
        }
    }
}
