//! The server child: one Apache instance terminating STLS through
//! LibSEAL, built only from the library's defaults and public
//! surface, driven by line commands on stdin.
//!
//! Running the server in its own process keeps its CPU time, peak
//! memory and telemetry registry free of the load generator's (client
//! and server would otherwise share `tlsx_handshake_ns`, for one).
//!
//! Commands, one per line, each answered by one JSON line on stdout:
//! `reset` (zero counters, histograms, CPU baseline and spans), `snap`,
//! `probe`, `attack <repo>`, `recheck` (Git only), `final` (traced
//! only) and `quit`.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use libseal::log::AuditLog;
use libseal::ssm::{Invariant, ServiceModule};
use libseal::{GitModule, LibSeal, LibSealConfig, LogBacking, TableSpec};
use libseal_httpx::http::{Request, Response};
use libseal_httpx::json::Json;
use libseal_services::apache::{ApacheConfig, ApacheServer, Router, StaticContentRouter};
use libseal_services::git::{GitAttack, GitBackend};
use libseal_services::TlsMode;
use libseal_sgxsim::cost::CostModel;
use libseal_telemetry::Metric;

use crate::sys::{mono_ns, usage};
use crate::trace::{id_in_raw_request, SpanRec, TRACE_HEADER};
use crate::workload::{certificate_authority, seed_bytes, Workload, SUBJECT};

type Spans = Arc<Mutex<Vec<SpanRec>>>;

fn record(spans: &Spans, span: SpanRec) {
    spans.lock().expect("span store poisoned").push(span);
}

/// Times `Router::handle` as `services.handler` (traced runs only).
struct TracedRouter {
    inner: Arc<dyn Router>,
    spans: Spans,
}

impl Router for TracedRouter {
    fn handle(&self, req: &Request) -> Response {
        let start = mono_ns();
        let rsp = self.inner.handle(req);
        let end = mono_ns();
        if let Some(id) = req.headers.get(TRACE_HEADER).and_then(|v| v.parse().ok()) {
            record(
                &self.spans,
                SpanRec::child(id, "services.handler", start, end),
            );
        }
        rsp
    }
}

/// Times `ServiceModule::log_pair` as `core.log_pair` (traced runs
/// only); every other method delegates, so the enclave identity and
/// audit schema are the Git module's own.
struct TracedGit {
    spans: Spans,
}

impl ServiceModule for TracedGit {
    fn name(&self) -> &'static str {
        GitModule.name()
    }

    fn schema_sql(&self) -> &'static str {
        GitModule.schema_sql()
    }

    fn tables(&self) -> Vec<TableSpec> {
        GitModule.tables()
    }

    fn invariants(&self) -> &'static [Invariant] {
        GitModule.invariants()
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        GitModule.trim_queries()
    }

    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> libseal::Result<usize> {
        let start = mono_ns();
        let out = GitModule.log_pair(req, rsp, log);
        let end = mono_ns();
        if let Some(id) = id_in_raw_request(req) {
            record(&self.spans, SpanRec::child(id, "core.log_pair", start, end));
        }
        out
    }
}

/// Running maxima of sampled gauges (traced runs only).
#[derive(Default)]
struct Maxima {
    queue_depth: AtomicI64,
    audit_backlog: AtomicI64,
}

struct Child {
    libseal: Arc<LibSeal>,
    backend: Option<Arc<GitBackend>>,
    server: Option<ApacheServer>,
    spans: Spans,
    maxima: Arc<Maxima>,
    cpu_base_us: u64,
    served_base: u64,
}

/// Entry point of `perfbench serve <workload> <seed> <trace> <dir>`.
/// Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [workload, seed, traced, dir] = args else {
        eprintln!("usage: perfbench serve <workload> <seed> <0|1> <dir>");
        return 2;
    };
    let (Some(workload), Ok(seed)) = (Workload::parse(workload), seed.parse::<u64>()) else {
        eprintln!("serve: bad workload or seed");
        return 2;
    };
    match serve(workload, seed, traced == "1", PathBuf::from(dir)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

fn serve(workload: Workload, seed: u64, traced: bool, dir: PathBuf) -> Result<(), String> {
    let ca = certificate_authority(seed);
    let (key, cert) = ca
        .issue_identity(SUBJECT, &seed_bytes(seed, "server"))
        .map_err(|e| format!("identity: {e}"))?;
    let spans: Spans = Arc::new(Mutex::new(Vec::new()));
    // The cost model is pinned to its default explicitly, so nothing
    // in the environment can change what a transition costs.
    let mut config = LibSealConfig::builder(cert, key).cost_model(CostModel::default());
    let mut backend = None;
    let mut router: Arc<dyn Router> = Arc::new(StaticContentRouter);
    if workload.audited() {
        let ssm: Arc<dyn ServiceModule> = if traced {
            Arc::new(TracedGit {
                spans: Arc::clone(&spans),
            })
        } else {
            Arc::new(GitModule)
        };
        config = config
            .ssm(ssm)
            .backing(LogBacking::Disk(dir.join("audit.log")));
        let git = Arc::new(GitBackend::new());
        router = Arc::new(Arc::clone(&git));
        backend = Some(git);
    }
    if traced {
        router = Arc::new(TracedRouter {
            inner: router,
            spans: Arc::clone(&spans),
        });
    }
    let libseal = LibSeal::new(config.build()).map_err(|e| format!("libseal: {e}"))?;
    let server = ApacheServer::start(ApacheConfig::new(TlsMode::LibSeal(libseal.clone()), router))
        .map_err(|e| format!("apache: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {}", server.addr().port()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut child = Child {
        libseal,
        backend,
        server: Some(server),
        spans,
        maxima: Arc::new(Maxima::default()),
        cpu_base_us: 0,
        served_base: 0,
    };
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = traced.then(|| spawn_sampler(&child, Arc::clone(&stop_sampler)));

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        let reply = match (words.next(), words.next()) {
            (Some("reset"), None) => child.reset(),
            (Some("snap"), None) => child.snap(),
            (Some("usage"), None) => Ok(child.usage()),
            (Some("probe"), None) => child.probe(),
            (Some("attack"), Some(repo)) => child.attack(repo),
            (Some("recheck"), None) => child.recheck(),
            (Some("final"), None) => child.finish(),
            (Some("quit"), None) => break,
            _ => Err(format!("unknown command {line:?}")),
        }?;
        writeln!(out, "{reply}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    stop_sampler.store(true, Ordering::Relaxed);
    if let Some(h) = sampler {
        h.join()
            .map_err(|_| "sampler thread panicked".to_string())?;
    }
    if let Some(server) = child.server.take() {
        server.stop();
    }
    writeln!(out, "{{\"bye\":true}}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// Samples the job-pool queue depth and the audit backlog every
/// millisecond, keeping their maxima since the last `reset`.
fn spawn_sampler(child: &Child, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    let maxima = Arc::clone(&child.maxima);
    let libseal = Arc::clone(&child.libseal);
    let depth = libseal_telemetry::gauge("lthread_pool_queue_depth");
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            maxima.queue_depth.fetch_max(depth.get(), Ordering::Relaxed);
            maxima
                .audit_backlog
                .fetch_max(libseal.audit_backlog() as i64, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        }
    })
}

impl Child {
    fn server(&self) -> &ApacheServer {
        self.server.as_ref().expect("server runs until quit")
    }

    fn reset(&mut self) -> Result<Json, String> {
        for (_, metric) in libseal_telemetry::global().metrics() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Histogram(h) => h.reset(),
                Metric::Gauge(_) => {}
            }
        }
        self.maxima.queue_depth.store(0, Ordering::Relaxed);
        self.maxima.audit_backlog.store(0, Ordering::Relaxed);
        self.spans.lock().expect("span store poisoned").clear();
        self.cpu_base_us = usage().cpu_us;
        self.served_base = self.server().requests_served();
        Ok(Json::object([("reset", Json::Bool(true))]))
    }

    /// CPU time and requests served since `reset`, and peak memory: the
    /// cheap reading taken at every window edge of a load phase.
    fn usage(&self) -> Json {
        let u = usage();
        Json::object([
            ("cpu_us", Json::num((u.cpu_us - self.cpu_base_us) as f64)),
            ("maxrss_kb", Json::num(u.maxrss_kb as f64)),
            (
                "served",
                Json::num((self.server().requests_served() - self.served_base) as f64),
            ),
        ])
    }

    /// Counters, histogram summaries, CPU and memory since `reset`.
    fn snap(&self) -> Result<Json, String> {
        let mut counters = BTreeMap::new();
        let mut hists = BTreeMap::new();
        for (name, metric) in libseal_telemetry::global().metrics() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name, Json::num(c.get() as f64));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let mut m = BTreeMap::new();
                    m.insert("count".into(), Json::num(s.count() as f64));
                    m.insert("sum".into(), Json::num(s.sum() as f64));
                    m.insert("p99".into(), Json::num(s.percentile(0.99) as f64));
                    hists.insert(name, Json::Object(m));
                }
                Metric::Gauge(_) => {}
            }
        }
        let u = usage();
        Ok(Json::object([
            ("cpu_us", Json::num((u.cpu_us - self.cpu_base_us) as f64)),
            ("maxrss_kb", Json::num(u.maxrss_kb as f64)),
            (
                "served",
                Json::num((self.server().requests_served() - self.served_base) as f64),
            ),
            ("counters", Json::Object(counters)),
            ("hists", Json::Object(hists)),
            (
                "queue_depth_max",
                Json::num(self.maxima.queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "audit_backlog_max",
                Json::num(self.maxima.audit_backlog.load(Ordering::Relaxed) as f64),
            ),
        ]))
    }

    fn alarms() -> f64 {
        libseal_telemetry::counter("core_verifier_alarms_total").get() as f64
    }

    /// A full check and a log verification of the honest run.
    fn probe(&self) -> Result<Json, String> {
        let outcome = self
            .libseal
            .check_now(0)
            .map_err(|e| format!("check_now: {e}"))?;
        let verified = self.libseal.verify_log(0);
        if let Err(e) = &verified {
            eprintln!("serve: verify_log: {e}");
        }
        Ok(Json::object([
            ("violations", Json::num(outcome.total_violations() as f64)),
            ("verify_ok", Json::Bool(verified.is_ok())),
            ("alarms", Json::num(Self::alarms())),
        ]))
    }

    /// Arms a rollback of `repo`'s main branch to its previous head.
    fn attack(&self, repo: &str) -> Result<Json, String> {
        let backend = self.backend.as_ref().ok_or("attack: not a Git server")?;
        let branch = "refs/heads/main";
        let history = backend.branch_history(repo, branch);
        let [.., old, _] = history.as_slice() else {
            return Ok(Json::object([("armed", Json::Bool(false))]));
        };
        backend.set_attack(GitAttack::Rollback {
            repo: repo.to_string(),
            branch: branch.to_string(),
            old_cid: old.clone(),
        });
        Ok(Json::object([
            ("armed", Json::Bool(true)),
            ("old_cid", Json::str(old.clone())),
        ]))
    }

    /// The next check after the rolled-back fetch: the background
    /// verifier's verdicts plus a full check.
    fn recheck(&self) -> Result<Json, String> {
        self.libseal
            .verifier_barrier()
            .map_err(|e| format!("verifier_barrier: {e}"))?;
        let outcome = self
            .libseal
            .check_now(0)
            .map_err(|e| format!("check_now: {e}"))?;
        Ok(Json::object([
            ("violations", Json::num(outcome.total_violations() as f64)),
            ("alarms", Json::num(Self::alarms())),
        ]))
    }

    /// End of a traced run: the auditor's verification cost, how well
    /// the spin-based cost model held, and the server-side spans.
    fn finish(&self) -> Result<Json, String> {
        let mut verify_us_per_entry = 0.0;
        if self.libseal.is_audited() {
            self.libseal
                .verifier_barrier()
                .map_err(|e| format!("verifier_barrier: {e}"))?;
            let (entries, _, _) = self
                .libseal
                .log_stats(0)
                .map_err(|e| format!("log_stats: {e}"))?;
            let start = Instant::now();
            self.libseal
                .verify_log(0)
                .map_err(|e| format!("verify_log: {e}"))?;
            verify_us_per_entry = start.elapsed().as_secs_f64() * 1e6 / entries.max(1) as f64;
        }
        let spans: Vec<Json> = self
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .map(|s| Json::str(s.to_line()))
            .collect();
        Ok(Json::object([
            ("verify_log_us_per_entry", Json::num(verify_us_per_entry)),
            ("spin_error", Json::num(spin_error())),
            ("spans", Json::Array(spans)),
        ]))
    }
}

/// `CostModel::charge_cycles` timed against the duration it models:
/// measured / modelled - 1, median of several batches.
pub fn spin_error() -> f64 {
    let model = CostModel::default();
    let cycles = 37_000; // 10 us at the default 3.7 GHz
    let modelled_ns = 200.0 * cycles as f64 / model.clock_ghz;
    let mut errors: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..200 {
                model.charge_cycles(std::hint::black_box(cycles));
            }
            start.elapsed().as_nanos() as f64 / modelled_ns - 1.0
        })
        .collect();
    crate::stats::quantile(&mut errors, 0.5)
}
