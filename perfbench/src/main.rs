//! perfbench: the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload git_audit --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One run starts the server as a child process (`perfbench serve`),
//! drives it from two client connections, checks every response, and
//! prints the metrics: end-to-end ones with `--trace 0`, per-layer ones
//! with `--trace 1`. The last stdout line is the JSON result; the line
//! before it (`perfbench-meta {...}`) records host facts, the pinned
//! configuration and the load generator's own lateness. See README.md
//! for the workloads and what each metric is expected to move.

mod load;
mod micro;
mod server;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use libseal_httpx::json::Json;
use libseal_services::HttpsClient;
use libseal_sgxsim::cost::CostModel;

use crate::load::Phase;
use crate::stats::{mean, quantile, ratio, Metrics};
use crate::trace::SpanRec;
use crate::workload::{certificate_authority, first_request, seed_bytes, Conn, Workload, SUBJECT};

const USAGE: &str =
    "usage: perfbench --workload <git_audit|tls_handshake|bulk_keepalive> --seed <n> --seconds <s> --trace <0|1>";

/// Client connections open at a time (closed and open loop alike).
const CONNECTIONS: usize = 2;

/// Server set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Closed/open alternations per run, and steal-watched windows per
/// sub-phase (see `Phase::quiet_windows`).
const CYCLES: usize = 5;
const WINDOWS_PER_CYCLE: usize = 10;

/// Open-loop samples per chunk for `p99_ms`: the p99 of each
/// consecutive chunk has at least ten samples beyond it, and the
/// median over chunks keeps one stall from setting the run's p99.
const P99_CHUNK: usize = 1000;

/// A run that has not finished by then is abandoned: the process
/// exits non-zero and its server children, whose stdin closes with
/// it, shut down.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=120.0).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        traced: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t}")),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(server::main(&args[1..]));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
        std::process::exit(1);
    });
    let result = if args.traced {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    let _ = std::fs::remove_dir(scratch_root());
    match result {
        Ok(report) => {
            eprint!("{}", report.metrics.table());
            println!("perfbench-meta {}", report.meta);
            println!(
                "{}",
                report
                    .metrics
                    .result_line(report.correct, report.attempted, report.failed)
            );
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Per-run files (the Git journal) live inside the benchmark's own
/// directory in the checkout, never elsewhere.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

/// A server child process and its command channel.
struct ServerProc {
    proc: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    dir: PathBuf,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(workload: Workload, seed: u64, traced: bool) -> Result<ServerProc, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_root().join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg(workload.name())
            .arg(seed.to_string())
            .arg(if traced { "1" } else { "0" })
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // Only the library defaults configure the server: drop the
        // repository's bench-binary knobs from its environment.
        for (k, _) in std::env::vars() {
            if k.starts_with("LIBSEAL_BENCH_") {
                cmd.env_remove(k);
            }
        }
        let mut proc = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdin = proc.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
        let mut sp = ServerProc {
            proc,
            stdin,
            stdout,
            dir,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = sp.read_line()?;
        let port = line
            .strip_prefix("ready ")
            .and_then(|p| p.trim().parse::<u16>().ok())
            .ok_or(format!("server did not start: {line:?}"))?;
        sp.addr.set_port(port);
        Ok(sp)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("server channel: {e}")),
        }
    }

    fn call(&mut self, cmd: &str) -> Result<Json, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server channel: {e}"))?;
        let line = self.read_line()?;
        Json::parse(line.trim()).map_err(|e| format!("server reply to {cmd}: {e}"))
    }

    /// The server's CPU time (us) and requests served since its last
    /// `reset`.
    fn usage(&mut self) -> Result<(f64, f64), String> {
        let u = self.call("usage")?;
        Ok((num(&u, &["cpu_us"]), num(&u, &["served"])))
    }

    /// Stops the server gracefully and waits for the process.
    fn quit(mut self) -> Result<(), String> {
        self.call("quit")?;
        let status = self.proc.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Already reaped after `quit`; otherwise an error path: stop it.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a server and times it until its first request completes:
/// enclave build, spin calibration, ROTE cluster, log open, schema and
/// views, listener, and one handshake.
fn timed_setup(workload: Workload, seed: u64, traced: bool) -> Result<(ServerProc, f64), String> {
    let start = Instant::now();
    let sp = ServerProc::spawn(workload, seed, traced)?;
    let client = HttpsClient::new(
        sp.addr,
        vec![certificate_authority(seed).root_key()],
        SUBJECT,
    );
    let (req, len) = first_request(workload);
    let rsp = client
        .request(&req)
        .map_err(|e| format!("first request: {e}"))?;
    if rsp.status != 200 || rsp.body.len() != len {
        return Err(format!(
            "first request: status {} with {} bytes, want 200 with {len}",
            rsp.status,
            rsp.body.len()
        ));
    }
    Ok((sp, start.elapsed().as_secs_f64()))
}

fn connections(workload: Workload, seed: u64, addr: SocketAddr) -> Vec<Conn> {
    (0..CONNECTIONS)
        .map(|i| Conn::new(workload, i, seed, addr))
        .collect()
}

/// `j[path...]` as a number, 0 when absent.
fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Phase lengths for a run of `seconds`: warm-up, closed loop, open
/// loop.
fn phases(seconds: f64) -> (Duration, Duration, Duration) {
    let d = |share: f64| Duration::from_secs_f64(seconds * share);
    (d(0.1), d(0.4), d(0.5))
}

/// Ends every Git run: the honest log must check clean and verify;
/// then a rollback served to one client must make the next check
/// report a violation (a run that stopped auditing fails here).
fn liveness_probe(sp: &mut ServerProc, conn: &mut Conn) -> Result<Json, String> {
    let clean = sp.call("probe")?;
    if num(&clean, &["violations"]) != 0.0 || clean.get("verify_ok") != Some(&Json::Bool(true)) {
        return Err(format!("honest log did not check clean: {clean}"));
    }
    let repo = conn.repo().expect("git connection").to_string();
    let armed = sp.call(&format!("attack {repo}"))?;
    let old = armed
        .get("old_cid")
        .and_then(Json::as_str)
        .ok_or(format!("rollback not armed: {armed}"))?
        .to_string();
    let served = conn
        .probe_fetch()
        .map_err(|e| format!("probe fetch: {e}"))?;
    if !served.contains(&format!("{old} refs/heads/main\n")) {
        return Err(format!("rolled-back head not served: {served:?}"));
    }
    let after = sp.call("recheck")?;
    let detected =
        num(&after, &["violations"]) >= 1.0 || num(&after, &["alarms"]) > num(&clean, &["alarms"]);
    if !detected {
        return Err(format!("rollback went undetected: {after}"));
    }
    Ok(Json::object([
        ("clean_violations", Json::num(0)),
        (
            "rollback_violations",
            Json::num(num(&after, &["violations"])),
        ),
        (
            "rollback_alarms",
            Json::num(num(&after, &["alarms"]) - num(&clean, &["alarms"])),
        ),
    ]))
}

/// Everything `main` prints for one run.
struct Report {
    metrics: Metrics,
    meta: Json,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Host facts and the pinned configuration, for the meta line.
fn host_facts() -> Json {
    let model = CostModel::default();
    Json::object([
        (
            "nproc",
            Json::num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as f64,
            ),
        ),
        ("cost_model_clock_ghz", Json::num(model.clock_ghz)),
        (
            "cost_model_transition_cycles",
            Json::num(model.sync_transition_cycles as f64),
        ),
        ("spin_error", Json::num(server::spin_error())),
        ("connections", Json::num(CONNECTIONS as f64)),
        (
            "config",
            Json::str(
                "LibSealConfig::builder defaults + CostModel::default(); Apache default core; \
                 git_audit journal on disk inside the checkout",
            ),
        ),
    ])
}

/// Open-loop p99 latency, ms: the median of the p99s of consecutive
/// `P99_CHUNK`-sample chunks.
fn open_p99_ms(open: &Phase) -> f64 {
    quantile(&mut open.chunk_quantiles(P99_CHUNK, 0.99), 0.5)
}

fn open_loop_facts(open: &Phase, rate: f64) -> Json {
    let mut late = open.lateness_ms.clone();
    let chunks = open.chunk_quantiles(P99_CHUNK, 0.99);
    let quiet = open.quiet_windows();
    Json::object([
        ("rate_rps", Json::num(rate)),
        ("samples", Json::num(open.samples.len() as f64)),
        ("elapsed_s", Json::num(open.elapsed_s)),
        ("p99_ms", Json::num(open_p99_ms(open))),
        (
            "p99_chunks_ms",
            Json::Array(chunks.into_iter().map(Json::num).collect()),
        ),
        ("lateness_p50_ms", Json::num(quantile(&mut late, 0.5))),
        ("lateness_p99_ms", Json::num(quantile(&mut late, 0.99))),
        ("lateness_max_ms", Json::num(quantile(&mut late, 1.0))),
        ("backlog_growth_ms", Json::num(open.backlog_growth_ms())),
        (
            "quiet_samples",
            Json::num(open.latencies_in(&quiet).len() as f64),
        ),
        (
            "all_windows_p50_ms",
            Json::num(quantile(&mut open.latencies(), 0.5)),
        ),
        ("quiet_steal", Json::num(Phase::steal_in(&quiet))),
        (
            "all_windows_cpu_ms_per_req",
            Json::num(Phase::cpu_ms_per_req(&open.windows)),
        ),
        ("all_steal", Json::num(Phase::steal_in(&open.windows))),
    ])
}

/// Fails the run when the open loop fell behind its schedule.
fn require_bounded_backlog(open: &Phase) -> Result<(), String> {
    if open.backlog_bounded() {
        Ok(())
    } else {
        Err(format!(
            "invalid run: open-loop backlog grew by {:.1} ms over the phase",
            open.backlog_growth_ms()
        ))
    }
}

fn incorrect_summary(phases: &[&Phase]) -> Vec<String> {
    phases.iter().flat_map(|p| p.incorrect.clone()).collect()
}

/// Alternates closed- and open-loop sub-phases, `CYCLES` of each, so
/// that both metrics sample the whole run rather than one stretch of
/// it (the host's CPU steal drifts over seconds). Returns the merged
/// closed and open phases.
fn drive(
    sp: &mut ServerProc,
    conns: &mut [Conn],
    a: &Args,
    closed_d: Duration,
    open_d: Duration,
    traced: bool,
) -> Result<(Phase, Phase), String> {
    let (mut closed, mut open) = (Phase::default(), Phase::default());
    let rate = a.workload.open_rate();
    let usage = &mut || sp.usage();
    for cycle in 0..CYCLES {
        closed.merge(load::closed_loop(
            conns,
            closed_d / CYCLES as u32,
            WINDOWS_PER_CYCLE,
            usage,
            traced,
        )?);
        open.merge(load::open_loop(
            conns,
            rate,
            open_d / CYCLES as u32,
            WINDOWS_PER_CYCLE,
            usage,
            a.seed.wrapping_add(cycle as u64),
            traced,
        )?);
    }
    Ok((closed, open))
}

fn run_end_to_end(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let (warm_d, closed_d, open_d) = phases(a.seconds);
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (sp, s) = timed_setup(w, a.seed, false)?;
        setups.push(s);
        if i + 1 < SETUPS {
            sp.quit()?;
        } else {
            kept = Some(sp);
        }
    }
    let mut sp = kept.expect("SETUPS >= 1");
    let mut conns = connections(w, a.seed, sp.addr);
    let warm = load::closed_loop(&mut conns, warm_d, 1, &mut || sp.usage(), false)?;
    let host_before = sys::host_cpu_ticks();
    let (closed, open) = drive(&mut sp, &mut conns, a, closed_d, open_d, false)?;
    let host_after = sys::host_cpu_ticks();
    let rss_kb = num(&sp.call("usage")?, &["maxrss_kb"]);
    require_bounded_backlog(&open)?;
    let probe = match w.audited() {
        true => liveness_probe(&mut sp, &mut conns[0])?,
        false => Json::Null,
    };
    conns.iter_mut().for_each(Conn::close);
    sp.quit()?;

    let incorrect = incorrect_summary(&[&warm, &closed, &open]);
    let attempted = closed.attempted() + open.attempted();
    let failed = attempted - closed.correct - open.correct;
    let mut m = Metrics::default();
    let (closed_quiet, open_quiet) = (closed.quiet_windows(), open.quiet_windows());
    let mut rates = closed.rates_in(&closed_quiet);
    let mut open_lat = open.latencies_in(&open_quiet);
    m.put("throughput_rps", quantile(&mut rates, 0.5), "1/s");
    m.put("p50_ms", quantile(&mut open_lat, 0.5), "ms");
    m.put(
        "success_ratio",
        (closed.correct + open.correct) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("cpu_ms_per_req", Phase::cpu_ms_per_req(&open_quiet), "ms");
    m.put("rss_peak_mb", rss_kb / 1024.0, "MB");
    m.put("setup_s", quantile(&mut setups.clone(), 0.5), "s");

    for why in incorrect.iter().take(5) {
        eprintln!("perfbench: incorrect response: {why}");
    }
    let nums = |xs: &[f64]| Json::Array(xs.iter().map(|&x| Json::num(x)).collect());
    let meta = Json::object([
        ("workload", Json::str(w.name())),
        ("seed", Json::num(a.seed as f64)),
        ("seconds", Json::num(a.seconds)),
        ("trace", Json::num(0)),
        ("host", host_facts()),
        (
            "host_steal_share",
            Json::num(ratio(
                (host_after.1 - host_before.1) as f64,
                (host_after.0 - host_before.0) as f64,
            )),
        ),
        ("setups_s", nums(&setups)),
        (
            "closed_loop",
            Json::object([
                ("requests", Json::num(closed.attempted() as f64)),
                ("elapsed_s", Json::num(closed.elapsed_s)),
                ("quiet_window_rps", nums(&rates)),
                (
                    "all_windows_rps",
                    Json::num(quantile(&mut closed.rates_in(&closed.windows), 0.5)),
                ),
                ("quiet_steal", Json::num(Phase::steal_in(&closed_quiet))),
                ("all_steal", Json::num(Phase::steal_in(&closed.windows))),
            ]),
        ),
        ("open_loop", open_loop_facts(&open, w.open_rate())),
        (
            "errors",
            Json::object([
                ("failed", Json::num((closed.failed + open.failed) as f64)),
                ("incorrect", Json::num(incorrect.len() as f64)),
                (
                    "error_rate",
                    Json::num(failed as f64 / attempted.max(1) as f64),
                ),
            ]),
        ),
        ("liveness_probe", probe),
    ]);
    Ok(Report {
        metrics: m,
        meta,
        correct: incorrect.is_empty(),
        attempted,
        failed,
    })
}

fn run_traced(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let (warm_d, closed_d, open_d) = phases(a.seconds);

    // Untraced baseline closed loop (half length), for trace.overhead.
    let (mut base_sp, _) = timed_setup(w, a.seed, false)?;
    let mut conns = connections(w, a.seed, base_sp.addr);
    let mut usage = || base_sp.usage();
    let base_warm = load::closed_loop(&mut conns, warm_d / 2, 1, &mut usage, false)?;
    let base = load::closed_loop(&mut conns, closed_d / 2, 1, &mut usage, false)?;
    conns.iter_mut().for_each(Conn::close);
    base_sp.quit()?;

    let (mut sp, _) = timed_setup(w, a.seed, true)?;
    let mut conns = connections(w, a.seed, sp.addr);
    let warm = load::closed_loop(&mut conns, warm_d, 1, &mut || sp.usage(), true)?;
    sp.call("reset")?;
    for c in &mut conns {
        c.reset_counters();
    }
    let (closed, open) = drive(&mut sp, &mut conns, a, closed_d, open_d, true)?;
    let snap = sp.call("snap")?;
    require_bounded_backlog(&open)?;
    let probe = match w.audited() {
        true => liveness_probe(&mut sp, &mut conns[0])?,
        false => Json::Null,
    };
    let fin = sp.call("final")?;
    conns.iter_mut().for_each(Conn::close);
    sp.quit()?;

    let crypto = micro::crypto(seed_bytes(a.seed, "micro"));
    let samples: Vec<_> = conns.iter().flat_map(|c| c.samples.clone()).collect();
    let parse_us = micro::parse_us(&samples);

    let mut spans: Vec<SpanRec> = closed.spans.iter().chain(&open.spans).cloned().collect();
    if let Some(lines) = fin.get("spans").and_then(Json::as_array) {
        spans.extend(
            lines
                .iter()
                .filter_map(|l| l.as_str().and_then(SpanRec::from_line)),
        );
    }
    let summary = trace::summarize(&spans);

    let reqs = num(&snap, &["served"]);
    let c = |name: &str| num(&snap, &["counters", name]);
    let h = |name: &str, field: &str| num(&snap, &["hists", name, field]);
    let hmean = |name: &str| ratio(h(name, "sum"), h(name, "count"));
    let per_req = |x: f64| ratio(x, reqs);
    let clock_ghz = CostModel::default().clock_ghz;

    let mut m = Metrics::default();
    // services
    m.put(
        "services.request_us",
        hmean("services_apache_request_ns") / 1e3,
        "us",
    );
    m.put(
        "services.handler_us",
        summary
            .mean_us
            .get("services.handler")
            .copied()
            .unwrap_or(0.0),
        "us",
    );
    m.put("services.sheds", c("services_event_sheds_total"), "count");
    m.put(
        "services.backpressure_pauses",
        c("services_event_backpressure_pauses_total"),
        "count",
    );
    // lthread
    m.put(
        "lthread.jobs_per_req",
        per_req(c("lthread_pool_jobs_total")),
        "1/req",
    );
    m.put(
        "lthread.queue_depth_max",
        num(&snap, &["queue_depth_max"]),
        "count",
    );
    // tlsx
    let connect_ns: u64 = conns.iter().map(|c| c.connect_ns).sum();
    let connects: u64 = conns.iter().map(|c| c.connects).sum();
    m.put(
        "tlsx.client_connect_us",
        ratio(connect_ns as f64 / 1e3, connects as f64),
        "us",
    );
    m.put("tlsx.handshake_us", hmean("tlsx_handshake_ns") / 1e3, "us");
    m.put(
        "tlsx.records_per_req",
        per_req(c("tlsx_records_sealed_total") + c("tlsx_records_opened_total")),
        "1/req",
    );
    // crypto: per-call costs, and their estimated share of a request
    // on the server (handshake key exchange and signature, record
    // AEAD over the bytes moved, head signatures, hash-chain input of
    // ~256 bytes per appended tuple).
    m.put("crypto.x25519_us", crypto.x25519_us, "us");
    m.put("crypto.ed25519_sign_us", crypto.ed25519_sign_us, "us");
    m.put("crypto.ed25519_verify_us", crypto.ed25519_verify_us, "us");
    m.put("crypto.aead_seal_16k_us", crypto.aead_seal_16k_us, "us");
    m.put("crypto.sha256_mbps", crypto.sha256_mbps, "MB/s");
    let client_reqs = (closed.correct + open.correct) as f64;
    let bytes_per_req = ratio(
        conns.iter().map(|c| c.bytes).sum::<u64>() as f64,
        client_reqs,
    );
    let est = per_req(h("tlsx_handshake_ns", "count"))
        * (2.0 * crypto.x25519_us + crypto.ed25519_sign_us)
        + per_req(c("core_head_signs_total")) * crypto.ed25519_sign_us
        + bytes_per_req / 16384.0 * crypto.aead_seal_16k_us
        + per_req(c("core_appends_total")) * 256.0 / crypto.sha256_mbps;
    m.put("crypto.est_us_per_req", est, "us");
    // sgxsim
    m.put(
        "sgxsim.transitions_per_req",
        per_req(c("sgxsim_ecalls_total") + c("sgxsim_ocalls_total")),
        "1/req",
    );
    m.put(
        "sgxsim.batch_items_per_ecall",
        ratio(
            c("sgxsim_batch_items_total"),
            c("sgxsim_batch_ecalls_total"),
        ),
        "count",
    );
    let charged_us_per_req = per_req(c("sgxsim_cycles_charged_total") / clock_ghz / 1e3);
    m.put("sgxsim.charged_us_per_req", charged_us_per_req, "us");
    m.put(
        "sgxsim.epc_swaps_per_req",
        per_req(c("sgxsim_epc_page_swaps_total")),
        "1/req",
    );
    m.put("sgxsim.spin_error", num(&fin, &["spin_error"]), "ratio");
    // httpx
    m.put("httpx.parse_us", parse_us, "us");
    // core
    m.put(
        "core.log_pair_us",
        summary.mean_us.get("core.log_pair").copied().unwrap_or(0.0),
        "us",
    );
    m.put(
        "core.appends_per_req",
        per_req(c("core_appends_total")),
        "1/req",
    );
    m.put(
        "core.head_signs_per_req",
        per_req(c("core_head_signs_total")),
        "1/req",
    );
    m.put(
        "core.commit_wait_us",
        hmean("core_commit_wait_ns") / 1e3,
        "us",
    );
    m.put(
        "core.commit_batch_entries",
        hmean("core_commit_batch_entries"),
        "count",
    );
    m.put(
        "core.check_us_per_req",
        per_req((h("core_check_ns", "sum") + h("core_check_incremental_ns", "sum")) / 1e3),
        "us",
    );
    m.put(
        "core.trim_us_per_req",
        per_req(h("core_trim_ns", "sum") / 1e3),
        "us",
    );
    m.put(
        "core.audit_backlog_max",
        num(&snap, &["audit_backlog_max"]),
        "count",
    );
    m.put(
        "core.verify_log_us_per_entry",
        num(&fin, &["verify_log_us_per_entry"]),
        "us",
    );
    // rote
    m.put("rote.round_us", hmean("rote_round_ns") / 1e3, "us");
    m.put("rote.round_p99_us", h("rote_round_ns", "p99") / 1e3, "us");
    m.put(
        "rote.rounds_per_req",
        per_req(h("rote_round_ns", "count")),
        "1/req",
    );
    // sealdb
    m.put(
        "sealdb.statements_per_req",
        per_req(c("sealdb_statements_total")),
        "1/req",
    );
    m.put("sealdb.query_us", hmean("sealdb_query_ns") / 1e3, "us");
    let (hits, misses) = (c("sealdb_index_hits_total"), c("sealdb_index_misses_total"));
    m.put(
        "sealdb.index_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.put(
        "sealdb.fsyncs_per_req",
        per_req(c("sealdb_journal_fsyncs_total")),
        "1/req",
    );
    m.put("sealdb.compactions", c("sealdb_compactions_total"), "count");
    // trace
    m.put(
        "trace.coverage",
        ratio(
            summary.median_covered_us + charged_us_per_req,
            summary.median_root_us,
        ),
        "ratio",
    );
    let mut traced_lat = closed.latencies();
    let mut base_lat = base.latencies();
    m.put(
        "trace.overhead",
        ratio(quantile(&mut traced_lat, 0.5), quantile(&mut base_lat, 0.5)) - 1.0,
        "ratio",
    );
    m.put(
        "trace.request_self_us",
        summary.self_us.get(trace::ROOT).copied().unwrap_or(0.0),
        "us",
    );
    // The open-loop tail: too host-dependent on a shared 2-vCPU VM to
    // gate on (see README.md), so it is reported, not bounded.
    m.put("client.p99_ms", open_p99_ms(&open), "ms");

    let incorrect = incorrect_summary(&[&base_warm, &base, &warm, &closed, &open]);
    for why in incorrect.iter().take(5) {
        eprintln!("perfbench: incorrect response: {why}");
    }
    let attempted = closed.attempted() + open.attempted();
    let failed =
        closed.failed + open.failed + (closed.incorrect.len() + open.incorrect.len()) as u64;
    let span_counts = summary
        .count
        .iter()
        .map(|(k, &v)| (k.clone(), Json::num(v as f64)))
        .collect();
    let meta = Json::object([
        ("workload", Json::str(w.name())),
        ("seed", Json::num(a.seed as f64)),
        ("seconds", Json::num(a.seconds)),
        ("trace", Json::num(1)),
        ("host", host_facts()),
        ("server_requests", Json::num(reqs)),
        ("open_loop", open_loop_facts(&open, w.open_rate())),
        ("spans", Json::Object(span_counts)),
        (
            "closed_loop_mean_ms",
            Json::object([
                ("untraced", Json::num(mean(&base.latencies()))),
                ("traced", Json::num(mean(&closed.latencies()))),
            ]),
        ),
        ("liveness_probe", probe),
    ]);
    Ok(Report {
        metrics: m,
        meta,
        correct: incorrect.is_empty(),
        attempted,
        failed,
    })
}
