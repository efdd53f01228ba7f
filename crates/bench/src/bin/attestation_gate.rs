//! CI gate: remote attestation must be load-bearing, not decorative.
//!
//! Three checks, all against real sockets:
//!
//!   1. A fully attested fleet — an audited Git origin behind a Squid
//!      proxy, both terminating STLS through attested enclaves, every
//!      hop pinning the peer's measurement — serves a load run with
//!      zero errors, and the audited origin verifies clean after
//!      drain.
//!   2. A server whose enclave runs the *wrong* service module (a
//!      different MRENCLAVE under the same CA and quoting root) is
//!      rejected by every client **during the handshake**: each
//!      connect fails with the typed `WrongMeasurement` error and the
//!      server serves zero requests.
//!   3. The attested handshake (quote extension on the wire plus
//!      client-side policy verification) costs at most
//!      `MAX_OVERHEAD_PCT` extra median latency over a plain
//!      CA-verified handshake.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin attestation_gate
//! ```
//!
//! Exits non-zero when the gate fails.

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::{DropboxModule, GitModule, IdentityIssuer, LibSeal, LibSealConfig};
use libseal_bench::{bench_secs, ms, print_table, BenchIdentity};
use libseal_crypto::ed25519::SigningKey;
use libseal_httpx::http::Request;
use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::git::GitBackend;
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{
    HttpsClient, LoadGenerator, ServiceError, StaticContentRouter, TlsMode,
};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::attest::AttestationError;
use libseal_tlsx::TlsError;

/// Allowed median handshake-latency regression with attestation on.
const MAX_OVERHEAD_PCT: f64 = 15.0;
/// Handshake latency samples per mode (plus warmup).
const SAMPLES: usize = 200;
/// Warmup handshakes per mode before sampling.
const WARMUP: usize = 25;
/// Concurrent clients for the fleet and rejection runs.
const CLIENTS: usize = 8;

/// Attested configuration: in-enclave keypair, quote-bearing
/// certificate minted by `issuer`, free cost model so TLS itself is
/// what the gate measures.
fn attested_config(issuer: &Arc<IdentityIssuer>, subject: &str) -> libseal::LibSealConfigBuilder {
    LibSealConfig::attested(Arc::clone(issuer), subject)
        .cost_model(CostModel::free())
        .check_interval(0)
}

/// Per-client Git push stream: every request is a logged pair on the
/// audited origin.
fn push_request(client: usize, i: u64) -> Request {
    let branch = format!("refs/heads/b{}", i % 4);
    let cid: String = libseal_crypto::sha2::Sha256::digest(format!("{client}:{i}").as_bytes())
        .iter()
        .take(20)
        .map(|b| format!("{b:02x}"))
        .collect();
    Request::new(
        "POST",
        &format!("/repo/repo-{client}/git-receive-pack"),
        format!("old {cid} {branch}\n").into_bytes(),
    )
}

/// Check 1: attested apache + squid fleet, both legs pinned, clean
/// load run, origin audit log verifies after drain. Returns the Git
/// enclave's measurement for the rejection check.
fn attested_fleet(issuer: &Arc<IdentityIssuer>) -> Result<[u8; 32], String> {
    let origin_ls = LibSeal::new(
        attested_config(issuer, "git-backend")
            .ssm(Arc::new(GitModule))
            .build(),
    )
    .map_err(|e| format!("origin enclave: {e}"))?;
    let git_measurement = origin_ls.measurement();
    let origin = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(Arc::clone(&origin_ls)),
            Arc::new(Arc::new(GitBackend::new())),
        )
        .workers(CLIENTS)
        .event_loop(false),
    )
    .map_err(|e| format!("origin: {e}"))?;

    // The proxy's own enclave is attested but runs no SSM (the paper
    // audits Squid's caching behaviour elsewhere; here its enclave
    // only terminates STLS). Its upstream leg pins the origin's
    // measurement; the client pins the proxy's.
    let proxy_ls = LibSeal::new(attested_config(issuer, "localhost").build())
        .map_err(|e| format!("proxy enclave: {e}"))?;
    let proxy_measurement = proxy_ls.measurement();
    let proxy = SquidProxy::start(
        SquidConfig::new(
            TlsMode::LibSeal(proxy_ls),
            origin.addr(),
            vec![issuer.ca_root()],
            "git-backend",
        )
        .attestation(Arc::new(issuer.policy_for(vec![git_measurement])))
        .workers(CLIENTS)
        .event_loop(false),
    )
    .map_err(|e| format!("proxy: {e}"))?;

    let client = HttpsClient::new(proxy.addr(), vec![issuer.ca_root()], "localhost")
        .attestation(Arc::new(issuer.policy_for(vec![proxy_measurement])));
    // Non-persistent: every request re-runs the attested handshake on
    // both legs, which is the path under test.
    let stats = LoadGenerator {
        clients: CLIENTS,
        duration: bench_secs(),
        persistent: false,
        ..LoadGenerator::default()
    }
    .run(&client, push_request);
    proxy.drain();
    origin.drain();

    if stats.requests == 0 {
        return Err("attested fleet completed no requests".into());
    }
    if stats.errors > 0 {
        return Err(format!(
            "attested fleet saw {} errors over {} requests",
            stats.errors, stats.requests
        ));
    }
    origin_ls
        .verify_log(0)
        .map_err(|e| format!("origin verification after drain: {e}"))?;
    println!(
        "fleet: {} attested requests, 0 errors, origin log verified clean",
        stats.requests
    );
    Ok(git_measurement)
}

/// Check 2: a server presenting a valid certificate chain but the
/// wrong MRENCLAVE (Dropbox SSM instead of Git) must be rejected by
/// every client in-handshake, before any request is served.
fn wrong_measurement_rejected(
    issuer: &Arc<IdentityIssuer>,
    expected: [u8; 32],
) -> Result<(), String> {
    let rogue_ls = LibSeal::new(
        attested_config(issuer, "localhost")
            .ssm(Arc::new(DropboxModule))
            .build(),
    )
    .map_err(|e| format!("rogue enclave: {e}"))?;
    assert_ne!(
        rogue_ls.measurement(),
        expected,
        "SSM fork must change the measurement"
    );
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(rogue_ls), Arc::new(StaticContentRouter))
            .workers(CLIENTS)
            .event_loop(false),
    )
    .map_err(|e| format!("rogue server: {e}"))?;
    let client = HttpsClient::new(server.addr(), vec![issuer.ca_root()], "localhost")
        .attestation(Arc::new(issuer.policy_for(vec![expected])));

    // Every connect must fail with the typed in-handshake error.
    for i in 0..2 * CLIENTS {
        match client.connect() {
            Ok(_) => {
                return Err(format!(
                    "connect {i} to wrong-measurement server succeeded"
                ))
            }
            Err(ServiceError::Tls(TlsError::Attestation(AttestationError::WrongMeasurement))) => {}
            Err(e) => return Err(format!("connect {i}: wrong error: {e}")),
        }
    }
    // And a concurrent burst must not push a single request through.
    let stats = LoadGenerator {
        clients: CLIENTS,
        duration: Duration::from_millis(300),
        persistent: false,
        ..LoadGenerator::default()
    }
    .run(&client, |_, _| {
        Request::new("GET", "/content/64", Vec::new())
    });
    let served = server.requests_served();
    server.stop();
    if stats.requests != 0 || served != 0 {
        return Err(format!(
            "wrong-measurement server served {served} requests ({} completed client-side)",
            stats.requests
        ));
    }
    println!(
        "rejection: {} handshakes refused in-handshake, 0 requests served",
        2 * CLIENTS + stats.errors as usize
    );
    Ok(())
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Check 3: median attested-handshake latency within
/// `MAX_OVERHEAD_PCT` of a plain CA-verified handshake. Both servers
/// run native STLS with the same router; the only delta is the quote
/// extension on the wire and the client-side policy verification.
fn handshake_overhead(issuer: &Arc<IdentityIssuer>) -> Result<(), String> {
    let id = BenchIdentity::new();
    // Donor enclave: supplies the quoting identity for a bench-local
    // keypair, so the attested server can run plain native TLS and
    // the measured delta is the handshake itself, not enclave pumps.
    let donor = LibSeal::new(
        LibSealConfig::builder(id.cert.clone(), id.key.clone())
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .check_interval(0)
            .build(),
    )
    .map_err(|e| format!("donor enclave: {e}"))?;
    let key = SigningKey::from_seed(&[0x77; 32]);
    let cert = issuer
        .mint(
            "localhost",
            key.verifying_key().as_bytes(),
            donor.enclave().services(),
        )
        .map_err(|e| format!("mint: {e}"))?;

    let plain = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native {
                cert: id.cert.clone(),
                key: id.key.clone(),
            },
            Arc::new(StaticContentRouter),
        )
        .workers(2)
        .event_loop(false),
    )
    .map_err(|e| format!("plain server: {e}"))?;
    let attested = ApacheServer::start(
        ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(StaticContentRouter))
            .workers(2)
            .event_loop(false),
    )
    .map_err(|e| format!("attested server: {e}"))?;

    let plain_client = HttpsClient::new(plain.addr(), id.roots(), "localhost");
    let attested_client = HttpsClient::new(attested.addr(), vec![issuer.ca_root()], "localhost")
        .attestation(Arc::new(issuer.policy_for(vec![donor.measurement()])));

    let sample = |client: &HttpsClient| -> Result<Duration, String> {
        let t0 = Instant::now();
        client.connect().map_err(|e| format!("handshake: {e}"))?;
        Ok(t0.elapsed())
    };
    for _ in 0..WARMUP {
        sample(&plain_client)?;
        sample(&attested_client)?;
    }
    // Interleaved so scheduler drift hits both modes equally.
    let mut plain_lat = Vec::with_capacity(SAMPLES);
    let mut attested_lat = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        plain_lat.push(sample(&plain_client)?);
        attested_lat.push(sample(&attested_client)?);
    }
    plain.stop();
    attested.stop();

    let p = median(&mut plain_lat);
    let a = median(&mut attested_lat);
    let overhead = (a.as_secs_f64() / p.as_secs_f64() - 1.0) * 100.0;
    print_table(
        "attested handshake latency (median)",
        &["mode", "median", "overhead"],
        &[
            vec!["plain".into(), ms(p), "-".into()],
            vec!["attested".into(), ms(a), format!("{overhead:+.1}%")],
        ],
    );
    if overhead > MAX_OVERHEAD_PCT {
        return Err(format!(
            "attested handshake overhead {overhead:.1}% exceeds {MAX_OVERHEAD_PCT}% budget"
        ));
    }
    Ok(())
}

fn main() {
    let issuer = Arc::new(IdentityIssuer::from_seeds(
        "GateCA",
        &[0x61; 32],
        &[0x62; 32],
    ));
    let mut failures = Vec::new();

    match attested_fleet(&issuer) {
        Ok(git_measurement) => {
            if let Err(e) = wrong_measurement_rejected(&issuer, git_measurement) {
                failures.push(e);
            }
        }
        Err(e) => failures.push(e),
    }
    if let Err(e) = handshake_overhead(&issuer) {
        failures.push(e);
    }

    if failures.is_empty() {
        println!("attestation gate: PASS");
    } else {
        for f in &failures {
            eprintln!("attestation gate FAIL: {f}");
        }
        std::process::exit(1);
    }
}
