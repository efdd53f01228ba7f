//! Full-stack integration: real TCP servers terminating STLS through
//! LibSEAL, real clients, injected attacks, and in-band detection —
//! the complete Fig. 1 pipeline for all three services.

use std::sync::Arc;
use std::time::Duration;

use libseal::{DropboxModule, GitModule, LibSeal, LibSealConfig, OwnCloudModule};
use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::Request;
use libseal_httpx::json::Json;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::dropbox::{DropboxAttack, DropboxServer, FileWorkload};
use libseal_services::git::{GitAttack, GitBackend, HistoryGenerator};
use libseal_services::owncloud::{OwnCloudAttack, OwnCloudServer};
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, TlsMode};

/// The served counter increments after the response bytes reach the
/// socket, so a client can observe its response before the counter
/// ticks; wait briefly instead of racing it.
fn await_served(server: &ApacheServer, expected: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.requests_served() < expected && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.requests_served(), expected);
}

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("TestRootCA", &[0x77; 32])
}

fn libseal_for(
    ca: &CertificateAuthority,
    ssm: Option<Arc<dyn libseal::ServiceModule>>,
) -> (Arc<LibSeal>, Vec<VerifyingKey>) {
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    let mut builder = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .check_interval(0);
    if let Some(ssm) = ssm {
        builder = builder.ssm(ssm);
    }
    (LibSeal::new(builder.build()).unwrap(), vec![ca.root_key()])
}

#[test]
fn static_content_through_libseal() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, None);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls), Arc::new(StaticContentRouter)).workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let rsp = client
        .request(&Request::new("GET", "/content/1024", Vec::new()))
        .unwrap();
    assert_eq!(rsp.status, 200);
    assert_eq!(rsp.body.len(), 1024);
    await_served(&server, 1);
    server.stop();
}

#[test]
fn wrong_host_certificate_rejected_despite_valid_ca() {
    // Regression: HttpsClient used to skip the expected-subject pin,
    // accepting ANY certificate under the trusted CA. A valid cert for
    // a different host must fail the handshake.
    let ca = ca();
    let (key, cert) = ca.issue_identity("other-host.example", &[0x23; 32]).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native { cert, key },
            Arc::new(StaticContentRouter),
        )
        .workers(1),
    )
    .unwrap();

    // Pinned to the host we meant to reach: rejected.
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
    let err = client
        .request(&Request::new("GET", "/content/16", Vec::new()))
        .unwrap_err();
    assert!(
        matches!(
            &err,
            libseal_services::ServiceError::Tls(libseal_tlsx::TlsError::Verification(m))
                if m.contains("subject mismatch")
        ),
        "expected subject-mismatch verification failure, got {err:?}"
    );
    assert_eq!(server.requests_served(), 0);

    // Pinned to the name the certificate actually carries: accepted.
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "other-host.example");
    let rsp = client
        .request(&Request::new("GET", "/content/16", Vec::new()))
        .unwrap();
    assert_eq!(rsp.status, 200);
    server.stop();
}

#[test]
fn keep_alive_connections_work() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, None);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls), Arc::new(StaticContentRouter)).workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let mut conn = client.connect().unwrap();
    for i in 1..=5 {
        let rsp = conn
            .request(&Request::new(
                "GET",
                &format!("/content/{}", i * 10),
                Vec::new(),
            ))
            .unwrap();
        assert_eq!(rsp.body.len(), i * 10);
    }
    conn.close();
    await_served(&server, 5);
    server.stop();
}

#[test]
fn git_attacks_detected_end_to_end() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(GitModule)));
    let backend = Arc::new(GitBackend::new());
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls.clone()),
            Arc::new(Arc::clone(&backend)),
        )
        .workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");

    // Honest phase: push two branches, fetch, check → ok.
    let push =
        |body: &str| Request::new("POST", "/repo/p/git-receive-pack", body.as_bytes().to_vec());
    client
        .request(&push("0 c1 refs/heads/main\n0 d1 refs/heads/dev\n"))
        .unwrap();
    let mut fetch = Request::new(
        "GET",
        "/repo/p/info/refs?service=git-upload-pack",
        Vec::new(),
    );
    fetch.headers.insert("Libseal-Check", "1");
    let rsp = client.request(&fetch).unwrap();
    assert_eq!(rsp.headers.get("Libseal-Check-Result"), Some("ok"));

    // Attack: hide the dev branch.
    backend.set_attack(GitAttack::HideRef {
        repo: "p".into(),
        branch: "refs/heads/dev".into(),
    });
    let rsp = client.request(&fetch).unwrap();
    let header = rsp.headers.get("Libseal-Check-Result").unwrap();
    assert!(header.contains("git-completeness"), "{header}");

    // Attack: roll main back.
    backend.set_attack(GitAttack::None);
    client.request(&push("c1 c2 refs/heads/main\n")).unwrap();
    backend.set_attack(GitAttack::Rollback {
        repo: "p".into(),
        branch: "refs/heads/main".into(),
        old_cid: "c1".into(),
    });
    let rsp = client.request(&fetch).unwrap();
    let header = rsp.headers.get("Libseal-Check-Result").unwrap();
    assert!(header.contains("git-soundness"), "{header}");

    ls.verify_log(0).unwrap();
    server.stop();
}

/// One repository's history split across two keep-alive connections
/// still lands in one audit log, so a rollback is caught no matter
/// which connection pushed the commit it hides.
#[test]
fn git_rollback_split_across_connections_detected() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(GitModule)));
    let backend = Arc::new(GitBackend::new());
    let server = ApacheServer::start(ApacheConfig::new(
        TlsMode::LibSeal(ls.clone()),
        Arc::new(Arc::clone(&backend)),
    ))
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let push =
        |body: &str| Request::new("POST", "/repo/p/git-receive-pack", body.as_bytes().to_vec());
    let fetch = Request::new(
        "GET",
        "/repo/p/info/refs?service=git-upload-pack",
        Vec::new(),
    );

    let mut a = client.connect().unwrap();
    let mut b = client.connect().unwrap();
    assert_eq!(
        a.request(&push("0 c1 refs/heads/main\n")).unwrap().status,
        200
    );
    assert_eq!(
        b.request(&push("c1 c2 refs/heads/main\n")).unwrap().status,
        200
    );
    backend.set_attack(GitAttack::Rollback {
        repo: "p".into(),
        branch: "refs/heads/main".into(),
        old_cid: "c1".into(),
    });
    assert_eq!(a.request(&fetch).unwrap().status, 200);
    a.close();
    b.close();

    let outcome = ls.check_now(0).unwrap();
    let soundness: usize = outcome
        .reports
        .iter()
        .filter(|r| r.invariant == "git-soundness")
        .map(|r| r.violations)
        .sum();
    assert!(soundness >= 1, "{:?}", outcome.reports);
    ls.verify_log(0).unwrap();
    server.stop();
}

#[test]
fn git_history_replay_stays_clean() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(GitModule)));
    let backend = Arc::new(GitBackend::new());
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls.clone()),
            Arc::new(Arc::clone(&backend)),
        )
        .workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let mut generator = HistoryGenerator::new("commons-validator", 4, 1);
    let mut conn = client.connect().unwrap();
    for _ in 0..60 {
        let op = generator.next_op();
        let req = HistoryGenerator::to_request(&op);
        let rsp = conn.request(&req).unwrap();
        assert_eq!(rsp.status, 200);
    }
    conn.close();
    let outcome = ls.check_now(0).unwrap();
    assert_eq!(outcome.total_violations(), 0, "{:?}", outcome.reports);
    // Trimming keeps the log bounded and verifiable.
    ls.trim_now(0).unwrap();
    ls.verify_log(0).unwrap();
    server.stop();
}

#[test]
fn owncloud_lost_edit_detected_end_to_end() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(OwnCloudModule)));
    let oc = Arc::new(OwnCloudServer::new());
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(Arc::clone(&oc))).workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");

    let join = |who: &str| {
        Request::new(
            "POST",
            "/owncloud/join",
            format!(r#"{{"doc":"d","client":"{who}"}}"#).into_bytes(),
        )
    };
    let sync = |who: &str, ops: &str| {
        Request::new(
            "POST",
            "/owncloud/sync",
            format!(r#"{{"doc":"d","client":"{who}","ops":{ops}}}"#).into_bytes(),
        )
    };
    client.request(&join("bob")).unwrap();
    client
        .request(&sync("alice", r#"[{"content":"+a"},{"content":"+b"}]"#))
        .unwrap();
    // The server drops op 1 on relay to bob.
    oc.set_attack(OwnCloudAttack::DropUpdate {
        doc: "d".into(),
        seq: 1,
    });
    client.request(&sync("bob", "[]")).unwrap();
    let outcome = ls.check_now(0).unwrap();
    assert!(
        outcome
            .reports
            .iter()
            .any(|r| r.invariant == "owncloud-prefix-completeness" && r.violations > 0),
        "{:?}",
        outcome.reports
    );
    server.stop();
}

#[test]
fn dropbox_through_squid_detects_corruption() {
    let ca = ca();
    // Origin: the Dropbox metadata server behind its own TLS identity.
    let (okey, ocert) = ca.issue_identity("dropbox-origin", &[0x31; 32]).unwrap();
    let origin = Arc::new(DropboxServer::new());
    let origin_server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native {
                cert: ocert,
                key: okey,
            },
            Arc::new(Arc::clone(&origin)),
        )
        .workers(2),
    )
    .unwrap();

    // The Squid proxy terminates client TLS through LibSEAL.
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(DropboxModule)));
    let proxy = SquidProxy::start(
        SquidConfig::new(
            TlsMode::LibSeal(ls.clone()),
            origin_server.addr(),
            vec![ca.root_key()],
            "dropbox-origin",
        )
        .workers(2),
    )
    .unwrap();

    let client = HttpsClient::new(proxy.addr(), roots, "localhost");
    let mut conn = client.connect().unwrap();
    let mut workload = FileWorkload::new("acct", "host1");
    for _ in 0..12 {
        let req = workload.next_request();
        let rsp = conn.request(&req).unwrap();
        assert_eq!(rsp.status, 200);
    }
    let outcome = ls.check_now(0).unwrap();
    assert_eq!(outcome.total_violations(), 0, "{:?}", outcome.reports);

    // Attack: corrupt a blocklist; the next listing reveals it.
    origin.set_attack(DropboxAttack::CorruptBlocklist {
        account: "acct".into(),
        file: "file-1.bin".into(),
    });
    let list = Request::new(
        "POST",
        "/dropbox/list",
        br#"{"account":"acct","host":"host1"}"#.to_vec(),
    );
    let rsp = conn.request(&list).unwrap();
    let j = Json::parse_bytes(&rsp.body).unwrap();
    assert!(!j.get("files").unwrap().as_array().unwrap().is_empty());
    conn.close();

    let outcome = ls.check_now(0).unwrap();
    assert!(
        outcome
            .reports
            .iter()
            .any(|r| r.invariant == "dropbox-blocklist-soundness" && r.violations > 0),
        "{:?}",
        outcome.reports
    );
    proxy.stop();
    origin_server.stop();
}

#[test]
fn wan_latency_floor_applies() {
    let ca = ca();
    let (okey, ocert) = ca.issue_identity("dropbox-origin", &[0x31; 32]).unwrap();
    let origin = Arc::new(DropboxServer::with_wan_latency(Duration::from_millis(30)));
    let origin_server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native {
                cert: ocert,
                key: okey,
            },
            Arc::new(origin),
        )
        .workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(origin_server.addr(), vec![ca.root_key()], "dropbox-origin");
    let t0 = std::time::Instant::now();
    client
        .request(&Request::new(
            "POST",
            "/dropbox/list",
            br#"{"account":"a","host":"h"}"#.to_vec(),
        ))
        .unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(30));
    origin_server.stop();
}

#[test]
fn malformed_request_gets_400_and_close() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(GitModule)));
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls.clone()),
            Arc::new(StaticContentRouter),
        )
        .workers(1),
    )
    .unwrap();

    // Speak TLS by hand so we can ship provably-not-HTTP bytes.
    let sock = std::net::TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let cfg = libseal_tlsx::ssl::SslConfig::client(roots.clone());
    let mut tls = libseal_tlsx::stream::SslStream::handshake(cfg, [0x5a; 64], sock).unwrap();
    tls.write_all(b"NOT-A-REQUEST\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let rsp = loop {
        if let Ok((rsp, _)) = libseal_httpx::http::parse_response(&buf) {
            break rsp;
        }
        match tls.read_some() {
            Ok(d) => buf.extend_from_slice(&d),
            Err(e) => panic!("expected a 400 before close, got {e} after {buf:?}"),
        }
    };
    // The worker answers 400 immediately (no 30 s timeout spin) and
    // closes the connection.
    assert_eq!(rsp.status, 400);
    assert!(matches!(
        tls.read_some(),
        Err(libseal_tlsx::TlsError::Closed) | Ok(_)
    ));

    // A well-formed request on a fresh connection still works, and the
    // audit log stayed consistent.
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let rsp = client
        .request(&Request::new("GET", "/content/64", Vec::new()))
        .unwrap();
    assert_eq!(rsp.status, 200);
    ls.verify_log(0).unwrap();
    server.stop();
}

#[test]
fn many_concurrent_clients() {
    let ca = ca();
    let (ls, roots) = libseal_for(&ca, None);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls), Arc::new(StaticContentRouter)).workers(4),
    )
    .unwrap();
    let addr = server.addr();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let roots = roots.clone();
        handles.push(std::thread::spawn(move || {
            let client = HttpsClient::new(addr, roots, "localhost");
            for _ in 0..5 {
                let rsp = client
                    .request(&Request::new("GET", "/content/256", Vec::new()))
                    .unwrap();
                assert_eq!(rsp.body.len(), 256);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    await_served(&server, 40);
    server.stop();
}

#[test]
fn reverse_proxy_deployment_for_git() {
    // §6.4: Apache in reverse-proxy mode linked against LibSEAL logs
    // all traffic and forwards to Git backend servers.
    let ca = ca();
    // The backend Git server (its own TLS identity, unaudited).
    let (bkey, bcert) = ca.issue_identity("git-backend", &[0x41; 32]).unwrap();
    let backend = Arc::new(GitBackend::new());
    let backend_server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native {
                cert: bcert,
                key: bkey,
            },
            Arc::new(Arc::clone(&backend)),
        )
        .workers(2),
    )
    .unwrap();

    // The audited front end.
    let (ls, roots) = libseal_for(&ca, Some(Arc::new(GitModule)));
    let front = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls.clone()),
            Arc::new(libseal_services::apache::ReverseProxyRouter::new(
                backend_server.addr(),
                vec![ca.root_key()],
                "git-backend",
            )),
        )
        .workers(2),
    )
    .unwrap();

    let client = HttpsClient::new(front.addr(), roots, "localhost");
    client
        .request(&Request::new(
            "POST",
            "/repo/p/git-receive-pack",
            b"0 c1 refs/heads/main\n".to_vec(),
        ))
        .unwrap();
    let rsp = client
        .request(&Request::new(
            "GET",
            "/repo/p/info/refs?service=git-upload-pack",
            Vec::new(),
        ))
        .unwrap();
    assert!(String::from_utf8_lossy(&rsp.body).contains("c1 refs/heads/main"));
    // The front end audited both the push and the (faithful) fetch.
    let outcome = ls.check_now(0).unwrap();
    assert_eq!(outcome.total_violations(), 0, "{:?}", outcome.reports);
    let (entries, _, _) = ls.log_stats(0).unwrap();
    assert_eq!(entries, 2);

    // An attack at the backend is still caught at the proxy.
    backend.set_attack(GitAttack::Rollback {
        repo: "p".into(),
        branch: "refs/heads/main".into(),
        old_cid: "c0".into(),
    });
    client
        .request(&Request::new(
            "GET",
            "/repo/p/info/refs?service=git-upload-pack",
            Vec::new(),
        ))
        .unwrap();
    let outcome = ls.check_now(0).unwrap();
    assert!(outcome.total_violations() > 0);
    front.stop();
    backend_server.stop();
}
