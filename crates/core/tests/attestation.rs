//! End-to-end RA-TLS: enclaves mint their TLS keypair inside, quotes
//! travel as certificate extensions, and clients with an
//! [`AttestationPolicy`] complete handshakes only against verified
//! enclaves (§6.3 defence, extended to the transport itself).
//!
//! Every negative case asserts BOTH the typed error and the
//! per-reason `tlsx_verify_failures_total_<reason>` counter.

use std::sync::Arc;
use std::time::Duration;

use libseal::{DropboxModule, GitModule, IdentityIssuer, LibSeal, LibSealConfig};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::attest::{AttestationExtension, AttestationPolicy, EXT_SGX_QUOTE};
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{Role, Ssl, SslConfig};
use libseal_tlsx::{AttestationError, TlsError};

fn issuer() -> Arc<IdentityIssuer> {
    Arc::new(IdentityIssuer::from_seeds("RA-CA", &[0x51; 32], &[0x52; 32]))
}

fn attested_libseal(issuer: &Arc<IdentityIssuer>, audited: bool) -> Arc<LibSeal> {
    let mut builder = LibSealConfig::attested(Arc::clone(issuer), "svc.test")
        .cost_model(CostModel::free())
        .check_interval(0);
    if audited {
        builder = builder.ssm(Arc::new(GitModule));
    }
    LibSeal::new(builder.build()).unwrap()
}

fn client_cfg(
    roots: Vec<libseal_crypto::ed25519::VerifyingKey>,
    policy: Option<Arc<AttestationPolicy>>,
) -> Arc<SslConfig> {
    Arc::new(SslConfig {
        role: Role::Client,
        cert: None,
        key: None,
        ca_roots: roots,
        verify_peer: true,
        expected_subject: Some("svc.test".into()),
        attestation: policy,
    })
}

/// Drives the handshake between an outside client and a LibSeal
/// session until it completes or the client fails.
fn handshake_with(client: &mut Ssl, ls: &LibSeal, sid: u64) -> Result<(), TlsError> {
    client.do_handshake()?;
    for _ in 0..10 {
        let out = client.take_output();
        if !out.is_empty() {
            ls.provide_input(0, sid, &out).unwrap();
        }
        let _ = ls.do_handshake(0, sid);
        let back = ls.take_output(0, sid).unwrap();
        if !back.is_empty() {
            client.provide_input(&back);
            client.do_handshake()?;
        }
        if client.is_established() {
            let fin = client.take_output();
            if !fin.is_empty() {
                ls.provide_input(0, sid, &fin).unwrap();
                let _ = ls.do_handshake(0, sid);
            }
            return Ok(());
        }
    }
    panic!("handshake neither completed nor failed");
}

fn counter(reason: &str) -> u64 {
    libseal_telemetry::counter(&format!("tlsx_verify_failures_total_{reason}")).get()
}

#[test]
fn attested_handshake_completes_under_pinned_policy() {
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);

    // The minted certificate carries the quote and satisfies the
    // pinned policy on its own.
    let cert = ls.certificate();
    assert!(cert.extension(EXT_SGX_QUOTE).is_some());
    let policy = issuer.policy_for(vec![ls.measurement()]);
    policy
        .verify(cert, libseal_tlsx::attest::unix_now_ms())
        .unwrap();

    // And a pinned client completes the handshake against it.
    let sid = ls.new_session(0).unwrap();
    let cfg = client_cfg(vec![issuer.ca_root()], Some(Arc::new(policy)));
    let mut client = Ssl::new(cfg, [3u8; 64]);
    handshake_with(&mut client, &ls, sid).unwrap();
    assert!(client.is_established());
}

#[test]
fn wrong_measurement_rejected_in_handshake() {
    let issuer = issuer();
    let git = attested_libseal(&issuer, true);
    // Same issuer, different code: the Dropbox SSM changes MRENCLAVE.
    let dropbox = LibSeal::new(
        LibSealConfig::attested(Arc::clone(&issuer), "svc.test")
            .cost_model(CostModel::free())
            .check_interval(0)
            .ssm(Arc::new(DropboxModule))
            .build(),
    )
    .unwrap();
    assert_ne!(git.measurement(), dropbox.measurement());

    let before = counter("attestation_wrong_measurement");
    let policy = Arc::new(issuer.policy_for(vec![git.measurement()]));
    let sid = dropbox.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    let err = handshake_with(&mut client, &dropbox, sid).unwrap_err();
    assert_eq!(
        err,
        TlsError::Attestation(AttestationError::WrongMeasurement)
    );
    assert!(counter("attestation_wrong_measurement") > before);
}

#[test]
fn wrong_signer_rejected_in_handshake() {
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);
    let before = counter("attestation_wrong_signer");
    let policy = Arc::new(
        issuer
            .policy_for(vec![ls.measurement()])
            .signers(vec![[0xEE; 32]]),
    );
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    let err = handshake_with(&mut client, &ls, sid).unwrap_err();
    assert_eq!(err, TlsError::Attestation(AttestationError::WrongSigner));
    assert!(counter("attestation_wrong_signer") > before);
}

#[test]
fn stale_quote_rejected_in_handshake() {
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);
    let before = counter("attestation_stale_quote");
    // A zero TTL makes the boot-time quote stale by handshake time.
    let policy = Arc::new(
        issuer.policy_with_ttl(vec![ls.measurement()], Duration::ZERO),
    );
    std::thread::sleep(Duration::from_millis(20));
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    let err = handshake_with(&mut client, &ls, sid).unwrap_err();
    assert_eq!(err, TlsError::Attestation(AttestationError::StaleQuote));
    assert!(counter("attestation_stale_quote") > before);
}

#[test]
fn missing_quote_rejected_in_handshake() {
    let issuer = issuer();
    // A conventional (non-attested) identity under the same CA: valid
    // cert, no quote.
    let ca = CertificateAuthority::new("RA-CA", &[0x51; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[7u8; 32]).unwrap();
    let ls = LibSeal::new(
        LibSealConfig::builder(cert, key)
            .cost_model(CostModel::free())
            .check_interval(0)
            .ssm(Arc::new(GitModule))
            .build(),
    )
    .unwrap();

    let before = counter("attestation_missing_quote");
    let policy = Arc::new(issuer.policy_for(vec![ls.measurement()]));
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    let err = handshake_with(&mut client, &ls, sid).unwrap_err();
    assert_eq!(err, TlsError::Attestation(AttestationError::MissingQuote));
    assert!(counter("attestation_missing_quote") > before);
}

#[test]
fn untrusted_quoting_root_rejected_in_handshake() {
    let issuer = issuer();
    let rogue = Arc::new(IdentityIssuer::from_seeds("RA-CA", &[0x51; 32], &[0x99; 32]));
    let ls = attested_libseal(&rogue, true);

    let before = counter("attestation_untrusted_root");
    // Client trusts the genuine quoting root only.
    let policy = Arc::new(issuer.policy_for(vec![ls.measurement()]));
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![rogue.ca_root()], Some(policy)), [3u8; 64]);
    let err = handshake_with(&mut client, &ls, sid).unwrap_err();
    assert_eq!(err, TlsError::Attestation(AttestationError::UntrustedRoot));
    assert!(counter("attestation_untrusted_root") > before);
}

#[test]
fn tampered_report_data_rejected_in_handshake() {
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);

    // Forge a certificate whose quote commits to a DIFFERENT key than
    // the one the server actually presents: quote for key B, cert for
    // key A. The CA/CertVerify checks pass; attestation must not.
    let ca = CertificateAuthority::new("RA-CA", &[0x51; 32]);
    let qe = libseal_sgxsim::attest::QuotingEnclave::new(&[0x52; 32]);
    let key_a = libseal_crypto::ed25519::SigningKey::from_seed(&[0xA1; 32]);
    let key_b = libseal_crypto::ed25519::SigningKey::from_seed(&[0xB2; 32]);
    let mut report = [0u8; 64];
    report[..32].copy_from_slice(&libseal_crypto::sha2::Sha256::digest(
        key_b.verifying_key().as_bytes(),
    ));
    let quote = qe.quote(ls.enclave().services(), &report);
    let forged = ca
        .issue_with_extensions(
            "svc.test",
            key_a.verifying_key().as_bytes(),
            vec![AttestationExtension::to_extension(&quote)],
        )
        .unwrap();

    let before = counter("attestation_report_data_mismatch");
    let policy = Arc::new(issuer.policy_for(vec![ls.measurement()]));
    let mut server = Ssl::new(SslConfig::server(forged, key_a), [5u8; 64]);
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    client.do_handshake().unwrap();
    let mut err = None;
    for _ in 0..10 {
        let out = client.take_output();
        if !out.is_empty() {
            server.provide_input(&out);
            let _ = server.do_handshake();
        }
        let back = server.take_output();
        if !back.is_empty() {
            client.provide_input(&back);
            if let Err(e) = client.do_handshake() {
                err = Some(e);
                break;
            }
        }
    }
    assert_eq!(
        err,
        Some(TlsError::Attestation(AttestationError::ReportDataMismatch))
    );
    assert!(counter("attestation_report_data_mismatch") > before);
}

#[test]
fn trust_self_accepts_any_measurement() {
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);
    let policy = Arc::new(AttestationPolicy::trust_self(issuer.quoting_root()));
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], Some(policy)), [3u8; 64]);
    handshake_with(&mut client, &ls, sid).unwrap();
    assert!(client.is_established());
}

#[test]
fn non_attesting_clients_interoperate_with_attested_servers() {
    // Back-compat both ways: the quote extension is non-critical, so a
    // client without a policy connects to an attested server fine.
    let issuer = issuer();
    let ls = attested_libseal(&issuer, true);
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(client_cfg(vec![issuer.ca_root()], None), [3u8; 64]);
    handshake_with(&mut client, &ls, sid).unwrap();
    assert!(client.is_established());

    // And certificates without extensions still round-trip the wire.
    let ca = CertificateAuthority::new("Plain", &[9u8; 32]);
    let (_, plain) = ca.issue_identity("plain.test", &[8u8; 32]).unwrap();
    let decoded = libseal_tlsx::cert::Certificate::decode(&plain.encode()).unwrap();
    assert_eq!(decoded, plain);
    assert!(decoded.extensions.is_empty());
}

#[test]
fn instances_from_one_issuer_share_measurement_not_keys() {
    // Two LibSEAL instances of one service (the §3.2 multi-instance
    // deployment) run the same code: one pinned measurement covers
    // both, yet each minted its own in-enclave key and quote.
    let issuer = issuer();
    let instances = [
        attested_libseal(&issuer, true),
        attested_libseal(&issuer, true),
    ];
    let measurement = instances[0].measurement();
    assert_eq!(instances[1].measurement(), measurement);
    let policy = issuer.policy_for(vec![measurement]);
    let now = libseal_tlsx::attest::unix_now_ms();
    for ls in &instances {
        let cert = ls.certificate();
        policy.verify(cert, now).unwrap();
        assert_eq!(cert.subject, "svc.test");
    }
    assert_ne!(
        instances[0].certificate().pubkey,
        instances[1].certificate().pubkey,
        "instances must not share a private key"
    );

    // A pinned client completes a handshake with each instance.
    for ls in &instances {
        let sid = ls.new_session(0).unwrap();
        let cfg = client_cfg(
            vec![issuer.ca_root()],
            Some(Arc::new(issuer.policy_for(vec![measurement]))),
        );
        let mut client = Ssl::new(cfg, [3u8; 64]);
        handshake_with(&mut client, ls, sid).unwrap();
        assert!(client.is_established());
    }
}
