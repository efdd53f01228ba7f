//! Per-call costs of public library functions, timed on inputs the
//! size the workloads use. Multiplied by a layer's calls per request
//! they estimate that layer's share of a request.

use std::hint::black_box;
use std::time::Instant;

use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::ed25519::SigningKey;
use libseal_crypto::sha2::Sha256;
use libseal_crypto::x25519;
use libseal_httpx::http::{parse_request, parse_response};

use crate::stats::quantile;

/// Median time of one `f()` call in microseconds, over 5 batches of
/// `iters` calls.
fn per_call_us(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    quantile(&mut batches, 0.5)
}

/// Crypto primitive costs.
pub struct Crypto {
    /// One X25519 scalar multiplication (a key share or shared secret).
    pub x25519_us: f64,
    /// One Ed25519 signature over a 64-byte transcript hash payload.
    pub ed25519_sign_us: f64,
    /// One Ed25519 verification of the same.
    pub ed25519_verify_us: f64,
    /// Sealing one full 16 KiB record.
    pub aead_seal_16k_us: f64,
    /// SHA-256 throughput over 4 KiB blocks, MB/s.
    pub sha256_mbps: f64,
}

/// Times the crypto primitives the handshake, record layer and hash
/// chain use.
pub fn crypto(seed: [u8; 32]) -> Crypto {
    let share = x25519::public_key(&seed);
    let key = SigningKey::from_seed(&seed);
    let vk = key.verifying_key();
    let msg = [7u8; 64];
    let sig = key.sign(&msg);
    let aead = ChaCha20Poly1305::new(&seed);
    let record = vec![0x5a_u8; 16 * 1024];
    let block = vec![0xa5_u8; 4096];
    let sha_us = per_call_us(200, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    Crypto {
        x25519_us: per_call_us(20, || {
            black_box(x25519::shared_secret(black_box(&seed), &share));
        }),
        ed25519_sign_us: per_call_us(20, || {
            black_box(key.sign(black_box(&msg)));
        }),
        ed25519_verify_us: per_call_us(20, || {
            black_box(vk.verify(black_box(&msg), &sig).is_ok());
        }),
        aead_seal_16k_us: per_call_us(50, || {
            black_box(aead.seal(&[0u8; 12], b"", black_box(&record)));
        }),
        sha256_mbps: block.len() as f64 / sha_us,
    }
}

/// Mean time to parse one request and its response, microseconds,
/// over the run's own captured messages.
pub fn parse_us(samples: &[(Vec<u8>, Vec<u8>)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    per_call_us(20, || {
        for (req, rsp) in samples {
            black_box(parse_request(black_box(req)).is_ok());
            black_box(parse_response(black_box(rsp)).is_ok());
        }
    }) / samples.len() as f64
}
