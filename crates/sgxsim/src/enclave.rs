//! Enclave lifecycle, measurement and the ecall/ocall trust boundary.
//!
//! An [`Enclave<T>`] owns trusted state `T` that outside code can only
//! reach through [`Enclave::ecall`], mirroring how the SGX SDK only
//! exposes the functions listed in the EDL file. Enclave code reaches
//! untrusted functionality through [`EnclaveServices::ocall`]. Every
//! synchronous crossing charges the cost model and bumps the transition
//! counters; the asynchronous path (`libseal-lthread`) instead charges a
//! cheap slot handoff via [`Enclave::async_call`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::rng::ChaChaRng;
use libseal_crypto::sha2::Sha256;
use plat::sync::Mutex;

use crate::cost::CostModel;
use crate::epc::EpcState;
use crate::seal::{self, SealingPolicy};
use crate::stats::TransitionStats;
use crate::{Result, SgxError};

/// Identifies an interface function for accounting purposes.
pub type CallId = &'static str;

/// Facilities available to code running inside the enclave.
pub struct EnclaveServices {
    model: CostModel,
    stats: Arc<TransitionStats>,
    epc: EpcState,
    threads_inside: AtomicU64,
    tcs_count: u64,
    platform_secret: [u8; 32],
    measurement: [u8; 32],
    signer: VerifyingKey,
    rng: Mutex<ChaChaRng>,
}

impl EnclaveServices {
    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The transition statistics collector.
    pub fn stats(&self) -> &TransitionStats {
        &self.stats
    }

    /// A shareable handle to the statistics collector (for callback
    /// trampolines that outlive the current call frame).
    pub fn stats_arc(&self) -> Arc<TransitionStats> {
        Arc::clone(&self.stats)
    }

    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> &[u8; 32] {
        &self.measurement
    }

    /// The enclave's signing authority (MRSIGNER analogue).
    pub fn signer(&self) -> &VerifyingKey {
        &self.signer
    }

    /// Number of threads currently executing inside the enclave.
    pub fn threads_inside(&self) -> u64 {
        self.threads_inside.load(Ordering::Relaxed)
    }

    /// Executes an untrusted function outside the enclave (a synchronous
    /// ocall): charges a full transition at the current contention
    /// level.
    pub fn ocall<R>(&self, name: CallId, f: impl FnOnce() -> R) -> R {
        let cycles = self.model.charge_transition(self.threads_inside());
        self.stats.record_ocall(name, cycles);
        f()
    }

    /// In-enclave randomness (avoids an ocall to the host RNG, §4.2
    /// optimisation 2).
    pub fn fill_random(&self, out: &mut [u8]) {
        self.rng.lock().fill(out);
    }

    /// Registers an in-enclave heap allocation with the EPC model.
    pub fn epc_alloc(&self, bytes: u64) {
        self.epc.alloc(bytes, &self.model, &self.stats);
    }

    /// Releases enclave heap from the EPC model.
    pub fn epc_free(&self, bytes: u64) {
        self.epc.free(bytes);
    }

    /// Charges the access cost for touching enclave memory.
    pub fn epc_touch(&self, bytes: u64) {
        self.epc.touch(bytes, &self.model, &self.stats);
    }

    /// Bytes currently resident in the simulated EPC.
    pub fn epc_resident(&self) -> u64 {
        self.epc.resident()
    }

    /// Seals `plaintext` to this enclave's identity per `policy`.
    pub fn seal_data(&self, policy: SealingPolicy, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let key = self.seal_key(policy);
        let mut nonce = [0u8; 12];
        self.fill_random(&mut nonce);
        seal::seal_with_key(&key, &nonce, aad, plaintext)
    }

    /// Unseals a blob previously produced by [`Self::seal_data`].
    ///
    /// # Errors
    ///
    /// [`SgxError::SealingFailure`] if the blob was tampered with or was
    /// sealed by a different identity.
    pub fn unseal_data(&self, policy: SealingPolicy, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        let key = self.seal_key(policy);
        seal::unseal_with_key(&key, aad, sealed).ok_or(SgxError::SealingFailure)
    }

    /// Derives the sealing key for `policy` (KEYREQUEST analogue).
    pub fn seal_key(&self, policy: SealingPolicy) -> [u8; 32] {
        let binding: &[u8] = match policy {
            SealingPolicy::MrEnclave => &self.measurement,
            SealingPolicy::MrSigner => self.signer.as_bytes(),
        };
        let mut key = [0u8; 32];
        let prk = libseal_crypto::hkdf::extract(&self.platform_secret, binding);
        libseal_crypto::hkdf::expand(&prk, b"sgxsim-seal-key", &mut key);
        key
    }

    /// Validates an interface parameter, aborting the call on failure.
    ///
    /// # Errors
    ///
    /// [`SgxError::InterfaceViolation`] when `ok` is false; callers are
    /// expected to propagate this, terminating the ecall (the paper's
    /// LibSEAL aborts on failed interface checks, §6.3).
    pub fn interface_check(&self, ok: bool, what: &str) -> Result<()> {
        if ok {
            Ok(())
        } else {
            Err(SgxError::InterfaceViolation(what.to_string()))
        }
    }

    fn enter(&self) -> Result<u64> {
        // Claim a TCS slot, spinning briefly if all are busy (the SGX
        // SDK blocks the calling thread in this situation).
        let mut spins = 0u64;
        loop {
            let cur = self.threads_inside.load(Ordering::Acquire);
            if cur < self.tcs_count {
                if self
                    .threads_inside
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Ok(cur + 1);
                }
                continue;
            }
            spins += 1;
            if spins > 10_000_000 {
                return Err(SgxError::OutOfTcs);
            }
            std::thread::yield_now();
        }
    }

    fn exit(&self) {
        self.threads_inside.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Builder for [`Enclave`].
pub struct EnclaveBuilder {
    identity: Vec<u8>,
    interface: Vec<CallId>,
    model: CostModel,
    tcs_count: u64,
    platform_secret: Option<[u8; 32]>,
    signer: Option<SigningKey>,
}

impl EnclaveBuilder {
    /// Starts building an enclave whose code identity is `identity`
    /// (e.g. a library name and version; hashed into the measurement).
    pub fn new(identity: &[u8]) -> Self {
        EnclaveBuilder {
            identity: identity.to_vec(),
            interface: Vec::new(),
            model: CostModel::default(),
            tcs_count: 16,
            platform_secret: None,
            signer: None,
        }
    }

    /// Declares an interface function (EDL entry); part of the
    /// measurement.
    pub fn declare_interface(mut self, name: CallId) -> Self {
        self.interface.push(name);
        self
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the number of TCS slots (maximum concurrent enclave
    /// threads; static in SGX1, see §4.3 footnote).
    pub fn tcs_count(mut self, n: u64) -> Self {
        self.tcs_count = n.max(1);
        self
    }

    /// Overrides the per-platform sealing secret (defaults to a
    /// process-wide random secret; override to simulate migrating
    /// sealed data across machines).
    pub fn platform_secret(mut self, secret: [u8; 32]) -> Self {
        self.platform_secret = Some(secret);
        self
    }

    /// Sets the signing authority of the enclave.
    pub fn signer(mut self, key: SigningKey) -> Self {
        self.signer = Some(key);
        self
    }

    /// Initialises the enclave with trusted state built by `init`,
    /// which runs inside the freshly measured enclave.
    pub fn build<T>(self, init: impl FnOnce(&EnclaveServices) -> T) -> Enclave<T> {
        let mut m = Sha256::new();
        m.update(&self.identity);
        let mut names = self.interface.clone();
        names.sort_unstable();
        for n in &names {
            m.update(n.as_bytes());
            m.update(&[0]);
        }
        let signer = self
            .signer
            .unwrap_or_else(|| SigningKey::from_seed(&[0x5a; 32]));
        let mut mfinal = m.clone();
        mfinal.update(signer.verifying_key().as_bytes());
        let measurement = mfinal.finalize();

        let mut seed = [0u8; 32];
        seed.copy_from_slice(&Sha256::digest(&measurement));
        let services = EnclaveServices {
            model: self.model,
            stats: Arc::new(TransitionStats::new()),
            epc: EpcState::new(),
            threads_inside: AtomicU64::new(0),
            tcs_count: self.tcs_count,
            platform_secret: self.platform_secret.unwrap_or_else(process_platform_secret),
            measurement,
            signer: signer.verifying_key(),
            rng: Mutex::new(ChaChaRng::from_seed(seed_mix(seed))),
        };
        let state = init(&services);
        Enclave {
            services: Arc::new(services),
            state,
        }
    }
}

fn seed_mix(mut seed: [u8; 32]) -> [u8; 32] {
    // Mix in process entropy so two enclaves with equal measurement do
    // not share an RNG stream.
    let mut noise = [0u8; 32];
    plat::entropy::fill(&mut noise);
    for (s, n) in seed.iter_mut().zip(noise.iter()) {
        *s ^= n;
    }
    seed
}

fn process_platform_secret() -> [u8; 32] {
    use std::sync::OnceLock;
    static SECRET: OnceLock<[u8; 32]> = OnceLock::new();
    *SECRET.get_or_init(plat::entropy::seed32)
}

/// A simulated SGX enclave holding trusted state `T`.
///
/// `T` is responsible for its own interior synchronisation (as enclave
/// code is in real SGX); the enclave only polices the boundary.
pub struct Enclave<T> {
    services: Arc<EnclaveServices>,
    state: T,
}

impl<T> Enclave<T> {
    /// Executes `f` inside the enclave as a synchronous ecall: claims a
    /// TCS slot, charges a transition at the current contention level,
    /// and records the call.
    ///
    /// # Errors
    ///
    /// [`SgxError::OutOfTcs`] when no TCS slot frees up.
    pub fn ecall<R>(&self, name: CallId, f: impl FnOnce(&T, &EnclaveServices) -> R) -> Result<R> {
        let threads = self.services.enter()?;
        let cycles = self.services.model.charge_transition(threads);
        self.services.stats.record_ecall(name, cycles);
        let r = f(&self.state, &self.services);
        self.services.exit();
        Ok(r)
    }

    /// Executes `f` inside the enclave as a *batched* ecall serving
    /// `items` units of work (sessions, log entries, …) in one
    /// transition — the `seal_batch`/`verify_batch` shape, exposed as
    /// a first-class entry point for the event-driven service core.
    /// One transition is charged regardless of `items`; the batch is
    /// priced in telemetry (`sgxsim_batch_ecalls_total` /
    /// `sgxsim_batch_items_total`) so gates can measure amortisation.
    ///
    /// # Errors
    ///
    /// [`SgxError::OutOfTcs`] when no TCS slot frees up.
    pub fn ecall_batch<R>(
        &self,
        name: CallId,
        items: u64,
        f: impl FnOnce(&T, &EnclaveServices) -> R,
    ) -> Result<R> {
        let threads = self.services.enter()?;
        let cycles = self.services.model.charge_transition(threads);
        self.services.stats.record_batch_ecall(name, cycles, items);
        let r = f(&self.state, &self.services);
        self.services.exit();
        Ok(r)
    }

    /// Executes `f` inside the enclave on behalf of an asynchronous
    /// call slot: the calling thread must already be a persistent
    /// enclave thread (see [`Enclave::enter_persistent`]), so only the
    /// cheap handoff cost is charged.
    pub fn async_call<R>(&self, f: impl FnOnce(&T, &EnclaveServices) -> R) -> R {
        self.services.model.charge_async_handoff();
        self.services
            .stats
            .record_async_ecall(self.services.model.async_handoff_cycles);
        f(&self.state, &self.services)
    }

    /// Marks the current thread as permanently resident inside the
    /// enclave (an SGX thread of §4.3). Returns a guard; while alive it
    /// occupies a TCS slot.
    ///
    /// # Errors
    ///
    /// [`SgxError::OutOfTcs`] when all slots are taken.
    pub fn enter_persistent(&self) -> Result<PersistentEntry<'_, T>> {
        self.services.enter()?;
        Ok(PersistentEntry { enclave: self })
    }

    /// The enclave services handle (measurement, sealing, stats).
    pub fn services(&self) -> &Arc<EnclaveServices> {
        &self.services
    }

    /// The enclave measurement.
    pub fn measurement(&self) -> &[u8; 32] {
        self.services.measurement()
    }
}

/// Guard representing a thread resident inside the enclave.
pub struct PersistentEntry<'e, T> {
    enclave: &'e Enclave<T>,
}

impl<T> PersistentEntry<'_, T> {
    /// Runs `f` with access to the trusted state, without a transition
    /// (the thread is already inside).
    pub fn with<R>(&self, f: impl FnOnce(&T, &EnclaveServices) -> R) -> R {
        f(&self.enclave.state, &self.enclave.services)
    }
}

impl<T> Drop for PersistentEntry<'_, T> {
    fn drop(&mut self) {
        self.enclave.services.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_enclave() -> Enclave<Mutex<u64>> {
        EnclaveBuilder::new(b"test-enclave-v1")
            .declare_interface("bump")
            .cost_model(CostModel::free())
            .build(|_| Mutex::new(0u64))
    }

    #[test]
    fn ecall_reaches_state() {
        let e = test_enclave();
        e.ecall("bump", |s, _| *s.lock() += 5).unwrap();
        let v = e.ecall("bump", |s, _| *s.lock()).unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn transitions_are_counted() {
        let e = test_enclave();
        e.ecall("bump", |_, sv| {
            sv.ocall("malloc", || ());
            sv.ocall("malloc", || ());
        })
        .unwrap();
        let snap = e.services().stats().snapshot();
        assert_eq!(snap.ecalls, 1);
        assert_eq!(snap.ocalls, 2);
        assert_eq!(snap.by_name["malloc"], 2);
    }

    #[test]
    fn batch_ecall_charges_one_transition_for_many_items() {
        let e = test_enclave();
        e.ecall_batch("tls_batch", 64, |s, _| *s.lock() += 64)
            .unwrap();
        let snap = e.services().stats().snapshot();
        assert_eq!(snap.ecalls, 1, "one transition");
        assert_eq!(snap.batch_ecalls, 1);
        assert_eq!(snap.batch_items, 64);
        assert_eq!(snap.by_name["tls_batch"], 1);
        assert_eq!(e.ecall("bump", |s, _| *s.lock()).unwrap(), 64);
    }

    #[test]
    fn async_call_counts_separately() {
        let e = test_enclave();
        let _entry = e.enter_persistent().unwrap();
        e.async_call(|s, _| *s.lock() += 1);
        let snap = e.services().stats().snapshot();
        assert_eq!(snap.ecalls, 0);
        assert_eq!(snap.async_ecalls, 1);
    }

    #[test]
    fn tcs_limit_enforced() {
        let e = EnclaveBuilder::new(b"small")
            .cost_model(CostModel::free())
            .tcs_count(1)
            .build(|_| ());
        let first = e.enter_persistent().unwrap();
        assert_eq!(e.services().threads_inside(), 1);
        drop(first);
        assert_eq!(e.services().threads_inside(), 0);
        let _again = e.enter_persistent().unwrap();
    }

    #[test]
    fn measurement_depends_on_identity_and_interface() {
        let a = EnclaveBuilder::new(b"x")
            .declare_interface("f")
            .cost_model(CostModel::free())
            .build(|_| ());
        let b = EnclaveBuilder::new(b"x")
            .declare_interface("g")
            .cost_model(CostModel::free())
            .build(|_| ());
        let c = EnclaveBuilder::new(b"y")
            .declare_interface("f")
            .cost_model(CostModel::free())
            .build(|_| ());
        assert_ne!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let e = test_enclave();
        e.ecall("bump", |_, sv| {
            let sealed = sv.seal_data(SealingPolicy::MrSigner, b"log", b"secret payload");
            assert_ne!(&sealed[..], b"secret payload");
            let opened = sv
                .unseal_data(SealingPolicy::MrSigner, b"log", &sealed)
                .unwrap();
            assert_eq!(opened, b"secret payload");
            // Wrong AAD must fail.
            assert!(sv
                .unseal_data(SealingPolicy::MrSigner, b"oth", &sealed)
                .is_err());
        })
        .unwrap();
    }

    #[test]
    fn same_signer_can_unseal_across_enclaves() {
        let signer = SigningKey::from_seed(&[1u8; 32]);
        let secret = [9u8; 32];
        let e1 = EnclaveBuilder::new(b"v1")
            .cost_model(CostModel::free())
            .signer(signer.clone())
            .platform_secret(secret)
            .build(|_| ());
        let e2 = EnclaveBuilder::new(b"v2-upgraded")
            .cost_model(CostModel::free())
            .signer(signer)
            .platform_secret(secret)
            .build(|_| ());
        let sealed = e1
            .ecall("seal", |_, sv| {
                sv.seal_data(SealingPolicy::MrSigner, b"", b"data")
            })
            .unwrap();
        let opened = e2
            .ecall("unseal", |_, sv| {
                sv.unseal_data(SealingPolicy::MrSigner, b"", &sealed)
            })
            .unwrap()
            .unwrap();
        assert_eq!(opened, b"data");
        // MRENCLAVE policy must NOT transfer between different code.
        let sealed_mr = e1
            .ecall("seal", |_, sv| {
                sv.seal_data(SealingPolicy::MrEnclave, b"", b"data")
            })
            .unwrap();
        let res = e2
            .ecall("unseal", |_, sv| {
                sv.unseal_data(SealingPolicy::MrEnclave, b"", &sealed_mr)
            })
            .unwrap();
        assert!(res.is_err());
    }

    #[test]
    fn interface_check_aborts() {
        let e = test_enclave();
        let r = e
            .ecall("bump", |_, sv| -> crate::Result<()> {
                sv.interface_check(false, "pointer outside untrusted range")?;
                Ok(())
            })
            .unwrap();
        assert!(matches!(r, Err(SgxError::InterfaceViolation(_))));
    }

    #[test]
    fn in_enclave_rng_is_random() {
        let e = test_enclave();
        let (a, b) = e
            .ecall("bump", |_, sv| {
                let mut a = [0u8; 16];
                let mut b = [0u8; 16];
                sv.fill_random(&mut a);
                sv.fill_random(&mut b);
                (a, b)
            })
            .unwrap();
        assert_ne!(a, b);
    }
}
