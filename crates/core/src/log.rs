//! The non-repudiable audit log (§5.1).
//!
//! Tuples extracted by a service-specific module land in relational
//! tables inside the enclave's embedded database. Integrity comes from
//! three mechanisms, mirroring the paper:
//!
//! 1. **Hash chain**: every appended tuple extends a SHA-256 chain
//!    (like PeerReview). The chain rows live in a side table
//!    `_libseal_chain(seq, tbl, key, payload, hash)` so that trimming
//!    can recompute hashes without touching every data row (§5.1,
//!    "Log trimming").
//! 2. **Signature**: the chain head, entry count and rollback-counter
//!    value are Ed25519-signed by the enclave; only LibSEAL can
//!    produce valid heads.
//! 3. **Rollback protection**: each append advances a monotonic
//!    counter — either the slow SGX hardware counter or a ROTE quorum
//!    ([`RollbackGuard`]).
//!
//! Persistence uses the database journal with a sealing codec
//! ([`SealingCodec`]) so records on the untrusted disk are encrypted
//! and authenticated with the enclave's seal key.

use std::sync::Arc;

use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha256;
use libseal_sealdb::journal::JournalCodec;
use libseal_sealdb::{Database, SyncPolicy, Value};

use crate::{LibSealError, Result};

/// Process-wide audit-log metrics: per-operation latency histograms
/// plus recovery/rollback-alarm event counters.
struct LogMetrics {
    append_ns: libseal_telemetry::Histogram,
    flush_ns: libseal_telemetry::Histogram,
    trim_ns: libseal_telemetry::Histogram,
    verify_ns: libseal_telemetry::Histogram,
    appends: libseal_telemetry::Counter,
    counter_binds: libseal_telemetry::Counter,
    head_signs: libseal_telemetry::Counter,
    epoch_rotations: libseal_telemetry::Counter,
    recoveries: libseal_telemetry::Counter,
    rollback_alarms: libseal_telemetry::Counter,
    salvaged_bytes: libseal_telemetry::Counter,
}

fn log_metrics() -> &'static LogMetrics {
    static M: std::sync::OnceLock<LogMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| LogMetrics {
        append_ns: libseal_telemetry::histogram("core_append_ns"),
        flush_ns: libseal_telemetry::histogram("core_flush_ns"),
        trim_ns: libseal_telemetry::histogram("core_trim_ns"),
        verify_ns: libseal_telemetry::histogram("core_verify_ns"),
        appends: libseal_telemetry::counter("core_appends_total"),
        counter_binds: libseal_telemetry::counter("core_counter_binds_total"),
        head_signs: libseal_telemetry::counter("core_head_signs_total"),
        epoch_rotations: libseal_telemetry::counter("core_epoch_rotations_total"),
        recoveries: libseal_telemetry::counter("core_recoveries_total"),
        rollback_alarms: libseal_telemetry::counter("core_rollback_alarms_total"),
        salvaged_bytes: libseal_telemetry::counter("core_salvaged_bytes_total"),
    })
}

/// Where the audit log lives.
pub enum LogBacking {
    /// In-memory only (the paper's `LibSEAL-mem` configuration).
    Memory,
    /// Persisted to a sealed journal at the given path, fsynced once
    /// per logged request/response pair (`LibSEAL-disk`, §5.1).
    Disk(std::path::PathBuf),
    /// Persisted without per-record fsync (used by some benches).
    DiskNoSync(std::path::PathBuf),
}

/// Source of rollback-protecting monotonic counter values.
pub trait RollbackGuard: Send + Sync {
    /// Advances the counter, returning its new value.
    ///
    /// # Errors
    ///
    /// Implementations fail when the counter is unavailable (quorum
    /// loss, worn-out hardware counter).
    fn increment(&self) -> Result<u64>;
    /// The highest value the guard can currently attest to.
    ///
    /// # Errors
    ///
    /// As [`RollbackGuard::increment`].
    fn attested(&self) -> Result<u64>;
}

/// No rollback protection (baseline configurations).
pub struct NoGuard;

impl RollbackGuard for NoGuard {
    fn increment(&self) -> Result<u64> {
        Ok(0)
    }
    fn attested(&self) -> Result<u64> {
        Ok(0)
    }
}

/// ROTE-cluster-backed guard. Holds the cluster behind an [`Arc`] so
/// callers can keep a handle for degraded-mode inspection and
/// [`libseal_rote::Cluster::rebind`] while the log owns the guard.
pub struct RoteGuard(pub Arc<libseal_rote::Cluster>);

impl RollbackGuard for RoteGuard {
    fn increment(&self) -> Result<u64> {
        let (v, _acks) = self
            .0
            .increment()
            .map_err(|e| LibSealError::Log(format!("rote: {e}")))?;
        Ok(v)
    }
    fn attested(&self) -> Result<u64> {
        self.0
            .recover()
            .map_err(|e| LibSealError::Log(format!("rote: {e}")))
    }
}

/// SGX hardware-counter-backed guard.
pub struct HwCounterGuard(pub libseal_sgxsim::MonotonicCounter);

impl RollbackGuard for HwCounterGuard {
    fn increment(&self) -> Result<u64> {
        self.0
            .increment()
            .map_err(|e| LibSealError::Log(format!("sgx counter: {e}")))
    }
    fn attested(&self) -> Result<u64> {
        Ok(self.0.read())
    }
}

/// Journal codec sealing every record with an AEAD key.
///
/// Nonce layout (12 bytes): `epoch u32le | counter-low u32le | 4 random
/// bytes`. The **epoch** is a sealed generation number persisted in
/// `_libseal_meta` and bumped on every open, so nonce uniqueness across
/// restarts rests on the monotone epoch rather than on 4 random bytes
/// not colliding; the random tail only covers the window before the
/// fresh epoch's meta row is durable.
pub struct SealingCodec {
    aead: ChaCha20Poly1305,
    /// Nonce counter; unique per record within one codec lifetime.
    counter: std::sync::atomic::AtomicU64,
    /// Restart epoch mixed into every nonce.
    epoch: std::sync::atomic::AtomicU32,
}

impl SealingCodec {
    /// Creates a codec from a (sealing) key.
    pub fn new(key: [u8; 32]) -> Self {
        SealingCodec {
            aead: ChaCha20Poly1305::new(&key),
            counter: std::sync::atomic::AtomicU64::new(0),
            epoch: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Rotate this many nonces before the 32-bit per-epoch space runs
    /// out, so `encode` never has to fail in practice.
    const ROTATE_AT: u64 = (u32::MAX as u64) - 1024;

    /// Sets the restart epoch (done once per open, after recovering the
    /// stored epoch from `_libseal_meta`).
    pub fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, std::sync::atomic::Ordering::SeqCst);
    }

    /// The current restart epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Whether the per-epoch nonce space is close enough to exhaustion
    /// that the owner should rotate to a fresh epoch now.
    pub fn needs_rotation(&self) -> bool {
        self.counter.load(std::sync::atomic::Ordering::SeqCst) >= Self::ROTATE_AT
    }

    /// Advances to a fresh epoch and resets the nonce counter,
    /// returning the new epoch. The owner persists the new epoch to
    /// `_libseal_meta` right away; journal append order then guarantees
    /// that any durable record sealed under the new epoch implies the
    /// epoch row itself is durable, exactly the invariant the open-time
    /// bump relies on.
    pub fn rotate_epoch(&self) -> u32 {
        let e = self
            .epoch
            .load(std::sync::atomic::Ordering::SeqCst)
            .wrapping_add(1);
        self.epoch.store(e, std::sync::atomic::Ordering::SeqCst);
        self.counter.store(0, std::sync::atomic::Ordering::SeqCst);
        e
    }
}

impl JournalCodec for SealingCodec {
    fn encode(&self, plain: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        let n = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        // Reached only if the owner failed to rotate in time: surface a
        // typed error the caller can handle instead of aborting the
        // enclave mid-request.
        if n >= u64::from(u32::MAX) {
            return Err(libseal_sealdb::DbError::Exec(
                "sealing nonce space exhausted; epoch rotation required".into(),
            ));
        }
        let e = self.epoch.load(std::sync::atomic::Ordering::SeqCst);
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&e.to_le_bytes());
        nonce[4..8].copy_from_slice(&(n as u32).to_le_bytes());
        // Random tail: covers nonce reuse in the crash window before
        // this epoch's meta row reaches the disk.
        let mut tail = [0u8; 4];
        plat::entropy::fill(&mut tail);
        nonce[8..].copy_from_slice(&tail);
        let mut out = nonce.to_vec();
        out.extend_from_slice(&self.aead.seal(&nonce, b"libseal-journal", plain));
        Ok(out)
    }

    fn decode(&self, stored: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        if stored.len() < 12 + 16 {
            return Err(libseal_sealdb::DbError::Exec(
                "sealed journal record too short".into(),
            ));
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&stored[..12]);
        self.aead
            .open(&nonce, b"libseal-journal", &stored[12..])
            .map_err(|_| {
                libseal_sealdb::DbError::Exec("sealed journal record failed to open".into())
            })
    }
}

/// A shared handle to a [`SealingCodec`]: the journal owns one clone
/// while the [`AuditLog`] keeps another to manage the restart epoch.
struct SharedCodec(Arc<SealingCodec>);

impl JournalCodec for SharedCodec {
    fn encode(&self, plain: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        self.0.encode(plain)
    }
    fn decode(&self, stored: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        self.0.decode(stored)
    }
}

/// Schema of one audited table: its name and the column(s) forming the
/// primary key used to associate chain rows with data rows.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Primary-key columns (usually `time` plus discriminators).
    pub key_cols: &'static [&'static str],
}

/// What [`AuditLog::open`] recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of torn journal tail dropped by salvage (crash
    /// mid-append), 0 on a clean open.
    pub salvaged_bytes: u64,
    /// Chain entries past the last signed head that were re-signed
    /// (rolled forward): they are authentic — they came out of the
    /// sealed journal — their head signature just never hit the disk.
    pub rolled_forward: u64,
    /// Counter value the durable log accounts for.
    pub durable_counter: u64,
    /// Counter value the rollback guard attests to.
    pub attested_counter: u64,
    /// Whether the guard was ahead of the durable log by exactly one —
    /// the legal crash window (increment acknowledged, flush lost).
    pub crash_window: bool,
}

/// How appends reach a signed, counter-bound head.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// Every append binds the rollback counter and signs the head
    /// itself (one counter step and one signature per entry).
    #[default]
    Immediate,
    /// Appends only extend the hash chain; a group-commit sealer calls
    /// [`AuditLog::seal`] once per batch, so the whole batch shares a
    /// single counter step and head signature.
    Staged,
}

/// Parsed, signature-verified contents of the `head` meta row.
struct SignedHead {
    head: [u8; 32],
    seq: u64,
    counter: u64,
    clock: u64,
}

/// The enclave-resident audit log.
pub struct AuditLog {
    db: Database,
    signer: SigningKey,
    guard: Arc<dyn RollbackGuard>,
    tables: Vec<TableSpec>,
    head: [u8; 32],
    seq: u64,
    /// Logical timestamp handed to SSMs (§5.1: "time being a logical
    /// timestamp maintained in the enclave").
    clock: u64,
    /// Rollback-counter value bound into the last signed head.
    counter: u64,
    disk_backed: bool,
    recovery: RecoveryReport,
    /// Shared handle to the journal's sealing codec, kept to manage
    /// proactive nonce-epoch rotation.
    codec: Arc<SealingCodec>,
    mode: CommitMode,
    /// Entries staged since the last seal: the chain extends past the
    /// signed head until [`AuditLog::seal`] catches it up.
    dirty: bool,
}

const CHAIN_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS _libseal_chain(
    seq INTEGER, tbl TEXT, pk TEXT, payload TEXT, hash BLOB)";
const META_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS _libseal_meta(k TEXT, v TEXT)";

impl AuditLog {
    /// Opens (or creates) an audit log.
    ///
    /// `schema_sql` contains the SSM's CREATE statements; `tables`
    /// names the audited tables and their keys; `signer` is the
    /// enclave's log-signing identity.
    ///
    /// # Errors
    ///
    /// Database and I/O failures; a failed integrity check on reopen.
    pub fn open(
        backing: LogBacking,
        seal_key: [u8; 32],
        signer: SigningKey,
        guard: Box<dyn RollbackGuard>,
        schema_sql: &str,
        tables: Vec<TableSpec>,
    ) -> Result<AuditLog> {
        let codec = Arc::new(SealingCodec::new(seal_key));
        let (mut db, disk_backed) = match backing {
            LogBacking::Memory => (Database::new(), false),
            LogBacking::Disk(path) => (
                Database::open(
                    &path,
                    Box::new(SharedCodec(Arc::clone(&codec))),
                    SyncPolicy::Manual,
                )
                .map_err(LibSealError::Db)?,
                true,
            ),
            LogBacking::DiskNoSync(path) => (
                Database::open(
                    &path,
                    Box::new(SharedCodec(Arc::clone(&codec))),
                    SyncPolicy::Never,
                )
                .map_err(LibSealError::Db)?,
                true,
            ),
        };
        // Bump the sealed restart epoch before this process seals
        // anything: every nonce of this run is distinct from every
        // nonce of every previous run.
        let stored_epoch = db
            .query("SELECT v FROM _libseal_meta WHERE k = 'epoch'", &[])
            .ok()
            .and_then(|r| match r.scalar() {
                Some(Value::Text(t)) => t.parse::<u32>().ok(),
                _ => None,
            })
            .unwrap_or(0);
        codec.set_epoch(stored_epoch + 1);
        db.execute(CHAIN_SCHEMA).map_err(LibSealError::Db)?;
        db.execute(META_SCHEMA).map_err(LibSealError::Db)?;
        for stmt in split_statements(schema_sql) {
            match db.execute(&stmt) {
                Ok(_) => {}
                // A replayed journal already re-created the schema.
                Err(libseal_sealdb::DbError::Schema(m)) if m.contains("already exists") => {}
                Err(e) => return Err(LibSealError::Db(e)),
            }
        }
        // Index every audited table on its key columns: invariant
        // queries correlate on them (`u.repo = a.repo`, `s.doc =
        // d.doc`, ...) and chain verification looks rows up by them,
        // so these indexes are what keeps per-pair checking and
        // verify()/trim() near-linear in the log size.
        for spec in &tables {
            for col in spec.key_cols {
                db.execute(&format!(
                    "CREATE INDEX IF NOT EXISTS libseal_idx_{}_{col} ON {}({col})",
                    spec.name, spec.name
                ))
                .map_err(LibSealError::Db)?;
            }
        }
        let mut log = AuditLog {
            db,
            signer,
            guard: Arc::from(guard),
            tables,
            head: [0u8; 32],
            seq: 0,
            clock: 0,
            counter: 0,
            disk_backed,
            recovery: RecoveryReport::default(),
            codec,
            mode: CommitMode::Immediate,
            dirty: false,
        };
        if log.disk_backed {
            // Persist the bumped epoch before anything else this run
            // seals (one atomic statement; the row is never deleted):
            // the journal is append-ordered, so the epoch row is
            // durable before any record relying on it.
            let epoch = log.codec.epoch();
            log.put_meta("epoch", &epoch.to_string())?;
        }
        log.recover_state()?;
        if log.disk_backed {
            log.flush()?;
        }
        Ok(log)
    }

    /// Writes a `_libseal_meta` row with a single journaled statement
    /// (UPDATE when present, INSERT when absent), so a crash can never
    /// leave the key deleted-but-not-rewritten.
    fn put_meta(&mut self, k: &str, v: &str) -> Result<()> {
        let present = self
            .db
            .query(
                "SELECT v FROM _libseal_meta WHERE k = ?",
                &[Value::Text(k.into())],
            )
            .map_err(LibSealError::Db)?;
        if present.rows.is_empty() {
            self.db
                .execute_with(
                    "INSERT INTO _libseal_meta VALUES (?, ?)",
                    &[Value::Text(k.into()), Value::Text(v.into())],
                )
                .map_err(LibSealError::Db)?;
        } else {
            self.db
                .execute_with(
                    "UPDATE _libseal_meta SET v = ? WHERE k = ?",
                    &[Value::Text(v.into()), Value::Text(k.into())],
                )
                .map_err(LibSealError::Db)?;
        }
        Ok(())
    }

    fn recover_state(&mut self) -> Result<()> {
        log_metrics().recoveries.inc();
        // Rebuild head/seq/clock from the chain table (after journal
        // replay, which may have salvaged a torn tail).
        if let Some(s) = self.db.salvage_report() {
            self.recovery.salvaged_bytes = s.lost_bytes;
            log_metrics().salvaged_bytes.add(s.lost_bytes);
        }
        let r = self
            .db
            .query("SELECT MAX(seq), COUNT(*) FROM _libseal_chain", &[])
            .map_err(LibSealError::Db)?;
        let max_seq = match r.rows.first().and_then(|row| row.first()) {
            Some(Value::Integer(i)) => *i as u64,
            _ => 0,
        };
        self.seq = max_seq;
        // The signed head row: "head_hex:seq:counter:clock:sig_hex".
        let head_meta = self.signed_head_row()?;
        // Restore the logical clock from the signed head metadata: after
        // trimming the chain is renumbered, so seq alone would make the
        // clock regress below surviving rows' timestamps.
        let stored_clock = head_meta.as_ref().map(|m| m.clock).unwrap_or(0);
        self.clock = stored_clock.max(max_seq);
        if max_seq > 0 {
            // Walk the chain: hashes must link and data rows must match.
            let (head, _) = self.verify_chain_rows()?;
            self.head = head;
        }
        // Reconcile the chain against the signed head. The sealed
        // journal authenticates every chain row, so rows past the
        // signed head are a legal crash artefact (the appends landed,
        // the re-signed head did not): roll them FORWARD by re-signing.
        // A signed head claiming *more* than the chain holds is the
        // opposite — durable, signed history has vanished — and that is
        // a rollback.
        let (meta_seq, meta_counter) = match &head_meta {
            Some(m) => {
                if m.seq > max_seq {
                    log_metrics().rollback_alarms.inc();
                    return Err(LibSealError::Tampered(format!(
                        "rollback detected: signed head covers {} entries, log has {max_seq}",
                        m.seq
                    )));
                }
                (m.seq, m.counter)
            }
            // No signed head. Legal only as the crash window of the
            // very first appends (chain rows durable, first head-sign
            // statement torn off the tail); the sealed journal still
            // vouches for the rows.
            None => (0, 0),
        };
        // The durable log accounts for exactly the counter value bound
        // into its last signed head: one seal covers every entry staged
        // since the previous one (a whole group-commit batch shares a
        // single counter step), so rows past the signed head carry at
        // most the one in-flight increment a crash between
        // counter-advance and head-flush legally loses.
        let durable_counter = meta_counter;
        let rolled_forward = max_seq - meta_seq;
        // Rollback check: the guard must not attest past the durable
        // state by more than that single lost batch increment.
        let attested = self.guard.attested()?;
        if attested > durable_counter + 1 {
            log_metrics().rollback_alarms.inc();
            return Err(LibSealError::Tampered(format!(
                "rollback detected: counter attests {attested}, durable log accounts for \
                 {durable_counter}"
            )));
        }
        self.recovery.durable_counter = durable_counter;
        self.recovery.attested_counter = attested;
        self.recovery.crash_window = attested == durable_counter + 1;
        self.recovery.rolled_forward = rolled_forward;
        self.counter = durable_counter.max(attested);
        if max_seq > 0 && (rolled_forward > 0 || self.recovery.crash_window) {
            // Re-sign the authentic recovered head (and absorb the
            // crash-window increment, if any, so counter and log agree
            // again going forward).
            self.sign_head(self.counter)?;
            if self.disk_backed {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Parses the signed-head meta row, verifying its signature.
    ///
    /// Returns `Ok(None)` for an empty (never-signed) log.
    fn signed_head_row(&self) -> Result<Option<SignedHead>> {
        let meta = self
            .db
            .query("SELECT v FROM _libseal_meta WHERE k = 'head'", &[])
            .map_err(LibSealError::Db)?;
        let Some(Value::Text(m)) = meta.scalar() else {
            return Ok(None);
        };
        let parts: Vec<&str> = m.split(':').collect();
        if parts.len() != 5 {
            return Err(LibSealError::Tampered("bad head metadata".into()));
        }
        let head_bytes =
            unhex(parts[0]).ok_or_else(|| LibSealError::Tampered("bad head hex".into()))?;
        let head: [u8; 32] = head_bytes
            .try_into()
            .map_err(|_| LibSealError::Tampered("bad head length".into()))?;
        let seq: u64 = parts[1]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head seq".into()))?;
        let counter: u64 = parts[2]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head counter".into()))?;
        let clock: u64 = parts[3]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head clock".into()))?;
        let sig_bytes =
            unhex(parts[4]).ok_or_else(|| LibSealError::Tampered("bad signature hex".into()))?;
        let sig: [u8; 64] = sig_bytes
            .try_into()
            .map_err(|_| LibSealError::Tampered("bad signature length".into()))?;
        self.signer
            .verifying_key()
            .verify(&head_payload(&head, seq, counter, clock), &sig)
            .map_err(|_| LibSealError::Tampered("head signature invalid".into()))?;
        Ok(Some(SignedHead {
            head,
            seq,
            counter,
            clock,
        }))
    }

    /// What recovery found on the last [`AuditLog::open`].
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// The rollback-counter value bound into the current signed head.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The next logical timestamp (monotone per log).
    pub fn next_time(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Appends one tuple to `table`, extending the hash chain. In
    /// [`CommitMode::Immediate`] the new head is signed and the
    /// rollback counter advanced before returning; in
    /// [`CommitMode::Staged`] the entry stays staged until a sealer
    /// calls [`AuditLog::seal`] for the whole batch.
    ///
    /// # Errors
    ///
    /// Unknown table, database failures, or counter failures.
    pub fn append(&mut self, table: &str, values: &[Value]) -> Result<()> {
        let started = std::time::Instant::now();
        if self.disk_backed && self.codec.needs_rotation() {
            self.rotate_epoch()?;
        }
        let spec = self
            .tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(table))
            .ok_or_else(|| LibSealError::Log(format!("not an audited table: {table}")))?
            .clone();

        plat::failpoint::check("core::log::append")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let placeholders = vec!["?"; values.len()].join(", ");
        self.db
            .execute_with(
                &format!("INSERT INTO {table} VALUES ({placeholders})"),
                values,
            )
            .map_err(LibSealError::Db)?;

        let payload = render_payload(table, values);
        let key = render_key(&spec, table, values, &self.db)?;
        let mut h = Sha256::new();
        h.update(&self.head);
        h.update(payload.as_bytes());
        let new_hash = h.finalize();
        plat::failpoint::check("core::log::append::chain")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        self.seq += 1;
        self.db
            .execute_with(
                "INSERT INTO _libseal_chain VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::Integer(self.seq as i64),
                    Value::Text(table.to_string()),
                    Value::Text(key),
                    Value::Text(payload),
                    Value::Blob(new_hash.to_vec()),
                ],
            )
            .map_err(LibSealError::Db)?;
        self.head = new_hash;
        self.dirty = true;

        if self.mode == CommitMode::Immediate {
            self.seal()?;
        }
        log_metrics().append_ns.record_duration(started.elapsed());
        log_metrics().appends.inc();
        Ok(())
    }

    /// Binds the rollback counter and signs the chain head over every
    /// entry staged since the last seal. One call covers a whole
    /// batch — this is the group-commit amortisation point. No-op when
    /// nothing is staged (safe to call after a concurrent trim already
    /// re-signed the head).
    ///
    /// # Errors
    ///
    /// Counter or database failures; the log stays dirty so the seal
    /// can be retried.
    pub fn seal(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        plat::failpoint::check("core::log::append::counter")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let counter = self.guard.increment()?;
        log_metrics().counter_binds.inc();
        self.sign_head(counter)?;
        self.dirty = false;
        Ok(())
    }

    /// A shared handle to the rollback guard, letting the group-commit
    /// sealer run the counter round *outside* the audit-state lock so
    /// writers keep staging the next batch while it is in flight.
    pub fn guard_handle(&self) -> Arc<dyn RollbackGuard> {
        Arc::clone(&self.guard)
    }

    /// Seals with an already-bound counter value: signs the current
    /// head over everything staged. The caller obtained `counter` from
    /// the [`AuditLog::guard_handle`] while NOT holding the audit lock,
    /// so entries appended during the counter round are simply covered
    /// by this signature too. No-op when clean — a concurrent trim
    /// already re-signed the head, and recovery's legal "+1 counter
    /// step" window absorbs the spare increment.
    ///
    /// # Errors
    ///
    /// Database failures; the log stays dirty so the seal can be
    /// retried.
    pub fn seal_bound(&mut self, counter: u64) -> Result<()> {
        log_metrics().counter_binds.inc();
        if !self.dirty {
            return Ok(());
        }
        // A trim interleaved with the counter round may have bound a
        // later value already; the signed head's counter must never
        // step backwards.
        self.sign_head(counter.max(self.counter))?;
        self.dirty = false;
        Ok(())
    }

    /// Switches how appends reach a signed head (see [`CommitMode`]).
    pub fn set_commit_mode(&mut self, mode: CommitMode) {
        self.mode = mode;
    }

    /// The active commit mode.
    pub fn commit_mode(&self) -> CommitMode {
        self.mode
    }

    /// Whether entries are staged past the last signed head.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Rotates the sealing codec to a fresh nonce epoch and persists it
    /// before anything else is sealed under the new epoch.
    fn rotate_epoch(&mut self) -> Result<()> {
        let e = self.codec.rotate_epoch();
        self.put_meta("epoch", &e.to_string())?;
        log_metrics().epoch_rotations.inc();
        Ok(())
    }

    fn sign_head(&mut self, counter: u64) -> Result<()> {
        plat::failpoint::check("core::log::append::sign")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let sig = self
            .signer
            .sign(&head_payload(&self.head, self.seq, counter, self.clock));
        // Head, metadata and signature travel in ONE row written by one
        // journaled statement: there is no crash point at which the
        // head exists unsigned or the signature refers to a stale head.
        self.put_meta(
            "head",
            &format!(
                "{}:{}:{}:{}:{}",
                hex(&self.head),
                self.seq,
                counter,
                self.clock,
                hex(&sig)
            ),
        )?;
        self.counter = counter;
        log_metrics().head_signs.inc();
        Ok(())
    }

    /// Forces journalled records to stable storage; LibSEAL calls this
    /// once per request/response pair (§5.1).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn flush(&mut self) -> Result<()> {
        plat::failpoint::check("core::log::flush").map_err(|e| LibSealError::Log(e.to_string()))?;
        let started = std::time::Instant::now();
        let r = self.db.sync_journal().map_err(LibSealError::Db);
        if r.is_ok() {
            log_metrics().flush_ns.record_duration(started.elapsed());
        }
        r
    }

    /// Runs a read-only query against the log (invariant checking).
    ///
    /// # Errors
    ///
    /// Database failures.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<libseal_sealdb::QueryResult> {
        self.db.query(sql, params).map_err(LibSealError::Db)
    }

    /// Executes arbitrary SQL against the log (SSM state bookkeeping).
    ///
    /// # Errors
    ///
    /// Database failures.
    pub fn execute_with(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<libseal_sealdb::QueryResult> {
        self.db.execute_with(sql, params).map_err(LibSealError::Db)
    }

    /// Verifies the hash chain, the head signature, and that chain rows
    /// and data rows agree.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Tampered`] describing the first inconsistency.
    pub fn verify(&self) -> Result<()> {
        let started = std::time::Instant::now();
        let (head, last_seq) = self.verify_chain_rows()?;
        // Verify the signed head against the recomputed chain head.
        match self.signed_head_row()? {
            Some(signed) => {
                if signed.head != head {
                    return Err(LibSealError::Tampered(
                        "chain head does not match signed head".into(),
                    ));
                }
                if signed.seq != last_seq {
                    return Err(LibSealError::Tampered("head seq mismatch".into()));
                }
            }
            None if last_seq == 0 => {} // Empty log: nothing signed yet.
            None => return Err(LibSealError::Tampered("head metadata missing".into())),
        }
        log_metrics().verify_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Walks the whole chain: hashes must link, sequence numbers must
    /// increase, and every chain row's data row must still exist and
    /// match. Returns the recomputed head and final sequence number.
    fn verify_chain_rows(&self) -> Result<([u8; 32], u64)> {
        let rows = self
            .db
            .query(
                "SELECT seq, tbl, pk, payload, hash FROM _libseal_chain ORDER BY seq",
                &[],
            )
            .map_err(LibSealError::Db)?;
        let mut head = [0u8; 32];
        let mut last_seq = 0i64;
        for row in &rows.rows {
            let (Value::Integer(seq), Value::Text(payload), Value::Blob(hash)) =
                (&row[0], &row[3], &row[4])
            else {
                return Err(LibSealError::Tampered("chain row malformed".into()));
            };
            if *seq <= last_seq {
                return Err(LibSealError::Tampered(
                    "chain sequence not increasing".into(),
                ));
            }
            last_seq = *seq;
            let mut h = Sha256::new();
            h.update(&head);
            h.update(payload.as_bytes());
            let expect = h.finalize();
            if expect.as_slice() != hash.as_slice() {
                return Err(LibSealError::Tampered(format!(
                    "hash mismatch at seq {seq}"
                )));
            }
            head.copy_from_slice(&expect);
            // Data row must still exist and match the payload.
            let (Value::Text(tbl), Value::Text(key)) = (&row[1], &row[2]) else {
                return Err(LibSealError::Tampered("chain row malformed".into()));
            };
            self.check_data_row(tbl, key, payload)?;
        }
        Ok((head, last_seq as u64))
    }

    fn check_data_row(&self, tbl: &str, key: &str, payload: &str) -> Result<()> {
        let spec = self
            .tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(tbl))
            .ok_or_else(|| LibSealError::Tampered(format!("chain names unknown table {tbl}")))?;
        // Reconstruct the key predicate.
        let key_vals: Vec<&str> = key.split('\u{1f}').collect();
        if key_vals.len() != spec.key_cols.len() {
            return Err(LibSealError::Tampered("chain key malformed".into()));
        }
        // Typed equality (`col = ?` with the key text coerced through
        // the column's affinity) so the predicate is index-probeable.
        // Keys render via `Value::to_string`, which round-trips through
        // affinity coercion for everything except BLOB columns — those
        // keep the textual `'' || col` comparison.
        let t =
            self.db.catalog().table(tbl).ok_or_else(|| {
                LibSealError::Tampered(format!("chain names unknown table {tbl}"))
            })?;
        let mut preds = Vec::with_capacity(spec.key_cols.len());
        let mut params = Vec::with_capacity(spec.key_cols.len());
        for (c, raw) in spec.key_cols.iter().zip(&key_vals) {
            let affinity = t
                .column_index(c)
                .map(|i| t.columns[i].affinity)
                .ok_or_else(|| LibSealError::Tampered(format!("{tbl} lost key column {c}")))?;
            let text = Value::Text((*raw).to_string());
            if matches!(affinity, libseal_sealdb::value::Affinity::Blob) {
                preds.push(format!("('' || {c}) = ?"));
                params.push(text);
            } else {
                preds.push(format!("{c} = ?"));
                params.push(affinity.apply(text));
            }
        }
        let sql = format!("SELECT * FROM {tbl} WHERE {}", preds.join(" AND "));
        let rows = self.db.query(&sql, &params).map_err(LibSealError::Db)?;
        for row in &rows.rows {
            if render_payload(tbl, row) == payload {
                return Ok(());
            }
        }
        Err(LibSealError::Tampered(format!(
            "data row missing or modified for {tbl} key {key:?}"
        )))
    }

    /// Runs the SSM's trimming queries, then rebuilds the chain over
    /// the surviving entries and re-signs (§5.1, "Log trimming").
    ///
    /// # Errors
    ///
    /// Database or counter failures.
    pub fn trim(&mut self, trim_queries: &[&str]) -> Result<()> {
        let started = std::time::Instant::now();
        for q in trim_queries {
            self.db.execute(q).map_err(LibSealError::Db)?;
        }
        // Drop chain rows whose data row no longer exists.
        let chain = self
            .db
            .query(
                "SELECT seq, tbl, pk, payload FROM _libseal_chain ORDER BY seq",
                &[],
            )
            .map_err(LibSealError::Db)?;
        let mut survivors: Vec<(String, String, String)> = Vec::new();
        for row in &chain.rows {
            let (Value::Text(tbl), Value::Text(key), Value::Text(payload)) =
                (&row[1], &row[2], &row[3])
            else {
                continue;
            };
            if self.check_data_row(tbl, key, payload).is_ok() {
                survivors.push((tbl.clone(), key.clone(), payload.clone()));
            }
        }
        // Rebuild the chain with fresh sequence numbers and hashes.
        self.db
            .execute("DELETE FROM _libseal_chain")
            .map_err(LibSealError::Db)?;
        self.head = [0u8; 32];
        self.seq = 0;
        for (tbl, key, payload) in survivors {
            let mut h = Sha256::new();
            h.update(&self.head);
            h.update(payload.as_bytes());
            let new_hash = h.finalize();
            self.seq += 1;
            self.db
                .execute_with(
                    "INSERT INTO _libseal_chain VALUES (?, ?, ?, ?, ?)",
                    &[
                        Value::Integer(self.seq as i64),
                        Value::Text(tbl),
                        Value::Text(key),
                        Value::Text(payload),
                        Value::Blob(new_hash.to_vec()),
                    ],
                )
                .map_err(LibSealError::Db)?;
            self.head = new_hash;
        }
        let counter = self.guard.increment()?;
        log_metrics().counter_binds.inc();
        self.sign_head(counter)?;
        // The fresh signature covers the whole rebuilt chain, including
        // anything that was staged before the trim.
        self.dirty = false;
        // Compact the journal so trimming actually reclaims disk.
        if self.disk_backed {
            self.db.compact().map_err(LibSealError::Db)?;
            self.db.sync_journal().map_err(LibSealError::Db)?;
        }
        log_metrics().trim_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Approximate log size in bytes (data + chain).
    pub fn size_bytes(&self) -> usize {
        self.db.size_bytes()
    }

    /// On-disk journal size in bytes.
    pub fn journal_size_bytes(&self) -> u64 {
        self.db.journal_size_bytes()
    }

    /// Number of chain entries.
    pub fn entries(&self) -> u64 {
        self.seq
    }

    /// The signer's public key (clients verify exported proofs).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signer.verifying_key()
    }

    /// Direct database access for tests and tamper-injection.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }
}

fn head_payload(head: &[u8; 32], seq: u64, counter: u64, clock: u64) -> Vec<u8> {
    let mut p = b"libseal-head:".to_vec();
    p.extend_from_slice(head);
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    p.extend_from_slice(&clock.to_le_bytes());
    p
}

fn render_payload(table: &str, values: &[Value]) -> String {
    let mut out = String::with_capacity(32);
    out.push_str(table);
    for v in values {
        out.push('\u{1f}');
        out.push_str(&v.group_key());
    }
    out
}

fn render_key(spec: &TableSpec, table: &str, values: &[Value], db: &Database) -> Result<String> {
    // Map key column names to positions via the catalog.
    let t = db
        .catalog()
        .table(table)
        .ok_or_else(|| LibSealError::Log(format!("no such table: {table}")))?;
    let mut parts = Vec::with_capacity(spec.key_cols.len());
    for c in spec.key_cols {
        let i = t
            .column_index(c)
            .ok_or_else(|| LibSealError::Log(format!("{table} has no key column {c}")))?;
        let v = values
            .get(i)
            .ok_or_else(|| LibSealError::Log("tuple arity mismatch".into()))?;
        parts.push(v.to_string());
    }
    Ok(parts.join("\u{1f}"))
}

fn split_statements(sql: &str) -> Vec<String> {
    // Views may contain semicolons only as statement separators in our
    // dialect, so a simple split is safe here.
    sql.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_exhaustion_is_a_typed_error_and_rotation_recovers() {
        let codec = SealingCodec::new([9u8; 32]);
        codec.set_epoch(3);
        codec
            .counter
            .store(u64::from(u32::MAX), std::sync::atomic::Ordering::SeqCst);
        assert!(codec.needs_rotation());
        let err = JournalCodec::encode(&codec, b"payload").unwrap_err();
        assert!(err.to_string().contains("epoch rotation"), "{err}");

        assert_eq!(codec.rotate_epoch(), 4);
        assert!(!codec.needs_rotation());
        let sealed = JournalCodec::encode(&codec, b"payload").unwrap();
        assert_eq!(JournalCodec::decode(&codec, &sealed).unwrap(), b"payload");
    }

    #[test]
    fn rotation_threshold_leaves_headroom_before_the_hard_limit() {
        let codec = SealingCodec::new([9u8; 32]);
        codec
            .counter
            .store(SealingCodec::ROTATE_AT, std::sync::atomic::Ordering::SeqCst);
        // Rotation is due, but encode still succeeds inside the headroom
        // window so in-flight appends can finish before the owner rotates.
        assert!(codec.needs_rotation());
        assert!(JournalCodec::encode(&codec, b"x").is_ok());
    }
}
