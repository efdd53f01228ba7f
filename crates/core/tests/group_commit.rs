//! Group-commit pipeline tests: concurrent appends through the full
//! `LibSeal` stack, the `CommitQueue`/`Sealer` pipeline over a staged
//! audit log, and crash/error trials at the pipeline's failpoint sites
//! (enqueue, seal, ack) holding the recovery contract: reopen
//! succeeds, the chain verifies, and the counter stays inside the
//! legal "attested ≤ durable + 1" crash window.
//!
//! Fault-injected tests open `plat::failpoint::scenario()` first so
//! they serialize on the global failpoint registry.

use std::sync::Arc;
use std::time::Duration;

use libseal::log::{AuditLog, LogBacking, RollbackGuard, RoteGuard};
use libseal::ssm::git::GIT_SOUNDNESS;
use libseal::{
    CommitMode, CommitQueue, GitModule, GroupCommitConfig, LibSeal, LibSealConfig, Sealer,
    ServiceModule,
};
use libseal_crypto::ed25519::SigningKey;
use libseal_rote::{Cluster, ClusterConfig, QuorumPolicy};
use libseal_sealdb::Value;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use plat::failpoint::{self, FaultSpec};
use plat::sync::Mutex;
use plat::tmp::TempPath;

const SEAL_KEY: [u8; 32] = [7u8; 32];

fn open_log(path: &TempPath, guard: Box<dyn RollbackGuard>) -> libseal::Result<AuditLog> {
    let ssm = GitModule;
    AuditLog::open(
        LogBacking::Disk(path.to_path_buf()),
        SEAL_KEY,
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
}

fn update_row(t: i64, worker: usize, i: usize) -> Vec<Value> {
    vec![
        Value::Integer(t),
        Value::Text("r".into()),
        Value::Text("main".into()),
        Value::Text(format!("{worker:02x}{i:038x}")),
        Value::Text("update".into()),
    ]
}

/// N worker threads hammer `with_log` appends on one audited `LibSeal`
/// (group commit on by default). The chain must verify and hold a
/// gap-free 1..=N*M sequence afterwards.
#[test]
fn concurrent_appends_verify_with_a_gap_free_chain() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    const WORKERS: usize = 4;
    const APPENDS: usize = 25;
    let path = TempPath::new("libseal-gc-stress", "log");
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .ssm(Arc::new(GitModule))
        .backing(LogBacking::Disk(path.to_path_buf()))
        .check_interval(0)
        .group_commit(16, Duration::ZERO)
        .build();
    let ls = LibSeal::new(cfg).unwrap();

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let ls = Arc::clone(&ls);
            std::thread::spawn(move || {
                for i in 0..APPENDS {
                    ls.with_log(0, move |log| {
                        let t = log.next_time() as i64;
                        log.append("updates", &update_row(t, w, i)).unwrap();
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    ls.verify_log(0).unwrap();
    let seqs = ls
        .with_log(0, |log| {
            log.query("SELECT seq FROM _libseal_chain ORDER BY seq", &[])
                .unwrap()
                .rows
                .iter()
                .map(|r| match &r[0] {
                    Value::Integer(s) => *s,
                    other => panic!("non-integer seq: {other:?}"),
                })
                .collect::<Vec<i64>>()
        })
        .unwrap();
    let want: Vec<i64> = (1..=(WORKERS * APPENDS) as i64).collect();
    assert_eq!(seqs, want, "chain sequence must be gap-free");
}

fn cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::new(1);
    cfg.deadline = Duration::from_millis(200);
    cfg.retries = 0;
    cfg.backoff = Duration::from_millis(1);
    cfg.policy = QuorumPolicy::FailStop;
    Arc::new(Cluster::with_config(cfg, b"group-commit-tests").unwrap())
}

/// Runs the staged pipeline — writers stage appends and block on the
/// commit barrier, a `Sealer` drains batches — and returns how many
/// appends were acknowledged durable.
fn pipeline_trial(path: &TempPath, cluster: &Arc<Cluster>, writers: usize, appends: usize) -> u64 {
    let Ok(mut log) = open_log(path, Box::new(RoteGuard(Arc::clone(cluster)))) else {
        return 0;
    };
    log.set_commit_mode(CommitMode::Staged);
    let log = Arc::new(Mutex::new(log));
    let queue = Arc::new(CommitQueue::new(GroupCommitConfig {
        max_batch: 4,
        max_wait: Duration::ZERO,
    }));
    let sealer = {
        let log = Arc::clone(&log);
        Sealer::spawn(Arc::clone(&queue), move || {
            // Production pattern: the counter round runs outside the
            // audit lock so writers stage the next batch during it.
            let guard = {
                let g = log.lock();
                if !g.is_dirty() {
                    return Ok(());
                }
                g.guard_handle()
            };
            let counter = guard.increment()?;
            let mut g = log.lock();
            g.seal_bound(counter)?;
            g.flush()
        })
    };
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let log = Arc::clone(&log);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut acked = 0u64;
                for i in 0..appends {
                    // Backpressure BEFORE the audit lock: blocking
                    // inside it would stall the sealer itself.
                    queue.wait_for_space();
                    let ticket = {
                        let mut g = log.lock();
                        let t = g.next_time() as i64;
                        if g.append("updates", &update_row(t, w, i)).is_err() {
                            continue;
                        }
                        match queue.stage() {
                            Ok(t) => t,
                            Err(_) => continue,
                        }
                    };
                    if queue.await_durable(ticket).is_ok() {
                        acked += 1;
                    }
                }
                acked
            })
        })
        .collect();
    let acked = handles.into_iter().map(|h| h.join().unwrap()).sum();
    queue.shutdown();
    sealer.join();
    acked
}

/// Fault-free pipeline: every append is acknowledged, and a reopen
/// sees a quiet recovery with all entries present.
#[test]
fn pipeline_stress_acks_everything_and_reopens_clean() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-gc-pipeline", "log");
    let cl = cluster();
    let acked = pipeline_trial(&path, &cl, 4, 10);
    assert_eq!(acked, 40, "fault-free pipeline must ack every append");

    let log = open_log(&path, Box::new(RoteGuard(Arc::clone(&cl)))).unwrap();
    assert_eq!(log.entries(), 40);
    log.verify().unwrap();
    let r = log.recovery_report();
    assert!(
        r.attested_counter <= r.durable_counter + 1,
        "counter outside the legal crash window: {r:?}"
    );
}

/// Crash and transient-error trials at each pipeline failpoint site.
/// The contract after reopen: no durably-acknowledged entry is lost,
/// nothing beyond the workload appears, the chain verifies, invariant
/// queries run, and the counter stays within "attested ≤ durable + 1".
#[test]
fn commit_failpoints_recover_without_rollback_alarm() {
    let s = failpoint::scenario();
    let sites = [
        "core::commit::enqueue",
        "core::commit::seal",
        "core::commit::ack",
    ];
    type MakeSpec = fn() -> FaultSpec;
    let specs: [(&str, MakeSpec); 2] = [
        ("crash", FaultSpec::crash),
        ("error", || FaultSpec::error().times(1)),
    ];
    for site in sites {
        for (flavor, spec) in specs {
            s.reset();
            let path = TempPath::new("libseal-gc-fault", "log");
            let cl = cluster(); // outlives the "crash": attested counter survives
            s.set(site, spec());
            let acked = pipeline_trial(&path, &cl, 2, 3);
            s.reset(); // restart
            let log = open_log(&path, Box::new(RoteGuard(Arc::clone(&cl))))
                .unwrap_or_else(|e| panic!("{site}/{flavor}: reopen failed: {e}"));
            let entries = log.entries();
            assert!(
                entries >= acked,
                "{site}/{flavor}: acknowledged entry lost ({entries} < {acked})"
            );
            assert!(
                entries <= 6,
                "{site}/{flavor}: phantom entries ({entries} > 6)"
            );
            log.verify()
                .unwrap_or_else(|e| panic!("{site}/{flavor}: verify failed: {e}"));
            assert!(
                log.query(GIT_SOUNDNESS, &[]).is_ok(),
                "{site}/{flavor}: invariant query failed"
            );
            let r = log.recovery_report();
            assert!(
                r.attested_counter <= r.durable_counter + 1,
                "{site}/{flavor}: rollback alarm: {r:?}"
            );
        }
    }
}
