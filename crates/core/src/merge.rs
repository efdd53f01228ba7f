//! Multi-instance log merging (the §3.2 extension).
//!
//! When a service scales out behind a load balancer, one client's
//! requests may be served by different LibSEAL instances, each logging
//! a subset of the interactions. The paper sketches the fix: "each
//! LibSEAL instance manages a local log and periodically combines logs
//! from other instances for invariant checking". This module implements
//! that combination:
//!
//! 1. each instance [`export`](export_log)s its audit tables together
//!    with an Ed25519 signature over the serialized content, so the
//!    collector can prove the partial logs are genuine;
//! 2. [`merge_for_checking`] verifies every export, interleaves the
//!    entries by `(time, instance)` into a single consistent timeline
//!    (preserving each instance's internal order), and materialises a
//!    database against which the SSM's invariants run unchanged.
//!
//! Ordering assumption: logical clocks are per-instance, so the merge
//! can only interleave, not recover the true global order of events
//! whose local timestamps tie. A deployment keeps instance clocks
//! loosely synchronized — e.g. by deriving the logical time from the
//! shared ROTE counter the instances already contact on every append —
//! so that causally-later events carry larger timestamps.

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_sealdb::{Database, Value};

use crate::log::AuditLog;
use crate::ssm::ServiceModule;
use crate::{LibSealError, Result};

/// One instance's exported audit tables.
pub struct LogExport {
    /// Instance identifier (position in the fleet).
    pub instance: u32,
    /// `(table name, rows)` pairs.
    pub tables: Vec<(String, Vec<Vec<Value>>)>,
    /// Signature over the canonical serialization.
    pub signature: [u8; 64],
}

fn canonical_bytes(instance: u32, tables: &[(String, Vec<Vec<Value>>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"libseal-export-v1:");
    out.extend_from_slice(&instance.to_le_bytes());
    for (name, rows) in tables {
        out.extend_from_slice(name.as_bytes());
        out.push(0x1e);
        for row in rows {
            for v in row {
                out.extend_from_slice(v.group_key().as_bytes());
                out.push(0x1f);
            }
            out.push(0x1e);
        }
    }
    out
}

/// Exports the audited tables of `log`, signed by the instance.
///
/// # Errors
///
/// Query failures.
pub fn export_log(
    log: &AuditLog,
    ssm: &dyn ServiceModule,
    instance: u32,
    signer: &SigningKey,
) -> Result<LogExport> {
    let mut tables = Vec::new();
    for spec in ssm.tables() {
        let r = log.query(&format!("SELECT * FROM {}", spec.name), &[])?;
        tables.push((spec.name.to_string(), r.rows));
    }
    let signature = signer.sign(&canonical_bytes(instance, &tables));
    Ok(LogExport {
        instance,
        tables,
        signature,
    })
}

/// Verifies and merges partial logs into one database for checking.
///
/// `keys[i]` must verify `exports[i]`. Entries are interleaved by
/// `(time, instance)` and re-timestamped densely so the SSM's
/// invariants see a single consistent history.
///
/// # Errors
///
/// [`LibSealError::Tampered`] when an export fails verification;
/// database errors otherwise.
pub fn merge_for_checking(
    ssm: &dyn ServiceModule,
    exports: &[LogExport],
    keys: &[VerifyingKey],
) -> Result<Database> {
    if exports.len() != keys.len() {
        return Err(LibSealError::Log(
            "one verification key per export required".into(),
        ));
    }
    for (export, key) in exports.iter().zip(keys) {
        let bytes = canonical_bytes(export.instance, &export.tables);
        key.verify(&bytes, &export.signature).map_err(|_| {
            LibSealError::Tampered(format!(
                "export from instance {} failed verification",
                export.instance
            ))
        })?;
    }

    let mut db = Database::new();
    for stmt in ssm
        .schema_sql()
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        db.execute(stmt).map_err(LibSealError::Db)?;
    }

    // Collect (orig_time, instance, table, row) across exports; the
    // first column of every audited table is the logical time.
    let mut entries: Vec<(i64, u32, String, Vec<Value>)> = Vec::new();
    for export in exports {
        for (table, rows) in &export.tables {
            for row in rows {
                let t = match row.first() {
                    Some(Value::Integer(t)) => *t,
                    _ => 0,
                };
                entries.push((t, export.instance, table.clone(), row.clone()));
            }
        }
    }
    entries.sort_by_key(|a| (a.0, a.1));

    // Re-timestamp densely: equal (time, instance) pairs keep a shared
    // timestamp (e.g. one advertisement's rows must stay grouped).
    let mut new_time = 0i64;
    let mut last_key: Option<(i64, u32)> = None;
    for (t, inst, table, mut row) in entries {
        if last_key != Some((t, inst)) {
            new_time += 1;
            last_key = Some((t, inst));
        }
        row[0] = Value::Integer(new_time);
        let placeholders = vec!["?"; row.len()].join(", ");
        db.execute_with(
            &format!("INSERT INTO {table} VALUES ({placeholders})"),
            &row,
        )
        .map_err(LibSealError::Db)?;
    }
    Ok(db)
}

/// Runs every invariant of `ssm` against a merged database.
///
/// # Errors
///
/// Query failures.
pub fn check_merged(ssm: &dyn ServiceModule, db: &Database) -> Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for inv in ssm.invariants() {
        let r = db.query(inv.sql, &[]).map_err(LibSealError::Db)?;
        out.push((inv.name.to_string(), r.rows.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogBacking, NoGuard};
    use crate::ssm::{DropboxModule, GitModule, OwnCloudModule};
    use libseal_httpx::http::{Request, Response};

    /// A raw (request, response) pair as LibSEAL observes it.
    type Pair = (Vec<u8>, Vec<u8>);

    fn pair(method: &str, path: &str, req_body: &str, rsp_body: &str) -> Pair {
        let req = Request::new(method, path, req_body.as_bytes().to_vec());
        let rsp = Response::new(200, rsp_body.as_bytes().to_vec());
        (req.to_bytes(), rsp.to_bytes())
    }

    fn instance_log(ssm: &dyn ServiceModule, pairs: &[Pair]) -> AuditLog {
        let mut log = AuditLog::open(
            LogBacking::Memory,
            [0u8; 32],
            SigningKey::from_seed(&[1u8; 32]),
            Box::new(NoGuard),
            ssm.schema_sql(),
            ssm.tables(),
        )
        .unwrap();
        for (req, rsp) in pairs {
            ssm.log_pair(req, rsp, &mut log).unwrap();
        }
        log
    }

    fn push(log: &mut AuditLog, body: &str) {
        let (req, rsp) = pair("POST", "/repo/p/git-receive-pack", body, "ok\n");
        GitModule.log_pair(&req, &rsp, log).unwrap();
    }

    /// Violations per invariant over the merge of `logs`, instance `i`
    /// exporting `logs[i]`.
    fn check_instances(ssm: &dyn ServiceModule, logs: &[&AuditLog]) -> Vec<(String, usize)> {
        let mut exports = Vec::new();
        let mut keys = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let key = SigningKey::from_seed(&[2 + i as u8; 32]);
            exports.push(export_log(log, ssm, i as u32, &key).unwrap());
            keys.push(key.verifying_key());
        }
        let merged = merge_for_checking(ssm, &exports, &keys).unwrap();
        check_merged(ssm, &merged).unwrap()
    }

    /// One §3.2 split history per SSM. Instance A serves an update;
    /// instance B, whose clock has advanced past A's (see the module
    /// docs on clock synchronization), then serves a read of the
    /// same object. The stale read violates `invariant` only against
    /// A's update; the fresh read reflects it.
    struct SplitHistory {
        ssm: &'static dyn ServiceModule,
        invariant: &'static str,
        a: Vec<Pair>,
        b: Vec<Pair>,
        stale_read: Pair,
        fresh_read: Pair,
    }

    fn split_histories() -> Vec<SplitHistory> {
        let git = |path: &str, body: &str| pair("POST", path, body, "ok\n");
        let git_fetch = |advert: &str| {
            pair(
                "GET",
                "/repo/p/info/refs?service=git-upload-pack",
                "",
                advert,
            )
        };
        let oc = |path: &str, req: &str, rsp: &str| pair("POST", path, req, rsp);
        let oc_join = |snapshot: &str| {
            oc(
                "/owncloud/join",
                r#"{"doc":"d","client":"bob"}"#,
                &format!(r#"{{"snapshot":"{snapshot}","seq":0}}"#),
            )
        };
        let commit = |account: &str, file: &str, blocks: &str| {
            pair(
                "POST",
                "/dropbox/commit_batch",
                &format!(
                    r#"{{"account":"{account}","host":"h","commits":[{{"file":"{file}","blocks":["{blocks}"],"size":1}}]}}"#
                ),
                "{}",
            )
        };
        let list = |blocks: &str| {
            pair(
                "POST",
                "/dropbox/list",
                r#"{"account":"acc","host":"h"}"#,
                &format!(r#"{{"files":[{{"file":"f","blocks":["{blocks}"],"size":1}}]}}"#),
            )
        };
        vec![
            // Git rollback: A pushes c1 then c2; B advertises c1.
            SplitHistory {
                ssm: &GitModule,
                invariant: "git-soundness",
                a: vec![
                    git("/repo/p/git-receive-pack", "0 c1 refs/heads/main\n"),
                    git("/repo/p/git-receive-pack", "c1 c2 refs/heads/main\n"),
                ],
                b: vec![
                    git("/repo/q/git-receive-pack", "0 z1 refs/heads/other\n"),
                    git("/repo/q/git-receive-pack", "z1 z2 refs/heads/other\n"),
                ],
                stale_read: git_fetch("c1 refs/heads/main\n"),
                fresh_read: git_fetch("c2 refs/heads/main\n"),
            },
            // ownCloud stale snapshot: alice saves v1 on A; bob joins
            // on B and is sent v0.
            SplitHistory {
                ssm: &OwnCloudModule,
                invariant: "owncloud-snapshot-soundness",
                a: vec![
                    oc(
                        "/owncloud/join",
                        r#"{"doc":"d","client":"alice"}"#,
                        r#"{"snapshot":"v0","seq":0}"#,
                    ),
                    oc(
                        "/owncloud/leave",
                        r#"{"doc":"d","client":"alice","snapshot":"v1","seq":0}"#,
                        r#"{"ok":true}"#,
                    ),
                ],
                b: vec![
                    oc(
                        "/owncloud/join",
                        r#"{"doc":"e","client":"carol"}"#,
                        r#"{"snapshot":"w0","seq":0}"#,
                    ),
                    oc(
                        "/owncloud/leave",
                        r#"{"doc":"e","client":"carol","snapshot":"w1","seq":0}"#,
                        r#"{"ok":true}"#,
                    ),
                ],
                stale_read: oc_join("v0"),
                fresh_read: oc_join("v1"),
            },
            // Dropbox stale blocklist: B stores f as b1, A then
            // stores b2, and B lists f with b1.
            SplitHistory {
                ssm: &DropboxModule,
                invariant: "dropbox-blocklist-soundness",
                a: vec![commit("other", "z", "q1"), commit("acc", "f", "b2")],
                b: vec![commit("acc", "f", "b1"), commit("other", "y", "q2")],
                stale_read: list("b1"),
                fresh_read: list("b2"),
            },
        ]
    }

    #[test]
    fn cross_instance_violation_detected() {
        for h in split_histories() {
            let name = h.ssm.name();
            let log_a = instance_log(h.ssm, &h.a);
            let mut b = h.b;
            b.push(h.stale_read);
            let log_b = instance_log(h.ssm, &b);
            // Neither partial log alone shows the violation.
            for log in [&log_a, &log_b] {
                let alone = check_instances(h.ssm, &[log]);
                assert!(alone.iter().all(|(_, v)| *v == 0), "{name}: {alone:?}");
            }
            let results = check_instances(h.ssm, &[&log_a, &log_b]);
            let hit = results.iter().find(|(n, _)| n == h.invariant).unwrap();
            assert_eq!(hit.1, 1, "{name}: {results:?}");
            assert!(
                results.iter().all(|(n, v)| n == h.invariant || *v == 0),
                "{name}: {results:?}"
            );
        }
    }

    #[test]
    fn honest_cross_instance_history_is_clean() {
        for h in split_histories() {
            let name = h.ssm.name();
            let log_a = instance_log(h.ssm, &h.a);
            let mut b = h.b;
            b.push(h.fresh_read);
            let log_b = instance_log(h.ssm, &b);
            let results = check_instances(h.ssm, &[&log_a, &log_b]);
            assert!(results.iter().all(|(_, v)| *v == 0), "{name}: {results:?}");
        }
    }

    #[test]
    fn forged_export_rejected() {
        let ssm = GitModule;
        let mut log = instance_log(&GitModule, &[]);
        push(&mut log, "0 c1 refs/heads/main\n");
        let key = SigningKey::from_seed(&[2u8; 32]);
        let rogue = SigningKey::from_seed(&[9u8; 32]);
        let export = export_log(&log, &ssm, 0, &rogue).unwrap();
        let err = merge_for_checking(&ssm, &[export], &[key.verifying_key()]);
        assert!(matches!(err, Err(LibSealError::Tampered(_))));
    }

    #[test]
    fn tampered_export_rows_rejected() {
        let ssm = GitModule;
        let mut log = instance_log(&GitModule, &[]);
        push(&mut log, "0 c1 refs/heads/main\n");
        let key = SigningKey::from_seed(&[2u8; 32]);
        let mut export = export_log(&log, &ssm, 0, &key).unwrap();
        // Provider edits a row after exporting.
        export.tables[0].1[0][3] = Value::Text("FORGED".into());
        let err = merge_for_checking(&ssm, &[export], &[key.verifying_key()]);
        assert!(matches!(err, Err(LibSealError::Tampered(_))));
    }

    #[test]
    fn interleave_preserves_per_instance_order() {
        let ssm = GitModule;
        // Instance A logs two pushes (times 1, 2); instance B one push
        // (time 1). Merged timeline must keep A's order.
        let mut log_a = instance_log(&GitModule, &[]);
        push(&mut log_a, "0 a1 refs/heads/x\n");
        push(&mut log_a, "a1 a2 refs/heads/x\n");
        let mut log_b = instance_log(&GitModule, &[]);
        push(&mut log_b, "0 b1 refs/heads/y\n");
        let key = SigningKey::from_seed(&[2u8; 32]);
        let ex_a = export_log(&log_a, &ssm, 0, &key).unwrap();
        let ex_b = export_log(&log_b, &ssm, 1, &key).unwrap();
        let merged = merge_for_checking(
            &ssm,
            &[ex_a, ex_b],
            &[key.verifying_key(), key.verifying_key()],
        )
        .unwrap();
        let rows = merged
            .query("SELECT time, cid FROM updates ORDER BY time", &[])
            .unwrap();
        let cids: Vec<String> = rows.rows.iter().map(|r| r[1].to_string()).collect();
        let pos = |c: &str| cids.iter().position(|x| x == c).unwrap();
        assert!(pos("a1") < pos("a2"), "{cids:?}");
    }
}
