//! The three workloads: what each client connection sends, and how
//! every response is checked.
//!
//! Inputs derive from the run's seed only; the server child receives
//! nothing but the generated requests (and the seed, to mint the same
//! certificate the clients trust).

use std::collections::BTreeMap;
use std::net::SocketAddr;

use libseal_crypto::sha2::Sha256;
use libseal_httpx::http::{Request, Response};
use libseal_services::client::PersistentConnection;
use libseal_services::git::{GitOp, HistoryGenerator};
use libseal_services::{HttpsClient, ServiceError};
use libseal_tlsx::cert::CertificateAuthority;

use crate::sys::mono_ns;
use crate::trace::{SpanRec, TRACE_HEADER};

/// Certificate subject the server presents and clients pin.
pub const SUBJECT: &str = "perfbench.local";

/// Branches per generated Git repository.
const GIT_BRANCHES: usize = 4;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Apache + Git behind LibSEAL with the Git module, keep-alive.
    GitAudit,
    /// `GET /content/0` on a fresh STLS connection per request.
    TlsHandshake,
    /// `GET /content/65536` on keep-alive connections.
    BulkKeepalive,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "git_audit" => Some(Workload::GitAudit),
            "tls_handshake" => Some(Workload::TlsHandshake),
            "bulk_keepalive" => Some(Workload::BulkKeepalive),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GitAudit => "git_audit",
            Workload::TlsHandshake => "tls_handshake",
            Workload::BulkKeepalive => "bulk_keepalive",
        }
    }

    /// Open-loop arrival rate, requests per second: about half the
    /// closed-loop rate of a 2-core host, so the open loop measures
    /// latency below saturation.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::GitAudit => 150.0,
            Workload::TlsHandshake => 250.0,
            Workload::BulkKeepalive => 300.0,
        }
    }

    /// Whether the server audits traffic with an SSM.
    pub fn audited(self) -> bool {
        self == Workload::GitAudit
    }

    fn keep_alive(self) -> bool {
        self != Workload::TlsHandshake
    }

    fn content_len(self) -> usize {
        match self {
            Workload::BulkKeepalive => 65536,
            _ => 0,
        }
    }
}

/// 32 seed bytes for `purpose`, derived from the run seed.
pub fn seed_bytes(seed: u64, purpose: &str) -> [u8; 32] {
    Sha256::digest(format!("perfbench:{purpose}:{seed}").as_bytes())
}

/// The CA both processes derive from the seed.
pub fn certificate_authority(seed: u64) -> CertificateAuthority {
    CertificateAuthority::new("PerfbenchCA", &seed_bytes(seed, "ca"))
}

/// Verdict on one request.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// A correct response.
    Correct,
    /// Transport failure or refusal (503): no response to check.
    Failed,
    /// A response that does not match the client-side model.
    Incorrect(String),
}

/// Client-side model of one Git repository's branch heads.
struct GitModel {
    repo: String,
    gen: HistoryGenerator,
    heads: BTreeMap<String, String>,
    /// Pushes whose outcome is unknown (transport failed mid-request):
    /// the next fetch may show either the old or the new head.
    unsure: BTreeMap<String, String>,
}

impl GitModel {
    fn expected_advertisement(&self) -> String {
        self.heads
            .iter()
            .map(|(branch, cid)| format!("{cid} {branch}\n"))
            .collect()
    }

    /// Checks a fetch, first settling any unsure pushes from it.
    fn check_fetch(&mut self, body: &str) -> Outcome {
        for (branch, new) in std::mem::take(&mut self.unsure) {
            let shown = body
                .lines()
                .find_map(|l| l.strip_suffix(&format!(" {branch}")).map(str::to_string));
            if shown.as_deref() == Some(new.as_str()) {
                self.heads.insert(branch, new);
            }
        }
        let want = self.expected_advertisement();
        if body == want {
            Outcome::Correct
        } else {
            Outcome::Incorrect(format!(
                "fetch of {}: advertised {body:?}, modelled {want:?}",
                self.repo
            ))
        }
    }
}

enum Work {
    Git(Box<GitModel>),
    Static { len: usize },
}

/// What one exchange sent, for response checking.
enum Sent {
    Push { branch: String, new: String },
    Fetch,
    Content,
}

/// One client connection slot: its HTTPS client, an open keep-alive
/// connection when the workload uses one, and its request model.
pub struct Conn {
    index: usize,
    workload: Workload,
    client: HttpsClient,
    conn: Option<PersistentConnection>,
    work: Work,
    seq: u64,
    /// Monotonic time spent in `HttpsClient::connect`.
    pub connect_ns: u64,
    /// Number of connects.
    pub connects: u64,
    /// Request and response bytes exchanged.
    pub bytes: u64,
    /// Recent exchanges kept for the parse micro-timing.
    pub samples: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Exchanges kept per connection for the parse micro-timing.
const KEEP_SAMPLES: usize = 8;

impl Conn {
    /// Connection slot `index` of a run with `seed`.
    pub fn new(workload: Workload, index: usize, seed: u64, addr: SocketAddr) -> Conn {
        let ca = certificate_authority(seed);
        let client = HttpsClient::new(addr, vec![ca.root_key()], SUBJECT);
        let work = match workload {
            Workload::GitAudit => {
                let repo = repo_name(seed, index);
                let gen_seed = u64::from_le_bytes(
                    seed_bytes(seed, &format!("git{index}"))[..8]
                        .try_into()
                        .expect("8 bytes"),
                );
                Work::Git(Box::new(GitModel {
                    gen: HistoryGenerator::new(&repo, GIT_BRANCHES, gen_seed),
                    repo,
                    heads: BTreeMap::new(),
                    unsure: BTreeMap::new(),
                }))
            }
            w => Work::Static {
                len: w.content_len(),
            },
        };
        Conn {
            index,
            workload,
            client,
            conn: None,
            work,
            seq: 0,
            connect_ns: 0,
            connects: 0,
            bytes: 0,
            samples: Vec::new(),
        }
    }

    /// Sends the next generated request and checks the response.
    /// With `spans`, the request carries a trace id and its root and
    /// connect spans are appended.
    pub fn exchange(&mut self, spans: Option<&mut Vec<SpanRec>>) -> Outcome {
        let (mut req, sent) = self.next_request();
        self.seq += 1;
        let trace = (self.index as u64) << 40 | self.seq;
        if spans.is_some() {
            req.headers.insert(TRACE_HEADER, trace.to_string());
        }
        let start = mono_ns();
        let result = self.send(&req);
        let end = mono_ns();
        if let Some(spans) = spans {
            spans.push(SpanRec {
                trace,
                name: crate::trace::ROOT.to_string(),
                parent: None,
                start_ns: start,
                end_ns: end,
            });
            if let Some((cs, ce)) = result.as_ref().ok().and_then(|(_, c)| *c) {
                spans.push(SpanRec::child(trace, "tlsx.client_connect", cs, ce));
            }
        }
        match result {
            Ok((rsp, _)) => {
                let raw = req.to_bytes();
                self.bytes += (raw.len() + rsp.body.len()) as u64;
                if self.samples.len() < KEEP_SAMPLES {
                    self.samples.push((raw, rsp.to_bytes()));
                }
                self.check(sent, &rsp)
            }
            Err(_) => {
                self.conn = None;
                if let (Sent::Push { branch, new }, Work::Git(m)) = (sent, &mut self.work) {
                    m.unsure.insert(branch, new);
                }
                Outcome::Failed
            }
        }
    }

    /// Sends one request; returns the response and the connect
    /// interval when this request opened the connection.
    #[allow(clippy::type_complexity)]
    fn send(&mut self, req: &Request) -> Result<(Response, Option<(u64, u64)>), ServiceError> {
        let mut connected = None;
        if self.conn.is_none() {
            let cs = mono_ns();
            let conn = self.client.connect()?;
            let ce = mono_ns();
            self.connect_ns += ce - cs;
            self.connects += 1;
            connected = Some((cs, ce));
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let rsp = conn.request(req)?;
        if !self.workload.keep_alive() {
            conn.close();
            self.conn = None;
        }
        Ok((rsp, connected))
    }

    fn next_request(&mut self) -> (Request, Sent) {
        match &mut self.work {
            Work::Git(m) => {
                let op = m.gen.next_op();
                let sent = match &op {
                    GitOp::Push { body, .. } => {
                        let mut parts = body.split_whitespace().skip(1);
                        let new = parts.next().expect("push: new cid").to_string();
                        let branch = parts.next().expect("push: refname").to_string();
                        Sent::Push { branch, new }
                    }
                    GitOp::Fetch { .. } => Sent::Fetch,
                };
                (HistoryGenerator::to_request(&op), sent)
            }
            Work::Static { len } => (
                Request::new("GET", &format!("/content/{len}"), Vec::new()),
                Sent::Content,
            ),
        }
    }

    fn check(&mut self, sent: Sent, rsp: &Response) -> Outcome {
        if rsp.status == 503 {
            return Outcome::Failed;
        }
        if rsp.status != 200 {
            return Outcome::Incorrect(format!("status {}", rsp.status));
        }
        let body = String::from_utf8_lossy(&rsp.body);
        match (sent, &mut self.work) {
            (Sent::Push { branch, new }, Work::Git(m)) => {
                let want = format!("ok {branch}\n");
                m.heads.insert(branch, new);
                if body == want {
                    Outcome::Correct
                } else {
                    Outcome::Incorrect(format!("push: {body:?}, want {want:?}"))
                }
            }
            (Sent::Fetch, Work::Git(m)) => m.check_fetch(&body),
            (Sent::Content, Work::Static { len }) => {
                if rsp.body.len() == *len && rsp.body.iter().all(|&b| b == b'x') {
                    Outcome::Correct
                } else {
                    Outcome::Incorrect(format!(
                        "content: {} bytes, want {len} x-bytes",
                        rsp.body.len()
                    ))
                }
            }
            _ => unreachable!("request kind always matches the connection's workload"),
        }
    }

    /// Git only: the repository this connection pushes to and fetches.
    pub fn repo(&self) -> Option<&str> {
        match &self.work {
            Work::Git(m) => Some(&m.repo),
            Work::Static { .. } => None,
        }
    }

    /// Git only: one fetch outside the measured load (the liveness
    /// probe); returns the advertisement as served.
    pub fn probe_fetch(&mut self) -> Result<String, ServiceError> {
        let repo = self.repo().expect("git connection").to_string();
        let req = HistoryGenerator::to_request(&GitOp::Fetch { repo });
        let (rsp, _) = self.send(&req)?;
        Ok(String::from_utf8_lossy(&rsp.body).into_owned())
    }

    /// Zeroes the byte and sample tallies (start of the measured
    /// window). Connect times are kept: keep-alive connections open
    /// during warm-up, and their connects are the only ones they make.
    pub fn reset_counters(&mut self) {
        self.bytes = 0;
        self.samples.clear();
    }

    /// Closes the connection, if open.
    pub fn close(&mut self) {
        if let Some(mut c) = self.conn.take() {
            c.close();
        }
    }
}

/// The repository connection `index` of a run with `seed` works on.
fn repo_name(seed: u64, index: usize) -> String {
    format!("bench-{seed}-{index}")
}

/// The request the set-up timer waits on: the workload's own request
/// kind, on a repository no load connection uses.
pub fn first_request(workload: Workload) -> (Request, usize) {
    match workload {
        Workload::GitAudit => (
            HistoryGenerator::to_request(&GitOp::Fetch {
                repo: "setup".into(),
            }),
            0,
        ),
        w => (
            Request::new("GET", &format!("/content/{}", w.content_len()), Vec::new()),
            w.content_len(),
        ),
    }
}
