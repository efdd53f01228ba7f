//! Request spans recorded from the benchmark's own wrappers, kept in
//! memory until the run ends, then reduced to per-layer self times.
//!
//! Spans of one request share the id the client sends in the
//! [`TRACE_HEADER`] request header; the server child's `Router` and
//! `ServiceModule` wrappers read it, so client-side and server-side
//! spans join on it. Timestamps come from the system-wide monotonic
//! clock ([`crate::sys::mono_ns`]), which both processes share.

use std::collections::BTreeMap;

/// Request header carrying the trace id (traced runs only).
pub const TRACE_HEADER: &str = "X-Perfbench-Trace";

/// Root span: one client request, from the start of the attempt
/// (including any connect) to the parsed response.
pub const ROOT: &str = "client.request";

/// One timed interval of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Request id shared by every span of the request.
    pub trace: u64,
    /// Layer boundary the span times.
    pub name: String,
    /// Name of the enclosing span; `None` for the root.
    pub parent: Option<String>,
    /// Monotonic start, nanoseconds.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds.
    pub end_ns: u64,
}

impl SpanRec {
    /// A child of the request's root span.
    pub fn child(trace: u64, name: &str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            trace,
            name: name.to_string(),
            parent: Some(ROOT.to_string()),
            start_ns,
            end_ns,
        }
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One-line wire form (`trace name parent start end`; `-` for no
    /// parent), used to ship server-side spans to the load generator.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {}",
            self.trace,
            self.name,
            self.parent.as_deref().unwrap_or("-"),
            self.start_ns,
            self.end_ns
        )
    }

    /// Parses [`SpanRec::to_line`] output.
    pub fn from_line(line: &str) -> Option<SpanRec> {
        let mut it = line.split_whitespace();
        let trace = it.next()?.parse().ok()?;
        let name = it.next()?.to_string();
        let parent = match it.next()? {
            "-" => None,
            p => Some(p.to_string()),
        };
        let start_ns = it.next()?.parse().ok()?;
        let end_ns = it.next()?.parse().ok()?;
        Some(SpanRec {
            trace,
            name,
            parent,
            start_ns,
            end_ns,
        })
    }
}

/// Extracts the trace id from raw request bytes (what the audit
/// module sees), without a full HTTP parse.
pub fn id_in_raw_request(req: &[u8]) -> Option<u64> {
    let needle = format!("\r\n{TRACE_HEADER}: ");
    let head_end = find(req, b"\r\n\r\n").unwrap_or(req.len());
    let at = find(&req[..head_end], needle.as_bytes())? + needle.len();
    let rest = &req[at..head_end];
    let end = find(rest, b"\r\n").unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).ok()?.trim().parse().ok()
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-layer reduction of a traced run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Mean self time per span name, microseconds: the span's
    /// duration minus the part of it its child spans cover.
    pub self_us: BTreeMap<String, f64>,
    /// Mean duration per span name, microseconds.
    pub mean_us: BTreeMap<String, f64>,
    /// Spans per name.
    pub count: BTreeMap<String, usize>,
    /// Median over requests of the root time covered by child spans.
    pub median_covered_us: f64,
    /// Median root (client) latency.
    pub median_root_us: f64,
}

/// Groups spans by request and computes self times and coverage.
pub fn summarize(spans: &[SpanRec]) -> Summary {
    let mut by_trace: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut self_sum: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut dur_sum: BTreeMap<String, f64> = BTreeMap::new();
    let mut root_covered = Vec::new();
    let mut root_dur = Vec::new();
    for group in by_trace.values() {
        for s in group {
            let mut kids: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent.as_deref() == Some(s.name.as_str()))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let cov = covered(s.start_ns, s.end_ns, &mut kids);
            let e = self_sum.entry(s.name.clone()).or_default();
            e.0 += (s.dur() - cov) as f64 / 1e3;
            e.1 += 1;
            *dur_sum.entry(s.name.clone()).or_default() += s.dur() as f64 / 1e3;
            if s.parent.is_none() {
                root_covered.push(cov as f64 / 1e3);
                root_dur.push(s.dur() as f64 / 1e3);
            }
        }
    }
    let mut out = Summary::default();
    for (name, (sum, n)) in self_sum {
        out.self_us.insert(name.clone(), sum / n as f64);
        out.mean_us.insert(name.clone(), dur_sum[&name] / n as f64);
        out.count.insert(name, n);
    }
    out.median_covered_us = crate::stats::quantile(&mut root_covered, 0.5);
    out.median_root_us = crate::stats::quantile(&mut root_dur, 0.5);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(trace: u64, s: u64, e: u64) -> SpanRec {
        SpanRec {
            trace,
            name: ROOT.into(),
            parent: None,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            root(1, 0, 100),
            SpanRec::child(1, "a", 10, 40),
            SpanRec::child(1, "b", 30, 50),
            SpanRec::child(1, "c", 90, 120),
        ];
        let s = summarize(&spans);
        // Children cover [10,50) and [90,100): 50 ns of 100.
        assert!((s.self_us[ROOT] - 0.050).abs() < 1e-9);
        assert!((s.median_covered_us - 0.050).abs() < 1e-9);
        assert!((s.self_us["a"] - 0.030).abs() < 1e-9);
    }

    #[test]
    fn wire_form_round_trips() {
        let a = SpanRec::child(7, "core.log_pair", 5, 9);
        assert_eq!(SpanRec::from_line(&a.to_line()), Some(a));
        let r = root(3, 1, 2);
        assert_eq!(SpanRec::from_line(&r.to_line()), Some(r));
    }

    #[test]
    fn finds_id_in_raw_request() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\nX-Perfbench-Trace: 42\r\n\r\nbody";
        assert_eq!(id_in_raw_request(raw), Some(42));
        assert_eq!(id_in_raw_request(b"GET / HTTP/1.1\r\n\r\n"), None);
    }
}
