//! The load phases: closed loop (each connection sends its next
//! request only after the reply) and open loop (requests fall due on
//! a fixed schedule; latency counts from the due time).

use std::time::Duration;

use crate::stats::{quantile, ratio};
use crate::sys::{host_cpu_ticks, mono_ns};
use crate::trace::SpanRec;
use crate::workload::{Conn, Outcome};

/// Open-loop runs whose send lag grows by more than this between the
/// first and last quarter of the phase are overloaded: the backlog
/// keeps growing, so their latencies are not reported.
const BACKLOG_GROWTH_LIMIT_MS: f64 = 250.0;

/// Host CPU steal share up to which a window counts as calm: one clock
/// tick of a 2-CPU host's time in a window of 0.28 s or more.
const CALM_STEAL: f64 = 0.02;

/// The server's cumulative CPU time (us) and requests served, read at
/// every window edge.
pub type ServerUsage<'a> = &'a mut dyn FnMut() -> Result<(f64, f64), String>;

/// A stretch of a phase: the share of the host's CPU time that the
/// hypervisor stole in it, and the server's CPU time and requests
/// served in it.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub steal: f64,
    pub server_cpu_us: f64,
    pub server_served: f64,
}

/// What one phase measured, merged over connections.
#[derive(Default)]
pub struct Phase {
    /// Correct responses.
    pub correct: u64,
    /// Transport failures and refusals.
    pub failed: u64,
    /// Responses that did not match the model.
    pub incorrect: Vec<String>,
    /// Consecutive windows of the phase with their host CPU steal.
    pub windows: Vec<Window>,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Per correct response: (completion time in the closed loop, due
    /// time in the open loop; latency in ms). Closed-loop latency is
    /// service time; open-loop latency is completion minus due time.
    pub samples: Vec<(u64, f64)>,
    /// Open loop: how late the generator itself sent requests it was
    /// free to send (scheduler oversleep), ms.
    pub lateness_ms: Vec<f64>,
    /// Open loop: (due time, send lag) per request, for the backlog
    /// test.
    lags: Vec<(u64, f64)>,
    /// Traced runs: the client-side spans.
    pub spans: Vec<SpanRec>,
}

impl Phase {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.correct + self.failed + self.incorrect.len() as u64
    }

    /// Latencies of correct responses, ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, l)| l).collect()
    }

    fn record(&mut self, outcome: Outcome, at_ns: u64, latency_ms: f64) {
        match outcome {
            Outcome::Correct => {
                self.correct += 1;
                self.samples.push((at_ns, latency_ms));
            }
            Outcome::Failed => self.failed += 1,
            Outcome::Incorrect(why) => self.incorrect.push(why),
        }
    }

    /// Adds `other`'s requests, samples and time to this phase.
    pub fn merge(&mut self, other: Phase) {
        self.elapsed_s += other.elapsed_s;
        self.correct += other.correct;
        self.failed += other.failed;
        self.incorrect.extend(other.incorrect);
        self.samples.extend(other.samples);
        self.lateness_ms.extend(other.lateness_ms);
        self.lags.extend(other.lags);
        self.spans.extend(other.spans);
        self.windows.extend(other.windows);
    }

    /// Cuts the samples, in time order, into consecutive chunks of at
    /// least `chunk` samples (one chunk if there are fewer) and returns
    /// the `q`-quantile of latency within each.
    pub fn chunk_quantiles(&self, chunk: usize, q: f64) -> Vec<f64> {
        let mut samples = self.samples.clone();
        samples.sort_unstable_by_key(|&(t, _)| t);
        let k = (samples.len() / chunk).max(1);
        let per = samples.len() / k;
        (0..k)
            .map(|i| {
                let end = if i + 1 == k {
                    samples.len()
                } else {
                    (i + 1) * per
                };
                let mut lat: Vec<f64> = samples[i * per..end].iter().map(|&(_, l)| l).collect();
                quantile(&mut lat, q)
            })
            .collect()
    }

    /// The calm windows: those in which the hypervisor stole at most
    /// `CALM_STEAL` of the host's CPU time, or, when fewer than an
    /// eighth of the windows were that calm, the eighth with the least
    /// steal. Steal on a shared VM comes and goes over seconds and
    /// slows client and server alike (a few percent of it cuts
    /// closed-loop throughput by a sixth), so the wall-clock metrics
    /// and the server's CPU per request are taken over calm windows.
    pub fn quiet_windows(&self) -> Vec<Window> {
        let calm: Vec<Window> = self
            .windows
            .iter()
            .copied()
            .filter(|w| w.steal <= CALM_STEAL)
            .collect();
        let eighth = self.windows.len().div_ceil(8);
        if calm.len() >= eighth {
            return calm;
        }
        let mut by_steal = self.windows.clone();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        by_steal.truncate(eighth);
        by_steal
    }

    /// Correct responses per second completed in each of `windows`
    /// (closed loop: samples are timed by completion).
    pub fn rates_in(&self, windows: &[Window]) -> Vec<f64> {
        windows
            .iter()
            .map(|w| {
                let n = self
                    .samples
                    .iter()
                    .filter(|&&(t, _)| (w.start_ns..w.end_ns).contains(&t))
                    .count();
                n as f64 / ((w.end_ns - w.start_ns) as f64 / 1e9)
            })
            .collect()
    }

    /// Latencies, ms, of the correct responses timed within `windows`
    /// (open loop: samples are timed by due time).
    pub fn latencies_in(&self, windows: &[Window]) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|&&(t, _)| windows.iter().any(|w| (w.start_ns..w.end_ns).contains(&t)))
            .map(|&(_, l)| l)
            .collect()
    }

    /// Server CPU time per request served over `windows`, ms.
    pub fn cpu_ms_per_req(windows: &[Window]) -> f64 {
        ratio(
            windows.iter().map(|w| w.server_cpu_us).sum::<f64>() / 1e3,
            windows.iter().map(|w| w.server_served).sum::<f64>(),
        )
    }

    /// Mean host CPU steal share over `windows`.
    pub fn steal_in(windows: &[Window]) -> f64 {
        ratio(
            windows.iter().map(|w| w.steal).sum::<f64>(),
            windows.len() as f64,
        )
    }

    /// Growth of the mean send lag from the first to the last quarter
    /// of the open-loop schedule, ms.
    pub fn backlog_growth_ms(&self) -> f64 {
        let mut lags = self.lags.clone();
        lags.sort_unstable_by_key(|&(due, _)| due);
        let q = lags.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let mean = |xs: &[(u64, f64)]| xs.iter().map(|&(_, l)| l).sum::<f64>() / xs.len() as f64;
        mean(&lags[lags.len() - q..]) - mean(&lags[..q])
    }

    /// Whether the open-loop backlog stayed bounded.
    pub fn backlog_bounded(&self) -> bool {
        self.backlog_growth_ms() <= BACKLOG_GROWTH_LIMIT_MS
    }
}

/// Sleeps until `at` on the monotonic clock.
fn sleep_until(at: u64) {
    let now = mono_ns();
    if now < at {
        std::thread::sleep(Duration::from_nanos(at - now));
    }
}

/// Cuts `[start, stop)` into `n` equal windows and reads the host's
/// steal counters and the server's usage at each edge, sleeping in
/// between. Runs on the calling thread, beside the client threads of a
/// phase.
fn watch_windows(
    start: u64,
    stop: u64,
    n: usize,
    server: ServerUsage,
) -> Result<Vec<Window>, String> {
    let len = (stop - start) / n as u64;
    sleep_until(start);
    let mut prev = (host_cpu_ticks(), server()?);
    let mut windows = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let (start_ns, end_ns) = (start + i * len, start + (i + 1) * len);
        sleep_until(end_ns);
        let now = (host_cpu_ticks(), server()?);
        let ((all, stolen), (cpu_us, served)) = (
            (now.0 .0 - prev.0 .0, now.0 .1 - prev.0 .1),
            (now.1 .0 - prev.1 .0, now.1 .1 - prev.1 .1),
        );
        windows.push(Window {
            start_ns,
            end_ns,
            steal: ratio(stolen as f64, all as f64),
            server_cpu_us: cpu_us,
            server_served: served,
        });
        prev = now;
    }
    Ok(windows)
}

/// Runs `conns` closed-loop for `dur`, one thread per connection, cut
/// into `windows` watched windows.
pub fn closed_loop(
    conns: &mut [Conn],
    dur: Duration,
    windows: usize,
    server: ServerUsage,
    traced: bool,
) -> Result<Phase, String> {
    let start = mono_ns();
    let stop = start + dur.as_nanos() as u64;
    let mut total = Phase::default();
    let watched = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut p = Phase::default();
                    while mono_ns() < stop {
                        let t0 = mono_ns();
                        let spans = traced.then_some(&mut p.spans);
                        let outcome = c.exchange(spans);
                        let done = mono_ns();
                        p.record(outcome, done, (done - t0) as f64 / 1e6);
                    }
                    p
                })
            })
            .collect();
        let watched = watch_windows(start, stop, windows, server);
        for h in handles {
            total.merge(h.join().expect("closed-loop client thread panicked"));
        }
        watched
    });
    total.windows = watched?;
    total.elapsed_s = (mono_ns() - start) as f64 / 1e9;
    Ok(total)
}

/// Runs `conns` open-loop for `dur` at `rate` requests per second in
/// total. Request `k` falls due at `k / rate` plus a seeded jitter of
/// up to a tenth of the mean gap; connection `i` of `n` takes every
/// request with `k % n == i`. The phase is cut into `windows` watched
/// windows.
pub fn open_loop(
    conns: &mut [Conn],
    rate: f64,
    dur: Duration,
    windows: usize,
    server: ServerUsage,
    seed: u64,
    traced: bool,
) -> Result<Phase, String> {
    let n = conns.len();
    let gap_ns = 1e9 / rate;
    let start = mono_ns() + 1_000_000;
    let stop = start + dur.as_nanos() as u64;
    let mut total = Phase::default();
    let watched = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut free_at = 0u64;
                    for k in (i as u64..).step_by(n) {
                        let jitter = (splitmix64(seed ^ k) % 1000) as f64 / 1e4 * gap_ns;
                        let due = start + (k as f64 * gap_ns + jitter) as u64;
                        if due >= stop {
                            break;
                        }
                        sleep_until(due);
                        let sent = mono_ns();
                        if free_at <= due {
                            p.lateness_ms.push(sent.saturating_sub(due) as f64 / 1e6);
                        }
                        p.lags.push((due, sent.saturating_sub(due) as f64 / 1e6));
                        let spans = traced.then_some(&mut p.spans);
                        let outcome = c.exchange(spans);
                        free_at = mono_ns();
                        p.record(outcome, due, (free_at - due) as f64 / 1e6);
                    }
                    p
                })
            })
            .collect();
        let watched = watch_windows(start, stop, windows, server);
        for h in handles {
            total.merge(h.join().expect("open-loop client thread panicked"));
        }
        watched
    });
    total.windows = watched?;
    total.elapsed_s = (mono_ns() - start) as f64 / 1e9;
    Ok(total)
}

/// SplitMix64: a seeded, stateless mix for per-request jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(steal: &[f64]) -> Phase {
        let windows = steal
            .iter()
            .enumerate()
            .map(|(i, &steal)| Window {
                start_ns: i as u64 * 10,
                end_ns: (i as u64 + 1) * 10,
                steal,
                server_cpu_us: 100.0,
                server_served: 4.0,
            })
            .collect();
        Phase {
            windows,
            ..Phase::default()
        }
    }

    #[test]
    fn quiet_windows_keep_every_calm_window() {
        let p = phase(&[0.0, 0.3, 0.01, 0.2, 0.0, 0.0, 0.5, 0.02, 0.1]);
        let starts: Vec<u64> = p.quiet_windows().iter().map(|w| w.start_ns).collect();
        assert_eq!(starts, [0, 20, 40, 50, 70]);
    }

    #[test]
    fn quiet_windows_fall_back_to_the_least_stolen_eighth() {
        let steal: Vec<f64> = (0..16).map(|i| 0.3 - i as f64 * 0.01).collect();
        let quiet = phase(&steal).quiet_windows();
        let starts: Vec<u64> = quiet.iter().map(|w| w.start_ns).collect();
        assert_eq!(starts, [150, 140]);
        assert_eq!(Phase::cpu_ms_per_req(&quiet), 0.025);
    }

    #[test]
    fn samples_count_in_the_window_they_fall_in() {
        let mut p = phase(&[0.0, 0.0]);
        p.samples = vec![(0, 1.0), (9, 2.0), (10, 3.0), (25, 4.0)];
        assert_eq!(p.rates_in(&p.windows[..1]), [2e8]);
        assert_eq!(p.latencies_in(&p.windows[1..]), [3.0]);
    }
}
