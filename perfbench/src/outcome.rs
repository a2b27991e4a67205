//! What one run reports, and the end-to-end metrics every workload
//! derives the same way from its acked operations.

use std::fmt::Write as _;

use crate::stats;

/// Windows the measured span is cut into for the per-window record.
pub const WINDOWS: usize = 10;

/// One named, unit-carrying number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` declares it.
    pub name: String,
    /// Unit as `BENCHMARK.json` declares it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Attempts that failed (GET/PUT failures, stuck retries, unacked
    /// appends).
    pub failed: u64,
    /// Audit failures; empty when every check passed.
    pub audit: Vec<String>,
    /// What the audit checked, for the record.
    pub audited: Vec<(String, u64)>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample count behind every percentile and rate.
    pub samples: Vec<(String, u64)>,
    /// Acked ops/s over the measured span (traced runs too, so the
    /// runner can price tracing).
    pub ops_per_s: f64,
    /// Share of the host's CPU the hypervisor stole during the span.
    pub steal_frac: f64,
    /// Ops/s of each window of the measured span.
    pub window_rates: Vec<f64>,
    /// `(name, value per window)`: latency percentiles of each window
    /// (0 where a window lacks the samples), for the record.
    pub window_stats: Vec<(String, Vec<f64>)>,
    /// Where a request's µs go, as a markdown table (traced runs).
    pub table: Option<String>,
    /// Chrome trace (traced runs).
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Record one metric.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    /// Record the sample count behind a metric.
    pub fn count(&mut self, name: impl Into<String>, n: usize) {
        self.samples.push((name.into(), n as u64));
    }

    /// The run as one JSON object (the record the runner extends).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"ops_per_s\": {}, \"steal_frac\": {}, ",
            self.audit.is_empty(),
            self.attempted,
            self.failed,
            jnum(self.ops_per_s),
            jnum(self.steal_frac)
        );
        s.push_str("\"audit_failures\": [");
        for (i, a) in self.audit.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, jstr(a));
        }
        s.push_str("], \"audited\": {");
        for (i, (k, v)) in self.audited.iter().enumerate() {
            let _ = write!(s, "{}{}: {v}", if i > 0 { ", " } else { "" }, jstr(k));
        }
        s.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                jstr(&m.name),
                jnum(m.value),
                jstr(m.unit)
            );
        }
        s.push_str("}, \"samples\": {");
        for (i, (k, v)) in self.samples.iter().enumerate() {
            let _ = write!(s, "{}{}: {v}", if i > 0 { ", " } else { "" }, jstr(k));
        }
        s.push_str("}, \"window_ops_per_s\": [");
        for (i, r) in self.window_rates.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, jnum(*r));
        }
        s.push(']');
        for (name, values) in &self.window_stats {
            let _ = write!(s, ", {}: [", jstr(&format!("window_{name}")));
            for (i, v) in values.iter().enumerate() {
                let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, jnum(*v));
            }
            s.push(']');
        }
        if let Some(table) = &self.table {
            let _ = write!(s, ", \"breakdown\": {}", jstr(table));
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values read as 0).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The measured span on the runtime clock, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// First instant measured (warm-up ends here).
    pub start_us: f64,
    /// First instant past the measurement.
    pub end_us: f64,
}

impl Span {
    /// Whether `t` falls inside the span.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_us && t < self.end_us
    }
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// What the end-to-end metrics are computed from.
pub struct Series {
    /// Completion time of every acked op.
    pub done_us: Vec<f64>,
    /// Read latencies as `(when the read was issued, ms)`.
    pub reads: Vec<(f64, f64)>,
    /// Write latencies as `(when the write was issued, ms)`.
    pub writes: Vec<(f64, f64)>,
    /// Process CPU seconds spent inside the span.
    pub cpu_secs: f64,
    /// Peak resident memory (MB) when the span ended, before the audit.
    pub peak_rss_mb: f64,
}

/// Acked ops/s over `span`.
pub fn rate(done_us: &[f64], span: Span) -> f64 {
    done_us.iter().filter(|t| span.contains(**t)).count() as f64 / span.secs()
}

/// The window of `span` that `t` falls in.
fn window_of(t: f64, span: Span) -> usize {
    let width = (span.end_us - span.start_us) / WINDOWS as f64;
    (((t - span.start_us) / width) as usize).min(WINDOWS - 1)
}

/// Ops/s in each of [`WINDOWS`] equal windows of `span`.
pub fn window_rates(done_us: &[f64], span: Span) -> Vec<f64> {
    let width_s = span.secs() / WINDOWS as f64;
    let mut counts = [0u64; WINDOWS];
    for &t in done_us.iter().filter(|t| span.contains(**t)) {
        counts[window_of(t, span)] += 1;
    }
    counts.iter().map(|&c| c as f64 / width_s).collect()
}

/// Percentile `p` of each window's samples (0 where too few).
fn window_percentiles(samples: &[(f64, f64)], span: Span, p: f64) -> Vec<f64> {
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples.iter().filter(|(t, _)| span.contains(*t)) {
        by[window_of(t, span)].push(v);
    }
    by.iter_mut().map(|w| stats::percentile_or_zero(w, p)).collect()
}

/// Fill `out` with the end-to-end metrics (all but `setup_s`, which the
/// runner measures from outside the process).
/// Fails when a percentile lacks the samples to be reported.
pub fn end_to_end(out: &mut Outcome, series: Series, span: Span) -> Result<(), String> {
    let ops = series.done_us.iter().filter(|t| span.contains(**t)).count();
    if ops == 0 {
        return Err("no op was acked inside the measured span".into());
    }
    out.ops_per_s = ops as f64 / span.secs();
    out.put("ops_per_s", "ops/s", out.ops_per_s);
    out.count("ops_per_s", ops);
    for (name, timed) in [("read", &series.reads), ("write", &series.writes)] {
        let mut samples: Vec<f64> =
            timed.iter().filter(|(t, _)| span.contains(*t)).map(|(_, v)| *v).collect();
        let too_few =
            |metric: &str, n: usize| format!("{metric}: {n} samples leave fewer than 10 beyond it");
        let p99 = format!("{name}_p99_ms");
        let tail =
            stats::percentile(&mut samples, 99.0).ok_or_else(|| too_few(&p99, samples.len()))?;
        let p50 = format!("{name}_p50_ms");
        let median =
            stats::percentile(&mut samples, 50.0).ok_or_else(|| too_few(&p50, samples.len()))?;
        out.put(p50.clone(), "ms", median);
        out.count(p50.clone(), samples.len());
        out.put(p99.clone(), "ms", tail);
        out.count(p99.clone(), samples.len());
        for (metric, p) in [(p50, 50.0), (p99, 99.0)] {
            out.window_stats.push((metric, window_percentiles(timed, span, p)));
        }
    }
    out.window_rates = window_rates(&series.done_us, span);
    // Flatness: the span's second half against its first half.
    let mid = (span.start_us + span.end_us) / 2.0;
    let first = series.done_us.iter().filter(|t| **t >= span.start_us && **t < mid).count();
    let last = series.done_us.iter().filter(|t| **t >= mid && **t < span.end_us).count();
    if first == 0 || last == 0 {
        return Err(format!("a half of the measured span acked nothing: {:?}", out.window_rates));
    }
    out.put("tail_ratio", "ratio", last as f64 / first as f64);
    out.count("tail_ratio", ops);
    out.put("cpu_us_per_op", "us", series.cpu_secs * 1e6 / ops as f64);
    out.put("peak_rss_mb", "MB", series.peak_rss_mb);
    Ok(())
}

/// Process CPU time (user + system, every thread) in clock ticks.
pub fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// Host-wide `(busy, stolen)` CPU ticks from `/proc/stat`: stolen time is
/// what the hypervisor gave other guests while this one wanted to run.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map(|v| v.parse().unwrap_or(0)).collect();
    // user nice system idle iowait irq softirq steal
    let busy = f.first()? + f.get(1)? + f.get(2)? + f.get(5)? + f.get(6)?;
    Some((busy, *f.get(7)?))
}

/// What the main thread reads from the process and host over the span.
#[derive(Default)]
pub struct Meter {
    /// Process CPU seconds inside the span.
    pub cpu_secs: f64,
    /// Peak resident memory (MB) when the span ended.
    pub rss_mb: f64,
    /// Share of the host's wanted CPU time stolen by the hypervisor
    /// inside the span.
    pub steal_frac: f64,
}

/// Let the load run through warm-up and the measured span, calling
/// `tick` every `poll` with the runtime clock (µs); returns what was
/// metered at the span's edges.
pub fn drive(
    now_us: impl Fn() -> f64,
    span: Span,
    clk_tck: f64,
    poll: std::time::Duration,
    mut tick: impl FnMut(f64),
) -> Meter {
    let mut start = None;
    loop {
        let now = now_us();
        if start.is_none() && now >= span.start_us {
            start = Some((cpu_ticks(), host_ticks()));
        }
        if now >= span.end_us {
            let mut m = Meter { rss_mb: crate::layers::peak_rss_mb(), ..Meter::default() };
            if let Some((cpu0, host0)) = start {
                if let (Some(a), Some(b)) = (cpu0, cpu_ticks()) {
                    m.cpu_secs = (b - a) as f64 / clk_tck;
                }
                if let (Some((b0, s0)), Some((b1, s1))) = (host0, host_ticks()) {
                    m.steal_frac = stats::ratio((s1 - s0) as f64, (b1 - b0 + s1 - s0) as f64);
                }
            }
            return m;
        }
        tick(now);
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_the_span_evenly() {
        let span = Span { start_us: 0.0, end_us: 5e6 };
        let done: Vec<f64> = (0..50).map(|i| i as f64 * 1e5).collect();
        assert_eq!(window_rates(&done, span), vec![10.0; WINDOWS]);
    }

    #[test]
    fn end_to_end_refuses_a_thin_tail() {
        let span = Span { start_us: 0.0, end_us: 1e6 };
        let series = Series {
            done_us: (0..100).map(|i| i as f64 * 1e4).collect(),
            reads: (0..2000).map(|i| (i as f64 * 400.0, 1.0)).collect(),
            writes: (0..50).map(|i| (i as f64 * 1e4, 1.0)).collect(),
            cpu_secs: 1.0,
            peak_rss_mb: 1.0,
        };
        let err = end_to_end(&mut Outcome::default(), series, span).unwrap_err();
        assert!(err.starts_with("write_p99_ms"), "{err}");
    }

    #[test]
    fn cpu_ticks_read_this_process_and_host() {
        assert!(cpu_ticks().is_some());
        assert!(host_ticks().is_some());
    }
}
