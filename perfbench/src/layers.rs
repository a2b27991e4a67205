//! Per-layer figures of a traced run: callback statistics, request
//! spans keyed by request id, the Chrome trace and the per-layer table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::outcome::{jnum, jstr, Outcome, Span};
use crate::stats;
use crate::tap::Callback;

/// Callbacks whose delivery was picked up inside `span`.
pub fn in_span(callbacks: &[Callback], span: Span) -> impl Iterator<Item = &Callback> {
    callbacks.iter().filter(move |c| span.contains(c.at_us))
}

/// Engine-lock wait and callback utilisation over every callback.
pub fn runtime_figures(out: &mut Outcome, callbacks: &[Callback], span: Span) {
    let mut waits: Vec<f64> = in_span(callbacks, span).map(|c| c.wait_us).collect();
    let busy: f64 = in_span(callbacks, span).map(|c| c.dur_us).sum();
    out.count("runtime.lock_wait_us", waits.len());
    out.put("runtime.lock_wait_us.p50", "us", stats::percentile_or_zero(&mut waits, 50.0));
    out.put("runtime.lock_wait_us.p99", "us", stats::percentile_or_zero(&mut waits, 99.0));
    out.put("runtime.callback_util", "ratio", busy / (span.end_us - span.start_us));
}

/// p50 callback time of each `(metric kind, message kind)` on `nodes`.
pub fn callback_p50s(
    out: &mut Outcome,
    prefix: &str,
    callbacks: &[Callback],
    span: Span,
    nodes: &[u16],
    kinds: &[(&str, u8)],
) {
    for &(name, kind) in kinds {
        let mut v: Vec<f64> = in_span(callbacks, span)
            .filter(|c| c.kind == kind && nodes.contains(&c.node))
            .map(|c| c.dur_us)
            .collect();
        let metric = format!("{prefix}.cb_us.{name}.p50");
        out.count(metric.clone(), v.len());
        out.put(metric, "us", stats::percentile_or_zero(&mut v, 50.0));
    }
}

/// What the engine core holds once the load has stopped.
pub struct EngineCounts {
    spans: usize,
    ledger_records: usize,
    hist_samples: usize,
    msgs_sent: u64,
}

/// Read [`EngineCounts`] off a locked core.
pub fn engine_counts(core: &sim::EngineCore) -> EngineCounts {
    EngineCounts {
        spans: core.spans.len(),
        ledger_records: core.ledger.len(),
        hist_samples: core.metrics.histograms().map(|(_, h)| h.count()).sum(),
        msgs_sent: core.metrics.counter("sim.messages_sent"),
    }
}

/// `engine.*`: retained spans and messages per acked op, and the
/// ledger and histogram sizes.
pub fn engine_figures(out: &mut Outcome, e: &EngineCounts, acked_total: u64) {
    let ops = acked_total.max(1) as f64;
    out.put("engine.spans_per_op", "count", e.spans as f64 / ops);
    out.put("engine.ledger_records", "count", e.ledger_records as f64);
    out.put("engine.hist_samples", "count", e.hist_samples as f64);
    out.put("engine.msgs_per_op", "count", e.msgs_sent as f64 / ops);
}

/// `proc.rss_mb_per_kop` and `failed_ratio`, which every traced run reports.
pub fn process_figures(out: &mut Outcome, rss_mb: f64, acked_total: u64) {
    out.put("proc.rss_mb_per_kop", "MB/kop", rss_mb / (acked_total.max(1) as f64 / 1e3));
    out.put("failed_ratio", "ratio", stats::ratio(out.failed as f64, out.attempted as f64));
}

/// Time one call of `f`, amortised over enough repetitions that the
/// host clock's resolution does not dominate.
pub fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    const REPS: u32 = 16;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / REPS as f64
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One request's span and the child spans at each layer boundary.
#[derive(Clone, Debug)]
pub struct ReqSpan {
    /// Request kind (`get`, `put`, `append`).
    pub name: &'static str,
    /// The request's id.
    pub key: u64,
    /// When the request was sent.
    pub start_us: f64,
    /// When its answer reached the client.
    pub end_us: f64,
    /// `(layer segment, start, end)` children, in time order.
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl ReqSpan {
    /// The request's self time: its span minus what its children cover.
    pub fn self_us(&self) -> f64 {
        let covered: f64 = self.parts.iter().map(|(_, s, e)| (e - s).max(0.0)).sum();
        (self.end_us - self.start_us - covered).max(0.0)
    }
}

/// The "where a request's µs go" table: mean and p50 of each segment.
pub fn breakdown(reqs: &[ReqSpan]) -> String {
    let mut by: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut order: Vec<(&str, &str)> = Vec::new();
    for r in reqs {
        let mut push = |seg: &'static str, v: f64| {
            let k = (r.name, seg);
            if !by.contains_key(&k) {
                order.push(k);
            }
            by.entry(k).or_default().push(v);
        };
        for (seg, s, e) in &r.parts {
            push(seg, (e - s).max(0.0));
        }
        push("(self)", r.self_us());
        push("= total", r.end_us - r.start_us);
    }
    let mut t = String::from(
        "| request | segment | mean µs | p50 µs | share of total | samples |\n|---|---|---|---|---|---|\n",
    );
    for k in order {
        let total =
            by.get(&(k.0, "= total")).map_or(0.0, |t| t.iter().sum::<f64>() / t.len() as f64);
        let v = by.get_mut(&k).expect("segment was recorded");
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let p50 = stats::percentile(v, 50.0).map_or("n/a".to_string(), |p| format!("{p:.1}"));
        let _ = writeln!(
            t,
            "| {} | {} | {mean:.1} | {p50} | {:.1}% | {} |",
            k.0,
            k.1,
            stats::ratio(mean, total) * 100.0,
            v.len()
        );
    }
    t
}

/// Most callbacks and requests a Chrome trace holds: the first second
/// of the measured span, capped.
const TRACE_SECS: f64 = 1.0;
const TRACE_CAP: usize = 60_000;

/// The run as a Chrome trace (`chrome://tracing`, Perfetto): one row
/// per node with its callbacks, one row per request kind with request
/// spans and their layer children.
pub fn chrome_trace(
    callbacks: &[Callback],
    kinds: &[&str],
    node_name: impl Fn(u16) -> String,
    reqs: &[ReqSpan],
    span: Span,
) -> String {
    let window = Span { start_us: span.start_us, end_us: span.start_us + TRACE_SECS * 1e6 };
    let mut ev: Vec<String> = Vec::new();
    let mut nodes: Vec<u16> = Vec::new();
    for c in in_span(callbacks, window).take(TRACE_CAP) {
        if !nodes.contains(&c.node) {
            nodes.push(c.node);
        }
        ev.push(format!(
            "{{\"name\":{},\"cat\":\"callback\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"req\":{},\"lock_wait_us\":{}}}}}",
            jstr(kinds.get(c.kind as usize).copied().unwrap_or("?")),
            c.node,
            jnum(c.entry_us()),
            jnum(c.dur_us),
            c.key,
            jnum(c.wait_us)
        ));
    }
    let mut rows: Vec<&str> = Vec::new();
    for r in reqs.iter().filter(|r| window.contains(r.start_us)).take(TRACE_CAP / 4) {
        let row = match rows.iter().position(|n| *n == r.name) {
            Some(i) => i,
            None => {
                rows.push(r.name);
                rows.len() - 1
            }
        };
        let tid = 1000 + row;
        ev.push(format!(
            "{{\"name\":{},\"cat\":\"request\",\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"req\":{}}}}}",
            jstr(r.name),
            jnum(r.start_us),
            jnum(r.end_us - r.start_us),
            r.key
        ));
        for (seg, s, e) in &r.parts {
            ev.push(format!(
                "{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"req\":{}}}}}",
                jstr(seg),
                jnum(*s),
                jnum((e - s).max(0.0)),
                r.key
            ));
        }
    }
    for n in nodes {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{n},\"args\":{{\"name\":{}}}}}",
            jstr(&node_name(n))
        ));
    }
    for (i, r) in rows.iter().enumerate() {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            1000 + i,
            jstr(&format!("{r} requests"))
        ));
    }
    format!("[\n{}\n]\n", ev.join(",\n"))
}

/// Durations of the request segments named `segment`.
pub fn segment_samples(reqs: &[ReqSpan], segment: &str) -> Vec<f64> {
    reqs.iter()
        .flat_map(|r| r.parts.iter())
        .filter(|(s, _, _)| *s == segment)
        .map(|(_, s, e)| (e - s).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let r = ReqSpan {
            name: "get",
            key: 1,
            start_us: 0.0,
            end_us: 100.0,
            parts: vec![("queue", 0.0, 30.0), ("callback", 30.0, 50.0)],
        };
        assert_eq!(r.self_us(), 50.0);
    }

    #[test]
    fn chrome_trace_is_a_json_array() {
        let cb = Callback { node: 0, kind: 2, key: 7, at_us: 10.0, wait_us: 1.0, dur_us: 3.0 };
        let r = ReqSpan { name: "get", key: 7, start_us: 5.0, end_us: 20.0, parts: vec![] };
        let t = chrome_trace(
            &[cb],
            &["start", "timer", "x"],
            |n| format!("n{n}"),
            &[r],
            Span { start_us: 0.0, end_us: 100.0 },
        );
        assert!(t.trim_start().starts_with('[') && t.trim_end().ends_with(']'));
        assert!(t.contains("\"name\":\"x\""));
    }
}
